//! Run-to-completion connection workers.
//!
//! Every worker pops accepted connections off the server's one bounded
//! queue and drives them to completion: keep-alive request loop,
//! per-request deadline enforcement, strict read limits, and panic
//! containment (`catch_unwind` around the model work, so a handler
//! panic — injected or organic — becomes a well-formed `internal` reply
//! instead of a dead connection). Workers share no mutable state beyond
//! the queue, the memo cache, and atomic counters; chaos faults are
//! sampled from a per-worker deterministic [`Injector`].
//!
//! A kept-alive connection holds its worker between requests. When it
//! has sent nothing for a whole idle poll while another connection
//! waits in the queue, the worker closes it (HTTP/1.1 lets a server
//! close an idle persistent connection) and takes the waiting one, so
//! idle clients cannot starve new ones; bytes already received are
//! always served first.
//!
//! Requests dispatch through the versioned route table in
//! [`crate::serve::api`]; each worker reuses one response buffer across
//! a connection's keep-alive lifetime, so the hot path stops allocating
//! once the buffer has grown to the working-set response size.
//!
//! The worker fault point fires *between* connections, outside the
//! containment boundary, so an injected worker death exercises the
//! supervisor's respawn path without ever eating a request.

use crate::fault::{Fault, FaultPoint, Injector};
use crate::perf::host_parallelism;
use crate::serve::api::{
    batch_body, error_body, solve_fragment, sweep_body, techniques_body, wrap_ok, ApiError,
    ApiRequest, BatchJob, BatchRequest, Endpoint, ErrorKind as ApiErrorKind, RouteMatch,
    SweepRequest, SweepRow,
};
use crate::serve::http::{read_request, Limits, ReadError, Request, Response};
use crate::serve::{Conn, ServeContext};
use bandwall_model::{CanonicalProblem, ScalingProblem};
use std::io::{BufReader, ErrorKind};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Request-head cap: 8 KiB covers any legitimate client.
const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Request-body cap: 64 KiB is far beyond any real problem description.
const MAX_BODY_BYTES: usize = 64 * 1024;
/// How often an idle keep-alive wait rechecks the drain flag and the
/// queue.
const IDLE_POLL: Duration = Duration::from_millis(50);
/// Most threads one batch fans out over, the calling worker included
/// (further bounded by the batch's job count and the host's
/// parallelism).
const MAX_BATCH_FANOUT: usize = 8;
/// Fewest solves a batch must carry before it fans out. Spawning and
/// joining one scoped helper costs about as much as 6.5 memo-miss
/// solves, and a helper saves at most half the batch's work, so below
/// twice that a batch runs faster inline (measured break-even in
/// EXPERIMENTS.md).
const FANOUT_MIN_SOLVES: usize = 13;

pub(crate) const LIMITS: Limits = Limits {
    max_head_bytes: MAX_HEAD_BYTES,
    max_body_bytes: MAX_BODY_BYTES,
};

/// The body of one worker thread: drain the queue until it is closed
/// and empty. Panics (chaos-injected worker deaths) unwind out of here
/// and are answered by the supervisor's respawn.
pub(crate) fn worker_loop(ctx: Arc<ServeContext>, fault_stream: u64) {
    let mut injector = ctx
        .config
        .chaos
        .map(|spec| Injector::for_worker(spec, fault_stream));
    while let Some(conn) = ctx.queue.pop() {
        handle_connection(&ctx, injector.as_mut(), conn);
        if let Some(fault) = injector.as_mut().and_then(|i| i.sample(FaultPoint::Worker)) {
            // Outside any containment on purpose: a worker death must
            // be survived by the supervisor, not the handler.
            let _ = fault.trigger();
        }
    }
}

/// Waits for the next request's first byte without consuming it,
/// polling the drain flag and the queue. Returns `false` when the
/// connection should close (drain, idle timeout, a whole idle poll with
/// another connection waiting, peer gone).
fn await_next_request(ctx: &ServeContext, stream: &TcpStream, buffered: bool) -> bool {
    if buffered {
        // Pipelined bytes already sit in the reader; serve them even
        // mid-drain (the request is in flight by any fair definition).
        return true;
    }
    let mut probe = [0u8; 1];
    let idle_limit = ctx.config.read_timeout;
    let started = Instant::now();
    if stream.set_read_timeout(Some(IDLE_POLL)).is_err() {
        return false;
    }
    loop {
        if ctx.is_draining() {
            return false;
        }
        match stream.peek(&mut probe) {
            Ok(0) => return false,
            Ok(_) => break,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if started.elapsed() >= idle_limit || !ctx.queue.is_empty() {
                    return false;
                }
            }
            Err(_) => return false,
        }
    }
    stream
        .set_read_timeout(Some(ctx.config.read_timeout))
        .is_ok()
}

fn handle_connection(ctx: &ServeContext, mut injector: Option<&mut Injector>, conn: Conn) {
    ctx.stats.connections.fetch_add(1, Ordering::Relaxed);
    let stream = conn.stream;
    if stream
        .set_write_timeout(Some(ctx.config.read_timeout))
        .is_err()
        || stream
            .set_read_timeout(Some(ctx.config.read_timeout))
            .is_err()
    {
        return;
    }
    let Ok(clone) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(clone);
    let mut writer = stream;
    let mut response_buf: Vec<u8> = Vec::with_capacity(1024);
    let mut first = true;
    loop {
        if !first && !await_next_request(ctx, &writer, !reader.buffer().is_empty()) {
            return;
        }
        // The deadline origin for the first request is the accept time
        // (queue wait counts against it); later keep-alive requests
        // start their clock when the worker turns to them.
        let origin = if first {
            conn.accepted_at
        } else {
            Instant::now()
        };
        first = false;
        let read_deadline = Instant::now() + ctx.config.read_timeout;
        let request = match read_request(&mut reader, &LIMITS, Some(read_deadline)) {
            Ok(None) => return,
            Ok(Some(request)) => request,
            Err(e) => {
                if let Some(response) = read_error_response(&e) {
                    count_response(ctx, &response);
                    let _ = response.write_buffered(&mut writer, &mut response_buf);
                }
                return;
            }
        };
        let deadline = origin + ctx.config.deadline;
        let mut response = respond(ctx, injector.as_deref_mut(), &request, deadline);
        response.close = response.close || !request.keep_alive || ctx.is_draining();
        count_response(ctx, &response);
        if response
            .write_buffered(&mut writer, &mut response_buf)
            .is_err()
            || response.close
        {
            return;
        }
    }
}

/// Maps a request-read failure onto its reply; `None` closes silently
/// (the client is gone, nobody is listening).
fn read_error_response(error: &ReadError) -> Option<Response> {
    let (status, message) = match error {
        ReadError::Disconnected | ReadError::Io(_) => return None,
        ReadError::Timeout => (408, "timed out reading request".to_string()),
        ReadError::HeadTooLarge => (413, format!("request head exceeds {MAX_HEAD_BYTES} bytes")),
        ReadError::BodyTooLarge { declared } => (
            413,
            format!("request body of {declared} bytes exceeds {MAX_BODY_BYTES}"),
        ),
        ReadError::Malformed(msg) => (400, format!("malformed request: {msg}")),
    };
    Some(Response {
        status,
        body: error_body(ApiErrorKind::InvalidRequest, &message),
        cache: None,
        close: true,
    })
}

fn count_response(ctx: &ServeContext, response: &Response) {
    let counter = match response.status {
        200 => &ctx.stats.served_ok,
        404 => &ctx.stats.not_found,
        500 => &ctx.stats.internal,
        503 => &ctx.stats.not_ready,
        504 => &ctx.stats.deadline_exceeded,
        _ => &ctx.stats.invalid_request,
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// A typed failure as its wire reply.
fn error_response(error: &ApiError) -> Response {
    Response {
        status: error.status,
        body: error.body(),
        cache: None,
        close: false,
    }
}

fn deadline_error() -> ApiError {
    ApiError::new(
        ApiErrorKind::DeadlineExceeded,
        "request missed its deadline",
    )
}

fn deadline_response() -> Response {
    error_response(&deadline_error())
}

/// Extracts a panic payload's message for the `internal` envelope.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("handler panicked")
}

fn panic_response(payload: &(dyn std::any::Any + Send)) -> Response {
    Response {
        status: 500,
        body: error_body(
            ApiErrorKind::Internal,
            &format!("contained panic: {}", panic_message(payload)),
        ),
        cache: None,
        close: false,
    }
}

/// Routes one request through the versioned route table. Every path
/// returns a well-formed JSON reply.
fn respond(
    ctx: &ServeContext,
    injector: Option<&mut Injector>,
    request: &Request,
    deadline: Instant,
) -> Response {
    let endpoint = match crate::serve::api::route(&request.method, &request.path) {
        RouteMatch::Endpoint(endpoint) => endpoint,
        RouteMatch::MethodNotAllowed => {
            return error_response(&ApiError::with_status(
                405,
                ApiErrorKind::InvalidRequest,
                format!("method {} not allowed here", request.method),
            ))
        }
        RouteMatch::NotFound => {
            return error_response(&ApiError::new(
                ApiErrorKind::NotFound,
                format!("no such endpoint '{}'", request.path),
            ))
        }
    };
    match endpoint {
        Endpoint::Healthz => Response::ok("{\"status\":\"ok\"}".into()),
        Endpoint::Readyz => {
            if ctx.is_draining() {
                error_response(&ApiError::new(
                    ApiErrorKind::NotReady,
                    "draining for shutdown",
                ))
            } else if ctx.saturated() {
                error_response(&ApiError::new(
                    ApiErrorKind::NotReady,
                    "request queue is saturated",
                ))
            } else {
                Response::ok("{\"status\":\"ok\"}".into())
            }
        }
        Endpoint::Techniques => {
            // The catalogue is static; render it once per process.
            static BODY: OnceLock<String> = OnceLock::new();
            Response::ok(BODY.get_or_init(techniques_body).clone())
        }
        Endpoint::Solve | Endpoint::Sweep | Endpoint::Batch => {
            let fault = injector.and_then(|i| i.sample(FaultPoint::Handler));
            if let Some(Fault::Sleep(d)) = &fault {
                std::thread::sleep(*d);
            }
            if Instant::now() > deadline {
                return deadline_response();
            }
            let parsed = match ApiRequest::parse(endpoint, &request.body) {
                Ok(parsed) => parsed,
                Err(error) => return error_response(&error),
            };
            match parsed {
                ApiRequest::Solve(problem) => solve(ctx, fault, &problem, deadline),
                ApiRequest::Sweep(sweep) => run_sweep(ctx, fault, &sweep, deadline),
                ApiRequest::Batch(batch) => run_batch(ctx, fault, &batch, deadline),
                ApiRequest::Healthz | ApiRequest::Readyz | ApiRequest::Techniques => {
                    unreachable!("GET endpoints answered above")
                }
            }
        }
    }
}

/// Returns the memoized solve-result fragment for `problem`, computing
/// and caching it on a miss. The bool is `true` on a cache hit.
///
/// # Errors
///
/// Propagates the model's rejection message (an `invalid_request`).
fn memo_fragment(ctx: &ServeContext, problem: &ScalingProblem) -> Result<(Arc<str>, bool), String> {
    let key = CanonicalProblem::of(problem);
    if let Some(fragment) = ctx.cache.get(&key) {
        return Ok((fragment, true));
    }
    let fragment: Arc<str> = Arc::from(solve_fragment(problem)?.as_str());
    ctx.cache.put(key, Arc::clone(&fragment));
    Ok((fragment, false))
}

fn solve(
    ctx: &ServeContext,
    fault: Option<Fault>,
    problem: &ScalingProblem,
    deadline: Instant,
) -> Response {
    // Containment boundary: an injected (or organic) panic inside the
    // solve becomes a structured `internal` reply, not a dead worker.
    let solved = catch_unwind(AssertUnwindSafe(|| {
        if let Some(Fault::Panic(message)) = &fault {
            panic!("{}", message.clone());
        }
        memo_fragment(ctx, problem)
    }));
    match solved {
        Err(payload) => panic_response(&*payload),
        Ok(Err(message)) => error_response(&ApiError::new(ApiErrorKind::InvalidRequest, message)),
        Ok(Ok((fragment, hit))) => {
            if Instant::now() > deadline {
                return deadline_response();
            }
            Response {
                cache: Some(if hit { "hit" } else { "miss" }),
                ..Response::ok(wrap_ok(&fragment))
            }
        }
    }
}

/// Solves every sweep variant (each memoized individually, sharing
/// cache entries with `/solve`) and renders the reply body. The bool is
/// `true` when every variant was a cache hit.
///
/// # Errors
///
/// A deadline miss or an infeasible variant fails the whole sweep —
/// a partial table would be worse than an honest error.
fn sweep_outcome(
    ctx: &ServeContext,
    sweep: &SweepRequest,
    deadline: Instant,
) -> Result<(String, bool), ApiError> {
    let mut rows = Vec::with_capacity(sweep.variants.len());
    let mut all_hit = true;
    for variant in &sweep.variants {
        if Instant::now() > deadline {
            return Err(deadline_error());
        }
        let mut problem = sweep.base.clone();
        if let Some(technique) = variant.technique {
            problem = problem.with_technique(technique);
        }
        let (fragment, hit) = memo_fragment(ctx, &problem).map_err(|message| {
            ApiError::new(
                ApiErrorKind::InvalidRequest,
                format!("variant '{}': {message}", variant.label),
            )
        })?;
        all_hit &= hit;
        rows.push(SweepRow {
            label: variant.label.clone(),
            paper: variant.paper,
            fragment: fragment.to_string(),
        });
    }
    Ok((sweep_body(sweep.name.as_deref(), &rows), all_hit))
}

fn run_sweep(
    ctx: &ServeContext,
    fault: Option<Fault>,
    sweep: &SweepRequest,
    deadline: Instant,
) -> Response {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if let Some(Fault::Panic(message)) = &fault {
            panic!("{}", message.clone());
        }
        sweep_outcome(ctx, sweep, deadline)
    }));
    match outcome {
        Err(payload) => panic_response(&*payload),
        Ok(Err(error)) => error_response(&error),
        Ok(Ok((body, all_hit))) => Response {
            cache: Some(if all_hit { "hit" } else { "miss" }),
            ..Response::ok(body)
        },
    }
}

/// Runs one batch job to its reply body — exactly the body the
/// standalone endpoint would have produced. Never panics outward: the
/// per-job containment turns a panic into an `internal` envelope in
/// that job's slot.
fn run_job(ctx: &ServeContext, job: &Result<BatchJob, ApiError>, deadline: Instant) -> String {
    let job = match job {
        Ok(job) => job,
        Err(error) => return error.body(),
    };
    if Instant::now() > deadline {
        return deadline_error().body();
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| match job {
        BatchJob::Solve(problem) => memo_fragment(ctx, problem)
            .map(|(fragment, _)| wrap_ok(&fragment))
            .map_err(|message| ApiError::new(ApiErrorKind::InvalidRequest, message)),
        BatchJob::Sweep(sweep) => sweep_outcome(ctx, sweep, deadline).map(|(body, _)| body),
    }));
    match outcome {
        Err(payload) => error_body(
            ApiErrorKind::Internal,
            &format!("contained panic: {}", panic_message(&*payload)),
        ),
        Ok(Err(error)) => error.body(),
        Ok(Ok(body)) => body,
    }
}

/// How many solves a job costs: one per solve, one per sweep variant,
/// none for a job that failed to parse.
fn job_solves(job: &Result<BatchJob, ApiError>) -> usize {
    match job {
        Ok(BatchJob::Solve(_)) => 1,
        Ok(BatchJob::Sweep(sweep)) => sweep.variants.len(),
        Err(_) => 0,
    }
}

/// Runs a batch and renders the reply. A batch with fewer than
/// [`FANOUT_MIN_SOLVES`] solves runs inline; a larger one spawns
/// helpers and the calling worker works alongside them, all taking
/// jobs by index. Partial failure is the contract: each job's slot
/// carries its own success or error envelope, and one bad job never
/// takes down its neighbours.
fn run_batch(
    ctx: &ServeContext,
    fault: Option<Fault>,
    batch: &BatchRequest,
    deadline: Instant,
) -> Response {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if let Some(Fault::Panic(message)) = &fault {
            panic!("{}", message.clone());
        }
        let jobs = &batch.jobs;
        let solves: usize = jobs.iter().map(job_solves).sum();
        let fanout = if solves < FANOUT_MIN_SOLVES {
            1
        } else {
            jobs.len().min(MAX_BATCH_FANOUT).min(host_parallelism())
        };
        let slots: Vec<Mutex<String>> = jobs.iter().map(|_| Mutex::default()).collect();
        let next = AtomicUsize::new(0);
        let take_jobs = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(job) = jobs.get(i) else {
                return;
            };
            let body = run_job(ctx, job, deadline);
            *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = body;
        };
        std::thread::scope(|scope| {
            for _ in 1..fanout {
                scope.spawn(take_jobs);
            }
            take_jobs();
        });
        let slots: Vec<String> = slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect();
        batch_body(&slots)
    }));
    match outcome {
        Err(payload) => panic_response(&*payload),
        Ok(body) => Response::ok(body),
    }
}
