//! `bandwall serve`: an overload-safe model-query service.
//!
//! A std-only TCP/HTTP-JSON front end over the analytical model, built
//! for graceful degradation first and throughput second:
//!
//! * one **acceptor** blocks in `accept()` and admits each connection
//!   to the server's one [`queue::BoundedQueue`], *shedding* it with an
//!   immediate `overloaded` reply when the queue is full: queue depth,
//!   not client count, bounds memory;
//! * N run-to-completion **workers** all drain that queue, enforce
//!   per-request deadlines, and contain handler panics; a kept-alive
//!   connection that sits idle while another connection waits gives
//!   its worker up and goes back on the queue, and a `/v1/batch` runs
//!   inline unless its solve count pays for a helper thread, the
//!   calling worker taking a share of any fan-out;
//! * a **supervisor** respawns workers that die (chaos or otherwise)
//!   with doubling backoff;
//! * a memo **cache** ([`cache`]) keyed by canonical problem encodings
//!   returns byte-identical bodies for repeated queries — shared by
//!   `/v1/solve` and every `/v1/sweep` variant;
//! * shutdown flips the drain flag and opens one throwaway loopback
//!   connection, so the acceptor blocked in `accept()` wakes, drops it
//!   unqueued and exits; the port and the queue close with it, workers
//!   drain in-flight work, and [`Server::join`] returns.
//!
//! Endpoints are the versioned route table in [`api`]: `GET /healthz`,
//! `GET /readyz`, `GET /v1/techniques`, `POST /v1/solve` (with the
//! legacy `POST /solve` alias), `POST /v1/sweep`, `POST /v1/batch`.
//! Every reply — including every failure — is a well-formed JSON
//! envelope.

pub mod api;
pub mod cache;
pub mod http;
pub mod json;
pub mod loadgen;
pub mod queue;
mod worker;

use crate::fault::ChaosSpec;
use crate::serve::api::{error_body, ErrorKind};
use crate::serve::cache::SolveCache;
use crate::serve::http::Response;
use crate::serve::queue::{BoundedQueue, PushError};
use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the acceptor backs off after a failed `accept()`, so a
/// persistent error such as `EMFILE` cannot spin its thread.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(1);

/// How long [`ShutdownHandle::shutdown`] waits for its wake connection.
const WAKE_CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// How the server runs; every knob has a CLI flag.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:8787` by default; port 0 picks one).
    pub addr: String,
    /// Worker thread count.
    pub workers: usize,
    /// Bounded-queue capacity (connections awaiting a worker).
    pub queue_capacity: usize,
    /// Per-request deadline (queue wait counts for a connection's first
    /// request).
    pub deadline: Duration,
    /// Socket read/write window; also the keep-alive idle limit.
    pub read_timeout: Duration,
    /// Memo-cache capacity in entries (0 disables memoization).
    pub cache_capacity: usize,
    /// Chaos plan; `None` runs clean.
    pub chaos: Option<ChaosSpec>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8787".to_string(),
            workers: 2,
            queue_capacity: 64,
            deadline: Duration::from_secs(2),
            read_timeout: Duration::from_secs(5),
            cache_capacity: 4096,
            chaos: None,
        }
    }
}

/// Lifetime counters, written with relaxed atomics on the serving path.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Connections handed to workers.
    pub connections: AtomicU64,
    /// `200 OK` replies.
    pub served_ok: AtomicU64,
    /// Connections refused with `overloaded` (queue full or closed).
    pub shed: AtomicU64,
    /// `400/405/408/413 invalid_request` replies.
    pub invalid_request: AtomicU64,
    /// `404 not_found` replies.
    pub not_found: AtomicU64,
    /// `503 not_ready` replies (readiness probe only).
    pub not_ready: AtomicU64,
    /// `504 deadline_exceeded` replies.
    pub deadline_exceeded: AtomicU64,
    /// `500 internal` replies (contained panics).
    pub internal: AtomicU64,
    /// Workers respawned by the supervisor after a panic.
    pub worker_respawns: AtomicU64,
}

/// A plain-value copy of [`ServeStats`] plus cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections handed to workers.
    pub connections: u64,
    /// `200 OK` replies.
    pub served_ok: u64,
    /// Connections shed with `overloaded`.
    pub shed: u64,
    /// `invalid_request` replies.
    pub invalid_request: u64,
    /// `not_found` replies.
    pub not_found: u64,
    /// `not_ready` replies.
    pub not_ready: u64,
    /// `deadline_exceeded` replies.
    pub deadline_exceeded: u64,
    /// `internal` replies (contained panics).
    pub internal: u64,
    /// Supervisor respawns.
    pub worker_respawns: u64,
    /// Memo-cache hits.
    pub cache_hits: u64,
    /// Memo-cache misses.
    pub cache_misses: u64,
}

/// One accepted connection awaiting a worker.
#[derive(Debug)]
pub(crate) struct Conn {
    pub stream: TcpStream,
    pub accepted_at: Instant,
    /// For a kept-alive connection that gave its worker up while idle,
    /// when its last reply went out (its idle limit runs from there);
    /// `None` for a connection fresh from `accept()`.
    pub idle_since: Option<Instant>,
}

/// State shared by the acceptor, workers, and supervisor.
#[derive(Debug)]
pub(crate) struct ServeContext {
    pub config: ServeConfig,
    /// Admitted connections awaiting a worker.
    pub queue: BoundedQueue<Conn>,
    /// How many of the queued connections are fresh from `accept()`,
    /// not requeued idle ones: a worker passes a requeued idle
    /// connection straight on while one waits.
    pub fresh_waiting: AtomicUsize,
    pub cache: SolveCache,
    pub stats: ServeStats,
    shutdown: AtomicBool,
}

impl ServeContext {
    pub fn is_draining(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Whether the queue is at capacity — the readiness probe's
    /// saturation signal.
    pub fn saturated(&self) -> bool {
        self.queue.is_full()
    }
}

/// Asks the server to drain and stop; cloneable across threads (the
/// signal-watching loop holds one while [`Server::join`] blocks).
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    ctx: Arc<ServeContext>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Flips the drain flag, then opens one throwaway connection so the
    /// acceptor blocked in `accept()` wakes, sees the flag and exits:
    /// the port closes, queued and in-flight requests finish, idle
    /// connections close. Only the first call does anything; later
    /// calls are no-ops.
    pub fn shutdown(&self) {
        // Release pairs with the Acquire load in `is_draining`: the
        // acceptor woken by the connection below sees the flag set.
        if self.ctx.shutdown.swap(true, Ordering::Release) {
            return;
        }
        let wake = SocketAddr::new(loopback_for(self.addr.ip()), self.addr.port());
        // A failed connect means the listener is already gone or its
        // backlog is full of real connections, any of which wakes the
        // acceptor just as well.
        let _ = TcpStream::connect_timeout(&wake, WAKE_CONNECT_TIMEOUT);
    }
}

/// The address a local client reaches a listener bound to `ip` on: an
/// unspecified bind (`0.0.0.0` or `[::]`) maps to its loopback.
fn loopback_for(ip: IpAddr) -> IpAddr {
    match ip {
        IpAddr::V4(v4) if v4.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(v6) if v6.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        other => other,
    }
}

/// A running server; dropping it does **not** stop the threads — call
/// [`Server::shutdown_handle`] + [`Server::join`] for a clean stop.
#[derive(Debug)]
pub struct Server {
    ctx: Arc<ServeContext>,
    addr: SocketAddr,
    acceptor: JoinHandle<()>,
    supervisor: JoinHandle<()>,
}

impl Server {
    /// Binds, spawns the acceptor, workers, and supervisor, and
    /// returns once the server is accepting.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O errors.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let ctx = Arc::new(ServeContext {
            queue: BoundedQueue::new(config.queue_capacity),
            fresh_waiting: AtomicUsize::new(0),
            cache: SolveCache::new(config.cache_capacity),
            config,
            stats: ServeStats::default(),
            shutdown: AtomicBool::new(false),
        });
        let acceptor = {
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name("bandwall-acceptor".into())
                .spawn(move || acceptor_loop(listener, &ctx))?
        };
        let supervisor = {
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name("bandwall-supervisor".into())
                .spawn(move || supervisor_loop(&ctx))?
        };
        Ok(Server {
            ctx,
            addr,
            acceptor,
            supervisor,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that can request shutdown from any thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            ctx: Arc::clone(&self.ctx),
            addr: self.addr,
        }
    }

    /// A point-in-time copy of the counters.
    pub fn stats(&self) -> StatsSnapshot {
        snapshot_of(&self.ctx)
    }

    /// Blocks until the server has fully drained after a
    /// [`ShutdownHandle::shutdown`], then returns the final counters.
    /// The port is closed and every worker has exited by the time this
    /// returns.
    pub fn join(self) -> StatsSnapshot {
        // The acceptor's exit drops the listener and closes the queue;
        // the supervisor exits once every worker has drained and
        // finished.
        let _ = self.acceptor.join();
        let _ = self.supervisor.join();
        snapshot_of(&self.ctx)
    }
}

fn snapshot_of(ctx: &ServeContext) -> StatsSnapshot {
    let s = &ctx.stats;
    let (cache_hits, cache_misses) = ctx.cache.stats();
    StatsSnapshot {
        connections: s.connections.load(Ordering::Relaxed),
        served_ok: s.served_ok.load(Ordering::Relaxed),
        shed: s.shed.load(Ordering::Relaxed),
        invalid_request: s.invalid_request.load(Ordering::Relaxed),
        not_found: s.not_found.load(Ordering::Relaxed),
        not_ready: s.not_ready.load(Ordering::Relaxed),
        deadline_exceeded: s.deadline_exceeded.load(Ordering::Relaxed),
        internal: s.internal.load(Ordering::Relaxed),
        worker_respawns: s.worker_respawns.load(Ordering::Relaxed),
        cache_hits,
        cache_misses,
    }
}

/// The acceptor: blocks in `accept()` and admits each connection to
/// the queue, shedding it with an immediate `overloaded` reply when the
/// queue is full. The first connection it sees once draining — the
/// shutdown wake or a real client racing the drain — is dropped
/// unqueued and uncounted, and the acceptor exits.
fn acceptor_loop(listener: TcpListener, ctx: &Arc<ServeContext>) {
    loop {
        let accepted = listener.accept();
        if ctx.is_draining() {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                let conn = Conn {
                    stream,
                    accepted_at: Instant::now(),
                    idle_since: None,
                };
                // Counted before the push, so the worker that pops it
                // never takes the count below zero.
                ctx.fresh_waiting.fetch_add(1, Ordering::Relaxed);
                if let Err(PushError::Full(conn) | PushError::Closed(conn)) =
                    ctx.queue.try_push(conn)
                {
                    ctx.fresh_waiting.fetch_sub(1, Ordering::Relaxed);
                    ctx.stats.shed.fetch_add(1, Ordering::Relaxed);
                    shed(conn.stream);
                }
            }
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
    // Dropping the listener releases the port; closing the queue lets
    // the workers drain what was already admitted and then exit.
    drop(listener);
    ctx.queue.close();
}

/// Best-effort `503 overloaded` on a nonblocking socket. The reply is
/// ~150 bytes — it fits any kernel send buffer — and if it doesn't
/// (a client that never reads), we drop the connection rather than
/// ever block the acceptor.
fn shed(stream: TcpStream) {
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let response = Response {
        status: 503,
        body: error_body(
            ErrorKind::Overloaded,
            "request queue is full; retry with backoff",
        ),
        cache: None,
        close: true,
    };
    let mut stream = stream;
    let _ = stream.write_all(&response.to_bytes());
    let _ = stream.flush();
}

/// Spawns the initial workers, then respawns any that die with a
/// doubling backoff (10 ms → 500 ms, reset after a quiet scan).
/// Returns once the queue is closed and every worker has exited
/// normally — i.e. the drain is complete.
fn supervisor_loop(ctx: &Arc<ServeContext>) {
    const BACKOFF_FLOOR: Duration = Duration::from_millis(10);
    const BACKOFF_CEIL: Duration = Duration::from_millis(500);
    let spawn = |stream: u64| {
        let ctx = Arc::clone(ctx);
        std::thread::Builder::new()
            .name(format!("bandwall-worker-{stream}"))
            .spawn(move || worker::worker_loop(ctx, stream))
            .expect("spawning a worker thread")
    };
    let workers = ctx.config.workers.max(1) as u64;
    let mut slots: Vec<Option<JoinHandle<()>>> = (0..workers).map(|i| Some(spawn(i))).collect();
    let mut next_stream = workers;
    let mut backoff = BACKOFF_FLOOR;
    loop {
        std::thread::sleep(Duration::from_millis(5));
        let mut respawned = false;
        for slot in &mut slots {
            let finished = slot.as_ref().is_some_and(JoinHandle::is_finished);
            if !finished {
                continue;
            }
            let handle = slot.take().expect("finished slot holds a handle");
            if handle.join().is_err() {
                // Panicked: back off, then respawn with a fresh fault
                // stream so a deterministic chaos sequence cannot pin
                // the worker in a death loop.
                ctx.stats.worker_respawns.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(BACKOFF_CEIL);
                *slot = Some(spawn(next_stream));
                next_stream += 1;
                respawned = true;
            }
            // A normal exit means the queue is closed and drained; leave
            // the slot empty.
        }
        if !respawned {
            backoff = BACKOFF_FLOOR;
        }
        if ctx.queue.is_closed() && slots.iter().all(Option::is_none) {
            return;
        }
    }
}
