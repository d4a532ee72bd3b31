//! The load-generation driver shared by `bandwall loadgen` and the
//! `serve` bench group.
//!
//! One driver, two front ends: `bandwall bench serve` starts an
//! in-process [`crate::serve::Server`] and points the driver at it;
//! `bandwall loadgen --addr` points it at an already-running server
//! over real TCP. Either way the driver measures per-endpoint kernels —
//! health-check latency on a kept-alive and on a new connection, cold
//! and memoized solve latency, cold and memoized sweep latency, a mixed
//! partial-failure batch, a full-size batch that fans out, and a
//! concurrent throughput batch — and *validates* as it measures: every
//! reply must carry the expected status and cache header, every
//! memoized body must be byte-identical to the first reply for that
//! problem, and every batch slot must hold the envelope its job earned.
//! A protocol violation fails the run, so the driver doubles as an
//! end-to-end correctness check.
//!
//! `--endpoint` narrows the run to one POST endpoint's kernels;
//! `--mix solve=7,sweep=2,batch=1` interleaves endpoints on one
//! connection and reports *per-endpoint* latency percentiles instead of
//! a single aggregate.

use crate::perf::{BenchOptions, BenchResult};
use crate::serve::api::{MAX_BATCH_JOBS, MAX_SWEEP_VARIANTS};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Which POST endpoints a loadgen run exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EndpointSelection {
    /// Every kernel (the default).
    #[default]
    All,
    /// Only the `/v1/solve` kernels (plus health check and throughput).
    Solve,
    /// Only the `/v1/sweep` kernels.
    Sweep,
    /// Only the `/v1/batch` kernel.
    Batch,
}

impl EndpointSelection {
    /// Parses a `--endpoint` value.
    ///
    /// # Errors
    ///
    /// Returns a message naming the allowed values.
    pub fn parse(value: &str) -> Result<Self, String> {
        match value {
            "all" => Ok(EndpointSelection::All),
            "solve" => Ok(EndpointSelection::Solve),
            "sweep" => Ok(EndpointSelection::Sweep),
            "batch" => Ok(EndpointSelection::Batch),
            other => Err(format!(
                "unknown endpoint '{other}' (allowed: all, solve, sweep, batch)"
            )),
        }
    }
}

/// Relative request weights for a `--mix` run. A zero weight skips the
/// endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixWeights {
    /// `/v1/solve` share.
    pub solve: u32,
    /// `/v1/sweep` share.
    pub sweep: u32,
    /// `/v1/batch` share.
    pub batch: u32,
}

impl MixWeights {
    /// Parses a `--mix` value like `solve=7,sweep=2,batch=1`; omitted
    /// endpoints get weight 0.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown endpoints, bad weights, or an
    /// all-zero mix.
    pub fn parse(value: &str) -> Result<Self, String> {
        let mut mix = MixWeights {
            solve: 0,
            sweep: 0,
            batch: 0,
        };
        for part in value.split(',') {
            let (name, weight) = part
                .split_once('=')
                .ok_or_else(|| format!("bad mix entry '{part}' (want endpoint=weight)"))?;
            let weight: u32 = weight
                .parse()
                .map_err(|_| format!("bad mix weight '{weight}' for '{name}'"))?;
            match name {
                "solve" => mix.solve = weight,
                "sweep" => mix.sweep = weight,
                "batch" => mix.batch = weight,
                other => {
                    return Err(format!(
                        "unknown mix endpoint '{other}' (allowed: solve, sweep, batch)"
                    ))
                }
            }
        }
        if mix.solve == 0 && mix.sweep == 0 && mix.batch == 0 {
            return Err("mix needs at least one nonzero weight".to_string());
        }
        Ok(mix)
    }
}

/// How much load to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadgenOptions {
    /// Concurrent connections in the throughput batch.
    pub connections: usize,
    /// Requests per latency kernel (and per throughput batch).
    pub requests: usize,
    /// Which POST endpoints to exercise.
    pub endpoint: EndpointSelection,
    /// When set, run the weighted-mix kernel and report per-endpoint
    /// percentiles (replaces the per-endpoint kernels).
    pub mix: Option<MixWeights>,
}

impl LoadgenOptions {
    /// The default load: enough requests for a meaningful p99.
    pub fn standard() -> Self {
        LoadgenOptions {
            connections: 4,
            requests: 2_000,
            endpoint: EndpointSelection::All,
            mix: None,
        }
    }

    /// A CI-friendly smoke load.
    pub fn quick() -> Self {
        LoadgenOptions {
            connections: 2,
            requests: 200,
            ..Self::standard()
        }
    }

    /// Derives the load from bench options so `--quick` means the same
    /// thing for `bandwall bench serve` as everywhere else.
    pub fn from_bench(options: &BenchOptions) -> Self {
        LoadgenOptions {
            connections: 4,
            requests: (options.accesses / 200).clamp(100, 5_000),
            ..Self::standard()
        }
    }
}

/// One parsed HTTP response from the server under test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// The `x-bandwall-cache` header, when present (`hit` / `miss`).
    pub cache: Option<String>,
    /// The response body.
    pub body: String,
    /// Whether the server announced `connection: close`.
    pub close: bool,
}

/// A minimal keep-alive HTTP/1.1 client for driving `bandwall serve`
/// (also used by the integration tests, which is why it is public).
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects with a generous read window (the server, not the
    /// client, is what the timeouts under test protect).
    ///
    /// # Errors
    ///
    /// Propagates connect/configuration failures as strings.
    pub fn connect(addr: &SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect_timeout(addr, Duration::from_secs(5))
            .map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Sends one request and reads the full reply.
    ///
    /// # Errors
    ///
    /// Returns a message for socket failures or malformed responses.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<ClientResponse, String> {
        self.send(method, path, body, "")
    }

    /// Sends one request with `connection: close` and reads the reply,
    /// consuming the client: the one-request-per-connection pattern.
    ///
    /// # Errors
    ///
    /// Returns a message for socket failures or malformed responses.
    pub fn request_once(
        mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<ClientResponse, String> {
        self.send(method, path, body, "connection: close\r\n")
    }

    fn send(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra_headers: &str,
    ) -> Result<ClientResponse, String> {
        let body = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: bandwall\r\n{extra_headers}content-length: {}\r\n\r\n",
            body.len()
        );
        self.writer
            .write_all(head.as_bytes())
            .and_then(|()| self.writer.write_all(body.as_bytes()))
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("sending request: {e}"))?;
        self.read_response()
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("reading response: {e}"))?;
        if n == 0 {
            return Err("server closed the connection mid-response".to_string());
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    fn read_response(&mut self) -> Result<ClientResponse, String> {
        let status_line = self.read_line()?;
        let status: u16 = status_line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.split(' ').next())
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| format!("bad status line '{status_line}'"))?;
        let mut content_length = 0usize;
        let mut cache = None;
        let mut close = false;
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(format!("bad response header '{line}'"));
            };
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => {
                    content_length = value
                        .parse()
                        .map_err(|_| format!("bad content-length '{value}'"))?;
                }
                "x-bandwall-cache" => cache = Some(value.to_string()),
                "connection" => close = value.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| format!("reading response body: {e}"))?;
        Ok(ClientResponse {
            status,
            cache,
            body: String::from_utf8(body).map_err(|_| "non-UTF-8 response body".to_string())?,
            close,
        })
    }
}

/// A solve body that is unique per `i` (so it always misses the memo
/// cache) yet always valid and quick to solve. The `1/128` offset
/// keeps the cold lattice disjoint from any integer-`total_ceas`
/// problem a smoke probe may have warmed before loadgen ran (e.g. the
/// CI `curl` of the fig05 sweep memoizes its `total_ceas: 32` base,
/// which a plain `24 + i/8` lattice would land on at `i = 64`).
fn cold_body(i: usize) -> String {
    format!("{{\"total_ceas\":{}}}", 24.0078125 + i as f64 / 8.0)
}

/// The repeated problem for the memoized kernel: the paper's 16× DRAM
/// cache headline configuration.
const MEMO_BODY: &str = r#"{"total_ceas":256,"techniques":[{"kind":"dram_cache","density":8}]}"#;

/// The repeated sweep for the memoized-sweep kernel: the Figure 5 DRAM
/// cache catalogue sweep.
const MEMO_SWEEP_BODY: &str = r#"{"sweep":"fig05_dram_cache"}"#;

/// A two-variant custom sweep over a base problem unique per `i`, so
/// both variants miss the memo cache. Offset off the integer lattice
/// for the same probe-collision reason as [`cold_body`] (and off
/// `cold_body`'s own `1/128` lattice).
fn cold_sweep_body(i: usize) -> String {
    format!(
        "{{\"base\":{{\"total_ceas\":{}}},\"variants\":[{{\"label\":\"base\"}},\
         {{\"technique\":{{\"kind\":\"dram_cache\",\"density\":8}}}}]}}",
        512.00390625 + i as f64 / 8.0
    )
}

/// The mixed batch: two jobs that succeed and one that must come back
/// as an `invalid_request` envelope in its slot — every batch request
/// doubles as a partial-failure check.
const BATCH_BODY: &str = r#"{"jobs":[{"kind":"solve","problem":{"total_ceas":256,"techniques":[{"kind":"dram_cache","density":8}]}},{"kind":"sweep","sweep":"fig04_cache_compression"},{"kind":"solve","problem":{"total_ceas":-1}}]}"#;

/// The large batch: [`MAX_BATCH_JOBS`] sweep jobs of
/// [`MAX_SWEEP_VARIANTS`] variants each, every job over a base no
/// earlier request used (offset off the integer lattice, and off the
/// other cold lattices, by `1/1024`). The variants are base points:
/// that many technique variants per job would overflow the 64 KiB body
/// cap. Each job therefore solves its base once and memoizes the rest —
/// 2048 solves, enough to take the batch's fan-out path.
fn large_batch_body(i: usize) -> String {
    let variants = vec!["{}"; MAX_SWEEP_VARIANTS].join(",");
    let jobs: Vec<String> = (0..MAX_BATCH_JOBS)
        .map(|job| {
            format!(
                "{{\"kind\":\"sweep\",\"base\":{{\"total_ceas\":{}}},\"variants\":[{variants}]}}",
                32.0009765625 + (i * MAX_BATCH_JOBS + job) as f64 / 8.0
            )
        })
        .collect();
    format!("{{\"jobs\":[{}]}}", jobs.join(","))
}

fn expect_ok(what: &str, response: &ClientResponse) -> Result<(), String> {
    if response.status != 200 {
        return Err(format!(
            "{what}: expected 200, got {} with body {}",
            response.status, response.body
        ));
    }
    Ok(())
}

fn expect_cache(what: &str, response: &ClientResponse, want: &str) -> Result<(), String> {
    if response.cache.as_deref() != Some(want) {
        return Err(format!(
            "{what}: expected a cache {want}, got {:?}",
            response.cache
        ));
    }
    Ok(())
}

/// Checks a batch reply: 200, exactly one error slot (the intentionally
/// infeasible job), two ok slots.
fn check_batch_reply(what: &str, response: &ClientResponse) -> Result<(), String> {
    expect_ok(what, response)?;
    let errors = response.body.matches("\"status\":\"error\"").count();
    let oks = response.body.matches("\"status\":\"ok\"").count();
    if errors != 1 || !response.body.contains("\"kind\":\"invalid_request\"") {
        return Err(format!(
            "{what}: expected exactly one invalid_request slot, got {errors} error slots in {}",
            response.body
        ));
    }
    // The envelope itself plus the two good jobs.
    if oks != 3 {
        return Err(format!(
            "{what}: expected 2 ok slots inside the envelope, body {}",
            response.body
        ));
    }
    Ok(())
}

/// Checks a large-batch reply: 200, every slot ok, every slot a full
/// sweep.
fn check_large_batch_reply(what: &str, response: &ClientResponse) -> Result<(), String> {
    expect_ok(what, response)?;
    let oks = response.body.matches("\"status\":\"ok\"").count();
    let rows = response.body.matches("\"label\":\"base\"").count();
    if oks != 1 + MAX_BATCH_JOBS || rows != MAX_BATCH_JOBS * MAX_SWEEP_VARIANTS {
        return Err(format!(
            "{what}: expected {MAX_BATCH_JOBS} ok slots of {MAX_SWEEP_VARIANTS} rows, \
             got {} ok envelopes and {rows} rows",
            oks.saturating_sub(1)
        ));
    }
    Ok(())
}

/// One latency kernel: `requests` sequential requests on a keep-alive
/// connection, each validated by `check`.
fn latency_kernel(
    client: &mut Client,
    requests: usize,
    method: &'static str,
    path: &'static str,
    body: impl Fn(usize) -> Option<String>,
    mut check: impl FnMut(usize, &ClientResponse) -> Result<(), String>,
) -> Result<Vec<u64>, String> {
    let mut samples = Vec::with_capacity(requests);
    for i in 0..requests {
        let body = body(i);
        let start = Instant::now();
        let response = client.request(method, path, body.as_deref())?;
        samples.push(start.elapsed().as_nanos() as u64);
        check(i, &response)?;
    }
    Ok(samples)
}

/// The concurrent throughput kernel (`serve_throughput_c{N}`):
/// `connections` clients each issue their share of a batch of memoized
/// solves; the sample is the whole batch's wall time. Three batches
/// give a coarse spread.
fn throughput_result(addr: &SocketAddr, options: &LoadgenOptions) -> Result<BenchResult, String> {
    let requests = options.requests.max(10);
    let connections = options.connections.max(1);
    let per_connection = requests.div_ceil(connections);
    let total = (per_connection * connections) as u64;
    let mut batch_samples = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        let threads: Vec<_> = (0..connections)
            .map(|_| {
                let addr = *addr;
                std::thread::spawn(move || -> Result<(), String> {
                    let mut client = Client::connect(&addr)?;
                    for _ in 0..per_connection {
                        let response = client.request("POST", "/solve", Some(MEMO_BODY))?;
                        expect_ok("throughput solve", &response)?;
                    }
                    Ok(())
                })
            })
            .collect();
        for thread in threads {
            thread
                .join()
                .map_err(|_| "throughput client panicked".to_string())??;
        }
        batch_samples.push(start.elapsed().as_nanos() as u64);
    }
    Ok(BenchResult::from_samples(
        format!("serve_throughput_c{connections}"),
        format!("{connections} concurrent connections, {total} memoized solves per batch"),
        connections,
        total,
        "requests",
        batch_samples,
    ))
}

/// The weighted-mix kernel: interleaves solve/sweep/batch requests on
/// one connection in a deterministic cycle derived from the weights and
/// reports per-endpoint percentiles (`serve_mix_solve`, ...), so a
/// mixed workload's tail latency is attributable per endpoint.
fn mix_results(
    client: &mut Client,
    requests: usize,
    mix: &MixWeights,
) -> Result<Vec<BenchResult>, String> {
    #[derive(Clone, Copy, PartialEq)]
    enum Step {
        Solve,
        Sweep,
        Batch,
    }
    let mut cycle = Vec::new();
    let weights = [
        (Step::Solve, mix.solve),
        (Step::Sweep, mix.sweep),
        (Step::Batch, mix.batch),
    ];
    // Interleave round-robin so a cycle like 7/2/1 doesn't serialise
    // into long same-endpoint runs.
    let mut remaining = weights;
    while remaining.iter().any(|(_, w)| *w > 0) {
        for (step, weight) in &mut remaining {
            if *weight > 0 {
                cycle.push(*step);
                *weight -= 1;
            }
        }
    }
    let mut samples = [Vec::new(), Vec::new(), Vec::new()];
    for i in 0..requests {
        let step = cycle[i % cycle.len()];
        let (path, body, slot): (_, _, usize) = match step {
            Step::Solve => ("/v1/solve", MEMO_BODY.to_string(), 0),
            Step::Sweep => ("/v1/sweep", MEMO_SWEEP_BODY.to_string(), 1),
            Step::Batch => ("/v1/batch", BATCH_BODY.to_string(), 2),
        };
        let start = Instant::now();
        let response = client.request("POST", path, Some(&body))?;
        samples[slot].push(start.elapsed().as_nanos() as u64);
        match step {
            Step::Batch => check_batch_reply("mix batch", &response)?,
            _ => expect_ok("mix request", &response)?,
        }
    }
    let mut results = Vec::new();
    for (slot, name) in [(0, "solve"), (1, "sweep"), (2, "batch")] {
        let taken = std::mem::take(&mut samples[slot]);
        if taken.is_empty() {
            continue;
        }
        results.push(BenchResult::from_samples(
            format!("serve_mix_{name}"),
            format!(
                "{name} share of a {}:{}:{} mix, {} requests",
                mix.solve,
                mix.sweep,
                mix.batch,
                taken.len()
            ),
            1,
            1,
            "requests",
            taken,
        ));
    }
    Ok(results)
}

/// Runs the serve kernels selected by `options` against `addr`. The
/// returned results plug straight into a `serve`
/// [`crate::perf::BenchGroup`].
///
/// # Errors
///
/// Returns a message on any connection failure or protocol violation
/// (wrong status, wrong cache header, memoized body drift, batch slot
/// mismatch).
pub fn run_against(
    addr: &SocketAddr,
    options: &LoadgenOptions,
) -> Result<Vec<BenchResult>, String> {
    let requests = options.requests.max(10);
    let selection = options.endpoint;
    let mut results = Vec::new();

    // Health-check latency (protocol floor) leads every run: first one
    // request per new connection — the accept and admission path every
    // keep-alive kernel skips — before the keep-alive connection opens,
    // since an idle kept-alive connection keeps its worker until a
    // queued connection has waited a whole idle poll.
    let mut samples = Vec::with_capacity(requests);
    for i in 0..requests {
        let start = Instant::now();
        let response = Client::connect(addr)?.request_once("GET", "/healthz", None)?;
        samples.push(start.elapsed().as_nanos() as u64);
        expect_ok(&format!("fresh healthz {i}"), &response)?;
        if !response.close {
            return Err(format!(
                "fresh healthz {i}: the server kept a `connection: close` request open"
            ));
        }
    }
    results.push(BenchResult::from_samples(
        "serve_healthz_fresh",
        format!("GET /healthz on a new connection each, {requests} requests"),
        1,
        1,
        "requests",
        samples,
    ));

    let mut client = Client::connect(addr)?;
    let samples = latency_kernel(
        &mut client,
        requests,
        "GET",
        "/healthz",
        |_| None,
        |_, response| expect_ok("healthz", response),
    )?;
    results.push(BenchResult::from_samples(
        "serve_healthz",
        format!("GET /healthz over one keep-alive connection, {requests} requests"),
        1,
        1,
        "requests",
        samples,
    ));

    if let Some(mix) = &options.mix {
        results.extend(mix_results(&mut client, requests, mix)?);
        drop(client);
        results.push(throughput_result(addr, options)?);
        return Ok(results);
    }

    if matches!(selection, EndpointSelection::All | EndpointSelection::Solve) {
        // Cold solves — every request is a distinct problem, so every
        // reply must be a cache miss.
        let samples = latency_kernel(
            &mut client,
            requests,
            "POST",
            "/solve",
            |i| Some(cold_body(i)),
            |i, response| {
                expect_ok("cold solve", response)?;
                expect_cache(&format!("cold solve {i}"), response, "miss")
            },
        )?;
        results.push(BenchResult::from_samples(
            "serve_solve_cold",
            format!("POST /solve, {requests} distinct problems (cache misses)"),
            1,
            1,
            "requests",
            samples,
        ));

        // Memoized solves — one problem repeated; after the warming
        // request every reply must be a hit, byte-identical to the
        // first body.
        let warm = client.request("POST", "/solve", Some(MEMO_BODY))?;
        expect_ok("memo warmup", &warm)?;
        let reference = warm.body.clone();
        let samples = latency_kernel(
            &mut client,
            requests,
            "POST",
            "/solve",
            |_| Some(MEMO_BODY.to_string()),
            |i, response| {
                expect_ok("memoized solve", response)?;
                expect_cache(&format!("memoized solve {i}"), response, "hit")?;
                if response.body != reference {
                    return Err(format!(
                        "memoized solve {i}: body drifted from the uncached reply\n\
                         cached:   {}\nuncached: {reference}",
                        response.body
                    ));
                }
                Ok(())
            },
        )?;
        results.push(BenchResult::from_samples(
            "serve_solve_memoized",
            format!("POST /solve, one problem repeated {requests} times (cache hits)"),
            1,
            1,
            "requests",
            samples,
        ));
    }

    if matches!(selection, EndpointSelection::All | EndpointSelection::Sweep) {
        // Cold sweeps — a fresh base problem each request, so at least
        // one variant misses and the reply is marked "miss".
        let samples = latency_kernel(
            &mut client,
            requests,
            "POST",
            "/v1/sweep",
            |i| Some(cold_sweep_body(i)),
            |i, response| {
                expect_ok("cold sweep", response)?;
                expect_cache(&format!("cold sweep {i}"), response, "miss")
            },
        )?;
        results.push(BenchResult::from_samples(
            "serve_sweep_cold",
            format!("POST /v1/sweep, {requests} two-variant sweeps over distinct bases"),
            1,
            1,
            "requests",
            samples,
        ));

        // Memoized sweeps — the Figure 5 catalogue sweep repeated;
        // after the warming request every variant hits and the body
        // must not drift.
        let warm = client.request("POST", "/v1/sweep", Some(MEMO_SWEEP_BODY))?;
        expect_ok("sweep warmup", &warm)?;
        let reference = warm.body.clone();
        let samples = latency_kernel(
            &mut client,
            requests,
            "POST",
            "/v1/sweep",
            |_| Some(MEMO_SWEEP_BODY.to_string()),
            |i, response| {
                expect_ok("memoized sweep", response)?;
                expect_cache(&format!("memoized sweep {i}"), response, "hit")?;
                if response.body != reference {
                    return Err(format!(
                        "memoized sweep {i}: body drifted from the first reply\n\
                         cached: {}\nfirst:  {reference}",
                        response.body
                    ));
                }
                Ok(())
            },
        )?;
        results.push(BenchResult::from_samples(
            "serve_sweep_memoized",
            format!("POST /v1/sweep, fig05_dram_cache repeated {requests} times (cache hits)"),
            1,
            1,
            "requests",
            samples,
        ));
    }

    if matches!(selection, EndpointSelection::All | EndpointSelection::Batch) {
        // Mixed batches — each request fans three jobs out and must
        // come back 200 with exactly one error slot (partial failure).
        let samples = latency_kernel(
            &mut client,
            requests,
            "POST",
            "/v1/batch",
            |_| Some(BATCH_BODY.to_string()),
            |i, response| check_batch_reply(&format!("batch {i}"), response),
        )?;
        results.push(BenchResult::from_samples(
            "serve_batch_mixed",
            format!(
                "POST /v1/batch, {requests} three-job batches (one slot an intentional failure)"
            ),
            1,
            1,
            "requests",
            samples,
        ));

        // Large batches — each a full-size batch of cold sweeps, the
        // fan-out side of the batch threshold. A tenth of the request
        // count keeps the kernel's run time near the others'.
        let large = (requests / 10).max(10);
        let samples = latency_kernel(
            &mut client,
            large,
            "POST",
            "/v1/batch",
            |i| Some(large_batch_body(i)),
            |i, response| check_large_batch_reply(&format!("large batch {i}"), response),
        )?;
        results.push(BenchResult::from_samples(
            "serve_batch_large",
            format!(
                "POST /v1/batch, {large} batches of {MAX_BATCH_JOBS} {MAX_SWEEP_VARIANTS}-variant sweeps over distinct bases"
            ),
            1,
            1,
            "requests",
            samples,
        ));
    }
    drop(client);

    results.push(throughput_result(addr, options)?);
    Ok(results)
}
