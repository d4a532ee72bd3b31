//! Seeded mutation test over the `bandwall serve` input path. Recorded
//! valid requests, mutated byte by byte, run through the layers a
//! worker runs — HTTP framing, the route table, the typed request
//! parser and the model solve — and must never panic, must finish
//! quickly, and must answer with well-formed JSON: a success body or
//! an error envelope of one of the six protocol kinds.

use bandwall_experiments::serve::api::{
    error_body, route, solve_fragment, wrap_ok, ApiError, ApiRequest, BatchJob, ErrorKind,
    RouteMatch, SweepRequest,
};
use bandwall_experiments::serve::http::{read_request, Limits, ReadError};
use bandwall_experiments::serve::json::Json;
use bandwall_model::ScalingProblem;
use bandwall_numerics::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The server's request caps.
const LIMITS: Limits = Limits {
    max_head_bytes: 8 * 1024,
    max_body_bytes: 64 * 1024,
};

/// Longest any one request may take through parse and solve.
const CASE_LIMIT: Duration = Duration::from_secs(1);

/// One recorded valid request per input shape: `(method, path, body)`.
const SEEDS: [(&str, &str, &str); 6] = [
    (
        "POST",
        "/v1/solve",
        r#"{"total_ceas":256,"bandwidth_growth":2,"techniques":[{"kind":"dram_cache","density":8}]}"#,
    ),
    ("POST", "/v1/sweep", r#"{"sweep":"fig05_dram_cache"}"#),
    (
        "POST",
        "/v1/sweep",
        r#"{"base":{"total_ceas":64},"variants":[{"label":"base"},{"label":"3D","technique":{"kind":"stacked_dram_cache","layers":2,"layer_density":8}}]}"#,
    ),
    (
        "POST",
        "/v1/batch",
        r#"{"jobs":[{"kind":"solve","problem":{"total_ceas":32}},{"kind":"bogus"},{"kind":"sweep","sweep":"fig04_cache_compression"}]}"#,
    ),
    ("GET", "/v1/techniques", ""),
    (
        "POST",
        "/v1/solve",
        r#"{"total_ceas":128,"techniques":[{"kind":"thermal_capped_3d","layers":4,"layer_density":8,"thermal_derate":0.7}]}"#,
    ),
];

fn frame(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "{method} {path} HTTP/1.1\r\nhost: bandwall\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

/// Every problem a sweep solves: the base with each variant applied.
fn variants(sweep: &SweepRequest) -> impl Iterator<Item = ScalingProblem> + '_ {
    sweep
        .variants
        .iter()
        .map(|variant| match variant.technique {
            Some(technique) => sweep.base.clone().with_technique(technique),
            None => sweep.base.clone(),
        })
}

/// Runs one raw request through the worker's layers and returns every
/// body it earns: the error envelope that ends it, or one body per
/// solve, sweep variant and batch job.
fn replies(raw: &[u8]) -> Vec<String> {
    let invalid = |message: &str| vec![error_body(ErrorKind::InvalidRequest, message)];
    let request = match read_request(&mut &raw[..], &LIMITS, None) {
        Ok(Some(request)) => request,
        Ok(None) => return Vec::new(),
        Err(ReadError::Malformed(message)) => return invalid(&message),
        Err(error) => return invalid(&format!("{error:?}")),
    };
    let endpoint = match route(&request.method, &request.path) {
        RouteMatch::Endpoint(endpoint) => endpoint,
        RouteMatch::MethodNotAllowed => return invalid(&request.method),
        RouteMatch::NotFound => return vec![error_body(ErrorKind::NotFound, &request.path)],
    };
    let mut bodies = Vec::new();
    let mut problems = Vec::new();
    match ApiRequest::parse(endpoint, &request.body) {
        Err(error) => bodies.push(error.body()),
        Ok(ApiRequest::Solve(problem)) => problems.push(*problem),
        Ok(ApiRequest::Sweep(sweep)) => problems.extend(variants(&sweep)),
        Ok(ApiRequest::Batch(batch)) => {
            for job in &batch.jobs {
                match job {
                    Ok(BatchJob::Solve(problem)) => problems.push((**problem).clone()),
                    Ok(BatchJob::Sweep(sweep)) => problems.extend(variants(sweep)),
                    Err(error) => bodies.push(error.body()),
                }
            }
        }
        Ok(ApiRequest::Healthz | ApiRequest::Readyz | ApiRequest::Techniques) => {}
    }
    for problem in &problems {
        bodies.push(match solve_fragment(problem) {
            Ok(fragment) => wrap_ok(&fragment),
            Err(message) => ApiError::new(ErrorKind::InvalidRequest, message).body(),
        });
    }
    bodies
}

/// Drives one request and checks the contract; returns its bodies.
fn check(raw: &[u8]) -> Vec<String> {
    const KINDS: [ErrorKind; 6] = [
        ErrorKind::InvalidRequest,
        ErrorKind::NotFound,
        ErrorKind::Overloaded,
        ErrorKind::NotReady,
        ErrorKind::DeadlineExceeded,
        ErrorKind::Internal,
    ];
    let shown = String::from_utf8_lossy(raw);
    let started = Instant::now();
    let bodies = catch_unwind(AssertUnwindSafe(|| replies(raw)))
        .unwrap_or_else(|_| panic!("panicked on {shown:?}"));
    let took = started.elapsed();
    assert!(took < CASE_LIMIT, "took {took:?} on {shown:?}");
    for body in &bodies {
        let doc = Json::parse(body).unwrap_or_else(|e| panic!("{e} in {body} for {shown:?}"));
        let field = |name: &str| doc.as_obj().and_then(|o| o.get(name));
        match field("status").and_then(Json::as_str) {
            Some("ok") => assert!(field("result").is_some(), "{body}"),
            Some("error") => {
                let kind = field("error")
                    .and_then(Json::as_obj)
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str);
                assert!(
                    KINDS.iter().any(|k| Some(k.as_str()) == kind),
                    "unknown kind in {body} for {shown:?}"
                );
            }
            _ => panic!("no status in {body} for {shown:?}"),
        }
    }
    bodies
}

/// One byte mutation at a random position: replace, insert, delete, or
/// insert a run of digits (the mutation that inflates counts).
fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>) {
    const ALPHABET: &[u8] = b"{}[]\":,.-+eE0123456789 \\\r\nax";
    let pick = |rng: &mut Rng| {
        if rng.gen_bool(0.25) {
            rng.gen_u8()
        } else {
            ALPHABET[rng.gen_range(0..ALPHABET.len())]
        }
    };
    let at = rng.gen_range(0..bytes.len() + 1);
    match rng.gen_range(0..4u32) {
        0 if at < bytes.len() => bytes[at] = pick(rng),
        2 if at < bytes.len() => drop(bytes.remove(at)),
        3 => {
            for _ in 0..rng.gen_range(1..10u32) {
                bytes.insert(at, b'0' + rng.gen_range(0..10u32) as u8);
            }
        }
        _ => bytes.insert(at, pick(rng)),
    }
}

#[test]
fn mutated_requests_never_panic_stall_or_break_the_envelope() {
    let mut rng = Rng::seed_from_u64(2026);
    let mut mutations = 0;
    while mutations < 20_000 {
        let (method, path, body) = SEEDS[rng.gen_range(0..SEEDS.len())];
        // Mostly mutate the body under a matching content-length, so
        // the JSON and model layers see the damage; sometimes mutate
        // the framed bytes, head included.
        let raw = if rng.gen_bool(0.8) {
            let mut body = body.as_bytes().to_vec();
            for _ in 0..rng.gen_range(1..4u32) {
                mutate(&mut rng, &mut body);
                mutations += 1;
            }
            frame(method, path, &body)
        } else {
            let mut raw = frame(method, path, body.as_bytes());
            mutate(&mut rng, &mut raw);
            mutations += 1;
            raw
        };
        check(&raw);
    }
}

/// A solve of one technique on a 32-CEA die.
fn solve_with(technique: &str) -> Vec<u8> {
    let body = format!("{{\"total_ceas\":32,\"techniques\":[{{{technique}}}]}}");
    frame("POST", "/v1/solve", body.as_bytes())
}

fn thermal(layers: u64, derate: &str) -> Vec<u8> {
    solve_with(&format!(
        "\"kind\":\"thermal_capped_3d\",\"layers\":{layers},\"layer_density\":8,\
         \"thermal_derate\":{derate}"
    ))
}

fn stacked(layers: u64) -> Vec<u8> {
    solve_with(&format!("\"kind\":\"stacked_cache\",\"layers\":{layers}"))
}

#[test]
fn layer_counts_are_bounded_and_thermal_underflow_solves() {
    let rejected = |total: &str| {
        frame(
            "POST",
            "/v1/solve",
            format!("{{\"total_ceas\":{total}}}").as_bytes(),
        )
    };
    // `(request, whether it solves)`; the rest are `invalid_request`.
    let cases = [
        // Ten million layers once pinned a worker for half a minute.
        (thermal(10_000_000, "0.7"), false),
        (stacked(10_000_000), false),
        (thermal(65, "0.7"), false),
        (stacked(65), false),
        (thermal(64, "0.7"), true),
        (stacked(64), true),
        // Derates that underflow the layer density to zero once
        // panicked into `500 internal`.
        (thermal(1_100, "0.5"), false),
        (thermal(3, "1e-300"), true),
        (thermal(64, "0.5"), true),
        // Numbers outside RFC 8259 (`256.` once solved).
        (rejected("0256"), false),
        (rejected("256."), false),
        (rejected("1.e3"), false),
    ];
    for (raw, solves) in cases {
        let bodies = check(&raw);
        let shown = String::from_utf8_lossy(&raw);
        assert_eq!(bodies.len(), 1, "{bodies:?} for {shown}");
        let want = if solves {
            "{\"status\":\"ok\""
        } else {
            "{\"status\":\"error\",\"error\":{\"kind\":\"invalid_request\""
        };
        assert!(bodies[0].starts_with(want), "{bodies:?} for {shown}");
    }
}
