//! The typed request/response layer behind every `bandwall serve`
//! endpoint.
//!
//! The versioned route table ([`route`]) maps `(method, path)` onto an
//! [`Endpoint`]; [`ApiRequest::parse`] turns a raw body into a typed
//! request (strict JSON — unknown fields are rejected, so a typo'd knob
//! can never be silently ignored); the rendering functions produce
//! deterministic hand-rendered JSON with the same float formatting the
//! batch reports use, so a memoized body is byte-identical to a fresh
//! one by construction.
//!
//! `POST /solve` is a legacy alias of `POST /v1/solve`: both resolve to
//! [`Endpoint::Solve`] and share one parser and one renderer, so their
//! replies are byte-identical by construction.
//!
//! Error replies share one envelope, built only by [`error_body`], so
//! the six [`ErrorKind`]s cannot drift between endpoints:
//!
//! ```text
//! {"status":"error","error":{"kind":"<kind>","message":"<message>"}}
//! ```

use crate::report::{json_f64, json_string};
use crate::serve::json::Json;
use crate::sweep::{named_sweep, named_sweep_ids, Variant};
use crate::{die_budget, paper_baseline};
use bandwall_model::catalog::{extended_catalog, AssumptionLevel};
use bandwall_model::descriptor::wire_kind;
use bandwall_model::{Alpha, Baseline, CanonicalProblem, ScalingProblem, Technique};
use std::collections::BTreeMap;

/// Most variants one `POST /v1/sweep` may carry; the excess is refused
/// with `413 invalid_request` (a sweep is one worker's solve loop, so
/// its size bounds one request's cost).
pub const MAX_SWEEP_VARIANTS: usize = 64;

/// Most jobs one `POST /v1/batch` may carry; the excess is refused with
/// `413 invalid_request`.
pub const MAX_BATCH_JOBS: usize = 32;

/// The six error kinds of the serve protocol, each with its canonical
/// HTTP status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed HTTP/JSON, unknown field, out-of-domain parameter,
    /// wrong method, slow client, oversized request.
    InvalidRequest,
    /// Unknown endpoint.
    NotFound,
    /// Shed at accept time: the bounded queue was full.
    Overloaded,
    /// Readiness probe while draining or saturated.
    NotReady,
    /// The request missed its deadline.
    DeadlineExceeded,
    /// A contained handler panic.
    Internal,
}

impl ErrorKind {
    /// The wire name inside the error envelope.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::InvalidRequest => "invalid_request",
            ErrorKind::NotFound => "not_found",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::NotReady => "not_ready",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::Internal => "internal",
        }
    }

    /// The default HTTP status for this kind (`invalid_request` also
    /// ships as 405/408/413 via [`ApiError::with_status`]).
    pub fn status(self) -> u16 {
        match self {
            ErrorKind::InvalidRequest => 400,
            ErrorKind::NotFound => 404,
            ErrorKind::Overloaded | ErrorKind::NotReady => 503,
            ErrorKind::DeadlineExceeded => 504,
            ErrorKind::Internal => 500,
        }
    }
}

/// One typed API failure: a kind, the HTTP status it ships under, and
/// a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// Envelope kind.
    pub kind: ErrorKind,
    /// HTTP status (usually [`ErrorKind::status`]).
    pub status: u16,
    /// Envelope message.
    pub message: String,
}

impl ApiError {
    /// An error at its kind's canonical status.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        ApiError {
            kind,
            status: kind.status(),
            message: message.into(),
        }
    }

    /// An error shipped under a non-default status (405, 408, 413).
    pub fn with_status(status: u16, kind: ErrorKind, message: impl Into<String>) -> Self {
        ApiError {
            kind,
            status,
            message: message.into(),
        }
    }

    /// Renders the shared error envelope for this error.
    pub fn body(&self) -> String {
        error_body(self.kind, &self.message)
    }
}

fn invalid(message: impl Into<String>) -> ApiError {
    ApiError::new(ErrorKind::InvalidRequest, message)
}

/// Renders the shared error envelope — the only constructor of error
/// bodies, used by every endpoint, the acceptor's shed path, and the
/// per-job envelopes inside `/v1/batch` replies.
pub fn error_body(kind: ErrorKind, message: &str) -> String {
    format!(
        "{{\"status\":\"error\",\"error\":{{\"kind\":{},\"message\":{}}}}}",
        json_string(kind.as_str()),
        json_string(message)
    )
}

/// The service's endpoints, independent of the paths that reach them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /healthz` — liveness.
    Healthz,
    /// `GET /readyz` — readiness.
    Readyz,
    /// `GET /v1/techniques` — catalogue discovery.
    Techniques,
    /// `POST /v1/solve` (and the legacy `POST /solve` alias).
    Solve,
    /// `POST /v1/sweep` — a what-if sweep over the catalogue.
    Sweep,
    /// `POST /v1/batch` — heterogeneous solve/sweep jobs.
    Batch,
}

/// The versioned route table: every `(method, path)` the service
/// answers. `POST /solve` is the legacy alias of `POST /v1/solve`.
pub const ROUTES: [(&str, &str, Endpoint); 8] = [
    ("GET", "/healthz", Endpoint::Healthz),
    ("GET", "/readyz", Endpoint::Readyz),
    ("GET", "/v1/techniques", Endpoint::Techniques),
    ("POST", "/v1/solve", Endpoint::Solve),
    ("POST", "/solve", Endpoint::Solve),
    ("POST", "/v1/sweep", Endpoint::Sweep),
    ("POST", "/v1/batch", Endpoint::Batch),
    ("GET", "/v1/sweeps", Endpoint::Techniques),
];

/// How a `(method, path)` resolved against [`ROUTES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteMatch {
    /// Known path, allowed method.
    Endpoint(Endpoint),
    /// Known path, wrong method (`405 invalid_request`).
    MethodNotAllowed,
    /// Unknown path (`404 not_found`).
    NotFound,
}

/// Resolves a request line against the route table.
pub fn route(method: &str, path: &str) -> RouteMatch {
    let mut known_path = false;
    for (m, p, endpoint) in ROUTES {
        if p == path {
            if m == method {
                return RouteMatch::Endpoint(endpoint);
            }
            known_path = true;
        }
    }
    if known_path {
        RouteMatch::MethodNotAllowed
    } else {
        RouteMatch::NotFound
    }
}

/// One parsed `POST /v1/sweep` request (or sweep job in a batch).
#[derive(Debug, Clone)]
pub struct SweepRequest {
    /// The catalogue-sweep name, when requested by name.
    pub name: Option<String>,
    /// The base problem every variant starts from.
    pub base: ScalingProblem,
    /// The sweep points.
    pub variants: Vec<Variant>,
}

/// One job inside a `POST /v1/batch` request.
#[derive(Debug, Clone)]
pub enum BatchJob {
    /// A single scaling query.
    Solve(Box<ScalingProblem>),
    /// A what-if sweep.
    Sweep(SweepRequest),
}

/// One parsed `POST /v1/batch` request. A job that failed to parse
/// keeps its slot as the error it will answer with — partial-failure
/// semantics start at the parser.
#[derive(Debug, Clone)]
pub struct BatchRequest {
    /// Jobs in request order; `Err` slots render their envelope.
    pub jobs: Vec<Result<BatchJob, ApiError>>,
}

/// One fully-parsed API request.
#[derive(Debug, Clone)]
pub enum ApiRequest {
    /// `GET /healthz`.
    Healthz,
    /// `GET /readyz`.
    Readyz,
    /// `GET /v1/techniques`.
    Techniques,
    /// `POST /v1/solve` or legacy `POST /solve`.
    Solve(Box<ScalingProblem>),
    /// `POST /v1/sweep`.
    Sweep(SweepRequest),
    /// `POST /v1/batch`.
    Batch(BatchRequest),
}

impl ApiRequest {
    /// Parses a request body for an endpoint the route table matched.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ApiError`] (always `invalid_request`) for
    /// non-UTF-8, unparsable, or schema-violating bodies; size-cap
    /// violations carry status 413.
    pub fn parse(endpoint: Endpoint, body: &[u8]) -> Result<ApiRequest, ApiError> {
        match endpoint {
            Endpoint::Healthz => return Ok(ApiRequest::Healthz),
            Endpoint::Readyz => return Ok(ApiRequest::Readyz),
            Endpoint::Techniques => return Ok(ApiRequest::Techniques),
            Endpoint::Solve | Endpoint::Sweep | Endpoint::Batch => {}
        }
        let text = std::str::from_utf8(body).map_err(|_| invalid("body is not UTF-8"))?;
        match endpoint {
            Endpoint::Solve => parse_problem(text)
                .map(|p| ApiRequest::Solve(Box::new(p)))
                .map_err(invalid),
            Endpoint::Sweep => parse_sweep(text).map(ApiRequest::Sweep),
            Endpoint::Batch => parse_batch(text).map(ApiRequest::Batch),
            Endpoint::Healthz | Endpoint::Readyz | Endpoint::Techniques => {
                unreachable!("GET endpoints returned above")
            }
        }
    }
}

fn reject_unknown(
    what: &str,
    obj: &BTreeMap<String, Json>,
    allowed: &[&str],
) -> Result<(), String> {
    for key in obj.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(format!(
                "unknown {what} field '{key}' (allowed: {})",
                allowed.join(", ")
            ));
        }
    }
    Ok(())
}

fn num_field(obj: &BTreeMap<String, Json>, name: &str) -> Result<Option<f64>, String> {
    match obj.get(name) {
        None => Ok(None),
        Some(v) => v
            .as_num()
            .map(Some)
            .ok_or_else(|| format!("field '{name}' must be a number")),
    }
}

fn required_num(obj: &BTreeMap<String, Json>, name: &str) -> Result<f64, String> {
    num_field(obj, name)?.ok_or_else(|| format!("missing required field '{name}'"))
}

fn parse_technique(value: &Json) -> Result<Technique, String> {
    let obj = value
        .as_obj()
        .ok_or("each technique must be an object with a 'kind' field")?;
    let kind = obj
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("each technique must carry a string 'kind' field")?;
    let (descriptor, shape) =
        wire_kind(kind).ok_or_else(|| format!("unknown technique kind '{kind}'"))?;
    let mut allowed = Vec::with_capacity(1 + shape.fields.len());
    allowed.push("kind");
    allowed.extend(shape.fields.iter().map(|&i| descriptor.params[i].field));
    reject_unknown("technique", obj, &allowed)?;
    // Fields omitted by this wire shape take their schema defaults; the
    // registry guarantees each such parameter has one.
    let mut params: Vec<f64> = descriptor
        .params
        .iter()
        .map(|spec| spec.default.unwrap_or(f64::NAN))
        .collect();
    for &i in shape.fields {
        let spec = &descriptor.params[i];
        let v = required_num(obj, spec.field)?;
        if spec.domain.is_integer()
            && (v.fract() != 0.0 || !(0.0..=f64::from(u32::MAX)).contains(&v))
        {
            return Err(format!(
                "field '{}' must be a whole number, got {v}",
                spec.field
            ));
        }
        params[i] = v;
    }
    descriptor
        .instantiate(&params)
        .map_err(|e| format!("technique '{kind}': {e}"))
}

fn parse_baseline(value: &Json) -> Result<Baseline, String> {
    let obj = value.as_obj().ok_or("field 'baseline' must be an object")?;
    reject_unknown("baseline", obj, &["cores", "cache_ceas", "alpha"])?;
    let default = Baseline::niagara2_like();
    let cores = num_field(obj, "cores")?.unwrap_or_else(|| default.cores());
    let cache = num_field(obj, "cache_ceas")?.unwrap_or_else(|| default.cache_ceas());
    let alpha = match num_field(obj, "alpha")? {
        None => default.alpha(),
        Some(a) => Alpha::new(a).map_err(|e| format!("baseline: {e}"))?,
    };
    Baseline::new(cores, cache, alpha).map_err(|e| format!("baseline: {e}"))
}

/// Parses one problem description (the `/solve` schema) from a JSON
/// value; `what` labels unknown-field errors (`request`, `base`, ...).
fn problem_from_json(what: &str, value: &Json) -> Result<ScalingProblem, String> {
    let obj = value
        .as_obj()
        .ok_or_else(|| format!("{what} body must be a JSON object"))?;
    reject_unknown(
        what,
        obj,
        &[
            "total_ceas",
            "bandwidth_growth",
            "per_core_demand",
            "uncore_per_core",
            "baseline",
            "techniques",
        ],
    )?;
    let baseline = match obj.get("baseline") {
        None => Baseline::niagara2_like(),
        Some(v) => parse_baseline(v)?,
    };
    let mut problem = ScalingProblem::new(baseline, required_num(obj, "total_ceas")?);
    if let Some(growth) = num_field(obj, "bandwidth_growth")? {
        problem = problem.with_bandwidth_growth(growth);
    }
    if let Some(demand) = num_field(obj, "per_core_demand")? {
        problem = problem.with_per_core_demand(demand);
    }
    if let Some(uncore) = num_field(obj, "uncore_per_core")? {
        problem = problem.with_uncore_overhead(uncore);
    }
    if let Some(value) = obj.get("techniques") {
        let arr = value
            .as_arr()
            .ok_or("field 'techniques' must be an array")?;
        for t in arr {
            problem = problem.with_technique(parse_technique(t)?);
        }
    }
    Ok(problem)
}

/// Parses a `/solve` request body into a [`ScalingProblem`].
///
/// # Errors
///
/// Returns an `invalid_request` message for anything other than a
/// strict, fully-recognised problem description.
pub fn parse_problem(body: &str) -> Result<ScalingProblem, String> {
    let doc = Json::parse(body)?;
    problem_from_json("request", &doc)
}

/// The next-generation die every catalogue sweep (and every custom
/// sweep without an explicit `base`) solves on — the same base problem
/// as [`crate::sweep::sweep_block`].
fn default_sweep_base() -> ScalingProblem {
    ScalingProblem::new(paper_baseline(), die_budget(1))
}

fn parse_variant(value: &Json) -> Result<Variant, ApiError> {
    let obj = value
        .as_obj()
        .ok_or_else(|| invalid("each variant must be an object"))?;
    reject_unknown("variant", obj, &["label", "technique"]).map_err(invalid)?;
    let technique = match obj.get("technique") {
        None => None,
        Some(v) => Some(parse_technique(v).map_err(invalid)?),
    };
    let label = match obj.get("label") {
        Some(v) => v
            .as_str()
            .ok_or_else(|| invalid("variant field 'label' must be a string"))?
            .to_string(),
        None => technique
            .as_ref()
            .map(|t| t.label().to_string())
            .unwrap_or_else(|| "base".to_string()),
    };
    Ok(Variant::new(label, technique, None))
}

/// Parses the sweep fields shared by `POST /v1/sweep` and sweep jobs
/// inside `POST /v1/batch` (`sweep` XOR `base`+`variants`).
fn sweep_from_fields(obj: &BTreeMap<String, Json>) -> Result<SweepRequest, ApiError> {
    if let Some(v) = obj.get("sweep") {
        let name = v
            .as_str()
            .ok_or_else(|| invalid("field 'sweep' must be a string"))?;
        if obj.contains_key("base") || obj.contains_key("variants") {
            return Err(invalid(
                "a named sweep takes no 'base' or 'variants' fields",
            ));
        }
        let variants = named_sweep(name).ok_or_else(|| {
            invalid(format!(
                "unknown sweep '{name}' (known: {})",
                named_sweep_ids().join(", ")
            ))
        })?;
        return Ok(SweepRequest {
            name: Some(name.to_string()),
            base: default_sweep_base(),
            variants,
        });
    }
    let base = match obj.get("base") {
        None => default_sweep_base(),
        Some(v) => problem_from_json("base", v).map_err(invalid)?,
    };
    let arr = obj
        .get("variants")
        .ok_or_else(|| invalid("missing required field 'variants' (or 'sweep')"))?
        .as_arr()
        .ok_or_else(|| invalid("field 'variants' must be an array"))?;
    if arr.is_empty() {
        return Err(invalid("field 'variants' must not be empty"));
    }
    if arr.len() > MAX_SWEEP_VARIANTS {
        return Err(ApiError::with_status(
            413,
            ErrorKind::InvalidRequest,
            format!(
                "sweep of {} variants exceeds the {MAX_SWEEP_VARIANTS}-variant cap",
                arr.len()
            ),
        ));
    }
    let variants = arr.iter().map(parse_variant).collect::<Result<_, _>>()?;
    Ok(SweepRequest {
        name: None,
        base,
        variants,
    })
}

fn parse_sweep(body: &str) -> Result<SweepRequest, ApiError> {
    let doc = Json::parse(body).map_err(invalid)?;
    let obj = doc
        .as_obj()
        .ok_or_else(|| invalid("request body must be a JSON object"))?;
    reject_unknown("sweep request", obj, &["sweep", "base", "variants"]).map_err(invalid)?;
    sweep_from_fields(obj)
}

fn parse_job(value: &Json) -> Result<BatchJob, ApiError> {
    let obj = value
        .as_obj()
        .ok_or_else(|| invalid("each job must be an object with a 'kind' field"))?;
    let kind = obj
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| invalid("each job must carry a string 'kind' field"))?;
    match kind {
        "solve" => {
            reject_unknown("solve job", obj, &["kind", "problem"]).map_err(invalid)?;
            let problem = obj
                .get("problem")
                .ok_or_else(|| invalid("solve job: missing required field 'problem'"))?;
            problem_from_json("problem", problem)
                .map(|p| BatchJob::Solve(Box::new(p)))
                .map_err(invalid)
        }
        "sweep" => {
            reject_unknown("sweep job", obj, &["kind", "sweep", "base", "variants"])
                .map_err(invalid)?;
            sweep_from_fields(obj).map(BatchJob::Sweep)
        }
        other => Err(invalid(format!(
            "unknown job kind '{other}' (allowed: solve, sweep)"
        ))),
    }
}

fn parse_batch(body: &str) -> Result<BatchRequest, ApiError> {
    let doc = Json::parse(body).map_err(invalid)?;
    let obj = doc
        .as_obj()
        .ok_or_else(|| invalid("request body must be a JSON object"))?;
    reject_unknown("batch request", obj, &["jobs"]).map_err(invalid)?;
    let arr = obj
        .get("jobs")
        .ok_or_else(|| invalid("missing required field 'jobs'"))?
        .as_arr()
        .ok_or_else(|| invalid("field 'jobs' must be an array"))?;
    if arr.is_empty() {
        return Err(invalid("field 'jobs' must not be empty"));
    }
    if arr.len() > MAX_BATCH_JOBS {
        return Err(ApiError::with_status(
            413,
            ErrorKind::InvalidRequest,
            format!(
                "batch of {} jobs exceeds the {MAX_BATCH_JOBS}-job cap",
                arr.len()
            ),
        ));
    }
    // A malformed job keeps its slot as the error envelope it will
    // answer with; the rest of the batch still runs.
    Ok(BatchRequest {
        jobs: arr.iter().map(parse_job).collect(),
    })
}

/// The envelope prefix every success body shares.
const OK_PREFIX: &str = "{\"status\":\"ok\",\"result\":";

/// Wraps a rendered result fragment in the success envelope.
pub fn wrap_ok(fragment: &str) -> String {
    let mut out = String::with_capacity(OK_PREFIX.len() + fragment.len() + 1);
    out.push_str(OK_PREFIX);
    out.push_str(fragment);
    out.push('}');
    out
}

/// Solves `problem` and renders the bare result object (no envelope).
/// This fragment is the unit of memoization: `/solve` wraps it via
/// [`wrap_ok`], `/v1/sweep` rows embed it verbatim — so solves and
/// sweeps share cache entries and stay byte-consistent by construction.
///
/// # Errors
///
/// Returns an `invalid_request` message when the model rejects the
/// problem (out-of-domain parameter, infeasible configuration).
pub fn solve_fragment(problem: &ScalingProblem) -> Result<String, String> {
    let solution = problem.solve().map_err(|e| format!("model error: {e}"))?;
    let digest = CanonicalProblem::of(problem).digest();
    Ok(format!(
        "{{\"total_ceas\":{},\"bandwidth_growth\":{},\
         \"supportable_cores\":{},\"ideal_cores\":{},\"crossover_cores\":{},\
         \"relative_traffic\":{},\"core_area_fraction\":{},\"scaling_efficiency\":{},\
         \"problem_digest\":{}}}",
        json_f64(solution.total_ceas),
        json_f64(solution.bandwidth_growth),
        solution.supportable_cores,
        solution.ideal_cores,
        json_f64(solution.crossover_cores),
        json_f64(solution.relative_traffic),
        json_f64(solution.core_area_fraction),
        json_f64(solution.scaling_efficiency()),
        json_string(&format!("{digest:016x}")),
    ))
}

/// Solves `problem` and renders the full `/solve` success body.
///
/// # Errors
///
/// See [`solve_fragment`].
pub fn solve_body(problem: &ScalingProblem) -> Result<String, String> {
    solve_fragment(problem).map(|fragment| wrap_ok(&fragment))
}

/// One rendered sweep row: the variant's label, the paper's anchor
/// when stated, and the solve-result fragment.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Variant label.
    pub label: String,
    /// Paper-reported core count, when the figure anchors this point.
    pub paper: Option<u64>,
    /// The rendered solve-result fragment (shared with `/solve`).
    pub fragment: String,
}

/// Renders the `/v1/sweep` success body from solved rows — the wire
/// mirror of [`crate::sweep::sweep_block`]'s table.
pub fn sweep_body(name: Option<&str>, rows: &[SweepRow]) -> String {
    let mut out =
        String::with_capacity(64 + rows.iter().map(|r| r.fragment.len() + 48).sum::<usize>());
    out.push_str(OK_PREFIX);
    out.push_str("{\"sweep\":");
    match name {
        Some(n) => out.push_str(&json_string(n)),
        None => out.push_str("null"),
    }
    out.push_str(",\"rows\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"label\":");
        out.push_str(&json_string(&row.label));
        out.push_str(",\"paper\":");
        match row.paper {
            Some(p) => out.push_str(&p.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"result\":");
        out.push_str(&row.fragment);
        out.push('}');
    }
    out.push_str("]}}");
    out
}

/// Renders the `/v1/batch` success body: every slot is exactly the body
/// the standalone endpoint would have returned for that job (success
/// envelope or error envelope), in request order.
pub fn batch_body(slots: &[String]) -> String {
    let mut out = String::with_capacity(32 + slots.iter().map(|s| s.len() + 1).sum::<usize>());
    out.push_str(OK_PREFIX);
    out.push_str("{\"results\":[");
    for (i, slot) in slots.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(slot);
    }
    out.push_str("]}}");
    out
}

/// Renders one technique as the request-ready JSON spec `/solve` and
/// `/v1/sweep` accept (so discovery output can be pasted back in).
/// The renderer picks the first wire shape whose omitted parameters all
/// equal their defaults — so a stacked cache at SRAM density renders as
/// the compact `stacked_cache` shape, exactly as before the registry.
fn technique_spec(technique: &Technique) -> String {
    let descriptor = technique.descriptor();
    let params = technique.params();
    let shape = descriptor
        .wire
        .iter()
        .find(|shape| {
            descriptor
                .params
                .iter()
                .enumerate()
                .all(|(i, spec)| shape.fields.contains(&i) || spec.default == Some(params[i]))
        })
        .expect("every descriptor's last wire shape carries all parameters");
    let mut out = String::with_capacity(64);
    out.push_str("{\"kind\":");
    out.push_str(&json_string(shape.kind));
    for &i in shape.fields {
        let spec = &descriptor.params[i];
        out.push_str(",\"");
        out.push_str(spec.field);
        out.push_str("\":");
        if spec.domain.is_integer() {
            out.push_str(&(params[i] as u64).to_string());
        } else {
            out.push_str(&json_f64(params[i]));
        }
    }
    out.push('}');
    out
}

/// Renders the parameter-schema array of one technique: field name,
/// constraint text, and default (when a wire shape may omit the field).
fn params_schema(descriptor: &bandwall_model::TechniqueDescriptor) -> String {
    let mut out = String::with_capacity(64);
    out.push('[');
    for (i, spec) in descriptor.params.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"field\":");
        out.push_str(&json_string(spec.field));
        out.push_str(",\"constraint\":");
        out.push_str(&json_string(spec.domain.constraint()));
        out.push_str(",\"default\":");
        match spec.default {
            Some(v) => out.push_str(&json_f64(v)),
            None => out.push_str("null"),
        }
        out.push('}');
    }
    out.push(']');
    out
}

/// Renders the `GET /v1/techniques` body: the full technique registry
/// (Table 2 plus post-2009 extensions) with each technique's id,
/// parameter schema, and each assumption level as a request-ready
/// technique spec, plus the named catalogue sweeps `/v1/sweep` accepts.
pub fn techniques_body() -> String {
    let mut out = String::with_capacity(8192);
    out.push_str(OK_PREFIX);
    out.push_str("{\"techniques\":[");
    for (i, profile) in extended_catalog().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"id\":");
        out.push_str(&json_string(profile.id()));
        out.push_str(",\"label\":");
        out.push_str(&json_string(profile.label()));
        out.push_str(",\"name\":");
        out.push_str(&json_string(profile.name()));
        out.push_str(",\"category\":");
        out.push_str(&json_string(&profile.category().to_string()));
        out.push_str(",\"effectiveness\":");
        out.push_str(&json_string(&profile.effectiveness().to_string()));
        out.push_str(",\"range\":");
        out.push_str(&json_string(&profile.range().to_string()));
        out.push_str(",\"complexity\":");
        out.push_str(&json_string(&profile.complexity().to_string()));
        out.push_str(",\"params\":");
        out.push_str(&params_schema(profile.descriptor()));
        out.push_str(",\"assumptions\":{");
        for (j, level) in AssumptionLevel::ALL.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&json_string(&level.to_string()));
            out.push_str(":{\"text\":");
            out.push_str(&json_string(profile.assumption_text(*level)));
            out.push_str(",\"technique\":");
            let technique = profile
                .technique(*level)
                .expect("catalogue parameters are valid");
            out.push_str(&technique_spec(&technique));
            out.push('}');
        }
        out.push_str("}}");
    }
    out.push_str("],\"sweeps\":[");
    for (i, name) in named_sweep_ids().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(name));
    }
    out.push_str("]}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_schema() {
        let body = r#"{
            "total_ceas": 256,
            "bandwidth_growth": 1.5,
            "per_core_demand": 1.6,
            "uncore_per_core": 0.5,
            "baseline": {"cores": 8, "cache_ceas": 8, "alpha": 0.5},
            "techniques": [
                {"kind": "cache_link_compression", "ratio": 2},
                {"kind": "dram_cache", "density": 8},
                {"kind": "stacked_cache", "layers": 1},
                {"kind": "small_cache_lines", "unused_fraction": 0.4}
            ]
        }"#;
        let p = parse_problem(body).unwrap();
        assert_eq!(p.total_ceas(), 256.0);
        assert_eq!(p.bandwidth_growth(), 1.5);
        assert_eq!(p.per_core_demand(), 1.6);
        assert_eq!(p.uncore_per_core(), 0.5);
        assert_eq!(p.techniques().len(), 4);
    }

    #[test]
    fn defaults_to_the_paper_baseline() {
        let p = parse_problem(r#"{"total_ceas": 32}"#).unwrap();
        assert_eq!(p.baseline(), &Baseline::niagara2_like());
        assert_eq!(p.bandwidth_growth(), 1.0);
        let body = solve_body(&p).unwrap();
        assert!(body.contains("\"supportable_cores\":11"), "{body}");
        assert!(body.contains("\"ideal_cores\":16"), "{body}");
        assert!(body.starts_with("{\"status\":\"ok\",\"result\":{"));
    }

    #[test]
    fn every_technique_kind_round_trips() {
        for spec in [
            r#"{"kind":"cache_compression","ratio":2}"#,
            r#"{"kind":"dram_cache","density":8}"#,
            r#"{"kind":"stacked_cache","layers":1}"#,
            r#"{"kind":"stacked_dram_cache","layers":1,"layer_density":8}"#,
            r#"{"kind":"unused_data_filter","unused_fraction":0.4}"#,
            r#"{"kind":"smaller_cores","area_fraction":0.25}"#,
            r#"{"kind":"link_compression","ratio":2}"#,
            r#"{"kind":"sectored_cache","unused_fraction":0.4}"#,
            r#"{"kind":"small_cache_lines","unused_fraction":0.4}"#,
            r#"{"kind":"cache_link_compression","ratio":2}"#,
        ] {
            let body = format!(r#"{{"total_ceas":32,"techniques":[{spec}]}}"#);
            let p = parse_problem(&body).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(p.techniques().len(), 1, "{spec}");
        }
    }

    #[test]
    fn rejects_unknown_and_malformed_fields() {
        for (body, what) in [
            (r#"{"total_ceas":32,"typo":1}"#, "unknown top-level field"),
            (r#"{}"#, "missing total_ceas"),
            (r#"{"total_ceas":"big"}"#, "non-numeric total_ceas"),
            (r#"[1,2]"#, "non-object body"),
            ("not json", "unparsable body"),
            (
                r#"{"total_ceas":32,"baseline":{"cores":8,"pet":1}}"#,
                "unknown baseline field",
            ),
            (
                r#"{"total_ceas":32,"techniques":[{"kind":"dram_cache","density":8,"x":1}]}"#,
                "unknown technique field",
            ),
            (
                r#"{"total_ceas":32,"techniques":[{"kind":"warp_drive"}]}"#,
                "unknown technique kind",
            ),
            (
                r#"{"total_ceas":32,"techniques":[{"kind":"stacked_cache","layers":1.5}]}"#,
                "fractional layers",
            ),
            (
                r#"{"total_ceas":32,"techniques":[{"kind":"dram_cache","density":0.5}]}"#,
                "out-of-domain technique parameter",
            ),
            (
                r#"{"total_ceas":32,"techniques":{"kind":"dram_cache"}}"#,
                "non-array techniques",
            ),
            (
                r#"{"total_ceas":32,"baseline":{"alpha":-1}}"#,
                "invalid alpha",
            ),
        ] {
            assert!(parse_problem(body).is_err(), "accepted {what}");
        }
    }

    #[test]
    fn solve_body_is_deterministic_and_reports_model_errors() {
        let p = parse_problem(r#"{"total_ceas":32}"#).unwrap();
        assert_eq!(solve_body(&p).unwrap(), solve_body(&p).unwrap());
        // Wrapping the fragment reproduces the body byte-for-byte.
        assert_eq!(
            solve_body(&p).unwrap(),
            wrap_ok(&solve_fragment(&p).unwrap())
        );
        // A parseable but out-of-domain problem fails at solve time.
        let bad = parse_problem(r#"{"total_ceas":-1}"#).unwrap();
        let err = solve_body(&bad).unwrap_err();
        assert!(err.contains("model error"), "{err}");
    }

    #[test]
    fn error_envelope_shape() {
        assert_eq!(
            error_body(ErrorKind::Overloaded, "queue full"),
            "{\"status\":\"error\",\"error\":{\"kind\":\"overloaded\",\
             \"message\":\"queue full\"}}"
        );
        let e = ApiError::new(ErrorKind::DeadlineExceeded, "late");
        assert_eq!(e.status, 504);
        assert!(e.body().contains("\"kind\":\"deadline_exceeded\""));
    }

    #[test]
    fn route_table_resolves_aliases_and_misses() {
        assert_eq!(
            route("POST", "/solve"),
            RouteMatch::Endpoint(Endpoint::Solve)
        );
        assert_eq!(
            route("POST", "/v1/solve"),
            RouteMatch::Endpoint(Endpoint::Solve)
        );
        assert_eq!(
            route("POST", "/v1/sweep"),
            RouteMatch::Endpoint(Endpoint::Sweep)
        );
        assert_eq!(
            route("POST", "/v1/batch"),
            RouteMatch::Endpoint(Endpoint::Batch)
        );
        assert_eq!(
            route("GET", "/v1/techniques"),
            RouteMatch::Endpoint(Endpoint::Techniques)
        );
        assert_eq!(route("GET", "/solve"), RouteMatch::MethodNotAllowed);
        assert_eq!(route("POST", "/healthz"), RouteMatch::MethodNotAllowed);
        assert_eq!(route("GET", "/nope"), RouteMatch::NotFound);
    }

    #[test]
    fn named_sweep_requests_resolve_to_registry_variants() {
        let req =
            match ApiRequest::parse(Endpoint::Sweep, br#"{"sweep":"fig05_dram_cache"}"#).unwrap() {
                ApiRequest::Sweep(req) => req,
                other => panic!("not a sweep: {other:?}"),
            };
        assert_eq!(req.name.as_deref(), Some("fig05_dram_cache"));
        assert_eq!(req.variants.len(), 4);
        assert_eq!(req.variants[0].label, "SRAM L2");
        assert_eq!(req.base, default_sweep_base());
    }

    #[test]
    fn custom_sweeps_parse_and_oversized_ones_are_413() {
        let body = r#"{"base":{"total_ceas":64},
            "variants":[{"label":"plain"},
                        {"technique":{"kind":"dram_cache","density":8}}]}"#;
        let req = match ApiRequest::parse(Endpoint::Sweep, body.as_bytes()).unwrap() {
            ApiRequest::Sweep(req) => req,
            other => panic!("not a sweep: {other:?}"),
        };
        assert!(req.name.is_none());
        assert_eq!(req.base.total_ceas(), 64.0);
        assert_eq!(req.variants[0].label, "plain");
        // The unlabeled technique variant is named after its axis label.
        assert_eq!(req.variants[1].label, "DRAM");

        let many: Vec<String> = (0..MAX_SWEEP_VARIANTS + 1)
            .map(|i| format!("{{\"label\":\"v{i}\"}}"))
            .collect();
        let oversized = format!("{{\"variants\":[{}]}}", many.join(","));
        let err = ApiRequest::parse(Endpoint::Sweep, oversized.as_bytes()).unwrap_err();
        assert_eq!(err.status, 413);
        assert_eq!(err.kind, ErrorKind::InvalidRequest);
    }

    #[test]
    fn sweep_requests_reject_schema_violations() {
        for (body, what) in [
            (r#"{"sweep":"fig99_unknown"}"#, "unknown sweep name"),
            (
                r#"{"sweep":"fig04_cache_compression","variants":[]}"#,
                "named sweep with variants",
            ),
            (r#"{"variants":[]}"#, "empty variants"),
            (r#"{"variants":[{"label":1}]}"#, "non-string label"),
            (r#"{"variants":[{"bogus":1}]}"#, "unknown variant field"),
            (r#"{"bogus":1}"#, "unknown top-level field"),
            (r#"{}"#, "no sweep and no variants"),
        ] {
            assert!(
                ApiRequest::parse(Endpoint::Sweep, body.as_bytes()).is_err(),
                "accepted {what}"
            );
        }
    }

    #[test]
    fn batches_parse_with_per_job_errors_in_place() {
        let body = r#"{"jobs":[
            {"kind":"solve","problem":{"total_ceas":32}},
            {"kind":"solve","problem":{"bogus":1}},
            {"kind":"sweep","sweep":"fig04_cache_compression"},
            {"kind":"warp"}
        ]}"#;
        let batch = match ApiRequest::parse(Endpoint::Batch, body.as_bytes()).unwrap() {
            ApiRequest::Batch(batch) => batch,
            other => panic!("not a batch: {other:?}"),
        };
        assert_eq!(batch.jobs.len(), 4);
        assert!(matches!(batch.jobs[0], Ok(BatchJob::Solve(_))));
        assert!(batch.jobs[1].is_err(), "bad problem must stay in its slot");
        assert!(matches!(batch.jobs[2], Ok(BatchJob::Sweep(_))));
        assert!(batch.jobs[3].is_err(), "bad kind must stay in its slot");
    }

    #[test]
    fn oversized_and_structurally_broken_batches_are_rejected_whole() {
        let many: Vec<&str> = (0..MAX_BATCH_JOBS + 1)
            .map(|_| r#"{"kind":"warp"}"#)
            .collect();
        let oversized = format!("{{\"jobs\":[{}]}}", many.join(","));
        let err = ApiRequest::parse(Endpoint::Batch, oversized.as_bytes()).unwrap_err();
        assert_eq!(err.status, 413);
        for body in [
            r#"{}"#,
            r#"{"jobs":[]}"#,
            r#"{"jobs":1}"#,
            r#"{"jobs":[],"x":1}"#,
        ] {
            assert!(ApiRequest::parse(Endpoint::Batch, body.as_bytes()).is_err());
        }
    }

    #[test]
    fn sweep_and_batch_bodies_render_deterministic_envelopes() {
        let p = default_sweep_base();
        let fragment = solve_fragment(&p).unwrap();
        let rows = vec![SweepRow {
            label: "base".to_string(),
            paper: Some(11),
            fragment: fragment.clone(),
        }];
        let body = sweep_body(Some("fig04_cache_compression"), &rows);
        assert!(body.starts_with("{\"status\":\"ok\",\"result\":{\"sweep\":\"fig04"));
        assert!(body.contains("\"paper\":11"));
        assert!(body.contains(&fragment));
        assert!(body.ends_with("]}}"));

        let batch = batch_body(&[wrap_ok(&fragment), error_body(ErrorKind::Internal, "x")]);
        assert!(batch.starts_with("{\"status\":\"ok\",\"result\":{\"results\":["));
        assert!(batch.contains("\"kind\":\"internal\""));
    }

    #[test]
    fn techniques_body_lists_the_catalogue_and_round_trips() {
        let body = techniques_body();
        for label in [
            "CC", "DRAM", "3D", "Fltr", "SmCo", "LC", "Sect", "SmCl", "CC/LC", "3D/T", "CXL",
        ] {
            assert!(
                body.contains(&format!("\"label\":{}", json_string(label))),
                "missing {label}: {body}"
            );
        }
        for name in named_sweep_ids() {
            assert!(body.contains(name), "missing sweep {name}");
        }
        assert!(body.contains("\"sweeps\":["), "{body}");
        // Every advertised technique spec must parse back through the
        // request schema (discovery output is request-ready) — the
        // extensions included.
        for profile in extended_catalog() {
            for level in AssumptionLevel::ALL {
                let spec = technique_spec(&profile.technique(level).unwrap());
                let body = format!("{{\"total_ceas\":32,\"techniques\":[{spec}]}}");
                parse_problem(&body).unwrap_or_else(|e| panic!("{spec}: {e}"));
            }
        }
    }

    #[test]
    fn every_advertised_technique_sweeps_as_a_custom_variant() {
        // Catalogue/API drift guard: each registry entry's realistic
        // spec must be accepted by POST /v1/sweep as a custom variant.
        for profile in extended_catalog() {
            let spec = technique_spec(&profile.technique(AssumptionLevel::Realistic).unwrap());
            let body =
                format!("{{\"variants\":[{{\"label\":\"base\"}},{{\"technique\":{spec}}}]}}");
            let req = match ApiRequest::parse(Endpoint::Sweep, body.as_bytes()) {
                Ok(ApiRequest::Sweep(req)) => req,
                other => panic!("{spec}: {other:?}"),
            };
            assert_eq!(req.variants.len(), 2, "{spec}");
            assert_eq!(req.variants[1].label, profile.label(), "{spec}");
        }
    }

    #[test]
    fn extension_techniques_parse_with_defaults_and_validate() {
        // thermal_capped_3d omitting nothing; cxl_harvesting bands.
        let p = parse_problem(
            r#"{"total_ceas":32,"techniques":[
                {"kind":"thermal_capped_3d","layers":4,"layer_density":8,"thermal_derate":0.7},
                {"kind":"cxl_harvesting","io_bandwidth_ratio":0.5,"idle_fraction":0.5}
            ]}"#,
        )
        .unwrap();
        assert_eq!(p.techniques().len(), 2);
        for (body, what) in [
            (
                r#"{"total_ceas":32,"techniques":[{"kind":"cxl_harvesting","io_bandwidth_ratio":0.5,"idle_fraction":1.5}]}"#,
                "idle fraction above 1",
            ),
            (
                r#"{"total_ceas":32,"techniques":[{"kind":"thermal_capped_3d","layers":0.5,"layer_density":8,"thermal_derate":0.7}]}"#,
                "fractional layers",
            ),
            (
                r#"{"total_ceas":32,"techniques":[{"kind":"thermal_capped_3d","layers":65,"layer_density":8,"thermal_derate":0.7}]}"#,
                "65 layers",
            ),
            (
                r#"{"total_ceas":32,"techniques":[{"kind":"thermal_capped_3d","layers":10000000,"layer_density":8,"thermal_derate":0.7}]}"#,
                "ten million layers",
            ),
            (
                r#"{"total_ceas":32,"techniques":[{"kind":"thermal_capped_3d","layers":2,"layer_density":8,"thermal_derate":0}]}"#,
                "zero derate",
            ),
        ] {
            assert!(parse_problem(body).is_err(), "accepted {what}");
        }
    }
}
