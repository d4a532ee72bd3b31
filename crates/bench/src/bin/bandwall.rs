//! `bandwall` — the one binary over the whole experiment registry:
//!
//! ```text
//! bandwall list                         # every experiment id + title
//! bandwall run fig02_traffic_vs_cores   # one experiment, ASCII
//! bandwall run --all --format json      # everything, as a JSON array
//! bandwall run --all --out reports/     # one file per experiment
//! bandwall run --all --jobs 8           # run experiments concurrently
//! bandwall run --all --seed 7           # re-seed every simulation
//! bandwall run --all --timeout 120      # per-experiment deadline
//! bandwall bench --quick                # the benchmark harness
//! bandwall serve --addr 127.0.0.1:8787  # the model-query service
//! ```
//!
//! Experiments run concurrently (`--jobs`, default: available
//! parallelism) but reports are always emitted in registry order, so
//! output is deterministic regardless of scheduling. Each simulated
//! experiment banks across the CPUs left to it
//! (`registry::sim_banks`), which never moves a report byte either.
//!
//! Runs are fault-isolated: a panicking, erroring, or (with `--timeout`)
//! hanging experiment becomes a structured failure report in its
//! registry slot while every other experiment completes normally
//! (`--keep-going`, the default). `--fail-fast` stops claiming new
//! experiments after the first failure. The process exits 1 when any
//! report is a failure.

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use bandwall_experiments::error::ExperimentError;
use bandwall_experiments::fault::ChaosSpec;
use bandwall_experiments::perf::{host_parallelism, run_group, BenchGroup, BenchOptions, GROUPS};
use bandwall_experiments::registry::{registry_with_seed, set_concurrent_experiments, Experiment};
use bandwall_experiments::report::Report;
use bandwall_experiments::serve::loadgen::{
    run_against, EndpointSelection, LoadgenOptions, MixWeights,
};
use bandwall_experiments::serve::{ServeConfig, Server, StatsSnapshot};

const USAGE: &str = "\
bandwall — unified runner for the bandwidth-wall experiment registry

USAGE:
    bandwall list
    bandwall run <id>... [OPTIONS]
    bandwall run --all [OPTIONS]
    bandwall bench [GROUP]... [BENCH OPTIONS]
    bandwall bench --list
    bandwall serve [SERVE OPTIONS]
    bandwall loadgen [LOADGEN OPTIONS]

OPTIONS:
    --format <ascii|csv|json>   output format (default: ascii)
    --out <DIR>                 write one file per experiment into DIR
                                instead of printing to stdout (each file
                                is written to a .tmp path then renamed,
                                so readers never see partial reports)
    --jobs <N>                  worker threads (default: available
                                parallelism, capped at the experiment
                                count)
    --seed <N>                  derive a fresh seed for every seeded
                                experiment (default: historical seeds,
                                byte-compatible with the golden reports)
    --timeout <SECS>            per-experiment wall-clock deadline; an
                                overrunning experiment becomes a failure
                                report (default: no deadline)
    --keep-going                run every experiment even after failures,
                                reporting each failure in place (default)
    --fail-fast                 stop claiming new experiments after the
                                first failure; unstarted experiments are
                                skipped with a note on stderr
    -h, --help                  show this help

BENCH OPTIONS:
    --list                      list bench groups and exit
    --warmup <N>                untimed runs per kernel (default: 1)
    --iters <N>                 timed samples per kernel (default: 5)
    --accesses <N>              simulated accesses per sample
                                (default: 400000)
    --quick                     CI smoke preset: 1 warmup, 3 iters,
                                60000 accesses
    --format <ascii|csv|json>   output format (default: ascii)
    --out <DIR>                 write one report file per group into DIR
    --snapshot <DIR>            additionally write machine-readable
                                BENCH_<group>.json snapshots into DIR
    --floor <ID=RATE>           fail (exit 1) if kernel ID's median
                                throughput drops below RATE items/s;
                                repeatable, checked after all groups ran

    With no GROUP arguments, every group runs.

SERVE OPTIONS:
    --addr <HOST:PORT>          bind address (default: 127.0.0.1:8787;
                                port 0 picks an ephemeral port)
    --workers <N>               worker threads (default: 2)
    --queue <N>                 bounded request-queue capacity; the
                                excess is shed with an `overloaded`
                                reply (default: 64)
    --deadline-ms <MS>          per-request deadline; overruns reply
                                504 `deadline_exceeded` (default: 2000)
    --read-timeout-ms <MS>      socket read/write window and keep-alive
                                idle limit (default: 5000)
    --cache-capacity <N>        memoized-solve cache entries, 0 to
                                disable (default: 4096)
    --chaos [SPEC]              inject faults: panic=P,worker=P,
                                delay=P:MS,seed=N (default spec:
                                panic=0.01,worker=0.001,delay=0.02:2)

    SIGTERM/SIGINT stop accepting, drain in-flight requests, print a
    stats summary, and exit 0.

LOADGEN OPTIONS:
    --addr <HOST:PORT>          server to drive (default: 127.0.0.1:8787)
    --connections <N>           concurrent connections in the
                                throughput batch (default: 4)
    --requests <N>              requests per kernel (default: 2000)
    --quick                     CI smoke preset: 2 connections,
                                200 requests
    --endpoint <NAME>           exercise only one POST endpoint's
                                kernels: solve, sweep, or batch
                                (default: all)
    --mix <SPEC>                weighted endpoint mix on one connection,
                                e.g. solve=7,sweep=2,batch=1; reports
                                per-endpoint latency percentiles
    --floor <ID=RATE>           fail (exit 1) if kernel ID's median
                                throughput drops below RATE requests/s;
                                repeatable
    --format <ascii|csv|json>   output format (default: ascii)
    --out <DIR>                 write the report into DIR
    --snapshot <DIR>            write a BENCH_serve.json snapshot

EXIT STATUS:
    0 when every selected experiment succeeds, 1 when any fails.
";

#[derive(Debug, Clone, Copy, PartialEq, Default)]
enum Format {
    #[default]
    Ascii,
    Csv,
    Json,
}

impl Format {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "ascii" => Ok(Format::Ascii),
            "csv" => Ok(Format::Csv),
            "json" => Ok(Format::Json),
            other => Err(format!("unknown format '{other}' (ascii|csv|json)")),
        }
    }

    fn extension(self) -> &'static str {
        match self {
            Format::Ascii => "txt",
            Format::Csv => "csv",
            Format::Json => "json",
        }
    }

    fn render(self, report: &Report) -> String {
        match self {
            Format::Ascii => report.to_ascii(),
            Format::Csv => report.to_csv(),
            Format::Json => report.to_json(),
        }
    }
}

#[derive(Debug, Default)]
struct RunArgs {
    ids: Vec<String>,
    all: bool,
    format: Format,
    out: Option<std::path::PathBuf>,
    jobs: Option<usize>,
    seed: Option<u64>,
    timeout: Option<u64>,
    fail_fast: bool,
}

/// One subcommand's argv, read token by token. It owns every rule the
/// subcommands share, so their messages cannot drift apart: a missing
/// value, a malformed value, counts of at least 1, `--floor ID=RATE`,
/// unknown option vs unexpected argument, and the `--quick` preset.
struct Argv<'a> {
    tokens: std::iter::Peekable<std::slice::Iter<'a, String>>,
    /// The token last returned by [`Argv::next_arg`], named in errors.
    flag: &'a str,
    /// Whether `--quick` appears anywhere in argv.
    quick: bool,
}

impl<'a> Argv<'a> {
    fn new(args: &'a [String]) -> Self {
        Argv {
            tokens: args.iter().peekable(),
            flag: "",
            quick: args.iter().any(|a| a == "--quick"),
        }
    }

    /// The next flag or positional argument.
    fn next_arg(&mut self) -> Option<&'a str> {
        self.flag = self.tokens.next()?;
        Some(self.flag)
    }

    /// The `quick` preset when `--quick` appears anywhere in argv, else
    /// `standard`: the preset applies first, so explicit flags override
    /// it wherever they stand.
    fn preset<T>(&self, standard: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            standard
        }
    }

    /// The current flag's value; `what` completes "{flag} needs ...".
    fn value(&mut self, what: &str) -> Result<&'a str, String> {
        self.tokens
            .next()
            .map(String::as_str)
            .ok_or_else(|| format!("{} needs {what}", self.flag))
    }

    /// The current flag's value, read by `parse`, which words its own
    /// errors.
    fn with<T>(&mut self, what: &str, parse: fn(&str) -> Result<T, String>) -> Result<T, String> {
        parse(self.value(what)?)
    }

    /// Like [`Argv::with`], but the value is optional: `default` when
    /// the next token is missing or is itself a flag.
    fn optional<T>(
        &mut self,
        default: T,
        parse: fn(&str) -> Result<T, String>,
    ) -> Result<T, String> {
        self.tokens
            .next_if(|v| !v.starts_with('-'))
            .map_or(Ok(default), |v| parse(v))
    }

    /// The current flag's value, parsed with `FromStr`.
    fn parse<T: std::str::FromStr>(&mut self, what: &str) -> Result<T, String> {
        let v = self.value(what)?;
        v.parse()
            .map_err(|_| format!("bad {} value '{v}'", self.flag))
    }

    /// A count of at least 1; `unit` ends the "must be at least 1" error.
    fn at_least_one<T>(&mut self, what: &str, unit: &str) -> Result<T, String>
    where
        T: std::str::FromStr + Default + PartialEq,
    {
        let n: T = self.parse(what)?;
        if n == T::default() {
            return Err(format!("{} must be at least 1{unit}", self.flag));
        }
        Ok(n)
    }

    /// A count of at least 1.
    fn count<T>(&mut self, what: &str) -> Result<T, String>
    where
        T: std::str::FromStr + Default + PartialEq,
    {
        self.at_least_one(what, "")
    }

    /// A `--floor ID=RATE` gate: a finite, positive rate.
    fn floor(&mut self) -> Result<(String, f64), String> {
        let v = self.value("ID=RATE")?;
        let (id, rate) = v
            .split_once('=')
            .ok_or_else(|| format!("bad --floor '{v}' (expected ID=RATE)"))?;
        let rate: f64 = rate
            .parse()
            .map_err(|_| format!("bad --floor rate '{rate}'"))?;
        if !rate.is_finite() || rate <= 0.0 {
            return Err("--floor rate must be positive".into());
        }
        Ok((id.to_string(), rate))
    }

    /// The error for a token no arm of the subcommand took.
    fn unexpected(&self) -> String {
        if self.flag.starts_with('-') {
            format!("unknown option '{}'", self.flag)
        } else {
            format!("unexpected argument '{}'", self.flag)
        }
    }
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs::default();
    let mut a = Argv::new(args);
    while let Some(arg) = a.next_arg() {
        match arg {
            "--all" => run.all = true,
            "--format" => run.format = a.with("a value", Format::parse)?,
            "--out" => run.out = Some(a.value("a directory")?.into()),
            "--jobs" => run.jobs = Some(a.count("a count")?),
            "--seed" => run.seed = Some(a.parse("a value")?),
            "--timeout" => run.timeout = Some(a.at_least_one("a value in seconds", " second")?),
            "--fail-fast" => run.fail_fast = true,
            "--keep-going" => run.fail_fast = false,
            id if !id.starts_with('-') => run.ids.push(id.to_string()),
            _ => return Err(a.unexpected()),
        }
    }
    if run.all && !run.ids.is_empty() {
        return Err("pass either --all or explicit ids, not both".into());
    }
    if !run.all && run.ids.is_empty() {
        return Err("nothing to run: pass experiment ids or --all".into());
    }
    Ok(run)
}

/// Extracts the human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one experiment with panics contained: a panic unwinds into a
/// structured failure report instead of taking down the worker.
fn run_caught(experiment: &dyn Experiment) -> Report {
    match catch_unwind(AssertUnwindSafe(|| experiment.run_to_report())) {
        Ok(report) => report,
        Err(payload) => Report::failure(
            experiment.id(),
            experiment.figure(),
            experiment.title(),
            ExperimentError::Panicked(panic_message(payload)),
        ),
    }
}

/// Runs one experiment under an optional wall-clock deadline. With a
/// deadline the run happens on a dedicated watchdog thread; on overrun
/// the thread is abandoned (it cannot be killed) and a timeout failure
/// report takes its registry slot.
fn run_guarded(experiment: &Arc<dyn Experiment>, timeout: Option<Duration>) -> Report {
    let Some(limit) = timeout else {
        return run_caught(experiment.as_ref());
    };
    let (tx, rx) = mpsc::channel();
    let worker = Arc::clone(experiment);
    std::thread::spawn(move || {
        // A send error just means the watchdog gave up waiting.
        let _ = tx.send(run_caught(worker.as_ref()));
    });
    match rx.recv_timeout(limit) {
        Ok(report) => report,
        Err(mpsc::RecvTimeoutError::Timeout) => Report::failure(
            experiment.id(),
            experiment.figure(),
            experiment.title(),
            ExperimentError::TimedOut {
                limit_secs: limit.as_secs(),
            },
        ),
        Err(mpsc::RecvTimeoutError::Disconnected) => Report::failure(
            experiment.id(),
            experiment.figure(),
            experiment.title(),
            ExperimentError::WorkerDied,
        ),
    }
}

/// Runs `selected` concurrently on `jobs` scoped threads; reports come
/// back in input order regardless of which thread finished first.
///
/// Fault isolation: each run is wrapped in [`run_guarded`], so panics,
/// typed errors, and deadline overruns all land as failure reports in
/// their own slot. Slot mutexes are read through poison recovery, so
/// even a panic in the harness itself (between run and store) cannot
/// cascade. With `fail_fast`, workers stop claiming new experiments
/// after the first failure; unclaimed experiments are reported on
/// stderr and omitted from the output.
fn run_parallel(
    selected: &[Arc<dyn Experiment>],
    jobs: usize,
    timeout: Option<Duration>,
    fail_fast: bool,
) -> Vec<Report> {
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<Report>>> = selected.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(selected.len()) {
            scope.spawn(|| loop {
                if fail_fast && stop.load(Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(experiment) = selected.get(i) else {
                    break;
                };
                let report = run_guarded(experiment, timeout);
                if report.is_failure() {
                    stop.store(true, Ordering::Relaxed);
                }
                *slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(report);
            });
        }
    });
    let mut reports = Vec::with_capacity(selected.len());
    for (slot, experiment) in slots.into_iter().zip(selected) {
        match slot.into_inner().unwrap_or_else(|p| p.into_inner()) {
            Some(report) => reports.push(report),
            None if fail_fast => {
                eprintln!("bandwall: skipped {} (--fail-fast)", experiment.id());
            }
            None => {
                // The worker claimed this slot but never stored a report:
                // it died outside the contained run.
                reports.push(Report::failure(
                    experiment.id(),
                    experiment.figure(),
                    experiment.title(),
                    ExperimentError::WorkerDied,
                ));
            }
        }
    }
    reports
}

/// Writes `contents` to `path` atomically: the bytes land in a `.tmp`
/// sibling first and are renamed into place, so a crash mid-write never
/// leaves a truncated report behind.
fn write_atomic(path: &std::path::Path, contents: &str) -> Result<(), String> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, contents).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("cannot rename {} to {}: {e}", tmp.display(), path.display()))
}

fn emit(reports: &[Report], format: Format, out: Option<&std::path::Path>) -> Result<(), String> {
    match out {
        Some(dir) => {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            for report in reports {
                let path = dir.join(format!("{}.{}", report.id, format.extension()));
                write_atomic(&path, &format.render(report))?;
                println!("wrote {}", path.display());
            }
        }
        None => {
            let stdout = std::io::stdout();
            let mut w = stdout.lock();
            let rendered: Result<(), std::io::Error> = (|| {
                match format {
                    Format::Json => {
                        // One valid JSON document: an array of reports.
                        w.write_all(b"[")?;
                        for (i, report) in reports.iter().enumerate() {
                            if i > 0 {
                                w.write_all(b",")?;
                            }
                            w.write_all(report.to_json().as_bytes())?;
                        }
                        w.write_all(b"]\n")?;
                    }
                    Format::Ascii | Format::Csv => {
                        for (i, report) in reports.iter().enumerate() {
                            if i > 0 {
                                w.write_all(b"\n")?;
                            }
                            w.write_all(format.render(report).as_bytes())?;
                        }
                    }
                }
                Ok(())
            })();
            rendered.map_err(|e| format!("stdout: {e}"))?;
        }
    }
    Ok(())
}

fn cmd_list() {
    let reg = registry_with_seed(None);
    let width = reg.iter().map(|e| e.id().len()).max().unwrap_or(0);
    for e in &reg {
        println!("{:width$}  {} — {}", e.id(), e.figure(), e.title());
    }
}

/// The experiments `run` names, in argv order, or the whole registry for
/// `--all`. Each id must be known and named once.
fn select(run: &RunArgs) -> Result<Vec<Arc<dyn Experiment>>, String> {
    let reg = registry_with_seed(run.seed).into_iter().map(Arc::from);
    if run.all {
        return Ok(reg.collect());
    }
    let reg: Vec<Arc<dyn Experiment>> = reg.collect();
    let mut picked: Vec<Arc<dyn Experiment>> = Vec::with_capacity(run.ids.len());
    for id in &run.ids {
        let experiment = reg
            .iter()
            .find(|e| e.id() == id)
            .ok_or_else(|| format!("unknown experiment id '{id}' (see `bandwall list`)"))?;
        if picked.iter().any(|e| e.id() == id) {
            return Err(format!("experiment id '{id}' is repeated"));
        }
        picked.push(Arc::clone(experiment));
    }
    Ok(picked)
}

/// Runs the selected experiments; `Ok(true)` means at least one failed.
fn cmd_run(args: &[String]) -> Result<bool, String> {
    let run = parse_run_args(args)?;
    let selected = select(&run)?;
    let jobs = run.jobs.unwrap_or_else(host_parallelism);
    set_concurrent_experiments(jobs.min(selected.len()));
    let timeout = run.timeout.map(Duration::from_secs);
    let reports = run_parallel(&selected, jobs, timeout, run.fail_fast);
    emit(&reports, run.format, run.out.as_deref())?;
    let failed = reports.iter().filter(|r| r.is_failure()).count();
    let skipped = selected.len() - reports.len();
    if failed > 0 || skipped > 0 {
        eprintln!(
            "bandwall: {failed} of {} experiments failed{}",
            selected.len(),
            if skipped > 0 {
                format!(", {skipped} skipped")
            } else {
                String::new()
            }
        );
    }
    Ok(failed > 0 || skipped > 0)
}

#[derive(Debug, Default)]
struct BenchArgs {
    groups: Vec<String>,
    list: bool,
    options: BenchOptions,
    format: Format,
    out: Option<std::path::PathBuf>,
    snapshot: Option<std::path::PathBuf>,
    floors: Vec<(String, f64)>,
}

fn parse_bench_args(args: &[String]) -> Result<BenchArgs, String> {
    let mut a = Argv::new(args);
    let mut bench = BenchArgs {
        options: a.preset(BenchOptions::standard(), BenchOptions::quick()),
        ..BenchArgs::default()
    };
    while let Some(arg) = a.next_arg() {
        match arg {
            "--list" => bench.list = true,
            "--quick" => {} // applied first, by `Argv::preset`
            "--warmup" => bench.options.warmup = a.parse("a count")?,
            "--iters" => bench.options.iters = a.count("a count")?,
            "--accesses" => bench.options.accesses = a.count("a count")?,
            "--format" => bench.format = a.with("a value", Format::parse)?,
            "--out" => bench.out = Some(a.value("a directory")?.into()),
            "--snapshot" => bench.snapshot = Some(a.value("a directory")?.into()),
            "--floor" => bench.floors.push(a.floor()?),
            group if !group.starts_with('-') => bench.groups.push(group.to_string()),
            _ => return Err(a.unexpected()),
        }
    }
    for group in &bench.groups {
        if !GROUPS.contains(&group.as_str()) {
            return Err(format!(
                "unknown bench group '{group}' (see `bandwall bench --list`)"
            ));
        }
    }
    Ok(bench)
}

fn cmd_bench(args: &[String]) -> Result<(), String> {
    let bench = parse_bench_args(args)?;
    if bench.list {
        for group in GROUPS {
            println!("{group}");
        }
        return Ok(());
    }
    let selected: Vec<&str> = if bench.groups.is_empty() {
        GROUPS.to_vec()
    } else {
        bench.groups.iter().map(String::as_str).collect()
    };
    let mut reports = Vec::with_capacity(selected.len());
    let mut groups = Vec::with_capacity(selected.len());
    for name in selected {
        eprintln!("bandwall: benching {name}...");
        let group = run_group(name, &bench.options)?;
        if let Some(dir) = &bench.snapshot {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            let path = dir.join(group.snapshot_filename());
            write_atomic(&path, &group.snapshot_json())?;
            eprintln!("bandwall: wrote {}", path.display());
        }
        reports.push(group.to_report());
        groups.push(group);
    }
    emit(&reports, bench.format, bench.out.as_deref())?;
    check_floors(&bench.floors, &groups)
}

/// The `--floor` regression gate: every floor must name a kernel that
/// ran, and that kernel's median throughput must meet the rate.
fn check_floors(floors: &[(String, f64)], groups: &[BenchGroup]) -> Result<(), String> {
    for (id, rate) in floors {
        let result = groups
            .iter()
            .flat_map(|g| &g.results)
            .find(|r| r.id == *id)
            .ok_or_else(|| format!("--floor {id}: no such kernel ran"))?;
        let actual = result.items_per_sec();
        let (shown, floor) = floor_texts(actual, *rate);
        if actual < *rate {
            return Err(format!(
                "--floor {id}: throughput {shown} {}/s is below the floor {floor}",
                result.unit
            ));
        }
        eprintln!(
            "bandwall: floor {id}: {shown} {}/s >= {floor} ok",
            result.unit
        );
    }
    Ok(())
}

/// A measured rate and its floor as the `--floor` gate prints them: the
/// floor in its shortest exact form, the rate to at least as many
/// decimals, and to more while a rate below the floor would still print
/// as the floor, so the two never round across each other.
fn floor_texts(actual: f64, floor: f64) -> (String, String) {
    let floor_text = floor.to_string();
    let mut decimals = floor_text.split_once('.').map_or(0, |(_, f)| f.len());
    let mut actual_text = format!("{actual:.decimals$}");
    while actual < floor && actual_text.parse() == Ok(floor) {
        decimals += 1;
        actual_text = format!("{actual:.decimals$}");
    }
    (actual_text, floor_text)
}

/// Minimal signal handling for `bandwall serve`, kept in the binary
/// because the library forbids `unsafe`. On unix, SIGINT/SIGTERM flip
/// one atomic flag that the serve loop polls; elsewhere the install is
/// a no-op and ctrl-c falls back to the platform default.
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    /// Whether a shutdown signal has arrived.
    pub fn requested() -> bool {
        REQUESTED.load(Ordering::Relaxed)
    }

    #[cfg(unix)]
    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        extern "C" fn on_signal(_signum: i32) {
            REQUESTED.store(true, Ordering::Relaxed);
        }
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        // SAFETY: `signal(2)` with a handler that only stores to an
        // atomic is async-signal-safe; both signums are valid.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    #[cfg(not(unix))]
    pub fn install() {}
}

fn parse_serve_args(args: &[String]) -> Result<ServeConfig, String> {
    let mut config = ServeConfig::default();
    let mut a = Argv::new(args);
    while let Some(arg) = a.next_arg() {
        match arg {
            "--addr" => config.addr = a.value("HOST:PORT")?.to_string(),
            "--workers" => config.workers = a.count("a count")?,
            "--queue" => config.queue_capacity = a.count("a capacity")?,
            "--deadline-ms" => config.deadline = Duration::from_millis(a.count("a value")?),
            "--read-timeout-ms" => config.read_timeout = Duration::from_millis(a.count("a value")?),
            "--cache-capacity" => config.cache_capacity = a.parse("a count")?,
            // A bare `--chaos` means the standard spec.
            "--chaos" => config.chaos = Some(a.optional(ChaosSpec::standard(), ChaosSpec::parse)?),
            _ => return Err(a.unexpected()),
        }
    }
    Ok(config)
}

/// Renders the final serve counters as one JSON line for scripts.
fn stats_json(stats: &StatsSnapshot) -> String {
    format!(
        "{{\"connections\":{},\"served_ok\":{},\"shed\":{},\
         \"invalid_request\":{},\"not_found\":{},\"not_ready\":{},\
         \"deadline_exceeded\":{},\"internal\":{},\"worker_respawns\":{},\
         \"cache_hits\":{},\"cache_misses\":{}}}",
        stats.connections,
        stats.served_ok,
        stats.shed,
        stats.invalid_request,
        stats.not_found,
        stats.not_ready,
        stats.deadline_exceeded,
        stats.internal,
        stats.worker_respawns,
        stats.cache_hits,
        stats.cache_misses,
    )
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let config = parse_serve_args(args)?;
    signals::install();
    let chaos = config.chaos.is_some();
    let server = Server::start(config).map_err(|e| format!("starting server: {e}"))?;
    eprintln!(
        "bandwall: serving on {}{} (SIGTERM/SIGINT to drain)",
        server.addr(),
        if chaos { " with chaos injection" } else { "" }
    );
    while !signals::requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("bandwall: draining...");
    server.shutdown_handle().shutdown();
    let stats = server.join();
    println!("{}", stats_json(&stats));
    eprintln!(
        "bandwall: drained; {} ok, {} shed, {} deadline-exceeded, {} respawns",
        stats.served_ok, stats.shed, stats.deadline_exceeded, stats.worker_respawns
    );
    Ok(())
}

#[derive(Debug)]
struct LoadgenArgs {
    addr: String,
    options: LoadgenOptions,
    format: Format,
    out: Option<std::path::PathBuf>,
    snapshot: Option<std::path::PathBuf>,
    floors: Vec<(String, f64)>,
}

fn parse_loadgen_args(args: &[String]) -> Result<LoadgenArgs, String> {
    let mut a = Argv::new(args);
    let mut loadgen = LoadgenArgs {
        addr: "127.0.0.1:8787".to_string(),
        options: a.preset(LoadgenOptions::standard(), LoadgenOptions::quick()),
        format: Format::Ascii,
        out: None,
        snapshot: None,
        floors: Vec::new(),
    };
    while let Some(arg) = a.next_arg() {
        match arg {
            "--addr" => loadgen.addr = a.value("HOST:PORT")?.to_string(),
            "--quick" => {} // applied first, by `Argv::preset`
            "--endpoint" => {
                loadgen.options.endpoint = a.with("a value", EndpointSelection::parse)?
            }
            "--mix" => {
                loadgen.options.mix =
                    Some(a.with("a spec like solve=7,sweep=2", MixWeights::parse)?)
            }
            "--floor" => loadgen.floors.push(a.floor()?),
            "--connections" => loadgen.options.connections = a.count("a count")?,
            "--requests" => loadgen.options.requests = a.count("a count")?,
            "--format" => loadgen.format = a.with("a value", Format::parse)?,
            "--out" => loadgen.out = Some(a.value("a directory")?.into()),
            "--snapshot" => loadgen.snapshot = Some(a.value("a directory")?.into()),
            _ => return Err(a.unexpected()),
        }
    }
    Ok(loadgen)
}

fn cmd_loadgen(args: &[String]) -> Result<(), String> {
    use std::net::ToSocketAddrs;
    let loadgen = parse_loadgen_args(args)?;
    let addr = loadgen
        .addr
        .to_socket_addrs()
        .map_err(|e| format!("resolving '{}': {e}", loadgen.addr))?
        .next()
        .ok_or_else(|| format!("'{}' resolves to no address", loadgen.addr))?;
    eprintln!(
        "bandwall: driving {addr} with {} connections, {} requests per kernel...",
        loadgen.options.connections, loadgen.options.requests
    );
    let results = run_against(&addr, &loadgen.options)?;
    // Wrap the results as a `serve` bench group so --format/--out/
    // --snapshot behave exactly like `bandwall bench serve`. The bench
    // options record the loadgen shape in the snapshot provenance:
    // iters = requests per kernel, accesses = total request budget.
    let group = BenchGroup {
        group: "serve".to_string(),
        options: BenchOptions {
            warmup: 0,
            iters: loadgen.options.requests,
            accesses: loadgen.options.requests * loadgen.options.connections,
        },
        host_parallelism: host_parallelism(),
        results,
    };
    if let Some(dir) = &loadgen.snapshot {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join(group.snapshot_filename());
        write_atomic(&path, &group.snapshot_json())?;
        eprintln!("bandwall: wrote {}", path.display());
    }
    emit(&[group.to_report()], loadgen.format, loadgen.out.as_deref())?;
    let groups = [group];
    check_floors(&loadgen.floors, &groups)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    // `Ok(true)`: the command ran, but some experiment failed.
    let outcome = match args.first().map(String::as_str) {
        Some("list") => {
            cmd_list();
            Ok(false)
        }
        Some("run") => cmd_run(rest),
        Some("bench") => cmd_bench(rest).map(|()| false),
        Some("serve") => cmd_serve(rest).map(|()| false),
        Some("loadgen") => cmd_loadgen(rest).map(|()| false),
        Some("-h" | "--help") | None => {
            print!("{USAGE}");
            Ok(false)
        }
        Some(other) => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    };
    match outcome {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bandwall: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_ids_and_flags() {
        let run = parse_run_args(&args(&[
            "fig02_traffic_vs_cores",
            "--format",
            "json",
            "--jobs",
            "3",
            "--seed",
            "7",
            "--timeout",
            "120",
            "--fail-fast",
        ]))
        .unwrap();
        assert_eq!(run.ids, vec!["fig02_traffic_vs_cores"]);
        assert!(!run.all);
        assert!(run.format == Format::Json);
        assert_eq!(run.jobs, Some(3));
        assert_eq!(run.seed, Some(7));
        assert_eq!(run.timeout, Some(120));
        assert!(run.fail_fast);
    }

    #[test]
    fn keep_going_is_the_default_and_overrides_fail_fast() {
        let run = parse_run_args(&args(&["--all"])).unwrap();
        assert!(!run.fail_fast);
        let run = parse_run_args(&args(&["--all", "--fail-fast", "--keep-going"])).unwrap();
        assert!(!run.fail_fast);
    }

    struct Panicker;
    impl Experiment for Panicker {
        fn id(&self) -> &'static str {
            "panicker"
        }
        fn figure(&self) -> &'static str {
            "Test"
        }
        fn title(&self) -> &'static str {
            "panics"
        }
        fn run(&self) -> Result<Report, ExperimentError> {
            panic!("boom: {}", 6 * 7)
        }
    }

    struct Sleeper;
    impl Experiment for Sleeper {
        fn id(&self) -> &'static str {
            "sleeper"
        }
        fn figure(&self) -> &'static str {
            "Test"
        }
        fn title(&self) -> &'static str {
            "hangs"
        }
        fn run(&self) -> Result<Report, ExperimentError> {
            std::thread::sleep(Duration::from_secs(600));
            Err(ExperimentError::Numerical("woke up".into()))
        }
    }

    struct Succeeder;
    impl Experiment for Succeeder {
        fn id(&self) -> &'static str {
            "succeeder"
        }
        fn figure(&self) -> &'static str {
            "Test"
        }
        fn title(&self) -> &'static str {
            "works"
        }
        fn run(&self) -> Result<Report, ExperimentError> {
            Ok(Report::new(self.id(), self.figure(), self.title()))
        }
    }

    #[test]
    fn run_caught_contains_panics() {
        let report = run_caught(&Panicker);
        assert!(report.is_failure());
        assert!(report.error.as_deref().unwrap().contains("boom: 42"));
    }

    #[test]
    fn run_guarded_times_out_hung_experiments() {
        let experiment: Arc<dyn Experiment> = Arc::new(Sleeper);
        let report = run_guarded(&experiment, Some(Duration::from_millis(50)));
        assert!(report.is_failure());
        assert!(report.error.as_deref().unwrap().contains("deadline"));
    }

    #[test]
    fn run_parallel_keeps_going_and_preserves_order() {
        let selected: Vec<Arc<dyn Experiment>> =
            vec![Arc::new(Succeeder), Arc::new(Panicker), Arc::new(Succeeder)];
        let reports = run_parallel(&selected, 2, None, false);
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].id, "succeeder");
        assert!(!reports[0].is_failure());
        assert_eq!(reports[1].id, "panicker");
        assert!(reports[1].is_failure());
        assert!(!reports[2].is_failure());
    }

    #[test]
    fn run_parallel_fail_fast_skips_unclaimed_work() {
        // One worker: the panicker fails first, so the trailing
        // experiments are never claimed.
        let selected: Vec<Arc<dyn Experiment>> =
            vec![Arc::new(Panicker), Arc::new(Succeeder), Arc::new(Succeeder)];
        let reports = run_parallel(&selected, 1, None, true);
        assert_eq!(reports.len(), 1);
        assert!(reports[0].is_failure());
    }

    #[test]
    fn parses_bench_flags() {
        let bench = parse_bench_args(&args(&[
            "sim_engine",
            "--warmup",
            "2",
            "--iters",
            "7",
            "--accesses",
            "1000",
            "--format",
            "json",
        ]))
        .unwrap();
        assert_eq!(bench.groups, vec!["sim_engine"]);
        assert_eq!(bench.options.warmup, 2);
        assert_eq!(bench.options.iters, 7);
        assert_eq!(bench.options.accesses, 1000);
        assert!(bench.format == Format::Json);
    }

    #[test]
    fn bench_quick_preset_and_overrides_compose() {
        // The explicit flag wins on either side of --quick.
        for argv in [["--quick", "--iters", "9"], ["--iters", "9", "--quick"]] {
            let bench = parse_bench_args(&args(&argv)).unwrap();
            assert_eq!(bench.options.warmup, 1);
            assert_eq!(bench.options.accesses, 60_000);
            assert_eq!(bench.options.iters, 9, "{argv:?}");
        }
    }

    #[test]
    fn parses_floor_flags() {
        let bench = parse_bench_args(&args(&[
            "--floor",
            "compressed_sim_seq=16000000",
            "--floor",
            "fig14_sim_seq=2.5e6",
        ]))
        .unwrap();
        assert_eq!(bench.floors.len(), 2);
        assert_eq!(bench.floors[0].0, "compressed_sim_seq");
        assert!((bench.floors[0].1 - 16e6).abs() < 1.0);
        assert!((bench.floors[1].1 - 2.5e6).abs() < 1.0);

        for bad in [
            &["--floor"][..],
            &["--floor", "no_equals"],
            &["--floor", "id=-5"],
            &["--floor", "id=abc"],
            &["--floor", "id=nan"],
            &["--floor", "id=inf"],
        ] {
            assert!(parse_bench_args(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn floor_gate_passes_and_fails_on_median_throughput() {
        use bandwall_experiments::perf::BenchResult;
        // 1000 items in 1 ms = 1M items/s.
        let group = BenchGroup {
            group: "sim_engine".into(),
            options: BenchOptions::quick(),
            host_parallelism: 1,
            results: vec![BenchResult::from_samples(
                "k",
                "kernel",
                1,
                1_000,
                "accesses",
                vec![1_000_000],
            )],
        };
        let groups = [group];
        assert!(check_floors(&[("k".into(), 0.9e6)], &groups).is_ok());
        let err = check_floors(&[("k".into(), 1.1e6)], &groups).unwrap_err();
        assert!(err.contains("below the floor"), "{err}");
        let err = check_floors(&[("missing".into(), 1.0)], &groups).unwrap_err();
        assert!(err.contains("no such kernel"), "{err}");
    }

    #[test]
    fn floor_gate_never_prints_a_rate_across_its_floor() {
        use bandwall_experiments::perf::BenchResult;
        // One run in 769.2 ms: 1.3 runs/s, against a floor of 1.4.
        let group = BenchGroup {
            group: "experiments".into(),
            options: BenchOptions::quick(),
            host_parallelism: 1,
            results: vec![BenchResult::from_samples(
                "k",
                "kernel",
                1,
                1,
                "runs",
                vec![769_230_769],
            )],
        };
        let err = check_floors(&[("k".into(), 1.4)], &[group]).unwrap_err();
        assert_eq!(
            err,
            "--floor k: throughput 1.3 runs/s is below the floor 1.4"
        );
        // A rate below its floor gains decimals until it no longer prints
        // as the floor; one at or above it keeps the floor's precision.
        for (actual, floor, texts) in [
            (1.39996, 1.4, ("1.39996", "1.4")),
            (3_999_999.6, 4e6, ("3999999.6", "4000000")),
            (2.47, 1.5, ("2.5", "1.5")),
            (1.4, 1.4, ("1.4", "1.4")),
            (11_234_567.8, 4e6, ("11234568", "4000000")),
        ] {
            let (shown, floor_shown) = floor_texts(actual, floor);
            assert_eq!((shown.as_str(), floor_shown.as_str()), texts);
        }
    }

    #[test]
    fn parses_serve_flags() {
        let serve = parse_serve_args(&args(&[
            "--addr",
            "0.0.0.0:9000",
            "--workers",
            "8",
            "--queue",
            "16",
            "--deadline-ms",
            "750",
            "--read-timeout-ms",
            "1500",
            "--cache-capacity",
            "0",
        ]))
        .unwrap();
        assert_eq!(serve.addr, "0.0.0.0:9000");
        assert_eq!(serve.workers, 8);
        assert_eq!(serve.queue_capacity, 16);
        assert_eq!(serve.deadline, Duration::from_millis(750));
        assert_eq!(serve.read_timeout, Duration::from_millis(1500));
        assert_eq!(serve.cache_capacity, 0);
        assert!(serve.chaos.is_none());
    }

    #[test]
    fn serve_chaos_spec_is_optional() {
        // Bare --chaos: the standard spec.
        let serve = parse_serve_args(&args(&["--chaos"])).unwrap();
        assert_eq!(serve.chaos, Some(ChaosSpec::standard()));
        // Bare --chaos followed by another flag still works.
        let serve = parse_serve_args(&args(&["--chaos", "--workers", "3"])).unwrap();
        assert_eq!(serve.chaos, Some(ChaosSpec::standard()));
        assert_eq!(serve.workers, 3);
        // An explicit spec overrides fields.
        let serve = parse_serve_args(&args(&["--chaos", "panic=0.5,seed=9"])).unwrap();
        let spec = serve.chaos.unwrap();
        assert!((spec.handler_panic - 0.5).abs() < 1e-12);
        assert_eq!(spec.seed, 9);
    }

    #[test]
    fn parses_loadgen_flags() {
        let loadgen = parse_loadgen_args(&args(&[
            "--addr",
            "10.0.0.1:8080",
            "--connections",
            "6",
            "--requests",
            "500",
            "--format",
            "json",
        ]))
        .unwrap();
        assert_eq!(loadgen.addr, "10.0.0.1:8080");
        assert_eq!(loadgen.options.connections, 6);
        assert_eq!(loadgen.options.requests, 500);
        assert!(loadgen.format == Format::Json);
        assert_eq!(loadgen.options.endpoint, EndpointSelection::All);
        assert!(loadgen.options.mix.is_none());
        assert!(loadgen.floors.is_empty());
    }

    #[test]
    fn parses_loadgen_endpoint_mix_and_floor_flags() {
        let loadgen = parse_loadgen_args(&args(&["--endpoint", "sweep"])).unwrap();
        assert_eq!(loadgen.options.endpoint, EndpointSelection::Sweep);
        // --quick after --endpoint keeps the selection.
        let loadgen = parse_loadgen_args(&args(&["--endpoint", "batch", "--quick"])).unwrap();
        assert_eq!(loadgen.options.endpoint, EndpointSelection::Batch);
        assert_eq!(loadgen.options.requests, 200);

        let loadgen = parse_loadgen_args(&args(&["--mix", "solve=7,sweep=2,batch=1"])).unwrap();
        let mix = loadgen.options.mix.unwrap();
        assert_eq!((mix.solve, mix.sweep, mix.batch), (7, 2, 1));

        let loadgen =
            parse_loadgen_args(&args(&["--floor", "serve_healthz=5000", "--floor", "x=1"]))
                .unwrap();
        assert_eq!(loadgen.floors.len(), 2);
        assert_eq!(loadgen.floors[0].0, "serve_healthz");
        assert!((loadgen.floors[0].1 - 5000.0).abs() < 1e-9);

        for bad in [
            &["--endpoint", "warp"][..],
            &["--mix", "solve=x"],
            &["--mix", "warp=1"],
            &["--mix", "solve=0,sweep=0,batch=0"],
            &["--floor", "no_equals"],
            &["--floor", "id=-5"],
            &["--floor", "id=nan"],
            &["--floor", "id=inf"],
        ] {
            assert!(parse_loadgen_args(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn loadgen_quick_preset_and_overrides_compose() {
        for argv in [
            ["--quick", "--requests", "50"],
            ["--requests", "50", "--quick"],
        ] {
            let loadgen = parse_loadgen_args(&args(&argv)).unwrap();
            assert_eq!(loadgen.options.connections, 2);
            assert_eq!(loadgen.options.requests, 50, "{argv:?}");
        }
    }

    #[test]
    fn stats_json_is_well_formed() {
        let stats = StatsSnapshot {
            connections: 10,
            served_ok: 8,
            shed: 1,
            invalid_request: 1,
            not_found: 0,
            not_ready: 0,
            deadline_exceeded: 0,
            internal: 0,
            worker_respawns: 0,
            cache_hits: 4,
            cache_misses: 4,
        };
        let line = stats_json(&stats);
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"served_ok\":8"));
        assert!(line.contains("\"cache_hits\":4"));
    }

    #[test]
    fn write_atomic_replaces_contents() {
        let dir = std::env::temp_dir().join("bandwall_write_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        write_atomic(&path, "{\"a\":1}").unwrap();
        write_atomic(&path, "{\"a\":2}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"a\":2}");
        assert!(!path.with_extension("json.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One argv (subcommand first) with one error per line, `|`, then the
    /// exact message. Scripts match on this wording, so changing a row
    /// changes the CLI.
    const ERRORS: &str = "\
run|nothing to run: pass experiment ids or --all
run --all fig01_power_law|pass either --all or explicit ids, not both
run --all --format|--format needs a value
run --all --format yaml|unknown format 'yaml' (ascii|csv|json)
run --all --out|--out needs a directory
run --all --jobs|--jobs needs a count
run --all --jobs -1|bad --jobs value '-1'
run --all --jobs 0|--jobs must be at least 1
run --all --seed|--seed needs a value
run --all --seed 18446744073709551616|bad --seed value '18446744073709551616'
run --all --timeout|--timeout needs a value in seconds
run --all --timeout 0|--timeout must be at least 1 second
run --all --frmat json|unknown option '--frmat'
run --all --quick|unknown option '--quick'
run fig01_power_law nope|unknown experiment id 'nope' (see `bandwall list`)
bench no_such_group|unknown bench group 'no_such_group' (see `bandwall bench --list`)
bench --warmup x|bad --warmup value 'x'
bench --iters|--iters needs a count
bench --iters 0|--iters must be at least 1
bench --iters nan|bad --iters value 'nan'
bench --accesses 0|--accesses must be at least 1
bench --snapshot|--snapshot needs a directory
bench --floor|--floor needs ID=RATE
bench --floor no_equals|bad --floor 'no_equals' (expected ID=RATE)
bench --floor id=abc|bad --floor rate 'abc'
bench --floor id=1e309|--floor rate must be positive
bench --frmat|unknown option '--frmat'
serve --addr|--addr needs HOST:PORT
serve --workers 0|--workers must be at least 1
serve --shards 2|unknown option '--shards'
serve --queue|--queue needs a capacity
serve --queue 0|--queue must be at least 1
serve --deadline-ms|--deadline-ms needs a value
serve --deadline-ms 0|--deadline-ms must be at least 1
serve --read-timeout-ms 0|--read-timeout-ms must be at least 1
serve --cache-capacity -1|bad --cache-capacity value '-1'
serve --chaos panic=nope|bad panic probability 'nope'
serve --bogus|unknown option '--bogus'
serve stray|unexpected argument 'stray'
serve --quick|unknown option '--quick'
loadgen --endpoint warp|unknown endpoint 'warp' (allowed: all, solve, sweep, batch)
loadgen --mix|--mix needs a spec like solve=7,sweep=2
loadgen --mix warp=1|unknown mix endpoint 'warp' (allowed: solve, sweep, batch)
loadgen --mix solve=0,sweep=0,batch=0|mix needs at least one nonzero weight
loadgen --floor id=-5|--floor rate must be positive
loadgen --connections 0|--connections must be at least 1
loadgen --requests 0|--requests must be at least 1
loadgen --requests x|bad --requests value 'x'
loadgen --bogus|unknown option '--bogus'
loadgen stray|unexpected argument 'stray'
run fig02_traffic_vs_cores fig02_traffic_vs_cores|experiment id 'fig02_traffic_vs_cores' is repeated
run nope nope|unknown experiment id 'nope' (see `bandwall list`)
loadgen --floor id=nan|--floor rate must be positive
loadgen --floor id=inf|--floor rate must be positive
loadgen --floor id=1e309|--floor rate must be positive";

    /// The argv lists CI, README, perfbench and the verify skill run.
    const DOCUMENTED: [&str; 14] = [
        "run --all --jobs 2 --format json --out golden-check",
        "run fig16_combinations",
        "run --all --out reports/ --format csv",
        "run fig14_parsec_sharing --seed 1 --format json",
        "run --all --seed 3 --format json",
        "bench --quick --format json --snapshot snaps --floor compressed_sim_seq=4000000 \
         --floor model_solve_combination_16x=500000 --floor experiment_ablate_replacement=1.5 \
         --floor experiment_fig01_power_law=1.3",
        "bench --quick --format json --snapshot bench-snapshots \
         --floor compressed_sim_seq=4000000 --floor fig14_trace_gen=14000000 \
         --floor experiment_ablate_replacement=1.5 --floor experiment_fig01_power_law=3.8 \
         --floor model_solve_combination_16x=120000 --floor lru_sim_seq=24500000 \
         --floor experiment_coherence_study=4.2",
        "bench --snapshot .",
        "bench model --quick",
        "serve --addr 127.0.0.1:8787 --workers 2",
        "serve --addr 127.0.0.1:0 --queue 64 --chaos",
        "loadgen --addr 127.0.0.1:8787 --quick --format json --snapshot serve-snapshot \
         --floor serve_healthz=3000 --floor serve_healthz_fresh=4000",
        "loadgen --mix solve=7,sweep=2,batch=1",
        "loadgen --endpoint sweep --connections 2",
    ];

    /// Parses `argv` (subcommand first) as `main` would, through
    /// experiment selection for `run`; the error, if any.
    fn parse_error(argv: &[String]) -> Option<String> {
        let (subcommand, rest) = argv.split_first().expect("a subcommand");
        match subcommand.as_str() {
            "run" => parse_run_args(rest).and_then(|run| select(&run).map(drop)),
            "bench" => parse_bench_args(rest).map(drop),
            "serve" => parse_serve_args(rest).map(drop),
            "loadgen" => parse_loadgen_args(rest).map(drop),
            other => panic!("no subcommand {other}"),
        }
        .err()
    }

    fn split(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parser_errors_keep_their_exact_messages() {
        for case in ERRORS.lines() {
            let (argv, message) = case.split_once('|').unwrap();
            assert_eq!(
                parse_error(&split(argv)).as_deref(),
                Some(message),
                "{argv}"
            );
        }
        for line in DOCUMENTED {
            assert_eq!(parse_error(&split(line)), None, "{line}");
        }
    }

    #[test]
    fn mutated_documented_argv_never_panics_and_always_explains() {
        const TOKENS: [&str; 10] = [
            "",
            "-",
            "--",
            "nan",
            "inf",
            "1e309",
            "18446744073709551616",
            "x=",
            "=1",
            "débit→",
        ];
        let mut rng = bandwall_numerics::Rng::seed_from_u64(2026);
        for _ in 0..20_000 {
            let mut argv = split(DOCUMENTED[rng.gen_range(0..DOCUMENTED.len())]);
            let token = TOKENS[rng.gen_range(0..TOKENS.len())].to_string();
            // Mutate the arguments; argv[0] stays the subcommand.
            let i = rng.gen_range(1..argv.len());
            match rng.gen_range(0..5u32) {
                0 => drop(argv.remove(i)),
                1 => argv.insert(i, argv[i].clone()),
                2 => {
                    let j = rng.gen_range(1..argv.len());
                    argv.swap(i, j);
                }
                3 => argv[i] = token,
                _ => argv.insert(i, token),
            }
            if let Some(err) = parse_error(&argv) {
                assert!(!err.is_empty(), "{argv:?}");
            }
        }
    }
}
