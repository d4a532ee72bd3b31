//! `bandwall bench` — wall-clock benchmarking of the simulation kernels.
//!
//! Experiments measure *what* the paper's techniques do; this module
//! measures *how fast* the repository computes it. Each bench group runs
//! a small set of kernels under warmup/iteration control and reports
//! nearest-rank median/p10/p90 wall-clock times plus throughput, rendered
//! through the same [`Report`] machinery as the experiments (ASCII, CSV,
//! JSON) and snapshotted as machine-readable `BENCH_<group>.json` files.
//!
//! Groups:
//!
//! * `sim_engine` — the Figure 14 CMP simulation: trace generation, the
//!   1-bank baseline, and the banked engine at 2/4/8 threads with
//!   speedup vs the baseline median; plus 4-thread banked runs of the
//!   configurations that historically fell back to sequential —
//!   Random replacement and mismatched L1/L2 line sizes — and the
//!   sectored, compressed and footprint-predicting sectored fills of the
//!   unified pipeline; and `lru_sim_seq`, a plain 64 KB LRU cache on one
//!   bank over a recorded α = 0.5 stack-distance trace. On a
//!   multi-core host the parallel rows scale with the bank count; on a
//!   single hardware thread they measure the engine's overhead (the
//!   snapshot records `host_parallelism` so readers can tell which).
//! * `compress` — every cache-line compression engine over an identical
//!   deterministic stream of commercial-profile lines.
//! * `experiments` — end-to-end registry experiment runs: one analytic
//!   figure and five trace-driven experiments (Figures 1 and 14, the
//!   replacement ablation, the coherence study and the write-back
//!   validation), one at a time, so
//!   each simulates on [`registry::sim_banks`] banks: every host CPU.
//! * `serve` — the model-query service over loopback HTTP.
//! * `model` — the analytic kernels: the power-law miss rate, relative
//!   traffic, the supportable-core solve by integer search and by Brent
//!   crossover at generations 1, 4 and 7 (the solver ablation of
//!   DESIGN.md §7), the four-technique combination at 16×, and the
//!   Figure 15 sweep. Each sample loops a fixed number of calls, so
//!   sub-microsecond kernels sit well above timer resolution.
//!
//! All kernels are deterministic (fixed seeds), so run-to-run variance
//! comes from the machine, not the workload.

use crate::registry;
use crate::report::{Report, TableBlock, Value};
use crate::{die_budget, paper_baseline, GENERATIONS};
use bandwall_cache_sim::{
    CacheConfig, CmpSimConfig, CompressorKind, EngineSimConfig, FillSpec, L2Organization,
    ProfileKind, ReplacementPolicy, ValueSpec,
};
use bandwall_compress::{Bdi, BestOf, Compressor, Fpc, ZeroRle};
use bandwall_model::{
    catalog, Alpha, AssumptionLevel, MissRateCurve, ScalingProblem, Technique, TrafficModel,
};
use bandwall_trace::values::{LineValueGenerator, ValueProfile};
use bandwall_trace::{ParsecLikeTrace, ReplayTrace, StackDistanceTrace};
use std::sync::OnceLock;
use std::time::Instant;

/// The bench groups, in presentation order.
pub const GROUPS: [&str; 5] = ["sim_engine", "compress", "experiments", "serve", "model"];

/// Snapshot schema identifier, bumped on any incompatible change
/// (`/2` added `p99_ns` to every result row; `/3` switched the
/// `sim_engine` simulation kernels to replaying a pre-recorded trace,
/// so their throughput measures the simulator alone and is not
/// comparable with `/2` numbers).
pub const SNAPSHOT_SCHEMA: &str = "bandwall-bench/3";

/// Warmup/iteration/workload-size control for one bench run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchOptions {
    /// Untimed runs before sampling starts.
    pub warmup: usize,
    /// Timed samples per kernel.
    pub iters: usize,
    /// Simulated accesses per sample (the `sim_engine` workload size;
    /// `compress` derives its line count from this).
    pub accesses: usize,
}

impl BenchOptions {
    /// The default measurement configuration.
    pub fn standard() -> Self {
        BenchOptions {
            warmup: 1,
            iters: 5,
            accesses: 400_000,
        }
    }

    /// A CI-friendly smoke configuration (seconds, not minutes).
    pub fn quick() -> Self {
        BenchOptions {
            warmup: 1,
            iters: 3,
            accesses: 60_000,
        }
    }
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions::standard()
    }
}

/// Timing samples and throughput for one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Stable kernel id (snake_case).
    pub id: String,
    /// Human-readable kernel description.
    pub title: String,
    /// Worker threads the kernel requested (1 for sequential kernels; for
    /// a registry experiment, the bank count [`registry::sim_banks`]
    /// gave its simulations, which analytic entries do not run).
    pub threads: usize,
    /// Items processed per sample, for throughput (`unit`s per second).
    pub items: u64,
    /// Throughput unit (`"accesses"`, `"lines"`, `"runs"`).
    pub unit: &'static str,
    /// Median sequential time / median of this kernel, when the kernel
    /// has a sequential baseline in the same group.
    pub speedup_vs_sequential: Option<f64>,
    samples_ns: Vec<u64>,
}

impl BenchResult {
    /// Builds a result from raw per-sample nanosecond timings (sorted
    /// internally). Public so harnesses — the CLI floor gate's tests
    /// included — can construct known-throughput results.
    pub fn from_samples(
        id: impl Into<String>,
        title: impl Into<String>,
        threads: usize,
        items: u64,
        unit: &'static str,
        mut samples_ns: Vec<u64>,
    ) -> Self {
        samples_ns.sort_unstable();
        BenchResult {
            id: id.into(),
            title: title.into(),
            threads,
            items,
            unit,
            speedup_vs_sequential: None,
            samples_ns,
        }
    }

    /// Nearest-rank percentile of the samples (`p` in 0..=100).
    pub fn percentile_ns(&self, p: f64) -> u64 {
        let n = self.samples_ns.len();
        assert!(n > 0, "no samples");
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        self.samples_ns[rank.clamp(1, n) - 1]
    }

    /// Median sample.
    pub fn median_ns(&self) -> u64 {
        self.percentile_ns(50.0)
    }

    /// 10th-percentile sample (best-case-ish).
    pub fn p10_ns(&self) -> u64 {
        self.percentile_ns(10.0)
    }

    /// 90th-percentile sample (worst-case-ish).
    pub fn p90_ns(&self) -> u64 {
        self.percentile_ns(90.0)
    }

    /// 99th-percentile sample (the serving tail; equal to the maximum
    /// when fewer than 100 samples were taken).
    pub fn p99_ns(&self) -> u64 {
        self.percentile_ns(99.0)
    }

    /// Items per second at the median sample.
    pub fn items_per_sec(&self) -> f64 {
        let median = self.median_ns();
        if median == 0 {
            0.0
        } else {
            self.items as f64 * 1e9 / median as f64
        }
    }
}

/// One bench group's complete measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchGroup {
    /// Group name (one of [`GROUPS`]).
    pub group: String,
    /// The options the group ran under.
    pub options: BenchOptions,
    /// `std::thread::available_parallelism()` on the measuring host —
    /// readers need it to interpret the parallel rows.
    pub host_parallelism: usize,
    /// Kernel results, in a stable order.
    pub results: Vec<BenchResult>,
}

/// Times `iters` samples of `kernel` after `warmup` untimed runs.
fn time_samples<F: FnMut()>(options: &BenchOptions, mut kernel: F) -> Vec<u64> {
    for _ in 0..options.warmup {
        kernel();
    }
    (0..options.iters.max(1))
        .map(|_| {
            let start = Instant::now();
            kernel();
            start.elapsed().as_nanos() as u64
        })
        .collect()
}

/// `std::thread::available_parallelism()`, or 1 when it is unknown, read
/// once per process: the lookup reads cgroup files on every call.
pub fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Runs one bench group by name.
///
/// # Errors
///
/// Returns an error string for an unknown group name (see [`GROUPS`]).
pub fn run_group(name: &str, options: &BenchOptions) -> Result<BenchGroup, String> {
    let results = match name {
        "sim_engine" => sim_engine_results(options),
        "compress" => compress_results(options),
        "experiments" => experiment_results(options),
        "serve" => serve_results(options)?,
        "model" => model_results(options),
        other => {
            return Err(format!(
                "unknown bench group '{other}' (see `bandwall bench --list`)"
            ))
        }
    };
    Ok(BenchGroup {
        group: name.to_string(),
        options: *options,
        host_parallelism: host_parallelism(),
        results,
    })
}

/// The Figure 14 CMP geometry the `sim_engine` group measures.
fn fig14_sim() -> CmpSimConfig {
    CmpSimConfig {
        cores: 4,
        l1: CacheConfig::new(512, 64, 2).expect("valid L1"),
        l2: CacheConfig::new(512 << 10, 64, 8).expect("valid L2"),
        organization: L2Organization::Shared,
        l2_fill: FillSpec::FullLine,
        flush: false,
    }
}

/// Standalone unified-pipeline geometry the `sim_engine` group tracks for
/// the sectored, compressed and predictive fills (the Figure 14 L2).
fn engine_sim(fill: FillSpec) -> EngineSimConfig {
    EngineSimConfig {
        cache: CacheConfig::new(512 << 10, 64, 8).expect("valid geometry"),
        fill,
        flush: false,
    }
}

fn fig14_trace() -> ParsecLikeTrace {
    ParsecLikeTrace::builder_with_regions(4, 4000, 1500)
        .shared_access_fraction(0.4)
        .seed(2026)
        .build()
}

/// The recorded Figure 14 trace every simulation kernel replays: the
/// generation cost is paid once, outside the timed samples, so kernel
/// throughput measures the cache simulator alone (the `fig14_trace_gen`
/// kernel reports generation throughput separately).
fn fig14_replay(accesses: usize) -> ReplayTrace {
    ReplayTrace::record(&mut fig14_trace(), accesses)
}

/// Measures one `CmpSimConfig` at its 1-bank baseline and each parallel
/// thread count, tagging the parallel rows with speedup vs the baseline
/// median.
fn cmp_sim_kernels(
    options: &BenchOptions,
    sim: &CmpSimConfig,
    id_base: &str,
    desc_base: &str,
    par_threads: &[usize],
    results: &mut Vec<BenchResult>,
) {
    let accesses = options.accesses;
    let mut replay = fig14_replay(accesses);
    results.push(BenchResult::from_samples(
        format!("{id_base}_seq"),
        format!("{desc_base}, 1-bank baseline"),
        1,
        accesses as u64,
        "accesses",
        time_samples(options, || {
            replay.rewind();
            std::hint::black_box(sim.run(&mut replay, accesses, 1).expect("valid"));
        }),
    ));
    let seq_median = results.last().expect("just pushed").median_ns();
    for &threads in par_threads {
        let mut r = BenchResult::from_samples(
            format!("{id_base}_par{threads}"),
            format!(
                "{desc_base}, banked parallel ({} banks)",
                sim.partitioning(threads).banks()
            ),
            threads,
            accesses as u64,
            "accesses",
            time_samples(options, || {
                replay.rewind();
                std::hint::black_box(sim.run(&mut replay, accesses, threads).expect("valid"));
            }),
        );
        let median = r.median_ns();
        if median > 0 {
            r.speedup_vs_sequential = Some(seq_median as f64 / median as f64);
        }
        results.push(r);
    }
}

fn sim_engine_results(options: &BenchOptions) -> Vec<BenchResult> {
    let accesses = options.accesses;
    let mut results = vec![BenchResult::from_samples(
        "fig14_trace_gen",
        "PARSEC-like trace generation",
        1,
        accesses as u64,
        "accesses",
        time_samples(options, || {
            std::hint::black_box(fig14_replay(accesses));
        }),
    )];
    cmp_sim_kernels(
        options,
        &fig14_sim(),
        "fig14_sim",
        "Figure 14 CMP simulation",
        &[2, 4, 8],
        &mut results,
    );
    // Random replacement and mismatched L1/L2 line sizes: the two
    // configurations that historically dropped to one bank, now on the
    // same banked path as everything else.
    let mut random = fig14_sim();
    random.l1 = CacheConfig::new(512, 64, 2)
        .expect("valid L1")
        .with_policy(ReplacementPolicy::Random)
        .with_policy_seed(2026);
    random.l2 = CacheConfig::new(512 << 10, 64, 8)
        .expect("valid L2")
        .with_policy(ReplacementPolicy::Random)
        .with_policy_seed(2027);
    cmp_sim_kernels(
        options,
        &random,
        "random_sim",
        "Random-replacement CMP simulation",
        &[4],
        &mut results,
    );
    let mut mismatched = fig14_sim();
    mismatched.l1 = CacheConfig::new(1 << 10, 64, 2).expect("valid L1");
    mismatched.l2 = CacheConfig::new(512 << 10, 128, 8).expect("valid L2");
    cmp_sim_kernels(
        options,
        &mismatched,
        "mismatched_sim",
        "Mismatched-line-size CMP simulation (64 B L1 / 128 B L2)",
        &[4],
        &mut results,
    );
    let commercial_values = ValueSpec {
        profile: ProfileKind::Commercial,
        seed: 2026,
    };
    let mut replay = fig14_replay(accesses);
    for (label, fill) in [
        (
            "sectored",
            FillSpec::Sectored {
                sectors_per_line: 8,
            },
        ),
        (
            "compressed",
            FillSpec::Compressed {
                compressor: CompressorKind::Fpc,
                values: commercial_values,
            },
        ),
        (
            "predictive",
            FillSpec::PredictiveSectored {
                sectors_per_line: 8,
            },
        ),
    ] {
        let sim = engine_sim(fill);
        results.push(BenchResult::from_samples(
            format!("{label}_sim_seq"),
            format!("{label} cache simulation, 1-bank baseline"),
            1,
            accesses as u64,
            "accesses",
            time_samples(options, || {
                replay.rewind();
                std::hint::black_box(sim.run(&mut replay, accesses, 1).expect("valid"));
            }),
        ));
        let seq_median = results.last().expect("just pushed").median_ns();
        let threads = 4usize;
        let mut r = BenchResult::from_samples(
            format!("{label}_sim_par{threads}"),
            format!(
                "{label} cache simulation, banked parallel ({} banks)",
                sim.partitioning(threads).banks()
            ),
            threads,
            accesses as u64,
            "accesses",
            time_samples(options, || {
                replay.rewind();
                std::hint::black_box(sim.run(&mut replay, accesses, threads).expect("valid"));
            }),
        );
        let median = r.median_ns();
        if median > 0 {
            r.speedup_vs_sequential = Some(seq_median as f64 / median as f64);
        }
        results.push(r);
    }
    let lru = EngineSimConfig {
        cache: CacheConfig::new(64 << 10, 64, 8).expect("valid geometry"),
        fill: FillSpec::FullLine,
        flush: false,
    };
    let mut replay = ReplayTrace::record(
        &mut StackDistanceTrace::builder(0.5).seed(2026).build(),
        accesses,
    );
    results.push(BenchResult::from_samples(
        "lru_sim_seq",
        "64 KB 8-way LRU cache over an alpha = 0.5 stack-distance trace, 1 bank",
        1,
        accesses as u64,
        "accesses",
        time_samples(options, || {
            replay.rewind();
            std::hint::black_box(lru.run(&mut replay, accesses, 1).expect("valid"));
        }),
    ));
    results
}

fn compress_results(options: &BenchOptions) -> Vec<BenchResult> {
    // One deterministic commercial-profile line stream shared by every
    // engine, sized off the access budget (64 accesses per line keeps
    // quick mode under a thousand lines).
    let line_count = (options.accesses / 64).max(64);
    let generator = LineValueGenerator::new(ValueProfile::commercial(), 77);
    let lines: Vec<Vec<u8>> = (0..line_count as u64)
        .map(|i| generator.line_bytes(i, 64))
        .collect();
    let engines: Vec<(&str, Box<dyn Compressor>)> = vec![
        ("compress_fpc", Box::new(Fpc::new())),
        ("compress_bdi", Box::new(Bdi::new())),
        ("compress_zero_rle", Box::new(ZeroRle::new())),
        ("compress_best_of", Box::new(BestOf::standard())),
    ];
    engines
        .into_iter()
        .map(|(id, engine)| {
            BenchResult::from_samples(
                id,
                format!(
                    "{} over {line_count} commercial-profile lines",
                    engine.name()
                ),
                1,
                line_count as u64,
                "lines",
                time_samples(options, || {
                    for line in &lines {
                        std::hint::black_box(engine.compress(line));
                    }
                }),
            )
        })
        .collect()
}

/// The registry experiments the `experiments` group times end to end.
const TIMED_EXPERIMENTS: [&str; 6] = [
    "fig01_power_law",
    "fig02_traffic_vs_cores",
    "fig14_parsec_sharing",
    "ablate_replacement",
    "coherence_study",
    "validate_writeback",
];

fn experiment_results(options: &BenchOptions) -> Vec<BenchResult> {
    TIMED_EXPERIMENTS
        .into_iter()
        .map(|id| {
            BenchResult::from_samples(
                format!("experiment_{id}"),
                format!("registry experiment {id}, end to end"),
                registry::sim_banks(),
                1,
                "runs",
                time_samples(options, || {
                    let report = registry::find(id)
                        .unwrap_or_else(|| panic!("{id} in registry"))
                        .run_to_report();
                    assert!(!report.is_failure(), "{id} failed while being timed");
                    std::hint::black_box(report);
                }),
            )
        })
        .collect()
}

/// The `serve` group: starts an in-process [`crate::serve::Server`] on
/// an ephemeral localhost port, drives it with the shared loadgen
/// kernels (health checks on new and kept-alive connections,
/// cold/memoized solves and sweeps, a mixed and a full-size batch, a
/// concurrent throughput batch), then drains it. Single-host numbers:
/// client and server share the machine, so treat throughput as a lower
/// bound.
fn serve_results(options: &BenchOptions) -> Result<Vec<BenchResult>, String> {
    let config = crate::serve::ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: host_parallelism().clamp(2, 4),
        ..crate::serve::ServeConfig::default()
    };
    let server =
        crate::serve::Server::start(config).map_err(|e| format!("starting serve bench: {e}"))?;
    let outcome = crate::serve::loadgen::run_against(
        &server.addr(),
        &crate::serve::loadgen::LoadgenOptions::from_bench(options),
    );
    server.shutdown_handle().shutdown();
    let stats = server.join();
    let results = outcome?;
    if stats.internal > 0 || stats.worker_respawns > 0 {
        return Err(format!(
            "serve bench saw {} internal errors and {} respawns on a clean run",
            stats.internal, stats.worker_respawns
        ));
    }
    Ok(results)
}

/// Times `calls` back-to-back calls of `kernel` per sample; `items` is
/// the call count.
fn call_kernel<R>(
    options: &BenchOptions,
    id: &str,
    title: &str,
    calls: u64,
    mut kernel: impl FnMut() -> R,
) -> BenchResult {
    BenchResult::from_samples(
        id,
        title,
        1,
        calls,
        "calls",
        time_samples(options, || {
            for _ in 0..calls {
                std::hint::black_box(kernel());
            }
        }),
    )
}

fn model_results(options: &BenchOptions) -> Vec<BenchResult> {
    use std::hint::black_box;
    let curve = MissRateCurve::new(0.1, 1.0, Alpha::COMMERCIAL_AVERAGE).expect("valid curve");
    let traffic = TrafficModel::new(paper_baseline());
    let mut results = vec![
        call_kernel(
            options,
            "model_power_law_miss_rate",
            "power-law miss rate at 4x the baseline cache",
            100_000,
            || curve.miss_rate(black_box(4.0)).expect("in domain"),
        ),
        call_kernel(
            options,
            "model_relative_traffic",
            "relative traffic of 12 cores at 1/3 CEA of cache each",
            100_000,
            || {
                traffic
                    .relative_traffic(black_box(12.0), black_box(1.0 / 3.0))
                    .expect("in domain")
            },
        ),
    ];
    // The solver ablation: integer galloping search vs Brent crossover
    // (the search returns floor(crossover)) as the die grows.
    for generation in [1, 4, 7] {
        let problem = ScalingProblem::new(paper_baseline(), die_budget(generation));
        results.push(call_kernel(
            options,
            &format!("model_solve_integer_gen{generation}"),
            &format!("supportable cores by integer search, generation {generation}"),
            10_000,
            || {
                black_box(&problem)
                    .max_supportable_cores()
                    .expect("solvable")
            },
        ));
        results.push(call_kernel(
            options,
            &format!("model_solve_brent_gen{generation}"),
            &format!("supportable cores by Brent crossover, generation {generation}"),
            10_000,
            || black_box(&problem).crossover_cores().expect("solvable"),
        ));
    }
    let combination = ScalingProblem::new(paper_baseline(), die_budget(4)).with_techniques([
        Technique::cache_link_compression(2.0).expect("valid ratio"),
        Technique::dram_cache(8.0).expect("valid density"),
        Technique::stacked_cache(1).expect("valid layers"),
        Technique::small_cache_lines(0.4).expect("valid fraction"),
    ]);
    results.push(call_kernel(
        options,
        "model_solve_combination_16x",
        "supportable cores with CC/LC+DRAM+3D+SmCl at 16x",
        10_000,
        || {
            black_box(&combination)
                .max_supportable_cores()
                .expect("solvable")
        },
    ));
    results.push(call_kernel(
        options,
        "model_fig15_sweep",
        "Figure 15 sweep: every technique x assumption level x generation",
        200,
        || {
            let mut cores = 0u64;
            for d in catalog() {
                for level in AssumptionLevel::ALL {
                    let technique = d.at(level).expect("catalogued level");
                    for &generation in &GENERATIONS {
                        cores += ScalingProblem::new(paper_baseline(), die_budget(generation))
                            .with_technique(technique)
                            .max_supportable_cores()
                            .expect("solvable");
                    }
                }
            }
            cores
        },
    ));
    results
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

fn fmt_throughput(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.1}")
    }
}

impl BenchGroup {
    /// Renders the group through the standard report machinery, so
    /// `--format ascii|csv|json` all work unchanged.
    pub fn to_report(&self) -> Report {
        let mut report = Report::new(
            format!("bench_{}", self.group),
            "Bench",
            format!("wall-clock benchmarks: {}", self.group),
        );
        report.note(format!(
            "warmup {} + {} iters, {} accesses, host parallelism {}",
            self.options.warmup, self.options.iters, self.options.accesses, self.host_parallelism,
        ));
        report.blank();
        let mut table = TableBlock::new(&[
            "kernel",
            "threads",
            "median ms",
            "p10 ms",
            "p90 ms",
            "p99 ms",
            "throughput/s",
            "speedup",
        ]);
        for r in &self.results {
            table.push_row(vec![
                Value::text(&r.id),
                Value::int(r.threads as u64),
                Value::fmt(fmt_ms(r.median_ns()), r.median_ns() as f64 / 1e6),
                Value::fmt(fmt_ms(r.p10_ns()), r.p10_ns() as f64 / 1e6),
                Value::fmt(fmt_ms(r.p90_ns()), r.p90_ns() as f64 / 1e6),
                Value::fmt(fmt_ms(r.p99_ns()), r.p99_ns() as f64 / 1e6),
                Value::fmt(fmt_throughput(r.items_per_sec()), r.items_per_sec()),
                match r.speedup_vs_sequential {
                    Some(s) => Value::fmt(format!("{s:.2}x"), s),
                    None => Value::empty(),
                },
            ]);
            report.metric(format!("{}_median_ns", r.id), r.median_ns() as f64, None);
        }
        report.table(table);
        report
    }

    /// The machine-readable snapshot (schema [`SNAPSHOT_SCHEMA`]), one
    /// JSON object per group, deterministic key order.
    pub fn snapshot_json(&self) -> String {
        let mut out = format!(
            "{{\"schema\":\"{}\",\"group\":\"{}\",\"warmup\":{},\"iters\":{},\
             \"accesses\":{},\"host_parallelism\":{},\"results\":[",
            SNAPSHOT_SCHEMA,
            self.group,
            self.options.warmup,
            self.options.iters,
            self.options.accesses,
            self.host_parallelism,
        );
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":\"{}\",\"title\":\"{}\",\"threads\":{},\"median_ns\":{},\
                 \"p10_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"unit\":\"{}\",\
                 \"items_per_sec\":{},\"speedup_vs_sequential\":{}}}",
                r.id,
                r.title,
                r.threads,
                r.median_ns(),
                r.p10_ns(),
                r.p90_ns(),
                r.p99_ns(),
                r.unit,
                r.items_per_sec(),
                r.speedup_vs_sequential
                    .map(|s| format!("{s:.3}"))
                    .unwrap_or_else(|| "null".to_string()),
            ));
        }
        out.push_str("]}\n");
        out
    }

    /// The snapshot's conventional file name.
    pub fn snapshot_filename(&self) -> String {
        format!("BENCH_{}.json", self.group)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BenchOptions {
        BenchOptions {
            warmup: 0,
            iters: 3,
            accesses: 2_000,
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let r = BenchResult::from_samples("k", "t", 1, 10, "items", vec![30, 10, 20, 50, 40]);
        assert_eq!(r.p10_ns(), 10);
        assert_eq!(r.median_ns(), 30);
        assert_eq!(r.p90_ns(), 50);
        let single = BenchResult::from_samples("k", "t", 1, 10, "items", vec![7]);
        assert_eq!(single.median_ns(), 7);
        assert_eq!(single.p10_ns(), 7);
        assert_eq!(single.p90_ns(), 7);
    }

    #[test]
    fn throughput_uses_the_median() {
        let r = BenchResult::from_samples("k", "t", 1, 1_000, "items", vec![1_000_000]);
        // 1000 items in 1 ms = 1M items/s.
        assert!((r.items_per_sec() - 1e6).abs() < 1.0);
    }

    #[test]
    fn snapshot_keeps_the_rate_digits() {
        // 1 run in 534.76 ms is 1.87 runs/s: one decimal would print 1.9
        // and hide a 5% move.
        let group = BenchGroup {
            group: "experiments".to_string(),
            options: tiny(),
            host_parallelism: 1,
            results: vec![BenchResult::from_samples(
                "k",
                "t",
                1,
                1,
                "runs",
                vec![534_759_358],
            )],
        };
        assert!(
            group.snapshot_json().contains("\"items_per_sec\":1.87"),
            "{}",
            group.snapshot_json()
        );
    }

    #[test]
    fn unknown_group_is_an_error() {
        assert!(run_group("nope", &tiny()).is_err());
    }

    #[test]
    fn sim_engine_group_has_sequential_baseline_and_speedups() {
        let g = run_group("sim_engine", &tiny()).unwrap();
        assert_eq!(g.group, "sim_engine");
        let ids: Vec<&str> = g.results.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "fig14_trace_gen",
                "fig14_sim_seq",
                "fig14_sim_par2",
                "fig14_sim_par4",
                "fig14_sim_par8",
                "random_sim_seq",
                "random_sim_par4",
                "mismatched_sim_seq",
                "mismatched_sim_par4",
                "sectored_sim_seq",
                "sectored_sim_par4",
                "compressed_sim_seq",
                "compressed_sim_par4",
                "predictive_sim_seq",
                "predictive_sim_par4",
                "lru_sim_seq"
            ]
        );
        for r in &g.results {
            assert!(r.median_ns() > 0, "{}", r.id);
            let has_speedup = r.id.contains("_par");
            assert_eq!(r.speedup_vs_sequential.is_some(), has_speedup, "{}", r.id);
        }
    }

    #[test]
    fn compress_group_covers_every_engine() {
        let g = run_group("compress", &tiny()).unwrap();
        assert_eq!(g.results.len(), 4);
        for r in &g.results {
            assert_eq!(r.unit, "lines");
            assert!(r.items_per_sec() > 0.0, "{}", r.id);
        }
    }

    #[test]
    fn model_group_times_every_analytic_kernel() {
        let g = run_group("model", &tiny()).unwrap();
        let ids: Vec<&str> = g.results.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "model_power_law_miss_rate",
                "model_relative_traffic",
                "model_solve_integer_gen1",
                "model_solve_brent_gen1",
                "model_solve_integer_gen4",
                "model_solve_brent_gen4",
                "model_solve_integer_gen7",
                "model_solve_brent_gen7",
                "model_solve_combination_16x",
                "model_fig15_sweep"
            ]
        );
        for r in &g.results {
            assert_eq!(r.unit, "calls");
            assert!(r.items_per_sec() > 0.0, "{}", r.id);
        }
    }

    #[test]
    fn report_and_snapshot_render() {
        let g = run_group("compress", &tiny()).unwrap();
        let report = g.to_report();
        assert_eq!(report.id, "bench_compress");
        assert!(report.to_ascii().contains("median ms"));
        assert!(!report.to_json().is_empty());

        let snap = g.snapshot_json();
        assert!(snap.starts_with("{\"schema\":\"bandwall-bench/3\""));
        assert!(snap.contains("\"p99_ns\":"));
        assert!(snap.contains("\"group\":\"compress\""));
        assert!(snap.contains("\"host_parallelism\":"));
        assert!(snap.ends_with("]}\n"));
        assert_eq!(snap.matches('{').count(), snap.matches('}').count());
        assert_eq!(g.snapshot_filename(), "BENCH_compress.json");
    }
}
