//! Figure 1 — Normalized cache miss rate as a function of cache size.
//!
//! Measures the thirteen synthetic Figure 1 workloads (seven commercial,
//! six SPEC-like) at each cache size of a fully-associative LRU cache,
//! and fits the power law `m = m0 · (C/C0)^-α` to each miss-rate curve
//! in log–log space.
//!
//! The commercial stand-ins draw a Pareto LRU stack depth per access and
//! touch the line at that depth, so their α is recovered by
//! construction: by Mattson's stack-distance identity an access misses
//! a cache of `C` lines exactly when its depth is at least `C`, and the
//! curve is the share of drawn depths `>= C`, with no cache or stack
//! simulated. Only the SPEC-like half, whose discrete working sets have
//! no such identity, runs through an exact LRU probe (`MissRateProbe`,
//! one capacity marker per cache size).
//!
//! Paper reference: commercial α averages 0.48 (min 0.36 = OLTP-2, max
//! 0.62 = OLTP-4); the SPEC 2006 aggregate fits α = 0.25; individual SPEC
//! applications fit less well (discrete working sets).

use crate::error::ExperimentError;
use crate::registry::Experiment;
use crate::report::{Report, TableBlock, Value};
use bandwall_numerics::PowerLawFit;
use bandwall_trace::suites::{commercial_suite, spec_suite};
use bandwall_trace::{MissRateProbe, StackDistanceTrace, TraceSource, WorkingSetTrace};

const BURN_IN: usize = 80_000;
const MEASURE: usize = 400_000;

/// Cache sizes probed, in 64-byte lines (8 KB … 4 MB).
fn capacities() -> Vec<usize> {
    (7..=16).map(|i| 1usize << i).collect()
}

/// Exact measurement for stack-distance traces: the share of `MEASURE`
/// drawn depths at or beyond each capacity. These are the miss counts a
/// probe warmed with the generator's full footprint measures over the
/// same accesses (the trace crate's `depth_counts_equal_the_warmed_probe`
/// holds the two equal), so there is no compulsory-miss floor.
fn measure_commercial(trace: StackDistanceTrace, caps: &[usize]) -> Vec<f64> {
    let mut misses = vec![0u64; caps.len()];
    for depth in trace.into_depths().take(MEASURE) {
        for (miss, &cap) in misses.iter_mut().zip(caps) {
            *miss += u64::from(depth >= cap);
        }
    }
    misses.iter().map(|&m| m as f64 / MEASURE as f64).collect()
}

/// Burn-in measurement for the discrete-working-set traces.
fn measure_spec(trace: &mut WorkingSetTrace, caps: &[usize]) -> Vec<f64> {
    let mut probe = MissRateProbe::new(caps);
    for a in trace.iter().take(BURN_IN) {
        probe.observe(a.address() / 64);
    }
    probe.reset_counts();
    for a in trace.iter().take(MEASURE) {
        probe.observe(a.address() / 64);
    }
    probe.miss_rates()
}

/// Figure 1: power-law fits of the synthetic workload suites.
#[derive(Debug, Clone)]
pub struct Fig01PowerLaw {
    /// Suite seed (historical default 2026).
    pub seed: u64,
}

impl Experiment for Fig01PowerLaw {
    fn id(&self) -> &'static str {
        "fig01_power_law"
    }

    fn figure(&self) -> &'static str {
        "Figure 1"
    }

    fn title(&self) -> &'static str {
        "Normalized miss rate vs cache size (power-law fits)"
    }

    fn run(&self) -> Result<Report, ExperimentError> {
        let mut report = Report::new(self.id(), self.figure(), self.title());
        let caps = capacities();
        let cap_kb: Vec<String> = caps.iter().map(|c| format!("{}K", c * 64 / 1024)).collect();

        let mut table = TableBlock::new(&["workload", "fitted α", "R²", "paper α"]);
        let mut commercial_alphas = Vec::new();
        let mut spec_curves: Vec<Vec<f64>> = Vec::new();

        for trace in commercial_suite(self.seed) {
            let (name, alpha) = (trace.name().to_string(), trace.alpha());
            let rates = measure_commercial(trace, &caps);
            let xs: Vec<f64> = caps.iter().map(|&c| c as f64).collect();
            let fit = PowerLawFit::fit(&xs, &rates)?;
            commercial_alphas.push(fit.alpha);
            table.push_row(vec![
                Value::text(name),
                Value::float(fit.alpha, 3),
                Value::float(fit.r_squared, 3),
                Value::fmt(format!("{alpha:.2} (configured)"), alpha),
            ]);
        }
        for trace in &mut spec_suite(self.seed) {
            let rates = measure_spec(trace, &caps);
            spec_curves.push(rates);
        }
        // SPEC aggregate: average the curves, then fit.
        let n = spec_curves.len() as f64;
        let avg: Vec<f64> = (0..caps.len())
            .map(|i| spec_curves.iter().map(|c| c[i]).sum::<f64>() / n)
            .collect();
        let xs: Vec<f64> = caps.iter().map(|&c| c as f64).collect();
        let spec_fit = PowerLawFit::fit(&xs, &avg)?;
        let avg_alpha = commercial_alphas.iter().sum::<f64>() / commercial_alphas.len() as f64;
        let min_alpha = commercial_alphas.iter().cloned().fold(f64::MAX, f64::min);
        let max_alpha = commercial_alphas.iter().cloned().fold(f64::MIN, f64::max);

        table.push_row(vec![
            Value::text("Commercial (AVG)"),
            Value::float(avg_alpha, 3),
            Value::empty(),
            Value::fmt("0.48", 0.48),
        ]);
        table.push_row(vec![
            Value::text("SPEC 2006 (AVG)"),
            Value::float(spec_fit.alpha, 3),
            Value::float(spec_fit.r_squared, 3),
            Value::fmt("0.25", 0.25),
        ]);
        report.table(table);

        report.blank();
        report.note(format!("probed cache sizes: {}", cap_kb.join(" ")));
        report.note(format!(
            "commercial α: avg {:.3} (paper 0.48), min {:.3} (paper 0.36), max {:.3} (paper 0.62)",
            avg_alpha, min_alpha, max_alpha
        ));
        report.note(format!(
            "SPEC aggregate α: {:.3} (paper 0.25)",
            spec_fit.alpha
        ));

        report.metric("commercial_alpha_avg", avg_alpha, Some(0.48));
        report.metric("commercial_alpha_min", min_alpha, Some(0.36));
        report.metric("commercial_alpha_max", max_alpha, Some(0.62));
        report.metric("spec_alpha", spec_fit.alpha, Some(0.25));
        Ok(report)
    }
}
