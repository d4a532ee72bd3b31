//! The named workload suites of Figure 1.
//!
//! The paper plots miss-rate-vs-cache-size curves for seven commercial
//! workloads (SPECjbb on Linux and AIX, SPECpower, OLTP-1..4) whose fitted
//! exponents span α = 0.36 (OLTP-2) to α = 0.62 (OLTP-4) with average
//! ≈ 0.48, plus the SPEC 2006 aggregate at α = 0.25. These constructors
//! build the synthetic equivalents: power-law stack-distance traces with
//! per-workload exponents for the commercial suite, and a mix of
//! discrete-working-set traces whose *average* fits a shallow power law
//! for the SPEC-like suite.

use crate::access::TraceSource;
use crate::stack_distance::{StackDistanceTrace, StackDistanceTraceBuilder};
use crate::working_set::WorkingSetTrace;

/// Per-workload calibration of the commercial suite: `(name, α,
/// write fraction)`. The α values bracket the paper's observed range and
/// average ≈ 0.48.
pub const COMMERCIAL_WORKLOADS: [(&str, f64, f64); 7] = [
    ("SPECjbb (linux)", 0.45, 0.28),
    ("SPECjbb (aix)", 0.50, 0.28),
    ("SPECpower", 0.52, 0.25),
    ("OLTP-1", 0.44, 0.33),
    ("OLTP-2", 0.36, 0.35),
    ("OLTP-3", 0.55, 0.30),
    ("OLTP-4", 0.62, 0.30),
];

/// Builds the seven commercial workloads of Figure 1 as power-law
/// stack-distance traces.
///
/// # Examples
///
/// ```
/// use bandwall_trace::suites::commercial_suite;
/// use bandwall_trace::TraceSource;
///
/// let suite = commercial_suite(42);
/// assert_eq!(suite.len(), 7);
/// assert_eq!(suite[4].name(), "OLTP-2");
/// ```
pub fn commercial_suite(seed: u64) -> Vec<StackDistanceTrace> {
    (0..COMMERCIAL_WORKLOADS.len())
        .map(|i| commercial_workload(seed, i).build())
        .collect()
}

/// The builder of commercial workload `i` of [`commercial_suite`]: its
/// α, write fraction and derived seed over a 2¹⁷-line footprint.
pub(crate) fn commercial_workload(seed: u64, i: usize) -> StackDistanceTraceBuilder {
    let (name, alpha, write_fraction) = COMMERCIAL_WORKLOADS[i];
    StackDistanceTrace::builder(alpha)
        .seed(seed.wrapping_add(i as u64 * 0x9E37_79B9))
        .write_fraction(write_fraction)
        .max_distance(1 << 17)
        .name(name)
}

/// Working-set sizes (in 64-byte lines) of the SPEC-like suite. The spread
/// of discrete working sets makes the *aggregate* miss curve fit a shallow
/// power law (α ≈ 0.25) even though each member is a staircase.
pub const SPEC_WORKING_SETS: [(&str, usize, f64); 6] = [
    ("spec-small-ws", 512, 0.04),
    ("spec-mid-ws", 2_048, 0.035),
    ("spec-large-ws", 8_192, 0.03),
    ("spec-xl-ws", 32_768, 0.025),
    ("spec-xxl-ws", 131_072, 0.02),
    ("spec-stream", 524_288, 0.10),
];

/// Builds the SPEC 2006-like suite: discrete-working-set traces whose
/// average conforms to a shallow power law, as observed in Figure 1.
///
/// # Examples
///
/// ```
/// use bandwall_trace::suites::spec_suite;
/// use bandwall_trace::TraceSource;
///
/// let suite = spec_suite(1);
/// assert_eq!(suite.len(), 6);
/// assert!(suite.iter().any(|t| t.name() == "spec-stream"));
/// ```
pub fn spec_suite(seed: u64) -> Vec<WorkingSetTrace> {
    SPEC_WORKING_SETS
        .iter()
        .enumerate()
        .map(|(i, &(name, lines, excursion))| {
            WorkingSetTrace::builder(lines)
                .excursion_fraction(excursion)
                .seed(seed.wrapping_add(i as u64 * 0x85EB_CA6B))
                .name(name)
                .build()
        })
        .collect()
}

/// Average α of the commercial calibration table (the paper reports 0.48).
pub fn commercial_average_alpha() -> f64 {
    let sum: f64 = COMMERCIAL_WORKLOADS.iter().map(|&(_, a, _)| a).sum();
    sum / COMMERCIAL_WORKLOADS.len() as f64
}

/// Boxed view of both suites together, handy for experiments that iterate
/// over all thirteen workloads uniformly.
pub fn full_figure1_suite(seed: u64) -> Vec<Box<dyn TraceSource>> {
    let mut all: Vec<Box<dyn TraceSource>> = Vec::new();
    for t in commercial_suite(seed) {
        all.push(Box::new(t));
    }
    for t in spec_suite(seed) {
        all.push(Box::new(t));
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reuse::MissRateProbe;
    use bandwall_numerics_shim::powerlaw_alpha;

    /// Minimal log–log slope fit so this crate stays independent of the
    /// numerics crate (which depends on nothing, but inverting the
    /// dependency here keeps the graph acyclic and shallow).
    mod bandwall_numerics_shim {
        pub fn powerlaw_alpha(xs: &[f64], ys: &[f64]) -> f64 {
            let lx: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
            let ly: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
            let n = lx.len() as f64;
            let mx = lx.iter().sum::<f64>() / n;
            let my = ly.iter().sum::<f64>() / n;
            let sxy: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
            let sxx: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
            -(sxy / sxx)
        }
    }

    #[test]
    fn commercial_average_matches_paper() {
        let avg = commercial_average_alpha();
        assert!((avg - 0.48).abs() < 0.015, "average alpha {avg}");
    }

    #[test]
    fn commercial_extremes_match_figure1() {
        let alphas: Vec<f64> = COMMERCIAL_WORKLOADS.iter().map(|&(_, a, _)| a).collect();
        let min = alphas.iter().copied().fold(f64::MAX, f64::min);
        let max = alphas.iter().copied().fold(f64::MIN, f64::max);
        assert_eq!(min, 0.36, "OLTP-2 minimum");
        assert_eq!(max, 0.62, "OLTP-4 maximum");
    }

    #[test]
    fn suite_members_measured_alpha_close_to_configured() {
        // Measure OLTP-4 (steepest) and OLTP-2 (shallowest).
        let suite = commercial_suite(11);
        for idx in [4usize, 6] {
            let mut trace = suite[idx].clone();
            let configured = trace.alpha();
            let capacities = [128usize, 256, 512, 1024, 2048];
            let mut probe = MissRateProbe::new(&capacities);
            // Burn in until the touched frontier clears the deepest
            // capacity, then measure the steady state.
            for a in trace.iter().take(60_000) {
                probe.observe(a.address() / 64);
            }
            probe.reset_counts();
            for a in trace.iter().take(200_000) {
                probe.observe(a.address() / 64);
            }
            let xs: Vec<f64> = capacities.iter().map(|&c| c as f64).collect();
            let fitted = powerlaw_alpha(&xs, &probe.miss_rates());
            assert!(
                (fitted - configured).abs() < 0.1,
                "{}: fitted {fitted}, configured {configured}",
                suite[idx].name()
            );
        }
    }

    #[test]
    fn spec_aggregate_fits_shallow_power_law() {
        // The average of the staircase miss curves should fit a shallow
        // exponent, around the paper's 0.25.
        let capacities = [256usize, 1024, 4096, 16384, 65536];
        let mut average_rates = vec![0.0; capacities.len()];
        let suite = spec_suite(23);
        let n = suite.len() as f64;
        for mut trace in suite {
            let mut probe = MissRateProbe::new(&capacities);
            for a in trace.iter().take(120_000) {
                probe.observe(a.address() / 64);
            }
            for (avg, r) in average_rates.iter_mut().zip(probe.miss_rates()) {
                *avg += r / n;
            }
        }
        let xs: Vec<f64> = capacities.iter().map(|&c| c as f64).collect();
        let fitted = powerlaw_alpha(&xs, &average_rates);
        assert!(
            (0.1..=0.45).contains(&fitted),
            "aggregate SPEC alpha {fitted}, rates {average_rates:?}"
        );
    }

    #[test]
    fn suites_are_seeded() {
        let a: Vec<_> = {
            let mut s = commercial_suite(5);
            s[0].iter().take(50).collect()
        };
        let b: Vec<_> = {
            let mut s = commercial_suite(5);
            s[0].iter().take(50).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn full_suite_has_thirteen_workloads() {
        assert_eq!(full_figure1_suite(0).len(), 13);
    }
}
