//! The experiment registry: a uniform [`Experiment`] interface over
//! every figure/table reproduction and supporting study, so one CLI can
//! list, run, and render them all.

use crate::error::ExperimentError;
use crate::perf::host_parallelism;
use crate::report::Report;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How many experiments the process runs at once (1 unless `bandwall
/// run` records more through [`set_concurrent_experiments`]).
static CONCURRENT_EXPERIMENTS: AtomicUsize = AtomicUsize::new(1);

/// Records how many experiments run at once, so that [`sim_banks`]
/// divides the host's CPUs among them. `bandwall run` records its
/// worker count, `--jobs` capped at the number of experiments selected.
pub fn set_concurrent_experiments(experiments: usize) {
    CONCURRENT_EXPERIMENTS.store(experiments.max(1), Ordering::Relaxed);
}

/// The bank count every simulated registry entry passes to
/// `*SimConfig::run`: the host's CPUs divided among the experiments
/// running at once, and at least 1. The engine's merged statistics are
/// bit-identical at every bank count, so this moves wall time, never a
/// report byte.
pub fn sim_banks() -> usize {
    (host_parallelism() / CONCURRENT_EXPERIMENTS.load(Ordering::Relaxed)).max(1)
}

/// A runnable experiment. Implementations are stateless apart from
/// configuration (e.g. an RNG seed), so one instance can be run from
/// any thread.
pub trait Experiment: Send + Sync {
    /// Stable registry id (e.g. `fig02_traffic_vs_cores`), the name
    /// `bandwall run` selects the experiment by.
    fn id(&self) -> &'static str;
    /// Figure/table label shown in the header banner (e.g. `"Figure 2"`).
    fn figure(&self) -> &'static str;
    /// Human title shown in the header banner.
    fn title(&self) -> &'static str;
    /// Runs the experiment and returns its structured report, or a typed
    /// error when the configuration is out of domain or a solver fails.
    /// The harness additionally contains panics and deadline overruns, so
    /// a failing experiment never takes down a batch.
    fn run(&self) -> Result<Report, ExperimentError>;

    /// The catalogue sweep this experiment publishes to `POST /v1/sweep`
    /// under its registry id, when it is a single-technique sweep over
    /// the next-generation die. The named-sweep list served by
    /// `GET /v1/techniques` is derived entirely from these declarations.
    fn sweep(&self) -> Option<crate::sweep::CatalogueSweep> {
        None
    }

    /// Runs the experiment and folds any error into a
    /// [`Report::failure`] carrying this experiment's registry identity.
    fn run_to_report(&self) -> Report {
        self.run()
            .unwrap_or_else(|e| Report::failure(self.id(), self.figure(), self.title(), e))
    }
}

/// Every experiment, in presentation order (figures, tables, then the
/// supporting studies, ablations, and validations), with each
/// experiment's historical default seed.
pub fn registry() -> Vec<Box<dyn Experiment>> {
    registry_with_seed(None)
}

/// Like [`registry`], but when `seed` is `Some`, every seeded
/// (simulator-backed) experiment gets a distinct seed derived from it
/// via SplitMix64. `None` keeps the historical per-experiment defaults,
/// reproducing the committed golden reports byte-for-byte.
pub fn registry_with_seed(seed: Option<u64>) -> Vec<Box<dyn Experiment>> {
    crate::experiments::all(seed)
}

/// Looks up one experiment by id (default seeds).
pub fn find(id: &str) -> Option<Box<dyn Experiment>> {
    registry().into_iter().find(|e| e.id() == id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn registry_ids_are_unique_and_stable() {
        let reg = registry();
        assert_eq!(
            reg.len(),
            32,
            "29 historical experiments + combo_sim + 2 registry extensions"
        );
        let ids: BTreeSet<&str> = reg.iter().map(|e| e.id()).collect();
        assert_eq!(ids.len(), reg.len(), "ids must be unique");
        for id in [
            "combo_sim",
            "fig01_power_law",
            "fig16_combinations",
            "validate_writeback",
            "thermal_capped_3d",
            "cxl_harvesting",
        ] {
            assert!(ids.contains(id), "missing {id}");
        }
    }

    #[test]
    fn find_resolves_known_ids() {
        let e = find("fig03_die_allocation").unwrap();
        assert_eq!(e.figure(), "Figure 3");
        assert!(find("no_such_experiment").is_none());
    }

    #[test]
    fn seeded_registry_has_same_shape() {
        let a = registry();
        let b = registry_with_seed(Some(7));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id(), y.id());
        }
    }
}
