//! Extension experiment (Section 6.3, footnote 1) — private coherent
//! caches vs a shared cache under data sharing.
//!
//! The paper's footnote: with private caches a shared block is replicated
//! at every sharer, so sharing reclaims no capacity (only fetch traffic).
//! This experiment runs the PARSEC-like workload on (a) a shared L2 and
//! (b) private caches kept coherent by a full-map MSI directory, sweeping
//! the shared-access fraction, and reports off-chip traffic plus the
//! coherence activity the analytical model abstracts away.

use crate::error::ExperimentError;
use crate::registry::{sim_banks, Experiment};
use crate::report::{Report, TableBlock, Value};
use bandwall_cache_sim::{CacheConfig, CmpSimConfig, CoherentSimConfig, FillSpec, L2Organization};
use bandwall_trace::{ParsecLikeTrace, ReplayTrace};

const CORES: u16 = 8;
const ACCESSES: usize = 300_000;

/// Coherence study: shared L2 vs private MSI caches.
#[derive(Debug, Clone)]
pub struct CoherenceStudy {
    /// Trace seed (historical default 91).
    pub seed: u64,
}

impl CoherenceStudy {
    /// The stream both organisations replay at one sharing fraction.
    fn stream(&self, shared_fraction: f64) -> ReplayTrace {
        let mut trace = ParsecLikeTrace::builder_with_regions(CORES, 2000, 1500)
            .shared_access_fraction(shared_fraction)
            .seed(self.seed)
            .build();
        ReplayTrace::record(&mut trace, ACCESSES)
    }
}

impl Experiment for CoherenceStudy {
    fn id(&self) -> &'static str {
        "coherence_study"
    }

    fn figure(&self) -> &'static str {
        "Coherence study"
    }

    fn title(&self) -> &'static str {
        "shared L2 vs private MSI caches under data sharing (8 cores)"
    }

    fn run(&self) -> Result<Report, ExperimentError> {
        let mut report = Report::new(self.id(), self.figure(), self.title());
        let mut table = TableBlock::new(&[
            "shared accesses",
            "shared-L2 traffic",
            "private-MSI traffic",
            "ratio",
            "invalidations",
            "c2c transfers",
        ]);
        // Shared L2: one 512 KB cache.
        let shared = CmpSimConfig {
            cores: CORES,
            l1: CacheConfig::new(512, 64, 2)?,
            l2: CacheConfig::new(512 << 10, 64, 8)?,
            organization: L2Organization::Shared,
            l2_fill: FillSpec::FullLine,
            flush: false,
        };
        // Private MSI: eight 64 KB caches (same total silicon).
        let private = CoherentSimConfig {
            cores: CORES,
            cache: CacheConfig::new(64 << 10, 64, 8)?,
            fill: FillSpec::FullLine,
            flush: false,
        };
        for fsh in [0.0, 0.2, 0.4, 0.6] {
            let mut stream = self.stream(fsh);
            let l2 = shared.run(&mut stream, ACCESSES, sim_banks())?;
            stream.rewind();
            let msi = private.run(&mut stream, ACCESSES, sim_banks())?;
            let s = l2.traffic.total_bytes();
            let p = msi.traffic.total_bytes();
            let ratio = p as f64 / s as f64;
            table.push_row(vec![
                Value::fmt(format!("{:.0}%", fsh * 100.0), fsh),
                Value::fmt(format!("{} KB", s / 1024), (s / 1024) as f64),
                Value::fmt(format!("{} KB", p / 1024), (p / 1024) as f64),
                Value::fmt(format!("{ratio:.2}"), ratio),
                Value::int(msi.coherence.invalidations()),
                Value::int(msi.coherence.cache_to_cache_transfers()),
            ]);
            report.metric(
                format!("private_over_shared[{:.0}%]", fsh * 100.0),
                ratio,
                None,
            );
        }
        report.table(table);
        report.blank();
        report.note("replication makes private caches fall further behind as sharing grows —");
        report.note("the capacity effect footnote 1 describes; MSI keeps the extra traffic on");
        report.note("chip (cache-to-cache) but cannot recover the wasted capacity");
        Ok(report)
    }
}
