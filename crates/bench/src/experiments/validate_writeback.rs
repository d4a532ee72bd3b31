//! Supporting experiment (Section 4.2) — write-backs as a fraction of
//! misses across cache sizes.
//!
//! The model's `(1 + rwb)` cancellation relies on the observation that
//! "the number of write backs tends to be an application-specific
//! constant fraction of its number of cache misses, across different
//! cache sizes". This experiment measures `rwb` on the simulator across
//! a range of L2 sizes for two write intensities.

use crate::error::ExperimentError;
use crate::registry::{sim_banks, Experiment};
use crate::report::{Report, TableBlock, Value};
use bandwall_cache_sim::{CacheConfig, CmpSimConfig, FillSpec, L2Organization};
use bandwall_trace::{ReplayTrace, StackDistanceTrace};

const ACCESSES: usize = 300_000;

/// Write-back ratio validation on a one-core L1 + private L2 hierarchy.
#[derive(Debug, Clone)]
pub struct ValidateWriteback {
    /// Trace seed (historical default 99).
    pub seed: u64,
}

impl ValidateWriteback {
    /// The stream every L2 size replays at one write fraction.
    fn stream(&self, write_fraction: f64) -> ReplayTrace {
        let mut trace = StackDistanceTrace::builder(0.5)
            .seed(self.seed)
            .write_fraction(write_fraction)
            .max_distance(1 << 15)
            .build();
        ReplayTrace::record(&mut trace, ACCESSES)
    }

    fn rwb(&self, stream: &mut ReplayTrace, l2_kb: u64) -> Result<(f64, f64), ExperimentError> {
        let sim = CmpSimConfig {
            cores: 1,
            l1: CacheConfig::new(4 << 10, 64, 2)?,
            l2: CacheConfig::new(l2_kb << 10, 64, 8)?,
            organization: L2Organization::Private,
            l2_fill: FillSpec::FullLine,
            flush: false,
        };
        stream.rewind();
        let l2 = sim.run(stream, ACCESSES, sim_banks())?.l2;
        Ok((l2.writeback_ratio(), l2.miss_rate()))
    }
}

impl Experiment for ValidateWriteback {
    fn id(&self) -> &'static str {
        "validate_writeback"
    }

    fn figure(&self) -> &'static str {
        "Validation (Sec. 4.2)"
    }

    fn title(&self) -> &'static str {
        "write-back ratio rwb across cache sizes"
    }

    fn run(&self) -> Result<Report, ExperimentError> {
        let mut report = Report::new(self.id(), self.figure(), self.title());
        for wf in [0.1, 0.3] {
            report.blank();
            report.note(format!("write fraction = {wf}"));
            let mut table = TableBlock::new(&["L2 size", "rwb (writebacks/miss)", "L2 miss rate"]);
            let mut stream = self.stream(wf);
            for l2_kb in [16u64, 32, 64, 128, 256] {
                let (ratio, miss) = self.rwb(&mut stream, l2_kb)?;
                table.push_row(vec![
                    Value::fmt(format!("{l2_kb} KB"), l2_kb as f64),
                    Value::float(ratio, 3),
                    Value::float(miss, 3),
                ]);
                if l2_kb == 256 {
                    report.metric(format!("rwb_256K[wf={wf}]"), ratio, None);
                }
            }
            report.table(table);
        }
        report.blank();
        report.note("rwb moves far less than the miss rate as the cache scales, supporting");
        report.note("the paper's cancellation of (1 + rwb) in traffic ratios (Equation 2)");
        Ok(report)
    }
}
