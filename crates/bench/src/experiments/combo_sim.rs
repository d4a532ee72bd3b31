//! Extension experiment — simulated cross-check of the model's
//! combination algebra.
//!
//! The paper's strongest claim (Figure 16) is that bandwidth-conservation
//! techniques *compose*: the analytical model multiplies each technique's
//! traffic divisor, so sectoring (×`1/(1-unused)`) and cache compression
//! (capacity ×`F`) together should divide traffic by roughly the product
//! of their individual divisors. The unified access pipeline makes the
//! composed configurations simulatable — a [`FillSpec::SectoredCompressed`]
//! cache fetches at sector granularity *into* byte-budgeted compressed
//! sets — so the algebra can be checked against measurement instead of
//! assumed.
//!
//! The experiment runs the same trace through the conventional, sectored,
//! compressed, and sectored+compressed engines (banked-parallel; merged
//! stats are bit-identical to sequential) and compares the measured
//! combined traffic ratio with the product of the individual ratios. A
//! second table composes coherence with compression
//! ([`CoherentSimConfig`] over compressed private caches), which no
//! simulator in this repository could express before the pipeline.
//!
//! Tolerance: the model treats divisors as independent; simulation
//! couples them (sectoring shortens residencies, which changes what the
//! compressed budget holds), so the product is accepted within
//! [`TOLERANCE`] relative error — the same order of agreement the paper
//! claims for its own validation studies.

use crate::error::ExperimentError;
use crate::registry::{sim_banks, Experiment};
use crate::report::{Report, TableBlock, Value};
use bandwall_cache_sim::{
    CacheConfig, CoherentSimConfig, CompressorKind, EngineSimConfig, FillSpec, ProfileKind,
    ValueSpec,
};
use bandwall_trace::{ParsecLikeTrace, ReplayTrace, StackDistanceTrace};

const ACCESSES: usize = 200_000;

/// Documented tolerance on `measured / predicted` for the combined
/// traffic ratio (see the module docs for why the algebra is only
/// approximately multiplicative in simulation).
pub const TOLERANCE: f64 = 0.35;

/// Measured traffic ratios of the composed engine configurations.
#[derive(Debug, Clone, Copy)]
pub struct ComboRatios {
    /// Conventional whole-line traffic in bytes (the baseline).
    pub base_bytes: f64,
    /// Baseline traffic / sectored traffic.
    pub sectored: f64,
    /// Baseline traffic / compressed traffic.
    pub compressed: f64,
    /// Baseline traffic / sectored+compressed traffic.
    pub combined: f64,
}

impl ComboRatios {
    /// The model's prediction for the combined ratio: the product of the
    /// individual divisors.
    pub fn predicted(&self) -> f64 {
        self.sectored * self.compressed
    }

    /// Relative error of the measured combined ratio vs the prediction.
    pub fn relative_error(&self) -> f64 {
        (self.combined - self.predicted()).abs() / self.predicted()
    }
}

/// Combination-algebra cross-check on the unified pipeline.
#[derive(Debug, Clone)]
pub struct ComboSim {
    /// Trace/value seed (historical default 47).
    pub seed: u64,
}

impl ComboSim {
    fn values(&self) -> ValueSpec {
        ValueSpec {
            profile: ProfileKind::Commercial,
            seed: self.seed ^ 0xC0DE,
        }
    }

    /// The stream the four single-cache configurations replay.
    fn engine_stream(&self, accesses: usize) -> ReplayTrace {
        let mut trace = StackDistanceTrace::builder(0.5)
            .seed(self.seed)
            .touched_words(5)
            .max_distance(1 << 13)
            .build();
        ReplayTrace::record(&mut trace, accesses)
    }

    fn engine_traffic(
        &self,
        stream: &mut ReplayTrace,
        fill: FillSpec,
    ) -> Result<f64, ExperimentError> {
        let sim = EngineSimConfig {
            // 64 KB over a ~512 KB working set: capacity pressure makes
            // compression matter; 5-of-8 touched words make sectoring
            // matter.
            cache: CacheConfig::new(64 << 10, 64, 8)?,
            fill,
            flush: true,
        };
        stream.rewind();
        let accesses = stream.accesses().len();
        let stats = sim.run(stream, accesses, sim_banks())?;
        Ok(stats.traffic.total_bytes() as f64)
    }

    /// Runs the four engine configurations and returns the traffic ratios.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError`] if a configuration does not fit its
    /// cache.
    pub fn ratios(&self, accesses: usize) -> Result<ComboRatios, ExperimentError> {
        let values = self.values();
        let mut stream = self.engine_stream(accesses);
        let base = self.engine_traffic(&mut stream, FillSpec::FullLine)?;
        let sectored = self.engine_traffic(
            &mut stream,
            FillSpec::Sectored {
                sectors_per_line: 8,
            },
        )?;
        let compressed = self.engine_traffic(
            &mut stream,
            FillSpec::Compressed {
                compressor: CompressorKind::Fpc,
                values,
            },
        )?;
        let combined = self.engine_traffic(
            &mut stream,
            FillSpec::SectoredCompressed {
                sectors_per_line: 8,
                compressor: CompressorKind::Fpc,
                values,
            },
        )?;
        Ok(ComboRatios {
            base_bytes: base,
            sectored: base / sectored,
            compressed: base / compressed,
            combined: base / combined,
        })
    }

    /// The stream both coherent configurations replay.
    fn coherent_stream(&self, accesses: usize) -> ReplayTrace {
        let mut trace = ParsecLikeTrace::builder_with_regions(4, 2000, 800)
            .shared_access_fraction(0.4)
            .write_fraction(0.3)
            .seed(self.seed ^ 0x5A)
            .build();
        ReplayTrace::record(&mut trace, accesses)
    }

    fn coherent_traffic(
        &self,
        stream: &mut ReplayTrace,
        fill: FillSpec,
    ) -> Result<(f64, u64, u64), ExperimentError> {
        let sim = CoherentSimConfig {
            cores: 4,
            cache: CacheConfig::new(16 << 10, 64, 4)?,
            fill,
            flush: true,
        };
        stream.rewind();
        let accesses = stream.accesses().len();
        let stats = sim.run(stream, accesses, sim_banks())?;
        Ok((
            stats.traffic.total_bytes() as f64,
            stats.coherence.invalidations(),
            stats.coherence.cache_to_cache_transfers(),
        ))
    }
}

impl Experiment for ComboSim {
    fn id(&self) -> &'static str {
        "combo_sim"
    }

    fn figure(&self) -> &'static str {
        "Combination algebra"
    }

    fn title(&self) -> &'static str {
        "composed fills vs the model's multiplicative traffic algebra"
    }

    fn run(&self) -> Result<Report, ExperimentError> {
        let mut report = Report::new(self.id(), self.figure(), self.title());
        let r = self.ratios(ACCESSES)?;

        let mb = |bytes: f64| Value::fmt(format!("{:.2}", bytes / 1e6), bytes / 1e6);
        let ratio = |x: f64| Value::fmt(format!("{x:.3}x"), x);
        let mut table = TableBlock::new(&["configuration", "traffic MB", "ratio vs base", "model"]);
        table.push_row(vec![
            Value::text("conventional"),
            mb(r.base_bytes),
            ratio(1.0),
            Value::text("-"),
        ]);
        table.push_row(vec![
            Value::text("sectored (8 sectors)"),
            mb(r.base_bytes / r.sectored),
            ratio(r.sectored),
            Value::text("-"),
        ]);
        table.push_row(vec![
            Value::text("compressed (FPC)"),
            mb(r.base_bytes / r.compressed),
            ratio(r.compressed),
            Value::text("-"),
        ]);
        table.push_row(vec![
            Value::text("sectored + compressed"),
            mb(r.base_bytes / r.combined),
            ratio(r.combined),
            ratio(r.predicted()),
        ]);
        report.metric("traffic_ratio_sectored", r.sectored, None);
        report.metric("traffic_ratio_compressed", r.compressed, None);
        report.metric("traffic_ratio_combined", r.combined, Some(r.predicted()));
        report.metric("combined_relative_error", r.relative_error(), None);
        report.table(table);
        report.blank();

        let mut coherent = TableBlock::new(&[
            "configuration",
            "traffic MB",
            "invalidations",
            "c2c transfers",
        ]);
        let mut stream = self.coherent_stream(ACCESSES);
        let (full, full_inv, full_c2c) = self.coherent_traffic(&mut stream, FillSpec::FullLine)?;
        let (comp, comp_inv, comp_c2c) = self.coherent_traffic(
            &mut stream,
            FillSpec::Compressed {
                compressor: CompressorKind::Fpc,
                values: self.values(),
            },
        )?;
        coherent.push_row(vec![
            Value::text("coherent (MSI), full-line"),
            mb(full),
            Value::int(full_inv),
            Value::int(full_c2c),
        ]);
        coherent.push_row(vec![
            Value::text("coherent (MSI) + compressed"),
            mb(comp),
            Value::int(comp_inv),
            Value::int(comp_c2c),
        ]);
        report.metric("coherent_compressed_ratio", full / comp, None);
        report.table(coherent);
        report.blank();
        report.note("the model multiplies per-technique traffic divisors (Fig. 16); the measured");
        report.note(format!(
            "combined ratio sits within {:.0}% of the product ({:.1}% here), so the",
            TOLERANCE * 100.0,
            r.relative_error() * 100.0
        ));
        report.note("super-proportional composition claim survives contact with simulation;");
        report.note("coherent+compressed runs on the same banked engine — inexpressible before");
        report.note("the unified pipeline");
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combination_algebra_holds_within_documented_tolerance() {
        let r = ComboSim { seed: 47 }.ratios(60_000).unwrap();
        assert!(r.sectored > 1.0, "sectoring must save traffic: {r:?}");
        assert!(r.compressed > 1.0, "compression must save traffic: {r:?}");
        assert!(
            r.combined > r.sectored.max(r.compressed),
            "composition must beat either technique alone: {r:?}"
        );
        assert!(
            r.relative_error() < TOLERANCE,
            "measured {:.3} vs predicted {:.3} (error {:.1}%)",
            r.combined,
            r.predicted(),
            r.relative_error() * 100.0
        );
    }

    #[test]
    fn coherent_compressed_composition_runs() {
        let e = ComboSim { seed: 47 };
        let mut stream = e.coherent_stream(30_000);
        let (full, inv, _) = e.coherent_traffic(&mut stream, FillSpec::FullLine).unwrap();
        let (comp, comp_inv, _) = e
            .coherent_traffic(
                &mut stream,
                FillSpec::Compressed {
                    compressor: CompressorKind::Fpc,
                    values: e.values(),
                },
            )
            .unwrap();
        assert!(inv > 0 && comp_inv > 0, "coherence must be exercised");
        assert!(
            comp < full,
            "compressed private caches must cut traffic: {comp} vs {full}"
        );
    }
}
