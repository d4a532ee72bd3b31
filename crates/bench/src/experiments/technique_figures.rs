//! Figures 4–12 and the two registry extensions, as rows of one table.
//!
//! Each row of [`TECHNIQUE_FIGURES`] is one registry experiment: it
//! solves one technique's sweep on the next-generation 32-CEA die under
//! a constant traffic envelope, against the 11-core baseline, and prints
//! the table, the row's notes and a `cores[label]` metric per paper
//! anchor. The same sweep is served by `POST /v1/sweep` under the row's
//! id ([`crate::sweep::named_sweep`]), so adding a row is the only step
//! that publishes a technique figure.

use crate::error::ExperimentError;
use crate::registry::Experiment;
use crate::report::Report;
use crate::sweep::{add_paper_metrics, sweep_block, CatalogueSweep, Variant};
use crate::{die_budget, paper_baseline};
use bandwall_model::{ScalingProblem, Technique};

/// Notes and metrics a row reports beyond its paper anchors, computed
/// from the solved core counts (in variant order).
type Extras = fn(&[u64], &mut Report) -> Result<(), ExperimentError>;

/// One technique figure: a registry experiment declared as data.
#[derive(Debug, Clone, Copy)]
pub struct TechniqueFigure {
    id: &'static str,
    figure: &'static str,
    title: &'static str,
    /// The declared sweep, base row first.
    sweep: fn() -> CatalogueSweep,
    /// Lines printed under the table, after any that `extras` prints.
    notes: &'static [&'static str],
    extras: Option<Extras>,
}

impl TechniqueFigure {
    /// The row's sweep points, base first.
    pub(crate) fn variants(&self) -> Vec<Variant> {
        (self.sweep)().into_variants()
    }
}

impl Experiment for TechniqueFigure {
    fn id(&self) -> &'static str {
        self.id
    }

    fn figure(&self) -> &'static str {
        self.figure
    }

    fn title(&self) -> &'static str {
        self.title
    }

    fn run(&self) -> Result<Report, ExperimentError> {
        let mut report = Report::new(self.id, self.figure, self.title);
        let variants = self.variants();
        let (table, results) = sweep_block(&variants)?;
        report.table(table);
        if self.extras.is_some() || !self.notes.is_empty() {
            report.blank();
        }
        add_paper_metrics(&mut report, &variants, &results);
        if let Some(extras) = self.extras {
            extras(&results, &mut report)?;
        }
        for &note in self.notes {
            report.note(note);
        }
        Ok(report)
    }
}

/// How many leading rows of [`TECHNIQUE_FIGURES`] are the paper's
/// Figures 4–12; the registry extensions follow them.
pub(crate) const PAPER_FIGURES: usize = 9;

/// Every technique figure, in registry order.
pub static TECHNIQUE_FIGURES: [TechniqueFigure; 11] = [
    // Figure 4 — Increase in on-chip cores enabled by cache compression
    // (32 CEAs, constant traffic).
    //
    // Paper reference: 1.3×/1.7×/2.0×/2.5×/3.0× compression yields
    // 11/12/13/14/14 cores; Table 2 marks 1.25× pessimistic, 2× realistic,
    // 3.5× optimistic.
    TechniqueFigure {
        id: "fig04_cache_compression",
        figure: "Figure 4",
        title: "Cores enabled by cache compression",
        sweep: || {
            ratio_sweep(
                "cache_compression",
                [None, None, None, Some(13), Some(14), Some(14), None, None],
            )
        },
        notes: &["assumption bands (Table 2): pessimistic 1.25x, realistic 2x, optimistic 3.5x"],
        extras: None,
    },
    // Figure 5 — Increase in on-chip cores enabled by DRAM caches.
    //
    // Paper reference: SRAM baseline 11 cores; DRAM L2 at 4×/8×/16× density
    // reaches 16/18/21 — proportional scaling already at the conservative 4×.
    TechniqueFigure {
        id: "fig05_dram_cache",
        figure: "Figure 5",
        title: "Cores enabled by DRAM caches",
        sweep: || {
            CatalogueSweep::base("SRAM L2", Some(11))
                .point("DRAM L2 (4x)", "dram_cache", &[4.0], Some(16))
                .point("DRAM L2 (8x)", "dram_cache", &[8.0], Some(18))
                .point("DRAM L2 (16x)", "dram_cache", &[16.0], Some(21))
        },
        notes: &["proportional scaling target: 16 cores — met by the conservative 4x density"],
        extras: None,
    },
    // Figure 6 — Increase in on-chip cores enabled by 3D-stacked caches.
    //
    // Paper reference: no-3D 11 cores; one stacked SRAM die 14; stacked DRAM
    // dies at 8×/16× density 25/32 — super-proportional scaling.
    TechniqueFigure {
        id: "fig06_3d_cache",
        figure: "Figure 6",
        title: "Cores enabled by 3D-stacked caches",
        sweep: || {
            CatalogueSweep::base("No 3D Cache", Some(11))
                .point("3D SRAM", "stacked_cache", &[1.0, 1.0], Some(14))
                .point("3D DRAM (8x)", "stacked_cache", &[1.0, 8.0], Some(25))
                .point("3D DRAM (16x)", "stacked_cache", &[1.0, 16.0], Some(32))
        },
        notes: &[],
        extras: None,
    },
    // Figure 7 — Increase in on-chip cores enabled by filtering unused data
    // from the cache.
    //
    // Paper reference: at the realistic 40% unused data the benefit is one
    // extra core (12); the optimistic 80% reaches proportional scaling (16).
    TechniqueFigure {
        id: "fig07_filtering",
        figure: "Figure 7",
        title: "Cores enabled by unused-data filtering",
        sweep: || {
            unused_sweep(
                "No Filtering",
                "unused_data_filter",
                [None, None, Some(12), Some(16)],
            )
        },
        notes: &["indirect benefit only: the capacity gain is dampened by the -α exponent"],
        extras: None,
    },
    // Figure 8 — Increase in on-chip cores enabled by smaller cores.
    //
    // Paper reference: the benefit saturates quickly — even infinitesimal
    // cores cannot exceed ~12–13 next-generation cores, because freeing core
    // area at most doubles the cache per core while proportional scaling
    // needs 4×.
    TechniqueFigure {
        id: "fig08_smaller_cores",
        figure: "Figure 8",
        title: "Cores enabled by smaller cores",
        sweep: || {
            let mut sweep = CatalogueSweep::base("1x (full-size)", Some(11));
            for reduction in [9.0, 45.0, 80.0] {
                sweep = sweep.point(
                    format!("{reduction:.0}x smaller"),
                    "smaller_cores",
                    &[1.0 / reduction],
                    None,
                );
            }
            sweep
        },
        notes: &[],
        extras: Some(smaller_cores_limits),
    },
    // Figure 9 — Increase in on-chip cores enabled by link compression.
    //
    // Paper reference: a direct technique — 2× link compression restores
    // exact proportional scaling (16 cores); higher ratios go
    // super-proportional (~20 at 3.5×).
    TechniqueFigure {
        id: "fig09_link_compression",
        figure: "Figure 9",
        title: "Cores enabled by link compression",
        sweep: || {
            ratio_sweep(
                "link_compression",
                [None, None, None, Some(16), None, None, None, None],
            )
        },
        notes: &["direct techniques divide the traffic itself — no -α dampening"],
        extras: None,
    },
    // Figure 10 — Increase in on-chip cores enabled by sectored caches.
    //
    // Paper reference: fetching only referenced sectors removes the unused
    // share of each line from the link. More potent than unused-data
    // *filtering* (Figure 7), especially at high unused fractions, because
    // the effect is direct.
    TechniqueFigure {
        id: "fig10_sectored",
        figure: "Figure 10",
        title: "Cores enabled by sectored caches",
        sweep: || unused_sweep("0% unused", "sectored_cache", [None, None, Some(14), None]),
        notes: &["compare Figure 7: the same unused fractions help more when applied directly"],
        extras: None,
    },
    // Figure 11 — Increase in on-chip cores enabled by smaller cache lines.
    //
    // Paper reference: a dual technique (Equation 12) — the realistic 40%
    // unused data restores proportional scaling (16 cores); optimistically
    // (80%) it goes well beyond.
    TechniqueFigure {
        id: "fig11_small_lines",
        figure: "Figure 11",
        title: "Cores enabled by smaller cache lines",
        sweep: || {
            unused_sweep(
                "0% unused",
                "small_cache_lines",
                [None, None, Some(16), None],
            )
        },
        notes: &["dual effect: unused words cost neither bandwidth nor cache capacity"],
        extras: None,
    },
    // Figure 12 — Increase in on-chip cores enabled by cache+link
    // compression.
    //
    // Paper reference: compressed data both on the link and in the L2 — a
    // moderate 2.0× ratio already yields super-proportional scaling
    // (18 cores).
    TechniqueFigure {
        id: "fig12_cache_link",
        figure: "Figure 12",
        title: "Cores enabled by cache+link compression",
        sweep: || {
            ratio_sweep(
                "cache_link_compression",
                [None, None, None, Some(18), None, None, None, None],
            )
        },
        notes: &[],
        extras: None,
    },
    // Registry extension — thermal-capped 3D cache stacking, after Yavits
    // et al., "The Effect of Temperature on Amdahl Law in 3D Multicore
    // Era".
    //
    // The paper's Figure 6 treats every stacked layer as fully usable, so
    // the benefit grows linearly with the stack. Thermally, each layer
    // sits further from the heat sink and must derate: layer `k`
    // contributes `density × derate^k`, so the total stacked capacity is
    // geometrically bounded by `density / (1 - derate)` layers-worth — the
    // thermal ceiling. This row contrasts the derated stack against the
    // ideal one at the same layer counts.
    //
    // The technique is a pure registry addition
    // (`bandwall_model::descriptor`): no solver, sweep, or wire-layer code
    // knows about it beyond this row.
    TechniqueFigure {
        id: "thermal_capped_3d",
        figure: "Registry extension",
        title: "Thermal ceiling on 3D-stacked caches",
        sweep: || {
            let mut sweep = CatalogueSweep::base("No 3D Cache", Some(11));
            for layers in [2.0, 4.0, 8.0] {
                sweep = sweep.point(
                    format!("{layers:.0} layers (derate {DERATE})"),
                    "thermal_capped_3d",
                    &[layers, DENSITY, DERATE],
                    None,
                );
            }
            // The ideal (underated) stack at the deepest point, for contrast:
            // derate 1.0 makes thermal_capped_3d coincide with plain stacking.
            sweep.point(
                "8 layers (ideal)",
                "thermal_capped_3d",
                &[8.0, DENSITY, 1.0],
                None,
            )
        },
        notes: &[
            "after Yavits et al., \"The Effect of Temperature on Amdahl Law in 3D Multicore Era\"",
        ],
        extras: Some(thermal_gap),
    },
    // Registry extension — CXL idle-I/O bandwidth harvesting, after
    // Kadiyala & Daglis (arXiv 2511.12349).
    //
    // CXL attaches memory over the chip's I/O links, so whenever those
    // links sit idle their bandwidth can be harvested for memory traffic.
    // With I/O links provisioned at `io_bandwidth_ratio` of the memory
    // envelope and idle `idle_fraction` of the time, the off-chip envelope
    // effectively grows by `1 + io_bandwidth_ratio × idle_fraction` — a
    // *direct* technique in the paper's taxonomy, dividing relative
    // traffic exactly like extra provisioned bandwidth. The sweep is the
    // registry entry's three assumption bands plus a generously
    // provisioned half-idle point.
    //
    // The technique is a pure registry addition
    // (`bandwall_model::descriptor`): no solver, sweep, or wire-layer code
    // knows about it beyond this row.
    TechniqueFigure {
        id: "cxl_harvesting",
        figure: "Registry extension",
        title: "CXL idle-I/O bandwidth harvesting",
        sweep: || {
            CatalogueSweep::base("No CXL", Some(11))
                .point("0.25x I/O, 25% idle", "cxl_harvesting", &[0.25, 0.25], None)
                .point("0.5x I/O, 50% idle", "cxl_harvesting", &[0.5, 0.5], None)
                .point("1x I/O, 50% idle", "cxl_harvesting", &[1.0, 0.5], None)
                .point("1x I/O, 80% idle", "cxl_harvesting", &[1.0, 0.8], None)
        },
        notes: &[
            "direct technique: harvested idle I/O divides relative traffic, \
             exactly like provisioning that much extra bandwidth",
            "after Kadiyala & Daglis, arXiv 2511.12349",
        ],
        extras: Some(cxl_link_equivalence),
    },
];

/// The eight compression ratios Figures 4, 9 and 12 sweep after their
/// "No Compress" base row, with the paper's anchor at each ratio.
fn ratio_sweep(id: &str, paper: [Option<u64>; 8]) -> CatalogueSweep {
    let ratios = [1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 3.5, 4.0];
    let mut sweep = CatalogueSweep::base("No Compress", Some(11));
    for (ratio, paper) in ratios.into_iter().zip(paper) {
        sweep = sweep.point(format!("{ratio}x"), id, &[ratio], paper);
    }
    sweep
}

/// The four unused-data fractions Figures 7, 10 and 11 sweep after
/// their base row, with the paper's anchor at each fraction.
fn unused_sweep(base: &str, id: &str, paper: [Option<u64>; 4]) -> CatalogueSweep {
    let mut sweep = CatalogueSweep::base(base, Some(11));
    for (fraction, paper) in [0.1, 0.2, 0.4, 0.8].into_iter().zip(paper) {
        sweep = sweep.point(
            format!("{:.0}% unused", fraction * 100.0),
            id,
            &[fraction],
            paper,
        );
    }
    sweep
}

/// Figure 8's limit case and its interconnect caveat.
fn smaller_cores_limits(_: &[u64], report: &mut Report) -> Result<(), ExperimentError> {
    // The limit case the paper derives analytically: cores of zero area
    // leave all 32 CEAs as cache, and (P/8)·(32/P)^-0.5 = 1 at P ≈ 12.7.
    let limit = ScalingProblem::new(paper_baseline(), 32.0)
        .with_technique(Technique::smaller_cores(1e-6)?)
        .max_supportable_cores()?;
    report.note(format!(
        "limit (infinitesimal cores): {limit} cores — cache per core can at most double"
    ));

    // The paper's caveat: "with increasingly smaller cores, the
    // interconnection between cores becomes increasingly larger".
    let taxed = ScalingProblem::new(paper_baseline(), 32.0)
        .with_technique(Technique::smaller_cores(1.0 / 80.0)?)
        .with_uncore_overhead(0.5)
        .max_supportable_cores()?;
    report.note(format!(
        "with 0.5 CEA/core of interconnect, 80x-smaller cores support only {taxed}"
    ));

    report.metric("limit_cores", limit as f64, None);
    report.metric("taxed_cores_80x", taxed as f64, None);
    Ok(())
}

/// Thermal derating factor per layer used throughout the
/// `thermal_capped_3d` sweep — the pessimistic band of the registry
/// entry, where the geometric ceiling (16 layers-equivalent) stays below
/// what the 32-core die cap absorbs, so the saturation is visible in the
/// core counts.
const DERATE: f64 = 0.5;

/// DRAM layer density relative to SRAM (the paper's realistic 8×).
const DENSITY: f64 = 8.0;

/// The thermal ceiling, and derated vs ideal cores at the deepest stack.
fn thermal_gap(results: &[u64], report: &mut Report) -> Result<(), ExperimentError> {
    let ceiling = DENSITY / (1.0 - DERATE);
    report.note(format!(
        "thermal ceiling: a derate of {DERATE} bounds the stack at \
         {ceiling:.1} SRAM-layers-equivalent of cache, however deep it grows"
    ));
    // The headline gap: derated vs ideal cores at the deepest stack.
    let derated = results[3] as f64;
    let ideal = results[4] as f64;
    report.metric("derated_cores_8_layers", derated, None);
    report.metric("ideal_cores_8_layers", ideal, None);
    report.metric("thermal_gap_cores", ideal - derated, None);
    Ok(())
}

/// Cross-check against the paper's own algebra: harvesting 1x I/O links
/// that idle half the time is a 1.5x traffic divisor, so it must support
/// exactly as many cores as 1.5x link compression.
fn cxl_link_equivalence(_: &[u64], report: &mut Report) -> Result<(), ExperimentError> {
    let problem = ScalingProblem::new(paper_baseline(), die_budget(1));
    let via_cxl = problem
        .clone()
        .with_technique(Technique::from_registry("cxl_harvesting", &[1.0, 0.5])?)
        .max_supportable_cores()?;
    let via_link = problem
        .with_technique(Technique::link_compression(1.5)?)
        .max_supportable_cores()?;
    report.metric("cores_cxl_1x_50pct", via_cxl as f64, Some(via_link as f64));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(id: &str) -> &'static TechniqueFigure {
        TECHNIQUE_FIGURES
            .iter()
            .find(|f| f.id == id)
            .unwrap_or_else(|| panic!("no row {id}"))
    }

    #[test]
    fn derated_stacks_trail_ideal_ones() {
        let report = row("thermal_capped_3d").run().unwrap();
        let derated = report.get_metric("derated_cores_8_layers").unwrap().model;
        let ideal = report.get_metric("ideal_cores_8_layers").unwrap().model;
        assert!(
            derated < ideal,
            "thermal derating must cost cores: {derated} vs {ideal}"
        );
        let gap = report.get_metric("thermal_gap_cores").unwrap().model;
        assert_eq!(gap, ideal - derated);
    }

    #[test]
    fn deeper_derated_stacks_still_help_but_saturate() {
        let (_, results) = sweep_block(&row("thermal_capped_3d").variants()).unwrap();
        // Base, then 2/4/8 derated layers: monotone non-decreasing...
        assert!(
            results.windows(2).take(3).all(|w| w[0] <= w[1]),
            "{results:?}"
        );
        // ...but the 4→8 step is no larger than the 2→4 step (ceiling).
        assert!(
            results[3] - results[2] <= results[2] - results[1],
            "{results:?}"
        );
    }

    #[test]
    fn harvesting_matches_equivalent_link_compression() {
        let report = row("cxl_harvesting").run().unwrap();
        let m = report.get_metric("cores_cxl_1x_50pct").unwrap();
        assert_eq!(Some(m.model), m.paper, "cxl(1, 0.5) must equal lc(1.5)");
    }

    #[test]
    fn harvesting_is_monotone_in_both_parameters() {
        let (_, results) = sweep_block(&row("cxl_harvesting").variants()).unwrap();
        assert!(
            results.windows(2).all(|w| w[0] <= w[1]),
            "stronger harvesting must not lose cores: {results:?}"
        );
        assert!(results[4] > results[0], "optimistic band must help");
    }
}
