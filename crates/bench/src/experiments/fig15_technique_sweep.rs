//! Figure 15 — Core scaling with every individual technique across four
//! future technology generations, with pessimistic/realistic/optimistic
//! candle ranges (Table 2 assumption bands).
//!
//! Paper reference: indirect techniques (CC, 3D, Fltr, SmCo) trail the
//! direct (LC, Sect) and dual (SmCl, CC/LC) ones; DRAM caches are the
//! indirect exception thanks to their 8× density.

use crate::error::ExperimentError;
use crate::registry::Experiment;
use crate::report::{Report, TableBlock, Value};
use crate::{die_budget, paper_baseline, GENERATIONS, GENERATION_LABELS};
use bandwall_model::{catalog, AssumptionLevel, ScalingProblem};

fn solve(
    technique: Option<bandwall_model::Technique>,
    generation: u32,
) -> Result<u64, ExperimentError> {
    let mut problem = ScalingProblem::new(paper_baseline(), die_budget(generation));
    if let Some(t) = technique {
        problem = problem.with_technique(t);
    }
    Ok(problem.max_supportable_cores()?)
}

/// Figure 15: per-technique candle sweep across four generations.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fig15TechniqueSweep;

impl Experiment for Fig15TechniqueSweep {
    fn id(&self) -> &'static str {
        "fig15_technique_sweep"
    }

    fn figure(&self) -> &'static str {
        "Figure 15"
    }

    fn title(&self) -> &'static str {
        "Core scaling per technique, four generations (realistic [pess..opt])"
    }

    fn run(&self) -> Result<Report, ExperimentError> {
        let mut report = Report::new(self.id(), self.figure(), self.title());
        let mut table = TableBlock::new(&[
            "technique",
            GENERATION_LABELS[0],
            GENERATION_LABELS[1],
            GENERATION_LABELS[2],
            GENERATION_LABELS[3],
        ]);

        // IDEAL: proportional scaling.
        table.push_row(
            std::iter::once(Value::text("IDEAL"))
                .chain(GENERATIONS.iter().map(|&g| {
                    let p = ScalingProblem::new(paper_baseline(), die_budget(g));
                    Value::int(p.proportional_cores())
                }))
                .collect(),
        );
        // BASE: no techniques.
        let mut base_row = vec![Value::text("BASE")];
        for &g in &GENERATIONS {
            base_row.push(Value::int(solve(None, g)?));
        }
        table.push_row(base_row);
        for d in catalog() {
            let mut row = vec![Value::text(d.label)];
            for &g in &GENERATIONS {
                let real = solve(Some(d.at(AssumptionLevel::Realistic)?), g)?;
                let pess = solve(Some(d.at(AssumptionLevel::Pessimistic)?), g)?;
                let opt = solve(Some(d.at(AssumptionLevel::Optimistic)?), g)?;
                row.push(Value::fmt(format!("{real} [{pess}..{opt}]"), real as f64));
                if g == 4 && d.label == "DRAM" {
                    report.metric("dram_realistic_16x", real as f64, Some(47.0));
                }
            }
            table.push_row(row);
        }
        report.metric("base_16x", solve(None, 4)? as f64, Some(24.0));
        report.metric(
            "ideal_16x",
            ScalingProblem::new(paper_baseline(), die_budget(4)).proportional_cores() as f64,
            Some(128.0),
        );
        report.table(table);
        report.blank();
        report.note("paper anchors: BASE 16x = 24; DRAM realistic 16x = 47; IDEAL 16x = 128");
        report.note("ordering: dual >= direct >= indirect (DRAM excepted via its 8x density)");
        Ok(report)
    }
}
