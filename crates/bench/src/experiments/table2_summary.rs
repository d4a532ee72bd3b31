//! Table 2 — Summary of memory-traffic reduction techniques: assumption
//! bands plus the paper's qualitative effectiveness / variability /
//! complexity assessment, alongside the solved next-generation core
//! counts for each band.

use crate::error::ExperimentError;
use crate::registry::Experiment;
use crate::report::{Report, TableBlock, Value};
use crate::{die_budget, paper_baseline};
use bandwall_model::{catalog, AssumptionLevel, ScalingProblem};

/// Table 2: the technique summary with solved core counts per band.
#[derive(Debug, Clone, Copy, Default)]
pub struct Table2Summary;

impl Experiment for Table2Summary {
    fn id(&self) -> &'static str {
        "table2_summary"
    }

    fn figure(&self) -> &'static str {
        "Table 2"
    }

    fn title(&self) -> &'static str {
        "Summary of memory-traffic reduction techniques"
    }

    fn run(&self) -> Result<Report, ExperimentError> {
        let mut report = Report::new(self.id(), self.figure(), self.title());
        let mut table = TableBlock::new(&[
            "Technique",
            "Label",
            "Realistic",
            "Pessimistic",
            "Optimistic",
            "Effect.",
            "Range",
            "Complex.",
            "cores @2x (P/R/O)",
        ]);
        for d in catalog() {
            let mut cores = Vec::with_capacity(AssumptionLevel::ALL.len());
            for &level in AssumptionLevel::ALL.iter() {
                cores.push(
                    ScalingProblem::new(paper_baseline(), die_budget(1))
                        .with_technique(d.at(level)?)
                        .max_supportable_cores()?
                        .to_string(),
                );
            }
            table.push_row(vec![
                Value::text(d.name),
                Value::text(d.label),
                Value::text(d.band(AssumptionLevel::Realistic).text),
                Value::text(d.band(AssumptionLevel::Pessimistic).text),
                Value::text(d.band(AssumptionLevel::Optimistic).text),
                Value::text(d.effectiveness.to_string()),
                Value::text(d.range.to_string()),
                Value::text(d.complexity.to_string()),
                Value::text(cores.join("/")),
            ]);
        }
        report.table(table);
        report.blank();
        report.note(
            "category reminder: CC/DRAM/3D/Fltr/SmCo indirect; LC/Sect direct; SmCl, CC/LC dual",
        );
        Ok(report)
    }
}
