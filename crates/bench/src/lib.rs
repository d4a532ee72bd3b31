//! Experiment harness for the bandwidth-wall reproduction.
//!
//! Every paper figure/table is an entry in the experiment [`registry`];
//! the one binary, `src/bin/bandwall.rs`, lists, runs, benchmarks and
//! serves them. This library holds the registry, the shared
//! presentation helpers (aligned tables, ASCII bars, paper-vs-measured
//! comparison rows) and the common experiment parameters, so every
//! experiment prints its figure the same way:
//!
//! ```text
//! cargo run -p bandwall-experiments --bin bandwall -- run fig02_traffic_vs_cores
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod experiments;
pub mod fault;
pub mod perf;
pub mod registry;
pub mod render;
pub mod report;
pub mod serve;
pub mod sweep;

pub use bandwall_model::roadmap::{die_budget, paper_baseline, GENERATIONS, GENERATION_LABELS};

/// The standard experiment header every ASCII report starts with.
pub fn header_string(figure: &str, title: &str) -> String {
    format!(
        "================================================================\n\
         {figure} — {title}\n\
         Reproduction of Rogers et al., 'Scaling the Bandwidth Wall' (ISCA'09)\n\
         ================================================================\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn die_budgets_double() {
        assert_eq!(die_budget(1), 32.0);
        assert_eq!(die_budget(4), 256.0);
    }

    #[test]
    fn baseline_is_niagara2_like() {
        let b = paper_baseline();
        assert_eq!(b.cores(), 8.0);
        assert_eq!(b.total_ceas(), 16.0);
    }

    #[test]
    fn header_string_shape() {
        let h = header_string("Figure 2", "Traffic");
        assert_eq!(h.lines().count(), 4);
        assert!(h.contains("Figure 2 — Traffic"));
        assert!(h.ends_with("================\n"));
    }
}
