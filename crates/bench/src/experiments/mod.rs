//! The registry's experiments: one module per paper figure, Table 2 and
//! supporting study, ablation and validation, except Figures 4–12 and
//! the two registry extensions, which are rows of one table
//! ([`technique_figures::TECHNIQUE_FIGURES`]). Each implements
//! [`crate::registry::Experiment`] and is constructed here in
//! presentation order.

pub mod ablate_inclusion;
pub mod ablate_replacement;
pub mod coherence_study;
pub mod combo_sim;
pub mod fault_inject;
pub mod fig01_power_law;
pub mod fig02_traffic_vs_cores;
pub mod fig03_die_allocation;
pub mod fig13_data_sharing;
pub mod fig14_parsec_sharing;
pub mod fig15_technique_sweep;
pub mod fig16_combinations;
pub mod fig17_alpha_sensitivity;
pub mod mixed_workloads;
pub mod predictor_study;
pub mod roadmap_scenarios;
pub mod sensitivity;
pub mod table2_summary;
pub mod technique_figures;
pub mod throughput_wall;
pub mod validate_compression;
pub mod validate_line_size;
pub mod validate_writeback;

use crate::registry::Experiment;
use bandwall_numerics::rng::splitmix64;
use technique_figures::{TechniqueFigure, PAPER_FIGURES, TECHNIQUE_FIGURES};

/// Builds every experiment in registry order. With `seed == None` each
/// seeded experiment keeps its historical default (byte-compatible with
/// the committed golden reports); with `Some(s)` each gets a distinct seed
/// derived from `s` via SplitMix64, in registry order.
pub fn all(seed: Option<u64>) -> Vec<Box<dyn Experiment>> {
    let mut state = seed.unwrap_or(0);
    let mut derive = |default: u64| -> u64 {
        if seed.is_some() {
            splitmix64(&mut state)
        } else {
            default
        }
    };
    let mut experiments: Vec<Box<dyn Experiment>> = Vec::new();
    // Test-only: BANDWALL_FAULT_INJECT prepends a deliberately failing
    // experiment so the harness's fault isolation can be exercised
    // against the real registry. Absent the variable the registry is
    // exactly the 32 registered entries.
    if let Some(fault) = fault_inject::from_env() {
        experiments.push(Box::new(fault));
    }
    let (figures, extensions) = TECHNIQUE_FIGURES.split_at(PAPER_FIGURES);
    let boxed = |row: &TechniqueFigure| -> Box<dyn Experiment> { Box::new(*row) };
    experiments.extend([
        Box::new(fig01_power_law::Fig01PowerLaw { seed: derive(2026) }) as Box<dyn Experiment>,
        Box::new(fig02_traffic_vs_cores::Fig02TrafficVsCores),
        Box::new(fig03_die_allocation::Fig03DieAllocation),
    ]);
    // Figures 4–12: unseeded rows of the technique-figure table.
    experiments.extend(figures.iter().map(boxed));
    experiments.extend([
        Box::new(fig13_data_sharing::Fig13DataSharing) as Box<dyn Experiment>,
        Box::new(fig14_parsec_sharing::Fig14ParsecSharing { seed: derive(2026) }),
        Box::new(fig15_technique_sweep::Fig15TechniqueSweep),
        Box::new(fig16_combinations::Fig16Combinations),
        Box::new(fig17_alpha_sensitivity::Fig17AlphaSensitivity),
        Box::new(table2_summary::Table2Summary),
        Box::new(throughput_wall::ThroughputWall),
        Box::new(roadmap_scenarios::RoadmapScenarios),
        Box::new(sensitivity::Sensitivity {
            seed: derive(20260706),
        }),
        Box::new(mixed_workloads::MixedWorkloads),
        Box::new(ablate_inclusion::AblateInclusion { seed: derive(42) }),
        Box::new(ablate_replacement::AblateReplacement {
            trace_seed: derive(31),
            policy_seed: derive(7),
        }),
        Box::new(coherence_study::CoherenceStudy { seed: derive(91) }),
        Box::new(predictor_study::PredictorStudy { seed: derive(61) }),
        Box::new(validate_compression::ValidateCompression { seed: derive(77) }),
        Box::new(validate_line_size::ValidateLineSize { seed: derive(17) }),
        Box::new(validate_writeback::ValidateWriteback { seed: derive(99) }),
        // Appended after the 29 historical entries so their derived-seed
        // sequence (and therefore every historical report) is unchanged.
        Box::new(combo_sim::ComboSim { seed: derive(47) }),
    ]);
    // Registry extensions (unseeded rows of the same table): appended
    // last, after every seeded entry, so the SplitMix64 derivation
    // order — and with it the 30 historical reports — stays fixed.
    experiments.extend(extensions.iter().map(boxed));
    experiments
}
