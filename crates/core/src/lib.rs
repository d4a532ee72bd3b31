//! The analytical CMP memory-traffic model of *"Scaling the Bandwidth
//! Wall: Challenges in and Avenues for CMP Scaling"* (Rogers, Krishna,
//! Bell, Vu, Jiang, Solihin — ISCA 2009).
//!
//! The model predicts how much off-chip memory traffic a chip
//! multiprocessor generates as a function of its die-area split between
//! cores and caches, using the power law of cache misses, and answers the
//! paper's central question: **how many cores can future technology
//! generations support without outgrowing the off-chip bandwidth
//! envelope?**
//!
//! # Tour
//!
//! * [`Alpha`], [`Baseline`] — workload exponent and the reference CMP
//!   (Niagara2-like: 8 cores + 8 CEAs of cache, α = 0.5).
//! * [`MissRateCurve`] — the power law of cache misses (Equations 1–2).
//! * [`TrafficModel`] — relative chip traffic between configurations
//!   (Equations 3–5).
//! * [`Technique`] and [`catalog()`] — the nine bandwidth-conservation
//!   techniques of Section 6 / Table 2, composable into sets.
//! * [`ScalingProblem`], [`GenerationSweep`] — the Equation 7 solver and
//!   multi-generation sweeps (Figures 3, 15–17).
//! * [`combination`] — the fifteen technique combinations of Figure 16.
//! * [`sharing`] — the data-sharing extension (Equations 13–14,
//!   Figure 13).
//!
//! # Example
//!
//! The paper's headline numbers in five lines:
//!
//! ```
//! use bandwall_model::{Baseline, GenerationSweep, ScalingProblem, Technique};
//!
//! // Four generations out, constant traffic: 24 cores, not 128.
//! let results = GenerationSweep::new(Baseline::niagara2_like()).run(4)?;
//! assert_eq!(results[3].supportable_cores, 24);
//!
//! // DRAM caches lift the fourth generation to 47 cores.
//! let dram = ScalingProblem::new(Baseline::niagara2_like(), 256.0)
//!     .with_technique(Technique::dram_cache(8.0)?);
//! assert_eq!(dram.max_supportable_cores()?, 47);
//! # Ok::<(), bandwall_model::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canonical;
pub mod catalog;
pub mod combination;
pub mod descriptor;
pub mod effects;
mod error;
pub mod mix;
mod params;
mod power_law;
pub mod roadmap;
mod scaling;
pub mod sharing;
pub mod techniques;
mod throughput;
mod traffic;

pub use canonical::CanonicalProblem;
pub use catalog::{catalog, extended_catalog, AssumptionLevel, Rating};
pub use descriptor::{ParamDomain, ParamSpec, TechniqueDescriptor};
pub use effects::Effects;
pub use error::ModelError;
pub use params::{Alpha, Baseline};
pub use power_law::MissRateCurve;
pub use scaling::{GenerationResult, GenerationSweep, ScalingProblem, ScalingSolution};
pub use techniques::{Category, Technique};
pub use throughput::{ThroughputModel, ThroughputPoint};
pub use traffic::TrafficModel;
