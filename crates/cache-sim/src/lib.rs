//! Trace-driven cache and CMP simulation.
//!
//! This crate provides the measurement substrate the bandwidth-wall paper
//! relies on: set-associative caches with selectable replacement policies,
//! and a CMP system of per-core L1s over a shared or private L2 with
//! off-chip traffic accounting (one core of it is the per-core two-level
//! hierarchy) — plus the specialised cache variants the paper's techniques
//! assume:
//!
//! Every cache variant is a thin alias over one generic engine — the
//! [`PipelineCache`] access pipeline, parameterised by a [`Fill`]
//! granularity policy and observed by a composable stats stack:
//!
//! * [`Cache`] — whole-line fills ([`FullLineFill`]): set-associative,
//!   write-back, write-allocate, with optional per-word usage and
//!   per-core sharer tracking.
//! * [`SectoredCache`] — sector-granularity fetching ([`SectoredFill`],
//!   Section 6.2).
//! * [`PredictiveSectoredCache`] — sectored, with a last-footprint
//!   predictor prefetching each line's previous footprint
//!   ([`PredictiveSectoredFill`]).
//! * [`CompressedCache`] — byte-budget sets over any
//!   `bandwall_compress::Compressor` ([`CompressedFill`], Section 6.1).
//! * [`SectoredCompressedCache`] — both composed
//!   ([`SectoredCompressedFill`]).
//! * [`CmpSystem`] — per-core L1s over an [`L2Organization::Shared`] L2
//!   (the Figure 14 simulator) or private L2s that are non-inclusive
//!   ([`L2Organization::Private`]), inclusive
//!   ([`L2Organization::InclusivePrivate`]) or exclusive
//!   ([`L2Organization::ExclusivePrivate`]), with [`MemoryTraffic`]
//!   accounting; one core over a private L2 is the per-core L1 + L2
//!   hierarchy.
//! * [`EngineSimConfig`] / [`CmpSimConfig`] / [`CoherentSimConfig`] —
//!   bank-partitioned parallel simulation whose merged statistics are
//!   bit-identical to a sequential run, for every fill policy
//!   ([`FillSpec`]).
//!
//! # Example
//!
//! ```
//! use bandwall_cache_sim::{CacheConfig, CmpSystem, L2Organization};
//! use bandwall_trace::{StackDistanceTrace, TraceSource};
//!
//! // One core: a 16 KB L1 over a private 512 KB L2.
//! let mut system = CmpSystem::try_new(
//!     1,
//!     CacheConfig::new(16 << 10, 64, 2)?,
//!     CacheConfig::new(512 << 10, 64, 8)?,
//!     L2Organization::Private,
//! )?;
//! let mut workload = StackDistanceTrace::builder(0.5).seed(1).max_distance(1 << 14).build();
//! for access in workload.iter().take(10_000) {
//!     system.access(access);
//! }
//! assert!(system.memory_traffic().total_bytes() > 0);
//! # Ok::<(), bandwall_cache_sim::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod cmp;
mod coherence;
mod compressed;
mod config;
mod memory;
mod parallel;
mod pipeline;
mod sectored;
mod stats;

pub use cache::{AccessOutcome, Cache, EvictedLine};
pub use cmp::{CmpSystem, L2Organization};
pub use coherence::{CoherenceStats, CoherentCmp};
pub use compressed::CompressedCache;
pub use config::{CacheConfig, ConfigError, ReplacementPolicy};
pub use memory::{simulate_throughput, DramChannel, ThroughputSimConfig, ThroughputSimResult};
pub use parallel::{
    CmpSimConfig, CmpSimStats, CoherentSimConfig, CoherentSimStats, EngineSimConfig,
    EngineSimStats, Partitioning,
};
pub use pipeline::{
    CompressedFill, CompressorKind, Fill, FillSpec, FullLineFill, PipelineCache,
    PredictiveSectoredFill, ProfileKind, SectoredCompressedFill, SectoredFill, ValueSpec,
};
pub use sectored::{PredictiveSectoredCache, SectoredCache};
pub use stats::{CacheStats, MemoryTraffic, SharingStats, WordUsageStats};

/// Sectored *and* compressed cache — the composed configuration the
/// unified pipeline makes expressible (see [`SectoredCompressedFill`]).
pub type SectoredCompressedCache = PipelineCache<SectoredCompressedFill>;
