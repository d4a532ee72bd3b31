//! Trace-driven cache and CMP simulation.
//!
//! This crate provides the measurement substrate the bandwidth-wall paper
//! relies on: set-associative caches with selectable replacement policies,
//! two-level hierarchies with off-chip traffic accounting, and a CMP
//! system with shared or private L2s — plus the specialised cache variants
//! the paper's techniques assume:
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
//! * [`TwoLevelHierarchy`] — L1 + L2 + [`MemoryTraffic`] accounting.
//! * [`CmpSystem`] — multi-core with [`L2Organization::Shared`] or
//!   [`L2Organization::Private`] L2s; the Figure 14 simulator.
//! * [`EngineSimConfig`] / [`CmpSimConfig`] / [`CoherentSimConfig`] —
//!   bank-partitioned parallel simulation whose merged statistics are
//!   bit-identical to a sequential run, for every fill policy
//!   ([`FillSpec`]).
//!
//! # Example
//!
//! ```
//! use bandwall_cache_sim::{CacheConfig, TwoLevelHierarchy};
//! use bandwall_trace::{StackDistanceTrace, TraceSource};
//!
//! let mut system = TwoLevelHierarchy::new(
//!     CacheConfig::new(16 << 10, 64, 2)?,
//!     CacheConfig::new(512 << 10, 64, 8)?,
//! );
//! let mut workload = StackDistanceTrace::builder(0.5).seed(1).max_distance(1 << 14).build();
//! for access in workload.iter().take(10_000) {
//!     system.access(access.address(), access.kind().is_write());
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
mod hierarchy;
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
pub use hierarchy::{InclusionPolicy, TwoLevelHierarchy};
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
