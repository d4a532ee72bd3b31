//! Deterministic synthetic memory-trace generation.
//!
//! The bandwidth-wall paper grounds its model in measurements of
//! commercial and SPEC workloads (Figure 1) and of PARSEC data sharing
//! (Figure 14). Those traces are proprietary, so this crate provides
//! seeded synthetic equivalents whose *statistical structure* matches what
//! the paper relies on:
//!
//! * [`StackDistanceTrace`] — streams whose LRU reuse distances are
//!   Pareto-distributed, so the miss rate follows the power law
//!   `m ∝ C^-α` by construction, with tunable `α`.
//! * [`ZipfTrace`], [`StridedTrace`], [`WorkingSetTrace`] — popularity
//!   skew, streaming scans, and discrete ("SPEC-like") working sets.
//! * [`MixTrace`] — weighted mixtures of any of the above.
//! * [`ParsecLikeTrace`] — multithreaded traces with a constant shared
//!   region plus per-thread private working sets (the Figure 14 workload).
//! * [`suites`] — the calibrated Figure 1 workload suites.
//! * [`ReuseDistanceProfiler`] / [`MissRateProbe`] — exact LRU
//!   reuse-distance profiling: every access's distance in O(log n), or
//!   the miss rates at a set of cache sizes in one pass, at one step per
//!   size an access misses at.
//! * [`values`] — deterministic line *payload* generation for the
//!   compression studies.
//! * [`ReplayTrace`] — record a stream once ([`ReplayTrace::record`])
//!   and replay it after a [`ReplayTrace::rewind`], so several caches (or
//!   timed benchmark iterations) see the same accesses without
//!   regenerating them.
//! * [`LineMap`] / [`LineSet`] — std maps over [`LineHasher`], the one
//!   cheap hasher every line-, tag- or page-keyed map in the simulators
//!   uses.
//!
//! Everything is seeded and reproducible: the same seed always produces
//! the same trace.
//!
//! # Example
//!
//! ```
//! use bandwall_trace::{MissRateProbe, StackDistanceTrace, TraceSource};
//!
//! // A workload that obeys the √2 rule (α = 0.5)…
//! let mut trace = StackDistanceTrace::builder(0.5).seed(1).max_distance(1 << 15).build();
//! // …profiled at two cache sizes 4× apart (after a warm-up phase)…
//! let mut probe = MissRateProbe::new(&[256, 1024]);
//! for access in trace.iter().take(30_000) {
//!     probe.observe(access.address() / 64);
//! }
//! probe.reset_counts();
//! for access in trace.iter().take(100_000) {
//!     probe.observe(access.address() / 64);
//! }
//! let rates = probe.miss_rates();
//! // …shows roughly half the misses at the larger size.
//! assert!((rates[0] / rates[1] - 2.0).abs() < 0.4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod chunked;
mod line_hash;
mod mix;
mod parsec_like;
mod pointer_chase;
mod reuse;
mod stack_distance;
mod strided;
pub mod suites;
pub mod values;
mod working_set;
mod zipf;

pub use access::{AccessKind, MemoryAccess, TraceIter, TraceSource};
pub use chunked::ReplayTrace;
pub use line_hash::{LineHasher, LineMap, LineSet};
pub use mix::{MixTrace, MixTraceBuilder};
pub use parsec_like::{ParsecLikeTrace, ParsecLikeTraceBuilder};
pub use pointer_chase::{PointerChaseTrace, PointerChaseTraceBuilder};
pub use reuse::{MissRateProbe, ReuseDistanceProfiler};
pub use stack_distance::{StackDistanceTrace, StackDistanceTraceBuilder};
pub use strided::StridedTrace;
pub use working_set::{WorkingSetTrace, WorkingSetTraceBuilder};
pub use zipf::{ZipfTrace, ZipfTraceBuilder};
