//! Bank-partitioned parallel simulation with bit-identical statistics.
//!
//! Trace-driven simulation is serial by nature: every access mutates
//! cache state the next access may depend on. But a set-associative cache
//! decomposes exactly by *set* — replacement only compares lines within
//! one set, cold-miss classification is per line, and every counter is an
//! additive `u64`. Partitioning the *address space* therefore partitions
//! the caches into independent banks, exactly like the address-interleaved
//! banks of real hardware: each worker simulates its bank's subsequence of
//! the shared trace on a private copy of the system, and the merged
//! counters equal a 1-bank run bit for bit — not approximately,
//! identically. There is **one** execution path: a sequential run is the
//! 1-bank case of the same engine, and no `(policy, line size)`
//! combination falls back to anything.
//!
//! Addresses are interleaved at the *partition granularity* `g` — the
//! coarser of the line sizes in play (`bank = (address / g) % banks`).
//! The partition is sound when every state transition an access triggers
//! stays inside its own bank:
//!
//! * **Set residue.** All quantities are powers of two, so the bank index
//!   occupies address bits `[log2 g, log2 g + log2 banks)`. A cache with
//!   line size `l ≤ g` and `s` sets indexes its set from bits
//!   `[log2 l, log2 l + log2 s)`; the bank bits are a sub-field of the
//!   set bits whenever `banks ≤ s / (g / l)` — the cache's set count
//!   *aligned* to the partition granularity. Banks therefore touch
//!   disjoint sets in every cache level, and the intra-set order each
//!   bank observes is the same subsequence it would observe in a 1-bank
//!   run.
//! * **Victim locality.** An evicted victim shares its set with the
//!   incoming line, hence shares its bank bits — L1 dirty victims written
//!   through to the L2, L1 victims filling an exclusive L2, inclusive
//!   back-invalidations, directory updates, and invalidations all land in
//!   the bank that produced them. Mismatched L1/L2 line sizes are exactly
//!   why the partition granularity is the *coarser* line size: every
//!   finer-grained line inside one coarse line belongs to the same bank,
//!   so cross-level transfers never cross banks.
//! * **Replacement locality.** LRU, FIFO, and tree-PLRU state is per set
//!   by construction. Random replacement draws from a **per-set** RNG
//!   stream derived from `(policy seed, set index)`
//!   (`bandwall_numerics::Rng::seed_from_stream`; see `pipeline.rs`), so
//!   a set's victim sequence is a function of its own access subsequence
//!   alone — merged parallel statistics are bit-identical to the 1-bank
//!   run by construction, not by luck.
//! * **Additive counters.** Hits, misses, evictions, write-backs, traffic
//!   bytes, sharer counts, and coherence events sum across banks in any
//!   fixed order; the engine merges in bank order for determinism.
//!
//! These arguments hold for *every* [`FillSpec`] of the unified pipeline:
//! sector validity is per line, a footprint prediction is keyed by the
//! line address, and a compressed set's byte budget —
//! including the multi-victim evictions it can trigger — is confined to
//! that set, while the value generator feeding the compressor is a pure
//! function of the line address.
//!
//! [`Partitioning`] makes the partition inspectable: it reports the bank
//! count, the granularity, and whether geometry capped the requested
//! thread count. There is deliberately no "fallback" variant — a
//! degraded path is unrepresentable.
//!
//! Trace generation stays sequential — generators like
//! `ParsecLikeTrace` carry cross-thread state (echo queues), so the
//! calling thread produces the exact sequential stream in chunks, splits
//! each chunk into per-bank batches, and sends each worker only its own
//! accesses over bounded channels; workers hand drained batch buffers
//! back for reuse, so the steady state circulates a fixed set of
//! allocations. Generation is cheap relative to simulation: measured
//! with `bandwall bench sim_engine` on a 2-vCPU Xeon VM, the Figure 14
//! trace costs about 50 ns per access to generate (`fig14_trace_gen`)
//! and 145 ns to simulate on one bank (`fig14_sim_seq`). Up to about
//! three banks the pipeline therefore scales with the slowest bank;
//! past that, the generating thread bounds it.
//!
//! # Examples
//!
//! ```
//! use bandwall_cache_sim::{CacheConfig, CmpSimConfig, FillSpec, L2Organization};
//! use bandwall_trace::ParsecLikeTrace;
//!
//! let sim = CmpSimConfig {
//!     cores: 4,
//!     l1: CacheConfig::new(512, 64, 2)?,
//!     l2: CacheConfig::new(64 << 10, 64, 8)?,
//!     organization: L2Organization::Shared,
//!     l2_fill: FillSpec::FullLine,
//!     flush: false,
//! };
//! let trace = || ParsecLikeTrace::builder(4).seed(9).build();
//! let one_bank = sim.run(&mut trace(), 20_000, 1)?;
//! let banked = sim.run(&mut trace(), 20_000, 4)?;
//! assert_eq!(one_bank, banked); // bit-identical, not approximate
//! # Ok::<(), bandwall_cache_sim::ConfigError>(())
//! ```

use crate::cmp::{CmpSystem, L2Organization};
use crate::coherence::{CoherenceStats, CoherentCmp};
use crate::config::{CacheConfig, ConfigError};
use crate::pipeline::{
    fetch_savings, overfetch_fraction, CompressedFill, Fill, FillSpec, FullLineFill, PipelineCache,
    PredictiveSectoredFill, SectoredCompressedFill, SectoredFill,
};
use crate::stats::{CacheStats, MemoryTraffic, SharingStats};
use bandwall_compress::CompressionStats;
use bandwall_trace::{MemoryAccess, TraceSource};
use std::sync::mpsc;
use std::thread;

/// Accesses per generated chunk: large enough to amortise channel
/// traffic, small enough to keep workers fed.
const CHUNK_LEN: usize = 8192;

/// Batches buffered per worker channel before the generator blocks.
const CHANNEL_DEPTH: usize = 4;

/// Largest power of two ≤ `threads` that divides `sets` (a power of two).
fn pow2_banks(sets: u64, threads: usize) -> usize {
    let mut banks = 1usize;
    while banks * 2 <= threads && sets.is_multiple_of(banks as u64 * 2) {
        banks *= 2;
    }
    banks
}

/// How a run partitions at a given thread count — the introspection
/// every config exposes via `partitioning(threads)`.
///
/// Both variants describe a fully banked run on the single execution
/// path; the enum distinguishes *why* the bank count is what it is.
/// There is no fallback variant: every `(policy, line size, fill)`
/// combination partitions, so a degraded path cannot even be expressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioning {
    /// Every requested thread got its own bank (`banks == threads`;
    /// `threads == 1` is the sequential special case of the same path).
    Full {
        /// Independent banks the run executes.
        banks: usize,
        /// Address-interleave granularity in bytes (the coarser line
        /// size in play).
        granularity: u64,
    },
    /// Geometry capped the bank count below the requested threads:
    /// banks must be a power of two dividing the granularity-aligned
    /// set count.
    Capped {
        /// Independent banks the run executes (< requested threads).
        banks: usize,
        /// Address-interleave granularity in bytes.
        granularity: u64,
        /// The smallest set count across cache levels after aligning
        /// each level to the partition granularity — the hard ceiling
        /// on the bank count.
        aligned_sets: u64,
    },
}

impl Partitioning {
    fn compute(threads: usize, granularity: u64, aligned_sets: u64) -> Partitioning {
        let threads = threads.max(1);
        let banks = pow2_banks(aligned_sets, threads);
        if banks == threads {
            Partitioning::Full { banks, granularity }
        } else {
            Partitioning::Capped {
                banks,
                granularity,
                aligned_sets,
            }
        }
    }

    /// Independent banks the run executes (1 = the sequential case).
    pub fn banks(&self) -> usize {
        match *self {
            Partitioning::Full { banks, .. } | Partitioning::Capped { banks, .. } => banks,
        }
    }

    /// Address-interleave granularity in bytes.
    pub fn granularity(&self) -> u64 {
        match *self {
            Partitioning::Full { granularity, .. } | Partitioning::Capped { granularity, .. } => {
                granularity
            }
        }
    }
}

/// The set count `config` contributes to the bank ceiling when the trace
/// is interleaved at `granularity` bytes: its sets, shrunk by the ratio
/// of the partition granularity to its own line size (floored at 1 so a
/// tiny cache degrades the bank count, never the arithmetic).
fn aligned_sets(config: &CacheConfig, granularity: u64) -> u64 {
    (config.sets() / (granularity / config.line_size())).max(1)
}

/// Expands `body` once per [`FillSpec`] variant with `fill` bound to the
/// matching concrete [`Fill`] value, so run methods stay monomorphic over
/// the pipeline without boxing the fill policy.
macro_rules! with_fill {
    ($spec:expr, $fill:ident => $body:expr) => {
        match $spec {
            FillSpec::FullLine => {
                let $fill = FullLineFill;
                $body
            }
            FillSpec::Sectored { sectors_per_line } => {
                let $fill = SectoredFill::new(sectors_per_line);
                $body
            }
            FillSpec::PredictiveSectored { sectors_per_line } => {
                let $fill = PredictiveSectoredFill::new(sectors_per_line);
                $body
            }
            FillSpec::Compressed { compressor, values } => {
                let $fill = CompressedFill::from_spec(compressor, values);
                $body
            }
            FillSpec::SectoredCompressed {
                sectors_per_line,
                compressor,
                values,
            } => {
                let $fill = SectoredCompressedFill::from_spec(sectors_per_line, compressor, values);
                $body
            }
        }
    };
}

/// A single-cache simulation over the unified pipeline: geometry, fill
/// policy, and run policy.
///
/// This is the engine entry point for the standalone cache variants
/// (`Cache`, `SectoredCache`, `PredictiveSectoredCache`,
/// `CompressedCache`, and the composed `SectoredCompressedCache`): pick
/// the variant with
/// [`EngineSimConfig::fill`]. [`EngineSimConfig::run`] produces
/// bit-identical [`EngineSimStats`] at every thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineSimConfig {
    /// Cache geometry.
    pub cache: CacheConfig,
    /// Fill-granularity policy (which pipeline variant to run).
    pub fill: FillSpec,
    /// Drain the cache after the trace, accounting final write-backs.
    pub flush: bool,
}

/// Merged statistics of one single-cache simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineSimStats {
    /// Hit/miss/eviction counters.
    pub cache: CacheStats,
    /// Traffic as the cache observed it (fetches at fill granularity,
    /// write-backs of dirty victims).
    pub traffic: MemoryTraffic,
    /// Compressed-size statistics (all-zero for uncompressed fills).
    pub compression: CompressionStats,
    /// Misses on resident lines whose sector was absent (sectored fills).
    pub sector_misses: u64,
    /// Bytes a conventional whole-line cache would have fetched.
    pub conventional_fetch_bytes: u64,
    /// Sectors fetched on a footprint prediction (predictive fills).
    pub prefetched_sectors: u64,
    /// Prefetched sectors evicted or flushed without being accessed.
    pub overfetched_sectors: u64,
}

impl EngineSimStats {
    /// Fraction of fetch traffic eliminated relative to whole-line
    /// fetching, as [`PipelineCache::fetch_savings`] reports it.
    pub fn fetch_savings(&self) -> f64 {
        fetch_savings(self.traffic.fetched_bytes(), self.conventional_fetch_bytes)
    }

    /// Fraction of prefetched sectors never used, as
    /// [`PipelineCache::overfetch_fraction`] reports it.
    pub fn overfetch_fraction(&self) -> f64 {
        overfetch_fraction(self.prefetched_sectors, self.overfetched_sectors)
    }
}

impl EngineSimConfig {
    /// The partition a run at this thread count uses. Every policy and
    /// fill partitions; only the set count can cap the bank count.
    pub fn partitioning(&self, threads: usize) -> Partitioning {
        Partitioning::compute(threads, self.cache.line_size(), self.cache.sets())
    }

    /// Runs the first `accesses` of `trace` on up to `threads` bank
    /// workers. The merged statistics are bit-identical at every thread
    /// count; `run(trace, n, 1)` is the sequential case of the same
    /// path.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::OutOfRange`] when the fill does not fit the
    /// cache: a sector count that is not a power of two, above 64 or
    /// above the line's bytes, or tree-PLRU over a compressed fill or a
    /// non-power-of-two associativity.
    // with_fill! expands this body once per fill variant; the clone the
    // non-Copy compressed fills need trips clone_on_copy on the Copy ones.
    #[allow(clippy::clone_on_copy)]
    pub fn run<T: TraceSource>(
        &self,
        trace: &mut T,
        accesses: usize,
        threads: usize,
    ) -> Result<EngineSimStats, ConfigError> {
        self.fill.check(&self.cache)?;
        let partitioning = self.partitioning(threads);
        with_fill!(self.fill, fill => {
            let per_bank = run_banked(trace, accesses, partitioning, |stream| {
                let mut cache = PipelineCache::with_fill(self.cache, fill.clone());
                while let Some(batch) = stream.next_batch() {
                    for a in batch {
                        cache.access_from(a.thread(), a.address(), a.kind().is_write());
                    }
                }
                self.collect(cache)
            });
            let mut merged = per_bank[0];
            for bank in &per_bank[1..] {
                merged.cache.merge(&bank.cache);
                merged.traffic.merge(&bank.traffic);
                merged.compression.merge(&bank.compression);
                merged.sector_misses += bank.sector_misses;
                merged.conventional_fetch_bytes += bank.conventional_fetch_bytes;
                merged.prefetched_sectors += bank.prefetched_sectors;
                merged.overfetched_sectors += bank.overfetched_sectors;
            }
            Ok(merged)
        })
    }

    fn collect<F: Fill>(&self, mut cache: PipelineCache<F>) -> EngineSimStats {
        if self.flush {
            cache.flush();
        }
        EngineSimStats {
            cache: *cache.stats(),
            traffic: *cache.traffic(),
            compression: *cache.compression(),
            sector_misses: cache.sector_misses(),
            conventional_fetch_bytes: cache.conventional_fetch_bytes(),
            prefetched_sectors: cache.prefetched_sectors(),
            overfetched_sectors: cache.overfetched_sectors(),
        }
    }
}

/// A complete CMP simulation: geometry plus run policy.
///
/// [`CmpSimConfig::run`] produces bit-identical [`CmpSimStats`] at every
/// thread count; the engine shards the system into address-interleaved
/// banks at the coarser of the two line sizes (see the module docs for
/// the argument). A shared or non-inclusive private L2 runs any
/// [`FillSpec`]; inclusive and exclusive private L2s need
/// [`FillSpec::FullLine`] and the L1's line size. The L1s are always
/// whole-line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmpSimConfig {
    /// Number of cores (one L1 each).
    pub cores: u16,
    /// Per-core L1 geometry.
    pub l1: CacheConfig,
    /// L2 geometry (the one shared cache, or each private L2).
    pub l2: CacheConfig,
    /// Shared L2, or private L2s (non-inclusive, inclusive or
    /// exclusive of their core's L1).
    pub organization: L2Organization,
    /// L2 fill policy (sectored/compressed L2s compose with the CMP).
    pub l2_fill: FillSpec,
    /// Drain both cache levels after the trace, accounting final
    /// write-backs.
    pub flush: bool,
}

/// Merged statistics of one CMP simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmpSimStats {
    /// L1 counters summed across cores.
    pub l1: CacheStats,
    /// L2 counters (shared cache, or summed private L2s).
    pub l2: CacheStats,
    /// Off-chip traffic.
    pub traffic: MemoryTraffic,
    /// Sharer tracking of the shared L2 (`None` for private L2s).
    pub sharing: Option<SharingStats>,
}

impl CmpSimConfig {
    /// The partition a run at this thread count uses: addresses are
    /// interleaved at the *coarser* of the L1/L2 line sizes, and the
    /// bank count is the largest power of two ≤ `threads` dividing the
    /// smaller granularity-aligned set count. Every policy — Random
    /// included — and every line-size pairing partitions.
    pub fn partitioning(&self, threads: usize) -> Partitioning {
        let granularity = self.l1.line_size().max(self.l2.line_size());
        let sets = aligned_sets(&self.l1, granularity).min(aligned_sets(&self.l2, granularity));
        Partitioning::compute(threads, granularity, sets)
    }

    fn build_with<F2: Fill>(&self, fill: F2) -> Result<CmpSystem<F2>, ConfigError> {
        CmpSystem::try_with_l2_fill(self.cores, self.l1, self.l2, self.organization, fill)
    }

    fn collect<F2: Fill>(&self, mut system: CmpSystem<F2>) -> CmpSimStats {
        if self.flush {
            system.flush();
        }
        CmpSimStats {
            l1: system.l1_stats(),
            l2: system.l2_stats(),
            traffic: *system.memory_traffic(),
            sharing: system.sharing().copied(),
        }
    }

    /// Runs the first `accesses` of `trace` on up to `threads` bank
    /// workers. The merged statistics are bit-identical at every thread
    /// count; `run(trace, n, 1)` is the sequential case of the same
    /// path.
    ///
    /// The trace is generated sequentially on the calling thread and
    /// split into per-bank batches; each worker simulates the address
    /// bank `(address / granularity) % banks == b` on a private copy of
    /// the system.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Zero`] for zero cores, and
    /// [`ConfigError::OutOfRange`] when the organisation is
    /// [`L2Organization::InclusivePrivate`] or
    /// [`L2Organization::ExclusivePrivate`] and the L2 is sectored,
    /// compressed, or of another line size than the L1, or when a fill
    /// does not fit its cache as [`EngineSimConfig::run`] describes (the
    /// L1s are whole-line).
    // with_fill! expands this body once per fill variant; the clone the
    // non-Copy compressed fills need trips clone_on_copy on the Copy ones.
    #[allow(clippy::clone_on_copy)]
    pub fn run<T: TraceSource>(
        &self,
        trace: &mut T,
        accesses: usize,
        threads: usize,
    ) -> Result<CmpSimStats, ConfigError> {
        FillSpec::FullLine.check(&self.l1)?;
        self.l2_fill.check(&self.l2)?;
        let partitioning = self.partitioning(threads);
        with_fill!(self.l2_fill, fill => {
            self.build_with(fill.clone())?; // surface geometry errors before spawning
            let per_bank = run_banked(trace, accesses, partitioning, |stream| {
                let mut system = self.build_with(fill.clone()).expect("validated above");
                while let Some(batch) = stream.next_batch() {
                    for a in batch {
                        system.access(*a);
                    }
                }
                self.collect(system)
            });
            let mut merged = per_bank[0];
            for bank in &per_bank[1..] {
                merged.l1.merge(&bank.l1);
                merged.l2.merge(&bank.l2);
                merged.traffic.merge(&bank.traffic);
                if let (Some(m), Some(s)) = (merged.sharing.as_mut(), bank.sharing.as_ref()) {
                    m.merge(s);
                }
            }
            Ok(merged)
        })
    }
}

/// A coherent private-cache CMP simulation: geometry plus run policy.
///
/// The directory-MSI analogue of [`CmpSimConfig`], with the same
/// bit-identical any-thread-count contract: the directory, the lost-line
/// map, and every invalidation or transfer an access triggers are keyed
/// by the accessed line, so they stay inside its bank. The private
/// caches run any [`FillSpec`] (coherent+compressed is the composition
/// the paper's footnote reasons about).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoherentSimConfig {
    /// Number of cores (one private cache each, max 64).
    pub cores: u16,
    /// Per-core cache geometry.
    pub cache: CacheConfig,
    /// Private-cache fill policy.
    pub fill: FillSpec,
    /// Drain all caches after the trace, accounting final write-backs.
    pub flush: bool,
}

/// Merged statistics of one coherent-CMP simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoherentSimStats {
    /// Cache counters summed across cores.
    pub cache: CacheStats,
    /// Off-chip traffic (cache-to-cache transfers stay on chip).
    pub traffic: MemoryTraffic,
    /// Coherence event counters.
    pub coherence: CoherenceStats,
}

impl CoherentSimConfig {
    /// The partition a run at this thread count uses. Every policy —
    /// Random included — partitions; only the set count can cap the
    /// bank count.
    pub fn partitioning(&self, threads: usize) -> Partitioning {
        Partitioning::compute(threads, self.cache.line_size(), self.cache.sets())
    }

    fn build_with<F: Fill>(&self, fill: F) -> Result<CoherentCmp<F>, ConfigError> {
        CoherentCmp::try_with_fill(self.cores, self.cache, fill)
    }

    fn collect<F: Fill>(&self, mut system: CoherentCmp<F>) -> CoherentSimStats {
        if self.flush {
            system.flush();
        }
        CoherentSimStats {
            cache: system.cache_stats(),
            traffic: *system.memory_traffic(),
            coherence: *system.coherence(),
        }
    }

    /// Runs the first `accesses` of `trace` on up to `threads` bank
    /// workers. The merged statistics are bit-identical at every thread
    /// count; `run(trace, n, 1)` is the sequential case of the same
    /// path.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when `cores` is 0 or exceeds 64, or when
    /// the fill does not fit the cache as [`EngineSimConfig::run`]
    /// describes.
    // with_fill! expands this body once per fill variant; the clone the
    // non-Copy compressed fills need trips clone_on_copy on the Copy ones.
    #[allow(clippy::clone_on_copy)]
    pub fn run<T: TraceSource>(
        &self,
        trace: &mut T,
        accesses: usize,
        threads: usize,
    ) -> Result<CoherentSimStats, ConfigError> {
        self.fill.check(&self.cache)?;
        let partitioning = self.partitioning(threads);
        with_fill!(self.fill, fill => {
            self.build_with(fill.clone())?;
            let per_bank = run_banked(trace, accesses, partitioning, |stream| {
                let mut system = self.build_with(fill.clone()).expect("validated above");
                while let Some(batch) = stream.next_batch() {
                    for a in batch {
                        system.access(*a);
                    }
                }
                self.collect(system)
            });
            let mut merged = per_bank[0];
            for bank in &per_bank[1..] {
                merged.cache.merge(&bank.cache);
                merged.traffic.merge(&bank.traffic);
                merged.coherence.merge(&bank.coherence);
            }
            Ok(merged)
        })
    }
}

/// A lending stream of access batches — the unit the bank workers
/// consume. One virtual call hands over thousands of accesses, replacing
/// the historical per-access `dyn Iterator` hop on the simulation hot
/// path; the returned slice borrow ends at the next call, so
/// implementations can recycle one buffer.
trait BatchStream {
    /// The next batch of accesses, or `None` when the stream ends.
    fn next_batch(&mut self) -> Option<&[MemoryAccess]>;
}

/// Sequential batch stream: each batch is what
/// [`TraceSource::next_accesses`] hands over, so a recorded trace is read
/// in place and any other source fills one reusable chunk buffer,
/// allocated on first use, for the whole run.
struct ChunkedTraceStream<'a, T> {
    source: &'a mut T,
    remaining: usize,
    buf: Vec<MemoryAccess>,
}

impl<T: TraceSource> BatchStream for ChunkedTraceStream<'_, T> {
    fn next_batch(&mut self) -> Option<&[MemoryAccess]> {
        if self.remaining == 0 {
            return None;
        }
        let batch = next_chunk(self.source, self.remaining, &mut self.buf);
        self.remaining -= batch.len();
        Some(batch)
    }
}

/// The next chunk of at most [`CHUNK_LEN`] of the `remaining` accesses.
fn next_chunk<'a, T: TraceSource>(
    source: &'a mut T,
    remaining: usize,
    buf: &'a mut Vec<MemoryAccess>,
) -> &'a [MemoryAccess] {
    let chunk = source.next_accesses(CHUNK_LEN.min(remaining), buf);
    assert!(!chunk.is_empty(), "a trace source returned no accesses");
    chunk
}

/// One bank's pre-filtered batches of the trace stream. Drained batch
/// buffers are returned to the generator through the recycle channel, so
/// the steady state circulates a fixed set of allocations instead of
/// allocating one `Vec` per batch.
struct BankBatches {
    rx: mpsc::Receiver<Vec<MemoryAccess>>,
    recycle: mpsc::Sender<Vec<MemoryAccess>>,
    current: Vec<MemoryAccess>,
}

impl BatchStream for BankBatches {
    fn next_batch(&mut self) -> Option<&[MemoryAccess]> {
        if !self.current.is_empty() {
            // The generator may already have exited; a dead recycle
            // channel just means the buffer drops here.
            let _ = self.recycle.send(std::mem::take(&mut self.current));
        }
        self.current = self.rx.recv().ok()?;
        Some(&self.current)
    }
}

/// Runs `simulate` once per bank over the first `accesses` of `trace`
/// and returns the results in bank order.
///
/// One bank runs on the calling thread with the stream fed straight
/// through — the sequential case, same closure, no channels. With more
/// banks, the trace is generated sequentially on the calling thread,
/// each chunk is split into per-bank batches (one channel send per
/// non-empty batch, so workers never scan accesses that are not
/// theirs), and scoped workers drain their own queue batch by batch,
/// recycling drained buffers back to the generator.
fn run_banked<T, R, F>(
    trace: &mut T,
    accesses: usize,
    partitioning: Partitioning,
    simulate: F,
) -> Vec<R>
where
    T: TraceSource,
    R: Send,
    F: Fn(&mut dyn BatchStream) -> R + Sync,
{
    let banks = partitioning.banks();
    let granularity = partitioning.granularity();
    if banks == 1 {
        return vec![simulate(&mut ChunkedTraceStream {
            source: trace,
            remaining: accesses,
            buf: Vec::new(),
        })];
    }
    thread::scope(|scope| {
        let (recycle_tx, recycle_rx) = mpsc::channel::<Vec<MemoryAccess>>();
        let mut senders = Vec::with_capacity(banks);
        let mut handles = Vec::with_capacity(banks);
        for _ in 0..banks {
            let (tx, rx) = mpsc::sync_channel::<Vec<MemoryAccess>>(CHANNEL_DEPTH);
            senders.push(tx);
            let simulate = &simulate;
            let recycle = recycle_tx.clone();
            handles.push(scope.spawn(move || {
                let mut batches = BankBatches {
                    rx,
                    recycle,
                    current: Vec::new(),
                };
                simulate(&mut batches)
            }));
        }
        drop(recycle_tx);
        let batch_capacity = CHUNK_LEN / banks + CHUNK_LEN / (banks * 4);
        let mut chunk_buf: Vec<MemoryAccess> = Vec::new();
        let mut remaining = accesses;
        while remaining > 0 {
            let chunk = next_chunk(trace, remaining, &mut chunk_buf);
            remaining -= chunk.len();
            let mut batches: Vec<Vec<MemoryAccess>> = (0..banks)
                .map(|_| match recycle_rx.try_recv() {
                    Ok(mut recycled) => {
                        recycled.clear();
                        recycled
                    }
                    Err(_) => Vec::with_capacity(batch_capacity),
                })
                .collect();
            for &a in chunk {
                let bank = ((a.address() / granularity) % banks as u64) as usize;
                batches[bank].push(a);
            }
            for (tx, batch) in senders.iter().zip(batches) {
                if !batch.is_empty() {
                    // A worker only disconnects by panicking; propagate on
                    // join.
                    let _ = tx.send(batch);
                }
            }
        }
        drop(senders);
        // Join every worker, then re-raise the lowest-numbered bank's
        // panic with its own payload, so the caller sees the same message
        // at every bank count.
        let mut results = Vec::with_capacity(banks);
        let mut panicked = None;
        for handle in handles {
            match handle.join() {
                Ok(result) => results.push(result),
                Err(payload) => {
                    panicked.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
        results
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReplacementPolicy;
    use crate::pipeline::{CompressorKind, ProfileKind, ValueSpec};
    use bandwall_trace::ParsecLikeTrace;

    fn shared_config() -> CmpSimConfig {
        CmpSimConfig {
            cores: 4,
            l1: CacheConfig::new(512, 64, 2).unwrap(),
            l2: CacheConfig::new(64 << 10, 64, 8).unwrap(),
            organization: L2Organization::Shared,
            l2_fill: FillSpec::FullLine,
            flush: false,
        }
    }

    #[test]
    fn partitioning_respects_geometry_not_policy() {
        let c = shared_config();
        // L1 has 4 sets, L2 has 128: the ceiling is 4.
        assert_eq!(
            c.partitioning(1),
            Partitioning::Full {
                banks: 1,
                granularity: 64
            }
        );
        assert_eq!(c.partitioning(2).banks(), 2);
        assert_eq!(c.partitioning(4).banks(), 4);
        assert_eq!(
            c.partitioning(8),
            Partitioning::Capped {
                banks: 4,
                granularity: 64,
                aligned_sets: 4
            }
        );
        assert_eq!(c.partitioning(0).banks(), 1);

        // Random replacement partitions like any other policy.
        let mut random = c;
        random.l2 = CacheConfig::new(64 << 10, 64, 8)
            .unwrap()
            .with_policy(ReplacementPolicy::Random);
        assert_eq!(random.partitioning(4).banks(), 4);

        // Mismatched line sizes interleave at the coarser granularity:
        // the 4-set L1 (64 B lines) aligned to 128 B has 2 groups.
        let mut mismatched = c;
        mismatched.l2 = CacheConfig::new(64 << 10, 128, 8).unwrap();
        assert_eq!(
            mismatched.partitioning(8),
            Partitioning::Capped {
                banks: 2,
                granularity: 128,
                aligned_sets: 2
            }
        );
    }

    #[test]
    fn parallel_matches_one_bank_shared() {
        let c = shared_config();
        let trace = || {
            ParsecLikeTrace::builder_with_regions(4, 600, 400)
                .seed(11)
                .build()
        };
        let seq = c.run(&mut trace(), 30_000, 1).unwrap();
        for threads in [2, 4, 8] {
            let par = c.run(&mut trace(), 30_000, threads).unwrap();
            assert_eq!(seq, par, "threads {threads}");
        }
    }

    #[test]
    fn parallel_matches_one_bank_with_flush() {
        let mut c = shared_config();
        c.flush = true;
        let trace = || ParsecLikeTrace::builder(4).seed(5).build();
        let seq = c.run(&mut trace(), 20_000, 1).unwrap();
        let par = c.run(&mut trace(), 20_000, 4).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn coherent_parallel_matches_one_bank() {
        let c = CoherentSimConfig {
            cores: 4,
            cache: CacheConfig::new(4096, 64, 4).unwrap(),
            fill: FillSpec::FullLine,
            flush: true,
        };
        let trace = || {
            ParsecLikeTrace::builder_with_regions(4, 300, 200)
                .seed(23)
                .build()
        };
        let seq = c.run(&mut trace(), 25_000, 1).unwrap();
        for threads in [2, 4] {
            let par = c.run(&mut trace(), 25_000, threads).unwrap();
            assert_eq!(seq, par, "threads {threads}");
        }
    }

    #[test]
    fn invalid_geometry_is_an_error_not_a_panic() {
        let mut c = shared_config();
        c.cores = 0;
        let mut t = ParsecLikeTrace::builder(1).seed(1).build();
        assert!(c.run(&mut t, 10, 1).is_err());
        assert!(c.run(&mut t, 10, 4).is_err());
        // Inclusion over a sectored L2 is outside the organisation's domain.
        let mut c = shared_config();
        c.organization = L2Organization::InclusivePrivate;
        c.l2_fill = FillSpec::Sectored {
            sectors_per_line: 4,
        };
        for threads in [1, 4] {
            assert!(matches!(
                c.run(&mut t, 10, threads),
                Err(ConfigError::OutOfRange {
                    name: "organization",
                    ..
                })
            ));
        }

        // A fill that does not fit its cache is an error on every runner
        // at every bank count, never a panic inside a bank worker.
        let cache = CacheConfig::new(4096, 64, 4).unwrap();
        let plru = cache.with_policy(ReplacementPolicy::TreePlru);
        let compressed = FillSpec::Compressed {
            compressor: CompressorKind::Fpc,
            values: ValueSpec {
                profile: ProfileKind::Commercial,
                seed: 1,
            },
        };
        let cases = [
            (plru, compressed, "policy"),
            (
                cache,
                FillSpec::Sectored {
                    sectors_per_line: 128,
                },
                "sectors_per_line",
            ),
            (
                cache,
                FillSpec::Sectored {
                    sectors_per_line: 3,
                },
                "sectors_per_line",
            ),
        ];
        fn out_of_range<T>(result: Result<T, ConfigError>) -> Option<&'static str> {
            match result {
                Err(ConfigError::OutOfRange { name, .. }) => Some(name),
                _ => None,
            }
        }
        for (cache, fill, name) in cases {
            let cmp = CmpSimConfig {
                l2: cache,
                l2_fill: fill,
                ..shared_config()
            };
            let coherent = CoherentSimConfig {
                cores: 4,
                cache,
                fill,
                flush: false,
            };
            let engine = EngineSimConfig {
                cache,
                fill,
                flush: false,
            };
            for threads in [1, 4] {
                let mut t = ParsecLikeTrace::builder(4).seed(1).build();
                let runs = [
                    out_of_range(cmp.run(&mut t, 10, threads)),
                    out_of_range(coherent.run(&mut t, 10, threads)),
                    out_of_range(engine.run(&mut t, 10, threads)),
                ];
                assert_eq!(runs, [Some(name); 3], "{fill:?} at {threads} threads");
            }
        }
    }

    #[test]
    fn a_bank_panic_keeps_its_message_at_every_bank_count() {
        // Only thread 3 of the 4-thread trace is out of range, so every
        // bank fails with the same message.
        let c = CmpSimConfig {
            cores: 3,
            ..shared_config()
        };
        let message = |banks: usize| {
            let mut t = ParsecLikeTrace::builder(4).seed(1).build();
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                c.run(&mut t, 20_000, banks)
            }))
            .expect_err("thread 3 must overflow a 3-core CMP");
            payload
                .downcast_ref::<String>()
                .cloned()
                .expect("a formatted panic message")
        };
        assert_eq!(message(1), "thread 3 exceeds core count 3");
        for banks in [2, 4] {
            assert_eq!(message(banks), message(1), "{banks} banks");
        }
    }
}
