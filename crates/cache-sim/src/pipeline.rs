//! The unified access pipeline: one generic set-associative engine
//! parameterised by a fill-granularity policy.
//!
//! Historically this crate carried five hand-forked copies of the same
//! set/way/replacement core (`Cache`, `SectoredCache`, `CompressedCache`,
//! plus the per-level caches inside `CmpSystem` and `CoherentCmp`). They
//! differed only in *fill granularity* — whole lines, sectors, or
//! compressed bytes — yet each reimplemented lookup, victim selection,
//! and eviction/write-back accounting, so compositions such as
//! "sectored + compressed" were inexpressible.
//!
//! [`PipelineCache`] replaces all of them. The generic core owns:
//!
//! * set/way lookup and replacement (LRU, FIFO, Random, tree-PLRU);
//! * a stack of composable observers — hit/miss/eviction statistics,
//!   fetch/write-back traffic, compression statistics, optional word-usage
//!   and sharer tracking — with a **single** copy of the eviction and
//!   write-back bookkeeping ([`ObserverStack::retire`]);
//! * cold-miss classification and the replacement-policy RNG.
//!
//! Random replacement draws from a **per-set** RNG stream derived from
//! `(policy seed, set index)` via [`Rng::seed_from_stream`], never from a
//! shared per-cache stream. This makes every victim choice a function of
//! the set's own access subsequence alone — the property that lets the
//! bank-partitioned parallel engine (`parallel.rs`) run Random-replacement
//! configurations with merged statistics bit-identical to a sequential
//! run, because a bank observes exactly the subsequence its sets would
//! have observed sequentially.
//!
//! The [`Fill`] policy decides how much data moves per miss and how many
//! bytes a resident line occupies:
//!
//! * [`FullLineFill`] — the conventional cache (`Cache`);
//! * [`SectoredFill`] — fetch only referenced sectors (`SectoredCache`);
//! * [`PredictiveSectoredFill`] — sectored, plus a last-footprint
//!   predictor that prefetches the sectors a line used during its previous
//!   residency (`PredictiveSectoredCache`);
//! * [`CompressedFill`] — byte-budgeted sets storing compressed lines
//!   (`CompressedCache`);
//! * [`SectoredCompressedFill`] — both at once, which no pre-pipeline
//!   variant could express.
//!
//! The cache types are thin aliases over this engine (see `cache.rs`,
//! `sectored.rs`, `compressed.rs`).

use crate::config::{CacheConfig, ConfigError, ReplacementPolicy};
use crate::stats::{CacheStats, MemoryTraffic, SharingStats, WordUsageStats};
use bandwall_compress::{Bdi, BestOf, CompressionStats, Compressor, Fpc, ZeroRle};
use bandwall_numerics::Rng;
use bandwall_trace::values::{LineValueGenerator, ValueProfile};
use bandwall_trace::{LineMap, PagedLineTable, PAGE_LINES};

/// How a miss fills a line: granularity fetched, bytes occupied, and —
/// for compressed policies — where payload values come from.
///
/// Implementations are cheap, cloneable value objects; the engine consults
/// them on every fill. The provided defaults describe a conventional
/// whole-line cache, so [`FullLineFill`] overrides nothing.
pub trait Fill: Clone {
    /// Sectors a line is divided into (1 = whole-line fills).
    fn sectors_per_line(&self) -> u32 {
        1
    }

    /// Whether sets hold a *byte budget* of compressed lines rather than
    /// one line per way.
    fn budgeted(&self) -> bool {
        false
    }

    /// Whether a line miss also fetches the sectors the line used during
    /// its previous residency (last-footprint prediction).
    fn predicts_footprints(&self) -> bool {
        false
    }

    /// Stored (compressed) size for a line payload, or `None` when lines
    /// occupy their full size.
    fn stored_size(&self, data: &[u8]) -> Option<usize> {
        let _ = data;
        None
    }

    /// Synthesises the payload for a data-free access into a reusable
    /// caller buffer (cleared first), returning whether the policy
    /// produced one. The engine threads one scratch buffer through the
    /// access path so steady-state misses allocate nothing.
    fn generate_into(&self, line_byte_address: u64, line_size: usize, out: &mut Vec<u8>) -> bool {
        let _ = (line_byte_address, line_size, out);
        false
    }

    /// Human-readable policy name for reports and `Debug` output.
    fn label(&self) -> &'static str;
}

/// Whole-line fills: the conventional write-back, write-allocate cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FullLineFill;

impl Fill for FullLineFill {
    fn label(&self) -> &'static str {
        "full-line"
    }
}

/// Sector-granularity fills: a miss fetches only the referenced sector
/// (Section 6.2's "Sectored Caches" technique). Frames are still
/// allocated at line granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectoredFill {
    sectors: u32,
}

impl SectoredFill {
    /// Builds a sectored fill policy.
    ///
    /// # Panics
    ///
    /// Panics if `sectors_per_line` is zero, not a power of two, or
    /// exceeds the 64-bit sector mask.
    pub fn new(sectors_per_line: u32) -> Self {
        assert!(
            sectors_per_line > 0 && sectors_per_line.is_power_of_two(),
            "sectors per line must be a positive power of two"
        );
        assert!(sectors_per_line <= 64, "sector mask is 64 bits");
        SectoredFill {
            sectors: sectors_per_line,
        }
    }
}

impl Fill for SectoredFill {
    fn sectors_per_line(&self) -> u32 {
        self.sectors
    }

    fn label(&self) -> &'static str {
        "sectored"
    }
}

/// Sector-granularity fills with a last-footprint predictor: a line miss
/// fetches the demanded sector plus every sector the line used during its
/// previous residency. This is the spatial-pattern prediction (Chen et
/// al., Kumar & Wilkerson, Pujara & Aggarwal) that the paper cites to
/// justify fetching only the sectors that will be referenced.
///
/// The engine owns the footprint table and counts prefetched and
/// overfetched (prefetched but never used) sectors; see
/// [`PipelineCache::overfetch_fraction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictiveSectoredFill {
    sectors: SectoredFill,
}

impl PredictiveSectoredFill {
    /// Builds a predictive sectored fill policy.
    ///
    /// # Panics
    ///
    /// Panics on the same sector-count constraints as
    /// [`SectoredFill::new`].
    pub fn new(sectors_per_line: u32) -> Self {
        PredictiveSectoredFill {
            sectors: SectoredFill::new(sectors_per_line),
        }
    }
}

impl Fill for PredictiveSectoredFill {
    fn sectors_per_line(&self) -> u32 {
        self.sectors.sectors_per_line()
    }

    fn predicts_footprints(&self) -> bool {
        true
    }

    fn label(&self) -> &'static str {
        "predictive-sectored"
    }
}

/// Compressed storage: lines are stored at their compressed size so each
/// set holds a byte budget (Section 6.1's "Cache Compression").
///
/// The compressed size depends on the line's *values*, which come either
/// from the caller (`access_with_data`) or from an attached
/// [`LineValueGenerator`] for data-free accesses.
#[derive(Clone)]
pub struct CompressedFill {
    compressor: Box<dyn Compressor>,
    values: Option<LineValueGenerator>,
}

impl CompressedFill {
    /// Builds a compressed fill over the given engine; payloads must then
    /// be supplied per access via `access_with_data`.
    pub fn new(compressor: Box<dyn Compressor>) -> Self {
        CompressedFill {
            compressor,
            values: None,
        }
    }

    /// Attaches a value generator so plain `access` calls can synthesise
    /// their own payloads (required for trace-driven and parallel runs).
    #[must_use]
    pub fn with_values(mut self, values: LineValueGenerator) -> Self {
        self.values = Some(values);
        self
    }
}

impl std::fmt::Debug for CompressedFill {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompressedFill")
            .field("compressor", &self.compressor.name())
            .field("generated_values", &self.values.is_some())
            .finish()
    }
}

impl Fill for CompressedFill {
    fn budgeted(&self) -> bool {
        true
    }

    fn stored_size(&self, data: &[u8]) -> Option<usize> {
        Some(self.compressor.compressed_size(data))
    }

    fn generate_into(&self, line_byte_address: u64, line_size: usize, out: &mut Vec<u8>) -> bool {
        match &self.values {
            Some(v) => {
                v.line_bytes_into(line_byte_address, line_size, out);
                true
            }
            None => false,
        }
    }

    fn label(&self) -> &'static str {
        "compressed"
    }
}

/// Sectored *and* compressed: sector-granularity fetches into
/// byte-budgeted compressed sets — the composition the pre-pipeline
/// simulators could not express.
#[derive(Clone)]
pub struct SectoredCompressedFill {
    sectors: SectoredFill,
    compressed: CompressedFill,
}

impl SectoredCompressedFill {
    /// Builds the combined policy.
    ///
    /// # Panics
    ///
    /// Panics on the same sector-count constraints as
    /// [`SectoredFill::new`].
    pub fn new(sectors_per_line: u32, compressor: Box<dyn Compressor>) -> Self {
        SectoredCompressedFill {
            sectors: SectoredFill::new(sectors_per_line),
            compressed: CompressedFill::new(compressor),
        }
    }

    /// Attaches a value generator for data-free accesses.
    #[must_use]
    pub fn with_values(mut self, values: LineValueGenerator) -> Self {
        self.compressed = self.compressed.with_values(values);
        self
    }
}

impl std::fmt::Debug for SectoredCompressedFill {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SectoredCompressedFill")
            .field("sectors", &self.sectors.sectors)
            .field("compressor", &self.compressed.compressor.name())
            .field("generated_values", &self.compressed.values.is_some())
            .finish()
    }
}

impl Fill for SectoredCompressedFill {
    fn sectors_per_line(&self) -> u32 {
        self.sectors.sectors_per_line()
    }

    fn budgeted(&self) -> bool {
        true
    }

    fn stored_size(&self, data: &[u8]) -> Option<usize> {
        self.compressed.stored_size(data)
    }

    fn generate_into(&self, line_byte_address: u64, line_size: usize, out: &mut Vec<u8>) -> bool {
        self.compressed
            .generate_into(line_byte_address, line_size, out)
    }

    fn label(&self) -> &'static str {
        "sectored+compressed"
    }
}

/// A plain-data description of a [`Fill`] policy, for configs that must
/// be `Copy + Send + Sync` (the bank-parallel simulation configs build
/// one concrete fill per worker from the spec, deterministically).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FillSpec {
    /// Whole-line fills ([`FullLineFill`]).
    FullLine,
    /// Sector-granularity fills ([`SectoredFill`]).
    Sectored {
        /// Sectors per line (positive power of two, at most 64).
        sectors_per_line: u32,
    },
    /// Sector-granularity fills with last-footprint prediction
    /// ([`PredictiveSectoredFill`]).
    PredictiveSectored {
        /// Sectors per line (positive power of two, at most 64).
        sectors_per_line: u32,
    },
    /// Compressed byte-budgeted storage ([`CompressedFill`]) with
    /// generated line values.
    Compressed {
        /// Compression engine.
        compressor: CompressorKind,
        /// Synthetic value stream feeding the compressor.
        values: ValueSpec,
    },
    /// Sectored and compressed composed ([`SectoredCompressedFill`]).
    SectoredCompressed {
        /// Sectors per line (positive power of two, at most 64).
        sectors_per_line: u32,
        /// Compression engine.
        compressor: CompressorKind,
        /// Synthetic value stream feeding the compressor.
        values: ValueSpec,
    },
}

impl FillSpec {
    /// Checks that [`PipelineCache::with_fill`] can build this fill over
    /// `cache`, so a run rejects a bad configuration with an error
    /// instead of panicking inside a bank worker: the sector count must
    /// be a power of two, at most 64 (the sector mask) and at most the
    /// line's bytes, and tree-PLRU needs a power-of-two associativity
    /// and fixed ways, which compressed sets do not have.
    pub(crate) fn check(&self, cache: &CacheConfig) -> Result<(), ConfigError> {
        let (sectors, budgeted) = match *self {
            FillSpec::FullLine => (1, false),
            FillSpec::Sectored { sectors_per_line }
            | FillSpec::PredictiveSectored { sectors_per_line } => (sectors_per_line, false),
            FillSpec::Compressed { .. } => (1, true),
            FillSpec::SectoredCompressed {
                sectors_per_line, ..
            } => (sectors_per_line, true),
        };
        let out_of_range = |name, constraint| Err(ConfigError::OutOfRange { name, constraint });
        if !sectors.is_power_of_two() {
            return out_of_range("sectors_per_line", "must be a positive power of two");
        }
        if sectors > 64 {
            return out_of_range("sectors_per_line", "must be at most 64 (the sector mask)");
        }
        if u64::from(sectors) > cache.line_size() {
            return out_of_range("sectors_per_line", "must not exceed the line's bytes");
        }
        if cache.policy() == ReplacementPolicy::TreePlru {
            if !cache.associativity().is_power_of_two() {
                return out_of_range("associativity", "must be a power of two under tree-PLRU");
            }
            if budgeted {
                return out_of_range(
                    "policy",
                    "tree-PLRU needs fixed ways; compressed sets have none",
                );
            }
        }
        Ok(())
    }
}

/// Compression engines nameable from a plain-data [`FillSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompressorKind {
    /// Frequent Pattern Compression.
    Fpc,
    /// Base-Delta-Immediate.
    Bdi,
    /// Zero run-length suppression.
    ZeroRle,
    /// Per-line best of FPC, BDI, and zero-RLE.
    BestOf,
}

impl CompressorKind {
    /// Instantiates the engine.
    pub fn build(self) -> Box<dyn Compressor> {
        match self {
            CompressorKind::Fpc => Box::new(Fpc::new()),
            CompressorKind::Bdi => Box::new(Bdi::new()),
            CompressorKind::ZeroRle => Box::new(ZeroRle::new()),
            CompressorKind::BestOf => Box::new(BestOf::standard()),
        }
    }
}

/// A deterministic synthetic value stream: profile plus seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ValueSpec {
    /// Value-locality profile.
    pub profile: ProfileKind,
    /// Generator seed.
    pub seed: u64,
}

impl ValueSpec {
    /// Instantiates the line-value generator.
    pub fn generator(self) -> LineValueGenerator {
        LineValueGenerator::new(self.profile.profile(), self.seed)
    }
}

/// Value-locality profiles nameable from a plain-data [`ValueSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProfileKind {
    /// Commercial-workload value mix.
    Commercial,
    /// Integer-heavy value mix.
    Integer,
    /// Floating-point-heavy value mix.
    FloatingPoint,
}

impl ProfileKind {
    /// The trace crate's matching profile.
    pub fn profile(self) -> ValueProfile {
        match self {
            ProfileKind::Commercial => ValueProfile::commercial(),
            ProfileKind::Integer => ValueProfile::integer(),
            ProfileKind::FloatingPoint => ValueProfile::floating_point(),
        }
    }
}

impl CompressedFill {
    /// Builds the fill a [`FillSpec::Compressed`] describes.
    pub fn from_spec(compressor: CompressorKind, values: ValueSpec) -> Self {
        CompressedFill::new(compressor.build()).with_values(values.generator())
    }
}

impl SectoredCompressedFill {
    /// Builds the fill a [`FillSpec::SectoredCompressed`] describes.
    pub fn from_spec(sectors_per_line: u32, compressor: CompressorKind, values: ValueSpec) -> Self {
        SectoredCompressedFill::new(sectors_per_line, compressor.build())
            .with_values(values.generator())
    }
}

/// The one formula behind [`PipelineCache::fetch_savings`] and the
/// engine run's stats.
pub(crate) fn fetch_savings(fetched_bytes: u64, conventional_fetch_bytes: u64) -> f64 {
    if conventional_fetch_bytes == 0 {
        0.0
    } else {
        1.0 - fetched_bytes as f64 / conventional_fetch_bytes as f64
    }
}

/// The one formula behind [`PipelineCache::overfetch_fraction`] and the
/// engine run's stats.
pub(crate) fn overfetch_fraction(prefetched_sectors: u64, overfetched_sectors: u64) -> f64 {
    match prefetched_sectors {
        0 => 0.0,
        prefetched => overfetched_sectors as f64 / prefetched as f64,
    }
}

/// A line pushed out of the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    line_address: u64,
    writeback_bytes: u64,
}

impl EvictedLine {
    /// The evicted line's address in line units (byte address / line size).
    pub fn line_address(&self) -> u64 {
        self.line_address
    }

    /// Whether the line was dirty (requires a write-back).
    pub fn dirty(&self) -> bool {
        self.writeback_bytes != 0
    }

    /// Bytes a write-back of this line puts on the memory link: the whole
    /// line for full-line fills, only the dirty sectors for sectored
    /// fills. Zero when the line is clean.
    pub fn writeback_bytes(&self) -> u64 {
        self.writeback_bytes
    }
}

/// Zero, one, or many evictions without allocating in the common cases
/// (slotted storage evicts at most one line per access).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
enum Evictions {
    #[default]
    None,
    One(EvictedLine),
    Many(Vec<EvictedLine>),
}

impl Evictions {
    fn push(&mut self, ev: EvictedLine) {
        *self = match std::mem::take(self) {
            Evictions::None => Evictions::One(ev),
            Evictions::One(first) => Evictions::Many(vec![first, ev]),
            Evictions::Many(mut all) => {
                all.push(ev);
                Evictions::Many(all)
            }
        };
    }

    fn as_slice(&self) -> &[EvictedLine] {
        match self {
            Evictions::None => &[],
            Evictions::One(ev) => std::slice::from_ref(ev),
            Evictions::Many(all) => all,
        }
    }
}

/// The outcome of one cache access: hit/miss, the bytes the fill policy
/// fetched, and every line displaced by the fill.
///
/// Hierarchies and CMP systems account their off-chip traffic by settling
/// outcomes against their own [`MemoryTraffic`] — see
/// [`AccessOutcome::settle`] — instead of each reimplementing the
/// `(1 + rwb)` fetch/write-back bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessOutcome {
    hit: bool,
    fetched_bytes: u64,
    evictions: Evictions,
}

impl AccessOutcome {
    /// Whether the access hit.
    pub fn is_hit(&self) -> bool {
        self.hit
    }

    /// The first line displaced by this access, if any (slotted storage
    /// displaces at most one; see [`AccessOutcome::evictions`] for
    /// byte-budgeted fills, which may displace several).
    pub fn evicted(&self) -> Option<EvictedLine> {
        self.evictions.as_slice().first().copied()
    }

    /// Every line displaced by this access.
    pub fn evictions(&self) -> &[EvictedLine] {
        self.evictions.as_slice()
    }

    /// Bytes the fill policy fetched for this access (zero on a hit; a
    /// sector for sectored fills, plus the predicted ones on a line miss
    /// under footprint prediction; a whole line otherwise).
    pub fn fetched_bytes(&self) -> u64 {
        self.fetched_bytes
    }

    /// Settles this outcome against a traffic meter: records the miss
    /// fetch (if any) and the write-back of every dirty victim. The single
    /// source of the `(1 + rwb)` bookkeeping for hierarchies and CMPs.
    #[inline]
    pub fn settle(&self, traffic: &mut MemoryTraffic) {
        if self.fetched_bytes > 0 {
            traffic.record_fetch(self.fetched_bytes);
        }
        self.settle_evictions(traffic);
    }

    /// Settles only the dirty-victim write-backs (used when the fill data
    /// came from elsewhere on chip, e.g. an exclusive hierarchy moving a
    /// line between levels, or a coherent cache-to-cache transfer).
    #[inline]
    pub fn settle_evictions(&self, traffic: &mut MemoryTraffic) {
        for v in self.evictions() {
            if v.dirty() {
                traffic.record_writeback(v.writeback_bytes());
            }
        }
    }
}

/// Per-line metadata, stored parallel to the tag array (struct-of-arrays
/// layout: the hot hit scan touches only the contiguous tag words and
/// loads this record exactly once, after the matching way is known).
#[derive(Debug, Clone, Copy, Default)]
struct LineMeta {
    /// Bitmask of sectors present (always bit 0 for full-line fills).
    valid_sectors: u64,
    /// Bitmask of dirty sectors; the line is dirty iff non-zero.
    dirty_sectors: u64,
    /// Bitmask of sectors the footprint predictor fetched that have not
    /// been accessed yet (always zero without prediction).
    prefetched: u64,
    /// Replacement stamp: the tick of the line's last access under LRU,
    /// of its fill under FIFO (a hit leaves it alone); Random and
    /// tree-PLRU never read it.
    stamp: u64,
    /// Bitmask of 8-byte words referenced while resident.
    word_mask: u64,
    /// Bitmask of cores (clamped to 64) that referenced the line.
    sharers: u64,
    /// Bytes the line occupies (compressed size for budgeted fills, the
    /// full line size otherwise).
    size_bytes: u64,
}

/// Slotted storage for every set, struct-of-arrays: one flat tag array
/// (`sets × assoc`), a parallel metadata array, a per-set way-occupancy
/// bitmask (associativity is at most 64, checked at config construction),
/// and per-set tree-PLRU bits.
#[derive(Debug, Clone)]
struct SlottedSets {
    assoc: usize,
    /// `tags[set * assoc + way]`; unoccupied ways hold `u64::MAX` but the
    /// occupancy mask, not the sentinel, is authoritative.
    tags: Vec<u64>,
    meta: Vec<LineMeta>,
    occupied: Vec<u64>,
    plru_bits: Vec<u64>,
}

impl SlottedSets {
    /// First way in `set` holding `tag`: the lowest set bit of a mask
    /// that compares every way, masked by occupancy. The scan has no
    /// data-dependent exit, which a hit at a random way would mispredict.
    ///
    /// Inline: the generic engine is instantiated in the crates that use
    /// it, where a non-inline helper would be an out-of-line call on
    /// every access.
    #[inline]
    fn find_way(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.assoc;
        let mut matches = 0u64;
        for (way, &resident) in self.tags[base..base + self.assoc].iter().enumerate() {
            matches |= u64::from(resident == tag) << way;
        }
        matches &= self.occupied[set];
        (matches != 0).then(|| matches.trailing_zeros() as usize)
    }
}

/// One byte-budgeted set, struct-of-arrays: parallel tag/metadata vectors
/// in insertion order (push on fill, `Vec::remove` on eviction — the
/// exact ordering the replacement policies observe), plus the running
/// byte occupancy so budget checks are O(1) instead of a per-iteration
/// sum.
#[derive(Debug, Clone, Default)]
struct BudgetedSet {
    tags: Vec<u64>,
    meta: Vec<LineMeta>,
    occupied_bytes: u64,
}

impl BudgetedSet {
    /// Removes the line at `index`, keeping both arrays and the running
    /// occupancy consistent.
    fn remove(&mut self, index: usize) -> (u64, LineMeta) {
        let tag = self.tags.remove(index);
        let meta = self.meta.remove(index);
        self.occupied_bytes -= meta.size_bytes;
        (tag, meta)
    }
}

/// The exact set of line tags a cache has ever missed on — the
/// compulsory-miss classifier.
///
/// One bit per line, in 512-byte bitmap pages of a [`PagedLineTable`].
/// The classifier runs on every miss, which for a small L1 is nearly
/// every access; simulated working sets cluster in a few pages, which
/// the table's memo of recent pages finds without hashing.
#[derive(Debug, Clone)]
struct FirstTouch {
    seen: PagedLineTable<[u64; PAGE_LINES / 64]>,
}

impl FirstTouch {
    fn new() -> Self {
        FirstTouch {
            seen: PagedLineTable::new([0; PAGE_LINES / 64]),
        }
    }

    /// Records `tag`, returning `true` iff it was not yet present — the
    /// `HashSet::insert` contract.
    #[inline]
    fn insert(&mut self, tag: u64) -> bool {
        let (page, line) = self.seen.page_mut(tag);
        let word = &mut page[line >> 6];
        let bit = 1u64 << (line & 63);
        let first = *word & bit == 0;
        *word |= bit;
        first
    }
}

/// Backing storage: fixed ways per set, or a byte budget per set.
#[derive(Debug, Clone)]
enum Storage {
    /// One line per way — full-line and sectored fills.
    Slotted(SlottedSets),
    /// Variable line count bounded by `associativity × line size` bytes —
    /// compressed fills.
    Budgeted {
        sets: Vec<BudgetedSet>,
        set_budget: u64,
    },
}

/// The last-footprint predictor's state: each line's used sectors from
/// its previous residency, and the prefetch accounting.
#[derive(Debug, Clone, Default)]
struct Footprints {
    /// Line address → sectors used during its last residency.
    table: LineMap<u64, u64>,
    /// Sectors fetched on a prediction rather than on demand.
    prefetched_sectors: u64,
    /// Prefetched sectors that left the cache without being accessed.
    overfetched_sectors: u64,
}

/// The composable observer stack: every statistic the engine maintains,
/// borrowed together so the eviction/write-back accounting lives in
/// exactly one place ([`ObserverStack::retire`]).
struct ObserverStack<'a> {
    stats: &'a mut CacheStats,
    traffic: &'a mut MemoryTraffic,
    word_usage: Option<&'a mut WordUsageStats>,
    sharing: Option<&'a mut SharingStats>,
    footprints: Option<&'a mut Footprints>,
}

impl ObserverStack<'_> {
    /// Sectors a line miss on `tag` prefetches beyond the demanded one:
    /// the line's last footprint.
    fn predict(&mut self, tag: u64, sector_bit: u64) -> u64 {
        let footprints = self
            .footprints
            .as_deref_mut()
            .expect("predicting fills own a footprint table");
        let prefetched = footprints.table.get(&tag).copied().unwrap_or(0) & !sector_bit;
        footprints.prefetched_sectors += u64::from(prefetched.count_ones());
        prefetched
    }

    /// Records one line leaving the cache — the single copy of the
    /// eviction and write-back bookkeeping that used to be duplicated
    /// across the five simulator variants — and returns it. The word and
    /// sharer counts are taken only for the statistics that want them.
    #[inline]
    fn retire(&mut self, tag: u64, old: &LineMeta, sector_size: u64) -> EvictedLine {
        let ev = EvictedLine {
            line_address: tag,
            writeback_bytes: u64::from(old.dirty_sectors.count_ones()) * sector_size,
        };
        self.stats.record_eviction(ev.dirty());
        if let Some(usage) = self.word_usage.as_deref_mut() {
            usage.record_eviction(old.word_mask.count_ones());
        }
        if let Some(sharing) = self.sharing.as_deref_mut() {
            sharing.record_eviction(old.sharers.count_ones());
        }
        if let Some(footprints) = self.footprints.as_deref_mut() {
            footprints.overfetched_sectors += u64::from(old.prefetched.count_ones());
            footprints
                .table
                .insert(tag, old.valid_sectors & !old.prefetched);
        }
        if ev.dirty() {
            self.traffic.record_writeback(ev.writeback_bytes);
        }
        ev
    }
}

/// The generic set-associative, write-back, write-allocate cache engine.
///
/// One set/way/replacement core parameterised by a [`Fill`] policy; the
/// historical simulator variants are type aliases over it:
///
/// | alias | fill policy |
/// |---|---|
/// | `Cache` | [`FullLineFill`] |
/// | `SectoredCache` | [`SectoredFill`] |
/// | `PredictiveSectoredCache` | [`PredictiveSectoredFill`] |
/// | `CompressedCache` | [`CompressedFill`] |
/// | `SectoredCompressedCache` | [`SectoredCompressedFill`] |
///
/// # Examples
///
/// ```
/// use bandwall_cache_sim::{Cache, CacheConfig};
///
/// let mut cache = Cache::new(CacheConfig::new(4096, 64, 4)?);
/// assert!(!cache.access(0x1000, false).is_hit()); // cold miss
/// assert!(cache.access(0x1000, false).is_hit()); // now resident
/// assert_eq!(cache.stats().misses(), 1);
/// # Ok::<(), bandwall_cache_sim::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PipelineCache<F: Fill = FullLineFill> {
    config: CacheConfig,
    fill: F,
    sector_size: u64,
    /// `log2(line_size)` — the locate path uses shifts/masks instead of
    /// division (line size and set count are powers of two by config
    /// construction).
    line_shift: u32,
    line_mask: u64,
    set_mask: u64,
    sector_shift: u32,
    storage: Storage,
    stats: CacheStats,
    traffic: MemoryTraffic,
    compression: CompressionStats,
    sector_misses: u64,
    conventional_fetch_bytes: u64,
    word_usage: Option<WordUsageStats>,
    sharing: Option<SharingStats>,
    /// Present iff the fill predicts footprints.
    footprints: Option<Footprints>,
    seen_lines: FirstTouch,
    tick: u64,
    /// Reusable payload buffer for generator-backed size computation, so
    /// steady-state misses allocate nothing.
    scratch: Vec<u8>,
    /// Tag → stored-size cache for *generator-backed* payloads only.
    /// Generator payloads are a pure function of `(seed, address)`, so a
    /// tag's compressed size never changes; caller-supplied payloads
    /// (`access_with_data`) bypass this memo entirely. See DESIGN.md,
    /// "Size-cache invalidation contract".
    size_memo: LineMap<u64, u64>,
    /// One replacement RNG per set, derived from `(policy seed, set
    /// index)`; empty unless the policy is [`ReplacementPolicy::Random`].
    /// Per-set streams keep victim choices local to the set, which the
    /// bank-partitioned parallel engine relies on for bit-identical
    /// merged statistics.
    set_rngs: Vec<Rng>,
}

impl<F: Fill> PipelineCache<F> {
    /// Builds an empty cache over the given geometry and fill policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy is [`ReplacementPolicy::TreePlru`] and the
    /// associativity is not a power of two (the PLRU tree needs a complete
    /// binary tree over the ways), if tree-PLRU is combined with a
    /// byte-budgeted (compressed) fill — budgeted sets have no fixed ways
    /// for the tree to index — or if the fill declares more sectors than
    /// the line has bytes.
    pub fn with_fill(config: CacheConfig, fill: F) -> Self {
        assert!(
            config.policy() != ReplacementPolicy::TreePlru
                || config.associativity().is_power_of_two(),
            "tree-PLRU requires a power-of-two associativity"
        );
        assert!(
            u64::from(fill.sectors_per_line()) <= config.line_size(),
            "cannot have more sectors than bytes in a line"
        );
        assert!(
            !(fill.budgeted() && config.policy() == ReplacementPolicy::TreePlru),
            "tree-PLRU needs fixed ways; byte-budgeted (compressed) sets have none"
        );
        let storage = if fill.budgeted() {
            Storage::Budgeted {
                sets: (0..config.sets()).map(|_| BudgetedSet::default()).collect(),
                set_budget: config.line_size() * u64::from(config.associativity()),
            }
        } else {
            let assoc = config.associativity() as usize;
            let lines = config.sets() as usize * assoc;
            Storage::Slotted(SlottedSets {
                assoc,
                tags: vec![u64::MAX; lines],
                meta: vec![LineMeta::default(); lines],
                occupied: vec![0; config.sets() as usize],
                plru_bits: vec![0; config.sets() as usize],
            })
        };
        let sector_size = config.line_size() / u64::from(fill.sectors_per_line());
        let footprints = fill.predicts_footprints().then(Footprints::default);
        PipelineCache {
            sector_size,
            line_shift: config.line_size().trailing_zeros(),
            line_mask: config.line_size() - 1,
            set_mask: config.sets() - 1,
            sector_shift: sector_size.trailing_zeros(),
            config,
            fill,
            storage,
            stats: CacheStats::new(),
            traffic: MemoryTraffic::new(),
            compression: CompressionStats::new(),
            sector_misses: 0,
            conventional_fetch_bytes: 0,
            word_usage: None,
            sharing: None,
            footprints,
            seen_lines: FirstTouch::new(),
            tick: 0,
            scratch: Vec::new(),
            size_memo: LineMap::default(),
            set_rngs: if config.policy() == ReplacementPolicy::Random {
                (0..config.sets())
                    .map(|set| Rng::seed_from_stream(config.policy_seed(), set))
                    .collect()
            } else {
                Vec::new()
            },
        }
    }

    /// Enables per-word usage tracking (needed for unused-data studies).
    ///
    /// # Panics
    ///
    /// Panics if a line holds more than 64 words (lines over 512 bytes):
    /// the per-line word mask is 64 bits.
    #[must_use]
    pub fn with_word_tracking(mut self) -> Self {
        assert!(
            self.config.words_per_line() <= 64,
            "word tracking covers at most 64 words per line (512-byte lines)"
        );
        self.word_usage = Some(WordUsageStats::new(self.config.words_per_line()));
        self
    }

    /// Enables per-core sharer tracking (needed for Figure 14).
    #[must_use]
    pub fn with_sharer_tracking(mut self) -> Self {
        self.sharing = Some(SharingStats::new());
        self
    }

    /// Resident lines' `(line address, stored bytes)` pairs, sorted by
    /// line address — introspection for the size-cache invalidation
    /// tests. Slotted fills report the full line size for every line.
    pub fn stored_sizes(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        match &self.storage {
            Storage::Slotted(sets) => {
                for set in 0..self.config.sets() as usize {
                    let occ = sets.occupied[set];
                    for way in 0..sets.assoc {
                        if occ & (1 << way) != 0 {
                            let idx = set * sets.assoc + way;
                            out.push((sets.tags[idx], sets.meta[idx].size_bytes));
                        }
                    }
                }
            }
            Storage::Budgeted { sets, .. } => {
                for set in sets {
                    for (tag, meta) in set.tags.iter().zip(&set.meta) {
                        out.push((*tag, meta.size_bytes));
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// The cache's geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The fill-granularity policy.
    pub fn fill(&self) -> &F {
        &self.fill
    }

    /// Sectors per line (1 for whole-line fills).
    pub fn sectors_per_line(&self) -> u32 {
        self.fill.sectors_per_line()
    }

    /// Access counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// This cache's own fetch/write-back traffic at fill granularity
    /// (sector fetches for sectored fills, uncompressed-line granularity
    /// for compressed fills).
    pub fn traffic(&self) -> &MemoryTraffic {
        &self.traffic
    }

    /// Aggregate compression statistics over all inserted lines (empty
    /// for non-compressed fills).
    pub fn compression(&self) -> &CompressionStats {
        &self.compression
    }

    /// Sector misses into resident lines (subset of all misses; zero for
    /// whole-line fills).
    pub fn sector_misses(&self) -> u64 {
        self.sector_misses
    }

    /// Bytes a conventional whole-line cache would have fetched for the
    /// same line-miss stream.
    pub fn conventional_fetch_bytes(&self) -> u64 {
        self.conventional_fetch_bytes
    }

    /// Fraction of fetch traffic eliminated relative to whole-line
    /// fetching (zero for whole-line fills).
    pub fn fetch_savings(&self) -> f64 {
        fetch_savings(self.traffic.fetched_bytes(), self.conventional_fetch_bytes)
    }

    /// Sectors the footprint predictor fetched beyond the demanded ones
    /// (zero without prediction).
    pub fn prefetched_sectors(&self) -> u64 {
        self.footprints.as_ref().map_or(0, |f| f.prefetched_sectors)
    }

    /// Prefetched sectors that left the cache without being accessed
    /// (zero without prediction).
    pub fn overfetched_sectors(&self) -> u64 {
        self.footprints
            .as_ref()
            .map_or(0, |f| f.overfetched_sectors)
    }

    /// Of all prefetched sectors, the fraction never used before the line
    /// left the cache: wasted bandwidth, 0 for a perfect predictor (and
    /// without prediction).
    pub fn overfetch_fraction(&self) -> f64 {
        overfetch_fraction(self.prefetched_sectors(), self.overfetched_sectors())
    }

    /// Word-usage statistics, if tracking is enabled.
    pub fn word_usage(&self) -> Option<&WordUsageStats> {
        self.word_usage.as_ref()
    }

    /// Sharing statistics, if tracking is enabled.
    pub fn sharing(&self) -> Option<&SharingStats> {
        self.sharing.as_ref()
    }

    /// Number of currently resident lines.
    pub fn resident_lines(&self) -> usize {
        match &self.storage {
            Storage::Slotted(sets) => sets
                .occupied
                .iter()
                .map(|occ| occ.count_ones() as usize)
                .sum(),
            Storage::Budgeted { sets, .. } => sets.iter().map(|s| s.tags.len()).sum(),
        }
    }

    /// Lines an uncompressed cache of the same area would hold.
    pub fn uncompressed_capacity_lines(&self) -> usize {
        self.config.lines() as usize
    }

    /// Resident lines' uncompressed bytes over the bytes they actually
    /// occupy — the *measured* effectiveness factor `F` of Equation 8
    /// (1.0 for non-compressed fills, or while empty).
    pub fn effective_capacity_factor(&self) -> f64 {
        let occupied: u64 = match &self.storage {
            // Slotted lines always occupy their full size.
            Storage::Slotted(_) => self.resident_lines() as u64 * self.config.line_size(),
            Storage::Budgeted { sets, .. } => sets.iter().map(|s| s.occupied_bytes).sum(),
        };
        if occupied == 0 {
            1.0
        } else {
            let uncompressed = self.resident_lines() as u64 * self.config.line_size();
            uncompressed as f64 / occupied as f64
        }
    }

    /// Non-mutating residency check.
    pub fn contains(&self, address: u64) -> bool {
        let (set_idx, tag) = self.config.locate(address);
        match &self.storage {
            Storage::Slotted(sets) => sets.find_way(set_idx as usize, tag).is_some(),
            Storage::Budgeted { sets, .. } => sets[set_idx as usize].tags.contains(&tag),
        }
    }

    /// Accesses `address` from core 0.
    pub fn access(&mut self, address: u64, is_write: bool) -> AccessOutcome {
        self.access_from(0, address, is_write)
    }

    /// Accesses `address` from `core` (the core id feeds sharer tracking).
    #[inline]
    pub fn access_from(&mut self, core: u16, address: u64, is_write: bool) -> AccessOutcome {
        self.access_inner(core, address, is_write, None)
    }

    /// Accesses `address`, providing the line's payload so compressed
    /// fills can (re)compress it. Non-compressed fills ignore the values.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one line long.
    pub fn access_with_data(&mut self, address: u64, is_write: bool, data: &[u8]) -> AccessOutcome {
        assert_eq!(
            data.len() as u64,
            self.config.line_size(),
            "payload must be exactly one line"
        );
        self.access_inner(0, address, is_write, Some(data))
    }

    /// One access. The resident-line path, which most accesses take, is
    /// inline and touches only the line's record and the hit counter;
    /// a line miss and every budgeted access go out of line.
    #[inline(always)]
    fn access_inner(
        &mut self,
        core: u16,
        address: u64,
        is_write: bool,
        data: Option<&[u8]>,
    ) -> AccessOutcome {
        self.tick += 1;
        let tag = address >> self.line_shift;
        let set_idx = (tag & self.set_mask) as usize;
        let Storage::Slotted(sets) = &mut self.storage else {
            return self.access_budgeted(core, address, is_write, data);
        };
        let Some(way) = sets.find_way(set_idx, tag) else {
            return self.fill_slotted(core, address, is_write);
        };
        let offset = address & self.line_mask;
        let sector_bit = 1u64 << (offset >> self.sector_shift);
        let policy = self.config.policy();
        let assoc = sets.assoc;
        let meta = &mut sets.meta[set_idx * assoc + way];
        if policy == ReplacementPolicy::Lru {
            meta.stamp = self.tick;
        }
        meta.word_mask |= 1u64 << (offset >> 3).min(63);
        meta.sharers |= 1u64 << u64::from(core).min(63);
        // Constant per fill type, so the engines of non-predicting fills
        // compile without the footprint predictor's per-access work.
        if self.fill.predicts_footprints() {
            meta.prefetched &= !sector_bit;
        }
        let sector_present = meta.valid_sectors & sector_bit != 0;
        meta.valid_sectors |= sector_bit;
        if is_write {
            meta.dirty_sectors |= sector_bit;
        }
        if policy == ReplacementPolicy::TreePlru {
            plru_touch(&mut sets.plru_bits[set_idx], assoc, way);
        }
        if sector_present {
            self.stats.record_hit();
            return AccessOutcome {
                hit: true,
                fetched_bytes: 0,
                evictions: Evictions::None,
            };
        }
        self.sector_miss(tag)
    }

    /// Line resident, sector missing: fetch one sector. A conventional
    /// cache would have hit here (whole line fetched at the first miss),
    /// so no conventional traffic.
    #[inline(never)]
    fn sector_miss(&mut self, tag: u64) -> AccessOutcome {
        let cold = self.seen_lines.insert(tag);
        self.stats.record_miss(cold);
        self.sector_misses += 1;
        self.traffic.record_fetch(self.sector_size);
        AccessOutcome {
            hit: false,
            fetched_bytes: self.sector_size,
            evictions: Evictions::None,
        }
    }

    /// A line miss in slotted storage: classify it, choose a frame,
    /// retire its line and fill it. Out of line, so the hit path stays
    /// small where it is inlined.
    #[inline(never)]
    fn fill_slotted(&mut self, core: u16, address: u64, is_write: bool) -> AccessOutcome {
        let tick = self.tick;
        let tag = address >> self.line_shift;
        let set_idx = (tag & self.set_mask) as usize;
        let line_size = self.config.line_size();
        let policy = self.config.policy();
        let offset = address & self.line_mask;
        let sector_size = self.sector_size;
        let sector_bit = 1u64 << (offset >> self.sector_shift);
        let predicts = self.fill.predicts_footprints();
        let Self {
            storage: Storage::Slotted(sets),
            stats,
            traffic,
            conventional_fetch_bytes,
            word_usage,
            sharing,
            footprints,
            seen_lines,
            set_rngs,
            ..
        } = self
        else {
            unreachable!("fill_slotted runs on slotted storage");
        };
        let mut observers = ObserverStack {
            stats,
            traffic,
            word_usage: word_usage.as_mut(),
            sharing: sharing.as_mut(),
            footprints: footprints.as_mut(),
        };
        let assoc = sets.assoc;
        let base = set_idx * assoc;
        let cold = seen_lines.insert(tag);
        observers.stats.record_miss(cold);
        let prefetched = if predicts {
            observers.predict(tag, sector_bit)
        } else {
            0
        };
        let fetched = u64::from((sector_bit | prefetched).count_ones()) * sector_size;
        observers.traffic.record_fetch(fetched);
        *conventional_fetch_bytes += line_size;
        let occ = sets.occupied[set_idx];
        let first_empty = (!occ).trailing_zeros() as usize;
        let victim_way = if first_empty < assoc {
            first_empty
        } else {
            match policy {
                ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                    oldest_stamp(&sets.meta[base..base + assoc])
                }
                ReplacementPolicy::Random => set_rngs
                    .get_mut(set_idx)
                    .expect("random policy has set RNGs")
                    .gen_range(0..assoc),
                ReplacementPolicy::TreePlru => plru_victim(sets.plru_bits[set_idx], assoc),
            }
        };
        let evictions = if occ & (1 << victim_way) != 0 {
            Evictions::One(observers.retire(
                sets.tags[base + victim_way],
                &sets.meta[base + victim_way],
                sector_size,
            ))
        } else {
            Evictions::None
        };
        sets.tags[base + victim_way] = tag;
        sets.meta[base + victim_way] = LineMeta {
            valid_sectors: sector_bit | prefetched,
            dirty_sectors: if is_write { sector_bit } else { 0 },
            prefetched,
            stamp: tick,
            word_mask: 1u64 << (offset >> 3).min(63),
            sharers: 1u64 << u64::from(core).min(63),
            size_bytes: line_size,
        };
        sets.occupied[set_idx] = occ | (1 << victim_way);
        if policy == ReplacementPolicy::TreePlru {
            plru_touch(&mut sets.plru_bits[set_idx], assoc, victim_way);
        }
        AccessOutcome {
            hit: false,
            fetched_bytes: fetched,
            evictions,
        }
    }

    /// An access to byte-budgeted (compressed) storage.
    #[inline(never)]
    fn access_budgeted(
        &mut self,
        core: u16,
        address: u64,
        is_write: bool,
        data: Option<&[u8]>,
    ) -> AccessOutcome {
        let tick = self.tick;
        let tag = address >> self.line_shift;
        let set_idx = (tag & self.set_mask) as usize;
        let line_size = self.config.line_size();
        let policy = self.config.policy();
        let offset = address & self.line_mask;
        let word_bit = 1u64 << (offset >> 3).min(63);
        let core_bit = 1u64 << u64::from(core).min(63);
        let sector_size = self.sector_size;
        let sector_bit = 1u64 << (offset >> self.sector_shift);
        let predicts = self.fill.predicts_footprints();

        let Self {
            storage: Storage::Budgeted { sets, set_budget },
            fill,
            stats,
            traffic,
            compression,
            sector_misses,
            conventional_fetch_bytes,
            word_usage,
            sharing,
            footprints,
            seen_lines,
            set_rngs,
            scratch,
            size_memo,
            ..
        } = self
        else {
            unreachable!("access_budgeted runs on budgeted storage");
        };
        // The set's own replacement stream (populated iff the policy is
        // Random); drawn only by the Random arms of the shrink.
        let mut set_rng = set_rngs.get_mut(set_idx);
        let mut observers = ObserverStack {
            stats,
            traffic,
            word_usage: word_usage.as_mut(),
            sharing: sharing.as_mut(),
            footprints: footprints.as_mut(),
        };
        let mut evictions = Evictions::None;
        let set = &mut sets[set_idx];
        // Resident-line path: scan the contiguous tag words.
        if let Some(index) = set.tags.iter().position(|&t| t == tag) {
            let meta = &mut set.meta[index];
            if policy == ReplacementPolicy::Lru {
                meta.stamp = tick;
            }
            meta.word_mask |= word_bit;
            meta.sharers |= core_bit;
            if predicts {
                meta.prefetched &= !sector_bit;
            }
            let sector_present = meta.valid_sectors & sector_bit != 0;
            meta.valid_sectors |= sector_bit;
            let mut size_changed = false;
            if is_write {
                meta.dirty_sectors |= sector_bit;
                // Size-cache invalidation: a dirty write recomputes the
                // stored size only when the payload can differ from the
                // one the cached size was computed from — i.e. when the
                // caller supplied data. Data-free writes take their
                // payload from the value generator, a pure function of
                // the address, so the size cannot change (the test oracle
                // recompresses on every access and asserts exactly that).
                if let Some(d) = data {
                    let new_size = payload_stored_size(fill, line_size, d);
                    size_changed = new_size != meta.size_bytes;
                    set.occupied_bytes = set.occupied_bytes - meta.size_bytes + new_size;
                    meta.size_bytes = new_size;
                }
            }
            let hit = sector_present;
            if hit {
                observers.stats.record_hit();
            } else {
                let cold = seen_lines.insert(tag);
                observers.stats.record_miss(cold);
                *sector_misses += 1;
                observers.traffic.record_fetch(sector_size);
            }
            // The budget invariant holds after every fill/write, so a
            // write that provably kept the size unchanged cannot overflow
            // the set; the historical unconditional shrink was a no-op
            // there (and drew no Random numbers).
            if size_changed {
                shrink_to_budget(
                    set,
                    *set_budget,
                    None,
                    policy,
                    set_rng.as_deref_mut(),
                    sector_size,
                    &mut observers,
                    &mut evictions,
                );
            }
            return AccessOutcome {
                hit,
                fetched_bytes: if hit { 0 } else { sector_size },
                evictions,
            };
        }

        // Line miss: fetch and insert compressed. Generator-backed sizes
        // come from the tag→size memo (zero compressor calls for
        // previously seen tags); caller payloads are always compressed
        // afresh.
        let cold = seen_lines.insert(tag);
        observers.stats.record_miss(cold);
        let prefetched = if predicts {
            observers.predict(tag, sector_bit)
        } else {
            0
        };
        let fetched = u64::from((sector_bit | prefetched).count_ones()) * sector_size;
        observers.traffic.record_fetch(fetched);
        *conventional_fetch_bytes += line_size;
        let size = match data {
            Some(d) => payload_stored_size(fill, line_size, d),
            None => generated_stored_size(fill, line_size, tag, scratch, size_memo),
        };
        compression.record(line_size as usize, size as usize);
        set.tags.push(tag);
        set.meta.push(LineMeta {
            valid_sectors: sector_bit | prefetched,
            dirty_sectors: if is_write { sector_bit } else { 0 },
            prefetched,
            stamp: tick,
            word_mask: word_bit,
            sharers: core_bit,
            size_bytes: size,
        });
        set.occupied_bytes += size;
        shrink_to_budget(
            set,
            *set_budget,
            Some(tag),
            policy,
            set_rng,
            sector_size,
            &mut observers,
            &mut evictions,
        );
        AccessOutcome {
            hit: false,
            fetched_bytes: fetched,
            evictions,
        }
    }

    /// Removes `address`'s line if resident *without* touching any
    /// statistics — a silent transfer, e.g. an exclusive hierarchy moving
    /// a line from the L2 into the L1.
    pub fn extract(&mut self, address: u64) -> Option<EvictedLine> {
        let (tag, old) = self.extract_line(address)?;
        Some(EvictedLine {
            line_address: tag,
            writeback_bytes: u64::from(old.dirty_sectors.count_ones()) * self.sector_size,
        })
    }

    fn extract_line(&mut self, address: u64) -> Option<(u64, LineMeta)> {
        let (set_idx, tag) = self.config.locate(address);
        let set_idx = set_idx as usize;
        match &mut self.storage {
            Storage::Slotted(sets) => {
                let way = sets.find_way(set_idx, tag)?;
                let slot = set_idx * sets.assoc + way;
                sets.occupied[set_idx] &= !(1 << way);
                sets.tags[slot] = u64::MAX;
                Some((tag, std::mem::take(&mut sets.meta[slot])))
            }
            Storage::Budgeted { sets, .. } => {
                let set = &mut sets[set_idx];
                let idx = set.tags.iter().position(|&t| t == tag)?;
                Some(set.remove(idx))
            }
        }
    }

    /// Removes `address`'s line if resident, returning its state. Counts
    /// as an eviction in the statistics (an invalidation caused by an
    /// external agent, e.g. inclusion enforcement).
    pub fn invalidate(&mut self, address: u64) -> Option<EvictedLine> {
        let (tag, old) = self.extract_line(address)?;
        let sector_size = self.sector_size;
        Some(self.observers().retire(tag, &old, sector_size))
    }

    /// Marks `address`'s line dirty if resident (used when a hierarchy
    /// transfers a dirty line between levels). Returns whether the line
    /// was present.
    pub fn mark_dirty(&mut self, address: u64) -> bool {
        match self.resident_meta(address) {
            Some(meta) => {
                meta.dirty_sectors |= meta.valid_sectors;
                true
            }
            None => false,
        }
    }

    /// Clears `address`'s dirty sectors if resident, leaving the line
    /// valid and its replacement state and statistics untouched (a
    /// coherence downgrade that writes the data back). Returns the bytes
    /// cleared — what that write-back puts on the memory link — or
    /// `None` when the line is absent.
    pub(crate) fn clean(&mut self, address: u64) -> Option<u64> {
        let sector_size = self.sector_size;
        let meta = self.resident_meta(address)?;
        let bytes = u64::from(meta.dirty_sectors.count_ones()) * sector_size;
        meta.dirty_sectors = 0;
        Some(bytes)
    }

    /// The metadata of `address`'s line, if resident.
    fn resident_meta(&mut self, address: u64) -> Option<&mut LineMeta> {
        let (set_idx, tag) = self.config.locate(address);
        let set_idx = set_idx as usize;
        match &mut self.storage {
            Storage::Slotted(sets) => {
                let way = sets.find_way(set_idx, tag)?;
                Some(&mut sets.meta[set_idx * sets.assoc + way])
            }
            Storage::Budgeted { sets, .. } => {
                let set = &mut sets[set_idx];
                let idx = set.tags.iter().position(|&t| t == tag)?;
                Some(&mut set.meta[idx])
            }
        }
    }

    /// Evicts everything, reporting dirty lines through the usual stats
    /// (useful to flush write-backs at the end of a measurement window).
    pub fn flush(&mut self) -> Vec<EvictedLine> {
        let sector_size = self.sector_size;
        let mut drained: Vec<(u64, LineMeta)> = Vec::new();
        match &mut self.storage {
            Storage::Slotted(sets) => {
                let assoc = sets.assoc;
                for (set_idx, occ) in sets.occupied.iter_mut().enumerate() {
                    let base = set_idx * assoc;
                    for way in 0..assoc {
                        if *occ & (1 << way) != 0 {
                            drained.push((sets.tags[base + way], sets.meta[base + way]));
                        }
                    }
                    *occ = 0;
                }
                sets.tags.fill(u64::MAX);
                sets.meta.fill(LineMeta::default());
            }
            Storage::Budgeted { sets, .. } => {
                for set in sets.iter_mut() {
                    drained.extend(set.tags.drain(..).zip(set.meta.drain(..)));
                    set.occupied_bytes = 0;
                }
            }
        }
        let mut observers = self.observers();
        drained
            .iter()
            .map(|(tag, old)| observers.retire(*tag, old, sector_size))
            .collect()
    }

    fn observers(&mut self) -> ObserverStack<'_> {
        ObserverStack {
            stats: &mut self.stats,
            traffic: &mut self.traffic,
            word_usage: self.word_usage.as_mut(),
            sharing: self.sharing.as_mut(),
            footprints: self.footprints.as_mut(),
        }
    }
}

// Constructors per concrete fill, reached through the historical aliases
// (`Cache::new`, `SectoredCache::new`, `CompressedCache::new`, ...).

impl PipelineCache<FullLineFill> {
    /// Builds an empty conventional cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the policy is [`ReplacementPolicy::TreePlru`] and the
    /// associativity is not a power of two.
    pub fn new(config: CacheConfig) -> Self {
        Self::with_fill(config, FullLineFill)
    }
}

impl PipelineCache<SectoredFill> {
    /// Builds a sectored cache; `sectors_per_line` must be a power of two
    /// between 1 and the line size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `sectors_per_line` is zero, not a power of two, or does
    /// not divide the line size into at least one byte per sector.
    pub fn new(config: CacheConfig, sectors_per_line: u32) -> Self {
        Self::with_fill(config, SectoredFill::new(sectors_per_line))
    }
}

impl PipelineCache<PredictiveSectoredFill> {
    /// Builds a sectored cache with a last-footprint predictor;
    /// `sectors_per_line` must be a power of two between 1 and the line
    /// size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `sectors_per_line` is zero, not a power of two, or does
    /// not divide the line size into at least one byte per sector.
    pub fn new(config: CacheConfig, sectors_per_line: u32) -> Self {
        Self::with_fill(config, PredictiveSectoredFill::new(sectors_per_line))
    }
}

impl PipelineCache<CompressedFill> {
    /// Builds a compressed cache over the given geometry and engine.
    pub fn new(config: CacheConfig, compressor: Box<dyn Compressor>) -> Self {
        Self::with_fill(config, CompressedFill::new(compressor))
    }
}

impl PipelineCache<SectoredCompressedFill> {
    /// Builds a sectored *and* compressed cache — sector-granularity
    /// fetches into byte-budgeted compressed sets.
    pub fn new(
        config: CacheConfig,
        sectors_per_line: u32,
        compressor: Box<dyn Compressor>,
    ) -> Self {
        Self::with_fill(
            config,
            SectoredCompressedFill::new(sectors_per_line, compressor),
        )
    }
}

/// First way with the smallest replacement stamp, over a full set's
/// contiguous metadata slice. Only called when every way is occupied (the
/// empty-way fast path ran first), so no occupancy filter is needed;
/// `min_by_key` returns the *first* minimum, matching the historical
/// per-way scan.
#[inline]
fn oldest_stamp(metas: &[LineMeta]) -> usize {
    metas
        .iter()
        .enumerate()
        .min_by_key(|&(_, m)| m.stamp)
        .map(|(i, _)| i)
        .expect("victim selection scans a non-empty set")
}

/// Stored size of a caller-supplied payload, capped at the line size.
fn payload_stored_size<F: Fill>(fill: &F, line_size: u64, data: &[u8]) -> u64 {
    let size = fill
        .stored_size(data)
        .expect("budgeted fill reports a stored size");
    (size as u64).min(line_size)
}

/// Stored size of the *generator-backed* payload for `tag`'s line.
///
/// Generator payloads are a pure function of `(seed, address)`, so the
/// size is memoised per tag. The scratch buffer is reused across calls,
/// so the steady state allocates nothing.
fn generated_stored_size<F: Fill>(
    fill: &F,
    line_size: u64,
    tag: u64,
    scratch: &mut Vec<u8>,
    memo: &mut LineMap<u64, u64>,
) -> u64 {
    if let Some(&size) = memo.get(&tag) {
        return size;
    }
    if !fill.generate_into(tag * line_size, line_size as usize, scratch) {
        panic!(
            "{} fill needs line payloads: use access_with_data \
             or attach a value generator",
            fill.label()
        );
    }
    let size = fill
        .stored_size(scratch)
        .expect("budgeted fill reports a stored size");
    let size = (size as u64).min(line_size);
    memo.insert(tag, size);
    size
}

/// Marks `way` as recently used in the PLRU tree: walk from the root
/// to the leaf, pointing every internal node *away* from the path.
///
/// The tree is stored as a heap in `bits`: node 1 is the root; node
/// `n`'s children are `2n` and `2n+1`; bit = 0 points left, 1 right.
/// Requires a power-of-two associativity (checked at construction).
fn plru_touch(bits: &mut u64, assoc: usize, way: usize) {
    debug_assert!(assoc.is_power_of_two());
    let levels = assoc.trailing_zeros();
    let mut node = 1usize;
    for level in (0..levels).rev() {
        let go_right = (way >> level) & 1 == 1;
        // Point away from where we went.
        if go_right {
            *bits &= !(1 << node);
        } else {
            *bits |= 1 << node;
        }
        node = node * 2 + usize::from(go_right);
    }
}

/// Follows the PLRU bits from the root to the pseudo-LRU leaf.
fn plru_victim(bits: u64, assoc: usize) -> usize {
    debug_assert!(assoc.is_power_of_two());
    let levels = assoc.trailing_zeros();
    let mut node = 1usize;
    let mut way = 0usize;
    for _ in 0..levels {
        let go_right = (bits >> node) & 1 == 1;
        way = way * 2 + usize::from(go_right);
        node = node * 2 + usize::from(go_right);
    }
    way
}

/// Evicts lines until the set fits its byte budget, never evicting the
/// just-inserted line (`protect_tag`). Victims follow the replacement
/// policy (tree-PLRU is rejected for budgeted storage at construction);
/// Random draws from the set's own stream (`rng` is `Some` iff the policy
/// is Random).
#[allow(clippy::too_many_arguments)]
fn shrink_to_budget(
    set: &mut BudgetedSet,
    set_budget: u64,
    protect_tag: Option<u64>,
    policy: ReplacementPolicy,
    mut rng: Option<&mut Rng>,
    sector_size: u64,
    observers: &mut ObserverStack<'_>,
    evictions: &mut Evictions,
) {
    // `occupied_bytes` is maintained incrementally at every insert, size
    // update, and removal, so the in-budget common case is one compare —
    // no per-line sweep.
    while set.occupied_bytes > set_budget {
        let candidates = set
            .tags
            .iter()
            .zip(&set.meta)
            .enumerate()
            .filter(|&(_, (&t, _))| Some(t) != protect_tag);
        let victim = match policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => candidates
                .min_by_key(|&(_, (_, m))| m.stamp)
                .map(|(i, _)| i),
            ReplacementPolicy::Random => {
                // Direct fallible pick: count the candidates, draw one
                // index, walk to it — the empty set never consumes a draw
                // and no scratch Vec is built.
                let evictable = candidates.clone().count() as u64;
                (evictable > 0).then(|| {
                    let pick = rng
                        .as_deref_mut()
                        .expect("random policy has set RNGs")
                        .gen_below(evictable) as usize;
                    set.tags
                        .iter()
                        .enumerate()
                        .filter(|&(_, &t)| Some(t) != protect_tag)
                        .nth(pick)
                        .map(|(i, _)| i)
                        .expect("pick is below the candidate count")
                })
            }
            ReplacementPolicy::TreePlru => {
                unreachable!("tree-PLRU is rejected for budgeted storage at construction")
            }
        };
        match victim {
            Some(i) => {
                let (tag, old) = set.remove(i);
                evictions.push(observers.retire(tag, &old, sector_size));
            }
            None => return, // only the protected line remains
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLICIES: [ReplacementPolicy; 4] = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Random,
        ReplacementPolicy::TreePlru,
    ];

    /// A line payload FPC cannot shrink, so each resident line occupies a
    /// full `line_size` in budgeted storage.
    fn incompressible_line(seed: u64, line_size: usize) -> Vec<u8> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..line_size).map(|_| rng.gen_u8()).collect()
    }

    /// One replacement stamp keeps a line's record at seven words.
    #[test]
    fn line_meta_is_56_bytes() {
        assert_eq!(std::mem::size_of::<LineMeta>(), 56);
    }

    /// Feeds `tags` to a [`FirstTouch`] and a `HashSet` reference,
    /// requiring the same `insert` result at every step.
    fn assert_first_touch_matches(label: &str, tags: impl IntoIterator<Item = u64>) {
        let mut bitmap = FirstTouch::new();
        let mut reference = std::collections::HashSet::new();
        for (step, tag) in tags.into_iter().enumerate() {
            assert_eq!(
                bitmap.insert(tag),
                reference.insert(tag),
                "{label}: step {step}, tag {tag:#x}"
            );
        }
    }

    #[test]
    fn first_touch_matches_a_hash_set() {
        let page = PAGE_LINES as u64;
        // The paged table's memo slots.
        let memo_slots = 64;
        assert_first_touch_matches("dense", (0..3 * page).chain(0..3 * page));
        let mut rng = Rng::seed_from_u64(11);
        assert_first_touch_matches("random", (0..200_000).map(|_| rng.gen_range(0..64 * page)));
        let mut rng = Rng::seed_from_u64(12);
        let wide: Vec<u64> = (0..5_000).map(|_| rng.gen_range(0..1u64 << 40)).collect();
        assert_first_touch_matches("random, wide", wide.iter().chain(&wide).copied());
        assert_first_touch_matches(
            "page boundaries",
            (1..40)
                .flat_map(|p| [p * page - 1, p * page, p * page + 1])
                .cycle()
                .take(400),
        );
        // One line per page over more pages than the memo has slots, so
        // revisits find their pages evicted from it.
        assert_first_touch_matches(
            "sparse",
            (0..3).flat_map(|_| (0..8 * memo_slots).map(|p| p * page + p % page)),
        );
        let top = u64::MAX >> 6;
        assert_first_touch_matches(
            "top of the tag space",
            (0..3 * page)
                .map(|k| top - k)
                .chain([top, top - page, 0, top >> 1, top]),
        );
    }

    /// A scan with one line per first-touch page, wrapping twice: the
    /// first pass is all cold misses and the later passes none.
    #[test]
    fn page_strided_scan_counts_cold_misses_once() {
        use bandwall_trace::{StridedTrace, TraceSource};
        // Three times the pages the paged table's memo holds.
        let lines = 3 * 64;
        let mut cache = crate::Cache::new(CacheConfig::new(4096, 64, 4).expect("valid"));
        let mut scan = StridedTrace::new(64, 64 * PAGE_LINES as u64, lines);
        for access in scan.iter().take(3 * lines as usize) {
            cache.access(access.address(), false);
        }
        assert_eq!(cache.stats().cold_misses(), lines);
        // Every line maps to one 4-way set, so every access misses.
        assert_eq!(cache.stats().misses(), 3 * lines);
    }

    /// Zero evictable candidates (only the protected line resident, yet
    /// over budget): the shrink must be a no-op for every budgeted
    /// policy, and Random must not consume a draw.
    #[test]
    fn zero_candidate_shrink_keeps_the_protected_line() {
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ] {
            let mut set = BudgetedSet {
                tags: vec![7],
                meta: vec![LineMeta {
                    valid_sectors: 1,
                    dirty_sectors: 1,
                    prefetched: 0,
                    stamp: 1,
                    word_mask: 1,
                    sharers: 1,
                    size_bytes: 128,
                }],
                occupied_bytes: 128,
            };
            let mut stats = CacheStats::new();
            let mut traffic = MemoryTraffic::new();
            let mut observers = ObserverStack {
                stats: &mut stats,
                traffic: &mut traffic,
                word_usage: None,
                sharing: None,
                footprints: None,
            };
            let mut evictions = Evictions::None;
            let mut rng = Rng::seed_from_stream(0, 0);
            let before = rng.clone();
            let rng_opt = (policy == ReplacementPolicy::Random).then_some(&mut rng);
            shrink_to_budget(
                &mut set,
                64,
                Some(7),
                policy,
                rng_opt,
                64,
                &mut observers,
                &mut evictions,
            );
            assert_eq!(set.tags.len(), 1, "{policy:?}: protected line must survive");
            assert!(evictions.as_slice().is_empty(), "{policy:?}");
            assert_eq!(stats.evictions(), 0, "{policy:?}");
            assert_eq!(
                rng.next_u64(),
                before.clone().next_u64(),
                "{policy:?}: no candidates must mean no draw"
            );
        }
    }

    /// Single-candidate sets: with exactly one evictable line, every
    /// policy must pick it — checked across a conflict stream so the
    /// property holds at every step, for slotted (direct-mapped) and
    /// budgeted (incompressible payloads at associativity 1) storage.
    #[test]
    fn single_candidate_victims_for_all_policies() {
        for policy in POLICIES {
            let config = CacheConfig::new(4096, 64, 1)
                .unwrap()
                .with_policy(policy)
                .with_policy_seed(3);
            let sets = config.sets();
            let mut cache = PipelineCache::<FullLineFill>::new(config);
            for i in 0..8u64 {
                let outcome = cache.access(i * sets * 64, i % 2 == 0);
                assert!(!outcome.is_hit(), "{policy:?}: distinct tags never hit");
            }
            assert_eq!(cache.stats().evictions(), 7, "{policy:?}");
            assert_eq!(cache.resident_lines(), 1, "{policy:?}");
            assert!(
                cache.contains(7 * sets * 64),
                "{policy:?}: last tag resident"
            );
        }
        // Budgeted storage (tree-PLRU is rejected there at construction).
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ] {
            let config = CacheConfig::new(4096, 64, 1)
                .unwrap()
                .with_policy(policy)
                .with_policy_seed(3);
            let sets = config.sets();
            let mut cache = PipelineCache::<CompressedFill>::new(config, Box::new(Fpc::new()));
            let data = incompressible_line(9, 64);
            for i in 0..8u64 {
                let outcome = cache.access_with_data(i * sets * 64, false, &data);
                assert!(!outcome.is_hit(), "{policy:?}");
            }
            assert_eq!(cache.stats().evictions(), 7, "{policy:?}");
            assert_eq!(cache.resident_lines(), 1, "{policy:?}");
            assert!(
                cache.contains(7 * sets * 64),
                "{policy:?}: last tag resident"
            );
        }
    }

    /// The per-set stream property behind bank partitioning: running two
    /// sets' subsequences separately and merging equals running them
    /// interleaved, because each set's Random draws depend only on its
    /// own accesses.
    #[test]
    fn per_set_random_streams_are_set_local() {
        let config = CacheConfig::new(8192, 64, 2)
            .unwrap()
            .with_policy(ReplacementPolicy::Random)
            .with_policy_seed(11);
        let sets = config.sets();
        let a_addrs: Vec<u64> = (0..64).map(|i| i * sets * 64).collect();
        let b_addrs: Vec<u64> = (0..64).map(|i| i * sets * 64 + 64).collect();

        let run = |streams: &[&[u64]]| {
            let mut cache = PipelineCache::<FullLineFill>::new(config);
            // Round-robin across streams, preserving each stream's order.
            let longest = streams.iter().map(|s| s.len()).max().unwrap();
            for i in 0..longest {
                for s in streams {
                    if let Some(&addr) = s.get(i) {
                        cache.access(addr, i % 3 == 0);
                    }
                }
            }
            (*cache.stats(), *cache.traffic())
        };

        let (mut a_stats, mut a_traffic) = run(&[&a_addrs]);
        let (b_stats, b_traffic) = run(&[&b_addrs]);
        a_stats.merge(&b_stats);
        a_traffic.merge(&b_traffic);
        assert_eq!((a_stats, a_traffic), run(&[&a_addrs, &b_addrs]));
    }
}
