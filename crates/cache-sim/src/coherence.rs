//! Directory-based MSI coherence over private caches.
//!
//! The paper's data-sharing analysis (Section 6.3, footnote 1) contrasts
//! a shared L2 — where a shared block occupies one line — with private
//! L2s, where it is replicated and kept coherent. This module supplies
//! the private-cache side faithfully: a full-map directory with
//! Modified/Shared/Invalid states, write-invalidations, and
//! cache-to-cache transfers, so the replication and coherence traffic the
//! footnote reasons about can be *measured* rather than assumed.
//!
//! Off-chip traffic accounting follows the paper's metric: only fetches
//! from and write-backs to memory count; cache-to-cache transfers stay
//! on chip.

use crate::config::{CacheConfig, ConfigError};
use crate::pipeline::{Fill, FullLineFill, PipelineCache};
use crate::stats::{CacheStats, MemoryTraffic};
use bandwall_trace::{LineMap, LineSet, MemoryAccess};

/// Directory entry: which cores hold the line, and whether one holds it
/// modified.
#[derive(Debug, Clone, Default)]
struct DirectoryEntry {
    /// Bitmask of cores with a valid copy.
    sharers: u64,
    /// Core holding the line in Modified state, if any.
    owner: Option<u16>,
}

/// Coherence event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoherenceStats {
    invalidations: u64,
    cache_to_cache: u64,
    coherence_misses: u64,
}

impl CoherenceStats {
    /// Copies invalidated by exclusive-ownership requests.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Misses served by another core's cache instead of memory.
    pub fn cache_to_cache_transfers(&self) -> u64 {
        self.cache_to_cache
    }

    /// Misses on lines this core once held but lost to an invalidation.
    pub fn coherence_misses(&self) -> u64 {
        self.coherence_misses
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &CoherenceStats) {
        self.invalidations += other.invalidations;
        self.cache_to_cache += other.cache_to_cache;
        self.coherence_misses += other.coherence_misses;
    }
}

/// A CMP of private coherent caches under a full-map MSI directory.
///
/// The `F` parameter selects the private caches' fill policy via the
/// unified pipeline — `CoherentCmp` defaults to whole-line fills, and
/// [`CoherentCmp::try_with_fill`] builds the coherent+compressed (or
/// coherent+sectored) compositions.
///
/// # Examples
///
/// Ping-pong on one line: each writer invalidates the other's copy.
///
/// ```
/// use bandwall_cache_sim::{CacheConfig, CoherentCmp};
/// use bandwall_trace::MemoryAccess;
///
/// let mut cmp = CoherentCmp::new(2, CacheConfig::new(4096, 64, 4)?);
/// cmp.access(MemoryAccess::write(0x40).on_thread(0));
/// cmp.access(MemoryAccess::write(0x40).on_thread(1)); // invalidates core 0
/// cmp.access(MemoryAccess::write(0x40).on_thread(0)); // invalidates core 1
/// assert_eq!(cmp.coherence().invalidations(), 2);
/// // The line itself was fetched from memory only once.
/// assert_eq!(cmp.memory_traffic().fetched_bytes(), 64);
/// # Ok::<(), bandwall_cache_sim::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CoherentCmp<F: Fill = FullLineFill> {
    caches: Vec<PipelineCache<F>>,
    directory: LineMap<u64, DirectoryEntry>,
    line_size: u64,
    traffic: MemoryTraffic,
    coherence: CoherenceStats,
    /// Lines each core lost to invalidation (for coherence-miss
    /// classification), as (core, line) pairs.
    lost_lines: LineSet<(u16, u64)>,
}

impl CoherentCmp<FullLineFill> {
    /// Builds a CMP of `cores` private caches with identical geometry.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or exceeds 64 (full-map directory uses a
    /// 64-bit sharer mask); [`CoherentCmp::try_new`] is the fallible
    /// equivalent.
    pub fn new(cores: u16, cache: CacheConfig) -> Self {
        Self::try_new(cores, cache).expect("core count must be in 1..=64")
    }

    /// Builds a CMP of `cores` private caches, rejecting an out-of-domain
    /// core count with a [`ConfigError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Zero`] when `cores` is zero and
    /// [`ConfigError::OutOfRange`] above 64 (the full-map directory uses a
    /// 64-bit sharer mask).
    pub fn try_new(cores: u16, cache: CacheConfig) -> Result<Self, ConfigError> {
        Self::try_with_fill(cores, cache, FullLineFill)
    }
}

impl<F: Fill> CoherentCmp<F> {
    /// Builds a coherent CMP whose private caches use the given fill
    /// policy (e.g. compressed fills for the coherent+compressed
    /// composition).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Zero`] when `cores` is zero and
    /// [`ConfigError::OutOfRange`] above 64 (the full-map directory uses a
    /// 64-bit sharer mask).
    pub fn try_with_fill(cores: u16, cache: CacheConfig, fill: F) -> Result<Self, ConfigError> {
        if cores == 0 {
            return Err(ConfigError::Zero { name: "cores" });
        }
        if cores > 64 {
            return Err(ConfigError::OutOfRange {
                name: "cores",
                constraint: "must be at most 64 (full-map directory)",
            });
        }
        Ok(CoherentCmp {
            caches: (0..cores)
                .map(|_| PipelineCache::with_fill(cache, fill.clone()))
                .collect(),
            directory: LineMap::default(),
            line_size: cache.line_size(),
            traffic: MemoryTraffic::new(),
            coherence: CoherenceStats::default(),
            lost_lines: LineSet::default(),
        })
    }

    /// Number of cores.
    pub fn cores(&self) -> u16 {
        self.caches.len() as u16
    }

    /// Off-chip traffic (fetches + write-backs).
    pub fn memory_traffic(&self) -> &MemoryTraffic {
        &self.traffic
    }

    /// Coherence event counters.
    pub fn coherence(&self) -> &CoherenceStats {
        &self.coherence
    }

    /// Aggregated cache statistics across cores.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::new();
        for c in &self.caches {
            total.merge(c.stats());
        }
        total
    }

    /// Number of valid copies of `address` across all private caches.
    pub fn copies_of(&self, address: u64) -> u32 {
        let line = address / self.line_size;
        self.directory
            .get(&line)
            .map(|e| e.sharers.count_ones())
            .unwrap_or(0)
    }

    /// Routes one access through the issuing core's private cache under
    /// the MSI protocol.
    ///
    /// # Panics
    ///
    /// Panics if the access's thread id is not a valid core index.
    pub fn access(&mut self, access: MemoryAccess) {
        let core = access.thread();
        assert!(
            (core as usize) < self.caches.len(),
            "thread {core} exceeds core count {}",
            self.caches.len()
        );
        let address = access.address();
        let line = address / self.line_size;
        let is_write = access.kind().is_write();
        let core_bit = 1u64 << core;

        let out = self.caches[core as usize].access_from(core, address, is_write);
        // Local evictions: drop from the directory; dirty data goes home.
        // (Compressed fills can shed several victims on one fill.)
        for victim in out.evictions() {
            let entry = self.directory.entry(victim.line_address()).or_default();
            entry.sharers &= !core_bit;
            if entry.owner == Some(core) {
                entry.owner = None;
            }
            if victim.dirty() {
                self.traffic.record_writeback(victim.writeback_bytes());
            }
        }

        // One directory lookup serves the whole access: invalidating or
        // cleaning another core's cache never touches the directory.
        let entry = self.directory.entry(line).or_default();
        if !out.is_hit() {
            // Miss: classify and find the data's source.
            if self.lost_lines.remove(&(core, line)) {
                self.coherence.coherence_misses += 1;
            }
            let others = entry.sharers & !core_bit;
            if others != 0 {
                // Another cache supplies the data on chip.
                self.coherence.cache_to_cache += 1;
            } else {
                self.traffic.record_fetch(out.fetched_bytes());
            }
            entry.sharers |= core_bit;
        }

        if is_write {
            // Gain exclusive ownership: invalidate all other copies.
            // Modified data migrates to the writer, not to memory (dirty
            // ownership transfers).
            let mut victims = entry.sharers & !core_bit;
            while victims != 0 {
                let other = victims.trailing_zeros() as u16;
                victims &= victims - 1;
                if self.caches[other as usize]
                    .invalidate(line * self.line_size)
                    .is_some()
                {
                    self.coherence.invalidations += 1;
                    self.lost_lines.insert((other, line));
                }
            }
            entry.sharers = core_bit;
            entry.owner = Some(core);
        } else if let Some(owner) = entry.owner.filter(|&owner| owner != core) {
            // Read of a modified line: owner downgrades to Shared; the
            // dirty data is forwarded on chip and, per MSI, written back.
            // The owner's copy stays valid but clean, so a later eviction
            // does not write the same data back a second time.
            entry.owner = None;
            if let Some(bytes) = self.caches[owner as usize].clean(line * self.line_size) {
                self.traffic.record_writeback(bytes);
            }
        }
    }

    /// Drains all caches, writing back dirty data.
    pub fn flush(&mut self) {
        for cache in &mut self.caches {
            for victim in cache.flush() {
                if victim.dirty() {
                    self.traffic.record_writeback(victim.writeback_bytes());
                }
            }
        }
        self.directory.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmp(cores: u16) -> CoherentCmp {
        CoherentCmp::new(cores, CacheConfig::new(4096, 64, 4).unwrap())
    }

    #[test]
    fn read_sharing_fetches_once_then_forwards() {
        let mut c = cmp(4);
        for core in 0..4 {
            c.access(MemoryAccess::read(0).on_thread(core));
        }
        assert_eq!(c.memory_traffic().fetched_bytes(), 64);
        assert_eq!(c.coherence().cache_to_cache_transfers(), 3);
        assert_eq!(c.copies_of(0), 4);
    }

    #[test]
    fn write_invalidates_all_other_copies() {
        let mut c = cmp(4);
        for core in 0..4 {
            c.access(MemoryAccess::read(0).on_thread(core));
        }
        c.access(MemoryAccess::write(0).on_thread(2));
        assert_eq!(c.coherence().invalidations(), 3);
        assert_eq!(c.copies_of(0), 1);
    }

    #[test]
    fn re_read_after_invalidation_is_a_coherence_miss() {
        let mut c = cmp(2);
        c.access(MemoryAccess::read(0).on_thread(0));
        c.access(MemoryAccess::write(0).on_thread(1)); // invalidates core 0
        c.access(MemoryAccess::read(0).on_thread(0)); // coherence miss
        assert_eq!(c.coherence().coherence_misses(), 1);
        // The data comes from core 1's cache, not memory.
        assert_eq!(c.coherence().cache_to_cache_transfers(), 2);
        assert_eq!(c.memory_traffic().fetched_bytes(), 64);
    }

    #[test]
    fn reading_a_modified_line_writes_it_back() {
        let mut c = cmp(2);
        c.access(MemoryAccess::write(0).on_thread(0));
        let before = c.memory_traffic().written_bytes();
        c.access(MemoryAccess::read(0).on_thread(1));
        assert_eq!(c.memory_traffic().written_bytes() - before, 64);
    }

    #[test]
    fn a_downgraded_line_is_written_back_once() {
        let mut c = cmp(2);
        c.access(MemoryAccess::write(0).on_thread(0));
        c.access(MemoryAccess::read(0).on_thread(1)); // downgrade: write-back
        assert_eq!(c.memory_traffic().written_bytes(), 64);
        // Core 0's copy is clean now: draining it writes nothing more.
        c.flush();
        assert_eq!(c.memory_traffic().written_bytes(), 64);
    }

    #[test]
    fn private_data_behaves_like_isolated_caches() {
        let mut c = cmp(4);
        // Each core streams its own region.
        for i in 0..400u64 {
            let core = (i % 4) as u16;
            let addr = ((core as u64) << 32) | ((i / 4) * 64);
            c.access(MemoryAccess::read(addr).on_thread(core));
        }
        assert_eq!(c.coherence().invalidations(), 0);
        assert_eq!(c.coherence().cache_to_cache_transfers(), 0);
        assert_eq!(c.memory_traffic().fetched_bytes(), 400 * 64 / 4 * 4);
    }

    #[test]
    fn eviction_removes_directory_entry() {
        // Direct-mapped tiny cache forces evictions.
        let mut c = CoherentCmp::new(2, CacheConfig::new(256, 64, 1).unwrap());
        c.access(MemoryAccess::read(0).on_thread(0));
        assert_eq!(c.copies_of(0), 1);
        // Conflict line 0 out (4 sets: line 4 shares set 0).
        c.access(MemoryAccess::read(4 * 64).on_thread(0));
        assert_eq!(c.copies_of(0), 0);
        // A re-read is a plain miss (from memory), not cache-to-cache.
        c.access(MemoryAccess::read(0).on_thread(0));
        assert_eq!(c.coherence().cache_to_cache_transfers(), 0);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut c = CoherentCmp::new(1, CacheConfig::new(256, 64, 1).unwrap());
        c.access(MemoryAccess::write(0).on_thread(0));
        c.access(MemoryAccess::read(4 * 64).on_thread(0)); // evicts dirty line 0
        assert_eq!(c.memory_traffic().written_bytes(), 64);
    }

    #[test]
    fn flush_drains_dirty_lines() {
        let mut c = cmp(2);
        c.access(MemoryAccess::write(0).on_thread(0));
        c.access(MemoryAccess::write(64).on_thread(1));
        c.flush();
        assert_eq!(c.memory_traffic().written_bytes(), 128);
        assert_eq!(c.copies_of(0), 0);
    }

    #[test]
    fn ping_pong_generates_no_memory_traffic_after_first_fetch() {
        let mut c = cmp(2);
        c.access(MemoryAccess::write(0).on_thread(0));
        let fetched_after_first = c.memory_traffic().fetched_bytes();
        for i in 0..20 {
            c.access(MemoryAccess::write(0).on_thread((i % 2) as u16));
        }
        assert_eq!(c.memory_traffic().fetched_bytes(), fetched_after_first);
        // i = 0 re-writes the current owner; the other 19 writes each
        // invalidate one remote copy.
        assert_eq!(c.coherence().invalidations(), 19);
    }

    #[test]
    #[should_panic(expected = "core count must be in 1..=64")]
    fn zero_cores_panics() {
        cmp(0);
    }

    #[test]
    fn try_new_rejects_out_of_domain_core_counts() {
        let cfg = CacheConfig::new(4096, 64, 4).unwrap();
        assert_eq!(
            CoherentCmp::try_new(0, cfg).unwrap_err(),
            ConfigError::Zero { name: "cores" }
        );
        assert!(matches!(
            CoherentCmp::try_new(65, cfg).unwrap_err(),
            ConfigError::OutOfRange { name: "cores", .. }
        ));
        assert_eq!(CoherentCmp::try_new(64, cfg).unwrap().cores(), 64);
    }

    #[test]
    #[should_panic(expected = "exceeds core count")]
    fn bad_thread_panics() {
        let mut c = cmp(2);
        c.access(MemoryAccess::read(0).on_thread(7));
    }

    #[test]
    fn accessors() {
        let c = cmp(3);
        assert_eq!(c.cores(), 3);
        assert_eq!(c.cache_stats().accesses(), 0);
        assert_eq!(c.coherence(), &CoherenceStats::default());
    }
}
