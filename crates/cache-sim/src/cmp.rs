//! Chip-multiprocessor cache system: per-core L1s over a shared or
//! private L2 (the simulator behind Figure 14 and the data-sharing
//! analysis of Section 6.3).
//!
//! The paper's per-core L1 + L2 hierarchy is the one-core case: off-chip
//! traffic = L2 fetches + L2 write-backs, and the private organisations
//! choose how the two levels relate — no constraint
//! ([`L2Organization::Private`]), L1 ⊆ L2
//! ([`L2Organization::InclusivePrivate`]), or L1 ∩ L2 = ∅
//! ([`L2Organization::ExclusivePrivate`]).
//!
//! The L2 level is generic over the unified pipeline's [`Fill`] policy, so
//! a shared or non-inclusive private L2 can be sectored or compressed
//! ([`CmpSystem::try_with_l2_fill`]) as well as the conventional
//! whole-line default.

use crate::cache::{Cache, EvictedLine};
use crate::config::{CacheConfig, ConfigError};
use crate::pipeline::{Fill, FullLineFill, PipelineCache};
use crate::stats::{CacheStats, MemoryTraffic, SharingStats};
use bandwall_trace::MemoryAccess;

/// L2 organisation for a [`CmpSystem`].
///
/// [`InclusivePrivate`](L2Organization::InclusivePrivate) and
/// [`ExclusivePrivate`](L2Organization::ExclusivePrivate) move whole
/// lines between the levels, so they need a whole-line, uncompressed L2
/// with the L1's line size; [`CmpSystem::try_with_l2_fill`] and
/// [`CmpSimConfig::run`](crate::CmpSimConfig::run) reject anything else
/// with [`ConfigError::OutOfRange`]. A shared L2 has no inclusive or
/// exclusive form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum L2Organization {
    /// One L2 shared by all cores, with per-line sharer tracking.
    Shared,
    /// One private L2 per core (shared data gets replicated), with no
    /// inclusion constraint: L2 evictions leave L1 copies alone, and
    /// dirty L1 victims are written through to the L2.
    Private,
    /// One private L2 per core holding everything its L1 holds
    /// (L1 ⊆ L2): an L2 eviction back-invalidates the L1 copy, and a
    /// dirty L1 copy goes straight to memory.
    InclusivePrivate,
    /// One private victim L2 per core sharing no line with its L1
    /// (L1 ∩ L2 = ∅): an L2 hit moves the line into the L1, and every
    /// L1 victim — clean or dirty — fills the L2.
    ExclusivePrivate,
}

/// A CMP cache system: `cores` private L1s over a shared or per-core L2.
///
/// Accesses are routed by the [`MemoryAccess::thread`] field (thread ==
/// core here, matching the paper's one-thread-per-core assumption). The
/// `F2` parameter selects the L2 fill policy; it defaults to
/// [`FullLineFill`] so the historical `CmpSystem` API is unchanged.
///
/// # Examples
///
/// ```
/// use bandwall_cache_sim::{CacheConfig, CmpSystem, L2Organization};
/// use bandwall_trace::MemoryAccess;
///
/// let mut cmp = CmpSystem::new(
///     4,
///     CacheConfig::new(1 << 10, 64, 2)?,
///     CacheConfig::new(64 << 10, 64, 8)?,
///     L2Organization::Shared,
/// );
/// cmp.access(MemoryAccess::read(0x40).on_thread(0));
/// cmp.access(MemoryAccess::read(0x40).on_thread(3));
/// assert_eq!(cmp.memory_traffic().fetched_bytes(), 64); // fetched once
/// # Ok::<(), bandwall_cache_sim::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CmpSystem<F2: Fill = FullLineFill> {
    l1s: Vec<Cache>,
    /// The one shared L2, or one private L2 per core.
    l2s: Vec<PipelineCache<F2>>,
    traffic: MemoryTraffic,
    organization: L2Organization,
}

impl CmpSystem<FullLineFill> {
    /// Builds a CMP with `cores` cores.
    ///
    /// For [`L2Organization::Shared`] the `l2` geometry describes the one
    /// shared cache (sharer tracking enabled); for the private
    /// organisations it describes *each* core's private L2.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero, or if the organisation is inclusive or
    /// exclusive and the two line sizes differ; [`CmpSystem::try_new`] is
    /// the fallible equivalent.
    pub fn new(cores: u16, l1: CacheConfig, l2: CacheConfig, organization: L2Organization) -> Self {
        Self::try_new(cores, l1, l2, organization)
            .expect("a CMP needs at least one core, and inclusion needs equal line sizes")
    }

    /// Builds a CMP with `cores` cores, rejecting an invalid system with a
    /// [`ConfigError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Zero`] when `cores` is zero, and
    /// [`ConfigError::OutOfRange`] for an inclusive or exclusive
    /// organisation whose L1 and L2 line sizes differ.
    pub fn try_new(
        cores: u16,
        l1: CacheConfig,
        l2: CacheConfig,
        organization: L2Organization,
    ) -> Result<Self, ConfigError> {
        Self::try_with_l2_fill(cores, l1, l2, organization, FullLineFill)
    }
}

impl<F2: Fill> CmpSystem<F2> {
    /// Builds a CMP whose L2 level uses the given fill policy (sectored,
    /// compressed, or both) — the composed configurations the unified
    /// pipeline makes expressible.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Zero`] when `cores` is zero, and
    /// [`ConfigError::OutOfRange`] (named `"organization"`) when an
    /// inclusive or exclusive organisation is built over an L2 that is
    /// sectored, compressed, or of another line size than the L1.
    pub fn try_with_l2_fill(
        cores: u16,
        l1: CacheConfig,
        l2: CacheConfig,
        organization: L2Organization,
        l2_fill: F2,
    ) -> Result<Self, ConfigError> {
        if cores == 0 {
            return Err(ConfigError::Zero { name: "cores" });
        }
        let moves_lines = matches!(
            organization,
            L2Organization::InclusivePrivate | L2Organization::ExclusivePrivate
        );
        if moves_lines
            && (l2_fill.sectors_per_line() != 1
                || l2_fill.budgeted()
                || l2.line_size() != l1.line_size())
        {
            return Err(ConfigError::OutOfRange {
                name: "organization",
                constraint: "must be Shared or Private over a sectored or compressed L2, \
                             or one whose line size differs from the L1's",
            });
        }
        let l1s = (0..cores).map(|_| Cache::new(l1)).collect();
        let l2s = match organization {
            L2Organization::Shared => {
                vec![PipelineCache::with_fill(l2, l2_fill).with_sharer_tracking()]
            }
            _ => (0..cores)
                .map(|_| PipelineCache::with_fill(l2, l2_fill.clone()))
                .collect(),
        };
        Ok(CmpSystem {
            l1s,
            l2s,
            traffic: MemoryTraffic::new(),
            organization,
        })
    }

    /// Number of cores.
    pub fn cores(&self) -> u16 {
        self.l1s.len() as u16
    }

    /// The L2 organisation.
    pub fn organization(&self) -> L2Organization {
        self.organization
    }

    /// Off-chip traffic accumulated so far.
    pub fn memory_traffic(&self) -> &MemoryTraffic {
        &self.traffic
    }

    /// Sharing statistics of the shared L2 (`None` for private L2s, which
    /// track no sharers).
    pub fn sharing(&self) -> Option<&SharingStats> {
        self.l2s[0].sharing()
    }

    /// Aggregated L1 statistics across cores.
    pub fn l1_stats(&self) -> CacheStats {
        let mut total = CacheStats::new();
        for c in &self.l1s {
            total.merge(c.stats());
        }
        total
    }

    /// Aggregated L2 statistics (the shared cache, or all private L2s).
    pub fn l2_stats(&self) -> CacheStats {
        let mut total = CacheStats::new();
        for c in &self.l2s {
            total.merge(c.stats());
        }
        total
    }

    /// Routes one access through the issuing core's hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if the access's thread id is not a valid core index.
    #[inline]
    pub fn access(&mut self, access: MemoryAccess) {
        let core = access.thread();
        assert!(
            (core as usize) < self.l1s.len(),
            "thread {core} exceeds core count {}",
            self.l1s.len()
        );
        let address = access.address();
        let is_write = access.kind().is_write();
        let l2 = match self.organization {
            L2Organization::Shared => 0,
            L2Organization::Private => core as usize,
            L2Organization::InclusivePrivate => {
                return self.access_inclusive(core, address, is_write)
            }
            L2Organization::ExclusivePrivate => {
                return self.access_exclusive(core, address, is_write)
            }
        };
        // No inclusion constraint: the L1 and the L2 serving it (the
        // shared one or the core's own) fill independently.
        let l1 = &mut self.l1s[core as usize];
        let l1_line = l1.config().line_size();
        let l1_out = l1.access_from(core, address, is_write);
        let l2 = &mut self.l2s[l2];
        // Settlement is the single source of off-chip accounting: the
        // fetch (if the L2 missed) plus a write-back per dirty victim.
        // A dirty L1 victim goes to the L2 as a write.
        if let Some(victim) = l1_out.evicted().filter(|v| v.dirty()) {
            l2.access_from(core, victim.line_address() * l1_line, true)
                .settle(&mut self.traffic);
        }
        if !l1_out.is_hit() {
            l2.access_from(core, address, false)
                .settle(&mut self.traffic);
        }
    }

    fn access_inclusive(&mut self, core: u16, address: u64, is_write: bool) {
        let c = core as usize;
        let line = self.l2s[c].config().line_size();
        let l1_out = self.l1s[c].access_from(core, address, is_write);
        if let Some(victim) = l1_out.evicted().filter(|v| v.dirty()) {
            // Inclusion means the L2 normally still holds the line; merge
            // the dirty data there. The eviction write-back cannot use
            // plain settlement here: back-invalidation folds the L1 copy's
            // dirty bit into one combined write-back.
            let victim_addr = victim.line_address() * line;
            let l2_out = self.l2s[c].access_from(core, victim_addr, true);
            self.back_invalidate(core, l2_out.evicted());
            if l2_out.fetched_bytes() > 0 {
                self.traffic.record_fetch(l2_out.fetched_bytes());
            }
        }
        if !l1_out.is_hit() {
            let l2_out = self.l2s[c].access_from(core, address, false);
            self.back_invalidate(core, l2_out.evicted());
            if l2_out.fetched_bytes() > 0 {
                self.traffic.record_fetch(l2_out.fetched_bytes());
            }
        }
    }

    /// Enforces inclusion after an L2 eviction: `core`'s L1 copy (if
    /// any) is invalidated, and its dirty data — now homeless — goes to
    /// memory.
    fn back_invalidate(&mut self, core: u16, evicted: Option<EvictedLine>) {
        let Some(v) = evicted else { return };
        let line = self.l2s[core as usize].config().line_size();
        let addr = v.line_address() * line;
        let l1_dirty = self.l1s[core as usize]
            .invalidate(addr)
            .map(|l1_copy| l1_copy.dirty())
            .unwrap_or(false);
        if v.dirty() || l1_dirty {
            self.traffic.record_writeback(line);
        }
    }

    fn access_exclusive(&mut self, core: u16, address: u64, is_write: bool) {
        let l1 = &mut self.l1s[core as usize];
        let l2 = &mut self.l2s[core as usize];
        let line = l1.config().line_size();
        let l1_out = l1.access_from(core, address, is_write);
        if !l1_out.is_hit() {
            // The line enters the L1; an exclusive L2 must give up its
            // copy (a hit) or the data comes from memory (a miss).
            match l2.extract(address) {
                Some(l2_copy) => {
                    if l2_copy.dirty() {
                        l1.mark_dirty(address);
                    }
                }
                None => self.traffic.record_fetch(line),
            }
        }
        // Every L1 victim — clean or dirty — fills the victim L2; no
        // memory fetch is involved (the data came from the L1), so only
        // the L2 victim's write-back settles.
        if let Some(victim) = l1_out.evicted() {
            let victim_addr = victim.line_address() * line;
            l2.access_from(core, victim_addr, victim.dirty())
                .settle_evictions(&mut self.traffic);
        }
    }

    /// Drains both cache levels, accounting final write-backs.
    pub fn flush(&mut self) {
        // L1 dirty victims flow into the L2 first. An exclusive L2 takes
        // them as victim fills: the data is already on chip, so no fetch
        // settles, only the L2's own dirty victims.
        let shared = self.organization == L2Organization::Shared;
        let exclusive = self.organization == L2Organization::ExclusivePrivate;
        for (core, l1) in self.l1s.iter_mut().enumerate() {
            let l1_line = l1.config().line_size();
            let l2 = &mut self.l2s[if shared { 0 } else { core }];
            for victim in l1.flush().into_iter().filter(|v| v.dirty()) {
                let out = l2.access_from(core as u16, victim.line_address() * l1_line, true);
                if exclusive {
                    out.settle_evictions(&mut self.traffic);
                } else {
                    out.settle(&mut self.traffic);
                }
            }
        }
        for l2 in &mut self.l2s {
            for v in l2.flush() {
                if v.dirty() {
                    self.traffic.record_writeback(v.writeback_bytes());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{CompressedFill, SectoredFill};
    use bandwall_compress::Fpc;
    use bandwall_trace::{ParsecLikeTrace, TraceSource};

    fn small_cmp(cores: u16, org: L2Organization) -> CmpSystem {
        CmpSystem::new(
            cores,
            CacheConfig::new(512, 64, 2).unwrap(),
            CacheConfig::new(16 << 10, 64, 8).unwrap(),
            org,
        )
    }

    #[test]
    fn shared_l2_fetches_shared_line_once() {
        let mut cmp = small_cmp(4, L2Organization::Shared);
        for core in 0..4 {
            cmp.access(MemoryAccess::read(0x80).on_thread(core));
        }
        assert_eq!(cmp.memory_traffic().fetched_bytes(), 64);
    }

    #[test]
    fn private_l2_replicates_shared_line() {
        let mut cmp = small_cmp(4, L2Organization::Private);
        for core in 0..4 {
            cmp.access(MemoryAccess::read(0x80).on_thread(core));
        }
        // Every core misses its own private hierarchy.
        assert_eq!(cmp.memory_traffic().fetched_bytes(), 4 * 64);
    }

    #[test]
    fn sharing_stats_only_for_shared_l2() {
        let shared = small_cmp(2, L2Organization::Shared);
        assert!(shared.sharing().is_some());
        let private = small_cmp(2, L2Organization::Private);
        assert!(private.sharing().is_none());
    }

    #[test]
    fn routes_by_thread() {
        let mut cmp = small_cmp(2, L2Organization::Shared);
        cmp.access(MemoryAccess::read(0).on_thread(0));
        cmp.access(MemoryAccess::read(64).on_thread(1));
        let l1 = cmp.l1_stats();
        assert_eq!(l1.accesses(), 2);
        assert_eq!(l1.misses(), 2);
    }

    #[test]
    #[should_panic(expected = "exceeds core count")]
    fn out_of_range_thread_panics() {
        let mut cmp = small_cmp(2, L2Organization::Shared);
        cmp.access(MemoryAccess::read(0).on_thread(5));
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        small_cmp(0, L2Organization::Shared);
    }

    #[test]
    fn parsec_like_sharing_fraction_declines_with_cores() {
        // The Figure 14 experiment in miniature.
        let fraction = |cores: u16| {
            let mut cmp = CmpSystem::new(
                cores,
                CacheConfig::new(512, 64, 2).unwrap(),
                CacheConfig::new(512 << 10, 64, 8).unwrap(),
                L2Organization::Shared,
            );
            let mut trace = ParsecLikeTrace::builder_with_regions(cores, 4000, 1500)
                .shared_access_fraction(0.4)
                .seed(21)
                .build();
            for a in trace.iter().take(300_000) {
                cmp.access(a);
            }
            cmp.sharing().unwrap().shared_fraction()
        };
        let f4 = fraction(4);
        let f8 = fraction(8);
        let f16 = fraction(16);
        assert!(
            f4 > f8 && f8 > f16,
            "sharing must decline: {f4:.3} {f8:.3} {f16:.3}"
        );
        // The paper's Figure 14 band is 15–17.5%; ours lands nearby.
        assert!(f4 > 0.08 && f4 < 0.30, "f4 = {f4}");
    }

    #[test]
    fn shared_vs_private_traffic_with_sharing_workload() {
        // A shared L2 should generate no more memory traffic than private
        // L2s of the same total capacity when data is shared.
        let run = |org: L2Organization, l2_bytes: u64| {
            let mut cmp = CmpSystem::new(
                4,
                CacheConfig::new(512, 64, 2).unwrap(),
                CacheConfig::new(l2_bytes, 64, 8).unwrap(),
                org,
            );
            let mut trace = ParsecLikeTrace::builder_with_regions(4, 500, 500)
                .shared_access_fraction(0.5)
                .seed(33)
                .build();
            for a in trace.iter().take(100_000) {
                cmp.access(a);
            }
            cmp.memory_traffic().total_bytes()
        };
        // 64 KB shared vs 4 × 16 KB private.
        let shared = run(L2Organization::Shared, 64 << 10);
        let private = run(L2Organization::Private, 16 << 10);
        assert!(
            shared < private,
            "shared {shared} B should beat private {private} B"
        );
    }

    #[test]
    fn flush_writes_back_all_dirty_data() {
        let mut cmp = small_cmp(2, L2Organization::Private);
        cmp.access(MemoryAccess::write(0).on_thread(0));
        cmp.access(MemoryAccess::write(64).on_thread(1));
        cmp.flush();
        assert_eq!(cmp.memory_traffic().written_bytes(), 128);
    }

    #[test]
    fn accessors() {
        let cmp = small_cmp(3, L2Organization::Shared);
        assert_eq!(cmp.cores(), 3);
        assert_eq!(cmp.organization(), L2Organization::Shared);
        assert_eq!(cmp.l2_stats().accesses(), 0);
        let inclusive = small_cmp(1, L2Organization::InclusivePrivate);
        assert_eq!(inclusive.organization(), L2Organization::InclusivePrivate);
    }

    #[test]
    fn inclusion_outside_its_domain_is_out_of_range() {
        let l1 = CacheConfig::new(512, 64, 2).unwrap();
        let l2 = CacheConfig::new(4096, 64, 4).unwrap();
        let wide_lines = CacheConfig::new(4096, 128, 4).unwrap();
        for org in [
            L2Organization::InclusivePrivate,
            L2Organization::ExclusivePrivate,
        ] {
            let errors = [
                CmpSystem::try_new(1, l1, wide_lines, org).unwrap_err(),
                CmpSystem::try_with_l2_fill(1, l1, l2, org, SectoredFill::new(4)).unwrap_err(),
                CmpSystem::try_with_l2_fill(
                    1,
                    l1,
                    l2,
                    org,
                    CompressedFill::new(Box::new(Fpc::new())),
                )
                .unwrap_err(),
            ];
            for err in errors {
                assert!(
                    matches!(
                        err,
                        ConfigError::OutOfRange {
                            name: "organization",
                            ..
                        }
                    ),
                    "{org:?}: {err:?}"
                );
                assert_eq!(
                    err.to_string(),
                    "organization must be Shared or Private over a sectored or compressed L2, \
                     or one whose line size differs from the L1's"
                );
            }
            assert!(CmpSystem::try_new(1, l1, l2, org).is_ok());
        }
        // The other organisations compose with every fill and line size.
        for org in [L2Organization::Shared, L2Organization::Private] {
            assert!(CmpSystem::try_new(1, l1, wide_lines, org).is_ok());
            assert!(CmpSystem::try_with_l2_fill(1, l1, l2, org, SectoredFill::new(4)).is_ok());
        }
    }

    /// One core over an L2 of the given organisation: the per-core
    /// two-level hierarchy.
    fn one_core(l1: CacheConfig, l2: CacheConfig, org: L2Organization) -> CmpSystem {
        CmpSystem::new(1, l1, l2, org)
    }

    fn hierarchy() -> CmpSystem {
        one_core(
            CacheConfig::new(512, 64, 2).unwrap(),
            CacheConfig::new(4096, 64, 4).unwrap(),
            L2Organization::Private,
        )
    }

    #[test]
    fn l1_hit_generates_no_traffic() {
        let mut h = hierarchy();
        h.access(MemoryAccess::read(0));
        let after_fill = h.memory_traffic().total_bytes();
        h.access(MemoryAccess::read(0));
        h.access(MemoryAccess::read(8));
        assert_eq!(h.memory_traffic().total_bytes(), after_fill);
        assert_eq!(h.l1_stats().hits(), 2);
    }

    #[test]
    fn l1_miss_l2_hit_generates_no_traffic() {
        let mut h = hierarchy();
        h.access(MemoryAccess::read(0));
        // Lines 0, 8 and 16 share L1 set 0 (4 sets, 2 ways): the third
        // evicts line 0 from the L1 while the L2 keeps it.
        h.access(MemoryAccess::read(8 * 64));
        h.access(MemoryAccess::read(16 * 64)); // L1 evicts line 0
        let traffic = h.memory_traffic().total_bytes();
        h.access(MemoryAccess::read(0)); // L1 miss, L2 hit
        assert_eq!(h.memory_traffic().total_bytes(), traffic);
        assert!(h.l2_stats().hits() >= 1);
    }

    #[test]
    fn cold_miss_fetches_one_line() {
        let mut h = hierarchy();
        h.access(MemoryAccess::read(0));
        assert_eq!(h.memory_traffic().fetched_bytes(), 64);
        assert_eq!(h.memory_traffic().written_bytes(), 0);
    }

    #[test]
    fn dirty_data_eventually_written_back() {
        let mut h = hierarchy();
        h.access(MemoryAccess::write(0));
        h.flush();
        assert_eq!(h.memory_traffic().written_bytes(), 64);
    }

    #[test]
    fn clean_data_never_written_back() {
        let mut h = hierarchy();
        for i in 0..32u64 {
            h.access(MemoryAccess::read(i * 64));
        }
        h.flush();
        assert_eq!(h.memory_traffic().written_bytes(), 0);
    }

    #[test]
    fn traffic_decreases_with_larger_l2() {
        use bandwall_trace::StackDistanceTrace;
        let run = |l2_bytes: u64| {
            let mut h = one_core(
                CacheConfig::new(1 << 10, 64, 2).unwrap(),
                CacheConfig::new(l2_bytes, 64, 8).unwrap(),
                L2Organization::Private,
            );
            let mut trace = StackDistanceTrace::builder(0.5)
                .seed(4)
                .max_distance(1 << 14)
                .build();
            for a in trace.iter().take(60_000) {
                h.access(a);
            }
            h.memory_traffic().total_bytes()
        };
        let small = run(16 << 10);
        let large = run(256 << 10);
        assert!(
            large < small,
            "16 KB L2 -> {small} B, 256 KB L2 -> {large} B"
        );
    }

    #[test]
    fn writeback_ratio_roughly_constant_across_neighbouring_sizes() {
        // Section 4.2's empirical claim: write-backs are a roughly
        // constant fraction of misses across cache sizes. Our synthetic
        // trace honours this approximately over moderate size changes
        // (over very wide ranges the single-touch streaming tail shifts
        // the eviction mix, which real workloads do too to a degree).
        use bandwall_trace::StackDistanceTrace;
        let ratio = |l2_bytes: u64| {
            let mut h = one_core(
                CacheConfig::new(1 << 10, 64, 2).unwrap(),
                CacheConfig::new(l2_bytes, 64, 8).unwrap(),
                L2Organization::Private,
            );
            let mut trace = StackDistanceTrace::builder(0.5)
                .seed(12)
                .write_fraction(0.3)
                .max_distance(1 << 14)
                .build();
            for a in trace.iter().take(80_000) {
                h.access(a);
            }
            h.l2_stats().writeback_ratio()
        };
        let r_small = ratio(32 << 10);
        let r_large = ratio(64 << 10);
        assert!(r_small > 0.0 && r_small < 1.0);
        assert!(
            (r_small - r_large).abs() < 0.2,
            "rwb varies too much: {r_small} vs {r_large}"
        );
    }

    /// A 16-line L1 over a direct-mapped 4-line L2, so L2 evictions are
    /// easy to force while the L1 keeps its copies.
    fn inclusive_over_tiny_l2() -> CmpSystem {
        one_core(
            CacheConfig::new(1024, 64, 2).unwrap(),
            CacheConfig::new(256, 64, 1).unwrap(),
            L2Organization::InclusivePrivate,
        )
    }

    #[test]
    fn inclusive_back_invalidates_l1() {
        let mut h = inclusive_over_tiny_l2();
        h.access(MemoryAccess::read(0)); // line 0 in both levels
        assert!(h.l1s[0].contains(0));
        // Conflict line 0 out of L2 set 0 (4 sets: line 4 maps there).
        h.access(MemoryAccess::read(4 * 64));
        // Inclusion: the L1 copy must be gone too.
        assert!(!h.l1s[0].contains(0), "L1 copy must be back-invalidated");
    }

    #[test]
    fn inclusive_dirty_l1_copy_reaches_memory_on_back_invalidation() {
        let mut h = inclusive_over_tiny_l2();
        h.access(MemoryAccess::write(0)); // dirty in L1, clean copy in L2
        h.access(MemoryAccess::read(4 * 64)); // evicts line 0 from L2
        assert_eq!(
            h.memory_traffic().written_bytes(),
            64,
            "dirty L1 data must not be lost"
        );
    }

    fn exclusive() -> CmpSystem {
        one_core(
            CacheConfig::new(512, 64, 2).unwrap(), // 8 lines
            CacheConfig::new(4096, 64, 4).unwrap(),
            L2Organization::ExclusivePrivate,
        )
    }

    #[test]
    fn exclusive_levels_never_share_a_line() {
        let mut h = exclusive();
        for i in 0..40u64 {
            let address = (i % 24) * 64;
            h.access(if i % 3 == 0 {
                MemoryAccess::write(address)
            } else {
                MemoryAccess::read(address)
            });
            // Invariant: no line resident in both levels.
            for line in 0..24u64 {
                let addr = line * 64;
                assert!(
                    !(h.l1s[0].contains(addr) && h.l2s[0].contains(addr)),
                    "line {line} duplicated"
                );
            }
        }
    }

    #[test]
    fn exclusive_l2_hit_avoids_memory_fetch() {
        let mut h = exclusive();
        // Fill L1 set 0 (2 ways; lines 0, 8, 16 collide) and push line 0
        // into the victim L2.
        h.access(MemoryAccess::read(0));
        h.access(MemoryAccess::read(8 * 64));
        h.access(MemoryAccess::read(16 * 64)); // line 0 now lives in L2 only
        assert!(!h.l1s[0].contains(0) && h.l2s[0].contains(0));
        let fetched = h.memory_traffic().fetched_bytes();
        h.access(MemoryAccess::read(0)); // L2 hit: moves back to L1
        assert_eq!(h.memory_traffic().fetched_bytes(), fetched);
        assert!(h.l1s[0].contains(0) && !h.l2s[0].contains(0));
    }

    #[test]
    fn exclusive_preserves_dirty_data_through_the_victim_path() {
        let mut h = exclusive();
        h.access(MemoryAccess::write(0)); // dirty in L1
        h.access(MemoryAccess::read(8 * 64));
        h.access(MemoryAccess::read(16 * 64)); // dirty line 0 pushed into L2
        h.access(MemoryAccess::read(0)); // pulled back into L1 — must still be dirty
        h.flush();
        assert_eq!(
            h.memory_traffic().written_bytes(),
            64,
            "dirty bit must survive the L2 round trip"
        );
    }

    #[test]
    fn exclusive_flush_fetches_nothing() {
        // The dirty L1 line drains into the victim L2 and then to memory;
        // the data is on chip, so the drain fetches nothing.
        let mut h = exclusive();
        h.access(MemoryAccess::write(0));
        assert_eq!(h.memory_traffic().fetched_bytes(), 64);
        h.flush();
        assert_eq!(h.memory_traffic().fetched_bytes(), 64);
        assert_eq!(h.memory_traffic().written_bytes(), 64);
    }

    #[test]
    fn exclusive_effective_capacity_exceeds_inclusive() {
        // With equal geometries, exclusive caching holds L1+L2 distinct
        // lines while inclusive holds only L2-many; a working set sized
        // between the two discriminates.
        use bandwall_trace::ZipfTrace;
        let run = |org: L2Organization| {
            let mut h = one_core(
                CacheConfig::new(2048, 64, 4).unwrap(), // 32 lines
                CacheConfig::new(4096, 64, 4).unwrap(), // 64 lines
                org,
            );
            // 80-line working set: fits L1+L2 (96) but not L2 alone (64).
            let mut t = ZipfTrace::builder(80, 0.2).seed(9).build();
            for a in t.iter().take(60_000) {
                h.access(a);
            }
            h.memory_traffic().fetched_bytes()
        };
        let exclusive = run(L2Organization::ExclusivePrivate);
        let inclusive = run(L2Organization::InclusivePrivate);
        assert!(
            exclusive < inclusive,
            "exclusive {exclusive} should fetch less than inclusive {inclusive}"
        );
    }

    #[test]
    fn config_errors_surface() {
        assert!(matches!(
            CacheConfig::new(1000, 64, 2).unwrap_err(),
            ConfigError::Indivisible { .. }
        ));
    }
}
