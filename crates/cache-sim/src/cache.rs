//! The conventional whole-line cache — a thin alias over the unified
//! access pipeline (`pipeline.rs`), which owns the set/way/replacement
//! core and the observer stack. The behavioural tests for that core live
//! here, exercised through the `Cache` alias.

#[cfg(test)]
use crate::config::{CacheConfig, ReplacementPolicy};
pub use crate::pipeline::{AccessOutcome, EvictedLine};
use crate::pipeline::{FullLineFill, PipelineCache};

/// A set-associative, write-back, write-allocate cache with selectable
/// replacement policy and optional word-usage / sharer tracking — the
/// unified pipeline with whole-line fills.
///
/// # Examples
///
/// ```
/// use bandwall_cache_sim::{Cache, CacheConfig};
///
/// let mut cache = Cache::new(CacheConfig::new(4096, 64, 4)?);
/// assert!(!cache.access(0x1000, false).is_hit()); // cold miss
/// assert!(cache.access(0x1000, false).is_hit());  // now resident
/// assert_eq!(cache.stats().misses(), 1);
/// # Ok::<(), bandwall_cache_sim::ConfigError>(())
/// ```
pub type Cache = PipelineCache<FullLineFill>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigError;

    fn small_cache(policy: ReplacementPolicy) -> Cache {
        // 4 sets × 2 ways × 64 B lines = 512 B.
        Cache::new(
            CacheConfig::new(512, 64, 2)
                .unwrap()
                .with_policy(policy)
                .with_policy_seed(3),
        )
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small_cache(ReplacementPolicy::Lru);
        assert!(!c.access(0, false).is_hit());
        assert!(c.access(0, false).is_hit());
        assert!(c.access(8, false).is_hit(), "same line, different word");
        assert_eq!(c.stats().hits(), 2);
        assert_eq!(c.stats().misses(), 1);
        assert_eq!(c.stats().cold_misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small_cache(ReplacementPolicy::Lru);
        // Set 0 holds lines with line_addr % 4 == 0: 0, 4, 8 (addresses
        // 0, 1024, 2048 with 64-byte lines and 4 sets).
        c.access(0, false);
        c.access(1024, false);
        c.access(0, false); // refresh line 0
        let out = c.access(2048, false); // evicts line 1024's line (addr 16)
        let ev = out.evicted().unwrap();
        assert_eq!(ev.line_address(), 1024 / 64);
        assert!(c.contains(0));
        assert!(!c.contains(1024));
    }

    #[test]
    fn fifo_ignores_recency() {
        let mut c = small_cache(ReplacementPolicy::Fifo);
        c.access(0, false);
        c.access(1024, false);
        c.access(0, false); // refresh does not help under FIFO
        let out = c.access(2048, false);
        assert_eq!(out.evicted().unwrap().line_address(), 0);
    }

    #[test]
    fn writeback_on_dirty_eviction_only() {
        let mut c = small_cache(ReplacementPolicy::Lru);
        c.access(0, true); // dirty
        c.access(1024, false); // clean
        c.access(2048, false); // evicts line 0 (dirty)
        assert_eq!(c.stats().writebacks(), 1);
        c.access(3072, false); // evicts line 1024 (clean)
        assert_eq!(c.stats().writebacks(), 1);
        assert_eq!(c.stats().evictions(), 2);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small_cache(ReplacementPolicy::Lru);
        c.access(0, false);
        c.access(0, true); // dirty via hit
        c.access(1024, false);
        let out = c.access(2048, false);
        assert!(out.evicted().unwrap().dirty());
    }

    #[test]
    fn word_usage_tracking() {
        let mut c = small_cache(ReplacementPolicy::Lru).with_word_tracking();
        c.access(0, false); // word 0
        c.access(16, false); // word 2 of the same line
        c.access(1024, false);
        c.access(2048, false); // evicts line 0 with 2 used words
        let usage = c.word_usage().unwrap();
        assert_eq!(usage.evicted_lines(), 1);
        // 2 of 8 words used → 75% unused.
        assert!((usage.unused_fraction() - 0.75).abs() < 1e-12);
    }

    /// A 1 KB line has 128 words, more than the 64-bit word mask holds:
    /// tracking would fold words 63..128 into one bit and undercount.
    #[test]
    #[should_panic(expected = "at most 64 words")]
    fn word_tracking_rejects_lines_over_512_bytes() {
        let _ = Cache::new(CacheConfig::new(8192, 1024, 2).unwrap()).with_word_tracking();
    }

    #[test]
    fn sharer_tracking() {
        let mut c = small_cache(ReplacementPolicy::Lru).with_sharer_tracking();
        c.access_from(0, 0, false);
        c.access_from(3, 0, false); // second core touches line 0
        c.access_from(1, 1024, false); // single-core line
        c.access_from(0, 2048, false); // evicts line 0 (2 sharers)
        c.access_from(0, 3072, false); // evicts line 1024 (1 sharer)
        let sharing = c.sharing().unwrap();
        assert_eq!(sharing.evicted_lines(), 2);
        assert_eq!(sharing.shared_lines(), 1);
        assert_eq!(sharing.shared_fraction(), 0.5);
    }

    #[test]
    fn random_policy_is_deterministic_per_seed() {
        let run = |seed| {
            let mut c = Cache::new(
                CacheConfig::new(512, 64, 2)
                    .unwrap()
                    .with_policy(ReplacementPolicy::Random)
                    .with_policy_seed(seed),
            );
            let mut evictions = Vec::new();
            for i in 0..50u64 {
                if let Some(ev) = c.access(i * 1024, false).evicted() {
                    evictions.push(ev.line_address());
                }
            }
            evictions
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn tree_plru_behaves_like_lru_for_two_ways() {
        // With 2 ways the PLRU tree is exact LRU.
        let mut plru = small_cache(ReplacementPolicy::TreePlru);
        let mut lru = small_cache(ReplacementPolicy::Lru);
        let pattern: Vec<u64> = vec![0, 1024, 0, 2048, 1024, 0, 3072, 2048, 0, 1024];
        for &a in &pattern {
            let ph = plru.access(a, false).is_hit();
            let lh = lru.access(a, false).is_hit();
            assert_eq!(ph, lh, "divergence at address {a}");
        }
    }

    #[test]
    fn tree_plru_victim_is_untouched_way() {
        // 1 set × 4 ways.
        let mut c = Cache::new(
            CacheConfig::new(256, 64, 4)
                .unwrap()
                .with_policy(ReplacementPolicy::TreePlru),
        );
        for line in 0..4u64 {
            c.access(line * 64, false);
        }
        // Touch lines 0..3 in order; PLRU victim should be line 0.
        let out = c.access(4 * 64, false);
        assert_eq!(out.evicted().unwrap().line_address(), 0);
    }

    #[test]
    fn resident_lines_counts() {
        let mut c = small_cache(ReplacementPolicy::Lru);
        assert_eq!(c.resident_lines(), 0);
        c.access(0, false);
        c.access(64, false);
        assert_eq!(c.resident_lines(), 2);
    }

    #[test]
    fn flush_reports_dirty_lines() {
        let mut c = small_cache(ReplacementPolicy::Lru);
        c.access(0, true);
        c.access(64, false);
        let flushed = c.flush();
        assert_eq!(flushed.len(), 2);
        assert_eq!(flushed.iter().filter(|e| e.dirty()).count(), 1);
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.stats().evictions(), 2);
    }

    #[test]
    fn conflict_misses_in_direct_mapped() {
        let mut c = Cache::new(CacheConfig::new(256, 64, 1).unwrap());
        // Two lines mapping to the same set (4 sets).
        c.access(0, false);
        c.access(4 * 64, false);
        assert!(!c.access(0, false).is_hit(), "conflict must have evicted");
        // Not a cold miss the second time.
        assert_eq!(c.stats().cold_misses(), 2);
        assert_eq!(c.stats().misses(), 3);
    }

    #[test]
    fn geometry_errors_bubble_up() {
        let err = CacheConfig::new(100, 64, 2).unwrap_err();
        assert!(matches!(err, ConfigError::Indivisible { .. }));
    }

    #[test]
    fn invalidate_removes_and_counts() {
        let mut c = small_cache(ReplacementPolicy::Lru);
        c.access(0, true);
        let ev = c.invalidate(0).unwrap();
        assert!(ev.dirty());
        assert_eq!(c.stats().evictions(), 1);
        assert_eq!(c.stats().writebacks(), 1);
        assert!(!c.contains(0));
        assert!(c.invalidate(0).is_none());
    }

    #[test]
    fn extract_is_silent() {
        let mut c = small_cache(ReplacementPolicy::Lru);
        c.access(0, false);
        let ev = c.extract(0).unwrap();
        assert!(!ev.dirty());
        assert_eq!(c.stats().evictions(), 0);
        assert!(!c.contains(0));
        assert!(c.extract(64).is_none());
    }

    #[test]
    fn fully_associative_lru_matches_stack_property() {
        // A fully-associative LRU cache of N lines must hit iff the reuse
        // distance is < N. Cross-check against the trace crate's profiler.
        use bandwall_trace::{MissRateProbe, StackDistanceTrace, TraceSource};
        let lines: usize = 64;
        let mut cache = Cache::new(CacheConfig::new(64 * lines as u64, 64, lines as u32).unwrap());
        let mut probe = MissRateProbe::new(&[lines]);
        let mut trace = StackDistanceTrace::builder(0.5)
            .seed(8)
            .max_distance(1 << 12)
            .build();
        let mut cache_misses = 0u64;
        let n = 20_000;
        for a in trace.iter().take(n) {
            let line = a.address() / 64;
            probe.observe(line);
            if !cache.access(line * 64, false).is_hit() {
                cache_misses += 1;
            }
        }
        let probe_misses = (probe.miss_rates()[0] * n as f64).round() as u64;
        assert_eq!(cache_misses, probe_misses);
    }
}
