//! Sectored cache: fetch only the referenced sectors of a line
//! (Section 6.2's "Sectored Caches" technique) — a thin alias over the
//! unified access pipeline with a [`SectoredFill`] policy.
//!
//! Lines are divided into sectors; a miss fetches just the sector the
//! processor asked for, so unused words never cross the memory link. The
//! cache frame is still allocated at line granularity — exactly the
//! paper's assumption that sectoring reduces *traffic* but not *capacity*
//! pressure.
//!
//! The paper assumes "only sectors that will be referenced by the
//! processor are fetched". [`PredictiveSectoredCache`] implements that
//! mechanism with a last-footprint predictor ([`PredictiveSectoredFill`]):
//! a line miss also fetches the sectors the line used during its previous
//! residency. Mispredictions show up either as *overfetch* (predicted
//! sectors never used) or as extra sector misses (used sectors not
//! predicted), so experiments can measure how close a real predictor gets
//! to the paper's assumption.

#[cfg(test)]
use crate::config::CacheConfig;
use crate::pipeline::{PipelineCache, PredictiveSectoredFill, SectoredFill};

/// A sectored, write-back cache — the unified pipeline with
/// sector-granularity fills.
///
/// # Examples
///
/// ```
/// use bandwall_cache_sim::{CacheConfig, SectoredCache};
///
/// // 64-byte lines split into 4 sectors of 16 bytes.
/// let mut cache = SectoredCache::new(CacheConfig::new(4096, 64, 4)?, 4);
/// cache.access(0x00, false); // line miss: fetches 16 bytes, not 64
/// assert_eq!(cache.traffic().fetched_bytes(), 16);
/// cache.access(0x08, false); // same sector: hit
/// assert_eq!(cache.traffic().fetched_bytes(), 16);
/// cache.access(0x30, false); // sector miss within a resident line
/// assert_eq!(cache.traffic().fetched_bytes(), 32);
/// // A conventional cache would have fetched a whole line by now.
/// assert_eq!(cache.conventional_fetch_bytes(), 64);
/// # Ok::<(), bandwall_cache_sim::ConfigError>(())
/// ```
pub type SectoredCache = PipelineCache<SectoredFill>;

/// A sectored, write-back cache with a last-footprint predictor — the
/// unified pipeline with [`PredictiveSectoredFill`].
///
/// # Examples
///
/// ```
/// use bandwall_cache_sim::{CacheConfig, PredictiveSectoredCache};
///
/// let mut cache = PredictiveSectoredCache::new(CacheConfig::new(1024, 64, 2)?, 8);
/// // First residency: touch sectors 0 and 1, then lose the line.
/// cache.access(0, false);
/// cache.access(8, false);
/// for conflict in 1..=2u64 {
///     cache.access(conflict * 8 * 64, false); // 8 sets -> same set
/// }
/// // Second residency: the predictor prefetches both sectors at once.
/// cache.access(0, false);
/// assert!(cache.access(8, false).is_hit()); // sector 1 was prefetched
/// assert_eq!(cache.prefetched_sectors(), 1);
/// # Ok::<(), bandwall_cache_sim::ConfigError>(())
/// ```
pub type PredictiveSectoredCache = PipelineCache<PredictiveSectoredFill>;

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> SectoredCache {
        SectoredCache::new(CacheConfig::new(1024, 64, 2).unwrap(), 8)
    }

    #[test]
    fn fetches_at_sector_granularity() {
        let mut c = cache();
        c.access(0, false);
        assert_eq!(c.traffic().fetched_bytes(), 8);
        assert_eq!(c.conventional_fetch_bytes(), 64);
        assert!((c.fetch_savings() - 7.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn sector_hit_and_miss_within_line() {
        let mut c = cache();
        c.access(0, false);
        c.access(4, false); // same 8-byte sector: hit
        assert_eq!(c.stats().hits(), 1);
        c.access(8, false); // next sector: sector miss
        assert_eq!(c.sector_misses(), 1);
        assert_eq!(c.traffic().fetched_bytes(), 16);
    }

    #[test]
    fn dirty_sectors_written_back_individually() {
        let mut c = cache();
        c.access(0, true); // sector 0 dirty
        c.access(8, false); // sector 1 clean
                            // Conflict the line out (8 sets; line addrs 0, 8, 16 map to set 0).
        c.access(8 * 64, false);
        c.access(16 * 64, false);
        assert_eq!(c.traffic().written_bytes(), 8, "only the dirty sector");
    }

    #[test]
    fn savings_approach_unused_fraction() {
        // Touch only 5 of 8 sectors per line: savings ≈ 3/8 once lines
        // are fully exercised.
        let mut c = SectoredCache::new(CacheConfig::new(512, 64, 1).unwrap(), 8);
        for line in 0..1000u64 {
            for sector in 0..5 {
                c.access(line * 64 + sector * 8, false);
            }
        }
        assert!(
            (c.fetch_savings() - 0.375).abs() < 0.01,
            "savings {}",
            c.fetch_savings()
        );
    }

    #[test]
    fn one_sector_per_line_degenerates_to_conventional() {
        let mut c = SectoredCache::new(CacheConfig::new(512, 64, 1).unwrap(), 1);
        c.access(0, false);
        c.access(32, false);
        assert_eq!(c.traffic().fetched_bytes(), 64);
        assert_eq!(c.conventional_fetch_bytes(), 64);
        assert_eq!(c.fetch_savings(), 0.0);
    }

    #[test]
    fn lru_replacement_within_sectored_sets() {
        let mut c = SectoredCache::new(CacheConfig::new(512, 64, 2).unwrap(), 4);
        // 4 sets; lines 0, 4, 8 collide in set 0.
        c.access(0, false);
        c.access(4 * 64, false);
        c.access(0, false); // refresh line 0
        c.access(8 * 64, false); // evicts line 4
        c.access(0, false);
        assert_eq!(c.stats().hits(), 2, "line 0 must stay resident");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_sector_count_panics() {
        SectoredCache::new(CacheConfig::new(512, 64, 2).unwrap(), 3);
    }

    #[test]
    fn accessors() {
        let c = cache();
        assert_eq!(c.sectors_per_line(), 8);
        assert_eq!(c.config().line_size(), 64);
        assert_eq!(c.sector_misses(), 0);
    }

    mod predictive {
        use super::*;

        fn cache() -> PredictiveSectoredCache {
            // 1024 B, 64 B lines, 2-way -> 8 sets.
            PredictiveSectoredCache::new(CacheConfig::new(1024, 64, 2).unwrap(), 8)
        }

        /// Drives line 0 out of set 0 by touching two conflicting lines.
        fn evict_line_zero(c: &mut PredictiveSectoredCache) {
            c.access(8 * 64, false);
            c.access(16 * 64, false);
        }

        #[test]
        fn first_residency_fetches_on_demand() {
            let mut c = cache();
            c.access(0, false);
            c.access(8, false);
            assert_eq!(c.traffic().fetched_bytes(), 16, "two sectors on demand");
            assert_eq!(c.prefetched_sectors(), 0);
        }

        #[test]
        fn second_residency_prefetches_learned_footprint() {
            let mut c = cache();
            c.access(0, false); // sector 0
            c.access(8, false); // sector 1
            evict_line_zero(&mut c);
            let before = c.traffic().fetched_bytes();
            let miss = c.access(0, false);
            assert!(!miss.is_hit(), "line miss");
            // Footprint {0,1} fetched at once.
            assert_eq!(c.traffic().fetched_bytes() - before, 16);
            assert_eq!(miss.fetched_bytes(), 16);
            assert!(c.access(8, false).is_hit(), "prefetched sector hits");
        }

        #[test]
        fn overfetch_tracked_when_behaviour_changes() {
            let mut c = cache();
            // Residency 1 uses sectors 0..4.
            for s in 0..4u64 {
                c.access(s * 8, false);
            }
            evict_line_zero(&mut c);
            // Residency 2 uses only sector 0; 3 prefetched sectors wasted.
            c.access(0, false);
            evict_line_zero(&mut c);
            assert_eq!(c.prefetched_sectors(), 3);
            assert_eq!(c.overfetched_sectors(), 3);
            assert!(c.overfetch_fraction() > 0.9);
        }

        #[test]
        fn stable_footprints_approach_the_paper_assumption() {
            // Every line always uses its first 3 of 8 sectors. After
            // training, savings approach the paper's 5/8.
            let mut c = PredictiveSectoredCache::new(CacheConfig::new(512, 64, 1).unwrap(), 8);
            for _ in 0..20 {
                for line in 0..64u64 {
                    for s in 0..3u64 {
                        c.access(line * 64 + s * 8, false);
                    }
                }
            }
            let savings = c.fetch_savings();
            assert!(
                (savings - 5.0 / 8.0).abs() < 0.02,
                "savings {savings}, assumption 0.625"
            );
            assert!(c.overfetch_fraction() < 0.01);
        }

        #[test]
        fn dirty_sectors_written_back() {
            let mut c = cache();
            c.access(0, true);
            evict_line_zero(&mut c);
            assert_eq!(c.traffic().written_bytes(), 8);
        }

        #[test]
        fn predictor_reduces_sector_misses_vs_demand_fetch() {
            let mut plain = SectoredCache::new(CacheConfig::new(2048, 64, 2).unwrap(), 8);
            let mut predictive =
                PredictiveSectoredCache::new(CacheConfig::new(2048, 64, 2).unwrap(), 8);
            // Loop over 64 lines touching 4 sectors each, several rounds.
            for _ in 0..10 {
                for line in 0..64u64 {
                    for s in 0..4u64 {
                        plain.access(line * 64 + s * 8, false);
                        predictive.access(line * 64 + s * 8, false);
                    }
                }
            }
            assert!(
                predictive.stats().misses() < plain.stats().misses(),
                "predictive {} vs plain {}",
                predictive.stats().misses(),
                plain.stats().misses()
            );
        }

        #[test]
        #[should_panic(expected = "power of two")]
        fn invalid_sector_count_panics() {
            PredictiveSectoredCache::new(CacheConfig::new(512, 64, 2).unwrap(), 5);
        }

        #[test]
        fn accessors() {
            let c = cache();
            assert_eq!(c.config().line_size(), 64);
            assert_eq!(c.sectors_per_line(), 8);
            assert_eq!(c.conventional_fetch_bytes(), 0);
            assert_eq!(c.fetch_savings(), 0.0);
            assert_eq!(c.prefetched_sectors(), 0);
            assert_eq!(c.overfetched_sectors(), 0);
            assert_eq!(c.overfetch_fraction(), 0.0);
        }
    }
}
