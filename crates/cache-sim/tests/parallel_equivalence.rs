//! Differential tests: `run(trace, n, threads)` must produce the same
//! statistics *bit for bit* at every thread count — miss counts,
//! cold-miss classification, eviction and write-back counts, traffic
//! bytes, sharing fractions, and coherence events all included. The
//! 1-thread run is the reference: it is the same engine with one bank,
//! not a separate code path.
//!
//! The grid deliberately includes the configurations that historically
//! fell back to a sequential path — Random replacement and mismatched
//! L1/L2 line sizes — and asserts through the [`Partitioning`] API that
//! **zero** grid configurations degrade to a single bank when more than
//! one thread is requested.

use bandwall_cache_sim::{
    CacheConfig, CmpSimConfig, CoherentSimConfig, CompressorKind, EngineSimConfig, FillSpec,
    L2Organization, Partitioning, ProfileKind, ReplacementPolicy, ValueSpec,
};
use bandwall_trace::{MixTrace, ParsecLikeTrace, StridedTrace, TraceSource, ZipfTrace};

const THREADS: [usize; 4] = [1, 2, 4, 8];

const WORKLOADS: usize = 3;

/// The workload grid: entry `index` builds a fresh, identically seeded
/// trace every call, so every thread count sees the same stream.
fn workload(index: usize, cores: u16, seed: u64) -> Box<dyn TraceSource> {
    match index {
        0 => Box::new(
            ParsecLikeTrace::builder_with_regions(cores, 800, 500)
                .shared_access_fraction(0.4)
                .seed(seed)
                .build(),
        ),
        1 => Box::new(
            ParsecLikeTrace::builder(cores)
                .write_fraction(0.5)
                .echo_probability(0.3)
                .seed(seed ^ 0xABCD)
                .build(),
        ),
        _ => Box::new(
            MixTrace::builder()
                .component(Box::new(ZipfTrace::builder(4096, 0.9).build()), 2.0)
                .component(Box::new(StridedTrace::new(1 << 20, 64, 6000)), 1.0)
                .seed(seed)
                .build(),
        ),
    }
}

/// No configuration in the grid may take a degraded path: with more
/// than one thread requested, the partition must bank — the bank count
/// is capped by geometry only, never forced to 1 by policy or line
/// sizes.
fn assert_banked(partitioning: Partitioning, threads: usize, context: &dyn std::fmt::Debug) {
    assert!(
        threads == 1 || partitioning.banks() > 1,
        "degraded path at threads {threads} for {context:?}: {partitioning:?}"
    );
}

fn run_cmp_grid(config: CmpSimConfig, accesses: usize, seed: u64) {
    for threads in THREADS {
        assert_banked(config.partitioning(threads), threads, &config);
    }
    for w in 0..WORKLOADS {
        let reference = config
            .run(&mut workload(w, config.cores, seed), accesses, 1)
            .expect("valid config");
        for threads in THREADS {
            let banked = config
                .run(&mut workload(w, config.cores, seed), accesses, threads)
                .expect("valid config");
            assert_eq!(
                reference, banked,
                "config {config:?}, workload {w}, seed {seed}, threads {threads}"
            );
        }
    }
}

#[test]
fn shared_l2_grid_is_bit_identical() {
    for cores in [1u16, 4] {
        for seed in [3u64, 41] {
            let config = CmpSimConfig {
                cores,
                l1: CacheConfig::new(1 << 10, 64, 2).unwrap(),
                l2: CacheConfig::new(128 << 10, 64, 8).unwrap(),
                organization: L2Organization::Shared,
                l2_fill: FillSpec::FullLine,
                flush: false,
            };
            run_cmp_grid(config, 50_000, seed);
        }
    }
}

/// Every private organisation — non-inclusive, inclusive and exclusive —
/// banks bit-identically, under LRU and Random replacement, both as the
/// one-core L1 + L2 hierarchy drained at the end and as a 4-core CMP.
#[test]
fn private_l2_grid_is_bit_identical() {
    for organization in [
        L2Organization::Private,
        L2Organization::InclusivePrivate,
        L2Organization::ExclusivePrivate,
    ] {
        for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Random] {
            for (cores, flush) in [(1u16, true), (4, false)] {
                let config = CmpSimConfig {
                    cores,
                    l1: CacheConfig::new(512, 64, 2)
                        .unwrap()
                        .with_policy(policy)
                        .with_policy_seed(21),
                    l2: CacheConfig::new(32 << 10, 64, 4)
                        .unwrap()
                        .with_policy(policy)
                        .with_policy_seed(22),
                    organization,
                    l2_fill: FillSpec::FullLine,
                    flush,
                };
                for seed in [7u64, 19] {
                    run_cmp_grid(config, 50_000, seed);
                }
            }
        }
    }
}

#[test]
fn flush_preserves_equivalence() {
    // Flushing drains every set; write-heavy traffic makes the final
    // write-back accounting the interesting part.
    let config = CmpSimConfig {
        cores: 8,
        l1: CacheConfig::new(512, 64, 2).unwrap(),
        l2: CacheConfig::new(64 << 10, 64, 8).unwrap(),
        organization: L2Organization::Shared,
        l2_fill: FillSpec::FullLine,
        flush: true,
    };
    run_cmp_grid(config, 40_000, 13);
}

#[test]
fn replacement_policies_stay_equivalent() {
    for policy in [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::TreePlru,
        ReplacementPolicy::Random,
    ] {
        let config = CmpSimConfig {
            cores: 4,
            l1: CacheConfig::new(1 << 10, 64, 4)
                .unwrap()
                .with_policy(policy),
            l2: CacheConfig::new(32 << 10, 64, 8)
                .unwrap()
                .with_policy(policy),
            organization: L2Organization::Shared,
            l2_fill: FillSpec::FullLine,
            flush: false,
        };
        run_cmp_grid(config, 40_000, 29);
    }
}

#[test]
fn random_replacement_banks_like_any_other_policy() {
    // Historically the configuration that fell back to one bank; the
    // per-set RNG streams make it partition like LRU.
    let config = CmpSimConfig {
        cores: 4,
        l1: CacheConfig::new(1 << 10, 64, 4)
            .unwrap()
            .with_policy(ReplacementPolicy::Random)
            .with_policy_seed(5),
        l2: CacheConfig::new(32 << 10, 64, 8)
            .unwrap()
            .with_policy(ReplacementPolicy::Random)
            .with_policy_seed(6),
        organization: L2Organization::Shared,
        l2_fill: FillSpec::FullLine,
        flush: false,
    };
    // The 4-set L1 caps the partition at 4 banks; policy never does.
    assert_eq!(
        config.partitioning(4),
        Partitioning::Full {
            banks: 4,
            granularity: 64
        }
    );
    assert_eq!(
        config.partitioning(8),
        Partitioning::Capped {
            banks: 4,
            granularity: 64,
            aligned_sets: 4
        }
    );
    run_cmp_grid(config, 30_000, 57);
}

#[test]
fn mismatched_line_sizes_partition_on_the_coarser_granularity() {
    // L1 32 B lines under an L2 with 64 B lines: the partition
    // interleaves at 64 B, and the L1's 16 sets align down to 8.
    let fine_l1 = CmpSimConfig {
        cores: 4,
        l1: CacheConfig::new(1 << 10, 32, 2).unwrap(),
        l2: CacheConfig::new(64 << 10, 64, 8).unwrap(),
        organization: L2Organization::Shared,
        l2_fill: FillSpec::FullLine,
        flush: true,
    };
    assert_eq!(
        fine_l1.partitioning(8),
        Partitioning::Full {
            banks: 8,
            granularity: 64
        }
    );
    run_cmp_grid(fine_l1, 40_000, 61);

    // L1 64 B lines under an L2 with 128 B lines, private organization.
    let coarse_l2 = CmpSimConfig {
        cores: 4,
        l1: CacheConfig::new(2 << 10, 64, 2).unwrap(),
        l2: CacheConfig::new(64 << 10, 128, 8).unwrap(),
        organization: L2Organization::Private,
        l2_fill: FillSpec::FullLine,
        flush: true,
    };
    assert_eq!(
        coarse_l2.partitioning(8),
        Partitioning::Full {
            banks: 8,
            granularity: 128
        }
    );
    run_cmp_grid(coarse_l2, 40_000, 67);
}

#[test]
fn random_plus_mismatched_plus_compressed_composes() {
    // The historical worst case: both former fallback triggers at once,
    // on a compressed L2 (multi-victim budgeted evictions included).
    let config = CmpSimConfig {
        cores: 4,
        l1: CacheConfig::new(2 << 10, 64, 2)
            .unwrap()
            .with_policy(ReplacementPolicy::Random)
            .with_policy_seed(8),
        l2: CacheConfig::new(32 << 10, 128, 8)
            .unwrap()
            .with_policy(ReplacementPolicy::Random)
            .with_policy_seed(9),
        organization: L2Organization::Shared,
        l2_fill: FillSpec::Compressed {
            compressor: CompressorKind::Fpc,
            values: ValueSpec {
                profile: ProfileKind::Commercial,
                seed: 71,
            },
        },
        flush: true,
    };
    assert_eq!(config.partitioning(8).granularity(), 128);
    run_cmp_grid(config, 30_000, 71);
}

#[test]
fn coherent_cmp_grid_is_bit_identical() {
    for (cores, seed) in [(2u16, 5u64), (4, 17), (8, 31)] {
        for flush in [false, true] {
            let config = CoherentSimConfig {
                cores,
                cache: CacheConfig::new(8 << 10, 64, 4).unwrap(),
                fill: FillSpec::FullLine,
                flush,
            };
            let fresh = || {
                ParsecLikeTrace::builder_with_regions(cores, 400, 300)
                    .shared_access_fraction(0.5)
                    .write_fraction(0.4)
                    .seed(seed)
                    .build()
            };
            let reference = config.run(&mut fresh(), 50_000, 1).unwrap();
            for threads in THREADS {
                assert_banked(config.partitioning(threads), threads, &config);
                let banked = config.run(&mut fresh(), 50_000, threads).unwrap();
                assert_eq!(
                    reference, banked,
                    "cores {cores}, flush {flush}, threads {threads}"
                );
            }
            // Coherence traffic must actually be exercised for this test
            // to mean anything.
            if cores > 1 {
                assert!(reference.coherence.invalidations() > 0, "cores {cores}");
            }
        }
    }
}

#[test]
fn coherent_random_replacement_stays_banked_and_bit_identical() {
    let config = CoherentSimConfig {
        cores: 4,
        cache: CacheConfig::new(8 << 10, 64, 4)
            .unwrap()
            .with_policy(ReplacementPolicy::Random)
            .with_policy_seed(13),
        fill: FillSpec::FullLine,
        flush: true,
    };
    assert_eq!(
        config.partitioning(8),
        Partitioning::Full {
            banks: 8,
            granularity: 64
        }
    );
    let fresh = || {
        ParsecLikeTrace::builder_with_regions(4, 400, 300)
            .shared_access_fraction(0.5)
            .write_fraction(0.4)
            .seed(37)
            .build()
    };
    let reference = config.run(&mut fresh(), 40_000, 1).unwrap();
    for threads in THREADS {
        let banked = config.run(&mut fresh(), 40_000, threads).unwrap();
        assert_eq!(reference, banked, "threads {threads}");
    }
    assert!(reference.coherence.invalidations() > 0);
}

#[test]
fn parallel_runs_are_repeatable() {
    // Same config + trace + thread count twice: thread scheduling must
    // never leak into the statistics.
    let config = CmpSimConfig {
        cores: 4,
        l1: CacheConfig::new(1 << 10, 64, 2).unwrap(),
        l2: CacheConfig::new(64 << 10, 64, 8).unwrap(),
        organization: L2Organization::Shared,
        l2_fill: FillSpec::FullLine,
        flush: true,
    };
    let fresh = || ParsecLikeTrace::builder(4).seed(77).build();
    let a = config.run(&mut fresh(), 60_000, 4).unwrap();
    let b = config.run(&mut fresh(), 60_000, 4).unwrap();
    assert_eq!(a, b);
}

/// The unified-pipeline fill grid: every [`FillSpec`] the engine knows.
fn fill_specs() -> [FillSpec; 5] {
    let values = ValueSpec {
        profile: ProfileKind::Commercial,
        seed: 11,
    };
    [
        FillSpec::FullLine,
        FillSpec::Sectored {
            sectors_per_line: 8,
        },
        FillSpec::PredictiveSectored {
            sectors_per_line: 8,
        },
        FillSpec::Compressed {
            compressor: CompressorKind::Fpc,
            values,
        },
        FillSpec::SectoredCompressed {
            sectors_per_line: 4,
            compressor: CompressorKind::Bdi,
            values,
        },
    ]
}

#[test]
fn engine_grid_is_bit_identical_for_every_fill() {
    for fill in fill_specs() {
        for flush in [false, true] {
            let config = EngineSimConfig {
                cache: CacheConfig::new(16 << 10, 64, 4).unwrap(),
                fill,
                flush,
            };
            for w in 0..WORKLOADS {
                let reference = config.run(&mut workload(w, 4, 23), 40_000, 1).unwrap();
                for threads in THREADS {
                    assert_banked(config.partitioning(threads), threads, &config);
                    let banked = config
                        .run(&mut workload(w, 4, 23), 40_000, threads)
                        .unwrap();
                    assert_eq!(
                        reference, banked,
                        "fill {fill:?}, flush {flush}, workload {w}, threads {threads}"
                    );
                }
            }
        }
    }
}

#[test]
fn engine_random_replacement_banks_for_every_fill() {
    for fill in fill_specs() {
        let config = EngineSimConfig {
            cache: CacheConfig::new(16 << 10, 64, 4)
                .unwrap()
                .with_policy(ReplacementPolicy::Random)
                .with_policy_seed(9),
            fill,
            flush: false,
        };
        // 64 sets: the full 8 banks, Random or not.
        assert_eq!(
            config.partitioning(8),
            Partitioning::Full {
                banks: 8,
                granularity: 64
            },
            "fill {fill:?}"
        );
        let reference = config.run(&mut workload(0, 4, 31), 20_000, 1).unwrap();
        for threads in THREADS {
            let banked = config
                .run(&mut workload(0, 4, 31), 20_000, threads)
                .unwrap();
            assert_eq!(reference, banked, "fill {fill:?}, threads {threads}");
        }
    }
}

#[test]
fn sectored_l2_cmp_grid_is_bit_identical() {
    let config = CmpSimConfig {
        cores: 4,
        l1: CacheConfig::new(1 << 10, 64, 2).unwrap(),
        l2: CacheConfig::new(64 << 10, 64, 8).unwrap(),
        organization: L2Organization::Shared,
        l2_fill: FillSpec::Sectored {
            sectors_per_line: 4,
        },
        flush: true,
    };
    run_cmp_grid(config, 40_000, 37);
}

#[test]
fn compressed_l2_cmp_grid_is_bit_identical() {
    let config = CmpSimConfig {
        cores: 4,
        l1: CacheConfig::new(1 << 10, 64, 2).unwrap(),
        l2: CacheConfig::new(32 << 10, 64, 8).unwrap(),
        organization: L2Organization::Private,
        l2_fill: FillSpec::Compressed {
            compressor: CompressorKind::Fpc,
            values: ValueSpec {
                profile: ProfileKind::Integer,
                seed: 3,
            },
        },
        flush: true,
    };
    run_cmp_grid(config, 40_000, 43);
}

#[test]
fn compressed_coherent_grid_is_bit_identical() {
    let config = CoherentSimConfig {
        cores: 4,
        cache: CacheConfig::new(8 << 10, 64, 4).unwrap(),
        fill: FillSpec::Compressed {
            compressor: CompressorKind::BestOf,
            values: ValueSpec {
                profile: ProfileKind::Commercial,
                seed: 29,
            },
        },
        flush: true,
    };
    let fresh = || {
        ParsecLikeTrace::builder_with_regions(4, 400, 300)
            .shared_access_fraction(0.5)
            .write_fraction(0.4)
            .seed(19)
            .build()
    };
    let reference = config.run(&mut fresh(), 40_000, 1).unwrap();
    for threads in THREADS {
        assert_banked(config.partitioning(threads), threads, &config);
        let banked = config.run(&mut fresh(), 40_000, threads).unwrap();
        assert_eq!(reference, banked, "threads {threads}");
    }
    assert!(reference.coherence.invalidations() > 0);
}
