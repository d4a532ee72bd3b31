//! The engine against an independent oracle: `EngineSimConfig::run` on
//! one bank must return exactly the statistics of the reference simulator
//! in `oracle/mod.rs`, for every fill × every replacement policy the fill
//! allows × line sizes {32, 64, 128} × write fractions {0.15, 0.6} ×
//! flush on and off.
//!
//! Banked runs are held to the one-bank run by
//! `parallel_equivalence.rs`; `size_cache_equivalence.rs` also diffs
//! banked compressed runs against the oracle directly.

mod oracle;

use bandwall_cache_sim::{
    CacheConfig, CompressorKind, EngineSimConfig, FillSpec, ProfileKind, ReplacementPolicy,
    ValueSpec,
};
use bandwall_trace::{MixTrace, ParsecLikeTrace, PointerChaseTrace, StackDistanceTrace};

const LINE_SIZES: [u64; 3] = [32, 64, 128];

const WRITE_FRACTIONS: [f64; 2] = [0.15, 0.6];

const ACCESSES: usize = 6_000;

const POLICIES: [ReplacementPolicy; 4] = [
    ReplacementPolicy::Lru,
    ReplacementPolicy::Fifo,
    ReplacementPolicy::Random,
    ReplacementPolicy::TreePlru,
];

/// A fresh, identically seeded workload per call. Three components,
/// each relocated to its own region: Pareto reuse touching 5 words per
/// line, a pointer chase whose nodes always use the same 3 words (stable
/// footprints for the predictor), and a 4-thread PARSEC-like stream.
/// Together they overflow the 4 KiB grid cache at every line size.
fn workload(write_fraction: f64, seed: u64) -> MixTrace {
    MixTrace::builder()
        .component(
            Box::new(
                StackDistanceTrace::builder(0.5)
                    .touched_words(5)
                    .max_distance(1 << 9)
                    .write_fraction(write_fraction)
                    .seed(seed)
                    .build(),
            ),
            2.0,
        )
        .component(
            Box::new(
                PointerChaseTrace::builder(160)
                    .payload_words(2)
                    .write_fraction(write_fraction)
                    .seed(seed ^ 0x5EED)
                    .build(),
            ),
            1.0,
        )
        .component(
            Box::new(
                ParsecLikeTrace::builder_with_regions(4, 48, 32)
                    .write_fraction(write_fraction)
                    .seed(seed ^ 0xCAFE)
                    .build(),
            ),
            1.0,
        )
        .seed(seed)
        .build()
}

const FULL_LINE: FillSpec = FillSpec::FullLine;

const SECTORED: FillSpec = FillSpec::Sectored {
    sectors_per_line: 4,
};

const PREDICTIVE: FillSpec = FillSpec::PredictiveSectored {
    sectors_per_line: 8,
};

const COMPRESSED: FillSpec = FillSpec::Compressed {
    compressor: CompressorKind::Fpc,
    values: ValueSpec {
        profile: ProfileKind::Commercial,
        seed: 5,
    },
};

const SECTORED_COMPRESSED: FillSpec = FillSpec::SectoredCompressed {
    sectors_per_line: 4,
    compressor: CompressorKind::Bdi,
    values: ValueSpec {
        profile: ProfileKind::Integer,
        seed: 6,
    },
};

const FILLS: [FillSpec; 5] = [
    FULL_LINE,
    SECTORED,
    PREDICTIVE,
    COMPRESSED,
    SECTORED_COMPRESSED,
];

/// The policies `fill` allows: tree-PLRU needs fixed ways, which
/// byte-budgeted (compressed) sets do not have.
fn policies(fill: FillSpec) -> &'static [ReplacementPolicy] {
    match fill {
        FillSpec::Compressed { .. } | FillSpec::SectoredCompressed { .. } => &POLICIES[..3],
        _ => &POLICIES,
    }
}

fn assert_fill_matches_oracle(fill: FillSpec) {
    for &policy in policies(fill) {
        for line_size in LINE_SIZES {
            let cache = CacheConfig::new(4 << 10, line_size, 4)
                .unwrap()
                .with_policy(policy)
                .with_policy_seed(17);
            for write_fraction in WRITE_FRACTIONS {
                for flush in [false, true] {
                    let config = EngineSimConfig { cache, fill, flush };
                    let seed = 41 + line_size;
                    let engine = config
                        .run(&mut workload(write_fraction, seed), ACCESSES, 1)
                        .unwrap();
                    let expected =
                        oracle::run(&config, &mut workload(write_fraction, seed), ACCESSES);
                    assert_eq!(
                        engine, expected,
                        "fill {fill:?}, policy {policy:?}, line size {line_size}, \
                         write fraction {write_fraction}, flush {flush}"
                    );
                }
            }
        }
    }
}

#[test]
fn full_line_fill_matches_the_oracle() {
    assert_fill_matches_oracle(FULL_LINE);
}

#[test]
fn sectored_fill_matches_the_oracle() {
    assert_fill_matches_oracle(SECTORED);
}

#[test]
fn predictive_sectored_fill_matches_the_oracle() {
    assert_fill_matches_oracle(PREDICTIVE);
}

#[test]
fn compressed_fill_matches_the_oracle() {
    assert_fill_matches_oracle(COMPRESSED);
}

#[test]
fn sectored_compressed_fill_matches_the_oracle() {
    assert_fill_matches_oracle(SECTORED_COMPRESSED);
}

/// The grid must exercise what it claims to: evictions and write-backs
/// under every fill, sector misses under the sectored ones, and both
/// prefetches and overfetch under the predictor.
#[test]
fn the_grid_exercises_every_mechanism() {
    for fill in FILLS {
        let config = EngineSimConfig {
            cache: CacheConfig::new(4 << 10, 64, 4).unwrap(),
            fill,
            flush: true,
        };
        let stats = oracle::run(&config, &mut workload(0.15, 105), ACCESSES);
        assert!(stats.cache.evictions() > 0, "{fill:?}");
        assert!(stats.cache.writebacks() > 0, "{fill:?}");
        assert!(stats.cache.cold_misses() > 0, "{fill:?}");
        assert!(stats.cache.hits() > 0, "{fill:?}");
        let sectored = !matches!(fill, FillSpec::FullLine | FillSpec::Compressed { .. });
        assert_eq!(stats.sector_misses > 0, sectored, "{fill:?}");
        let predictive = matches!(fill, FillSpec::PredictiveSectored { .. });
        assert_eq!(stats.prefetched_sectors > 0, predictive, "{fill:?}");
        assert_eq!(stats.overfetched_sectors > 0, predictive, "{fill:?}");
        assert_eq!(
            stats.compression.lines() > 0,
            matches!(
                fill,
                FillSpec::Compressed { .. } | FillSpec::SectoredCompressed { .. }
            ),
            "{fill:?}"
        );
    }
}
