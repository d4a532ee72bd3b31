//! The size-cache differential harness: the compressed-cache fast path
//! (per-line size cache + tag → size memo + skipped recomputation on
//! data-free write hits) must be observably identical to the test
//! oracle (`oracle/mod.rs`), which recompresses the line payload on every
//! access — byte for byte, across compressors, value profiles, write
//! ratios, and thread counts.
//!
//! Three layers of proof:
//!
//! 1. **Differential grid** — full `EngineSimStats` equality (hit/miss
//!    counters, traffic bytes, compression statistics) between the
//!    oracle and the cached-size path at threads 1, 2, 4, and 8.
//! 2. **Property tests** — arbitrary interleavings of reads, dirty
//!    writes, payload-carrying writes, invalidations, and flushes against
//!    one set never leave a resident line whose cached size disagrees
//!    with a direct `compressed_size` of the payload the line holds,
//!    checked after *every* step (including sector writes through
//!    [`SectoredCompressedFill`]).
//! 3. **Zero-recompression guarantee** — a counting `Compressor` wrapper
//!    proves clean read hits and data-free dirty-write hits make zero
//!    compressor calls, and that refills of previously sized lines are
//!    served from the tag → size memo.

mod oracle;

use bandwall_cache_sim::{
    CacheConfig, CompressedFill, CompressorKind, EngineSimConfig, FillSpec, PipelineCache,
    ProfileKind, SectoredCompressedFill, ValueSpec,
};
use bandwall_compress::{Compressor, DecompressError};
use bandwall_numerics::Rng;
use bandwall_trace::values::LineValueGenerator;
use bandwall_trace::ParsecLikeTrace;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const THREADS: [usize; 4] = [1, 2, 4, 8];

const PROFILES: [ProfileKind; 3] = [
    ProfileKind::Commercial,
    ProfileKind::Integer,
    ProfileKind::FloatingPoint,
];

/// Light- and write-heavy mixes: size recomputation triggers on dirty
/// writes, so the write ratio is the knob that stresses the cache-update
/// path versus the clean-hit fast path.
const WRITE_FRACTIONS: [f64; 2] = [0.15, 0.6];

const LINE: u64 = 64;

/// A fresh, identically seeded trace per call, so the oracle and every
/// thread count see the same access stream. The working set (300 shared +
/// 4 × 200 private lines) overflows the 16 KiB grid cache, keeping
/// budgeted evictions and refills continuous.
fn grid_trace(write_fraction: f64, seed: u64) -> ParsecLikeTrace {
    ParsecLikeTrace::builder_with_regions(4, 300, 200)
        .shared_access_fraction(0.4)
        .write_fraction(write_fraction)
        .seed(seed)
        .build()
}

/// Runs one fill through the full profile × write-ratio × thread grid.
fn assert_matches_oracle(fill_for: impl Fn(ProfileKind) -> FillSpec, accesses: usize) {
    for profile in PROFILES {
        let fill = fill_for(profile);
        let config = EngineSimConfig {
            cache: CacheConfig::new(16 << 10, LINE, 8).unwrap(),
            fill,
            flush: true,
        };
        for write_fraction in WRITE_FRACTIONS {
            let seed = 97 ^ (write_fraction * 10.0) as u64;
            let expected = oracle::run(&config, &mut grid_trace(write_fraction, seed), accesses);
            for threads in THREADS {
                let fast = config
                    .run(&mut grid_trace(write_fraction, seed), accesses, threads)
                    .unwrap();
                assert_eq!(
                    expected, fast,
                    "fill {fill:?}, profile {profile:?}, write fraction {write_fraction}, \
                     threads {threads}"
                );
            }
        }
    }
}

fn compressed(compressor: CompressorKind) -> impl Fn(ProfileKind) -> FillSpec {
    move |profile| FillSpec::Compressed {
        compressor,
        values: ValueSpec { profile, seed: 11 },
    }
}

#[test]
fn fpc_grid_matches_oracle() {
    assert_matches_oracle(compressed(CompressorKind::Fpc), 8_000);
}

#[test]
fn bdi_grid_matches_oracle() {
    assert_matches_oracle(compressed(CompressorKind::Bdi), 8_000);
}

#[test]
fn zero_rle_grid_matches_oracle() {
    assert_matches_oracle(compressed(CompressorKind::ZeroRle), 8_000);
}

#[test]
fn best_of_grid_matches_oracle() {
    assert_matches_oracle(compressed(CompressorKind::BestOf), 6_000);
}

#[test]
fn sectored_compressed_grid_matches_oracle() {
    // The composed fill shares the whole budgeted size path; one exact
    // compressor covers it without re-running the full compressor axis.
    assert_matches_oracle(
        |profile| FillSpec::SectoredCompressed {
            sectors_per_line: 8,
            compressor: CompressorKind::Fpc,
            values: ValueSpec { profile, seed: 11 },
        },
        6_000,
    );
}

// ---------------------------------------------------------------------------
// Property tests: the size-cache invalidation contract (DESIGN.md).
// ---------------------------------------------------------------------------

/// The engine's stored-size rule: compressed size, capped at the line
/// size (a line never occupies more than its uncompressed self).
fn expected_size(compressor: &dyn Compressor, payload: &[u8]) -> u64 {
    (compressor.compressed_size(payload) as u64).min(LINE)
}

/// Single-set geometry: every tag collides, so evictions, refills, and
/// budget shrinks all interleave in one place.
fn one_set_config() -> CacheConfig {
    CacheConfig::new(8 * LINE, LINE, 8).unwrap()
}

#[test]
fn generator_backed_sizes_never_go_stale() {
    // Arbitrary read / dirty-write / invalidate / flush interleavings:
    // after every step, every resident line's cached size must equal a
    // direct recompression of its generator payload.
    for kind in [CompressorKind::Fpc, CompressorKind::BestOf] {
        for seed in [1u64, 29, 303] {
            let generator = LineValueGenerator::new(ProfileKind::Commercial.profile(), seed);
            let compressor = kind.build();
            let fill = CompressedFill::new(kind.build()).with_values(generator.clone());
            let mut cache = PipelineCache::with_fill(one_set_config(), fill);
            let mut rng = Rng::seed_from_stream(0xD1FF, seed);
            for step in 0..1_200 {
                let tag = rng.gen_below(24);
                let address = tag * LINE;
                match rng.gen_below(10) {
                    0..=5 => {
                        cache.access(address, false);
                    }
                    6..=7 => {
                        cache.access(address, true);
                    }
                    8 => {
                        cache.invalidate(address);
                    }
                    _ => {
                        if rng.gen_below(16) == 0 {
                            cache.flush();
                        } else {
                            cache.mark_dirty(address);
                        }
                    }
                }
                for (line_address, size) in cache.stored_sizes() {
                    let payload = generator.line_bytes(line_address * LINE, LINE as usize);
                    assert_eq!(
                        size,
                        expected_size(compressor.as_ref(), &payload),
                        "stale size for line {line_address} after step {step} \
                         (compressor {kind:?}, seed {seed})"
                    );
                }
            }
        }
    }
}

/// A deterministic caller payload for `(tag, version)`; every third
/// version is half zeros so sizes genuinely change across dirty writes.
fn caller_payload(tag: u64, version: u64) -> Vec<u8> {
    let mut rng = Rng::seed_from_stream(tag.wrapping_mul(0x9E37), version);
    let mut out = Vec::with_capacity(LINE as usize);
    for word in 0..LINE / 8 {
        let value = if version.is_multiple_of(3) && word >= 4 {
            0u64
        } else {
            rng.next_u64()
        };
        out.extend_from_slice(&value.to_le_bytes());
    }
    out
}

#[test]
fn caller_payload_sizes_track_the_latest_dirty_write() {
    // Payload-carrying accesses (no generator attached): the cached size
    // must always reflect the payload supplied at the line's last fill or
    // dirty write — data-free reads and writes must not disturb it.
    for seed in [5u64, 47] {
        let compressor = CompressorKind::Fpc.build();
        let fill = CompressedFill::new(CompressorKind::Fpc.build());
        let mut cache = PipelineCache::with_fill(one_set_config(), fill);
        let mut rng = Rng::seed_from_stream(0xCA11, seed);
        let mut versions: HashMap<u64, u64> = HashMap::new();
        for step in 0..1_200 {
            let tag = rng.gen_below(24);
            let address = tag * LINE;
            let resident = cache.stored_sizes().iter().any(|&(t, _)| t == tag);
            match rng.gen_below(10) {
                0..=3 => {
                    // Read with the line's current payload (fills on miss).
                    let version = *versions.entry(tag).or_insert(0);
                    cache.access_with_data(address, false, &caller_payload(tag, version));
                }
                4..=6 => {
                    // Dirty write with a *new* payload: the one operation
                    // allowed to change the stored size.
                    let version = versions.entry(tag).or_insert(0);
                    *version += 1;
                    cache.access_with_data(address, true, &caller_payload(tag, *version));
                }
                7..=8 if resident => {
                    // Data-free accesses are only legal on resident lines
                    // (no generator to synthesise a fill payload); the
                    // data-free dirty write exercises the skipped
                    // recomputation path.
                    cache.access(address, step % 2 == 0);
                }
                _ => {
                    cache.invalidate(address);
                }
            }
            for (line_address, size) in cache.stored_sizes() {
                let version = versions.get(&line_address).copied().unwrap_or(0);
                let payload = caller_payload(line_address, version);
                assert_eq!(
                    size,
                    expected_size(compressor.as_ref(), &payload),
                    "line {line_address} does not match its version-{version} payload \
                     after step {step} (seed {seed})"
                );
            }
        }
    }
}

#[test]
fn sector_writes_keep_generator_sizes_fresh() {
    // SectoredCompressedFill: sector-granularity accesses (including
    // sector misses into resident lines) against the same invariant.
    let seed = 17u64;
    let generator = LineValueGenerator::new(ProfileKind::FloatingPoint.profile(), seed);
    let compressor = CompressorKind::Fpc.build();
    let fill =
        SectoredCompressedFill::new(8, CompressorKind::Fpc.build()).with_values(generator.clone());
    let mut cache = PipelineCache::with_fill(one_set_config(), fill);
    let mut rng = Rng::seed_from_stream(0x5EC7, seed);
    let mut sector_accesses = 0u64;
    for step in 0..1_200 {
        let tag = rng.gen_below(24);
        let sector = rng.gen_below(8);
        let address = tag * LINE + sector * (LINE / 8);
        match rng.gen_below(8) {
            0..=5 => {
                cache.access(address, rng.gen_below(2) == 0);
                sector_accesses += 1;
            }
            6 => {
                cache.invalidate(tag * LINE);
            }
            _ => {
                cache.mark_dirty(tag * LINE);
            }
        }
        for (line_address, size) in cache.stored_sizes() {
            let payload = generator.line_bytes(line_address * LINE, LINE as usize);
            assert_eq!(
                size,
                expected_size(compressor.as_ref(), &payload),
                "stale sectored size for line {line_address} after step {step}"
            );
        }
    }
    assert!(sector_accesses > 0);
    assert!(
        cache.sector_misses() > 0,
        "the interleaving must actually exercise sector misses"
    );
}

// ---------------------------------------------------------------------------
// Zero-recompression guarantee: the counting-compressor probe.
// ---------------------------------------------------------------------------

/// Counts every size/compress query, sharing the counter across
/// `clone_box` so clones made by the engine still report here.
struct CountingCompressor {
    inner: Box<dyn Compressor>,
    calls: Arc<AtomicU64>,
}

impl Compressor for CountingCompressor {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn compress(&self, line: &[u8]) -> Vec<u8> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.compress(line)
    }

    fn decompress(&self, data: &[u8], original_len: usize) -> Result<Vec<u8>, DecompressError> {
        self.inner.decompress(data, original_len)
    }

    fn compressed_size(&self, line: &[u8]) -> usize {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.compressed_size(line)
    }

    fn clone_box(&self) -> Box<dyn Compressor> {
        Box::new(CountingCompressor {
            inner: self.inner.clone_box(),
            calls: Arc::clone(&self.calls),
        })
    }
}

#[test]
fn clean_hits_make_zero_compressor_calls() {
    let calls = Arc::new(AtomicU64::new(0));
    let counting = CountingCompressor {
        inner: CompressorKind::Fpc.build(),
        calls: Arc::clone(&calls),
    };
    let generator = LineValueGenerator::new(ProfileKind::Commercial.profile(), 9);
    let fill = CompressedFill::new(Box::new(counting)).with_values(generator);
    let config = CacheConfig::new(4 << 10, LINE, 8).unwrap();
    let mut cache = PipelineCache::with_fill(config, fill);

    // Warm 32 lines (cold misses each compress once to size the fill).
    let tags: Vec<u64> = (0..32).collect();
    for &tag in &tags {
        cache.access(tag * LINE, false);
    }
    let after_warm = calls.load(Ordering::Relaxed);
    assert!(
        after_warm >= tags.len() as u64,
        "misses must size their fills"
    );

    // Clean read hits: the tentpole guarantee — zero compressor calls.
    for _ in 0..10 {
        for &tag in &tags {
            cache.access(tag * LINE, false);
        }
    }
    assert_eq!(
        calls.load(Ordering::Relaxed),
        after_warm,
        "clean read hits must not touch the compressor"
    );

    // Data-free dirty-write hits: the generator is pure, so the engine
    // skips recomputation entirely.
    for &tag in &tags {
        cache.access(tag * LINE, true);
    }
    assert_eq!(
        calls.load(Ordering::Relaxed),
        after_warm,
        "data-free dirty-write hits must not recompress"
    );

    // Refill after invalidation: the tag → size memo answers without a
    // compressor (or generator) call.
    cache.invalidate(0);
    cache.access(0, false);
    assert_eq!(
        calls.load(Ordering::Relaxed),
        after_warm,
        "memoised refills must not recompress"
    );

    // A payload-carrying write is the one hit that must recompress.
    let payload = vec![0u8; LINE as usize];
    cache.access_with_data(LINE, true, &payload);
    assert!(
        calls.load(Ordering::Relaxed) > after_warm,
        "payload-carrying writes must resize through the compressor"
    );
}
