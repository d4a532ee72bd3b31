//! The shared-L2 CMP against an independent reference: one-bank
//! `CmpSimConfig::run` over `L2Organization::Shared` must return exactly
//! the L1 and L2 statistics, fetched and written bytes and sharing
//! statistics of the reference CMP in `oracle/cmp.rs`, for cores
//! {1, 2, 4, 16} × every replacement policy × write fractions {0, 0.3}
//! × flush on and off.
//!
//! Banked runs are held to the one-bank run by `parallel_equivalence.rs`.

mod oracle;

use bandwall_cache_sim::{CacheConfig, CmpSimConfig, FillSpec, L2Organization, ReplacementPolicy};
use bandwall_trace::ParsecLikeTrace;

const CORES: [u16; 4] = [1, 2, 4, 16];

const WRITE_FRACTIONS: [f64; 2] = [0.0, 0.3];

const ACCESSES: usize = 12_000;

/// A PARSEC-like stream over `cores` threads: a 96-line shared region
/// and 64 private lines per thread, more than the 8 KiB L2 holds at one
/// core and many times what the 1 KiB L1s hold.
fn workload(cores: u16, write_fraction: f64, seed: u64) -> ParsecLikeTrace {
    ParsecLikeTrace::builder_with_regions(cores, 96, 64)
        .shared_access_fraction(0.4)
        .write_fraction(write_fraction)
        .seed(seed)
        .build()
}

fn assert_policy_matches_oracle(policy: ReplacementPolicy) {
    for cores in CORES {
        for write_fraction in WRITE_FRACTIONS {
            for flush in [false, true] {
                let config = CmpSimConfig {
                    cores,
                    l1: CacheConfig::new(1 << 10, 64, 2)
                        .expect("valid L1")
                        .with_policy(policy)
                        .with_policy_seed(11),
                    l2: CacheConfig::new(8 << 10, 64, 4)
                        .expect("valid L2")
                        .with_policy(policy)
                        .with_policy_seed(12),
                    organization: L2Organization::Shared,
                    l2_fill: FillSpec::FullLine,
                    flush,
                };
                let seed = 40 + u64::from(cores);
                let engine = config
                    .run(&mut workload(cores, write_fraction, seed), ACCESSES, 1)
                    .expect("valid config");
                let expected = oracle::cmp::run(
                    &config,
                    &mut workload(cores, write_fraction, seed),
                    ACCESSES,
                );
                assert_eq!(
                    engine, expected,
                    "{policy:?}, {cores} cores, write fraction {write_fraction}, flush {flush}"
                );
                assert!(engine.l1.evictions() > 0 && engine.l2.evictions() > 0);
                if write_fraction > 0.0 {
                    assert!(engine.traffic.written_bytes() > 0);
                }
            }
        }
    }
}

#[test]
fn lru_shared_l2_matches_the_oracle() {
    assert_policy_matches_oracle(ReplacementPolicy::Lru);
}

#[test]
fn fifo_shared_l2_matches_the_oracle() {
    assert_policy_matches_oracle(ReplacementPolicy::Fifo);
}

#[test]
fn tree_plru_shared_l2_matches_the_oracle() {
    assert_policy_matches_oracle(ReplacementPolicy::TreePlru);
}

#[test]
fn random_shared_l2_matches_the_oracle() {
    assert_policy_matches_oracle(ReplacementPolicy::Random);
}

/// Lines shared by several cores reach the L2 and are counted as shared
/// when they leave, so the sharing statistics are not trivially zero.
#[test]
fn the_grid_sees_shared_lines() {
    let config = CmpSimConfig {
        cores: 4,
        l1: CacheConfig::new(1 << 10, 64, 2).expect("valid L1"),
        l2: CacheConfig::new(8 << 10, 64, 4).expect("valid L2"),
        organization: L2Organization::Shared,
        l2_fill: FillSpec::FullLine,
        flush: true,
    };
    let stats = oracle::cmp::run(&config, &mut workload(4, 0.3, 44), ACCESSES);
    let sharing = stats.sharing.expect("a shared L2 tracks sharers");
    assert!(sharing.shared_lines() > 0 && sharing.shared_lines() < sharing.evicted_lines());
}
