//! Property-style tests of the cache simulator's invariants, driven by a
//! seeded [`Rng`] instead of an external property-testing framework.

use bandwall_cache_sim::{
    Cache, CacheConfig, CmpSystem, L2Organization, ReplacementPolicy, SectoredCache,
};
use bandwall_numerics::Rng;
use bandwall_trace::{MemoryAccess, StackDistanceTrace, TraceSource};

const CASES: usize = 48;

fn any_policy(rng: &mut Rng) -> ReplacementPolicy {
    match rng.gen_range(0..4u32) {
        0 => ReplacementPolicy::Lru,
        1 => ReplacementPolicy::Fifo,
        2 => ReplacementPolicy::Random,
        _ => ReplacementPolicy::TreePlru,
    }
}

fn small_stream(rng: &mut Rng) -> Vec<(u64, bool)> {
    let n = rng.gen_range(1..600usize);
    (0..n)
        .map(|_| (rng.gen_range(0..64u64), rng.gen_bool(0.5)))
        .collect()
}

/// Bookkeeping identities hold for every policy and stream:
/// hits + misses = accesses, writebacks <= evictions <= misses,
/// resident lines <= capacity.
#[test]
fn counter_identities() {
    let mut rng = Rng::seed_from_u64(501);
    for _ in 0..CASES {
        let policy = any_policy(&mut rng);
        let stream = small_stream(&mut rng);
        let config = CacheConfig::new(1024, 64, 4).unwrap().with_policy(policy);
        let mut cache = Cache::new(config);
        for &(line, write) in &stream {
            cache.access(line * 64, write);
        }
        let s = cache.stats();
        assert_eq!(s.hits() + s.misses(), stream.len() as u64);
        assert!(s.writebacks() <= s.evictions());
        assert!(s.evictions() <= s.misses());
        assert!(s.cold_misses() <= s.misses());
        assert!(cache.resident_lines() as u64 <= config.lines());
        // Conservation: each miss inserts a line; each eviction removes one.
        assert_eq!(s.misses(), s.evictions() + cache.resident_lines() as u64);
    }
}

/// The same stream against a larger fully-associative LRU cache never
/// misses more (inclusion property).
#[test]
fn lru_inclusion() {
    let mut rng = Rng::seed_from_u64(502);
    for _ in 0..CASES {
        let stream = small_stream(&mut rng);
        let misses = |lines: u32| {
            let mut c = Cache::new(CacheConfig::new(64 * lines as u64, 64, lines).unwrap());
            for &(line, write) in &stream {
                c.access(line * 64, write);
            }
            c.stats().misses()
        };
        assert!(misses(16) >= misses(32));
        assert!(misses(32) >= misses(64));
    }
}

/// A cache never reports a hit for a line it has not seen, and always
/// hits an immediately repeated access.
#[test]
fn hit_semantics() {
    let mut rng = Rng::seed_from_u64(503);
    for _ in 0..CASES {
        let stream = small_stream(&mut rng);
        let mut cache = Cache::new(CacheConfig::new(4096, 64, 4).unwrap());
        let mut seen = std::collections::HashSet::new();
        for &(line, write) in &stream {
            let out = cache.access(line * 64, write);
            if out.is_hit() {
                assert!(seen.contains(&line), "hit on unseen line {line}");
            }
            seen.insert(line);
            // Immediate re-access must hit (the line was just filled).
            assert!(cache.access(line * 64, false).is_hit());
        }
    }
}

/// Without writes there are never write-backs, at any level.
#[test]
fn read_only_streams_never_write_back() {
    let mut rng = Rng::seed_from_u64(504);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let mut h = CmpSystem::new(
            1,
            CacheConfig::new(1 << 10, 64, 2).unwrap(),
            CacheConfig::new(8 << 10, 64, 4).unwrap(),
            L2Organization::Private,
        );
        let mut t = StackDistanceTrace::builder(0.5)
            .seed(seed)
            .write_fraction(0.0)
            .max_distance(1 << 10)
            .build();
        for a in t.iter().take(5000) {
            h.access(a);
        }
        h.flush();
        assert_eq!(h.memory_traffic().written_bytes(), 0);
    }
}

/// Memory traffic only grows as accesses stream through.
#[test]
fn traffic_monotone_over_time() {
    let mut rng = Rng::seed_from_u64(505);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let mut h = CmpSystem::new(
            1,
            CacheConfig::new(512, 64, 2).unwrap(),
            CacheConfig::new(4096, 64, 4).unwrap(),
            L2Organization::Private,
        );
        let mut t = StackDistanceTrace::builder(0.5)
            .seed(seed)
            .max_distance(1 << 10)
            .build();
        let mut last = 0;
        for a in t.iter().take(2000) {
            h.access(a);
            let now = h.memory_traffic().total_bytes();
            assert!(now >= last);
            last = now;
        }
    }
}

/// A sectored cache's fetch traffic never exceeds the whole-line
/// equivalent, and savings sit in [0, 1).
#[test]
fn sectored_never_fetches_more() {
    let mut rng = Rng::seed_from_u64(506);
    for _ in 0..CASES {
        let stream = small_stream(&mut rng);
        let sectors = 1u32 << rng.gen_range(0..4u32); // 1,2,4,8
        let mut c = SectoredCache::new(CacheConfig::new(1024, 64, 4).unwrap(), sectors);
        for &(line, write) in &stream {
            c.access(line * 64, write);
        }
        assert!(c.traffic().fetched_bytes() <= c.conventional_fetch_bytes());
        let savings = c.fetch_savings();
        assert!((0.0..1.0).contains(&savings) || savings == 0.0);
    }
}

/// Shared-L2 CMPs never fetch a line more than private-L2 CMPs of the
/// same per-core capacity when every access is to shared data.
#[test]
fn shared_l2_at_most_private_fetches() {
    for cores in 2u16..8 {
        let mut shared = CmpSystem::new(
            cores,
            CacheConfig::new(512, 64, 2).unwrap(),
            CacheConfig::new(8 << 10, 64, 4).unwrap(),
            L2Organization::Shared,
        );
        let mut private = CmpSystem::new(
            cores,
            CacheConfig::new(512, 64, 2).unwrap(),
            CacheConfig::new(8 << 10, 64, 4).unwrap(),
            L2Organization::Private,
        );
        for i in 0..2000u64 {
            let access = MemoryAccess::read((i % 64) * 64).on_thread((i % cores as u64) as u16);
            shared.access(access);
            private.access(access);
        }
        assert!(
            shared.memory_traffic().fetched_bytes() <= private.memory_traffic().fetched_bytes()
        );
    }
}

/// MSI invariants hold on arbitrary multi-core streams: copies never
/// exceed the core count, a written line has exactly one copy, and
/// memory is fetched at most once while a line stays chip-resident.
#[test]
fn msi_invariants() {
    use bandwall_cache_sim::CoherentCmp;
    let mut rng = Rng::seed_from_u64(507);
    for _ in 0..CASES {
        let n = rng.gen_range(1..500usize);
        let stream: Vec<(u64, u16, bool)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range(0..16u64),
                    rng.gen_range(0..4u16),
                    rng.gen_bool(0.5),
                )
            })
            .collect();
        let mut cmp = CoherentCmp::new(4, CacheConfig::new(4096, 64, 4).unwrap());
        for &(line, core, write) in &stream {
            let access = if write {
                MemoryAccess::write(line * 64)
            } else {
                MemoryAccess::read(line * 64)
            }
            .on_thread(core);
            cmp.access(access);
            assert!(cmp.copies_of(line * 64) <= 4);
            if write {
                assert_eq!(cmp.copies_of(line * 64), 1, "writer holds sole copy");
            }
        }
        // With 16 lines and 64-line caches nothing is ever evicted, so
        // each line is fetched from memory exactly once.
        let distinct: std::collections::HashSet<u64> = stream.iter().map(|&(l, _, _)| l).collect();
        assert_eq!(
            cmp.memory_traffic().fetched_bytes(),
            distinct.len() as u64 * 64
        );
    }
}

/// Inclusion policies agree on read-only streams that fit in the L1
/// (no evictions anywhere): same traffic, same hits.
#[test]
fn inclusion_policies_agree_on_tiny_streams() {
    let mut rng = Rng::seed_from_u64(508);
    for _ in 0..CASES {
        let n = rng.gen_range(1..200usize);
        let lines: Vec<u64> = (0..n).map(|_| rng.gen_range(0..8u64)).collect();
        let run = |organization: L2Organization| {
            let mut h = CmpSystem::new(
                1,
                CacheConfig::new(1024, 64, 2).unwrap(),
                CacheConfig::new(4096, 64, 4).unwrap(),
                organization,
            );
            for &l in &lines {
                h.access(MemoryAccess::read(l * 64));
            }
            (h.memory_traffic().total_bytes(), h.l1_stats().hits())
        };
        let a = run(L2Organization::Private);
        let b = run(L2Organization::InclusivePrivate);
        let c = run(L2Organization::ExclusivePrivate);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }
}

/// Flush leaves the cache empty and stats consistent.
#[test]
fn flush_empties() {
    let mut rng = Rng::seed_from_u64(509);
    for _ in 0..CASES {
        let stream = small_stream(&mut rng);
        let mut cache = Cache::new(CacheConfig::new(2048, 64, 4).unwrap());
        for &(line, write) in &stream {
            cache.access(line * 64, write);
        }
        let resident = cache.resident_lines();
        let flushed = cache.flush();
        assert_eq!(flushed.len(), resident);
        assert_eq!(cache.resident_lines(), 0);
    }
}
