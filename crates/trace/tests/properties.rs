//! Property-style tests of the trace generators and the reuse-distance
//! profiler, driven by a seeded [`Rng`] instead of an external
//! property-testing framework.

use bandwall_numerics::Rng;
use bandwall_trace::{
    MissRateProbe, ParsecLikeTrace, ReuseDistanceProfiler, StackDistanceTrace, StridedTrace,
    TraceSource, WorkingSetTrace, ZipfTrace,
};
use std::collections::VecDeque;

const CASES: usize = 32;

/// Every generator is deterministic under its seed.
#[test]
fn generators_deterministic() {
    let mut rng = Rng::seed_from_u64(401);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let run = |seed: u64| -> Vec<_> {
            let mut t = StackDistanceTrace::builder(0.5)
                .seed(seed)
                .max_distance(1 << 10)
                .build();
            t.iter().take(200).collect()
        };
        assert_eq!(run(seed), run(seed));

        let zrun = |seed: u64| -> Vec<_> {
            let mut t = ZipfTrace::builder(500, 0.8).seed(seed).build();
            t.iter().take(200).collect()
        };
        assert_eq!(zrun(seed), zrun(seed));

        let prun = |seed: u64| -> Vec<_> {
            let mut t = ParsecLikeTrace::builder(4).seed(seed).build();
            t.iter().take(200).collect()
        };
        assert_eq!(prun(seed), prun(seed));
    }
}

/// Stack-distance addresses stay within the fixed footprint.
#[test]
fn stack_distance_addresses_bounded() {
    let mut rng = Rng::seed_from_u64(402);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let max = 1usize << rng.gen_range(6..12u32);
        let mut t = StackDistanceTrace::builder(0.5)
            .seed(seed)
            .max_distance(max)
            .build();
        for a in t.iter().take(2000) {
            assert!(a.address() / 64 < max as u64);
        }
    }
}

/// The profiler agrees with a naive LRU stack on arbitrary streams.
#[test]
fn profiler_matches_naive() {
    let mut rng = Rng::seed_from_u64(403);
    for _ in 0..CASES {
        let n = rng.gen_range(1..400usize);
        let lines: Vec<u64> = (0..n).map(|_| rng.gen_range(0..40u64)).collect();
        let mut naive: VecDeque<u64> = VecDeque::new();
        let mut profiler = ReuseDistanceProfiler::new();
        for &line in &lines {
            let expected = naive.iter().position(|&l| l == line);
            if let Some(p) = expected {
                naive.remove(p);
            }
            naive.push_front(line);
            assert_eq!(profiler.observe(line), expected);
        }
        assert_eq!(profiler.distinct_lines(), naive.len());
    }
}

/// Probe miss rates are monotone non-increasing in capacity for any
/// stream (LRU inclusion property).
#[test]
fn probe_monotone() {
    let mut rng = Rng::seed_from_u64(404);
    for _ in 0..CASES {
        let n = rng.gen_range(10..500usize);
        let caps = [1usize, 2, 4, 8, 16, 32, 64];
        let mut probe = MissRateProbe::new(&caps);
        for _ in 0..n {
            probe.observe(rng.gen_range(0..200u64));
        }
        let rates = probe.miss_rates();
        for w in rates.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        // Rates are probabilities.
        assert!(rates.iter().all(|&r| (0.0..=1.0).contains(&r)));
    }
}

/// The capacity-marker probe reports, bit for bit, the miss rates that
/// the exact reuse distances of [`ReuseDistanceProfiler`] imply, for any
/// capacity list (unsorted, duplicated, beyond the footprint) and across
/// `reset_counts`.
#[test]
fn probe_matches_profiler() {
    let capacity_sets: [&[usize]; 4] = [
        &[1],
        &[1, 2, 4, 8, 16, 32, 64],
        &[7, 3, 3, 50, 1],
        // Around and beyond each stream's footprint.
        &[4, 5, 6, 65, 301, 10_001, 1 << 20],
    ];
    let mut rng = Rng::seed_from_u64(406);
    for range in [5u64, 64, 300, 10_000] {
        for caps in capacity_sets {
            let mut stream = Rng::seed_from_u64(rng.next_u64());
            let mut probe = MissRateProbe::new(caps);
            let mut profiler = ReuseDistanceProfiler::new();
            let mut misses = vec![0u64; caps.len()];
            let mut counted = 0u64;
            for i in 0..20_000 {
                // Half uniform, half skewed toward low lines, so reuse
                // distances span the whole stack.
                let line = if stream.gen_bool(0.5) {
                    stream.gen_range(0..range)
                } else {
                    (range as f64 * stream.gen_f64().powi(4)) as u64
                };
                probe.observe(line);
                let distance = profiler.observe(line);
                counted += 1;
                for (m, &c) in misses.iter_mut().zip(caps) {
                    if distance.is_none_or(|d| d >= c) {
                        *m += 1;
                    }
                }
                if i == 6_000 {
                    probe.reset_counts();
                    misses.fill(0);
                    counted = 0;
                }
                let expected: Vec<u64> = misses
                    .iter()
                    .map(|&m| (m as f64 / counted.max(1) as f64).to_bits())
                    .collect();
                let rates: Vec<u64> = probe.miss_rates().iter().map(|r| r.to_bits()).collect();
                assert_eq!(rates, expected, "caps {caps:?}, range {range}, access {i}");
                assert_eq!(probe.accesses(), i + 1);
            }
        }
    }
}

/// Write fractions are honoured within sampling tolerance.
#[test]
fn write_fraction_respected() {
    let mut rng = Rng::seed_from_u64(405);
    for _ in 0..CASES {
        let wf = rng.gen_f64();
        let mut t = StackDistanceTrace::builder(0.5)
            .write_fraction(wf)
            .max_distance(1 << 10)
            .seed(3)
            .build();
        let n = 20_000;
        let writes = t.iter().take(n).filter(|a| a.kind().is_write()).count();
        let measured = writes as f64 / n as f64;
        assert!((measured - wf).abs() < 0.02, "wf {wf}, measured {measured}");
    }
}

/// Zipf addresses never leave the declared working set.
#[test]
fn zipf_in_bounds() {
    let mut rng = Rng::seed_from_u64(406);
    for _ in 0..CASES {
        let lines = rng.gen_range(1..5000usize);
        let exp = 2.0 * rng.gen_f64();
        let seed = rng.next_u64();
        let mut t = ZipfTrace::builder(lines, exp).seed(seed).build();
        for a in t.iter().take(500) {
            assert!(a.address() < lines as u64 * 64);
        }
    }
}

/// Strided traces cycle exactly.
#[test]
fn strided_cycles() {
    let mut rng = Rng::seed_from_u64(407);
    for _ in 0..CASES {
        let stride = rng.gen_range(1..512u64);
        let len = rng.gen_range(1..100u64);
        let mut t = StridedTrace::new(0, stride, len);
        let first: Vec<u64> = t.iter().take(len as usize).map(|a| a.address()).collect();
        let second: Vec<u64> = t.iter().take(len as usize).map(|a| a.address()).collect();
        assert_eq!(first, second);
    }
}

/// Working-set traces stay inside working set + streaming region.
#[test]
fn working_set_regions() {
    let mut rng = Rng::seed_from_u64(408);
    for _ in 0..CASES {
        let ws = rng.gen_range(1..10_000usize);
        let seed = rng.next_u64();
        let mut t = WorkingSetTrace::builder(ws).seed(seed).build();
        for a in t.iter().take(1000) {
            let line = a.address() / 64;
            assert!(line < ws as u64 || line >= 1 << 40);
        }
    }
}

/// PARSEC-like threads stay in range and private regions are carved
/// by thread.
#[test]
fn parsec_thread_routing() {
    let mut rng = Rng::seed_from_u64(409);
    for _ in 0..CASES {
        let threads = rng.gen_range(1..32u16);
        let seed = rng.next_u64();
        let mut t = ParsecLikeTrace::builder(threads).seed(seed).build();
        for a in t.iter().take(2000) {
            assert!(a.thread() < threads);
            let region = a.address() >> 32;
            // Region 0 is shared; region t+1 belongs to thread t. Echoed
            // reads touch only the shared region.
            assert!(
                region == 0 || region == a.thread() as u64 + 1,
                "thread {} touched region {region}",
                a.thread()
            );
        }
    }
}
