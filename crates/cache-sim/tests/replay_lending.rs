//! A recorded trace lends its accesses to the run loop in place
//! (`TraceSource::next_accesses`); every other source copies them into a
//! chunk buffer. The two must be indistinguishable: each runner's
//! statistics over a `ReplayTrace` equal those over the same recording
//! behind a source that only implements `next_access`, and both leave the
//! recording's cursor at the same access.
//!
//! The recording is 5,000 accesses, not a multiple of the 8,192-access
//! chunk, so lent slices stop at the wrap point inside what a copying run
//! reads as one chunk. Every run starts from a cursor that is not at the
//! start of the recording.

use bandwall_cache_sim::{
    CacheConfig, CmpSimConfig, CmpSimStats, CoherentSimConfig, CoherentSimStats, EngineSimConfig,
    EngineSimStats, FillSpec, L2Organization,
};
use bandwall_trace::{MemoryAccess, ParsecLikeTrace, ReplayTrace, TraceSource};

const RECORDED: usize = 5_000;

/// Access counts: one access, either side of one chunk, and 2.5
/// recordings, which wrap twice.
const COUNTS: [usize; 4] = [1, 8_191, 8_193, RECORDED * 5 / 2];

/// Where each run's cursor starts.
const START: usize = 1_234;

/// Replays a recording through `next_access` alone, so the run loop
/// falls back to the provided, copying `next_accesses`.
struct CopyOnly(ReplayTrace);

impl TraceSource for CopyOnly {
    fn next_access(&mut self) -> MemoryAccess {
        self.0.next_access()
    }

    fn name(&self) -> &str {
        "copy-only replay"
    }
}

/// The lending replay and its copying twin, both `START` accesses in.
fn sources() -> (ReplayTrace, CopyOnly) {
    let mut generator = ParsecLikeTrace::builder_with_regions(4, 300, 200)
        .shared_access_fraction(0.4)
        .write_fraction(0.3)
        .seed(41)
        .build();
    let mut lend = ReplayTrace::record(&mut generator, RECORDED);
    for _ in 0..START {
        lend.next_access();
    }
    let copy = CopyOnly(lend.clone());
    (lend, copy)
}

/// The three runners, each over any trace source.
trait Runner {
    type Stats: PartialEq + std::fmt::Debug;
    fn run_on<T: TraceSource>(&self, trace: &mut T, accesses: usize, threads: usize)
        -> Self::Stats;
}

impl Runner for EngineSimConfig {
    type Stats = EngineSimStats;
    fn run_on<T: TraceSource>(
        &self,
        trace: &mut T,
        accesses: usize,
        threads: usize,
    ) -> Self::Stats {
        self.run(trace, accesses, threads).unwrap()
    }
}

impl Runner for CmpSimConfig {
    type Stats = CmpSimStats;
    fn run_on<T: TraceSource>(
        &self,
        trace: &mut T,
        accesses: usize,
        threads: usize,
    ) -> Self::Stats {
        self.run(trace, accesses, threads).unwrap()
    }
}

impl Runner for CoherentSimConfig {
    type Stats = CoherentSimStats;
    fn run_on<T: TraceSource>(
        &self,
        trace: &mut T,
        accesses: usize,
        threads: usize,
    ) -> Self::Stats {
        self.run(trace, accesses, threads).unwrap()
    }
}

/// Runs `sim` over both sources at each count, lending on one bank and
/// on four, and checks the statistics and the cursors agree.
fn lending_equals_copying(label: &str, sim: &impl Runner) {
    for accesses in COUNTS {
        for threads in [1, 4] {
            let (mut lend, mut copy) = sources();
            // Two runs back to back: the second starts where the first
            // left each cursor.
            for round in 0..2 {
                let lent = sim.run_on(&mut lend, accesses, threads);
                let copied = sim.run_on(&mut copy, accesses, 1);
                assert_eq!(
                    lent, copied,
                    "{label}: {accesses} accesses at {threads} threads, round {round}"
                );
            }
            assert_eq!(
                lend.next_access(),
                copy.next_access(),
                "{label}: cursors differ after {accesses} accesses at {threads} threads"
            );
        }
    }
}

#[test]
fn engine_runs_lend_as_they_copy() {
    let sim = EngineSimConfig {
        cache: CacheConfig::new(8 << 10, 64, 4).unwrap(),
        fill: FillSpec::FullLine,
        flush: true,
    };
    lending_equals_copying("engine", &sim);
}

#[test]
fn cmp_runs_lend_as_they_copy() {
    let sim = CmpSimConfig {
        cores: 4,
        l1: CacheConfig::new(512, 64, 2).unwrap(),
        l2: CacheConfig::new(16 << 10, 64, 4).unwrap(),
        organization: L2Organization::Shared,
        l2_fill: FillSpec::FullLine,
        flush: true,
    };
    lending_equals_copying("cmp", &sim);
}

#[test]
fn coherent_runs_lend_as_they_copy() {
    let sim = CoherentSimConfig {
        cores: 4,
        cache: CacheConfig::new(4 << 10, 64, 4).unwrap(),
        fill: FillSpec::FullLine,
        flush: true,
    };
    lending_equals_copying("coherent", &sim);
}
