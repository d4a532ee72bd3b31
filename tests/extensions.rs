//! Integration tests for the documented extensions beyond the paper's
//! figures: throughput plateau, roadmap scenarios, workload mixes,
//! inclusion policies, the footprint predictor, and the best-of
//! compressor.

use bandwidth_wall::cache_sim::{
    simulate_throughput, CacheConfig, CmpSystem, L2Organization, PredictiveSectoredCache,
    ThroughputSimConfig,
};
use bandwidth_wall::compress::{BestOf, Compressor};
use bandwidth_wall::model::mix::{WorkloadClass, WorkloadMix};
use bandwidth_wall::model::roadmap::BandwidthScenario;
use bandwidth_wall::model::{Alpha, Baseline, GenerationSweep, ThroughputModel};
use bandwidth_wall::trace::values::{LineValueGenerator, ValueProfile};
use bandwidth_wall::trace::{MemoryAccess, PointerChaseTrace, TraceSource};

#[test]
fn analytic_and_simulated_plateaus_agree_in_shape() {
    // Analytic: plateau at the crossover.
    let model = ThroughputModel::new(Baseline::niagara2_like(), 32.0);
    let analytic_plateau = model.plateau_throughput().unwrap();
    assert!(analytic_plateau > 10.0 && analytic_plateau < 12.0);

    // Simulated: plateau at bandwidth / per-core demand.
    let sim = |cores: u16| {
        simulate_throughput(ThroughputSimConfig {
            cores,
            misses_per_instruction: 0.02,
            line_bytes: 64,
            bytes_per_cycle: 4.0,
            access_latency: 200,
            instructions_per_core: 100_000,
        })
        .ipc
    };
    let bound = 4.0 / (0.02 * 64.0);
    let plateau = sim(32);
    assert!((plateau / bound - 1.0).abs() < 0.1, "{plateau} vs {bound}");
    // Both curves share the signature: linear then flat.
    assert!(sim(4) / sim(2) > 1.8);
    assert!(sim(32) / sim(24) < 1.05);
}

#[test]
fn itrs_scenario_buys_cores_but_not_proportionality() {
    let itrs = BandwidthScenario::itrs_2005();
    let constant = GenerationSweep::new(Baseline::niagara2_like())
        .run(4)
        .unwrap();
    let grown = GenerationSweep::new(Baseline::niagara2_like())
        .with_bandwidth_growth_per_generation(itrs.growth_per_generation())
        .run(4)
        .unwrap();
    assert_eq!(constant[3].supportable_cores, 24);
    assert!(grown[3].supportable_cores > 24);
    assert!(grown[3].supportable_cores < 64);
}

#[test]
fn workload_mix_interpolates_between_figure17_rows() {
    // Figure 17's BASE rows at 16x: α=0.5 → 24, α=0.25 → 15.
    let blend = |commercial: f64| {
        WorkloadMix::new(
            Baseline::niagara2_like(),
            vec![
                WorkloadClass::new("c", Alpha::COMMERCIAL_AVERAGE, 1.0, commercial).unwrap(),
                WorkloadClass::new("s", Alpha::SPEC2006, 1.0, 1.0 - commercial).unwrap(),
            ],
        )
        .unwrap()
        .max_supportable_cores(256.0, 1.0)
        .unwrap()
    };
    let pure_commercial = WorkloadMix::new(
        Baseline::niagara2_like(),
        vec![WorkloadClass::new("c", Alpha::COMMERCIAL_AVERAGE, 1.0, 1.0).unwrap()],
    )
    .unwrap()
    .max_supportable_cores(256.0, 1.0)
    .unwrap();
    assert_eq!(pure_commercial, 24);
    let half = blend(0.5);
    assert!(half > 15 && half < 24, "half = {half}");
}

#[test]
fn exclusive_hierarchy_matches_larger_effective_cache() {
    use bandwidth_wall::trace::ZipfTrace;
    // An 80-line working set on 32-line L1 + 64-line L2.
    let run = |organization| {
        let mut h = CmpSystem::new(
            1,
            CacheConfig::new(2048, 64, 4).unwrap(),
            CacheConfig::new(4096, 64, 4).unwrap(),
            organization,
        );
        let mut t = ZipfTrace::builder(80, 0.1).seed(5).build();
        for a in t.iter().take(50_000) {
            h.access(MemoryAccess::read(a.address()));
        }
        h.memory_traffic().fetched_bytes()
    };
    assert!(run(L2Organization::ExclusivePrivate) < run(L2Organization::InclusivePrivate));
}

#[test]
fn footprint_predictor_learns_pointer_chase_payloads() {
    // A pointer chase touching 3 words per node: after one lap the
    // predictor prefetches each node's footprint in one go.
    let mut cache = PredictiveSectoredCache::new(
        CacheConfig::new(16 << 10, 64, 8).unwrap(), // 256 lines
        8,
    );
    let mut chase = PointerChaseTrace::builder(1024) // working set 4x cache
        .payload_words(2)
        .seed(6)
        .build();
    // Two laps of training + measurement.
    for a in chase.iter().take(2 * 1024 * 3) {
        cache.access(a.address(), a.kind().is_write());
    }
    // Footprint is 3 of 8 sectors -> oracle savings 5/8.
    let savings = cache.fetch_savings();
    assert!(
        (savings - 0.625).abs() < 0.1,
        "savings {savings} should approach the 0.625 oracle"
    );
    assert!(cache.overfetch_fraction() < 0.05);
}

#[test]
fn best_of_round_trips_generated_value_profiles() {
    let engine = BestOf::standard();
    for profile in [
        ValueProfile::commercial(),
        ValueProfile::integer(),
        ValueProfile::floating_point(),
    ] {
        let values = LineValueGenerator::new(profile, 9);
        for line_addr in 0..200u64 {
            let line = values.line_bytes(line_addr * 64, 64);
            let compressed = engine.compress(&line);
            assert_eq!(engine.decompress(&compressed, 64).unwrap(), line);
        }
    }
}

#[test]
fn optimal_cores_is_the_balanced_design() {
    let model = ThroughputModel::new(Baseline::niagara2_like(), 64.0);
    let optimal = model.optimal_cores().unwrap();
    // Two generations out: the crossover sits near 14.3.
    assert!((14..=15).contains(&optimal), "optimal = {optimal}");
}
