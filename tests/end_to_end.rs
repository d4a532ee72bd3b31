//! Cross-crate integration tests: trace generation → simulation →
//! fitting → analytical model, exercising the whole pipeline the way the
//! paper's methodology does.

use bandwidth_wall::cache_sim::{
    CacheConfig, CmpSystem, CompressedCache, L2Organization, SectoredCache,
};
use bandwidth_wall::compress::Fpc;
use bandwidth_wall::model::{Alpha, Baseline, ScalingProblem, Technique};
use bandwidth_wall::numerics::PowerLawFit;
use bandwidth_wall::trace::values::{LineValueGenerator, ValueProfile};
use bandwidth_wall::trace::{MemoryAccess, MissRateProbe, StackDistanceTrace, TraceSource};

/// Generate → profile → fit → model: the fitted α lands near the
/// configured one and yields the expected supportable-core counts.
#[test]
fn alpha_pipeline_recovers_configuration() {
    let configured = 0.5;
    let mut trace = StackDistanceTrace::builder(configured)
        .seed(42)
        .max_distance(1 << 15)
        .build();
    let capacities: Vec<usize> = (6..=13).map(|i| 1usize << i).collect();
    let mut probe = MissRateProbe::new(&capacities);
    trace.warm_probe(&mut probe);
    for a in trace.iter().take(200_000) {
        probe.observe(a.address() / 64);
    }
    let xs: Vec<f64> = capacities.iter().map(|&c| c as f64).collect();
    let fit = PowerLawFit::fit(&xs, &probe.miss_rates()).unwrap();
    assert!(
        (fit.alpha - configured).abs() < 0.05,
        "fitted {} vs configured {configured}",
        fit.alpha
    );
    assert!(fit.r_squared > 0.99);

    // The fitted α drives the model to the paper's base answer.
    let baseline = Baseline::niagara2_like().with_alpha(Alpha::new(fit.alpha).unwrap());
    let cores = ScalingProblem::new(baseline, 32.0)
        .max_supportable_cores()
        .unwrap();
    assert!((10..=12).contains(&cores), "cores = {cores}");
}

/// Doubling the simulated cache reduces measured memory traffic by about
/// the model's prediction `2^-α`.
#[test]
fn simulated_traffic_scaling_matches_model() {
    let alpha = 0.5;
    let run = |l2_bytes: u64| {
        let mut h = CmpSystem::new(
            1,
            CacheConfig::new(2 << 10, 64, 2).unwrap(),
            CacheConfig::new(l2_bytes, 64, 8).unwrap(),
            L2Organization::Private,
        );
        let mut trace = StackDistanceTrace::builder(alpha)
            .seed(5)
            .write_fraction(0.0)
            .max_distance(1 << 15)
            .build();
        // Warm the hierarchy, then measure steady-state fetch traffic.
        for a in trace.iter().take(100_000) {
            h.access(MemoryAccess::read(a.address()));
        }
        let before = h.memory_traffic().fetched_bytes();
        for a in trace.iter().take(200_000) {
            h.access(MemoryAccess::read(a.address()));
        }
        h.memory_traffic().fetched_bytes() - before
    };
    let small = run(64 << 10) as f64;
    let large = run(256 << 10) as f64; // 4x the cache
    let measured_ratio = large / small;
    let predicted = 4f64.powf(-alpha); // 0.5
    assert!(
        (measured_ratio - predicted).abs() < 0.12,
        "measured {measured_ratio:.3} vs predicted {predicted:.3}"
    );
}

/// The sectored-cache simulator's fetch savings justify the sectored
/// technique's parameter, and both agree on the traffic factor.
#[test]
fn sectored_simulation_supports_model_parameter() {
    let mut cache = SectoredCache::new(CacheConfig::new(32 << 10, 64, 8).unwrap(), 8);
    // A workload that touches only 5 of 8 words per line (37.5% unused).
    let mut trace = StackDistanceTrace::builder(0.5)
        .seed(9)
        .touched_words(5)
        .max_distance(1 << 13)
        .build();
    for a in trace.iter().take(150_000) {
        cache.access(a.address(), a.kind().is_write());
    }
    let savings = cache.fetch_savings();
    // Savings are at least the static unused fraction (37.5%): short
    // residencies touch even fewer distinct sectors, so sector-granular
    // fetching saves more than the lifetime word usage suggests.
    assert!(
        (0.34..=0.70).contains(&savings),
        "measured savings {savings}"
    );
    // Feed the measured savings into the model.
    let p = ScalingProblem::new(Baseline::niagara2_like(), 32.0)
        .with_technique(Technique::sectored_cache(savings).unwrap());
    let cores = p.max_supportable_cores().unwrap();
    assert!((13..=18).contains(&cores), "cores = {cores}");
}

/// The compressed-cache simulation realises an effective capacity factor
/// close to the engine's compression ratio, as Equation 8 assumes.
#[test]
fn compressed_cache_realises_engine_ratio() {
    let values = LineValueGenerator::new(ValueProfile::commercial(), 3);
    let mut cache = CompressedCache::new(
        CacheConfig::new(64 << 10, 64, 8).unwrap(),
        Box::new(Fpc::new()),
    );
    let mut trace = StackDistanceTrace::builder(0.5)
        .seed(4)
        .max_distance(1 << 13)
        .build();
    for a in trace.iter().take(120_000) {
        let line_addr = a.address() / 64 * 64;
        let data = values.line_bytes(line_addr, 64);
        cache.access_with_data(line_addr, a.kind().is_write(), &data);
    }
    let factor = cache.effective_capacity_factor();
    let ratio = cache.compression().ratio();
    assert!(factor > 1.4, "factor {factor}");
    assert!(
        (factor / ratio - 1.0).abs() < 0.3,
        "factor {factor:.2} vs ratio {ratio:.2}"
    );
}

/// Word-usage tracking measures the unused fraction the Fltr/SmCl
/// techniques parameterise.
#[test]
fn word_usage_measures_unused_fraction() {
    use bandwidth_wall::cache_sim::Cache;
    let mut cache = Cache::new(CacheConfig::new(16 << 10, 64, 8).unwrap()).with_word_tracking();
    // Touch 4 of 8 words per line on average -> ~50% unused.
    let mut trace = StackDistanceTrace::builder(0.5)
        .seed(6)
        .touched_words(4)
        .max_distance(1 << 12)
        .build();
    for a in trace.iter().take(200_000) {
        cache.access(a.address(), false);
    }
    let unused = cache.word_usage().unwrap().unused_fraction();
    // Lines evicted quickly have touched fewer than 4 distinct words, so
    // the unused share sits at or above 50%.
    assert!((0.45..0.8).contains(&unused), "unused = {unused}");
}
