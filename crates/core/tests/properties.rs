//! Property-style tests of the analytical model's invariants, driven by
//! a seeded [`Rng`] instead of an external property-testing framework.

use bandwall_model::techniques::combine;
use bandwall_model::{
    extended_catalog, Alpha, AssumptionLevel, Baseline, ScalingProblem, Technique, TrafficModel,
};
use bandwall_numerics::Rng;

const CASES: usize = 128;

fn any_alpha(rng: &mut Rng) -> Alpha {
    Alpha::new(0.1 + 1.1 * rng.gen_f64()).unwrap()
}

fn any_technique(rng: &mut Rng) -> Technique {
    match rng.gen_range(0..9u32) {
        0 => Technique::cache_compression(1.0 + 3.0 * rng.gen_f64()).unwrap(),
        1 => Technique::dram_cache(1.0 + 15.0 * rng.gen_f64()).unwrap(),
        2 => Technique::stacked_cache(rng.gen_range(1..3u32)).unwrap(),
        3 => Technique::unused_data_filter(0.9 * rng.gen_f64()).unwrap(),
        4 => Technique::smaller_cores(0.01 + 0.99 * rng.gen_f64()).unwrap(),
        5 => Technique::link_compression(1.0 + 3.0 * rng.gen_f64()).unwrap(),
        6 => Technique::sectored_cache(0.9 * rng.gen_f64()).unwrap(),
        7 => Technique::small_cache_lines(0.9 * rng.gen_f64()).unwrap(),
        _ => Technique::cache_link_compression(1.0 + 3.0 * rng.gen_f64()).unwrap(),
    }
}

/// Traffic strictly increases with core count on a fixed die.
#[test]
fn traffic_monotone_in_cores() {
    let mut rng = Rng::seed_from_u64(301);
    for _ in 0..CASES {
        let alpha = any_alpha(&mut rng);
        let n2 = 20.0 + 480.0 * rng.gen_f64();
        let model = TrafficModel::new(Baseline::niagara2_like().with_alpha(alpha));
        let mut last = 0.0;
        let max = (n2 - 1.0) as u64;
        for p in (1..max).step_by((max as usize / 16).max(1)) {
            let t = model.relative_traffic_on_die(n2, p as f64).unwrap();
            assert!(t > last, "traffic not increasing at {p}");
            last = t;
        }
    }
}

/// Traffic strictly decreases as cache per core grows.
#[test]
fn traffic_monotone_in_cache() {
    let mut rng = Rng::seed_from_u64(302);
    for _ in 0..CASES {
        let alpha = any_alpha(&mut rng);
        let cores = 1.0 + 99.0 * rng.gen_f64();
        let model = TrafficModel::new(Baseline::niagara2_like().with_alpha(alpha));
        let mut last = f64::MAX;
        for s in [0.25, 0.5, 1.0, 2.0, 4.0, 8.0] {
            let t = model.relative_traffic(cores, s).unwrap();
            assert!(t < last);
            last = t;
        }
    }
}

/// The baseline configuration always has relative traffic exactly 1.
#[test]
fn baseline_traffic_is_unity() {
    let mut rng = Rng::seed_from_u64(303);
    for _ in 0..CASES {
        let b = Baseline::niagara2_like().with_alpha(any_alpha(&mut rng));
        let model = TrafficModel::new(b);
        let t = model
            .relative_traffic(b.cores(), b.cache_per_core())
            .unwrap();
        assert!((t - 1.0).abs() < 1e-12);
    }
}

/// Supportable cores never decrease when the die budget doubles.
#[test]
fn cores_monotone_in_die_budget() {
    let mut rng = Rng::seed_from_u64(304);
    for _ in 0..CASES {
        let b = Baseline::niagara2_like().with_alpha(any_alpha(&mut rng));
        let t = any_technique(&mut rng);
        let mut last = 0;
        for g in 1..=4 {
            let n2 = 16.0 * 2f64.powi(g);
            let cores = ScalingProblem::new(b, n2)
                .with_technique(t)
                .max_supportable_cores()
                .unwrap();
            assert!(cores >= last, "{t}: {cores} < {last} at {n2} CEAs");
            last = cores;
        }
    }
}

/// Adding any technique never reduces the supportable core count.
#[test]
fn techniques_never_hurt() {
    let mut rng = Rng::seed_from_u64(305);
    for _ in 0..CASES {
        let b = Baseline::niagara2_like().with_alpha(any_alpha(&mut rng));
        let t = any_technique(&mut rng);
        let without = ScalingProblem::new(b, 64.0)
            .max_supportable_cores()
            .unwrap();
        let with = ScalingProblem::new(b, 64.0)
            .with_technique(t)
            .max_supportable_cores()
            .unwrap();
        assert!(with >= without, "{t} reduced cores: {with} < {without}");
    }
}

/// A larger bandwidth envelope never supports fewer cores.
#[test]
fn cores_monotone_in_envelope() {
    let mut rng = Rng::seed_from_u64(306);
    for _ in 0..CASES {
        let growth = 1.0 + 7.0 * rng.gen_f64();
        let base = ScalingProblem::new(Baseline::niagara2_like(), 64.0)
            .max_supportable_cores()
            .unwrap();
        let grown = ScalingProblem::new(Baseline::niagara2_like(), 64.0)
            .with_bandwidth_growth(growth)
            .max_supportable_cores()
            .unwrap();
        assert!(grown >= base);
    }
}

/// Any technique from the extended catalogue, at a random assumption
/// band — this covers the registered extensions alongside the paper's
/// nine rows, so every property below holds for future registry
/// additions by construction.
fn any_catalogue_technique(rng: &mut Rng) -> Technique {
    let descriptors = extended_catalog();
    let descriptor = &descriptors[rng.gen_range(0..descriptors.len() as u32) as usize];
    let level = match rng.gen_range(0..3u32) {
        0 => AssumptionLevel::Pessimistic,
        1 => AssumptionLevel::Realistic,
        _ => AssumptionLevel::Optimistic,
    };
    descriptor.at(level).expect("catalogue bands instantiate")
}

/// `combine` over the extended catalogue is invariant under any
/// permutation of the technique set: the scalar effects agree to
/// relative rounding error and the stacked layers form the same
/// multiset.
#[test]
fn extended_catalogue_combine_is_order_invariant() {
    let mut rng = Rng::seed_from_u64(311);
    for _ in 0..CASES {
        let count = 2 + rng.gen_range(0..5u32) as usize;
        let set: Vec<Technique> = (0..count)
            .map(|_| any_catalogue_technique(&mut rng))
            .collect();
        let reference = combine(&set);
        let mut shuffled = set.clone();
        for _ in 0..3 {
            for i in (1..shuffled.len()).rev() {
                let j = rng.gen_range(0..(i as u32 + 1)) as usize;
                shuffled.swap(i, j);
            }
            let permuted = combine(&shuffled);
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(1.0);
            assert!(
                close(reference.capacity_factor(), permuted.capacity_factor()),
                "capacity_factor diverged under permutation: {set:?}"
            );
            assert!(
                close(reference.traffic_divisor(), permuted.traffic_divisor()),
                "traffic_divisor diverged under permutation: {set:?}"
            );
            assert!(
                close(reference.cache_density(), permuted.cache_density()),
                "cache_density diverged under permutation: {set:?}"
            );
            assert!(
                close(
                    reference.core_size_fraction(),
                    permuted.core_size_fraction()
                ),
                "core_size_fraction diverged under permutation: {set:?}"
            );
            assert!(
                close(reference.uncore_per_core(), permuted.uncore_per_core()),
                "uncore_per_core diverged under permutation: {set:?}"
            );
            let densities = |effects: &bandwall_model::Effects| {
                let mut d: Vec<f64> = effects
                    .stacked_layers()
                    .iter()
                    .map(|layer| layer.density())
                    .collect();
                d.sort_by(f64::total_cmp);
                d
            };
            assert_eq!(
                densities(&reference),
                densities(&permuted),
                "stacked layers diverged under permutation: {set:?}"
            );
        }
    }
}

/// Applying any combination from the extended catalogue never increases
/// traffic and never drives it to zero or below: the with-techniques to
/// without-techniques traffic ratio stays in (0, 1].
#[test]
fn extended_catalogue_traffic_ratio_stays_in_unit_interval() {
    let mut rng = Rng::seed_from_u64(312);
    for _ in 0..CASES {
        let baseline = Baseline::niagara2_like().with_alpha(any_alpha(&mut rng));
        let count = 1 + rng.gen_range(0..4u32) as usize;
        let set: Vec<Technique> = (0..count)
            .map(|_| any_catalogue_technique(&mut rng))
            .collect();
        let cores = 2 + u64::from(rng.gen_range(0..30u32));
        let without = ScalingProblem::new(baseline, 64.0)
            .relative_traffic(cores)
            .unwrap();
        let with = ScalingProblem::new(baseline, 64.0)
            .with_techniques(set.clone())
            .relative_traffic(cores)
            .unwrap();
        let ratio = with / without;
        assert!(
            ratio > 0.0 && ratio <= 1.0 + 1e-9,
            "{set:?} at {cores} cores: traffic ratio {ratio} outside (0, 1]"
        );
    }
}

/// Technique-effect folding is order-independent.
#[test]
fn effects_commute() {
    let mut rng = Rng::seed_from_u64(307);
    for _ in 0..CASES {
        let a = any_technique(&mut rng);
        let b = any_technique(&mut rng);
        let c = any_technique(&mut rng);
        let fwd = combine(&[a, b, c]);
        let rev = combine(&[c, b, a]);
        assert!((fwd.capacity_factor() - rev.capacity_factor()).abs() < 1e-9);
        assert!((fwd.traffic_divisor() - rev.traffic_divisor()).abs() < 1e-9);
        assert!((fwd.cache_density() - rev.cache_density()).abs() < 1e-9);
        assert!((fwd.core_size_fraction() - rev.core_size_fraction()).abs() < 1e-9);
        assert_eq!(fwd.stacked_layers().len(), rev.stacked_layers().len());
    }
}

/// The supportable-core answer is the floor of the real crossover
/// (when the crossover is interior).
#[test]
fn integer_answer_matches_crossover() {
    let mut rng = Rng::seed_from_u64(308);
    for _ in 0..CASES {
        let b = Baseline::niagara2_like().with_alpha(any_alpha(&mut rng));
        let g = rng.gen_range(1..5u32);
        let n2 = 16.0 * 2f64.powi(g as i32);
        let p = ScalingProblem::new(b, n2);
        let integer = p.max_supportable_cores().unwrap();
        let crossover = p.crossover_cores().unwrap();
        assert!(
            integer == crossover.floor() as u64 || (crossover - integer as f64).abs() < 1e-6,
            "integer {integer} vs crossover {crossover}"
        );
    }
}

/// Relative traffic at the supportable count fits the envelope, and
/// exceeds it one core later.
#[test]
fn supportable_is_tight() {
    let mut rng = Rng::seed_from_u64(309);
    for _ in 0..CASES {
        let b = Baseline::niagara2_like().with_alpha(any_alpha(&mut rng));
        let t = any_technique(&mut rng);
        let p = ScalingProblem::new(b, 128.0).with_technique(t);
        let cores = p.max_supportable_cores().unwrap();
        assert!(p.relative_traffic(cores).unwrap() <= 1.0 + 1e-6);
        if let Ok(next) = p.relative_traffic(cores + 1) {
            assert!(next > 1.0 - 1e-9, "{t}: not tight at {cores}");
        }
    }
}

/// Larger alpha never supports fewer cores (cache helps more).
#[test]
fn cores_monotone_in_alpha() {
    let mut rng = Rng::seed_from_u64(310);
    for _ in 0..CASES {
        let lo = 0.1 + 0.5 * rng.gen_f64();
        let delta = 0.01 + 0.49 * rng.gen_f64();
        let cores_at = |a: f64| {
            ScalingProblem::new(
                Baseline::niagara2_like().with_alpha(Alpha::new(a).unwrap()),
                128.0,
            )
            .max_supportable_cores()
            .unwrap()
        };
        assert!(cores_at(lo + delta) >= cores_at(lo));
    }
}
