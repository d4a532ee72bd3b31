//! Integration test: every quantitative claim the paper's prose makes,
//! checked against the public API of the facade crate.

use bandwidth_wall::model::combination::figure16_combinations;
use bandwidth_wall::model::sharing::SharingModel;
use bandwidth_wall::model::{
    catalog, Alpha, AssumptionLevel, Baseline, GenerationSweep, ScalingProblem, Technique,
    TrafficModel,
};

fn base() -> Baseline {
    Baseline::niagara2_like()
}

#[test]
fn abstract_24_vs_128_at_four_generations() {
    let results = GenerationSweep::new(base()).run(4).unwrap();
    assert_eq!(results[3].supportable_cores, 24);
    assert_eq!(results[3].ideal_cores, 128);
}

#[test]
fn intro_cache_allocation_grows_to_90_percent() {
    // "the allocation for caches must grow to 90% (vs 10% for cores)".
    let results = GenerationSweep::new(base()).run(4).unwrap();
    let core_share = results[3].core_area_fraction;
    assert!(core_share > 0.08 && core_share < 0.11, "{core_share}");
}

#[test]
fn intro_dram_caches_enable_47_cores() {
    let p = ScalingProblem::new(base(), 256.0).with_technique(Technique::dram_cache(8.0).unwrap());
    assert_eq!(p.max_supportable_cores().unwrap(), 47);
}

#[test]
fn intro_link_38_vs_cache_30_compression() {
    // "link compression can enable 38 cores while cache compression can
    // enable only 30" (four generations, realistic 2x).
    let lc = ScalingProblem::new(base(), 256.0)
        .with_technique(Technique::link_compression(2.0).unwrap());
    let cc = ScalingProblem::new(base(), 256.0)
        .with_technique(Technique::cache_compression(2.0).unwrap());
    assert_eq!(lc.max_supportable_cores().unwrap(), 38);
    assert_eq!(cc.max_supportable_cores().unwrap(), 30);
}

#[test]
fn intro_combined_183_cores_on_71_percent() {
    let p = ScalingProblem::new(base(), 256.0).with_techniques([
        Technique::cache_link_compression(2.0).unwrap(),
        Technique::dram_cache(8.0).unwrap(),
        Technique::stacked_cache(1).unwrap(),
        Technique::small_cache_lines(0.4).unwrap(),
    ]);
    let cores = p.max_supportable_cores().unwrap();
    assert_eq!(cores, 183);
    let share = p.core_area_fraction(cores);
    assert!((share - 0.71).abs() < 0.01, "{share}");
}

#[test]
fn section4_worked_example_2_6x() {
    let model = TrafficModel::new(base());
    let ratio = model.relative_traffic(12.0, 1.0 / 3.0).unwrap();
    assert!((ratio - 2.6).abs() < 0.01, "{ratio}");
    let (cores, cache) = model.traffic_decomposition(12.0, 1.0 / 3.0).unwrap();
    assert!((cores - 1.5).abs() < 1e-12);
    assert!((cache - 1.73).abs() < 0.01);
}

#[test]
fn section5_next_generation_11_or_13_cores() {
    assert_eq!(
        ScalingProblem::new(base(), 32.0)
            .max_supportable_cores()
            .unwrap(),
        11
    );
    assert_eq!(
        ScalingProblem::new(base(), 32.0)
            .with_bandwidth_growth(1.5)
            .max_supportable_cores()
            .unwrap(),
        13
    );
}

#[test]
fn figure4_cache_compression_series() {
    // "1.3x, 1.7x, 2.0x, 2.5x, and 3.0x ... 11, 12, 13, 14, and 14".
    for (ratio, cores) in [(1.3, 11), (1.7, 12), (2.0, 13), (2.5, 14), (3.0, 14)] {
        let p = ScalingProblem::new(base(), 32.0)
            .with_technique(Technique::cache_compression(ratio).unwrap());
        assert_eq!(p.max_supportable_cores().unwrap(), cores, "ratio {ratio}");
    }
}

#[test]
fn figure5_dram_series() {
    for (density, cores) in [(4.0, 16), (8.0, 18), (16.0, 21)] {
        let p = ScalingProblem::new(base(), 32.0)
            .with_technique(Technique::dram_cache(density).unwrap());
        assert_eq!(
            p.max_supportable_cores().unwrap(),
            cores,
            "density {density}"
        );
    }
}

#[test]
fn figure6_3d_series() {
    let sram =
        ScalingProblem::new(base(), 32.0).with_technique(Technique::stacked_cache(1).unwrap());
    assert_eq!(sram.max_supportable_cores().unwrap(), 14);
    for (density, cores) in [(8.0, 25), (16.0, 32)] {
        let p = ScalingProblem::new(base(), 32.0)
            .with_technique(Technique::stacked_dram_cache(1, density).unwrap());
        assert_eq!(
            p.max_supportable_cores().unwrap(),
            cores,
            "density {density}"
        );
    }
}

#[test]
fn figure7_filtering_realistic_one_extra_core() {
    let p = ScalingProblem::new(base(), 32.0)
        .with_technique(Technique::unused_data_filter(0.4).unwrap());
    assert_eq!(p.max_supportable_cores().unwrap(), 12);
    let opt = ScalingProblem::new(base(), 32.0)
        .with_technique(Technique::unused_data_filter(0.8).unwrap());
    assert_eq!(opt.max_supportable_cores().unwrap(), 16);
}

#[test]
fn figure9_link_compression_proportional_at_2x() {
    let p =
        ScalingProblem::new(base(), 32.0).with_technique(Technique::link_compression(2.0).unwrap());
    assert_eq!(p.max_supportable_cores().unwrap(), 16);
}

#[test]
fn figure11_small_lines_proportional_at_40_percent() {
    let p = ScalingProblem::new(base(), 32.0)
        .with_technique(Technique::small_cache_lines(0.4).unwrap());
    assert_eq!(p.max_supportable_cores().unwrap(), 16);
}

#[test]
fn figure12_cache_link_18_at_2x() {
    let p = ScalingProblem::new(base(), 32.0)
        .with_technique(Technique::cache_link_compression(2.0).unwrap());
    assert_eq!(p.max_supportable_cores().unwrap(), 18);
}

#[test]
fn figure13_required_sharing_series() {
    let model = SharingModel::new(base());
    for (cores, expected) in [(16.0, 0.40), (32.0, 0.63), (64.0, 0.77), (128.0, 0.86)] {
        let fsh = model
            .required_shared_fraction(cores, cores, 1.0)
            .unwrap()
            .unwrap();
        assert!((fsh - expected).abs() < 0.015, "{cores}: {fsh}");
    }
}

#[test]
fn section6_combined_direct_70_percent_indirect_84_percent() {
    // "link compression and small cache lines alone can directly reduce
    // memory traffic by 70%".
    let effects = bandwidth_wall::model::techniques::combine(&[
        Technique::link_compression(2.0).unwrap(),
        Technique::small_cache_lines(0.4).unwrap(),
    ]);
    let direct = 1.0 - 1.0 / effects.traffic_divisor();
    assert!((direct - 0.70).abs() < 0.01, "{direct}");
}

#[test]
fn figure16_all_combinations_beat_base_and_monotone_in_generation() {
    let combos = figure16_combinations(AssumptionLevel::Realistic).unwrap();
    assert_eq!(combos.len(), 15);
    for combo in combos {
        let mut last = 0;
        for g in 1..=4 {
            let n2 = 16.0 * 2f64.powi(g);
            let base_cores = ScalingProblem::new(base(), n2)
                .max_supportable_cores()
                .unwrap();
            let cores = ScalingProblem::new(base(), n2)
                .with_techniques(combo.techniques().iter().copied())
                .max_supportable_cores()
                .unwrap();
            assert!(cores >= base_cores, "{} at {n2}", combo.name());
            assert!(cores >= last, "{} not monotone", combo.name());
            last = cores;
        }
    }
}

#[test]
fn figure17_alpha_gap_roughly_doubles_base_cores() {
    let hi = ScalingProblem::new(base().with_alpha(Alpha::COMMERCIAL_MAX), 256.0)
        .max_supportable_cores()
        .unwrap();
    let lo = ScalingProblem::new(base().with_alpha(Alpha::SPEC2006), 256.0)
        .max_supportable_cores()
        .unwrap();
    let ratio = hi as f64 / lo as f64;
    assert!(ratio > 1.6 && ratio < 2.2, "{ratio}");
}

#[test]
fn table2_catalog_complete_and_ordered() {
    let labels: Vec<&str> = catalog().iter().map(|d| d.label).collect();
    assert_eq!(
        labels,
        ["CC", "DRAM", "3D", "Fltr", "SmCo", "LC", "Sect", "SmCl", "CC/LC"]
    );
}
