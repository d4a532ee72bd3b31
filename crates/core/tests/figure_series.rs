//! Regression pins for the complete Figure 15 and Figure 16 series.
//!
//! The root `tests/paper_numbers.rs` asserts the values the paper's prose
//! states; this file pins the *entire* computed series so any future
//! change to the technique algebra or solver is caught immediately.

use bandwall_model::combination::figure16_combinations;
use bandwall_model::{catalog, AssumptionLevel, Baseline, ScalingProblem};

fn solve(techniques: &[bandwall_model::Technique], generation: i32) -> u64 {
    ScalingProblem::new(Baseline::niagara2_like(), 16.0 * 2f64.powi(generation))
        .with_techniques(techniques.iter().copied())
        .max_supportable_cores()
        .unwrap()
}

#[test]
fn figure15_realistic_series() {
    // (label, cores at 2x/4x/8x/16x) — computed once, pinned forever.
    let expected: [(&str, [u64; 4]); 9] = [
        ("CC", [13, 18, 23, 30]),
        ("DRAM", [18, 26, 36, 47]),
        ("3D", [14, 19, 24, 31]),
        ("Fltr", [12, 17, 22, 28]),
        ("SmCo", [12, 15, 20, 25]),
        ("LC", [16, 22, 29, 38]),
        ("Sect", [14, 19, 26, 34]),
        ("SmCl", [16, 22, 30, 40]),
        ("CC/LC", [18, 26, 36, 47]),
    ];
    for d in catalog() {
        let (_, series) = expected
            .iter()
            .find(|(label, _)| *label == d.label)
            .expect("every catalogue entry is pinned");
        let technique = d.at(AssumptionLevel::Realistic).unwrap();
        for (g, &want) in (1..=4).zip(series) {
            assert_eq!(
                solve(&[technique], g),
                want,
                "{} at generation {g}",
                d.label
            );
        }
    }
}

#[test]
fn figure15_base_series() {
    let base: Vec<u64> = (1..=4).map(|g| solve(&[], g)).collect();
    assert_eq!(base, [11, 14, 19, 24]);
}

#[test]
fn figure16_realistic_series() {
    let expected: [[u64; 4]; 15] = [
        [32, 44, 58, 76],   // CC + DRAM + 3D
        [27, 43, 64, 88],   // CC/LC + DRAM
        [20, 27, 36, 46],   // CC + 3D + Fltr
        [21, 30, 41, 55],   // CC/LC + Fltr
        [32, 53, 72, 94],   // DRAM + 3D + LC
        [26, 42, 61, 83],   // DRAM + Fltr + LC
        [28, 46, 69, 96],   // DRAM + LC + Sect
        [25, 34, 44, 57],   // 3D + Fltr + LC
        [22, 33, 45, 61],   // SmCl + LC
        [25, 38, 55, 75],   // CC/LC + SmCl
        [32, 55, 75, 99],   // DRAM + 3D + SmCl
        [30, 55, 89, 132],  // CC/LC + DRAM + SmCl
        [32, 55, 75, 99],   // CC/LC + 3D + SmCl
        [32, 64, 88, 117],  // CC/LC + DRAM + 3D
        [32, 64, 128, 183], // CC/LC + DRAM + 3D + SmCl
    ];
    let combos = figure16_combinations(AssumptionLevel::Realistic).unwrap();
    assert_eq!(combos.len(), expected.len());
    for (combo, series) in combos.iter().zip(&expected) {
        for (g, &want) in (1..=4).zip(series) {
            assert_eq!(
                solve(combo.techniques(), g),
                want,
                "{} at generation {g}",
                combo.name()
            );
        }
    }
}

#[test]
fn figure17_series() {
    use bandwall_model::Alpha;
    let solve_alpha = |alpha: Alpha, labels: &[&str], g: i32| {
        let combo = bandwall_model::combination::Combination::from_labels(
            labels,
            AssumptionLevel::Realistic,
        )
        .unwrap();
        ScalingProblem::new(
            Baseline::niagara2_like().with_alpha(alpha),
            16.0 * 2f64.powi(g),
        )
        .with_techniques(combo.techniques().iter().copied())
        .max_supportable_cores()
        .unwrap()
    };
    // High α = 0.62.
    let hi = Alpha::COMMERCIAL_MAX;
    assert_eq!(solve_alpha(hi, &[], 4), 28);
    assert_eq!(solve_alpha(hi, &["DRAM"], 4), 60);
    assert_eq!(solve_alpha(hi, &["CC/LC", "DRAM"], 4), 108);
    assert_eq!(solve_alpha(hi, &["CC/LC", "DRAM", "3D"], 4), 152);
    // Low α = 0.25.
    let lo = Alpha::SPEC2006;
    assert_eq!(solve_alpha(lo, &[], 4), 15);
    assert_eq!(solve_alpha(lo, &["DRAM"], 4), 23);
    assert_eq!(solve_alpha(lo, &["CC/LC", "DRAM"], 4), 46);
    assert_eq!(solve_alpha(lo, &["CC/LC", "DRAM", "3D"], 4), 54);
}

#[test]
fn figure3_full_series() {
    let cores: Vec<u64> = (0..=7).map(|g| solve(&[], g)).collect();
    assert_eq!(cores, [8, 11, 14, 19, 24, 31, 39, 50]);
}
