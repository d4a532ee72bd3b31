//! Design-space exploration: a CMP architect's view of the bandwidth
//! wall.
//!
//! Given a die budget two generations out (64 CEAs), this example walks
//! the core/cache allocation curve, examines how much envelope growth
//! buys, checks workload sensitivity (α), and ranks Table 2's techniques
//! by the cores they unlock.
//!
//! Run: `cargo run --example design_space`

use bandwidth_wall::model::{
    catalog, Alpha, AssumptionLevel, Baseline, ScalingProblem, TrafficModel,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let baseline = Baseline::niagara2_like();
    let die = 64.0; // two generations out

    println!("== allocation curve (64-CEA die, alpha = 0.5) ==");
    let model = TrafficModel::new(baseline);
    for cores in [8.0, 14.0, 16.0, 24.0, 32.0, 48.0] {
        let traffic = model.relative_traffic_on_die(die, cores)?;
        let verdict = if traffic <= 1.0 { "fits" } else { "exceeds" };
        println!(
            "  {cores:>4.0} cores / {:>4.0} cache CEAs -> {traffic:>5.2}x traffic ({verdict})",
            die - cores
        );
    }

    println!("\n== how much does envelope growth buy? ==");
    for growth in [1.0, 1.21, 1.5, 2.0, 4.0] {
        let p = ScalingProblem::new(baseline, die).with_bandwidth_growth(growth);
        println!(
            "  envelope x{growth:<4} -> {} cores",
            p.max_supportable_cores()?
        );
    }

    println!("\n== workload sensitivity ==");
    for (label, alpha) in [
        ("SPEC-like   (α=0.25)", Alpha::SPEC2006),
        ("OLTP-2-like (α=0.36)", Alpha::COMMERCIAL_MIN),
        ("average     (α=0.50)", Alpha::COMMERCIAL_AVERAGE),
        ("OLTP-4-like (α=0.62)", Alpha::COMMERCIAL_MAX),
    ] {
        let p = ScalingProblem::new(baseline.with_alpha(alpha), die);
        println!("  {label} -> {} cores", p.max_supportable_cores()?);
    }

    println!("\n== technique ranking (realistic assumptions, 64-CEA die) ==");
    let mut ranked: Vec<(String, u64)> = catalog()
        .iter()
        .map(|d| {
            let cores = ScalingProblem::new(baseline, die)
                .with_technique(d.at(AssumptionLevel::Realistic).unwrap())
                .max_supportable_cores()
                .unwrap();
            (format!("{} ({})", d.name, d.label), cores)
        })
        .collect();
    ranked.sort_by_key(|&(_, cores)| std::cmp::Reverse(cores));
    for (name, cores) in ranked {
        println!("  {cores:>3} cores  {name}");
    }
    println!(
        "  (baseline without techniques: {} cores)",
        ScalingProblem::new(baseline, die).max_supportable_cores()?
    );
    Ok(())
}
