//! Fig. 5 — mapping-axis sensitivity: explore one axis at a time via
//! Gamma's dedicated mutation operators (mutate-tile / mutate-order /
//! mutate-parallelism) while the other axes stay at their randomly
//! initialized values.
//!
//! Expected shape (paper §4.4.1): tile-only exploration dominates; order-
//! and parallelism-only trail far behind; full Gamma is best.

use bench::{budget, edp_fmt, geomean, header, result_row};
use costmodel::{guarded_engine, GuardPolicy};
use mappers::{Budget, Gamma};
use mse::Mse;

fn main() {
    let samples = budget(1_000, 5_000);
    let workloads = [
        problem::zoo::resnet_conv3(),
        problem::zoo::resnet_conv4(),
        problem::zoo::inception_conv2(),
    ];
    let arch = arch::Arch::accel_b();
    println!("Fig. 5: axis sensitivity on {} ({samples} samples per run)", arch.name());

    type Variant = (&'static str, fn() -> Gamma);
    let variants: Vec<Variant> = vec![
        ("Tile (mutate-tile only)", Gamma::tile_only),
        ("Order (mutate-order only)", Gamma::order_only),
        ("Parallelism only", Gamma::parallelism_only),
        ("Full Gamma", Gamma::new),
    ];

    let mut ratios: Vec<(String, Vec<f64>)> =
        variants.iter().map(|(n, _)| (n.to_string(), Vec::new())).collect();
    for w in &workloads {
        header(w.name());
        let model = guarded_engine(w, &arch, None, GuardPolicy::Reject);
        let mse = Mse::new(&model);
        let mut best_full = f64::INFINITY;
        let mut scores = Vec::new();
        for (name, make) in &variants {
            let r = mse.run(&make(), Budget::samples(samples), 5);
            println!("{}", result_row(name, &r));
            scores.push(r.best_score);
            if *name == "Full Gamma" {
                best_full = r.best_score;
            }
        }
        for (i, s) in scores.iter().enumerate() {
            ratios[i].1.push(s / best_full);
        }
    }

    header("Summary (EDP vs full Gamma, geomean over workloads; 1.0 = full Gamma)");
    for (name, rs) in &ratios {
        println!("{name:<28} {:>8.2}x", geomean(rs.iter().copied()));
    }
    println!();
    println!(
        "Expected: tile-only within a small factor of full Gamma ({}),",
        edp_fmt(1.0)
    );
    println!("order-only and parallelism-only one or more orders of magnitude worse.");
}
