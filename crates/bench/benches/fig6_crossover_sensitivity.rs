//! Fig. 6 — crossover sensitivity: standard GA (no domain operators),
//! Gamma without crossover, crossover-only Gamma, and full Gamma.
//!
//! Expected shape (paper §4.4.2): full Gamma ~an order of magnitude better
//! than standard GA; disabling crossover hurts substantially;
//! crossover-only is also inadequate.

use bench::{budget, geomean, header, result_row};
use costmodel::{guarded_engine, GuardPolicy};
use mappers::{Budget, Gamma, Mapper, StandardGa};
use mse::Mse;

fn main() {
    let samples = budget(1_000, 5_000);
    let workloads = [
        problem::zoo::resnet_conv3(),
        problem::zoo::resnet_conv4(),
        problem::zoo::inception_conv2(),
    ];
    let arch = arch::Arch::accel_b();
    println!("Fig. 6: crossover sensitivity on {} ({samples} samples per run)", arch.name());

    type Variant = (&'static str, Box<dyn Fn() -> Box<dyn Mapper>>);
    let variants: Vec<Variant> = vec![
        ("Standard-GA", Box::new(|| Box::new(StandardGa::new()) as Box<dyn Mapper>)),
        ("Gamma no-crossover", Box::new(|| Box::new(Gamma::no_crossover()) as Box<dyn Mapper>)),
        ("Gamma crossover-only", Box::new(|| Box::new(Gamma::crossover_only()) as Box<dyn Mapper>)),
        ("Full Gamma", Box::new(|| Box::new(Gamma::new()) as Box<dyn Mapper>)),
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
            let r = mse.run(make().as_ref(), Budget::samples(samples), 6);
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
        println!("{name:<22} {:>8.2}x", geomean(rs.iter().copied()));
    }
}
