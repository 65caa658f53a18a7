//! Ablation bench for the design choices DESIGN.md calls out on the Gamma
//! implementation: population size, mutation rate, elite fraction, and
//! scalar-vs-NSGA-II selection. Not a paper figure — this validates that
//! our defaults sit in a robust region of the hyper-parameter space, so
//! the paper-facing comparisons are not artifacts of a tuned-for-us Gamma.

use bench::{budget, edp_fmt, geomean, header};
use costmodel::{guarded_engine, GuardPolicy};
use mappers::{Budget, Gamma, GammaConfig, Selection};
use mse::Mse;

fn main() {
    let samples = budget(1_000, 4_000);
    let workloads = [problem::zoo::resnet_conv3(), problem::zoo::resnet_conv4()];
    let arch = arch::Arch::accel_b();
    println!("Gamma hyper-parameter ablation ({samples} samples per run, 3 seeds)");

    let variants: Vec<(&str, GammaConfig)> = vec![
        ("default (pop 50, mut 0.6)", GammaConfig::default()),
        ("pop 20", GammaConfig { population: 20, ..GammaConfig::default() }),
        ("pop 100", GammaConfig { population: 100, ..GammaConfig::default() }),
        ("mutation 0.2", GammaConfig { mutation_rate: 0.2, ..GammaConfig::default() }),
        ("mutation 0.9", GammaConfig { mutation_rate: 0.9, ..GammaConfig::default() }),
        ("elite 10%", GammaConfig { elite_frac: 0.1, ..GammaConfig::default() }),
        ("elite 50%", GammaConfig { elite_frac: 0.5, ..GammaConfig::default() }),
        ("NSGA-II selection", GammaConfig { selection: Selection::Nsga2, ..GammaConfig::default() }),
    ];

    let mut baseline = Vec::new();
    for (name, cfg) in &variants {
        let mut per_workload = Vec::new();
        for w in &workloads {
            let model = guarded_engine(w, &arch, None, GuardPolicy::Reject);
            let mse = Mse::new(&model);
            let mut best = f64::INFINITY;
            for seed in 0..3 {
                let r = mse.run(
                    &Gamma::with_config(cfg.clone()),
                    Budget::samples(samples),
                    seed,
                );
                best = best.min(r.best_score);
            }
            per_workload.push(best);
        }
        if baseline.is_empty() {
            baseline = per_workload.clone();
        }
        let rel = geomean(
            per_workload.iter().zip(&baseline).map(|(v, b)| v / b),
        );
        println!(
            "{name:<28} {} / {}   ({rel:>5.2}x vs default)",
            edp_fmt(per_workload[0]),
            edp_fmt(per_workload[1])
        );
    }
    header("Interpretation");
    println!("All variants should land within a small factor of the default: the");
    println!("paper-facing results do not hinge on a fragile Gamma configuration.");
}
