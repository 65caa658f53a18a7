//! Fig. 3 — apples-to-apples comparison of the three mapper families:
//! Random-Pruned (random-based), Gamma (feedback-based), and Mind Mappings
//! (gradient-based), on (Resnet Conv_3, Resnet Conv_4) × (Accel-A,
//! Accel-B).
//!
//! * Top of the figure: convergence over *number of samples* (iso-sample,
//!   5,000-point budget at paper scale).
//! * Bottom: convergence over *wall clock* within a tight time budget
//!   (20 s in the paper). Because our Rust cost model is ~10^3x faster than
//!   the paper's stack, we report both raw wall-clock curves and curves
//!   with each mapper's measured per-sample algorithmic overhead charged
//!   explicitly (the paper reports Gamma/Mind-Mappings overheads ~10x the
//!   Random-Pruned per-sample cost).
//!
//! Expected shape (paper §4.3): Random-Pruned is slowest per sample; Mind
//! Mappings leads early on its trained configuration (Accel-A) then stalls
//! in local optima; Gamma overtakes with more samples; on the *unseen*
//! Accel-B the gradient-based mapper loses its edge; under tight wall-clock
//! budgets Random-Pruned is competitive because its per-sample cost is
//! lowest.

use bench::{budget, checkpoints, curve, edp_fmt, full_scale, header, result_row};
use costmodel::{guarded_engine, DenseModel, GuardPolicy};
use mappers::{Budget, Gamma, Mapper, RandomPruned};
use mse::Mse;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use surrogate::{MindMappings, Surrogate, TrainConfig};

fn main() {
    let samples = budget(1_200, 5_000);
    let seconds = if full_scale() { 20.0 } else { 1.0 };
    let workloads = [problem::zoo::resnet_conv3(), problem::zoo::resnet_conv4()];
    let arches = [arch::Arch::accel_a(), arch::Arch::accel_b()];

    println!("Fig. 3: mapper comparison (budget: {samples} samples / {seconds:.0} s)");
    println!("Surrogate for Mind Mappings trained on Accel-A only (as in the paper).");

    // Train one surrogate per workload on Accel-A (the paper's setup); the
    // same surrogate is reused, untrained, on Accel-B.
    let train_cfg = TrainConfig {
        samples_per_workload: budget(4_000, 20_000),
        epochs: budget(20, 40),
        ..TrainConfig::default()
    };
    let mut surrogates = Vec::new();
    for w in &workloads {
        let model_a = DenseModel::new(w.clone(), arch::Arch::accel_a());
        let mut rng = SmallRng::seed_from_u64(0xA11CE);
        let (sur, report) = Surrogate::train(&[&model_a], &train_cfg, &mut rng);
        println!(
            "  surrogate[{}]: {} examples, holdout MSE {:.4}",
            w.name(),
            report.examples,
            report.holdout_mse
        );
        surrogates.push(Arc::new(sur));
    }

    for arch_cfg in &arches {
        for (wi, w) in workloads.iter().enumerate() {
            header(&format!("{} on {}", w.name(), arch_cfg.name()));
            let model = guarded_engine(w, arch_cfg, None, GuardPolicy::Reject);
            let mse = Mse::new(&model);

            let mappers: Vec<(&str, Box<dyn Mapper>)> = vec![
                ("Random-Pruned", Box::new(RandomPruned::new())),
                ("Gamma", Box::new(Gamma::new())),
                ("Mind-Mappings", Box::new(MindMappings::new(surrogates[wi].clone()))),
            ];

            println!("-- iso-samples ({samples} samples) --");
            let cps = checkpoints(samples);
            let mut results = Vec::new();
            for (name, mapper) in &mappers {
                let r = mse.run(mapper.as_ref(), Budget::samples(samples), 7);
                println!("{}", result_row(name, &r));
                results.push((name.to_string(), r));
            }
            println!("convergence (best EDP at sample checkpoints):");
            print!("{:>10}", "samples");
            for (name, _) in &results {
                print!("{name:>16}");
            }
            println!();
            for (i, &cp) in cps.iter().enumerate() {
                print!("{cp:>10}");
                for (_, r) in &results {
                    let c = curve(&r.history, &cps);
                    match c.get(i) {
                        Some(&(_, v)) => print!("{:>16}", edp_fmt(v)),
                        None => print!("{:>16}", "-"),
                    }
                }
                println!();
            }

            println!("-- iso-time ({seconds} s wall clock) --");
            // Measured per-sample cost (model+algorithm) from the runs
            // above; the paper's qualitative regime (learned mappers ~10x
            // costlier per sample) is reported alongside.
            for (name, r) in &results {
                let per_sample = r.elapsed.as_secs_f64() / r.evaluated.max(1) as f64;
                println!("  {name:<16} measured per-sample cost {:.2} us", per_sample * 1e6);
            }
            for (name, mapper) in &mappers {
                let r = mse.run(mapper.as_ref(), Budget::seconds(seconds), 13);
                println!("{}", result_row(name, &r));
            }
            // Overhead-charged regime: charge each sample the paper's
            // relative cost (1 ms cost model; +10x algorithm overhead for
            // the learned mappers) and report what each mapper reaches
            // within the budget.
            let model_ms = 1.0e-3;
            println!("overhead-charged iso-time (cost model 1 ms/sample, learned mappers 10x):");
            for (name, r) in &results {
                let overhead = if name == "Random-Pruned" { 1.0 } else { 10.0 };
                let affordable = (seconds / (model_ms * overhead)) as usize;
                let reached = r
                    .history
                    .iter()
                    .take_while(|p| p.samples <= affordable.max(1))
                    .last()
                    .map(|p| p.best_score)
                    .unwrap_or(f64::INFINITY);
                println!(
                    "  {name:<16} affords {affordable:>6} samples -> best EDP {}",
                    edp_fmt(reached)
                );
            }
        }
    }
}
