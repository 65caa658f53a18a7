//! DOSA budget comparison — fig3-style harness pitting the differentiable
//! one-loop mapper (`mappers::Dosa`) against the strongest mapper of each
//! other family — Gamma (feedback), Cross-Entropy (distribution fitting),
//! simulated annealing (heuristic), and the Mind-Mappings surrogate
//! (learned gradient) — at small/medium/large sample budgets.
//!
//! Expected (DOSA, PAPERS.md): direct gradient descent through the
//! analytical model dominates at *small* budgets, because smooth gradient
//! queries are free — only the projection re-costs spend evaluations — so
//! it needs far fewer exact evaluations to land near the optimum, while
//! population mappers need whole generations before selection pressure
//! does anything. With large budgets the families converge.
//!
//! Each mapper runs fresh at each budget (mappers adapt schedules to the
//! declared budget), on Accel-B, fixed seed; the surrogate is trained
//! natively on the same arch/workload so it competes at full strength.

use bench::{budget, edp_fmt, header};
use costmodel::{guarded_engine, DenseModel, GuardPolicy};
use mappers::{Budget, CrossEntropy, Dosa, Gamma, Mapper, SimulatedAnnealing};
use mse::Mse;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use surrogate::{MindMappings, Surrogate, TrainConfig};

fn main() {
    let budgets = [100usize, 500, 2_000];
    let workloads = [problem::zoo::resnet_conv4(), problem::zoo::bert_kqv()];
    let arch_cfg = arch::Arch::accel_b();
    println!(
        "DOSA budget comparison on {} (budgets: {:?} samples, best of 3 seeds)",
        arch_cfg.name(),
        budgets
    );

    let train_cfg = TrainConfig {
        samples_per_workload: budget(4_000, 20_000),
        epochs: budget(20, 40),
        ..TrainConfig::default()
    };

    for w in &workloads {
        let model = guarded_engine(w, &arch_cfg, None, GuardPolicy::Reject);
        let mse = Mse::new(&model);

        // Native surrogate (trained on this exact arch/workload) so the
        // learned-gradient family competes at full strength.
        let dense = DenseModel::new(w.clone(), arch_cfg.clone());
        let mut rng = SmallRng::seed_from_u64(0xA11CE);
        let (sur, report) = Surrogate::train(&[&dense], &train_cfg, &mut rng);
        let sur = Arc::new(sur);

        header(&format!("{} on {}", w.name(), arch_cfg.name()));
        println!(
            "  surrogate: {} examples, holdout MSE {:.4}",
            report.examples, report.holdout_mse
        );

        let mappers: Vec<(&str, Box<dyn Mapper>)> = vec![
            ("DOSA", Box::new(Dosa::new())),
            ("Gamma", Box::new(Gamma::new())),
            ("Cross-Entropy", Box::new(CrossEntropy::new())),
            ("Annealing", Box::new(SimulatedAnnealing::new())),
            ("Mind-Mappings", Box::new(MindMappings::new(sur.clone()))),
        ];

        print!("{:>16}", "mapper");
        for b in budgets {
            print!("{b:>14}");
        }
        println!();
        for (name, mapper) in &mappers {
            print!("{name:>16}");
            for b in budgets {
                let best = (0..3u64)
                    .map(|seed| mse.run(mapper.as_ref(), Budget::samples(b), seed).best_score)
                    .fold(f64::INFINITY, f64::min);
                print!("{:>14}", edp_fmt(best));
            }
            println!();
        }
    }
}
