//! Warm-start walkthrough on VGG16 (§5.1): run the full network twice —
//! random init vs warm-start by similarity — and compare final quality and
//! convergence speed per layer.
//!
//! ```sh
//! cargo run --release -p mapex-examples --bin warmstart_vgg
//! ```

use arch::Arch;
use costmodel::DenseModel;
use mappers::{Budget, Gamma};
use mse::{run_network, samples_to_reach, InitStrategy, LayerOutcome, ReplayBuffer};

fn run(strategy: InitStrategy) -> Vec<LayerOutcome> {
    let arch = Arch::accel_b();
    let layers = problem::zoo::vgg16();
    let buffer = ReplayBuffer::new();
    run_network(
        &layers,
        &arch,
        &buffer,
        strategy,
        Budget::samples(1_200),
        7,
        1,
        |p| Box::new(DenseModel::new(p.clone(), arch.clone())),
        || Box::new(Gamma::new()),
    )
}

fn main() {
    println!("VGG16 on Accel-B: random init vs warm-start by similarity");
    let cold = run(InitStrategy::Random);
    let warm = run(InitStrategy::BySimilarity);

    println!();
    println!(
        "{:<16} {:>12} {:>12} {:>11} {:>11}",
        "layer", "cold EDP", "warm EDP", "cold conv@", "warm conv@"
    );
    let mut speedups = Vec::new();
    for (c, w) in cold.iter().zip(&warm) {
        println!(
            "{:<16} {:>12.3e} {:>12.3e} {:>11} {:>11}",
            c.name, c.result.best_score, w.result.best_score, c.converge_sample, w.converge_sample
        );
        if c.name != cold[0].name {
            let target = 1.005 * c.result.best_score.max(w.result.best_score);
            let cs = samples_to_reach(&c.result, target).unwrap_or(c.result.evaluated);
            let ws = samples_to_reach(&w.result, target).unwrap_or(w.result.evaluated);
            speedups.push(cs as f64 / ws.max(1) as f64);
        }
    }
    let geo = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();
    println!();
    println!("geomean convergence speedup from warm-start (layers 2+): {geo:.1}x");
    println!("(the paper reports 3.3x-7.3x across its four networks)");
}
