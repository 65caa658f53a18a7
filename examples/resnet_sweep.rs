//! Map every (unique) ResNet-50 layer onto Accel-B with warm-start MSE and
//! print a per-layer mapping report — the "deploy a whole network" flow a
//! compiler would run (§5.1's motivating use case).
//!
//! ```sh
//! cargo run --release -p mapex-examples --bin resnet_sweep
//! ```

use arch::Arch;
use costmodel::DenseModel;
use mappers::{Budget, Gamma};
use mse::{run_network, InitStrategy, ReplayBuffer};

fn main() {
    let arch = Arch::accel_b();
    let layers = problem::zoo::resnet50();
    let buffer = ReplayBuffer::new();
    println!("mapping {} unique ResNet-50 layers onto {}", layers.len(), arch.name());

    let outcomes = run_network(
        &layers,
        &arch,
        &buffer,
        InitStrategy::BySimilarity,
        Budget::samples(1_500),
        0,
        1,
        |p| Box::new(DenseModel::new(p.clone(), arch.clone())),
        || Box::new(Gamma::new()),
    );

    println!();
    println!(
        "{:<22} {:>12} {:>12} {:>12} {:>10}",
        "layer", "EDP", "latency", "energy(uJ)", "converged@"
    );
    let mut total_latency = 0.0;
    let mut total_energy = 0.0;
    for o in &outcomes {
        let (_, cost) = o.result.best.as_ref().expect("search always finds a mapping");
        println!(
            "{:<22} {:>12.3e} {:>12.3e} {:>12.3e} {:>10}",
            o.name,
            cost.edp(),
            cost.latency_cycles,
            cost.energy_uj,
            o.converge_sample
        );
        total_latency += cost.latency_cycles;
        total_energy += cost.energy_uj;
    }
    println!();
    println!(
        "network totals (layer-serial): {total_latency:.3e} cycles, {total_energy:.3e} uJ"
    );
    println!("replay buffer now holds {} optimized mappings", buffer.len());
}
