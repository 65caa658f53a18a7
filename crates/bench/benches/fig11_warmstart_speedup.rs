//! Fig. 11 — warm-start across whole networks: (a) the EDP of the found
//! mappings matches default MSE, while (b) convergence is 3.3x–7.3x
//! faster (fewest speedup on the NAS-found, irregular MnasNet).

use arch::Arch;
use bench::{budget, geomean, header};
use costmodel::{guarded_engine, GuardPolicy};
use mappers::{Budget, Gamma};
use mse::{run_network, samples_to_reach, InitStrategy, ReplayBuffer};
use problem::Problem;

fn main() {
    let samples = budget(800, 3_000);
    let arch = Arch::accel_b();
    let take = budget(8, 64);
    let models: Vec<(&str, Vec<Problem>)> = vec![
        ("Resnet50", problem::zoo::resnet50().into_iter().take(take).collect()),
        ("VGG16", problem::zoo::vgg16().into_iter().take(take).collect()),
        ("MobilenetV2", problem::zoo::mobilenet_v2().into_iter().take(take).collect()),
        ("Mnasnet", problem::zoo::mnasnet().into_iter().take(take).collect()),
    ];
    println!(
        "Fig. 11: whole-network warm-start ({samples} samples/layer, {take} layers/model)"
    );

    header("per-model summary");
    println!(
        "{:<14} {:>16} {:>20} {:>14}",
        "model", "EDP ratio (geo)", "converge speedup", "layers"
    );
    for (name, layers) in &models {
        let run = |strategy: InitStrategy| {
            let buf = ReplayBuffer::new();
            run_network(
                layers,
                &arch,
                &buf,
                strategy,
                Budget::samples(samples),
                11,
                1,
                |p| Box::new(guarded_engine(p, &arch, None, GuardPolicy::Reject)),
                || Box::new(Gamma::new()),
            )
        };
        let cold = run(InitStrategy::Random);
        let warm = run(InitStrategy::BySimilarity);
        // (a) quality parity: warm EDP / cold EDP per layer.
        let quality = geomean(
            cold.iter().zip(&warm).map(|(c, w)| w.result.best_score / c.result.best_score),
        );
        // (b) speedup: samples each run needs to reach a *similar
        // performance point* (0.5% above the worse of the two finals),
        // skipping the first layer, whose replay buffer is empty.
        let speedup = geomean(cold.iter().zip(&warm).skip(1).map(|(c, w)| {
            let target = 1.005 * c.result.best_score.max(w.result.best_score);
            let cs = samples_to_reach(&c.result, target).unwrap_or(c.result.evaluated);
            let ws = samples_to_reach(&w.result, target).unwrap_or(w.result.evaluated);
            cs as f64 / ws.max(1) as f64
        }));
        println!("{name:<14} {quality:>16.3} {speedup:>19.1}x {:>14}", layers.len());
    }
    println!();
    println!("Paper reference: EDP ratio ~1.0 (same quality); speedups 3.3x-7.3x,");
    println!("with Mnasnet (irregular NAS shapes) at the low end.");
}
