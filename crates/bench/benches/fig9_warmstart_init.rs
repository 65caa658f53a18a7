//! Fig. 9 — quality of the *initialization point* under three strategies:
//! random init, warm-start by previous layer, and warm-start by similarity,
//! normalized to the final optimized EDP of each workload.
//!
//! Expected shape (paper §5.1.3): on a regular network (VGG) the two
//! warm-start flavors tie (the most similar layer *is* the previous
//! layer); on the NAS-found MnasNet, warm-start by similarity clearly
//! beats warm-start by previous layer; both beat random init.

use arch::Arch;
use bench::{budget, geomean, header};
use costmodel::{guarded_engine, GuardPolicy};
use mappers::{Budget, Gamma};
use mse::{run_network, InitStrategy, ReplayBuffer};
use problem::Problem;

fn run(
    layers: &[Problem],
    arch: &Arch,
    strategy: InitStrategy,
    samples: usize,
) -> Vec<(String, f64, f64)> {
    let buf = ReplayBuffer::new();
    run_network(
        layers,
        arch,
        &buf,
        strategy,
        Budget::samples(samples),
        9,
        1,
        |p| Box::new(guarded_engine(p, arch, None, GuardPolicy::Reject)),
        || Box::new(Gamma::new()),
    )
    .into_iter()
    .map(|o| (o.name, o.init_score, o.result.best_score))
    .collect()
}

fn main() {
    let samples = budget(800, 3_000);
    let arch = Arch::accel_b();
    // A window of layers per model, as in the figure's workload IDs.
    let take = budget(6, 10);
    let models: Vec<(&str, Vec<Problem>)> = vec![
        ("VGG16", problem::zoo::vgg16().into_iter().skip(2).take(take).collect()),
        ("Mnasnet", problem::zoo::mnasnet().into_iter().skip(1).take(take).collect()),
    ];
    println!("Fig. 9: initialization quality ({samples} samples per layer search)");
    println!("values = init EDP / final optimized EDP (1.0 = already optimal)");

    for (model_name, layers) in &models {
        header(model_name);
        let random = run(layers, &arch, InitStrategy::Random, samples);
        let prev = run(layers, &arch, InitStrategy::PreviousLayer, samples);
        let simi = run(layers, &arch, InitStrategy::BySimilarity, samples);
        println!(
            "{:<24} {:>12} {:>12} {:>12}",
            "workload", "random", "prev-layer", "similarity"
        );
        let mut r_ratio = Vec::new();
        let mut p_ratio = Vec::new();
        let mut s_ratio = Vec::new();
        for i in 0..layers.len() {
            // Normalize by the best final EDP across strategies for a
            // stable reference.
            let fin = random[i].2.min(prev[i].2).min(simi[i].2);
            let (r, p, s) = (random[i].1 / fin, prev[i].1 / fin, simi[i].1 / fin);
            println!("{:<24} {r:>12.2} {p:>12.2} {s:>12.2}", random[i].0);
            if i > 0 {
                // The first layer has an empty replay buffer.
                r_ratio.push(r);
                p_ratio.push(p);
                s_ratio.push(s);
            }
        }
        println!(
            "geomean (layers 2+):     {:>12.2} {:>12.2} {:>12.2}",
            geomean(r_ratio.iter().copied()),
            geomean(p_ratio.iter().copied()),
            geomean(s_ratio.iter().copied())
        );
    }
    println!();
    println!("Paper reference: warm-start inits are 2.1x / 4.3x better than random on");
    println!("VGG / Mnasnet; similarity beats previous-layer by ~2x on Mnasnet only.");
}
