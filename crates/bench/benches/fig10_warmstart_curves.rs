//! Fig. 10 — convergence curves with random vs warm-start initialization
//! for (a) the first layer of VGG16 (empty replay buffer: no difference)
//! and (b) a later layer (warm-start starts better and converges faster).

use arch::Arch;
use bench::{budget, checkpoints, curve, edp_fmt, header};
use costmodel::{guarded_engine, GuardPolicy};
use mappers::{Budget, Gamma};
use mse::{run_network, samples_to_reach, InitStrategy, ReplayBuffer};

fn main() {
    let samples = budget(1_000, 4_000);
    let arch = Arch::accel_b();
    let layers = problem::zoo::vgg16();
    println!("Fig. 10: warm-start convergence on VGG16 ({samples} samples per layer)");

    let run = |strategy: InitStrategy| {
        let buf = ReplayBuffer::new();
        run_network(
            &layers,
            &arch,
            &buf,
            strategy,
            Budget::samples(samples),
            10,
            1,
            |p| Box::new(guarded_engine(p, &arch, None, GuardPolicy::Reject)),
            || Box::new(Gamma::new()),
        )
    };
    let cold = run(InitStrategy::Random);
    let warm = run(InitStrategy::BySimilarity);

    for (title, idx) in [("(a) VGG Conv_1 (first layer)", 0usize), ("(b) VGG Conv_13 (later layer)", layers.len() - 1)] {
        header(title);
        let cps = checkpoints(samples);
        println!("{:>10} {:>16} {:>16}", "samples", "random-init", "warm-start");
        let cc = curve(&cold[idx].result.history, &cps);
        let wc = curve(&warm[idx].result.history, &cps);
        for (i, &cp) in cps.iter().enumerate() {
            let c = cc.get(i).map(|&(_, v)| edp_fmt(v)).unwrap_or_else(|| "-".into());
            let w = wc.get(i).map(|&(_, v)| edp_fmt(v)).unwrap_or_else(|| "-".into());
            println!("{cp:>10} {c:>16} {w:>16}");
        }
        // Time to reach a *similar performance point* (the paper's
        // warm-start metric): 0.5% above the worse of the two finals.
        let target = 1.005 * cold[idx].result.best_score.max(warm[idx].result.best_score);
        let cs = samples_to_reach(&cold[idx].result, target).unwrap_or(usize::MAX);
        let ws = samples_to_reach(&warm[idx].result, target).unwrap_or(usize::MAX);
        println!("samples to reach the common target: random {cs}, warm-start {ws}");
    }
    println!();
    println!("Expected: no difference on the first layer; on the later layer the");
    println!("warm-start curve starts lower and reaches its floor sooner.");
}
