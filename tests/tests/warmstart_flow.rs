//! Integration tests for the §5.1 warm-start flow across crates.

use arch::Arch;
use costmodel::DenseModel;
use mappers::{Budget, Gamma, HillClimb};
use mse::{run_network, samples_to_reach, InitStrategy, ReplayBuffer};
use problem::Problem;

fn vgg_slice() -> Vec<Problem> {
    problem::zoo::vgg16().into_iter().skip(4).take(4).collect()
}

#[test]
fn warm_start_matches_quality_and_reaches_target_sooner() {
    let arch = Arch::accel_b();
    let layers = vgg_slice();
    let run = |strategy| {
        let buf = ReplayBuffer::new();
        run_network(
            &layers,
            &arch,
            &buf,
            strategy,
            Budget::samples(800),
            3,
            1,
            |p| Box::new(DenseModel::new(p.clone(), arch.clone())),
            || Box::new(Gamma::new()),
        )
    };
    let cold = run(InitStrategy::Random);
    let warm = run(InitStrategy::BySimilarity);
    // (a) similar final quality on every layer (within 2x either way).
    for (c, w) in cold.iter().zip(&warm) {
        let ratio = w.result.best_score / c.result.best_score;
        assert!((0.5..2.0).contains(&ratio), "{}: quality ratio {ratio:.2}", c.name);
    }
    // (b) on layers 2+, warm-start reaches the common target no later
    // than random init for most layers.
    let mut not_slower = 0;
    for (c, w) in cold.iter().zip(&warm).skip(1) {
        let target = 1.005 * c.result.best_score.max(w.result.best_score);
        let cs = samples_to_reach(&c.result, target).unwrap_or(usize::MAX);
        let ws = samples_to_reach(&w.result, target).unwrap_or(usize::MAX);
        if ws <= cs {
            not_slower += 1;
        }
    }
    assert!(not_slower >= 2, "warm-start slower on {} of 3 layers", 3 - not_slower);
}

#[test]
fn similarity_seed_is_legal_across_operator_types() {
    // The replay buffer must produce legal seeds even when the most
    // similar prior workload is a different operator (Mnasnet interleaves
    // pointwise and depthwise layers).
    let arch = Arch::accel_b();
    let buf = ReplayBuffer::new();
    let pw = Problem::pointwise_conv2d("pw", 2, 48, 16, 14, 14);
    let dw = Problem::depthwise_conv2d("dw", 2, 48, 14, 14, 3, 3);
    let gemm = Problem::gemm("g", 2, 48, 16, 196);
    buf.insert(pw.clone(), mapping::Mapping::trivial(&pw, &arch));
    for target in [&dw, &gemm] {
        let seed = buf
            .seed_for(target, &arch, InitStrategy::BySimilarity)
            .expect("seed produced");
        assert!(seed.is_legal(target, &arch), "illegal seed for {target}");
    }
}

#[test]
fn warm_start_composes_with_other_mappers() {
    // set_seeds is part of the Mapper trait: hill climbing accepts warm
    // starts through the same path as Gamma.
    let arch = Arch::accel_b();
    let layers = vgg_slice();
    let buf = ReplayBuffer::new();
    let out = run_network(
        &layers,
        &arch,
        &buf,
        InitStrategy::PreviousLayer,
        Budget::samples(300),
        1,
        1,
        |p| Box::new(DenseModel::new(p.clone(), arch.clone())),
        || Box::new(HillClimb::new()),
    );
    assert_eq!(out.len(), layers.len());
    assert_eq!(buf.len(), layers.len());
    for o in &out {
        assert!(o.result.best.is_some(), "{} found nothing", o.name);
    }
}

#[test]
fn replay_buffer_is_shareable_across_threads() {
    use std::sync::Arc;
    let arch = Arch::accel_b();
    let buf = Arc::new(ReplayBuffer::new());
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let buf = Arc::clone(&buf);
        let arch = arch.clone();
        handles.push(std::thread::spawn(move || {
            let p = Problem::conv2d(format!("w{t}"), 2, 8 << t, 8, 7, 7, 3, 3);
            buf.insert(p.clone(), mapping::Mapping::trivial(&p, &arch));
            buf.most_similar(&p).is_some()
        }));
    }
    for h in handles {
        assert!(h.join().expect("no panic"));
    }
    assert_eq!(buf.len(), 4);
}
