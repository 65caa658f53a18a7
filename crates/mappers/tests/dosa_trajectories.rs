//! Pins DOSA's search trajectories bit for bit: the best score of a few
//! seeded (problem, preset, density, seed) searches must keep its exact
//! f64 bits. The smooth relaxation's value-only and taped passes, the line
//! search and the projection all feed the trajectory, so any change to
//! their floating-point operations shows up here as a different score.

use arch::{Arch, SparseCaps};
use costmodel::{CostModel, DenseModel, SparseModel};
use mappers::{Budget, Dosa, EdpEvaluator, Mapper};
use mapping::MapSpace;
use problem::{Density, Problem};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn best_bits(model: &dyn CostModel, samples: usize, seed: u64) -> u64 {
    let space = MapSpace::new(model.problem().clone(), model.arch().clone());
    let eval = EdpEvaluator::new(model);
    let mut rng = SmallRng::seed_from_u64(seed);
    let r = Dosa::new().search(&space, &eval, Budget::samples(samples), &mut rng);
    assert!(r.evaluated <= samples);
    r.best_score.to_bits()
}

#[test]
fn dense_trajectories_are_pinned() {
    let cases = [
        (Problem::gemm("Tiny GEMM", 2, 32, 32, 32), Arch::accel_b(), 0, 0x4077_82d3_8476_f2a5u64),
        (Problem::gemm("Tiny GEMM", 2, 32, 32, 32), Arch::accel_a(), 3, 0x407b_8130_1648_40e2),
        (
            Problem::conv2d("small conv", 2, 8, 8, 7, 7, 3, 3),
            Arch::accel_a(),
            1,
            0x4069_91b3_f20a_73f7,
        ),
        (problem::zoo::bert_kqv(), Arch::accel_b(), 2, 0x425e_5eb8_1c3b_9fe8),
    ];
    let mut drift = Vec::new();
    for (p, a, seed, want) in cases {
        let name = format!("{}/{}/{seed}", p.name(), a.name());
        let model = DenseModel::new(p, a);
        let got = best_bits(&model, 300, seed);
        if got != want {
            drift.push(format!("{name}: best score bits {got:#x}, pinned {want:#x}"));
        }
    }
    assert!(drift.is_empty(), "{drift:#?}");
}

#[test]
fn sparse_trajectory_is_pinned() {
    let model = SparseModel::new(
        problem::zoo::resnet_conv4(),
        Arch::accel_a(),
        SparseCaps::flexible(),
        Density::weight_sparse(0.3),
    );
    let got = best_bits(&model, 300, 5);
    assert_eq!(got, 0x4223_e10e_a386_d84a, "conv4/accel-a/sparse/5: best score bits {got:#x}");
}
