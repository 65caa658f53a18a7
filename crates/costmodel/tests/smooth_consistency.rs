//! Relaxation-consistency suite: at every integer lattice point in a seeded
//! corpus, the smooth relaxed cost must equal the exact `analyze()` result
//! within 1e-6 relative — so DOSA's projection never optimizes a different
//! objective than the exact re-cost reports. At the same points, and at
//! nudged off-lattice points, the value-only pass (`cost`) must equal the
//! values of the taped pass (`cost_and_grad_into`) bit for bit — DOSA scores
//! trial steps with the one and descends with the other — and the graph
//! recorded afresh at the point must equal the one the context recorded at
//! construction, which every gradient call replays. An FNV digest of the
//! gradient bits over the whole corpus pins the gradients themselves.

use arch::{Arch, SparseCaps};
use costmodel::smooth::Tape;
use costmodel::{analyze, CapacityMode, SmoothContext};
use mapping::MapSpace;
use problem::{Density, Problem};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const REL_TOL: f64 = 1e-6;

/// Gradient-bit digests of the dense and sparse corpora, captured from the
/// tape that recorded every node's local partials alongside its value.
const DENSE_GRAD_DIGEST: u64 = 0x7b44_c60e_48b4_f18d;
const SPARSE_GRAD_DIGEST: u64 = 0x772e_0fde_ebe3_7f56;

fn rel(x: f64, y: f64) -> f64 {
    (x - y).abs() / y.abs().max(1e-30)
}

/// 64-bit FNV-1a over the little-endian bytes of the words fed to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Asserts that the value-only and taped passes agree bit for bit at
/// `feats` and at two deterministic off-lattice perturbations of it, that
/// the graph recorded at each of the three points is the context's, and
/// feeds the gradient at each point to `digest`.
fn check_passes_agree(
    sctx: &SmoothContext,
    tape: &mut Tape,
    feats: &[f64],
    label: &str,
    digest: &mut Fnv,
) {
    for k in 0..3usize {
        let mut x = feats.to_vec();
        if k > 0 {
            for (i, f) in x.iter_mut().enumerate() {
                *f += 0.29 * ((i + k) % 4) as f64 - 0.37 + 0.011 * k as f64;
            }
        }
        let plain = sctx.cost(&x);
        assert!(
            sctx.record_graph(&x) == *sctx.graph(),
            "{label} (nudge {k}): the graph depends on the input point"
        );
        let mut g = vec![0.0; x.len()];
        let taped = sctx.cost_and_grad_into(&x, tape, &mut g);
        for gi in g {
            digest.feed(gi.to_bits());
        }
        assert_eq!(
            (plain.latency_cycles.to_bits(), plain.energy_uj.to_bits()),
            (taped.latency_cycles.to_bits(), taped.energy_uj.to_bits()),
            "{label} (nudge {k}): value-only {plain:?} vs taped {taped:?}"
        );
    }
}

fn check_corpus(
    problem: &Problem,
    arch: &Arch,
    density: Density,
    caps: &SparseCaps,
    capacity: CapacityMode,
    seed: u64,
    n: usize,
) -> u64 {
    let sctx = SmoothContext::new(problem, arch, density, caps);
    let space = MapSpace::new(problem.clone(), arch.clone());
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut tape = Tape::new();
    let mut digest = Fnv::new();
    let mut checked = 0usize;
    while checked < n {
        let m = space.random(&mut rng);
        let Ok(exact) = analyze(problem, arch, &m, density, caps, capacity) else {
            // Strict sparse corners can reject a mapping the dense-legal
            // sampler produced; skip — consistency is defined on points the
            // exact engine accepts.
            continue;
        };
        checked += 1;
        let feats = mapping::features::features(&m);
        let label = format!("{} on {}", problem.name(), arch.name());
        check_passes_agree(&sctx, &mut tape, &feats, &label, &mut digest);
        let sm = sctx.cost(&feats);
        assert!(
            rel(sm.latency_cycles, exact.cost.latency_cycles) < REL_TOL,
            "{} on {}: smooth latency {} vs exact {}",
            problem.name(),
            arch.name(),
            sm.latency_cycles,
            exact.cost.latency_cycles
        );
        assert!(
            rel(sm.energy_uj, exact.cost.energy_uj) < REL_TOL,
            "{} on {}: smooth energy {} vs exact {}",
            problem.name(),
            arch.name(),
            sm.energy_uj,
            exact.cost.energy_uj
        );
        assert!(
            rel(sm.edp(), exact.cost.edp()) < 4.0 * REL_TOL,
            "{} on {}: smooth EDP {} vs exact {}",
            problem.name(),
            arch.name(),
            sm.edp(),
            exact.cost.edp()
        );
    }
    digest.0
}

fn problems() -> Vec<Problem> {
    vec![
        problem::zoo::resnet_conv4(),
        problem::zoo::bert_kqv(),
        Problem::gemm("Tiny GEMM", 2, 32, 32, 32),
        Problem::conv2d("small conv", 2, 8, 8, 7, 7, 3, 3),
    ]
}

#[test]
fn smooth_equals_exact_dense_both_presets() {
    let mut digest = Fnv::new();
    for arch in [Arch::accel_a(), Arch::accel_b()] {
        for (pi, p) in problems().iter().enumerate() {
            digest.feed(check_corpus(
                p,
                &arch,
                Density::DENSE,
                &SparseCaps::none(),
                CapacityMode::Strict,
                100 + pi as u64,
                30,
            ));
        }
    }
    assert_eq!(digest.0, DENSE_GRAD_DIGEST, "dense gradient bits changed");
}

#[test]
fn smooth_equals_exact_sparse_both_presets() {
    let mut digest = Fnv::new();
    let configs = [
        (Density::weight_sparse(0.3), SparseCaps::flexible()),
        (Density::weight_sparse(0.05), SparseCaps::gating_only()),
    ];
    for arch in [Arch::accel_a(), Arch::accel_b()] {
        for (pi, p) in problems().iter().enumerate() {
            for (ci, (density, caps)) in configs.iter().enumerate() {
                digest.feed(check_corpus(
                    p,
                    &arch,
                    *density,
                    caps,
                    CapacityMode::Soft,
                    500 + 10 * pi as u64 + ci as u64,
                    20,
                ));
            }
        }
    }
    assert_eq!(digest.0, SPARSE_GRAD_DIGEST, "sparse gradient bits changed");
}

#[test]
fn smooth_is_finite_off_lattice() {
    // Between lattice points the relaxation must stay finite and positive —
    // otherwise descent steps can NaN-poison the search.
    let p = problem::zoo::resnet_conv4();
    let a = Arch::accel_b();
    let sctx = SmoothContext::dense(&p, &a);
    let space = MapSpace::new(p.clone(), a.clone());
    let mut rng = SmallRng::seed_from_u64(9);
    for k in 0..20 {
        let m = space.random(&mut rng);
        let mut feats = mapping::features::features(&m);
        for (i, f) in feats.iter_mut().enumerate() {
            *f += 0.31 * ((i + k) % 3) as f64 - 0.17;
        }
        let (sm, g) = sctx.cost_and_grad(&feats);
        assert!(sm.latency_cycles.is_finite() && sm.latency_cycles > 0.0);
        assert!(sm.energy_uj.is_finite() && sm.energy_uj > 0.0);
        assert!(g.iter().all(|x| x.is_finite()));
    }
}
