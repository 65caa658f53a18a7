//! Differential suite pinning the engines' batch and neighborhood entry
//! points to the one-shot [`AnalysisContext::analyze`] reference, bit for
//! bit, and the admissible lower bound to its soundness contract.
//!
//! These are the acceptance tests for the engines' evaluation paths: any
//! divergence — even in the last ulp, or in *which* error a doomed mapping
//! produces — is a bug, because search trajectories and the evaluation
//! guard both assume the paths are interchangeable.

use arch::{Arch, SparseCaps};
use costmodel::{AnalysisContext, CapacityMode, CostModel, DenseModel, SparseModel};
use mapping::{MapSpace, Mapping, MappingError};
use problem::{Density, Problem};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Every (problem, arch preset, density regime) combination under test.
/// Dense runs use strict capacity (the `DenseModel` configuration), sparse
/// runs soft capacity with flexible sparse hardware (the `SparseModel`
/// configuration), so both `CapacityMode` branches are exercised.
fn configs() -> Vec<(String, AnalysisContext, MapSpace)> {
    let problems =
        [Problem::conv2d("conv", 2, 16, 16, 14, 14, 3, 3), Problem::gemm("gemm", 2, 32, 32, 32)];
    let archs = [Arch::accel_a(), Arch::accel_b()];
    let mut out = Vec::new();
    for p in &problems {
        for a in &archs {
            out.push((
                format!("{}/{}/dense", p.name(), a.name()),
                AnalysisContext::new(p, a, Density::DENSE, &SparseCaps::none(), CapacityMode::Strict),
                MapSpace::new(p.clone(), a.clone()),
            ));
            out.push((
                format!("{}/{}/sparse", p.name(), a.name()),
                AnalysisContext::new(
                    p,
                    a,
                    Density::weight_sparse(0.3),
                    &SparseCaps::flexible(),
                    CapacityMode::Soft,
                ),
                MapSpace::new(p.clone(), a.clone()),
            ));
        }
    }
    out
}

fn smallest_divisor(n: u64) -> u64 {
    (2..=n).find(|p| n.is_multiple_of(*p)).unwrap_or(n)
}

/// One hand-rolled single-gene edit, mirroring the mapper operators
/// (mutate-order / mutate-tile / mutate-parallelism) without depending on
/// the `mappers` crate. Every edit preserves the per-dimension factor
/// products, so the neighbor stays structurally legal; capacity violations
/// are allowed (both paths must then report the *same* error).
fn mutate(m: &Mapping, rng: &mut SmallRng) -> Mapping {
    let mut c = m.clone();
    let nl = c.num_levels();
    let d = c.num_dims();
    match rng.gen_range(0..3u32) {
        0 => {
            let l = rng.gen_range(0..nl);
            let i = rng.gen_range(0..d);
            let j = rng.gen_range(0..d);
            c.order_mut(l).swap(i, j);
        }
        1 => {
            let dim = rng.gen_range(0..d);
            let from = rng.gen_range(0..nl);
            let to = rng.gen_range(0..nl);
            let f = c.temporal(from)[dim];
            if from != to && f > 1 {
                let g = smallest_divisor(f);
                c.temporal_mut(from)[dim] /= g;
                c.temporal_mut(to)[dim] *= g;
            }
        }
        _ => {
            let dim = rng.gen_range(0..d);
            let l = rng.gen_range(0..nl);
            let s = c.spatial(l)[dim];
            let t = c.temporal(l)[dim];
            if s > 1 {
                let g = smallest_divisor(s);
                c.spatial_mut(l)[dim] /= g;
                c.temporal_mut(l)[dim] *= g;
            } else if t > 1 {
                let g = smallest_divisor(t);
                c.temporal_mut(l)[dim] /= g;
                c.spatial_mut(l)[dim] *= g;
            }
        }
    }
    c
}

/// The engine (`DenseModel` / `SparseModel`) built on the same
/// configuration as `ctx`.
fn engine(ctx: &AnalysisContext) -> Box<dyn CostModel> {
    let (p, a) = (ctx.problem().clone(), ctx.arch().clone());
    if ctx.density() == Density::DENSE {
        Box::new(DenseModel::new(p, a))
    } else {
        Box::new(SparseModel::new(p, a, *ctx.caps(), ctx.density()))
    }
}

/// Variants of a legal mapping that fail (or, under soft capacity, spill)
/// at different steps of the boundary loop: every factor moved into the
/// innermost buffer's temporal loops (capacity, where that buffer cannot
/// hold the whole problem), a broken factor product and a repeated
/// loop-order entry (structure).
fn doomed(m: &Mapping) -> [Mapping; 3] {
    let nl = m.num_levels();
    let d = m.num_dims();
    let mut capacity = m.clone();
    for dim in 0..d {
        let mut all = 1;
        for l in 0..nl {
            all *= capacity.temporal(l)[dim] * capacity.spatial(l)[dim];
            capacity.temporal_mut(l)[dim] = 1;
            capacity.spatial_mut(l)[dim] = 1;
        }
        capacity.temporal_mut(nl - 1)[dim] = all;
    }
    let mut product = m.clone();
    product.temporal_mut(0)[0] *= 2;
    let mut order = m.clone();
    let dup = order.order(nl - 1)[1];
    order.order_mut(nl - 1)[0] = dup;
    [capacity, product, order]
}

/// The engines' `evaluate_detailed_batch` must return exactly what
/// per-mapping `analyze` returns — same breakdowns to the bit, same errors
/// for doomed mappings — across ≥1000 random mappings per configuration,
/// with a capacity-busting or structurally illegal mapping after every
/// legal one, so a batch workspace left stale by an early error return
/// would corrupt the next mapping's result.
#[test]
fn batch_matches_one_shot_bit_for_bit() {
    let mut capacity_errors = 0;
    for (tag, ctx, space) in configs() {
        let model = engine(&ctx);
        let mut rng = SmallRng::seed_from_u64(0xBA7C4);
        let mut mappings = Vec::with_capacity(2000);
        for k in 0..1000 {
            let m = space.random(&mut rng);
            let bad = doomed(&m)[k % 3].clone();
            mappings.push(m);
            mappings.push(bad);
        }
        let reference: Vec<_> = mappings.iter().map(|m| ctx.analyze(m)).collect();
        let capacity = reference
            .iter()
            .filter(|r| matches!(r, Err(MappingError::CapacityExceeded { .. })))
            .count();
        let structural = reference.iter().filter(|r| r.is_err()).count() - capacity;
        assert!(structural >= 600, "{tag}: only {structural} structural errors");
        capacity_errors += capacity;
        // Mixed batch sizes: singletons, odd sizes, and one huge batch, so
        // the shared workspace is exercised at every shape.
        for chunk in [1usize, 7, 64, 1000] {
            for (ms, expected) in mappings.chunks(chunk).zip(reference.chunks(chunk)) {
                let batched = model.evaluate_detailed_batch(ms);
                assert_eq!(batched.len(), ms.len(), "{tag}: batch length");
                for (b, e) in batched.iter().zip(expected) {
                    assert_eq!(b, e, "{tag}: batch diverged from analyze()");
                }
            }
        }
    }
    // Accel-A's innermost buffer holds these problems whole, so strict
    // capacity errors come from the two dense Accel-B configurations.
    assert!(capacity_errors >= 600, "only {capacity_errors} capacity errors");
}

/// The engines' `evaluate_neighbors_detailed` and `evaluate_neighbors`
/// must be bit-identical to per-item `analyze` over thousands of (parent,
/// single-gene edit) pairs — including edit chains (neighbor of a
/// neighbor), the identity edit, strict-capacity-illegal parents, and
/// edits that make the mapping exceed capacity, which must produce the
/// identical error.
#[test]
fn neighbors_match_one_shot_bit_for_bit() {
    for (tag, ctx, space) in configs() {
        let model = engine(&ctx);
        let mut rng = SmallRng::seed_from_u64(0xDE17A);
        let mut pairs = 0usize;
        for _ in 0..40 {
            let parent = space.random(&mut rng);
            let mut edits = Vec::with_capacity(26);
            let mut cursor = parent.clone();
            for k in 0..25 {
                // Mostly one edit from the parent; every fifth neighbor
                // drifts further so multi-level diffs are covered too.
                if k % 5 == 0 {
                    cursor = mutate(&cursor, &mut rng);
                    edits.push(cursor.clone());
                } else {
                    edits.push(mutate(&parent, &mut rng));
                }
            }
            edits.push(parent.clone());
            let detailed = model.evaluate_neighbors_detailed(&parent, &edits);
            let costs = model.evaluate_neighbors(&parent, &edits);
            assert_eq!((detailed.len(), costs.len()), (edits.len(), edits.len()), "{tag}: length");
            for ((n, d), c) in edits.iter().zip(detailed).zip(costs) {
                let reference = ctx.analyze(n);
                assert_eq!(c, reference.clone().map(|b| b.cost), "{tag}: cost diverged");
                assert_eq!(d, reference, "{tag}: breakdown diverged from analyze()");
                pairs += 1;
            }
        }
        assert!(pairs >= 1000, "{tag}: only {pairs} neighbor pairs exercised");
    }
}

/// Soundness of the admissible bound: for every legal mapping,
/// `bound(m).cost` must lower-bound the true cost component-wise, and its
/// EDP must lower-bound the true EDP. An inadmissible bound would let the
/// mappers prune the true optimum.
#[test]
fn bound_is_admissible() {
    for (tag, ctx, space) in configs() {
        let mut rng = SmallRng::seed_from_u64(0xB0C0D);
        let mut checked = 0usize;
        for _ in 0..1000 {
            let m = space.random(&mut rng);
            let Ok(b) = ctx.analyze(&m) else { continue };
            let r = ctx.bound(&m).expect("legal mapping must have a bound");
            assert!(
                r.cost.latency_cycles <= b.cost.latency_cycles,
                "{tag}: latency bound {} > true {}",
                r.cost.latency_cycles,
                b.cost.latency_cycles
            );
            assert!(
                r.cost.energy_uj <= b.cost.energy_uj,
                "{tag}: energy bound {} > true {}",
                r.cost.energy_uj,
                b.cost.energy_uj
            );
            assert!(
                r.cost.edp() <= b.cost.edp(),
                "{tag}: EDP bound {} > true {}",
                r.cost.edp(),
                b.cost.edp()
            );
            checked += 1;
        }
        assert!(checked >= 500, "{tag}: only {checked} legal mappings checked");
    }
}
