//! The [`CostModel`] trait and the dense/sparse engines mappers evaluate
//! against (the "Evaluation Method" box of the paper's Fig. 2).

use crate::analysis::{AnalysisContext, Breakdown, CapacityMode, Scratch};
use crate::cost::Cost;
use crate::guard::{GuardConfig, GuardPolicy, GuardedModel};
use arch::{Arch, SparseCaps};
use mapping::{Mapping, MappingError};
use problem::{Density, Problem};

/// An analytical cost model bound to one (problem, architecture) pair.
///
/// Object-safe and `Sync` so mappers can share one evaluator across worker
/// threads. Implementations must be deterministic: the same mapping always
/// yields the same cost.
pub trait CostModel: Sync {
    /// The workload being mapped.
    fn problem(&self) -> &Problem;

    /// The accelerator being mapped onto.
    fn arch(&self) -> &Arch;

    /// Evaluates a mapping.
    ///
    /// # Errors
    ///
    /// Returns a [`MappingError`] if the mapping is illegal for this
    /// model's legality rules.
    fn evaluate(&self, m: &Mapping) -> Result<Cost, MappingError>;

    /// Full per-level breakdown (same legality rules as
    /// [`CostModel::evaluate`]).
    ///
    /// # Errors
    ///
    /// Returns a [`MappingError`] if the mapping is illegal.
    fn evaluate_detailed(&self, m: &Mapping) -> Result<Breakdown, MappingError>;

    /// Evaluates a batch. The default is a per-item loop; the analytical
    /// engines run the same loop over one shared workspace, so a batch
    /// allocates only what its results own. Results must be bit-identical
    /// to per-item [`CostModel::evaluate`] calls in batch order.
    fn evaluate_batch(&self, ms: &[Mapping]) -> Vec<Result<Cost, MappingError>> {
        ms.iter().map(|m| self.evaluate(m)).collect()
    }

    /// Detailed batch evaluation (same contract as
    /// [`CostModel::evaluate_batch`]).
    fn evaluate_detailed_batch(&self, ms: &[Mapping]) -> Vec<Result<Breakdown, MappingError>> {
        ms.iter().map(|m| self.evaluate_detailed(m)).collect()
    }

    /// Evaluates neighbors of an already-costed `parent`. No in-tree model
    /// uses the parent: every one, the analytical engines included, runs
    /// [`CostModel::evaluate_batch`]. The method stays as the entry point
    /// decorators and tracers forward, so a neighborhood remains visible
    /// as its own call. Bit-identical to [`CostModel::evaluate_batch`] by
    /// contract.
    fn evaluate_neighbors(
        &self,
        parent: &Mapping,
        neighbors: &[Mapping],
    ) -> Vec<Result<Cost, MappingError>> {
        let _ = parent;
        self.evaluate_batch(neighbors)
    }

    /// Detailed neighbor evaluation (same contract as
    /// [`CostModel::evaluate_neighbors`]).
    fn evaluate_neighbors_detailed(
        &self,
        parent: &Mapping,
        neighbors: &[Mapping],
    ) -> Vec<Result<Breakdown, MappingError>> {
        let _ = parent;
        self.evaluate_detailed_batch(neighbors)
    }

    /// Admissible lower bound on the cost of `m`: when `Some(b)`, the model
    /// guarantees `b ≤ evaluate(m)` component-wise (and on EDP), so callers
    /// may skip full evaluation of candidates whose bound already exceeds
    /// an incumbent without changing any search result. `None` means "no
    /// bound available — always evaluate" (the default; also what fault
    /// injectors return so pruning never masks an injected fault).
    fn cost_bound(&self, m: &Mapping) -> Option<Cost> {
        let _ = m;
        None
    }
}

/// Boxed models evaluate by delegation, so decorator stacks (guards, fault
/// injectors, watchdogs) compose over `Box<dyn CostModel>` as returned by
/// spec-driven construction paths like the CLI's model factory.
impl<M: CostModel + ?Sized> CostModel for Box<M> {
    fn problem(&self) -> &Problem {
        (**self).problem()
    }

    fn arch(&self) -> &Arch {
        (**self).arch()
    }

    fn evaluate(&self, m: &Mapping) -> Result<Cost, MappingError> {
        (**self).evaluate(m)
    }

    fn evaluate_detailed(&self, m: &Mapping) -> Result<Breakdown, MappingError> {
        (**self).evaluate_detailed(m)
    }

    fn evaluate_batch(&self, ms: &[Mapping]) -> Vec<Result<Cost, MappingError>> {
        (**self).evaluate_batch(ms)
    }

    fn evaluate_detailed_batch(&self, ms: &[Mapping]) -> Vec<Result<Breakdown, MappingError>> {
        (**self).evaluate_detailed_batch(ms)
    }

    fn evaluate_neighbors(
        &self,
        parent: &Mapping,
        neighbors: &[Mapping],
    ) -> Vec<Result<Cost, MappingError>> {
        (**self).evaluate_neighbors(parent, neighbors)
    }

    fn evaluate_neighbors_detailed(
        &self,
        parent: &Mapping,
        neighbors: &[Mapping],
    ) -> Vec<Result<Breakdown, MappingError>> {
        (**self).evaluate_neighbors_detailed(parent, neighbors)
    }

    fn cost_bound(&self, m: &Mapping) -> Option<Cost> {
        (**self).cost_bound(m)
    }
}

/// Timeloop-like dense analytical model: strict capacity legality, no
/// sparsity effects.
///
/// Construction precomputes an [`AnalysisContext`] so the per-mapping
/// evaluation path carries no per-`(problem, arch)` rederivation.
#[derive(Debug, Clone)]
pub struct DenseModel {
    ctx: AnalysisContext,
}

impl DenseModel {
    /// Binds the model to a workload and accelerator.
    pub fn new(problem: Problem, arch: Arch) -> Self {
        DenseModel { ctx: engine_context(&problem, &arch, None) }
    }
}

/// Sparseloop-like sparse model: compressed footprints and traffic,
/// gating/skipping, inner/outer-product style overheads, and *soft*
/// capacity (overflowing tiles spill, inflating traffic, rather than being
/// illegal — required for Table 2's cross-density testing).
#[derive(Debug, Clone)]
pub struct SparseModel {
    ctx: AnalysisContext,
}

impl SparseModel {
    /// Binds the model to a workload, accelerator, sparse capabilities, and
    /// workload density profile.
    pub fn new(problem: Problem, arch: Arch, caps: SparseCaps, density: Density) -> Self {
        let ctx = AnalysisContext::new(&problem, &arch, density, &caps, CapacityMode::Soft);
        SparseModel { ctx }
    }

    /// The density profile this model evaluates at.
    pub fn density(&self) -> Density {
        self.ctx.density()
    }

    /// Same model, different density — used to cross-test a fixed mapping
    /// under densities it was not tuned for (Table 2) and by the
    /// sparsity-aware objective's density sweep (Table 4). The context is
    /// rebuilt: occupancy and compression scales are density-derived.
    pub fn with_density(&self, density: Density) -> Self {
        SparseModel::new(self.ctx.problem().clone(), self.ctx.arch().clone(), *self.ctx.caps(), density)
    }

    /// The sparse capability description.
    pub fn caps(&self) -> &SparseCaps {
        self.ctx.caps()
    }
}

/// The cost model the front ends (`mapex`, `mapex serve`) build for an
/// optional density profile, guarded under `policy`: [`DenseModel`] with
/// exact floors ([`GuardConfig::new`]) without one, [`SparseModel`] on
/// [`SparseCaps::flexible`] hardware with floors relaxed by the same
/// density ([`GuardConfig::sparse`]) with one. `GuardPolicy::Trust` is
/// what `--guard off` selects: every check is skipped.
pub fn guarded_engine(
    problem: &Problem,
    arch: &Arch,
    density: Option<Density>,
    policy: GuardPolicy,
) -> GuardedModel<Box<dyn CostModel>> {
    let ctx = engine_context(problem, arch, density);
    match density {
        Some(d) => GuardedModel::new(
            Box::new(SparseModel { ctx }),
            GuardConfig::sparse(policy, &SparseCaps::flexible(), d),
        ),
        None => GuardedModel::new(Box::new(DenseModel { ctx }), GuardConfig::new(policy)),
    }
}

/// The [`AnalysisContext`] of the engine [`guarded_engine`] wraps for the
/// same arguments: dense caps and strict capacity without a density
/// profile, flexible caps and soft capacity with one. Callers that need
/// the context itself (`mapex evaluate --explain-bound` prints its
/// [`AnalysisContext::bound`]) get exactly the one the engine consults.
pub fn engine_context(problem: &Problem, arch: &Arch, density: Option<Density>) -> AnalysisContext {
    match density {
        Some(d) => AnalysisContext::new(problem, arch, d, &SparseCaps::flexible(), CapacityMode::Soft),
        None => AnalysisContext::new(
            problem,
            arch,
            Density::DENSE,
            &SparseCaps::none(),
            CapacityMode::Strict,
        ),
    }
}

/// The one [`CostModel`] impl body of the analytical engines: both hold an
/// [`AnalysisContext`] and differ only in how they build it. Batches run
/// the boundary loop over one shared [`Scratch`]; neighborhoods take the
/// trait defaults, which run the same batch.
macro_rules! analytical_engine {
    ($($model:ty),+) => {$(
        impl CostModel for $model {
            fn problem(&self) -> &Problem {
                self.ctx.problem()
            }

            fn arch(&self) -> &Arch {
                self.ctx.arch()
            }

            fn evaluate(&self, m: &Mapping) -> Result<Cost, MappingError> {
                self.ctx.analyze(m).map(|b| b.cost)
            }

            fn evaluate_detailed(&self, m: &Mapping) -> Result<Breakdown, MappingError> {
                self.ctx.analyze(m)
            }

            fn evaluate_batch(&self, ms: &[Mapping]) -> Vec<Result<Cost, MappingError>> {
                let mut s = Scratch::default();
                ms.iter()
                    .map(|m| self.ctx.analyze_with(m, &mut s).map(|b| b.cost))
                    .collect()
            }

            fn evaluate_detailed_batch(
                &self,
                ms: &[Mapping],
            ) -> Vec<Result<Breakdown, MappingError>> {
                let mut s = Scratch::default();
                ms.iter().map(|m| self.ctx.analyze_with(m, &mut s)).collect()
            }

            fn cost_bound(&self, m: &Mapping) -> Option<Cost> {
                self.ctx.bound(m).map(|b| b.cost)
            }
        }
    )+};
}

analytical_engine!(DenseModel, SparseModel);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::style::{force_order, order_reduction_innermost, order_reduction_outermost};
    use mapping::MapSpace;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn conv() -> Problem {
        Problem::conv2d("t", 2, 8, 8, 7, 7, 3, 3)
    }

    #[test]
    fn dense_model_is_deterministic() {
        let model = DenseModel::new(conv(), Arch::accel_b());
        let s = MapSpace::new(conv(), Arch::accel_b());
        let mut rng = SmallRng::seed_from_u64(9);
        let m = s.random(&mut rng);
        let a = model.evaluate(&m).unwrap();
        let b = model.evaluate(&m).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sparse_dense_caps_none_matches_dense_model() {
        let p = conv();
        let a = Arch::accel_b();
        let dense = DenseModel::new(p.clone(), a.clone());
        let sparse = SparseModel::new(p.clone(), a.clone(), SparseCaps::none(), Density::DENSE);
        let s = MapSpace::new(p, a);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..20 {
            let m = s.random(&mut rng);
            let cd = dense.evaluate(&m).unwrap();
            let cs = sparse.evaluate(&m).unwrap();
            assert_eq!(cd, cs);
        }
    }

    #[test]
    fn sparser_weights_never_cost_more() {
        let p = conv();
        let a = Arch::accel_b();
        let s = MapSpace::new(p.clone(), a.clone());
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..20 {
            let m = s.random(&mut rng);
            let mut last = f64::INFINITY;
            for dw in [1.0, 0.5, 0.1, 0.01] {
                let model = SparseModel::new(
                    p.clone(),
                    a.clone(),
                    SparseCaps::flexible(),
                    Density::weight_sparse(dw),
                );
                let c = model.evaluate(&m).unwrap().edp();
                assert!(
                    c <= last * 1.0001,
                    "EDP increased from {last:.3e} to {c:.3e} at density {dw}"
                );
                last = c;
            }
        }
    }

    #[test]
    fn skipping_beats_gating_beats_nothing_on_latency() {
        let p = conv();
        let a = Arch::accel_b();
        let m = Mapping::trivial(&p, &a);
        let d = Density::weight_sparse(0.1);
        let lat = |caps: SparseCaps| {
            SparseModel::new(p.clone(), a.clone(), caps, d)
                .evaluate(&m)
                .unwrap()
                .latency_cycles
        };
        assert!(lat(SparseCaps::flexible()) < lat(SparseCaps::gating_only()));
        let en = |caps: SparseCaps| {
            SparseModel::new(p.clone(), a.clone(), caps, d).evaluate(&m).unwrap().energy_uj
        };
        assert!(en(SparseCaps::gating_only()) < en(SparseCaps::none()));
    }

    #[test]
    fn inner_outer_crossover_with_density() {
        // The Table 3 mechanism: inner wins dense, outer wins very sparse.
        let p = Problem::gemm("g", 2, 32, 32, 32);
        let a = Arch::accel_b();
        let mut inner = Mapping::trivial(&p, &a);
        force_order(&mut inner, &order_reduction_innermost(&p));
        let mut outer = Mapping::trivial(&p, &a);
        force_order(&mut outer, &order_reduction_outermost(&p));
        let edp = |m: &Mapping, dw: f64| {
            SparseModel::new(
                p.clone(),
                a.clone(),
                SparseCaps::flexible(),
                Density::weight_sparse(dw),
            )
            .evaluate(m)
            .unwrap()
            .edp()
        };
        assert!(edp(&inner, 1.0) < edp(&outer, 1.0), "inner should win dense");
        assert!(edp(&outer, 0.01) < edp(&inner, 0.01), "outer should win sparse");
    }

    #[test]
    fn with_density_rebinds() {
        let model = SparseModel::new(
            conv(),
            Arch::accel_b(),
            SparseCaps::flexible(),
            Density::DENSE,
        );
        let d = Density::weight_sparse(0.5);
        assert_eq!(model.with_density(d).density(), d);
        assert_eq!(model.density(), Density::DENSE);
    }

    #[test]
    fn trait_object_usable() {
        let model = DenseModel::new(conv(), Arch::accel_b());
        let dyn_model: &dyn CostModel = &model;
        let m = Mapping::trivial(dyn_model.problem(), dyn_model.arch());
        assert!(dyn_model.evaluate(&m).is_ok());
    }
}
