//! Delta re-evaluation: incremental costing of single-gene neighbors.
//!
//! Local-search mappers (gamma's mutations, annealing, hill-climbing)
//! mostly evaluate *neighbors* of a mapping they already costed — one tile
//! factor moved or one loop order permuted. A full [`AnalysisContext`]
//! evaluation redoes every loop-nest boundary from scratch; a
//! [`DeltaContext`] caches the parent's per-boundary traffic contributions
//! and recomputes only the boundaries the edit actually invalidates.
//!
//! Reuse is *diff-based*, not edit-description-based: boundary `i`'s
//! contributions are a pure function of (a) the loop levels strictly
//! outside it (`0..i`, which determine refetch multiplicities), (b) the
//! child tile extents at level `i`, and (c) the child spill factor (itself
//! a function of those extents). A boundary is reused iff all three are
//! value-equal to the parent's, so any neighbor — however it was produced —
//! is evaluated correctly; edits just make most boundaries hit.
//!
//! Bit-identity with [`AnalysisContext::analyze`] is structural: a delta
//! evaluation runs the same boundary loop
//! (`AnalysisContext::analyze_with`) with this context as its parent, and
//! this module holds only the reuse rule. Cached contributions are the
//! exact `f64`s the loop would recompute, re-applied in the same
//! boundary/tensor order, so every accumulation performs the same IEEE
//! operations. The `batch_delta_diff` differential suite pins this over
//! thousands of random (parent, neighbor) pairs.

use crate::analysis::{AnalysisContext, BoundaryContrib, Breakdown, Scratch};
use mapping::{Mapping, MappingError};

/// Incremental evaluator anchored at one parent mapping (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub struct DeltaContext<'a> {
    ctx: &'a AnalysisContext,
    parent: &'a Mapping,
    parent_breakdown: Breakdown,
    /// Parent tile extents, levels `0..nl` flattened (`num_dims` each).
    extents: Vec<u64>,
    /// Recorded contributions, boundary-major: `[(i-1) * nt + ti]`.
    contribs: Vec<BoundaryContrib>,
}

impl<'a> DeltaContext<'a> {
    /// Evaluates `parent` in full and records its per-boundary state.
    ///
    /// # Errors
    ///
    /// Same legality rules as [`AnalysisContext::analyze`].
    pub fn new(ctx: &'a AnalysisContext, parent: &'a Mapping) -> Result<Self, MappingError> {
        let nl = ctx.arch().num_levels();
        let nt = ctx.problem().tensors().len();
        let mut s = Scratch::default();
        let mut contribs = vec![BoundaryContrib::default(); nl * nt];
        let parent_breakdown = ctx.analyze_with(parent, &mut s, None, Some(&mut contribs))?;
        Ok(DeltaContext { ctx, parent, parent_breakdown, extents: s.extents, contribs })
    }

    /// The parent this context is anchored at.
    pub fn parent(&self) -> &Mapping {
        self.parent
    }

    /// The parent's full breakdown (computed once at construction).
    pub fn parent_breakdown(&self) -> &Breakdown {
        &self.parent_breakdown
    }

    /// Evaluates one neighbor, reusing every boundary the diff against the
    /// parent leaves intact. Bit-identical to
    /// [`AnalysisContext::analyze`]`(m)`.
    ///
    /// # Errors
    ///
    /// Same legality rules as [`AnalysisContext::analyze`].
    pub fn evaluate(&self, m: &Mapping) -> Result<Breakdown, MappingError> {
        self.evaluate_with(m, &mut Scratch::default())
    }

    fn evaluate_with(&self, m: &Mapping, s: &mut Scratch) -> Result<Breakdown, MappingError> {
        self.ctx.analyze_with(m, s, Some(self), None)
    }

    /// Evaluates a slice of neighbors (see [`DeltaContext::evaluate`]).
    /// The whole batch shares one scratch workspace.
    pub fn evaluate_neighbors(
        &self,
        neighbors: &[Mapping],
    ) -> Vec<Result<Breakdown, MappingError>> {
        let mut scratch = Scratch::default();
        neighbors.iter().map(|m| self.evaluate_with(m, &mut scratch)).collect()
    }

    /// The first half of the reuse rule, run once per neighbor `m` whose
    /// tile extents are `extents`: marks in `ext_eq` the levels whose
    /// extents equal the parent's, and returns the first level where `m`'s
    /// loops differ from the parent's (`nl` when none does). Boundary `i`'s
    /// multiplicities scan levels `0..i`, so they are reusable iff
    /// `i <= first_diff`.
    pub(crate) fn diff(&self, m: &Mapping, extents: &[u64], ext_eq: &mut Vec<bool>) -> usize {
        let nl = self.parent.num_levels();
        let d = extents.len() / nl;
        ext_eq.clear();
        ext_eq.extend(
            (0..nl).map(|li| extents[li * d..(li + 1) * d] == self.extents[li * d..(li + 1) * d]),
        );
        (0..nl).find(|&l| !m.level_eq(self.parent, l)).unwrap_or(nl)
    }

    /// The parent's spill factor at level `li` when the neighbor's extents
    /// there equal the parent's (spill is a pure function of them).
    pub(crate) fn reusable_spill(&self, li: usize, ext_eq: &[bool]) -> Option<f64> {
        ext_eq[li].then(|| self.parent_breakdown.spill[li])
    }

    /// The parent's contributions at boundary `i` when the loops outside it
    /// and the child extents are unchanged. The register boundary `nl`
    /// scans the whole nest, so it is reused only on the identity edit.
    pub(crate) fn reusable(
        &self,
        i: usize,
        first_diff: usize,
        ext_eq: &[bool],
    ) -> Option<&[BoundaryContrib]> {
        let nl = ext_eq.len();
        let nt = self.contribs.len() / nl;
        (i <= first_diff && (i == nl || ext_eq[i])).then(|| &self.contribs[(i - 1) * nt..i * nt])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arch::{Arch, SparseCaps};
    use crate::analysis::CapacityMode;
    use mapping::MapSpace;
    use problem::{Density, Problem};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn parent_breakdown_matches_full_analyze() {
        let p = Problem::conv2d("t", 2, 8, 8, 7, 7, 3, 3);
        let a = Arch::accel_b();
        let ctx = AnalysisContext::new(
            &p,
            &a,
            Density::DENSE,
            &SparseCaps::none(),
            CapacityMode::Strict,
        );
        let s = MapSpace::new(p.clone(), a.clone());
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..20 {
            let m = s.random(&mut rng);
            let delta = DeltaContext::new(&ctx, &m).unwrap();
            assert_eq!(*delta.parent_breakdown(), ctx.analyze(&m).unwrap());
        }
    }

    #[test]
    fn arbitrary_neighbor_matches_full_analyze() {
        // Even a "neighbor" sharing nothing with the parent must evaluate
        // correctly (diff-based reuse simply never fires).
        let p = Problem::conv2d("t", 2, 8, 8, 7, 7, 3, 3);
        let a = Arch::accel_b();
        let ctx = AnalysisContext::new(
            &p,
            &a,
            Density::DENSE,
            &SparseCaps::none(),
            CapacityMode::Strict,
        );
        let s = MapSpace::new(p.clone(), a.clone());
        let mut rng = SmallRng::seed_from_u64(7);
        let parent = s.random(&mut rng);
        let delta = DeltaContext::new(&ctx, &parent).unwrap();
        for _ in 0..50 {
            let m = s.random(&mut rng);
            assert_eq!(delta.evaluate(&m).unwrap(), ctx.analyze(&m).unwrap());
        }
        // Identity neighbor: everything (including the register boundary)
        // is reused.
        assert_eq!(delta.evaluate(&parent).unwrap(), *delta.parent_breakdown());
    }
}
