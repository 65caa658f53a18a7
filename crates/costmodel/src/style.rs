//! Inner- vs outer-product mapping style (§4.5.3).
//!
//! The paper observes (following SCNN / OuterSPACE) that the inner/outer
//! product distinction is *a loop-order property*: inner product keeps the
//! reduction loop innermost (dot product per output element, output
//! stationary); outer product keeps it outermost (rank-1 updates, partial
//! outputs streamed through a merge path).

use mapping::{Loop, Mapping};
use problem::Problem;

/// Dataflow style of a mapping with respect to the reduction loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProductStyle {
    /// Reduction innermost: per-output dot products, accumulator-friendly.
    Inner,
    /// Reduction outside the output loops: streams of partial products
    /// that must be merged.
    Outer,
}

/// Classifies a mapping by scanning its temporal loops innermost-first
/// (ignoring unit-bound and spatial loops): if the first non-unit loop is a
/// reduction dimension the mapping is inner-product style; if a non-unit
/// reduction loop exists but only *outside* some non-unit output loop, it is
/// outer-product style. Mappings with no non-unit reduction loops default to
/// [`ProductStyle::Inner`] (there is nothing to merge).
pub fn classify(problem: &Problem, m: &Mapping) -> ProductStyle {
    let mut mask = 0u64;
    for d in problem.reduction_dims() {
        mask |= 1 << d;
    }
    classify_masked(mask, &m.nest())
}

/// [`classify`] of a flattened loop nest against a precomputed
/// reduction-dimension bitmask (bit `d` set ⇔ dim `d` is a reduction dim)
/// — the per-mapping hot path used by `AnalysisContext`, which hoists the
/// mask out of the evaluation loop and already holds the nest.
pub(crate) fn classify_masked(reduction_mask: u64, nest: &[Loop]) -> ProductStyle {
    let mut saw_output_loop = false;
    for l in nest.iter().rev() {
        if l.spatial || l.bound <= 1 {
            continue;
        }
        if reduction_mask & (1 << l.dim) != 0 {
            return if saw_output_loop { ProductStyle::Outer } else { ProductStyle::Inner };
        }
        saw_output_loop = true;
    }
    ProductStyle::Inner
}

/// A loop order (outermost first) placing all reduction dimensions
/// innermost — the canonical *inner-product* order for this problem.
pub fn order_reduction_innermost(problem: &Problem) -> Vec<usize> {
    let red = problem.reduction_dims();
    let mut order: Vec<usize> = (0..problem.num_dims()).filter(|d| !red.contains(d)).collect();
    order.extend(red);
    order
}

/// A loop order (outermost first) placing all reduction dimensions
/// outermost — the canonical *outer-product* order.
pub fn order_reduction_outermost(problem: &Problem) -> Vec<usize> {
    let red = problem.reduction_dims();
    let mut order = red.clone();
    order.extend((0..problem.num_dims()).filter(|d| !red.contains(d)));
    order
}

/// Overwrites every level's loop order, leaving tiles and parallelization
/// untouched. Used by the Table 3 harness to pin a mapping to a style while
/// the mapper searches the other two axes.
pub fn force_order(m: &mut Mapping, order: &[usize]) {
    for l in 0..m.num_levels() {
        m.set_order(l, order);
    }
}

/// Overwrites a single level's loop order. Pinning only the innermost
/// level fixes the datapath's product style (which the innermost loops
/// determine) while leaving outer-level orchestration searchable.
///
/// # Panics
///
/// Panics if `level` is out of range.
pub fn force_order_at_level(m: &mut Mapping, level: usize, order: &[usize]) {
    m.set_order(level, order);
}

#[cfg(test)]
mod tests {
    use super::*;
    use arch::Arch;
    use problem::Problem;

    fn gemm() -> Problem {
        Problem::gemm("g", 2, 8, 8, 8)
    }

    #[test]
    fn forced_orders_classify_as_expected() {
        let p = gemm();
        let a = Arch::accel_b();
        let mut m = Mapping::trivial(&p, &a);
        force_order(&mut m, &order_reduction_innermost(&p));
        assert_eq!(classify(&p, &m), ProductStyle::Inner);
        force_order(&mut m, &order_reduction_outermost(&p));
        assert_eq!(classify(&p, &m), ProductStyle::Outer);
    }

    #[test]
    fn unit_reduction_defaults_to_inner() {
        // Pointwise conv with C=1: no non-unit reduction loop anywhere.
        let p = Problem::conv2d("pw", 2, 8, 1, 8, 8, 1, 1);
        let a = Arch::accel_b();
        let m = Mapping::trivial(&p, &a);
        assert_eq!(classify(&p, &m), ProductStyle::Inner);
    }

    #[test]
    fn orders_are_permutations() {
        let p = gemm();
        for order in [order_reduction_innermost(&p), order_reduction_outermost(&p)] {
            let mut s = order.clone();
            s.sort_unstable();
            assert_eq!(s, (0..p.num_dims()).collect::<Vec<_>>());
        }
        // GEMM reduction dim is K (index 2): innermost vs outermost.
        assert_eq!(*order_reduction_innermost(&p).last().unwrap(), 2);
        assert_eq!(order_reduction_outermost(&p)[0], 2);
    }

    #[test]
    fn classification_ignores_unit_loops() {
        let p = gemm();
        let a = Arch::accel_b();
        let mut m = Mapping::trivial(&p, &a);
        // Reduction innermost at DRAM but with K fully tiled away at DRAM
        // (bound 8 still there — non-unit). Make K innermost: Inner.
        force_order(&mut m, &[0, 1, 3, 2]);
        assert_eq!(classify(&p, &m), ProductStyle::Inner);
    }
}
