//! Shared machinery for the experiment harnesses that regenerate the
//! paper's tables and figures (`cargo bench --workspace`).
//!
//! Every harness honors the `MSE_FULL=1` environment variable: by default
//! budgets are scaled down so the whole suite finishes in minutes; with
//! `MSE_FULL=1` the paper-scale budgets (e.g. 5,000 samples per mapper run,
//! Fig. 3) are used.

use arch::{Arch, SparseCaps};
use costmodel::{Cost, GuardConfig, GuardPolicy, GuardedModel, SparseModel};
use mappers::{ConvergencePoint, Evaluator, SearchResult};
use mapping::Mapping;
use problem::{Density, Problem};

/// Whether paper-scale budgets were requested.
pub fn full_scale() -> bool {
    std::env::var("MSE_FULL").is_ok_and(|v| v == "1")
}

/// Sparse model on caller-chosen hardware caps, guarded under the Reject
/// policy with density-aware floors matching its compression
/// provisioning. Figure regeneration runs guarded (EXPERIMENTS.md): a
/// corrupted evaluation quarantines the mapping instead of silently
/// skewing a table. Dense harnesses call `costmodel::guarded_engine`;
/// Tables 2–4 sweep [`SparseCaps`], which `guarded_engine` fixes to
/// [`SparseCaps::flexible`], so they build their sparse model here.
pub fn guarded_sparse(
    p: &Problem,
    a: &Arch,
    caps: SparseCaps,
    d: Density,
) -> GuardedModel<SparseModel> {
    GuardedModel::new(
        SparseModel::new(p.clone(), a.clone(), caps, d),
        GuardConfig::sparse(GuardPolicy::Reject, &caps, d),
    )
}

/// Picks the sample budget: `full` under `MSE_FULL=1`, else `quick`.
pub fn budget(quick: usize, full: usize) -> usize {
    if full_scale() {
        full
    } else {
        quick
    }
}

/// Prints a section header.
pub fn header(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Formats an EDP the way the paper's tables do (e.g. `3.1E10`).
pub fn edp_fmt(v: f64) -> String {
    if !v.is_finite() {
        return "inf".to_string();
    }
    format!("{v:.1E}")
}

/// Downsamples a convergence history onto (roughly) log-spaced sample
/// checkpoints so curves print compactly. Returns `(samples, best)` rows.
pub fn curve(history: &[ConvergencePoint], checkpoints: &[usize]) -> Vec<(usize, f64)> {
    checkpoints
        .iter()
        .filter_map(|&cp| {
            history
                .iter()
                .take_while(|p| p.samples <= cp)
                .last()
                .map(|p| (cp, p.best_score))
        })
        .collect()
}

/// Log-spaced checkpoints up to `max`.
pub fn checkpoints(max: usize) -> Vec<usize> {
    let mut out = vec![];
    let mut v = 50usize;
    while v < max {
        out.push(v);
        v = (v as f64 * 1.8) as usize;
    }
    out.push(max);
    out
}

/// Evaluator wrapper that pins every candidate's *innermost-level* loop
/// order before evaluation and restricts the search to mappings whose
/// datapath style classifies as intended — how the Table 3 harness fixes a
/// mapping to inner- or outer-product style while the mapper explores
/// tiles, parallelism, and the outer orchestration orders ("we fix the
/// loop order and perform MSE for the other two axes", §4.5.3). The style
/// check matters: without it a search could park the reduction factor at 1
/// in the pinned level and escape to the other style through a searchable
/// outer order.
pub struct ForcedOrderEvaluator<'a, E> {
    inner: &'a E,
    order: Vec<usize>,
    style: Option<(problem::Problem, costmodel::style::ProductStyle)>,
}

impl<'a, E: Evaluator> ForcedOrderEvaluator<'a, E> {
    /// Wraps `inner`, forcing `order` at the innermost storage level.
    pub fn new(inner: &'a E, order: Vec<usize>) -> Self {
        ForcedOrderEvaluator { inner, order, style: None }
    }

    /// Additionally guarantee candidates classify as `style` (candidates
    /// that escape the style through their searchable outer orders are
    /// projected by pinning every level instead of being wasted).
    pub fn with_style(
        inner: &'a E,
        order: Vec<usize>,
        problem: problem::Problem,
        style: costmodel::style::ProductStyle,
    ) -> Self {
        ForcedOrderEvaluator { inner, order, style: Some((problem, style)) }
    }
}

impl<E: Evaluator> Evaluator for ForcedOrderEvaluator<'_, E> {
    fn evaluate(&self, m: &Mapping) -> Option<(Cost, f64)> {
        let mut forced = m.clone();
        let innermost = forced.num_levels() - 1;
        costmodel::style::force_order_at_level(&mut forced, innermost, &self.order);
        if let Some((p, style)) = &self.style {
            if costmodel::style::classify(p, &forced) != *style {
                costmodel::style::force_order(&mut forced, &self.order);
            }
        }
        self.inner.evaluate(&forced)
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v.ln();
        n += 1;
    }
    if n == 0 {
        return f64::NAN;
    }
    (sum / n as f64).exp()
}

/// Summarizes one search result as a single printable row.
pub fn result_row(name: &str, r: &SearchResult) -> String {
    format!(
        "{name:<22} best EDP {:>10}  samples {:>6}  wall {:>8.3}s",
        edp_fmt(r.best_score),
        r.evaluated,
        r.elapsed.as_secs_f64()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoints_are_increasing_and_end_at_max() {
        let c = checkpoints(5000);
        assert!(c.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*c.last().unwrap(), 5000);
    }

    #[test]
    fn geomean_of_constant_is_constant() {
        assert!((geomean([4.0, 4.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!(geomean(std::iter::empty::<f64>()).is_nan());
    }

    #[test]
    fn edp_format_matches_paper_style() {
        assert_eq!(edp_fmt(3.1e10), "3.1E10");
        assert_eq!(edp_fmt(f64::INFINITY), "inf");
    }

    #[test]
    fn curve_takes_best_so_far_at_each_checkpoint() {
        let h = vec![
            ConvergencePoint { samples: 1, seconds: 0.0, best_score: 100.0 },
            ConvergencePoint { samples: 60, seconds: 0.0, best_score: 10.0 },
            ConvergencePoint { samples: 300, seconds: 0.0, best_score: 1.0 },
        ];
        let c = curve(&h, &[50, 100, 400]);
        assert_eq!(c, vec![(50, 100.0), (100, 10.0), (400, 1.0)]);
    }
}
