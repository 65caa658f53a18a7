//! Fig. 7 — exhaustive loop-order sweep: take the Gamma-optimized mapping
//! of (Resnet Conv_4, Accel-B), then enumerate all 7! = 5,040 loop orders
//! (the same order applied at every buffer level, the paper's complexity
//! relaxation) and measure EDP for each.
//!
//! Expected shape (paper §4.4.3): only a *handful* of distinct EDP values
//! (16 in the paper) emerge from the 5,040 permutations, with best/worst
//! differing by ~14x; permutations group into "stationarity buckets"
//! recognizable by their leading dimensions.

use bench::{budget, edp_fmt, header};
use costmodel::{guarded_engine, CostModel, GuardPolicy};
use mappers::{Budget, Gamma};
use mapping::permutation::{factorial, nth_permutation};
use mse::Mse;
use std::collections::BTreeMap;

fn main() {
    let w = problem::zoo::resnet_conv4();
    let arch = arch::Arch::accel_b();
    let model = guarded_engine(&w, &arch, None, GuardPolicy::Reject);
    let mse = Mse::new(&model);

    header("Fig. 7: optimize a mapping, then sweep all 7! orders");
    let r = mse.run(&Gamma::new(), Budget::samples(budget(1_500, 5_000)), 7);
    let (base, cost) = r.best.expect("gamma found a mapping");
    println!(
        "optimized mapping: EDP {} (cycles uJ), latency {:.1E} cycles, energy {:.1E} uJ",
        edp_fmt(cost.edp()),
        cost.latency_cycles,
        cost.energy_uj
    );

    let d = w.num_dims();
    let total = factorial(d);
    // Bucket EDPs (3 significant digits — distinct performance classes).
    let mut buckets: BTreeMap<u64, (f64, usize, Vec<usize>)> = BTreeMap::new();
    let mut best = f64::INFINITY;
    let mut worst = 0.0f64;
    let mut legal = 0usize;
    for idx in 0..total {
        let order = nth_permutation(d, idx);
        let mut m = base.clone();
        for l in 0..m.num_levels() {
            m.set_order(l, &order);
        }
        let Ok(c) = model.evaluate(&m) else { continue };
        legal += 1;
        let edp = c.edp();
        best = best.min(edp);
        worst = worst.max(edp);
        let key = (edp.log10() * 200.0).round() as u64; // ~0.5% resolution
        let e = buckets.entry(key).or_insert((edp, 0, order.clone()));
        e.1 += 1;
    }
    println!(
        "swept {total} orders ({legal} legal): {} distinct EDP classes",
        buckets.len()
    );
    println!("best {} / worst {} -> ratio {:.1}x", edp_fmt(best), edp_fmt(worst), worst / best);
    println!();
    println!("{:>4} {:>12} {:>7}  representative leading dims", "#", "EDP", "count");
    let letters: Vec<char> = w.dims().iter().map(|dd| dd.name.letter()).collect();
    for (i, (_, (edp, count, order))) in buckets.iter().enumerate() {
        let lead: String = order.iter().take(2).map(|&o| letters[o]).collect();
        println!("{:>4} {:>12} {:>7}  {lead}..", i + 1, edp_fmt(*edp), count);
    }
    println!();
    println!("Paper reference: 16 distinct EDP values, best/worst ratio 14.4x;");
    println!("the Gamma-found order falls in the best class.");
    let base_edp = cost.edp();
    println!(
        "Gamma's order is within {:.1}% of the best swept class.",
        100.0 * (base_edp / best - 1.0)
    );
}
