//! Extended mapper comparison — beyond the paper's three families, this
//! pits every mapper in the workspace against each other on the Table 1
//! workloads: random, random-pruned, standard GA, Gamma (scalar and
//! NSGA-II), simulated annealing, hill climbing, cross-entropy, and
//! REINFORCE. (Mind Mappings is covered by `fig3_mapper_comparison`,
//! which owns the surrogate training.)
//!
//! Expected: Gamma at or near the top across workloads (the paper's
//! feedback-based takeaway, extended to a wider field).

use bench::{budget, edp_fmt, geomean, header};
use costmodel::{guarded_engine, GuardPolicy};
use mappers::{
    Budget, CrossEntropy, Gamma, GammaConfig, HillClimb, Mapper, RandomMapper, RandomPruned,
    Reinforce, Selection, SimulatedAnnealing, StandardGa,
};
use mse::Mse;

fn main() {
    let samples = budget(1_000, 5_000);
    let workloads = [
        problem::zoo::resnet_conv3(),
        problem::zoo::resnet_conv4(),
        problem::zoo::inception_conv2(),
        problem::zoo::bert_kqv(),
    ];
    let arch = arch::Arch::accel_b();
    println!(
        "Extended mapper comparison on {} ({samples} samples, best of 3 seeds)",
        arch.name()
    );

    let mappers: Vec<(&str, Box<dyn Mapper>)> = vec![
        ("Random", Box::new(RandomMapper::new())),
        ("Random-Pruned", Box::new(RandomPruned::new())),
        ("Standard-GA", Box::new(StandardGa::new())),
        ("Gamma", Box::new(Gamma::new())),
        (
            "Gamma-NSGA2",
            Box::new(Gamma::with_config(GammaConfig {
                selection: Selection::Nsga2,
                ..GammaConfig::default()
            })),
        ),
        ("Annealing", Box::new(SimulatedAnnealing::new())),
        ("Hill-Climb", Box::new(HillClimb::new())),
        ("Cross-Entropy", Box::new(CrossEntropy::new())),
        ("REINFORCE", Box::new(Reinforce::new())),
    ];

    let mut table: Vec<(String, Vec<f64>)> =
        mappers.iter().map(|(n, _)| (n.to_string(), Vec::new())).collect();
    for w in &workloads {
        header(w.name());
        let model = guarded_engine(w, &arch, None, GuardPolicy::Reject);
        let mse = Mse::new(&model);
        let mut best_overall = f64::INFINITY;
        let mut scores = Vec::new();
        for (name, mapper) in &mappers {
            let mut best = f64::INFINITY;
            for seed in 0..3u64 {
                let r = mse.run(mapper.as_ref(), Budget::samples(samples), seed);
                best = best.min(r.best_score);
            }
            println!("{name:<16} best EDP {}", edp_fmt(best));
            best_overall = best_overall.min(best);
            scores.push(best);
        }
        for (row, s) in table.iter_mut().zip(&scores) {
            row.1.push(s / best_overall);
        }
    }

    header("Summary (geomean EDP vs per-workload winner; 1.00 = always best)");
    let mut rows: Vec<(String, f64)> =
        table.into_iter().map(|(n, v)| (n, geomean(v))).collect();
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    for (name, g) in rows {
        println!("{name:<16} {g:>6.2}x");
    }
}
