//! Fig. 4 — PCA visualization of how each mapper navigates the map space
//! of (Resnet Conv_4, Accel-A).
//!
//! (a) A large random sample of the space is projected onto its top-3
//! principal components; the high-performance points cluster in small
//! regions away from the bulk. (b) The points each mapper actually sampled
//! are projected into the same basis. The harness prints per-mapper
//! summaries (and optional CSV with `MSE_CSV=1`): how close each mapper's
//! best sampled points get to the global high-performance region, and the
//! quality distribution of its samples.

use bench::{budget, edp_fmt, header};
use costmodel::{guarded_engine, CostModel, GuardPolicy};
use linalg::Pca;
use mappers::{Budget, Gamma, GammaConfig, Mapper, RandomPruned};
use mapping::features::features;
use mapping::MapSpace;
use mse::Mse;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use surrogate::{MindMappings, MindMappingsConfig, Surrogate, TrainConfig};

fn main() {
    let w = problem::zoo::resnet_conv4();
    let a = arch::Arch::accel_a();
    let model = guarded_engine(&w, &a, None, GuardPolicy::Reject);
    let space = MapSpace::new(w.clone(), a.clone());
    let n_background = budget(3_000, 20_000);
    let n_mapper = budget(800, 5_000);
    let csv = std::env::var("MSE_CSV").is_ok_and(|v| v == "1");

    header("Fig. 4(a): map-space background sample + PCA basis");
    let mut rng = SmallRng::seed_from_u64(4);
    let mut feats = Vec::with_capacity(n_background);
    let mut edps = Vec::with_capacity(n_background);
    while feats.len() < n_background {
        let m = space.random(&mut rng);
        let Ok(c) = model.evaluate(&m) else { continue };
        feats.push(features(&m));
        edps.push(c.edp());
    }
    let pca = Pca::fit(&feats, 3);
    println!(
        "background: {} points, PCA explained variance {:?}",
        feats.len(),
        pca.explained_variance_ratio()
            .iter()
            .map(|v| format!("{v:.3}"))
            .collect::<Vec<_>>()
    );
    let mut sorted = edps.clone();
    sorted.sort_by(|x, y| x.partial_cmp(y).unwrap());
    let p01 = sorted[feats.len() / 100];
    let median = sorted[feats.len() / 2];
    println!("EDP spread: best {}, p1 {}, median {}, worst {}",
        edp_fmt(sorted[0]), edp_fmt(p01), edp_fmt(median), edp_fmt(*sorted.last().unwrap()));
    // Centroid of the top-1% region — the "green circle" of Fig. 4(a).
    let top: Vec<usize> =
        (0..feats.len()).filter(|&i| edps[i] <= p01).collect();
    let centroid = |idx: &[usize]| -> Vec<f64> {
        let mut c = vec![0.0; 3];
        for &i in idx {
            let p = pca.transform(&feats[i]);
            for k in 0..3 {
                c[k] += p[k] / idx.len() as f64;
            }
        }
        c
    };
    let top_centroid = centroid(&top);
    let all_idx: Vec<usize> = (0..feats.len()).collect();
    let bulk_centroid = centroid(&all_idx);
    let dist = |a: &[f64], b: &[f64]| -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
    };
    println!(
        "top-1% region centroid is {:.2} PCA units from the bulk centroid",
        dist(&top_centroid, &bulk_centroid)
    );
    if csv {
        println!("csv,background,pc1,pc2,pc3,edp");
        for (f, e) in feats.iter().zip(&edps).take(2_000) {
            let p = pca.transform(f);
            println!("csv,background,{:.4},{:.4},{:.4},{e:.4e}", p[0], p[1], p[2]);
        }
    }

    header("Fig. 4(b): points sampled by each mapper");
    let mut rng = SmallRng::seed_from_u64(0xA11CE);
    let (sur, _) = Surrogate::train(
        &[&model],
        &TrainConfig { samples_per_workload: budget(4_000, 20_000), ..TrainConfig::default() },
        &mut rng,
    );
    let mut mm = MindMappings::new(Arc::new(sur));
    mm.config = MindMappingsConfig { record_samples: true, ..MindMappingsConfig::default() };
    let gamma_cfg = GammaConfig { record_samples: true, ..GammaConfig::default() };
    let mappers: Vec<(&str, Box<dyn Mapper>)> = vec![
        ("Random-Pruned", Box::new(RandomPruned::new().with_sample_recording())),
        ("Gamma", Box::new(Gamma::with_config(gamma_cfg))),
        ("Mind-Mappings", Box::new(mm)),
    ];
    // Projected coordinates of the top-1% background points (the
    // high-performance clusters of Fig. 4(a)).
    let top_points: Vec<Vec<f64>> = top.iter().map(|&i| pca.transform(&feats[i])).collect();
    let mse = Mse::new(&model);
    for (name, mapper) in &mappers {
        let r = mse.run(mapper.as_ref(), Budget::samples(n_mapper), 11);
        // The mapper's best 5% of samples: how close do they get to the
        // nearest high-performance cluster?
        let mut qs: Vec<(f64, &Vec<f64>)> =
            r.samples.iter().map(|(f, s)| (*s, f)).collect();
        qs.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap());
        let elite = &qs[..(qs.len() / 20).max(1)];
        let mut near = Vec::with_capacity(elite.len());
        for (_, f) in elite {
            let p = pca.transform(f);
            let d = top_points
                .iter()
                .map(|t| dist(&p, t))
                .fold(f64::INFINITY, f64::min);
            near.push(d);
        }
        near.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median_near = near[near.len() / 2];
        let frac_in_top = r
            .samples
            .iter()
            .filter(|(_, s)| *s <= p01)
            .count() as f64
            / r.samples.len() as f64;
        println!(
            "{name:<16} best {:>9}  median elite dist to nearest top cluster {:>6.2}  {:>5.1}% of samples in top-1% region",
            edp_fmt(r.best_score),
            median_near,
            100.0 * frac_in_top
        );
        if csv {
            println!("csv,{name},pc1,pc2,edp");
            for (f, s) in r.samples.iter().take(1_000) {
                let p = pca.transform(f);
                println!("csv,{name},{:.4},{:.4},{s:.4e}", p[0], p[1]);
            }
        }
    }
    println!();
    println!("Expected shape: Random-Pruned stays in the bulk (low-performing) region;");
    println!("Mind-Mappings walks toward a better region but parks at a local optimum;");
    println!("Gamma's population reaches the high-performance region.");
}
