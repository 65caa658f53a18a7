//! The differentiable surrogate cost model (Mind Mappings §4.3): an MLP
//! trained offline on cost-model samples that predicts `log10(latency)` and
//! `log10(energy)` from workload + mapping features.

use crate::nn::Mlp;
use costmodel::CostModel;
use mapping::features::{feature_len, features};
use mapping::MapSpace;
use problem::Problem;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;

/// Surrogate training hyper-parameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Cost-model samples to collect per training workload ("offline
    /// sampling of millions of data points" in the paper; scaled down to
    /// match our fast analytical model).
    pub samples_per_workload: usize,
    /// Hidden layer widths.
    pub hidden: Vec<usize>,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Fraction of data held out for validation.
    pub holdout: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            samples_per_workload: 8_000,
            hidden: vec![64, 64],
            epochs: 30,
            batch: 64,
            lr: 1e-3,
            holdout: 0.1,
        }
    }
}

/// Training outcome diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainReport {
    /// Mean squared error on the training set (normalized targets).
    pub train_mse: f64,
    /// Mean squared error on the holdout set (normalized targets).
    pub holdout_mse: f64,
    /// Number of training examples.
    pub examples: usize,
}

/// A trained surrogate bound to the accelerator configuration whose data it
/// was trained on (the paper's key limitation: it does *not* generalize to
/// other accelerator configurations, §4.3.2).
#[derive(Debug, Clone)]
pub struct Surrogate {
    mlp: Mlp,
    x_mean: Vec<f64>,
    x_std: Vec<f64>,
    y_mean: Vec<f64>,
    y_std: Vec<f64>,
    num_dims: usize,
    /// Name of the architecture the training data came from.
    pub trained_on: String,
}

impl Surrogate {
    /// Collects random-mapping samples from each model and trains the MLP.
    /// All models must share the same problem dimensionality and level
    /// count (e.g. several CONV2D layers on one accelerator).
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty or signatures differ.
    pub fn train(
        models: &[&dyn CostModel],
        cfg: &TrainConfig,
        rng: &mut SmallRng,
    ) -> (Surrogate, TrainReport) {
        assert!(!models.is_empty(), "need at least one training workload");
        let num_dims = models[0].problem().num_dims();
        let num_levels = models[0].arch().num_levels();
        let trained_on = models[0].arch().name().to_string();
        let in_len = num_dims + feature_len(num_dims, num_levels);

        let mut xs: Vec<Vec<f64>> = Vec::new();
        let mut ys: Vec<[f64; 2]> = Vec::new();
        for model in models {
            assert_eq!(model.problem().num_dims(), num_dims, "mixed dimensionality");
            assert_eq!(model.arch().num_levels(), num_levels, "mixed hierarchies");
            let space = MapSpace::new(model.problem().clone(), model.arch().clone());
            let mut collected = 0;
            while collected < cfg.samples_per_workload {
                let m = space.random(rng);
                let Ok(cost) = model.evaluate(&m) else { continue };
                xs.push(Self::assemble_input(model.problem(), &features(&m)));
                ys.push([cost.latency_cycles.log10(), (cost.energy_uj.max(1e-30)).log10()]);
                collected += 1;
            }
        }

        // Normalize inputs and targets.
        let n = xs.len() as f64;
        let mut x_mean = vec![0.0; in_len];
        let mut x_std = vec![0.0; in_len];
        for x in &xs {
            for (m, v) in x_mean.iter_mut().zip(x) {
                *m += v;
            }
        }
        x_mean.iter_mut().for_each(|m| *m /= n);
        for x in &xs {
            for i in 0..in_len {
                x_std[i] += (x[i] - x_mean[i]).powi(2);
            }
        }
        x_std.iter_mut().for_each(|s| {
            *s = (*s / n).sqrt();
            // Constant features (e.g. spatial factors at fanout-1 levels)
            // get unit scale so they stay exactly zero after normalization
            // instead of amplifying noise by ~1e9.
            if *s < 1e-8 {
                *s = 1.0;
            }
        });
        let mut y_mean = vec![0.0; 2];
        let mut y_std = vec![0.0; 2];
        for y in &ys {
            y_mean[0] += y[0];
            y_mean[1] += y[1];
        }
        y_mean.iter_mut().for_each(|m| *m /= n);
        for y in &ys {
            y_std[0] += (y[0] - y_mean[0]).powi(2);
            y_std[1] += (y[1] - y_mean[1]).powi(2);
        }
        y_std.iter_mut().for_each(|s| *s = (*s / n).sqrt().max(1e-9));

        let norm_x = |x: &[f64]| -> Vec<f64> {
            x.iter().enumerate().map(|(i, v)| (v - x_mean[i]) / x_std[i]).collect()
        };
        let data: Vec<(Vec<f64>, [f64; 2])> = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| {
                (norm_x(x), [(y[0] - y_mean[0]) / y_std[0], (y[1] - y_mean[1]) / y_std[1]])
            })
            .collect();

        let mut indices: Vec<usize> = (0..data.len()).collect();
        indices.shuffle(rng);
        let holdout_n = ((data.len() as f64) * cfg.holdout) as usize;
        let (val_idx, train_idx) = indices.split_at(holdout_n);

        let mut sizes = vec![in_len];
        sizes.extend(&cfg.hidden);
        sizes.push(2);
        let mut mlp = Mlp::new(&sizes, rng);

        let mut t = 0usize;
        let mut train_mse = f64::INFINITY;
        let mut order: Vec<usize> = train_idx.to_vec();
        for _epoch in 0..cfg.epochs {
            order.shuffle(rng);
            let mut epoch_loss = 0.0;
            for chunk in order.chunks(cfg.batch) {
                mlp.zero_grad();
                for &i in chunk {
                    epoch_loss += mlp.accumulate_grad(&data[i].0, &data[i].1);
                }
                t += 1;
                mlp.adam_step(cfg.lr, t, chunk.len());
            }
            train_mse = epoch_loss / train_idx.len().max(1) as f64;
        }
        let holdout_mse = if val_idx.is_empty() {
            train_mse
        } else {
            val_idx
                .iter()
                .map(|&i| {
                    let out = mlp.forward(&data[i].0);
                    0.5 * out
                        .iter()
                        .zip(&data[i].1)
                        .map(|(o, t)| (o - t) * (o - t))
                        .sum::<f64>()
                })
                .sum::<f64>()
                / val_idx.len() as f64
        };

        let report = TrainReport { train_mse, holdout_mse, examples: data.len() };
        (Surrogate { mlp, x_mean, x_std, y_mean, y_std, num_dims, trained_on }, report)
    }

    /// The raw (workload + mapping) input vector.
    fn assemble_input(problem: &Problem, mapping_feats: &[f64]) -> Vec<f64> {
        let mut x: Vec<f64> = problem.bounds().iter().map(|&b| (b as f64).log2()).collect();
        x.extend_from_slice(mapping_feats);
        x
    }

    /// Predicted `(log10 latency, log10 energy)`.
    ///
    /// # Panics
    ///
    /// Panics if the problem's dimensionality differs from the training
    /// signature.
    pub fn predict_logs(&self, problem: &Problem, mapping_feats: &[f64]) -> (f64, f64) {
        assert_eq!(problem.num_dims(), self.num_dims, "dimensionality mismatch");
        let x = Self::assemble_input(problem, mapping_feats);
        let xn: Vec<f64> =
            x.iter().enumerate().map(|(i, v)| (v - self.x_mean[i]) / self.x_std[i]).collect();
        let out = self.mlp.forward(&xn);
        (out[0] * self.y_std[0] + self.y_mean[0], out[1] * self.y_std[1] + self.y_mean[1])
    }

    /// Predicted `log10(EDP)`.
    pub fn predict_edp_log(&self, problem: &Problem, mapping_feats: &[f64]) -> f64 {
        let (l, e) = self.predict_logs(problem, mapping_feats);
        l + e
    }

    /// Gradient of predicted `log10(EDP)` with respect to the *mapping*
    /// features (the workload part of the input is fixed during search).
    pub fn edp_gradient(&self, problem: &Problem, mapping_feats: &[f64]) -> Vec<f64> {
        let x = Self::assemble_input(problem, mapping_feats);
        let xn: Vec<f64> =
            x.iter().enumerate().map(|(i, v)| (v - self.x_mean[i]) / self.x_std[i]).collect();
        // d(log10 EDP)/d out = (y_std[0], y_std[1]) since EDPlog = Σ yi*std+mean.
        let grad_xn = self.mlp.input_gradient(&xn, &[self.y_std[0], self.y_std[1]]);
        // Chain through normalization, drop the workload prefix.
        grad_xn
            .iter()
            .enumerate()
            .skip(self.num_dims)
            .map(|(i, g)| g / self.x_std[i])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arch::Arch;
    use costmodel::DenseModel;
    use rand::SeedableRng;

    fn quick_cfg() -> TrainConfig {
        TrainConfig { samples_per_workload: 1500, epochs: 15, ..TrainConfig::default() }
    }

    #[test]
    fn surrogate_learns_cost_landscape() {
        let p = problem::Problem::conv2d("t", 2, 16, 16, 14, 14, 3, 3);
        let a = Arch::accel_b();
        let model = DenseModel::new(p.clone(), a.clone());
        let mut rng = SmallRng::seed_from_u64(0);
        let (sur, report) = Surrogate::train(&[&model], &quick_cfg(), &mut rng);
        assert!(report.holdout_mse < 0.25, "holdout MSE {:.3} too high", report.holdout_mse);
        // Spot-check: prediction within ~0.5 orders of magnitude on fresh
        // samples, and ranks a good mapping below a bad one.
        let space = MapSpace::new(p.clone(), a);
        let mut errs = Vec::new();
        let mut pairs = Vec::new();
        for _ in 0..50 {
            let m = space.random(&mut rng);
            let Ok(c) = costmodel::CostModel::evaluate(&model, &m) else { continue };
            let pred = sur.predict_edp_log(&p, &features(&m));
            let truth = c.edp().log10();
            errs.push((pred - truth).abs());
            pairs.push((pred, truth));
        }
        let mean_err = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean_err < 0.6, "mean |log10 error| {mean_err:.3}");
        // Rank correlation (concordant fraction) above chance.
        let mut concordant = 0;
        let mut total = 0;
        for i in 0..pairs.len() {
            for j in (i + 1)..pairs.len() {
                total += 1;
                if (pairs[i].0 - pairs[j].0).signum() == (pairs[i].1 - pairs[j].1).signum() {
                    concordant += 1;
                }
            }
        }
        assert!(
            concordant as f64 / total as f64 > 0.75,
            "rank agreement {concordant}/{total}"
        );
    }

    #[test]
    fn gradient_matches_finite_difference_of_prediction() {
        let p = problem::Problem::conv2d("t", 2, 8, 8, 7, 7, 3, 3);
        let a = Arch::accel_b();
        let model = DenseModel::new(p.clone(), a.clone());
        let mut rng = SmallRng::seed_from_u64(1);
        let cfg = TrainConfig { samples_per_workload: 300, epochs: 3, ..TrainConfig::default() };
        let (sur, _) = Surrogate::train(&[&model], &cfg, &mut rng);
        let space = MapSpace::new(p.clone(), a);
        let m = space.random(&mut rng);
        let feats = features(&m);
        let g = sur.edp_gradient(&p, &feats);
        assert_eq!(g.len(), feats.len());
        let eps = 1e-5;
        for i in [0usize, 5, 20] {
            let mut fp = feats.clone();
            fp[i] += eps;
            let mut fm = feats.clone();
            fm[i] -= eps;
            let numeric =
                (sur.predict_edp_log(&p, &fp) - sur.predict_edp_log(&p, &fm)) / (2.0 * eps);
            assert!((g[i] - numeric).abs() < 1e-4, "feat {i}: {} vs {numeric}", g[i]);
        }
    }

    #[test]
    fn records_training_architecture() {
        let p = problem::Problem::conv2d("t", 2, 8, 8, 7, 7, 3, 3);
        let model = DenseModel::new(p, Arch::accel_a());
        let mut rng = SmallRng::seed_from_u64(2);
        let cfg = TrainConfig { samples_per_workload: 200, epochs: 2, ..TrainConfig::default() };
        let (sur, report) = Surrogate::train(&[&model], &cfg, &mut rng);
        assert_eq!(sur.trained_on, "Accel-A");
        assert_eq!(report.examples, 200);
    }
}
