//! Training and evaluation of forecasting models, including the
//! early-validation proxy `R'` (Eq. 22) that labels comparator samples.

use crate::forecaster::{Forecaster, ModelDims};
use crate::model_trait::CtsForecastModel;
use octs_data::metrics;
use octs_data::{ForecastTask, Split};
use octs_space::ArchHyper;
use octs_tensor::{clip_grad_norm, Adam, ParamStore};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Knobs for one training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Maximum epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate (paper: 1e-3).
    pub lr: f32,
    /// Adam weight decay (paper: 1e-4).
    pub weight_decay: f32,
    /// Global gradient-norm clip (0 disables).
    pub grad_clip: f32,
    /// Cap on training windows per epoch (evenly strided subsample).
    pub max_train_windows: usize,
    /// Cap on evaluation windows.
    pub max_eval_windows: usize,
    /// Early-stop patience in epochs (0 disables early stopping).
    pub patience: usize,
    /// Divergence guard: how many rollback-and-retry attempts (with halved
    /// learning rate) a run gets after a non-finite loss/gradient before it
    /// is marked *poisoned*. 0 disables the guard (legacy behaviour: NaNs
    /// propagate through the remaining epochs).
    pub divergence_strikes: usize,
    /// Seed for init and shuffling.
    pub seed: u64,
}

impl TrainConfig {
    /// The configuration used to collect comparator labels: the paper's
    /// early-validation proxy with `k = 5` epochs, scaled-down window counts.
    pub fn early_validation() -> Self {
        Self {
            epochs: 5,
            batch_size: 4,
            lr: 3e-3,
            weight_decay: 1e-4,
            grad_clip: 5.0,
            max_train_windows: 48,
            max_eval_windows: 32,
            patience: 0,
            divergence_strikes: 3,
            seed: 0,
        }
    }

    /// Fuller training for final model selection and baseline comparisons.
    pub fn standard() -> Self {
        Self {
            epochs: 20,
            batch_size: 4,
            lr: 3e-3,
            weight_decay: 1e-4,
            grad_clip: 5.0,
            max_train_windows: 96,
            max_eval_windows: 64,
            patience: 5,
            divergence_strikes: 3,
            seed: 0,
        }
    }

    /// Tiny config for unit tests.
    pub fn test() -> Self {
        Self {
            epochs: 2,
            batch_size: 4,
            lr: 3e-3,
            weight_decay: 0.0,
            grad_clip: 5.0,
            max_train_windows: 12,
            max_eval_windows: 8,
            patience: 0,
            divergence_strikes: 3,
            seed: 0,
        }
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Accuracy metrics on unscaled values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalMetrics {
    /// Mean absolute error.
    pub mae: f32,
    /// Root mean squared error.
    pub rmse: f32,
    /// Mean absolute percentage error (%).
    pub mape: f32,
    /// Root relative squared error.
    pub rrse: f32,
    /// Empirical correlation coefficient.
    pub corr: f32,
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Best validation MAE (scaled units) seen during training.
    pub best_val_mae: f32,
    /// Epochs actually run (early stopping may cut this short).
    pub epochs_run: usize,
    /// Final validation metrics (unscaled units).
    pub val: EvalMetrics,
    /// Final test metrics (unscaled units).
    pub test: EvalMetrics,
    /// Wall-clock training time.
    pub train_time: Duration,
    /// True when the run diverged past its strike budget — the weights are
    /// the last healthy snapshot, but the candidate should be treated as
    /// unusable (label collection maps this to a worst-rank proxy score).
    pub poisoned: bool,
    /// Number of divergence rollbacks performed (0 on a clean run).
    pub divergence_rollbacks: usize,
}

fn subsample(windows: &[usize], max: usize) -> Vec<usize> {
    if windows.len() <= max || max == 0 {
        return windows.to_vec();
    }
    let step = windows.len() as f32 / max as f32;
    (0..max).map(|i| windows[(i as f32 * step) as usize]).collect()
}

/// Evaluates a model on a split, returning metrics in the data's own units.
pub fn evaluate<M: CtsForecastModel + ?Sized>(
    fc: &mut M,
    task: &ForecastTask,
    split: Split,
    max_windows: usize,
) -> EvalMetrics {
    let windows = subsample(&task.windows(split), max_windows);
    let mut preds = Vec::new();
    let mut truths = Vec::new();
    for chunk in windows.chunks(8) {
        let batch = task.make_batch(chunk);
        let p = fc.predict(&batch.x);
        for (pv, tv) in p.data().iter().zip(batch.y.data()) {
            preds.push(task.unscale_target(*pv));
            truths.push(task.unscale_target(*tv));
        }
    }
    EvalMetrics {
        mae: metrics::mae(&preds, &truths),
        rmse: metrics::rmse(&preds, &truths),
        mape: metrics::mape(&preds, &truths),
        rrse: metrics::rrse(&preds, &truths),
        corr: metrics::corr(&preds, &truths),
    }
}

/// Per-horizon evaluation: metrics computed separately at each forecast step
/// (`1..=out_steps`), as the CTS literature reports (e.g. horizon 3/6/12 on
/// the traffic benchmarks). Returns one [`EvalMetrics`] per horizon, in the
/// data's own units. Only meaningful for multi-step tasks.
pub fn evaluate_per_horizon<M: CtsForecastModel + ?Sized>(
    fc: &mut M,
    task: &ForecastTask,
    split: Split,
    max_windows: usize,
) -> Vec<EvalMetrics> {
    let out_steps = task.setting.out_steps();
    let n = task.data.n();
    let windows = subsample(&task.windows(split), max_windows);
    let mut preds: Vec<Vec<f32>> = vec![Vec::new(); out_steps];
    let mut truths: Vec<Vec<f32>> = vec![Vec::new(); out_steps];
    for chunk in windows.chunks(8) {
        let batch = task.make_batch(chunk);
        let p = fc.predict(&batch.x);
        // layout [B, out, N]
        for bi in 0..chunk.len() {
            for step in 0..out_steps {
                for s in 0..n {
                    let idx = (bi * out_steps + step) * n + s;
                    preds[step].push(task.unscale_target(p.data()[idx]));
                    truths[step].push(task.unscale_target(batch.y.data()[idx]));
                }
            }
        }
    }
    preds
        .iter()
        .zip(&truths)
        .map(|(p, t)| EvalMetrics {
            mae: metrics::mae(p, t),
            rmse: metrics::rmse(p, t),
            mape: metrics::mape(p, t),
            rrse: metrics::rrse(p, t),
            corr: metrics::corr(p, t),
        })
        .collect()
}

/// Validation MAE in *scaled* units — cheap inner-loop selection signal.
pub fn val_mae_scaled<M: CtsForecastModel + ?Sized>(
    fc: &mut M,
    task: &ForecastTask,
    max_windows: usize,
) -> f32 {
    let windows = subsample(&task.windows(Split::Val), max_windows);
    if windows.is_empty() {
        return f32::INFINITY;
    }
    let mut abs_sum = 0.0f32;
    let mut count = 0usize;
    for chunk in windows.chunks(8) {
        let batch = task.make_batch(chunk);
        let p = fc.predict(&batch.x);
        for (pv, tv) in p.data().iter().zip(batch.y.data()) {
            abs_sum += (pv - tv).abs();
            count += 1;
        }
    }
    abs_sum / count as f32
}

/// A rollback point: everything that determines the rest of the run.
/// Restoring all three and replaying the epoch reproduces it bit-for-bit
/// (modulo the halved learning rate that motivated the rollback).
struct EpochSnapshot {
    params: ParamStore,
    opt: Adam,
    rng: ChaCha8Rng,
}

/// Trains `fc` on the task with MAE objective and Adam (Section 4.1.4),
/// early-stopping on validation MAE.
///
/// When `cfg.divergence_strikes > 0`, a divergence guard watches every batch:
/// a non-finite loss, gradient or parameter rolls the model, optimizer and
/// shuffling RNG back to the last healthy epoch boundary, halves the learning
/// rate and retries the same epoch. After `divergence_strikes` rollbacks the
/// run is marked [`TrainReport::poisoned`] instead of aborting the caller.
pub fn train_forecaster<M: CtsForecastModel + ?Sized>(
    fc: &mut M,
    task: &ForecastTask,
    cfg: &TrainConfig,
) -> TrainReport {
    let _obs = octs_obs::span("train.run");
    let start = Instant::now();
    let pool_before = octs_tensor::pool::stats();
    let mut opt = Adam::new(cfg.lr, cfg.weight_decay);
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let train_windows = subsample(&task.windows(Split::Train), cfg.max_train_windows);
    assert!(!train_windows.is_empty(), "no training windows for task {}", task.id());

    let guard = cfg.divergence_strikes > 0;
    let mut snapshot = guard.then(|| EpochSnapshot {
        params: fc.params_mut().snapshot(),
        opt: opt.clone(),
        rng: rng.clone(),
    });
    let mut rollbacks = 0usize;
    let mut poisoned = false;

    let mut best = f32::INFINITY;
    let mut since_best = 0usize;
    let mut epochs_run = 0usize;
    let mut epoch = 0usize;
    while epoch < cfg.epochs {
        let mut order = train_windows.clone();
        order.shuffle(&mut rng);
        fc.set_training(true);
        let mut diverged = false;
        for chunk in order.chunks(cfg.batch_size) {
            let batch = task.make_batch(chunk);
            let (g, pred) = fc.forward(&batch.x);
            let loss = pred.mae_loss(&g.constant(batch.y));
            let mut loss_val = loss.value().item();
            if octs_obs::fault::armed() && octs_obs::fault::nan_loss_at(epoch) {
                loss_val = f32::NAN;
            }
            if guard && !loss_val.is_finite() {
                diverged = true;
                break;
            }
            g.backward(&loss);
            let mut grads = g.param_grads();
            if guard && grads.iter().any(|(_, t)| !t.all_finite()) {
                diverged = true;
                break;
            }
            if cfg.grad_clip > 0.0 {
                clip_grad_norm(&mut grads, cfg.grad_clip);
            }
            opt.step(fc.params_mut(), &grads);
        }
        if guard && !diverged && !fc.params_mut().all_finite() {
            diverged = true;
        }
        if diverged {
            // Roll back to the last healthy epoch boundary; the restored RNG
            // replays the identical shuffle, so a gentler learning rate is
            // the only difference on the retry.
            let snap = snapshot.as_ref().expect("guard active implies snapshot");
            *fc.params_mut() = snap.params.snapshot();
            opt = snap.opt.clone();
            rng = snap.rng.clone();
            rollbacks += 1;
            octs_obs::event(
                "train.divergence_rollback",
                rollbacks as f64,
                &format!("epoch {epoch}"),
            );
            if rollbacks >= cfg.divergence_strikes {
                poisoned = true;
                octs_obs::event("train.poisoned", rollbacks as f64, &format!("epoch {epoch}"));
                break;
            }
            opt.lr *= 0.5;
            continue; // retry the same epoch
        }
        epochs_run += 1;
        epoch += 1;
        octs_obs::counter("train.epochs", 1);
        if let Some(snap) = snapshot.as_mut() {
            snap.params = fc.params_mut().snapshot();
            snap.opt = opt.clone();
            snap.rng = rng.clone();
        }
        let vm = val_mae_scaled(fc, task, cfg.max_eval_windows);
        if vm < best - 1e-5 {
            best = vm;
            since_best = 0;
        } else {
            since_best += 1;
            if cfg.patience > 0 && since_best >= cfg.patience {
                break;
            }
        }
    }

    let val = evaluate(fc, task, Split::Val, cfg.max_eval_windows);
    let test = evaluate(fc, task, Split::Test, cfg.max_eval_windows);
    // Export this run's buffer-pool behavior as obs counters (delta against
    // the run start, mirroring the search cache-counter idiom): a warm train
    // loop should show hits dominating misses by >20:1, and `dropped` counts
    // the buffers freed because the pool's idle budget was full.
    let pool = octs_tensor::pool::stats().since(&pool_before);
    octs_obs::counter("tensor.pool.hits", pool.hits);
    octs_obs::counter("tensor.pool.misses", pool.misses);
    octs_obs::counter("tensor.pool.dropped", pool.dropped);
    TrainReport {
        best_val_mae: best,
        epochs_run,
        val,
        test,
        train_time: start.elapsed(),
        poisoned,
        divergence_rollbacks: rollbacks,
    }
}

/// The early-validation metric `R'` (Eq. 22): validation MAE (scaled) after
/// `cfg.epochs` (= k) training epochs. Lower is better. A poisoned run
/// (divergence past the strike budget) reports `f32::INFINITY` — the
/// worst-rank proxy label — rather than propagating NaN into the comparator.
pub fn early_validation(ah: &ArchHyper, task: &ForecastTask, cfg: &TrainConfig) -> f32 {
    let dims = ModelDims::new(task.data.n(), task.data.f(), task.setting);
    let mut fc = Forecaster::new(ah.clone(), dims, &task.data.adjacency, cfg.seed);
    let report = train_forecaster(&mut fc, task, cfg);
    if report.poisoned {
        f32::INFINITY
    } else {
        report.best_val_mae
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octs_data::{DatasetProfile, Domain, ForecastSetting, ForecastTask};
    use octs_space::JointSpace;

    fn small_task() -> ForecastTask {
        let profile =
            DatasetProfile::custom("unit", Domain::Traffic, 4, 240, 24, 0.3, 0.05, 10.0, 3);
        ForecastTask::new(profile.generate(0), ForecastSetting::multi(6, 3), 0.6, 0.2, 1)
    }

    fn sample_ah(seed: u64) -> ArchHyper {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        JointSpace::tiny().sample(&mut rng)
    }

    #[test]
    fn training_reduces_validation_error() {
        let task = small_task();
        let ah = sample_ah(1);
        let dims = ModelDims::new(4, 1, task.setting);
        let mut fc = Forecaster::new(ah, dims, &task.data.adjacency, 7);
        let before = val_mae_scaled(&mut fc, &task, 16);
        let cfg = TrainConfig { epochs: 6, max_train_windows: 32, ..TrainConfig::test() };
        let report = train_forecaster(&mut fc, &task, &cfg);
        assert!(report.best_val_mae < before, "{before} -> {}", report.best_val_mae);
        assert!(report.val.mae.is_finite());
        assert!(report.test.rmse >= report.test.mae * 0.99);
    }

    #[test]
    fn early_validation_is_deterministic() {
        let task = small_task();
        let ah = sample_ah(2);
        let cfg = TrainConfig::test();
        let a = early_validation(&ah, &task, &cfg);
        let b = early_validation(&ah, &task, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn subsample_caps_and_spreads() {
        let windows: Vec<usize> = (0..100).collect();
        let s = subsample(&windows, 10);
        assert_eq!(s.len(), 10);
        assert_eq!(s[0], 0);
        assert!(s[9] >= 80);
        assert_eq!(subsample(&windows, 200).len(), 100);
    }

    #[test]
    fn evaluate_unscales() {
        // A model predicting scaled 0 everywhere should have MAE near the
        // dataset's own mean-absolute-deviation, not near 0.
        let task = small_task();
        let ah = sample_ah(3);
        let dims = ModelDims::new(4, 1, task.setting);
        let mut fc = Forecaster::new(ah, dims, &task.data.adjacency, 1);
        let m = evaluate(&mut fc, &task, Split::Test, 16);
        assert!(m.mae > 0.0);
        assert!(m.mae.is_finite());
        assert!(m.mape >= 0.0);
    }

    #[test]
    fn patience_stops_early() {
        let task = small_task();
        let ah = sample_ah(4);
        let dims = ModelDims::new(4, 1, task.setting);
        let mut fc = Forecaster::new(ah, dims, &task.data.adjacency, 2);
        let cfg = TrainConfig { epochs: 30, patience: 1, lr: 0.0, ..TrainConfig::test() };
        // lr 0: no improvement ever, must stop after patience+1 epochs.
        let report = train_forecaster(&mut fc, &task, &cfg);
        assert!(report.epochs_run <= 3, "ran {}", report.epochs_run);
    }

    #[test]
    fn per_horizon_errors_grow_with_horizon_after_training() {
        // Forecast difficulty increases with the horizon; after training, the
        // MAE at the last step should be at least that of the first step
        // (a well-known shape on every CTS benchmark).
        let task = small_task();
        let ah = sample_ah(11);
        let dims = ModelDims::new(4, 1, task.setting);
        let mut fc = Forecaster::new(ah, dims, &task.data.adjacency, 5);
        train_forecaster(&mut fc, &task, &TrainConfig { epochs: 6, ..TrainConfig::test() });
        let per_h = evaluate_per_horizon(&mut fc, &task, Split::Test, 16);
        assert_eq!(per_h.len(), task.setting.out_steps());
        assert!(per_h.iter().all(|m| m.mae.is_finite()));
        // overall MAE must be the average-ish of the horizon MAEs
        let overall = evaluate(&mut fc, &task, Split::Test, 16);
        let mean_h: f32 = per_h.iter().map(|m| m.mae).sum::<f32>() / per_h.len() as f32;
        assert!((overall.mae - mean_h).abs() / overall.mae < 0.25, "{} vs {}", overall.mae, mean_h);
    }

    #[test]
    fn divergent_learning_rate_does_not_panic() {
        // Failure injection: an absurd learning rate may blow the weights up
        // to NaN; with the guard disabled the loop must still survive and
        // report (legacy behaviour), not crash.
        let task = small_task();
        let ah = sample_ah(9);
        let dims = ModelDims::new(4, 1, task.setting);
        let mut fc = Forecaster::new(ah, dims, &task.data.adjacency, 5);
        let cfg = TrainConfig {
            epochs: 4,
            lr: 1e6,
            grad_clip: 0.0,
            patience: 0,
            divergence_strikes: 0,
            ..TrainConfig::test()
        };
        let report = train_forecaster(&mut fc, &task, &cfg);
        assert_eq!(report.epochs_run, 4, "loop must complete despite divergence");
        assert!(!report.poisoned);
    }

    #[test]
    fn transient_divergence_rolls_back_and_recovers() {
        // A one-shot NaN at epoch 1: the guard must roll back to the epoch-0
        // boundary, halve the learning rate, retry, and finish unpoisoned
        // with finite weights.
        let task = small_task();
        let ah = sample_ah(9);
        let _scope = octs_obs::fault::FaultScope::activate(
            octs_obs::fault::FaultPlan::new().transient_nan(77, 1),
        );
        octs_obs::fault::with_unit(77, || {
            let dims = ModelDims::new(4, 1, task.setting);
            let mut fc = Forecaster::new(ah.clone(), dims, &task.data.adjacency, 5);
            let report = train_forecaster(&mut fc, &task, &TrainConfig::test());
            assert!(!report.poisoned);
            assert_eq!(report.divergence_rollbacks, 1);
            assert_eq!(report.epochs_run, 2);
            assert!(report.best_val_mae.is_finite());
            assert!(fc.params_mut().all_finite(), "guard must leave finite weights");
        });
    }

    #[test]
    fn injected_nan_loss_poisons_run() {
        // A persistent injected NaN at epoch 0 exhausts the strike budget;
        // the run must come back poisoned with the worst-rank proxy label.
        let task = small_task();
        let ah = sample_ah(12);
        let _scope = octs_obs::fault::FaultScope::activate(
            octs_obs::fault::FaultPlan::new().nan_loss(41, 0),
        );
        octs_obs::fault::with_unit(41, || {
            let report = {
                let dims = ModelDims::new(4, 1, task.setting);
                let mut fc = Forecaster::new(ah.clone(), dims, &task.data.adjacency, 5);
                train_forecaster(&mut fc, &task, &TrainConfig::test())
            };
            assert!(report.poisoned);
            assert_eq!(report.divergence_rollbacks, TrainConfig::test().divergence_strikes);
            assert!(early_validation(&ah, &task, &TrainConfig::test()).is_infinite());
        });
        // Other units are untouched.
        octs_obs::fault::with_unit(40, || {
            assert!(early_validation(&ah, &task, &TrainConfig::test()).is_finite());
        });
    }

    #[test]
    fn guard_is_transparent_on_healthy_runs() {
        // With no divergence the guard must not perturb the numerics: same
        // losses with strikes 0 and strikes 3, bit for bit.
        let task = small_task();
        let ah = sample_ah(10);
        let dims = ModelDims::new(4, 1, task.setting);
        let run = |strikes: usize| {
            let mut fc = Forecaster::new(ah.clone(), dims, &task.data.adjacency, 5);
            let cfg = TrainConfig { divergence_strikes: strikes, ..TrainConfig::test() };
            train_forecaster(&mut fc, &task, &cfg).best_val_mae
        };
        assert_eq!(run(0), run(3));
    }

    #[test]
    fn seeded_training_is_reproducible() {
        let task = small_task();
        let ah = sample_ah(10);
        let dims = ModelDims::new(4, 1, task.setting);
        let cfg = TrainConfig::test();
        let run = || {
            let mut fc = Forecaster::new(ah.clone(), dims, &task.data.adjacency, 5);
            train_forecaster(&mut fc, &task, &cfg).best_val_mae
        };
        assert_eq!(run(), run());
    }
}
