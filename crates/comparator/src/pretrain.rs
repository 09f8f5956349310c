//! T-AHC pre-training (Section 3.2.4, Algorithm 1): label collection with the
//! early-validation proxy, shared + random samples, data-level curriculum and
//! dynamic pairing.
//!
//! Every pre-training entry point feeds the same [`LabeledBank`] into the
//! same [`TahcTrainer`]: `AutoCts::pretrain` builds the bank with
//! [`crate::stream::collect_labeled_bank`] and runs [`pretrain_tahc`]; the
//! journaled driver in the `autocts` crate labels it shard by shard with
//! [`crate::stream::label_task`] and checkpoints the trainer between epochs.

use crate::ahc::Tahc;
use octs_data::ForecastTask;
use octs_model::{early_validation, TrainConfig};
use octs_space::{ArchHyper, JointSpace};
use octs_tensor::Tensor;
use octs_tensor::{Adam, ParamStore};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// An arch-hyper with its early-validation score `R'` (lower = better).
#[derive(Debug, Clone)]
pub struct LabeledAh {
    /// The candidate.
    pub ah: ArchHyper,
    /// Early-validation MAE (scaled units). `f32::INFINITY` for quarantined
    /// candidates (the worst-rank proxy label).
    pub score: f32,
    /// True when labelling this candidate diverged past the trainer's strike
    /// budget or panicked outright. Quarantined samples never enter
    /// comparator training pools.
    pub quarantined: bool,
}

/// Labelled samples for one pre-training task.
#[derive(Debug, Clone)]
pub struct TaskSamples {
    /// The `L` arch-hypers shared across *all* tasks (easy knowledge: lets
    /// T-AHC read task similarity off a common yardstick).
    pub shared: Vec<LabeledAh>,
    /// The `L` task-specific random arch-hypers (hard knowledge).
    pub random: Vec<LabeledAh>,
}

/// What the pre-training loop reads: one frozen preliminary embedding and
/// one set of labelled samples per task. The datasets themselves are ~99% of
/// a bank's bytes and the trainer never touches them, so every pipeline
/// labels each task as it flows past, keeps its `(prelim, samples)` pair
/// here, and drops the task — peak memory stays O(prefetch window), not
/// O(bank).
#[derive(Default)]
pub struct LabeledBank {
    /// Frozen preliminary embeddings, one `[W, S, F']` tensor per task.
    pub prelims: Vec<Tensor>,
    /// Labelled samples per task.
    pub samples: Vec<TaskSamples>,
}

impl LabeledBank {
    /// Number of tasks represented.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no task has been folded in yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// Pre-training knobs.
///
/// Serializable so crash-safe pipelines can fingerprint a run's
/// configuration and refuse to resume a journal written under different
/// knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PretrainConfig {
    /// Shared sample count `L` per task.
    pub l_shared: usize,
    /// Random sample count `L` per task.
    pub l_random: usize,
    /// Training epochs `k_t`.
    pub epochs: usize,
    /// Pairs per comparator batch.
    pub batch: usize,
    /// Adam learning rate (paper: 1e-3).
    pub lr: f32,
    /// Adam weight decay (paper: 5e-4).
    pub weight_decay: f32,
    /// Curriculum increment: how many random samples join per epoch (Δ).
    pub curriculum_step: usize,
    /// Configuration of the early-validation labelling runs (k epochs).
    pub label_cfg: TrainConfig,
    /// RNG seed.
    pub seed: u64,
}

impl PretrainConfig {
    /// CPU-scaled defaults.
    pub fn scaled() -> Self {
        Self {
            l_shared: 8,
            l_random: 8,
            epochs: 12,
            batch: 16,
            lr: 1e-3,
            weight_decay: 5e-4,
            curriculum_step: 1,
            label_cfg: TrainConfig::early_validation(),
            seed: 0,
        }
    }

    /// Tiny defaults for tests.
    pub fn test() -> Self {
        Self {
            l_shared: 4,
            l_random: 4,
            epochs: 3,
            batch: 8,
            lr: 2e-3,
            weight_decay: 0.0,
            curriculum_step: 2,
            label_cfg: TrainConfig::test(),
            seed: 0,
        }
    }
}

/// One unit of labelling work: a single candidate on a single task. The
/// `unit` id is a stable flat index (`task_idx * (L_shared + L_random) +
/// slot`), which keys fault-injection plans and `label.quarantine` events.
#[derive(Debug, Clone)]
pub struct LabelUnit {
    /// Stable flat index of this unit across the whole labelling phase.
    pub unit: u64,
    /// True for a shared-pool sample, false for a task-specific random one.
    pub shared: bool,
    /// The candidate to label.
    pub ah: ArchHyper,
}

/// Samples the `L` arch-hypers shared across every pre-training task, from
/// the master seed alone. Workers on disjoint shard subsets call this
/// independently and land on the same pool.
pub fn shared_pool(space: &JointSpace, cfg: &PretrainConfig) -> Vec<ArchHyper> {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut pool = space.sample_distinct(cfg.l_shared.max(1), &mut rng);
    pool.truncate(cfg.l_shared);
    pool
}

/// Enumerates the labelling units of a single task: the shared pool in its
/// per-task replica slots, plus the task's own random samples drawn from an
/// independent per-task RNG substream. Depends only on `(ti, space, cfg)` —
/// *not* on which worker runs it or which tasks surround it — so any
/// shard→worker assignment reproduces the exact same unit list.
pub fn task_label_units(
    ti: usize,
    shared: &[ArchHyper],
    space: &JointSpace,
    cfg: &PretrainConfig,
) -> Vec<LabelUnit> {
    let stride = (cfg.l_shared + cfg.l_random) as u64;
    let mut trng = ChaCha8Rng::seed_from_u64(cfg.seed ^ (ti as u64 + 1) << 8);
    let randoms = space.sample_distinct(cfg.l_random, &mut trng);
    let base = ti as u64 * stride;
    let shared_units = shared.iter().enumerate().map(|(i, ah)| LabelUnit {
        unit: base + i as u64,
        shared: true,
        ah: ah.clone(),
    });
    let random_units = randoms.into_iter().enumerate().map(|(i, ah)| LabelUnit {
        unit: base + (cfg.l_shared + i) as u64,
        shared: false,
        ah,
    });
    shared_units.chain(random_units).collect()
}

/// Labels one candidate with the early-validation proxy under full fault
/// isolation: the work runs with the unit's fault id set (so injected NaNs
/// and panics target it precisely) and inside `catch_unwind`, so a panicking
/// candidate — injected or genuine — quarantines *itself* instead of killing
/// the whole labelling fan-out. Divergent (poisoned) trainings come back as
/// `f32::INFINITY` from [`early_validation`] and are quarantined too.
pub fn label_one(ah: &ArchHyper, task: &ForecastTask, unit: u64, cfg: &TrainConfig) -> LabeledAh {
    let _obs = octs_obs::span_detail("label.unit", unit.to_string());
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        octs_obs::fault::with_unit(unit, || {
            octs_obs::fault::maybe_panic_unit();
            early_validation(ah, task, cfg)
        })
    }));
    match outcome {
        Ok(score) if score.is_finite() => LabeledAh { ah: ah.clone(), score, quarantined: false },
        Ok(_) | Err(_) => {
            octs_obs::event("label.quarantine", unit as f64, &format!("unit {unit}"));
            LabeledAh { ah: ah.clone(), score: f32::INFINITY, quarantined: true }
        }
    }
}

/// Outcome of pre-training.
#[derive(Debug, Clone)]
pub struct PretrainReport {
    /// Mean BCE loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Pairwise classification accuracy on freshly-paired held-out
    /// comparisons after training.
    pub holdout_accuracy: f32,
    /// Epoch-level divergence rollbacks absorbed during training (0 on a
    /// clean run).
    pub divergence_rollbacks: usize,
}

/// Builds dynamically-paired comparisons from a pool of labelled samples:
/// shuffles, pairs consecutive entries, labels by score order, and drops
/// near-ties that carry no ranking signal. Quarantined samples are excluded
/// before pairing. The curriculum epochs and the hold-out evaluation both
/// pair through this one function.
pub fn dynamic_pairs<'a>(
    pool: impl IntoIterator<Item = &'a LabeledAh>,
    rng: &mut ChaCha8Rng,
) -> Vec<(&'a ArchHyper, &'a ArchHyper, f32)> {
    let mut pool: Vec<&LabeledAh> = pool.into_iter().filter(|l| !l.quarantined).collect();
    pool.shuffle(rng);
    let mut out = Vec::new();
    for pair in pool.chunks_exact(2) {
        let (a, b) = (pair[0], pair[1]);
        if (a.score - b.score).abs() < 1e-6 {
            continue;
        }
        let y = if a.score < b.score { 1.0 } else { 0.0 };
        out.push((&a.ah, &b.ah, y));
    }
    out
}

/// Everything that determines the remainder of a pre-training run: restoring
/// this state into a fresh [`Tahc`]/[`TahcTrainer`] pair continues bit-for-
/// bit where the serialized run stopped. Written at epoch boundaries by the
/// crash-safe pipeline.
#[derive(Serialize, Deserialize)]
pub struct TahcTrainerState {
    /// Comparator parameters (with their init RNG).
    pub params: ParamStore,
    /// Optimizer moments and step count.
    pub opt: Adam,
    /// The curriculum/shuffling RNG, mid-stream.
    pub rng: ChaCha8Rng,
    /// Epochs completed so far.
    pub epoch: usize,
    /// Current curriculum size (how many random samples participate).
    pub delta: usize,
    /// Mean BCE loss of each completed epoch.
    pub epoch_losses: Vec<f32>,
    /// Divergence rollbacks absorbed so far.
    pub rollbacks: usize,
}

/// Step-wise driver for Algorithm 1: owns the optimizer, curriculum counter
/// and RNG so that pre-training can advance one epoch at a time, export its
/// full state at any epoch boundary ([`TahcTrainer::export_state`]) and be
/// reconstructed from it ([`TahcTrainer::from_state`]) — the building block
/// of crash-safe, resumable pre-training. [`pretrain_tahc`] is the
/// uninterrupted convenience loop over it.
pub struct TahcTrainer {
    opt: Adam,
    rng: ChaCha8Rng,
    epoch: usize,
    delta: usize,
    epoch_losses: Vec<f32>,
    rollbacks: usize,
}

/// Epoch-level retry budget for transient comparator-training divergence.
const PRETRAIN_MAX_RETRIES: usize = 3;

impl TahcTrainer {
    /// A fresh trainer at epoch 0.
    pub fn new(cfg: &PretrainConfig) -> Self {
        Self {
            opt: Adam::new(cfg.lr, cfg.weight_decay),
            rng: ChaCha8Rng::seed_from_u64(cfg.seed ^ 0xA1),
            epoch: 0,
            delta: 0,
            epoch_losses: Vec::new(),
            rollbacks: 0,
        }
    }

    /// Epochs completed so far.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// True once every configured epoch has run.
    pub fn is_done(&self, cfg: &PretrainConfig) -> bool {
        self.epoch >= cfg.epochs
    }

    /// Mean BCE losses of the completed epochs.
    pub fn epoch_losses(&self) -> &[f32] {
        &self.epoch_losses
    }

    /// Serializes the full training state, pairing the trainer's own fields
    /// with a snapshot of the comparator's parameters.
    pub fn export_state(&self, tahc: &Tahc) -> TahcTrainerState {
        TahcTrainerState {
            params: tahc.ps.snapshot(),
            opt: self.opt.clone(),
            rng: self.rng.clone(),
            epoch: self.epoch,
            delta: self.delta,
            epoch_losses: self.epoch_losses.clone(),
            rollbacks: self.rollbacks,
        }
    }

    /// Rebuilds a trainer mid-run, installing the serialized parameters into
    /// `tahc` (and dropping its stale embedding caches).
    pub fn from_state(state: TahcTrainerState, tahc: &mut Tahc) -> Self {
        tahc.ps = state.params;
        tahc.invalidate_caches();
        Self {
            opt: state.opt,
            rng: state.rng,
            epoch: state.epoch,
            delta: state.delta,
            epoch_losses: state.epoch_losses,
            rollbacks: state.rollbacks,
        }
    }

    /// Runs one curriculum epoch, returning its mean BCE loss.
    ///
    /// A non-finite epoch loss (genuine divergence or an injected
    /// [`octs_obs::fault::pretrain_nan`]) rolls the comparator, optimizer and RNG
    /// back to the epoch start, halves the learning rate and retries — the
    /// restored RNG replays the identical pairing. After
    /// [`PRETRAIN_MAX_RETRIES`] failed attempts the loss is recorded as-is
    /// and training moves on (downstream holdout accuracy exposes the wreck).
    pub fn run_epoch(&mut self, tahc: &mut Tahc, bank: &LabeledBank, cfg: &PretrainConfig) -> f32 {
        let _obs = octs_obs::span_detail("pretrain.epoch", self.epoch.to_string());
        let mut attempts = 0usize;
        loop {
            let snap_params = tahc.ps.snapshot();
            let snap_opt = self.opt.clone();
            let snap_rng = self.rng.clone();
            let inject = octs_obs::fault::armed() && octs_obs::fault::pretrain_nan(self.epoch);
            let (mut loss, batches) = self.epoch_pass(tahc, bank, cfg);
            if inject {
                loss = f32::NAN;
            }
            // Pair-free epochs legitimately report NaN; only a diverged pass
            // over real batches triggers the rollback.
            let diverged = batches > 0 && !loss.is_finite();
            if !diverged || attempts >= PRETRAIN_MAX_RETRIES {
                self.epoch_losses.push(loss);
                self.epoch += 1;
                self.delta = (self.delta + cfg.curriculum_step).min(cfg.l_random);
                return loss;
            }
            tahc.ps = snap_params;
            tahc.invalidate_caches();
            self.opt = snap_opt;
            self.rng = snap_rng;
            self.opt.lr *= 0.5;
            self.rollbacks += 1;
            octs_obs::event(
                "pretrain.divergence_rollback",
                self.rollbacks as f64,
                &format!("epoch {}", self.epoch),
            );
            attempts += 1;
        }
    }

    /// One pass over the epoch's curriculum pairs; returns `(mean loss,
    /// batch count)`.
    fn epoch_pass(
        &mut self,
        tahc: &mut Tahc,
        bank: &LabeledBank,
        cfg: &PretrainConfig,
    ) -> (f32, usize) {
        let use_task = tahc.cfg.task_aware;
        // Gather this epoch's pairs across all tasks: every shared sample
        // plus the first `delta` random ones (curriculum C_t).
        let mut all: Vec<(usize, &ArchHyper, &ArchHyper, f32)> = Vec::new();
        for (ti, s) in bank.samples.iter().enumerate() {
            let pool = s.shared.iter().chain(s.random.iter().take(self.delta));
            let pairs = dynamic_pairs(pool, &mut self.rng);
            all.extend(pairs.into_iter().map(|(a, b, y)| (ti, a, b, y)));
        }
        all.shuffle(&mut self.rng);

        let mut loss_sum = 0.0f32;
        let mut batches = 0usize;
        for chunk in all.chunks(cfg.batch) {
            let batch: Vec<_> = chunk
                .iter()
                .map(|(ti, a, b, y)| {
                    let prelim = if use_task { Some(&bank.prelims[*ti]) } else { None };
                    (prelim, *a, *b, *y)
                })
                .collect();
            if batch.is_empty() {
                continue;
            }
            loss_sum += tahc.train_batch(&mut self.opt, &batch);
            batches += 1;
        }
        let mean = if batches > 0 { loss_sum / batches as f32 } else { f32::NAN };
        (mean, batches)
    }

    /// Hold-out evaluation over fresh pairings of the full (non-quarantined)
    /// pools, closing out the run as a [`PretrainReport`].
    pub fn finish(&self, tahc: &Tahc, bank: &LabeledBank, cfg: &PretrainConfig) -> PretrainReport {
        let use_task = tahc.cfg.task_aware;
        let mut eval_rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0xE7A1);
        let mut eval: Vec<(Option<&Tensor>, &ArchHyper, &ArchHyper, f32)> = Vec::new();
        for (ti, s) in bank.samples.iter().enumerate() {
            let prelim = if use_task { Some(&bank.prelims[ti]) } else { None };
            let pairs = dynamic_pairs(s.shared.iter().chain(&s.random), &mut eval_rng);
            eval.extend(pairs.into_iter().map(|(a, b, y)| (prelim, a, b, y)));
        }
        let holdout_accuracy = tahc.accuracy(&eval);
        PretrainReport {
            epoch_losses: self.epoch_losses.clone(),
            holdout_accuracy,
            divergence_rollbacks: self.rollbacks,
        }
    }
}

/// Algorithm 1: curriculum pre-training of T-AHC over the bank — the
/// uninterrupted loop over [`TahcTrainer`].
pub fn pretrain_tahc(tahc: &mut Tahc, bank: &LabeledBank, cfg: &PretrainConfig) -> PretrainReport {
    let _obs = octs_obs::span("phase.pretrain");
    let mut trainer = TahcTrainer::new(cfg);
    while !trainer.is_done(cfg) {
        trainer.run_epoch(tahc, bank, cfg);
    }
    trainer.finish(tahc, bank, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ahc::TahcConfig;
    use crate::stream::{collect_labeled_bank, label_task};
    use crate::task_embed::{TaskEmbedConfig, TaskEmbedder};
    use crate::ts2vec::Ts2VecConfig;
    use octs_data::{DatasetProfile, Domain, ForecastSetting};

    fn tiny_tasks(n: usize) -> Vec<ForecastTask> {
        (0..n)
            .map(|i| {
                let p = DatasetProfile::custom(
                    &format!("pt{i}"),
                    if i % 2 == 0 { Domain::Traffic } else { Domain::Energy },
                    3,
                    200,
                    24,
                    0.3,
                    0.1,
                    10.0,
                    40 + i as u64,
                );
                ForecastTask::new(p.generate(0), ForecastSetting::multi(4, 2), 0.6, 0.2, 2)
            })
            .collect()
    }

    /// Two tiny tasks labelled and embedded through the streamed path.
    fn tiny_bank(cfg: &PretrainConfig) -> LabeledBank {
        let mut emb = TaskEmbedder::new(TaskEmbedConfig::test(), Ts2VecConfig::test(), 1);
        collect_labeled_bank(
            tiny_tasks(2).into_iter().enumerate(),
            &mut emb,
            &JointSpace::tiny(),
            cfg,
        )
    }

    #[test]
    fn bank_collection_shapes() {
        let cfg = PretrainConfig { l_shared: 3, l_random: 3, ..PretrainConfig::test() };
        let bank = tiny_bank(&cfg);
        assert_eq!(bank.len(), 2);
        assert_eq!(bank.prelims.len(), 2);
        for s in &bank.samples {
            assert_eq!(s.shared.len(), 3);
            assert_eq!(s.random.len(), 3);
            assert!(s.shared.iter().all(|l| l.score.is_finite()));
        }
        // shared arch-hypers identical across tasks
        for i in 0..3 {
            assert_eq!(bank.samples[0].shared[i].ah, bank.samples[1].shared[i].ah);
        }
    }

    #[test]
    fn dynamic_pairs_label_by_score() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let space = JointSpace::tiny();
        let ahs = space.sample_distinct(4, &mut rng);
        let pool: Vec<LabeledAh> = ahs
            .iter()
            .enumerate()
            .map(|(i, ah)| LabeledAh { ah: ah.clone(), score: i as f32, quarantined: false })
            .collect();
        let pairs = dynamic_pairs(&pool, &mut rng);
        assert_eq!(pairs.len(), 2);
        for (a, b, y) in pairs {
            let sa = pool.iter().find(|l| &l.ah == a).unwrap().score;
            let sb = pool.iter().find(|l| &l.ah == b).unwrap().score;
            assert_eq!(y > 0.5, sa < sb);
        }
    }

    #[test]
    fn faulted_units_are_quarantined_with_worst_rank_label() {
        // Unit layout: stride = l_shared + l_random = 6; task 0 owns units
        // 0..6, task 1 owns 6..12. Panic unit 1 (task 0, shared slot 1) and
        // persistently NaN unit 9 (task 1, random slot 0): both must come
        // back quarantined with the INFINITY proxy label, everything else
        // untouched, and the fan-out must survive the panic.
        let tasks = tiny_tasks(2);
        let cfg = PretrainConfig { l_shared: 3, l_random: 3, ..PretrainConfig::test() };
        let _scope = octs_obs::fault::FaultScope::activate(
            octs_obs::fault::FaultPlan::new().panic_unit(1).nan_loss(9, 0),
        );
        let space = JointSpace::tiny();
        let pool = shared_pool(&space, &cfg);
        let samples: Vec<TaskSamples> = tasks
            .iter()
            .enumerate()
            .map(|(ti, t)| label_task(t, ti, &pool, &space, &cfg))
            .collect();
        assert!(samples[0].shared[1].quarantined);
        assert!(samples[0].shared[1].score.is_infinite());
        assert!(samples[1].random[0].quarantined);
        assert!(samples[1].random[0].score.is_infinite());
        let healthy = samples
            .iter()
            .flat_map(|s| s.shared.iter().chain(s.random.iter()))
            .filter(|l| !l.quarantined)
            .count();
        assert_eq!(healthy, 10);
        assert!(samples
            .iter()
            .flat_map(|s| s.shared.iter().chain(s.random.iter()))
            .filter(|l| !l.quarantined)
            .all(|l| l.score.is_finite()));
    }

    #[test]
    fn quarantined_samples_never_enter_pairs() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let space = JointSpace::tiny();
        let ahs = space.sample_distinct(6, &mut rng);
        let pool: Vec<LabeledAh> = ahs
            .iter()
            .enumerate()
            .map(|(i, ah)| LabeledAh {
                ah: ah.clone(),
                score: if i < 2 { f32::INFINITY } else { i as f32 },
                quarantined: i < 2,
            })
            .collect();
        for _ in 0..10 {
            for (a, b, _) in dynamic_pairs(&pool, &mut rng) {
                assert!(pool.iter().find(|l| &l.ah == a).unwrap().score.is_finite());
                assert!(pool.iter().find(|l| &l.ah == b).unwrap().score.is_finite());
            }
        }
    }

    #[test]
    fn trainer_state_roundtrip_resumes_bitwise() {
        // Epochs 0..2 + serialize + restore + epochs 2..4 must equal an
        // uninterrupted 4-epoch run: same losses, same parameters, bit for
        // bit. This is the property the crash-safe pipeline builds on.
        let space = JointSpace::tiny();
        let cfg = PretrainConfig { epochs: 4, ..PretrainConfig::test() };
        let bank = tiny_bank(&cfg);

        let mut tahc_a = Tahc::new(TahcConfig::test(), space.hyper.clone(), 0);
        let report_a = pretrain_tahc(&mut tahc_a, &bank, &cfg);

        let mut tahc_b = Tahc::new(TahcConfig::test(), space.hyper.clone(), 0);
        let mut trainer = TahcTrainer::new(&cfg);
        trainer.run_epoch(&mut tahc_b, &bank, &cfg);
        trainer.run_epoch(&mut tahc_b, &bank, &cfg);
        let json = serde_json::to_string(&trainer.export_state(&tahc_b)).unwrap();
        drop(trainer);
        drop(tahc_b);

        let state: TahcTrainerState = serde_json::from_str(&json).unwrap();
        let mut tahc_c = Tahc::new(TahcConfig::test(), space.hyper.clone(), 99);
        let mut resumed = TahcTrainer::from_state(state, &mut tahc_c);
        assert_eq!(resumed.epoch(), 2);
        while !resumed.is_done(&cfg) {
            resumed.run_epoch(&mut tahc_c, &bank, &cfg);
        }
        let report_c = resumed.finish(&tahc_c, &bank, &cfg);

        assert_eq!(report_a.epoch_losses, report_c.epoch_losses);
        assert_eq!(report_a.holdout_accuracy, report_c.holdout_accuracy);
        let ser = |t: &Tahc| serde_json::to_string(&t.ps.snapshot()).unwrap();
        assert_eq!(ser(&tahc_a), ser(&tahc_c), "resumed params must match bitwise");
    }

    #[test]
    fn transient_pretrain_nan_rolls_back_and_recovers() {
        let space = JointSpace::tiny();
        let cfg = PretrainConfig { epochs: 4, ..PretrainConfig::test() };
        let bank = tiny_bank(&cfg);
        let _scope = octs_obs::fault::FaultScope::activate(
            octs_obs::fault::FaultPlan::new().pretrain_nan(1),
        );
        let mut tahc = Tahc::new(TahcConfig::test(), space.hyper.clone(), 0);
        let report = pretrain_tahc(&mut tahc, &bank, &cfg);
        assert_eq!(report.divergence_rollbacks, 1);
        assert_eq!(report.epoch_losses.len(), 4);
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
        assert!(tahc.ps.all_finite());
    }

    #[test]
    fn repeated_task_pretrain_reports_nonzero_task_cache_hits() {
        // The full AutoCTS+ per-task search runs the comparator task-unaware
        // (prelim = None), so its task-cache counters are legitimately zero.
        // A task-aware run over repeated tasks is the regime the cache
        // exists for: the hold-out evaluation consults the pathway once per
        // comparison with only one distinct prelim per task, so after
        // pretraining the stats must show real hits, not a dead cache.
        let space = JointSpace::tiny();
        let cfg = PretrainConfig::test();
        let bank = tiny_bank(&cfg);
        let mut tahc = Tahc::new(TahcConfig::test(), space.hyper.clone(), 3);
        assert!(tahc.cfg.task_aware, "fixture must exercise the task pathway");
        let report = pretrain_tahc(&mut tahc, &bank, &cfg);
        assert!(report.holdout_accuracy.is_finite());
        let stats = tahc.task_cache_stats();
        assert!(
            stats.hits > 0,
            "repeated-task evaluation must hit the task-pathway cache: {stats:?}"
        );
        assert!(
            stats.misses <= bank.len(),
            "one distinct prelim per task allows at most one miss each: {stats:?}"
        );
        assert!(stats.hit_rate() > 0.0);
    }

    #[test]
    fn pretraining_improves_over_chance() {
        let space = JointSpace::tiny();
        let cfg = PretrainConfig { epochs: 8, ..PretrainConfig::test() };
        let bank = tiny_bank(&cfg);
        let mut tahc = Tahc::new(TahcConfig::test(), space.hyper.clone(), 0);
        let report = pretrain_tahc(&mut tahc, &bank, &cfg);
        assert_eq!(report.epoch_losses.len(), 8);
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
        // losses should generally decline
        let first = report.epoch_losses.first().unwrap();
        let last = report.epoch_losses.last().unwrap();
        assert!(last <= first, "{first} -> {last}");
    }
}
