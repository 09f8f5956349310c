//! The high-level `AutoCts` entry point: pre-train once, search anywhere.

use octs_comparator::{
    collect_labeled_bank, pretrain_tahc, PretrainConfig, PretrainReport, Tahc, TahcConfig,
    TaskEmbedConfig, TaskEmbedder, Ts2VecConfig,
};
use octs_data::ForecastTask;
use octs_model::TrainConfig;
use octs_search::{
    fidelity_ladder_search_with_pool, zero_shot_rank, zero_shot_search, AutoCtsPlusConfig,
    EvolveConfig, LadderConfig, LadderOutcome, SearchError, SearchOutcome, ZeroShotRank,
};
use octs_space::JointSpace;
use serde::{Deserialize, Serialize};

/// Top-level configuration of an [`AutoCts`] instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AutoCtsConfig {
    /// The joint search space.
    pub space: JointSpace,
    /// Comparator architecture.
    pub tahc: TahcConfig,
    /// Task-encoder configuration.
    pub ts2vec: Ts2VecConfig,
    /// Input features per time step the task encoder expects.
    pub input_dim: usize,
    /// Global seed.
    pub seed: u64,
}

impl AutoCtsConfig {
    /// CPU-scaled defaults used throughout this repository's experiments.
    pub fn scaled() -> Self {
        let tahc = TahcConfig::scaled();
        let ts2vec = Ts2VecConfig { dim: tahc.task.fprime, ..Ts2VecConfig::scaled() };
        Self { space: JointSpace::scaled(), tahc, ts2vec, input_dim: 1, seed: 0 }
    }

    /// Tiny defaults for tests and the quickstart example.
    pub fn test() -> Self {
        let tahc = TahcConfig::test();
        let ts2vec = Ts2VecConfig { dim: tahc.task.fprime, ..Ts2VecConfig::test() };
        Self { space: JointSpace::tiny(), tahc, ts2vec, input_dim: 1, seed: 0 }
    }
}

/// The AutoCTS++ system: a pre-trainable zero-shot searcher for CTS
/// forecasting models.
///
/// Typical lifecycle:
/// 1. [`AutoCts::new`] with a configuration;
/// 2. pre-train once on enriched source tasks (expensive, done offline in
///    the paper): [`AutoCts::pretrain`] in one go, or
///    [`AutoCts::pretrain_journaled`] / [`AutoCts::pretrain_bank_journaled`]
///    under a resumable journal that ends in an artifact
///    [`AutoCts::load_artifact`] restores — all three produce the same bits
///    on the same tasks;
/// 3. [`AutoCts::search`] on any number of *unseen* tasks — each search is
///    minutes, not GPU-hours, because only the top-K finalists are trained.
pub struct AutoCts {
    /// Configuration.
    pub cfg: AutoCtsConfig,
    /// The pre-trained comparator.
    pub tahc: Tahc,
    /// The frozen task embedder.
    pub embedder: TaskEmbedder,
    pretrained: bool,
}

impl AutoCts {
    /// Creates an untrained system.
    pub fn new(cfg: AutoCtsConfig) -> Self {
        let tahc = Tahc::new(cfg.tahc, cfg.space.hyper.clone(), cfg.seed);
        let embed_cfg = TaskEmbedConfig { seed: cfg.seed, ..cfg.tahc.task };
        let embedder = TaskEmbedder::new(embed_cfg, cfg.ts2vec, cfg.input_dim);
        Self { cfg, tahc, embedder, pretrained: false }
    }

    /// Whether [`AutoCts::pretrain`] has completed.
    pub fn is_pretrained(&self) -> bool {
        self.pretrained
    }

    /// Marks the system as pre-trained (used when restoring checkpoints).
    pub fn mark_pretrained(&mut self) {
        self.pretrained = true;
    }

    /// Pre-trains the full stack on source tasks (Algorithm 1): first the
    /// TS2Vec task encoder (self-supervised on the task datasets), then the
    /// early-validation labels, task by task, then the comparator with
    /// curriculum and dynamic pairing. The unjournaled form of
    /// [`AutoCts::pretrain_journaled`], built from the same primitives.
    pub fn pretrain(&mut self, tasks: Vec<ForecastTask>, cfg: &PretrainConfig) -> PretrainReport {
        assert!(!tasks.is_empty(), "pretraining needs at least one task");
        let datasets: Vec<&octs_data::CtsData> = tasks.iter().map(|t| &t.data).collect();
        self.embedder.pretrain_encoder(&datasets);
        let stream = tasks.into_iter().enumerate();
        let bank = collect_labeled_bank(stream, &mut self.embedder, &self.cfg.space, cfg);
        let report = pretrain_tahc(&mut self.tahc, &bank, cfg);
        self.pretrained = true;
        report
    }

    /// Zero-shot search on an unseen task (Algorithm 2).
    pub fn search(
        &mut self,
        task: &ForecastTask,
        evolve_cfg: &EvolveConfig,
        train_cfg: &TrainConfig,
    ) -> SearchOutcome {
        zero_shot_search(
            &self.tahc,
            &mut self.embedder,
            task,
            &self.cfg.space,
            evolve_cfg,
            train_cfg,
        )
    }

    /// The rank-only prefix of Algorithm 2: embeds the unseen task and
    /// returns the comparator-ranked shortlist without training anything.
    /// This is the sub-second operation a pre-trained artifact
    /// ([`AutoCts::load_artifact`]) exists to serve.
    pub fn rank(&mut self, task: &ForecastTask, evolve_cfg: &EvolveConfig) -> ZeroShotRank {
        zero_shot_rank(&self.tahc, &mut self.embedder, task, &self.cfg.space, evolve_cfg)
    }

    /// Zero-shot search through the successive-halving fidelity ladder, with
    /// this system's pre-trained T-AHC (plus the task's preliminary
    /// embedding) as the stage-0 screener — the ladder's cheapest rung costs
    /// no training at all when a pre-trained comparator is available.
    pub fn search_laddered(
        &mut self,
        task: &ForecastTask,
        plus_cfg: &AutoCtsPlusConfig,
        ladder: &LadderConfig,
    ) -> Result<LadderOutcome, SearchError> {
        use rand::SeedableRng;
        let prelim = self.embedder.preliminary(task);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(plus_cfg.seed);
        let pool = self.cfg.space.sample_distinct(ladder.pool, &mut rng);
        fidelity_ladder_search_with_pool(
            task,
            &self.cfg.space,
            plus_cfg,
            ladder,
            pool,
            Some((&self.tahc, Some(&prelim))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octs_data::{DatasetProfile, Domain, ForecastSetting};

    fn tasks(n: usize) -> Vec<ForecastTask> {
        (0..n)
            .map(|i| {
                let p = DatasetProfile::custom(
                    &format!("src{i}"),
                    Domain::Traffic,
                    3,
                    180,
                    24,
                    0.3,
                    0.1,
                    10.0,
                    60 + i as u64,
                );
                ForecastTask::new(p.generate(0), ForecastSetting::multi(4, 2), 0.6, 0.2, 2)
            })
            .collect()
    }

    #[test]
    fn config_presets_are_consistent() {
        for cfg in [AutoCtsConfig::scaled(), AutoCtsConfig::test()] {
            // the task encoder's output width must match the pooling input
            assert_eq!(cfg.ts2vec.dim, cfg.tahc.task.fprime);
            assert!(cfg.input_dim >= 1);
            assert!(cfg.space.hyper.cardinality() > 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn pretrain_rejects_empty_task_list() {
        let mut sys = AutoCts::new(AutoCtsConfig::test());
        sys.pretrain(Vec::new(), &PretrainConfig::test());
    }

    #[test]
    fn lifecycle_pretrain_then_search() {
        let mut sys = AutoCts::new(AutoCtsConfig::test());
        assert!(!sys.is_pretrained());
        let report = sys.pretrain(tasks(2), &PretrainConfig::test());
        assert!(sys.is_pretrained());
        assert!(!report.epoch_losses.is_empty());

        let target = {
            let p = DatasetProfile::custom("tgt", Domain::Traffic, 3, 180, 24, 0.3, 0.1, 10.0, 99);
            ForecastTask::new(p.generate(0), ForecastSetting::multi(4, 2), 0.6, 0.2, 2)
        };
        let evolve = EvolveConfig { k_s: 10, generations: 1, top_k: 1, ..EvolveConfig::test() };
        let out = sys.search(&target, &evolve, &TrainConfig::test());
        assert!(out.best_report.best_val_mae.is_finite());
    }
}
