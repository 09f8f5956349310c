//! The original **AutoCTS+** (SIGMOD 2023) per-task search: train a plain
//! (non-task-aware) Architecture-Hyperparameter Comparator *for one target
//! task* from early-validation labels collected on that task, then use it to
//! rank the joint space and train the top-K finalists.
//!
//! This is the fully-supervised predecessor of the zero-shot pipeline: it
//! needs no pre-training corpus, but pays the label-collection cost again
//! for every new task — the cost AutoCTS++ amortizes away (compare
//! [`crate::zeroshot::zero_shot_search`]).

use crate::error::SearchError;
use crate::evolve::EvolveConfig;
use crate::fidelity::promote_by_score;
use crate::stages::{label_units, rank_and_train, validate};
use octs_comparator::TahcConfig;
use octs_data::ForecastTask;
use octs_model::{TrainConfig, TrainReport};
use octs_space::{ArchHyper, JointSpace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

/// Configuration of the per-task AutoCTS+ search.
#[derive(Debug, Clone)]
pub struct AutoCtsPlusConfig {
    /// Number of arch-hypers labelled with the early-validation proxy
    /// (the paper's `(ah, R'(ah))` sample budget).
    pub num_labeled: usize,
    /// Early-validation (k-epoch) training configuration.
    pub label_cfg: TrainConfig,
    /// Comparator architecture (forced non-task-aware).
    pub comparator: TahcConfig,
    /// Comparator training epochs over the dynamically-paired samples.
    pub comparator_epochs: usize,
    /// Evolutionary-search settings for the ranking stage.
    pub evolve: EvolveConfig,
    /// Final training of the top-K candidates.
    pub final_cfg: TrainConfig,
    /// Seed.
    pub seed: u64,
}

impl AutoCtsPlusConfig {
    /// CPU-scaled defaults.
    pub fn scaled() -> Self {
        Self {
            num_labeled: 16,
            label_cfg: TrainConfig::early_validation(),
            comparator: TahcConfig { task_aware: false, ..TahcConfig::scaled() },
            comparator_epochs: 40,
            evolve: EvolveConfig::scaled(),
            final_cfg: TrainConfig::standard(),
            seed: 0,
        }
    }

    /// Tiny defaults for tests.
    pub fn test() -> Self {
        Self {
            num_labeled: 6,
            label_cfg: TrainConfig::test(),
            comparator: TahcConfig { task_aware: false, ..TahcConfig::test() },
            comparator_epochs: 10,
            evolve: EvolveConfig::test(),
            final_cfg: TrainConfig::test(),
            seed: 0,
        }
    }
}

/// Outcome of an AutoCTS+ search, with its cost breakdown.
#[derive(Debug)]
pub struct AutoCtsPlusOutcome {
    /// The selected arch-hyper.
    pub best: ArchHyper,
    /// Training report of the winner.
    pub best_report: TrainReport,
    /// Labelled candidates that diverged or panicked and were excluded from
    /// comparator training (empty on a healthy run).
    pub quarantined: Vec<ArchHyper>,
    /// Wall-clock spent collecting `(ah, R')` labels — the per-task cost
    /// zero-shot search eliminates.
    pub label_time: Duration,
    /// Wall-clock spent training the comparator.
    pub comparator_time: Duration,
    /// Wall-clock spent ranking + training finalists.
    pub search_time: Duration,
}

/// Runs the AutoCTS+ pipeline on a single task, sampling `cfg.num_labeled`
/// candidates from the joint space. Degenerate inputs (zero budgets, a
/// windowless task, an all-quarantined pool) come back as typed
/// [`SearchError`]s instead of panics.
pub fn autocts_plus_search(
    task: &ForecastTask,
    space: &JointSpace,
    cfg: &AutoCtsPlusConfig,
) -> Result<AutoCtsPlusOutcome, SearchError> {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let candidates = space.sample_distinct(cfg.num_labeled, &mut rng);
    autocts_plus_search_with_pool(task, space, cfg, candidates)
}

/// Runs the AutoCTS+ pipeline over an explicit candidate pool.
///
/// Every stage downstream of labelling consumes only the *healthy* labelled
/// candidates — in a canonical order independent of how the pool was
/// arranged — and all RNG streams are derived from fixed salts rather than
/// threaded through the pool. Two consequences, both enforced by tests: a
/// run where faulty candidates get quarantined produces byte-identical
/// comparator parameters (and therefore an identical winner) to a run handed
/// the healthy subset directly, and permuting the pool (or changing
/// `RAYON_NUM_THREADS`) leaves the winner byte-identical too.
pub fn autocts_plus_search_with_pool(
    task: &ForecastTask,
    space: &JointSpace,
    cfg: &AutoCtsPlusConfig,
    pool: Vec<ArchHyper>,
) -> Result<AutoCtsPlusOutcome, SearchError> {
    if cfg.num_labeled == 0 {
        return Err(SearchError::ZeroBudget { what: "num_labeled" });
    }
    validate(task, cfg, &pool)?;

    // 1. Collect (ah, R'(ah)) samples on THIS task (Eq. 22); candidate `i`
    //    of the pool is labelling unit `i`.
    let t0 = Instant::now();
    let obs_label = octs_obs::span_detail("phase.label", pool.len().to_string());
    let labeled = label_units(task, &cfg.label_cfg, (0..).zip(&pool));
    let quarantined: Vec<ArchHyper> =
        labeled.iter().filter(|l| l.quarantined).map(|l| l.ah.clone()).collect();
    // Canonical ordering: every stage downstream consumes the healthy
    // candidates sorted by (score bits, fingerprint) — a key independent of
    // the pool's arrival order — so permuting the candidate pool leaves the
    // comparator's training pair stream, and therefore the winner,
    // byte-identical (the testkit property suite enforces this).
    let healthy = promote_by_score(&labeled.iter().collect::<Vec<_>>(), usize::MAX);
    octs_obs::counter("search.pool", pool.len() as u64);
    octs_obs::counter("search.quarantined", quarantined.len() as u64);
    drop(obs_label);
    let label_time = t0.elapsed();

    // 2. Train the plain AHC on the healthy labels (one fidelity group),
    //    rank the joint space with it and train the top-K.
    let tail = rank_and_train(task, space, cfg, 0xC3A7, &[&healthy])?;
    Ok(AutoCtsPlusOutcome {
        best: tail.best,
        best_report: tail.best_report,
        quarantined,
        label_time,
        comparator_time: tail.comparator_time,
        search_time: tail.search_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use octs_data::{DatasetProfile, Domain, ForecastSetting};

    fn task() -> ForecastTask {
        let p = DatasetProfile::custom("acp", Domain::Traffic, 4, 220, 24, 0.3, 0.1, 10.0, 23);
        ForecastTask::new(p.generate(0), ForecastSetting::multi(4, 2), 0.6, 0.2, 2)
    }

    #[test]
    fn end_to_end_per_task_search() {
        let t = task();
        let cfg = AutoCtsPlusConfig::test();
        let out = autocts_plus_search(&t, &JointSpace::tiny(), &cfg).unwrap();
        assert!(out.best_report.best_val_mae.is_finite());
        assert_eq!(out.best.arch.c(), out.best.hyper.c);
        assert!(out.quarantined.is_empty());
        assert!(out.label_time > Duration::ZERO);
        assert!(out.search_time > Duration::ZERO);
    }

    #[test]
    fn label_cost_dominates_for_larger_budgets() {
        // The structural claim behind zero-shot search: per-task labelling is
        // the expensive phase and scales with the sample budget.
        let t = task();
        let small = AutoCtsPlusConfig { num_labeled: 3, ..AutoCtsPlusConfig::test() };
        let large = AutoCtsPlusConfig { num_labeled: 9, ..AutoCtsPlusConfig::test() };
        let o1 = autocts_plus_search(&t, &JointSpace::tiny(), &small).unwrap();
        let o2 = autocts_plus_search(&t, &JointSpace::tiny(), &large).unwrap();
        assert!(
            o2.label_time > o1.label_time,
            "labelling 9 candidates must cost more than 3 ({:?} vs {:?})",
            o2.label_time,
            o1.label_time
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let t = task();
        let cfg = AutoCtsPlusConfig::test();
        let a = autocts_plus_search(&t, &JointSpace::tiny(), &cfg).unwrap();
        let b = autocts_plus_search(&t, &JointSpace::tiny(), &cfg).unwrap();
        assert_eq!(a.best, b.best);
    }

    #[test]
    fn degenerate_inputs_return_typed_errors() {
        let t = task();
        let space = JointSpace::tiny();
        let zero_labels = AutoCtsPlusConfig { num_labeled: 0, ..AutoCtsPlusConfig::test() };
        assert_eq!(
            autocts_plus_search(&t, &space, &zero_labels).unwrap_err(),
            SearchError::ZeroBudget { what: "num_labeled" }
        );
        let mut zero_top = AutoCtsPlusConfig::test();
        zero_top.evolve.top_k = 0;
        assert_eq!(
            autocts_plus_search(&t, &space, &zero_top).unwrap_err(),
            SearchError::ZeroBudget { what: "evolve.top_k" }
        );
        let mut zero_ks = AutoCtsPlusConfig::test();
        zero_ks.evolve.k_s = 0;
        assert_eq!(
            autocts_plus_search(&t, &space, &zero_ks).unwrap_err(),
            SearchError::ZeroBudget { what: "evolve.k_s" }
        );
        assert_eq!(
            autocts_plus_search_with_pool(&t, &space, &AutoCtsPlusConfig::test(), Vec::new())
                .unwrap_err(),
            SearchError::EmptyCandidatePool
        );
        // A split carved so thin it holds no full window must be rejected
        // up front, not panic inside the trainer.
        let p = DatasetProfile::custom("thin", Domain::Traffic, 4, 220, 24, 0.3, 0.1, 10.0, 23);
        let thin = ForecastTask::new(p.generate(0), ForecastSetting::multi(4, 2), 0.01, 0.9, 2);
        assert!(matches!(
            autocts_plus_search(&thin, &space, &AutoCtsPlusConfig::test()),
            Err(SearchError::InsufficientWindows { .. })
        ));
    }

    #[test]
    fn quarantine_leaves_winner_identical_to_healthy_pool_run() {
        // The acceptance property: with one NaN-diverging and one panicking
        // candidate in the pool, the search must complete, quarantine
        // exactly those two, and select the byte-identical winner a run
        // given only the healthy candidates selects.
        let t = task();
        let space = JointSpace::tiny();
        let cfg = AutoCtsPlusConfig::test();
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let pool = space.sample_distinct(6, &mut rng);
        let healthy_pool: Vec<ArchHyper> = pool
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 1 && *i != 3)
            .map(|(_, ah)| ah.clone())
            .collect();

        let reference = autocts_plus_search_with_pool(&t, &space, &cfg, healthy_pool).unwrap();

        let _scope = octs_obs::fault::FaultScope::activate(
            octs_obs::fault::FaultPlan::new().nan_loss(1, 0).panic_unit(3),
        );
        let faulted = autocts_plus_search_with_pool(&t, &space, &cfg, pool.clone()).unwrap();

        assert_eq!(faulted.quarantined, vec![pool[1].clone(), pool[3].clone()]);
        assert_eq!(faulted.best, reference.best);
        assert_eq!(
            faulted.best_report.best_val_mae.to_bits(),
            reference.best_report.best_val_mae.to_bits(),
            "winner's training must be byte-identical"
        );
        assert!(reference.quarantined.is_empty());
    }

    #[test]
    fn recorder_on_run_matches_recorder_off_run_exactly() {
        // Observability must be purely observational: attaching a recorder
        // cannot perturb RNG streams, ranking order, or training, so the
        // winner (and its val MAE, bit for bit) must match a recorder-off
        // run. Meanwhile the trace itself must cover the pipeline phases.
        let t = task();
        let space = JointSpace::tiny();
        let cfg = AutoCtsPlusConfig::test();

        let plain = autocts_plus_search(&t, &space, &cfg).unwrap();

        let rec = octs_obs::Recorder::new();
        let scope = octs_obs::ObsScope::activate(&rec);
        let traced = autocts_plus_search(&t, &space, &cfg).unwrap();
        drop(scope);

        assert_eq!(traced.best, plain.best, "recorder must not change the winner");
        assert_eq!(
            traced.best_report.best_val_mae.to_bits(),
            plain.best_report.best_val_mae.to_bits(),
            "recorder must not perturb training"
        );

        let summary = rec.summary();
        for span in ["phase.label", "phase.pretrain", "phase.rank", "phase.final_train"] {
            assert!(summary.span_total_us(span) > 0, "missing span {span}");
        }
        assert_eq!(summary.counter("search.pool"), cfg.num_labeled as u64);
        assert_eq!(summary.counter("search.quarantined"), 0);
        assert!(summary.counter("rank.matches") > 0, "ranking must record matches");
        let cache_lookups =
            summary.counter("rank.embed_cache.hits") + summary.counter("rank.embed_cache.misses");
        assert!(cache_lookups > 0, "ranking must record embedding-cache traffic");
        // NDJSON round-trips through the parser.
        let lines = octs_obs::parse_ndjson(&rec.ndjson()).unwrap();
        assert!(!lines.is_empty());
    }

    #[test]
    fn all_quarantined_pool_is_a_typed_error() {
        let t = task();
        let space = JointSpace::tiny();
        let cfg = AutoCtsPlusConfig::test();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let pool = space.sample_distinct(2, &mut rng);
        let _scope = octs_obs::fault::FaultScope::activate(
            octs_obs::fault::FaultPlan::new().panic_unit(0).panic_unit(1),
        );
        assert_eq!(
            autocts_plus_search_with_pool(&t, &space, &cfg, pool).unwrap_err(),
            SearchError::AllCandidatesQuarantined
        );
    }
}
