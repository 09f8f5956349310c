//! Multi-fidelity successive-halving labelling for the per-task AutoCTS+
//! pipeline.
//!
//! The plain pipeline (see [`crate::autocts_plus`]) pays full k-epoch proxy
//! training for *every* sampled candidate before the comparator ever sees a
//! pair. AutoTS's two-stage pruning and the multi-fidelity optimization
//! surveyed in Efficient AutoDL both show the same cheaper recipe: evaluate
//! coarse fidelities first and promote only survivors. The ladder here has
//! three rungs:
//!
//! * **stage 0 — screen**: rank the whole candidate pool with
//!   comparator-only inference (no training at all; a pretrained comparator
//!   can be supplied to make the screen informed — the zero-shot reuse);
//! * **stage 1 — proxy**: train the survivors with a 1-epoch (configurable)
//!   early-validation proxy;
//! * **stage 2 — full**: give the finalists the full k-epoch
//!   early-validation labels the plain pipeline gives everyone.
//!
//! The comparator is then trained on the labels the ladder actually paid
//! for — full-fidelity finalist labels plus the proxy labels of pruned
//! stage-1 survivors, paired only *within* a fidelity group because scores
//! from different budgets are not comparable — and the rest of the pipeline
//! (evolutionary ranking, finalist training) is unchanged.
//!
//! Determinism: the pool is canonicalized by fingerprint before anything
//! runs, promotion quotas are fixed numbers applied to canonically-sorted
//! score vectors, and every candidate keeps a private labelling unit id
//! derived from its canonical pool position — so the winner, and every
//! per-stage survivor set, is byte-identical under any `RAYON_NUM_THREADS`
//! and any permutation of the input pool (golden-run + property tests pin
//! both).

use crate::autocts_plus::AutoCtsPlusConfig;
use crate::error::SearchError;
use crate::rank::tournament_rank;
use crate::stages::{label_units, rank_and_train, validate};
use octs_comparator::{LabeledAh, Tahc, TahcConfig};
use octs_data::ForecastTask;
use octs_model::{TrainConfig, TrainReport};
use octs_space::{ArchHyper, JointSpace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Fixed promotion quotas and per-stage budgets of the successive-halving
/// ladder. Quotas must shrink monotonically (`pool ≥ stage1 ≥ stage2 ≥ 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LadderConfig {
    /// Stage-0 screening pool size (candidates sampled from the space).
    pub pool: usize,
    /// Survivors promoted out of the comparator-only screen into the cheap
    /// proxy stage.
    pub stage1: usize,
    /// Finalists promoted out of the proxy stage into full-fidelity
    /// labelling.
    pub stage2: usize,
    /// Epochs of the stage-1 cheap proxy (the ladder's low fidelity; the
    /// high fidelity is `AutoCtsPlusConfig::label_cfg.epochs`).
    pub proxy_epochs: usize,
    /// Opponents per candidate in the stage-0 screening tournament.
    pub screen_rounds: usize,
}

impl LadderConfig {
    /// CPU-scaled defaults: screen 32, proxy 8, fully label 3.
    pub fn scaled() -> Self {
        Self { pool: 32, stage1: 8, stage2: 3, proxy_epochs: 1, screen_rounds: 3 }
    }

    /// Tiny defaults for tests.
    pub fn test() -> Self {
        Self { pool: 10, stage1: 5, stage2: 3, proxy_epochs: 1, screen_rounds: 2 }
    }

    /// Validates budgets and quota monotonicity.
    pub fn validate(&self) -> Result<(), SearchError> {
        for (value, what) in [
            (self.pool, "ladder.pool"),
            (self.stage1, "ladder.stage1"),
            (self.stage2, "ladder.stage2"),
            (self.proxy_epochs, "ladder.proxy_epochs"),
            (self.screen_rounds, "ladder.screen_rounds"),
        ] {
            if value == 0 {
                return Err(SearchError::ZeroBudget { what });
            }
        }
        if self.stage1 > self.pool {
            return Err(SearchError::LadderQuotaNotMonotone { what: "stage1 > pool" });
        }
        if self.stage2 > self.stage1 {
            return Err(SearchError::LadderQuotaNotMonotone { what: "stage2 > stage1" });
        }
        Ok(())
    }

    /// Nominal label-training cost of the ladder in training epochs,
    /// assuming no quarantine: `stage1 · proxy_epochs + stage2 · full`.
    pub fn label_epochs(&self, full_epochs: usize) -> usize {
        self.stage1 * self.proxy_epochs + self.stage2 * full_epochs
    }
}

/// What one ladder rung evaluated, promoted, and paid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageReport {
    /// `"screen"`, `"proxy"` or `"full"`.
    pub stage: String,
    /// Candidates evaluated at this rung.
    pub evaluated: usize,
    /// Candidates promoted to the next rung (for `"full"`: healthy labelled
    /// finalists).
    pub promoted: usize,
    /// Candidates quarantined at this rung (panicked or diverged).
    pub quarantined: usize,
    /// Label-training epochs paid at this rung (0 for the screen).
    pub train_epochs: usize,
    /// Wall-clock spent on this rung, seconds.
    pub secs: f64,
}

/// Outcome of a fidelity-ladder search, with its per-stage cost breakdown.
#[derive(Debug)]
pub struct LadderOutcome {
    /// The selected arch-hyper.
    pub best: ArchHyper,
    /// Training report of the winner.
    pub best_report: TrainReport,
    /// Per-rung evaluation/promotion/cost reports, in ladder order.
    pub stages: Vec<StageReport>,
    /// Fingerprints of the candidates promoted out of each rung, in
    /// promotion order (deterministic; snapshotted by the golden harness).
    pub survivors: Vec<Vec<u64>>,
    /// Candidates quarantined at any rung.
    pub quarantined: Vec<ArchHyper>,
    /// Healthy stage-1 proxy labels (cheap fidelity).
    pub proxy_labeled: Vec<LabeledAh>,
    /// Healthy stage-2 full-fidelity labels.
    pub full_labeled: Vec<LabeledAh>,
    /// Total label-training epochs actually paid.
    pub label_epochs: usize,
    /// Wall-clock of stages 0–2 (the labelling the ladder makes cheap).
    pub label_time: Duration,
    /// Wall-clock training the comparator on the collected labels.
    pub comparator_time: Duration,
    /// Wall-clock ranking the space + training finalists.
    pub search_time: Duration,
}

/// Deterministic promotion used by every rung that has numeric scores (and
/// by the zero-shot finalist ladder): healthy candidates sorted by `(score
/// bits ascending, fingerprint)` — lower early-validation score is better —
/// and the first `quota` promoted. The sort key is independent of arrival
/// order, so promotion is invariant under pool permutation and thread count.
pub fn promote_by_score<'a>(labeled: &[&'a LabeledAh], quota: usize) -> Vec<&'a LabeledAh> {
    let mut healthy: Vec<&LabeledAh> = labeled.iter().copied().filter(|l| !l.quarantined).collect();
    healthy.sort_by_key(|l| (l.score.to_bits(), l.ah.fingerprint()));
    healthy.truncate(quota);
    healthy
}

/// Unit-id offset of stage-2 (full-fidelity) labelling, so fault plans can
/// target a candidate's cheap and full trainings independently: stage 1
/// labels candidate `i` (canonical pool position) as unit `i`, stage 2 as
/// unit `FULL_FIDELITY_UNIT_BASE + i`.
pub const FULL_FIDELITY_UNIT_BASE: u64 = 1 << 20;

/// Runs the successive-halving AutoCTS+ search, sampling `ladder.pool`
/// candidates from the joint space (the `num_labeled` knob of `cfg` is
/// ignored — the ladder's quotas replace it).
pub fn fidelity_ladder_search(
    task: &ForecastTask,
    space: &JointSpace,
    cfg: &AutoCtsPlusConfig,
    ladder: &LadderConfig,
) -> Result<LadderOutcome, SearchError> {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let pool = space.sample_distinct(ladder.pool, &mut rng);
    fidelity_ladder_search_with_pool(task, space, cfg, ladder, pool, None)
}

/// [`fidelity_ladder_search`] over an explicit candidate pool, optionally
/// screening with a supplied (typically pretrained, zero-shot) comparator
/// and its preliminary task embedding instead of a fresh seed-initialized
/// one.
pub fn fidelity_ladder_search_with_pool(
    task: &ForecastTask,
    space: &JointSpace,
    cfg: &AutoCtsPlusConfig,
    ladder: &LadderConfig,
    mut pool: Vec<ArchHyper>,
    screener: Option<(&Tahc, Option<&octs_tensor::Tensor>)>,
) -> Result<LadderOutcome, SearchError> {
    ladder.validate()?;
    validate(task, cfg, &pool)?;
    // Canonical pool order: every per-candidate RNG stream and labelling
    // unit id attaches to the candidate's position in this fingerprint-sorted
    // order, so permuting the input pool changes nothing downstream.
    pool.sort_by_key(|ah| ah.fingerprint());
    pool.dedup_by_key(|ah| ah.fingerprint());

    let full_epochs = cfg.label_cfg.epochs;
    let mut stages = Vec::with_capacity(3);
    let mut survivors = Vec::with_capacity(3);
    let mut quarantined: Vec<ArchHyper> = Vec::new();
    let label_t0 = Instant::now();

    // --- stage 0: comparator-only screen (no training) --------------------
    let t = Instant::now();
    let obs_screen = octs_obs::span_detail("phase.screen", pool.len().to_string());
    let fresh_screener;
    let (screen_tahc, prelim) = match screener {
        Some((tahc, prelim)) => (tahc, prelim),
        None => {
            fresh_screener = Tahc::new(
                TahcConfig { task_aware: false, ..cfg.comparator },
                space.hyper.clone(),
                cfg.seed ^ 0x5C12,
            );
            (&fresh_screener, None)
        }
    };
    let screen =
        tournament_rank(screen_tahc, prelim, &pool, ladder.screen_rounds, cfg.seed ^ 0x5C12);
    let healthy_screened = pool.len() - screen.quarantined.len();
    let stage1_idx: Vec<usize> =
        screen.order.iter().copied().take(ladder.stage1.min(healthy_screened)).collect();
    quarantined.extend(screen.quarantined.iter().map(|&i| pool[i].clone()));
    drop(obs_screen);
    survivors.push(stage1_idx.iter().map(|&i| pool[i].fingerprint()).collect::<Vec<u64>>());
    stages.push(StageReport {
        stage: "screen".to_string(),
        evaluated: pool.len(),
        promoted: stage1_idx.len(),
        quarantined: screen.quarantined.len(),
        train_epochs: 0,
        secs: t.elapsed().as_secs_f64(),
    });
    if stage1_idx.is_empty() {
        return Err(SearchError::AllCandidatesQuarantined);
    }

    // --- stage 1: cheap proxy labels ---------------------------------------
    let t = Instant::now();
    let obs_proxy = octs_obs::span_detail("phase.proxy", stage1_idx.len().to_string());
    let proxy_cfg = TrainConfig { epochs: ladder.proxy_epochs, ..cfg.label_cfg.clone() };
    let proxy_labeled =
        label_units(task, &proxy_cfg, stage1_idx.iter().map(|&i| (i as u64, &pool[i])));
    quarantined.extend(proxy_labeled.iter().filter(|l| l.quarantined).map(|l| l.ah.clone()));
    let proxy_refs: Vec<&LabeledAh> = proxy_labeled.iter().collect();
    let stage2_promoted = promote_by_score(&proxy_refs, ladder.stage2);
    let proxy_quarantined = proxy_labeled.iter().filter(|l| l.quarantined).count();
    drop(obs_proxy);
    survivors.push(stage2_promoted.iter().map(|l| l.ah.fingerprint()).collect::<Vec<u64>>());
    stages.push(StageReport {
        stage: "proxy".to_string(),
        evaluated: stage1_idx.len(),
        promoted: stage2_promoted.len(),
        quarantined: proxy_quarantined,
        train_epochs: stage1_idx.len() * ladder.proxy_epochs,
        secs: t.elapsed().as_secs_f64(),
    });
    if stage2_promoted.is_empty() {
        return Err(SearchError::AllCandidatesQuarantined);
    }

    // --- stage 2: full-fidelity labels for the finalists -------------------
    let t = Instant::now();
    let obs_full = octs_obs::span_detail("phase.full_label", stage2_promoted.len().to_string());
    // Stable unit ids: recover each finalist's canonical pool position.
    let full_labeled = label_units(
        task,
        &cfg.label_cfg,
        stage2_promoted.iter().map(|l| {
            let fp = l.ah.fingerprint();
            let pos = pool
                .iter()
                .position(|ah| ah.fingerprint() == fp)
                .expect("finalist came from the pool");
            (FULL_FIDELITY_UNIT_BASE + pos as u64, &l.ah)
        }),
    );
    quarantined.extend(full_labeled.iter().filter(|l| l.quarantined).map(|l| l.ah.clone()));
    let full_quarantined = full_labeled.iter().filter(|l| l.quarantined).count();
    let full_healthy = promote_by_score(&full_labeled.iter().collect::<Vec<_>>(), usize::MAX);
    drop(obs_full);
    survivors.push(full_healthy.iter().map(|l| l.ah.fingerprint()).collect::<Vec<u64>>());
    stages.push(StageReport {
        stage: "full".to_string(),
        evaluated: stage2_promoted.len(),
        promoted: full_healthy.len(),
        quarantined: full_quarantined,
        train_epochs: stage2_promoted.len() * full_epochs,
        secs: t.elapsed().as_secs_f64(),
    });
    let label_epochs = stage1_idx.len() * ladder.proxy_epochs + stage2_promoted.len() * full_epochs;
    octs_obs::counter("ladder.label_epochs", label_epochs as u64);
    let label_time = label_t0.elapsed();

    // --- comparator, ranking and finalists on everything the ladder paid for
    // Group 0: full-fidelity finalist labels. Group 1: proxy labels of the
    // stage-1 survivors that were *not* promoted (their cheap signal is
    // still real ordering information). Pairs never cross groups.
    let promoted_fps: Vec<u64> = stage2_promoted.iter().map(|l| l.ah.fingerprint()).collect();
    let proxy_rest = promote_by_score(
        &proxy_refs
            .into_iter()
            .filter(|l| !promoted_fps.contains(&l.ah.fingerprint()))
            .collect::<Vec<_>>(),
        usize::MAX,
    );
    let tail = rank_and_train(task, space, cfg, 0xF1DE, &[&full_healthy, &proxy_rest])?;

    let proxy_labeled = proxy_labeled.into_iter().filter(|l| !l.quarantined).collect();
    let full_labeled = full_labeled.into_iter().filter(|l| !l.quarantined).collect();
    Ok(LadderOutcome {
        best: tail.best,
        best_report: tail.best_report,
        stages,
        survivors,
        quarantined,
        proxy_labeled,
        full_labeled,
        label_epochs,
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
        let p = DatasetProfile::custom("ladder", Domain::Traffic, 4, 220, 24, 0.3, 0.1, 10.0, 23);
        ForecastTask::new(p.generate(0), ForecastSetting::multi(4, 2), 0.6, 0.2, 2)
    }

    #[test]
    fn ladder_end_to_end_and_cost_accounting() {
        let t = task();
        let cfg = AutoCtsPlusConfig::test();
        let ladder = LadderConfig::test();
        let out = fidelity_ladder_search(&t, &JointSpace::tiny(), &cfg, &ladder).unwrap();
        assert!(out.best_report.best_val_mae.is_finite());
        assert_eq!(out.stages.len(), 3);
        assert_eq!(out.survivors.len(), 3);
        assert!(out.quarantined.is_empty());
        // Quotas applied exactly on a healthy run.
        assert_eq!(out.stages[0].evaluated, ladder.pool);
        assert_eq!(out.stages[0].promoted, ladder.stage1);
        assert_eq!(out.stages[1].promoted, ladder.stage2);
        assert_eq!(out.stages[0].train_epochs, 0, "the screen must not train anything");
        assert_eq!(
            out.label_epochs,
            ladder.label_epochs(cfg.label_cfg.epochs),
            "paid epochs must match the nominal quota cost on a healthy run"
        );
        // The ladder must be cheaper than full fidelity for everyone.
        assert!(out.label_epochs < ladder.pool * cfg.label_cfg.epochs);
        assert_eq!(out.proxy_labeled.len(), ladder.stage1);
        assert_eq!(out.full_labeled.len(), ladder.stage2);
    }

    #[test]
    fn ladder_is_deterministic_given_seed() {
        let t = task();
        let cfg = AutoCtsPlusConfig::test();
        let ladder = LadderConfig::test();
        let a = fidelity_ladder_search(&t, &JointSpace::tiny(), &cfg, &ladder).unwrap();
        let b = fidelity_ladder_search(&t, &JointSpace::tiny(), &cfg, &ladder).unwrap();
        assert_eq!(a.best, b.best);
        assert_eq!(a.survivors, b.survivors);
        assert_eq!(
            a.best_report.best_val_mae.to_bits(),
            b.best_report.best_val_mae.to_bits(),
            "winner training must be byte-identical"
        );
    }

    #[test]
    fn ladder_is_invariant_under_pool_permutation() {
        let t = task();
        let space = JointSpace::tiny();
        let cfg = AutoCtsPlusConfig::test();
        let ladder = LadderConfig::test();
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let pool = space.sample_distinct(ladder.pool, &mut rng);
        let reference =
            fidelity_ladder_search_with_pool(&t, &space, &cfg, &ladder, pool.clone(), None)
                .unwrap();
        let mut reversed = pool.clone();
        reversed.reverse();
        let permuted =
            fidelity_ladder_search_with_pool(&t, &space, &cfg, &ladder, reversed, None).unwrap();
        assert_eq!(permuted.best, reference.best);
        assert_eq!(permuted.survivors, reference.survivors);
    }

    #[test]
    fn ladder_quota_validation() {
        let bad = LadderConfig { stage1: 11, pool: 10, ..LadderConfig::test() };
        assert_eq!(
            bad.validate().unwrap_err(),
            SearchError::LadderQuotaNotMonotone { what: "stage1 > pool" }
        );
        let bad = LadderConfig { stage2: 6, stage1: 5, ..LadderConfig::test() };
        assert_eq!(
            bad.validate().unwrap_err(),
            SearchError::LadderQuotaNotMonotone { what: "stage2 > stage1" }
        );
        let bad = LadderConfig { proxy_epochs: 0, ..LadderConfig::test() };
        assert_eq!(
            bad.validate().unwrap_err(),
            SearchError::ZeroBudget { what: "ladder.proxy_epochs" }
        );
        let t = task();
        assert_eq!(
            fidelity_ladder_search_with_pool(
                &t,
                &JointSpace::tiny(),
                &AutoCtsPlusConfig::test(),
                &LadderConfig::test(),
                Vec::new(),
                None,
            )
            .unwrap_err(),
            SearchError::EmptyCandidatePool
        );
    }

    #[test]
    fn quarantined_proxy_candidate_never_promoted() {
        // Inject a NaN divergence into stage-1 unit 0 (the candidate at
        // canonical pool position 0, if screened in): whatever candidate that
        // is must be quarantined and absent from every later survivor set.
        let t = task();
        let space = JointSpace::tiny();
        let cfg = AutoCtsPlusConfig::test();
        let ladder = LadderConfig { stage1: 10, ..LadderConfig::test() };

        let reference = fidelity_ladder_search(&t, &space, &cfg, &ladder).unwrap();
        assert!(reference.quarantined.is_empty());
        let victim_fp = reference.survivors[0][0]; // promoted by the screen
                                                   // Find the victim's canonical pool position = its stage-1 unit id.
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut pool = space.sample_distinct(ladder.pool, &mut rng);
        pool.sort_by_key(|ah| ah.fingerprint());
        let victim_unit = pool.iter().position(|ah| ah.fingerprint() == victim_fp).unwrap() as u64;

        let _scope = octs_obs::fault::FaultScope::activate(
            octs_obs::fault::FaultPlan::new().nan_loss(victim_unit, 0),
        );
        let faulted = fidelity_ladder_search(&t, &space, &cfg, &ladder).unwrap();
        assert_eq!(
            faulted.quarantined.iter().map(|ah| ah.fingerprint()).collect::<Vec<_>>(),
            vec![victim_fp]
        );
        assert!(
            !faulted.survivors[1].contains(&victim_fp),
            "a quarantined proxy candidate must not be promoted to full fidelity"
        );
        assert!(!faulted.survivors[2].contains(&victim_fp));
    }

    #[test]
    fn promote_by_score_sorts_and_filters() {
        let space = JointSpace::tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let ahs = space.sample_distinct(4, &mut rng);
        let labeled: Vec<LabeledAh> = ahs
            .iter()
            .enumerate()
            .map(|(i, ah)| LabeledAh {
                ah: ah.clone(),
                score: [0.7f32, 0.2, f32::INFINITY, 0.4][i],
                quarantined: i == 2,
            })
            .collect();
        let refs: Vec<&LabeledAh> = labeled.iter().collect();
        let promoted = promote_by_score(&refs, 2);
        assert_eq!(promoted.len(), 2);
        assert_eq!(promoted[0].score, 0.2);
        assert_eq!(promoted[1].score, 0.4);
    }
}
