//! Algorithm 2: zero-shot search for an unseen task — embed, rank, train
//! the top-K, keep the validation winner.

use crate::error::SearchError;
use crate::evolve::{evolve_search, EvolveConfig};
use crate::fidelity::promote_by_score;
use crate::stages::{label_units, train_finalists};
use octs_comparator::{Tahc, TaskEmbedder};
use octs_data::ForecastTask;
use octs_model::{TrainConfig, TrainReport};
use octs_space::{ArchHyper, JointSpace};
use std::time::{Duration, Instant};

/// Wall-clock breakdown of one zero-shot search (drives Fig. 7).
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchTiming {
    /// Task-embedding time (TS2Vec encoding of the unseen task).
    pub embed: Duration,
    /// Comparator ranking time (tournament + evolution + round-robin).
    pub rank: Duration,
    /// Final training time of the top-K candidates. In
    /// [`zero_shot_search_laddered`] it also counts the proxy promotion
    /// rung that picks which candidates get full training.
    pub train: Duration,
}

impl SearchTiming {
    /// Search latency as the paper defines it: embedding + ranking.
    pub fn search(&self) -> Duration {
        self.embed + self.rank
    }
}

/// Outcome of a zero-shot search.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// The selected arch-hyper `ah*`.
    pub best: ArchHyper,
    /// Training report of the winner.
    pub best_report: TrainReport,
    /// All trained finalists `(candidate, report)`, ranked by comparator.
    pub finalists: Vec<(ArchHyper, TrainReport)>,
    /// Wall-clock breakdown.
    pub timing: SearchTiming,
}

/// Runs Algorithm 2 on an unseen task with a pre-trained T-AHC.
///
/// The task's preliminary embedding is produced by the *frozen* embedder (a
/// few seconds), candidates are ranked zero-shot by the comparator, and only
/// the `top_k` finalists are actually trained — this is where the paper's
/// orders-of-magnitude GPU-hour savings come from.
pub fn zero_shot_search(
    tahc: &Tahc,
    embedder: &mut TaskEmbedder,
    task: &ForecastTask,
    space: &JointSpace,
    evolve_cfg: &EvolveConfig,
    train_cfg: &TrainConfig,
) -> SearchOutcome {
    let ZeroShotRank { ranked, timing } = zero_shot_rank(tahc, embedder, task, space, evolve_cfg);
    let t2 = Instant::now();
    let (finalists, best) = train_finalists(task, train_cfg, train_cfg.seed, ranked);
    let timing = SearchTiming { train: t2.elapsed(), ..timing };
    let (best, best_report) = finalists[best].clone();
    SearchOutcome { best, best_report, finalists, timing }
}

/// Outcome of a rank-only zero-shot pass ([`zero_shot_rank`]): the
/// comparator-ranked candidates and the embed/rank wall-clock, with no
/// training performed.
#[derive(Clone, Debug)]
pub struct ZeroShotRank {
    /// Candidates in comparator-rank order (best first).
    pub ranked: Vec<ArchHyper>,
    /// Wall-clock breakdown (`train` is always zero).
    pub timing: SearchTiming,
}

/// The embed + rank prefix of Algorithm 2, stopping before any training:
/// embeds the unseen task with the frozen encoder and ranks candidates
/// zero-shot with the pre-trained comparator. This is the paper's "search in
/// seconds" claim in isolation — the pretrained-artifact benches gate on its
/// latency — and the cheapest way to get a candidate shortlist for an
/// external training budget.
pub fn zero_shot_rank(
    tahc: &Tahc,
    embedder: &mut TaskEmbedder,
    task: &ForecastTask,
    space: &JointSpace,
    evolve_cfg: &EvolveConfig,
) -> ZeroShotRank {
    let t0 = Instant::now();
    let obs_embed = octs_obs::span_detail("phase.embed", task.id().to_string());
    let prelim = embedder.preliminary(task);
    drop(obs_embed);
    let embed = t0.elapsed();

    let t1 = Instant::now();
    let obs_rank = octs_obs::span_detail("phase.rank", evolve_cfg.k_s.to_string());
    let ranked = evolve_search(tahc, Some(&prelim), space, evolve_cfg);
    drop(obs_rank);
    let rank = t1.elapsed();

    ZeroShotRank { ranked, timing: SearchTiming { embed, rank, train: Duration::ZERO } }
}

/// Finalist-promotion rung reused from the fidelity ladder: instead of
/// fully training every comparator-ranked candidate, give each a cheap
/// proxy first and fully train only the promoted survivors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FinalistPromotion {
    /// Epochs of the cheap proxy each ranked candidate gets.
    pub proxy_epochs: usize,
    /// How many proxy survivors get the full training budget.
    pub finalists: usize,
}

impl FinalistPromotion {
    /// Defaults: 1-epoch proxy, 2 full trainings.
    pub fn test() -> Self {
        Self { proxy_epochs: 1, finalists: 2 }
    }
}

/// [`zero_shot_search`] with the fidelity ladder's promotion rung between
/// ranking and final training: the comparator's `top_k` candidates are
/// proxy-trained for `promotion.proxy_epochs` epochs, the best
/// `promotion.finalists` by proxy score (deterministic
/// [`promote_by_score`] order) get the full `train_cfg` budget, and the
/// validation winner is kept. With `evolve_cfg.top_k` widened beyond what
/// full training could afford, this explores more finalists for less cost.
///
/// Candidates whose proxy diverges or panics are quarantined; if every
/// ranked candidate is quarantined the search reports
/// [`SearchError::AllCandidatesQuarantined`].
pub fn zero_shot_search_laddered(
    tahc: &Tahc,
    embedder: &mut TaskEmbedder,
    task: &ForecastTask,
    space: &JointSpace,
    evolve_cfg: &EvolveConfig,
    promotion: &FinalistPromotion,
    train_cfg: &TrainConfig,
) -> Result<SearchOutcome, SearchError> {
    if promotion.finalists == 0 {
        return Err(SearchError::ZeroBudget { what: "promotion.finalists" });
    }
    if promotion.proxy_epochs == 0 {
        return Err(SearchError::ZeroBudget { what: "promotion.proxy_epochs" });
    }
    let ZeroShotRank { ranked, timing } = zero_shot_rank(tahc, embedder, task, space, evolve_cfg);
    let t2 = Instant::now();
    // Promotion rung: cheap proxies for every ranked candidate, full budget
    // only for the promoted survivors. Unit ids follow ranking order (the
    // ranked list is already deterministic for any thread count).
    let obs_proxy = octs_obs::span_detail("phase.proxy", ranked.len().to_string());
    let proxy_cfg = TrainConfig { epochs: promotion.proxy_epochs, ..train_cfg.clone() };
    let proxied = label_units(task, &proxy_cfg, (0..).zip(&ranked));
    let promoted: Vec<ArchHyper> =
        promote_by_score(&proxied.iter().collect::<Vec<_>>(), promotion.finalists)
            .into_iter()
            .map(|l| l.ah.clone())
            .collect();
    drop(obs_proxy);
    if promoted.is_empty() {
        return Err(SearchError::AllCandidatesQuarantined);
    }
    let (finalists, best) = train_finalists(task, train_cfg, train_cfg.seed, promoted);
    let timing = SearchTiming { train: t2.elapsed(), ..timing };
    let (best, best_report) = finalists[best].clone();
    Ok(SearchOutcome { best, best_report, finalists, timing })
}

#[cfg(test)]
mod tests {
    use super::*;
    use octs_comparator::{TahcConfig, TaskEmbedConfig, Ts2VecConfig};
    use octs_data::{DatasetProfile, Domain, ForecastSetting};

    fn small_task() -> ForecastTask {
        let p = DatasetProfile::custom("zs", Domain::Traffic, 4, 220, 24, 0.3, 0.1, 10.0, 9);
        ForecastTask::new(p.generate(0), ForecastSetting::multi(4, 2), 0.6, 0.2, 2)
    }

    #[test]
    fn end_to_end_zero_shot_search() {
        let space = JointSpace::tiny();
        let tahc = Tahc::new(TahcConfig::test(), space.hyper.clone(), 0);
        let mut embedder = TaskEmbedder::new(TaskEmbedConfig::test(), Ts2VecConfig::test(), 1);
        let task = small_task();
        let evolve_cfg = EvolveConfig { k_s: 12, generations: 1, top_k: 2, ..EvolveConfig::test() };
        let train_cfg = TrainConfig::test();
        let out = zero_shot_search(&tahc, &mut embedder, &task, &space, &evolve_cfg, &train_cfg);
        assert_eq!(out.finalists.len(), 2);
        assert!(out.best_report.best_val_mae.is_finite());
        // winner must be the min-val finalist
        let min = out.finalists.iter().map(|(_, r)| r.best_val_mae).fold(f32::INFINITY, f32::min);
        assert_eq!(out.best_report.best_val_mae, min);
        assert!(out.timing.search() > Duration::ZERO);
        assert!(out.timing.train > Duration::ZERO);
    }

    #[test]
    fn laddered_zero_shot_trains_only_promoted_finalists() {
        let space = JointSpace::tiny();
        let tahc = Tahc::new(TahcConfig::test(), space.hyper.clone(), 0);
        let mut embedder = TaskEmbedder::new(TaskEmbedConfig::test(), Ts2VecConfig::test(), 1);
        let task = small_task();
        // Rank wider than full training could afford, promote 2.
        let evolve_cfg = EvolveConfig { k_s: 12, generations: 1, top_k: 4, ..EvolveConfig::test() };
        let promotion = FinalistPromotion { proxy_epochs: 1, finalists: 2 };
        let train_cfg = TrainConfig::test();
        let out = zero_shot_search_laddered(
            &tahc,
            &mut embedder,
            &task,
            &space,
            &evolve_cfg,
            &promotion,
            &train_cfg,
        )
        .unwrap();
        assert_eq!(out.finalists.len(), 2, "only promoted survivors get full training");
        assert!(out.best_report.best_val_mae.is_finite());
        let min = out.finalists.iter().map(|(_, r)| r.best_val_mae).fold(f32::INFINITY, f32::min);
        assert_eq!(out.best_report.best_val_mae, min);

        // Deterministic: a rerun promotes and selects identically.
        let tahc2 = Tahc::new(TahcConfig::test(), space.hyper.clone(), 0);
        let mut embedder2 = TaskEmbedder::new(TaskEmbedConfig::test(), Ts2VecConfig::test(), 1);
        let again = zero_shot_search_laddered(
            &tahc2,
            &mut embedder2,
            &task,
            &space,
            &evolve_cfg,
            &promotion,
            &train_cfg,
        )
        .unwrap();
        assert_eq!(again.best, out.best);
        assert_eq!(
            again.best_report.best_val_mae.to_bits(),
            out.best_report.best_val_mae.to_bits()
        );
    }

    #[test]
    fn laddered_zero_shot_rejects_zero_budgets() {
        let space = JointSpace::tiny();
        let tahc = Tahc::new(TahcConfig::test(), space.hyper.clone(), 0);
        let mut embedder = TaskEmbedder::new(TaskEmbedConfig::test(), Ts2VecConfig::test(), 1);
        let task = small_task();
        let evolve_cfg = EvolveConfig { k_s: 12, generations: 1, ..EvolveConfig::test() };
        let err = zero_shot_search_laddered(
            &tahc,
            &mut embedder,
            &task,
            &space,
            &evolve_cfg,
            &FinalistPromotion { proxy_epochs: 1, finalists: 0 },
            &TrainConfig::test(),
        )
        .unwrap_err();
        assert_eq!(err, crate::SearchError::ZeroBudget { what: "promotion.finalists" });
    }
}
