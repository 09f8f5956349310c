//! Search stages shared by every entry point. The per-task AutoCTS+ search,
//! the fidelity ladder and both zero-shot searches are short compositions
//! of these: label candidates, train a pairwise comparator on the labels,
//! rank the joint space with it, train the top-K and keep the validation
//! winner. Each caller keeps its own spans, salts and counters.

use crate::autocts_plus::AutoCtsPlusConfig;
use crate::error::SearchError;
use crate::evolve::evolve_search;
use octs_comparator::{label_one, LabeledAh, Tahc, TahcConfig};
use octs_data::{ForecastTask, Split};
use octs_model::{train_forecaster, Forecaster, ModelDims, TrainConfig, TrainReport};
use octs_obs::RunCtx;
use octs_space::{ArchHyper, JointSpace};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use std::time::{Duration, Instant};

/// Budget and input checks shared by the per-task searches, in the order
/// they are reported: `k_s`, `top_k`, training windows, empty pool.
pub(crate) fn validate(
    task: &ForecastTask,
    cfg: &AutoCtsPlusConfig,
    pool: &[ArchHyper],
) -> Result<(), SearchError> {
    if cfg.evolve.k_s == 0 {
        return Err(SearchError::ZeroBudget { what: "evolve.k_s" });
    }
    if cfg.evolve.top_k == 0 {
        return Err(SearchError::ZeroBudget { what: "evolve.top_k" });
    }
    if task.windows(Split::Train).is_empty() {
        return Err(SearchError::InsufficientWindows { task: task.id() });
    }
    if pool.is_empty() {
        return Err(SearchError::EmptyCandidatePool);
    }
    Ok(())
}

/// Labels every `(unit, candidate)` with the early-validation proxy `cfg`,
/// in parallel and each isolated: a panic or divergence quarantines that
/// candidate only. Fault plans address candidates by `unit`; labels come
/// back in input order. Every unit runs in the caller's run context.
pub(crate) fn label_units<'a>(
    task: &ForecastTask,
    cfg: &TrainConfig,
    units: impl IntoIterator<Item = (u64, &'a ArchHyper)>,
) -> Vec<LabeledAh> {
    let units: Vec<(u64, &ArchHyper)> = units.into_iter().collect();
    let run = RunCtx::current();
    units.par_iter().map(|&(unit, ah)| run.enter(|| label_one(ah, task, unit, cfg))).collect()
}

/// What [`rank_and_train`] selected and what it cost.
pub(crate) struct Tail {
    pub best: ArchHyper,
    pub best_report: TrainReport,
    pub comparator_time: Duration,
    pub search_time: Duration,
}

/// The tail of the per-task searches: trains a fresh non-task-aware
/// comparator on the labelled `groups`, ranks the joint space with it and
/// trains the top-K.
///
/// Comparator training uses dynamic pairing: all ordered pairs with a
/// meaningful score gap are formed *within* each group (scores collected at
/// different fidelities are not comparable across groups), shuffled fresh
/// each epoch on the stream `seed ^ pair_salt`, so the pair order does not
/// depend on how many candidates the sampling stage consumed.
pub(crate) fn rank_and_train(
    task: &ForecastTask,
    space: &JointSpace,
    cfg: &AutoCtsPlusConfig,
    pair_salt: u64,
    groups: &[&[&LabeledAh]],
) -> Result<Tail, SearchError> {
    if groups.iter().all(|group| group.is_empty()) {
        return Err(SearchError::AllCandidatesQuarantined);
    }
    let t1 = Instant::now();
    let obs_pretrain = octs_obs::span_detail("phase.pretrain", cfg.comparator_epochs.to_string());
    let mut pair_rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ pair_salt);
    let mut comparator = Tahc::new(
        TahcConfig { task_aware: false, ..cfg.comparator },
        space.hyper.clone(),
        cfg.seed,
    );
    let mut opt = octs_tensor::Adam::new(1e-3, 5e-4);
    let mut pairs: Vec<(&LabeledAh, &LabeledAh)> = groups
        .iter()
        .flat_map(|group| {
            (0..group.len()).flat_map(move |i| (0..group.len()).map(move |j| (group[i], group[j])))
        })
        .filter(|(a, b)| !std::ptr::eq(*a, *b) && (a.score - b.score).abs() > 1e-9)
        .collect();
    for _epoch in 0..cfg.comparator_epochs {
        pairs.shuffle(&mut pair_rng);
        for chunk in pairs.chunks(16) {
            let batch: Vec<_> = chunk
                .iter()
                .map(|&(a, b)| (None, &a.ah, &b.ah, if a.score < b.score { 1.0 } else { 0.0 }))
                .collect();
            comparator.train_batch(&mut opt, &batch);
        }
    }
    drop(obs_pretrain);
    let comparator_time = t1.elapsed();

    let t2 = Instant::now();
    let obs_rank = octs_obs::span_detail("phase.rank", cfg.evolve.k_s.to_string());
    let top = evolve_search(&comparator, None, space, &cfg.evolve);
    drop(obs_rank);
    let (mut finalists, best) = train_finalists(task, &cfg.final_cfg, cfg.seed, top);
    let search_time = t2.elapsed();
    let (best, best_report) = finalists.swap_remove(best);
    Ok(Tail { best, best_report, comparator_time, search_time })
}

/// The final stage of every search: trains the ranked finalists and returns
/// each with its report, plus the index of the validation winner. Finalist
/// `i` trains with seed `seed ^ (i + 1)`, and a strict `<` keeps the
/// earliest of tied finalists.
pub(crate) fn train_finalists(
    task: &ForecastTask,
    cfg: &TrainConfig,
    seed: u64,
    top: Vec<ArchHyper>,
) -> (Vec<(ArchHyper, TrainReport)>, usize) {
    let _obs = octs_obs::span_detail("phase.final_train", top.len().to_string());
    let dims = ModelDims::new(task.data.n(), task.data.f(), task.setting);
    let finalists: Vec<(ArchHyper, TrainReport)> = top
        .into_iter()
        .enumerate()
        .map(|(i, ah)| {
            let mut fc =
                Forecaster::new(ah.clone(), dims, &task.data.adjacency, seed ^ (i as u64 + 1));
            let report = train_forecaster(&mut fc, task, cfg);
            (ah, report)
        })
        .collect();
    assert!(!finalists.is_empty(), "top_k >= 1");
    let best = (1..finalists.len()).fold(0, |best, i| {
        if finalists[i].1.best_val_mae < finalists[best].1.best_val_mae {
            i
        } else {
            best
        }
    });
    (finalists, best)
}
