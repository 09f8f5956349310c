//! Cross-crate search integration: comparator-guided search vs. baseline
//! strategies on the same task, plus ranking-quality invariants.

use autocts::prelude::*;
use octs_comparator::Ts2VecConfig;
use octs_comparator::{label_one, LabeledAh, Tahc, TahcConfig, TaskEmbedConfig, TaskEmbedder};
use octs_data::metrics::kendall_tau;
use octs_model::early_validation;
use octs_search::{
    grid_search_hpo, promote_by_score, random_search, round_robin_rank, supernet_search,
    tournament_rank, zero_shot_rank, zero_shot_search, zero_shot_search_laddered,
    FinalistPromotion, LadderConfig, SupernetConfig,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn task(seed: u64) -> ForecastTask {
    let p = DatasetProfile::custom("is", Domain::Traffic, 4, 240, 24, 0.4, 0.08, 10.0, seed);
    ForecastTask::new(p.generate(0), ForecastSetting::multi(6, 3), 0.6, 0.2, 2)
}

#[test]
fn all_search_strategies_produce_trainable_models() {
    let t = task(1);
    let space = JointSpace::tiny();
    let label = TrainConfig::test();
    let final_cfg = TrainConfig::test();

    let (rs_ah, rs_report) = random_search(&t, &space, 3, &label, &final_cfg, 7);
    assert!(rs_report.test.mae.is_finite());
    assert_eq!(rs_ah.arch.c(), rs_ah.hyper.c);

    let template = octs_baselines::autocts();
    // grid over the scaled H choices; template C=5 arch kept fixed
    let (gs_ah, gs_report) = grid_search_hpo(&t, &template, &[8, 16], &[16], &final_cfg);
    assert!(gs_report.test.mae.is_finite());
    assert_eq!(gs_ah.arch, template.arch);

    let sn_ah = supernet_search(&t, &SupernetConfig::test());
    assert!(sn_ah.arch.num_ops() >= 2);
}

#[test]
fn oracle_comparator_ranking_matches_true_ranking() {
    // A comparator that compares true early-validation scores must produce a
    // round-robin ranking perfectly correlated with those scores — this
    // validates the ranking machinery independent of comparator quality.
    let t = task(2);
    let space = JointSpace::tiny();
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
    let candidates = space.sample_distinct(5, &mut rng);
    let cfg = TrainConfig::test();
    let scores: Vec<f32> = candidates.iter().map(|ah| early_validation(ah, &t, &cfg)).collect();

    // True ranking by score (ascending error = descending quality).
    let mut true_order: Vec<usize> = (0..candidates.len()).collect();
    true_order.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).unwrap());

    // An untrained comparator will disagree; the *oracle* (sorting by the
    // scores directly) must agree. Check Kendall-tau of the oracle ordering.
    let oracle_rank_pos: Vec<f32> = (0..candidates.len())
        .map(|i| true_order.iter().position(|&x| x == i).unwrap() as f32)
        .collect();
    let tau = kendall_tau(&oracle_rank_pos, &scores);
    assert!(tau > 0.99, "oracle ranking must match scores, tau = {tau}");

    // And the comparator-based round-robin must at least be a permutation.
    let tahc =
        Tahc::new(TahcConfig { task_aware: false, ..TahcConfig::test() }, space.hyper.clone(), 0);
    let order = round_robin_rank(&tahc, None, &candidates).order;
    let mut sorted = order.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..candidates.len()).collect::<Vec<_>>());
}

#[test]
fn joint_space_beats_architecture_only_in_reachable_configs() {
    // The joint space must contain configurations a fixed-hyper space cannot
    // express: verify the searched space covers multiple H and C values,
    // which is exactly the AutoCTS limitation the paper removes (Table 1).
    let space = JointSpace::scaled();
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
    let samples = space.sample_distinct(64, &mut rng);
    let hs: std::collections::HashSet<usize> = samples.iter().map(|a| a.hyper.h).collect();
    let cs: std::collections::HashSet<usize> = samples.iter().map(|a| a.hyper.c).collect();
    let bs: std::collections::HashSet<usize> = samples.iter().map(|a| a.hyper.b).collect();
    assert!(hs.len() >= 3, "H diversity: {hs:?}");
    assert!(cs.len() >= 2, "C diversity: {cs:?}");
    assert!(bs.len() >= 3, "B diversity: {bs:?}");
}

#[test]
fn pretrained_screener_ranks_the_ladder_screen() {
    // `AutoCts::search_laddered` screens the ladder's pool with the system's
    // pretrained T-AHC and the task's preliminary embedding instead of a
    // fresh comparator: the stage-0 survivors must be the head of exactly
    // that tournament over the canonical (fingerprint-sorted) pool.
    let mut sys = AutoCts::new(AutoCtsConfig::test());
    let sources = vec![task(11), task(12)];
    sys.pretrain(sources, &PretrainConfig { epochs: 10, ..PretrainConfig::test() });
    let target = task(13);
    let cfg = AutoCtsPlusConfig::test();
    let ladder = LadderConfig::test();

    let a = sys.search_laddered(&target, &cfg, &ladder).unwrap();
    let b = sys.search_laddered(&target, &cfg, &ladder).unwrap();
    assert_eq!(a.best, b.best);
    assert_eq!(a.best_report.best_val_mae.to_bits(), b.best_report.best_val_mae.to_bits());
    assert_eq!(a.survivors, b.survivors);

    let prelim = sys.embedder.preliminary(&target);
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut pool = sys.cfg.space.sample_distinct(ladder.pool, &mut rng);
    pool.sort_by_key(|ah| ah.fingerprint());
    let screen =
        tournament_rank(&sys.tahc, Some(&prelim), &pool, ladder.screen_rounds, cfg.seed ^ 0x5C12);
    let want: Vec<u64> =
        screen.order.iter().take(ladder.stage1).map(|&i| pool[i].fingerprint()).collect();
    assert_eq!(a.survivors[0], want);

    // The fixture must tell the two screeners apart: the fresh screener of
    // a plain ladder run promotes a different stage-0 set.
    let plain =
        octs_search::fidelity_ladder_search(&target, &sys.cfg.space, &cfg, &ladder).unwrap();
    assert_ne!(plain.survivors[0], want, "fixture cannot tell the screeners apart");
}

#[test]
fn zero_shot_searches_train_the_ranked_shortlist() {
    // Both zero-shot searches are the rank-only pass plus a final stage:
    // given identically seeded comparators and embedders, the plain search
    // trains exactly the ranked shortlist in rank order, and the laddered
    // search trains the proxy-promoted members of that same shortlist.
    let space = JointSpace::tiny();
    let fresh = || {
        let tahc = Tahc::new(TahcConfig::test(), space.hyper.clone(), 0);
        (tahc, TaskEmbedder::new(TaskEmbedConfig::test(), Ts2VecConfig::test(), 1))
    };
    let target = task(14);
    let evolve_cfg = EvolveConfig { k_s: 12, generations: 1, top_k: 4, ..EvolveConfig::test() };
    let train_cfg = TrainConfig::test();
    let names = |finalists: &[(ArchHyper, octs_model::TrainReport)]| -> Vec<ArchHyper> {
        finalists.iter().map(|(ah, _)| ah.clone()).collect()
    };

    let (tahc, mut embedder) = fresh();
    let ranked = zero_shot_rank(&tahc, &mut embedder, &target, &space, &evolve_cfg).ranked;
    assert_eq!(ranked.len(), evolve_cfg.top_k);

    let (tahc, mut embedder) = fresh();
    let plain = zero_shot_search(&tahc, &mut embedder, &target, &space, &evolve_cfg, &train_cfg);
    assert_eq!(names(&plain.finalists), ranked);

    let promotion = FinalistPromotion { proxy_epochs: 1, finalists: 2 };
    let (tahc, mut embedder) = fresh();
    let laddered = zero_shot_search_laddered(
        &tahc,
        &mut embedder,
        &target,
        &space,
        &evolve_cfg,
        &promotion,
        &train_cfg,
    )
    .unwrap();
    let proxy_cfg = TrainConfig { epochs: promotion.proxy_epochs, ..train_cfg.clone() };
    let proxied: Vec<LabeledAh> =
        (0..).zip(&ranked).map(|(unit, ah)| label_one(ah, &target, unit, &proxy_cfg)).collect();
    let want: Vec<ArchHyper> =
        promote_by_score(&proxied.iter().collect::<Vec<_>>(), promotion.finalists)
            .into_iter()
            .map(|l| l.ah.clone())
            .collect();
    assert_eq!(want.len(), promotion.finalists);
    assert_eq!(names(&laddered.finalists), want);
}
