//! Search-strategy property and behaviour tests beyond the unit suites.

use octs_comparator::{Tahc, TahcConfig};
use octs_search::{
    evolve_search, grid_search_hpo, round_robin_cost, round_robin_rank, tournament_rank,
    EvolveConfig,
};
use octs_space::{ArchDag, ArchHyper, Edge, HyperParams, HyperSpace, JointSpace, OpKind};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn comparator(seed: u64) -> Tahc {
    Tahc::new(TahcConfig { task_aware: false, ..TahcConfig::test() }, HyperSpace::scaled(), seed)
}

#[test]
fn round_robin_top1_beats_majority() {
    // The top-1 by win count must have won at least as many duels as any
    // other candidate — verify by recounting independently.
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let pool = JointSpace::scaled().sample_distinct(7, &mut rng);
    let tahc = comparator(0);
    let order = round_robin_rank(&tahc, None, &pool).order;
    let wins = |idx: usize, tahc: &Tahc| -> usize {
        (0..pool.len())
            .filter(|&j| j != idx)
            .filter(|&j| {
                if idx < j {
                    tahc.compare(None, &pool[idx], &pool[j])
                } else {
                    !tahc.compare(None, &pool[j], &pool[idx])
                }
            })
            .count()
    };
    let top_wins = wins(order[0], &tahc);
    for &i in &order[1..] {
        assert!(top_wins >= wins(i, &tahc), "top-1 must maximize wins");
    }
}

#[test]
fn tournament_cost_is_linear_not_quadratic() {
    assert_eq!(round_robin_cost(100), 4950);
    // tournament with r rounds makes ~k*r comparisons; at k=100, r=2 that is
    // 200 << 4950, which is the whole point of the seeding stage.
    assert!(100 * 2 < round_robin_cost(100) / 10);
}

#[test]
fn evolution_returns_distinct_top_candidates() {
    let space = JointSpace::scaled();
    let tahc = comparator(3);
    let cfg = EvolveConfig { k_s: 32, generations: 3, top_k: 3, ..EvolveConfig::test() };
    let top = evolve_search(&tahc, None, &space, &cfg);
    let fps: std::collections::HashSet<u64> = top.iter().map(ArchHyper::fingerprint).collect();
    assert_eq!(fps.len(), top.len(), "top-K must not contain duplicates");
}

#[test]
fn grid_search_prefers_lower_validation() {
    // On a fixed task the returned (H, I) must achieve the minimum val MAE
    // among the grid points (re-verified independently).
    use octs_data::{DatasetProfile, Domain, ForecastSetting, ForecastTask};
    use octs_model::{train_forecaster, Forecaster, ModelDims, TrainConfig};
    let p = DatasetProfile::custom("gs", Domain::Traffic, 3, 200, 24, 0.3, 0.1, 10.0, 17);
    let task = ForecastTask::new(p.generate(0), ForecastSetting::multi(4, 2), 0.6, 0.2, 4);
    let arch = ArchDag::new(
        3,
        vec![Edge { from: 0, to: 1, op: OpKind::Gdcc }, Edge { from: 1, to: 2, op: OpKind::Dgcn }],
    )
    .unwrap();
    let template = ArchHyper::new(arch, HyperParams { b: 1, c: 3, h: 8, i: 16, u: 0, delta: 0 });
    let cfg = TrainConfig::test();
    let (best, best_report) = grid_search_hpo(&task, &template, &[8, 16], &[16], &cfg);
    let dims = ModelDims::new(task.data.n(), task.data.f(), task.setting);
    for h in [8usize, 16] {
        let mut hp = template.hyper;
        hp.h = h;
        hp.i = 16;
        let ah = ArchHyper::new(template.arch.clone(), hp);
        let mut fc = Forecaster::new(ah, dims, &task.data.adjacency, cfg.seed);
        let report = train_forecaster(&mut fc, &task, &cfg);
        assert!(
            best_report.best_val_mae <= report.best_val_mae + 1e-6,
            "grid winner H={} must be at least as good as H={h}",
            best.hyper.h
        );
    }
}

#[test]
fn tournament_and_round_robin_agree_under_consistent_comparator() {
    // Train the comparator on a consistent rule (smaller H is better); then
    // the sparse tournament's top pick must land in the upper half of the
    // full round-robin ranking — an untrained (incoherent) comparator gives
    // no such guarantee, which is exactly why AutoCTS+ pre-trains it.
    let space = JointSpace::scaled();
    let mut rng = ChaCha8Rng::seed_from_u64(50);
    let train_pool = space.sample_distinct(10, &mut rng);
    let mut tahc = comparator(0);
    let mut opt = octs_tensor::Adam::new(5e-3, 0.0);
    for _ in 0..25 {
        let mut batch = Vec::new();
        for i in 0..train_pool.len() {
            for j in 0..train_pool.len() {
                if train_pool[i].hyper.h != train_pool[j].hyper.h {
                    let y = if train_pool[i].hyper.h < train_pool[j].hyper.h { 1.0 } else { 0.0 };
                    batch.push((None, &train_pool[i], &train_pool[j], y));
                }
            }
        }
        tahc.train_batch(&mut opt, &batch);
    }

    let mut hits = 0;
    let trials = 5;
    for t in 0..trials {
        let mut rng = ChaCha8Rng::seed_from_u64(80 + t);
        let pool = space.sample_distinct(10, &mut rng);
        let full = round_robin_rank(&tahc, None, &pool).order;
        let sparse = tournament_rank(&tahc, None, &pool, 3, t).order;
        let pos = full.iter().position(|&i| i == sparse[0]).unwrap();
        if pos < pool.len() / 2 {
            hits += 1;
        }
    }
    assert!(hits >= 4, "tournament top-1 in upper half only {hits}/{trials} times");
}
