//! Fault-injection integration: with a seeded [`octs_obs::fault::FaultPlan`]
//! scheduling NaN-diverging and panicking candidates, every search and
//! pre-training entry point must complete, quarantine exactly the faulted
//! candidates, and keep its healthy results **byte-identical** to a run that
//! never saw the faults.
//!
//! A [`autocts::fault::FaultScope`] arms its plan on the test thread's run
//! context only, so clean reference runs need no scope and concurrent tests
//! never see each other's faults.

use autocts::fault::{FaultPlan, FaultScope};
use autocts::prelude::*;
use autocts::search::{autocts_plus_search_with_pool, AutoCtsPlusConfig};
use autocts::AutoCts;
use octs_obs::{ObsScope, Recorder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn target_task() -> ForecastTask {
    let p = DatasetProfile::custom("ft", Domain::Traffic, 4, 220, 24, 0.3, 0.1, 10.0, 31);
    ForecastTask::new(p.generate(0), ForecastSetting::multi(4, 2), 0.6, 0.2, 2)
}

#[test]
fn seeded_faults_quarantine_without_changing_the_winner() {
    // The acceptance scenario: a seeded plan with >= 1 NaN-loss unit and
    // >= 1 panicking unit over an 8-candidate pool. The search must finish,
    // quarantine exactly the faulted candidates, and pick the byte-identical
    // winner of a run handed only the healthy candidates.
    let task = target_task();
    let space = JointSpace::tiny();
    let cfg = AutoCtsPlusConfig::test();
    let plan = FaultPlan::seeded(0xFA17, 8, 1, 1, &[], &[]);
    assert_eq!(plan.nan_loss_units.len(), 1);
    assert_eq!(plan.panic_units.len(), 1);
    let faulty_units: Vec<u64> =
        plan.nan_loss_units.keys().copied().chain(plan.panic_units.iter().copied()).collect();

    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let pool = space.sample_distinct(8, &mut rng);
    let healthy_pool: Vec<ArchHyper> = pool
        .iter()
        .enumerate()
        .filter(|(i, _)| !faulty_units.contains(&(*i as u64)))
        .map(|(_, ah)| ah.clone())
        .collect();

    let reference = autocts_plus_search_with_pool(&task, &space, &cfg, healthy_pool).unwrap();
    let faulted = {
        let _scope = FaultScope::activate(plan);
        autocts_plus_search_with_pool(&task, &space, &cfg, pool.clone()).unwrap()
    };

    let mut want_quarantined: Vec<ArchHyper> =
        faulty_units.iter().map(|&u| pool[u as usize].clone()).collect();
    want_quarantined.sort_by_key(|ah| pool.iter().position(|p| p == ah));
    assert_eq!(faulted.quarantined, want_quarantined);
    assert_eq!(faulted.best, reference.best, "top-1 must survive the faults untouched");
    assert_eq!(
        faulted.best_report.best_val_mae.to_bits(),
        reference.best_report.best_val_mae.to_bits()
    );
    assert!(reference.quarantined.is_empty());
}

#[test]
fn faulted_search_is_deterministic() {
    // Two runs under the *same* active fault plan must agree bitwise —
    // injections are part of the deterministic schedule, not noise.
    let task = target_task();
    let space = JointSpace::tiny();
    let cfg = AutoCtsPlusConfig::test();
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let pool = space.sample_distinct(6, &mut rng);

    let run = || {
        let _scope = FaultScope::activate(FaultPlan::new().nan_loss(2, 0).panic_unit(4));
        autocts_plus_search_with_pool(&task, &space, &cfg, pool.clone()).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.best, b.best);
    assert_eq!(a.quarantined, b.quarantined);
    assert_eq!(a.best_report.best_val_mae.to_bits(), b.best_report.best_val_mae.to_bits());
}

#[test]
fn journaled_pretraining_absorbs_faults_and_replays_them_from_the_journal() {
    // Pre-training with faulted labelling units must complete with both
    // units quarantined — and a resume replays those labels from the task's
    // journaled sidecar instead of re-labelling, so it reaches the identical
    // comparator even with no fault plan armed anymore.
    let tasks = || {
        let p = DatasetProfile::custom("fj", Domain::Energy, 3, 200, 24, 0.3, 0.1, 10.0, 88);
        vec![ForecastTask::new(p.generate(0), ForecastSetting::multi(4, 2), 0.6, 0.2, 2)]
    };
    let cfg = PretrainConfig { l_shared: 3, l_random: 3, epochs: 2, ..PretrainConfig::test() };
    let dir = std::env::temp_dir().join(format!("octs_faultjournal_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let recorder = Recorder::new();
    let (sys, report) = {
        let _scope = FaultScope::activate(FaultPlan::new().panic_unit(1).nan_loss(4, 0));
        let _obs = ObsScope::activate(&recorder);
        AutoCts::resume(AutoCtsConfig::test(), tasks(), &cfg, &dir).unwrap()
    };
    assert!(sys.is_pretrained());
    assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
    assert_eq!(recorder.summary().events.get("label.quarantine").copied(), Some(2));

    // Resume with NO faults armed: quarantined labels come back from the
    // journal, so the result is still byte-identical.
    let (resys, rereport) = AutoCts::resume(AutoCtsConfig::test(), tasks(), &cfg, &dir).unwrap();
    assert_eq!(report.epoch_losses, rereport.epoch_losses);
    assert_eq!(report.holdout_accuracy.to_bits(), rereport.holdout_accuracy.to_bits());
    let ser = |s: &AutoCts| serde_json::to_string(&s.tahc.ps.snapshot()).unwrap();
    assert_eq!(ser(&sys), ser(&resys));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn comparator_ranking_survives_compare_panics() {
    // Ranking-layer isolation at the integration level: a candidate whose
    // comparator embedding panics is quarantined to the tail while the
    // healthy candidates keep the exact order of a healthy-subpool ranking.
    use autocts::comparator::{Tahc, TahcConfig};
    use autocts::search::{round_robin_rank, tournament_rank};

    let space = JointSpace::scaled();
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let pool = space.sample_distinct(7, &mut rng);
    let tahc =
        Tahc::new(TahcConfig { task_aware: false, ..TahcConfig::test() }, space.hyper.clone(), 0);

    let victim = 2usize;
    let healthy_pool: Vec<ArchHyper> =
        pool.iter().enumerate().filter(|(i, _)| *i != victim).map(|(_, a)| a.clone()).collect();
    let want = round_robin_rank(&tahc, None, &healthy_pool).order;
    tahc.invalidate_caches();

    let _scope = FaultScope::activate(FaultPlan::new().compare_panic(victim as u64));
    let rr = round_robin_rank(&tahc, None, &pool);
    assert_eq!(rr.quarantined, vec![victim]);
    let remap: Vec<usize> = want.iter().map(|&i| if i >= victim { i + 1 } else { i }).collect();
    assert_eq!(&rr.order[..pool.len() - 1], &remap[..]);

    tahc.invalidate_caches();
    let t = tournament_rank(&tahc, None, &pool, 3, 17);
    assert_eq!(t.quarantined, vec![victim]);
    assert_eq!(t.order.len(), pool.len());
}
