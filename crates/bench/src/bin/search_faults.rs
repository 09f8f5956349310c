//! Fault-injection robustness measurement.
//!
//! Runs the per-task AutoCTS+ search twice — once on a healthy candidate
//! pool, once on the same pool with a seeded fault plan injecting NaN-loss
//! divergence and a worker panic — and records quarantine counts, recovery
//! overhead and whether the winner stayed byte-identical. Then measures the
//! crash-safe pre-training path: an uninterrupted journaled run vs a run
//! killed mid-labelling (injected IO fault) and resumed, checking the
//! resumed comparator parameters match bit for bit. Results land in
//! `BENCH_search_faults.json`.
//!
//! ```sh
//! cargo run --release --bin search_faults            # pool = 16
//! cargo run --release --bin search_faults -- --quick # pool = 8
//! ```

use autocts::fault::{FaultPlan, FaultScope};
use autocts::prelude::*;
use autocts::AutoCts;
use octs_search::{autocts_plus_search_with_pool, AutoCtsPlusConfig};
use octs_space::ArchHyper;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct SearchRun {
    pool_size: usize,
    injected_nan_units: usize,
    injected_panic_units: usize,
    clean_secs: f64,
    faulted_secs: f64,
    fault_overhead_ratio: f64,
    quarantined: usize,
    quarantine_exact: bool,
    winner_identical: bool,
    winner_val_mae_bits_equal: bool,
}

#[derive(Serialize)]
struct ResumeRun {
    label_units: usize,
    uninterrupted_secs: f64,
    killed_after_appends: u64,
    resume_secs: f64,
    params_byte_identical: bool,
    losses_identical: bool,
}

#[derive(Serialize)]
struct Report {
    note: String,
    search: SearchRun,
    resume: ResumeRun,
}

fn target_task() -> ForecastTask {
    let p = DatasetProfile::custom("bf", Domain::Traffic, 4, 220, 24, 0.3, 0.1, 10.0, 31);
    ForecastTask::new(p.generate(0), ForecastSetting::multi(4, 2), 0.6, 0.2, 2)
}

fn source_tasks() -> Vec<ForecastTask> {
    let p = DatasetProfile::custom("bs", Domain::Energy, 3, 200, 24, 0.3, 0.1, 10.0, 88);
    vec![ForecastTask::new(p.generate(0), ForecastSetting::multi(4, 2), 0.6, 0.2, 2)]
}

fn measure_search(pool_size: usize) -> SearchRun {
    let task = target_task();
    let space = JointSpace::tiny();
    let cfg = AutoCtsPlusConfig::test();
    let plan = FaultPlan::seeded(0xFA17, pool_size as u64, 1, 1, &[], &[]);
    let faulty: Vec<u64> =
        plan.nan_loss_units.keys().copied().chain(plan.panic_units.iter().copied()).collect();

    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let pool = space.sample_distinct(pool_size, &mut rng);
    let healthy: Vec<ArchHyper> = pool
        .iter()
        .enumerate()
        .filter(|(i, _)| !faulty.contains(&(*i as u64)))
        .map(|(_, ah)| ah.clone())
        .collect();

    let t0 = Instant::now();
    let reference = autocts_plus_search_with_pool(&task, &space, &cfg, healthy).expect("clean run");
    let clean_secs = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let faulted = {
        let _scope = FaultScope::activate(plan.clone());
        autocts_plus_search_with_pool(&task, &space, &cfg, pool.clone()).expect("faulted run")
    };
    let faulted_secs = t1.elapsed().as_secs_f64();

    let quarantine_exact = faulted.quarantined.len() == faulty.len()
        && faulty.iter().all(|&u| faulted.quarantined.contains(&pool[u as usize]));
    let run = SearchRun {
        pool_size,
        injected_nan_units: plan.nan_loss_units.len(),
        injected_panic_units: plan.panic_units.len(),
        clean_secs,
        faulted_secs,
        fault_overhead_ratio: faulted_secs / clean_secs,
        quarantined: faulted.quarantined.len(),
        quarantine_exact,
        winner_identical: faulted.best == reference.best,
        winner_val_mae_bits_equal: faulted.best_report.best_val_mae.to_bits()
            == reference.best_report.best_val_mae.to_bits(),
    };
    eprintln!(
        "[search] pool={} clean {:.3}s faulted {:.3}s (x{:.2}) quarantined={} winner identical={}",
        pool_size,
        clean_secs,
        faulted_secs,
        run.fault_overhead_ratio,
        run.quarantined,
        run.winner_identical
    );
    run
}

fn measure_resume() -> ResumeRun {
    let cfg = PretrainConfig { l_shared: 3, l_random: 3, epochs: 3, ..PretrainConfig::test() };
    let label_units = source_tasks().len() * (cfg.l_shared + cfg.l_random);
    let base = std::env::temp_dir().join(format!("octs_bench_faults_{}", std::process::id()));
    let clean_dir = base.join("clean");
    let killed_dir = base.join("killed");
    std::fs::remove_dir_all(&base).ok();

    let t0 = Instant::now();
    let (clean_sys, clean_report) =
        AutoCts::resume(AutoCtsConfig::test(), source_tasks(), &cfg, &clean_dir)
            .expect("uninterrupted run");
    let uninterrupted_secs = t0.elapsed().as_secs_f64();

    // Kill after labelling: fingerprint, encoder and the one task's labels
    // are appends 0-2, so failing append 3 (the first epoch record) leaves
    // every label journaled; the resume replays them and retrains.
    let killed_after_appends = 3u64;
    {
        let _scope =
            FaultScope::activate(FaultPlan::new().io_error("journal.append", killed_after_appends));
        let mut sys = AutoCts::new(AutoCtsConfig::test());
        sys.pretrain_journaled(source_tasks(), &cfg, &killed_dir)
            .expect_err("injected IO fault must abort the run");
    }

    let t1 = Instant::now();
    let (resumed_sys, resumed_report) =
        AutoCts::resume(AutoCtsConfig::test(), source_tasks(), &cfg, &killed_dir).expect("resume");
    let resume_secs = t1.elapsed().as_secs_f64();

    let ser = |s: &AutoCts| serde_json::to_string(&s.tahc.ps.snapshot()).expect("params serialize");
    let run = ResumeRun {
        label_units,
        uninterrupted_secs,
        killed_after_appends,
        resume_secs,
        params_byte_identical: ser(&clean_sys) == ser(&resumed_sys),
        losses_identical: clean_report.epoch_losses == resumed_report.epoch_losses,
    };
    eprintln!(
        "[resume] uninterrupted {:.3}s, killed@{} + resume {:.3}s, params identical={}",
        uninterrupted_secs, killed_after_appends, resume_secs, run.params_byte_identical
    );
    std::fs::remove_dir_all(&base).ok();
    run
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let pool_size = if quick { 8 } else { 16 };

    let search = measure_search(pool_size);
    let resume = measure_resume();

    let report = Report {
        note: "fault_overhead_ratio compares a faulted-pool search (quarantines included) to a \
               healthy-subpool search; resume_secs covers only the work remaining after the kill"
            .to_string(),
        search,
        resume,
    };
    octs_bench::write_report("BENCH_search_faults.json", quick, &report);

    assert!(report.search.quarantine_exact, "quarantine must cover exactly the injected faults");
    assert!(report.search.winner_identical, "faults outside the winner must not change the top-1");
    assert!(report.search.winner_val_mae_bits_equal, "winner's training must be byte-identical");
    assert!(report.resume.params_byte_identical, "resumed params must match bit for bit");
    assert!(report.resume.losses_identical, "resumed epoch losses must match exactly");
}
