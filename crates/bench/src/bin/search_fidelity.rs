//! Successive-halving fidelity ladder vs full-fidelity AutoCTS+ labelling.
//!
//! Runs both pipelines over the *same* candidate pool(s) and records, per
//! seed: label-training cost (epochs and wall-clock) of each pipeline, the
//! per-rung cost breakdown of the ladder, winner agreement (identity and the
//! ladder winner's validation-MAE ratio against the full-fidelity winner),
//! and how faithfully the cheap stage-1 proxy ranks candidates against their
//! full-fidelity labels (Kendall τ / Spearman ρ over the stage-1 survivors).
//! Ladder phase timings are collected through the octs-obs `phase.*` spans.
//! Results go to `BENCH_search_fidelity.json`.
//!
//! ```sh
//! cargo run --release -p octs-bench --bin search_fidelity            # 3 seeds, scaled ladder
//! cargo run --release -p octs-bench --bin search_fidelity -- --quick # 1 seed, tiny ladder
//! ```
//!
//! Gates: the ladder must always pay fewer label epochs than full fidelity
//! and keep the winner's quality within [`QUALITY_TOL`]; the full run
//! additionally gates the mean label-epoch ratio at ≥ [`FULL_EPOCH_RATIO`]×.

use octs_comparator::{label_one, TahcConfig};
use octs_data::metrics::{kendall_tau, spearman};
use octs_data::{DatasetProfile, Domain, ForecastSetting, ForecastTask};
use octs_model::TrainConfig;
use octs_obs::{ObsScope, Recorder};
use octs_search::{
    autocts_plus_search_with_pool, fidelity_ladder_search_with_pool, AutoCtsPlusConfig,
    EvolveConfig, LadderConfig, StageReport, FULL_FIDELITY_UNIT_BASE,
};
use octs_space::JointSpace;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// The ladder winner's validation MAE may exceed the full-fidelity winner's
/// by at most this factor (averaged over seeds) — "equal winner quality".
const QUALITY_TOL: f64 = 1.15;

/// Minimum mean label-epoch saving the full (non-quick) run must demonstrate.
const FULL_EPOCH_RATIO: f64 = 5.0;

#[derive(Serialize)]
struct SeedRun {
    seed: u64,
    pool: usize,
    winner_identical: bool,
    baseline_best_val_mae: f32,
    ladder_best_val_mae: f32,
    /// ladder MAE / baseline MAE — 1.0 is parity, lower is better.
    quality_ratio: f64,
    baseline_label_epochs: usize,
    ladder_label_epochs: usize,
    /// baseline epochs / ladder epochs — the labelling saving.
    label_epoch_ratio: f64,
    baseline_label_secs: f64,
    ladder_label_secs: f64,
    baseline_total_secs: f64,
    ladder_total_secs: f64,
    /// Rank agreement of stage-1 proxy scores vs full-fidelity labels of the
    /// same candidates (the stage-1 survivors).
    proxy_vs_full_kendall_tau: f32,
    proxy_vs_full_spearman: f32,
    /// Per-rung evaluated/promoted/cost breakdown, in ladder order.
    stages: Vec<StageReport>,
    /// octs-obs `phase.*` span totals for the ladder run, microseconds.
    ladder_phase_span_us: BTreeMap<String, u64>,
}

#[derive(Serialize)]
struct Report {
    ladder: LadderConfig,
    full_label_epochs_per_candidate: usize,
    runs: Vec<SeedRun>,
    mean_label_epoch_ratio: f64,
    mean_quality_ratio: f64,
    winner_agreement_rate: f64,
    note: String,
}

fn bench_task(quick: bool) -> ForecastTask {
    let profile = if quick {
        DatasetProfile::custom("fidelity-q", Domain::Traffic, 4, 220, 24, 0.3, 0.1, 10.0, 42)
    } else {
        DatasetProfile::custom("fidelity", Domain::Traffic, 5, 400, 24, 0.3, 0.1, 10.0, 17)
    };
    ForecastTask::new(profile.generate(0), ForecastSetting::multi(4, 2), 0.6, 0.2, 2)
}

fn bench_cfg(quick: bool, pool: usize, seed: u64) -> AutoCtsPlusConfig {
    if quick {
        AutoCtsPlusConfig { num_labeled: pool, seed, ..AutoCtsPlusConfig::test() }
    } else {
        AutoCtsPlusConfig {
            num_labeled: pool,
            label_cfg: TrainConfig::early_validation(),
            comparator: TahcConfig { task_aware: false, ..TahcConfig::scaled() },
            comparator_epochs: 40,
            // The ranking stage is identical in both pipelines and is not
            // what this bench measures; a moderate k_s keeps the labelling
            // signal from drowning in ranking wall-clock.
            evolve: EvolveConfig { k_s: 512, ..EvolveConfig::scaled() },
            final_cfg: TrainConfig { epochs: 10, patience: 3, ..TrainConfig::standard() },
            seed,
        }
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let ladder = if quick { LadderConfig::test() } else { LadderConfig::scaled() };
    let seeds: &[u64] = if quick { &[0] } else { &[0, 1, 2] };
    let task = bench_task(quick);
    let space = if quick { JointSpace::tiny() } else { JointSpace::scaled() };

    let mut runs = Vec::new();
    for &seed in seeds {
        let cfg = bench_cfg(quick, ladder.pool, seed);
        let full_epochs = cfg.label_cfg.epochs;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let pool = space.sample_distinct(ladder.pool, &mut rng);

        // --- full fidelity: label everyone at k epochs ---------------------
        let t0 = Instant::now();
        let baseline = autocts_plus_search_with_pool(&task, &space, &cfg, pool.clone())
            .expect("baseline search");
        let baseline_total = t0.elapsed().as_secs_f64();
        let baseline_label_epochs = pool.len() * full_epochs;

        // --- successive halving over the same pool -------------------------
        let recorder = Recorder::new();
        let t1 = Instant::now();
        let out = {
            let _scope = ObsScope::activate(&recorder);
            fidelity_ladder_search_with_pool(&task, &space, &cfg, &ladder, pool.clone(), None)
                .expect("ladder search")
        };
        let ladder_total = t1.elapsed().as_secs_f64();
        let ladder_phase_span_us: BTreeMap<String, u64> = recorder
            .summary()
            .spans
            .iter()
            .filter(|s| s.name.starts_with("phase."))
            .map(|s| (s.name.clone(), s.total_us))
            .collect();

        // --- proxy faithfulness: full-fidelity labels for the stage-1
        //     survivors (bench-only instrumentation, not pipeline cost) ------
        let mut canonical = pool.clone();
        canonical.sort_by_key(|ah| ah.fingerprint());
        let mut proxy_scores = Vec::new();
        let mut full_scores = Vec::new();
        for l in &out.proxy_labeled {
            let fp = l.ah.fingerprint();
            let pos = canonical
                .iter()
                .position(|ah| ah.fingerprint() == fp)
                .expect("survivor came from the pool");
            let full = label_one(
                &canonical[pos],
                &task,
                FULL_FIDELITY_UNIT_BASE + pos as u64,
                &cfg.label_cfg,
            );
            if !full.quarantined {
                proxy_scores.push(l.score);
                full_scores.push(full.score);
            }
        }
        let tau = kendall_tau(&proxy_scores, &full_scores);
        let rho = spearman(&proxy_scores, &full_scores);

        let run = SeedRun {
            seed,
            pool: pool.len(),
            winner_identical: out.best.fingerprint() == baseline.best.fingerprint(),
            baseline_best_val_mae: baseline.best_report.best_val_mae,
            ladder_best_val_mae: out.best_report.best_val_mae,
            quality_ratio: out.best_report.best_val_mae as f64
                / baseline.best_report.best_val_mae as f64,
            baseline_label_epochs,
            ladder_label_epochs: out.label_epochs,
            label_epoch_ratio: baseline_label_epochs as f64 / out.label_epochs as f64,
            baseline_label_secs: baseline.label_time.as_secs_f64(),
            ladder_label_secs: out.label_time.as_secs_f64(),
            baseline_total_secs: baseline_total,
            ladder_total_secs: ladder_total,
            proxy_vs_full_kendall_tau: tau,
            proxy_vs_full_spearman: rho,
            stages: out.stages.clone(),
            ladder_phase_span_us,
        };
        eprintln!(
            "[fidelity] seed={} epochs {}→{} ({:.1}x) label {:.2}s→{:.2}s mae {:.4}→{:.4} \
             (ratio {:.3}) identical={} tau={:.3}",
            seed,
            run.baseline_label_epochs,
            run.ladder_label_epochs,
            run.label_epoch_ratio,
            run.baseline_label_secs,
            run.ladder_label_secs,
            run.baseline_best_val_mae,
            run.ladder_best_val_mae,
            run.quality_ratio,
            run.winner_identical,
            tau
        );
        runs.push(run);
    }

    let mean = |f: fn(&SeedRun) -> f64| runs.iter().map(f).sum::<f64>() / runs.len() as f64;
    let mean_label_epoch_ratio = mean(|r| r.label_epoch_ratio);
    let mean_quality_ratio = mean(|r| r.quality_ratio);
    let winner_agreement_rate =
        runs.iter().filter(|r| r.winner_identical).count() as f64 / runs.len() as f64;

    let report = Report {
        ladder,
        full_label_epochs_per_candidate: if quick {
            TrainConfig::test().epochs
        } else {
            TrainConfig::early_validation().epochs
        },
        runs,
        mean_label_epoch_ratio,
        mean_quality_ratio,
        winner_agreement_rate,
        note: "both pipelines share the pool, comparator, ranking and final-training \
               configuration per seed, so the epoch/wall-clock deltas isolate the labelling \
               schedule; proxy-vs-full rank correlations are computed on the stage-1 survivors \
               with bench-only extra labelling that is charged to neither pipeline"
            .to_string(),
    };
    octs_bench::write_report("BENCH_search_fidelity.json", quick, &report);
    println!(
        "mean epoch ratio {mean_label_epoch_ratio:.2}x, \
         mean quality ratio {mean_quality_ratio:.3}, winner agreement {winner_agreement_rate:.2}"
    );

    assert!(
        report.runs.iter().all(|r| r.ladder_label_epochs < r.baseline_label_epochs),
        "the ladder must always pay fewer label epochs than full fidelity"
    );
    assert!(
        mean_quality_ratio <= QUALITY_TOL,
        "ladder winner quality degraded beyond tolerance: mean ratio {mean_quality_ratio:.3} > \
         {QUALITY_TOL}"
    );
    if !quick {
        assert!(
            mean_label_epoch_ratio >= FULL_EPOCH_RATIO,
            "full run must demonstrate >= {FULL_EPOCH_RATIO}x cheaper labelling, got \
             {mean_label_epoch_ratio:.2}x"
        );
    }
}
