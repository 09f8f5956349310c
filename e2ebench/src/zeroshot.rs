//! `zeroshot-rank`: closed loop with one caller. Set-up writes a task bank,
//! pretrains the T-AHC comparator from it through the journaled bank
//! pipeline and loads the persisted artifact from disk; each op then ranks
//! the joint space for a fresh unseen task. Comparator inference does the
//! work; nothing trains in the timed phase. This is the only workload where
//! bank shards, the journal and `persist` run, and they are charged to
//! `setup_s`.

use crate::busy::BusyCpus;
use crate::harness::{self, closed_loop, Mode, Run, WorkDir};
use crate::inputs::{Stream, TaskSpec};
use crate::json::Json;
use crate::measure;
use autocts::comparator::{PretrainConfig, PretrainReport};
use autocts::data::{
    write_bank, BankConfig, BankManifest, BankStream, DatasetProfile, Domain, EnrichConfig,
    ForecastSetting, ForecastTask,
};
use autocts::model::{train_forecaster, Forecaster, ModelDims, TrainConfig};
use autocts::search::EvolveConfig;
use autocts::{AutoCts, AutoCtsConfig, BankRunOptions};
use octs_obs::{ObsScope, Recorder};
use std::path::Path;
use std::time::Instant;

/// Rayon threads. On a 2-vCPU VM one thread with the other vCPU idle
/// flipped between ~9 and ~14 ms p50 for seconds at a time, and two threads
/// drew host steal (up to 12 %) and spread 17–24 % in p50 over four seeds.
/// One thread with every CPU kept busy (see [`crate::busy`]) held 7 %.
pub const THREADS: usize = 1;

/// Bank size: large enough that set-up is seconds long and steady, not a
/// few hundred milliseconds of mostly file-system noise.
const BANK_TASKS: usize = 96;
const SHARD_TASKS: usize = 24;

/// Ops whose top-ranked candidate is trained after the timed phase to give
/// `val_mae`; the first ops of every run, so a pure function of the seed.
const QUALITY_OPS: usize = 100;

const TAIL_CAP: f64 = 90.0;
const WINDOWS: usize = 4;
const TRACE_MIN_OPS: usize = 8;

/// The pretraining bank. It is the same in every run — it plays the part of
/// the system's pretraining corpus, like the serve fixtures — so the
/// comparator every op queries does not change with the seed; the unseen
/// tasks ranked do.
fn bank_cfg() -> BankConfig {
    let s = |k: u64| 20_261_017 + k;
    let profiles = vec![
        DatasetProfile::custom("bank-traffic", Domain::Traffic, 4, 320, 24, 0.3, 0.1, 10.0, s(1)),
        DatasetProfile::custom("bank-energy", Domain::Energy, 4, 320, 24, 0.2, 0.1, 5.0, s(2)),
        DatasetProfile::custom("bank-solar", Domain::Solar, 4, 320, 24, 0.25, 0.08, 8.0, s(3)),
    ];
    let enrich = EnrichConfig {
        subsets_per_dataset: 1,
        time_frac: (0.6, 0.9),
        series_frac: (0.7, 1.0),
        settings: vec![ForecastSetting::multi(4, 2), ForecastSetting::multi(6, 2)],
        min_spans: 8,
        stride: 2,
        seed: 0,
    };
    BankConfig { n_tasks: BANK_TASKS, shard_tasks: SHARD_TASKS, profiles, enrich, seed: s(4) }
}

fn pretrain_cfg() -> PretrainConfig {
    PretrainConfig {
        l_shared: 2,
        l_random: 2,
        epochs: 2,
        label_cfg: TrainConfig::test(),
        ..PretrainConfig::test()
    }
}

fn evolve_cfg() -> EvolveConfig {
    EvolveConfig { k_s: 256, generations: 4, top_k: 10, ..EvolveConfig::scaled() }
}

fn unseen(seed: u64, i: usize) -> ForecastTask {
    TaskSpec::draw(seed, Stream::UnseenTasks, i as u64).build(&format!("unseen-{i}"))
}

fn report_bits(r: &PretrainReport) -> Vec<u32> {
    r.epoch_losses.iter().map(|l| l.to_bits()).chain([r.holdout_accuracy.to_bits()]).collect()
}

/// Timings of one set-up's stages, seconds.
struct SetupTimes {
    write_s: f64,
    pretrain_s: f64,
    load_s: f64,
}

fn setup(dir: &WorkDir) -> Result<(AutoCts, Vec<u32>, SetupTimes), String> {
    let bank_dir = dir.fresh("bank");
    let run_dir = dir.fresh("run");
    let t = Instant::now();
    write_bank(&bank_dir, &bank_cfg()).map_err(|e| format!("write_bank: {e}"))?;
    let write_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut sys = AutoCts::new(AutoCtsConfig::test());
    let report = sys
        .pretrain_bank_journaled(&bank_dir, &pretrain_cfg(), &run_dir, &BankRunOptions::default())
        .map_err(|e| format!("pretrain_bank_journaled: {e}"))?;
    let pretrain_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let loaded = AutoCts::load_artifact(&run_dir).map_err(|e| format!("load_artifact: {e}"))?;
    let load_s = t.elapsed().as_secs_f64();
    if !loaded.is_pretrained() {
        return Err("loaded artifact is not pretrained".into());
    }
    Ok((loaded, report_bits(&report), SetupTimes { write_s, pretrain_s, load_s }))
}

/// Streams every shard of the bank in `dir` and returns MB per second.
fn stream_bank(dir: &Path) -> Result<f64, String> {
    let manifest = BankManifest::load(dir).map_err(|e| format!("bank manifest: {e}"))?;
    let bytes: u64 = manifest
        .shards
        .iter()
        .map(|s| std::fs::metadata(dir.join(&s.file)).map_or(0, |m| m.len()))
        .sum();
    let shards: Vec<usize> = (0..manifest.shards.len()).collect();
    let t = Instant::now();
    let mut tasks = 0;
    for item in BankStream::open(dir, &manifest, &shards, 2) {
        item.map_err(|e| format!("bank stream: {e}"))?;
        tasks += 1;
    }
    if tasks != manifest.n_tasks {
        return Err(format!("bank stream yielded {tasks} of {} tasks", manifest.n_tasks));
    }
    Ok(bytes as f64 / 1e6 / t.elapsed().as_secs_f64())
}

fn fingerprints(sys: &mut AutoCts, task: &ForecastTask, evolve: &EvolveConfig) -> Vec<u64> {
    sys.rank(task, evolve).ranked.iter().map(|ah| ah.fingerprint()).collect()
}

/// Validation MAE (scaled) of the top-ranked candidate after a short
/// training run on its task.
fn top1_mae(sys: &AutoCts, task: &ForecastTask, top: &autocts::ArchHyper) -> f64 {
    let dims = ModelDims::new(task.data.n(), task.data.f(), task.setting);
    let mut fc = Forecaster::new(top.clone(), dims, &task.data.adjacency, sys.cfg.seed);
    train_forecaster(&mut fc, task, &TrainConfig::test()).best_val_mae as f64
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, mode: Mode) -> Run {
    let mut run = Run::default();
    let busy = BusyCpus::all();
    run.note("cpus_kept_busy", busy.is_some());
    measure::reset_peak_heap();
    let dir = WorkDir::new("zeroshot");
    let rec = Recorder::new();
    let evolve = evolve_cfg();

    let mut sys = None;
    let mut bits: Option<Vec<u32>> = None;
    let mut times = Vec::new();
    for _ in 0..mode.setups() {
        let t0 = Instant::now();
        let done = {
            let _scope = (mode == Mode::Trace).then(|| ObsScope::activate(&rec));
            setup(&dir)
        };
        run.setups_s.push(t0.elapsed().as_secs_f64());
        match done {
            Ok((s, b, t)) => {
                if bits.as_ref().is_some_and(|prev| *prev != b) {
                    run.fail("bank pretraining differs between set-ups".into());
                }
                bits = Some(b);
                times.push(t);
                sys = Some(s);
            }
            Err(e) => run.fail(e),
        }
    }
    let Some(mut sys) = sys else {
        run.peak_heap_mb = measure::peak_heap_mb();
        return run;
    };

    // Timed phase (both halves in trace mode); every op's shortlist is kept
    // for the checks and the quality pass.
    let mut shortlists: Vec<Vec<autocts::ArchHyper>> = Vec::new();
    let top_k = evolve.top_k;
    let mut op = |sys: &mut AutoCts, task: ForecastTask, run_fail: &mut Vec<String>, i: usize| {
        let ranked = sys.rank(&task, &evolve).ranked;
        if ranked.len() != top_k {
            run_fail.push(format!("op {i}: shortlist has {} of {top_k}", ranked.len()));
        }
        shortlists.push(ranked);
    };
    let mut failures = Vec::new();
    let (timed, traced) = match mode {
        Mode::Measure => {
            let lp = closed_loop(
                seconds,
                QUALITY_OPS,
                |i| unseen(seed, i),
                |i, task| op(&mut sys, task, &mut failures, i),
            );
            (lp, None)
        }
        Mode::Trace => {
            let untraced = closed_loop(
                seconds / 2.0,
                TRACE_MIN_OPS,
                |i| unseen(seed, i),
                |i, task| op(&mut sys, task, &mut failures, i),
            );
            let first = untraced.lat_ms.len();
            let before = sys.tahc.embed_cache_stats();
            let trec = Recorder::new();
            let traced = {
                let _scope = ObsScope::activate(&trec);
                closed_loop(
                    seconds / 2.0,
                    TRACE_MIN_OPS,
                    |i| unseen(seed, first + i),
                    |i, task| op(&mut sys, task, &mut failures, first + i),
                )
            };
            let after = sys.tahc.embed_cache_stats();
            let hits = (after.hits - before.hits) as f64;
            let misses = (after.misses - before.misses) as f64;
            (untraced, Some((traced, trec, harness::ratio(hits, hits + misses))))
        }
    };
    for f in failures {
        run.fail(f);
    }

    // A repeated task must rank identically.
    if fingerprints(&mut sys, &unseen(seed, 0), &evolve)
        != shortlists[0].iter().map(|ah| ah.fingerprint()).collect::<Vec<_>>()
    {
        run.fail("re-ranking task 0 changed its shortlist".into());
    }

    run.attempted = shortlists.len() as u64;
    match traced {
        None => {
            let ops = timed.lat_ms.len();
            run.p50_ms = harness::windowed_median(&timed.lat_ms);
            run.tail = harness::windowed_tail(&timed.lat_ms, WINDOWS, TAIL_CAP);
            run.rate_per_s = harness::windowed_rate(&timed.lat_ms);
            run.cpu_ms_per_op = timed.cpu_s * 1e3 / ops as f64;
            let maes: Vec<f64> = (0..QUALITY_OPS.min(ops))
                .map(|i| top1_mae(&sys, &unseen(seed, i), &shortlists[i][0]))
                .collect();
            run.val_mae = maes.iter().sum::<f64>() / maes.len() as f64;
            run.note("tail", harness::tail_info(&run.tail, WINDOWS));
            run.note(
                "p50_ms_by_window",
                harness::window_medians(&timed.lat_ms, harness::P50_WINDOWS),
            );
            run.note("quality_ops", maes.len());
        }
        Some((traced, trec, hit_ratio)) => {
            let ops = traced.lat_ms.len() as f64;
            let sum = trec.summary();
            let setup_sum = rec.summary();
            let t = &times[0];
            run.layer("comparator.embed_ms", harness::span_ms(&sum, "phase.embed") / ops);
            run.layer("comparator.embed_cache_hit_ratio", hit_ratio);
            run.layer(
                "comparator.bank_label_tasks_per_s",
                harness::ratio(
                    BANK_TASKS as f64,
                    harness::span_ms(&setup_sum, "phase.label") / 1e3,
                ),
            );
            run.layer("search.rank_ms", harness::span_ms(&sum, "phase.rank") / ops);
            run.layer("search.matches_per_op", sum.counter("rank.matches") as f64 / ops);
            run.layer("data.bank_write_ms", t.write_s * 1e3);
            match stream_bank(&dir.path().join("bank")) {
                Ok(v) => run.layer("data.bank_stream_mb_per_s", v),
                Err(e) => run.fail(e),
            }
            run.layer("core.bank_pretrain_s", t.pretrain_s);
            run.layer("core.journal_appends", setup_sum.counter("journal.appends") as f64);
            run.layer("core.artifact_load_ms", t.load_s * 1e3);
            let p50_untraced = measure::median(&timed.lat_ms);
            run.layer(
                "trace.overhead_pct",
                (measure::median(&traced.lat_ms) / p50_untraced - 1.0) * 100.0,
            );
            let op_ms: f64 = traced.lat_ms.iter().sum();
            let attributed =
                harness::span_ms(&sum, "phase.embed") + harness::span_ms(&sum, "phase.rank");
            run.layer("trace.unexplained_pct", (op_ms - attributed) / op_ms * 100.0);
        }
    }
    run.note("bank_tasks", BANK_TASKS);
    run.note(
        "evolve",
        Json::obj([
            ("k_s", evolve.k_s.into()),
            ("generations", evolve.generations.into()),
            ("top_k", evolve.top_k.into()),
        ]),
    );
    run.peak_heap_mb = measure::peak_heap_mb();
    run
}
