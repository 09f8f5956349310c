//! Sharded, streaming task-bank pre-training at scale.
//!
//! Exercises the full disk-bank pipeline end-to-end and records:
//! - labelling throughput (tasks/sec) at 1, 2 and 4 workers over the same
//!   bank, with the per-run report bit-compared so the speed knob is proven
//!   not to be a result knob (this host may have a single core — the worker
//!   sweep is a determinism demonstration first, a scaling curve second);
//! - peak RSS of the streamed pipeline vs the in-memory pipeline as the bank
//!   grows across ≥3 sizes, each measured in a child process (`VmHWM` from
//!   `/proc/self/status`); the streamed curve is gated flat in full mode;
//! - comparator cache traffic and cold/warm latency of zero-shot ranking
//!   from the persisted artifact, gated sub-second in full mode.
//!
//! Results go to `BENCH_pretrain_scale.json`.
//!
//! ```sh
//! cargo run --release -p octs-bench --bin pretrain_scale            # 2,000-task bank
//! cargo run --release -p octs-bench --bin pretrain_scale -- --quick # CI smoke
//! ```

use autocts::comparator::PretrainReport;
use autocts::data::bank::{write_bank, BankConfig};
use autocts::data::{BankManifest, BankStream};
use autocts::prelude::*;
use autocts::BankRunOptions;
use octs_model::TrainConfig;
use octs_obs::{ObsScope, Recorder};
use octs_search::EvolveConfig;
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Full mode: max allowed streamed peak-RSS growth across the size curve
/// (the bank itself grows 4x across the same curve).
const RSS_FLAT_TOL: f64 = 1.5;

/// Full mode: budget for a cold zero-shot rank from the loaded artifact.
const RANK_BUDGET_SECS: f64 = 1.0;

#[derive(Serialize)]
struct WorkerRun {
    workers: usize,
    prefetch: usize,
    label_secs: f64,
    total_secs: f64,
    tasks_per_sec: f64,
    /// Bit-exact run signature: epoch losses + holdout accuracy. Identical
    /// across worker counts by the pipeline's determinism contract.
    report_bits: Vec<u32>,
}

#[derive(Serialize)]
struct RssPoint {
    n_tasks: usize,
    bank_bytes: u64,
    streamed_peak_rss_kb: u64,
    inmemory_peak_rss_kb: u64,
}

#[derive(Serialize)]
struct CacheReport {
    hits: u64,
    misses: u64,
    hit_rate: f64,
}

#[derive(Serialize)]
struct Report {
    bank_tasks: usize,
    shard_tasks: usize,
    n_shards: usize,
    worker_runs: Vec<WorkerRun>,
    workers_bit_identical: bool,
    rss_curve: Vec<RssPoint>,
    /// streamed RSS at the largest size over the smallest — the flat gate.
    streamed_rss_growth: f64,
    inmemory_rss_growth: f64,
    bank_growth: f64,
    rank_cold_secs: f64,
    rank_warm_secs: f64,
    rank_candidates: usize,
    embed_cache: CacheReport,
    task_cache: CacheReport,
    note: String,
}

fn bank_cfg(n_tasks: usize, shard_tasks: usize, quick: bool) -> BankConfig {
    let (n, t) = if quick { (3, 180) } else { (4, 320) };
    let profiles = vec![
        DatasetProfile::custom("bank-traffic", Domain::Traffic, n, t, 24, 0.3, 0.1, 10.0, 901),
        DatasetProfile::custom("bank-energy", Domain::Energy, n, t, 24, 0.2, 0.1, 5.0, 902),
        DatasetProfile::custom("bank-solar", Domain::Solar, n, t, 24, 0.25, 0.08, 8.0, 903),
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
    BankConfig { n_tasks, shard_tasks, profiles, enrich, seed: 20_260_807 }
}

fn pre_cfg() -> PretrainConfig {
    PretrainConfig {
        l_shared: 2,
        l_random: 2,
        epochs: 2,
        label_cfg: TrainConfig::test(),
        ..PretrainConfig::test()
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("octs_prescale_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| rd.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Child-process entry: run one pipeline flavour over a bank, print peak RSS.
fn rss_probe(flavour: &str, bank_dir: &Path, run_dir: &Path) {
    let pre = pre_cfg();
    let mut sys = AutoCts::new(AutoCtsConfig::test());
    match flavour {
        "streamed" => {
            sys.pretrain_bank_journaled(bank_dir, &pre, run_dir, &BankRunOptions::default())
                .expect("streamed probe");
        }
        "inmemory" => {
            // The pre-bank path: materialize every task, then hand the whole
            // vector to `AutoCts::pretrain`.
            let manifest = BankManifest::load(bank_dir).expect("manifest");
            let shards: Vec<usize> = (0..manifest.shards.len()).collect();
            let tasks: Vec<ForecastTask> = BankStream::open(bank_dir, &manifest, &shards, 2)
                .map(|r| r.map(|(_, t)| t))
                .collect::<Result<_, _>>()
                .expect("bank stream");
            sys.pretrain(tasks, &pre);
        }
        other => panic!("unknown probe flavour {other}"),
    }
    println!("PEAK_RSS_KB={}", peak_rss_kb());
}

fn spawn_probe(flavour: &str, bank_dir: &Path, run_dir: &Path) -> u64 {
    let exe = std::env::current_exe().expect("current exe");
    let out = std::process::Command::new(exe)
        .arg("--rss-probe")
        .arg(flavour)
        .arg(bank_dir)
        .arg(run_dir)
        .output()
        .expect("spawn rss probe");
    assert!(
        out.status.success(),
        "{flavour} probe failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("PEAK_RSS_KB="))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{flavour} probe printed no PEAK_RSS_KB:\n{stdout}"))
}

fn report_bits(r: &PretrainReport) -> Vec<u32> {
    r.epoch_losses
        .iter()
        .map(|l| l.to_bits())
        .chain(std::iter::once(r.holdout_accuracy.to_bits()))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--rss-probe") {
        rss_probe(&args[2], Path::new(&args[3]), Path::new(&args[4]));
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let pre = pre_cfg();

    let (bank_tasks, shard_tasks) = if quick { (24, 8) } else { (2000, 125) };
    let rss_sizes: &[usize] = if quick { &[8, 16, 32] } else { &[500, 1000, 2000] };
    let worker_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4] };

    // --- throughput: same bank, varying execution geometry -----------------
    let cfg = bank_cfg(bank_tasks, shard_tasks, quick);
    let n_shards = cfg.n_shards();
    let bank_dir = tmp_dir("bank_main");
    write_bank(&bank_dir, &cfg).expect("write main bank");

    let mut worker_runs = Vec::new();
    let mut artifact_dir = None;
    for &workers in worker_counts {
        let run_dir = tmp_dir(&format!("run_w{workers}"));
        let recorder = Recorder::new();
        let mut sys = AutoCts::new(AutoCtsConfig::test());
        let t0 = Instant::now();
        let report = {
            let _obs = ObsScope::activate(&recorder);
            sys.pretrain_bank_journaled(
                &bank_dir,
                &pre,
                &run_dir,
                &BankRunOptions { workers, prefetch: 4 },
            )
            .expect("bank pretraining")
        };
        let total_secs = t0.elapsed().as_secs_f64();
        let label_us: u64 = recorder
            .summary()
            .spans
            .iter()
            .filter(|s| s.name == "phase.label")
            .map(|s| s.total_us)
            .sum();
        let label_secs = label_us as f64 / 1e6;
        let run = WorkerRun {
            workers,
            prefetch: 4,
            label_secs,
            total_secs,
            tasks_per_sec: bank_tasks as f64 / label_secs.max(1e-9),
            report_bits: report_bits(&report),
        };
        eprintln!(
            "[pretrain_scale] workers={} label {:.2}s ({:.1} tasks/s) total {:.2}s",
            workers, run.label_secs, run.tasks_per_sec, run.total_secs
        );
        if workers == 1 {
            artifact_dir = Some(run_dir); // keep for the rank phase
        } else {
            std::fs::remove_dir_all(&run_dir).ok();
        }
        worker_runs.push(run);
    }
    let workers_bit_identical =
        worker_runs.iter().all(|r| r.report_bits == worker_runs[0].report_bits);

    // --- peak RSS vs bank size: streamed and in-memory, child processes ----
    let mut rss_curve = Vec::new();
    for &n in rss_sizes {
        let (dir, owned) = if n == bank_tasks {
            (bank_dir.clone(), false)
        } else {
            let d = tmp_dir(&format!("bank_{n}"));
            write_bank(&d, &bank_cfg(n, shard_tasks.min(n), quick)).expect("write rss bank");
            (d, true)
        };
        let streamed_run = tmp_dir(&format!("rss_s_{n}"));
        let inmemory_run = tmp_dir(&format!("rss_m_{n}"));
        let point = RssPoint {
            n_tasks: n,
            bank_bytes: dir_bytes(&dir),
            streamed_peak_rss_kb: spawn_probe("streamed", &dir, &streamed_run),
            inmemory_peak_rss_kb: spawn_probe("inmemory", &dir, &inmemory_run),
        };
        eprintln!(
            "[pretrain_scale] n={} bank {:.1} MiB rss streamed {:.1} MiB / in-memory {:.1} MiB",
            n,
            point.bank_bytes as f64 / (1 << 20) as f64,
            point.streamed_peak_rss_kb as f64 / 1024.0,
            point.inmemory_peak_rss_kb as f64 / 1024.0,
        );
        std::fs::remove_dir_all(&streamed_run).ok();
        std::fs::remove_dir_all(&inmemory_run).ok();
        if owned {
            std::fs::remove_dir_all(&dir).ok();
        }
        rss_curve.push(point);
    }
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let first = &rss_curve[0];
    let last = &rss_curve[rss_curve.len() - 1];
    let streamed_rss_growth = ratio(last.streamed_peak_rss_kb, first.streamed_peak_rss_kb);
    let inmemory_rss_growth = ratio(last.inmemory_peak_rss_kb, first.inmemory_peak_rss_kb);
    let bank_growth = ratio(last.bank_bytes, first.bank_bytes);

    // --- sub-second zero-shot from the persisted artifact ------------------
    let artifact_dir = artifact_dir.expect("workers=1 run kept");
    let mut served = AutoCts::load_artifact(&artifact_dir).expect("load artifact");
    assert!(served.is_pretrained());
    let unseen = {
        let p =
            DatasetProfile::custom("bank-unseen", Domain::Exchange, 4, 320, 24, 0.2, 0.1, 8.0, 7);
        ForecastTask::new(p.generate(0), ForecastSetting::multi(4, 2), 0.6, 0.2, 2)
    };
    let evolve = if quick {
        EvolveConfig::test()
    } else {
        EvolveConfig { k_s: 256, generations: 4, top_k: 10, ..EvolveConfig::scaled() }
    };
    let t_cold = Instant::now();
    let cold = served.rank(&unseen, &evolve);
    let rank_cold_secs = t_cold.elapsed().as_secs_f64();
    let t_warm = Instant::now();
    let warm = served.rank(&unseen, &evolve);
    let rank_warm_secs = t_warm.elapsed().as_secs_f64();
    assert_eq!(
        cold.ranked.iter().map(|ah| ah.fingerprint()).collect::<Vec<_>>(),
        warm.ranked.iter().map(|ah| ah.fingerprint()).collect::<Vec<_>>(),
        "warm rank must agree with cold"
    );
    let embed = served.tahc.embed_cache_stats();
    let task = served.tahc.task_cache_stats();
    eprintln!(
        "[pretrain_scale] rank cold {:.3}s warm {:.3}s ({} candidates), embed cache {:.1}% of {}",
        rank_cold_secs,
        rank_warm_secs,
        cold.ranked.len(),
        embed.hit_rate() * 100.0,
        embed.hits + embed.misses,
    );

    let report = Report {
        bank_tasks,
        shard_tasks,
        n_shards,
        worker_runs,
        workers_bit_identical,
        rss_curve,
        streamed_rss_growth,
        inmemory_rss_growth,
        bank_growth,
        rank_cold_secs,
        rank_warm_secs,
        rank_candidates: cold.ranked.len(),
        embed_cache: CacheReport {
            hits: embed.hits as u64,
            misses: embed.misses as u64,
            hit_rate: embed.hit_rate(),
        },
        task_cache: CacheReport {
            hits: task.hits as u64,
            misses: task.misses as u64,
            hit_rate: task.hit_rate(),
        },
        note: "worker sweep runs the identical bank under different execution geometry and \
               bit-compares the resulting reports; RSS points are measured as VmHWM in a child \
               process per (flavour, size) so allocator high-water marks never leak across \
               measurements; rank latency is measured on an artifact loaded from disk, cold \
               caches first"
            .to_string(),
    };
    octs_bench::write_report("BENCH_pretrain_scale.json", quick, &report);
    println!(
        "{bank_tasks} tasks, streamed rss growth {streamed_rss_growth:.2}x \
         (bank {bank_growth:.1}x), rank cold {rank_cold_secs:.3}s"
    );

    std::fs::remove_dir_all(&bank_dir).ok();
    std::fs::remove_dir_all(&artifact_dir).ok();

    assert!(workers_bit_identical, "worker sweep must be bit-identical");
    assert!(!cold.ranked.is_empty(), "rank must return a shortlist");
    if !quick {
        assert!(
            streamed_rss_growth <= RSS_FLAT_TOL,
            "streamed peak RSS must stay flat as the bank grows: {streamed_rss_growth:.2}x > \
             {RSS_FLAT_TOL}x while the bank grew {bank_growth:.1}x"
        );
        assert!(
            rank_cold_secs < RANK_BUDGET_SECS,
            "cold zero-shot rank blew the sub-second budget: {rank_cold_secs:.3}s"
        );
    }
}
