//! Observability smoke + overhead measurement for the search stack.
//!
//! Runs one full AutoCTS+ per-task search twice — recorder off, then
//! recorder on — and checks that (a) the winner is byte-identical, so
//! tracing is purely observational, (b) the NDJSON trace parses and covers
//! every required span/counter, and (c) tracing overhead on the hot ranking
//! path stays under 5%: the median traced/plain ratio over
//! [`OVERHEAD_PAIRS`] alternating pairs of `evolve_search` runs
//! ([`octs_bench::paired`]), so a slow spell of the host inflates a few
//! pairs, not the gate.
//! Results land in `BENCH_search_trace.json`.
//!
//! ```sh
//! cargo run --release --bin search_trace            # k_s = 2048
//! cargo run --release --bin search_trace -- --quick # k_s = 256
//! ```

use octs_comparator::{Tahc, TahcConfig, TaskEmbedConfig, TaskEmbedder, Ts2VecConfig};
use octs_data::{DatasetProfile, Domain, ForecastSetting, ForecastTask};
use octs_model::TrainConfig;
use octs_search::{autocts_plus_search, evolve_search, AutoCtsPlusConfig, EvolveConfig};
use octs_space::{HyperSpace, JointSpace};
use serde::Serialize;
use std::time::Duration;

/// Spans the trace must contain for the run to count as covering the
/// pipeline (label -> comparator pretrain -> rank -> final training).
const REQUIRED_SPANS: &[&str] = &[
    "phase.label",
    "phase.pretrain",
    "phase.rank",
    "phase.final_train",
    "rank.evolve",
    "rank.tournament",
    "rank.round_robin",
    "train.run",
    "label.unit",
];

/// Counters the trace must carry.
const REQUIRED_COUNTERS: &[&str] = &[
    "search.pool",
    "rank.matches",
    "rank.embed_cache.hits",
    "rank.embed_cache.misses",
    "train.epochs",
];

/// Plain/traced timing pairs behind the overhead gate. Odd, so the median
/// is one pair's ratio; the same count in quick and full mode.
const OVERHEAD_PAIRS: usize = 41;

#[derive(Serialize)]
struct PhaseRow {
    phase: String,
    total_us: u64,
    share_of_wall: f64,
}

#[derive(Serialize)]
struct Report {
    k_s: usize,
    winner_identical: bool,
    trace_lines: usize,
    required_spans_present: bool,
    required_counters_present: bool,
    phases: Vec<PhaseRow>,
    rank_matches: u64,
    embed_cache_hit_rate: f64,
    task_cache_hits: u64,
    task_cache_misses: u64,
    task_cache_hit_rate: f64,
    probe_p95_us: f64,
    rank_plain_secs: f64,
    rank_traced_secs: f64,
    overhead_pairs: usize,
    overhead_pct: f64,
    overhead_q1_pct: f64,
    overhead_q3_pct: f64,
    note: String,
}

fn task() -> ForecastTask {
    let p = DatasetProfile::custom("trace", Domain::Traffic, 4, 220, 24, 0.3, 0.1, 10.0, 23);
    ForecastTask::new(p.generate(0), ForecastSetting::multi(4, 2), 0.6, 0.2, 2)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let k_s = if quick { 256 } else { 2048 };

    // --- 1. Full per-task search, recorder off then on --------------------
    let t = task();
    let space = JointSpace::tiny();
    let cfg = AutoCtsPlusConfig {
        num_labeled: 8,
        label_cfg: TrainConfig::test(),
        final_cfg: TrainConfig::test(),
        evolve: EvolveConfig { k_s: 64, ..EvolveConfig::test() },
        ..AutoCtsPlusConfig::test()
    };

    let plain = autocts_plus_search(&t, &space, &cfg).expect("plain search");

    let rec = octs_obs::Recorder::new();
    let scope = octs_obs::ObsScope::activate(&rec);
    let traced = autocts_plus_search(&t, &space, &cfg).expect("traced search");
    drop(scope);

    let winner_identical = plain.best == traced.best
        && plain.best_report.best_val_mae.to_bits() == traced.best_report.best_val_mae.to_bits();

    let ndjson = rec.ndjson();
    let lines = octs_obs::parse_ndjson(&ndjson).expect("trace must parse as NDJSON");
    let summary = rec.summary();

    let missing_spans: Vec<&str> =
        REQUIRED_SPANS.iter().filter(|s| summary.span_total_us(s) == 0).copied().collect();
    let missing_counters: Vec<&str> =
        REQUIRED_COUNTERS.iter().filter(|c| summary.counter(c) == 0).copied().collect();
    for s in &missing_spans {
        eprintln!("MISSING span: {s}");
    }
    for c in &missing_counters {
        eprintln!("MISSING counter: {c}");
    }

    let wall = summary.wall_us.max(1) as f64;
    let phases: Vec<PhaseRow> =
        ["phase.label", "phase.pretrain", "phase.rank", "phase.final_train"]
            .iter()
            .map(|p| {
                let us = summary.span_total_us(p);
                PhaseRow { phase: p.to_string(), total_us: us, share_of_wall: us as f64 / wall }
            })
            .collect();
    for row in &phases {
        eprintln!(
            "[phase] {:<18} {:>10} us  ({:.1}% of wall)",
            row.phase,
            row.total_us,
            row.share_of_wall * 100.0
        );
    }

    let embed_hits = summary.counter("rank.embed_cache.hits");
    let embed_misses = summary.counter("rank.embed_cache.misses");
    let rate = |h: u64, m: u64| if h + m == 0 { 0.0 } else { h as f64 / (h + m) as f64 };
    let probe_p95_us =
        summary.histograms.iter().find(|h| h.name == "rank.probe_us").map(|h| h.p95).unwrap_or(0.0);

    // --- 1b. Task-pathway cache under a task-aware ranking -----------------
    // The per-task search above runs the comparator task-unaware (prelim =
    // None), so its `rank.task_cache.*` counters are legitimately zero and
    // reporting them as "the" hit rate is misleading. Measure the cache in
    // the regime it exists for — a zero-shot-style ranking that passes the
    // task's preliminary embedding to every comparison.
    let mut embedder = TaskEmbedder::new(TaskEmbedConfig::test(), Ts2VecConfig::test(), 1);
    let prelim = embedder.preliminary(&t);
    let task_tahc = Tahc::new(TahcConfig::test(), space.hyper.clone(), 0);
    let task_rec = octs_obs::Recorder::new();
    let task_scope = octs_obs::ObsScope::activate(&task_rec);
    let top = evolve_search(&task_tahc, Some(&prelim), &space, &cfg.evolve);
    drop(task_scope);
    assert!(!top.is_empty());
    let task_summary = task_rec.summary();
    let task_hits = task_summary.counter("rank.task_cache.hits");
    let task_misses = task_summary.counter("rank.task_cache.misses");
    eprintln!(
        "[task-cache] task-aware ranking: {task_hits} hits / {task_misses} misses \
         ({:.1}% hit rate)",
        rate(task_hits, task_misses) * 100.0
    );

    // --- 2. Overhead on the hot ranking path, paired ---------------------
    let big = JointSpace::scaled();
    let tahc = Tahc::new(
        TahcConfig { task_aware: false, ..TahcConfig::scaled() },
        HyperSpace::scaled(),
        0,
    );
    let ecfg = EvolveConfig { k_s, ..EvolveConfig::scaled() };

    // The traced run is the A side, so each pair's A/B ratio is its
    // traced/plain time.
    let timing = octs_bench::paired(OVERHEAD_PAIRS, Duration::ZERO, |plain| {
        tahc.invalidate_caches();
        let r = octs_obs::Recorder::new();
        let scope = (!plain).then(|| octs_obs::ObsScope::activate(&r));
        let top = evolve_search(&tahc, None, &big, &ecfg);
        drop(scope);
        assert!(!top.is_empty());
    });
    let pct = |ratio: f64| (ratio - 1.0) * 100.0;
    let (overhead_q1_pct, overhead_pct, overhead_q3_pct) =
        (pct(timing.ratio.q1), pct(timing.ratio.median), pct(timing.ratio.q3));
    let (rank_plain_secs, rank_traced_secs) = (timing.b_ns / 1e9, timing.a_ns / 1e9);
    eprintln!(
        "[overhead] {OVERHEAD_PAIRS} pairs: median plain {rank_plain_secs:.3}s traced \
         {rank_traced_secs:.3}s; paired overhead median {overhead_pct:+.2}% \
         (q1 {overhead_q1_pct:+.2}%, q3 {overhead_q3_pct:+.2}%)"
    );

    let report = Report {
        k_s,
        winner_identical,
        trace_lines: lines.len(),
        required_spans_present: missing_spans.is_empty(),
        required_counters_present: missing_counters.is_empty(),
        phases,
        rank_matches: summary.counter("rank.matches"),
        embed_cache_hit_rate: rate(embed_hits, embed_misses),
        task_cache_hits: task_hits,
        task_cache_misses: task_misses,
        task_cache_hit_rate: rate(task_hits, task_misses),
        probe_p95_us,
        rank_plain_secs,
        rank_traced_secs,
        overhead_pairs: OVERHEAD_PAIRS,
        overhead_pct,
        overhead_q1_pct,
        overhead_q3_pct,
        note: "overhead is the median of per-pair traced/plain ratios over alternating \
               evolve_search runs (the hot ranking path), q1/q3 beside it; \
               full-search trace validated for phase coverage and winner determinism; \
               task cache measured on a task-aware ranking (the full per-task search \
               is task-unaware by configuration, so its own counters stay zero)"
            .to_string(),
    };
    octs_bench::write_report("BENCH_search_trace.json", quick, &report);

    assert!(winner_identical, "recorder-on search must select the byte-identical winner");
    assert!(
        report.task_cache_hit_rate > 0.0,
        "task-aware ranking must hit the task-pathway cache \
         ({task_hits} hits / {task_misses} misses)"
    );
    assert!(missing_spans.is_empty(), "trace missing required spans: {missing_spans:?}");
    assert!(missing_counters.is_empty(), "trace missing required counters: {missing_counters:?}");
    assert!(
        overhead_pct <= 5.0,
        "tracing overhead {overhead_pct:.2}% (paired median; q1 {overhead_q1_pct:.2}%, \
         q3 {overhead_q3_pct:.2}%) exceeds the 5% budget"
    );
}
