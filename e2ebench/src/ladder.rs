//! `ladder-search`: closed loop with one caller. Each op samples a candidate
//! pool and runs one successive-halving fidelity-ladder search on a fresh
//! task. Training dominates: tape forward and backward, the trainer and
//! comparator training do most of the work.

use crate::busy::BusyCpus;
use crate::harness::{self, closed_loop, Mode, Run};
use crate::inputs::{Stream, TaskSpec};
use crate::json::Json;
use crate::measure;
use autocts::data::ForecastTask;
use autocts::search::{
    fidelity_ladder_search_with_pool, AutoCtsPlusConfig, LadderConfig, LadderOutcome,
    FULL_FIDELITY_UNIT_BASE,
};
use autocts::space::JointSpace;
use octs_obs::{ObsScope, Recorder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Rayon threads. On a 2-vCPU VM two threads ran no faster than one (the
/// vendored rayon starts fresh threads on every parallel call) and spread
/// 14 % in p50 and 15 % in rate over four seeds, against 9 % and 7 % for
/// one thread, with every CPU kept busy in both cases (see [`crate::busy`]).
pub const THREADS: usize = 1;

/// Ops every measured run completes, whatever `--seconds` says; `val_mae`
/// averages exactly these, so it is a pure function of the seed.
const QUALITY_OPS: usize = 200;

/// Tail percentile cap and window count: a run holds at least
/// [`QUALITY_OPS`] ops, so p90 over two windows keeps at least ten samples
/// beyond it.
const TAIL_CAP: f64 = 90.0;
const WINDOWS: usize = 2;

/// Tasks searched in each set-up; the timed phase re-runs them as its first
/// ops and must reproduce them bit for bit. Sixteen, so set-up time does not
/// hinge on the size of a few seeded tasks.
const WARM_OPS: usize = 16;

/// Ops of the untraced and traced halves of a trace run (at least).
const TRACE_MIN_OPS: usize = 8;

/// What one op returned, reduced to what the checks compare.
struct Searched {
    outcome: LadderOutcome,
    /// Winner fingerprint followed by every label's fingerprint and score
    /// bits, in ladder order — the op's determinism signature.
    signature: Vec<u64>,
    sample_s: f64,
}

struct Ladder {
    seed: u64,
    space: JointSpace,
    ladder: LadderConfig,
    /// Signatures of the warm-up ops, which the timed phase re-runs.
    references: Vec<Vec<u64>>,
}

impl Ladder {
    fn task(&self, i: usize) -> ForecastTask {
        TaskSpec::draw(self.seed, Stream::LadderTasks, i as u64).build(&format!("ladder-{i}"))
    }

    fn config(&self, i: usize) -> AutoCtsPlusConfig {
        AutoCtsPlusConfig { seed: self.seed.wrapping_add(i as u64), ..AutoCtsPlusConfig::test() }
    }

    /// One op: sample the pool, search, and check the outcome — including,
    /// for a warm-up op, that it repeats its set-up signature bit for bit.
    fn search(&self, i: usize, task: &ForecastTask) -> Result<Searched, String> {
        let cfg = self.config(i);
        let t = Instant::now();
        let pool =
            self.space.sample_distinct(self.ladder.pool, &mut ChaCha8Rng::seed_from_u64(cfg.seed));
        let sample_s = t.elapsed().as_secs_f64();
        let pool_fps: Vec<u64> = pool.iter().map(|ah| ah.fingerprint()).collect();
        let outcome =
            fidelity_ladder_search_with_pool(task, &self.space, &cfg, &self.ladder, pool, None)
                .map_err(|e| format!("op {i}: search failed: {e}"))?;
        let report = &outcome.best_report;
        if !(report.best_val_mae.is_finite() && report.val.mae.is_finite()) || report.poisoned {
            return Err(format!("op {i}: winner is not finite"));
        }
        if let Some(fp) = outcome.survivors.iter().flatten().find(|fp| !pool_fps.contains(fp)) {
            return Err(format!("op {i}: survivor {fp:016x} is not from the op's pool"));
        }
        let best = &outcome.best;
        if !self.space.hyper.contains(&best.hyper)
            || (self.space.require_both_st && !best.arch.has_both_st())
        {
            return Err(format!("op {i}: winner lies outside the search space"));
        }
        let mut signature = vec![best.fingerprint()];
        for l in outcome.proxy_labeled.iter().chain(&outcome.full_labeled) {
            signature.extend([l.ah.fingerprint(), l.score.to_bits() as u64]);
        }
        if self.references.get(i).is_some_and(|r| *r != signature) {
            return Err(format!("op {i}: re-run changed its winner or label bits"));
        }
        Ok(Searched { outcome, signature, sample_s })
    }
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, mode: Mode) -> Run {
    let mut w = Ladder {
        seed,
        space: JointSpace::tiny(),
        ladder: LadderConfig::test(),
        references: Vec::new(),
    };
    let mut run = Run::default();
    let busy = BusyCpus::all();
    run.note("cpus_kept_busy", busy.is_some());
    measure::reset_peak_heap();

    // Set-up: build the first tasks and search each once, warming caches
    // and pools. Several tasks, so set-up time does not hinge on one task's
    // size; every set-up must reproduce the first one's signatures.
    for k in 0..mode.setups() {
        let t0 = Instant::now();
        let searched: Vec<_> = (0..WARM_OPS).map(|i| w.search(i, &w.task(i))).collect();
        run.setups_s.push(t0.elapsed().as_secs_f64());
        for r in searched {
            match r {
                Ok(s) if k == 0 => w.references.push(s.signature),
                Ok(_) => {}
                Err(e) => run.fail(format!("set-up {k}: {e}")),
            }
        }
    }

    match mode {
        Mode::Measure => measure_phase(&w, seconds, &mut run),
        Mode::Trace => trace_phase(&w, seconds, &mut run),
    }
    run.peak_heap_mb = measure::peak_heap_mb();
    run
}

fn measure_phase(w: &Ladder, seconds: f64, run: &mut Run) {
    let mut maes = Vec::new();
    let mut failed = Vec::new();
    let lp = closed_loop(
        seconds,
        QUALITY_OPS,
        |i| w.task(i),
        |i, task| match w.search(i, &task) {
            Ok(s) if i < QUALITY_OPS => maes.push(s.outcome.best_report.best_val_mae as f64),
            Ok(_) => {}
            Err(e) => failed.push(e),
        },
    );
    for f in failed {
        run.fail(f);
    }
    let ops = lp.lat_ms.len();
    run.attempted = ops as u64;
    run.p50_ms = harness::windowed_median(&lp.lat_ms);
    run.tail = harness::windowed_tail(&lp.lat_ms, WINDOWS, TAIL_CAP);
    run.rate_per_s = harness::windowed_rate(&lp.lat_ms);
    run.cpu_ms_per_op = lp.cpu_s * 1e3 / ops as f64;
    run.val_mae = harness::ratio(maes.iter().sum(), maes.len() as f64);
    run.note("tail", harness::tail_info(&run.tail, WINDOWS));
    run.note("p50_ms_by_window", harness::window_medians(&lp.lat_ms, harness::P50_WINDOWS));
    run.note("quality_ops", maes.len());
    run.note(
        "ladder",
        Json::obj([
            ("pool", w.ladder.pool.into()),
            ("stage1", w.ladder.stage1.into()),
            ("stage2", w.ladder.stage2.into()),
        ]),
    );
}

fn trace_phase(w: &Ladder, seconds: f64, run: &mut Run) {
    let half = seconds / 2.0;
    let mut results: Vec<Result<Searched, String>> = Vec::new();
    let untraced = closed_loop(
        half,
        TRACE_MIN_OPS,
        |i| w.task(i),
        |i, task| {
            results.push(w.search(i, &task));
        },
    );
    let rec = Recorder::new();
    let traced = {
        let _scope = ObsScope::activate(&rec);
        let first = untraced.lat_ms.len();
        closed_loop(
            half,
            TRACE_MIN_OPS,
            |i| w.task(first + i),
            |i, task| {
                results.push(w.search(first + i, &task));
            },
        )
    };
    let n_untraced = untraced.lat_ms.len();
    let mut traced_ops: Vec<&Searched> = Vec::new();
    for (i, r) in results.iter().enumerate() {
        match r {
            Ok(s) if i >= n_untraced => traced_ops.push(s),
            Ok(_) => {}
            Err(e) => run.fail(e.clone()),
        }
    }
    run.attempted = results.len() as u64;
    let ops = traced.lat_ms.len() as f64;
    let sum = rec.summary();
    let per_op = |v: f64| harness::ratio(v, ops);
    let mean = |f: &dyn Fn(&Searched) -> f64| {
        harness::ratio(traced_ops.iter().map(|s| f(s)).sum(), traced_ops.len() as f64)
    };

    let (hits, misses) =
        (sum.counter("tensor.pool.hits") as f64, sum.counter("tensor.pool.misses") as f64);
    run.layer("tensor.pool_hit_ratio", harness::ratio(hits, hits + misses));
    let epochs = sum.counter("train.epochs") as f64;
    run.layer("model.train_epoch_ms", harness::ratio(harness::span_ms(&sum, "train.run"), epochs));
    run.layer("model.epochs_per_op", per_op(epochs));
    let (mut proxy, mut full) = (Vec::new(), Vec::new());
    for s in harness::spans(&rec).iter().filter(|s| s.name == "label.unit") {
        let unit: u64 = s.detail.parse().unwrap_or(0);
        let ms = s.dur_us as f64 / 1e3;
        if unit >= FULL_FIDELITY_UNIT_BASE {
            full.push(ms)
        } else {
            proxy.push(ms)
        }
    }
    let avg = |v: &[f64]| harness::ratio(v.iter().sum(), v.len() as f64);
    run.layer("model.label_proxy_ms", avg(&proxy));
    run.layer("model.label_full_ms", avg(&full));
    run.layer("comparator.ahc_train_ms", per_op(harness::span_ms(&sum, "phase.pretrain")));
    for (k, stage) in ["screen", "proxy", "full"].iter().enumerate() {
        run.layer(
            &format!("search.stage_ms.{stage}"),
            mean(&|s| s.outcome.stages.get(k).map_or(0.0, |r| r.secs * 1e3)),
        );
    }
    run.layer("search.stage_ms.final", mean(&|s| s.outcome.search_time.as_secs_f64() * 1e3));
    run.layer("search.label_epochs_per_op", mean(&|s| s.outcome.label_epochs as f64));
    run.layer("space.sample_us", mean(&|s| s.sample_s * 1e6));
    run.layer("exec.cpu_per_wall", untraced.cpu_s / untraced.wall_s);

    let p50_untraced = measure::median(&untraced.lat_ms);
    let p50_traced = measure::median(&traced.lat_ms);
    run.layer("trace.overhead_pct", (p50_traced / p50_untraced - 1.0) * 100.0);
    let op_ms: f64 = traced.lat_ms.iter().sum();
    let attributed: f64 = [
        "phase.screen",
        "phase.proxy",
        "phase.full_label",
        "phase.pretrain",
        "phase.rank",
        "phase.final_train",
    ]
    .iter()
    .map(|n| harness::span_ms(&sum, n))
    .sum::<f64>()
        + traced_ops.iter().map(|s| s.sample_s * 1e3).sum::<f64>();
    run.layer("trace.unexplained_pct", (op_ms - attributed) / op_ms * 100.0);
    run.note(
        "trace_ops",
        Json::obj([("untraced", n_untraced.into()), ("traced", traced.lat_ms.len().into())]),
    );
}
