//! # octs-obs
//!
//! The run context of the AutoCTS+ pipelines: structured observability and
//! deterministic fault injection, both armed per run.
//!
//! - A [`Recorder`] collects **spans** (named monotonic timings),
//!   **counters**, **histograms** and **typed events**; an [`ObsScope`]
//!   attaches it to the current run.
//! - A [`fault::FaultPlan`] schedules failures; a [`fault::FaultScope`] arms
//!   it on the current run.
//! - [`heap::CountingAlloc`], a binary's opt-in global allocator, counts the
//!   process's live heap bytes and their high-water mark.
//!
//! The first two live in one [`RunCtx`] slot shared by the run's threads. A
//! scope sets its half on the current thread's slot and restores it on drop,
//! so runs on different threads never wait for or see each other. Work
//! follows the thread that started it: the ranking and labelling fan-outs,
//! the bank shard workers and every serving lane enter their spawner's
//! context; a lane shares the slot of the thread that started serving its
//! task, so a scope activated there later reaches it whichever thread
//! submits.
//!
//! Instrumented code calls free-function hooks ([`span`], [`counter`],
//! [`observe`], [`event`]) without threading a handle through the call
//! graph. With nothing attached a hook costs one thread-local read and one
//! relaxed atomic load. Recording is strictly **observational**: no hook
//! touches an RNG stream, reorders work or changes control flow, so a
//! recorder-on run is byte-identical to a recorder-off run (the search suite
//! enforces this for top-k rankings).
//!
//! Export: [`Recorder::ndjson`] gives the raw trace, one [`TraceLine`] per
//! completed span or event in completion order, then one `counter` line per
//! counter; [`Recorder::summary`] gives an aggregated [`Summary`] (span
//! count/total/min/max, counter totals, histogram quantiles, event counts).

#![warn(missing_docs)]

mod ctx;
pub mod fault;
pub mod heap;

pub use ctx::RunCtx;

use ctx::Held;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One line of an NDJSON trace. A flat struct (not an enum) because the
/// vendored serde derive supports named-field structs only; `kind`
/// discriminates (`"span"`, `"event"` or `"counter"`) and unused fields stay
/// at their zero values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceLine {
    /// `"span"`, `"event"` or `"counter"`.
    pub kind: String,
    /// Span / event / counter name, e.g. `"phase.rank"`.
    pub name: String,
    /// Microseconds since the recorder was created (span start time; event
    /// fire time; export time for counter lines).
    pub t_us: u64,
    /// Span duration in microseconds (0 for events and counters).
    pub dur_us: u64,
    /// Counter value (final total) or event payload value.
    pub value: f64,
    /// Small dense id of the emitting thread (assigned on first emission).
    pub thread: u64,
    /// Free-form context, e.g. a unit id or epoch number.
    pub detail: String,
}

/// Aggregate of all completed spans sharing one name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanAgg {
    /// Span name.
    pub name: String,
    /// Completed spans under this name.
    pub count: u64,
    /// Summed duration (µs).
    pub total_us: u64,
    /// Shortest span (µs).
    pub min_us: u64,
    /// Longest span (µs).
    pub max_us: u64,
}

/// Aggregate of all [`observe`] samples sharing one name.
///
/// Quantiles are computed from the raw samples at summary time and do not
/// compose: there is no correct way to combine two `HistAgg`s' p99 values
/// into the p99 of the union stream (averaging them is wrong whenever the
/// tails differ). To aggregate across recorders — e.g. per-lane latency
/// recorders into one serving view — merge the *samples* with
/// [`Recorder::absorb`] and summarize once.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistAgg {
    /// Histogram name.
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sample mean.
    pub mean: f64,
    /// Median (by nearest-rank on the sorted samples).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
    /// 99th percentile (nearest-rank) — the tail the serving layer gates on.
    pub p99: f64,
}

/// Aggregated view of one recording, ready to serialize as a single JSON
/// document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Microseconds from recorder creation to export.
    pub wall_us: u64,
    /// Per-name span aggregates, sorted by name.
    pub spans: Vec<SpanAgg>,
    /// Final counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Per-name histogram aggregates, sorted by name.
    pub histograms: Vec<HistAgg>,
    /// Event fire counts per name.
    pub events: BTreeMap<String, u64>,
}

impl Summary {
    /// Total time spent in spans named `name` (µs), 0 when absent.
    pub fn span_total_us(&self, name: &str) -> u64 {
        self.spans.iter().find(|s| s.name == name).map(|s| s.total_us).unwrap_or(0)
    }

    /// Final value of counter `name`, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Aggregate of histogram `name`, when any sample was observed.
    pub fn histogram(&self, name: &str) -> Option<&HistAgg> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

struct Inner {
    start: Instant,
    lines: Mutex<Vec<TraceLine>>,
    counters: Mutex<BTreeMap<String, u64>>,
    hists: Mutex<BTreeMap<String, Vec<f64>>>,
}

impl Inner {
    fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    fn push(&self, kind: &str, name: &str, t_us: u64, dur_us: u64, value: f64, detail: String) {
        let (kind, name, thread) = (kind.to_string(), name.to_string(), thread_id());
        lock(&self.lines).push(TraceLine { kind, name, t_us, dur_us, value, thread, detail });
    }
}

/// Locks `m`, recovering the data of a poisoned lock (a panicking hook
/// caller must not disable recording for the rest of the run).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// An in-memory trace collector. Cheap to clone (shared buffer); attach it
/// with [`ObsScope::activate`], run the instrumented workload, then export
/// via [`Recorder::ndjson`] / [`Recorder::summary`].
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A fresh recorder; its monotonic clock starts now.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                start: Instant::now(),
                lines: Mutex::new(Vec::new()),
                counters: Mutex::new(BTreeMap::new()),
                hists: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// The raw trace as NDJSON: every span/event line in completion order,
    /// then one `counter` line per counter with its final total.
    pub fn ndjson(&self) -> String {
        let now = self.inner.elapsed_us();
        let counters: Vec<TraceLine> = lock(&self.inner.counters)
            .iter()
            .map(|(name, v)| TraceLine {
                kind: "counter".to_string(),
                name: name.clone(),
                t_us: now,
                dur_us: 0,
                value: *v as f64,
                thread: 0,
                detail: String::new(),
            })
            .collect();
        let lines = lock(&self.inner.lines);
        lines
            .iter()
            .chain(&counters)
            .map(|l| serde_json::to_string(l).expect("serializes") + "\n")
            .collect()
    }

    /// Merges everything `other` recorded into this recorder, at the
    /// raw-sample level: trace lines are appended, counters summed and
    /// histogram *samples* concatenated — so a later [`Recorder::summary`]
    /// reports exactly the quantiles of the union stream, not some lossy
    /// combination of per-recorder aggregates. `other` keeps its recording
    /// (absorb copies). Trace-line timestamps stay relative to the clock of
    /// the recorder that captured them.
    pub fn absorb(&self, other: &Recorder) {
        if Arc::ptr_eq(&self.inner, &other.inner) {
            return; // same shared buffer: absorbing would double everything
        }
        let lines = lock(&other.inner.lines).clone();
        lock(&self.inner.lines).extend(lines);
        for (name, v) in lock(&other.inner.counters).clone() {
            *lock(&self.inner.counters).entry(name).or_insert(0) += v;
        }
        for (name, samples) in lock(&other.inner.hists).clone() {
            lock(&self.inner.hists).entry(name).or_default().extend(samples);
        }
    }

    /// Aggregates the recording into a [`Summary`].
    pub fn summary(&self) -> Summary {
        let lines = lock(&self.inner.lines);
        let mut spans: BTreeMap<String, SpanAgg> = BTreeMap::new();
        let mut events: BTreeMap<String, u64> = BTreeMap::new();
        for l in lines.iter() {
            match l.kind.as_str() {
                "span" => {
                    let agg = spans.entry(l.name.clone()).or_insert_with(|| SpanAgg {
                        name: l.name.clone(),
                        count: 0,
                        total_us: 0,
                        min_us: u64::MAX,
                        max_us: 0,
                    });
                    agg.count += 1;
                    agg.total_us += l.dur_us;
                    agg.min_us = agg.min_us.min(l.dur_us);
                    agg.max_us = agg.max_us.max(l.dur_us);
                }
                "event" => *events.entry(l.name.clone()).or_insert(0) += 1,
                _ => {}
            }
        }
        drop(lines);
        let counters = lock(&self.inner.counters).clone();
        let hists = lock(&self.inner.hists);
        let histograms = hists
            .iter()
            .map(|(name, vals)| {
                let mut sorted = vals.clone();
                sorted.sort_by(f64::total_cmp);
                let n = sorted.len();
                let pct = |q: f64| sorted[((n as f64 * q).ceil() as usize).clamp(1, n) - 1];
                HistAgg {
                    name: name.clone(),
                    count: n as u64,
                    min: sorted[0],
                    max: sorted[n - 1],
                    mean: sorted.iter().sum::<f64>() / n as f64,
                    p50: pct(0.50),
                    p95: pct(0.95),
                    p99: pct(0.99),
                }
            })
            .collect();
        Summary {
            wall_us: self.inner.elapsed_us(),
            spans: spans.into_values().collect(),
            counters,
            histograms,
            events,
        }
    }
}

/// Parses one NDJSON trace back into its lines, failing on the first
/// unparseable line — the validation primitive the CI trace-smoke job uses.
pub fn parse_ndjson(text: &str) -> Result<Vec<TraceLine>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| serde_json::from_str(l).map_err(|e| format!("trace line {}: {e:?}", i + 1)))
        .collect()
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn thread_id() -> u64 {
    THREAD_ID.with(|t| *t)
}

/// RAII guard keeping a [`Recorder`] attached to the current run; restores
/// the run's previous recorder on drop.
pub struct ObsScope {
    _held: Held<Arc<Inner>>,
}

impl ObsScope {
    /// Attaches `recorder` to the current thread's run context for the
    /// lifetime of the returned guard.
    pub fn activate(recorder: &Recorder) -> Self {
        Self { _held: Held::arm(recorder.inner.clone()) }
    }
}

/// True when the current run has a recorder attached (the fast path every
/// hook takes first).
#[inline]
pub fn armed() -> bool {
    ctx::armed::<Arc<Inner>>()
}

fn active() -> Option<Arc<Inner>> {
    ctx::with(|inner: &mut Arc<Inner>| inner.clone())
}

/// A live span; records its duration into the trace when dropped. Inert (and
/// free) when no recorder is attached.
pub struct SpanGuard {
    live: Option<(Arc<Inner>, &'static str, String, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((inner, name, detail, started)) = self.live.take() {
            let dur_us = started.elapsed().as_micros() as u64;
            let t_us = started.duration_since(inner.start).as_micros() as u64;
            inner.push("span", name, t_us, dur_us, 0.0, detail);
        }
    }
}

/// Opens a span named `name`; the returned guard records the elapsed time
/// when dropped.
pub fn span(name: &'static str) -> SpanGuard {
    span_detail(name, String::new())
}

/// Opens a span with free-form context (e.g. a unit id or epoch number).
pub fn span_detail(name: &'static str, detail: String) -> SpanGuard {
    match active() {
        Some(inner) => SpanGuard { live: Some((inner, name, detail, Instant::now())) },
        None => SpanGuard { live: None },
    }
}

/// Adds `delta` to counter `name`.
pub fn counter(name: &str, delta: u64) {
    if let Some(inner) = active() {
        *lock(&inner.counters).entry(name.to_string()).or_insert(0) += delta;
    }
}

/// Records one histogram sample under `name`.
pub fn observe(name: &str, value: f64) {
    if let Some(inner) = active() {
        lock(&inner.hists).entry(name.to_string()).or_default().push(value);
    }
}

/// Emits a typed event (a point-in-time trace line) with a payload value and
/// free-form detail.
pub fn event(name: &'static str, value: f64, detail: &str) {
    if let Some(inner) = active() {
        inner.push("event", name, inner.elapsed_us(), 0, value, detail.to_string());
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultScope};
    use std::sync::Barrier;

    /// Runs `f` while another thread keeps a recorder and a fault plan armed
    /// on its own run; returns what that recorder saw.
    pub(crate) fn armed_elsewhere(f: impl FnOnce()) -> Summary {
        let (ready, done) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|s| {
            let other = s.spawn(|| {
                let rec = Recorder::new();
                let _obs = ObsScope::activate(&rec);
                let _faults = FaultScope::activate(
                    FaultPlan::new()
                        .nan_loss(1, 0)
                        .panic_unit(1)
                        .compare_panic(3)
                        .pretrain_nan(0)
                        .io_error("journal.append", 0)
                        .panic_at("serve.forward.t", 0)
                        .nan_at("serve.forward.t", 0)
                        .quant_overflow("serve.quant.t", 0),
                );
                assert!(armed() && fault::armed());
                ready.wait();
                done.wait();
                rec.summary()
            });
            ready.wait();
            f();
            done.wait();
            other.join().unwrap()
        })
    }

    #[test]
    fn detached_hooks_are_noops() {
        let elsewhere = armed_elsewhere(|| {
            assert!(!armed());
            let _s = span("noop");
            counter("noop.counter", 3);
            observe("noop.hist", 1.0);
            event("noop.event", 0.0, "");
        });
        // nothing recorded anywhere: neither the run armed on the other
        // thread nor a fresh recorder saw the hooks
        assert!(elsewhere.spans.is_empty() && elsewhere.counters.is_empty());
        assert!(elsewhere.histograms.is_empty() && elsewhere.events.is_empty());
        let rec = Recorder::new();
        assert!(rec.ndjson().is_empty());
        assert!(rec.summary().spans.is_empty());
    }

    #[test]
    fn spans_counters_events_round_trip() {
        let rec = Recorder::new();
        {
            let _scope = ObsScope::activate(&rec);
            {
                let _s = span("phase.test");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            {
                let _s = span_detail("phase.test", "second".to_string());
            }
            counter("cache.hits", 5);
            counter("cache.hits", 2);
            counter("cache.misses", 1);
            observe("probe_us", 10.0);
            observe("probe_us", 30.0);
            event("rollback", 1.0, "epoch 3");
        }
        // scope dropped: hooks detach again
        assert!(!armed());
        counter("cache.hits", 100); // must not land

        let lines = parse_ndjson(&rec.ndjson()).expect("trace parses");
        assert_eq!(lines.iter().filter(|l| l.kind == "span").count(), 2);
        assert_eq!(lines.iter().filter(|l| l.kind == "event").count(), 1);
        let hits = lines.iter().find(|l| l.kind == "counter" && l.name == "cache.hits").unwrap();
        assert_eq!(hits.value, 7.0);

        let summary = rec.summary();
        let agg = summary.spans.iter().find(|s| s.name == "phase.test").unwrap();
        assert_eq!(agg.count, 2);
        assert!(agg.total_us >= 2_000, "slept 2ms inside the span");
        assert!(agg.min_us <= agg.max_us);
        assert_eq!(summary.counter("cache.hits"), 7);
        assert_eq!(summary.counter("cache.misses"), 1);
        assert_eq!(summary.counter("absent"), 0);
        assert_eq!(summary.events.get("rollback"), Some(&1));
        let h = summary.histograms.iter().find(|h| h.name == "probe_us").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 10.0);
        assert_eq!(h.max, 30.0);
        assert_eq!(h.mean, 20.0);
    }

    #[test]
    fn summary_survives_json_round_trip() {
        let rec = Recorder::new();
        {
            let _scope = ObsScope::activate(&rec);
            let _s = span("a");
            counter("c", 1);
            observe("h", 2.5);
            event("e", 0.0, "x");
        }
        let summary = rec.summary();
        let json = serde_json::to_string(&summary).unwrap();
        let back: Summary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, summary);
    }

    #[test]
    fn histogram_percentiles_are_nearest_rank() {
        let rec = Recorder::new();
        {
            let _scope = ObsScope::activate(&rec);
            for v in 1..=100 {
                observe("h", v as f64);
            }
        }
        let s = rec.summary();
        let h = s.histograms.iter().find(|h| h.name == "h").unwrap();
        assert_eq!(h.p50, 50.0);
        assert_eq!(h.p95, 95.0);
        assert_eq!(h.p99, 99.0);
        assert_eq!(h.count, 100);
    }

    #[test]
    fn absorbed_histograms_report_union_stream_quantiles() {
        // Two lane-local recorders with very different tails: lane A holds
        // the bulk (1..=99), lane B the extreme tail (901..=999). Any
        // aggregate-level merge (e.g. averaging per-lane p99s) misreports
        // the union tail; absorbing raw samples must not.
        let a = Recorder::new();
        {
            let _scope = ObsScope::activate(&a);
            for v in 1..=99 {
                observe("e2e_us", v as f64);
            }
            counter("requests", 99);
        }
        let b = Recorder::new();
        {
            let _scope = ObsScope::activate(&b);
            for v in 901..=999 {
                observe("e2e_us", v as f64);
            }
            counter("requests", 99);
        }

        // Ground truth: one recorder observing the union stream.
        let union = Recorder::new();
        {
            let _scope = ObsScope::activate(&union);
            for v in (1..=99).chain(901..=999) {
                observe("e2e_us", v as f64);
            }
        }
        let want = union.summary().histogram("e2e_us").unwrap().clone();

        let pa = a.summary().histogram("e2e_us").unwrap().p99;
        let pb = b.summary().histogram("e2e_us").unwrap().p99;
        assert_ne!((pa + pb) / 2.0, want.p99, "averaged per-lane p99s misreport the union");

        a.absorb(&b);
        let merged = a.summary();
        let h = merged.histogram("e2e_us").unwrap();
        assert_eq!(h.count, want.count);
        assert_eq!(h.min, want.min);
        assert_eq!(h.max, want.max);
        assert_eq!(h.mean, want.mean);
        assert_eq!(h.p50, want.p50);
        assert_eq!(h.p95, want.p95);
        assert_eq!(h.p99, want.p99, "merged histogram must report the union-stream p99");
        assert_eq!(merged.counter("requests"), 198, "counters sum");

        // `b` is untouched, and self-absorb is a no-op.
        assert_eq!(b.summary().histogram("e2e_us").unwrap().count, 99);
        a.absorb(&a);
        assert_eq!(a.summary().histogram("e2e_us").unwrap().count, want.count);
    }

    #[test]
    fn parse_ndjson_rejects_garbage() {
        assert!(parse_ndjson("{\"not\": \"a trace line\"").is_err());
        assert!(parse_ndjson("").unwrap().is_empty());
    }

    #[test]
    fn threads_get_stable_small_ids() {
        let rec = Recorder::new();
        {
            let _scope = ObsScope::activate(&rec);
            event("main", 0.0, "");
            let run = RunCtx::current();
            std::thread::scope(|s| s.spawn(|| run.enter(|| event("worker", 0.0, ""))).join())
                .unwrap();
            // a raw thread has no run context: nothing it records lands
            std::thread::spawn(|| event("raw", 0.0, "")).join().unwrap();
        }
        let lines = parse_ndjson(&rec.ndjson()).unwrap();
        let main_t = lines.iter().find(|l| l.name == "main").unwrap().thread;
        let worker_t = lines.iter().find(|l| l.name == "worker").unwrap().thread;
        assert_ne!(main_t, worker_t);
        assert!(lines.iter().all(|l| l.name != "raw"), "raw thread recorded into the run");
    }
}
