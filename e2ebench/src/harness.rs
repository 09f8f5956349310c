//! What every workload shares: run modes, the per-run record, the
//! closed-loop runner, layer-metric helpers and the work directory.

use crate::json::Json;
use crate::measure::{self, Tail};
use octs_obs::{Recorder, Summary, TraceLine};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end measurement: several set-ups, then one untraced timed
    /// phase.
    Measure,
    /// Layer measurement: one set-up, then an untraced half and a traced
    /// half of the timed phase, so tracing overhead is their difference.
    Trace,
}

impl Mode {
    /// How many times the set-up runs; `setup_s` is their median.
    pub fn setups(self) -> usize {
        match self {
            Mode::Measure => 5,
            Mode::Trace => 1,
        }
    }
}

/// Per-layer metrics by name.
pub type Layers = BTreeMap<String, f64>;

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Timed ops attempted (requests, for the serve workloads).
    pub attempted: u64,
    /// Ops that failed or whose output check failed.
    pub failed: u64,
    /// What went wrong, one line per failed check (capped).
    pub problems: Vec<String>,
    /// Wall time of each set-up, seconds.
    pub setups_s: Vec<f64>,
    /// Median op latency, ms (see [`windowed_median`]).
    pub p50_ms: f64,
    /// Tail op latency.
    pub tail: Option<Tail>,
    /// Closed loop: ops per second; open loop: requests within the latency
    /// limit per second at the offered rate.
    pub rate_per_s: f64,
    /// Process CPU time per op over the timed phase, ms.
    pub cpu_ms_per_op: f64,
    /// Heap high-water mark of the whole run, MiB.
    pub peak_heap_mb: f64,
    /// Mean validation MAE (scaled units) of the workload's outputs.
    pub val_mae: f64,
    /// Workload-specific report fields (offered rate, generator lateness …).
    pub info: Vec<(String, Json)>,
    /// Per-layer metrics (trace mode only).
    pub layers: Layers,
}

impl Run {
    /// Records a failed check; the op it belongs to counts as failed.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// Adds a report field.
    pub fn note(&mut self, key: &str, value: impl Into<Json>) {
        self.info.push((key.to_string(), value.into()));
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, key: &str, value: f64) {
        self.layers.insert(key.to_string(), value);
    }

    /// Median set-up time, seconds.
    pub fn setup_s(&self) -> f64 {
        measure::median(&self.setups_s)
    }
}

/// Latencies (ms) of a closed loop and the process CPU and wall time its
/// ops took.
pub struct ClosedLoop {
    /// Per-op latency, ms, in op order.
    pub lat_ms: Vec<f64>,
    /// Process CPU seconds summed over the op windows.
    pub cpu_s: f64,
    /// Wall seconds summed over the op windows.
    pub wall_s: f64,
}

/// Runs `op(i)` for `i = 0, 1, …` until `seconds` have passed and at least
/// `min_ops` ops ran. Only the op calls are timed: `prepare(i)` builds the
/// op's input outside the timer, so input generation never counts as
/// program time.
pub fn closed_loop<I>(
    seconds: f64,
    min_ops: usize,
    mut prepare: impl FnMut(usize) -> I,
    mut op: impl FnMut(usize, I),
) -> ClosedLoop {
    let start = Instant::now();
    let mut out = ClosedLoop { lat_ms: Vec::new(), cpu_s: 0.0, wall_s: 0.0 };
    let mut i = 0;
    while i < min_ops || start.elapsed().as_secs_f64() < seconds {
        let input = prepare(i);
        let cpu0 = measure::process_cpu_s();
        let t0 = Instant::now();
        op(i, input);
        let wall = t0.elapsed().as_secs_f64();
        out.cpu_s += measure::process_cpu_s() - cpu0;
        out.wall_s += wall;
        out.lat_ms.push(wall * 1e3);
        i += 1;
    }
    out
}

/// Median, over `windows` consecutive slices of `lat_ms`, of each slice's
/// tail at one common percentile: the highest (up to `cap`) that the
/// smallest slice supports. A stall lifts the tail of one slice, not the
/// median over slices.
pub fn windowed_tail(lat_ms: &[f64], windows: usize, cap: f64) -> Option<Tail> {
    let size = lat_ms.len() / windows.max(1);
    if size == 0 {
        return None;
    }
    let slices: Vec<&[f64]> = lat_ms.chunks(size).take(windows).collect();
    let first = measure::tail(slices[0], cap)?;
    let values: Vec<f64> = slices
        .iter()
        .map(|s| {
            let mut sorted = s.to_vec();
            sorted.sort_by(f64::total_cmp);
            measure::percentile(&sorted, first.pct)
        })
        .collect();
    Some(Tail { value: measure::median(&values), ..first })
}

/// Windows the timed phase is cut into for `p50_ms` and the closed-loop
/// `rate_per_s`.
pub const P50_WINDOWS: usize = 20;

/// Windows dropped at each end before [`trimmed_mean`] averages the rest.
const TRIM: usize = 2;

/// Mean of `values` without the [`TRIM`] lowest and highest; the median when
/// too few remain.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    if values.len() <= 2 * TRIM {
        return measure::median(values);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let kept = &v[TRIM..v.len() - TRIM];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Median of each of `windows` consecutive slices of `lat_ms`.
pub fn window_medians(lat_ms: &[f64], windows: usize) -> Vec<f64> {
    let size = lat_ms.len().div_ceil(windows.max(1)).max(1);
    lat_ms.chunks(size).map(measure::median).collect()
}

/// Trimmed mean over [`P50_WINDOWS`] slices of the timed phase of each
/// slice's median. On a shared VM the host's speed wanders between regimes
/// lasting seconds, and now and then it steals a whole second: a median over
/// slices would flip between regimes from run to run, while this averages
/// them and drops the slices a stall lifts.
pub fn windowed_median(lat_ms: &[f64]) -> f64 {
    trimmed_mean(&window_medians(lat_ms, P50_WINDOWS))
}

/// Closed-loop ops per second: the trimmed mean over [`P50_WINDOWS`] slices
/// of the timed phase of each slice's rate, robust to host stalls like
/// [`windowed_median`].
pub fn windowed_rate(lat_ms: &[f64]) -> f64 {
    let size = lat_ms.len().div_ceil(P50_WINDOWS).max(1);
    let rates: Vec<f64> =
        lat_ms.chunks(size).map(|c| c.len() as f64 * 1e3 / c.iter().sum::<f64>()).collect();
    trimmed_mean(&rates)
}

/// Report fields describing a tail.
pub fn tail_info(tail: &Option<Tail>, windows: usize) -> Json {
    match tail {
        Some(t) => Json::obj([
            ("percentile", t.pct.into()),
            ("samples_per_window", t.samples.into()),
            ("beyond_per_window", t.beyond.into()),
            ("windows", windows.into()),
        ]),
        None => Json::Null,
    }
}

/// The raw spans of a recording.
pub fn spans(rec: &Recorder) -> Vec<TraceLine> {
    rec.ndjson()
        .lines()
        .filter_map(|l| serde_json::from_str::<TraceLine>(l).ok())
        .filter(|l| l.kind == "span")
        .collect()
}

/// Total milliseconds of spans called `name` in `summary`.
pub fn span_ms(summary: &Summary, name: &str) -> f64 {
    summary.span_total_us(name) as f64 / 1e3
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A work directory under the current directory, removed
/// when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.e2ebench_work/<name>-<pid>` under the current directory.
    pub fn new(name: &str) -> Self {
        let dir = PathBuf::from(".e2ebench_work").join(format!("{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create benchmark work directory");
        Self(dir)
    }

    /// A fresh (emptied) subdirectory path.
    pub fn fresh(&self, sub: &str) -> PathBuf {
        let p = self.0.join(sub);
        std::fs::remove_dir_all(&p).ok();
        p
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        // Leaves the parent only when no other run still uses it.
        std::fs::remove_dir(".e2ebench_work").ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_tail_ignores_one_stalled_window() {
        let mut lat: Vec<f64> = (0..1000).map(|i| 1.0 + (i % 100) as f64 / 100.0).collect();
        // A stall lifts 15 samples of the second window far above the rest.
        for v in &mut lat[250..265] {
            *v = 50.0;
        }
        let t = windowed_tail(&lat, 4, 99.9).expect("supported");
        assert_eq!(t.pct, 95.0);
        assert!(t.value < 2.0, "median over windows must not see the stall: {}", t.value);
        assert_eq!(t.samples, 250);
    }

    #[test]
    fn trimmed_mean_drops_the_extremes() {
        // Sorted: 1 2 | 3 4 5 | 9 100.
        let v = [9.0, 1.0, 2.0, 3.0, 4.0, 100.0, 5.0];
        assert_eq!(trimmed_mean(&v), 4.0);
        assert_eq!(trimmed_mean(&[5.0, 1.0, 3.0]), 3.0);
    }
}
