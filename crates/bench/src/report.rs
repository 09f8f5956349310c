//! The one harness behind every measurement bin: the host header stamped on
//! each `BENCH_*.json`, and the paired A/B timing behind every speed and
//! overhead gate.
//!
//! A gate compares two sides of one workload (reference vs fast kernels, one
//! vs n threads, traced vs untraced). [`paired`] times them in alternating
//! windows, A then B on even pairs and B then A on odd ones, so a slow spell
//! of the host lands on both sides of a pair and cancels in that pair's
//! ratio. Gates read the median of the per-pair ratios.

use serde::Serialize;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Which host, build and mode produced a report: the `header` object at the
/// top of every `BENCH_*.json`.
#[derive(Serialize, Debug)]
pub struct Header {
    /// `git rev-parse --short=12 HEAD`, suffixed `-dirty` when tracked files
    /// differ from that commit; `"unknown"` without git.
    pub rev: String,
    /// `std::thread::available_parallelism()`.
    pub cores: usize,
    /// Cores' worth of work the host delivered when the report was written:
    /// one fixed spin timed alone (`t1`), then on every core at once
    /// (`t_max`); `cores × t1 / t_max`.
    pub parallel_capacity: f64,
    /// The SIMD tier the tensor kernels run: `supported_simd()[0]`.
    pub isa: String,
    /// `"quick"` or `"full"`.
    pub mode: String,
    /// `rustc --version`; `"unknown"` without rustc.
    pub rustc: String,
    /// `RAYON_NUM_THREADS` when the report was written; `null` when unset.
    pub rayon_num_threads: Option<String>,
}

impl Header {
    /// Reads the host, the build and the mode: runs `git` and `rustc` and
    /// measures [`parallel_capacity`] (two spins).
    fn collect(quick: bool) -> Header {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let rev = command_line("git", &["rev-parse", "--short=12", "HEAD"]).map(|rev| {
            let clean = std::process::Command::new("git")
                .args(["diff-index", "--quiet", "HEAD", "--"])
                .status()
                .is_ok_and(|s| s.success());
            if clean {
                rev
            } else {
                format!("{rev}-dirty")
            }
        });
        Header {
            rev: rev.unwrap_or_else(|| "unknown".to_string()),
            cores,
            parallel_capacity: parallel_capacity(cores),
            isa: format!("{:?}", octs_tensor::ops::matmul::supported_simd()[0]),
            mode: if quick { "quick" } else { "full" }.to_string(),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
            rayon_num_threads: std::env::var("RAYON_NUM_THREADS").ok(),
        }
    }
}

/// The trimmed stdout of a successful `program args` run.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Iterations of the [`spin`] loop: about 20 ms on one core of a 2-vCPU
/// AVX-512 VM.
const SPIN_ITERS: u64 = 10_000_000;

/// One fixed CPU-bound spin; returns its wall time in seconds.
fn spin() -> f64 {
    let t0 = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..SPIN_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64()
}

/// Cores' worth of work the host delivers right now: one [`spin`] timed
/// alone (`t1`), then `cores` spins on scoped threads at once (`t_max`, the
/// wall time until the last one ends); `cores × t1 / t_max`. Reads about
/// `cores` on an idle host and less while other tenants hold its CPUs.
fn parallel_capacity(cores: usize) -> f64 {
    let t1 = spin();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..cores {
            s.spawn(spin);
        }
    });
    cores as f64 * t1 / t0.elapsed().as_secs_f64()
}

/// Writes a measurement bin's report with a fresh [`Header`] and returns
/// that header. Full runs write the committed `file` (a `BENCH_*.json`) in
/// the working directory; `--quick` smoke runs write
/// `target/bench-quick/<file>`, so a local smoke run never overwrites a
/// committed full-mode measurement.
pub fn write_report<T: Serialize>(file: &str, quick: bool, body: &T) -> Header {
    let header = Header::collect(quick);
    let path = if quick {
        let dir = Path::new("target/bench-quick");
        std::fs::create_dir_all(dir).expect("create target/bench-quick");
        dir.join(file)
    } else {
        PathBuf::from(file)
    };
    let json = report_json(&header, body);
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
    header
}

/// `body`'s JSON object, which must have fields, with `header` inserted as
/// its first field.
fn report_json<T: Serialize>(header: &Header, body: &T) -> String {
    let body = serde_json::to_string(body).expect("report serializes");
    let fields = body.strip_prefix('{').expect("a report body is a JSON object");
    let header = serde_json::to_string(header).expect("header serializes");
    format!("{{\"header\":{header},{fields}")
}

/// Nearest-rank quartiles of a sample.
#[derive(Serialize, Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// The lower quartile.
    pub q1: f64,
    /// The median.
    pub median: f64,
    /// The upper quartile.
    pub q3: f64,
}

impl Quartiles {
    /// The quartiles of `values`, in any order: the value at rank
    /// `round((n - 1) · q)` of the sorted sample.
    fn of(values: &[f64]) -> Quartiles {
        assert!(!values.is_empty(), "quartiles of an empty sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
        Quartiles { q1: at(0.25), median: at(0.5), q3: at(0.75) }
    }
}

/// What [`paired`] measured.
#[derive(Debug, Clone, Copy)]
pub struct Paired {
    /// Median ns per call of the A side.
    pub a_ns: f64,
    /// Median ns per call of the B side.
    pub b_ns: f64,
    /// Quartiles of the per-pair `A / B` time ratios: above 1 when B is the
    /// faster side.
    pub ratio: Quartiles,
}

/// ns per call of `f`, called until `target` wall time has passed (at least
/// once, so a zero `target` times exactly one call).
pub fn window_ns(target: Duration, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0u64;
    loop {
        f();
        calls += 1;
        let elapsed = t0.elapsed();
        if elapsed >= target {
            return elapsed.as_nanos() as f64 / calls as f64;
        }
    }
}

/// Times the two sides of `run` (`false` is A, `true` is B) in `pairs`
/// pairs of [`window_ns`] windows of `window` each, after one untimed
/// warm-up call of each side. Even pairs time A first, odd pairs B first.
pub fn paired(pairs: usize, window: Duration, mut run: impl FnMut(bool)) -> Paired {
    assert!(pairs > 0, "paired timing needs at least one pair");
    run(false);
    run(true);
    let (mut a, mut b) = (Vec::with_capacity(pairs), Vec::with_capacity(pairs));
    for pair in 0..pairs {
        let b_first = pair % 2 == 1;
        for side in [b_first, !b_first] {
            let ns = window_ns(window, || run(side));
            let times = if side { &mut b } else { &mut a };
            times.push(ns);
        }
    }
    let ratios: Vec<f64> = a.iter().zip(&b).map(|(a, b)| a / b).collect();
    Paired {
        a_ns: Quartiles::of(&a).median,
        b_ns: Quartiles::of(&b).median,
        ratio: Quartiles::of(&ratios),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_are_nearest_rank() {
        // Ranks round((n - 1) · q): n = 5 → 1, 2, 3; n = 4 → 1 (0.75
        // rounds up), 2 (1.5 rounds away from zero), 2 (2.25 rounds down).
        let q = Quartiles::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(q, Quartiles { q1: 2.0, median: 3.0, q3: 4.0 });
        let q = Quartiles::of(&[0.4, 0.1, 0.3, 0.2]);
        assert_eq!(q, Quartiles { q1: 0.2, median: 0.3, q3: 0.3 });
        let q = Quartiles::of(&[7.5]);
        assert_eq!(q, Quartiles { q1: 7.5, median: 7.5, q3: 7.5 });
        // 41 pairs, the trace gate's count: ranks 10, 20 and 30.
        let values: Vec<f64> = (0..41).rev().map(f64::from).collect();
        assert_eq!(Quartiles::of(&values), Quartiles { q1: 10.0, median: 20.0, q3: 30.0 });
    }

    #[test]
    fn pairs_alternate_which_side_goes_first() {
        let mut sides = Vec::new();
        let p = paired(4, Duration::ZERO, |b| sides.push(b));
        let (a, b) = (false, true);
        // The warm-up call of each side, then AB, BA, AB, BA.
        assert_eq!(sides, [a, b, a, b, b, a, a, b, b, a]);
        assert!(p.a_ns > 0.0 && p.b_ns > 0.0 && p.ratio.median > 0.0);
    }

    #[test]
    fn ratio_is_a_over_b_pair_by_pair() {
        // B spins about four times as long as A, so A/B sits well below 1.
        let work = |n: u64| (0..n).fold(0u64, |acc, i| std::hint::black_box(acc ^ i));
        let p = paired(3, Duration::from_micros(200), |b| {
            std::hint::black_box(work(if b { 40_000 } else { 10_000 }));
        });
        assert!(p.b_ns > p.a_ns, "{p:?}");
        assert!(p.ratio.q1 <= p.ratio.median && p.ratio.median <= p.ratio.q3);
        assert!(p.ratio.median < 1.0, "{p:?}");
    }

    #[test]
    fn report_json_leads_with_the_header_and_keeps_the_body() {
        #[derive(Serialize)]
        struct Body {
            k_s: usize,
            speedup: f64,
            note: String,
        }
        let header = Header::collect(true);
        let body = Body { k_s: 256, speedup: 1.5, note: "n".to_string() };
        let json = report_json(&header, &body);
        let serde::Value::Obj(fields) = serde::parse_value(&json).expect("valid JSON") else {
            panic!("report is not an object: {json}")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["header", "k_s", "speedup", "note"]);
        assert_eq!(fields[1].1, serde::Value::Num("256".to_string()));
        assert_eq!(fields[3].1, serde::Value::Str("n".to_string()));
        let serde::Value::Obj(head) = &fields[0].1 else { panic!("header is not an object") };
        let head_keys: Vec<&str> = head.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            head_keys,
            ["rev", "cores", "parallel_capacity", "isa", "mode", "rustc", "rayon_num_threads"]
        );
        assert_eq!(head[4].1, serde::Value::Str("quick".to_string()));
        assert!(header.cores >= 1 && header.parallel_capacity > 0.0, "{header:?}");
        assert!(json.ends_with(&serde_json::to_string(&body).unwrap()[1..]));
    }
}
