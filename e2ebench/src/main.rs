//! End-to-end benchmark of the AutoCTS+ reproduction.
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload ladder-search --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//! `ladder-search`, `zeroshot-rank`, `serve-steady`, `serve-burst`, or `all`
//! to run each in turn in this process. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` measures the per-layer metrics instead: the named
//! workload's own layers from a traced half of its timed phase, the layers
//! it does not exercise from a short traced pass of the workload that does.
//!
//! The benchmark sets `RAYON_NUM_THREADS` itself (never inherited), checks
//! every output, prints one report line and then, as the last line, one
//! JSON result. It exits non-zero when a check fails.

mod busy;
mod harness;
mod inputs;
mod json;
mod ladder;
mod measure;
mod serve;
mod zeroshot;

use harness::{Mode, Run};
use json::Json;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

/// Workload names, in the order `all` runs them.
const WORKLOADS: [&str; 4] = ["ladder-search", "zeroshot-rank", "serve-steady", "serve-burst"];

/// End-to-end metrics and their units.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("rate_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_heap_mb", "MiB"),
    ("val_mae", "scaled"),
];

/// Per-layer metrics and their units.
const PER_LAYER: [(&str, &str); 35] = [
    ("tensor.pool_hit_ratio", "ratio"),
    ("tensor.infer_forward_us", "us"),
    ("tensor.infer_us_per_row", "us"),
    ("tensor.plan_compile_ms", "ms"),
    ("model.train_epoch_ms", "ms"),
    ("model.label_proxy_ms", "ms"),
    ("model.label_full_ms", "ms"),
    ("model.epochs_per_op", "count"),
    ("comparator.embed_ms", "ms"),
    ("comparator.embed_cache_hit_ratio", "ratio"),
    ("comparator.ahc_train_ms", "ms"),
    ("comparator.bank_label_tasks_per_s", "1/s"),
    ("search.rank_ms", "ms"),
    ("search.matches_per_op", "count"),
    ("search.stage_ms.screen", "ms"),
    ("search.stage_ms.proxy", "ms"),
    ("search.stage_ms.full", "ms"),
    ("search.stage_ms.final", "ms"),
    ("search.label_epochs_per_op", "count"),
    ("space.sample_us", "us"),
    ("data.bank_write_ms", "ms"),
    ("data.bank_stream_mb_per_s", "MB/s"),
    ("core.bank_pretrain_s", "s"),
    ("core.journal_appends", "count"),
    ("core.artifact_load_ms", "ms"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.queue_wait_us_tail", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.overhead_us", "us"),
    ("serve.registry_load_ms", "ms"),
    ("exec.cpu_per_wall", "ratio"),
    ("gen.late_ms_max", "ms"),
    ("gen.late_ms_tail", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unexplained_pct", "%"),
];

/// Timed-phase length of the short traced pass that measures a layer the
/// named workload does not exercise.
const PROBE_SECONDS: f64 = 1.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?} or all"));
    }
    let seconds = seconds.unwrap_or(25.0);
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range (0, 600]"));
    }
    Ok(Args { workload, seed: seed.unwrap_or(0), seconds, trace: trace.unwrap_or(false) })
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Rayon threads for `workload`, capped at the core count.
fn threads(workload: &str) -> usize {
    let wanted = match workload {
        "ladder-search" => ladder::THREADS,
        "zeroshot-rank" => zeroshot::THREADS,
        _ => serve::THREADS,
    };
    wanted.min(cores())
}

fn run_workload(workload: &str, seed: u64, seconds: f64, mode: Mode) -> Run {
    // Set while no other thread runs: every workload stops its threads
    // before returning. The vendored rayon reads the variable on every call.
    std::env::set_var("RAYON_NUM_THREADS", threads(workload).to_string());
    let steal0 = measure::host_steal_jiffies();
    let mut run = match workload {
        "ladder-search" => ladder::run(seed, seconds, mode),
        "zeroshot-rank" => zeroshot::run(seed, seconds, mode),
        "serve-steady" => serve::run(&serve::steady(), seed, seconds, mode),
        "serve-burst" => serve::run(&serve::burst(), seed, seconds, mode),
        other => unreachable!("workload {other} was validated"),
    };
    if let (Some((s0, t0)), Some((s1, t1))) = (steal0, measure::host_steal_jiffies()) {
        run.note("host_steal_pct", harness::ratio((s1 - s0) as f64 * 100.0, (t1 - t0) as f64));
    }
    run
}

fn isa_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512";
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return "avx2";
        }
    }
    "portable"
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable".to_string())
}

fn stamp(workload: &str, args: &Args) -> Json {
    Json::obj([
        ("workload", workload.into()),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("trace", args.trace.into()),
        ("nproc", cores().into()),
        ("rayon_num_threads", threads(workload).into()),
        ("isa", isa_tier().into()),
        ("git_rev", command_line("git", &["rev-parse", "HEAD"]).into()),
        ("rustc", command_line("rustc", &["--version"]).into()),
    ])
}

/// One metric: name, value, unit.
type Metric = (String, f64, &'static str);

/// The metrics a run prints: end-to-end ones, or per-layer ones when traced.
fn metrics(run: &Run, traced: bool) -> Vec<Metric> {
    if traced {
        let value = |k: &str| run.layers.get(k).copied().unwrap_or(f64::NAN);
        return PER_LAYER.iter().map(|&(k, unit)| (k.to_string(), value(k), unit)).collect();
    }
    let values = [
        run.setup_s(),
        run.p50_ms,
        run.tail.map_or(f64::NAN, |t| t.value),
        run.rate_per_s,
        run.cpu_ms_per_op,
        run.peak_heap_mb,
        run.val_mae,
    ];
    END_TO_END.iter().zip(values).map(|(&(k, unit), v)| (k.to_string(), v, unit)).collect()
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> Json {
    let metrics = metrics
        .iter()
        .map(|(k, v, unit)| {
            (k.clone(), Json::obj([("value", (*v).into()), ("unit", (*unit).into())]))
        })
        .collect();
    Json::obj([
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// The named workload traced, plus a short traced pass of every other
/// workload for the layers the named one does not exercise.
fn trace_all(workload: &str, args: &Args) -> Run {
    let mut main = run_workload(workload, args.seed, args.seconds, Mode::Trace);
    let t = std::time::Instant::now();
    for other in WORKLOADS.into_iter().filter(|&w| w != workload) {
        let probe = run_workload(other, args.seed, PROBE_SECONDS, Mode::Trace);
        if probe.failed > 0 {
            main.fail(format!("{other} probe: {:?}", probe.problems));
        }
        for (k, v) in probe.layers {
            main.layers.entry(k).or_insert(v);
        }
    }
    main.note("probe_s", t.elapsed().as_secs_f64());
    main
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> =
        if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };
    let (mut all_ok, mut attempted, mut failed, mut all_metrics) = (true, 0, 0, Vec::new());
    let mut last = Json::Null;
    for name in &names {
        let run = if args.trace {
            trace_all(name, &args)
        } else {
            run_workload(name, args.seed, args.seconds, Mode::Measure)
        };
        let metrics = metrics(&run, args.trace);
        let correct =
            run.failed == 0 && run.attempted > 0 && metrics.iter().all(|m| m.1.is_finite());
        last = result_line(correct, run.attempted, run.failed, &metrics);
        let report = Json::obj([
            ("report", stamp(name, &args)),
            ("setups_s", run.setups_s.clone().into()),
            ("info", Json::Obj(run.info.clone())),
            ("problems", run.problems.clone().into()),
            ("result", last.clone()),
        ]);
        println!("{report}");
        all_ok &= correct;
        attempted += run.attempted;
        failed += run.failed;
        all_metrics.extend(metrics.into_iter().map(|(k, v, u)| (format!("{name}/{k}"), v, u)));
    }
    if names.len() > 1 {
        // `all`: one line over every workload, metrics prefixed by workload.
        last = result_line(all_ok, attempted, failed, &all_metrics);
    }
    println!("{last}");
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(serde::Deserialize)]
    struct Metric {
        name: String,
        unit: String,
    }

    #[derive(serde::Deserialize)]
    struct Workload {
        name: String,
    }

    #[derive(serde::Deserialize)]
    struct Spec {
        workloads: Vec<Workload>,
        end_to_end: Vec<Metric>,
        per_layer: Vec<Metric>,
    }

    /// `BENCHMARK.json` must name exactly the workloads and metrics this
    /// program runs and prints.
    #[test]
    fn benchmark_json_matches_the_metrics_printed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec: Spec = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let pairs = |list: &[Metric]| -> Vec<(String, String)> {
            list.iter().map(|m| (m.name.clone(), m.unit.clone())).collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(pairs(&spec.end_to_end), own(&END_TO_END));
        assert_eq!(pairs(&spec.per_layer), own(&PER_LAYER));
        let workloads: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
