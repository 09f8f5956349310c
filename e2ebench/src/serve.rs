//! `serve-steady` and `serve-burst`: open-loop forecast serving.
//!
//! A generator thread sends requests on a seeded schedule fixed in advance
//! (never calibrated per run) and a collector times each reply from the
//! request's intended send time, so a stall is charged to every request it
//! delays. Set-up publishes a trained fixture, starts the server and drives
//! the lane through every batch size up to `max_batch`, so frozen-plan
//! compilation is charged to `setup_s` and never to the timed phase. Both
//! run on one CPU kept out of idle (see [`crate::busy`]).

use crate::busy::BusyCpus;
use crate::harness::{self, Mode, Run, WorkDir};
use crate::inputs::{self, Burst};
use crate::json::Json;
use crate::measure;
use autocts::data::{Adjacency, DatasetProfile, Domain, ForecastSetting, ForecastTask, Split};
use autocts::model::{train_forecaster, Forecaster, FrozenForecaster, ModelDims, TrainConfig};
use autocts::space::{ArchDag, ArchHyper, HyperParams, JointSpace};
use autocts::tensor::{Precision, Tensor};
use octs_obs::{ObsScope, Recorder};
use octs_serve::{
    BatchPolicy, ForecastServer, ModelRegistry, PendingForecast, ServableCheckpoint, ServableModel,
    ServeError,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Rayon threads: the lane worker, generator and collector share one CPU.
pub const THREADS: usize = 1;

const TASK: &str = "bench";

/// Candidate request windows per run, drawn from this many series.
const WINDOWS_PER_RUN: usize = 256;
const SERIES_PER_RUN: usize = 8;

/// One of the two serving workloads.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Workload name.
    name: &'static str,
    /// Deep fixture (forward-dominated) or small one (fixed-cost dominated).
    deep: bool,
    /// Lane batching policy.
    policy: BatchPolicy,
    /// Sends per second; each send carries `burst` requests.
    send_rate: f64,
    /// Requests per send: a range for bursts, `1..=1` for steady traffic.
    burst: (usize, usize),
    /// Requests slower than this miss, for `rate_per_s`.
    limit_ms: f64,
    /// Tail percentile cap and windows, see [`harness::windowed_tail`]: the
    /// highest percentile whose run-to-run spread held within the bound.
    tail_cap: f64,
    tail_windows: usize,
}

/// `serve-steady`: Poisson arrivals at a fixed rate, one `Fused` lane, a
/// deep fixture whose forward is about a millisecond, no straggler window —
/// the batcher almost never coalesces.
pub fn steady() -> Profile {
    Profile {
        name: "serve-steady",
        deep: true,
        policy: BatchPolicy { max_batch: 8, max_delay: Duration::ZERO, ..BatchPolicy::default() },
        // A quarter of the warmed single-request capacity, not half: at
        // 400/s queueing amplified host CPU-speed drift (±8 % with no steal)
        // into a 25 % ten-seed spread of the p75 and p90 tails.
        send_rate: 250.0,
        burst: (1, 1),
        limit_ms: 20.0,
        tail_cap: 75.0,
        tail_windows: 10,
    }
}

/// `serve-burst`: Poisson bursts of 4–32 simultaneous requests on a small
/// fixture whose per-forward fixed cost dominates, under the default
/// batching policy — admission, queueing, batch assembly, stacking and
/// demux do most of the work.
pub fn burst() -> Profile {
    Profile {
        name: "serve-burst",
        deep: false,
        policy: BatchPolicy::default(),
        send_rate: 80.0,
        burst: (4, 32),
        limit_ms: 30.0,
        tail_cap: 90.0,
        tail_windows: 10,
    }
}

impl Profile {
    fn offered_rps(&self) -> f64 {
        self.send_rate * (self.burst.0 + self.burst.1) as f64 / 2.0
    }

    fn schedule(&self, seed: u64, seconds: f64) -> Vec<Burst> {
        inputs::bursts(seed, self.send_rate, seconds, self.burst.0..=self.burst.1)
    }
}

/// The served model, its shape and the request windows of one run.
struct Fixture {
    fc: Forecaster,
    adjacency: Adjacency,
    /// Request inputs `[F, N, P]` and their scaled targets `[out, N]`.
    inputs: Vec<Tensor>,
    targets: Vec<Vec<f32>>,
}

fn fixture(profile: &Profile, seed: u64) -> Fixture {
    // The model is the same in every run; only the request data follow the
    // seed. It is trained briefly so served forecasts have a meaningful
    // error.
    let (n, p, q) = if profile.deep { (16, 12, 3) } else { (4, 8, 2) };
    let setting = ForecastSetting::multi(p, q);
    let profile_data =
        DatasetProfile::custom(profile.name, Domain::Traffic, n, 400, 24, 0.3, 0.1, 10.0, 11);
    let train = ForecastTask::new(profile_data.generate(0), setting, 0.6, 0.2, 1);
    let ah = if profile.deep {
        let arch = ArchDag::sample_admissible(4, &mut ChaCha8Rng::seed_from_u64(7));
        ArchHyper::new(arch, HyperParams { b: 3, c: 4, h: 16, i: 32, u: 0, delta: 0 })
    } else {
        JointSpace::tiny().sample(&mut ChaCha8Rng::seed_from_u64(7))
    };
    let dims = ModelDims::new(n, 1, setting);
    let mut fc = Forecaster::new(ah, dims, &train.data.adjacency, 1);
    train_forecaster(&mut fc, &train, &TrainConfig::test());
    fc.training = false;

    // Request windows come from several fresh series of the profile, so the
    // served error averages over series rather than hinging on one.
    let (mut inputs, mut targets) = (Vec::new(), Vec::new());
    for v in 0..SERIES_PER_RUN {
        let variant = 1 + (seed % 1_000_003) * SERIES_PER_RUN as u64 + v as u64;
        let serve = ForecastTask::new(profile_data.generate(variant), setting, 0.6, 0.2, 1);
        let all = serve.windows(Split::Test);
        let per_series = WINDOWS_PER_RUN / SERIES_PER_RUN;
        for &start in all.iter().step_by((all.len() / per_series).max(1)).take(per_series) {
            let b = serve.make_batch(&[start]);
            inputs.push(b.x.reshaped(vec![1, n, p]));
            targets.push(b.y.data().to_vec());
        }
    }
    Fixture { adjacency: train.data.adjacency.clone(), fc, inputs, targets }
}

fn checkpoint(fix: &Fixture) -> ServableCheckpoint {
    ServableCheckpoint::new(TASK, &fix.fc, &fix.adjacency, 1)
}

/// The forecaster as the registry rebuilds it, frozen at the lane's tier.
fn reference(fix: &Fixture) -> FrozenForecaster {
    let fc = Forecaster::from_trained(
        fix.fc.ah.clone(),
        fix.fc.dims,
        &fix.adjacency,
        fix.fc.ps.snapshot(),
        1,
    );
    FrozenForecaster::new(fc, Precision::Fused)
}

fn batch_of(inputs: &[Tensor], b: usize) -> Tensor {
    let rows: Vec<&Tensor> = (0..b).map(|j| &inputs[j % inputs.len()]).collect();
    Tensor::stack(&rows)
}

fn serve_err(e: ServeError) -> String {
    format!("serve: {e}")
}

/// Publishes the fixture to a fresh registry, starts serving it and drives
/// the lane through every batch size up to `max_batch`.
fn setup(
    profile: &Profile,
    fix: &Fixture,
    dir: &WorkDir,
    k: usize,
) -> Result<ForecastServer, String> {
    let registry = ModelRegistry::open(dir.fresh(&format!("registry-{k}")))
        .map_err(|e| format!("registry: {e}"))?;
    registry.publish(&mut checkpoint(fix)).map_err(|e| format!("publish: {e}"))?;
    let server = ForecastServer::new(registry, profile.policy);
    server.serve_task(TASK).map_err(serve_err)?;
    warm(&server, &profile.policy, &fix.inputs)?;
    Ok(server)
}

/// Sends traffic until the lane has run a batch of every size from 1 to
/// `max_batch`. Without a straggler window, a blocker request occupies the
/// lane while a burst queues behind it; with one, a burst sent to an idle
/// lane coalesces by itself. The batch-size histogram confirms each size.
fn warm(server: &ForecastServer, policy: &BatchPolicy, inputs: &[Tensor]) -> Result<(), String> {
    let mut seen = vec![false; policy.max_batch + 1];
    for b in 1..=policy.max_batch {
        for attempt in 0.. {
            if seen[b] {
                break;
            }
            if attempt == 50 {
                return Err(format!("could not drive the lane to batch size {b}"));
            }
            let rec = Recorder::new();
            {
                let _scope = ObsScope::activate(&rec);
                let mut pending = Vec::new();
                if policy.max_delay.is_zero() {
                    pending.push(server.submit_async(TASK, inputs[0].clone()).map_err(serve_err)?);
                    std::thread::sleep(Duration::from_micros(300));
                }
                for j in 0..b {
                    let x = inputs[j % inputs.len()].clone();
                    pending.push(server.submit_async(TASK, x).map_err(serve_err)?);
                }
                for p in pending {
                    p.wait().map_err(serve_err)?;
                }
            }
            if let Some(h) = rec.summary().histogram("serve.batch_size") {
                // At most two batches ran: their sizes are the min and max.
                if h.count <= 2 && h.max as usize <= policy.max_batch {
                    seen[h.min as usize] = true;
                    seen[h.max as usize] = true;
                }
            }
        }
    }
    Ok(())
}

/// What the collector saw of one request.
struct Reply {
    lat_ms: f64,
    window: usize,
    result: Result<Tensor, String>,
}

struct OpenLoop {
    replies: Vec<Reply>,
    /// How late the generator sent each send, ms.
    late_ms: Vec<f64>,
    cpu_s: f64,
    /// From the first intended send to the last reply, seconds.
    wall_s: f64,
    /// Process CPU per request in each tenth of the run, µs.
    cpu_us_per_decile: Vec<f64>,
}

/// Plays `sends` against the server: the generator thread sleeps until each
/// send's intended time and submits its requests; this thread waits for the
/// replies in submission order (one FIFO lane answers in that order).
fn open_loop(
    server: &ForecastServer,
    inputs: &[Tensor],
    sends: &[Burst],
    windows: &[usize],
) -> OpenLoop {
    let total: usize = sends.iter().map(|s| s.size).sum();
    let decile_at: Vec<usize> = (0..=10).map(|d| d * total / 10).collect();
    let (tx, rx) = mpsc::channel::<(Instant, usize, Result<PendingForecast, ServeError>)>();
    let cpu0 = measure::process_cpu_s();
    let start = Instant::now() + Duration::from_millis(2);
    std::thread::scope(|s| {
        let generator = s.spawn(move || {
            let mut late_ms = Vec::with_capacity(sends.len());
            let mut next = 0;
            for send in sends {
                let intended = start + Duration::from_secs_f64(send.at);
                let now = Instant::now();
                if intended > now {
                    std::thread::sleep(intended - now);
                }
                late_ms.push(intended.elapsed().as_secs_f64() * 1e3);
                for _ in 0..send.size {
                    let w = windows[next];
                    next += 1;
                    let pending = server.submit_async(TASK, inputs[w].clone());
                    tx.send((intended, w, pending)).expect("collector outlives the generator");
                }
            }
            late_ms
        });
        let mut replies = Vec::with_capacity(total);
        let mut cpu_marks = vec![cpu0];
        for (intended, window, pending) in rx {
            let result = pending.and_then(PendingForecast::wait);
            let lat_ms = intended.elapsed().as_secs_f64() * 1e3;
            replies.push(Reply {
                lat_ms,
                window,
                result: result.map(|f| f.values).map_err(serve_err),
            });
            if decile_at[1..].contains(&replies.len()) {
                cpu_marks.push(measure::process_cpu_s());
            }
        }
        let late_ms = generator.join().expect("generator thread panicked");
        let cpu_us_per_decile = cpu_marks
            .windows(2)
            .zip(decile_at.windows(2))
            .map(|(c, d)| harness::ratio((c[1] - c[0]) * 1e6, (d[1] - d[0]) as f64))
            .collect();
        OpenLoop {
            replies,
            late_ms,
            cpu_s: measure::process_cpu_s() - cpu0,
            wall_s: start.elapsed().as_secs_f64(),
            cpu_us_per_decile,
        }
    })
}

fn median_us(mut f: impl FnMut(), reps: usize) -> f64 {
    f();
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    measure::median(&times)
}

/// Runs the workload.
pub fn run(profile: &Profile, seed: u64, seconds: f64, mode: Mode) -> Run {
    let mut run = Run::default();
    measure::reset_peak_heap();
    let fix = fixture(profile, seed);
    let confined = BusyCpus::confined();
    run.note("confined_to_one_busy_cpu", confined.is_some());
    let dir = WorkDir::new(profile.name);
    let sends = profile.schedule(seed, seconds);
    let n_requests: usize = sends.iter().map(|s| s.size).sum();
    let windows = inputs::request_windows(seed, n_requests, fix.inputs.len());

    let mut server = None;
    for k in 0..mode.setups() {
        if let Some(old) = server.take() {
            ForecastServer::shutdown(old);
        }
        let t0 = Instant::now();
        let s = setup(profile, &fix, &dir, k);
        run.setups_s.push(t0.elapsed().as_secs_f64());
        match s {
            Ok(s) => server = Some(s),
            Err(e) => run.fail(e),
        }
    }
    let Some(server) = server else {
        run.peak_heap_mb = measure::peak_heap_mb();
        return run;
    };

    let rec = Recorder::new();
    let (loops, split) = match mode {
        Mode::Measure => (vec![open_loop(&server, &fix.inputs, &sends, &windows)], 0),
        Mode::Trace => {
            // Untraced first half, traced second half of the same schedule.
            let cut = sends.partition_point(|s| s.at < seconds / 2.0);
            let first_requests: usize = sends[..cut].iter().map(|s| s.size).sum();
            let second: Vec<Burst> =
                sends[cut..].iter().map(|s| Burst { at: s.at - seconds / 2.0, ..*s }).collect();
            let a = open_loop(&server, &fix.inputs, &sends[..cut], &windows[..first_requests]);
            let b = {
                let _scope = ObsScope::activate(&rec);
                open_loop(&server, &fix.inputs, &second, &windows[first_requests..])
            };
            (vec![a, b], 1)
        }
    };
    ForecastServer::shutdown(server);

    // Every served forecast must be bit-equal to the frozen forward on the
    // same input.
    let mut refm = reference(&fix);
    let expected: Vec<Vec<u32>> = fix
        .inputs
        .iter()
        .map(|x| {
            refm.predict(&batch_of(std::slice::from_ref(x), 1))
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect();
    let (mut good, mut abs_err, mut err_n) = (0usize, 0.0f64, 0usize);
    let mut attempted = 0;
    for (k, l) in loops.iter().enumerate() {
        for r in &l.replies {
            attempted += 1;
            match &r.result {
                Ok(values) => {
                    let bits: Vec<u32> = values.data().iter().map(|v| v.to_bits()).collect();
                    if bits != expected[r.window] {
                        run.fail(format!(
                            "window {}: served forecast differs from the frozen forward",
                            r.window
                        ));
                        continue;
                    }
                    for (v, t) in values.data().iter().zip(&fix.targets[r.window]) {
                        abs_err += (v - t).abs() as f64;
                        err_n += 1;
                    }
                    if k == 0 && r.lat_ms <= profile.limit_ms {
                        good += 1;
                    }
                }
                Err(e) => run.fail(format!("request failed: {e}")),
            }
        }
    }
    run.attempted = attempted as u64;
    let timed = &loops[0];
    let lat: Vec<f64> = timed.replies.iter().map(|r| r.lat_ms).collect();
    let late_tail = {
        let mut l = timed.late_ms.clone();
        l.sort_by(f64::total_cmp);
        if l.is_empty() {
            (0.0, 0.0)
        } else {
            (measure::percentile(&l, 99.0), l[l.len() - 1])
        }
    };
    run.note("offered_rps", profile.offered_rps());
    run.note("send_rate_per_s", profile.send_rate);
    run.note("burst_size", vec![profile.burst.0, profile.burst.1]);
    run.note("latency_limit_ms", profile.limit_ms);
    run.note("max_batch", profile.policy.max_batch);
    run.note("gen_late_ms", Json::obj([("p99", late_tail.0.into()), ("max", late_tail.1.into())]));
    run.note("cpu_us_per_request_by_decile", timed.cpu_us_per_decile.clone());

    match mode {
        Mode::Measure => {
            run.p50_ms = harness::windowed_median(&lat);
            run.tail = harness::windowed_tail(&lat, profile.tail_windows, profile.tail_cap);
            run.rate_per_s = good as f64 / timed.wall_s;
            run.cpu_ms_per_op = timed.cpu_s * 1e3 / attempted.max(1) as f64;
            run.val_mae = abs_err / err_n.max(1) as f64;
            run.note("tail", harness::tail_info(&run.tail, profile.tail_windows));
        }
        Mode::Trace => {
            let traced = &loops[split];
            let tlat: Vec<f64> = traced.replies.iter().map(|r| r.lat_ms).collect();
            let sum = rec.summary();
            let batch_mean = sum.histogram("serve.batch_size").map_or(0.0, |h| h.mean);
            let batch_max = sum.histogram("serve.batch_size").map_or(0.0, |h| h.max);
            if batch_max as usize > profile.policy.max_batch {
                run.fail(format!(
                    "timed phase ran batch size {batch_max}, beyond the warmed sizes"
                ));
            }
            run.note("timed_batch_size_max", batch_max);
            run.note("warmed_batch_sizes", format!("1..={}", profile.policy.max_batch));
            let (qw50, qw99) =
                sum.histogram("serve.queue_wait_us").map_or((0.0, 0.0), |h| (h.p50, h.p99));
            run.layer("serve.queue_wait_us_p50", qw50);
            run.layer("serve.queue_wait_us_tail", qw99);
            run.layer("serve.batch_size_mean", batch_mean);

            let mut frozen = reference(&fix);
            let mut fwd_us = |b: usize| {
                let x = batch_of(&fix.inputs, b);
                median_us(|| drop(std::hint::black_box(frozen.predict(&x))), 200)
            };
            let fwd_mean_b =
                fwd_us((batch_mean.round() as usize).clamp(1, profile.policy.max_batch));
            if profile.deep {
                run.layer("tensor.infer_forward_us", fwd_us(1));
            } else {
                let b = (profile.burst.0 + profile.burst.1) / 2;
                match ServableModel::from_checkpoint(checkpoint(&fix)) {
                    Ok(mut m) => {
                        let rows: Vec<&Tensor> = fix.inputs[..b].iter().collect();
                        let us =
                            median_us(|| drop(std::hint::black_box(m.predict_batch(&rows))), 200);
                        run.layer("tensor.infer_us_per_row", us / b as f64);
                    }
                    Err(e) => run.fail(serve_err(e)),
                }
            }
            // First call at a new batch size, less a warmed call at it.
            let mut fresh = reference(&fix);
            let compile_ms: Vec<f64> = (1..=profile.policy.max_batch)
                .map(|b| {
                    let x = batch_of(&fix.inputs, b);
                    let t = Instant::now();
                    drop(fresh.predict(&x));
                    let first = t.elapsed().as_secs_f64();
                    let t = Instant::now();
                    drop(fresh.predict(&x));
                    (first - t.elapsed().as_secs_f64()) * 1e3
                })
                .collect();
            run.layer(
                "tensor.plan_compile_ms",
                compile_ms.iter().sum::<f64>() / compile_ms.len() as f64,
            );

            let p50_us = measure::median(&tlat) * 1e3;
            run.layer("serve.overhead_us", p50_us - fwd_mean_b);
            let registry = ModelRegistry::open(dir.path().join("registry-0"));
            match registry {
                Ok(reg) => run.layer(
                    "serve.registry_load_ms",
                    median_us(|| drop(reg.load_latest(TASK)), 5) / 1e3,
                ),
                Err(e) => run.fail(format!("registry: {e}")),
            }
            run.layer("gen.late_ms_max", late_tail.1);
            run.layer("gen.late_ms_tail", late_tail.0);
            run.layer(
                "trace.overhead_pct",
                (measure::median(&tlat) / measure::median(&lat) - 1.0) * 100.0,
            );
            run.layer("trace.unexplained_pct", (p50_us - qw50 - fwd_mean_b) / p50_us * 100.0);
        }
    }
    run.peak_heap_mb = measure::peak_heap_mb();
    run
}
