//! Resilience tests: admission control and shedding, per-request deadlines,
//! panic/NaN isolation, the per-lane circuit breaker, heal-path retry, and
//! the shutdown/drop regressions.
//!
//! Fault sites are task-qualified (`serve.forward.<task>`) and every test
//! uses a distinct task name, so armed plans never leak across tests even
//! though the fault hooks are process-global.

use octs_data::Adjacency;
use octs_model::{Forecaster, ModelDims};
use octs_obs::fault::{FaultPlan, FaultScope};
use octs_serve::{
    forward_fault_site, BatchPolicy, ForecastServer, ModelRegistry, ServableCheckpoint,
    ServableModel, ServeError, ShedPolicy, TaskLane,
};
use octs_space::JointSpace;
use octs_tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 4;
const F: usize = 2;
const P: usize = 12;

fn dims() -> ModelDims {
    ModelDims { n: N, f: F, p: P, out_steps: 3 }
}

fn fixture_forecaster(weight_seed: u64) -> (Forecaster, Adjacency) {
    let space = JointSpace::tiny();
    let ah = space.sample(&mut ChaCha8Rng::seed_from_u64(7));
    let adj = Adjacency::identity(N);
    let mut fc = Forecaster::new(ah, dims(), &adj, weight_seed);
    fc.training = false;
    fc.predict(&Tensor::zeros([1, F, N, P]));
    (fc, adj)
}

fn probe_input(tag: u64) -> Tensor {
    let len = F * N * P;
    let data: Vec<f32> = (0..len)
        .map(|i| {
            let h = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(tag);
            ((h >> 33) % 2000) as f32 / 1000.0 - 1.0
        })
        .collect();
    Tensor::new([F, N, P], data)
}

fn tmp_registry(name: &str) -> ModelRegistry {
    let dir = std::env::temp_dir().join(format!("octs_resil_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    ModelRegistry::open(dir).unwrap()
}

fn publish(reg: &ModelRegistry, task: &str, weight_seed: u64) -> u32 {
    let (fc, adj) = fixture_forecaster(weight_seed);
    let mut ckpt = ServableCheckpoint::new(task, &fc, &adj, weight_seed);
    reg.publish(&mut ckpt).unwrap()
}

/// A lane serving `task`'s latest checkpoint directly (no server front end),
/// plus the registry it came from.
fn lane_for(task: &str, policy: BatchPolicy) -> (TaskLane, ModelRegistry) {
    let reg = tmp_registry(task);
    publish(&reg, task, 1);
    let model = ServableModel::from_checkpoint(reg.load_latest(task).unwrap()).unwrap();
    (TaskLane::spawn(model, policy), reg)
}

/// Serial policy (one request per forward, no straggler window) so tests can
/// reason about forward ordinals one submit at a time.
fn serial(shed: ShedPolicy, queue_depth: usize) -> BatchPolicy {
    BatchPolicy {
        max_batch: 1,
        max_delay: Duration::ZERO,
        queue_depth,
        shed,
        ..BatchPolicy::default()
    }
}

/// Stalls the lane's first forward long enough to fill the queue behind it.
fn stall_first_forward(task: &str, millis: u64) -> FaultPlan {
    FaultPlan::new().slow_io(&forward_fault_site(task), 0, millis)
}

#[test]
fn reject_when_full_sheds_typed_and_never_blocks() {
    let task = "rej";
    let rec = octs_obs::Recorder::new();
    {
        let _obs = octs_obs::ObsScope::activate(&rec);
        let _fault = FaultScope::activate(stall_first_forward(task, 200));
        let (lane, reg) = lane_for(task, serial(ShedPolicy::RejectWhenFull, 2));

        let p0 = lane.submit_async(probe_input(0)); // dequeued, stalls in forward
        std::thread::sleep(Duration::from_millis(50));
        let p1 = lane.submit_async(probe_input(1));
        let p2 = lane.submit_async(probe_input(2)); // queue now full

        // submit_async resolves the handle to a typed rejection…
        let p3 = lane.submit_async(probe_input(3));
        match p3.wait() {
            Err(ServeError::Overloaded { task: t, queue_depth: 2 }) => assert_eq!(t, task),
            other => panic!("want Overloaded, got {:?}", other.err()),
        }
        // …and try_submit rejects as a plain Err, without blocking.
        let t0 = Instant::now();
        match lane.try_submit(probe_input(4)) {
            Err(ServeError::Overloaded { .. }) => {}
            other => panic!("want Overloaded, got {:?}", other.err()),
        }
        assert!(t0.elapsed() < Duration::from_millis(100), "try_submit must not block");

        // Admitted requests all complete.
        for p in [p0, p1, p2] {
            assert!(p.wait().is_ok());
        }
        std::fs::remove_dir_all(reg.root()).ok();
    }
    assert_eq!(rec.summary().counter("serve.shed"), 2);
}

#[test]
fn drop_oldest_sheds_the_oldest_queued_request() {
    let task = "dropold";
    let rec = octs_obs::Recorder::new();
    {
        let _obs = octs_obs::ObsScope::activate(&rec);
        let _fault = FaultScope::activate(stall_first_forward(task, 200));
        let (lane, reg) = lane_for(task, serial(ShedPolicy::DropOldest, 2));

        let p0 = lane.submit_async(probe_input(0)); // in flight
        std::thread::sleep(Duration::from_millis(50));
        let p1 = lane.submit_async(probe_input(1)); // oldest queued
        let p2 = lane.submit_async(probe_input(2)); // queue full
        let p3 = lane.submit_async(probe_input(3)); // admitted, evicts p1

        match p1.wait() {
            Err(ServeError::Overloaded { queue_depth: 2, .. }) => {}
            other => panic!("want Overloaded for the evicted oldest, got {:?}", other.err()),
        }
        for p in [p0, p2, p3] {
            assert!(p.wait().is_ok(), "in-flight and fresher requests complete");
        }
        std::fs::remove_dir_all(reg.root()).ok();
    }
    assert_eq!(rec.summary().counter("serve.shed"), 1);
}

#[test]
fn expired_deadline_is_dropped_at_dequeue() {
    let task = "ddl";
    let rec = octs_obs::Recorder::new();
    {
        let _obs = octs_obs::ObsScope::activate(&rec);
        let _fault = FaultScope::activate(stall_first_forward(task, 150));
        let (lane, reg) = lane_for(task, serial(ShedPolicy::Block, 16));

        let p0 = lane.submit_async(probe_input(0)); // stalls the worker 150ms
        std::thread::sleep(Duration::from_millis(30));
        // Expires while queued behind the stalled forward.
        let p1 = lane.submit_async_deadline(probe_input(1), Duration::from_millis(20));
        // Generous deadline: survives the same queue wait.
        let p2 = lane.submit_async_deadline(probe_input(2), Duration::from_secs(30));

        assert!(p0.wait().is_ok());
        match p1.wait() {
            Err(ServeError::DeadlineExceeded) => {}
            other => panic!("want DeadlineExceeded, got {:?}", other.err()),
        }
        assert!(p2.wait().is_ok(), "unexpired deadline still completes");
        std::fs::remove_dir_all(reg.root()).ok();
    }
    assert_eq!(rec.summary().counter("serve.deadline_expired"), 1);
}

#[test]
fn wait_timeout_bounds_the_client_side_wait() {
    let task = "wt";
    let _fault = FaultScope::activate(stall_first_forward(task, 200));
    let (lane, reg) = lane_for(task, serial(ShedPolicy::Block, 16));

    let p0 = lane.submit_async(probe_input(0));
    let t0 = Instant::now();
    match p0.wait_timeout(Duration::from_millis(20)) {
        Err(ServeError::DeadlineExceeded) => {}
        other => panic!("want DeadlineExceeded, got {:?}", other.err()),
    }
    assert!(t0.elapsed() < Duration::from_millis(150), "wait_timeout must give up early");

    // A generous timeout behaves like wait().
    let p1 = lane.submit_async(probe_input(1));
    assert!(p1.wait_timeout(Duration::from_secs(30)).is_ok());
    std::fs::remove_dir_all(reg.root()).ok();
}

#[test]
fn injected_panic_fails_only_its_batch() {
    let task = "panic1";
    let plan = FaultPlan::new().panic_at(&forward_fault_site(task), 0);
    let _fault = FaultScope::activate(plan);
    let (lane, reg) = lane_for(task, serial(ShedPolicy::Block, 16));

    match lane.submit(probe_input(0)) {
        Err(ServeError::ForwardFailed { task: t, detail }) => {
            assert_eq!(t, task);
            assert!(detail.contains("panicked"), "detail: {detail}");
        }
        other => panic!("want ForwardFailed, got {:?}", other.err()),
    }
    // Below the breaker threshold: the lane keeps serving.
    assert!(lane.submit(probe_input(1)).is_ok());
    std::fs::remove_dir_all(reg.root()).ok();
}

#[test]
fn non_finite_forward_output_is_a_typed_failure() {
    let task = "nanout";
    let plan = FaultPlan::new().nan_at(&forward_fault_site(task), 0);
    let _fault = FaultScope::activate(plan);
    let (lane, reg) = lane_for(task, serial(ShedPolicy::Block, 16));

    match lane.submit(probe_input(0)) {
        Err(ServeError::ForwardFailed { detail, .. }) => {
            assert!(detail.contains("non-finite"), "detail: {detail}");
        }
        other => panic!("want ForwardFailed, got {:?}", other.err()),
    }
    assert!(lane.submit(probe_input(1)).is_ok());
    std::fs::remove_dir_all(reg.root()).ok();
}

#[test]
fn breaker_opens_sheds_heals_and_closes() {
    let task = "brk";
    let reg = tmp_registry(task);
    publish(&reg, task, 1);
    let model = ServableModel::from_checkpoint(reg.load_latest(task).unwrap()).unwrap();
    let reloads = Arc::new(AtomicU32::new(0));
    let reloader: octs_serve::Reloader = {
        let reg = ModelRegistry::open(reg.root()).unwrap();
        let reloads = Arc::clone(&reloads);
        let task = task.to_string();
        Arc::new(move || {
            reloads.fetch_add(1, Ordering::SeqCst);
            reg.load_latest(&task).and_then(ServableModel::from_checkpoint)
        })
    };
    let policy = BatchPolicy {
        breaker_threshold: 2,
        breaker_backoff: Duration::from_millis(300),
        ..serial(ShedPolicy::Block, 16)
    };

    let rec = octs_obs::Recorder::new();
    {
        let _obs = octs_obs::ObsScope::activate(&rec);
        let site = forward_fault_site(task);
        let plan = FaultPlan::new().panic_at(&site, 0).panic_at(&site, 1);
        let _fault = FaultScope::activate(plan);
        let lane = TaskLane::spawn_with_reloader(model, policy, Some(reloader));

        // Two consecutive failures trip the breaker.
        for i in 0..2u64 {
            match lane.submit(probe_input(i)) {
                Err(ServeError::ForwardFailed { .. }) => {}
                other => panic!("want ForwardFailed, got {:?}", other.err()),
            }
        }
        // While open, work is shed with the breaker's own error.
        match lane.submit(probe_input(2)) {
            Err(ServeError::CircuitOpen { task: t }) => assert_eq!(t, task),
            other => panic!("want CircuitOpen, got {:?}", other.err()),
        }
        // After the backoff the lane heals (reload) and the half-open probe
        // closes the breaker.
        std::thread::sleep(Duration::from_millis(400));
        assert!(lane.submit(probe_input(3)).is_ok(), "probe after heal succeeds");
        assert!(lane.submit(probe_input(4)).is_ok(), "breaker closed, lane healthy");
    }
    assert_eq!(reloads.load(Ordering::SeqCst), 1, "one heal reload");
    let s = rec.summary();
    assert_eq!(s.counter("serve.breaker_open"), 1);
    assert_eq!(s.counter("serve.breaker_close"), 1);
    assert_eq!(s.counter("serve.lane_restart"), 1);
    assert_eq!(s.counter("serve.forward_failed"), 2);
    std::fs::remove_dir_all(reg.root()).ok();
}

#[test]
fn heal_reload_retries_transient_io_fault() {
    let task = "healio";
    let reg = tmp_registry(task);
    publish(&reg, task, 1);
    let policy = BatchPolicy {
        breaker_threshold: 1,
        breaker_backoff: Duration::from_millis(50),
        reload_retries: 3,
        reload_backoff: Duration::from_millis(5),
        ..serial(ShedPolicy::Block, 16)
    };
    let root = reg.root().to_path_buf();

    let rec = octs_obs::Recorder::new();
    {
        let _obs = octs_obs::ObsScope::activate(&rec);
        let server = ForecastServer::new(reg, policy);
        server.serve_task(task).unwrap(); // the server handle's load op 0

        // One panicked forward trips the threshold-1 breaker; the heal's
        // first reload (load op 1) hits a transient IO fault and must be
        // retried, not treated as fatal.
        let plan =
            FaultPlan::new().panic_at(&forward_fault_site(task), 0).io_error("registry.load", 1);
        let _fault = FaultScope::activate(plan);
        match server.submit(task, probe_input(0)) {
            Err(ServeError::ForwardFailed { .. }) => {}
            other => panic!("want ForwardFailed, got {:?}", other.err()),
        }
        std::thread::sleep(Duration::from_millis(200)); // open window + heal
        assert!(server.submit(task, probe_input(1)).is_ok(), "healed after retried reload");
    }
    let s = rec.summary();
    assert_eq!(s.counter("serve.reload_retry"), 1, "exactly one transient retry");
    assert_eq!(s.counter("serve.lane_restart"), 1);
    assert_eq!(s.counter("serve.breaker_close"), 1);
    std::fs::remove_dir_all(root).ok();
}

/// Satellite regression: submit after stop must fail promptly with a typed
/// error, not hang; requests queued before the stop still drain.
#[test]
fn submit_after_stop_is_prompt_and_typed() {
    let reg = tmp_registry("stop");
    publish(&reg, "stop", 1);
    let server = ForecastServer::new(reg, BatchPolicy::default());
    server.serve_task("stop").unwrap();

    let queued: Vec<_> =
        (0..8).map(|i| server.submit_async("stop", probe_input(i)).unwrap()).collect();
    server.stop();

    let t0 = Instant::now();
    match server.submit("stop", probe_input(99)) {
        Err(ServeError::Shutdown) => {}
        other => panic!("want Shutdown, got {:?}", other.err()),
    }
    match server.try_submit("stop", probe_input(99)) {
        Err(ServeError::Shutdown) => {}
        other => panic!("want Shutdown, got {:?}", other.err()),
    }
    assert!(t0.elapsed() < Duration::from_secs(1), "post-stop submits must not hang");

    for p in queued {
        assert!(p.wait().is_ok(), "requests queued before stop still complete");
    }
    std::fs::remove_dir_all(server.registry().root()).ok();
}

/// Satellite regression: dropping a PendingForecast mid-flight abandons the
/// request without panicking the worker — the lane keeps serving.
#[test]
fn dropped_pending_forecast_never_panics_the_worker() {
    let task = "droppf";
    let _fault = FaultScope::activate(stall_first_forward(task, 100));
    let (lane, reg) = lane_for(task, serial(ShedPolicy::Block, 16));

    let in_flight = lane.submit_async(probe_input(0));
    std::thread::sleep(Duration::from_millis(30)); // worker is mid-forward
    drop(in_flight); // abandon while the worker computes it
    drop(lane.submit_async(probe_input(1))); // abandon while still queued

    for i in 2..6u64 {
        let fc = lane.submit(probe_input(i)).expect("worker survives dropped handles");
        assert_eq!(fc.version, 1);
    }
    std::fs::remove_dir_all(reg.root()).ok();
}

/// The default Block policy is pure backpressure: every request completes
/// and nothing is shed, even when submitters outpace a tiny queue.
#[test]
fn block_policy_completes_everything_without_shedding() {
    let rec = octs_obs::Recorder::new();
    {
        let _obs = octs_obs::ObsScope::activate(&rec);
        let (lane, reg) = lane_for("blockall", serial(ShedPolicy::Block, 2));
        let lane = Arc::new(lane);
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let lane = Arc::clone(&lane);
                std::thread::spawn(move || {
                    for i in 0..8 {
                        lane.submit(probe_input(t * 100 + i)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        std::fs::remove_dir_all(reg.root()).ok();
    }
    let s = rec.summary();
    assert_eq!(s.counter("serve.requests"), 32);
    assert_eq!(s.counter("serve.shed"), 0);
    assert_eq!(s.counter("serve.deadline_expired"), 0);
}
