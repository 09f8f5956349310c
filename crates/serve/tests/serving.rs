//! End-to-end serving tests: registry lifecycle, micro-batcher equivalence,
//! hot swap under concurrent load, and fault-injected degradation.

use octs_data::Adjacency;
use octs_model::{Forecaster, ModelDims};
use octs_obs::fault::{FaultPlan, FaultScope};
use octs_serve::{
    BatchPolicy, ForecastServer, ModelRegistry, ServableCheckpoint, ServableModel, ServeError,
};
use octs_space::JointSpace;
use octs_tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const N: usize = 4;
const F: usize = 2;
const P: usize = 12;

fn dims() -> ModelDims {
    ModelDims { n: N, f: F, p: P, out_steps: 3 }
}

/// A forecaster with materialized (randomly initialized) weights — training
/// quality is irrelevant to serving mechanics; determinism per seed is what
/// the tests lean on.
fn fixture_forecaster(weight_seed: u64) -> (Forecaster, Adjacency) {
    let space = JointSpace::tiny();
    // Same arch for every fixture; only the weights vary with weight_seed.
    let ah = space.sample(&mut ChaCha8Rng::seed_from_u64(7));
    let adj = Adjacency::identity(N);
    let mut fc = Forecaster::new(ah, dims(), &adj, weight_seed);
    fc.training = false;
    fc.predict(&Tensor::zeros([1, F, N, P])); // materialize all parameters
    (fc, adj)
}

/// Deterministic pseudo-random `[F, N, P]` request input, distinct per tag.
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
    let dir = std::env::temp_dir().join(format!("octs_serve_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    ModelRegistry::open(dir).unwrap()
}

fn publish(reg: &ModelRegistry, task: &str, weight_seed: u64) -> u32 {
    let (fc, adj) = fixture_forecaster(weight_seed);
    let mut ckpt = ServableCheckpoint::new(task, &fc, &adj, weight_seed);
    reg.publish(&mut ckpt).unwrap()
}

/// Expected single-request forecast of the checkpoint at `version`.
fn expected_for(reg: &ModelRegistry, task: &str, version: u32, input: &Tensor) -> Tensor {
    let mut m = ServableModel::from_checkpoint(reg.load(task, version).unwrap()).unwrap();
    m.predict_batch(&[input]).remove(0)
}

#[test]
fn registry_publish_load_roundtrip() {
    let reg = tmp_registry("roundtrip");
    assert!(reg.versions("metr").is_empty());
    assert_eq!(publish(&reg, "metr", 1), 1);
    assert_eq!(publish(&reg, "metr", 2), 2);
    assert_eq!(publish(&reg, "pems", 3), 1, "versions are per task");
    assert_eq!(reg.versions("metr"), vec![1, 2]);
    assert_eq!(reg.latest("metr"), Some(2));

    let ckpt = reg.load("metr", 1).unwrap();
    assert_eq!(ckpt.task, "metr");
    assert_eq!(ckpt.version, 1);
    assert!(ckpt.params.all_finite());

    match reg.load("metr", 9) {
        Err(ServeError::NoSuchVersion { version: 9, .. }) => {}
        other => panic!("want NoSuchVersion, got {other:?}", other = other.err()),
    }
    std::fs::remove_dir_all(reg.root()).ok();
}

#[test]
fn corrupt_checkpoint_is_rejected_typed() {
    let reg = tmp_registry("corrupt");
    publish(&reg, "t", 1);
    let path = reg.root().join("t").join("v00001.ckpt");
    let mut bytes = std::fs::read(&path).unwrap();
    let n = bytes.len();
    bytes[n - 3] ^= 0x01;
    std::fs::write(&path, bytes).unwrap();
    match reg.load("t", 1) {
        Err(ServeError::Core(octs_serve::CoreError::Corrupt { .. })) => {}
        other => panic!("want Corrupt, got {other:?}", other = other.err()),
    }
    std::fs::remove_dir_all(reg.root()).ok();
}

#[test]
fn poisoned_checkpoint_is_rejected() {
    let (fc, adj) = fixture_forecaster(1);
    let name = fc.ps.names().into_iter().next().unwrap();
    let shape = fc.ps.get(&name).unwrap().shape().to_vec();
    let mut ckpt = ServableCheckpoint::new("t", &fc, &adj, 1);
    ckpt.version = 1;
    ckpt.params.set(&name, Tensor::full(shape, f32::NAN));
    match ServableModel::from_checkpoint(ckpt) {
        Err(ServeError::Poisoned { version: 1, .. }) => {}
        other => panic!("want Poisoned, got {:?}", other.err()),
    }
}

#[test]
fn batched_rows_match_single_request_forwards_bitwise() {
    let reg = tmp_registry("bitwise");
    publish(&reg, "t", 1);
    let mut m = ServableModel::from_checkpoint(reg.load("t", 1).unwrap()).unwrap();

    let inputs: Vec<Tensor> = (0..6).map(probe_input).collect();
    let refs: Vec<&Tensor> = inputs.iter().collect();
    let batched = m.predict_batch(&refs);
    for (i, input) in inputs.iter().enumerate() {
        let single = m.predict_batch(&[input]).remove(0);
        assert_eq!(batched[i].shape(), &[dims().out_steps, N]);
        assert_eq!(batched[i].data(), single.data(), "row {i} must be bit-identical");
    }
    std::fs::remove_dir_all(reg.root()).ok();
}

#[test]
fn concurrent_submits_are_batched_and_correct() {
    let reg = tmp_registry("concurrent");
    publish(&reg, "t", 1);
    let expected: Vec<Tensor> =
        (0..8).map(|i| expected_for(&reg, "t", 1, &probe_input(i))).collect();

    let rec = octs_obs::Recorder::new();
    {
        let _obs = octs_obs::ObsScope::activate(&rec);
        let server = ForecastServer::new(reg, BatchPolicy::default());
        server.serve_task("t").unwrap();
        let server = Arc::new(server);

        let barrier = Arc::new(Barrier::new(8));
        let handles: Vec<_> = (0..8u64)
            .map(|i| {
                let server = Arc::clone(&server);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let mut out = Vec::new();
                    for _ in 0..5 {
                        out.push(server.submit("t", probe_input(i)).unwrap());
                    }
                    (i, out)
                })
            })
            .collect();
        for h in handles {
            let (i, forecasts) = h.join().unwrap();
            for fc in forecasts {
                assert_eq!(fc.version, 1);
                assert_eq!(fc.values.data(), expected[i as usize].data());
            }
        }
        std::fs::remove_dir_all(server.registry().root()).ok();
    }

    let s = rec.summary();
    assert_eq!(s.counter("serve.requests"), 40);
    let batches = s.counter("serve.batches");
    assert!((1..=40).contains(&batches));
    let bs = s.histograms.iter().find(|h| h.name == "serve.batch_size").unwrap();
    assert_eq!(bs.count, batches);
    assert!(s.histograms.iter().any(|h| h.name == "serve.queue_wait_us"));
    assert!(s.histograms.iter().any(|h| h.name == "serve.e2e_us"));
}

/// Satellite: hot swap under concurrent load. Responses must always match
/// the prediction of the version they claim (no torn reads), versions are
/// monotone per client, and the phase structure pins down which version each
/// phase observes.
#[test]
fn hot_swap_under_concurrent_load_has_no_torn_reads() {
    const CLIENTS: u64 = 6;
    const PER_PHASE: usize = 4;

    let reg = tmp_registry("hotswap");
    publish(&reg, "t", 1);
    publish(&reg, "t", 2);
    // Per-client expected outputs for both versions.
    let exp_v1: Vec<Tensor> =
        (0..CLIENTS).map(|i| expected_for(&reg, "t", 1, &probe_input(i))).collect();
    let exp_v2: Vec<Tensor> =
        (0..CLIENTS).map(|i| expected_for(&reg, "t", 2, &probe_input(i))).collect();
    for (a, b) in exp_v1.iter().zip(&exp_v2) {
        assert_ne!(a.data(), b.data(), "fixture versions must predict differently");
    }

    // Weight seeds alternate by version parity: odd versions carry seed-1
    // weights (payload exp_v1), even versions seed-2 (payload exp_v2).
    let server = Arc::new(ForecastServer::new(reg, BatchPolicy::default()));
    assert_eq!(server.serve_task("t").unwrap(), 2);

    let phase_gate = Arc::new(Barrier::new(CLIENTS as usize + 1));
    let swaps = Arc::new(AtomicU32::new(2)); // version clients expect this phase

    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let server = Arc::clone(&server);
            let phase_gate = Arc::clone(&phase_gate);
            let swaps = Arc::clone(&swaps);
            let exp_v1 = exp_v1[i as usize].clone();
            let exp_v2 = exp_v2[i as usize].clone();
            std::thread::spawn(move || {
                let mut last_version = 0u32;
                for _phase in 0..3 {
                    phase_gate.wait(); // wait for the publisher to set the phase version
                    let want = swaps.load(Ordering::SeqCst);
                    for _ in 0..PER_PHASE {
                        let fc = server.submit("t", probe_input(i)).unwrap();
                        // No torn reads: payload matches the claimed version.
                        let expected =
                            if fc.version % 2 == 1 { exp_v1.data() } else { exp_v2.data() };
                        assert_eq!(fc.values.data(), expected, "response matches its version");
                        assert!(fc.version >= last_version, "version not monotone");
                        assert_eq!(fc.version, want, "phase serves the phase version");
                        last_version = fc.version;
                    }
                    phase_gate.wait(); // phase drained
                }
            })
        })
        .collect();

    phase_gate.wait(); // phase 1 under v2
    phase_gate.wait();

    // Publish v3 (seed-1 weights) and reload: all phase-2 requests must see
    // v3, whose payload equals exp_v1.
    let v3 = publish(server.registry(), "t", 1);
    assert_eq!(v3, 3);
    swaps.store(3, Ordering::SeqCst);
    assert_eq!(server.reload("t").unwrap(), 3);
    phase_gate.wait(); // phase 2 under v3
    phase_gate.wait();

    let v4 = publish(server.registry(), "t", 2);
    assert_eq!(v4, 4);
    swaps.store(4, Ordering::SeqCst);
    assert_eq!(server.reload("t").unwrap(), 4);
    phase_gate.wait(); // phase 3 under v4
    phase_gate.wait();

    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn failed_reload_degrades_gracefully_to_current_version() {
    let reg = tmp_registry("degrade");
    publish(&reg, "t", 1);
    // Compute the expectation through a separate registry handle so the
    // server's per-handle load ordinals stay predictable for fault targeting.
    let reg2 = ModelRegistry::open(reg.root()).unwrap();
    let expected = expected_for(&reg2, "t", 1, &probe_input(0));

    let rec = octs_obs::Recorder::new();
    let _obs = octs_obs::ObsScope::activate(&rec);
    let server = ForecastServer::new(reg, BatchPolicy::default());
    server.serve_task("t").unwrap(); // the server handle's load op 0

    publish(server.registry(), "t", 2);

    // The server's next load (op 1) fails with an injected IO error.
    let plan = FaultPlan::new().io_error("registry.load", 1);
    {
        let _fault = FaultScope::activate(plan);
        match server.reload("t") {
            Err(ServeError::Core(octs_serve::CoreError::Io { op: "read", .. })) => {}
            other => panic!("want injected Io error, got {:?}", other.err()),
        }
    }

    // Still serving v1, correctly.
    assert_eq!(server.version("t"), Some(1));
    let fc = server.submit("t", probe_input(0)).unwrap();
    assert_eq!(fc.version, 1);
    assert_eq!(fc.values.data(), expected.data());

    // After the fault window, the same reload succeeds.
    assert_eq!(server.reload("t").unwrap(), 2);
    drop(_obs);
    assert_eq!(rec.summary().events.get("serve.swap_failed"), Some(&1));
    std::fs::remove_dir_all(server.registry().root()).ok();
}

#[test]
fn poisoned_reload_keeps_previous_version_serving() {
    let reg = tmp_registry("poison");
    publish(&reg, "t", 1);
    let server = ForecastServer::new(reg, BatchPolicy::default());
    server.serve_task("t").unwrap();

    // Publish a v2 whose weights are NaN.
    let (fc, adj) = fixture_forecaster(2);
    let name = fc.ps.names().into_iter().next().unwrap();
    let shape = fc.ps.get(&name).unwrap().shape().to_vec();
    let mut ckpt = ServableCheckpoint::new("t", &fc, &adj, 2);
    ckpt.params.set(&name, Tensor::full(shape, f32::NAN));
    server.registry().publish(&mut ckpt).unwrap();

    match server.reload("t") {
        Err(ServeError::Poisoned { version: 2, .. }) => {}
        other => panic!("want Poisoned, got {:?}", other.err()),
    }
    assert_eq!(server.version("t"), Some(1));
    assert!(server.submit("t", probe_input(0)).is_ok());
    std::fs::remove_dir_all(server.registry().root()).ok();
}

#[test]
fn slow_checkpoint_load_is_injectable() {
    let reg = tmp_registry("slow");
    publish(&reg, "t", 1);
    let plan = FaultPlan::new().slow_io("registry.load", 0, 40);
    let _fault = FaultScope::activate(plan);
    let t0 = Instant::now();
    let server = ForecastServer::new(reg, BatchPolicy::default());
    server.serve_task("t").unwrap();
    assert!(t0.elapsed() >= Duration::from_millis(40), "injected delay must be observable");
    assert!(server.submit("t", probe_input(0)).is_ok());
    std::fs::remove_dir_all(server.registry().root()).ok();
}

#[test]
fn shape_mismatch_is_rejected_per_request() {
    let reg = tmp_registry("shape");
    publish(&reg, "t", 1);
    let server = ForecastServer::new(reg, BatchPolicy::default());
    server.serve_task("t").unwrap();
    match server.submit("t", Tensor::zeros([1, 2, 3])) {
        Err(ServeError::ShapeMismatch { expected, got }) => {
            assert_eq!(expected, vec![F, N, P]);
            assert_eq!(got, vec![1, 2, 3]);
        }
        other => panic!("want ShapeMismatch, got {:?}", other.err()),
    }
    // The lane survives and keeps serving valid requests.
    assert!(server.submit("t", probe_input(0)).is_ok());
    std::fs::remove_dir_all(server.registry().root()).ok();
}

#[test]
fn unknown_task_and_empty_registry_are_typed_errors() {
    let reg = tmp_registry("unknown");
    let server = ForecastServer::new(reg, BatchPolicy::default());
    match server.serve_task("nope") {
        Err(ServeError::NoSuchVersion { version: 0, .. }) => {}
        other => panic!("want NoSuchVersion, got {:?}", other.err()),
    }
    match server.submit("nope", probe_input(0)) {
        Err(ServeError::NoSuchVersion { .. }) => {}
        other => panic!("want NoSuchVersion, got {:?}", other.err()),
    }
    std::fs::remove_dir_all(server.registry().root()).ok();
}

#[test]
fn shutdown_drains_pending_requests() {
    let reg = tmp_registry("drain");
    publish(&reg, "t", 1);
    let server = ForecastServer::new(reg, BatchPolicy::default());
    server.serve_task("t").unwrap();
    let pendings: Vec<_> =
        (0..16).map(|i| server.submit_async("t", probe_input(i)).unwrap()).collect();
    let root = server.registry().root().to_path_buf();
    server.shutdown(); // joins the worker after the queue drains
    for p in pendings {
        assert!(p.wait().is_ok(), "queued requests complete during shutdown");
    }
    std::fs::remove_dir_all(root).ok();
}

#[test]
fn unbatched_policy_never_coalesces() {
    let reg = tmp_registry("unbatched");
    publish(&reg, "t", 1);
    let rec = octs_obs::Recorder::new();
    {
        let _obs = octs_obs::ObsScope::activate(&rec);
        let server = Arc::new(ForecastServer::new(reg, BatchPolicy::unbatched()));
        server.serve_task("t").unwrap();
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    for _ in 0..3 {
                        server.submit("t", probe_input(i)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        std::fs::remove_dir_all(server.registry().root()).ok();
    }
    let s = rec.summary();
    assert_eq!(s.counter("serve.requests"), 12);
    assert_eq!(s.counter("serve.batches"), 12, "max_batch=1 forwards one request at a time");
    let bs = s.histograms.iter().find(|h| h.name == "serve.batch_size").unwrap();
    assert_eq!(bs.max, 1.0);
}

/// Threads publishing through one registry each get their own version, and
/// each version holds its own publisher's weights.
#[test]
fn concurrent_publishes_get_distinct_versions() {
    const PUBLISHERS: u64 = 8;
    let reg = Arc::new(tmp_registry("concurrent_publish"));
    let barrier = Arc::new(Barrier::new(PUBLISHERS as usize));
    let handles: Vec<_> = (0..PUBLISHERS)
        .map(|seed| {
            let (reg, barrier) = (Arc::clone(&reg), Arc::clone(&barrier));
            std::thread::spawn(move || {
                let (fc, adj) = fixture_forecaster(seed);
                let mut ckpt = ServableCheckpoint::new("t", &fc, &adj, seed);
                barrier.wait();
                (seed, reg.publish(&mut ckpt))
            })
        })
        .collect();
    let mut versions = Vec::new();
    for h in handles {
        let (seed, published) = h.join().unwrap();
        let version = published.unwrap_or_else(|e| panic!("publisher {seed}: {e}"));
        let loaded = reg.load("t", version).unwrap();
        assert_eq!(loaded.seed, seed, "v{version} holds another publisher's checkpoint");
        let (fc, _) = fixture_forecaster(seed);
        for name in fc.ps.names() {
            assert_eq!(loaded.params.get(&name).unwrap().data(), fc.ps.get(&name).unwrap().data());
        }
        versions.push(version);
    }
    versions.sort_unstable();
    assert_eq!(versions, (1..=PUBLISHERS as u32).collect::<Vec<_>>());
    std::fs::remove_dir_all(reg.root()).ok();
}

/// A lane shares the run context of the thread that started serving it: a
/// recorder attached there after the server was built sees the lane's
/// batches, whichever thread submits; a server started on another thread
/// with its own recorder sees none of them.
#[test]
fn lanes_record_into_the_run_that_started_them() {
    let barrier = Arc::new(Barrier::new(2));
    let other = {
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            let reg = tmp_registry("lane_run_c");
            publish(&reg, "t", 2);
            let server = ForecastServer::new(reg, BatchPolicy::default());
            server.serve_task("t").unwrap();
            let rec = octs_obs::Recorder::new();
            let _obs = octs_obs::ObsScope::activate(&rec);
            barrier.wait();
            for i in 0..3 {
                server.submit("t", probe_input(i)).unwrap();
            }
            barrier.wait();
            std::fs::remove_dir_all(server.registry().root()).ok();
            rec.summary()
        })
    };

    let reg = tmp_registry("lane_run_a");
    publish(&reg, "t", 1);
    let server = Arc::new(ForecastServer::new(reg, BatchPolicy::default()));
    server.serve_task("t").unwrap();
    let rec = octs_obs::Recorder::new();
    let _obs = octs_obs::ObsScope::activate(&rec);
    barrier.wait();
    for i in 0..4 {
        server.submit("t", probe_input(i)).unwrap();
    }
    let from_a = rec.summary();
    assert_eq!(from_a.counter("serve.requests"), 4);
    assert!(from_a.histogram("serve.batch_size").is_some_and(|h| h.count >= 1));

    let raw = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            for i in 0..3 {
                server.submit("t", probe_input(i)).unwrap();
            }
        })
    };
    raw.join().unwrap();
    barrier.wait();
    let c = other.join().unwrap();

    let a = rec.summary();
    assert_eq!(a.counter("serve.requests"), 7, "raw-thread requests land in A's run");
    let sizes = a.histogram("serve.batch_size").unwrap();
    assert_eq!((sizes.mean * sizes.count as f64).round(), 7.0, "every batch recorded in A");
    assert_eq!(c.counter("serve.requests"), 3, "C's run sees only its own requests");
    std::fs::remove_dir_all(server.registry().root()).ok();
}
