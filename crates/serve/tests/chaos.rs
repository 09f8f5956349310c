//! Seeded chaos sweep: generated fault plans (forward panics, NaN outputs,
//! registry IO faults and delays) under concurrent load on a two-lane
//! server. The contract being swept:
//!
//! 1. every submit resolves to a *typed* result — no hangs, no lost replies;
//! 2. the faulty lane recovers through its circuit breaker once the plan is
//!    disarmed;
//! 3. the healthy lane's forecasts — and every successful faulty-lane
//!    forecast — stay byte-identical to the fault-free run.
//!
//! Fault sites are task-qualified and the task names carry the sweep seed,
//! so a plan can only ever hit the lane it was generated for. The default
//! sweep covers 3 seeds; `OCTS_CHAOS_WIDE=1` (nightly CI) widens it to 10.

use octs_data::Adjacency;
use octs_model::{Forecaster, ModelDims};
use octs_obs::fault::{FaultPlan, FaultScope};
use octs_serve::{
    forward_fault_site, quant_fault_site, BatchPolicy, ForecastServer, ModelRegistry, Precision,
    ServableCheckpoint, ServableModel, ServeError, ShedPolicy,
};
use octs_space::JointSpace;
use octs_tensor::Tensor;
use octs_testkit::Gen;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Duration;

const N: usize = 4;
const F: usize = 2;
const P: usize = 12;
const CLIENTS: u64 = 4;
const REQS_PER_CLIENT: u64 = 10;
/// Forward-ordinal range the generated plans may fault; the lane's ordinal
/// counter outruns it during recovery, so a clean path always exists.
const FAULTED_FORWARDS: u64 = 30;

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

fn publish(reg: &ModelRegistry, task: &str, weight_seed: u64) -> u32 {
    let (fc, adj) = fixture_forecaster(weight_seed);
    let mut ckpt = ServableCheckpoint::new(task, &fc, &adj, weight_seed);
    reg.publish(&mut ckpt).unwrap()
}

/// Fault-free single-request forecasts, one per client tag, computed through
/// a throwaway registry handle so the server handle's load ordinals stay
/// untouched.
fn expectations(
    root: &std::path::Path,
    task: &str,
    tags: impl Iterator<Item = u64>,
) -> Vec<Tensor> {
    let reg = ModelRegistry::open(root).unwrap();
    let mut m = ServableModel::from_checkpoint(reg.load_latest(task).unwrap()).unwrap();
    tags.map(|t| m.predict_batch(&[&probe_input(t)]).remove(0)).collect()
}

struct Outcome {
    ok: u64,
    forward_failed: u64,
    circuit_open: u64,
}

/// One chaos run under one generated plan. Panics on any contract breach.
fn chaos_run(seed: u64) {
    let healthy = format!("ch{seed}_ok");
    let faulty = format!("ch{seed}_bad");
    let dir = std::env::temp_dir().join(format!("octs_chaos_{seed}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let reg = ModelRegistry::open(&dir).unwrap();
    publish(&reg, &healthy, 1);
    publish(&reg, &faulty, 2);

    let exp_healthy = expectations(&dir, &healthy, 0..CLIENTS * REQS_PER_CLIENT);
    let exp_faulty = expectations(&dir, &faulty, 0..CLIENTS * REQS_PER_CLIENT);

    let plan = Gen::from_seed(seed).serve_fault_plan(
        &forward_fault_site(&faulty),
        FAULTED_FORWARDS,
        "registry.load",
        2, // serve_task × 2 consumes server-handle load ops 0 and 1…
        3, // …so op 2 is the first heal reload, where IO faults bite
    );

    let policy = BatchPolicy {
        max_batch: 4,
        max_delay: Duration::from_micros(200),
        breaker_threshold: 2,
        breaker_backoff: Duration::from_millis(20),
        breaker_max_backoff: Duration::from_millis(200),
        reload_retries: 4,
        reload_backoff: Duration::from_millis(2),
        ..BatchPolicy::default().with_shed(ShedPolicy::Block)
    };
    let server = Arc::new(ForecastServer::new(reg, policy));
    server.serve_task(&healthy).unwrap();
    server.serve_task(&faulty).unwrap();

    let rec = octs_obs::Recorder::new();
    let _obs = octs_obs::ObsScope::activate(&rec);
    let outcome = {
        let _chaos = FaultScope::activate(plan);
        let mut handles = Vec::new();
        for c in 0..CLIENTS {
            // Healthy-lane client: every request must succeed, byte-exact.
            let server2 = Arc::clone(&server);
            let task = healthy.clone();
            let exp: Vec<Tensor> = exp_healthy
                [(c * REQS_PER_CLIENT) as usize..((c + 1) * REQS_PER_CLIENT) as usize]
                .to_vec();
            handles.push(std::thread::spawn(move || {
                let mut out = Outcome { ok: 0, forward_failed: 0, circuit_open: 0 };
                for (i, want) in exp.iter().enumerate() {
                    let tag = c * REQS_PER_CLIENT + i as u64;
                    let p = server2.submit_async(&task, probe_input(tag)).unwrap();
                    let fc = p
                        .wait_timeout(Duration::from_secs(30))
                        .expect("healthy-lane request failed (or hung) under chaos");
                    assert_eq!(
                        fc.values.data(),
                        want.data(),
                        "healthy-lane forecast diverged from the fault-free run"
                    );
                    out.ok += 1;
                }
                out
            }));

            // Faulty-lane client: failures are fine, but every reply must be
            // one of the typed serving errors — and arrive.
            let server2 = Arc::clone(&server);
            let task = faulty.clone();
            let exp: Vec<Tensor> = exp_faulty
                [(c * REQS_PER_CLIENT) as usize..((c + 1) * REQS_PER_CLIENT) as usize]
                .to_vec();
            handles.push(std::thread::spawn(move || {
                let mut out = Outcome { ok: 0, forward_failed: 0, circuit_open: 0 };
                for (i, want) in exp.iter().enumerate() {
                    let tag = c * REQS_PER_CLIENT + i as u64;
                    let p = server2.submit_async(&task, probe_input(tag)).unwrap();
                    match p.wait_timeout(Duration::from_secs(30)) {
                        Ok(fc) => {
                            assert_eq!(
                                fc.values.data(),
                                want.data(),
                                "successful faulty-lane forecast must still be byte-exact"
                            );
                            out.ok += 1;
                        }
                        Err(ServeError::ForwardFailed { .. }) => out.forward_failed += 1,
                        Err(ServeError::CircuitOpen { .. }) => out.circuit_open += 1,
                        Err(ServeError::DeadlineExceeded) => {
                            panic!("faulty-lane request hung (no reply in 30s)")
                        }
                        Err(other) => panic!("untyped/unexpected reply: {other}"),
                    }
                }
                out
            }));
        }
        let mut total = Outcome { ok: 0, forward_failed: 0, circuit_open: 0 };
        for h in handles {
            let o = h.join().expect("chaos client panicked");
            total.ok += o.ok;
            total.forward_failed += o.forward_failed;
            total.circuit_open += o.circuit_open;
        }
        // Keep the plan armed past the breaker backoff so an in-window heal
        // reload has to face the generated registry IO faults (and retry).
        std::thread::sleep(Duration::from_millis(60));
        total
    };

    // No lost replies: the books balance exactly.
    assert_eq!(
        outcome.ok + outcome.forward_failed + outcome.circuit_open,
        2 * CLIENTS * REQS_PER_CLIENT,
        "every submit must resolve exactly once"
    );
    // Recovery: with the plan disarmed the faulty lane must heal — breaker
    // drains, reload succeeds, probe closes it — and serve byte-exact again.
    let mut recovered = false;
    for _ in 0..500 {
        match server.submit(&faulty, probe_input(0)) {
            Ok(fc) => {
                assert_eq!(
                    fc.values.data(),
                    exp_faulty[0].data(),
                    "post-recovery forecast must match the fault-free run"
                );
                recovered = true;
                break;
            }
            Err(ServeError::CircuitOpen { .. }) | Err(ServeError::ForwardFailed { .. }) => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(other) => panic!("unexpected error during recovery: {other}"),
        }
    }
    assert!(recovered, "faulty lane did not recover after the plan was disarmed");

    drop(_obs);
    let s = rec.summary();
    if outcome.circuit_open > 0 {
        assert!(s.counter("serve.breaker_open") >= 1, "CircuitOpen replies imply an open breaker");
        assert!(
            s.counter("serve.lane_restart") >= 1,
            "a tripped lane must heal through a registry reload"
        );
        assert!(s.counter("serve.breaker_close") >= 1, "a recovered breaker must close");
    }

    eprintln!(
        "chaos seed {seed}: ok={} forward_failed={} circuit_open={} breaker_open={} \
         lane_restart={} reload_retry={}",
        outcome.ok,
        outcome.forward_failed,
        outcome.circuit_open,
        s.counter("serve.breaker_open"),
        s.counter("serve.lane_restart"),
        s.counter("serve.reload_retry"),
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_sweep_every_submit_resolves_typed_and_lanes_recover() {
    let seeds: u64 = if std::env::var("OCTS_CHAOS_WIDE").as_deref() == Ok("1") { 10 } else { 3 };
    for seed in 0..seeds {
        chaos_run(0xC4A05 + seed);
    }
}

/// The quant-overflow half of the sweep: a seeded plan poisons the int8
/// load probe of one published version, and the load must demote to the
/// bit-exact `Fused` tier with exact typed accounting — one
/// `serve.precision_fallback` count, forecasts byte-identical to a clean
/// Fused load, and the one-shot fault consumed so the next load serves
/// Int8 again. No silent wrong forecasts anywhere.
#[test]
fn quant_overflow_probe_trips_fused_fallback_with_exact_accounting() {
    let task = "quantfb";
    let dir = std::env::temp_dir().join(format!("octs_chaos_quant_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let reg = ModelRegistry::open(&dir).unwrap();
    // A fixture wide enough to quantize: h=8 → i=16 puts the output head's
    // weight over the int8 minimum-size threshold (tiny sampled models can
    // fall entirely below it, making Int8 degenerate to Fused).
    let version = {
        use octs_space::{ArchDag, ArchHyper, HyperParams};
        let arch = ArchDag::sample_admissible(3, &mut ChaCha8Rng::seed_from_u64(7));
        let hp = HyperParams { b: 1, c: 3, h: 8, i: 16, u: 0, delta: 0 };
        let adj = Adjacency::identity(N);
        let mut fc = Forecaster::new(ArchHyper::new(arch, hp), dims(), &adj, 3);
        fc.training = false;
        fc.predict(&Tensor::zeros([1, F, N, P]));
        let mut ckpt = ServableCheckpoint::new(task, &fc, &adj, 3);
        reg.publish(&mut ckpt).unwrap()
    };
    assert_eq!(version, 1);

    // Control: a clean Int8 load meets the probe budget and serves Int8 —
    // the fallback below is caused by the injected overflow, not the model.
    let mut clean =
        ServableModel::from_checkpoint_with(reg.load_latest(task).unwrap(), Some(Precision::Int8))
            .unwrap();
    assert_eq!(clean.precision(), Some(Precision::Int8), "clean int8 probe must pass");
    let int8_forecast = clean.predict_batch(&[&probe_input(0)]).remove(0);

    // Fused reference the fallback must match bit-for-bit.
    let mut fused =
        ServableModel::from_checkpoint_with(reg.load_latest(task).unwrap(), Some(Precision::Fused))
            .unwrap();
    let want = fused.predict_batch(&[&probe_input(0)]).remove(0);
    assert!(
        int8_forecast.data() != want.data(),
        "fixture must actually quantize (int8 and fused forecasts differ)"
    );

    // Seeded plan over the task's probe site: the only in-range ordinal is
    // version - 1 = 0, so the drawn overflow hits exactly this version.
    let site = quant_fault_site(task);
    let plan = FaultPlan::seeded(0x0C75, 8, 0, 0, &[], &[(site.as_str(), version as u64)]);
    assert!(
        plan.quant_overflows.contains(&(site.clone(), (version - 1) as u64)),
        "seeded plan must schedule the probe overflow"
    );

    let rec = octs_obs::Recorder::new();
    let _obs = octs_obs::ObsScope::activate(&rec);
    {
        let _chaos = FaultScope::activate(plan);
        let mut demoted = ServableModel::from_checkpoint_with(
            reg.load_latest(task).unwrap(),
            Some(Precision::Int8),
        )
        .expect("an over-budget probe demotes, it does not poison the load");
        assert_eq!(
            demoted.precision(),
            Some(Precision::Fused),
            "saturating probe must trip the Fused fallback"
        );
        let got = demoted.predict_batch(&[&probe_input(0)]).remove(0);
        assert_eq!(
            got.data(),
            want.data(),
            "fallback forecasts must be byte-identical to a clean Fused load"
        );

        // One-shot: the overflow was consumed by the demoted load, so a
        // reload probes clean and serves Int8 again.
        let mut healed = ServableModel::from_checkpoint_with(
            reg.load_latest(task).unwrap(),
            Some(Precision::Int8),
        )
        .unwrap();
        assert_eq!(healed.precision(), Some(Precision::Int8), "fault consumed: int8 again");
        assert_eq!(healed.predict_batch(&[&probe_input(0)]).remove(0).data(), int8_forecast.data());
    }
    drop(_obs);

    let s = rec.summary();
    assert_eq!(s.counter("serve.precision_fallback"), 1, "exactly one typed fallback");
    std::fs::remove_dir_all(&dir).ok();
}

/// The generated serving plans replay from their seed: same seed → same
/// plan (including IO sites), different seed → different plan.
#[test]
fn serve_fault_plans_replay_from_seed() {
    let site = forward_fault_site("detcheck");
    let a = Gen::from_seed(11).serve_fault_plan(&site, 30, "registry.load", 2, 6);
    let b = Gen::from_seed(11).serve_fault_plan(&site, 30, "registry.load", 2, 6);
    assert_eq!(a, b, "same seed must generate the same plan");
    assert!(
        !a.site_panics.is_empty() || !a.site_nans.is_empty(),
        "serving plans always carry at least one forward fault"
    );
    let c = Gen::from_seed(12).serve_fault_plan(&site, 30, "registry.load", 2, 6);
    assert_ne!(a, c, "different seeds must diverge");
}
