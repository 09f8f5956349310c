//! Bounded state: the serve and train loops keep a flat steady-state heap.
//!
//! This binary installs a counting global allocator, so it holds exactly
//! one `#[test]`: a concurrently running test would pollute the count.
//!
//! - **Serve.** The deep `serve-steady` fixture of the end-to-end benchmark
//!   is trained, published and served; the lane is driven through every
//!   batch size (one traced plan compile each), then answers steady batch-1
//!   requests. Its peak live heap stays within 40 MiB, and the steady
//!   requests leave live bytes flat. Most of the peak is the buffer pool's
//!   idle storage on the training thread and on the lane, each capped at
//!   8 MiB, plus the batch-8 trace.
//! - **Train.** A loop of one-epoch training runs returns to its warm live
//!   level after every epoch.

use octs_data::{DatasetProfile, Domain, ForecastSetting, ForecastTask, Split};
use octs_model::{train_forecaster, Forecaster, ModelDims, TrainConfig};
use octs_obs::heap::{self, CountingAlloc};
use octs_obs::{ObsScope, Recorder};
use octs_serve::{BatchPolicy, ForecastServer, ModelRegistry, ServableCheckpoint};
use octs_space::{ArchDag, ArchHyper, HyperParams};
use octs_tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

#[global_allocator]
static HEAP: CountingAlloc = CountingAlloc;

const MIB: usize = 1 << 20;
const TASK: &str = "steady";
const MAX_BATCH: usize = 8;

/// The benchmark's `serve-steady` model (three ST-blocks, h=16, i=32 on 16
/// series), its training task and a few request windows `[1, N, P]`.
fn deep_fixture() -> (Forecaster, ForecastTask, Vec<Tensor>) {
    let (n, p) = (16, 12);
    let setting = ForecastSetting::multi(p, 3);
    let profile = DatasetProfile::custom(TASK, Domain::Traffic, n, 400, 24, 0.3, 0.1, 10.0, 11);
    let task = ForecastTask::new(profile.generate(0), setting, 0.6, 0.2, 1);
    let arch = ArchDag::sample_admissible(4, &mut ChaCha8Rng::seed_from_u64(7));
    let ah = ArchHyper::new(arch, HyperParams { b: 3, c: 4, h: 16, i: 32, u: 0, delta: 0 });
    let mut fc = Forecaster::new(ah, ModelDims::new(n, 1, setting), &task.data.adjacency, 1);
    train_forecaster(&mut fc, &task, &TrainConfig::test());
    fc.training = false;
    let inputs = task
        .windows(Split::Test)
        .iter()
        .take(MAX_BATCH)
        .map(|&start| task.make_batch(&[start]).x.reshaped(vec![1, n, p]))
        .collect();
    (fc, task, inputs)
}

/// Drives the lane through a batch of every size up to `MAX_BATCH`: a
/// blocker request occupies the lane while `b` more queue behind it, and
/// the batch-size histogram confirms which sizes ran.
fn drive_batch_sizes(server: &ForecastServer, inputs: &[Tensor]) {
    let mut seen = [false; MAX_BATCH + 1];
    for b in 1..=MAX_BATCH {
        for attempt in 0.. {
            if seen[b] {
                break;
            }
            assert!(attempt < 50, "could not drive the lane to batch size {b}");
            let rec = Recorder::new();
            {
                let _scope = ObsScope::activate(&rec);
                let mut pending = vec![server.submit_async(TASK, inputs[0].clone()).unwrap()];
                std::thread::sleep(Duration::from_micros(300));
                for x in &inputs[..b] {
                    pending.push(server.submit_async(TASK, x.clone()).unwrap());
                }
                for p in pending {
                    p.wait().unwrap();
                }
            }
            let h = rec.summary().histogram("serve.batch_size").cloned().unwrap();
            // At most two batches ran: their sizes are the min and max.
            if h.count <= 2 {
                seen[h.min as usize] = true;
                seen[h.max as usize] = true;
            }
        }
    }
}

fn serve_lifecycle(root: &std::path::Path) -> (Forecaster, ForecastTask) {
    heap::reset_peak();
    let (fc, task, inputs) = deep_fixture();
    let registry = ModelRegistry::open(root).unwrap();
    registry.publish(&mut ServableCheckpoint::new(TASK, &fc, &task.data.adjacency, 1)).unwrap();
    let policy =
        BatchPolicy { max_batch: MAX_BATCH, max_delay: Duration::ZERO, ..Default::default() };
    let server = ForecastServer::new(registry, policy);
    server.serve_task(TASK).unwrap();
    drive_batch_sizes(&server, &inputs);

    let mut after_50 = 0;
    for i in 0..500 {
        let forecast = server.submit(TASK, inputs[i % inputs.len()].clone()).unwrap();
        assert!(forecast.values.all_finite());
        if i + 1 == 50 {
            after_50 = heap::live_bytes();
        }
    }
    let after_500 = heap::live_bytes();
    let peak = heap::peak_bytes();
    ForecastServer::shutdown(server);

    assert!(
        peak <= 40 * MIB,
        "serve lifecycle peaked at {:.2} MiB live, above the 40 MiB bound",
        heap::mib(peak)
    );
    assert!(
        after_500.abs_diff(after_50) <= 8 * MIB,
        "steady requests moved live bytes from {:.2} MiB after 50 to {:.2} MiB after 500",
        heap::mib(after_50),
        heap::mib(after_500)
    );
    (fc, task)
}

fn train_epochs_return_to_warm_level(mut fc: Forecaster, task: &ForecastTask) {
    fc.training = true;
    let cfg = TrainConfig { epochs: 1, ..TrainConfig::test() };
    let levels: Vec<usize> = (0..10)
        .map(|_| {
            train_forecaster(&mut fc, task, &cfg);
            heap::live_bytes()
        })
        .collect();
    // Two epochs warm the pool; from then on every epoch frees exactly what
    // it allocated.
    let warm = levels[1];
    for (epoch, &live) in levels.iter().enumerate().skip(2) {
        assert_eq!(live, warm, "epoch {epoch} ended with {live} B live, warm level {warm} B");
    }
}

#[test]
fn serve_and_train_loops_keep_a_bounded_heap() {
    let root = std::env::temp_dir().join(format!("octs_bounded_heap_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let (fc, task) = serve_lifecycle(&root);
    std::fs::remove_dir_all(&root).ok();
    train_epochs_return_to_warm_level(fc, &task);
}
