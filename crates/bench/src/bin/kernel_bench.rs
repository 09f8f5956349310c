//! Before/after throughput benchmark for the fast tensor kernels.
//!
//! Times the naive reference loops against the register-blocked/packed
//! matmul and the im2col conv1d lowering at the shapes the system actually
//! runs hot: the GIN comparator MLP (dim 128) and ST-block channel/temporal
//! mixing at paper-scale hidden widths. Times the per-slice reference loops
//! against the bit-identical small-shape kernels at the ladder-search
//! training shapes (batched linear layers, DGCN diffusion, attention, GDCC
//! conv). Times the odometer permute against the strided kernel at the four
//! ST-operator layouts, and the tape forward against the compiled frozen
//! plans. Each of those rows is [`PAIRS`] alternating reference/fast
//! windows ([`octs_bench::paired`]); its speedup is the median per-pair
//! ratio. Also times one full training run both ways (ns per optimizer step
//! plus the buffer-pool hit rate) and, ungated, the T-AHC comparator's
//! inference and training step. Results land in `BENCH_kernels.json`.
//!
//! Exits nonzero if any fast kernel (small-shape and permute included) or
//! the frozen forward is slower than its reference (the CI smoke gate), or —
//! in full mode — if matmul speedup at the GIN/ST-block shapes falls below
//! the 3x acceptance floor or frozen-vs-tape below 1.5x.
//!
//! ```sh
//! cargo run --release --bin kernel_bench            # full, 3x gate
//! cargo run --release --bin kernel_bench -- --quick # CI smoke, >=1x gate
//! ```

use octs_bench::{paired, window_ns, Paired};
use octs_comparator::{Tahc, TahcConfig};
use octs_data::{Adjacency, DatasetProfile, Domain, ForecastSetting, ForecastTask};
use octs_model::{train_forecaster, Forecaster, FrozenForecaster, ModelDims, TrainConfig};
use octs_space::{ArchDag, ArchHyper, HyperParams, HyperSpace, JointSpace};
use octs_tensor::ops::{conv, matmul, shapeops};
use octs_tensor::{Precision, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::hint::black_box;
use std::time::Duration;

/// Alternating reference/fast window pairs behind every gated row.
const PAIRS: usize = 11;

#[derive(Serialize)]
struct MatmulRow {
    name: String,
    m: usize,
    k: usize,
    n: usize,
    naive_ns: f64,
    fast_ns: f64,
    naive_gflops: f64,
    fast_gflops: f64,
    speedup: f64,
    speedup_q1: f64,
    speedup_q3: f64,
}

#[derive(Serialize)]
struct ConvRow {
    name: String,
    batch: usize,
    c_in: usize,
    c_out: usize,
    l: usize,
    ksize: usize,
    dilation: usize,
    naive_ns: f64,
    fast_ns: f64,
    naive_gflops: f64,
    fast_gflops: f64,
    speedup: f64,
    speedup_q1: f64,
    speedup_q3: f64,
}

#[derive(Serialize)]
struct SmallRow {
    name: String,
    shape: String,
    reference_ns: f64,
    fast_ns: f64,
    speedup: f64,
    speedup_q1: f64,
    speedup_q3: f64,
}

#[derive(Serialize)]
struct PermuteRow {
    name: String,
    shape: Vec<usize>,
    axes: Vec<usize>,
    naive_ns: f64,
    fast_ns: f64,
    speedup: f64,
    speedup_q1: f64,
    speedup_q3: f64,
}

#[derive(Serialize)]
struct TrainRow {
    steps: usize,
    naive_ns_per_step: f64,
    fast_ns_per_step: f64,
    speedup: f64,
    pool_hit_rate: f64,
}

/// Each tier is paired against the tape forward; `tape_ns` is the tape
/// side of the Fused pairing.
#[derive(Serialize)]
struct InferRow {
    batch: usize,
    tape_ns: f64,
    full_ns: f64,
    fused_ns: f64,
    int8_ns: f64,
    frozen_speedup: f64,
    frozen_speedup_q1: f64,
    frozen_speedup_q3: f64,
    int8_speedup: f64,
    quantized_matmuls: usize,
}

/// One ungated timing, a single window: the baselines of the comparator's
/// inference and training step.
#[derive(Serialize)]
struct ComparatorRow {
    name: String,
    ns: f64,
}

#[derive(Serialize)]
struct Report {
    pairs: usize,
    window_ms: f64,
    matmul: Vec<MatmulRow>,
    conv: Vec<ConvRow>,
    small: Vec<SmallRow>,
    permute: Vec<PermuteRow>,
    train_step: TrainRow,
    infer: Vec<InferRow>,
    comparator: Vec<ComparatorRow>,
    min_matmul_speedup: f64,
    min_frozen_speedup: f64,
    note: String,
}

/// Times `run` with the reference kernels (A) against the fast ones (B).
fn naive_vs_fast(window: Duration, mut run: impl FnMut()) -> Paired {
    let p = paired(PAIRS, window, |fast| {
        matmul::set_fast_enabled(fast);
        run();
    });
    matmul::set_fast_enabled(true);
    p
}

fn filled(n: usize, scale: f32) -> Vec<f32> {
    (0..n).map(|i| ((i * 2_654_435_761 % 1000) as f32 / 1000.0 - 0.5) * scale).collect()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let window = Duration::from_millis(if quick { 6 } else { 30 });

    // --- 1. Matmul at GIN and ST-block shapes -----------------------------
    // GIN comparator: MLP layers are [dim x dim] at dim = 128, applied to
    // the arch-graph node batch (~32 nodes) and to stacked embeddings.
    // ST-blocks: per-node channel mixing at paper widths H in {48, 64}
    // over METR-LA-scale node counts.
    let matmul_shapes: &[(&str, usize, usize, usize)] = &[
        ("gin_mlp_nodes", 32, 128, 128),
        ("gin_mlp_stack", 128, 128, 128),
        ("st_channel_mix", 207, 64, 64),
        ("st_temporal_mix", 768, 48, 48),
    ];
    let mut matmul_rows = Vec::new();
    for &(name, m, k, n) in matmul_shapes {
        let a = filled(m * k, 2.0);
        let b = filled(k * n, 2.0);
        let mut out = vec![0.0f32; m * n];
        let flops = 2.0 * (m * k * n) as f64;

        let p = naive_vs_fast(window, || {
            out.fill(0.0);
            matmul::matmul_kernel(&a, &b, &mut out, m, k, n);
        });
        let row = MatmulRow {
            name: name.to_string(),
            m,
            k,
            n,
            naive_ns: p.a_ns,
            fast_ns: p.b_ns,
            naive_gflops: flops / p.a_ns,
            fast_gflops: flops / p.b_ns,
            speedup: p.ratio.median,
            speedup_q1: p.ratio.q1,
            speedup_q3: p.ratio.q3,
        };
        eprintln!(
            "[matmul] {:<16} {m:>4}x{k:>3}x{n:>3}  naive {:>7.2} GF/s  fast {:>7.2} GF/s  {:>5.2}x",
            row.name, row.naive_gflops, row.fast_gflops, row.speedup
        );
        matmul_rows.push(row);
    }

    // --- 2. Conv1d at ST-block temporal-conv shapes -----------------------
    let conv_shapes: &[(&str, usize, usize, usize, usize, usize, usize)] = &[
        ("tcn_d1", 4, 32, 64, 12, 2, 1),
        ("tcn_d2", 4, 64, 64, 12, 2, 2),
        ("tcn_long", 8, 32, 32, 48, 3, 2),
    ];
    let mut conv_rows = Vec::new();
    for &(name, batch, c_in, c_out, l, ksize, dilation) in conv_shapes {
        let x = filled(batch * c_in * l, 1.0);
        let w = filled(c_out * c_in * ksize, 1.0);
        let bias = filled(c_out, 0.5);
        let mut out = vec![0.0f32; batch * c_out * l];
        let flops = 2.0 * (batch * c_out * c_in * ksize * l) as f64;

        let p = naive_vs_fast(window, || {
            out.fill(0.0);
            conv::conv1d_forward(
                &x,
                &w,
                Some(&bias),
                &mut out,
                batch,
                c_in,
                c_out,
                l,
                ksize,
                dilation,
            );
        });
        let row = ConvRow {
            name: name.to_string(),
            batch,
            c_in,
            c_out,
            l,
            ksize,
            dilation,
            naive_ns: p.a_ns,
            fast_ns: p.b_ns,
            naive_gflops: flops / p.a_ns,
            fast_gflops: flops / p.b_ns,
            speedup: p.ratio.median,
            speedup_q1: p.ratio.q1,
            speedup_q3: p.ratio.q3,
        };
        eprintln!(
            "[conv1d] {:<16} b{batch} {c_in}->{c_out} l{l} k{ksize} d{dilation}  \
             naive {:>6.2} GF/s  fast {:>6.2} GF/s  {:>5.2}x",
            row.name, row.naive_gflops, row.fast_gflops, row.speedup
        );
        conv_rows.push(row);
    }

    // --- 3. Small shapes of the ladder-search training step ----------------
    // Every linear layer is `[B·L, N, H] · [H, H]` (BroadcastRhs, 48 slices of
    // 6×8·8×8), DGCN diffuses with a constant `[N, N]` transition over
    // `[B·L, N, H]` (BroadcastLhs), attention multiplies per-slice 8×8
    // matrices (Matched), and GDCC convolves `[B·N, H, L]` at H in {4, 8}.
    // The reference column is the per-slice naive/direct loop.
    let mut small_rows = Vec::new();
    let mut small_row = |name: String, shape: String, run: &mut dyn FnMut()| {
        let p = naive_vs_fast(window, run);
        let row = SmallRow {
            name,
            shape,
            reference_ns: p.a_ns,
            fast_ns: p.b_ns,
            speedup: p.ratio.median,
            speedup_q1: p.ratio.q1,
            speedup_q3: p.ratio.q3,
        };
        eprintln!(
            "[small]  {:<20} {:<22} reference {:>8.0} ns  fast {:>8.0} ns  {:>5.2}x",
            row.name, row.shape, row.reference_ns, row.fast_ns, row.speedup
        );
        small_rows.push(row);
    };
    let bmm_shapes: &[(&str, matmul::BatchKind, usize, usize, usize, usize)] = &[
        ("linear", matmul::BatchKind::BroadcastRhs, 48, 6, 8, 8),
        ("dgcn", matmul::BatchKind::BroadcastLhs, 48, 5, 5, 8),
        ("attention", matmul::BatchKind::Matched, 24, 8, 8, 8),
    ];
    for &(name, kind, batch, m, k, n) in bmm_shapes {
        let a_len = if kind == matmul::BatchKind::BroadcastLhs { m * k } else { batch * m * k };
        let b_len = if kind == matmul::BatchKind::BroadcastRhs { k * n } else { batch * k * n };
        let (a, b, g) = (filled(a_len, 1.0), filled(b_len, 1.0), filled(batch * m * n, 1.0));
        let (mut out, mut da, mut db) =
            (vec![0.0; batch * m * n], vec![0.0; a_len], vec![0.0; b_len]);
        let shape = format!("{batch}x({m}x{k}x{n})");
        small_row(format!("{name}_fwd"), shape.clone(), &mut || {
            matmul::bmm_forward(&a, &b, &mut out, kind, batch, m, k, n);
        });
        small_row(format!("{name}_da"), shape.clone(), &mut || {
            matmul::bmm_backward(&a, &b, &g, Some(&mut da), None, kind, batch, m, k, n);
        });
        small_row(format!("{name}_db"), shape, &mut || {
            matmul::bmm_backward(&a, &b, &g, None, Some(&mut db), kind, batch, m, k, n);
        });
    }
    for h in [4, 8] {
        for l in [4, 6, 8] {
            let (batch, ksize, dilation) = (20, 2, 2);
            let x = filled(batch * h * l, 1.0);
            let w = filled(h * h * ksize, 1.0);
            let bias = filled(h, 0.5);
            let g = filled(batch * h * l, 1.0);
            let (mut out, mut dx, mut dw, mut db) =
                (vec![0.0; batch * h * l], vec![0.0; x.len()], vec![0.0; w.len()], vec![0.0; h]);
            let shape = format!("b{batch} {h}->{h} l{l} k{ksize} d{dilation}");
            small_row(format!("gdcc_h{h}_l{l}_fwd"), shape.clone(), &mut || {
                conv::conv1d_forward(
                    &x,
                    &w,
                    Some(&bias),
                    &mut out,
                    batch,
                    h,
                    h,
                    l,
                    ksize,
                    dilation,
                );
            });
            small_row(format!("gdcc_h{h}_l{l}_bwd"), shape, &mut || {
                conv::conv1d_backward(
                    &x,
                    &w,
                    &g,
                    Some(&mut dx),
                    Some(&mut dw),
                    Some(&mut db),
                    batch,
                    h,
                    h,
                    l,
                    ksize,
                    dilation,
                );
            });
        }
    }

    // --- 4. Permute at the ST-operator layouts ------------------------------
    // `[B, H, N, L]` activations: the ladder-search tasks (batch 4, H = 8,
    // 5 nodes, 12 steps) and the deep serving fixture (H = 16, 16 nodes,
    // 12 steps) at batch 1 and 8. The layouts are the operators' own:
    // GDCC [0,2,1,3], DGCN/INF-S [0,3,2,1], INF-T in [0,2,3,1] and back out
    // [0,3,1,2].
    let permute_shapes: &[(&str, [usize; 4])] =
        &[("ladder", [4, 8, 5, 12]), ("serve_b1", [1, 16, 16, 12]), ("serve_b8", [8, 16, 16, 12])];
    let layouts: &[[usize; 4]] = &[[0, 2, 1, 3], [0, 3, 2, 1], [0, 2, 3, 1], [0, 3, 1, 2]];
    let mut permute_rows = Vec::new();
    for &(name, shape) in permute_shapes {
        let x = Tensor::new(shape.to_vec(), filled(shape.iter().product(), 1.0));
        for axes in layouts {
            let p = paired(PAIRS, window, |strided| {
                if strided {
                    black_box(shapeops::permute(&x, axes));
                } else {
                    black_box(shapeops::naive::permute(&x, axes));
                }
            });
            let row = PermuteRow {
                name: format!("{name}_{}{}{}{}", axes[0], axes[1], axes[2], axes[3]),
                shape: shape.to_vec(),
                axes: axes.to_vec(),
                naive_ns: p.a_ns,
                fast_ns: p.b_ns,
                speedup: p.ratio.median,
                speedup_q1: p.ratio.q1,
                speedup_q3: p.ratio.q3,
            };
            eprintln!(
                "[permute] {:<16} {shape:?} by {axes:?}  naive {:>8.0} ns  strided {:>8.0} ns  \
                 {:>5.2}x",
                row.name, row.naive_ns, row.fast_ns, row.speedup
            );
            permute_rows.push(row);
        }
    }

    // --- 5. One full training run, naive vs fast --------------------------
    let profile = DatasetProfile::custom("bench", Domain::Traffic, 8, 300, 24, 0.3, 0.05, 10.0, 3);
    let task = ForecastTask::new(profile.generate(0), ForecastSetting::multi(6, 3), 0.6, 0.2, 1);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let ah = JointSpace::scaled().sample(&mut rng);
    let dims = ModelDims::new(8, 1, task.setting);
    let epochs = if quick { 2 } else { 6 };
    let cfg = TrainConfig { epochs, max_train_windows: 32, patience: 0, ..TrainConfig::test() };
    let steps = epochs * 32usize.div_ceil(cfg.batch_size);

    let mut train_run = || {
        let mut fc = Forecaster::new(ah.clone(), dims, &task.data.adjacency, 7);
        train_forecaster(&mut fc, &task, &cfg);
    };
    matmul::set_fast_enabled(false);
    let naive_ns_per_step = window_ns(Duration::ZERO, &mut train_run) / steps as f64;
    matmul::set_fast_enabled(true);
    let pool_before = octs_tensor::pool::stats();
    let fast_ns_per_step = window_ns(Duration::ZERO, &mut train_run) / steps as f64;
    let pool = octs_tensor::pool::stats().since(&pool_before);

    let train_step = TrainRow {
        steps,
        naive_ns_per_step,
        fast_ns_per_step,
        speedup: naive_ns_per_step / fast_ns_per_step,
        pool_hit_rate: pool.hit_rate(),
    };
    eprintln!(
        "[train]  {} steps  naive {:.0} ns/step  fast {:.0} ns/step  {:.2}x  pool hit rate {:.3}",
        train_step.steps,
        train_step.naive_ns_per_step,
        train_step.fast_ns_per_step,
        train_step.speedup,
        train_step.pool_hit_rate
    );

    // --- 6. Frozen-forward inference: tape vs compiled plans ---------------
    // The serving fixture shape: 3 ST-blocks at h=8 / i=16 (the output head
    // crosses the int8 quantization threshold), 8 nodes, 12-step history.
    let infer_dims = ModelDims { n: 8, f: 2, p: 12, out_steps: 3 };
    let infer_adj = Adjacency::identity(infer_dims.n);
    let infer_fixture = || {
        let arch = ArchDag::sample_admissible(4, &mut ChaCha8Rng::seed_from_u64(7));
        let hp = HyperParams { b: 3, c: 4, h: 8, i: 16, u: 0, delta: 0 };
        let mut fc = Forecaster::new(ArchHyper::new(arch, hp), infer_dims, &infer_adj, 11);
        fc.training = false;
        fc
    };
    let mut infer_rows = Vec::new();
    for &batch in &[1usize, 8] {
        let shape = [batch, infer_dims.f, infer_dims.n, infer_dims.p];
        let x = Tensor::new(shape.to_vec(), filled(shape.iter().product(), 1.0));

        let mut tape_fc = infer_fixture();
        let [full, fused, int8] =
            [Precision::Full, Precision::Fused, Precision::Int8].map(|tier| {
                let mut frozen = FrozenForecaster::new(infer_fixture(), tier);
                frozen.predict(&x); // compile outside the timed windows
                paired(PAIRS, window, |compiled| {
                    if compiled {
                        frozen.predict(&x);
                    } else {
                        tape_fc.predict(&x);
                    }
                })
            });
        let (g, xin, pred) = infer_fixture().forward_traced(&x);
        let quantized = g.freeze(&xin, &pred, Precision::Int8).quantized_matmuls();

        let row = InferRow {
            batch,
            tape_ns: fused.a_ns,
            full_ns: full.b_ns,
            fused_ns: fused.b_ns,
            int8_ns: int8.b_ns,
            frozen_speedup: fused.ratio.median,
            frozen_speedup_q1: fused.ratio.q1,
            frozen_speedup_q3: fused.ratio.q3,
            int8_speedup: int8.ratio.median,
            quantized_matmuls: quantized,
        };
        eprintln!(
            "[infer]  B={batch}  tape {:>8.0} ns  full {:>8.0} ns  fused {:>8.0} ns  int8 \
             {:>8.0} ns  frozen {:>5.2}x  int8 {:>5.2}x  ({} quantized matmuls)",
            row.tape_ns,
            row.full_ns,
            row.fused_ns,
            row.int8_ns,
            row.frozen_speedup,
            row.int8_speedup,
            row.quantized_matmuls
        );
        infer_rows.push(row);
    }

    // --- 7. Comparator inference and training step (ungated) --------------
    // One cached-embedding `infer_logit` with and without a task pathway (the
    // per-comparison cost of ranking), and one 8-pair `train_batch` step.
    let space = JointSpace::scaled();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let (a, b) = (space.sample(&mut rng), space.sample(&mut rng));
    let prelim = Tensor::full([6, 24, 16], 0.1);
    let mut tahc = Tahc::new(TahcConfig::scaled(), HyperSpace::scaled(), 0);
    let ahc = Tahc::new(
        TahcConfig { task_aware: false, ..TahcConfig::scaled() },
        HyperSpace::scaled(),
        0,
    );
    let mut opt = octs_tensor::Adam::new(1e-3, 5e-4);
    let batch: Vec<_> =
        (0..8).map(|i| (Some(&prelim), &a, &b, if i % 2 == 0 { 1.0 } else { 0.0 })).collect();
    let timed = |name: &str, run: &mut dyn FnMut()| {
        run(); // warm-up: fills the embedding caches
        let row = ComparatorRow { name: name.to_string(), ns: window_ns(window, run) };
        eprintln!("[tahc]   {:<22} {:>10.0} ns", row.name, row.ns);
        row
    };
    let comparator = vec![
        timed("infer_logit_task", &mut || {
            black_box(tahc.infer_logit(Some(&prelim), &a, &b));
        }),
        timed("infer_logit_no_task", &mut || {
            black_box(ahc.infer_logit(None, &a, &b));
        }),
        timed("train_batch_8pairs", &mut || {
            black_box(tahc.train_batch(&mut opt, &batch));
        }),
    ];

    // --- 8. Gates + report ------------------------------------------------
    let min_matmul_speedup = matmul_rows.iter().map(|r| r.speedup).fold(f64::INFINITY, f64::min);
    let min_frozen_speedup =
        infer_rows.iter().map(|r| r.frozen_speedup).fold(f64::INFINITY, f64::min);
    let report = Report {
        pairs: PAIRS,
        window_ms: window.as_secs_f64() * 1e3,
        matmul: matmul_rows,
        conv: conv_rows,
        small: small_rows,
        permute: permute_rows,
        train_step,
        infer: infer_rows,
        comparator,
        min_matmul_speedup,
        min_frozen_speedup,
        note: "naive = retained reference loops (ops::matmul::naive, ops::conv::direct, \
               ops::shapeops::naive; small rows: the per-slice loops over them); fast = \
               register-blocked packed matmul + im2col conv1d + bit-identical small-shape \
               matmul/conv1d kernels + strided permute; each speedup is the median of \
               `pairs` per-pair naive/fast ratios from alternating windows, q1/q3 beside it; \
               train row is one full train_forecaster run each way divided by optimizer \
               steps; infer rows time one predict on a 3-block h=8/i=16 forecaster — tape \
               engine vs compiled frozen plans at each precision tier, each tier paired \
               against the tape; comparator rows are one ungated window each of a \
               cached-embedding T-AHC infer_logit (scaled config, with and without a task) \
               and of one 8-pair train_batch step"
            .to_string(),
    };
    octs_bench::write_report("BENCH_kernels.json", quick, &report);

    for r in &report.matmul {
        assert!(r.speedup >= 1.0, "fast matmul slower than naive at {}: {:.2}x", r.name, r.speedup);
    }
    for r in &report.conv {
        assert!(r.speedup >= 1.0, "fast conv1d slower than naive at {}: {:.2}x", r.name, r.speedup);
    }
    for r in &report.small {
        assert!(
            r.speedup >= 1.0,
            "small-shape kernel slower than the reference loop at {}: {:.2}x",
            r.name,
            r.speedup
        );
    }
    for r in &report.permute {
        assert!(
            r.speedup >= 1.0,
            "strided permute slower than naive at {}: {:.2}x",
            r.name,
            r.speedup
        );
    }
    for r in &report.infer {
        assert!(
            r.frozen_speedup >= 1.0,
            "frozen forward slower than tape at B={}: {:.2}x",
            r.batch,
            r.frozen_speedup
        );
        assert!(
            r.quantized_matmuls >= 1,
            "int8 inference fixture quantized nothing at B={} — threshold drift?",
            r.batch
        );
    }
    if !quick {
        assert!(
            min_matmul_speedup >= 3.0,
            "matmul speedup at GIN/ST-block shapes must be >= 3x, got {min_matmul_speedup:.2}x"
        );
        assert!(
            min_frozen_speedup >= 1.5,
            "frozen-vs-tape speedup must be >= 1.5x on the inference fixture, got \
             {min_frozen_speedup:.2}x"
        );
    }
}
