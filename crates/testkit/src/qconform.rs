//! Quantized-inference conformance: every `octs-model` operator and stack,
//! frozen and run through the int8 GEMM backend, differenced against the
//! tape reference under a per-op error budget.
//!
//! The gradient sweep ([`crate::conformance`]) guards training; this sweep
//! guards *serving*. For each registered op it builds the same seeded traced
//! graph the tape engine would run, then checks the two frozen tiers the
//! serving layer can select ([`octs_tensor::Precision`]):
//!
//! - **Fused** must be *bit-identical* to the tape forward — fusion and
//!   buffer pooling are pure scheduling, never numerics.
//! - **Int8** must stay within the op's committed error budget (normalized
//!   worst-element deviation), must be bit-deterministic across repeated
//!   runs, and — where the op contains weight matrices large enough to
//!   quantize — must actually engage the quantized GEMM
//!   ([`octs_tensor::FrozenGraph::quantized_matmuls`] ≥ 1), so a silent
//!   fall-through to f32 cannot masquerade as accuracy.
//!
//! Shapes are sized so that quantization-eligible weights reach
//! `octs_tensor::ops::qgemm::QUANT_MIN_ELEMS` (hidden dims of 8+, feature
//! dims of 16): a sweep whose matrices are all below the threshold would
//! quantize nothing and prove nothing. The coverage tests in
//! `crates/testkit/tests/quant_conformance.rs` pin the enumerated op list to
//! the same 16 model-op names as the gradient sweep, plus the full
//! [`octs_model::Forecaster`] stack — a new operator cannot ship without a
//! quantized-serving budget.
//!
//! Every value derives from a single `u64` seed through the same
//! `mix`/`shape_salt` derivation as the gradient sweep, so any failure
//! replays from `(op name, seed, shape)` alone.

use crate::conformance::{mix, path_adjacency, shape_salt, tensor_of, InputKind};
use octs_data::Adjacency;
use octs_model::{
    adaptive_adjacency, apply_op, channel_projection, gru_cell, layer_norm as layer_norm_layer,
    linear, linear_no_bias, mlp2, multi_head_attention, residual_norm, self_attention, st_block,
    Forecaster, ModelDims, OpCtx,
};
use octs_space::{ArchDag, ArchHyper, Edge, HyperParams, OpKind};
use octs_tensor::{Graph, ParamStore, Precision, Tensor, Var};

/// Builds the seeded traced graph for one (seed, input) pair: returns the
/// graph, the input leaf (what [`octs_tensor::Graph::freeze`] binds as the
/// runtime argument), and the output var whose tape value is the reference.
type TraceFn = Box<dyn Fn(u64, &Tensor) -> (Graph, Var, Var) + Send + Sync>;

/// One op registered with the quantized conformance sweep.
pub struct QuantOpSpec {
    /// Unique spec name — same namespace as the gradient sweep
    /// (`"model/gdcc"`, ...) plus `"model/forecaster"` for the full stack.
    pub name: &'static str,
    /// Normalized worst-element int8 error budget.
    pub budget: f32,
    /// Whether the op is required to engage the quantized GEMM on at least
    /// one swept shape. `false` for ops with no quantization-eligible matmul
    /// (conv-only, normalization-only, identity).
    pub expect_quant: bool,
    /// Shapes swept in the quick (PR) profile.
    pub quick_shapes: Vec<Vec<usize>>,
    /// Shapes swept in the wide (`OCTS_CONFORMANCE_WIDE=1`, nightly) profile.
    pub wide_shapes: Vec<Vec<usize>>,
    trace: TraceFn,
}

/// Per-op sweep outcome.
#[derive(Debug, Clone)]
pub struct QuantOpReport {
    /// Spec name.
    pub name: String,
    /// Budget the op was gated on.
    pub budget: f32,
    /// Number of shapes checked.
    pub shapes_checked: usize,
    /// Worst normalized int8 deviation across all checked shapes.
    pub max_err: f32,
    /// Quantized matmuls engaged, summed across swept shapes.
    pub quantized_matmuls: usize,
    /// What failed, if anything — already formatted with the replay key.
    pub failure: Option<String>,
}

/// Result of a full quantized conformance sweep.
#[derive(Debug)]
pub struct QuantConformanceReport {
    /// Seed the sweep ran under.
    pub seed: u64,
    /// Whether the widened (nightly) shape set was used.
    pub wide: bool,
    /// One entry per registered op.
    pub ops: Vec<QuantOpReport>,
}

impl QuantConformanceReport {
    /// Ops that failed any check (budget, fused identity, determinism,
    /// quantization coverage).
    pub fn failures(&self) -> Vec<&QuantOpReport> {
        self.ops.iter().filter(|o| o.failure.is_some()).collect()
    }

    /// All registered op names, in sweep order.
    pub fn op_names(&self) -> Vec<&str> {
        self.ops.iter().map(|o| o.name.as_str()).collect()
    }

    /// Human-readable per-op deviation table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "quantized conformance sweep (seed {}, {} shapes)\n\
             {:<28} {:>7} {:>9} {:>10} {:>6}  status\n",
            self.seed,
            if self.wide { "wide" } else { "quick" },
            "op",
            "shapes",
            "budget",
            "max_err",
            "qmm",
        );
        for op in &self.ops {
            out.push_str(&format!(
                "{:<28} {:>7} {:>9.1e} {:>10.3e} {:>6}  {}\n",
                op.name,
                op.shapes_checked,
                op.budget,
                op.max_err,
                op.quantized_matmuls,
                if op.failure.is_some() { "FAIL" } else { "ok" },
            ));
        }
        for op in &self.ops {
            if let Some(f) = &op.failure {
                out.push_str(&format!("FAIL {f}\n"));
            }
        }
        out
    }

    /// Panics with the rendered report if any op failed.
    pub fn assert_green(&self) {
        assert!(self.failures().is_empty(), "{}", self.render());
    }
}

// ---------------------------------------------------------------------------
// the registry

/// Int8 budget for single operators/layers.
const OP_BUDGET: f32 = 2e-2;
/// Int8 budget for composed stacks (ST-block, full forecaster), whose
/// quantization error compounds across layers.
const STACK_BUDGET: f32 = 5e-2;

fn qspec(
    name: &'static str,
    budget: f32,
    expect_quant: bool,
    quick: &[&[usize]],
    wide: &[&[usize]],
    trace: TraceFn,
) -> QuantOpSpec {
    QuantOpSpec {
        name,
        budget,
        expect_quant,
        quick_shapes: quick.iter().map(|s| s.to_vec()).collect(),
        wide_shapes: wide.iter().map(|s| s.to_vec()).collect(),
        trace,
    }
}

/// An op spec whose graph is built around a single input leaf: the closure
/// receives `(seed, g, xin)` and returns the output var.
fn leaf_spec(
    name: &'static str,
    budget: f32,
    expect_quant: bool,
    quick: &[&[usize]],
    wide: &[&[usize]],
    build: impl Fn(u64, &Graph, &Var) -> Var + Send + Sync + 'static,
) -> QuantOpSpec {
    qspec(
        name,
        budget,
        expect_quant,
        quick,
        wide,
        Box::new(move |seed, x| {
            let g = Graph::new();
            let xin = g.constant(x.clone());
            let y = build(seed, &g, &xin);
            (g, xin, y)
        }),
    )
}

/// The five S/T candidate operators share the `[B, H, N, L]` contract; `H`
/// is sized 8 so the h→h weight matrices reach the quantization threshold.
fn model_op_qspec(name: &'static str, op: OpKind, expect_quant: bool) -> QuantOpSpec {
    leaf_spec(
        name,
        OP_BUDGET,
        expect_quant,
        &[&[1, 8, 4, 6]],
        &[&[1, 8, 4, 6], &[2, 8, 3, 7]],
        move |seed, g, v| {
            let s = v.shape();
            let (h, n) = (s[1], s[2]);
            let mut ps = ParamStore::new(mix(seed, 0x55));
            let (adj_fwd, adj_bwd) = path_adjacency(n);
            let mut ctx = OpCtx { g, ps: &mut ps, h, adj_fwd: &adj_fwd, adj_bwd: &adj_bwd };
            apply_op(op, "op", v, &mut ctx)
        },
    )
}

/// Every op the quantized sweep checks: the same 16 model-op names as the
/// gradient sweep plus the full forecaster stack. The coverage tests in
/// `crates/testkit/tests/quant_conformance.rs` pin this list — extend it
/// when adding an op.
pub fn all_quant_specs() -> Vec<QuantOpSpec> {
    vec![
        // ---- S/T candidate operators (Section 3.1.1) ---------------------
        // GDCC is conv-gated only — no matmul to quantize.
        model_op_qspec("model/gdcc", OpKind::Gdcc, false),
        model_op_qspec("model/inf_t", OpKind::InfT, true),
        model_op_qspec("model/dgcn", OpKind::Dgcn, true),
        model_op_qspec("model/inf_s", OpKind::InfS, true),
        model_op_qspec("model/identity", OpKind::Identity, false),
        // ---- the ST-block assembly, wiring every op kind -----------------
        leaf_spec(
            "model/st_block",
            STACK_BUDGET,
            true,
            &[&[1, 8, 3, 5]],
            &[&[1, 8, 3, 5], &[1, 8, 2, 6]],
            |seed, g, v| {
                let arch = ArchDag::new(
                    4,
                    vec![
                        Edge { from: 0, to: 1, op: OpKind::Gdcc },
                        Edge { from: 0, to: 2, op: OpKind::InfT },
                        Edge { from: 1, to: 2, op: OpKind::Identity },
                        Edge { from: 1, to: 3, op: OpKind::InfS },
                        Edge { from: 2, to: 3, op: OpKind::Dgcn },
                    ],
                )
                .expect("valid fixed DAG");
                let s = v.shape();
                let mut ps = ParamStore::new(mix(seed, 0x57));
                let (adj_fwd, adj_bwd) = path_adjacency(s[2]);
                let mut ctx =
                    OpCtx { g, ps: &mut ps, h: s[1], adj_fwd: &adj_fwd, adj_bwd: &adj_bwd };
                st_block(&arch, "blk", v, 1, &mut ctx)
            },
        ),
        // ---- model layers and helpers ------------------------------------
        leaf_spec(
            "model/adaptive_adjacency",
            OP_BUDGET,
            true,
            &[&[8, 8]],
            &[&[8, 8], &[16, 16]],
            |seed, g, v| {
                // E₁E₂ᵀ quantizes (n·emb ≥ 64 here); the softmaxed adjacency
                // is applied to the swept input so it reaches the output.
                let n = v.shape()[0];
                let mut ps = ParamStore::new(mix(seed, 0x70));
                adaptive_adjacency(&mut ps, g, "adp", n, n).matmul(v)
            },
        ),
        leaf_spec(
            "model/residual_norm",
            OP_BUDGET,
            false,
            &[&[4, 16]],
            &[&[4, 16], &[2, 8]],
            |seed, g, v| {
                let d = *v.shape().last().expect("rank >= 1");
                let mut ps = ParamStore::new(mix(seed, 0x67));
                let y = g.constant(tensor_of(InputKind::Smooth, &v.shape(), seed, 0x20));
                residual_norm(&mut ps, g, "rn", v, &y, d)
            },
        ),
        leaf_spec(
            "model/channel_projection",
            OP_BUDGET,
            true,
            &[&[1, 8, 3, 4]],
            &[&[1, 8, 3, 4], &[2, 8, 2, 5]],
            |seed, g, v| {
                let f = v.shape()[1];
                let mut ps = ParamStore::new(mix(seed, 0x68));
                channel_projection(&mut ps, g, "in", v, f, 8)
            },
        ),
        leaf_spec(
            "model/linear",
            OP_BUDGET,
            true,
            &[&[4, 16]],
            &[&[4, 16], &[2, 3, 16]],
            |seed, g, v| {
                let d = *v.shape().last().expect("rank >= 1");
                let mut ps = ParamStore::new(mix(seed, 0x60));
                linear(&mut ps, g, "fc", v, d, 8)
            },
        ),
        leaf_spec(
            "model/linear_no_bias",
            OP_BUDGET,
            true,
            &[&[4, 16]],
            &[&[4, 16], &[2, 3, 16]],
            |seed, g, v| {
                let d = *v.shape().last().expect("rank >= 1");
                let mut ps = ParamStore::new(mix(seed, 0x61));
                linear_no_bias(&mut ps, g, "fc", v, d, 8)
            },
        ),
        leaf_spec(
            "model/mlp2",
            OP_BUDGET,
            true,
            &[&[4, 16]],
            &[&[4, 16], &[2, 16]],
            |seed, g, v| {
                let d = *v.shape().last().expect("rank >= 1");
                let mut ps = ParamStore::new(mix(seed, 0x62));
                mlp2(&mut ps, g, "m", v, d, 8, 8)
            },
        ),
        leaf_spec(
            "model/layer_norm",
            OP_BUDGET,
            false,
            &[&[4, 16]],
            &[&[4, 16], &[2, 8]],
            |seed, g, v| {
                let d = *v.shape().last().expect("rank >= 1");
                let mut ps = ParamStore::new(mix(seed, 0x63));
                layer_norm_layer(&mut ps, g, "ln", v, d)
            },
        ),
        leaf_spec(
            "model/self_attention",
            OP_BUDGET,
            true,
            &[&[2, 4, 8]],
            &[&[2, 4, 8], &[1, 6, 8]],
            |seed, g, v| {
                let d = *v.shape().last().expect("rank >= 1");
                let mut ps = ParamStore::new(mix(seed, 0x64));
                self_attention(&mut ps, g, "att", v, d)
            },
        ),
        leaf_spec(
            "model/multi_head_attention",
            OP_BUDGET,
            true,
            &[&[2, 4, 8]],
            &[&[2, 4, 8], &[1, 6, 8]],
            |seed, g, v| {
                let d = *v.shape().last().expect("rank >= 1");
                let mut ps = ParamStore::new(mix(seed, 0x65));
                multi_head_attention(&mut ps, g, "mh", v, d, 2)
            },
        ),
        leaf_spec(
            "model/gru_cell",
            OP_BUDGET,
            true,
            &[&[4, 8]],
            &[&[4, 8], &[2, 8]],
            |seed, g, v| {
                let s = v.shape();
                let (batch, in_dim, hidden) = (s[0], s[1], 8);
                let mut ps = ParamStore::new(mix(seed, 0x66));
                let h = g.constant(tensor_of(InputKind::Smooth, &[batch, hidden], seed, 0x21));
                gru_cell(&mut ps, g, "gru", v, &h, in_dim, hidden)
            },
        ),
        // ---- the full stack: exactly what the serving layer freezes ------
        qspec(
            "model/forecaster",
            STACK_BUDGET,
            true,
            &[&[1, 2, 4, 12]],
            &[&[1, 2, 4, 12], &[2, 2, 4, 12]],
            Box::new(|seed, x| {
                let mut fc = forecaster_fixture(seed, x.shape()[2], x.shape()[1], x.shape()[3]);
                fc.forward_traced(x)
            }),
        ),
    ]
}

/// A deterministic evaluation-mode forecaster sized so its skip/output
/// projections quantize (`h = 8`, `i = 16`), over the same fixed
/// all-operator DAG as the ST-block spec.
fn forecaster_fixture(seed: u64, n: usize, f: usize, p: usize) -> Forecaster {
    let arch = ArchDag::new(
        4,
        vec![
            Edge { from: 0, to: 1, op: OpKind::Gdcc },
            Edge { from: 0, to: 2, op: OpKind::InfT },
            Edge { from: 1, to: 2, op: OpKind::Identity },
            Edge { from: 1, to: 3, op: OpKind::InfS },
            Edge { from: 2, to: 3, op: OpKind::Dgcn },
        ],
    )
    .expect("valid fixed DAG");
    let hyper = HyperParams { b: 1, c: 4, h: 8, i: 16, u: 0, delta: 0 };
    let ah = ArchHyper::new(arch, hyper);
    let dims = ModelDims { n, f, p, out_steps: 3 };
    let mut adj = Adjacency::identity(n);
    for i in 0..n.saturating_sub(1) {
        *adj.weight_mut(i, i + 1) = 1.0;
        *adj.weight_mut(i + 1, i) = 1.0;
    }
    let mut fc = Forecaster::new(ah, dims, &adj, mix(seed, 0x71));
    fc.training = false;
    fc
}

// ---------------------------------------------------------------------------
// the sweep

/// Normalized worst-element deviation: `max|q - r| / max(1, max|r|)`.
/// Infinite when the quantized output is non-finite anywhere.
fn normalized_err(q: &[f32], r: &[f32]) -> f32 {
    if q.iter().any(|v| !v.is_finite()) {
        return f32::INFINITY;
    }
    let scale = r.iter().fold(1.0f32, |m, v| m.max(v.abs()));
    q.iter().zip(r).fold(0.0f32, |m, (a, b)| m.max((a - b).abs())) / scale
}

fn check_quant_spec(spec: &QuantOpSpec, seed: u64, wide: bool) -> QuantOpReport {
    let shapes = if wide { &spec.wide_shapes } else { &spec.quick_shapes };
    let mut max_err = 0.0f32;
    let mut quantized = 0usize;
    let mut failure = None;
    for shape in shapes {
        let salt = shape_salt(shape);
        let x = tensor_of(InputKind::Smooth, shape, seed, salt);
        let (g, xin, out) = (spec.trace)(seed, &x);
        let reference = out.value();
        let ref_bits: Vec<u32> = reference.data().iter().map(|v| v.to_bits()).collect();

        // Fused must be pure scheduling: bit-identical to the tape.
        let fused = g.freeze(&xin, &out, Precision::Fused);
        let fused_out = fused.run(&x);
        let fused_bits: Vec<u32> = fused_out.data().iter().map(|v| v.to_bits()).collect();
        if fused_bits != ref_bits {
            failure.get_or_insert(format!(
                "{}: fused freeze is not bit-identical to the tape forward \
                 (seed {seed:#x}, shape {shape:?})",
                spec.name
            ));
            continue;
        }

        // Int8: within budget, bit-deterministic, and actually quantized.
        let int8 = g.freeze(&xin, &out, Precision::Int8);
        quantized += int8.quantized_matmuls();
        let q1 = int8.run(&x);
        let q2 = int8.run(&x);
        if q1.data().iter().map(|v| v.to_bits()).ne(q2.data().iter().map(|v| v.to_bits())) {
            failure.get_or_insert(format!(
                "{}: int8 forward is not bit-deterministic across repeated runs \
                 (seed {seed:#x}, shape {shape:?})",
                spec.name
            ));
            continue;
        }
        let err = normalized_err(q1.data(), reference.data());
        if err > max_err {
            max_err = err;
        }
        if err > spec.budget {
            failure.get_or_insert(format!(
                "{}: int8 deviation {err:.3e} exceeds budget {:.1e} \
                 (seed {seed:#x}, shape {shape:?}, {} quantized matmuls)",
                spec.name,
                spec.budget,
                int8.quantized_matmuls()
            ));
        }
    }
    if spec.expect_quant && quantized == 0 && failure.is_none() {
        failure = Some(format!(
            "{}: expected the int8 freeze to quantize at least one matmul but none \
             engaged — shapes too small or freeze stopped quantizing (seed {seed:#x})",
            spec.name
        ));
    }
    QuantOpReport {
        name: spec.name.to_string(),
        budget: spec.budget,
        shapes_checked: shapes.len(),
        max_err,
        quantized_matmuls: quantized,
        failure,
    }
}

/// Runs the quantized conformance sweep over every registered spec.
pub fn run_quant_sweep(seed: u64, wide: bool) -> QuantConformanceReport {
    let ops = all_quant_specs().iter().map(|s| check_quant_spec(s, seed, wide)).collect();
    QuantConformanceReport { seed, wide, ops }
}
