//! Tape-free frozen-forward inference backend.
//!
//! [`crate::Graph::freeze`] compiles one recorded forward pass into a
//! [`FrozenGraph`]: a topologically ordered op list with every parameter
//! baked in as a constant, dead tape nodes eliminated, and — depending on
//! the [`Precision`] policy — activation epilogues fused into their
//! producers and eligible weight matmuls replaced by the int8 kernel from
//! [`crate::ops::qgemm`].
//!
//! The frozen replay pays none of the tape's per-op costs (node pushes,
//! `Rc<RefCell>` borrows, per-pass parameter leaf copies, gradient
//! bookkeeping): intermediate values live in a flat slot vector whose tensors
//! are dropped at their last use, so their pooled buffers recycle within a
//! single run and serving steady state allocates nothing. Operands are read
//! in place (`peek!`); an op that writes its output over an operand takes
//! that operand over at its last use and copies it only otherwise.
//!
//! Precision tiers:
//! - [`Precision::Full`] — unfused replay, **byte-identical** to the tape
//!   forward (a property test in octs-testkit pins this).
//! - [`Precision::Fused`] — conv/add/add-bias → activation fusion. Still
//!   byte-identical: the same elementwise function is applied to the same
//!   rounded intermediate, just without materializing it.
//! - [`Precision::Int8`] — additionally runs large constant-weight matmuls
//!   through per-row-quantized int8 GEMM. Lossy by design; gated by the
//!   tolerance-budget conformance sweep and the serving load-time probe.

use crate::ops::matmul::{bmm_forward, BatchKind};
use crate::ops::qgemm::{qgemm, QuantizedRhs, QUANT_MIN_ELEMS};
use crate::ops::{conv, elementwise as ew, norm, reduce, shapeops, softmax};
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Execution policy for a frozen model, ordered by aggressiveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Precision {
    /// Unfused f32 replay, byte-identical to the tape forward.
    Full,
    /// f32 replay with activation-epilogue fusion (still byte-identical).
    Fused,
    /// Fusion plus int8 dynamic quantization of large weight matmuls.
    Int8,
}

/// An activation function fused or replayed by the frozen graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Act {
    /// `max(x, 0)`.
    Relu,
    /// `x` for `x > 0`, `alpha * x` otherwise.
    LeakyRelu(f32),
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// GELU (tanh approximation).
    Gelu,
    /// Absolute value.
    Abs,
    /// Square root.
    Sqrt,
    /// Natural log with inputs clamped to ≥ 1e-12 (matches [`crate::Var::ln`]).
    Ln,
}

impl Act {
    /// Applies the activation to one element, bit-matching the tape kernels.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Act::Relu => ew::relu(x),
            Act::LeakyRelu(alpha) => ew::leaky_relu(x, alpha),
            Act::Sigmoid => ew::sigmoid(x),
            Act::Tanh => ew::tanh(x),
            Act::Gelu => ew::gelu(x),
            Act::Abs => x.abs(),
            Act::Sqrt => x.sqrt(),
            Act::Ln => x.max(1e-12).ln(),
        }
    }
}

/// One step of a frozen graph. Operand `usize`s index earlier steps.
#[derive(Debug, Clone)]
pub enum FrozenOp {
    /// Eliminated step (dead code, or absorbed by fusion/quantization).
    Nop,
    /// The single runtime argument.
    Input,
    /// A value baked in at freeze time (parameter, adjacency, mask).
    Const(Tensor),
    /// Elementwise sum.
    Add(usize, usize),
    /// Elementwise difference.
    Sub(usize, usize),
    /// Elementwise product.
    Mul(usize, usize),
    /// Elementwise quotient.
    Div(usize, usize),
    /// Rank-1 bias broadcast over the trailing dimension.
    AddBias {
        /// Input step.
        x: usize,
        /// Bias step (rank-1).
        bias: usize,
    },
    /// Scalar addition.
    AddScalar {
        /// Input step.
        x: usize,
        /// The constant addend.
        s: f32,
    },
    /// Scalar multiplication.
    MulScalar {
        /// Input step.
        x: usize,
        /// The constant factor.
        s: f32,
    },
    /// Negation.
    Neg(usize),
    /// Batched matrix multiplication (see [`crate::ops::matmul::resolve_batch`]).
    Matmul {
        /// LHS step.
        a: usize,
        /// RHS step.
        b: usize,
        /// Batch-broadcast kind.
        kind: BatchKind,
        /// Batch count.
        batch: usize,
        /// Rows per batch.
        m: usize,
        /// Reduction dim.
        k: usize,
        /// Columns per batch.
        n: usize,
        /// Output shape.
        out_shape: Vec<usize>,
    },
    /// Int8-quantized matmul against a freeze-time packed weight.
    MatmulQuant {
        /// LHS (activation) step.
        a: usize,
        /// Packed, quantized weight.
        w: QuantizedRhs,
        /// Total activation rows (`batch * m`).
        rows: usize,
        /// Output shape.
        out_shape: Vec<usize>,
    },
    /// Elementwise activation.
    Unary {
        /// Input step.
        x: usize,
        /// The activation.
        act: Act,
    },
    /// Fused `act(a + b)`.
    AddAct {
        /// LHS step.
        a: usize,
        /// RHS step.
        b: usize,
        /// Fused epilogue activation.
        act: Act,
    },
    /// Fused `act(x + bias)`.
    AddBiasAct {
        /// Input step.
        x: usize,
        /// Bias step (rank-1).
        bias: usize,
        /// Fused epilogue activation.
        act: Act,
    },
    /// Softmax over the trailing dimension.
    Softmax {
        /// Input step.
        x: usize,
        /// Trailing-dimension length.
        d: usize,
    },
    /// Layer normalization over the trailing dimension.
    LayerNorm {
        /// Input step.
        x: usize,
        /// Gain step (rank-1).
        gamma: usize,
        /// Shift step (rank-1).
        beta: usize,
        /// Trailing-dimension length.
        d: usize,
        /// Variance epsilon.
        eps: f32,
    },
    /// Causal dilated 1-D convolution, optionally with a fused epilogue.
    Conv1d {
        /// Input step (`[B, C_in, L]`).
        x: usize,
        /// Weight step (`[C_out, C_in, K]`).
        w: usize,
        /// Optional bias step (rank-1).
        bias: Option<usize>,
        /// Batch size.
        b: usize,
        /// Input channels.
        c_in: usize,
        /// Output channels.
        c_out: usize,
        /// Sequence length.
        l: usize,
        /// Kernel width.
        k: usize,
        /// Dilation factor.
        dilation: usize,
        /// Fused epilogue activation, if any.
        act: Option<Act>,
    },
    /// Reshape to a fixed shape.
    Reshape {
        /// Input step.
        x: usize,
        /// Target shape.
        shape: Vec<usize>,
    },
    /// Materializing axis permutation.
    Permute {
        /// Input step.
        x: usize,
        /// Axis order.
        axes: Vec<usize>,
    },
    /// Concatenation along an axis.
    Concat {
        /// Input steps.
        xs: Vec<usize>,
        /// Concatenation axis.
        axis: usize,
    },
    /// Slice along an axis.
    SliceAxis {
        /// Input step.
        x: usize,
        /// Sliced axis.
        axis: usize,
        /// First kept index.
        start: usize,
        /// Kept length.
        len: usize,
    },
    /// Sum of all elements (scalar `[1]`).
    SumAll(usize),
    /// Mean of all elements (scalar `[1]`).
    MeanAll(usize),
    /// Sum over one axis.
    SumAxis {
        /// Input step.
        x: usize,
        /// Reduced axis.
        axis: usize,
    },
    /// Mean over one axis.
    MeanAxis {
        /// Input step.
        x: usize,
        /// Reduced axis.
        axis: usize,
    },
    /// Elementwise product with a baked-in constant (frozen dropout mask).
    MulConst {
        /// Input step.
        x: usize,
        /// The constant factor tensor.
        c: Tensor,
    },
    /// Row gather from a `[rows, cols]` matrix.
    GatherRows {
        /// Input step.
        x: usize,
        /// Source row per output row.
        idx: Vec<usize>,
    },
}

fn operands(op: &FrozenOp, out: &mut Vec<usize>) {
    match op {
        FrozenOp::Nop | FrozenOp::Input | FrozenOp::Const(_) => {}
        FrozenOp::Add(a, b)
        | FrozenOp::Sub(a, b)
        | FrozenOp::Mul(a, b)
        | FrozenOp::Div(a, b)
        | FrozenOp::AddAct { a, b, .. } => out.extend([*a, *b]),
        FrozenOp::AddBias { x, bias } | FrozenOp::AddBiasAct { x, bias, .. } => {
            out.extend([*x, *bias]);
        }
        FrozenOp::AddScalar { x, .. }
        | FrozenOp::MulScalar { x, .. }
        | FrozenOp::Neg(x)
        | FrozenOp::Unary { x, .. }
        | FrozenOp::Softmax { x, .. }
        | FrozenOp::Reshape { x, .. }
        | FrozenOp::Permute { x, .. }
        | FrozenOp::SliceAxis { x, .. }
        | FrozenOp::SumAll(x)
        | FrozenOp::MeanAll(x)
        | FrozenOp::SumAxis { x, .. }
        | FrozenOp::MeanAxis { x, .. }
        | FrozenOp::MulConst { x, .. }
        | FrozenOp::GatherRows { x, .. }
        | FrozenOp::MatmulQuant { a: x, .. } => out.push(*x),
        FrozenOp::Matmul { a, b, .. } => out.extend([*a, *b]),
        FrozenOp::LayerNorm { x, gamma, beta, .. } => out.extend([*x, *gamma, *beta]),
        FrozenOp::Conv1d { x, w, bias, .. } => {
            out.extend([*x, *w]);
            if let Some(b) = bias {
                out.push(*b);
            }
        }
        FrozenOp::Concat { xs, .. } => out.extend_from_slice(xs),
    }
}

/// A compiled, tape-free forward pass specialized to one input shape.
pub struct FrozenGraph {
    steps: Vec<FrozenOp>,
    /// Slot ids to drop after executing step `i` (their last use).
    frees: Vec<Vec<usize>>,
    output: usize,
    input_shape: Vec<usize>,
    precision: Precision,
    fused_ops: usize,
    quantized_matmuls: usize,
}

impl FrozenGraph {
    /// Compiles a raw step list (one entry per tape node) into an executable
    /// frozen graph: dead-code elimination, activation fusion (at
    /// [`Precision::Fused`] and above), int8 weight quantization (at
    /// [`Precision::Int8`]), and last-use free lists for slot recycling.
    pub fn compile(
        mut steps: Vec<FrozenOp>,
        input: usize,
        output: usize,
        input_shape: Vec<usize>,
        precision: Precision,
    ) -> Self {
        let n = steps.len();
        assert!(output < n, "output id out of range");

        // Dead-code elimination: anything the output does not (transitively)
        // reach becomes a Nop. Indices are preserved, so no remapping.
        let mut live = vec![false; n];
        live[input] = true;
        let mut stack = vec![output];
        let mut ops = Vec::new();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut live[id], true) {
                continue;
            }
            ops.clear();
            operands(&steps[id], &mut ops);
            stack.extend_from_slice(&ops);
        }
        for (id, step) in steps.iter_mut().enumerate() {
            if !live[id] {
                *step = FrozenOp::Nop;
            }
        }

        let mut consumers = vec![0usize; n];
        for step in &steps {
            ops.clear();
            operands(step, &mut ops);
            for &id in &ops {
                consumers[id] += 1;
            }
        }

        // Activation fusion: a Unary whose sole consumer relationship is
        // "this activation reads that producer" collapses into the producer's
        // epilogue. The producer slot becomes a Nop and the fused op takes
        // the activation's position, so operand indices stay topological.
        let mut fused_ops = 0usize;
        if precision != Precision::Full {
            for i in 0..n {
                let &FrozenOp::Unary { x, act } = &steps[i] else { continue };
                if consumers[x] != 1 || x == output {
                    continue;
                }
                let fused = match &steps[x] {
                    FrozenOp::Conv1d { act: None, x, w, bias, b, c_in, c_out, l, k, dilation } => {
                        Some(FrozenOp::Conv1d {
                            x: *x,
                            w: *w,
                            bias: *bias,
                            b: *b,
                            c_in: *c_in,
                            c_out: *c_out,
                            l: *l,
                            k: *k,
                            dilation: *dilation,
                            act: Some(act),
                        })
                    }
                    FrozenOp::Add(a, b) => Some(FrozenOp::AddAct { a: *a, b: *b, act }),
                    FrozenOp::AddBias { x, bias } => {
                        Some(FrozenOp::AddBiasAct { x: *x, bias: *bias, act })
                    }
                    _ => None,
                };
                if let Some(fused) = fused {
                    ops.clear();
                    operands(&steps[x], &mut ops);
                    steps[x] = FrozenOp::Nop;
                    steps[i] = fused;
                    consumers[x] = 0;
                    fused_ops += 1;
                }
            }
        }

        // Int8 quantization: matmuls against a large constant rank-2 RHS
        // (the weight side) swap to the packed int8 kernel; the f32 weight
        // constant is dropped when nothing else reads it.
        let mut quantized_matmuls = 0usize;
        if precision == Precision::Int8 {
            for i in 0..n {
                let (a, b, kind, batch, m, k, cols, out_shape) = match &steps[i] {
                    FrozenOp::Matmul { a, b, kind, batch, m, k, n, out_shape } => {
                        (*a, *b, *kind, *batch, *m, *k, *n, out_shape.clone())
                    }
                    _ => continue,
                };
                let one_gemm = matches!(kind, BatchKind::BroadcastRhs)
                    || (matches!(kind, BatchKind::Matched) && batch == 1);
                if !one_gemm || k * cols < QUANT_MIN_ELEMS {
                    continue;
                }
                let FrozenOp::Const(w) = &steps[b] else { continue };
                if w.rank() != 2 {
                    continue;
                }
                let quant = FrozenOp::MatmulQuant {
                    a,
                    w: QuantizedRhs::quantize(w.data(), k, cols),
                    rows: batch * m,
                    out_shape,
                };
                steps[i] = quant;
                consumers[b] -= 1;
                if consumers[b] == 0 && b != output {
                    steps[b] = FrozenOp::Nop;
                }
                quantized_matmuls += 1;
            }
        }

        // Last-use free lists: a slot's tensor drops (returning its buffer
        // to the thread-local pool) right after the last step that reads it.
        let mut last_use = vec![usize::MAX; n];
        for (i, step) in steps.iter().enumerate() {
            ops.clear();
            operands(step, &mut ops);
            for &id in &ops {
                last_use[id] = i;
            }
        }
        let mut frees: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (id, &lu) in last_use.iter().enumerate() {
            let stored = matches!(steps[id], FrozenOp::Const(_) | FrozenOp::Nop);
            if lu != usize::MAX && id != output && !stored {
                frees[lu].push(id);
            }
        }

        Self { steps, frees, output, input_shape, precision, fused_ops, quantized_matmuls }
    }

    /// The precision tier this graph was compiled at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The input shape this graph is specialized to.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Number of activation epilogues fused into their producers.
    pub fn fused_ops(&self) -> usize {
        self.fused_ops
    }

    /// Number of matmuls running on the int8 kernel.
    pub fn quantized_matmuls(&self) -> usize {
        self.quantized_matmuls
    }

    /// Number of executable (non-`Nop`, non-leaf) steps.
    pub fn live_ops(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| !matches!(s, FrozenOp::Nop | FrozenOp::Input | FrozenOp::Const(_)))
            .count()
    }

    /// Executes the frozen forward on one input tensor.
    ///
    /// # Panics
    /// Panics if `input`'s shape differs from the shape the graph was frozen
    /// with (frozen graphs are shape-specialized; callers hold one per
    /// batch size).
    pub fn run(&self, input: &Tensor) -> Tensor {
        assert_eq!(
            input.shape(),
            &self.input_shape[..],
            "frozen graph compiled for shape {:?}",
            self.input_shape
        );
        let mut slots: Vec<Option<Tensor>> = (0..self.steps.len()).map(|_| None).collect();
        for (i, step) in self.steps.iter().enumerate() {
            if let Some(out) = self.exec(step, i, input, &mut slots) {
                slots[i] = Some(out);
            }
            for &id in &self.frees[i] {
                slots[id] = None;
            }
        }
        match slots[self.output].take() {
            Some(t) => t,
            None => match &self.steps[self.output] {
                FrozenOp::Const(t) => t.clone(),
                FrozenOp::Input => input.clone(),
                other => panic!("output step {other:?} produced no value"),
            },
        }
    }

    fn exec(
        &self,
        step: &FrozenOp,
        i: usize,
        input: &Tensor,
        slots: &mut [Option<Tensor>],
    ) -> Option<Tensor> {
        let val = |slots: &[Option<Tensor>], id: usize| -> Tensor {
            if let Some(t) = &slots[id] {
                return t.clone();
            }
            match &self.steps[id] {
                FrozenOp::Const(t) => t.clone(),
                FrozenOp::Input => input.clone(),
                other => panic!("step {i} reads unset slot {id} ({other:?})"),
            }
        };
        // Reads a value without cloning, for kernels that take slices.
        macro_rules! peek {
            ($id:expr) => {
                match &slots[$id] {
                    Some(t) => t,
                    None => match &self.steps[$id] {
                        FrozenOp::Const(t) => t,
                        FrozenOp::Input => input,
                        other => panic!("step {i} reads unset slot {} ({other:?})", $id),
                    },
                }
            };
        }
        // Takes ownership when this step is the operand's last use (its slot
        // is about to be freed anyway), avoiding a pooled copy.
        let owned = |slots: &mut [Option<Tensor>], id: usize, frees: &[usize]| -> Tensor {
            if frees.contains(&id) {
                if let Some(t) = slots[id].take() {
                    return t;
                }
            }
            val(slots, id)
        };
        // `owned`, except that an operand also read by reference later in
        // the same step (`x.add_bias(x)`) stays in its slot.
        let owned_unless = |slots: &mut [Option<Tensor>], id: usize, also_read: usize| -> Tensor {
            if id == also_read {
                val(slots, id)
            } else {
                owned(slots, id, &self.frees[i])
            }
        };
        let out = match step {
            FrozenOp::Nop | FrozenOp::Const(_) => return None,
            FrozenOp::Input => input.clone(),
            FrozenOp::Add(a, b) => peek!(*a).zip(peek!(*b), |x, y| x + y),
            FrozenOp::Sub(a, b) => peek!(*a).zip(peek!(*b), |x, y| x - y),
            FrozenOp::Mul(a, b) => peek!(*a).zip(peek!(*b), |x, y| x * y),
            FrozenOp::Div(a, b) => peek!(*a).zip(peek!(*b), |x, y| x / y),
            FrozenOp::AddAct { a, b, act } => {
                let act = *act;
                peek!(*a).zip(peek!(*b), move |x, y| act.apply(x + y))
            }
            FrozenOp::AddBias { x, bias } => {
                let mut out = owned_unless(slots, *x, *bias);
                let bv = peek!(*bias);
                let d = bv.len();
                for chunk in out.data_mut().chunks_exact_mut(d) {
                    for (c, &b) in chunk.iter_mut().zip(bv.data()) {
                        *c += b;
                    }
                }
                out
            }
            FrozenOp::AddBiasAct { x, bias, act } => {
                let mut out = owned_unless(slots, *x, *bias);
                let bv = peek!(*bias);
                let d = bv.len();
                for chunk in out.data_mut().chunks_exact_mut(d) {
                    for (c, &b) in chunk.iter_mut().zip(bv.data()) {
                        *c = act.apply(*c + b);
                    }
                }
                out
            }
            FrozenOp::AddScalar { x, s } => {
                let s = *s;
                let mut out = owned(slots, *x, &self.frees[i]);
                for v in out.data_mut() {
                    *v += s;
                }
                out
            }
            FrozenOp::MulScalar { x, s } => {
                let s = *s;
                let mut out = owned(slots, *x, &self.frees[i]);
                for v in out.data_mut() {
                    *v *= s;
                }
                out
            }
            FrozenOp::Neg(x) => {
                let mut out = owned(slots, *x, &self.frees[i]);
                for v in out.data_mut() {
                    *v = -*v;
                }
                out
            }
            FrozenOp::Matmul { a, b, kind, batch, m, k, n, out_shape } => {
                let mut out = Tensor::zeros(out_shape.clone());
                bmm_forward(
                    peek!(*a).data(),
                    peek!(*b).data(),
                    out.data_mut(),
                    *kind,
                    *batch,
                    *m,
                    *k,
                    *n,
                );
                out
            }
            FrozenOp::MatmulQuant { a, w, rows, out_shape } => {
                let mut out = Tensor::zeros(out_shape.clone());
                qgemm(peek!(*a).data(), *rows, w, out.data_mut());
                out
            }
            FrozenOp::Unary { x, act } => {
                let act = *act;
                let mut out = owned(slots, *x, &self.frees[i]);
                for v in out.data_mut() {
                    *v = act.apply(*v);
                }
                out
            }
            FrozenOp::Softmax { x, d } => {
                let xv = peek!(*x);
                let mut out = Tensor::zeros(xv.shape().to_vec());
                softmax::softmax_forward(xv.data(), out.data_mut(), *d);
                out
            }
            FrozenOp::LayerNorm { x, gamma, beta, d, eps } => {
                let xv = peek!(*x);
                let mut out = Tensor::zeros(xv.shape().to_vec());
                let gv = peek!(*gamma);
                let bv = peek!(*beta);
                let _ = norm::layernorm_forward(
                    xv.data(),
                    gv.data(),
                    bv.data(),
                    out.data_mut(),
                    *d,
                    *eps,
                );
                out
            }
            FrozenOp::Conv1d { x, w, bias, b, c_in, c_out, l, k, dilation, act } => {
                let mut out = Tensor::zeros([*b, *c_out, *l]);
                conv::conv1d_forward(
                    peek!(*x).data(),
                    peek!(*w).data(),
                    bias.map(|id| peek!(id).data()),
                    out.data_mut(),
                    *b,
                    *c_in,
                    *c_out,
                    *l,
                    *k,
                    *dilation,
                );
                if let Some(act) = act {
                    for v in out.data_mut() {
                        *v = act.apply(*v);
                    }
                }
                out
            }
            FrozenOp::Reshape { x, shape } => {
                let mut out = owned(slots, *x, &self.frees[i]);
                out.reshape_in_place(shape.clone());
                out
            }
            FrozenOp::Permute { x, axes } => peek!(*x).permuted(axes),
            FrozenOp::Concat { xs, axis } => {
                let refs: Vec<&Tensor> = xs.iter().map(|&id| peek!(id)).collect();
                shapeops::concat(&refs, *axis)
            }
            FrozenOp::SliceAxis { x, axis, start, len } => {
                shapeops::slice_axis(peek!(*x), *axis, *start, *len)
            }
            FrozenOp::SumAll(x) => Tensor::scalar(peek!(*x).sum()),
            FrozenOp::MeanAll(x) => Tensor::scalar(peek!(*x).mean()),
            FrozenOp::SumAxis { x, axis } => reduce::sum_axis(peek!(*x), *axis),
            FrozenOp::MeanAxis { x, axis } => reduce::mean_axis(peek!(*x), *axis),
            FrozenOp::MulConst { x, c } => peek!(*x).zip(c, |a, b| a * b),
            FrozenOp::GatherRows { x, idx } => {
                let xv = peek!(*x);
                assert_eq!(xv.rank(), 2, "gather_rows expects a matrix");
                let cols = xv.shape()[1];
                let mut out = Tensor::zeros([idx.len(), cols]);
                for (row, &src) in idx.iter().enumerate() {
                    out.data_mut()[row * cols..(row + 1) * cols]
                        .copy_from_slice(&xv.data()[src * cols..(src + 1) * cols]);
                }
                out
            }
        };
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn seeded(shape: &[usize], seed: u64) -> Tensor {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let n: usize = shape.iter().product();
        let data = (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 40) as f32) / ((1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect();
        Tensor::new(shape.to_vec(), data)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// A small mixed graph touching matmul, bias, activation, reshape,
    /// slicing, reductions, and layer-norm.
    fn build(g: &Graph, x: &crate::graph::Var) -> crate::graph::Var {
        let w = g.constant(seeded(&[6, 8], 2));
        let b = g.constant(seeded(&[8], 3));
        let gamma = g.constant(seeded(&[8], 4).map(|v| 1.0 + 0.1 * v));
        let beta = g.constant(seeded(&[8], 5));
        let h = x.matmul(&w).add_bias(&b).relu();
        let n = h.layer_norm(&gamma, &beta, 1e-5);
        let s = n.add(&h).sigmoid();
        s.slice_axis(1, 0, 4).mean_axis(1).add_scalar(0.25)
    }

    #[test]
    fn full_freeze_is_byte_identical_to_tape() {
        let x = seeded(&[5, 6], 1);
        let g = Graph::new();
        let xin = g.constant(x.clone());
        let y = build(&g, &xin);
        let frozen = g.freeze(&xin, &y, Precision::Full);
        assert_eq!(bits(&frozen.run(&x)), bits(&y.value()));
    }

    #[test]
    fn fused_freeze_is_byte_identical_and_fuses() {
        let x = seeded(&[5, 6], 1);
        let g = Graph::new();
        let xin = g.constant(x.clone());
        let y = build(&g, &xin);
        let frozen = g.freeze(&xin, &y, Precision::Fused);
        assert!(frozen.fused_ops() > 0, "expected at least one fused epilogue");
        assert_eq!(bits(&frozen.run(&x)), bits(&y.value()));
    }

    #[test]
    fn conv_epilogue_fuses_and_stays_identical() {
        let x = seeded(&[2, 3, 7], 6);
        let g = Graph::new();
        let xin = g.constant(x.clone());
        let w = g.constant(seeded(&[4, 3, 2], 7));
        let b = g.constant(seeded(&[4], 8));
        let y = xin.conv1d(&w, Some(&b), 2).tanh().mean_all();
        let frozen = g.freeze(&xin, &y, Precision::Fused);
        assert_eq!(frozen.fused_ops(), 1);
        assert_eq!(bits(&frozen.run(&x)), bits(&y.value()));
    }

    #[test]
    fn bias_that_is_also_the_input_stays_readable() {
        let x = seeded(&[6], 18);
        let g = Graph::new();
        let xin = g.constant(x.clone());
        let h = xin.mul_scalar(0.5);
        let plain = h.add_bias(&h);
        let fused = h.add_bias(&h).relu();
        for (y, precision) in [(&plain, Precision::Full), (&fused, Precision::Fused)] {
            let frozen = g.freeze(&xin, y, precision);
            assert_eq!(bits(&frozen.run(&x)), bits(&y.value()), "{precision:?}");
        }
    }

    #[test]
    fn fusion_skipped_when_producer_has_other_consumers() {
        let x = seeded(&[3, 4], 9);
        let g = Graph::new();
        let xin = g.constant(x.clone());
        let a = g.constant(seeded(&[3, 4], 10));
        let summed = xin.add(&a);
        // `summed` feeds both the activation and the final add: not fusable.
        let y = summed.relu().add(&summed).sum_all();
        let frozen = g.freeze(&xin, &y, Precision::Fused);
        assert_eq!(frozen.fused_ops(), 0);
        assert_eq!(bits(&frozen.run(&x)), bits(&y.value()));
    }

    #[test]
    fn int8_quantizes_large_matmuls_within_tolerance() {
        let x = seeded(&[4, 32], 11);
        let g = Graph::new();
        let xin = g.constant(x.clone());
        let w = g.constant(seeded(&[32, 16], 12));
        let y = xin.matmul(&w).relu();
        let frozen = g.freeze(&xin, &y, Precision::Int8);
        assert_eq!(frozen.quantized_matmuls(), 1);
        let reference = y.value();
        let got = frozen.run(&x);
        let ref_max = reference.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        for (a, b) in got.data().iter().zip(reference.data()) {
            assert!((a - b).abs() / ref_max.max(1.0) < 2e-2, "int8 {a} vs f32 {b}");
        }
    }

    #[test]
    fn int8_skips_small_weights() {
        let x = seeded(&[2, 4], 13);
        let g = Graph::new();
        let xin = g.constant(x.clone());
        let w = g.constant(seeded(&[4, 3], 14));
        let y = xin.matmul(&w);
        let frozen = g.freeze(&xin, &y, Precision::Int8);
        assert_eq!(frozen.quantized_matmuls(), 0, "below QUANT_MIN_ELEMS must stay f32");
        assert_eq!(bits(&frozen.run(&x)), bits(&y.value()));
    }

    #[test]
    fn dead_branches_are_eliminated() {
        let x = seeded(&[3, 5], 15);
        let g = Graph::new();
        let xin = g.constant(x.clone());
        let _unused = xin.relu().sum_all();
        let y = xin.mul_scalar(2.0);
        let frozen = g.freeze(&xin, &y, Precision::Full);
        assert_eq!(frozen.live_ops(), 1, "dead relu/sum must be DCE'd");
        assert_eq!(bits(&frozen.run(&x)), bits(&y.value()));
    }

    #[test]
    fn empty_batch_runs() {
        let x = Tensor::zeros([0, 6]);
        let g = Graph::new();
        let xin = g.constant(x.clone());
        let y = build(&g, &xin);
        let frozen = g.freeze(&xin, &y, Precision::Fused);
        let out = frozen.run(&x);
        assert_eq!(out.shape(), y.value().shape());
        assert!(out.is_empty());
    }

    #[test]
    fn run_rejects_wrong_shape() {
        let x = seeded(&[2, 6], 16);
        let g = Graph::new();
        let xin = g.constant(x.clone());
        let y = xin.relu();
        let frozen = g.freeze(&xin, &y, Precision::Full);
        let r = std::panic::catch_unwind(|| frozen.run(&seeded(&[3, 6], 17)));
        assert!(r.is_err(), "shape mismatch must panic");
    }

    #[test]
    fn repeated_runs_reuse_pooled_buffers() {
        let x = seeded(&[5, 6], 1);
        let g = Graph::new();
        let xin = g.constant(x.clone());
        let y = build(&g, &xin);
        let frozen = g.freeze(&xin, &y, Precision::Fused);
        let first = frozen.run(&x);
        crate::pool::reset_stats();
        let again = frozen.run(&x);
        assert_eq!(bits(&first), bits(&again));
        let stats = crate::pool::stats();
        assert!(
            stats.hit_rate() > 0.8,
            "warm frozen runs must serve from the pool (hit rate {})",
            stats.hit_rate()
        );
    }
}
