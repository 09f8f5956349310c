//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] records every operation applied to its [`Var`] handles on an
//! append-only tape. [`Graph::backward`] seeds the loss node with a unit
//! gradient and walks the tape in reverse, accumulating gradients into every
//! node that (transitively) depends on a parameter leaf.
//!
//! Design notes
//! - One graph per forward pass; graphs are cheap arenas and are dropped after
//!   the optimizer step. Parameters live outside the graph in a
//!   [`crate::param::ParamStore`] and are re-attached as leaves each pass.
//! - Values are dense [`Tensor`]s; there are no views, so every op
//!   materializes its output. At AutoCTS+ model sizes this is faster than
//!   bookkeeping for aliasing.
//! - Ops never copy their operands: forward ops read input values through a
//!   borrow of the tape (released before the output node is pushed), and
//!   backward reads them in place while it moves the node's own op and
//!   gradient out and back. Only the public [`Var::value`] hands out a copy.

use crate::ops::matmul::{bmm_backward, bmm_forward, resolve_batch, BatchKind};
use crate::ops::norm::LayerNormSaved;
use crate::ops::{conv, elementwise as ew, norm, reduce, shapeops, softmax};
use crate::tensor::Tensor;
use std::cell::{Ref, RefCell};
use std::rc::Rc;

type Id = usize;

#[derive(Debug, Clone)]
enum Op {
    Leaf,
    Add(Id, Id),
    Sub(Id, Id),
    Mul(Id, Id),
    Div(Id, Id),
    AddBias(Id, Id),
    AddScalar(Id, f32),
    MulScalar(Id, f32),
    Neg(Id),
    Matmul {
        a: Id,
        b: Id,
        kind: BatchKind,
        batch: usize,
        m: usize,
        k: usize,
        n: usize,
    },
    Relu(Id),
    LeakyRelu(Id, f32),
    Sigmoid(Id),
    Tanh(Id),
    Gelu(Id),
    Abs(Id),
    Sqrt(Id),
    Ln(Id),
    Softmax {
        x: Id,
        d: usize,
    },
    LayerNorm {
        x: Id,
        gamma: Id,
        beta: Id,
        d: usize,
        eps: f32,
        saved: LayerNormSaved,
    },
    Conv1d {
        x: Id,
        w: Id,
        bias: Option<Id>,
        b: usize,
        c_in: usize,
        c_out: usize,
        l: usize,
        k: usize,
        dilation: usize,
    },
    Reshape(Id),
    Permute {
        x: Id,
        axes: Vec<usize>,
    },
    Concat {
        xs: Vec<Id>,
        axis: usize,
    },
    SliceAxis {
        x: Id,
        axis: usize,
        start: usize,
        len: usize,
    },
    SumAll(Id),
    MeanAll(Id),
    SumAxis {
        x: Id,
        axis: usize,
    },
    MeanAxis {
        x: Id,
        axis: usize,
    },
    Dropout {
        x: Id,
        mask: Rc<Tensor>,
    },
    GatherRows {
        x: Id,
        idx: Rc<Vec<usize>>,
    },
    BceWithLogits {
        logits: Id,
        targets: Tensor,
    },
}

struct Node {
    value: Tensor,
    grad: Option<Tensor>,
    op: Op,
    /// Whether gradients should flow through / into this node.
    requires: bool,
    /// Name of the parameter this leaf mirrors, if any.
    param: Option<String>,
}

#[derive(Default)]
struct Tape {
    nodes: Vec<Node>,
}

/// An autograd tape. Clone handles are cheap (`Rc`).
#[derive(Clone, Default)]
pub struct Graph {
    tape: Rc<RefCell<Tape>>,
}

/// A handle to a node on a [`Graph`]'s tape.
#[derive(Clone)]
pub struct Var {
    graph: Graph,
    id: Id,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&self, value: Tensor, op: Op, requires: bool, param: Option<String>) -> Var {
        let mut tape = self.tape.borrow_mut();
        let id = tape.nodes.len();
        tape.nodes.push(Node { value, grad: None, op, requires, param });
        Var { graph: self.clone(), id }
    }

    /// Adds a constant leaf (no gradient is tracked into it).
    pub fn constant(&self, value: Tensor) -> Var {
        self.push(value, Op::Leaf, false, None)
    }

    /// Adds an input leaf that participates in gradient flow (used by
    /// gradient checking); models normally use [`Graph::constant`] for data.
    pub fn input(&self, value: Tensor) -> Var {
        self.push(value, Op::Leaf, true, None)
    }

    /// Adds a parameter leaf whose gradient will be reported under `name`.
    pub fn param(&self, name: impl Into<String>, value: Tensor) -> Var {
        self.push(value, Op::Leaf, true, Some(name.into()))
    }

    /// Number of nodes currently on the tape.
    pub fn len(&self) -> usize {
        self.tape.borrow().nodes.len()
    }

    /// True if the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs reverse-mode accumulation from `loss` (any shape; seeded with ones).
    pub fn backward(&self, loss: &Var) {
        assert!(Rc::ptr_eq(&self.tape, &loss.graph.tape), "loss from another graph");
        let mut tape = self.tape.borrow_mut();
        let n = tape.nodes.len();
        {
            let node = &mut tape.nodes[loss.id];
            let seed = Tensor::ones(node.value.shape().to_vec());
            node.grad = Some(seed);
        }
        for i in (0..n).rev() {
            if !tape.nodes[i].requires {
                continue;
            }
            let Some(dout) = tape.nodes[i].grad.take() else { continue };
            // Move the op and gradient out while the inputs' gradients are
            // written (every input id is below `i`), then put both back so
            // `grad_of` still sees this node's gradient.
            let op = std::mem::replace(&mut tape.nodes[i].op, Op::Leaf);
            backprop_one(&mut tape.nodes, i, &op, &dout);
            let node = &mut tape.nodes[i];
            node.op = op;
            node.grad = Some(dout);
        }
    }

    /// Moves out `(name, grad)` for every named parameter leaf that received
    /// a gradient during [`Graph::backward`]. The gradients leave the tape
    /// rather than being copied, so a second call returns nothing and
    /// [`Graph::grad_of`] reports `None` for those leaves afterwards.
    pub fn param_grads(&self) -> Vec<(String, Tensor)> {
        let mut tape = self.tape.borrow_mut();
        tape.nodes
            .iter_mut()
            .filter_map(|n| {
                let name = n.param.as_ref()?;
                Some((name.clone(), n.grad.take()?))
            })
            .collect()
    }

    /// Gradient of an arbitrary node, if one was accumulated.
    pub fn grad_of(&self, v: &Var) -> Option<Tensor> {
        self.tape.borrow().nodes[v.id].grad.clone()
    }

    /// Compiles the recorded forward pass into a tape-free
    /// [`crate::infer::FrozenGraph`] specialized to `input`'s shape.
    ///
    /// Every non-`input` leaf is baked in as a constant (parameters,
    /// adjacency matrices, dropout masks), so the frozen graph replays the
    /// exact forward with a single tensor argument. Loss ops
    /// (`bce_with_logits`) are not servable and panic here.
    ///
    /// # Panics
    /// Panics if `input` or `output` belong to another graph, or if the tape
    /// contains a loss op.
    pub fn freeze(
        &self,
        input: &Var,
        output: &Var,
        precision: crate::infer::Precision,
    ) -> crate::infer::FrozenGraph {
        use crate::infer::{Act, FrozenOp};
        assert!(Rc::ptr_eq(&self.tape, &input.graph.tape), "input from another graph");
        assert!(Rc::ptr_eq(&self.tape, &output.graph.tape), "output from another graph");
        let tape = self.tape.borrow();
        let steps: Vec<FrozenOp> = tape
            .nodes
            .iter()
            .enumerate()
            .map(|(id, node)| match &node.op {
                Op::Leaf => {
                    if id == input.id {
                        FrozenOp::Input
                    } else {
                        FrozenOp::Const(node.value.clone())
                    }
                }
                Op::Add(a, b) => FrozenOp::Add(*a, *b),
                Op::Sub(a, b) => FrozenOp::Sub(*a, *b),
                Op::Mul(a, b) => FrozenOp::Mul(*a, *b),
                Op::Div(a, b) => FrozenOp::Div(*a, *b),
                Op::AddBias(x, bias) => FrozenOp::AddBias { x: *x, bias: *bias },
                Op::AddScalar(x, s) => FrozenOp::AddScalar { x: *x, s: *s },
                Op::MulScalar(x, s) => FrozenOp::MulScalar { x: *x, s: *s },
                Op::Neg(x) => FrozenOp::Neg(*x),
                Op::Matmul { a, b, kind, batch, m, k, n } => FrozenOp::Matmul {
                    a: *a,
                    b: *b,
                    kind: *kind,
                    batch: *batch,
                    m: *m,
                    k: *k,
                    n: *n,
                    out_shape: node.value.shape().to_vec(),
                },
                Op::Relu(x) => FrozenOp::Unary { x: *x, act: Act::Relu },
                Op::LeakyRelu(x, alpha) => FrozenOp::Unary { x: *x, act: Act::LeakyRelu(*alpha) },
                Op::Sigmoid(x) => FrozenOp::Unary { x: *x, act: Act::Sigmoid },
                Op::Tanh(x) => FrozenOp::Unary { x: *x, act: Act::Tanh },
                Op::Gelu(x) => FrozenOp::Unary { x: *x, act: Act::Gelu },
                Op::Abs(x) => FrozenOp::Unary { x: *x, act: Act::Abs },
                Op::Sqrt(x) => FrozenOp::Unary { x: *x, act: Act::Sqrt },
                Op::Ln(x) => FrozenOp::Unary { x: *x, act: Act::Ln },
                Op::Softmax { x, d } => FrozenOp::Softmax { x: *x, d: *d },
                Op::LayerNorm { x, gamma, beta, d, eps, saved: _ } => {
                    FrozenOp::LayerNorm { x: *x, gamma: *gamma, beta: *beta, d: *d, eps: *eps }
                }
                Op::Conv1d { x, w, bias, b, c_in, c_out, l, k, dilation } => FrozenOp::Conv1d {
                    x: *x,
                    w: *w,
                    bias: *bias,
                    b: *b,
                    c_in: *c_in,
                    c_out: *c_out,
                    l: *l,
                    k: *k,
                    dilation: *dilation,
                    act: None,
                },
                Op::Reshape(x) => FrozenOp::Reshape { x: *x, shape: node.value.shape().to_vec() },
                Op::Permute { x, axes } => FrozenOp::Permute { x: *x, axes: axes.clone() },
                Op::Concat { xs, axis } => FrozenOp::Concat { xs: xs.clone(), axis: *axis },
                Op::SliceAxis { x, axis, start, len } => {
                    FrozenOp::SliceAxis { x: *x, axis: *axis, start: *start, len: *len }
                }
                Op::SumAll(x) => FrozenOp::SumAll(*x),
                Op::MeanAll(x) => FrozenOp::MeanAll(*x),
                Op::SumAxis { x, axis } => FrozenOp::SumAxis { x: *x, axis: *axis },
                Op::MeanAxis { x, axis } => FrozenOp::MeanAxis { x: *x, axis: *axis },
                Op::Dropout { x, mask } => FrozenOp::MulConst { x: *x, c: (**mask).clone() },
                Op::GatherRows { x, idx } => FrozenOp::GatherRows { x: *x, idx: (**idx).clone() },
                Op::BceWithLogits { .. } => {
                    panic!("freeze: loss op bce_with_logits is not servable")
                }
            })
            .collect();
        let input_shape = tape.nodes[input.id].value.shape().to_vec();
        crate::infer::FrozenGraph::compile(steps, input.id, output.id, input_shape, precision)
    }
}

fn accumulate(nodes: &mut [Node], id: Id, delta: &Tensor) {
    if !nodes[id].requires {
        return;
    }
    match &mut nodes[id].grad {
        Some(g) => g.add_scaled(delta, 1.0),
        slot @ None => *slot = Some(delta.clone()),
    }
}

/// [`accumulate`] for a freshly computed delta: an empty slot takes it by
/// move instead of by copy.
fn accumulate_owned(nodes: &mut [Node], id: Id, delta: Tensor) {
    if !nodes[id].requires {
        return;
    }
    match &mut nodes[id].grad {
        Some(g) => g.add_scaled(&delta, 1.0),
        slot @ None => *slot = Some(delta),
    }
}

/// Accumulates in place into `id`'s gradient (zero-initialized when empty).
/// The gradient is moved out while `f` runs, so `f` can still read any
/// node's value.
fn accumulate_raw(nodes: &mut [Node], id: Id, f: impl FnOnce(&[Node], &mut [f32])) {
    if !nodes[id].requires {
        return;
    }
    let mut grad = match nodes[id].grad.take() {
        Some(g) => g,
        None => Tensor::zeros(nodes[id].value.shape().to_vec()),
    };
    f(nodes, grad.data_mut());
    nodes[id].grad = Some(grad);
}

#[allow(clippy::too_many_lines)]
fn backprop_one(nodes: &mut [Node], i: Id, op: &Op, dout: &Tensor) {
    match op {
        Op::Leaf => {}
        Op::Add(a, b) => {
            accumulate(nodes, *a, dout);
            accumulate(nodes, *b, dout);
        }
        Op::Sub(a, b) => {
            accumulate(nodes, *a, dout);
            accumulate_owned(nodes, *b, dout.map(|v| -v));
        }
        Op::Mul(a, b) => {
            let da = dout.zip(&nodes[*b].value, |g, bv| g * bv);
            let db = dout.zip(&nodes[*a].value, |g, av| g * av);
            accumulate_owned(nodes, *a, da);
            accumulate_owned(nodes, *b, db);
        }
        Op::Div(a, b) => {
            let (av, bv) = (&nodes[*a].value, &nodes[*b].value);
            let da = dout.zip(bv, |g, b| g / b);
            let mut db_data = crate::pool::take_empty(bv.len());
            db_data.extend(
                dout.data()
                    .iter()
                    .zip(av.data())
                    .zip(bv.data())
                    .map(|((&g, &a), &b)| -g * a / (b * b)),
            );
            let db = Tensor::new(bv.shape().to_vec(), db_data);
            accumulate_owned(nodes, *a, da);
            accumulate_owned(nodes, *b, db);
        }
        Op::AddBias(x, bias) => {
            accumulate(nodes, *x, dout);
            let d = nodes[*bias].value.len();
            accumulate_raw(nodes, *bias, |_, g| {
                for chunk in dout.data().chunks_exact(d) {
                    for (gv, &c) in g.iter_mut().zip(chunk) {
                        *gv += c;
                    }
                }
            });
        }
        Op::AddScalar(x, _) => accumulate(nodes, *x, dout),
        Op::MulScalar(x, s) => accumulate_owned(nodes, *x, dout.map(|v| v * s)),
        Op::Neg(x) => accumulate_owned(nodes, *x, dout.map(|v| -v)),
        Op::Matmul { a, b, kind, batch, m, k, n } => {
            // Only operands that take a gradient get one computed.
            let (av, bv) = (&nodes[*a].value, &nodes[*b].value);
            let mut da = nodes[*a].requires.then(|| crate::pool::take(av.len()));
            let mut db = nodes[*b].requires.then(|| crate::pool::take(bv.len()));
            bmm_backward(
                av.data(),
                bv.data(),
                dout.data(),
                da.as_deref_mut(),
                db.as_deref_mut(),
                *kind,
                *batch,
                *m,
                *k,
                *n,
            );
            let da = da.map(|d| Tensor::new(av.shape().to_vec(), d));
            let db = db.map(|d| Tensor::new(bv.shape().to_vec(), d));
            if let Some(da) = da {
                accumulate_owned(nodes, *a, da);
            }
            if let Some(db) = db {
                accumulate_owned(nodes, *b, db);
            }
        }
        Op::Relu(x) => {
            let dx = dout.zip(&nodes[*x].value, |g, xv| g * ew::relu_grad(xv));
            accumulate_owned(nodes, *x, dx);
        }
        Op::LeakyRelu(x, alpha) => {
            let a = *alpha;
            let dx = dout.zip(&nodes[*x].value, move |g, xv| g * ew::leaky_relu_grad(xv, a));
            accumulate_owned(nodes, *x, dx);
        }
        Op::Sigmoid(x) => {
            let dx = dout.zip(&nodes[i].value, |g, yv| g * ew::sigmoid_grad_from_output(yv));
            accumulate_owned(nodes, *x, dx);
        }
        Op::Tanh(x) => {
            let dx = dout.zip(&nodes[i].value, |g, yv| g * ew::tanh_grad_from_output(yv));
            accumulate_owned(nodes, *x, dx);
        }
        Op::Gelu(x) => {
            let dx = dout.zip(&nodes[*x].value, |g, xv| g * ew::gelu_grad(xv));
            accumulate_owned(nodes, *x, dx);
        }
        Op::Abs(x) => {
            let dx = dout.zip(&nodes[*x].value, |g, xv| g * ew::abs_grad(xv));
            accumulate_owned(nodes, *x, dx);
        }
        Op::Sqrt(x) => {
            let dx = dout.zip(&nodes[i].value, |g, yv| if yv > 0.0 { g * 0.5 / yv } else { 0.0 });
            accumulate_owned(nodes, *x, dx);
        }
        Op::Ln(x) => {
            // forward clamps inputs to >= 1e-12; the clamped region is flat
            let dx = dout.zip(&nodes[*x].value, |g, v| if v > 1e-12 { g / v } else { 0.0 });
            accumulate_owned(nodes, *x, dx);
        }
        Op::Softmax { x, d } => {
            accumulate_raw(nodes, *x, |nodes, dx| {
                softmax::softmax_backward(nodes[i].value.data(), dout.data(), dx, *d);
            });
        }
        Op::LayerNorm { x, gamma, beta, d, eps: _, saved } => {
            let (xv, gv) = (&nodes[*x].value, &nodes[*gamma].value);
            let mut dx = crate::pool::take(xv.len());
            let mut dg = crate::pool::take(*d);
            let mut db = crate::pool::take(*d);
            norm::layernorm_backward(
                xv.data(),
                gv.data(),
                dout.data(),
                saved,
                &mut dx,
                &mut dg,
                &mut db,
                *d,
            );
            let dx = Tensor::new(xv.shape().to_vec(), dx);
            accumulate_owned(nodes, *x, dx);
            accumulate_owned(nodes, *gamma, Tensor::new(vec![*d], dg));
            accumulate_owned(nodes, *beta, Tensor::new(vec![*d], db));
        }
        Op::Conv1d { x, w, bias, b, c_in, c_out, l, k, dilation } => {
            let bias = bias.filter(|&id| nodes[id].requires);
            let (xv, wv) = (&nodes[*x].value, &nodes[*w].value);
            let mut dx = nodes[*x].requires.then(|| crate::pool::take(xv.len()));
            let mut dw = nodes[*w].requires.then(|| crate::pool::take(wv.len()));
            let mut dbias = bias.map(|_| crate::pool::take(*c_out));
            conv::conv1d_backward(
                xv.data(),
                wv.data(),
                dout.data(),
                dx.as_deref_mut(),
                dw.as_deref_mut(),
                dbias.as_deref_mut(),
                *b,
                *c_in,
                *c_out,
                *l,
                *k,
                *dilation,
            );
            let dx = dx.map(|d| Tensor::new(xv.shape().to_vec(), d));
            let dw = dw.map(|d| Tensor::new(wv.shape().to_vec(), d));
            if let Some(dx) = dx {
                accumulate_owned(nodes, *x, dx);
            }
            if let Some(dw) = dw {
                accumulate_owned(nodes, *w, dw);
            }
            if let (Some(bid), Some(db)) = (bias, dbias) {
                accumulate_owned(nodes, bid, Tensor::new(vec![*c_out], db));
            }
        }
        Op::Reshape(x) => {
            let dx = dout.reshaped(nodes[*x].value.shape());
            accumulate_owned(nodes, *x, dx);
        }
        Op::Permute { x, axes } => {
            // Gradient permutes back with the inverse permutation.
            let mut inv = vec![0usize; axes.len()];
            for (new_pos, &old_axis) in axes.iter().enumerate() {
                inv[old_axis] = new_pos;
            }
            accumulate_owned(nodes, *x, dout.permuted(&inv));
        }
        Op::Concat { xs, axis } => {
            let out_shape = nodes[i].value.shape();
            let outer: usize = out_shape[..*axis].iter().product();
            let total_axis = out_shape[*axis];
            let inner: usize = out_shape[*axis + 1..].iter().product();
            let mut axis_off = 0usize;
            for &xid in xs {
                let d = nodes[xid].value.shape()[*axis];
                accumulate_raw(nodes, xid, |_, dx| {
                    shapeops::concat_backward_into(
                        dout.data(),
                        dx,
                        outer,
                        total_axis,
                        inner,
                        axis_off,
                        d,
                    );
                });
                axis_off += d;
            }
        }
        Op::SliceAxis { x, axis, start, len } => {
            let shape = nodes[*x].value.shape();
            let outer: usize = shape[..*axis].iter().product();
            let d = shape[*axis];
            let inner: usize = shape[*axis + 1..].iter().product();
            accumulate_raw(nodes, *x, |_, dx| {
                shapeops::slice_axis_backward_into(dout.data(), dx, outer, d, inner, *start, *len);
            });
        }
        Op::SumAll(x) => {
            let g = dout.item();
            accumulate_raw(nodes, *x, |_, dx| {
                for v in dx.iter_mut() {
                    *v += g;
                }
            });
        }
        Op::MeanAll(x) => {
            let n = nodes[*x].value.len() as f32;
            let g = dout.item() / n;
            accumulate_raw(nodes, *x, |_, dx| {
                for v in dx.iter_mut() {
                    *v += g;
                }
            });
        }
        Op::SumAxis { x, axis } | Op::MeanAxis { x, axis } => {
            let shape = nodes[*x].value.shape();
            let outer: usize = shape[..*axis].iter().product();
            let d = shape[*axis];
            let inner: usize = shape[*axis + 1..].iter().product();
            let scale = if matches!(op, Op::MeanAxis { .. }) { 1.0 / d as f32 } else { 1.0 };
            accumulate_raw(nodes, *x, |_, dx| {
                reduce::broadcast_axis_backward(dout.data(), dx, outer, d, inner, scale);
            });
        }
        Op::Dropout { x, mask } => accumulate_owned(nodes, *x, dout.zip(mask, |g, mv| g * mv)),
        Op::GatherRows { x, idx } => {
            let cols = nodes[*x].value.shape()[1];
            accumulate_raw(nodes, *x, |_, dx| {
                for (row, &src_row) in idx.iter().enumerate() {
                    let g = &dout.data()[row * cols..(row + 1) * cols];
                    let d = &mut dx[src_row * cols..(src_row + 1) * cols];
                    for (a, &b) in d.iter_mut().zip(g) {
                        *a += b;
                    }
                }
            });
        }
        Op::BceWithLogits { logits, targets } => {
            // loss = mean over elements; dlogit = (sigmoid(z) - t) / n
            let zv = &nodes[*logits].value;
            let n = zv.len() as f32;
            let g = dout.item() / n;
            let mut dz_data = crate::pool::take_empty(zv.len());
            dz_data.extend(
                zv.data().iter().zip(targets.data()).map(|(&z, &t)| g * (ew::sigmoid(z) - t)),
            );
            let dz = Tensor::new(zv.shape().to_vec(), dz_data);
            accumulate_owned(nodes, *logits, dz);
        }
    }
}

impl Var {
    /// A copy of the node's current value. The ops in this module borrow
    /// values from the tape instead of calling this.
    pub fn value(&self) -> Tensor {
        self.val().clone()
    }

    /// Borrows the node's value from the tape. The borrow must end before
    /// the op pushes its output node, which needs the tape mutably.
    fn val(&self) -> Ref<'_, Tensor> {
        Ref::map(self.graph.tape.borrow(), |t| &t.nodes[self.id].value)
    }

    /// Shape of the node's value.
    pub fn shape(&self) -> Vec<usize> {
        self.graph.tape.borrow().nodes[self.id].value.shape().to_vec()
    }

    /// The graph this var belongs to.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    fn same_graph(&self, other: &Var) {
        assert!(Rc::ptr_eq(&self.graph.tape, &other.graph.tape), "vars belong to different graphs");
    }

    fn requires(&self) -> bool {
        self.graph.tape.borrow().nodes[self.id].requires
    }

    fn unary(&self, value: Tensor, op: Op) -> Var {
        self.graph.push(value, op, self.requires(), None)
    }

    fn binary(&self, other: &Var, value: Tensor, op: Op) -> Var {
        self.same_graph(other);
        let req = self.requires() || other.requires();
        self.graph.push(value, op, req, None)
    }

    /// Elementwise addition (same shape).
    pub fn add(&self, other: &Var) -> Var {
        let v = self.val().zip(&other.val(), |a, b| a + b);
        self.binary(other, v, Op::Add(self.id, other.id))
    }

    /// Elementwise subtraction (same shape).
    pub fn sub(&self, other: &Var) -> Var {
        let v = self.val().zip(&other.val(), |a, b| a - b);
        self.binary(other, v, Op::Sub(self.id, other.id))
    }

    /// Elementwise (Hadamard) product (same shape).
    pub fn mul(&self, other: &Var) -> Var {
        let v = self.val().zip(&other.val(), |a, b| a * b);
        self.binary(other, v, Op::Mul(self.id, other.id))
    }

    /// Elementwise division (same shape).
    pub fn div(&self, other: &Var) -> Var {
        let v = self.val().zip(&other.val(), |a, b| a / b);
        self.binary(other, v, Op::Div(self.id, other.id))
    }

    /// Adds a rank-1 bias broadcast over the trailing dimension.
    pub fn add_bias(&self, bias: &Var) -> Var {
        self.same_graph(bias);
        let out = {
            let (xv, bv) = (self.val(), bias.val());
            let d = bv.len();
            assert_eq!(
                *xv.shape().last().expect("add_bias on empty tensor"),
                d,
                "bias length must equal trailing dim"
            );
            let mut out = xv.clone();
            for chunk in out.data_mut().chunks_exact_mut(d) {
                for (c, &b) in chunk.iter_mut().zip(bv.data()) {
                    *c += b;
                }
            }
            out
        };
        let req = self.requires() || bias.requires();
        self.graph.push(out, Op::AddBias(self.id, bias.id), req, None)
    }

    /// Adds a scalar constant.
    pub fn add_scalar(&self, s: f32) -> Var {
        let v = self.val().map(|x| x + s);
        self.unary(v, Op::AddScalar(self.id, s))
    }

    /// Multiplies by a scalar constant.
    pub fn mul_scalar(&self, s: f32) -> Var {
        let v = self.val().map(|x| x * s);
        self.unary(v, Op::MulScalar(self.id, s))
    }

    /// Negation.
    pub fn neg(&self) -> Var {
        let v = self.val().map(|x| -x);
        self.unary(v, Op::Neg(self.id))
    }

    /// Matrix multiplication with batch broadcasting (see
    /// [`crate::ops::matmul::resolve_batch`] for accepted shape combinations).
    pub fn matmul(&self, other: &Var) -> Var {
        self.same_graph(other);
        let (av, bv) = (self.val(), other.val());
        let (kind, batch, m, k, n) = resolve_batch(av.shape(), bv.shape());
        let out_shape: Vec<usize> = match kind {
            BatchKind::Matched | BatchKind::BroadcastRhs => {
                let mut s = av.shape()[..av.rank() - 2].to_vec();
                s.push(m);
                s.push(n);
                s
            }
            BatchKind::BroadcastLhs => {
                let mut s = bv.shape()[..bv.rank() - 2].to_vec();
                s.push(m);
                s.push(n);
                s
            }
        };
        let mut out = Tensor::zeros(out_shape);
        bmm_forward(av.data(), bv.data(), out.data_mut(), kind, batch, m, k, n);
        drop((av, bv));
        self.binary(other, out, Op::Matmul { a: self.id, b: other.id, kind, batch, m, k, n })
    }

    /// ReLU activation.
    pub fn relu(&self) -> Var {
        let v = self.val().map(ew::relu);
        self.unary(v, Op::Relu(self.id))
    }

    /// Leaky ReLU activation.
    pub fn leaky_relu(&self, alpha: f32) -> Var {
        let v = self.val().map(|x| ew::leaky_relu(x, alpha));
        self.unary(v, Op::LeakyRelu(self.id, alpha))
    }

    /// Sigmoid activation.
    pub fn sigmoid(&self) -> Var {
        let v = self.val().map(ew::sigmoid);
        self.unary(v, Op::Sigmoid(self.id))
    }

    /// Tanh activation.
    pub fn tanh(&self) -> Var {
        let v = self.val().map(ew::tanh);
        self.unary(v, Op::Tanh(self.id))
    }

    /// GELU activation (tanh approximation).
    pub fn gelu(&self) -> Var {
        let v = self.val().map(ew::gelu);
        self.unary(v, Op::Gelu(self.id))
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Var {
        let v = self.val().map(f32::abs);
        self.unary(v, Op::Abs(self.id))
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Var {
        let v = self.val().map(f32::sqrt);
        self.unary(v, Op::Sqrt(self.id))
    }

    /// Elementwise natural logarithm (inputs clamped to ≥ 1e-12).
    pub fn ln(&self) -> Var {
        let v = self.val().map(|x| x.max(1e-12).ln());
        self.unary(v, Op::Ln(self.id))
    }

    /// Softmax over the trailing dimension.
    pub fn softmax(&self) -> Var {
        let xv = self.val();
        let d = *xv.shape().last().expect("softmax on empty tensor");
        let mut out = Tensor::zeros(xv.shape().to_vec());
        softmax::softmax_forward(xv.data(), out.data_mut(), d);
        drop(xv);
        self.unary(out, Op::Softmax { x: self.id, d })
    }

    /// Layer normalization over the trailing dimension with affine params.
    pub fn layer_norm(&self, gamma: &Var, beta: &Var, eps: f32) -> Var {
        self.same_graph(gamma);
        self.same_graph(beta);
        let (xv, gv, bv) = (self.val(), gamma.val(), beta.val());
        let d = *xv.shape().last().expect("layer_norm on empty tensor");
        let mut out = Tensor::zeros(xv.shape().to_vec());
        let saved =
            norm::layernorm_forward(xv.data(), gv.data(), bv.data(), out.data_mut(), d, eps);
        drop((xv, gv, bv));
        let req = self.requires() || gamma.requires() || beta.requires();
        self.graph.push(
            out,
            Op::LayerNorm { x: self.id, gamma: gamma.id, beta: beta.id, d, eps, saved },
            req,
            None,
        )
    }

    /// Causal dilated 1-D convolution. `self` is `[B, C_in, L]`, `weight` is
    /// `[C_out, C_in, K]`; output is `[B, C_out, L]`.
    pub fn conv1d(&self, weight: &Var, bias: Option<&Var>, dilation: usize) -> Var {
        self.same_graph(weight);
        if let Some(b) = bias {
            self.same_graph(b);
        }
        let (xv, wv) = (self.val(), weight.val());
        assert_eq!(xv.rank(), 3, "conv1d input must be [B, C_in, L], got {:?}", xv.shape());
        assert_eq!(wv.rank(), 3, "conv1d weight must be [C_out, C_in, K], got {:?}", wv.shape());
        let (b, c_in, l) = (xv.shape()[0], xv.shape()[1], xv.shape()[2]);
        let (c_out, c_in2, k) = (wv.shape()[0], wv.shape()[1], wv.shape()[2]);
        assert_eq!(c_in, c_in2, "conv1d channel mismatch");
        let bias_val = bias.map(Var::val);
        let mut out = Tensor::zeros([b, c_out, l]);
        conv::conv1d_forward(
            xv.data(),
            wv.data(),
            bias_val.as_ref().map(|t| t.data()),
            out.data_mut(),
            b,
            c_in,
            c_out,
            l,
            k,
            dilation,
        );
        drop((xv, wv, bias_val));
        let req = self.requires() || weight.requires() || bias.is_some_and(Var::requires);
        self.graph.push(
            out,
            Op::Conv1d {
                x: self.id,
                w: weight.id,
                bias: bias.map(|v| v.id),
                b,
                c_in,
                c_out,
                l,
                k,
                dilation,
            },
            req,
            None,
        )
    }

    /// Reshape (same element count).
    pub fn reshape(&self, shape: impl Into<Vec<usize>>) -> Var {
        let v = self.val().reshaped(shape);
        self.unary(v, Op::Reshape(self.id))
    }

    /// Axis permutation (materializing).
    pub fn permute(&self, axes: &[usize]) -> Var {
        let v = self.val().permuted(axes);
        self.unary(v, Op::Permute { x: self.id, axes: axes.to_vec() })
    }

    /// Transpose of the last two axes.
    pub fn transpose(&self) -> Var {
        let r = self.shape().len();
        let mut axes: Vec<usize> = (0..r).collect();
        axes.swap(r - 1, r - 2);
        self.permute(&axes)
    }

    /// Concatenation along `axis`.
    pub fn concat(vars: &[&Var], axis: usize) -> Var {
        assert!(!vars.is_empty());
        let g = vars[0].graph.clone();
        for v in vars {
            vars[0].same_graph(v);
        }
        let out = {
            let values: Vec<Ref<'_, Tensor>> = vars.iter().map(|v| v.val()).collect();
            let refs: Vec<&Tensor> = values.iter().map(|v| &**v).collect();
            shapeops::concat(&refs, axis)
        };
        let req = vars.iter().any(|v| v.requires());
        g.push(out, Op::Concat { xs: vars.iter().map(|v| v.id).collect(), axis }, req, None)
    }

    /// Slice of `len` entries starting at `start` along `axis`.
    pub fn slice_axis(&self, axis: usize, start: usize, len: usize) -> Var {
        let v = shapeops::slice_axis(&self.val(), axis, start, len);
        self.unary(v, Op::SliceAxis { x: self.id, axis, start, len })
    }

    /// Sum of all elements (scalar `[1]`).
    pub fn sum_all(&self) -> Var {
        let v = Tensor::scalar(self.val().sum());
        self.unary(v, Op::SumAll(self.id))
    }

    /// Mean of all elements (scalar `[1]`).
    pub fn mean_all(&self) -> Var {
        let v = Tensor::scalar(self.val().mean());
        self.unary(v, Op::MeanAll(self.id))
    }

    /// Sum over one axis (axis removed).
    pub fn sum_axis(&self, axis: usize) -> Var {
        let v = reduce::sum_axis(&self.val(), axis);
        self.unary(v, Op::SumAxis { x: self.id, axis })
    }

    /// Mean over one axis (axis removed).
    pub fn mean_axis(&self, axis: usize) -> Var {
        let v = reduce::mean_axis(&self.val(), axis);
        self.unary(v, Op::MeanAxis { x: self.id, axis })
    }

    /// Inverted dropout with keep-probability `1 - p`; `mask` entries are
    /// `1/(1-p)` or `0`. A no-op when `p == 0`.
    pub fn dropout(&self, p: f32, rng: &mut impl rand::Rng) -> Var {
        if p <= 0.0 {
            return self.clone();
        }
        assert!(p < 1.0, "dropout p must be < 1");
        let keep = 1.0 - p;
        let scale = 1.0 / keep;
        let xv = self.val();
        let mut mask_data = crate::pool::take_empty(xv.len());
        mask_data.extend((0..xv.len()).map(|_| if rng.gen::<f32>() < keep { scale } else { 0.0 }));
        let mask = Tensor::new(xv.shape().to_vec(), mask_data);
        let out = xv.zip(&mask, |x, m| x * m);
        drop(xv);
        self.unary(out, Op::Dropout { x: self.id, mask: Rc::new(mask) })
    }

    /// Row gather from a `[rows, cols]` matrix: output row `i` is
    /// `self[idx[i], :]` — the embedding-lookup primitive.
    pub fn gather_rows(&self, idx: &[usize]) -> Var {
        let xv = self.val();
        assert_eq!(xv.rank(), 2, "gather_rows expects a matrix");
        let cols = xv.shape()[1];
        let mut out = Tensor::zeros([idx.len(), cols]);
        for (row, &src) in idx.iter().enumerate() {
            assert!(src < xv.shape()[0], "gather_rows index {src} out of range");
            out.data_mut()[row * cols..(row + 1) * cols]
                .copy_from_slice(&xv.data()[src * cols..(src + 1) * cols]);
        }
        drop(xv);
        self.unary(out, Op::GatherRows { x: self.id, idx: Rc::new(idx.to_vec()) })
    }

    /// Numerically-stable binary cross-entropy with logits, averaged over all
    /// elements. `targets` is a constant tensor of the same shape.
    pub fn bce_with_logits(&self, targets: &Tensor) -> Var {
        let zv = self.val();
        assert_eq!(zv.shape(), targets.shape(), "bce shapes");
        let mut acc = 0.0f32;
        for (&z, &t) in zv.data().iter().zip(targets.data()) {
            // max(z,0) - z*t + ln(1 + e^{-|z|})
            acc += z.max(0.0) - z * t + (-z.abs()).exp().ln_1p();
        }
        let v = Tensor::scalar(acc / zv.len() as f32);
        drop(zv);
        self.unary(v, Op::BceWithLogits { logits: self.id, targets: targets.clone() })
    }

    /// Mean absolute error against a constant target of the same shape.
    pub fn mae_loss(&self, target: &Var) -> Var {
        self.sub(target).abs().mean_all()
    }

    /// Mean squared error against a target of the same shape.
    pub fn mse_loss(&self, target: &Var) -> Var {
        let d = self.sub(target);
        d.mul(&d).mean_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_backward() {
        let g = Graph::new();
        let a = g.param("a", Tensor::from_slice(&[1.0, 2.0]));
        let b = g.param("b", Tensor::from_slice(&[3.0, 4.0]));
        let loss = a.add(&b).sum_all();
        g.backward(&loss);
        let grads = g.param_grads();
        assert_eq!(grads.len(), 2);
        for (_, t) in grads {
            assert_eq!(t.data(), &[1.0, 1.0]);
        }
    }

    #[test]
    fn mul_chain_rule() {
        let g = Graph::new();
        let a = g.param("a", Tensor::scalar(3.0));
        let b = g.param("b", Tensor::scalar(4.0));
        let loss = a.mul(&b).mul(&a).sum_all(); // a^2 b -> d/da = 2ab = 24, d/db = a^2 = 9
        g.backward(&loss);
        let grads: std::collections::HashMap<_, _> = g.param_grads().into_iter().collect();
        assert!((grads["a"].item() - 24.0).abs() < 1e-5);
        assert!((grads["b"].item() - 9.0).abs() < 1e-5);
    }

    #[test]
    fn matmul_grad_shapes() {
        let g = Graph::new();
        let a = g.param("a", Tensor::ones([2, 3]));
        let b = g.param("b", Tensor::ones([3, 4]));
        let loss = a.matmul(&b).sum_all();
        g.backward(&loss);
        let grads: std::collections::HashMap<_, _> = g.param_grads().into_iter().collect();
        assert_eq!(grads["a"].shape(), &[2, 3]);
        assert_eq!(grads["b"].shape(), &[3, 4]);
        // dA = dOut·Bᵀ = ones(2,4)·ones(4,3) = 4s
        assert!(grads["a"].data().iter().all(|&v| (v - 4.0).abs() < 1e-6));
        assert!(grads["b"].data().iter().all(|&v| (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn broadcast_lhs_matmul_accumulates() {
        let g = Graph::new();
        let a = g.param("a", Tensor::eye(2)); // shared 2x2
        let x = g.constant(Tensor::new([3, 2, 2], vec![1.0; 12]));
        let y = a.matmul(&x);
        assert_eq!(y.shape(), vec![3, 2, 2]);
        let loss = y.sum_all();
        g.backward(&loss);
        let grads: std::collections::HashMap<_, _> = g.param_grads().into_iter().collect();
        // each batch contributes ones(2,2)·ones(2,2)ᵀ = 2s; 3 batches -> 6
        assert!(grads["a"].data().iter().all(|&v| (v - 6.0).abs() < 1e-5));
    }

    #[test]
    fn constant_gets_no_grad() {
        let g = Graph::new();
        let c = g.constant(Tensor::scalar(5.0));
        let p = g.param("p", Tensor::scalar(2.0));
        let loss = c.mul(&p).sum_all();
        g.backward(&loss);
        assert!(g.grad_of(&c).is_none());
        assert!((g.grad_of(&p).unwrap().item() - 5.0).abs() < 1e-6);

        // Matmul (one case per batch kind) and conv1d skip the constant
        // side's gradient; the other side's gradient must be bit-identical
        // to a run where both sides are parameters.
        let vals = |n: usize| (0..n).map(|i| ((i * 7 % 11) as f32 - 5.0) * 0.3).collect::<Vec<_>>();
        let cases: [(&[usize], &[usize], usize); 4] = [
            (&[3, 4], &[2, 4, 5], 0),    // BroadcastLhs, like dgcn's transitions
            (&[2, 3, 4], &[4, 5], 0),    // BroadcastRhs
            (&[2, 3, 4], &[2, 4, 5], 0), // Matched
            (&[2, 3, 6], &[4, 3, 2], 2), // conv1d: x [B, C_in, L], w [C_out, C_in, K]
        ];
        for (ls, rs, dilation) in cases {
            let lhs = Tensor::new(ls.to_vec(), vals(ls.iter().product()));
            let rhs =
                Tensor::new(rs.to_vec(), vals(rs.iter().product::<usize>() + 3)[3..].to_vec());
            let run = |const_side: Option<usize>| {
                let g = Graph::new();
                let side = |i: usize, t: &Tensor| {
                    if const_side == Some(i) {
                        g.constant(t.clone())
                    } else {
                        g.param(format!("p{i}"), t.clone())
                    }
                };
                let (l, r) = (side(0, &lhs), side(1, &rhs));
                let y = if dilation > 0 { l.conv1d(&r, None, dilation) } else { l.matmul(&r) };
                g.backward(&y.mul(&y).sum_all());
                [g.grad_of(&l), g.grad_of(&r)]
            };
            let bits = |t: &Option<Tensor>| {
                t.as_ref()
                    .expect("param grad")
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            };
            let both = run(None);
            for side in 0..2 {
                let grads = run(Some(side));
                assert!(grads[side].is_none(), "{ls:?} x {rs:?}: constant side {side} got a grad");
                let other = 1 - side;
                assert_eq!(bits(&grads[other]), bits(&both[other]), "{ls:?} x {rs:?}");
            }
        }
    }

    #[test]
    fn grad_of_intermediate_survives_backward() {
        let g = Graph::new();
        let x = g.param("x", Tensor::from_slice(&[1.0, -2.0, 3.0]));
        let h = x.mul_scalar(2.0); // intermediate node
        let loss = h.mul(&h).sum_all(); // d loss / dh = 2h
        g.backward(&loss);
        assert_eq!(g.grad_of(&h).unwrap().data(), &[4.0, -8.0, 12.0]);
        assert_eq!(g.grad_of(&loss).unwrap().data(), &[1.0]);
        assert_eq!(g.grad_of(&x).unwrap().data(), &[8.0, -16.0, 24.0]);
    }

    #[test]
    fn sigmoid_tanh_backward_use_output() {
        let g = Graph::new();
        let x = g.param("x", Tensor::scalar(0.5));
        let loss = x.sigmoid().sum_all();
        g.backward(&loss);
        let grads: std::collections::HashMap<_, _> = g.param_grads().into_iter().collect();
        let y = ew::sigmoid(0.5);
        assert!((grads["x"].item() - y * (1.0 - y)).abs() < 1e-5);
    }

    #[test]
    fn bce_with_logits_matches_manual() {
        let g = Graph::new();
        let z = g.param("z", Tensor::from_slice(&[0.7, -1.2]));
        let t = Tensor::from_slice(&[1.0, 0.0]);
        let loss = z.bce_with_logits(&t);
        let manual = {
            let l1 = -(ew::sigmoid(0.7)).ln();
            let l2 = -(1.0 - ew::sigmoid(-1.2)).ln();
            (l1 + l2) / 2.0
        };
        assert!((loss.value().item() - manual).abs() < 1e-5);
        g.backward(&loss);
        let grads: std::collections::HashMap<_, _> = g.param_grads().into_iter().collect();
        let gz = grads["z"].data().to_vec();
        assert!((gz[0] - (ew::sigmoid(0.7) - 1.0) / 2.0).abs() < 1e-5);
        assert!((gz[1] - (ew::sigmoid(-1.2) - 0.0) / 2.0).abs() < 1e-5);
    }

    #[test]
    fn dropout_zero_p_is_identity() {
        use rand::SeedableRng;
        let g = Graph::new();
        let x = g.param("x", Tensor::from_slice(&[1.0, 2.0, 3.0]));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        let y = x.dropout(0.0, &mut rng);
        assert_eq!(y.value().data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn dropout_scales_kept_values() {
        use rand::SeedableRng;
        let g = Graph::new();
        let x = g.param("x", Tensor::ones([1000]));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let y = x.dropout(0.5, &mut rng);
        let vals = y.value();
        // Each kept value should be 2.0; roughly half kept.
        let kept = vals.data().iter().filter(|&&v| v != 0.0).count();
        assert!(vals.data().iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
        assert!((400..600).contains(&kept), "kept {kept}");
        // Mean preserved in expectation.
        assert!((vals.mean() - 1.0).abs() < 0.15);
    }

    #[test]
    fn gather_rows_scatters_gradient() {
        let g = Graph::new();
        let table = g.param("emb", Tensor::new([3, 2], vec![1., 2., 3., 4., 5., 6.]));
        let picked = table.gather_rows(&[2, 0, 2]);
        assert_eq!(picked.value().data(), &[5., 6., 1., 2., 5., 6.]);
        let loss = picked.sum_all();
        g.backward(&loss);
        let grads: std::collections::HashMap<_, _> = g.param_grads().into_iter().collect();
        assert_eq!(grads["emb"].data(), &[1., 1., 0., 0., 2., 2.]);
    }

    #[test]
    fn slice_concat_roundtrip_gradient() {
        let g = Graph::new();
        let x = g.param("x", Tensor::new([2, 4], (0..8).map(|v| v as f32).collect()));
        let a = x.slice_axis(1, 0, 2);
        let b = x.slice_axis(1, 2, 2);
        let y = Var::concat(&[&a, &b], 1);
        let loss = y.sum_all();
        g.backward(&loss);
        let grads: std::collections::HashMap<_, _> = g.param_grads().into_iter().collect();
        assert!(grads["x"].data().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn permute_backward_inverse() {
        let g = Graph::new();
        let x = g.param("x", Tensor::new([2, 3], (0..6).map(|v| v as f32).collect()));
        let y = x.permute(&[1, 0]);
        // weight the loss to make orientation visible
        let w = g.constant(Tensor::new([3, 2], vec![1., 10., 2., 20., 3., 30.]));
        let loss = y.mul(&w).sum_all();
        g.backward(&loss);
        let grads: std::collections::HashMap<_, _> = g.param_grads().into_iter().collect();
        // grad in x layout = w transposed back
        assert_eq!(grads["x"].data(), &[1., 2., 3., 10., 20., 30.]);
    }

    #[test]
    fn ln_forward_and_backward() {
        let g = Graph::new();
        let x = g.param("x", Tensor::from_slice(&[1.0, std::f32::consts::E, 4.0]));
        let loss = x.ln().sum_all();
        assert!((loss.value().item() - (0.0 + 1.0 + 4.0f32.ln())).abs() < 1e-5);
        g.backward(&loss);
        let grads: std::collections::HashMap<_, _> = g.param_grads().into_iter().collect();
        let gx = grads["x"].data().to_vec();
        assert!((gx[0] - 1.0).abs() < 1e-5);
        assert!((gx[1] - 1.0 / std::f32::consts::E).abs() < 1e-5);
        assert!((gx[2] - 0.25).abs() < 1e-5);
    }

    #[test]
    fn ln_clamps_nonpositive_inputs() {
        let g = Graph::new();
        let x = g.input(Tensor::from_slice(&[0.0, -1.0]));
        let y = x.ln();
        assert!(y.value().all_finite(), "clamped ln must stay finite");
    }

    #[test]
    fn sqrt_backward() {
        let g = Graph::new();
        let x = g.param("x", Tensor::from_slice(&[4.0, 9.0]));
        let loss = x.sqrt().sum_all();
        g.backward(&loss);
        let grads: std::collections::HashMap<_, _> = g.param_grads().into_iter().collect();
        let gx = grads["x"].data().to_vec();
        assert!((gx[0] - 0.25).abs() < 1e-6);
        assert!((gx[1] - 1.0 / 6.0).abs() < 1e-6);
    }

    #[test]
    fn mae_and_mse_losses() {
        let g = Graph::new();
        let p = g.param("p", Tensor::from_slice(&[1.0, 4.0]));
        let t = g.constant(Tensor::from_slice(&[2.0, 2.0]));
        assert!((p.mae_loss(&t).value().item() - 1.5).abs() < 1e-6);
        assert!((p.mse_loss(&t).value().item() - 2.5).abs() < 1e-6);
    }
}
