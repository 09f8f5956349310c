//! The five candidate S/T-operators (Section 3.1.1) as tensor transforms.
//!
//! All operators map `[B, H, N, L] → [B, H, N, L]`, preserving the hidden
//! dimension so that arbitrary DAG wirings compose.

use crate::layers::{layer_norm, linear, linear_no_bias, self_attention};
use octs_space::OpKind;
use octs_tensor::{Graph, Init, ParamStore, Tensor, Var};

/// Shared context threaded through operator applications.
pub struct OpCtx<'a> {
    /// The autograd graph of the current forward pass.
    pub g: &'a Graph,
    /// The model's parameter store.
    pub ps: &'a mut ParamStore,
    /// Hidden dimension `H`.
    pub h: usize,
    /// Forward diffusion transition `D⁻¹A` as `[N, N]`.
    pub adj_fwd: &'a Tensor,
    /// Backward diffusion transition `D⁻¹Aᵀ` as `[N, N]`.
    pub adj_bwd: &'a Tensor,
}

/// Dispatches a candidate operator by kind. `name` scopes its parameters, so
/// the same operator kind at different DAG positions trains separate weights
/// (as in Fig. 3, where `o₁` appears twice with different parameters).
pub fn apply_op(op: OpKind, name: &str, x: &Var, ctx: &mut OpCtx<'_>) -> Var {
    match op {
        OpKind::Gdcc => gdcc(name, x, ctx),
        OpKind::InfT => inf_t(name, x, ctx),
        OpKind::Dgcn => dgcn(name, x, ctx),
        OpKind::InfS => inf_s(name, x, ctx),
        OpKind::Identity => x.clone(),
    }
}

fn dims(x: &Var) -> (usize, usize, usize, usize) {
    let s = x.shape();
    assert_eq!(s.len(), 4, "operator input must be [B, H, N, L], got {s:?}");
    (s[0], s[1], s[2], s[3])
}

/// Gated Dilated Causal Convolution (Graph WaveNet's temporal unit):
/// `tanh(conv(x)) ⊙ sigmoid(conv(x))` along the time axis, per node.
pub fn gdcc(name: &str, x: &Var, ctx: &mut OpCtx<'_>) -> Var {
    let (b, h, n, l) = dims(x);
    assert_eq!(h, ctx.h);
    // [B,H,N,L] -> [B,N,H,L] -> [B*N, H, L]
    let xr = x.permute(&[0, 2, 1, 3]).reshape([b * n, h, l]);
    let w_filter = ctx.ps.var(ctx.g, &format!("{name}/wf"), &[h, h, 2], Init::Xavier);
    let w_gate = ctx.ps.var(ctx.g, &format!("{name}/wg"), &[h, h, 2], Init::Xavier);
    let bf = ctx.ps.var(ctx.g, &format!("{name}/bf"), &[h], Init::Zeros);
    let bg = ctx.ps.var(ctx.g, &format!("{name}/bg"), &[h], Init::Zeros);
    // Two stacked dilations (1 then 2) widen the causal receptive field.
    let filt = xr.conv1d(&w_filter, Some(&bf), 1).tanh();
    let gate = xr.conv1d(&w_gate, Some(&bg), 2).sigmoid();
    let out = filt.mul(&gate);
    out.reshape([b, n, h, l]).permute(&[0, 2, 1, 3])
}

/// Diffusion Graph Convolution (DCRNN-style, K = 2 hops, both directions):
/// `Σ_k P_f^k X W_{f,k} + P_b^k X W_{b,k}`.
pub fn dgcn(name: &str, x: &Var, ctx: &mut OpCtx<'_>) -> Var {
    let (b, h, n, l) = dims(x);
    // [B,H,N,L] -> [B,L,N,H] -> [B*L, N, H]
    let xr = x.permute(&[0, 3, 2, 1]).reshape([b * l, n, h]);
    let pf = ctx.g.constant(ctx.adj_fwd.clone());
    let pb = ctx.g.constant(ctx.adj_bwd.clone());

    // hop 0 (self) term
    let mut acc = linear_no_bias(ctx.ps, ctx.g, &format!("{name}/w0"), &xr, h, h);
    // forward hops
    let x1f = pf.matmul(&xr);
    acc = acc.add(&linear_no_bias(ctx.ps, ctx.g, &format!("{name}/wf1"), &x1f, h, h));
    let x2f = pf.matmul(&x1f);
    acc = acc.add(&linear_no_bias(ctx.ps, ctx.g, &format!("{name}/wf2"), &x2f, h, h));
    // backward hops
    let x1b = pb.matmul(&xr);
    acc = acc.add(&linear_no_bias(ctx.ps, ctx.g, &format!("{name}/wb1"), &x1b, h, h));
    let x2b = pb.matmul(&x1b);
    acc = acc.add(&linear_no_bias(ctx.ps, ctx.g, &format!("{name}/wb2"), &x2b, h, h));

    let bias = ctx.ps.var(ctx.g, &format!("{name}/b"), &[h], Init::Zeros);
    let out = acc.add_bias(&bias).relu();
    out.reshape([b, l, n, h]).permute(&[0, 3, 2, 1])
}

/// Informer-style temporal attention: self-attention along the time axis,
/// independently per node.
pub fn inf_t(name: &str, x: &Var, ctx: &mut OpCtx<'_>) -> Var {
    let (b, h, n, l) = dims(x);
    // [B,H,N,L] -> [B,N,L,H] -> [B*N, L, H]
    let xr = x.permute(&[0, 2, 3, 1]).reshape([b * n, l, h]);
    let att = self_attention(ctx.ps, ctx.g, name, &xr, h);
    att.reshape([b, n, l, h]).permute(&[0, 3, 1, 2])
}

/// Informer-style spatial attention: self-attention across nodes at each
/// time step, capturing dynamic spatial correlations.
pub fn inf_s(name: &str, x: &Var, ctx: &mut OpCtx<'_>) -> Var {
    let (b, h, n, l) = dims(x);
    // [B,H,N,L] -> [B,L,N,H] -> [B*L, N, H]
    let xr = x.permute(&[0, 3, 2, 1]).reshape([b * l, n, h]);
    let att = self_attention(ctx.ps, ctx.g, name, &xr, h);
    att.reshape([b, l, n, h]).permute(&[0, 3, 2, 1])
}

/// Adaptive adjacency from learned node embeddings (Graph WaveNet's
/// self-adaptive matrix): `softmax(relu(E₁ E₂ᵀ))`. Used by models on
/// datasets without a trustworthy predefined graph, and by the MTGNN-lite
/// baseline.
pub fn adaptive_adjacency(
    ps: &mut ParamStore,
    g: &Graph,
    name: &str,
    n: usize,
    emb_dim: usize,
) -> Var {
    let e1 = ps.var(g, &format!("{name}/e1"), &[n, emb_dim], Init::Normal(0.3));
    let e2 = ps.var(g, &format!("{name}/e2"), &[emb_dim, n], Init::Normal(0.3));
    e1.matmul(&e2).relu().softmax()
}

/// A residual+norm wrapper some baselines use around operators.
pub fn residual_norm(
    ps: &mut ParamStore,
    g: &Graph,
    name: &str,
    x: &Var,
    y: &Var,
    dim: usize,
) -> Var {
    let sum = x.add(y);
    layer_norm(ps, g, name, &sum, dim)
}

/// Linear projection `[B, F, N, L] → [B, H, N, L]` used by input modules.
pub fn channel_projection(
    ps: &mut ParamStore,
    g: &Graph,
    name: &str,
    x: &Var,
    f: usize,
    h: usize,
) -> Var {
    let s = x.shape();
    let (b, n, l) = (s[0], s[2], s[3]);
    // [B,F,N,L] -> [B,N,L,F]
    let xr = x.permute(&[0, 2, 3, 1]);
    let y = linear(ps, g, name, &xr, f, h);
    y.reshape([b, n, l, h]).permute(&[0, 3, 1, 2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use octs_data::Adjacency;

    fn path_adj(n: usize) -> (Tensor, Tensor) {
        let mut adj = Adjacency::identity(n);
        for i in 0..n - 1 {
            *adj.weight_mut(i, i + 1) = 1.0;
            *adj.weight_mut(i + 1, i) = 1.0;
        }
        (adj.transition(), adj.transition_reverse())
    }

    fn ctx_fixture<'a>(
        g: &'a Graph,
        ps: &'a mut ParamStore,
        adj: &'a (Tensor, Tensor),
        h: usize,
    ) -> OpCtx<'a> {
        OpCtx { g, ps, h, adj_fwd: &adj.0, adj_bwd: &adj.1 }
    }

    fn input(g: &Graph, b: usize, h: usize, n: usize, l: usize) -> Var {
        let numel = b * h * n * l;
        g.constant(Tensor::new(
            [b, h, n, l],
            (0..numel).map(|i| (i % 17) as f32 * 0.05 - 0.4).collect(),
        ))
    }

    #[test]
    fn all_ops_preserve_shape() {
        for op in OpKind::ALL {
            let g = Graph::new();
            let mut ps = ParamStore::new(0);
            let adj = path_adj(4);
            let mut ctx = ctx_fixture(&g, &mut ps, &adj, 6);
            let x = input(&g, 2, 6, 4, 5);
            let y = apply_op(op, "op", &x, &mut ctx);
            assert_eq!(y.shape(), vec![2, 6, 4, 5], "{op}");
            assert!(y.value().all_finite(), "{op}");
        }
    }

    #[test]
    fn identity_is_exact() {
        let g = Graph::new();
        let mut ps = ParamStore::new(0);
        let adj = path_adj(3);
        let mut ctx = ctx_fixture(&g, &mut ps, &adj, 4);
        let x = input(&g, 1, 4, 3, 4);
        let y = apply_op(OpKind::Identity, "id", &x, &mut ctx);
        assert_eq!(y.value(), x.value());
        assert_eq!(ps.len(), 0, "identity must not allocate parameters");
    }

    #[test]
    fn gdcc_is_causal() {
        // Changing the last time step must not affect earlier outputs.
        let (adj_fwd, adj_bwd) = path_adj(2);
        let g = Graph::new();
        let mut ps = ParamStore::new(1);
        let x = input(&g, 1, 3, 2, 6);
        let x1v = x.value();
        let y1 = {
            let mut ctx = OpCtx { g: &g, ps: &mut ps, h: 3, adj_fwd: &adj_fwd, adj_bwd: &adj_bwd };
            gdcc("c", &x, &mut ctx).value()
        };

        let g2 = Graph::new();
        let mut x2v = x1v;
        // perturb t = 5 for all series/channels
        let l = 6;
        for i in 0..x2v.len() / l {
            x2v.data_mut()[i * l + 5] += 10.0;
        }
        let x2 = g2.constant(x2v);
        let mut ctx2 = OpCtx { g: &g2, ps: &mut ps, h: 3, adj_fwd: &adj_fwd, adj_bwd: &adj_bwd };
        let y2 = gdcc("c", &x2, &mut ctx2).value();
        for bi in 0..1 {
            for h in 0..3 {
                for n in 0..2 {
                    for t in 0..5 {
                        let a = y1.at(&[bi, h, n, t]);
                        let b = y2.at(&[bi, h, n, t]);
                        assert!((a - b).abs() < 1e-5, "causality violated at t={t}");
                    }
                }
            }
        }
    }

    #[test]
    fn dgcn_mixes_neighbors_only() {
        // With a path graph 0-1-2-3, node 0's output must not depend on node 3
        // beyond 2 hops... it can via 2 hops (0->1->2). Check that it DOES
        // depend on node 1 (one hop) and does NOT on node 3 (three hops).
        let (adj_fwd, adj_bwd) = path_adj(4);
        let g = Graph::new();
        let mut ps = ParamStore::new(2);
        let x = input(&g, 1, 2, 4, 2);
        let xv0 = x.value();
        let y1 = {
            let mut ctx = OpCtx { g: &g, ps: &mut ps, h: 2, adj_fwd: &adj_fwd, adj_bwd: &adj_bwd };
            dgcn("d", &x, &mut ctx).value()
        };

        let perturb = |node: usize, ps: &mut ParamStore| -> Tensor {
            let g2 = Graph::new();
            let mut xv = xv0.clone();
            // x layout [B,H,N,L]
            for h in 0..2 {
                for t in 0..2 {
                    *xv.at_mut(&[0, h, node, t]) += 5.0;
                }
            }
            let x2 = g2.constant(xv);
            let mut ctx2 = OpCtx { g: &g2, ps, h: 2, adj_fwd: &adj_fwd, adj_bwd: &adj_bwd };
            dgcn("d", &x2, &mut ctx2).value()
        };
        let y_n1 = perturb(1, &mut ps);
        let y_n3 = perturb(3, &mut ps);
        let d1 = (y_n1.at(&[0, 0, 0, 0]) - y1.at(&[0, 0, 0, 0])).abs();
        let d3 = (y_n3.at(&[0, 0, 0, 0]) - y1.at(&[0, 0, 0, 0])).abs();
        assert!(d1 > 1e-6, "neighbor perturbation should propagate");
        assert!(d3 < 1e-6, "3-hop node must be out of a 2-hop diffusion's reach");
    }

    #[test]
    fn inf_s_sees_all_nodes() {
        // Spatial attention is global: perturbing any node affects node 0.
        let (adj_fwd, adj_bwd) = path_adj(4);
        let g = Graph::new();
        let mut ps = ParamStore::new(3);
        let x = input(&g, 1, 2, 4, 2);
        let xv0 = x.value();
        let y1 = {
            let mut ctx = OpCtx { g: &g, ps: &mut ps, h: 2, adj_fwd: &adj_fwd, adj_bwd: &adj_bwd };
            inf_s("s", &x, &mut ctx).value()
        };

        let g2 = Graph::new();
        let mut xv = xv0;
        for h in 0..2 {
            for t in 0..2 {
                *xv.at_mut(&[0, h, 3, t]) += 5.0;
            }
        }
        let x2 = g2.constant(xv);
        let mut ctx2 = OpCtx { g: &g2, ps: &mut ps, h: 2, adj_fwd: &adj_fwd, adj_bwd: &adj_bwd };
        let y2 = inf_s("s", &x2, &mut ctx2).value();
        let d = (y2.at(&[0, 0, 0, 0]) - y1.at(&[0, 0, 0, 0])).abs();
        assert!(d > 1e-6, "attention should propagate distant-node changes");
    }

    #[test]
    fn adaptive_adjacency_rows_are_distributions() {
        let g = Graph::new();
        let mut ps = ParamStore::new(4);
        let a = adaptive_adjacency(&mut ps, &g, "adp", 5, 3).value();
        assert_eq!(a.shape(), &[5, 5]);
        for r in 0..5 {
            let s: f32 = (0..5).map(|c| a.at(&[r, c])).sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn channel_projection_shape() {
        let g = Graph::new();
        let mut ps = ParamStore::new(5);
        let x = g.constant(Tensor::ones([2, 3, 4, 5]));
        let y = channel_projection(&mut ps, &g, "in", &x, 3, 8);
        assert_eq!(y.shape(), vec![2, 8, 4, 5]);
    }

    #[test]
    fn operators_are_trainable() {
        // One Adam step on each op must reduce a simple regression loss.
        use octs_tensor::Adam;
        for op in [OpKind::Gdcc, OpKind::Dgcn, OpKind::InfT, OpKind::InfS] {
            let mut ps = ParamStore::new(6);
            let mut opt = Adam::new(0.01, 0.0);
            let mut first = None;
            let mut last = 0.0;
            for _ in 0..30 {
                let g = Graph::new();
                let adj = path_adj(3);
                let mut ctx = ctx_fixture(&g, &mut ps, &adj, 4);
                let x = input(&g, 1, 4, 3, 4);
                let y = apply_op(op, "op", &x, &mut ctx);
                let target = g.constant(Tensor::full([1, 4, 3, 4], 0.25));
                let loss = y.mse_loss(&target);
                last = loss.value().item();
                first.get_or_insert(last);
                g.backward(&loss);
                opt.step(&mut ps, &g.param_grads());
            }
            assert!(last < first.unwrap(), "{op}: {first:?} -> {last}");
        }
    }
}
