//! ST-block assembly from an architecture DAG (Section 2.2 / 3.1.1).

use crate::operators::{apply_op, OpCtx};
use octs_space::ArchDag;
use octs_tensor::Var;

/// Evaluates an ST-block: latent node `h_0` is the block input; every other
/// node sums the outputs of its incoming operator edges (Eq. 6 restricted to
/// the selected edges); the block output follows the output-mode `U`:
/// `U = 0` → the last node, `U = 1` → the sum of all non-input nodes
/// (Graph WaveNet-style skip aggregation).
///
/// `name` scopes the block's parameters (so stacked blocks train separately).
pub fn st_block(arch: &ArchDag, name: &str, x: &Var, u: usize, ctx: &mut OpCtx<'_>) -> Var {
    let c = arch.c();
    let mut nodes: Vec<Option<Var>> = vec![None; c];
    nodes[0] = Some(x.clone());
    for j in 1..c {
        let mut acc: Option<Var> = None;
        for e in arch.in_edges(j) {
            let src = nodes[e.from].clone().expect("topological order guarantees availability");
            let y = apply_op(e.op, &format!("{name}/e{}_{}", e.from, e.to), &src, ctx);
            acc = Some(match acc {
                Some(a) => a.add(&y),
                None => y,
            });
        }
        nodes[j] = Some(acc.expect("validated DAGs give every node an in-edge"));
    }
    if u == 0 {
        nodes[c - 1].clone().expect("last node computed")
    } else {
        let mut acc = nodes[1].clone().expect("c >= 2");
        for node in nodes.iter().skip(2) {
            acc = acc.add(node.as_ref().expect("computed"));
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octs_data::Adjacency;
    use octs_space::{ArchDag, Edge, OpKind};
    use octs_tensor::{Graph, ParamStore, Tensor};

    fn identity_adj(n: usize) -> (Tensor, Tensor) {
        let adj = Adjacency::identity(n);
        (adj.transition(), adj.transition_reverse())
    }

    fn ctx<'a>(
        g: &'a Graph,
        ps: &'a mut ParamStore,
        adj: &'a (Tensor, Tensor),
        h: usize,
    ) -> OpCtx<'a> {
        OpCtx { g, ps, h, adj_fwd: &adj.0, adj_bwd: &adj.1 }
    }

    fn x(g: &Graph, b: usize, h: usize, n: usize, l: usize) -> Var {
        let numel = b * h * n * l;
        g.constant(Tensor::new([b, h, n, l], (0..numel).map(|i| (i % 7) as f32 * 0.1).collect()))
    }

    #[test]
    fn identity_chain_passes_input_through() {
        // 0 -Id-> 1 -Id-> 2 with U=0 must return x exactly.
        let arch = ArchDag::new(
            3,
            vec![
                Edge { from: 0, to: 1, op: OpKind::Identity },
                Edge { from: 1, to: 2, op: OpKind::Identity },
            ],
        )
        .unwrap();
        let g = Graph::new();
        let mut ps = ParamStore::new(0);
        let adj = identity_adj(3);
        let mut c = ctx(&g, &mut ps, &adj, 4);
        let inp = x(&g, 1, 4, 3, 5);
        let out = st_block(&arch, "blk", &inp, 0, &mut c);
        assert_eq!(out.value(), inp.value());
    }

    #[test]
    fn sum_mode_aggregates_nodes() {
        // 0 -Id-> 1, 0 -Id-> 2 with U=1 gives 2x.
        let arch = ArchDag::new(
            3,
            vec![
                Edge { from: 0, to: 1, op: OpKind::Identity },
                Edge { from: 0, to: 2, op: OpKind::Identity },
            ],
        )
        .unwrap();
        let g = Graph::new();
        let mut ps = ParamStore::new(0);
        let adj = identity_adj(3);
        let mut c = ctx(&g, &mut ps, &adj, 4);
        let inp = x(&g, 1, 4, 3, 5);
        let out = st_block(&arch, "blk", &inp, 1, &mut c);
        let expect = inp.value().map(|v| v * 2.0);
        assert_eq!(out.value(), expect);
    }

    #[test]
    fn two_in_edges_sum() {
        // node 2 receives Id from both 0 and 1 (1 = Id of 0) -> 2x.
        let arch = ArchDag::new(
            3,
            vec![
                Edge { from: 0, to: 1, op: OpKind::Identity },
                Edge { from: 0, to: 2, op: OpKind::Identity },
                Edge { from: 1, to: 2, op: OpKind::Identity },
            ],
        )
        .unwrap();
        let g = Graph::new();
        let mut ps = ParamStore::new(0);
        let adj = identity_adj(3);
        let mut c = ctx(&g, &mut ps, &adj, 4);
        let inp = x(&g, 1, 4, 3, 5);
        let out = st_block(&arch, "blk", &inp, 0, &mut c);
        let expect = inp.value().map(|v| v * 2.0);
        assert_eq!(out.value(), expect);
    }

    #[test]
    fn random_archs_run_and_register_params_per_edge() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        for _ in 0..5 {
            let arch = ArchDag::sample_admissible(5, &mut rng);
            let g = Graph::new();
            let mut ps = ParamStore::new(0);
            let adj = identity_adj(3);
            let mut c = ctx(&g, &mut ps, &adj, 4);
            let inp = x(&g, 2, 4, 3, 6);
            let out = st_block(&arch, "blk", &inp, 1, &mut c);
            assert_eq!(out.shape(), vec![2, 4, 3, 6]);
            assert!(out.value().all_finite());
            // at least one non-identity edge allocated parameters
            assert!(!ps.is_empty());
        }
    }

    #[test]
    fn same_op_different_positions_gets_separate_params() {
        let arch = ArchDag::new(
            3,
            vec![
                Edge { from: 0, to: 1, op: OpKind::Gdcc },
                Edge { from: 1, to: 2, op: OpKind::Gdcc },
            ],
        )
        .unwrap();
        let g = Graph::new();
        let mut ps = ParamStore::new(0);
        let adj = identity_adj(2);
        let mut c = ctx(&g, &mut ps, &adj, 4);
        let inp = x(&g, 1, 4, 2, 5);
        st_block(&arch, "blk", &inp, 0, &mut c);
        assert!(ps.get("blk/e0_1/wf").is_some());
        assert!(ps.get("blk/e1_2/wf").is_some());
    }
}
