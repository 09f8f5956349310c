//! The full CTS forecasting model (Fig. 2): input module → ST-backbone →
//! output module, built from an [`ArchHyper`].

use crate::operators::{channel_projection, OpCtx};
use crate::stblock::st_block;
use octs_data::{Adjacency, ForecastSetting};
use octs_space::ArchHyper;
use octs_tensor::{Graph, ParamStore, Tensor, Var};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Static shape information the model is built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelDims {
    /// Number of time series `N`.
    pub n: usize,
    /// Input features per step `F`.
    pub f: usize,
    /// History length `P`.
    pub p: usize,
    /// Output steps (Q for multi-step, 1 for single-step).
    pub out_steps: usize,
}

impl ModelDims {
    /// Derives dims from a dataset signature and setting.
    pub fn new(n: usize, f: usize, setting: ForecastSetting) -> Self {
        Self { n, f, p: setting.p, out_steps: setting.out_steps() }
    }
}

/// A CTS forecasting model instantiated from an arch-hyper.
///
/// Owns its parameters and a dropout RNG; each [`Forecaster::forward`] builds
/// a fresh autograd graph.
pub struct Forecaster {
    /// The arch-hyper this model realizes.
    pub ah: ArchHyper,
    /// Shape contract.
    pub dims: ModelDims,
    /// All parameters (lazily initialized on the first forward).
    pub ps: ParamStore,
    adj_fwd: Tensor,
    adj_bwd: Tensor,
    rng: ChaCha8Rng,
    /// When false, dropout is disabled (evaluation mode).
    pub training: bool,
}

impl Forecaster {
    /// Builds a forecaster for `ah` on a graph `adjacency` with shape `dims`.
    pub fn new(ah: ArchHyper, dims: ModelDims, adjacency: &Adjacency, seed: u64) -> Self {
        assert_eq!(adjacency.n(), dims.n, "adjacency does not match node count");
        Self {
            ah,
            dims,
            ps: ParamStore::new(seed),
            adj_fwd: adjacency.transition(),
            adj_bwd: adjacency.transition_reverse(),
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x5EED),
            training: true,
        }
    }

    /// Rebuilds a trained forecaster from a parameter snapshot, in
    /// evaluation mode. The installed `params` are found (not re-initialized)
    /// by the lazy `ParamStore::entry` lookups on the first forward, so
    /// predictions match the model the snapshot was taken from bit-for-bit.
    pub fn from_trained(
        ah: ArchHyper,
        dims: ModelDims,
        adjacency: &Adjacency,
        params: ParamStore,
        seed: u64,
    ) -> Self {
        let mut fc = Self::new(ah, dims, adjacency, seed);
        fc.ps = params;
        fc.training = false;
        fc
    }

    /// Runs the model on `x` (`[B, F, N, P]`), returning the prediction var
    /// (`[B, out_steps, N]`) and its graph for backprop.
    pub fn forward(&mut self, x: &Tensor) -> (Graph, Var) {
        let (g, _, pred) = self.forward_traced(x);
        (g, pred)
    }

    /// [`Forecaster::forward`] that also returns the input leaf var, so the
    /// trace can be compiled by [`octs_tensor::Graph::freeze`] (which needs
    /// to know which leaf is the runtime argument).
    pub fn forward_traced(&mut self, x: &Tensor) -> (Graph, Var, Var) {
        let s = x.shape().to_vec();
        assert_eq!(&s[1..], &[self.dims.f, self.dims.n, self.dims.p], "input shape {s:?}");
        let hp = self.ah.hyper;
        let h = hp.h;
        let dropout = hp.dropout_rate();

        let g = Graph::new();
        let xin = g.constant(x.clone());

        // Input module: 1×1 channel projection F → H.
        let mut cur = channel_projection(&mut self.ps, &g, "input", &xin, self.dims.f, h);

        // ST-backbone: B sequential blocks with residual connections.
        for blk in 0..hp.b {
            let y = {
                let mut ctx = OpCtx {
                    g: &g,
                    ps: &mut self.ps,
                    h,
                    adj_fwd: &self.adj_fwd,
                    adj_bwd: &self.adj_bwd,
                };
                st_block(&self.ah.arch, &format!("blk{blk}"), &cur, hp.u, &mut ctx)
            };
            let y =
                if self.training && dropout > 0.0 { y.dropout(dropout, &mut self.rng) } else { y };
            cur = cur.add(&y);
        }

        // Output module: last-step representation → FC(I) → FC(out_steps).
        // [B,H,N,P] -> last step -> [B,H,N] -> [B,N,H]
        let last = cur
            .slice_axis(3, self.dims.p - 1, 1)
            .reshape([s[0], h, self.dims.n])
            .permute(&[0, 2, 1])
            .relu();
        let o1 = crate::layers::linear(&mut self.ps, &g, "out/fc1", &last, h, hp.i).relu();
        let o2 = crate::layers::linear(&mut self.ps, &g, "out/fc2", &o1, hp.i, self.dims.out_steps);
        // [B,N,out] -> [B,out,N]
        let pred = o2.permute(&[0, 2, 1]);
        (g, xin, pred)
    }

    /// Convenience: evaluation-mode prediction values.
    pub fn predict(&mut self, x: &Tensor) -> Tensor {
        let was_training = self.training;
        self.training = false;
        let (_, pred) = self.forward(x);
        self.training = was_training;
        pred.value()
    }

    /// Total scalar parameter count (0 before the first forward).
    pub fn num_params(&self) -> usize {
        self.ps.num_scalars()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octs_space::JointSpace;

    fn fixture(seed: u64) -> (Forecaster, Tensor) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let space = JointSpace::tiny();
        let ah = space.sample(&mut rng);
        let dims = ModelDims { n: 4, f: 1, p: 6, out_steps: 3 };
        let adj = Adjacency::identity(4);
        let fc = Forecaster::new(ah, dims, &adj, seed);
        let x = Tensor::new([2, 1, 4, 6], (0..48).map(|i| (i % 5) as f32 * 0.1).collect());
        (fc, x)
    }

    #[test]
    fn forward_shape_contract() {
        let (mut fc, x) = fixture(1);
        let (_, pred) = fc.forward(&x);
        assert_eq!(pred.shape(), vec![2, 3, 4]);
        assert!(pred.value().all_finite());
    }

    #[test]
    fn predict_is_deterministic_in_eval_mode() {
        let (mut fc, x) = fixture(2);
        let a = fc.predict(&x);
        let b = fc.predict(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn gradients_reach_input_projection() {
        let (mut fc, x) = fixture(3);
        let (g, pred) = fc.forward(&x);
        let loss = pred.mean_all();
        g.backward(&loss);
        let grads = g.param_grads();
        assert!(grads.iter().any(|(n, _)| n.starts_with("input/")), "input module got no grad");
        assert!(grads.iter().any(|(n, _)| n.starts_with("out/")), "output module got no grad");
        assert!(grads.iter().all(|(_, t)| t.all_finite()));
    }

    #[test]
    fn one_training_step_reduces_loss() {
        use octs_tensor::Adam;
        let (mut fc, x) = fixture(4);
        let target = Tensor::full([2, 3, 4], 0.5);
        let mut opt = Adam::new(0.01, 0.0);
        let mut first = None;
        let mut last = f32::NAN;
        for _ in 0..25 {
            let (g, pred) = fc.forward(&x);
            let loss = pred.mae_loss(&g.constant(target.clone()));
            last = loss.value().item();
            first.get_or_insert(last);
            g.backward(&loss);
            opt.step(&mut fc.ps, &g.param_grads());
        }
        assert!(last < first.unwrap() * 0.9, "{first:?} -> {last}");
    }

    #[test]
    fn larger_hyper_means_more_params() {
        use octs_space::{ArchDag, HyperParams};
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let arch = ArchDag::sample_admissible(3, &mut rng);
        let dims = ModelDims { n: 4, f: 1, p: 6, out_steps: 3 };
        let adj = Adjacency::identity(4);
        let x = Tensor::zeros([1, 1, 4, 6]);

        let small_hp = HyperParams { b: 1, c: 3, h: 4, i: 8, u: 0, delta: 0 };
        let big_hp = HyperParams { b: 2, c: 3, h: 8, i: 16, u: 0, delta: 0 };
        let mut small = Forecaster::new(ArchHyper::new(arch.clone(), small_hp), dims, &adj, 0);
        let mut big = Forecaster::new(ArchHyper::new(arch, big_hp), dims, &adj, 0);
        small.forward(&x);
        big.forward(&x);
        assert!(big.num_params() > small.num_params());
    }

    #[test]
    #[should_panic(expected = "input shape")]
    fn wrong_input_shape_panics() {
        let (mut fc, _) = fixture(6);
        fc.forward(&Tensor::zeros([2, 1, 4, 7]));
    }
}
