//! Servable checkpoints: the on-disk unit the registry stores and the
//! in-memory model a lane serves from.

use crate::ServeError;
use octs_data::Adjacency;
use octs_model::{Forecaster, FrozenForecaster, ModelDims};
use octs_space::ArchHyper;
use octs_tensor::{ParamStore, Precision, Tensor};
use serde::{Deserialize, Serialize};

/// Envelope schema version of [`ServableCheckpoint`] payloads.
pub const SERVABLE_VERSION: u32 = 1;

/// Prefix of the per-task quantized-load-probe fault-injection site; the
/// full name is task-qualified (see [`quant_fault_site`]).
pub const QUANT_FAULT_SITE: &str = "serve.quant";

/// The fault-injection site name of `task`'s int8 load probes, e.g.
/// `serve.quant.metr`. The op ordinal is the checkpoint's registry version
/// minus one (version 1 probes at ordinal 0), so a seeded chaos plan can
/// poison the probe of one specific published version.
pub fn quant_fault_site(task: &str) -> String {
    format!("{QUANT_FAULT_SITE}.{task}")
}

/// Normalized max-error budget the int8 load probe must meet: the largest
/// `|int8 - reference| / max(1, max|reference|)` over the probe forecast.
/// A checkpoint whose quantized engine exceeds it is served at
/// [`Precision::Fused`] instead (never silently wrong forecasts).
pub const INT8_PROBE_BUDGET: f32 = 5e-2;

/// Everything needed to reconstruct a trained forecaster for serving: the
/// winning arch-hyper, the shape contract, the task graph, and the trained
/// weights. Serialized as the payload of a checksummed `persist` envelope.
#[derive(Serialize, Deserialize)]
pub struct ServableCheckpoint {
    /// Task identifier — doubles as the registry directory name.
    pub task: String,
    /// Registry version, assigned by [`crate::ModelRegistry::publish`]
    /// (0 until published).
    pub version: u32,
    /// The searched winner this checkpoint realizes.
    pub ah: ArchHyper,
    /// Shape contract the weights were trained under.
    pub dims: ModelDims,
    /// Task adjacency the spatial operators diffuse over.
    pub adjacency: Adjacency,
    /// Trained parameters.
    pub params: ParamStore,
    /// Seed the forecaster was built with (only feeds the eval-mode-unused
    /// dropout RNG, kept for reproducibility bookkeeping).
    pub seed: u64,
}

impl ServableCheckpoint {
    /// Packages a trained forecaster for publication. The registry assigns
    /// the version at publish time.
    pub fn new(task: impl Into<String>, fc: &Forecaster, adjacency: &Adjacency, seed: u64) -> Self {
        Self {
            task: task.into(),
            version: 0,
            ah: fc.ah.clone(),
            dims: fc.dims,
            adjacency: adjacency.clone(),
            params: fc.ps.snapshot(),
            seed,
        }
    }
}

/// A checkpoint rebuilt into a live, validated, evaluation-mode model — the
/// thing a [`crate::TaskLane`] worker owns and forwards through.
///
/// The model wraps a [`FrozenForecaster`]: by default forwards replay
/// compiled tape-free plans (see `octs_tensor::FrozenGraph`). A policy of
/// `None` keeps the tape engine (the benchmark baseline); `Some(precision)`
/// selects the frozen tier, with [`Precision::Int8`] gated by a load-time
/// conformance probe that falls back to [`Precision::Fused`] when the
/// quantized engine's error exceeds [`INT8_PROBE_BUDGET`].
pub struct ServableModel {
    /// Registry version this model was loaded from.
    pub version: u32,
    /// Task the model serves.
    pub task: String,
    engine: FrozenForecaster,
    frozen: bool,
}

impl ServableModel {
    /// [`ServableModel::from_checkpoint_with`] at the default serving
    /// policy, `Some(Precision::Fused)` — frozen plans, bit-identical to
    /// the tape engine.
    pub fn from_checkpoint(ckpt: ServableCheckpoint) -> Result<Self, ServeError> {
        Self::from_checkpoint_with(ckpt, Some(Precision::Fused))
    }

    /// Rebuilds and validates a model from a loaded checkpoint, serving at
    /// the requested precision policy.
    ///
    /// Validation is the poisoned-model tripwire: every stored weight must be
    /// finite and a probe forward on a fixed seeded input must produce a
    /// finite forecast. A checkpoint that fails either check is rejected with
    /// [`ServeError::Poisoned`] so the caller can keep serving the previous
    /// version.
    ///
    /// With `Some(Precision::Int8)` the probe doubles as a conformance
    /// check: the quantized engine's forecast is compared against the tape
    /// reference, and a normalized max error over [`INT8_PROBE_BUDGET`]
    /// demotes the model to [`Precision::Fused`] — counted and reported via
    /// the `serve.precision_fallback` observability hooks, never served
    /// silently wrong. The `octs_obs::fault` site [`quant_fault_site`] can force
    /// saturating activation quantization during the probe to exercise
    /// exactly this path.
    pub fn from_checkpoint_with(
        ckpt: ServableCheckpoint,
        policy: Option<Precision>,
    ) -> Result<Self, ServeError> {
        let ServableCheckpoint { task, version, ah, dims, adjacency, params, seed } = ckpt;
        if !params.all_finite() {
            return Err(ServeError::Poisoned {
                task,
                version,
                detail: "non-finite parameter values".to_string(),
            });
        }
        let fc = Forecaster::from_trained(ah, dims, &adjacency, params, seed);
        let probe = probe_input(dims);
        let poisoned = |detail: &str| ServeError::Poisoned {
            task: task.clone(),
            version,
            detail: detail.to_string(),
        };

        let (engine, frozen) = match policy {
            None => {
                let mut engine = FrozenForecaster::new(fc, Precision::Fused);
                if !engine.tape_predict(&probe).all_finite() {
                    return Err(poisoned("probe forecast is non-finite"));
                }
                (engine, false)
            }
            Some(p @ (Precision::Full | Precision::Fused)) => {
                let mut engine = FrozenForecaster::new(fc, p);
                // Frozen Full/Fused plans are bit-identical to the tape, so
                // the frozen probe is the finite check.
                if !engine.predict(&probe).all_finite() {
                    return Err(poisoned("probe forecast is non-finite"));
                }
                (engine, true)
            }
            Some(Precision::Int8) => {
                let mut engine = FrozenForecaster::new(fc, Precision::Int8);
                let reference = engine.tape_predict(&probe);
                if !reference.all_finite() {
                    return Err(poisoned("probe forecast is non-finite"));
                }
                let site = quant_fault_site(&task);
                let inject =
                    octs_obs::fault::quant_overflow_at(&site, (version as u64).saturating_sub(1));
                if inject {
                    octs_tensor::ops::qgemm::set_saturation_injection(true);
                }
                let quant = engine.predict(&probe);
                if inject {
                    octs_tensor::ops::qgemm::set_saturation_injection(false);
                }
                let denom = reference.data().iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1.0);
                let err = if quant.all_finite() {
                    quant
                        .data()
                        .iter()
                        .zip(reference.data())
                        .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()))
                        / denom
                } else {
                    f32::INFINITY
                };
                if err <= INT8_PROBE_BUDGET {
                    (engine, true)
                } else {
                    // Over budget: demote to the bit-exact Fused tier. The
                    // tape reference already validated finite, and Fused
                    // plans are bit-identical to it.
                    octs_obs::counter("serve.precision_fallback", 1);
                    octs_obs::event(
                        "serve.precision_fallback",
                        version as f64,
                        &format!(
                            "{task} v{version}: int8 probe error {err:.4} over budget \
                             {INT8_PROBE_BUDGET}; serving Fused"
                        ),
                    );
                    (FrozenForecaster::new(engine.into_inner(), Precision::Fused), true)
                }
            }
        };
        Ok(Self { version, task, engine, frozen })
    }

    /// The precision tier forwards run at: `None` when the model serves from
    /// the tape engine, `Some(tier)` when it replays frozen plans. An int8
    /// load whose probe exceeded budget reports `Some(Precision::Fused)`.
    pub fn precision(&self) -> Option<Precision> {
        self.frozen.then(|| self.engine.precision())
    }

    /// The `[F, N, P]` input shape every request must carry.
    pub fn input_shape(&self) -> [usize; 3] {
        let dims = self.dims();
        [dims.f, dims.n, dims.p]
    }

    /// Shape contract of the served model.
    pub fn dims(&self) -> ModelDims {
        self.engine.forecaster().dims
    }

    /// One batched eval-mode forward: stacks `inputs` (each `[F, N, P]`)
    /// into `[B, F, N, P]`, runs a single forward — a compiled frozen plan,
    /// or the pooled-GEMM tape under the `None` policy — and demuxes the
    /// `[B, out_steps, N]` prediction back into per-request tensors.
    ///
    /// Each returned row is bit-identical to the forecast a lone
    /// single-request forward would produce: every output element is a dot
    /// product over one batch row, independent of `B` (per-row activation
    /// scales keep this true for the int8 tier as well).
    pub fn predict_batch(&mut self, inputs: &[&Tensor]) -> Vec<Tensor> {
        let x = Tensor::stack(inputs);
        let pred = if self.frozen { self.engine.predict(&x) } else { self.engine.tape_predict(&x) };
        pred.unstack()
    }
}

/// The fixed load-probe input: a seeded, sign-varying pattern (not zeros) so
/// the int8 conformance comparison exercises real activation magnitudes.
/// Deterministic across loads, platforms and thread counts.
fn probe_input(dims: ModelDims) -> Tensor {
    let len = dims.f * dims.n * dims.p;
    let mut state: u64 = 0x0C75_9B0B_E51D_2026;
    let data = (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as u32 as f32 / u32::MAX as f32) * 2.0 - 1.0
        })
        .collect();
    Tensor::new([1, dims.f, dims.n, dims.p], data)
}

/// The post-forward half of the poisoned-model tripwire: every served
/// forecast must be finite. Returns the failure detail so the batcher can
/// reply [`ServeError::ForwardFailed`] and feed its circuit breaker.
pub fn validate_outputs(outputs: &[Tensor]) -> Result<(), String> {
    match outputs.iter().position(|t| !t.all_finite()) {
        None => Ok(()),
        Some(i) => Err(format!("non-finite forecast in batch row {i}")),
    }
}
