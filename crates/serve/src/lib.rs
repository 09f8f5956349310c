//! Forecast-serving layer: the deployment half of AutoCTS+.
//!
//! Search (Algorithm 2) ends with a winning arch-hyper and trained weights;
//! this crate is what actually answers forecast requests with them, at the
//! traffic levels the ROADMAP's north star targets. Three pieces:
//!
//! - [`ModelRegistry`] — versioned on-disk storage of servable checkpoints,
//!   one directory per task, each version a checksummed
//!   [`octs_data::persist`] envelope (`v00001.ckpt`, `v00002.ckpt`, …).
//!   Publishing is atomic (temp sibling + fsync + rename + directory fsync),
//!   so a serving process never loads a torn file.
//! - [`ForecastServer`] / [`TaskLane`] — a bounded worker-pool front-end.
//!   Each served task gets one lane: a bounded request queue plus a dedicated
//!   worker thread that owns the model exclusively (the forecaster's forward
//!   pass needs `&mut`), so many client threads submit concurrently with
//!   backpressure and no model locking.
//! - The **dynamic micro-batcher** inside each lane's worker: concurrent
//!   requests arriving within a [`BatchPolicy`] time/size window are stacked
//!   into one `[B, F, N, P]` tensor and answered by a single pooled-GEMM
//!   forward, then demuxed per request. Batched rows are bit-identical to
//!   single-request forwards (row dot products are independent of `B`), so
//!   batching is purely a throughput decision.
//!
//! Hot swap: when a new search winner is published, [`ForecastServer::reload`]
//! loads it and hands it to the lane through a swap mailbox. The worker
//! applies it at a batch boundary — in-flight requests complete on the old
//! version, later requests see the new one, and a failed or poisoned load
//! (NaN weights, corrupt envelope, injected IO fault) leaves the current
//! model serving: graceful degradation, reported via `serve.swap_failed`.
//!
//! Resilience (the overload/fault half):
//!
//! - **Admission control** — a [`ShedPolicy`] on [`BatchPolicy`] decides what
//!   a submit does when the lane queue is full: block (backpressure),
//!   reject the new request ([`ServeError::Overloaded`]), or shed the oldest
//!   queued one. [`TaskLane::try_submit`] never blocks regardless of policy.
//! - **Deadlines** — requests may carry a time-to-live; the batcher answers
//!   expired jobs [`ServeError::DeadlineExceeded`] at dequeue instead of
//!   computing forecasts nobody is waiting for, and
//!   [`PendingForecast::wait_timeout`] bounds the client-side wait.
//! - **Self-healing lanes** — every forward runs under `catch_unwind` plus a
//!   finite-output check, so a poisoned batch fails only itself
//!   ([`ServeError::ForwardFailed`]); consecutive failures trip a per-lane
//!   circuit breaker that sheds with [`ServeError::CircuitOpen`] during
//!   exponential backoff, re-loads the model from the registry
//!   (transient IO errors retried), and closes again after a successful
//!   one-request half-open probe.
//!
//! Inference backend: lanes forward through a compiled frozen engine
//! (`octs_tensor::FrozenGraph` via `octs_model::FrozenForecaster`) — the
//! [`BatchPolicy::precision`] policy picks the tier at model load. The
//! default `Some(Precision::Fused)` is bit-identical to the tape engine;
//! `Some(Precision::Int8)` additionally quantizes large weight matrices,
//! gated by a load-time conformance probe that demotes an over-budget
//! checkpoint to `Fused` (reported via `serve.precision_fallback`) rather
//! than serving silently wrong forecasts; `None` keeps the tape engine as
//! the benchmark baseline.
//!
//! Observability: `serve.queue_wait_us`, `serve.batch_size` and
//! `serve.e2e_us` histograms plus `serve.requests` / `serve.batches` /
//! `serve.shed` / `serve.deadline_expired` / `serve.breaker_open` /
//! `serve.breaker_close` / `serve.lane_restart` /
//! `serve.precision_fallback` counters flow through
//! `octs-obs` whenever a recorder is attached. Fault injection: `octs_obs::fault`
//! hooks at the `registry.load` site cover slow and failed checkpoint loads,
//! the task-qualified `serve.forward.<task>` site covers slow, panicking
//! and NaN-emitting forwards, and the `serve.quant.<task>` site forces
//! saturating int8 probes that must trip the precision fallback.

mod batcher;
mod model;
mod registry;
mod server;

pub use batcher::{
    forward_fault_site, BatchPolicy, Forecast, PendingForecast, Reloader, ShedPolicy, TaskLane,
    FORWARD_FAULT_SITE,
};
pub use model::{
    quant_fault_site, ServableCheckpoint, ServableModel, INT8_PROBE_BUDGET, QUANT_FAULT_SITE,
    SERVABLE_VERSION,
};
pub use octs_tensor::Precision;
pub use registry::{ModelRegistry, PUBLISH_FAULT_SITE};
pub use server::ForecastServer;

pub use octs_data::persist::CoreError;

/// What went wrong while serving.
#[derive(Debug)]
pub enum ServeError {
    /// The registry or checkpoint layer failed (IO, corruption, version).
    Core(CoreError),
    /// The task has no published checkpoint (or the requested version is
    /// absent).
    NoSuchVersion {
        /// Task the lookup was for.
        task: String,
        /// Requested registry version (0 = latest).
        version: u32,
    },
    /// A loaded checkpoint fails validation — non-finite weights or a
    /// non-finite probe forecast. Serving it would emit garbage.
    Poisoned {
        /// Task the checkpoint belongs to.
        task: String,
        /// Registry version of the poisoned checkpoint.
        version: u32,
        /// What exactly failed to validate.
        detail: String,
    },
    /// A request's input tensor does not match the served model's
    /// `[F, N, P]` contract.
    ShapeMismatch {
        /// Shape the model expects.
        expected: Vec<usize>,
        /// Shape the request carried.
        got: Vec<usize>,
    },
    /// The lane's worker is gone (server shut down while the request was
    /// queued or in flight).
    Shutdown,
    /// The lane's queue was full and the request was shed under the lane's
    /// [`ShedPolicy`] — either this request was rejected at admission, or it
    /// was the oldest queued one when a `DropOldest` lane admitted a newer
    /// request.
    Overloaded {
        /// Task whose lane shed the request.
        task: String,
        /// The lane's configured queue bound at the time.
        queue_depth: usize,
    },
    /// The request's deadline passed — either the batcher dropped it at
    /// dequeue (its time-to-live expired while queued) or
    /// [`PendingForecast::wait_timeout`] gave up waiting for the reply.
    DeadlineExceeded,
    /// The lane's circuit breaker is open: too many consecutive forwards
    /// failed, and the lane is rejecting work while it backs off, re-loads
    /// its model and probes its way back to healthy.
    CircuitOpen {
        /// Task whose lane is tripped.
        task: String,
    },
    /// The batched forward this request rode in failed — it panicked or
    /// produced non-finite output. Only the batch failed; the lane keeps
    /// serving (or trips its breaker after repeated failures).
    ForwardFailed {
        /// Task whose forward failed.
        task: String,
        /// What went wrong.
        detail: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Core(e) => write!(f, "{e}"),
            ServeError::NoSuchVersion { task, version: 0 } => {
                write!(f, "task {task:?} has no published checkpoint")
            }
            ServeError::NoSuchVersion { task, version } => {
                write!(f, "task {task:?} has no checkpoint version {version}")
            }
            ServeError::Poisoned { task, version, detail } => {
                write!(f, "checkpoint {task:?} v{version} is poisoned: {detail}")
            }
            ServeError::ShapeMismatch { expected, got } => {
                write!(f, "request shape {got:?} does not match model input {expected:?}")
            }
            ServeError::Shutdown => write!(f, "serving lane is shut down"),
            ServeError::Overloaded { task, queue_depth } => {
                write!(f, "task {task:?} lane is overloaded (queue depth {queue_depth})")
            }
            ServeError::DeadlineExceeded => write!(f, "request deadline exceeded"),
            ServeError::CircuitOpen { task } => {
                write!(f, "task {task:?} lane circuit breaker is open")
            }
            ServeError::ForwardFailed { task, detail } => {
                write!(f, "task {task:?} forward failed: {detail}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Core(e)
    }
}
