//! # octs-testkit
//!
//! The standing correctness harness for the AutoCTS+ reproduction. The
//! paper's core claim — a comparator trained on cheap proxy labels ranks
//! (arch, hyper) pairs almost as well as full training — only holds here if
//! every operator gradient, every search-space sample, and every
//! deterministic search run stays correct as the codebase grows. This crate
//! systematizes what earlier PRs asserted one fixture at a time:
//!
//! - [`gen`] — seeded, shrinking generators for [`octs_space::ArchHyper`]
//!   candidates, synthetic CTS datasets, task descriptors, and
//!   [`octs_obs::fault::FaultPlan`]s. Every generated value derives from a single
//!   `u64` seed, so any failure replays from the seed printed in the assert
//!   message; [`gen::shrink`] greedily minimizes a failing value.
//! - [`conformance`] — a differential gradient-conformance sweep that
//!   enumerates every registered tensor op and every `octs-model`
//!   operator/ST-block, checks analytic vs central-difference gradients
//!   across generated shapes, and shrinks any failing input to a minimal,
//!   seed-replayable reproducer. A coverage test pins the enumerated op
//!   list, so new ops cannot dodge the sweep.
//! - [`qconform`] — the serving-side twin of [`conformance`]: every model
//!   operator and the full forecaster stack frozen through the compiled
//!   inference backend, checking that `Fused` plans are bit-identical to the
//!   tape and `Int8` plans stay within per-op quantization error budgets
//!   while actually engaging the quantized GEMM. The same coverage-contract
//!   test pins its op list.
//! - [`golden`] — golden-run regression fixtures: the winner genotype,
//!   proxy-label vector, and deterministic observability summary of small
//!   fixed-seed `autocts_plus` and zero-shot searches, snapshotted to
//!   committed JSON (`tests/golden/*.json`) with an `UPDATE_GOLDEN=1`
//!   regeneration path and readable structural diffs on mismatch.
//!
//! Future perf/scaling PRs can refactor hot paths against this gate without
//! silently changing search outcomes.

#![warn(missing_docs)]

pub mod conformance;
pub mod gen;
pub mod golden;
pub mod qconform;

pub use conformance::{run_sweep, ConformanceReport, OpFamily, OpReport, OpSpec, Reproducer};
pub use gen::{shrink, Gen};
pub use golden::{
    capture_autocts_plus, capture_autocts_plus_with, capture_fidelity_ladder, capture_zero_shot,
    check_against_fixture, diff_json, GoldenLadderRun, GoldenRun, UPDATE_GOLDEN_ENV,
};
pub use qconform::{run_quant_sweep, QuantConformanceReport, QuantOpReport, QuantOpSpec};
