//! # octs-data
//!
//! Correlated time series (CTS) containers, synthetic dataset profiles, task
//! definitions, task enrichment and accuracy metrics for the AutoCTS+
//! reproduction — plus the on-disk task bank and [`persist`], the one
//! module every checksummed file of the workspace is written through.
//!
//! The paper evaluates on real traffic/energy/demand benchmarks; those are
//! substituted here by the parameterized generator in [`synth`] (see
//! DESIGN.md for the substitution rationale). Everything downstream — the
//! forecasting models, the comparator, the search — only sees the
//! [`task::ForecastTask`] interface and is agnostic to the data's origin.

#![warn(missing_docs)]

pub mod bank;
pub mod cts;
pub mod enrich;
pub mod io;
pub mod metrics;
pub mod persist;
pub mod stats;
pub mod synth;
pub mod task;

pub use bank::{write_bank, BankConfig, BankManifest, BankStream, ShardInfo, BANK_KIND};
pub use cts::{Adjacency, CtsData};
pub use enrich::{enrich_tasks, EnrichConfig};
pub use io::{ShardReader, ShardWriter};
pub use persist::CoreError;
pub use stats::Welford;
pub use synth::{profile_by_name, source_profiles, target_profiles, DatasetProfile, Domain};
pub use task::{Batch, ForecastSetting, ForecastTask, Mode, Scaler, Split};
