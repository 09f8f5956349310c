//! # autocts
//!
//! A Rust reproduction of **AutoCTS+ / AutoCTS++**: joint neural architecture
//! and hyperparameter search — with zero-shot transfer to unseen tasks — for
//! correlated time series (CTS) forecasting.
//!
//! The crate is a facade over the workspace:
//! - [`octs_tensor`]: dense tensors + tape autograd (the training substrate);
//! - [`octs_data`]: CTS containers, synthetic dataset profiles, tasks, metrics;
//! - [`octs_space`]: the joint architecture-hyperparameter search space;
//! - [`octs_model`]: the operator zoo, ST-blocks and forecaster training;
//! - [`octs_comparator`]: the T-AHC comparator and its pre-training pipeline;
//! - [`octs_search`]: per-task AutoCTS+ search, its fidelity ladder, zero-shot
//!   evolutionary search and baseline strategies;
//! - [`octs_baselines`]: manually-designed forecasting baselines.
//!
//! ## Quickstart
//! ```
//! use autocts::prelude::*;
//!
//! // 1. Build the system (tiny config keeps this doctest fast).
//! let mut sys = AutoCts::new(AutoCtsConfig::test());
//!
//! // 2. Pre-train once on (enriched) source tasks.
//! let profile = DatasetProfile::custom("demo", Domain::Traffic, 3, 180, 24, 0.3, 0.1, 10.0, 1);
//! let source = ForecastTask::new(profile.generate(0), ForecastSetting::multi(4, 2), 0.6, 0.2, 2);
//! sys.pretrain(vec![source], &PretrainConfig::test());
//!
//! // 3. Zero-shot search on an unseen task.
//! let unseen_profile = DatasetProfile::custom("unseen", Domain::Energy, 3, 180, 24, 0.1, 0.1, 5.0, 2);
//! let unseen = ForecastTask::new(unseen_profile.generate(0), ForecastSetting::multi(4, 2), 0.6, 0.2, 2);
//! let evolve = EvolveConfig { k_s: 8, generations: 1, top_k: 1, ..EvolveConfig::test() };
//! let outcome = sys.search(&unseen, &evolve, &TrainConfig::test());
//! println!("best model:\n{}", autocts::render(&outcome.best));
//! assert!(outcome.best_report.test.mae.is_finite());
//! ```

#![warn(missing_docs)]

pub mod bankrun;
pub mod checkpoint;
pub mod facade;
pub mod journal;

pub use bankrun::{BankRunOptions, ARTIFACT_FILE, BANKRUN_VERSION, JOURNAL_FILE};
pub use checkpoint::{Checkpoint, CHECKPOINT_VERSION};
pub use facade::{AutoCts, AutoCtsConfig};
pub use journal::{Journal, Record};

// The durable-write module (atomic write, envelope codec, `fnv64`) and its
// error type live in the leaf data crate, next to the shards and manifests.
pub use octs_data::persist;
pub use octs_data::persist::CoreError;

// The deterministic fault-injection harness, re-exported so integration
// tests and benches reach it through the facade.
pub use octs_obs::fault;

// Re-export the component crates wholesale for power users.
pub use octs_baselines as baselines;
pub use octs_comparator as comparator;
pub use octs_data as data;
pub use octs_model as model;
pub use octs_search as search;
pub use octs_space as space;
pub use octs_tensor as tensor;

pub use octs_space::{render, render_dot, ArchHyper, JointSpace};

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::facade::{AutoCts, AutoCtsConfig};
    pub use crate::CoreError;
    pub use octs_comparator::{PretrainConfig, TahcConfig};
    pub use octs_data::{
        enrich_tasks, source_profiles, target_profiles, DatasetProfile, Domain, EnrichConfig,
        ForecastSetting, ForecastTask, Mode, Split,
    };
    pub use octs_model::{Forecaster, ModelDims, TrainConfig};
    pub use octs_search::{autocts_plus_search, AutoCtsPlusConfig, EvolveConfig, SearchOutcome};
    pub use octs_space::{ArchHyper, JointSpace};
}
