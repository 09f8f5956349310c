//! # octs-comparator
//!
//! The Task-aware Architecture-Hyperparameter Comparator (T-AHC) of
//! AutoCTS+/AutoCTS++ (Section 3.2): a GIN encoder over dual arch-hyper
//! graphs, a TS2Vec-style frozen task encoder with a trainable two-stacked
//! Set-Transformer pooling (IntraSetPool / InterSetPool), a pairwise
//! classification head, and the curriculum pre-training pipeline of
//! Algorithm 1 (shared + random samples, early-validation labels, dynamic
//! pairing).
//!
//! With `task_aware = false` the model degrades gracefully to the plain AHC
//! of AutoCTS+ (per-task comparator without zero-shot transfer).

#![warn(missing_docs)]

pub mod ahc;
pub mod calibration;
pub mod gin;
pub mod pretrain;
pub mod stream;
pub mod task_embed;
pub mod ts2vec;

pub use ahc::{CacheStats, Tahc, TahcConfig};
pub use calibration::{calibrate, ranking_fidelity, CalibrationReport};
pub use gin::{gin_encode, materialize_gin, GinConfig};
pub use pretrain::{
    dynamic_pairs, label_one, pretrain_tahc, shared_pool, task_label_units, LabelUnit, LabeledAh,
    LabeledBank, PretrainConfig, PretrainReport, TahcTrainer, TahcTrainerState, TaskSamples,
};
pub use stream::{collect_labeled_bank, label_task};
pub use task_embed::{
    materialize_pool_task, pma, pool_task, EmbedKind, PoolKind, TaskEmbedConfig, TaskEmbedder,
};
pub use ts2vec::{materialize_linear, Ts2Vec, Ts2VecConfig};
