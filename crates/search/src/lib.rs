//! # octs-search
//!
//! Search strategies over the joint arch-hyper space: the per-task AutoCTS+
//! search ([`autocts_plus_search`]: label candidates on the target task,
//! train a plain comparator, rank, train the top-K) and its
//! successive-halving fidelity ladder ([`fidelity_ladder_search`]); the
//! comparator-guided zero-shot search of AutoCTS++ (Algorithm 2: embed →
//! tournament seeding → evolutionary refinement → Round-Robin top-K → train
//! finalists), also rank-only ([`zero_shot_rank`]) or with a proxy
//! promotion rung ([`zero_shot_search_laddered`]); and the baselines they
//! are evaluated against — random search, grid-search HPO and a DARTS-style
//! weight-sharing supernet standing in for the fully-supervised
//! AutoCTS/AutoSTG frameworks. The comparator-guided searches are short
//! compositions of shared stages: validation, labelling, the comparator →
//! rank → finalists tail and the final training.

#![warn(missing_docs)]

pub mod autocts_plus;
pub mod baseline_search;
pub mod error;
pub mod evolve;
pub mod fidelity;
pub mod rank;
mod stages;
pub mod zeroshot;

pub use autocts_plus::{
    autocts_plus_search, autocts_plus_search_with_pool, AutoCtsPlusConfig, AutoCtsPlusOutcome,
};
pub use baseline_search::{grid_search_hpo, random_search, supernet_search, SupernetConfig};
pub use error::SearchError;
pub use evolve::{evolve_search, EvolveConfig};
pub use fidelity::{
    fidelity_ladder_search, fidelity_ladder_search_with_pool, promote_by_score, LadderConfig,
    LadderOutcome, StageReport, FULL_FIDELITY_UNIT_BASE,
};
pub use rank::{round_robin_cost, round_robin_rank, tournament_rank, RankOutcome};
pub use zeroshot::{
    zero_shot_rank, zero_shot_search, zero_shot_search_laddered, FinalistPromotion, SearchOutcome,
    SearchTiming, ZeroShotRank,
};
