//! # octs-bench
//!
//! Experiment harnesses regenerating every table and figure of the paper's
//! evaluation (Section 4) at CPU scale, and the measurement bins that write
//! the committed `BENCH_*.json` reports through [`report`]. See DESIGN.md's
//! per-experiment index for the mapping from paper artifact to binary.

#![warn(missing_docs)]

pub mod report;
pub mod runner;
pub mod scale;
pub mod table;

pub use report::{paired, window_ns, write_report, Paired};
pub use runner::{
    measure_baseline, pretrained_system, system_config, target_task, Baseline, MetricAgg,
};
pub use scale::Scale;
pub use table::{f, ms, results_dir, Table};
