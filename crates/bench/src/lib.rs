//! # octs-bench
//!
//! Experiment harnesses regenerating every table and figure of the paper's
//! evaluation (Section 4) at CPU scale, plus Criterion microbenches backing
//! the timing claims. See DESIGN.md's per-experiment index for the mapping
//! from paper artifact to binary.

#![warn(missing_docs)]

pub mod runner;
pub mod scale;
pub mod table;

pub use runner::{
    measure_baseline, pretrained_system, system_config, target_task, Baseline, MetricAgg,
};
pub use scale::Scale;
pub use table::{f, ms, results_dir, Table};

use std::path::{Path, PathBuf};

/// Writes a measurement bin's JSON report and prints where it went. Full
/// runs write the committed `file` (a `BENCH_*.json`) in the working
/// directory; `--quick` smoke runs write `target/bench-quick/<file>`, so a
/// local smoke run never overwrites a committed full-mode measurement.
pub fn write_report<T: serde::Serialize>(file: &str, quick: bool, report: &T) {
    let path = if quick {
        let dir = Path::new("target/bench-quick");
        std::fs::create_dir_all(dir).expect("create target/bench-quick");
        dir.join(file)
    } else {
        PathBuf::from(file)
    };
    let json = serde_json::to_string(report).expect("report serializes");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}
