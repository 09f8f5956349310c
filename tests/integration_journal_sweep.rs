//! Exhaustive crash-point sweep over the pre-training journal, driven by
//! testkit generators: a kill injected at **every** journal record boundary
//! must resume byte-identical to an uninterrupted run, generated mixed fault
//! plans must converge to the same state, and a torn journal tail truncated
//! at arbitrary byte positions must recover exactly the complete-line prefix.
//!
//! Each kill arms its fault plan on the test thread's run context only, so
//! the clean runs need no scope and concurrent tests never see each other's
//! faults.

use autocts::comparator::PretrainReport;
use autocts::prelude::*;
use autocts::{fault, AutoCts, CoreError, Journal, Record, JOURNAL_FILE};
use octs_testkit::Gen;
use std::path::{Path, PathBuf};

fn source_tasks() -> Vec<ForecastTask> {
    let mk = |name: &str, domain, seed| {
        let p = DatasetProfile::custom(name, domain, 3, 200, 24, 0.3, 0.1, 10.0, seed);
        ForecastTask::new(p.generate(0), ForecastSetting::multi(4, 2), 0.6, 0.2, 2)
    };
    vec![mk("s-traffic", Domain::Traffic, 301), mk("s-energy", Domain::Energy, 302)]
}

fn pre_cfg() -> PretrainConfig {
    PretrainConfig { l_shared: 2, l_random: 2, epochs: 2, ..PretrainConfig::test() }
}

fn run_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("octs_sweep_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The comparator parameters, serialized — the byte-equality witness.
fn params_of(sys: &AutoCts) -> String {
    serde_json::to_string(&sys.tahc.ps.snapshot()).unwrap()
}

/// One uninterrupted reference run under `plan` (faults other than IO may be
/// part of the scenario). Returns the end state plus the journal's records.
fn reference(name: &str, plan: fault::FaultPlan) -> (AutoCts, PretrainReport, Vec<Record>) {
    let dir = run_dir(&format!("reference_{name}"));
    let _scope = fault::FaultScope::activate(plan);
    let (sys, report) =
        AutoCts::resume(AutoCtsConfig::test(), source_tasks(), &pre_cfg(), &dir).unwrap();
    let (_, records) = Journal::open(dir.join(JOURNAL_FILE)).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    (sys, report, records)
}

#[test]
fn kill_at_every_journal_boundary_resumes_byte_identical() {
    let (ref_sys, ref_report, ref_records) = reference("boundary", fault::FaultPlan::new());
    let ref_params = params_of(&ref_sys);
    let n_appends = ref_records.len() as u64;
    assert!(n_appends >= 7, "sweep should cover fingerprint/encoder/labels/epochs/done");

    for k in 0..n_appends {
        let dir = run_dir(&format!("boundary_{k}"));
        {
            let _scope =
                fault::FaultScope::activate(fault::FaultPlan::new().io_error("journal.append", k));
            let mut sys = AutoCts::new(AutoCtsConfig::test());
            let err = sys.pretrain_journaled(source_tasks(), &pre_cfg(), &dir).unwrap_err();
            assert!(matches!(err, CoreError::Io { op: "append", .. }), "append {k}: {err}");
        }
        let (sys, report) =
            AutoCts::resume(AutoCtsConfig::test(), source_tasks(), &pre_cfg(), &dir).unwrap();
        assert_eq!(ref_report.epoch_losses, report.epoch_losses, "killed at append {k}");
        assert_eq!(
            ref_report.holdout_accuracy.to_bits(),
            report.holdout_accuracy.to_bits(),
            "killed at append {k}: holdout accuracy must match bitwise"
        );
        assert_eq!(ref_params, params_of(&sys), "killed at append {k}: params must match bitwise");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn generated_fault_plans_resume_byte_identical() {
    // The clean sweep above establishes n_appends; 7 here (2 header + 2
    // tasks + 2 epochs + done). Generated plans mix persistent NaN/panic
    // unit faults (part of the scenario — present in the reference too) with
    // a one-shot IO kill at a generated journal boundary.
    let n_tasks = source_tasks().len() as u64;
    let n_units = n_tasks * (pre_cfg().l_shared + pre_cfg().l_random) as u64;
    let n_appends = 2 + n_tasks + pre_cfg().epochs as u64 + 1;

    for seed in [101u64, 102, 103] {
        let mut g = Gen::from_seed(seed);
        let plan = g.fault_plan(n_units, n_appends);
        let mut scenario = plan.clone();
        scenario.io_faults.clear();

        let (ref_sys, ref_report, _) = reference(&format!("gen_{seed}"), scenario.clone());
        let dir = run_dir(&format!("gen_{seed}"));

        // Crash run and resume under the SAME scope: the IO fault is
        // one-shot, so the resume sails past the boundary it killed.
        let _scope = fault::FaultScope::activate(plan.clone());
        let mut sys = AutoCts::new(AutoCtsConfig::test());
        let first = sys.pretrain_journaled(source_tasks(), &pre_cfg(), &dir);
        if !plan.io_faults.is_empty() {
            let err = first.expect_err("generated IO fault must kill the run");
            assert!(matches!(err, CoreError::Io { op: "append", .. }), "seed {seed}: {err}");
        }
        let (sys, report) =
            AutoCts::resume(AutoCtsConfig::test(), source_tasks(), &pre_cfg(), &dir)
                .unwrap_or_else(|e| panic!("seed {seed}: resume failed: {e}"));

        assert_eq!(ref_report.epoch_losses, report.epoch_losses, "seed {seed}");
        assert_eq!(
            ref_report.holdout_accuracy.to_bits(),
            report.holdout_accuracy.to_bits(),
            "seed {seed}"
        );
        assert_eq!(params_of(&ref_sys), params_of(&sys), "seed {seed}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Byte offsets at which to tear line `i` of the journal: the boundary
/// before it, one byte in, mid-line, and one byte short of complete.
fn cuts_for_line(start: usize, len: usize) -> Vec<usize> {
    let mut cuts = vec![start, start + 1, start + len / 2, start + len - 1];
    cuts.dedup();
    cuts
}

#[test]
fn torn_tail_truncation_recovers_every_prefix() {
    // One complete run whose directory we keep: every truncation below is a
    // fresh copy of it with the journal chopped at a byte position.
    let complete = run_dir("torn_complete");
    let (ref_sys, ref_report) =
        AutoCts::resume(AutoCtsConfig::test(), source_tasks(), &pre_cfg(), &complete).unwrap();
    let journal_text = std::fs::read_to_string(complete.join(JOURNAL_FILE)).unwrap();
    let (_, ref_records) = Journal::open(complete.join(JOURNAL_FILE)).unwrap();

    let scratch = run_dir("torn_scratch");
    std::fs::create_dir_all(&scratch).unwrap();
    let torn_path = scratch.join(JOURNAL_FILE);

    let mut start = 0usize;
    for (i, line) in journal_text.split_inclusive('\n').enumerate() {
        for cut in cuts_for_line(start, line.len()) {
            std::fs::write(&torn_path, &journal_text[..cut]).unwrap();
            let (_, records) = Journal::open(&torn_path)
                .unwrap_or_else(|e| panic!("line {i} cut at byte {cut}: {e}"));
            // Any cut at or strictly inside line i tears it, leaving exactly
            // the complete lines 0..i.
            assert_eq!(records.len(), i, "line {i} cut at byte {cut}: wrong prefix length");
            assert_eq!(&records[..], &ref_records[..i], "line {i} cut at byte {cut}");
        }
        start += line.len();
    }
    std::fs::remove_dir_all(&scratch).ok();

    // Resuming from a torn journal lands byte-identical to the complete run,
    // sampled at an early, middle, and late tear.
    let lines: Vec<&str> = journal_text.split_inclusive('\n').collect();
    for &i in &[1usize, lines.len() / 2, lines.len() - 1] {
        let start: usize = lines[..i].iter().map(|l| l.len()).sum();
        let cut = start + lines[i].len() / 2;
        let dir = run_dir(&format!("torn_resume_{i}"));
        copy_dir(&complete, &dir);
        std::fs::write(dir.join(JOURNAL_FILE), &journal_text[..cut]).unwrap();

        let (sys, report) =
            AutoCts::resume(AutoCtsConfig::test(), source_tasks(), &pre_cfg(), &dir)
                .unwrap_or_else(|e| panic!("resume from tear in line {i}: {e}"));
        assert_eq!(ref_report.epoch_losses, report.epoch_losses, "tear in line {i}");
        assert_eq!(params_of(&ref_sys), params_of(&sys), "tear in line {i}");
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&complete).ok();
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
        }
    }
}
