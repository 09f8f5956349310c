//! Kill-and-resume integration: a journaled pre-training run aborted at an
//! arbitrary point — mid-labelling, at an epoch boundary, even mid-append —
//! must resume from the last completed task and finish **byte-identical** to
//! an uninterrupted run. Crashes are simulated with deterministic injected
//! IO faults (and raw journal truncation for the torn-write case).
//!
//! Each kill arms its fault plan on the test thread's run context only, so
//! the clean runs need no scope and concurrent tests never see each other's
//! faults.

use autocts::prelude::*;
use autocts::{fault, AutoCts, CoreError, JOURNAL_FILE};
use std::path::PathBuf;

fn source_tasks() -> Vec<ForecastTask> {
    let mk = |name: &str, domain, seed| {
        let p = DatasetProfile::custom(name, domain, 3, 200, 24, 0.3, 0.1, 10.0, seed);
        ForecastTask::new(p.generate(0), ForecastSetting::multi(4, 2), 0.6, 0.2, 2)
    };
    vec![mk("r-traffic", Domain::Traffic, 201), mk("r-energy", Domain::Energy, 202)]
}

fn pre_cfg() -> PretrainConfig {
    PretrainConfig { l_shared: 3, l_random: 3, epochs: 3, ..PretrainConfig::test() }
}

fn run_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("octs_resume_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The comparator parameters, serialized — the byte-equality witness.
fn params_of(sys: &AutoCts) -> String {
    serde_json::to_string(&sys.tahc.ps.snapshot()).unwrap()
}

/// One uninterrupted reference run in its own directory.
fn reference(name: &str) -> (AutoCts, octs_comparator::PretrainReport) {
    let dir = run_dir(&format!("reference_{name}"));
    let (sys, report) =
        AutoCts::resume(AutoCtsConfig::test(), source_tasks(), &pre_cfg(), &dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    (sys, report)
}

#[test]
fn killed_mid_labelling_resumes_byte_identical() {
    let (ref_sys, ref_report) = reference("label_kill");
    let dir = run_dir("label_kill");

    // Crash on the second task's append (seq 0 = fingerprint, 1 = encoder,
    // one record per task from 2): task 0's labels are journaled, task 1's
    // sidecar is written but never recorded, so the resume relabels it.
    {
        let _scope =
            fault::FaultScope::activate(fault::FaultPlan::new().io_error("journal.append", 3));
        let mut sys = AutoCts::new(AutoCtsConfig::test());
        let err = sys.pretrain_journaled(source_tasks(), &pre_cfg(), &dir).unwrap_err();
        assert!(matches!(err, CoreError::Io { op: "append", .. }), "{err}");
        assert!(!sys.is_pretrained());
    }

    // A fresh process resumes the directory and must land exactly where the
    // uninterrupted run did.
    let (sys, report) =
        AutoCts::resume(AutoCtsConfig::test(), source_tasks(), &pre_cfg(), &dir).unwrap();
    assert!(sys.is_pretrained());
    assert_eq!(ref_report.epoch_losses, report.epoch_losses);
    assert_eq!(
        ref_report.holdout_accuracy.to_bits(),
        report.holdout_accuracy.to_bits(),
        "resumed holdout accuracy must match bitwise"
    );
    assert_eq!(params_of(&ref_sys), params_of(&sys), "comparator params must match bitwise");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_at_epoch_boundary_resumes_byte_identical() {
    let (ref_sys, ref_report) = reference("epoch_kill");
    let dir = run_dir("epoch_kill");
    let n_tasks = source_tasks().len() as u64;

    // Crash on the *second* epoch record append: epoch 1 is journaled with
    // its sidecar, epoch 2's sidecar exists but its record never lands.
    {
        let _scope = fault::FaultScope::activate(
            fault::FaultPlan::new().io_error("journal.append", 2 + n_tasks + 1),
        );
        let mut sys = AutoCts::new(AutoCtsConfig::test());
        let err = sys.pretrain_journaled(source_tasks(), &pre_cfg(), &dir).unwrap_err();
        assert!(matches!(err, CoreError::Io { op: "append", .. }), "{err}");
    }
    assert!(dir.join("epoch_0001.ckpt").exists());

    let (sys, report) =
        AutoCts::resume(AutoCtsConfig::test(), source_tasks(), &pre_cfg(), &dir).unwrap();
    assert_eq!(ref_report.epoch_losses, report.epoch_losses);
    assert_eq!(params_of(&ref_sys), params_of(&sys));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_journal_tail_resumes_byte_identical() {
    let (ref_sys, ref_report) = reference("torn");
    let dir = run_dir("torn");

    // Abort mid-labelling, then mangle the journal the way a power cut does:
    // chop the last line short. The torn record's task is simply relabelled.
    {
        let _scope =
            fault::FaultScope::activate(fault::FaultPlan::new().io_error("journal.append", 3));
        let mut sys = AutoCts::new(AutoCtsConfig::test());
        sys.pretrain_journaled(source_tasks(), &pre_cfg(), &dir).unwrap_err();
    }
    let journal = dir.join(JOURNAL_FILE);
    let text = std::fs::read_to_string(&journal).unwrap();
    std::fs::write(&journal, &text[..text.len() - 9]).unwrap();

    let (sys, report) =
        AutoCts::resume(AutoCtsConfig::test(), source_tasks(), &pre_cfg(), &dir).unwrap();
    assert_eq!(ref_report.epoch_losses, report.epoch_losses);
    assert_eq!(params_of(&ref_sys), params_of(&sys));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journal_with_dropped_record_fields_resumes_byte_identical() {
    // Journals written before `Record` lost its `bits` and `quarantined`
    // fields carry `"bits":0,"quarantined":false` on every line. Replay
    // reads fields by name, so such a journal must still resume exactly.
    let (ref_sys, ref_report) = reference("old_format");
    let dir = run_dir("old_format");
    {
        let _scope =
            fault::FaultScope::activate(fault::FaultPlan::new().io_error("journal.append", 3));
        let mut sys = AutoCts::new(AutoCtsConfig::test());
        sys.pretrain_journaled(source_tasks(), &pre_cfg(), &dir).unwrap_err();
    }
    let journal = dir.join(JOURNAL_FILE);
    let old_format: String = std::fs::read_to_string(&journal)
        .unwrap()
        .lines()
        .map(|line| {
            let (_, json) = line.split_once(' ').unwrap();
            let json =
                json.replacen(",\"epoch\":", ",\"bits\":0,\"quarantined\":false,\"epoch\":", 1);
            format!("{:016x} {json}\n", autocts::persist::fnv64(json.as_bytes()))
        })
        .collect();
    assert_eq!(old_format.matches("\"quarantined\":false").count(), 3, "{old_format}");
    std::fs::write(&journal, old_format).unwrap();

    let (sys, report) =
        AutoCts::resume(AutoCtsConfig::test(), source_tasks(), &pre_cfg(), &dir).unwrap();
    assert_eq!(ref_report.epoch_losses, report.epoch_losses);
    assert_eq!(params_of(&ref_sys), params_of(&sys));
    // The old shard record was replayed, not dropped as a torn tail.
    let resumed = std::fs::read_to_string(&journal).unwrap();
    assert!(resumed.lines().nth(2).unwrap().contains("\"quarantined\":false"), "{resumed}");
    assert!(!resumed.lines().nth(3).unwrap().contains("\"quarantined\""), "{resumed}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resuming_a_completed_run_is_idempotent() {
    let dir = run_dir("idempotent");
    let (first_sys, first) =
        AutoCts::resume(AutoCtsConfig::test(), source_tasks(), &pre_cfg(), &dir).unwrap();
    let (again_sys, again) =
        AutoCts::resume(AutoCtsConfig::test(), source_tasks(), &pre_cfg(), &dir).unwrap();
    assert_eq!(first.epoch_losses, again.epoch_losses);
    assert_eq!(first.holdout_accuracy.to_bits(), again.holdout_accuracy.to_bits());
    assert_eq!(params_of(&first_sys), params_of(&again_sys));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn changed_configuration_is_refused() {
    let dir = run_dir("mismatch");
    AutoCts::resume(AutoCtsConfig::test(), source_tasks(), &pre_cfg(), &dir).unwrap();

    let other = PretrainConfig { seed: 999, ..pre_cfg() };
    let mut sys = AutoCts::new(AutoCtsConfig::test());
    let err = sys.pretrain_journaled(source_tasks(), &other, &dir).unwrap_err();
    assert!(matches!(err, CoreError::Mismatch { .. }), "{err}");
    assert!(err.to_string().contains("fingerprint"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn changed_task_list_is_refused() {
    // The journal's label sidecars belong to the tasks that produced them:
    // resuming with one task swapped must not replay them against the new
    // task's embedding.
    let dir = run_dir("tasks_mismatch");
    AutoCts::resume(AutoCtsConfig::test(), source_tasks(), &pre_cfg(), &dir).unwrap();

    let mut tasks = source_tasks();
    let p = DatasetProfile::custom("r-solar", Domain::Solar, 3, 200, 24, 0.3, 0.1, 10.0, 203);
    tasks[1] = ForecastTask::new(p.generate(0), ForecastSetting::multi(4, 2), 0.6, 0.2, 2);
    let mut sys = AutoCts::new(AutoCtsConfig::test());
    let err = sys.pretrain_journaled(tasks, &pre_cfg(), &dir).unwrap_err();
    assert!(matches!(err, CoreError::Mismatch { .. }), "{err}");
    assert!(!sys.is_pretrained());
    std::fs::remove_dir_all(&dir).ok();
}
