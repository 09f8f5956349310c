//! Sharded-bank pre-training equivalence and crash sweep: the streamed,
//! journaled bank pipeline must be byte-identical to the in-memory path on a
//! single-shard bank (golden-pinned), byte-identical for any worker count
//! and prefetch window, and bit-identically resumable after a kill at every
//! journal append — including every shard boundary — even when the resume
//! runs under different execution geometry.
//!
//! Each kill arms its fault plan on the test thread's run context only, so
//! the clean runs need no scope and concurrent tests never see each other's
//! faults.

use autocts::comparator::PretrainReport;
use autocts::data::bank::{write_bank, BankConfig};
use autocts::data::EnrichConfig;
use autocts::prelude::*;
use autocts::{fault, persist, AutoCts, BankRunOptions, CoreError, Journal, JOURNAL_FILE};
use octs_testkit::golden::check_against_fixture;
use octs_testkit::Gen;
use serde::Serialize;
use std::path::PathBuf;

fn bank_cfg(n_tasks: usize, shard_tasks: usize) -> BankConfig {
    let profiles = vec![
        DatasetProfile::custom("bw-traffic", Domain::Traffic, 3, 200, 24, 0.3, 0.1, 10.0, 501),
        DatasetProfile::custom("bw-energy", Domain::Energy, 3, 190, 24, 0.2, 0.1, 5.0, 502),
    ];
    let enrich = EnrichConfig {
        subsets_per_dataset: 1,
        time_frac: (0.6, 0.9),
        series_frac: (0.7, 1.0),
        settings: vec![ForecastSetting::multi(4, 2), ForecastSetting::multi(6, 2)],
        min_spans: 8,
        stride: 2,
        seed: 0,
    };
    BankConfig { n_tasks, shard_tasks, profiles, enrich, seed: 4242 }
}

fn pre_cfg() -> PretrainConfig {
    PretrainConfig { l_shared: 2, l_random: 2, epochs: 2, ..PretrainConfig::test() }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("octs_banksweep_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The comparator parameters, serialized — the byte-equality witness.
fn params_of(sys: &AutoCts) -> String {
    serde_json::to_string(&sys.tahc.ps.snapshot()).unwrap()
}

fn assert_same(a: (&AutoCts, &PretrainReport), b: (&AutoCts, &PretrainReport), what: &str) {
    let bits =
        |r: &PretrainReport| -> Vec<u32> { r.epoch_losses.iter().map(|l| l.to_bits()).collect() };
    assert_eq!(bits(a.1), bits(b.1), "{what}: epoch losses must match bitwise");
    assert_eq!(
        a.1.holdout_accuracy.to_bits(),
        b.1.holdout_accuracy.to_bits(),
        "{what}: holdout accuracy must match bitwise"
    );
    assert_eq!(params_of(a.0), params_of(b.0), "{what}: params must match bitwise");
}

/// What the golden fixture pins about a streamed pre-training run.
#[derive(Serialize)]
struct BankGolden {
    schema_version: u32,
    scenario: String,
    epoch_loss_bits: Vec<u32>,
    holdout_accuracy_bits: u32,
    params_fnv64: String,
}

#[test]
fn single_shard_bank_matches_in_memory_pretrain_and_golden() {
    // All three pre-training entry points on the same tasks land on the
    // golden bits: `pretrain` (no journal), `pretrain_journaled` (in-memory
    // tasks, one shard per task) and `pretrain_bank_journaled` (one bank
    // shard, so the encoder sees the same datasets).
    let cfg = bank_cfg(4, 4);
    let pre = pre_cfg();

    let tasks: Vec<ForecastTask> = (0..cfg.n_tasks).map(|i| cfg.task(i)).collect();
    let mut in_memory = AutoCts::new(AutoCtsConfig::test());
    let mem_report = in_memory.pretrain(tasks.clone(), &pre);

    let journaled_dir = tmp_dir("golden_journaled");
    let mut journaled = AutoCts::new(AutoCtsConfig::test());
    let journaled_report = journaled.pretrain_journaled(tasks, &pre, &journaled_dir).unwrap();
    assert_same(
        (&in_memory, &mem_report),
        (&journaled, &journaled_report),
        "journaled vs in-memory",
    );

    let bank_dir = tmp_dir("golden_bank");
    write_bank(&bank_dir, &cfg).unwrap();
    let run_dir = tmp_dir("golden_run");
    let mut streamed = AutoCts::new(AutoCtsConfig::test());
    let stream_report = streamed
        .pretrain_bank_journaled(&bank_dir, &pre, &run_dir, &BankRunOptions::default())
        .unwrap();

    assert_same((&in_memory, &mem_report), (&streamed, &stream_report), "streamed vs in-memory");

    let golden = BankGolden {
        schema_version: 1,
        scenario: "bank_pretrain".to_string(),
        epoch_loss_bits: stream_report.epoch_losses.iter().map(|l| l.to_bits()).collect(),
        holdout_accuracy_bits: stream_report.holdout_accuracy.to_bits(),
        params_fnv64: format!("{:016x}", persist::fnv64(params_of(&streamed).as_bytes())),
    };
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join("bank_pretrain.json");
    if let Err(diff) = check_against_fixture(&fixture, &golden) {
        panic!("{diff}");
    }

    std::fs::remove_dir_all(&bank_dir).ok();
    std::fs::remove_dir_all(&run_dir).ok();
    std::fs::remove_dir_all(&journaled_dir).ok();
}

#[test]
fn any_worker_count_and_prefetch_window_is_byte_identical() {
    // Generated multi-shard bank: the layout (not the contents) comes from
    // the testkit generator, shard size pinned small so shards ≥ 3.
    let mut g = Gen::from_seed(11);
    let mut cfg = g.task_bank("wp");
    cfg.n_tasks = 6;
    cfg.shard_tasks = 2;
    let pre = pre_cfg();
    let bank_dir = tmp_dir("wp_bank");
    write_bank(&bank_dir, &cfg).unwrap();

    let run = |workers: usize, prefetch: usize| {
        let run_dir = tmp_dir(&format!("wp_run_w{workers}_p{prefetch}"));
        let mut sys = AutoCts::new(AutoCtsConfig::test());
        let report = sys
            .pretrain_bank_journaled(
                &bank_dir,
                &pre,
                &run_dir,
                &BankRunOptions { workers, prefetch },
            )
            .unwrap();
        std::fs::remove_dir_all(&run_dir).ok();
        (sys, report)
    };

    let (ref_sys, ref_report) = run(1, 2);
    for (workers, prefetch) in [(2, 1), (3, 4), (4, 8)] {
        let (sys, report) = run(workers, prefetch);
        assert_same(
            (&ref_sys, &ref_report),
            (&sys, &report),
            &format!("workers {workers} prefetch {prefetch}"),
        );
    }
    std::fs::remove_dir_all(&bank_dir).ok();
}

#[test]
fn kill_at_every_append_resumes_bit_identical_under_new_geometry() {
    // One task per shard puts a journal append at every shard boundary; the
    // sweep kills at every append (fingerprint, encoder, each shard, each
    // epoch, done) and resumes under different geometry (2 workers).
    let cfg = bank_cfg(4, 1);
    let pre = pre_cfg();
    let bank_dir = tmp_dir("kill_bank");
    write_bank(&bank_dir, &cfg).unwrap();

    let (ref_sys, ref_report, n_appends) = {
        let run_dir = tmp_dir("kill_ref");
        let mut sys = AutoCts::new(AutoCtsConfig::test());
        let report = sys
            .pretrain_bank_journaled(&bank_dir, &pre, &run_dir, &BankRunOptions::default())
            .unwrap();
        let (_, records) = Journal::open(run_dir.join(JOURNAL_FILE)).unwrap();
        std::fs::remove_dir_all(&run_dir).ok();
        (sys, report, records.len() as u64)
    };
    assert_eq!(
        n_appends,
        2 + cfg.n_shards() as u64 + pre.epochs as u64 + 1,
        "sweep must cover fingerprint/encoder/shards/epochs/done"
    );

    for k in 0..n_appends {
        let run_dir = tmp_dir(&format!("kill_{k}"));
        {
            let _scope =
                fault::FaultScope::activate(fault::FaultPlan::new().io_error("journal.append", k));
            let mut sys = AutoCts::new(AutoCtsConfig::test());
            let err = sys
                .pretrain_bank_journaled(&bank_dir, &pre, &run_dir, &BankRunOptions::default())
                .unwrap_err();
            assert!(matches!(err, CoreError::Io { op: "append", .. }), "append {k}: {err}");
        }
        let (sys, report) = AutoCts::resume_bank(
            AutoCtsConfig::test(),
            &bank_dir,
            &pre,
            &run_dir,
            &BankRunOptions { workers: 2, prefetch: 1 },
        )
        .unwrap_or_else(|e| panic!("resume after kill at append {k}: {e}"));
        assert_same((&ref_sys, &ref_report), (&sys, &report), &format!("killed at append {k}"));
        std::fs::remove_dir_all(&run_dir).ok();
    }
    std::fs::remove_dir_all(&bank_dir).ok();
}

#[test]
fn artifact_loads_pretrained_and_ranks_like_the_original() {
    let cfg = bank_cfg(4, 2);
    let pre = pre_cfg();
    let bank_dir = tmp_dir("artifact_bank");
    write_bank(&bank_dir, &cfg).unwrap();
    let run_dir = tmp_dir("artifact_run");
    let mut original = AutoCts::new(AutoCtsConfig::test());
    original
        .pretrain_bank_journaled(&bank_dir, &pre, &run_dir, &BankRunOptions::default())
        .unwrap();

    let mut restored = AutoCts::load_artifact(&run_dir).unwrap();
    assert!(restored.is_pretrained(), "artifact must carry pretrained state");

    let unseen = {
        let p = DatasetProfile::custom("bw-unseen", Domain::Solar, 3, 200, 24, 0.2, 0.1, 8.0, 777);
        ForecastTask::new(p.generate(0), ForecastSetting::multi(4, 2), 0.6, 0.2, 2)
    };
    let evolve = EvolveConfig { k_s: 8, generations: 1, top_k: 2, ..EvolveConfig::test() };
    let a = original.rank(&unseen, &evolve);
    let b = restored.rank(&unseen, &evolve);
    assert!(!b.ranked.is_empty());
    assert_eq!(
        a.ranked.iter().map(|ah| ah.fingerprint()).collect::<Vec<_>>(),
        b.ranked.iter().map(|ah| ah.fingerprint()).collect::<Vec<_>>(),
        "restored artifact must rank identically to the system that wrote it"
    );

    std::fs::remove_dir_all(&bank_dir).ok();
    std::fs::remove_dir_all(&run_dir).ok();
}

#[test]
fn resume_against_a_different_bank_is_refused() {
    let pre = pre_cfg();
    let bank_a = tmp_dir("mismatch_a");
    write_bank(&bank_a, &bank_cfg(2, 2)).unwrap();
    let bank_b = tmp_dir("mismatch_b");
    let mut other = bank_cfg(2, 2);
    other.seed ^= 0xDEAD;
    write_bank(&bank_b, &other).unwrap();

    let run_dir = tmp_dir("mismatch_run");
    let mut sys = AutoCts::new(AutoCtsConfig::test());
    sys.pretrain_bank_journaled(&bank_a, &pre, &run_dir, &BankRunOptions::default()).unwrap();

    let mut fresh = AutoCts::new(AutoCtsConfig::test());
    let err = fresh
        .pretrain_bank_journaled(&bank_b, &pre, &run_dir, &BankRunOptions::default())
        .unwrap_err();
    assert!(matches!(err, CoreError::Mismatch { .. }), "{err}");

    std::fs::remove_dir_all(&bank_a).ok();
    std::fs::remove_dir_all(&bank_b).ok();
    std::fs::remove_dir_all(&run_dir).ok();
}
