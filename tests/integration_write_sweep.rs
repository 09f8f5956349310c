//! Crash-point sweep over every durable write of one journaled bank run: a
//! kill at the commit of each file — bank shards and manifest, task encoder,
//! shard-label sidecars, comparator epochs, the pre-trained artifact — must
//! leave the destination untouched, and a rerun of `write_bank` (or a
//! resume of the run) must land byte-identical to an uninterrupted run. A
//! registry publish killed at its site must leave the published versions
//! untouched and loadable.
//!
//! Every write commits through `octs_data::persist::AtomicFile`, whose fault
//! hook fires after the `.tmp` sibling is fsynced and before the rename. The
//! sites are discovered from the clean run's files, so a new kind of file
//! without a sweep case fails the test. Each kill arms its fault plan on the
//! test thread's run context only.

use autocts::data::bank::{write_bank, BankConfig};
use autocts::data::{Adjacency, EnrichConfig};
use autocts::model::{Forecaster, ModelDims};
use autocts::prelude::*;
use autocts::tensor::Tensor;
use autocts::{fault, AutoCts, BankRunOptions, CoreError};
use octs_serve::{ModelRegistry, ServableCheckpoint, PUBLISH_FAULT_SITE};
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn bank_cfg() -> BankConfig {
    let profiles = vec![
        DatasetProfile::custom("ws-traffic", Domain::Traffic, 3, 200, 24, 0.3, 0.1, 10.0, 601),
        DatasetProfile::custom("ws-energy", Domain::Energy, 3, 190, 24, 0.2, 0.1, 5.0, 602),
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
    BankConfig { n_tasks: 4, shard_tasks: 2, profiles, enrich, seed: 6060 }
}

fn pre_cfg() -> PretrainConfig {
    PretrainConfig { l_shared: 2, l_random: 2, epochs: 2, ..PretrainConfig::test() }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("octs_writesweep_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Every file of a directory, by name, with its bytes.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name().into_string().unwrap(), std::fs::read(e.path()).unwrap())
        })
        .collect()
}

fn assert_same_files(want: &BTreeMap<String, Vec<u8>>, dir: &Path, what: &str) {
    let got = files(dir);
    assert_eq!(want.keys().collect::<Vec<_>>(), got.keys().collect::<Vec<_>>(), "{what}: file set");
    for (name, bytes) in want {
        assert!(got[name] == *bytes, "{what}: {name} differs from the clean run");
    }
}

/// The fault site and op index a file of a bank or run directory commits
/// at; `None` for the journal, which is appended, not committed.
fn site_of(name: &str) -> Option<(&'static str, u64)> {
    let index = |prefix: &str, suffix: &str| -> Option<u64> {
        name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()
    };
    if name == "progress.journal" {
        return None;
    }
    let site = match name {
        "manifest.json" => ("bank.manifest", 0),
        "encoder.ckpt" => ("run.encoder", 0),
        "pretrained.ckpt" => ("checkpoint.save", 0),
        _ => {
            if let Some(i) = index("shard_labels_", ".ckpt") {
                ("run.shard_labels", i)
            } else if let Some(i) = index("shard_", ".octs") {
                ("bank.shard", i)
            } else if let Some(i) = index("epoch_", ".ckpt") {
                ("run.epoch", i)
            } else {
                panic!("{name}: a file with no crash-point sweep case")
            }
        }
    };
    Some(site)
}

fn params_of(sys: &AutoCts) -> String {
    serde_json::to_string(&sys.tahc.ps.snapshot()).unwrap()
}

fn report_bits(r: &autocts::comparator::PretrainReport) -> (Vec<u32>, u32) {
    (r.epoch_losses.iter().map(|l| l.to_bits()).collect(), r.holdout_accuracy.to_bits())
}

fn assert_killed(err: CoreError, site: &str, op: u64) {
    assert!(matches!(err, CoreError::Io { op: "rename", .. }), "kill at {site}#{op}: {err}");
}

fn assert_tmp_only(dir: &Path, name: &str, site: &str, op: u64) {
    assert!(!dir.join(name).exists(), "kill at {site}#{op}: {name} must not be published");
    assert!(
        dir.join(format!("{name}.tmp")).exists(),
        "kill at {site}#{op}: the complete {name}.tmp is left behind"
    );
}

#[test]
fn kill_at_every_write_site_reruns_byte_identical() {
    let cfg = bank_cfg();
    let pre = pre_cfg();
    let opts = BankRunOptions::default();

    let clean_bank = tmp_dir("clean_bank");
    let clean_run = tmp_dir("clean_run");
    write_bank(&clean_bank, &cfg).unwrap();
    let mut clean = AutoCts::new(AutoCtsConfig::test());
    let clean_report = clean.pretrain_bank_journaled(&clean_bank, &pre, &clean_run, &opts).unwrap();
    let (bank_files, run_files) = (files(&clean_bank), files(&clean_run));

    let mut sites: Vec<(&'static str, u64, String)> = Vec::new();
    for name in bank_files.keys().chain(run_files.keys()) {
        if let Some((site, op)) = site_of(name) {
            sites.push((site, op, name.clone()));
        }
    }
    // 2 shards + manifest; encoder + 2 sidecars + 2 epochs + artifact.
    assert_eq!(sites.len(), 3 + 1 + 2 + 2 + 1, "{sites:?}");

    for (site, op, name) in &sites {
        let (site, op) = (*site, *op);
        let what = format!("kill at {site}#{op}");
        let bank = tmp_dir(&format!("bank_{site}_{op}"));
        let run = tmp_dir(&format!("run_{site}_{op}"));
        let plan = fault::FaultPlan::new().io_error(site, op);
        if site.starts_with("bank.") {
            {
                let _scope = fault::FaultScope::activate(plan);
                assert_killed(write_bank(&bank, &cfg).unwrap_err(), site, op);
            }
            assert_tmp_only(&bank, name, site, op);
            write_bank(&bank, &cfg).unwrap_or_else(|e| panic!("{what}: rerun failed: {e}"));
        } else {
            write_bank(&bank, &cfg).unwrap();
            {
                let _scope = fault::FaultScope::activate(plan);
                let mut sys = AutoCts::new(AutoCtsConfig::test());
                let err = sys.pretrain_bank_journaled(&bank, &pre, &run, &opts).unwrap_err();
                assert_killed(err, site, op);
            }
            assert_tmp_only(&run, name, site, op);
        }
        assert_same_files(&bank_files, &bank, &what);

        let (sys, report) = AutoCts::resume_bank(AutoCtsConfig::test(), &bank, &pre, &run, &opts)
            .unwrap_or_else(|e| panic!("{what}: resume failed: {e}"));
        assert_eq!(report_bits(&clean_report), report_bits(&report), "{what}: report bits");
        assert_eq!(params_of(&clean), params_of(&sys), "{what}: params must match bitwise");
        assert_same_files(&run_files, &run, &what);
        std::fs::remove_dir_all(&bank).ok();
        std::fs::remove_dir_all(&run).ok();
    }
    std::fs::remove_dir_all(&clean_bank).ok();
    std::fs::remove_dir_all(&clean_run).ok();
}

fn servable(task: &str, seed: u64) -> ServableCheckpoint {
    let ah = JointSpace::tiny().sample(&mut rand_chacha::ChaCha8Rng::seed_from_u64(7));
    let adj = Adjacency::identity(3);
    let mut fc = Forecaster::new(ah, ModelDims { n: 3, f: 2, p: 12, out_steps: 3 }, &adj, seed);
    fc.training = false;
    fc.predict(&Tensor::zeros([1, 2, 3, 12])); // materialize all parameters
    ServableCheckpoint::new(task, &fc, &adj, seed)
}

#[test]
fn killed_publish_keeps_versions_and_the_next_publish_takes_the_next_version() {
    let root = tmp_dir("registry");
    let reg = ModelRegistry::open(&root).unwrap();
    assert_eq!(reg.publish(&mut servable("t", 1)).unwrap(), 1);
    let v1 = std::fs::read(root.join("t").join("v00001.ckpt")).unwrap();

    {
        let _scope =
            fault::FaultScope::activate(fault::FaultPlan::new().io_error(PUBLISH_FAULT_SITE, 2));
        let err = reg.publish(&mut servable("t", 2)).unwrap_err();
        assert_killed(err, PUBLISH_FAULT_SITE, 2);
    }
    assert_eq!(reg.versions("t"), vec![1], "a killed publish adds no version");
    assert_eq!(reg.load_latest("t").unwrap().version, 1);
    assert_eq!(std::fs::read(root.join("t").join("v00001.ckpt")).unwrap(), v1);

    assert_eq!(reg.publish(&mut servable("t", 2)).unwrap(), 2);
    assert_eq!(reg.versions("t"), vec![1, 2]);
    assert_eq!(reg.load_latest("t").unwrap().seed, 2);
    std::fs::remove_dir_all(&root).ok();
}
