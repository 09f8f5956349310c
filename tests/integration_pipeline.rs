//! End-to-end pipeline integration: enrichment → pre-training → zero-shot
//! search → checkpointing, across crate boundaries, at test scale.

use autocts::prelude::*;
use autocts::AutoCts;

fn source_tasks() -> Vec<ForecastTask> {
    let mk = |name: &str, domain, seed| {
        let p = DatasetProfile::custom(name, domain, 3, 200, 24, 0.3, 0.1, 10.0, seed);
        ForecastTask::new(p.generate(0), ForecastSetting::multi(4, 2), 0.6, 0.2, 2)
    };
    vec![mk("s-traffic", Domain::Traffic, 101), mk("s-energy", Domain::Energy, 102)]
}

fn unseen_task() -> ForecastTask {
    let p = DatasetProfile::custom("t-demand", Domain::Demand, 3, 200, 24, 0.3, 0.2, 10.0, 103);
    ForecastTask::new(p.generate(0), ForecastSetting::multi(4, 2), 0.6, 0.2, 2)
}

#[test]
fn pretrain_search_checkpoint_roundtrip() {
    let mut sys = AutoCts::new(AutoCtsConfig::test());
    let report = sys.pretrain(source_tasks(), &PretrainConfig::test());
    assert!(report.holdout_accuracy >= 0.0 && report.holdout_accuracy <= 1.0);

    let task = unseen_task();
    let evolve = EvolveConfig { k_s: 10, generations: 1, top_k: 2, ..EvolveConfig::test() };
    let out = sys.search(&task, &evolve, &TrainConfig::test());
    assert_eq!(out.finalists.len(), 2);
    assert!(out.best_report.test.mae.is_finite());
    assert!(out.best_report.test.mae > 0.0);

    // Checkpoint roundtrip must preserve search behaviour bit-for-bit.
    let path = std::env::temp_dir().join("autocts_integration_ckpt.json");
    sys.save(&path).unwrap();
    let mut restored = AutoCts::load(&path).unwrap();
    let out2 = restored.search(&task, &evolve, &TrainConfig::test());
    assert_eq!(out.best, out2.best, "restored comparator must pick the same winner");
    std::fs::remove_file(path).ok();
}

#[test]
fn enrichment_feeds_pretraining() {
    // The paper's task-enrichment path: profiles → subsets → tasks → bank.
    let profiles: Vec<DatasetProfile> = octs_data::source_profiles().into_iter().take(2).collect();
    let cfg = EnrichConfig {
        subsets_per_dataset: 2,
        settings: vec![ForecastSetting::multi(4, 2)],
        stride: 8,
        ..EnrichConfig::default()
    };
    let tasks = octs_data::enrich_tasks(&profiles, &cfg);
    assert!(tasks.len() >= 2);

    let mut sys = AutoCts::new(AutoCtsConfig::test());
    let pre_cfg = PretrainConfig { l_shared: 3, l_random: 3, epochs: 2, ..PretrainConfig::test() };
    let report = sys.pretrain(tasks.into_iter().take(2).collect(), &pre_cfg);
    assert_eq!(report.epoch_losses.len(), 2);
}

#[test]
fn pretraining_learns_consistent_labels() {
    // Algorithm 1 end-to-end with *noise-free* labels: overwrite the bank's
    // early-validation scores with a consistent rule (smaller H is better),
    // then the pre-trained comparator must recover that ordering with high
    // holdout accuracy. This isolates the pipeline from proxy-label noise,
    // which the tiny test-scale configs cannot average away.
    let mut sys = AutoCts::new(AutoCtsConfig::test());
    let cfg = PretrainConfig { l_shared: 6, l_random: 6, epochs: 14, ..PretrainConfig::test() };
    let tasks = source_tasks().into_iter().enumerate();
    let mut bank =
        octs_comparator::collect_labeled_bank(tasks, &mut sys.embedder, &sys.cfg.space, &cfg);
    for ts in &mut bank.samples {
        for l in ts.shared.iter_mut().chain(ts.random.iter_mut()) {
            l.score = l.ah.hyper.h as f32 + 0.01 * l.ah.hyper.b as f32;
        }
    }
    let report = octs_comparator::pretrain_tahc(&mut sys.tahc, &bank, &cfg);
    assert!(
        report.holdout_accuracy >= 0.7,
        "comparator failed to learn a consistent rule: {}",
        report.holdout_accuracy
    );
}
