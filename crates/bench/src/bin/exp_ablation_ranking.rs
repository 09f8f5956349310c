//! **Tables 9–12 (ranking-quality form)**: the ablation signal with the
//! search-variance removed.
//!
//! At this repository's scale, measuring each ablation variant by the test
//! error of ONE searched model per task drowns the component effect in
//! search noise (see EXPERIMENTS.md). This harness measures what the
//! ablated components actually serve: the comparator's **zero-shot ranking
//! quality on unseen tasks** — pairwise accuracy and Kendall τ against
//! early-validation ground truth over labelled candidate pools the
//! comparator has never seen, on datasets it has never seen.
//!
//! ```sh
//! cargo run --release -p octs-bench --bin exp_ablation_ranking [-- --quick]
//! ```

use autocts::AutoCts;
use octs_bench::{f, results_dir, system_config, target_task, Scale, Table};
use octs_comparator::{
    calibrate, label_task, pretrain_tahc, ranking_fidelity, shared_pool, EmbedKind, LabeledAh,
    LabeledBank, PoolKind, TaskSamples,
};
use octs_data::{enrich_tasks, ForecastSetting};
use octs_model::early_validation;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Variant {
    Full,
    NoTs2Vec,
    NoSetTransformer,
    NoSharedSamples,
}

impl Variant {
    const ALL: [Variant; 4] =
        [Variant::Full, Variant::NoTs2Vec, Variant::NoSetTransformer, Variant::NoSharedSamples];

    fn name(self) -> &'static str {
        match self {
            Variant::Full => "AutoCTS++",
            Variant::NoTs2Vec => "w/o TS2Vec",
            Variant::NoSetTransformer => "w/o Set-Transformer",
            Variant::NoSharedSamples => "w/o shared samples",
        }
    }
}

fn main() {
    let scale = Scale::from_args();
    let space = system_config(scale).space;

    // Shared, embedder-independent pre-training labels.
    let mut source_tasks = enrich_tasks(&scale.source_profiles(), &scale.enrich_cfg());
    if scale == Scale::Quick {
        source_tasks.truncate(4);
    }
    eprintln!("[ablation-rank] labelling {} source tasks once ...", source_tasks.len());
    let pre_cfg = scale.pretrain_cfg();
    let pool = shared_pool(&space, &pre_cfg);
    let labels: Vec<TaskSamples> = source_tasks
        .iter()
        .enumerate()
        .map(|(ti, t)| label_task(t, ti, &pool, &space, &pre_cfg))
        .collect();

    // Unseen-task evaluation pools: labelled candidates on target datasets.
    let pool_size = if scale == Scale::Quick { 6 } else { 10 };
    let mut targets = scale.targets();
    targets.truncate(if scale == Scale::Quick { 1 } else { 3 });
    let eval_setting = ForecastSetting::p24_q24();
    eprintln!(
        "[ablation-rank] labelling {} candidates on {} unseen tasks ...",
        pool_size,
        targets.len()
    );
    let eval_tasks: Vec<_> =
        targets.iter().map(|p| target_task(p, eval_setting, scale, 1)).collect();
    let eval_pools: Vec<Vec<LabeledAh>> = eval_tasks
        .iter()
        .map(|task| {
            use rand::SeedableRng;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xE7);
            space
                .sample_distinct(pool_size, &mut rng)
                .into_iter()
                .map(|ah| LabeledAh {
                    score: early_validation(&ah, task, &scale.label_cfg()),
                    ah,
                    quarantined: false,
                })
                .collect()
        })
        .collect();

    let mut table = Table::new(
        "Ablation (ranking-quality form): zero-shot comparator quality on unseen tasks",
        &["Variant", "holdout acc (seen tasks)", "pairwise acc (unseen)", "Kendall τ (unseen)"],
    );

    for variant in Variant::ALL {
        let mut cfg = system_config(scale);
        match variant {
            Variant::Full => {}
            Variant::NoTs2Vec => cfg.tahc.task.embed = EmbedKind::Mlp,
            Variant::NoSetTransformer => cfg.tahc.task.pool = PoolKind::MeanPool,
            Variant::NoSharedSamples => {}
        }
        let mut sys = AutoCts::new(cfg);
        let mut pre = pre_cfg.clone();
        let mut samples: Vec<TaskSamples> = labels.clone();
        if variant == Variant::NoSharedSamples {
            for s in &mut samples {
                let mut moved = std::mem::take(&mut s.shared);
                s.random.append(&mut moved);
            }
            pre.l_random += pre.l_shared;
            pre.l_shared = 0;
            pre.curriculum_step = pre.l_random;
        }
        eprintln!("[ablation-rank] pre-training '{}' ...", variant.name());
        let datasets: Vec<&octs_data::CtsData> = source_tasks.iter().map(|t| &t.data).collect();
        sys.embedder.pretrain_encoder(&datasets);
        let prelims = source_tasks.iter().map(|t| sys.embedder.preliminary(t)).collect();
        let bank = LabeledBank { prelims, samples };
        let report = pretrain_tahc(&mut sys.tahc, &bank, &pre);

        // Zero-shot quality on the unseen pools.
        let mut accs = Vec::new();
        let mut taus = Vec::new();
        for (task, pool) in eval_tasks.iter().zip(&eval_pools) {
            let prelim = sys.embedder.preliminary(task);
            let cal = calibrate(&sys.tahc, Some(&prelim), pool, 1);
            accs.push(cal.overall);
            taus.push(ranking_fidelity(&sys.tahc, Some(&prelim), pool));
        }
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len().max(1) as f32;
        table.row(vec![
            variant.name().to_string(),
            f(report.holdout_accuracy),
            f(mean(&accs)),
            f(mean(&taus)),
        ]);
    }
    table.emit(results_dir(), "ablation_ranking_quality");
}
