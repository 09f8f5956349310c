//! **Tables 9–12**: ablation studies of the zero-shot framework.
//!
//! Variants (Section 4.2.3):
//! - `w/o TS2Vec` — the task encoder is replaced by a frozen per-step MLP;
//! - `w/o Set-Transformer` — attention pooling replaced by mean pooling;
//! - `w/o shared samples` — pre-training uses only per-task random samples.
//!
//! Each variant pre-trains its own comparator, then searches every target
//! task; one table per forecasting setting, as in the paper.
//!
//! ```sh
//! cargo run --release -p octs-bench --bin exp_ablation [-- --quick]
//! ```

use autocts::AutoCts;
use octs_bench::{ms, results_dir, system_config, target_task, MetricAgg, Scale, Table};
use octs_comparator::{
    label_task, pretrain_tahc, shared_pool, EmbedKind, LabeledBank, PoolKind, TaskSamples,
};
use octs_data::{enrich_tasks, metrics::MeanStd, Mode};

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

/// Pre-trains one variant. The expensive early-validation labels are shared
/// across variants (they are embedder/comparator-independent); the
/// `w/o shared samples` variant re-labels its own pool layout.
fn build_variant(
    variant: Variant,
    scale: Scale,
    tasks: &[octs_data::ForecastTask],
    labels: &[TaskSamples],
) -> AutoCts {
    let mut cfg = system_config(scale);
    match variant {
        Variant::Full => {}
        Variant::NoTs2Vec => cfg.tahc.task.embed = EmbedKind::Mlp,
        Variant::NoSetTransformer => cfg.tahc.task.pool = PoolKind::MeanPool,
        Variant::NoSharedSamples => {}
    }
    let mut sys = AutoCts::new(cfg);
    let mut pre = scale.pretrain_cfg();
    let mut samples = labels.to_vec();
    if variant == Variant::NoSharedSamples {
        // move the shared pool into the random pool: same budget, no shared
        // yardstick across tasks
        for s in &mut samples {
            let mut moved = std::mem::take(&mut s.shared);
            s.random.append(&mut moved);
        }
        pre.l_random += pre.l_shared;
        pre.l_shared = 0;
        pre.curriculum_step = pre.l_random;
    }
    eprintln!("[ablation] pre-training variant '{}' ...", variant.name());
    let t0 = std::time::Instant::now();
    let datasets: Vec<&octs_data::CtsData> = tasks.iter().map(|t| &t.data).collect();
    sys.embedder.pretrain_encoder(&datasets);
    let prelims = tasks.iter().map(|t| sys.embedder.preliminary(t)).collect();
    let bank = LabeledBank { prelims, samples };
    let report = pretrain_tahc(&mut sys.tahc, &bank, &pre);
    sys.mark_pretrained();
    eprintln!(
        "[ablation]   done in {:.1?} (holdout accuracy {:.3})",
        t0.elapsed(),
        report.holdout_accuracy
    );
    sys
}

type MetricRow = (&'static str, fn(&MetricAgg) -> MeanStd);

fn main() {
    let scale = Scale::from_args();
    let train_cfg = scale.train_cfg();
    // Ablations multiply the whole pipeline by four variants, so the final
    // selection trains only the single top-ranked candidate per search and
    // one replicate (recorded in EXPERIMENTS.md).
    let evolve_cfg = octs_search::EvolveConfig { top_k: 1, ..scale.evolve_cfg() };

    let mut targets = scale.targets();
    targets.truncate(2);

    let tasks = enrich_tasks(&scale.source_profiles(), &scale.enrich_cfg());
    eprintln!(
        "[ablation] labelling {} pre-training tasks once (shared across variants) ...",
        tasks.len()
    );
    let t0 = std::time::Instant::now();
    let (space, pre) = (system_config(scale).space, scale.pretrain_cfg());
    let pool = shared_pool(&space, &pre);
    let labels: Vec<TaskSamples> =
        tasks.iter().enumerate().map(|(ti, t)| label_task(t, ti, &pool, &space, &pre)).collect();
    eprintln!("[ablation]   labels collected in {:.1?}", t0.elapsed());

    let mut systems: Vec<(Variant, AutoCts)> =
        Variant::ALL.iter().map(|v| (*v, build_variant(*v, scale, &tasks, &labels))).collect();

    for (si, setting) in scale.settings().into_iter().enumerate() {
        let table_no = 9 + si;
        let is_single = setting.mode == Mode::SingleStep;
        let mut table = Table::new(
            &format!("Table {table_no}: ablation studies, {} forecasting", setting.id()),
            &[
                "Dataset",
                "Metric",
                "AutoCTS++",
                "w/o TS2Vec",
                "w/o Set-Transformer",
                "w/o shared samples",
            ],
        );
        for profile in &targets {
            let task = target_task(profile, setting, scale, 1);
            eprintln!("[ablation] {} ...", task.id());

            let aggs: Vec<MetricAgg> = systems
                .iter_mut()
                .map(|(_, sys)| {
                    // the search already trains its (single) finalist — reuse
                    // that report as the measurement
                    let out = sys.search(&task, &evolve_cfg, &train_cfg);
                    MetricAgg::from_reports(&[out.best_report])
                })
                .collect();

            let metric_rows: Vec<MetricRow> = if is_single {
                vec![("RRSE", |a| a.rrse), ("CORR", |a| a.corr)]
            } else {
                vec![("MAE", |a| a.mae), ("RMSE", |a| a.rmse), ("MAPE%", |a| a.mape)]
            };
            for (mname, get) in metric_rows {
                let mut cells = vec![task.data.name.clone(), mname.to_string()];
                for agg in &aggs {
                    let v = get(agg);
                    cells.push(ms(v.mean, v.std));
                }
                table.row(cells);
            }
        }
        table.emit(
            results_dir(),
            &format!("table{table_no}_ablation_{}", setting.id().replace('/', "_")),
        );
    }
}
