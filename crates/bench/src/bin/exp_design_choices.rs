//! Design-choice ablations promised in DESIGN.md (beyond the paper's own
//! tables):
//!
//! 1. **Early-validation proxy depth** — the paper fixes `k = 5` epochs for
//!    the proxy labels `R'` (Eq. 22). Sweep `k ∈ {1, 3, 5, 10}` and report
//!    Spearman/Kendall agreement between proxy rankings and the "full
//!    training" ranking, plus labelling cost. Expected shape: agreement
//!    saturates around k = 5 while cost keeps growing.
//!
//! 2. **Round-Robin vs single-elimination top-K** — the comparator is not
//!    transitive, so the paper uses Round-Robin win counting. Compare the
//!    top-K overlap of Round-Robin against a (transitivity-assuming)
//!    comparison sort under the same comparator.
//!
//! ```sh
//! cargo run --release -p octs-bench --bin exp_design_choices [-- --quick]
//! ```

use octs_bench::{f, results_dir, Scale, Table};
use octs_comparator::{Tahc, TahcConfig};
use octs_data::{metrics, DatasetProfile, Domain, ForecastSetting, ForecastTask};
use octs_model::{early_validation, TrainConfig};
use octs_search::round_robin_rank;
use octs_space::{ArchHyper, HyperSpace, JointSpace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

fn main() {
    let scale = Scale::from_args();

    // ---------------------------------------------- 1. proxy-epoch sweep
    let profile = DatasetProfile::custom("design", Domain::Traffic, 6, 800, 48, 0.4, 0.1, 50.0, 55);
    let task = ForecastTask::new(profile.generate(0), ForecastSetting::p12_q12(), 0.7, 0.1, 4);
    let n_candidates = if scale == Scale::Quick { 6 } else { 16 };
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let candidates = JointSpace::scaled().sample_distinct(n_candidates, &mut rng);

    let score_at = |k: usize| -> (Vec<f32>, f32) {
        let cfg = TrainConfig { epochs: k, patience: 0, ..scale.label_cfg() };
        let t0 = Instant::now();
        let scores: Vec<f32> =
            candidates.iter().map(|ah| early_validation(ah, &task, &cfg)).collect();
        (scores, t0.elapsed().as_secs_f32())
    };

    let full_epochs = if scale == Scale::Quick { 6 } else { 14 };
    eprintln!(
        "[design] full-training reference ({full_epochs} epochs, {n_candidates} candidates) ..."
    );
    let (full_scores, full_time) = score_at(full_epochs);

    let mut t1 = Table::new(
        "Design ablation 1: early-validation proxy depth k vs full-training agreement",
        &["k", "Spearman", "Kendall", "top-1 hit", "label time (s)"],
    );
    for k in [1usize, 3, 5, 10] {
        let (scores, time) = score_at(k);
        let rho = metrics::spearman(&scores, &full_scores);
        let tau = metrics::kendall_tau(&scores, &full_scores);
        let argmin = |xs: &[f32]| {
            xs.iter().enumerate().min_by(|a, b| a.1.partial_cmp(b.1).unwrap()).map(|(i, _)| i)
        };
        let hit = (argmin(&scores) == argmin(&full_scores)) as usize;
        t1.row(vec![k.to_string(), f(rho), f(tau), hit.to_string(), format!("{time:.1}")]);
    }
    t1.row(vec![
        format!("full({full_epochs})"),
        f(1.0),
        f(1.0),
        "1".to_string(),
        format!("{full_time:.1}"),
    ]);
    t1.emit(results_dir(), "design1_proxy_epochs");

    // --------------------------------- 2. round-robin vs comparison sort
    let pool_size = if scale == Scale::Quick { 12 } else { 24 };
    let top_k = 3;
    let trials = if scale == Scale::Quick { 3 } else { 8 };
    let mut t2 = Table::new(
        "Design ablation 2: Round-Robin vs comparison-sort top-K under a non-transitive comparator",
        &["trial", "topK overlap", "RR comparisons", "sort comparisons (approx)"],
    );
    let mut overlaps = Vec::new();
    for trial in 0..trials {
        let mut rng = ChaCha8Rng::seed_from_u64(100 + trial);
        let pool = JointSpace::scaled().sample_distinct(pool_size, &mut rng);
        // an untrained comparator maximizes non-transitivity pressure
        let tahc = Tahc::new(
            TahcConfig { task_aware: false, ..TahcConfig::scaled() },
            HyperSpace::scaled(),
            trial,
        );
        let rr = round_robin_rank(&tahc, None, &pool).order;
        let rr_top: std::collections::HashSet<u64> =
            rr.iter().take(top_k).map(|&i| pool[i].fingerprint()).collect();

        // comparison sort that (incorrectly) assumes transitivity.
        // NOTE: std's sort_by PANICS when the comparator violates a total
        // order — which a neural comparator does — so use an insertion sort,
        // which tolerates (and silently mis-handles) non-transitivity. That
        // std detects the violation at all is itself evidence for the
        // paper's Round-Robin choice.
        let mut sorted: Vec<ArchHyper> = pool.clone();
        for i in 1..sorted.len() {
            let mut j = i;
            while j > 0 && tahc.compare(None, &sorted[j], &sorted[j - 1]) {
                sorted.swap(j, j - 1);
                j -= 1;
            }
        }
        let sort_top: std::collections::HashSet<u64> =
            sorted.iter().take(top_k).map(ArchHyper::fingerprint).collect();

        let overlap = rr_top.intersection(&sort_top).count() as f32 / top_k as f32;
        overlaps.push(overlap);
        let n = pool_size as f32;
        t2.row(vec![
            trial.to_string(),
            f(overlap),
            format!("{}", pool_size * (pool_size - 1) / 2),
            format!("{:.0}", n * n.log2()),
        ]);
    }
    let mean_overlap = overlaps.iter().sum::<f32>() / overlaps.len() as f32;
    t2.emit(results_dir(), "design2_round_robin");
    println!(
        "\nmean top-{top_k} overlap {mean_overlap:.2} — values below 1.0 quantify how much a \
         transitivity-assuming sort diverges from Round-Robin under a neural comparator"
    );
}
