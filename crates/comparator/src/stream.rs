//! Streamed labelling: label tasks one at a time as they flow past, keeping
//! only the task-free residue the trainer reads.
//!
//! [`crate::pretrain::TahcTrainer`] reads only the preliminary embeddings and
//! the labelled samples, never the datasets, which are ~99% of a bank's
//! bytes. Every pre-training entry point exploits that split. Each task is
//! embedded and labelled the moment it arrives, its `(prelim, samples)` pair
//! is appended to a [`LabeledBank`], and the task (with its dataset) is
//! dropped — peak memory is the streaming window, not the bank.
//! [`collect_labeled_bank`] is the single-consumer loop behind
//! `AutoCts::pretrain`; the journaled driver in the `autocts` crate calls
//! [`label_task`] per shard on its own workers.
//!
//! Determinism contract: [`label_task`] depends only on `(task, ti, space,
//! cfg)` — the shared pool comes from the master seed, the task's random
//! samples from the per-task RNG substream — so any partition of tasks
//! across workers, any arrival order and any prefetch window reproduces the
//! same labels byte for byte.

use crate::pretrain::{label_one, task_label_units, LabeledBank, PretrainConfig, TaskSamples};
use crate::task_embed::TaskEmbedder;
use octs_data::ForecastTask;
use octs_obs::RunCtx;
use octs_space::{ArchHyper, JointSpace};
use rayon::prelude::*;

/// Labels a single task against the shared pool and its own random samples
/// (parallel over the task's units, each in the caller's run context).
/// Candidates that diverge or panic are quarantined, not fatal.
pub fn label_task(
    task: &ForecastTask,
    ti: usize,
    shared: &[ArchHyper],
    space: &JointSpace,
    cfg: &PretrainConfig,
) -> TaskSamples {
    let units = task_label_units(ti, shared, space, cfg);
    let run = RunCtx::current();
    let labeled: Vec<_> = units
        .par_iter()
        .map(|u| run.enter(|| label_one(&u.ah, task, u.unit, &cfg.label_cfg)))
        .collect();
    let mut shared_l = Vec::with_capacity(cfg.l_shared);
    let mut random_l = Vec::with_capacity(cfg.l_random);
    for (u, l) in units.iter().zip(labeled) {
        if u.shared {
            shared_l.push(l);
        } else {
            random_l.push(l);
        }
    }
    TaskSamples { shared: shared_l, random: random_l }
}

/// Streams `(task_idx, task)` pairs through embed + label, dropping each
/// task as soon as its residue is banked. The stream must be densely ordered
/// (task 0, 1, 2, …) — the single-consumer shape; sharded workers use
/// [`label_task`] directly with their own index bookkeeping.
///
/// Byte-identical to labelling each task alone with [`label_task`]: the
/// embedder is frozen (no RNG consumed per task) and every label derives
/// from per-task substreams.
pub fn collect_labeled_bank<I>(
    stream: I,
    embedder: &mut TaskEmbedder,
    space: &JointSpace,
    cfg: &PretrainConfig,
) -> LabeledBank
where
    I: IntoIterator<Item = (usize, ForecastTask)>,
{
    let _obs = octs_obs::span("phase.label");
    let shared = crate::pretrain::shared_pool(space, cfg);
    let mut bank = LabeledBank::default();
    for (ti, task) in stream {
        assert_eq!(ti, bank.len(), "stream must be densely ordered from task 0");
        bank.prelims.push(embedder.preliminary(&task));
        bank.samples.push(label_task(&task, ti, &shared, space, cfg));
        // `task` drops here; its dataset never outlives this iteration.
    }
    octs_obs::counter("label_stream.tasks", bank.len() as u64);
    bank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pretrain::shared_pool;
    use crate::task_embed::TaskEmbedConfig;
    use crate::ts2vec::Ts2VecConfig;
    use octs_data::{DatasetProfile, Domain, ForecastSetting};

    fn tiny_tasks(n: usize) -> Vec<ForecastTask> {
        (0..n)
            .map(|i| {
                let p = DatasetProfile::custom(
                    &format!("st{i}"),
                    if i % 2 == 0 { Domain::Traffic } else { Domain::Energy },
                    3,
                    200,
                    24,
                    0.3,
                    0.1,
                    10.0,
                    70 + i as u64,
                );
                ForecastTask::new(p.generate(0), ForecastSetting::multi(4, 2), 0.6, 0.2, 2)
            })
            .collect()
    }

    fn tiny_embedder() -> TaskEmbedder {
        TaskEmbedder::new(TaskEmbedConfig::test(), Ts2VecConfig::test(), 1)
    }

    #[test]
    fn streamed_bank_matches_per_task_labelling_byte_for_byte() {
        // The journaled driver labels shard by shard on a cloned embedder, in
        // whatever order its workers reach the shards. Embedding and
        // labelling each task alone, in reverse, must reproduce the streamed
        // bank byte for byte.
        let tasks = tiny_tasks(3);
        let space = JointSpace::tiny();
        let cfg = PretrainConfig { l_shared: 3, l_random: 3, ..PretrainConfig::test() };

        let mut emb_a = tiny_embedder();
        let pool = shared_pool(&space, &cfg);
        let mut per_task: Vec<_> = tasks
            .iter()
            .enumerate()
            .rev()
            .map(|(ti, t)| (emb_a.preliminary(t), label_task(t, ti, &pool, &space, &cfg)))
            .collect();
        per_task.reverse();

        let mut emb_b = tiny_embedder();
        let streamed =
            collect_labeled_bank(tasks.into_iter().enumerate(), &mut emb_b, &space, &cfg);

        assert_eq!(streamed.len(), per_task.len());
        for ((p, s), (q, t)) in streamed.prelims.iter().zip(&streamed.samples).zip(&per_task) {
            assert_eq!(p.data(), q.data(), "prelims must be byte-identical");
            for (x, y) in s.shared.iter().chain(&s.random).zip(t.shared.iter().chain(&t.random)) {
                assert_eq!(x.ah, y.ah);
                assert_eq!(x.score.to_bits(), y.score.to_bits());
                assert_eq!(x.quarantined, y.quarantined);
            }
        }
    }

    #[test]
    fn label_task_is_partition_independent() {
        // Labelling task 2 alone must equal labelling it amid the full bank:
        // the per-task substream makes the unit list context-free.
        let tasks = tiny_tasks(3);
        let space = JointSpace::tiny();
        let cfg = PretrainConfig { l_shared: 2, l_random: 2, ..PretrainConfig::test() };
        let pool = shared_pool(&space, &cfg);

        let alone = label_task(&tasks[2], 2, &pool, &space, &cfg);
        let mut emb = tiny_embedder();
        let full = collect_labeled_bank(tasks.into_iter().enumerate(), &mut emb, &space, &cfg);
        for (x, y) in alone
            .shared
            .iter()
            .chain(&alone.random)
            .zip(full.samples[2].shared.iter().chain(&full.samples[2].random))
        {
            assert_eq!(x.ah, y.ah);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "densely ordered")]
    fn out_of_order_stream_is_rejected() {
        let tasks = tiny_tasks(2);
        let space = JointSpace::tiny();
        let cfg = PretrainConfig::test();
        let mut emb = tiny_embedder();
        let reversed = tasks.into_iter().enumerate().rev();
        collect_labeled_bank(reversed, &mut emb, &space, &cfg);
    }
}
