//! Crash-safe, resumable pre-training: the one journaled driver behind
//! [`AutoCts::pretrain_bank_journaled`] and [`AutoCts::pretrain_journaled`].
//!
//! The driver reads its tasks from a source cut into shards:
//! - a task bank on disk written by [`octs_data::write_bank`], streamed one
//!   shard at a time; the task encoder trains on shard 0's datasets;
//! - an in-memory task list, where shard `s` is task `s` alone; the task
//!   encoder trains on every task, exactly as [`AutoCts::pretrain`] does.
//!
//! Either way the trainer keeps only the task-free residue it reads
//! (preliminary embeddings + labelled samples, an
//! [`octs_comparator::LabeledBank`]), and every run directory has the same
//! layout:
//!
//! ```text
//! run_dir/
//!   progress.journal           fingerprint, encoder, per-shard, per-epoch, done records
//!   encoder.ckpt               task-encoder parameters
//!   shard_labels_00000.ckpt    one labelled-shard sidecar per shard
//!   ...
//!   epoch_0001.ckpt            TahcTrainerState at each comparator epoch
//!   pretrained.ckpt            the final pre-trained system, see AutoCts::load_artifact
//! ```
//!
//! Every file but the journal is an envelope committed through
//! [`persist::AtomicFile::commit`] at its own fault site: `run.encoder` (op
//! 0), `run.shard_labels` (op = shard), `run.epoch` (op = epoch) and, for
//! the artifact, [`AutoCts::save`]'s `checkpoint.save` (op 0).
//!
//! Determinism contract:
//! - shard `s` is owned by worker `s % workers`, but every label is a pure
//!   function of `(task, task_idx, space, cfg)` — per-task RNG substreams, a
//!   master-seeded shared pool, and a frozen cloned embedder — so the merged
//!   result is **byte-identical for any worker count and any prefetch
//!   window**;
//! - the journal records progress at shard granularity; a run killed at any
//!   journal append (or anywhere else) resumes from completed sidecars and
//!   finishes bit-for-bit identical to an uninterrupted run;
//! - the run fingerprint covers the system + pre-training configuration and
//!   the source's content (the bank's fingerprint, or a checksum over every
//!   in-memory task), *not* `workers`/`prefetch` — those are execution
//!   geometry, free to change across resumes.

use crate::facade::AutoCts;
use crate::journal::{Journal, Record};
use crate::persist::{self, CoreError};
use octs_comparator::{
    label_task, shared_pool, LabeledAh, LabeledBank, PretrainConfig, PretrainReport, TahcTrainer,
    TahcTrainerState, TaskEmbedder, TaskSamples,
};
use octs_data::{BankManifest, BankStream, ForecastTask};
use octs_obs::RunCtx;
use octs_space::ArchHyper;
use octs_tensor::{ParamStore, Tensor};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::Mutex;

/// Schema version of the sidecar envelopes written by the journaled driver.
pub const BANKRUN_VERSION: u32 = 1;

/// File name of the progress journal inside a run directory.
pub const JOURNAL_FILE: &str = "progress.journal";

/// File name of the pre-trained T-AHC artifact inside a run directory.
pub const ARTIFACT_FILE: &str = "pretrained.ckpt";

/// Execution geometry of a bank run. Deliberately *excluded* from the run
/// fingerprint: the pre-trained artifact is byte-identical for any values
/// here, so a run may be killed under one geometry and resumed under
/// another.
#[derive(Debug, Clone, Copy)]
pub struct BankRunOptions {
    /// Labelling worker threads; shard `s` is owned by worker `s % workers`.
    pub workers: usize,
    /// Prefetch window of each worker's shard cursor (tasks in flight).
    pub prefetch: usize,
}

impl Default for BankRunOptions {
    fn default() -> Self {
        Self { workers: 1, prefetch: 2 }
    }
}

/// Serialized labelling outcome of one shard: per-task preliminary
/// embeddings and labelled samples, scores as raw `f32` bits (the journal
/// convention that makes resume equality exact rather than approximate).
#[derive(Serialize, Deserialize)]
struct ShardLabels {
    shard: u64,
    start: usize,
    prelims: Vec<Tensor>,
    samples: Vec<SampleRec>,
}

#[derive(Serialize, Deserialize)]
struct SampleRec {
    shared: Vec<(ArchHyper, u32, bool)>,
    random: Vec<(ArchHyper, u32, bool)>,
}

impl SampleRec {
    fn of(s: &TaskSamples) -> Self {
        let pack = |l: &LabeledAh| (l.ah.clone(), l.score.to_bits(), l.quarantined);
        Self {
            shared: s.shared.iter().map(pack).collect(),
            random: s.random.iter().map(pack).collect(),
        }
    }

    fn unpack(self) -> TaskSamples {
        let open = |(ah, bits, quarantined): (ArchHyper, u32, bool)| LabeledAh {
            ah,
            score: f32::from_bits(bits),
            quarantined,
        };
        TaskSamples {
            shared: self.shared.into_iter().map(open).collect(),
            random: self.random.into_iter().map(open).collect(),
        }
    }
}

fn sidecar_name(shard: usize) -> String {
    format!("shard_labels_{shard:05}.ckpt")
}

/// Where the driver reads its tasks from. Each shard is a contiguous range
/// of task indices.
enum TaskSource<'a> {
    /// A bank on disk; its manifest was validated on load, so shards are
    /// contiguous, non-empty in total, and sum to `n_tasks`.
    Bank { dir: &'a Path, manifest: BankManifest },
    /// An in-memory task list; shard `s` is task `s`.
    Memory(&'a [ForecastTask]),
}

impl TaskSource<'_> {
    fn n_shards(&self) -> usize {
        match self {
            Self::Bank { manifest, .. } => manifest.shards.len(),
            Self::Memory(tasks) => tasks.len(),
        }
    }

    /// First task index and task count of shard `s`.
    fn shard(&self, s: usize) -> (usize, usize) {
        match self {
            Self::Bank { manifest, .. } => (manifest.shards[s].start, manifest.shards[s].tasks),
            Self::Memory(_) => (s, 1),
        }
    }

    /// Content identity bound into the run fingerprint: the bank's recipe
    /// fingerprint, or fnv64 over every in-memory task's record checksum
    /// (the bank's per-shard checksum convention).
    fn fingerprint(&self) -> Result<String, CoreError> {
        match self {
            Self::Bank { manifest, .. } => Ok(manifest.fingerprint.clone()),
            Self::Memory(tasks) => {
                let mut sums = Vec::with_capacity(tasks.len() * 8);
                for t in tasks.iter() {
                    let json = serde_json::to_string(t).map_err(|e| {
                        CoreError::corrupt("<tasks>", format!("task serialization: {e}"))
                    })?;
                    sums.extend_from_slice(&persist::fnv64(json.as_bytes()).to_le_bytes());
                }
                Ok(format!("{:016x}", persist::fnv64(&sums)))
            }
        }
    }

    /// Self-supervised task-encoder training: on shard 0's datasets for a
    /// bank (the whole bank when it fits one shard, which is what pins the
    /// bank path to [`AutoCts::pretrain`]), on every task in memory.
    fn train_encoder(&self, embedder: &mut TaskEmbedder, prefetch: usize) -> Result<(), CoreError> {
        let streamed: Vec<ForecastTask>;
        let tasks = match self {
            Self::Bank { dir, manifest } => {
                streamed = BankStream::open(dir, manifest, &[0], prefetch)
                    .map(|r| r.map(|(_, t)| t))
                    .collect::<Result<_, _>>()?;
                &streamed[..]
            }
            Self::Memory(tasks) => tasks,
        };
        let datasets: Vec<&octs_data::CtsData> = tasks.iter().map(|t| &t.data).collect();
        embedder.pretrain_encoder(&datasets);
        Ok(())
    }

    /// Calls `f(task_idx, task)` for every task of shard `s`, in order. A
    /// streamed task drops right after `f`: its dataset never outlives its
    /// labelling.
    fn for_each_task(
        &self,
        s: usize,
        prefetch: usize,
        mut f: impl FnMut(usize, &ForecastTask),
    ) -> Result<(), CoreError> {
        match self {
            Self::Bank { dir, manifest } => {
                for item in BankStream::open(dir, manifest, &[s], prefetch) {
                    let (ti, task) = item?;
                    f(ti, &task);
                }
            }
            Self::Memory(tasks) => f(s, &tasks[s]),
        }
        Ok(())
    }
}

impl AutoCts {
    /// Pre-trains from a task bank on disk, streaming shards through
    /// labelling workers under a progress journal in `run_dir`.
    ///
    /// Equivalent to [`AutoCts::pretrain`] on the bank's materialized task
    /// list when the bank fits one shard (the task encoder trains on shard
    /// 0's datasets); killed runs resume byte-identically; `opts` may change
    /// between resumes. See the module docs for the full contract.
    pub fn pretrain_bank_journaled(
        &mut self,
        bank_dir: impl AsRef<Path>,
        cfg: &PretrainConfig,
        run_dir: impl AsRef<Path>,
        opts: &BankRunOptions,
    ) -> Result<PretrainReport, CoreError> {
        let dir = bank_dir.as_ref();
        let manifest = BankManifest::load(dir)?;
        self.pretrain_from(&TaskSource::Bank { dir, manifest }, cfg, run_dir.as_ref(), opts)
    }

    /// Pre-trains like [`AutoCts::pretrain`], but journals progress to `dir`
    /// so a killed run can be resumed. Calling this again on the same
    /// directory — from this process or a fresh one built with the same
    /// configuration and tasks — skips every completed task and produces
    /// results byte-identical to an uninterrupted run, ending with the
    /// [`ARTIFACT_FILE`] that [`AutoCts::load_artifact`] restores. A
    /// directory written under a different configuration or task list is
    /// refused with [`CoreError::Mismatch`].
    pub fn pretrain_journaled(
        &mut self,
        tasks: Vec<ForecastTask>,
        cfg: &PretrainConfig,
        dir: impl AsRef<Path>,
    ) -> Result<PretrainReport, CoreError> {
        assert!(!tasks.is_empty(), "pretraining needs at least one task");
        let opts = BankRunOptions::default();
        self.pretrain_from(&TaskSource::Memory(&tasks), cfg, dir.as_ref(), &opts)
    }

    /// Builds a fresh system and drives [`AutoCts::pretrain_journaled`]
    /// against an existing run directory — the one-call "restart a killed
    /// run" entry point. With an empty or absent directory it simply
    /// performs the full run.
    pub fn resume(
        cfg: crate::facade::AutoCtsConfig,
        tasks: Vec<ForecastTask>,
        pre_cfg: &PretrainConfig,
        dir: impl AsRef<Path>,
    ) -> Result<(Self, PretrainReport), CoreError> {
        let mut sys = AutoCts::new(cfg);
        let report = sys.pretrain_journaled(tasks, pre_cfg, dir)?;
        Ok((sys, report))
    }

    /// Builds a fresh system and drives [`AutoCts::pretrain_bank_journaled`]
    /// against an existing run directory — the "restart a killed bank run"
    /// entry point, possibly under different execution geometry.
    pub fn resume_bank(
        cfg: crate::facade::AutoCtsConfig,
        bank_dir: impl AsRef<Path>,
        pre_cfg: &PretrainConfig,
        run_dir: impl AsRef<Path>,
        opts: &BankRunOptions,
    ) -> Result<(Self, PretrainReport), CoreError> {
        let mut sys = AutoCts::new(cfg);
        let report = sys.pretrain_bank_journaled(bank_dir, pre_cfg, run_dir, opts)?;
        Ok((sys, report))
    }

    /// Restores a pre-trained system from a journaled run directory's
    /// artifact — the consumer-side entry point for sub-second zero-shot
    /// ranking via [`AutoCts::rank`].
    pub fn load_artifact(run_dir: impl AsRef<Path>) -> Result<Self, CoreError> {
        Self::load(run_dir.as_ref().join(ARTIFACT_FILE))
    }

    /// The journaled driver: fingerprint, encoder, shard labelling, epochs,
    /// artifact — each phase replayed from the journal or recomputed.
    fn pretrain_from(
        &mut self,
        source: &TaskSource<'_>,
        cfg: &PretrainConfig,
        run_dir: &Path,
        opts: &BankRunOptions,
    ) -> Result<PretrainReport, CoreError> {
        assert!(opts.workers > 0, "need at least one worker");
        persist::create_dir_durable(run_dir)?;
        let journal_path = run_dir.join(JOURNAL_FILE);
        let (mut journal, records) = Journal::open(&journal_path)?;

        // Phase 0: fingerprint — system + pretrain config + task content. A
        // journal written for other knobs or other tasks would replay labels
        // that do not belong to this run, so refuse loudly instead.
        let fingerprint = self.run_fingerprint(cfg, source)?;
        match records.iter().find(|r| r.kind == "fingerprint") {
            Some(r) if r.detail == fingerprint => {}
            Some(r) => {
                return Err(CoreError::Mismatch {
                    path: journal_path,
                    detail: format!(
                        "journal fingerprint {} != this run's {fingerprint} \
                         (configuration or tasks changed between runs?)",
                        r.detail
                    ),
                });
            }
            None => {
                let mut rec = Record::of_kind("fingerprint");
                rec.detail = fingerprint;
                journal.append(&rec)?;
            }
        }

        // Phase 1: task encoder. Restored from its sidecar on resume.
        let obs_encoder = octs_obs::span("phase.encoder");
        let encoder_ckpt = run_dir.join("encoder.ckpt");
        if records.iter().any(|r| r.kind == "encoder") {
            let ps: ParamStore = persist::load_json(&encoder_ckpt, BANKRUN_VERSION)?;
            self.embedder.encoder_mut().ps = ps;
            self.embedder.encoder_mut().mark_trained();
        } else {
            source.train_encoder(&mut self.embedder, opts.prefetch)?;
            let ps = &self.embedder.encoder().ps;
            persist::save_json(&encoder_ckpt, BANKRUN_VERSION, ps, "run.encoder", 0)?;
            let mut rec = Record::of_kind("encoder");
            rec.detail = "encoder.ckpt".to_string();
            journal.append(&rec)?;
            octs_obs::event("pipeline.checkpoint", journal.seq() as f64, "encoder.ckpt");
        }
        drop(obs_encoder);

        // Phase 2: shard labelling. Completed shards replay from their
        // sidecars; the rest are labelled by the workers, each shard's
        // labels journaled the moment its sidecar lands.
        let obs_label = octs_obs::span("phase.label");
        let n_shards = source.n_shards();
        let done: std::collections::BTreeSet<u64> =
            records.iter().filter(|r| r.kind == "shard").map(|r| r.unit).collect();
        octs_obs::counter("bankrun.shards_replayed", done.len() as u64);
        octs_obs::counter("bankrun.shards_fresh", (n_shards - done.len()) as u64);
        let todo_per_worker: Vec<Vec<usize>> = (0..opts.workers)
            .map(|w| {
                (0..n_shards)
                    .filter(|s| s % opts.workers == w && !done.contains(&(*s as u64)))
                    .collect()
            })
            .collect();
        if todo_per_worker.iter().any(|t| !t.is_empty()) {
            let pool = shared_pool(&self.cfg.space, cfg);
            let journal_mx = Mutex::new(&mut journal);
            let failure: Mutex<Option<CoreError>> = Mutex::new(None);
            let embedder = &self.embedder;
            let space = &self.cfg.space;
            let run = RunCtx::current();
            std::thread::scope(|scope| {
                for shards in &todo_per_worker {
                    let (pool, journal_mx, failure, run) = (&pool, &journal_mx, &failure, &run);
                    scope.spawn(move || {
                        run.enter(|| {
                            let mut embedder = embedder.clone();
                            for &s in shards {
                                if failure.lock().unwrap().is_some() {
                                    return; // another worker already failed: stop
                                }
                                let (start, len) = source.shard(s);
                                let mut labels = ShardLabels {
                                    shard: s as u64,
                                    start,
                                    prelims: Vec::with_capacity(len),
                                    samples: Vec::with_capacity(len),
                                };
                                let name = sidecar_name(s);
                                let path = run_dir.join(&name);
                                let outcome = source
                                    .for_each_task(s, opts.prefetch, |ti, task| {
                                        labels.prelims.push(embedder.preliminary(task));
                                        let samples = label_task(task, ti, pool, space, cfg);
                                        labels.samples.push(SampleRec::of(&samples));
                                    })
                                    .and_then(|()| {
                                        persist::save_json(
                                            &path,
                                            BANKRUN_VERSION,
                                            &labels,
                                            "run.shard_labels",
                                            s as u64,
                                        )
                                    })
                                    .and_then(|()| {
                                        let mut rec = Record::of_kind("shard");
                                        rec.unit = s as u64;
                                        rec.detail = name;
                                        journal_mx.lock().unwrap().append(&rec)
                                    });
                                if let Err(e) = outcome {
                                    failure.lock().unwrap().get_or_insert(e);
                                    return;
                                }
                                octs_obs::event("bankrun.shard_done", s as f64, &sidecar_name(s));
                            }
                        })
                    });
                }
            });
            if let Some(e) = failure.into_inner().unwrap() {
                return Err(e);
            }
        }
        drop(obs_label);

        // Phase 2b: merge sidecars in shard order into the task-free
        // residue. Shards cover contiguous index ranges, so shard order is
        // task order — no re-sort needed, just an audit of each sidecar's
        // range against the source.
        let mut bank = LabeledBank::default();
        for s in 0..n_shards {
            let (start, len) = source.shard(s);
            let path = run_dir.join(sidecar_name(s));
            let labels: ShardLabels = persist::load_json(&path, BANKRUN_VERSION)?;
            if labels.shard != s as u64
                || labels.start != start
                || labels.prelims.len() != len
                || labels.samples.len() != len
            {
                return Err(CoreError::Corrupt {
                    path,
                    detail: format!(
                        "sidecar covers shard {} from task {} ({} prelims, {} samples), \
                         expected shard {s} from task {start} ({len} tasks)",
                        labels.shard,
                        labels.start,
                        labels.prelims.len(),
                        labels.samples.len()
                    ),
                });
            }
            bank.prelims.extend(labels.prelims);
            bank.samples.extend(labels.samples.into_iter().map(SampleRec::unpack));
        }

        // Phase 3: comparator epochs over the residue. Each completed epoch
        // leaves a sidecar with the exact trainer state (params, optimizer
        // moments, RNG stream); resume reloads the newest one.
        let obs_pretrain = octs_obs::span("phase.pretrain");
        let done_epochs = records.iter().filter(|r| r.kind == "epoch").count();
        let mut trainer = if done_epochs > 0 {
            let ckpt = run_dir.join(format!("epoch_{done_epochs:04}.ckpt"));
            let state: TahcTrainerState = persist::load_json(&ckpt, BANKRUN_VERSION)?;
            TahcTrainer::from_state(state, &mut self.tahc)
        } else {
            TahcTrainer::new(cfg)
        };
        while !trainer.is_done(cfg) {
            trainer.run_epoch(&mut self.tahc, &bank, cfg);
            let epoch = trainer.epoch() as u64;
            let ckpt_name = format!("epoch_{epoch:04}.ckpt");
            let (path, state) = (run_dir.join(&ckpt_name), trainer.export_state(&self.tahc));
            persist::save_json(&path, BANKRUN_VERSION, &state, "run.epoch", epoch)?;
            let mut rec = Record::of_kind("epoch");
            rec.epoch = epoch;
            rec.detail = ckpt_name;
            journal.append(&rec)?;
            octs_obs::event("pipeline.checkpoint", trainer.epoch() as f64, &rec.detail);
        }
        drop(obs_pretrain);

        let report = trainer.finish(&self.tahc, &bank, cfg);
        self.mark_pretrained();
        // Phase 4: the pre-trained artifact. Saving is byte-stable for an
        // unchanged system, so a resumed-after-done run rewrites it
        // identically.
        self.save(run_dir.join(ARTIFACT_FILE))?;
        if !records.iter().any(|r| r.kind == "done") {
            let mut rec = Record::of_kind("done");
            rec.detail = ARTIFACT_FILE.to_string();
            journal.append(&rec)?;
        }
        Ok(report)
    }

    /// Hex fingerprint over system + pre-training configuration + task
    /// content. Excludes execution geometry (workers, prefetch) by design.
    fn run_fingerprint(
        &self,
        cfg: &PretrainConfig,
        source: &TaskSource<'_>,
    ) -> Result<String, CoreError> {
        let sys = serde_json::to_string(&self.cfg).map_err(|e| {
            CoreError::corrupt("<config>", format!("system config serialization: {e}"))
        })?;
        let pre = serde_json::to_string(cfg).map_err(|e| {
            CoreError::corrupt("<config>", format!("pretrain config serialization: {e}"))
        })?;
        let tasks = source.fingerprint()?;
        Ok(format!("{:016x}", persist::fnv64(format!("{sys}\n{pre}\n{tasks}").as_bytes())))
    }
}
