//! The disk-resident **task bank**: thousands of pre-training tasks expanded
//! from [`crate::synth`] profiles × [`crate::enrich`] axes, written as
//! checksummed record-framed shards ([`crate::io::ShardWriter`]) and streamed
//! back with a bounded prefetch window.
//!
//! Layout of a bank directory:
//! ```text
//! bank_dir/
//!   manifest.json      envelope holding the shard table
//!   shard_00000.octs   record-framed shard, one JSON ForecastTask per record
//!   shard_00001.octs
//!   ...
//! ```
//! Both kinds are committed through [`persist::AtomicFile`]: shards at fault
//! site `bank.shard` (op = shard index), the manifest at `bank.manifest`
//! (op 0), last, so a bank with a manifest is complete. Only the manifest's
//! commit fsyncs the bank directory, once for every name in it.
//!
//! Two memory disciplines make banks scale past RAM:
//! - **generation** materializes one task at a time ([`BankConfig::task`]
//!   is a pure function of the task index), so writing a 100k-task bank
//!   peaks at one task of memory plus file buffers;
//! - **streaming** ([`BankStream`]) reads shards record-by-record on a
//!   reader thread and hands tasks over a bounded channel, so a consumer
//!   holds at most `prefetch + 1` materialized tasks regardless of bank
//!   size.

use crate::enrich::{derive_subset, EnrichConfig};
use crate::io::{ShardReader, ShardWriter};
use crate::persist::{self, fnv64, CoreError};
use crate::synth::DatasetProfile;
use crate::task::ForecastTask;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::mpsc;

/// Shard `kind` tag of task-bank shards.
pub const BANK_KIND: &str = "task-bank";

/// File name of the manifest inside a bank directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Schema version of the manifest.
pub const BANK_VERSION: u32 = 1;

/// Derives an independent substream seed from `(seed, salt)` — the testkit
/// `Gen::fork` mixing, reused so every task's randomness is replayable from
/// the bank seed and the task index alone.
pub fn fork_seed(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ salt
}

/// Everything that determines a bank's contents. Serializable: its fnv64
/// fingerprint binds manifests and pre-training journals to the exact
/// generation recipe.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BankConfig {
    /// Total tasks to generate.
    pub n_tasks: usize,
    /// Tasks per shard (the last shard may hold fewer).
    pub shard_tasks: usize,
    /// Base dataset profiles; task `i` draws profile `i % profiles.len()`
    /// at generation variant `i / profiles.len()`.
    pub profiles: Vec<DatasetProfile>,
    /// Enrichment axes: temporal/series subset ranges and the candidate
    /// forecasting settings each subset is paired with.
    pub enrich: EnrichConfig,
    /// Master seed; per-task substreams fork from it.
    pub seed: u64,
}

impl BankConfig {
    /// Number of shards the bank occupies.
    pub fn n_shards(&self) -> usize {
        assert!(self.shard_tasks > 0, "shard_tasks must be positive");
        self.n_tasks.div_ceil(self.shard_tasks)
    }

    /// Materializes task `index` — a pure function of `(config, index)`, so
    /// generation never needs more than one task in memory and any task can
    /// be regenerated independently.
    pub fn task(&self, index: usize) -> ForecastTask {
        assert!(!self.profiles.is_empty(), "bank needs at least one profile");
        assert!(index < self.n_tasks, "task {index} out of range 0..{}", self.n_tasks);
        let profile = &self.profiles[index % self.profiles.len()];
        let variant = (index / self.profiles.len()) as u64;
        let data = profile.generate(variant);
        let mut rng = ChaCha8Rng::seed_from_u64(fork_seed(self.seed, index as u64));
        let subset = derive_subset(&data, &self.enrich, &mut rng);
        // Pair with an admissible setting ("short data ⇒ short horizons");
        // if the subset is too short for every candidate, fall back to the
        // smallest span so the bank always reaches its promised size.
        let admissible: Vec<_> = self
            .enrich
            .settings
            .iter()
            .filter(|s| subset.t() >= s.span() * self.enrich.min_spans)
            .collect();
        let setting = if admissible.is_empty() {
            *self
                .enrich
                .settings
                .iter()
                .min_by_key(|s| s.span())
                .expect("enrich.settings must be nonempty")
        } else {
            *admissible[rng.gen_range(0..admissible.len())]
        };
        ForecastTask::new(subset, setting, 0.7, 0.15, self.enrich.stride)
    }

    /// Hex fingerprint of the full generation recipe.
    pub fn fingerprint(&self) -> String {
        let json = serde_json::to_string(self).expect("bank config serializes");
        format!("{:016x}", fnv64(json.as_bytes()))
    }
}

/// One shard's entry in the manifest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardInfo {
    /// File name within the bank directory.
    pub file: String,
    /// First task index in this shard.
    pub start: usize,
    /// Tasks (records) in this shard.
    pub tasks: usize,
    /// fnv64 hex over the shard's record checksums — a cheap whole-shard
    /// identity without rereading payloads.
    pub checksum: String,
}

/// The bank's table of contents.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BankManifest {
    /// Schema version.
    pub version: u32,
    /// Total tasks across all shards.
    pub n_tasks: usize,
    /// Tasks per full shard.
    pub shard_tasks: usize,
    /// Fingerprint of the generating [`BankConfig`].
    pub fingerprint: String,
    /// Per-shard table.
    pub shards: Vec<ShardInfo>,
}

/// Writes the manifest as a [`persist`] envelope at fault site
/// `("bank.manifest", 0)`.
fn write_manifest(dir: &Path, manifest: &BankManifest) -> Result<(), CoreError> {
    persist::save_json(&dir.join(MANIFEST_FILE), BANK_VERSION, manifest, "bank.manifest", 0)
}

impl BankManifest {
    /// Loads and validates a bank's manifest (the envelope's magic, version,
    /// length and checksum, then the shard table's structure — every
    /// mismatch is a typed, located error).
    pub fn load(dir: impl AsRef<Path>) -> Result<Self, CoreError> {
        let path = dir.as_ref().join(MANIFEST_FILE);
        let manifest: Self = persist::load_json(&path, BANK_VERSION)?;
        manifest.check_structure().map_err(|detail| CoreError::corrupt(&path, detail))?;
        Ok(manifest)
    }

    /// The shard table's invariants every reader relies on: at least one
    /// task and one shard, shards contiguous from task 0, and shard sizes
    /// summing to `n_tasks`.
    fn check_structure(&self) -> Result<(), String> {
        if self.n_tasks == 0 {
            return Err("manifest promises no tasks".into());
        }
        if self.shards.is_empty() {
            return Err("manifest lists no shards".into());
        }
        let mut next = 0usize;
        for (i, shard) in self.shards.iter().enumerate() {
            if shard.start != next {
                return Err(format!("shard {i} starts at task {}, expected {next}", shard.start));
            }
            next += shard.tasks;
        }
        if next != self.n_tasks {
            return Err(format!("shards hold {next} tasks, manifest promises {}", self.n_tasks));
        }
        Ok(())
    }
}

/// Generates and writes the whole bank: one shard at a time, one task at a
/// time, each task serialized as a JSON record with an fnv64 frame checksum.
/// Returns the manifest (also persisted as `manifest.json`).
pub fn write_bank(dir: impl AsRef<Path>, cfg: &BankConfig) -> Result<BankManifest, CoreError> {
    let dir = dir.as_ref();
    assert!(cfg.n_tasks > 0, "bank needs at least one task");
    persist::create_dir_durable(dir)?;
    let mut shards = Vec::with_capacity(cfg.n_shards());
    for shard in 0..cfg.n_shards() {
        let start = shard * cfg.shard_tasks;
        let tasks = cfg.shard_tasks.min(cfg.n_tasks - start);
        let file = format!("shard_{shard:05}.octs");
        let mut writer = ShardWriter::create(dir.join(&file), BANK_KIND, tasks as u64)?;
        let mut record_sums: Vec<u8> = Vec::with_capacity(tasks * 8);
        for i in start..start + tasks {
            let task = cfg.task(i);
            let payload = serde_json::to_string(&task).map_err(|e| {
                CoreError::corrupt(dir.join(&file), format!("task {i} serialization: {e}"))
            })?;
            record_sums.extend_from_slice(&fnv64(payload.as_bytes()).to_le_bytes());
            writer.append(payload.as_bytes())?;
        }
        writer.finish("bank.shard", shard as u64)?;
        shards.push(ShardInfo {
            file,
            start,
            tasks,
            checksum: format!("{:016x}", fnv64(&record_sums)),
        });
    }
    let manifest = BankManifest {
        version: BANK_VERSION,
        n_tasks: cfg.n_tasks,
        shard_tasks: cfg.shard_tasks,
        fingerprint: cfg.fingerprint(),
        shards,
    };
    write_manifest(dir, &manifest)?;
    Ok(manifest)
}

/// Streams tasks from a set of shards with a bounded prefetch window.
///
/// A reader thread walks the shards in the given order, deserializing one
/// record at a time and handing `(task_index, task)` pairs over a
/// `sync_channel(prefetch)` — so reading and decoding overlap with the
/// consumer's work (double buffering) while the consumer never holds more
/// than `prefetch + 1` tasks alive. Dropping the stream early shuts the
/// reader down cleanly.
pub struct BankStream {
    rx: Option<mpsc::Receiver<Result<(usize, ForecastTask), CoreError>>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl BankStream {
    /// Opens a stream over `shard_ids` (indices into `manifest.shards`, in
    /// the order given) with a prefetch window of `prefetch` tasks (clamped
    /// to ≥ 1).
    pub fn open(
        dir: impl AsRef<Path>,
        manifest: &BankManifest,
        shard_ids: &[usize],
        prefetch: usize,
    ) -> Self {
        let dir = dir.as_ref().to_path_buf();
        let shards: Vec<(PathBuf, usize, usize)> = shard_ids
            .iter()
            .map(|&s| {
                let info = &manifest.shards[s];
                (dir.join(&info.file), info.start, info.tasks)
            })
            .collect();
        let (tx, rx) = mpsc::sync_channel(prefetch.max(1));
        let handle = std::thread::spawn(move || {
            for (path, start, tasks) in shards {
                let mut reader = match ShardReader::open(&path, BANK_KIND) {
                    Ok(r) => r,
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        return;
                    }
                };
                for i in 0..tasks {
                    let outcome = match reader.next_record() {
                        Ok(Some(payload)) => {
                            match std::str::from_utf8(&payload)
                                .map_err(|e| format!("non-UTF8 record: {e}"))
                                .and_then(|s| {
                                    serde_json::from_str(s)
                                        .map_err(|e| format!("unparseable task record: {e}"))
                                }) {
                                Ok(task) => Ok((start + i, task)),
                                Err(detail) => Err(CoreError::torn(&path, i, 0, detail)),
                            }
                        }
                        Ok(None) => Err(CoreError::torn(
                            &path,
                            i,
                            0,
                            format!("shard ended early: manifest promises {tasks} tasks"),
                        )),
                        Err(e) => Err(e),
                    };
                    let failed = outcome.is_err();
                    if tx.send(outcome).is_err() {
                        return; // consumer hung up
                    }
                    if failed {
                        return;
                    }
                }
            }
        });
        Self { rx: Some(rx), handle: Some(handle) }
    }
}

impl Iterator for BankStream {
    type Item = Result<(usize, ForecastTask), CoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.rx.as_ref()?.recv().ok()
    }
}

impl Drop for BankStream {
    fn drop(&mut self) {
        // Hang up first so a mid-stream reader unblocks, then join it.
        drop(self.rx.take());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::Domain;
    use crate::task::ForecastSetting;

    fn tiny_cfg(n_tasks: usize, shard_tasks: usize) -> BankConfig {
        let profiles = vec![
            DatasetProfile::custom("bank-a", Domain::Traffic, 3, 160, 24, 0.3, 0.1, 10.0, 11),
            DatasetProfile::custom("bank-b", Domain::Energy, 3, 170, 24, 0.2, 0.1, 5.0, 12),
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
        BankConfig { n_tasks, shard_tasks, profiles, enrich, seed: 77 }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("octs_bank_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn bank_write_and_stream_roundtrip() {
        let cfg = tiny_cfg(7, 3);
        let dir = tmp_dir("roundtrip");
        let manifest = write_bank(&dir, &cfg).unwrap();
        assert_eq!(manifest.shards.len(), 3);
        assert_eq!(manifest.shards.iter().map(|s| s.tasks).sum::<usize>(), 7);

        let loaded = BankManifest::load(&dir).unwrap();
        assert_eq!(loaded.fingerprint, cfg.fingerprint());

        for prefetch in [1, 2, 8] {
            let all: Vec<usize> = (0..manifest.shards.len()).collect();
            let stream = BankStream::open(&dir, &loaded, &all, prefetch);
            let tasks: Vec<(usize, ForecastTask)> = stream.map(|r| r.unwrap()).collect();
            assert_eq!(tasks.len(), 7, "prefetch {prefetch}");
            for (i, (idx, task)) in tasks.iter().enumerate() {
                assert_eq!(*idx, i);
                let want = cfg.task(i);
                assert_eq!(
                    serde_json::to_string(task).unwrap(),
                    serde_json::to_string(&want).unwrap(),
                    "task {i} must stream back byte-identical (prefetch {prefetch})"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn early_drop_shuts_reader_down() {
        let cfg = tiny_cfg(6, 2);
        let dir = tmp_dir("drop");
        let manifest = write_bank(&dir, &cfg).unwrap();
        let mut stream = BankStream::open(&dir, &manifest, &[0, 1, 2], 1);
        let first = stream.next().unwrap().unwrap();
        assert_eq!(first.0, 0);
        drop(stream); // must not deadlock on the blocked sender
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_manifest_and_shard_are_typed_errors() {
        let cfg = tiny_cfg(4, 2);
        let dir = tmp_dir("corrupt");
        let manifest = write_bank(&dir, &cfg).unwrap();

        // Flip a byte inside shard 0's first record payload.
        let shard_path = dir.join(&manifest.shards[0].file);
        let mut bytes = std::fs::read(&shard_path).unwrap();
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap();
        let line_end =
            header_end + 1 + bytes[header_end + 1..].iter().position(|&b| b == b'\n').unwrap();
        bytes[line_end - 2] ^= 0x01;
        std::fs::write(&shard_path, &bytes).unwrap();
        let mut stream = BankStream::open(&dir, &manifest, &[0], 2);
        match stream.next() {
            Some(Err(CoreError::Torn { record, .. })) => assert_eq!(record, 0),
            other => panic!("want Torn, got {other:?}"),
        }
        assert!(stream.next().is_none(), "stream stops after a torn record");
        drop(stream);

        // Truncate the manifest payload.
        let mpath = dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&mpath).unwrap();
        std::fs::write(&mpath, &text[..text.len() - 9]).unwrap();
        assert!(matches!(BankManifest::load(&dir), Err(CoreError::Corrupt { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Writes a `mutate`d copy of `dir`'s manifest under a fresh checksum and
    /// returns the detail of the structural error loading it reports.
    fn structural_error(dir: &Path, mutate: impl FnOnce(&mut BankManifest)) -> String {
        let mut manifest = BankManifest::load(dir).unwrap();
        mutate(&mut manifest);
        write_manifest(dir, &manifest).unwrap();
        match BankManifest::load(dir) {
            Err(CoreError::Corrupt { detail, .. }) => detail,
            other => panic!("want Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn manifest_with_no_tasks_is_torn() {
        let dir = tmp_dir("no_tasks");
        write_bank(&dir, &tiny_cfg(4, 2)).unwrap();
        let detail = structural_error(&dir, |m| {
            m.n_tasks = 0;
            m.shards.clear();
        });
        assert!(detail.contains("no tasks"), "{detail}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_with_no_shards_is_torn() {
        let dir = tmp_dir("no_shards");
        write_bank(&dir, &tiny_cfg(4, 2)).unwrap();
        let detail = structural_error(&dir, |m| m.shards.clear());
        assert!(detail.contains("no shards"), "{detail}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_with_non_contiguous_shards_is_torn() {
        let dir = tmp_dir("gap");
        write_bank(&dir, &tiny_cfg(6, 2)).unwrap();
        let detail = structural_error(&dir, |m| m.shards[1].start = 3);
        assert!(detail.contains("shard 1 starts at task 3, expected 2"), "{detail}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_whose_shards_miss_n_tasks_is_torn() {
        let dir = tmp_dir("short");
        write_bank(&dir, &tiny_cfg(6, 2)).unwrap();
        let detail = structural_error(&dir, |m| m.n_tasks = 7);
        assert!(detail.contains("shards hold 6 tasks, manifest promises 7"), "{detail}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generation_is_deterministic_and_profile_diverse() {
        let cfg = tiny_cfg(8, 4);
        for i in 0..8 {
            let a = cfg.task(i);
            let b = cfg.task(i);
            assert_eq!(a.data.values(), b.data.values(), "task {i} must be deterministic");
        }
        // Round-robin expansion alternates base profiles.
        assert_ne!(cfg.task(0).data.name, cfg.task(1).data.name);
        // Distinct variants of one profile differ in data.
        assert_ne!(cfg.task(0).data.values(), cfg.task(2).data.values());
    }
}
