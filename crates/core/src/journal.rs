//! Append-only progress journal for crash-safe pre-training.
//!
//! Each line is `"<fnv64 hex> <record JSON>"`, flushed and fsynced per
//! append. On open, the journal replays every valid line; a torn **final**
//! line (the classic kill-mid-write artifact) is dropped and truncated away,
//! while an invalid line anywhere earlier is reported as corruption — that
//! can only happen through external damage, never through a crash.

use crate::persist::{self, CoreError};
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// One journal entry. A flat struct (not an enum) because the vendored
/// serde derive supports named-field structs only; `kind` discriminates and
/// unused fields stay at their zero values. Replay reads fields by name and
/// ignores unknown keys, so lines written with fields since dropped (the
/// old `bits` and `quarantined`) still replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// `"fingerprint"`, `"encoder"`, `"shard"`, `"epoch"` or `"done"`.
    pub kind: String,
    /// Shard index (for `shard` records).
    pub unit: u64,
    /// Completed epoch number (for `epoch` records).
    pub epoch: u64,
    /// Free-form payload: config fingerprint or sidecar file name.
    pub detail: String,
}

impl Record {
    /// A record with every field zeroed except `kind`.
    pub fn of_kind(kind: &str) -> Self {
        Self { kind: kind.to_string(), unit: 0, epoch: 0, detail: String::new() }
    }
}

/// An open journal: replayed records plus an append handle.
pub struct Journal {
    path: PathBuf,
    file: File,
    /// Appends performed over the journal's lifetime (continues across
    /// resume) — the op index for injected IO faults.
    seq: u64,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, returning the handle and
    /// every valid record already present. A torn trailing line is dropped
    /// and truncated; an invalid interior line is a [`CoreError::Corrupt`].
    /// Creating the journal fsyncs its directory, so the new name is as
    /// durable as the appends that follow.
    pub fn open(path: impl AsRef<Path>) -> Result<(Self, Vec<Record>), CoreError> {
        let path = path.as_ref().to_path_buf();
        let (text, created) = match std::fs::read_to_string(&path) {
            Ok(t) => (t, false),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => (String::new(), true),
            Err(e) => return Err(CoreError::io(&path, "read", e)),
        };
        let mut records = Vec::new();
        let mut valid_bytes = 0usize;
        let mut offset = 0usize;
        let mut lines = text.split_inclusive('\n').peekable();
        while let Some(line) = lines.next() {
            let is_last = lines.peek().is_none();
            match parse_line(line) {
                Some(rec) => {
                    records.push(rec);
                    offset += line.len();
                    valid_bytes = offset;
                }
                None if is_last => break, // torn tail: drop and truncate below
                None => {
                    return Err(CoreError::corrupt(
                        &path,
                        format!(
                            "invalid journal line at byte offset {offset}: {:?}",
                            line.trim_end()
                        ),
                    ));
                }
            }
        }
        if valid_bytes < text.len() {
            // Drop the torn tail so the append handle starts clean.
            let f = OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(|e| CoreError::io(&path, "open", e))?;
            f.set_len(valid_bytes as u64).map_err(|e| CoreError::io(&path, "truncate", e))?;
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| CoreError::io(&path, "open", e))?;
        if created {
            persist::sync_parent(&path)?;
        }
        let seq = records.len() as u64;
        Ok((Self { path, file, seq }, records))
    }

    /// Appends one record (checksummed, flushed, fsynced). The deterministic
    /// fault hook `octs_obs::fault::io_fault("journal.append", seq)` fires first,
    /// so tests can simulate a crash at an exact journal boundary.
    pub fn append(&mut self, rec: &Record) -> Result<(), CoreError> {
        octs_obs::fault::io_fault("journal.append", self.seq)
            .map_err(|e| CoreError::io(&self.path, "append", e))?;
        let t0 = std::time::Instant::now();
        let json = serde_json::to_string(rec)
            .map_err(|e| CoreError::corrupt(&self.path, format!("record serialization: {e}")))?;
        let line = format!("{:016x} {json}\n", persist::fnv64(json.as_bytes()));
        self.file
            .write_all(line.as_bytes())
            .and_then(|_| self.file.flush())
            .and_then(|_| self.file.sync_all())
            .map_err(|e| CoreError::io(&self.path, "append", e))?;
        self.seq += 1;
        if octs_obs::armed() {
            octs_obs::counter("journal.appends", 1);
            octs_obs::observe("journal.append_us", t0.elapsed().as_micros() as f64);
        }
        Ok(())
    }

    /// Number of appends so far (valid records on open plus appends since).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Parses one `"<checksum> <json>"` line; `None` when torn or invalid.
fn parse_line(line: &str) -> Option<Record> {
    let line = line.strip_suffix('\n')?; // no trailing newline = torn tail
    let (sum, json) = line.split_once(' ')?;
    let want = u64::from_str_radix(sum, 16).ok()?;
    if persist::fnv64(json.as_bytes()) != want {
        return None;
    }
    serde_json::from_str(json).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("octs_journal_{name}_{}", std::process::id()))
    }

    fn shard(unit: u64) -> Record {
        Record { unit, detail: format!("shard_labels_{unit:05}.ckpt"), ..Record::of_kind("shard") }
    }

    #[test]
    fn append_and_replay() {
        let p = tmp("replay");
        std::fs::remove_file(&p).ok();
        {
            let (mut j, recs) = Journal::open(&p).unwrap();
            assert!(recs.is_empty());
            j.append(&shard(0)).unwrap();
            j.append(&shard(1)).unwrap();
        }
        let (j, recs) = Journal::open(&p).unwrap();
        assert_eq!(recs, vec![shard(0), shard(1)]);
        assert_eq!(j.seq(), 2);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() {
        let p = tmp("torn");
        std::fs::remove_file(&p).ok();
        {
            let (mut j, _) = Journal::open(&p).unwrap();
            j.append(&shard(0)).unwrap();
            j.append(&shard(1)).unwrap();
        }
        // simulate a crash mid-append: cut the last line short
        let text = std::fs::read_to_string(&p).unwrap();
        std::fs::write(&p, &text[..text.len() - 7]).unwrap();
        let (mut j, recs) = Journal::open(&p).unwrap();
        assert_eq!(recs.len(), 1, "torn tail must be dropped");
        assert_eq!(recs[0].unit, 0);
        // the truncated journal accepts fresh appends cleanly
        j.append(&shard(1)).unwrap();
        drop(j);
        let (_, recs) = Journal::open(&p).unwrap();
        assert_eq!(recs.len(), 2);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn interior_corruption_is_an_error() {
        let p = tmp("interior");
        std::fs::remove_file(&p).ok();
        {
            let (mut j, _) = Journal::open(&p).unwrap();
            j.append(&shard(0)).unwrap();
            j.append(&shard(1)).unwrap();
        }
        let text = std::fs::read_to_string(&p).unwrap();
        let flipped = text.replacen("shard", "sharx", 1);
        std::fs::write(&p, flipped).unwrap();
        assert!(matches!(Journal::open(&p), Err(CoreError::Corrupt { .. })));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn injected_io_fault_fails_exact_append() {
        let p = tmp("iofault");
        std::fs::remove_file(&p).ok();
        let _scope = octs_obs::fault::FaultScope::activate(
            octs_obs::fault::FaultPlan::new().io_error("journal.append", 1),
        );
        let (mut j, _) = Journal::open(&p).unwrap();
        j.append(&shard(0)).unwrap();
        assert!(matches!(j.append(&shard(1)), Err(CoreError::Io { op: "append", .. })));
        // one-shot: the retry (post-"crash" resume) succeeds
        j.append(&shard(1)).unwrap();
        std::fs::remove_file(&p).ok();
    }
}
