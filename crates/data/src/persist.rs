//! Durable files: the one atomic write, the one checksummed envelope codec,
//! the workspace's one checksum and its one persistence error type.
//!
//! Every file the workspace keeps on disk — task-bank shards and manifests,
//! pre-training sidecars and artifacts, checkpoints, servable versions — is
//! published by [`AtomicFile::commit`]: the bytes go to a `.tmp` sibling,
//! are fsynced, renamed over the destination, and the parent directory is
//! fsynced. A crash at any point leaves either the previous file or the new
//! one, never a torn mix, and a committed name survives power loss. A bank's
//! shards skip the directory fsync ([`AtomicFile::commit_unsynced_dir`]):
//! the manifest, committed last into the same directory, makes their names
//! durable with its own. Directories that hold durable files are made by
//! [`create_dir_durable`], so a new directory entry survives as well.
//!
//! Everything but the shards (which are record-framed, see
//! [`crate::io::ShardWriter`]) is an **envelope**:
//! ```text
//! {"magic":"OCTS","version":2,"checksum":"<fnv64 hex>","len":<bytes>}
//! <payload JSON>
//! ```
//! The header is validated field by field on read and every failure mode
//! maps to a descriptive [`CoreError`]. [`save_json`] and [`load_json`] put
//! serde on top, so a caller persists a value in one call.

use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Envelope magic — identifies the file family regardless of payload kind.
const MAGIC: &str = "OCTS";

/// FNV-1a 64-bit hash: tiny, dependency-free, and plenty for detecting torn
/// or bit-rotted payloads (not a cryptographic signature). The workspace's
/// one checksum: envelopes, shard frames, bank manifests and the progress
/// journal's lines.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// What went wrong while saving, loading, streaming or journaling. Every
/// failure names the file involved, and corruption is distinguished from
/// plain IO so callers can decide between retrying and refusing a file.
#[derive(Debug)]
pub enum CoreError {
    /// An OS-level IO failure.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The operation that failed (`"read"`, `"write"`, `"rename"`, …).
        op: &'static str,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The file exists but its contents are not what the format promises —
    /// torn write, truncation, bad checksum, or unparseable payload.
    Corrupt {
        /// The file involved.
        path: PathBuf,
        /// What exactly failed to validate.
        detail: String,
    },
    /// A record-framed file (a shard) failed validation at a known place:
    /// truncation, a failed checksum, a malformed header or record frame.
    Torn {
        /// The file involved.
        path: PathBuf,
        /// Zero-based index of the record being read (0 also covers header
        /// failures; `detail` disambiguates).
        record: usize,
        /// Byte offset of the failing line's start within the file.
        offset: u64,
        /// What exactly failed to validate.
        detail: String,
    },
    /// The file is a valid envelope of the wrong schema version.
    Version {
        /// The file involved.
        path: PathBuf,
        /// Version found in the header.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// A resume was attempted against state written under a different
    /// configuration (fingerprint mismatch).
    Mismatch {
        /// The journal or checkpoint involved.
        path: PathBuf,
        /// Human-readable description of the disagreement.
        detail: String,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Io { path, op, source } => {
                write!(f, "{op} failed for {}: {source}", path.display())
            }
            CoreError::Corrupt { path, detail } => {
                write!(f, "{} is corrupt: {detail}", path.display())
            }
            CoreError::Torn { path, record, offset, detail } => write!(
                f,
                "{} is torn at record {record} (byte offset {offset}): {detail}",
                path.display()
            ),
            CoreError::Version { path, found, expected } => write!(
                f,
                "{} has schema version {found}, this build reads version {expected}",
                path.display()
            ),
            CoreError::Mismatch { path, detail } => {
                write!(f, "{} belongs to a different run: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl CoreError {
    /// Shorthand for wrapping an [`std::io::Error`] with context.
    pub fn io(path: impl Into<PathBuf>, op: &'static str, source: std::io::Error) -> Self {
        CoreError::Io { path: path.into(), op, source }
    }

    /// Shorthand for a corruption report.
    pub fn corrupt(path: impl Into<PathBuf>, detail: impl Into<String>) -> Self {
        CoreError::Corrupt { path: path.into(), detail: detail.into() }
    }

    /// Shorthand for a located record-frame failure.
    pub(crate) fn torn(path: &Path, record: usize, offset: u64, detail: impl Into<String>) -> Self {
        CoreError::Torn { path: path.to_path_buf(), record, offset, detail: detail.into() }
    }
}

/// Fsyncs the directory holding `path`, so a name just created or renamed
/// there survives power loss. A no-op where directories cannot be opened
/// as files (non-Unix hosts).
pub fn sync_parent(path: &Path) -> Result<(), CoreError> {
    if !cfg!(unix) {
        return Ok(());
    }
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    File::open(dir).and_then(|d| d.sync_all()).map_err(|e| CoreError::io(dir, "sync_dir", e))
}

/// Creates `dir` and any missing ancestors, fsyncing the parent of every
/// directory it creates, so the new entries survive power loss together
/// with the files later committed inside them. An existing `dir` costs one
/// `metadata` call and no fsync.
pub fn create_dir_durable(dir: &Path) -> Result<(), CoreError> {
    let missing: Vec<&Path> =
        dir.ancestors().take_while(|d| !d.as_os_str().is_empty() && !d.exists()).collect();
    std::fs::create_dir_all(dir).map_err(|e| CoreError::io(dir, "create_dir", e))?;
    missing.iter().rev().try_for_each(|d| sync_parent(d))
}

/// A file being written under a `.tmp` sibling of its destination; nothing
/// appears under the real name until [`AtomicFile::commit`].
pub struct AtomicFile {
    path: PathBuf,
    tmp: PathBuf,
    file: BufWriter<File>,
}

impl AtomicFile {
    /// Creates (truncating) the `.tmp` sibling of `path`.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self, CoreError> {
        let path = path.into();
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let file = File::create(&tmp).map_err(|e| CoreError::io(&tmp, "create", e))?;
        Ok(Self { path, tmp, file: BufWriter::new(file) })
    }

    /// The destination the file is published under.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends `bytes` to the temporary file.
    pub fn write_all(&mut self, bytes: &[u8]) -> Result<(), CoreError> {
        self.file.write_all(bytes).map_err(|e| CoreError::io(&self.tmp, "write", e))
    }

    /// Publishes the file: flush, fsync, rename over the destination, fsync
    /// the directory. The fault hook `octs_obs::fault::io_fault(site, op)`
    /// fires between the fsync and the rename, so a test can kill the write
    /// at the exact point where the complete `.tmp` file exists but the
    /// destination still holds its previous contents (or nothing).
    pub fn commit(self, site: &str, op: u64) -> Result<(), CoreError> {
        let path = self.path.clone();
        self.commit_unsynced_dir(site, op)?;
        sync_parent(&path)
    }

    /// [`AtomicFile::commit`] without the directory fsync: the file's bytes
    /// are durable, its name only once a later commit into the same
    /// directory fsyncs it. For a batch of files that a last file, committed
    /// with [`AtomicFile::commit`], makes visible (a bank's shards and its
    /// manifest).
    pub fn commit_unsynced_dir(self, site: &str, op: u64) -> Result<(), CoreError> {
        let Self { path, tmp, file } = self;
        let file = file.into_inner().map_err(|e| CoreError::io(&tmp, "flush", e.into_error()))?;
        file.sync_all().map_err(|e| CoreError::io(&tmp, "sync", e))?;
        drop(file);
        octs_obs::fault::io_fault(site, op).map_err(|e| CoreError::io(&path, "rename", e))?;
        std::fs::rename(&tmp, &path).map_err(|e| CoreError::io(&path, "rename", e))
    }
}

/// First line of every envelope. The checksum is hex-encoded because the
/// vendored JSON parser goes through `f64` for numbers and would silently
/// round u64 values above 2^53.
#[derive(Serialize, Deserialize)]
struct Header {
    magic: String,
    version: u32,
    checksum: String,
    len: u64,
}

/// Atomically writes `payload` to `path` under a checksummed, versioned
/// header, committing at fault site `(site, op)`.
fn write_envelope(
    path: &Path,
    version: u32,
    payload: &str,
    site: &str,
    op: u64,
) -> Result<(), CoreError> {
    let header = Header {
        magic: MAGIC.to_string(),
        version,
        checksum: format!("{:016x}", fnv64(payload.as_bytes())),
        len: payload.len() as u64,
    };
    let header = serde_json::to_string(&header)
        .map_err(|e| CoreError::corrupt(path, format!("header serialization: {e}")))?;
    let mut file = AtomicFile::create(path)?;
    for part in [header.as_bytes(), b"\n", payload.as_bytes(), b"\n"] {
        file.write_all(part)?;
    }
    file.commit(site, op)
}

/// Reads and validates an envelope, returning the payload. Every corruption
/// mode — missing header, bad magic, wrong version, length or checksum
/// mismatch — yields a distinct, descriptive error.
fn read_envelope(path: &Path, expected_version: u32) -> Result<String, CoreError> {
    let text = std::fs::read_to_string(path).map_err(|e| CoreError::io(path, "read", e))?;
    let Some((header_line, rest)) = text.split_once('\n') else {
        return Err(CoreError::corrupt(path, "no header line (file truncated?)"));
    };
    let header: Header = serde_json::from_str(header_line)
        .map_err(|e| CoreError::corrupt(path, format!("unparseable header: {e}")))?;
    if header.magic != MAGIC {
        return Err(CoreError::corrupt(path, format!("bad magic {:?}", header.magic)));
    }
    if header.version != expected_version {
        return Err(CoreError::Version {
            path: path.to_path_buf(),
            found: header.version,
            expected: expected_version,
        });
    }
    let payload = rest.strip_suffix('\n').unwrap_or(rest);
    if payload.len() as u64 != header.len {
        return Err(CoreError::corrupt(
            path,
            format!(
                "payload is {} bytes, header promises {} (torn write?)",
                payload.len(),
                header.len
            ),
        ));
    }
    let checksum = format!("{:016x}", fnv64(payload.as_bytes()));
    if checksum != header.checksum {
        return Err(CoreError::corrupt(
            path,
            format!("checksum {checksum} != header {} (bit rot or torn write?)", header.checksum),
        ));
    }
    Ok(payload.to_string())
}

/// Serializes `value` as JSON and atomically writes it as an envelope,
/// committing at fault site `(site, op)`.
pub fn save_json<T: Serialize>(
    path: &Path,
    version: u32,
    value: &T,
    site: &str,
    op: u64,
) -> Result<(), CoreError> {
    let json = serde_json::to_string(value)
        .map_err(|e| CoreError::corrupt(path, format!("payload serialization: {e}")))?;
    write_envelope(path, version, &json, site, op)
}

/// Reads an envelope, validates its header (magic, version, length,
/// checksum) and parses its JSON payload.
pub fn load_json<T: Deserialize>(path: &Path, version: u32) -> Result<T, CoreError> {
    let json = read_envelope(path, version)?;
    serde_json::from_str(&json)
        .map_err(|e| CoreError::corrupt(path, format!("unparseable payload: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("octs_persist_{name}_{}", std::process::id()))
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn envelope_roundtrip() {
        let p = tmp("roundtrip");
        write_envelope(&p, 3, "{\"x\":1}", "test", 0).unwrap();
        assert_eq!(read_envelope(&p, 3).unwrap(), "{\"x\":1}");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn wrong_version_is_reported() {
        let p = tmp("version");
        write_envelope(&p, 1, "payload", "test", 0).unwrap();
        match read_envelope(&p, 2) {
            Err(CoreError::Version { found: 1, expected: 2, .. }) => {}
            other => panic!("want Version error, got {other:?}"),
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn truncation_and_corruption_are_detected() {
        let p = tmp("torn");
        write_envelope(&p, 1, "a longer payload that we can truncate", "test", 0).unwrap();
        let full = std::fs::read_to_string(&p).unwrap();

        // torn write: payload cut short
        std::fs::write(&p, &full[..full.len() - 10]).unwrap();
        assert!(matches!(read_envelope(&p, 1), Err(CoreError::Corrupt { .. })));

        // single flipped byte: checksum mismatch
        let mut flipped = full.clone().into_bytes();
        let n = flipped.len();
        flipped[n - 3] ^= 0x01;
        std::fs::write(&p, &flipped).unwrap();
        assert!(matches!(read_envelope(&p, 1), Err(CoreError::Corrupt { .. })));

        // empty file: no header
        std::fs::write(&p, "").unwrap();
        assert!(matches!(read_envelope(&p, 1), Err(CoreError::Corrupt { .. })));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn durable_dirs_are_created_nested_and_idempotent() {
        let root = tmp("dirs");
        std::fs::remove_dir_all(&root).ok();
        let leaf = root.join("a").join("b");
        create_dir_durable(&leaf).unwrap();
        assert!(leaf.is_dir());
        create_dir_durable(&leaf).unwrap();
        let blocked = root.join("file");
        std::fs::write(&blocked, "x").unwrap();
        match create_dir_durable(&blocked.join("c")) {
            Err(CoreError::Io { op: "create_dir", .. }) => {}
            other => panic!("want a create_dir IO error, got {other:?}"),
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn no_tmp_residue_after_write() {
        let p = tmp("residue");
        write_envelope(&p, 1, "x", "test", 0).unwrap();
        let mut t = p.as_os_str().to_owned();
        t.push(".tmp");
        assert!(!std::path::PathBuf::from(t).exists());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn killed_commit_keeps_the_previous_file() {
        let p = tmp("killed");
        save_json(&p, 1, &vec![1u32, 2], "test.commit", 0).unwrap();
        let _scope = octs_obs::fault::FaultScope::activate(
            octs_obs::fault::FaultPlan::new().io_error("test.commit", 1),
        );
        let err = save_json(&p, 1, &vec![3u32], "test.commit", 1).unwrap_err();
        assert!(matches!(err, CoreError::Io { op: "rename", .. }), "{err}");
        assert_eq!(load_json::<Vec<u32>>(&p, 1).unwrap(), vec![1, 2]);
        // one-shot: the retry publishes
        save_json(&p, 1, &vec![3u32], "test.commit", 1).unwrap();
        assert_eq!(load_json::<Vec<u32>>(&p, 1).unwrap(), vec![3]);
        std::fs::remove_file(&p).ok();
    }
}
