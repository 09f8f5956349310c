//! Crash-safe file envelopes: a checksummed, versioned two-line format
//! written atomically (temp sibling + rename), so a reader never observes a
//! torn checkpoint — it sees either the previous complete file or the new
//! one.
//!
//! Layout:
//! ```text
//! {"magic":"OCTS","version":2,"checksum":"<fnv64 hex>","len":<bytes>}
//! <payload JSON>
//! ```
//! The header is validated field-by-field on read and every failure mode
//! maps to a descriptive [`CoreError`].

use crate::error::CoreError;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::Path;

/// Envelope magic — identifies the file family regardless of payload kind.
pub const MAGIC: &str = "OCTS";

/// The workspace's one checksum, shared with the data crate's shard frames
/// and bank manifests.
pub use octs_data::io::fnv64;

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
/// header: the bytes go to a `.tmp` sibling first, are fsynced, and only
/// then renamed over the destination. A crash at any point leaves either
/// the old file or the new one — never a torn mix.
pub fn write_envelope(path: &Path, version: u32, payload: &str) -> Result<(), CoreError> {
    let header = Header {
        magic: MAGIC.to_string(),
        version,
        checksum: format!("{:016x}", fnv64(payload.as_bytes())),
        len: payload.len() as u64,
    };
    let header_json = serde_json::to_string(&header)
        .map_err(|e| CoreError::corrupt(path, format!("header serialization: {e}")))?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut f = std::fs::File::create(&tmp).map_err(|e| CoreError::io(&tmp, "create", e))?;
        f.write_all(header_json.as_bytes())
            .and_then(|_| f.write_all(b"\n"))
            .and_then(|_| f.write_all(payload.as_bytes()))
            .and_then(|_| f.write_all(b"\n"))
            .map_err(|e| CoreError::io(&tmp, "write", e))?;
        f.sync_all().map_err(|e| CoreError::io(&tmp, "sync", e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| CoreError::io(path, "rename", e))
}

/// Reads and validates an envelope, returning the payload. Every corruption
/// mode — missing header, bad magic, wrong version, length or checksum
/// mismatch — yields a distinct, descriptive error.
pub fn read_envelope(path: &Path, expected_version: u32) -> Result<String, CoreError> {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("octs_persist_{name}_{}", std::process::id()))
    }

    #[test]
    fn envelope_roundtrip() {
        let p = tmp("roundtrip");
        write_envelope(&p, 3, "{\"x\":1}").unwrap();
        assert_eq!(read_envelope(&p, 3).unwrap(), "{\"x\":1}");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn wrong_version_is_reported() {
        let p = tmp("version");
        write_envelope(&p, 1, "payload").unwrap();
        match read_envelope(&p, 2) {
            Err(CoreError::Version { found: 1, expected: 2, .. }) => {}
            other => panic!("want Version error, got {other:?}"),
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn truncation_and_corruption_are_detected() {
        let p = tmp("torn");
        write_envelope(&p, 1, "a longer payload that we can truncate").unwrap();
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
    fn no_tmp_residue_after_write() {
        let p = tmp("residue");
        write_envelope(&p, 1, "x").unwrap();
        let mut t = p.as_os_str().to_owned();
        t.push(".tmp");
        assert!(!std::path::PathBuf::from(t).exists());
        std::fs::remove_file(&p).ok();
    }
}
