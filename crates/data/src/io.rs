//! CSV import/export for CTS datasets — the adoption path for real data —
//! plus the record-framed **shard** format backing the disk-resident task
//! bank ([`crate::bank`]).
//!
//! CSV format: a wide CSV with one row per time step and one column per
//! series (feature 0 only; a header row is optional). Adjacency is either
//! supplied separately as an `N×N` CSV of weights, or learned downstream via
//! the models' adaptive adjacency.
//!
//! Shard format (the [`crate::persist`] header-line and fnv64 checksum
//! conventions, one line per record so readers stream without ever holding a
//! whole shard):
//! ```text
//! {"magic":"OCTS-SHARD","version":1,"kind":"task-bank","records":N}
//! <fnv64 hex> <len> <payload>
//! ...            (N record lines)
//! ```
//! Shards are published by [`AtomicFile::commit`], so a torn or
//! checksum-failing shard can only arise through external damage — it is
//! surfaced as a typed [`CoreError::Torn`] naming the path, record index
//! and byte offset, never silently skipped.

use crate::cts::{Adjacency, CtsData};
use crate::persist::{fnv64, AtomicFile, CoreError};
use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

/// An `InvalidData` error locating the problem: file, line, byte offset.
fn parse_err(path: &Path, lineno: usize, offset: u64, msg: impl std::fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: line {} (byte offset {offset}): {msg}", path.display(), lineno + 1),
    )
}

/// Wraps an OS-level error with the file it concerns.
fn io_err(path: &Path, op: &str, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{op} failed for {}: {e}", path.display()))
}

/// Parses a wide CSV (`rows = steps`, `cols = series`) into a [`CtsData`]
/// with an identity adjacency. A non-numeric first row is treated as header.
/// Malformed content is rejected with the file, line and byte offset named.
pub fn read_csv(path: impl AsRef<Path>, name: &str) -> io::Result<CtsData> {
    let path = path.as_ref();
    let file = std::fs::File::open(path).map_err(|e| io_err(path, "open", e))?;
    let reader = BufReader::new(file);
    let mut rows: Vec<Vec<f32>> = Vec::new();
    let mut offset = 0u64; // byte offset of the current line's start
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| io_err(path, "read", e))?;
        let line_bytes = line.len() as u64 + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            offset += line_bytes;
            continue;
        }
        let parsed: Result<Vec<f32>, _> =
            trimmed.split(',').map(|c| c.trim().parse::<f32>()).collect();
        match parsed {
            Ok(vals) => {
                if let Some(first) = rows.first() {
                    if vals.len() != first.len() {
                        return Err(parse_err(
                            path,
                            lineno,
                            offset,
                            format!("row has {} columns, expected {}", vals.len(), first.len()),
                        ));
                    }
                }
                rows.push(vals);
            }
            Err(_) if rows.is_empty() && lineno == 0 => {} // header
            Err(e) => return Err(parse_err(path, lineno, offset, e)),
        }
        offset += line_bytes;
    }
    if rows.is_empty() {
        return Err(parse_err(path, 0, 0, "no data rows"));
    }
    let t = rows.len();
    let n = rows[0].len();
    // transpose: CSV is [t][n], CtsData stores [n][t][f]
    let mut values = vec![0.0f32; n * t];
    for (step, row) in rows.iter().enumerate() {
        for (series, &v) in row.iter().enumerate() {
            values[series * t + step] = v;
        }
    }
    Ok(CtsData::new(name, n, t, 1, values, Adjacency::identity(n)))
}

/// Writes feature 0 of a dataset as a wide CSV (`series_0..series_{N-1}`
/// header row, one row per step).
pub fn write_csv(data: &CtsData, path: impl AsRef<Path>) -> io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    let header: Vec<String> = (0..data.n()).map(|s| format!("series_{s}")).collect();
    writeln!(file, "{}", header.join(","))?;
    for step in 0..data.t() {
        let row: Vec<String> =
            (0..data.n()).map(|s| format!("{}", data.value(s, step, 0))).collect();
        writeln!(file, "{}", row.join(","))?;
    }
    Ok(())
}

/// Reads an `N×N` adjacency weight matrix from CSV (no header). Malformed
/// content is rejected with the file, line and byte offset named.
pub fn read_adjacency_csv(path: impl AsRef<Path>, n: usize) -> io::Result<Adjacency> {
    let path = path.as_ref();
    let file = std::fs::File::open(path).map_err(|e| io_err(path, "open", e))?;
    let reader = BufReader::new(file);
    let mut weights = Vec::with_capacity(n * n);
    let mut offset = 0u64;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| io_err(path, "read", e))?;
        if !line.trim().is_empty() {
            for cell in line.trim().split(',') {
                let v: f32 = cell.trim().parse().map_err(|e| {
                    parse_err(path, lineno, offset, format!("bad weight {:?}: {e}", cell.trim()))
                })?;
                weights.push(v);
            }
        }
        offset += line.len() as u64 + 1;
    }
    if weights.len() != n * n {
        return Err(parse_err(
            path,
            0,
            0,
            format!("expected {} weights ({n}x{n}), found {}", n * n, weights.len()),
        ));
    }
    Ok(Adjacency::from_dense(n, weights))
}

/// Attaches an adjacency loaded from CSV to a dataset.
pub fn with_adjacency(mut data: CtsData, adjacency: Adjacency) -> CtsData {
    assert_eq!(adjacency.n(), data.n(), "adjacency size mismatch");
    data.adjacency = adjacency;
    data
}

// ---------------------------------------------------------------------------
// Record-framed shards
// ---------------------------------------------------------------------------

/// Magic string of shard headers — distinguishes shards from
/// [`crate::persist`] envelopes (`"OCTS"`) while keeping the same
/// header-line discipline.
pub const SHARD_MAGIC: &str = "OCTS-SHARD";

/// Schema version of the shard format this build reads and writes.
pub const SHARD_VERSION: u32 = 1;

/// First line of every shard file.
#[derive(Serialize, Deserialize)]
struct ShardHeader {
    magic: String,
    version: u32,
    kind: String,
    records: u64,
}

/// Writes one shard: header first, then exactly the promised number of
/// checksummed record lines, published by [`AtomicFile::commit`]. A crash
/// mid-write leaves only the `.tmp` sibling — readers never observe a
/// half-written shard under the real name.
pub struct ShardWriter {
    file: AtomicFile,
    promised: u64,
    written: u64,
}

impl ShardWriter {
    /// Creates a shard that will hold exactly `records` record lines of the
    /// given `kind`.
    pub fn create(path: impl AsRef<Path>, kind: &str, records: u64) -> Result<Self, CoreError> {
        let path = path.as_ref();
        let header = ShardHeader {
            magic: SHARD_MAGIC.to_string(),
            version: SHARD_VERSION,
            kind: kind.to_string(),
            records,
        };
        let header_json = serde_json::to_string(&header)
            .map_err(|e| CoreError::torn(path, 0, 0, format!("header serialization: {e}")))?;
        let mut file = AtomicFile::create(path)?;
        file.write_all(header_json.as_bytes())?;
        file.write_all(b"\n")?;
        Ok(Self { file, promised: records, written: 0 })
    }

    /// Appends one record payload. Payloads are line-framed, so they must not
    /// contain raw newlines (JSON payloads never do — serializers escape
    /// them).
    pub fn append(&mut self, payload: &[u8]) -> Result<(), CoreError> {
        assert!(
            !payload.contains(&b'\n'),
            "shard records are line-framed; payload must not contain raw newlines"
        );
        assert!(
            self.written < self.promised,
            "shard {} promised {} records",
            self.file.path().display(),
            self.promised
        );
        let frame = format!("{:016x} {} ", fnv64(payload), payload.len());
        self.file.write_all(frame.as_bytes())?;
        self.file.write_all(payload)?;
        self.file.write_all(b"\n")?;
        self.written += 1;
        Ok(())
    }

    /// Publishes the shard under its real name, committing at fault site
    /// `(site, op)` without the directory fsync: a shard is read only
    /// through the bank manifest, whose later commit into the same directory
    /// makes the shard's name durable too. Panics if fewer records than
    /// promised were appended — that is a caller bug, not an IO condition.
    pub fn finish(self, site: &str, op: u64) -> Result<(), CoreError> {
        assert_eq!(
            self.written,
            self.promised,
            "shard {} promised {} records, got {}",
            self.file.path().display(),
            self.promised,
            self.written
        );
        self.file.commit_unsynced_dir(site, op)
    }
}

/// Streams one shard record-by-record through a [`BufReader`] — peak memory
/// is one record line, never the whole shard. Every frame is validated
/// (length, checksum, record count) and any mismatch is a typed
/// [`CoreError::Torn`] carrying the record index and byte offset.
#[derive(Debug)]
pub struct ShardReader {
    path: PathBuf,
    reader: BufReader<std::fs::File>,
    records: u64,
    next: u64,
    offset: u64,
    buf: String,
}

impl ShardReader {
    /// Opens a shard, validating its header (magic, version, kind).
    pub fn open(path: impl AsRef<Path>, kind: &str) -> Result<Self, CoreError> {
        let path = path.as_ref().to_path_buf();
        let file = std::fs::File::open(&path).map_err(|e| CoreError::io(&path, "open", e))?;
        let mut reader = BufReader::new(file);
        let mut line = String::new();
        reader.read_line(&mut line).map_err(|e| CoreError::io(&path, "read", e))?;
        let Some(header_json) = line.strip_suffix('\n') else {
            return Err(CoreError::torn(&path, 0, 0, "header line truncated"));
        };
        let header: ShardHeader = serde_json::from_str(header_json)
            .map_err(|e| CoreError::torn(&path, 0, 0, format!("unparseable header: {e}")))?;
        if header.magic != SHARD_MAGIC {
            return Err(CoreError::torn(&path, 0, 0, format!("bad magic {:?}", header.magic)));
        }
        if header.version != SHARD_VERSION {
            return Err(CoreError::torn(
                &path,
                0,
                0,
                format!("shard version {} != supported {SHARD_VERSION}", header.version),
            ));
        }
        if header.kind != kind {
            return Err(CoreError::torn(
                &path,
                0,
                0,
                format!("shard kind {:?} != expected {kind:?}", header.kind),
            ));
        }
        let offset = line.len() as u64;
        Ok(Self { path, reader, records: header.records, next: 0, offset, buf: String::new() })
    }

    /// Number of records the header promises.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Reads the next record payload; `Ok(None)` at a clean end (exactly the
    /// promised record count, no trailing bytes).
    pub fn next_record(&mut self) -> Result<Option<Vec<u8>>, CoreError> {
        let record = self.next as usize;
        let offset = self.offset;
        self.buf.clear();
        let n = self
            .reader
            .read_line(&mut self.buf)
            .map_err(|e| CoreError::io(&self.path, "read", e))?;
        if self.next >= self.records {
            return if n == 0 {
                Ok(None)
            } else {
                Err(CoreError::torn(
                    &self.path,
                    record,
                    offset,
                    format!("trailing bytes after the {} promised records", self.records),
                ))
            };
        }
        if n == 0 {
            return Err(CoreError::torn(
                &self.path,
                record,
                offset,
                format!("shard ends after {record} records, header promises {}", self.records),
            ));
        }
        let Some(line) = self.buf.strip_suffix('\n') else {
            return Err(CoreError::torn(&self.path, record, offset, "record line truncated"));
        };
        let torn = |detail: String| CoreError::torn(&self.path, record, offset, detail);
        let (sum_hex, rest) =
            line.split_once(' ').ok_or_else(|| torn("record frame missing checksum".into()))?;
        let (len_str, payload) =
            rest.split_once(' ').ok_or_else(|| torn("record frame missing length".into()))?;
        let want_sum = u64::from_str_radix(sum_hex, 16)
            .map_err(|e| torn(format!("bad checksum field {sum_hex:?}: {e}")))?;
        let want_len: usize =
            len_str.parse().map_err(|e| torn(format!("bad length field {len_str:?}: {e}")))?;
        if payload.len() != want_len {
            return Err(torn(format!(
                "payload is {} bytes, frame promises {want_len} (truncated record?)",
                payload.len()
            )));
        }
        let got_sum = fnv64(payload.as_bytes());
        if got_sum != want_sum {
            return Err(torn(format!(
                "payload checksum {got_sum:016x} != frame {want_sum:016x} (bit rot?)"
            )));
        }
        self.next += 1;
        self.offset += self.buf.len() as u64;
        Ok(Some(payload.as_bytes().to_vec()))
    }
}

impl Iterator for ShardReader {
    type Item = Result<Vec<u8>, CoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{DatasetProfile, Domain};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("octs_io_{name}_{}.csv", std::process::id()))
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn csv_roundtrip_preserves_values() {
        let data =
            DatasetProfile::custom("io", Domain::Energy, 4, 50, 24, 0.2, 0.1, 10.0, 3).generate(0);
        let path = tmp("roundtrip");
        write_csv(&data, &path).unwrap();
        let back = read_csv(&path, "io").unwrap();
        assert_eq!(back.n(), 4);
        assert_eq!(back.t(), 50);
        for s in 0..4 {
            for t in 0..50 {
                let a = data.value(s, t, 0);
                let b = back.value(s, t, 0);
                assert!((a - b).abs() < 1e-3, "({s},{t}): {a} vs {b}");
            }
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn header_is_skipped_and_headerless_works() {
        let path = tmp("header");
        std::fs::write(&path, "a,b\n1,2\n3,4\n").unwrap();
        let d = read_csv(&path, "h").unwrap();
        assert_eq!((d.n(), d.t()), (2, 2));
        assert_eq!(d.value(1, 1, 0), 4.0);

        std::fs::write(&path, "1,2\n3,4\n5,6\n").unwrap();
        let d = read_csv(&path, "nh").unwrap();
        assert_eq!((d.n(), d.t()), (2, 3));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn ragged_rows_rejected() {
        let path = tmp("ragged");
        std::fs::write(&path, "1,2\n3\n").unwrap();
        assert!(read_csv(&path, "r").is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn empty_file_rejected() {
        let path = tmp("empty");
        std::fs::write(&path, "").unwrap();
        assert!(read_csv(&path, "e").is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn errors_name_file_line_and_byte_offset() {
        let path = tmp("context");
        // header (4 bytes incl. newline), good row (4), bad row at offset 8
        std::fs::write(&path, "a,b\n1,2\n3,oops\n").unwrap();
        let err = read_csv(&path, "ctx").unwrap_err().to_string();
        assert!(err.contains(&path.display().to_string()), "{err}");
        assert!(err.contains("line 3"), "{err}");
        assert!(err.contains("byte offset 8"), "{err}");

        std::fs::write(&path, "1,0.5\n0.5,bad\n").unwrap();
        let err = read_adjacency_csv(&path, 2).unwrap_err().to_string();
        assert!(err.contains(&path.display().to_string()), "{err}");
        assert!(err.contains("byte offset 6"), "{err}");
        assert!(err.contains("\"bad\""), "{err}");

        let missing = tmp("does_not_exist");
        std::fs::remove_file(&missing).ok();
        let err = read_csv(&missing, "m").unwrap_err().to_string();
        assert!(err.contains(&missing.display().to_string()), "{err}");
        std::fs::remove_file(path).ok();
    }

    fn write_shard(path: &std::path::Path, payloads: &[&[u8]]) {
        let mut w = ShardWriter::create(path, "test-kind", payloads.len() as u64).unwrap();
        for p in payloads {
            w.append(p).unwrap();
        }
        w.finish("test.shard", 0).unwrap();
    }

    #[test]
    fn shard_roundtrip_streams_payloads_back() {
        let path = tmp("shard_roundtrip");
        let payloads: Vec<Vec<u8>> =
            (0..5).map(|i| format!("{{\"i\":{i}}}").into_bytes()).collect();
        write_shard(&path, &payloads.iter().map(|p| p.as_slice()).collect::<Vec<_>>());
        let mut r = ShardReader::open(&path, "test-kind").unwrap();
        assert_eq!(r.records(), 5);
        for want in &payloads {
            assert_eq!(&r.next_record().unwrap().unwrap(), want);
        }
        assert!(r.next_record().unwrap().is_none());
        assert!(r.next_record().unwrap().is_none(), "clean end is stable");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shard_rejects_wrong_kind_and_version() {
        let path = tmp("shard_kind");
        write_shard(&path, &[b"{}"]);
        match ShardReader::open(&path, "other-kind") {
            Err(CoreError::Torn { detail, .. }) => assert!(detail.contains("kind"), "{detail}"),
            other => panic!("want Torn, got {other:?}"),
        }
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replacen("\"version\":1", "\"version\":9", 1)).unwrap();
        match ShardReader::open(&path, "test-kind") {
            Err(CoreError::Torn { detail, .. }) => assert!(detail.contains("version"), "{detail}"),
            other => panic!("want Torn, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shard_truncation_at_every_prefix_is_a_typed_error() {
        // The shard twin of the journal's torn-tail sweep: a shard is
        // published atomically, so *every* strict prefix must surface a
        // CoreError::Torn naming the path — never parse as a valid shard,
        // never panic.
        let path = tmp("shard_prefix");
        let payloads: Vec<Vec<u8>> =
            (0..3).map(|i| format!("{{\"task\":{i},\"x\":[1,2,3]}}").into_bytes()).collect();
        write_shard(&path, &payloads.iter().map(|p| p.as_slice()).collect::<Vec<_>>());
        let full = std::fs::read(&path).unwrap();

        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let outcome = (|| -> Result<u64, CoreError> {
                let mut r = ShardReader::open(&path, "test-kind")?;
                let mut n = 0;
                while r.next_record()?.is_some() {
                    n += 1;
                }
                Ok(n)
            })();
            match outcome {
                Err(CoreError::Torn { path: p, .. }) => {
                    assert_eq!(p, path, "cut at byte {cut}");
                }
                other => panic!("cut at byte {cut}: want Torn error, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shard_errors_name_record_index_and_byte_offset() {
        let path = tmp("shard_located");
        let payloads: Vec<Vec<u8>> =
            (0..3).map(|i| format!("{{\"i\":{i}}}").into_bytes()).collect();
        write_shard(&path, &payloads.iter().map(|p| p.as_slice()).collect::<Vec<_>>());
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.split_inclusive('\n').collect();

        // Flip one payload byte of record 1: its checksum must fail with the
        // record index and the byte offset of that line's start.
        let record1_offset: usize = lines[..2].iter().map(|l| l.len()).sum();
        let mut bytes = text.clone().into_bytes();
        let payload_pos = record1_offset + lines[2].len() - 3;
        bytes[payload_pos] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let mut r = ShardReader::open(&path, "test-kind").unwrap();
        assert_eq!(r.next_record().unwrap().unwrap(), payloads[0]);
        match r.next_record() {
            Err(CoreError::Torn { record, offset, detail, .. }) => {
                assert_eq!(record, 1);
                assert_eq!(offset, record1_offset as u64);
                assert!(detail.contains("checksum"), "{detail}");
            }
            other => panic!("want Torn at record 1, got {other:?}"),
        }

        // A shard cut at a record boundary reports the missing record index.
        let two_records: usize = lines[..3].iter().map(|l| l.len()).sum();
        std::fs::write(&path, &text.as_bytes()[..two_records]).unwrap();
        let mut r = ShardReader::open(&path, "test-kind").unwrap();
        assert!(r.next_record().unwrap().is_some());
        assert!(r.next_record().unwrap().is_some());
        match r.next_record() {
            Err(CoreError::Torn { record, offset, detail, .. }) => {
                assert_eq!(record, 2);
                assert_eq!(offset, two_records as u64);
                assert!(detail.contains("promises 3"), "{detail}");
            }
            other => panic!("want Torn at record 2, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shard_write_is_atomic_with_no_tmp_residue() {
        let path = tmp("shard_atomic");
        write_shard(&path, &[b"{\"a\":1}", b"{\"b\":2}"]);
        let mut t = path.as_os_str().to_owned();
        t.push(".tmp");
        assert!(!std::path::PathBuf::from(t).exists(), "no temp residue");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn adjacency_csv() {
        let path = tmp("adj");
        std::fs::write(&path, "1,0.5\n0.5,1\n").unwrap();
        let adj = read_adjacency_csv(&path, 2).unwrap();
        assert_eq!(adj.weight(0, 1), 0.5);
        assert!(read_adjacency_csv(&path, 3).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn loaded_dataset_runs_through_a_task() {
        use crate::task::{ForecastSetting, ForecastTask};
        let path = tmp("task");
        let rows: Vec<String> =
            (0..120).map(|t| format!("{},{}", t as f32 * 0.1, (t as f32 * 0.2).sin())).collect();
        std::fs::write(&path, rows.join("\n")).unwrap();
        let data = read_csv(&path, "loaded").unwrap();
        let task = ForecastTask::new(data, ForecastSetting::multi(4, 2), 0.6, 0.2, 1);
        assert!(!task.windows(crate::task::Split::Train).is_empty());
        std::fs::remove_file(path).ok();
    }
}
