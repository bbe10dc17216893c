//! The crash-safe write-ahead verdict log (`minobs/wal/v1`).
//!
//! Verdicts are immutable theorems, which makes persistence unusually
//! clean: a record is never updated or invalidated, only *subsumed* by a
//! tighter boundary, so the log is append-only, replay is idempotent,
//! and replay order does not matter. The daemon appends one record per
//! fresh definite verdict and replays the whole log at startup to warm
//! the [`VerdictCache`].
//!
//! ## On-disk format
//!
//! An 8-byte magic (`MOBSWAL1`) followed by length-prefixed,
//! CRC32-checksummed records:
//!
//! ```text
//! [len: u32 BE] [crc32(payload): u32 BE] [payload: len bytes of JSON]
//! ```
//!
//! Payloads are one JSON object each (see [`WalRecord`]): a `horizon`
//! delta, a `theorem` memo, or a `snapshot` written by compaction.
//!
//! ## Recovery semantics
//!
//! Replay consumes the longest valid prefix. The first record that is
//! truncated, fails its checksum, parses to garbage, or contradicts what
//! was already replayed ends the replay. Records are admitted one at a
//! time through [`VerdictCache::admit`], the rule gossip ingest and the
//! request path share, so a theorem memo that differs from an earlier
//! one for its key is a contradiction too. The tail is
//! *dropped, never served*: a half-written crash tail can lose the last
//! verdicts, but can never produce a wrong one. The file is truncated
//! back to the valid prefix before appending resumes, so a torn tail
//! does not corrupt post-restart records.
//!
//! ## Compaction
//!
//! Deltas for the same key accumulate (each boundary tightening leaves
//! the looser record dead). When dead records exceed
//! [`CompactionPolicy::dead_ratio`], the live cache is rewritten as one
//! `snapshot` record per key into a temp file, atomically renamed over
//! the log. Crash before the rename leaves the old log; crash after
//! leaves the new one — never a mix.
//!
//! ## Fault injection
//!
//! All writes go through the [`WalFile`] trait, so harnesses can inject
//! crash-after-N-bytes and `ENOSPC`-style failures (see
//! `minobs_chaos::fault::FaultPlan` and `tests/wal_recovery.rs`). A
//! failed append permanently degrades the daemon to memory-only mode:
//! the `svc.wal_degraded` gauge flips to 1 and a `wal_degraded` trace
//! event is emitted, but queries keep answering.

use crate::cache::{Admission, VerdictCache};
use minobs_synth::cache::HorizonVerdicts;
use serde_json::{Map, Value};
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Version tag carried by every record payload.
pub const WAL_SCHEMA: &str = "minobs/wal/v1";
/// File magic; a file not starting with this is not a WAL.
pub const MAGIC: &[u8; 8] = b"MOBSWAL1";
/// Hard cap on one record's payload, mirroring the RPC frame cap; a
/// length prefix beyond it is treated as corruption, not an allocation.
pub const MAX_RECORD: u32 = 16 * 1024 * 1024;
/// Appends between automatic buffer flushes; bounds the crash-loss
/// window without putting an fsync on the request path.
const FLUSH_EVERY: u64 = 64;

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the bytewise table, and
/// `CRC_TABLES[t][b]` is the CRC of byte `b` followed by `t` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3) over `bytes`, eight bytes per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// One WAL payload.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A fresh definite horizon verdict (`ServerState::record_horizon`).
    Horizon {
        /// Canonical cache key.
        key: String,
        /// The horizon checked.
        k: usize,
        /// The definite verdict at `k`.
        solvable: bool,
    },
    /// A memoised Theorem III.8 verdict (`ServerState::record_theorem`).
    Theorem {
        /// Canonical cache key (`…|theorem`).
        key: String,
        /// The full memoised result object.
        result: Value,
    },
    /// One key's whole entry, written by compaction.
    Snapshot {
        /// Canonical cache key.
        key: String,
        /// Both monotone boundaries.
        verdicts: HorizonVerdicts,
        /// The theorem memo, when one exists.
        theorem: Option<Value>,
    },
}

impl WalRecord {
    /// Stable operation name, also used by `wal_append` trace events.
    pub fn op(&self) -> &'static str {
        match self {
            WalRecord::Horizon { .. } => "horizon",
            WalRecord::Theorem { .. } => "theorem",
            WalRecord::Snapshot { .. } => "snapshot",
        }
    }

    /// The canonical key the record is about.
    pub fn key(&self) -> &str {
        match self {
            WalRecord::Horizon { key, .. }
            | WalRecord::Theorem { key, .. }
            | WalRecord::Snapshot { key, .. } => key,
        }
    }

    /// Serialises to the JSON payload (without framing).
    pub fn to_json(&self) -> Value {
        let mut map = Map::new();
        map.insert("wal".to_string(), Value::from(WAL_SCHEMA));
        map.insert("op".to_string(), Value::from(self.op()));
        map.insert("key".to_string(), Value::from(self.key()));
        match self {
            WalRecord::Horizon { k, solvable, .. } => {
                map.insert("k".to_string(), Value::from(*k as u64));
                map.insert("solvable".to_string(), Value::from(*solvable));
            }
            WalRecord::Theorem { result, .. } => {
                map.insert("result".to_string(), result.clone());
            }
            WalRecord::Snapshot {
                verdicts, theorem, ..
            } => {
                map.insert("verdicts".to_string(), verdicts.to_json());
                map.insert(
                    "theorem".to_string(),
                    theorem.clone().unwrap_or(Value::Null),
                );
            }
        }
        Value::Object(map)
    }

    /// Parses one payload; `None` on anything malformed — the caller
    /// treats that as a corrupt tail, not an error to propagate.
    pub fn from_json(value: &Value) -> Option<WalRecord> {
        if value.get("wal").and_then(Value::as_str) != Some(WAL_SCHEMA) {
            return None;
        }
        let key = value.get("key").and_then(Value::as_str)?.to_string();
        match value.get("op").and_then(Value::as_str)? {
            "horizon" => Some(WalRecord::Horizon {
                key,
                k: usize::try_from(value.get("k")?.as_u64()?).ok()?,
                solvable: value.get("solvable")?.as_bool()?,
            }),
            "theorem" => Some(WalRecord::Theorem {
                key,
                result: value.get("result")?.clone(),
            }),
            "snapshot" => Some(WalRecord::Snapshot {
                key,
                verdicts: HorizonVerdicts::from_json(value.get("verdicts")?)?,
                theorem: match value.get("theorem")? {
                    Value::Null => None,
                    v => Some(v.clone()),
                },
            }),
            _ => None,
        }
    }

    /// Frames the record for appending: length, checksum, payload.
    pub fn encode(&self) -> Vec<u8> {
        let payload = serde_json::to_string(&self.to_json())
            .expect("WAL payloads are plain JSON objects")
            .into_bytes();
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(&crc32(&payload).to_be_bytes());
        frame.extend_from_slice(&payload);
        frame
    }
}

/// Where WAL bytes go. Production is a buffered file; harnesses inject
/// in-memory or failing implementations.
pub trait WalFile: Send {
    /// Appends `frame` at the end of the log.
    fn append(&mut self, frame: &[u8]) -> io::Result<()>;
    /// Pushes buffered bytes to the OS.
    fn flush(&mut self) -> io::Result<()>;
}

struct DiskFile(BufWriter<File>);

impl WalFile for DiskFile {
    fn append(&mut self, frame: &[u8]) -> io::Result<()> {
        self.0.write_all(frame)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

/// An in-memory [`WalFile`] over a shared byte buffer, for tests and
/// fault harnesses: the handle stays readable after the "process" (the
/// [`Wal`]) is dropped, exactly like a disk surviving a crash.
#[derive(Clone, Default)]
pub struct MemoryWalFile {
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl MemoryWalFile {
    /// An empty in-memory log.
    pub fn new() -> MemoryWalFile {
        MemoryWalFile::default()
    }

    /// A copy of everything appended so far.
    pub fn bytes(&self) -> Vec<u8> {
        self.bytes.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

impl WalFile for MemoryWalFile {
    fn append(&mut self, frame: &[u8]) -> io::Result<()> {
        self.bytes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend_from_slice(frame);
        Ok(())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// When the log is rewritten from the live cache.
#[derive(Debug, Clone, Copy)]
pub struct CompactionPolicy {
    /// Compaction is never considered below this many records.
    pub min_records: u64,
    /// Trigger once `dead / total` exceeds this ratio, where dead
    /// records are those no longer backing a live cache entry.
    pub dead_ratio: f64,
}

impl Default for CompactionPolicy {
    fn default() -> CompactionPolicy {
        CompactionPolicy {
            min_records: 1024,
            dead_ratio: 0.5,
        }
    }
}

/// What one compaction did.
#[derive(Debug, Clone, Copy)]
pub struct CompactionStats {
    /// Records in the log before the rewrite.
    pub records_before: u64,
    /// Snapshot records written.
    pub records_after: u64,
}

/// The outcome of replaying a log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Records applied to the cache.
    pub records: u64,
    /// Bytes of valid log consumed, magic included.
    pub bytes: u64,
    /// Whether an invalid tail was found and dropped.
    pub dropped_tail: bool,
}

/// Replays framed records from `bytes` (magic included) into `cache`.
///
/// Each record is admitted on its own through [`VerdictCache::admit`].
/// Replay stops at the first truncated, checksum-failing or unparsable
/// record, or the first one the cache refutes; everything from there on
/// is reported as a dropped tail. Never fails: a WAL that is garbage
/// from byte 0 simply replays 0 records.
pub fn replay_bytes(bytes: &[u8], cache: &VerdictCache) -> ReplayReport {
    let mut report = ReplayReport::default();
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        report.dropped_tail = !bytes.is_empty();
        return report;
    }
    let mut offset = MAGIC.len();
    while offset < bytes.len() {
        match decode(&bytes[offset..]) {
            Some((record, consumed)) if cache.admit(&record) != Admission::Contradicts => {
                offset += consumed;
                report.records += 1;
            }
            _ => {
                report.dropped_tail = true;
                break;
            }
        }
    }
    report.bytes = offset as u64;
    report
}

/// Decodes one frame from the head of `bytes` into its record and
/// framed length; `None` on any form of corruption.
fn decode(bytes: &[u8]) -> Option<(WalRecord, usize)> {
    if bytes.len() < 8 {
        return None;
    }
    let len = u32::from_be_bytes(bytes[0..4].try_into().ok()?);
    if len > MAX_RECORD {
        return None;
    }
    let end = 8usize.checked_add(len as usize)?;
    if bytes.len() < end {
        return None;
    }
    let crc = u32::from_be_bytes(bytes[4..8].try_into().ok()?);
    let payload = &bytes[8..end];
    if crc32(payload) != crc {
        return None;
    }
    let value: Value = serde_json::from_str(std::str::from_utf8(payload).ok()?).ok()?;
    Some((WalRecord::from_json(&value)?, end))
}

/// An open write-ahead log.
pub struct Wal {
    file: Box<dyn WalFile>,
    /// Backing path; `None` for injected files, which also disables
    /// compaction (there is nothing to rename over).
    path: Option<PathBuf>,
    policy: CompactionPolicy,
    /// Records in the log: replayed count plus appends since open.
    records: u64,
    appends_since_flush: u64,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, replaying it into
    /// `cache` first. A torn or corrupt tail is truncated away before
    /// appending resumes. A file that is not a WAL at all is an error —
    /// refusing to overwrite foreign data is the caller's cue to degrade.
    pub fn open(
        path: &Path,
        cache: &VerdictCache,
        policy: CompactionPolicy,
    ) -> io::Result<(Wal, ReplayReport)> {
        // A crash between compaction's `File::create(&tmp)` and its
        // atomic rename strands `<path>.wal.tmp`; the half-written temp
        // is dead weight (the rename never happened, so the real log is
        // still authoritative) and would otherwise leak forever.
        let stale = path.with_extension("wal.tmp");
        match std::fs::remove_file(&stale) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let bytes = match File::open(path) {
            Ok(mut f) => {
                let mut bytes = Vec::new();
                f.read_to_end(&mut bytes)?;
                bytes
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        if !bytes.is_empty() && (bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} exists but is not a minobs WAL", path.display()),
            ));
        }
        let report = replay_bytes(&bytes, cache);
        let file = if bytes.is_empty() {
            let mut f = File::create(path)?;
            f.write_all(MAGIC)?;
            f
        } else {
            let f = OpenOptions::new().write(true).open(path)?;
            // Drop the invalid tail so new appends extend a valid prefix.
            f.set_len(report.bytes)?;
            f
        };
        let mut writer = BufWriter::new(file);
        writer.seek_to_end()?;
        Ok((
            Wal {
                file: Box::new(DiskFile(writer)),
                path: Some(path.to_path_buf()),
                policy,
                records: report.records,
                appends_since_flush: 0,
            },
            report,
        ))
    }

    /// A log over an injected [`WalFile`], starting from empty: the
    /// magic is appended immediately. Compaction is disabled.
    pub fn with_file(mut file: Box<dyn WalFile>, policy: CompactionPolicy) -> io::Result<Wal> {
        file.append(MAGIC)?;
        Ok(Wal {
            file,
            path: None,
            policy,
            records: 0,
            appends_since_flush: 0,
        })
    }

    /// Records in the log (replayed + appended).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Appends one record; returns its framed size. On `Err` the log
    /// must be considered dead — the caller drops the [`Wal`] and runs
    /// memory-only (degradation is one-way by design: a disk that failed
    /// once cannot silently hold half a log).
    pub fn append(&mut self, record: &WalRecord) -> io::Result<u64> {
        let frame = record.encode();
        self.file.append(&frame)?;
        self.records += 1;
        self.appends_since_flush += 1;
        if self.appends_since_flush >= FLUSH_EVERY {
            self.flush()?;
        }
        Ok(frame.len() as u64)
    }

    /// Pushes buffered appends to the OS (drain path, periodic tick).
    pub fn flush(&mut self) -> io::Result<()> {
        self.appends_since_flush = 0;
        self.file.flush()
    }

    /// Rewrites the log as one snapshot per live cache entry when the
    /// dead-record ratio exceeds policy — rewrite-to-temp then atomic
    /// rename, so a crash at any point leaves one valid log. Returns
    /// `None` when compaction is not due (or not possible).
    pub fn maybe_compact(&mut self, cache: &VerdictCache) -> io::Result<Option<CompactionStats>> {
        if self.path.is_none() || self.records < self.policy.min_records {
            return Ok(None);
        }
        let live = cache.entries() as u64;
        let dead = self.records.saturating_sub(live);
        if (dead as f64) <= self.records as f64 * self.policy.dead_ratio {
            return Ok(None);
        }
        self.compact(cache).map(Some)
    }

    /// Unconditionally compacts; see [`Wal::maybe_compact`].
    pub fn compact(&mut self, cache: &VerdictCache) -> io::Result<CompactionStats> {
        let path = self.path.clone().ok_or_else(|| {
            io::Error::new(io::ErrorKind::Unsupported, "injected WAL cannot compact")
        })?;
        let records_before = self.records;
        let tmp = path.with_extension("wal.tmp");
        let entries = cache.snapshot();
        {
            let mut writer = BufWriter::new(File::create(&tmp)?);
            writer.write_all(MAGIC)?;
            for (key, verdicts, theorem) in &entries {
                let record = WalRecord::Snapshot {
                    key: key.clone(),
                    verdicts: *verdicts,
                    theorem: theorem.clone(),
                };
                writer.write_all(&record.encode())?;
            }
            writer.flush()?;
            writer.get_ref().sync_all()?;
        }
        // Close the old handle before the rename replaces it.
        self.file.flush()?;
        std::fs::rename(&tmp, &path)?;
        let file = OpenOptions::new().write(true).open(&path)?;
        let mut writer = BufWriter::new(file);
        writer.seek_to_end()?;
        self.file = Box::new(DiskFile(writer));
        self.records = entries.len() as u64;
        self.appends_since_flush = 0;
        Ok(CompactionStats {
            records_before,
            records_after: self.records,
        })
    }
}

trait SeekToEnd {
    fn seek_to_end(&mut self) -> io::Result<()>;
}

impl SeekToEnd for BufWriter<File> {
    fn seek_to_end(&mut self) -> io::Result<()> {
        use std::io::Seek;
        self.seek(io::SeekFrom::End(0)).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minobs_obs::MetricsRegistry;

    fn cache() -> VerdictCache {
        VerdictCache::new(&MetricsRegistry::new())
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_a_bytewise_reference() {
        fn bytewise(bytes: &[u8]) -> u32 {
            let mut crc = 0xFFFF_FFFFu32;
            for &byte in bytes {
                crc ^= byte as u32;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        (crc >> 1) ^ 0xEDB8_8320
                    } else {
                        crc >> 1
                    };
                }
            }
            !crc
        }
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let buffer: Vec<u8> = (0..1 << 20)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        for len in 0..=64 {
            // Every length at every alignment within a word.
            for start in 0..8 {
                let bytes = &buffer[start..start + len];
                assert_eq!(crc32(bytes), bytewise(bytes), "len {len} at {start}");
            }
        }
        assert_eq!(crc32(&buffer), bytewise(&buffer));
    }

    #[test]
    fn records_round_trip() {
        let records = [
            WalRecord::Horizon {
                key: "classic:s1|gamma".to_string(),
                k: 3,
                solvable: true,
            },
            WalRecord::Theorem {
                key: "classic:s1|theorem".to_string(),
                result: Value::from(true),
            },
            WalRecord::Snapshot {
                key: "classic:r1|gamma".to_string(),
                verdicts: {
                    let mut v = HorizonVerdicts::new();
                    v.record(2, false);
                    v.record(5, true);
                    v
                },
                theorem: None,
            },
        ];
        for record in &records {
            assert_eq!(WalRecord::from_json(&record.to_json()).as_ref(), Some(record));
        }
    }

    #[test]
    fn append_then_replay_is_identity() {
        let file = MemoryWalFile::new();
        let mut wal =
            Wal::with_file(Box::new(file.clone()), CompactionPolicy::default()).unwrap();
        wal.append(&WalRecord::Horizon {
            key: "a".to_string(),
            k: 2,
            solvable: false,
        })
        .unwrap();
        wal.append(&WalRecord::Horizon {
            key: "a".to_string(),
            k: 5,
            solvable: true,
        })
        .unwrap();
        wal.append(&WalRecord::Theorem {
            key: "a|theorem".to_string(),
            result: Value::from(7u64),
        })
        .unwrap();
        wal.flush().unwrap();

        let cache = cache();
        let report = replay_bytes(&file.bytes(), &cache);
        assert_eq!(report.records, 3);
        assert!(!report.dropped_tail);
        let entries = cache.snapshot();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].1.max_unsolvable(), Some(2));
        assert_eq!(entries[0].1.min_solvable(), Some(5));
        assert_eq!(entries[1].2, Some(Value::from(7u64)));
    }

    #[test]
    fn torn_and_corrupt_tails_are_dropped_not_fatal() {
        let file = MemoryWalFile::new();
        let mut wal =
            Wal::with_file(Box::new(file.clone()), CompactionPolicy::default()).unwrap();
        for k in 0..4usize {
            wal.append(&WalRecord::Horizon {
                key: "a".to_string(),
                k,
                solvable: false,
            })
            .unwrap();
        }
        wal.flush().unwrap();
        let full = file.bytes();

        // Every truncation point replays a prefix and never errors.
        for cut in 0..full.len() {
            let cache = cache();
            let report = replay_bytes(&full[..cut], &cache);
            assert!(report.bytes <= cut as u64);
            assert!(report.records <= 4);
            if let Some((_, v, _)) = cache.snapshot().first() {
                // Whatever survived is a true verdict, never an invented one.
                assert!(v.max_unsolvable().is_some_and(|m| m <= 3));
                assert_eq!(v.min_solvable(), None);
            }
        }

        // A flipped payload bit fails the checksum and drops the tail.
        let mut rotted = full.clone();
        let last = rotted.len() - 1;
        rotted[last] ^= 0x01;
        let cache = cache();
        let report = replay_bytes(&rotted, &cache);
        assert_eq!(report.records, 3);
        assert!(report.dropped_tail);
    }

    #[test]
    fn contradictory_record_ends_replay() {
        let file = MemoryWalFile::new();
        let mut wal =
            Wal::with_file(Box::new(file.clone()), CompactionPolicy::default()).unwrap();
        wal.append(&WalRecord::Horizon {
            key: "a".to_string(),
            k: 3,
            solvable: true,
        })
        .unwrap();
        // Checksummed but impossible: unsolvable above a solvable bound.
        wal.append(&WalRecord::Horizon {
            key: "a".to_string(),
            k: 4,
            solvable: false,
        })
        .unwrap();
        wal.flush().unwrap();
        let cache = cache();
        let report = replay_bytes(&file.bytes(), &cache);
        assert_eq!(report.records, 1);
        assert!(report.dropped_tail);
        assert_eq!(cache.snapshot()[0].1.min_solvable(), Some(3));
    }

    #[test]
    fn a_differing_theorem_memo_ends_replay() {
        let file = MemoryWalFile::new();
        let mut wal =
            Wal::with_file(Box::new(file.clone()), CompactionPolicy::default()).unwrap();
        for result in [1u64, 1, 2] {
            wal.append(&WalRecord::Theorem {
                key: "a|theorem".to_string(),
                result: Value::from(result),
            })
            .unwrap();
        }
        wal.flush().unwrap();
        let cache = cache();
        let report = replay_bytes(&file.bytes(), &cache);
        assert_eq!(
            report.records, 2,
            "an equal memo is known, a differing one ends replay"
        );
        assert!(report.dropped_tail);
        assert_eq!(cache.snapshot()[0].2, Some(Value::from(1u64)));
    }

    #[test]
    fn write_errors_surface_for_degradation() {
        struct FailingFile {
            written: u64,
            fail_after: u64,
        }
        impl WalFile for FailingFile {
            fn append(&mut self, frame: &[u8]) -> io::Result<()> {
                self.written += frame.len() as u64;
                if self.written > self.fail_after {
                    return Err(io::Error::new(
                        io::ErrorKind::StorageFull,
                        "no space left on device",
                    ));
                }
                Ok(())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut wal = Wal::with_file(
            Box::new(FailingFile {
                written: 0,
                fail_after: 64,
            }),
            CompactionPolicy::default(),
        )
        .unwrap();
        let record = WalRecord::Horizon {
            key: "a".to_string(),
            k: 1,
            solvable: true,
        };
        let mut failed = false;
        for _ in 0..8 {
            if wal.append(&record).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "the injected ENOSPC never surfaced");
    }

    #[test]
    fn disk_wal_reopens_warm_and_truncates_torn_tail() {
        let dir = std::env::temp_dir().join(format!("minobs-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("verdicts.wal");
        let _ = std::fs::remove_file(&path);

        {
            let cache = cache();
            let (mut wal, report) =
                Wal::open(&path, &cache, CompactionPolicy::default()).unwrap();
            assert_eq!(report, ReplayReport::default());
            wal.append(&WalRecord::Horizon {
                key: "a".to_string(),
                k: 2,
                solvable: true,
            })
            .unwrap();
            wal.flush().unwrap();
        }
        // Simulate a crash mid-append: chop 3 bytes off the tail.
        {
            let len = std::fs::metadata(&path).unwrap().len();
            let f = OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(len - 3).unwrap();
            let cache = cache();
            let (mut wal, report) =
                Wal::open(&path, &cache, CompactionPolicy::default()).unwrap();
            assert_eq!(report.records, 0);
            assert!(report.dropped_tail);
            assert!(cache.snapshot().is_empty());
            // Appending after the truncation extends a valid log.
            wal.append(&WalRecord::Horizon {
                key: "b".to_string(),
                k: 1,
                solvable: false,
            })
            .unwrap();
            wal.flush().unwrap();
        }
        {
            let cache = cache();
            let (_, report) = Wal::open(&path, &cache, CompactionPolicy::default()).unwrap();
            assert_eq!(report.records, 1);
            assert!(!report.dropped_tail);
            assert_eq!(cache.snapshot()[0].0, "b");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_compaction_tmp_is_removed_on_open() {
        let dir = std::env::temp_dir().join(format!("minobs-wal-tmpleak-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("verdicts.wal");
        let tmp = path.with_extension("wal.tmp");
        let _ = std::fs::remove_file(&path);

        // Life 1: write one real verdict.
        {
            let cache = cache();
            let (mut wal, _) = Wal::open(&path, &cache, CompactionPolicy::default()).unwrap();
            wal.append(&WalRecord::Horizon {
                key: "a".to_string(),
                k: 2,
                solvable: true,
            })
            .unwrap();
            wal.flush().unwrap();
        }
        // A crash mid-compaction stranded a half-written temp sibling.
        std::fs::write(&tmp, b"MOBSWAL1half-written snapshot").unwrap();
        assert!(tmp.exists());

        // Life 2: reopening cleans it up and replays the real log intact.
        {
            let cache = cache();
            let (_, report) = Wal::open(&path, &cache, CompactionPolicy::default()).unwrap();
            assert!(!tmp.exists(), "stale .wal.tmp survived reopen");
            assert_eq!(report.records, 1);
            assert_eq!(cache.snapshot()[0].0, "a");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_rewrites_dead_deltas_and_preserves_contents() {
        let dir = std::env::temp_dir().join(format!("minobs-wal-compact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("verdicts.wal");
        let _ = std::fs::remove_file(&path);

        let cache = cache();
        let policy = CompactionPolicy {
            min_records: 4,
            dead_ratio: 0.5,
        };
        let (mut wal, _) = Wal::open(&path, &cache, policy).unwrap();
        // 12 deltas, one live key: overwhelmingly dead.
        for k in 0..12usize {
            let record = WalRecord::Horizon {
                key: "a".to_string(),
                k,
                solvable: false,
            };
            cache.admit(&record);
            wal.append(&record).unwrap();
        }
        let stats = wal.maybe_compact(&cache).unwrap().expect("compaction due");
        assert_eq!(stats.records_before, 12);
        assert_eq!(stats.records_after, 1);
        assert!(wal.maybe_compact(&cache).unwrap().is_none());

        // Appends after compaction land after the snapshot.
        let record = WalRecord::Horizon {
            key: "b".to_string(),
            k: 3,
            solvable: true,
        };
        cache.admit(&record);
        wal.append(&record).unwrap();
        wal.flush().unwrap();
        drop(wal);

        let warm = self::cache();
        let (_, report) = Wal::open(&path, &warm, policy).unwrap();
        assert_eq!(report.records, 2);
        assert_eq!(warm.snapshot().len(), 2);
        assert_eq!(warm.snapshot()[0].1.max_unsolvable(), Some(11));
        assert_eq!(warm.snapshot()[1].1.min_solvable(), Some(3));
        let _ = std::fs::remove_file(&path);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A valid log over four keys (solvable iff `k >= 2 + key`, one
        /// fixed memo per key), with the end offset of every frame.
        fn valid_log(writes: &[(usize, usize, bool)]) -> (Vec<u8>, Vec<usize>) {
            let mut bytes = MAGIC.to_vec();
            let mut ends = Vec::new();
            for &(idx, k, memo) in writes {
                let record = if memo {
                    WalRecord::Theorem {
                        key: format!("classic:s{idx}|theorem"),
                        result: Value::from(idx as u64),
                    }
                } else {
                    WalRecord::Horizon {
                        key: format!("classic:s{idx}|gamma"),
                        k,
                        solvable: k >= 2 + idx,
                    }
                };
                bytes.extend_from_slice(&record.encode());
                ends.push(bytes.len());
            }
            (bytes, ends)
        }

        /// Truncates, flips a byte, inserts bytes or overwrites a span.
        fn mutate(log: &[u8], kind: u8, at: u64, noise: u64) -> Vec<u8> {
            let at = (at % (log.len() as u64 + 1)) as usize;
            let noise = noise.to_le_bytes();
            let mut out = log.to_vec();
            match kind {
                0 => out.truncate(at),
                1 if at < out.len() => out[at] ^= noise[0] | 1,
                2 => {
                    out.splice(at..at, noise[..1 + (noise[1] % 8) as usize].iter().copied());
                }
                _ => {
                    for (slot, byte) in out[at..].iter_mut().zip(noise) {
                        *slot = byte;
                    }
                }
            }
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Replay of a damaged log admits exactly the frames that lie
            /// wholly before the first damaged byte, and counts no cache
            /// lookup.
            #[test]
            fn damaged_logs_replay_a_prefix_and_move_no_cache_counter(
                writes in proptest::collection::vec((0..4usize, 0..10usize, any::<bool>()), 0..24),
                mutation in (0..4u8, any::<u64>(), any::<u64>()),
            ) {
                let (log, ends) = valid_log(&writes);
                let (kind, at, noise) = mutation;
                let damaged = mutate(&log, kind, at, noise);
                let intact = log
                    .iter()
                    .zip(&damaged)
                    .take_while(|(a, b)| a == b)
                    .count();
                let whole = ends.iter().take_while(|&&end| end <= intact).count();
                let prefix = if intact < MAGIC.len() {
                    0
                } else {
                    ends.get(whole.wrapping_sub(1)).copied().unwrap_or(MAGIC.len())
                };

                let registry = MetricsRegistry::new();
                let replayed = VerdictCache::new(&registry);
                let report = replay_bytes(&damaged, &replayed);
                let expected = cache();
                replay_bytes(&log[..prefix], &expected);
                if damaged == log {
                    prop_assert_eq!(report.records, ends.len() as u64);
                } else {
                    prop_assert_eq!(report.records, whole as u64);
                    prop_assert_eq!(report.bytes, prefix as u64);
                }
                prop_assert_eq!(replayed.snapshot(), expected.snapshot());
                let counters = registry.snapshot();
                for (name, value) in counters.get("counters").unwrap().as_object().unwrap().iter() {
                    if name.starts_with("svc.cache_") {
                        prop_assert_eq!(value.as_u64(), Some(0), "{}", name);
                    }
                }
            }
        }
    }
}
