//! `FROSTW` — the crash-safe write-ahead log over a `FROSTB`
//! snapshot.
//!
//! A durable `frostd` persists every accepted mutation *before*
//! applying it in memory: the operation is encoded as one CRC-framed,
//! length-prefixed record (reusing the FROSTB varint codecs), appended
//! to the WAL and — per the configured [`FsyncPolicy`] — fsynced. On
//! boot the latest snapshot is loaded and the WAL replayed over it.
//!
//! # Layout
//!
//! ```text
//! offset  size  field
//! 0       6     magic  "FROSTW"
//! 6       2     format version, u16 LE (currently 1)
//! 8       8     bound snapshot length, u64 LE
//! 16      4     bound snapshot CRC32
//! 20      4     header CRC32 (over bytes 0 .. 20)
//! 24      ...   frames, back to back
//! ```
//!
//! A frame is `varint(payload_len) | payload | crc32(payload) u32 LE`.
//! The header *binds* the log to the exact snapshot bytes it applies
//! over ([`SnapshotId`] = length + CRC32 of the snapshot file): after
//! a crash between the two renames of a compaction, a leftover WAL
//! belongs to the *old* snapshot and must be discarded, not replayed —
//! the mismatch detects that without changing the `FROSTB` format.
//!
//! # Recovery semantics
//!
//! [`scan`] walks the frames and classifies how the log ends:
//!
//! * [`TailState::Clean`] — the last frame ends exactly at EOF.
//! * [`TailState::TornTail`] — the final frame is incomplete or fails
//!   its CRC *and nothing follows it*: the signature of a crash
//!   mid-append. Recovery truncates to the last valid frame and warns.
//! * [`TailState::Corrupt`] — a frame fails its CRC (or decodes to an
//!   invalid operation) with more bytes *after* it: bit rot, not a
//!   torn append. Recovery refuses loudly — silently dropping
//!   acknowledged writes that have intact frames behind them would be
//!   data loss.
//!
//! In every case `ops` holds the longest valid prefix, so callers with
//! different policies (the boot path, the property tests) share one
//! scanner. Known limitation: a corrupted *length* varint makes the
//! following frame boundary unrecoverable, so such damage is
//! classified as a torn tail even mid-log.

use crate::snapshot::{crc32, Reader, SnapshotError, Writer};
use crate::store::{BenchmarkStore, StoreError, StoredExperiment};
use frost_core::dataset::{Experiment, PairOrigin, RecordId, RecordPair, ScoredPair};
use frost_core::softkpi::{Effort, ExperimentKpis};
use std::fmt;
use std::time::Duration;

/// The 6-byte magic at offset 0.
pub const WAL_MAGIC: &[u8; 6] = b"FROSTW";
/// The current WAL format version.
pub const WAL_VERSION: u16 = 1;
/// Total header size in bytes.
pub const WAL_HEADER_LEN: u64 = 24;

/// Identity of the snapshot bytes a WAL applies over: file length plus
/// CRC32. Cheap to compute, and any snapshot rewrite changes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotId {
    /// Snapshot file length in bytes.
    pub len: u64,
    /// CRC32 over the whole snapshot file.
    pub crc: u32,
}

/// Computes the [`SnapshotId`] of snapshot bytes.
pub fn snapshot_id(snapshot_bytes: &[u8]) -> SnapshotId {
    SnapshotId {
        len: snapshot_bytes.len() as u64,
        crc: crc32(snapshot_bytes),
    }
}

/// When appended WAL frames are flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync after every append — an acknowledged write is durable.
    Always,
    /// Fsync at most once per interval — bounded data loss (at most
    /// the writes of one interval) for much higher import throughput.
    Interval(Duration),
}

/// Errors raised by WAL encoding, scanning or header handling.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The header is missing, malformed, or fails its checksum.
    BadHeader(String),
    /// Mid-log corruption: a frame failed its CRC (or decoded to an
    /// invalid operation) with intact bytes after it.
    Corrupted {
        /// File offset of the bad frame.
        offset: u64,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "io: {e}"),
            WalError::BadHeader(reason) => write!(f, "bad WAL header: {reason}"),
            WalError::Corrupted { offset, reason } => {
                write!(f, "corrupted WAL frame at offset {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// One logged mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// Import an experiment (the deduplicated scored pair list, as an
    /// [`Experiment`] holds it).
    AddExperiment {
        /// Dataset the experiment ran on.
        dataset: String,
        /// Experiment name.
        name: String,
        /// Deduplicated scored pairs.
        pairs: Vec<ScoredPair>,
        /// Optional soft KPIs.
        kpis: Option<ExperimentKpis>,
    },
    /// Remove an experiment.
    DeleteExperiment {
        /// Experiment name.
        name: String,
    },
}

/// A write validated against a store and ready to commit: the result
/// of [`WalOp::prepare`].
#[derive(Debug)]
pub enum Prepared {
    /// Insert an experiment whose artifacts are built.
    Insert(Box<StoredExperiment>),
    /// Remove the named (existing) experiment.
    Remove(String),
}

impl Prepared {
    /// The experiment the write touches.
    pub fn experiment_name(&self) -> &str {
        match self {
            Prepared::Insert(stored) => stored.experiment.name(),
            Prepared::Remove(name) => name,
        }
    }

    /// The cheap second step, run under the store's write lock:
    /// [`BenchmarkStore::insert_stored`] or
    /// [`BenchmarkStore::remove_experiment`].
    pub fn commit(self, store: &mut BenchmarkStore) -> Result<(), StoreError> {
        match self {
            Prepared::Insert(stored) => store.insert_stored(*stored),
            Prepared::Remove(name) => store.remove_experiment(&name),
        }
    }
}

const OP_ADD_EXPERIMENT: u8 = 1;
const OP_DELETE_EXPERIMENT: u8 = 2;

impl WalOp {
    /// Builds the add-op from an experiment about to be inserted,
    /// copying its pairs.
    pub fn add_experiment(
        dataset: &str,
        experiment: &Experiment,
        kpis: Option<&ExperimentKpis>,
    ) -> Self {
        Self::add_owned_experiment(dataset, experiment.clone(), kpis.cloned())
    }

    /// [`add_experiment`](Self::add_experiment) for an experiment the
    /// caller is done with (a parsed upload): its pairs move into the
    /// op instead of being copied.
    pub fn add_owned_experiment(
        dataset: &str,
        experiment: Experiment,
        kpis: Option<ExperimentKpis>,
    ) -> Self {
        let (name, pairs) = experiment.into_parts();
        WalOp::AddExperiment {
            dataset: dataset.to_string(),
            name,
            pairs,
            kpis,
        }
    }

    /// The read-only first step of applying the operation: validates
    /// it against the store and, for an import, builds the import-time
    /// artifacts through [`BenchmarkStore::prepare`]. Nothing changes
    /// until [`Prepared::commit`].
    pub fn prepare(&self, store: &BenchmarkStore) -> Result<Prepared, StoreError> {
        match self {
            WalOp::AddExperiment {
                dataset,
                name,
                pairs,
                kpis,
            } => store
                .prepare(
                    dataset,
                    Experiment::from_deduplicated_pairs(name.clone(), pairs.clone()),
                    *kpis,
                )
                .map(|stored| Prepared::Insert(Box::new(stored))),
            WalOp::DeleteExperiment { name } => {
                store.experiment(name)?;
                Ok(Prepared::Remove(name.clone()))
            }
        }
    }

    /// Applies the operation to a store — the boot-time replay path:
    /// [`prepare`](Self::prepare), then [`Prepared::commit`], the same
    /// two steps the server takes for its own and for replicated
    /// writes, so a replayed store is byte-identical to the store that
    /// accepted the writes.
    pub fn apply(&self, store: &mut BenchmarkStore) -> Result<(), StoreError> {
        self.prepare(store)?.commit(store)
    }

    fn encode(&self, w: &mut Writer) {
        match self {
            WalOp::AddExperiment {
                dataset,
                name,
                pairs,
                kpis,
            } => {
                w.u8(OP_ADD_EXPERIMENT);
                w.string(dataset);
                w.string(name);
                match kpis {
                    None => w.u8(0),
                    Some(k) => {
                        w.u8(1);
                        w.f64(k.setup.hours);
                        w.u8(k.setup.expertise);
                        w.f64(k.runtime_seconds);
                    }
                }
                w.varint(pairs.len() as u64);
                for sp in pairs {
                    // Same packed encoding as the FROSTB EXPT section.
                    let packed = ((sp.pair.lo().0 as u64) << 32) | sp.pair.hi().0 as u64;
                    w.varint(packed);
                    let mut flags = 0u8;
                    if sp.similarity.is_some() {
                        flags |= 1;
                    }
                    if sp.origin == PairOrigin::Closure {
                        flags |= 2;
                    }
                    w.u8(flags);
                    if let Some(s) = sp.similarity {
                        w.f64(s);
                    }
                }
            }
            WalOp::DeleteExperiment { name } => {
                w.u8(OP_DELETE_EXPERIMENT);
                w.string(name);
            }
        }
    }

    fn decode(payload: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(payload, "WAL");
        let op = match r.u8()? {
            OP_ADD_EXPERIMENT => {
                let dataset = r.string()?;
                let name = r.string()?;
                let kpis = match r.u8()? {
                    0 => None,
                    1 => Some(ExperimentKpis {
                        setup: Effort {
                            hours: r.f64()?,
                            expertise: r.u8()?,
                        },
                        runtime_seconds: r.f64()?,
                    }),
                    other => return Err(r.corrupt(format!("bad KPI flag {other}"))),
                };
                let pair_count = r.len_capped("pair", r.remaining())?;
                let mut pairs = Vec::with_capacity(pair_count);
                for _ in 0..pair_count {
                    let packed = r.varint()?;
                    let flags = r.u8()?;
                    if flags & !3 != 0 {
                        return Err(r.corrupt(format!("bad pair flags {flags}")));
                    }
                    let (lo, hi) = ((packed >> 32) as u32, packed as u32);
                    if lo == hi {
                        return Err(r.corrupt(format!("self-pair ({lo}, {hi})")));
                    }
                    let similarity = if flags & 1 != 0 { Some(r.f64()?) } else { None };
                    pairs.push(ScoredPair {
                        pair: RecordPair::new(RecordId(lo), RecordId(hi)),
                        similarity,
                        origin: if flags & 2 != 0 {
                            PairOrigin::Closure
                        } else {
                            PairOrigin::Matcher
                        },
                    });
                }
                WalOp::AddExperiment {
                    dataset,
                    name,
                    pairs,
                    kpis,
                }
            }
            OP_DELETE_EXPERIMENT => WalOp::DeleteExperiment { name: r.string()? },
            other => return Err(r.corrupt(format!("unknown op tag {other}"))),
        };
        r.finished()?;
        Ok(op)
    }
}

/// Encodes the 24-byte WAL header binding the log to `id`.
pub fn encode_header(id: SnapshotId) -> Vec<u8> {
    let mut out = Vec::with_capacity(WAL_HEADER_LEN as usize);
    out.extend_from_slice(WAL_MAGIC);
    out.extend_from_slice(&WAL_VERSION.to_le_bytes());
    out.extend_from_slice(&id.len.to_le_bytes());
    out.extend_from_slice(&id.crc.to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decodes and validates a WAL header, returning the bound
/// [`SnapshotId`].
pub fn decode_header(bytes: &[u8]) -> Result<SnapshotId, WalError> {
    if bytes.len() < WAL_HEADER_LEN as usize {
        return Err(WalError::BadHeader(format!(
            "file too short for a header ({} bytes)",
            bytes.len()
        )));
    }
    if &bytes[..6] != WAL_MAGIC {
        return Err(WalError::BadHeader("bad magic".into()));
    }
    let version = u16::from_le_bytes(bytes[6..8].try_into().unwrap());
    if version != WAL_VERSION {
        return Err(WalError::BadHeader(format!(
            "version {version} unsupported (this build reads {WAL_VERSION})"
        )));
    }
    let stored_crc = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
    if crc32(&bytes[..20]) != stored_crc {
        return Err(WalError::BadHeader("header checksum mismatch".into()));
    }
    Ok(SnapshotId {
        len: u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
        crc: u32::from_le_bytes(bytes[16..20].try_into().unwrap()),
    })
}

/// Encodes one operation as a complete frame
/// (`varint(len) | payload | crc32`).
pub fn encode_frame(op: &WalOp) -> Vec<u8> {
    let mut payload = Writer::new();
    op.encode(&mut payload);
    let payload = payload.buf;
    let mut frame = Writer::new();
    frame.varint(payload.len() as u64);
    frame.buf.extend_from_slice(&payload);
    frame.buf.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.buf
}

/// How a scanned WAL ends (see the [module docs](self) for the
/// classification rule).
#[derive(Debug, Clone, PartialEq)]
pub enum TailState {
    /// The last frame ends exactly at EOF.
    Clean,
    /// The final frame is incomplete or bad with nothing after it:
    /// truncate the file to `valid_len` and continue.
    TornTail {
        /// File length of the longest valid prefix.
        valid_len: u64,
    },
    /// A bad frame has intact bytes after it: refuse to boot.
    Corrupt {
        /// File offset of the bad frame.
        offset: u64,
        /// What was wrong.
        reason: String,
    },
}

/// The result of scanning a WAL file.
#[derive(Debug)]
pub struct WalScan {
    /// The snapshot the log is bound to.
    pub snapshot_id: SnapshotId,
    /// The longest valid prefix of logged operations.
    pub ops: Vec<WalOp>,
    /// How the log ends.
    pub tail: TailState,
    /// File length of the valid prefix (header + intact frames).
    pub valid_len: u64,
}

/// Reads a varint leniently at `pos`, returning `(value, new_pos)` or
/// `None` when the bytes cannot delimit a frame (truncated or
/// malformed) — the caller treats that as a torn tail, since without
/// a length the following frame boundary is unrecoverable.
fn lenient_varint(bytes: &[u8], mut pos: usize) -> Option<(u64, usize)> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = *bytes.get(pos)?;
        pos += 1;
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            if (byte == 0 && shift > 0) || (shift == 63 && byte > 1) {
                return None; // non-canonical
            }
            return Some((v, pos));
        }
    }
    None
}

/// The result of scanning a headerless frame stream
/// ([`scan_stream`]): the decoded complete-frame prefix plus how many
/// bytes it spanned, so a tailing replica knows exactly where its next
/// poll should resume.
#[derive(Debug)]
pub struct StreamScan {
    /// Operations decoded from the complete frames at the front of the
    /// buffer.
    pub ops: Vec<WalOp>,
    /// Bytes consumed by those frames. Anything past this is an
    /// incomplete frame still in flight — keep it (or drop it and
    /// re-request from `from + consumed`).
    pub consumed: usize,
}

/// One step of reading the frame at an offset.
enum Frame {
    /// The offset is the end of the bytes.
    End,
    /// The bytes there do not delimit a whole frame: its length varint
    /// is truncated or malformed, or the frame runs past the end.
    Partial,
    /// A whole frame ending at `end`, and its op — or why it is bad (a
    /// checksum mismatch or an undecodable op).
    Whole {
        end: usize,
        op: Result<WalOp, String>,
    },
}

/// The one frame reader: reads the frame at `pos`
/// (`varint(len) | payload | crc32`). What a partial or bad frame
/// means is the caller's tail policy.
fn next_frame(bytes: &[u8], pos: usize) -> Frame {
    if pos == bytes.len() {
        return Frame::End;
    }
    let Some((len, payload_start)) = lenient_varint(bytes, pos) else {
        return Frame::Partial;
    };
    let Some(end) = (len as usize)
        .checked_add(4)
        .and_then(|n| payload_start.checked_add(n))
        .filter(|&e| e <= bytes.len())
    else {
        return Frame::Partial;
    };
    let payload = &bytes[payload_start..end - 4];
    let stored_crc = u32::from_le_bytes(bytes[end - 4..end].try_into().unwrap());
    let op = if crc32(payload) != stored_crc {
        Err("frame checksum mismatch".to_string())
    } else {
        WalOp::decode(payload).map_err(|e| format!("undecodable op: {e}"))
    };
    Frame::Whole { end, op }
}

/// Scans a *headerless* run of WAL frames as shipped over the
/// replication stream: decodes every complete frame from the front and
/// reports how many bytes they covered. An incomplete final frame is
/// normal (the primary may flush mid-frame, or the connection may drop
/// mid-frame) and simply isn't consumed; a *complete* frame that fails
/// its CRC or decodes to an invalid op is an error — on a stream there
/// is no torn-tail excuse for a fully delivered bad frame.
pub fn scan_stream(bytes: &[u8]) -> Result<StreamScan, WalError> {
    let mut ops = Vec::new();
    let mut pos = 0usize;
    while let Frame::Whole { end, op } = next_frame(bytes, pos) {
        let op = op.map_err(|reason| WalError::Corrupted {
            offset: pos as u64,
            reason,
        })?;
        ops.push(op);
        pos = end;
    }
    Ok(StreamScan { ops, consumed: pos })
}

/// Scans WAL bytes: validates the header, decodes the longest valid
/// prefix of frames and classifies the tail. Only a bad *header* is a
/// hard error here — tail policy is the caller's.
pub fn scan(bytes: &[u8]) -> Result<WalScan, WalError> {
    let snapshot_id = decode_header(bytes)?;
    let mut ops = Vec::new();
    let mut pos = WAL_HEADER_LEN as usize;
    let tail = loop {
        match next_frame(bytes, pos) {
            Frame::End => break TailState::Clean,
            Frame::Whole { end, op: Ok(op) } => {
                ops.push(op);
                pos = end;
            }
            // A bad frame with bytes after it is corruption and must be
            // loud.
            Frame::Whole {
                end,
                op: Err(reason),
            } if end < bytes.len() => {
                break TailState::Corrupt {
                    offset: pos as u64,
                    reason,
                }
            }
            // A frame that cannot be delimited, or a bad final frame,
            // is a torn append.
            Frame::Partial | Frame::Whole { .. } => {
                break TailState::TornTail {
                    valid_len: pos as u64,
                }
            }
        }
    };
    Ok(WalScan {
        snapshot_id,
        ops,
        tail,
        valid_len: pos as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::AddExperiment {
                dataset: "people".into(),
                name: "run-1".into(),
                pairs: vec![
                    ScoredPair::scored((0u32, 1u32), 0.9),
                    ScoredPair::closure((0u32, 2u32)),
                    ScoredPair::unscored((2u32, 3u32)),
                ],
                kpis: Some(ExperimentKpis {
                    setup: Effort {
                        hours: 1.5,
                        expertise: 20,
                    },
                    runtime_seconds: 0.5,
                }),
            },
            WalOp::DeleteExperiment {
                name: "run-0".into(),
            },
            WalOp::AddExperiment {
                dataset: "people".into(),
                name: "run-2".into(),
                pairs: vec![ScoredPair::unscored((1u32, 3u32))],
                kpis: None,
            },
        ]
    }

    fn sample_wal() -> Vec<u8> {
        let mut bytes = encode_header(SnapshotId { len: 123, crc: 456 });
        for op in sample_ops() {
            bytes.extend_from_slice(&encode_frame(&op));
        }
        bytes
    }

    #[test]
    fn header_round_trips_and_rejects_damage() {
        let id = SnapshotId {
            len: 99,
            crc: 0xDEAD_BEEF,
        };
        let header = encode_header(id);
        assert_eq!(header.len(), WAL_HEADER_LEN as usize);
        assert_eq!(decode_header(&header).unwrap(), id);
        assert!(decode_header(&header[..10]).is_err());
        for i in 0..header.len() {
            let mut bad = header.clone();
            bad[i] ^= 0x20;
            assert!(decode_header(&bad).is_err(), "flip at {i} accepted");
        }
    }

    #[test]
    fn frames_round_trip() {
        let scan = scan(&sample_wal()).unwrap();
        assert_eq!(scan.ops, sample_ops());
        assert_eq!(scan.tail, TailState::Clean);
        assert_eq!(scan.snapshot_id, SnapshotId { len: 123, crc: 456 });
    }

    #[test]
    fn truncation_is_a_torn_tail() {
        let whole = sample_wal();
        let full = scan(&whole).unwrap();
        assert_eq!(full.ops.len(), 3);
        for cut in WAL_HEADER_LEN as usize..whole.len() {
            let scanned = scan(&whole[..cut]).unwrap();
            match scanned.tail {
                TailState::Clean => assert_eq!(cut as u64, scanned.valid_len),
                TailState::TornTail { valid_len } => {
                    assert!(valid_len <= cut as u64);
                    // The surviving ops are exactly the frames that fit.
                    assert_eq!(scanned.ops, full.ops[..scanned.ops.len()]);
                }
                TailState::Corrupt { .. } => panic!("truncation at {cut} reported corrupt"),
            }
        }
    }

    #[test]
    fn final_frame_damage_is_torn_but_mid_log_damage_is_corrupt() {
        let whole = sample_wal();
        // Flip a byte in the last frame's payload: torn tail.
        let mut torn = whole.clone();
        let last = torn.len() - 6; // inside the final payload/crc
        torn[last] ^= 0x40;
        let scanned = scan(&torn).unwrap();
        assert!(
            matches!(scanned.tail, TailState::TornTail { .. }),
            "{:?}",
            scanned.tail
        );
        assert_eq!(scanned.ops.len(), 2);
        // Flip a byte in the first frame's payload: loud corruption.
        let mut rotten = whole.clone();
        rotten[WAL_HEADER_LEN as usize + 3] ^= 0x40;
        let scanned = scan(&rotten).unwrap();
        match scanned.tail {
            TailState::Corrupt { offset, .. } => assert_eq!(offset, WAL_HEADER_LEN),
            other => panic!("mid-log damage must be loud, got {other:?}"),
        }
        assert!(scanned.ops.is_empty());
    }

    #[test]
    fn apply_replays_onto_a_store() {
        use frost_core::clustering::Clustering;
        use frost_core::dataset::{Dataset, Schema};
        let mut ds = Dataset::new("people", Schema::new(["name"]));
        for id in ["a", "b", "c", "d"] {
            ds.push_record(id, [id]);
        }
        let mut store = BenchmarkStore::new();
        store.add_dataset(ds).unwrap();
        store
            .set_gold_standard("people", Clustering::from_assignment(&[0, 0, 1, 1]))
            .unwrap();
        store
            .add_experiment(
                "people",
                Experiment::from_pairs("run-0", [(0u32, 1u32)]),
                None,
            )
            .unwrap();
        for op in sample_ops() {
            op.apply(&mut store).unwrap();
        }
        assert_eq!(store.experiment_names(None), vec!["run-1", "run-2"]);
        let replayed = store.experiment("run-1").unwrap();
        assert_eq!(replayed.experiment.len(), 3);
        assert!(replayed.kpis.is_some());
        // Replay rebuilds the import-time artifacts.
        assert_eq!(replayed.clustering.num_records(), 4);
        assert_eq!(replayed.pair_set.len(), replayed.experiment.len());
    }

    #[test]
    fn stream_scan_consumes_exactly_the_complete_frames() {
        let mut stream = Vec::new();
        let mut boundaries = vec![0usize];
        for op in sample_ops() {
            stream.extend_from_slice(&encode_frame(&op));
            boundaries.push(stream.len());
        }
        let all = sample_ops();
        for cut in 0..=stream.len() {
            let scanned = scan_stream(&stream[..cut]).unwrap();
            // `consumed` is the largest frame boundary ≤ cut, and the
            // decoded ops are exactly the frames before it.
            let expect = *boundaries.iter().filter(|&&b| b <= cut).max().unwrap();
            assert_eq!(scanned.consumed, expect, "cut at {cut}");
            assert_eq!(scanned.ops, all[..scanned.ops.len()]);
        }
    }

    #[test]
    fn stream_scan_rejects_a_complete_bad_frame() {
        let mut stream = encode_frame(&sample_ops()[0]);
        let mid = stream.len() / 2;
        stream[mid] ^= 0x40;
        assert!(matches!(
            scan_stream(&stream),
            Err(WalError::Corrupted { offset: 0, .. })
        ));
        // But the same damage while the frame is still incomplete is
        // just "wait for more bytes".
        let scanned = scan_stream(&stream[..stream.len() - 1]).unwrap();
        assert!(scanned.ops.is_empty());
        assert_eq!(scanned.consumed, 0);
    }

    #[test]
    fn empty_log_is_clean() {
        let header = encode_header(SnapshotId { len: 1, crc: 2 });
        let scanned = scan(&header).unwrap();
        assert!(scanned.ops.is_empty());
        assert_eq!(scanned.tail, TailState::Clean);
        assert_eq!(scanned.valid_len, WAL_HEADER_LEN);
    }
}
