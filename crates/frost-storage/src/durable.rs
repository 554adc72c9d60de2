//! The durable writer: sequences every accepted mutation through the
//! `FROSTW` WAL before it becomes visible, replays snapshot + WAL on
//! boot, and compacts the log into a fresh `FROSTB` snapshot without
//! stopping reads.
//!
//! # Write protocol
//!
//! A [`DurableStore`] does not own the in-memory [`BenchmarkStore`] —
//! the server keeps that behind its own read/write lock. The writer
//! sequences the durability step:
//!
//! 1. prepare the write under a read lock: [`WalOp::prepare`]
//!    validates it and builds the import-time artifacts, so a write
//!    that would fail never reaches the log,
//! 2. [`DurableStore::append`] — frame, append, fsync per policy,
//! 3. commit it ([`Prepared::commit`](crate::wal::Prepared::commit),
//!    cheap, under the write lock), and only then acknowledge the
//!    client.
//!
//! Boot replay runs the same two store steps per logged op
//! ([`WalOp::apply`]), so a recovered store equals the one that
//! accepted the writes.
//!
//! If step 2 fails the frame is rolled back (the WAL is truncated to
//! its pre-append length) so a client retry cannot collide with a
//! ghost of the failed attempt at replay time. An fsync failure
//! additionally *poisons* the writer — after a failed fsync the page
//! cache can no longer be trusted to hold earlier acknowledged frames,
//! so the only honest move is to reject writes until a restart
//! re-reads what actually hit the disk.
//!
//! # Compaction
//!
//! [`DurableStore::compact`] folds the current store into a new
//! snapshot: write `snapshot.tmp`, fsync, atomically rename over the
//! snapshot, then install a fresh header-only WAL the same way.
//! Compaction changes no logical state, so a crash at *any* boundary
//! recovers to the same store: before the snapshot rename the old
//! snapshot + old WAL are intact; after it, the leftover WAL is bound
//! to the old snapshot's [`SnapshotId`] and boot discards it as stale
//! (its ops are already folded into the new snapshot). If the fresh
//! WAL cannot be installed after the snapshot swap, the writer poisons
//! itself: appends to the stale log would be silently discarded at the
//! next boot, which is worse than refusing them.

use crate::fault::{FailFs, RealFs};
use crate::snapshot::{self, SnapshotError};
use crate::store::{BenchmarkStore, StoreError};
use crate::telemetry::WalStats;
use crate::wal::{
    self, encode_frame, encode_header, snapshot_id, FsyncPolicy, SnapshotId, TailState, WalError,
    WalOp, WAL_HEADER_LEN,
};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Errors raised by the durable write path.
#[derive(Debug)]
pub enum DurableError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// WAL header or frame problem.
    Wal(WalError),
    /// Snapshot encode/decode problem.
    Snapshot(SnapshotError),
    /// Replay hit a semantic error (e.g. an op referencing a dataset
    /// the snapshot does not contain) — the log and snapshot disagree.
    Replay(StoreError),
    /// The writer refused: an earlier fsync or rollback failure left
    /// disk state unknowable, so writes are rejected until restart.
    Poisoned,
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "io: {e}"),
            DurableError::Wal(e) => write!(f, "{e}"),
            DurableError::Snapshot(e) => write!(f, "{e}"),
            DurableError::Replay(e) => write!(f, "WAL replay failed: {e:?}"),
            DurableError::Poisoned => write!(
                f,
                "write path poisoned by an earlier I/O failure; restart to recover"
            ),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        DurableError::Io(e)
    }
}

impl From<WalError> for DurableError {
    fn from(e: WalError) -> Self {
        DurableError::Wal(e)
    }
}

impl From<SnapshotError> for DurableError {
    fn from(e: SnapshotError) -> Self {
        DurableError::Snapshot(e)
    }
}

/// What boot-time recovery found and did — callers log it so torn
/// tails and stale logs are warned about, not silent.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BootReport {
    /// Operations replayed from the WAL onto the snapshot.
    pub replayed: usize,
    /// Bytes of torn tail truncated away, if any.
    pub truncated_tail: Option<u64>,
    /// Whether a leftover WAL bound to a *different* snapshot was
    /// discarded (the signature of a crash mid-compaction; its ops are
    /// already folded into the surviving snapshot).
    pub discarded_stale_wal: bool,
    /// Whether a fresh WAL was created because none existed.
    pub created_wal: bool,
}

/// The path of the WAL belonging to a snapshot: `<snapshot>.wal`.
pub fn wal_path_for(snapshot: &Path) -> PathBuf {
    let mut os = snapshot.as_os_str().to_os_string();
    os.push(".wal");
    PathBuf::from(os)
}

/// The durability state machine for one snapshot + WAL pair. See the
/// [module docs](self) for the write and compaction protocols.
pub struct DurableStore {
    snapshot_path: PathBuf,
    wal_path: PathBuf,
    fs: Arc<dyn FailFs>,
    policy: FsyncPolicy,
    snapshot_id: SnapshotId,
    /// Length of the durable prefix: header + every fully appended
    /// frame. Rollback truncates to this.
    wal_len: u64,
    /// Frames in the durable prefix — the record coordinate that
    /// replication lag is reported in.
    records: u64,
    /// Whether frames have been appended since the last fsync.
    dirty: bool,
    last_sync: Instant,
    poisoned: bool,
    /// Append/fsync duration histograms, shared with whoever renders
    /// them (the HTTP server's `/metrics` endpoint).
    stats: Arc<WalStats>,
}

impl fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableStore")
            .field("snapshot_path", &self.snapshot_path)
            .field("wal_path", &self.wal_path)
            .field("policy", &self.policy)
            .field("wal_len", &self.wal_len)
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

impl DurableStore {
    /// Opens a snapshot + WAL pair with the production filesystem.
    pub fn open(
        snapshot: impl AsRef<Path>,
        policy: FsyncPolicy,
    ) -> Result<(BenchmarkStore, DurableStore, BootReport), DurableError> {
        Self::open_with(snapshot, policy, Arc::new(RealFs))
    }

    /// Opens with an injectable filesystem: loads the snapshot,
    /// replays the WAL over it (creating one if absent, truncating a
    /// torn tail, discarding a stale log, refusing mid-log
    /// corruption), and returns the recovered store plus the writer.
    pub fn open_with(
        snapshot: impl AsRef<Path>,
        policy: FsyncPolicy,
        fs: Arc<dyn FailFs>,
    ) -> Result<(BenchmarkStore, DurableStore, BootReport), DurableError> {
        let snapshot_path = snapshot.as_ref().to_path_buf();
        let wal_path = wal_path_for(&snapshot_path);
        let snapshot_bytes = fs.read(&snapshot_path)?;
        let mut store = snapshot::from_bytes(&snapshot_bytes)?;
        let id = snapshot_id(&snapshot_bytes);
        // A leftover `.tmp` from an interrupted compaction is garbage
        // on either side of the atomic rename; clear it.
        for tmp in [tmp_path(&snapshot_path), tmp_path(&wal_path)] {
            if fs.exists(&tmp) {
                let _ = fs.remove(&tmp);
            }
        }

        let mut report = BootReport::default();
        let mut durable = DurableStore {
            snapshot_path,
            wal_path,
            fs,
            policy,
            snapshot_id: id,
            wal_len: WAL_HEADER_LEN,
            records: 0,
            dirty: false,
            last_sync: Instant::now(),
            poisoned: false,
            stats: Arc::new(WalStats::default()),
        };

        if !durable.fs.exists(&durable.wal_path) {
            durable.install_fresh_wal(id)?;
            report.created_wal = true;
            return Ok((store, durable, report));
        }

        let wal_bytes = durable.fs.read(&durable.wal_path)?;
        let scan = wal::scan(&wal_bytes)?;
        if scan.snapshot_id != id {
            // Crash between the two renames of a compaction: the log
            // belongs to the previous snapshot and its ops are already
            // folded into this one.
            durable.install_fresh_wal(id)?;
            report.discarded_stale_wal = true;
            return Ok((store, durable, report));
        }
        match scan.tail {
            TailState::Clean => {}
            TailState::TornTail { valid_len } => {
                durable.fs.truncate(&durable.wal_path, valid_len)?;
                durable.fs.sync(&durable.wal_path)?;
                report.truncated_tail = Some(wal_bytes.len() as u64 - valid_len);
            }
            TailState::Corrupt { offset, reason } => {
                // Intact frames follow the damage: refusing is the only
                // way not to silently drop acknowledged writes.
                return Err(WalError::Corrupted { offset, reason }.into());
            }
        }
        for op in &scan.ops {
            op.apply(&mut store).map_err(DurableError::Replay)?;
        }
        report.replayed = scan.ops.len();
        durable.wal_len = scan.valid_len;
        durable.records = scan.ops.len() as u64;
        Ok((store, durable, report))
    }

    /// Atomically installs a header-only WAL bound to `id`.
    fn install_fresh_wal(&mut self, id: SnapshotId) -> Result<(), DurableError> {
        let tmp = tmp_path(&self.wal_path);
        self.fs.write_file(&tmp, &encode_header(id))?;
        self.fs.sync(&tmp)?;
        self.fs.rename(&tmp, &self.wal_path)?;
        self.snapshot_id = id;
        self.wal_len = WAL_HEADER_LEN;
        self.records = 0;
        self.dirty = false;
        Ok(())
    }

    /// Makes one operation durable (append + fsync per policy). On
    /// success the caller applies the op in memory and acknowledges;
    /// on failure the frame has been rolled back, so a retry is safe.
    pub fn append(&mut self, op: &WalOp) -> Result<(), DurableError> {
        if self.poisoned {
            return Err(DurableError::Poisoned);
        }
        let frame = encode_frame(op);
        let appending = Instant::now();
        let appended = self.fs.append(&self.wal_path, &frame);
        self.stats.append.record_duration(appending.elapsed());
        if let Err(e) = appended {
            self.rollback();
            return Err(e.into());
        }
        self.wal_len += frame.len() as u64;
        self.records += 1;
        self.dirty = true;
        let due = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::Interval(d) => self.last_sync.elapsed() >= d,
        };
        if due {
            if let Err(e) = self.timed_sync() {
                // The op must not be acknowledged, so it must not
                // survive to replay: truncate it away. And after a
                // failed fsync the page cache is no longer trusted to
                // hold *earlier* acknowledged frames either — poison.
                self.wal_len -= frame.len() as u64;
                self.records -= 1;
                self.rollback();
                self.poisoned = true;
                return Err(e.into());
            }
            self.dirty = false;
            self.last_sync = Instant::now();
        }
        Ok(())
    }

    /// Truncates the WAL back to the last durable prefix after a
    /// failed append. If the rollback itself fails, disk and memory
    /// can no longer be reconciled — poison the writer.
    fn rollback(&mut self) {
        if self.fs.truncate(&self.wal_path, self.wal_len).is_err() {
            self.poisoned = true;
        }
    }

    /// Forces an fsync of any unsynced frames (shutdown / drain path).
    pub fn sync(&mut self) -> Result<(), DurableError> {
        if self.poisoned {
            return Err(DurableError::Poisoned);
        }
        if self.dirty {
            if let Err(e) = self.timed_sync() {
                self.poisoned = true;
                return Err(e.into());
            }
            self.dirty = false;
            self.last_sync = Instant::now();
        }
        Ok(())
    }

    /// One WAL fsync, recorded into the
    /// [fsync histogram](WalStats::fsync) whether it succeeds or not.
    fn timed_sync(&self) -> std::io::Result<()> {
        let syncing = Instant::now();
        let synced = self.fs.sync(&self.wal_path);
        self.stats.fsync.record_duration(syncing.elapsed());
        synced
    }

    /// The WAL append/fsync duration histograms (shared handle; the
    /// server's `/metrics` endpoint renders them).
    pub fn wal_stats(&self) -> Arc<WalStats> {
        Arc::clone(&self.stats)
    }

    /// Replace the stats handle so a store swapped in at runtime (a
    /// replica re-bootstrapping from a fresh snapshot) keeps feeding
    /// the histograms the server already exports.
    pub fn set_wal_stats(&mut self, stats: Arc<WalStats>) {
        self.stats = stats;
    }

    /// Reads the durable WAL prefix back through the store's
    /// filesystem: header plus every fully appended frame. Bytes past
    /// the durable length (a torn append that was rolled back) are
    /// excluded — this is exactly what replication ships.
    pub fn read_wal(&self) -> Result<Vec<u8>, DurableError> {
        let mut bytes = self.fs.read(&self.wal_path)?;
        bytes.truncate(self.wal_len as usize);
        Ok(bytes)
    }

    /// Reads the current snapshot file through the store's filesystem
    /// (the replica-bootstrap payload).
    pub fn read_snapshot(&self) -> Result<Vec<u8>, DurableError> {
        Ok(self.fs.read(&self.snapshot_path)?)
    }

    /// Folds `store` (the current in-memory state, WAL ops included)
    /// into a fresh snapshot and resets the WAL, both via atomic
    /// rename. Logically a no-op: a crash at any boundary recovers to
    /// the same store.
    pub fn compact(&mut self, store: &BenchmarkStore) -> Result<(), DurableError> {
        if self.poisoned {
            return Err(DurableError::Poisoned);
        }
        let bytes = snapshot::to_bytes(store)?;
        let new_id = snapshot_id(&bytes);
        let tmp = tmp_path(&self.snapshot_path);
        self.fs.write_file(&tmp, &bytes)?;
        self.fs.sync(&tmp)?;
        self.fs.rename(&tmp, &self.snapshot_path)?;
        // The old WAL is now stale (bound to the replaced snapshot).
        // If the fresh one cannot be installed, further appends would
        // land in a log the next boot discards — refuse them instead.
        if let Err(e) = self.install_fresh_wal(new_id) {
            self.poisoned = true;
            return Err(e);
        }
        Ok(())
    }

    /// Identity of the snapshot the WAL is bound to.
    pub fn snapshot_id(&self) -> SnapshotId {
        self.snapshot_id
    }

    /// Length of the durable WAL prefix (header + intact frames).
    pub fn wal_len(&self) -> u64 {
        self.wal_len
    }

    /// WAL bytes appended since the snapshot (0 right after
    /// compaction) — the server's compaction trigger input.
    pub fn wal_backlog(&self) -> u64 {
        self.wal_len - WAL_HEADER_LEN
    }

    /// Frames in the durable WAL prefix (0 right after compaction).
    pub fn wal_records(&self) -> u64 {
        self.records
    }

    /// Whether the writer has been poisoned by an I/O failure.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// The snapshot path.
    pub fn snapshot_path(&self) -> &Path {
        &self.snapshot_path
    }

    /// The WAL path.
    pub fn wal_path(&self) -> &Path {
        &self.wal_path
    }

    /// The configured fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FailMode, FailpointFs};
    use frost_core::clustering::Clustering;
    use frost_core::dataset::{Dataset, Experiment, Schema, ScoredPair};

    fn seed_store() -> BenchmarkStore {
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
                Experiment::from_pairs("seed", [(0u32, 1u32)]),
                None,
            )
            .unwrap();
        store
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "frost-durable-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn add_op(name: &str) -> WalOp {
        WalOp::AddExperiment {
            dataset: "people".into(),
            name: name.into(),
            pairs: vec![ScoredPair::scored((2u32, 3u32), 0.8)],
            kpis: None,
        }
    }

    #[test]
    fn appended_ops_survive_a_reopen() {
        let dir = scratch("reopen");
        let path = dir.join("store.frostb");
        snapshot::save(&seed_store(), &path).unwrap();

        let (mut store, mut durable, report) =
            DurableStore::open(&path, FsyncPolicy::Always).unwrap();
        assert!(report.created_wal);
        for name in ["run-1", "run-2"] {
            let op = add_op(name);
            durable.append(&op).unwrap();
            op.apply(&mut store).unwrap();
        }
        durable
            .append(&WalOp::DeleteExperiment {
                name: "seed".into(),
            })
            .unwrap();
        drop(durable);

        let (reopened, _, report) = DurableStore::open(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(report.replayed, 3);
        assert!(!report.created_wal);
        assert_eq!(reopened.experiment_names(None), vec!["run-1", "run-2"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_fsync_rolls_back_and_poisons() {
        let dir = scratch("fsync");
        let path = dir.join("store.frostb");
        snapshot::save(&seed_store(), &path).unwrap();
        // Ops at open: write_file + sync + rename (fresh WAL) = 3.
        // First append = op 3, its fsync = op 4 → fail the fsync.
        let fs = Arc::new(FailpointFs::failing_at(4, FailMode::Error));
        let (_, mut durable, _) = DurableStore::open_with(&path, FsyncPolicy::Always, fs).unwrap();
        let before = durable.wal_len();
        assert!(durable.append(&add_op("run-1")).is_err());
        assert_eq!(durable.wal_len(), before, "frame rolled back");
        assert!(durable.poisoned());
        assert!(matches!(
            durable.append(&add_op("run-2")),
            Err(DurableError::Poisoned)
        ));

        // Restart: the rolled-back frame must not replay, so a retry
        // of the same import succeeds.
        let (store, mut durable, report) = DurableStore::open(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(report.replayed, 0);
        assert_eq!(store.experiment_names(None), vec!["seed"]);
        durable.append(&add_op("run-1")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_folds_the_wal_and_preserves_state() {
        let dir = scratch("compact");
        let path = dir.join("store.frostb");
        snapshot::save(&seed_store(), &path).unwrap();
        let (mut store, mut durable, _) = DurableStore::open(&path, FsyncPolicy::Always).unwrap();
        let op = add_op("run-1");
        durable.append(&op).unwrap();
        op.apply(&mut store).unwrap();
        assert!(durable.wal_backlog() > 0);

        durable.compact(&store).unwrap();
        assert_eq!(durable.wal_backlog(), 0);

        let (reopened, _, report) = DurableStore::open(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(report.replayed, 0, "ops folded into the snapshot");
        assert_eq!(reopened.experiment_names(None), vec!["run-1", "seed"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_wal_from_an_interrupted_compaction_is_discarded() {
        let dir = scratch("stale");
        let path = dir.join("store.frostb");
        snapshot::save(&seed_store(), &path).unwrap();
        let (mut store, mut durable, _) = DurableStore::open(&path, FsyncPolicy::Always).unwrap();
        let op = add_op("run-1");
        durable.append(&op).unwrap();
        op.apply(&mut store).unwrap();
        drop(durable);

        // Simulate the crash window after the snapshot rename but
        // before the WAL reset: the new snapshot (ops folded in) is on
        // disk next to the old WAL.
        snapshot::save(&store, &path).unwrap();
        let (reopened, _, report) = DurableStore::open(&path, FsyncPolicy::Always).unwrap();
        assert!(report.discarded_stale_wal);
        assert_eq!(report.replayed, 0);
        assert_eq!(reopened.experiment_names(None), vec!["run-1", "seed"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_log_corruption_refuses_to_boot() {
        let dir = scratch("corrupt");
        let path = dir.join("store.frostb");
        snapshot::save(&seed_store(), &path).unwrap();
        let (_, mut durable, _) = DurableStore::open(&path, FsyncPolicy::Always).unwrap();
        durable.append(&add_op("run-1")).unwrap();
        durable.append(&add_op("run-2")).unwrap();
        let wal = durable.wal_path().to_path_buf();
        drop(durable);

        let mut bytes = std::fs::read(&wal).unwrap();
        let mid = WAL_HEADER_LEN as usize + 5; // inside the first frame
        bytes[mid] ^= 0x40;
        std::fs::write(&wal, &bytes).unwrap();
        let err = DurableStore::open(&path, FsyncPolicy::Always).unwrap_err();
        assert!(
            matches!(err, DurableError::Wal(WalError::Corrupted { .. })),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
