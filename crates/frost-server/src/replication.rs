//! WAL-shipping replication: primary/replica roles for `frostd`.
//!
//! A replica bootstraps from the primary's FROSTB snapshot
//! (`GET /replication/snapshot`), then tails its WAL over a long-poll
//! endpoint (`GET /replication/wal?from=<offset>`). The streamed bytes
//! are the primary's CRC-framed FROSTW records verbatim — the replica
//! applies each through [`DurableStore::append`]'s normal path, so its
//! on-disk state is byte-identical to what single-node recovery would
//! produce by construction.
//!
//! The pieces here are deliberately transport-dumb:
//!
//! - [`StreamPreamble`] — a tiny fixed header prefixed to every
//!   replication body so the replica can detect snapshot-epoch changes
//!   (the primary compacted) and learn the primary's current position
//!   for lag accounting.
//! - `wal_response` and `snapshot_response` — the primary's two
//!   replication endpoints, each a preamble followed by raw bytes read
//!   under the writer lock.
//! - [`ReplicationHub`] — shared state between the HTTP handlers and
//!   the replica apply thread: role, positions, condvars for long-poll
//!   wakeup (primary side) and semi-sync write acknowledgement.
//! - [`run_replica`] — the tailing loop, spawned as one thread by
//!   `serve_with` when `--replica-of` is set.
//!
//! [`DurableStore::append`]: frost_storage::durable::DurableStore::append

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use frost_storage::durable::{DurableError, DurableStore};
use frost_storage::snapshot;
use frost_storage::wal::{self, SnapshotId, WAL_HEADER_LEN};

use crate::client;
use crate::http::ServerState;
use crate::response::{encode, error_body, CachedResponse, CONTENT_TYPE_BINARY, CONTENT_TYPE_JSON};
use crate::route::Endpoint::{ReplicationSnapshot, ReplicationWal};
use crate::route::Target;

// ---------------------------------------------------------------------
// Stream preamble
// ---------------------------------------------------------------------

/// Magic prefixed to every replication response body.
pub const STREAM_MAGIC: &[u8; 4] = b"FRSR";
/// Replication stream format version.
pub const STREAM_VERSION: u16 = 1;
/// Encoded preamble size in bytes.
pub const STREAM_PREAMBLE_LEN: usize = 36;
/// Flag bit: the serving node considers itself a primary.
pub const FLAG_PRIMARY: u16 = 1;

/// Fixed header at the start of every `/replication/wal` and
/// `/replication/snapshot` body. Identifies the snapshot epoch the
/// following bytes belong to and the serving node's current WAL
/// position, so the replica can compute lag and detect compaction
/// without extra round trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamPreamble {
    /// Whether the serving node is a primary (replicas can be chained).
    pub primary: bool,
    /// Identity of the snapshot the server's WAL applies over.
    pub snapshot: SnapshotId,
    /// The server's durable WAL length in bytes (frame region included,
    /// header included — the same coordinate `?from=` uses).
    pub wal_len: u64,
    /// Frames in the server's durable WAL prefix.
    pub records: u64,
}

impl StreamPreamble {
    /// Serializes the preamble to its fixed 36-byte wire form.
    pub fn encode(&self) -> [u8; STREAM_PREAMBLE_LEN] {
        let mut out = [0u8; STREAM_PREAMBLE_LEN];
        out[0..4].copy_from_slice(STREAM_MAGIC);
        out[4..6].copy_from_slice(&STREAM_VERSION.to_le_bytes());
        let flags: u16 = if self.primary { FLAG_PRIMARY } else { 0 };
        out[6..8].copy_from_slice(&flags.to_le_bytes());
        out[8..16].copy_from_slice(&self.snapshot.len.to_le_bytes());
        out[16..20].copy_from_slice(&self.snapshot.crc.to_le_bytes());
        out[20..28].copy_from_slice(&self.wal_len.to_le_bytes());
        out[28..36].copy_from_slice(&self.records.to_le_bytes());
        out
    }

    /// Decodes a preamble from the front of `bytes`.
    pub fn decode(bytes: &[u8]) -> Result<StreamPreamble, String> {
        if bytes.len() < STREAM_PREAMBLE_LEN {
            return Err(format!(
                "replication preamble truncated: {} of {STREAM_PREAMBLE_LEN} bytes",
                bytes.len()
            ));
        }
        if &bytes[0..4] != STREAM_MAGIC {
            return Err("bad replication stream magic".into());
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
        if version != STREAM_VERSION {
            return Err(format!(
                "unsupported replication stream version {version} (expected {STREAM_VERSION})"
            ));
        }
        let flags = u16::from_le_bytes(bytes[6..8].try_into().unwrap());
        Ok(StreamPreamble {
            primary: flags & FLAG_PRIMARY != 0,
            snapshot: SnapshotId {
                len: u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
                crc: u32::from_le_bytes(bytes[16..20].try_into().unwrap()),
            },
            wal_len: u64::from_le_bytes(bytes[20..28].try_into().unwrap()),
            records: u64::from_le_bytes(bytes[28..36].try_into().unwrap()),
        })
    }
}

/// Splits a replication body into its preamble and the payload after it.
pub fn split_preamble(body: &[u8]) -> Result<(StreamPreamble, &[u8]), String> {
    let preamble = StreamPreamble::decode(body)?;
    Ok((preamble, &body[STREAM_PREAMBLE_LEN..]))
}

// ---------------------------------------------------------------------
// Serving side: the primary's endpoints
// ---------------------------------------------------------------------

/// Longest a `/replication/wal` long poll is held open waiting for new
/// frames (the `wait_ms` parameter is clamped to this).
const MAX_POLL_WAIT_MS: u64 = 10_000;

/// `GET /replication/wal?from=<offset>[&wait_ms=][&snap_len=&snap_crc=]`:
/// the long-poll WAL tail. The reply is a [`StreamPreamble`] followed
/// by the raw CRC-framed WAL bytes from `from` to the durable length —
/// exactly the bytes a single-node recovery would replay. When the
/// caller is current the request is held open (condvar, no locks) up
/// to `wait_ms` waiting for the next append; a snapshot-epoch mismatch
/// answers immediately with empty frames so the caller re-bootstraps.
///
/// The poll doubles as the replication acknowledgement: a caller
/// asking for bytes past `from` has everything before `from` durable,
/// which is what `--sync-replication` writers wait on.
pub(crate) fn wal_response(
    state: &ServerState,
    params: &Target,
) -> Result<CachedResponse, (u16, String)> {
    let from = params.parse("from", "", |s| s.parse::<u64>().ok())?;
    let wait_ms = params.parse("wait_ms", &REPLICA_POLL_WAIT_MS.to_string(), |s| {
        s.parse::<u64>().ok()
    })?;
    // The snapshot epoch the caller's WAL applies over; `None`
    // (parameters absent) means "whatever the server has".
    let snap = match (params.get("snap_len"), params.get("snap_crc")) {
        (Some(len), Some(crc)) => Some(SnapshotId {
            len: len
                .parse()
                .map_err(|_| (400, error_body("bad snap_len value")))?,
            crc: crc
                .parse()
                .map_err(|_| (400, error_body("bad snap_crc value")))?,
        }),
        _ => None,
    };
    // A volatile store has no WAL to wait on: answer before the
    // long-poll instead of holding a worker for `wait_ms`.
    if !state.is_durable() {
        return Err(volatile("WAL"));
    }
    let hub = state.hub();
    let snap = snap.unwrap_or(hub.position().0);
    hub.note_poll(snap, from);
    let wait = Duration::from_millis(wait_ms.min(MAX_POLL_WAIT_MS));
    hub.wait_for_data(from, snap, wait);
    stream_body(state, "WAL", |d| {
        if snap != d.snapshot_id() || from < WAL_HEADER_LEN || from >= d.wal_len() {
            return Ok(Vec::new());
        }
        Ok(d.read_wal()?
            .get(from as usize..)
            .map(<[u8]>::to_vec)
            .unwrap_or_default())
    })
}

/// `GET /replication/snapshot`: preamble + the exact current FROSTB
/// snapshot bytes — the replica bootstrap payload.
pub(crate) fn snapshot_response(state: &ServerState) -> Result<CachedResponse, (u16, String)> {
    stream_body(state, "snapshot", DurableStore::read_snapshot)
}

/// The one replication body: `read`'s bytes behind a preamble naming
/// the position they belong to, both taken under the writer lock so
/// no append or compaction can race the read.
fn stream_body(
    state: &ServerState,
    what: &str,
    read: impl FnOnce(&DurableStore) -> Result<Vec<u8>, DurableError>,
) -> Result<CachedResponse, (u16, String)> {
    let hub = state.hub();
    let (preamble, bytes) = state.with_writer(|d| {
        let d = d.ok_or_else(|| volatile(what))?;
        let bytes = read(d).map_err(|e| (500, error_body(&format!("{what} read failed: {e}"))))?;
        let preamble = StreamPreamble {
            primary: hub.is_primary(),
            snapshot: d.snapshot_id(),
            wal_len: d.wal_len(),
            records: d.wal_records(),
        };
        Ok::<_, (u16, String)>((preamble, bytes))
    })?;
    hub.add_streamed(bytes.len() as u64);
    let mut body = Vec::with_capacity(STREAM_PREAMBLE_LEN + bytes.len());
    body.extend_from_slice(&preamble.encode());
    body.extend_from_slice(&bytes);
    Ok(encode(200, body, CONTENT_TYPE_BINARY, None, None))
}

/// The answer of a replication endpoint on a volatile store, which has
/// no `what` to ship.
fn volatile(what: &str) -> (u16, String) {
    (
        400,
        error_body(&format!(
            "store is volatile (no {what}): replication unavailable"
        )),
    )
}

/// A write sent to a replica: `503`, with the `Frost-Primary` header
/// naming where to retry when the primary is known.
pub(crate) fn replica_rejection(hub: &ReplicationHub) -> CachedResponse {
    let extra = hub
        .primary_hint()
        .map(|h| Arc::from(format!("Frost-Primary: {h}\r\n")));
    let body = error_body("replica: writes must go to the primary");
    encode(503, body, CONTENT_TYPE_JSON, None, extra)
}

// ---------------------------------------------------------------------
// Roles and the hub
// ---------------------------------------------------------------------

/// The serving role of this `frostd` process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Serves reads and writes; streams its WAL to replicas.
    Primary,
    /// Serves reads only; tails a primary's WAL. Writes get `503` plus
    /// a `Frost-Primary` hint.
    Replica,
}

/// The durable position this node last published: snapshot epoch, WAL
/// byte length, and frame count — plus the highest offset any replica
/// has proven durable by polling past it (semi-sync replication).
#[derive(Debug, Clone, Copy)]
struct HubMeta {
    snapshot: SnapshotId,
    wal_len: u64,
    records: u64,
    /// Highest `?from=` offset a replica has polled with under the
    /// current snapshot epoch. A replica only asks for bytes past
    /// `from` once everything before `from` is durable locally, so
    /// this doubles as a replication acknowledgement watermark.
    replica_durable: u64,
}

/// Replication-lag as seen from a replica: how far behind the primary
/// it is in records, bytes, and wall-clock time since it was last fully
/// caught up. All zero on a primary.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplicationLag {
    /// Frames the primary has durably written that this node has not.
    pub records: u64,
    /// WAL bytes the primary has durably written that this node has not.
    pub bytes: u64,
    /// Milliseconds since this node last matched the primary's WAL
    /// length (since process start if it never has). Oscillates between
    /// 0 and roughly the poll interval on a healthy idle replica.
    pub ms: u64,
}

/// Shared replication state. One per server, reachable from the HTTP
/// handlers (long-poll wakeup, semi-sync acks, metrics) and from the
/// replica apply thread (position/connectivity reporting).
pub struct ReplicationHub {
    /// 0 = primary, 1 = replica.
    role: AtomicU8,
    /// Authority to point writers at from a replica's `503`.
    primary_hint: Mutex<Option<String>>,
    /// This node's published durable position; guarded by one mutex so
    /// snapshot epoch and WAL length always move together.
    meta: Mutex<HubMeta>,
    /// Notified on `publish` — wakes long-polling replicas.
    data: Condvar,
    /// Notified on `note_poll` — wakes semi-sync writers.
    ack: Condvar,
    /// Replica side: the primary's position from the last preamble.
    primary_wal_len: AtomicU64,
    primary_records: AtomicU64,
    /// Replica side: whether the last poll of the primary succeeded.
    connected: AtomicBool,
    /// Replica side: when this node last matched the primary's WAL
    /// length. `None` until first catch-up.
    caught_up_at: Mutex<Option<Instant>>,
    started: Instant,
    polls: AtomicU64,
    streamed_bytes: AtomicU64,
    sync_timeouts: AtomicU64,
}

fn lock_meta<'a>(meta: &'a Mutex<HubMeta>) -> MutexGuard<'a, HubMeta> {
    meta.lock().unwrap_or_else(|e| e.into_inner())
}

impl ReplicationHub {
    /// A hub starting at the given durable position, in primary role.
    pub fn new(snapshot: SnapshotId, wal_len: u64, records: u64) -> ReplicationHub {
        ReplicationHub {
            role: AtomicU8::new(0),
            primary_hint: Mutex::new(None),
            meta: Mutex::new(HubMeta {
                snapshot,
                wal_len,
                records,
                replica_durable: 0,
            }),
            data: Condvar::new(),
            ack: Condvar::new(),
            primary_wal_len: AtomicU64::new(0),
            primary_records: AtomicU64::new(0),
            connected: AtomicBool::new(false),
            caught_up_at: Mutex::new(None),
            started: Instant::now(),
            polls: AtomicU64::new(0),
            streamed_bytes: AtomicU64::new(0),
            sync_timeouts: AtomicU64::new(0),
        }
    }

    /// The current role.
    pub fn role(&self) -> Role {
        if self.role.load(Ordering::SeqCst) == 0 {
            Role::Primary
        } else {
            Role::Replica
        }
    }

    /// Flips the role. Promotion sets this *first* so the apply loop
    /// and write path observe the change before any state mutation.
    pub fn set_role(&self, role: Role) {
        let v = match role {
            Role::Primary => 0,
            Role::Replica => 1,
        };
        self.role.store(v, Ordering::SeqCst);
    }

    /// True when this node accepts writes.
    pub fn is_primary(&self) -> bool {
        self.role() == Role::Primary
    }

    /// The authority replicas advertise in `Frost-Primary`.
    pub fn primary_hint(&self) -> Option<String> {
        self.primary_hint
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Records the authority of the primary this node follows.
    pub fn set_primary_hint(&self, hint: Option<String>) {
        *self.primary_hint.lock().unwrap_or_else(|e| e.into_inner()) = hint;
    }

    /// Publishes a new durable position: called after every append,
    /// after compaction, and after a replica applies a record. Wakes
    /// long-pollers and semi-sync waiters. A snapshot-epoch change
    /// resets the replica-durable watermark — offsets from the old
    /// epoch mean nothing in the new one.
    pub fn publish(&self, snapshot: SnapshotId, wal_len: u64, records: u64) {
        let mut meta = lock_meta(&self.meta);
        if meta.snapshot != snapshot {
            meta.replica_durable = 0;
        }
        meta.snapshot = snapshot;
        meta.wal_len = wal_len;
        meta.records = records;
        drop(meta);
        self.data.notify_all();
        self.ack.notify_all();
    }

    /// The last published durable position.
    pub fn position(&self) -> (SnapshotId, u64, u64) {
        let meta = lock_meta(&self.meta);
        (meta.snapshot, meta.wal_len, meta.records)
    }

    /// Long-poll support: blocks until the published position moves
    /// past (`snapshot`, `from`) or `max_wait` elapses, returning the
    /// position current at wakeup. A caller whose snapshot no longer
    /// matches returns immediately — it needs to re-bootstrap, not
    /// wait.
    pub fn wait_for_data(
        &self,
        from: u64,
        snapshot: SnapshotId,
        max_wait: Duration,
    ) -> (SnapshotId, u64, u64) {
        let deadline = Instant::now() + max_wait;
        let mut meta = lock_meta(&self.meta);
        loop {
            if meta.wal_len != from || meta.snapshot != snapshot {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, timeout) = self
                .data
                .wait_timeout(meta, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            meta = guard;
            if timeout.timed_out() {
                break;
            }
        }
        (meta.snapshot, meta.wal_len, meta.records)
    }

    /// Records a replica poll at `from` under `snapshot`: everything
    /// before `from` is durable on the replica, so advance the ack
    /// watermark and wake semi-sync writers.
    pub fn note_poll(&self, snapshot: SnapshotId, from: u64) {
        self.polls.fetch_add(1, Ordering::Relaxed);
        let mut meta = lock_meta(&self.meta);
        if meta.snapshot == snapshot && from > meta.replica_durable {
            meta.replica_durable = from;
            drop(meta);
            self.ack.notify_all();
        }
    }

    /// Semi-sync write support: blocks until a replica proves `target`
    /// durable (or the snapshot epoch changes — compaction folded the
    /// write into the snapshot, which replicas bootstrap from whole).
    /// Returns `false` on timeout.
    pub fn wait_for_ack(&self, snapshot: SnapshotId, target: u64, max_wait: Duration) -> bool {
        let deadline = Instant::now() + max_wait;
        let mut meta = lock_meta(&self.meta);
        loop {
            if meta.snapshot != snapshot || meta.replica_durable >= target {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                drop(meta);
                self.sync_timeouts.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            let (guard, _) = self
                .ack
                .wait_timeout(meta, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            meta = guard;
        }
    }

    /// Replica side: records the primary position from a preamble.
    pub fn set_primary_position(&self, wal_len: u64, records: u64) {
        self.primary_wal_len.store(wal_len, Ordering::Relaxed);
        self.primary_records.store(records, Ordering::Relaxed);
    }

    /// Replica side: marks the primary reachable or not.
    pub fn set_connected(&self, connected: bool) {
        self.connected.store(connected, Ordering::Relaxed);
    }

    /// Whether the last poll of the primary succeeded (replica only).
    pub fn connected(&self) -> bool {
        self.connected.load(Ordering::Relaxed)
    }

    /// Replica side: this node's WAL length just matched the primary's.
    pub fn note_caught_up(&self) {
        *self.caught_up_at.lock().unwrap_or_else(|e| e.into_inner()) = Some(Instant::now());
    }

    /// Current replication lag. Zero in every dimension on a primary.
    pub fn lag(&self) -> ReplicationLag {
        if self.is_primary() {
            return ReplicationLag::default();
        }
        let (wal_len, records) = {
            let meta = lock_meta(&self.meta);
            (meta.wal_len, meta.records)
        };
        let bytes = self
            .primary_wal_len
            .load(Ordering::Relaxed)
            .saturating_sub(wal_len);
        let records = self
            .primary_records
            .load(Ordering::Relaxed)
            .saturating_sub(records);
        let ms = match *self.caught_up_at.lock().unwrap_or_else(|e| e.into_inner()) {
            Some(at) => at.elapsed().as_millis() as u64,
            None => self.started.elapsed().as_millis() as u64,
        };
        ReplicationLag { records, bytes, ms }
    }

    /// Total `/replication/wal` polls served.
    pub fn polls(&self) -> u64 {
        self.polls.load(Ordering::Relaxed)
    }

    /// Total WAL payload bytes streamed to replicas.
    pub fn streamed_bytes(&self) -> u64 {
        self.streamed_bytes.load(Ordering::Relaxed)
    }

    /// Accounts payload bytes streamed to a replica.
    pub fn add_streamed(&self, n: u64) {
        self.streamed_bytes.fetch_add(n, Ordering::Relaxed);
    }

    /// Semi-sync writes that timed out waiting for a replica ack.
    pub fn sync_timeouts(&self) -> u64 {
        self.sync_timeouts.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------
// Replica apply loop
// ---------------------------------------------------------------------

/// How long the replica asks the primary to hold an empty poll open.
pub const REPLICA_POLL_WAIT_MS: u64 = 1000;
/// Read timeout for a poll — must exceed the held-open window.
const POLL_TIMEOUT: Duration = Duration::from_secs(15);
/// Pause between reconnect attempts when the primary is unreachable.
const RECONNECT_PAUSE: Duration = Duration::from_millis(250);
/// Read timeout for a full snapshot fetch.
const SNAPSHOT_TIMEOUT: Duration = Duration::from_secs(60);

/// Tails `primary`'s WAL and applies every record through the durable
/// path until shutdown or promotion. Runs on its own thread; transient
/// network failures retry forever (the replica keeps serving reads,
/// with lag growing and `/readyz` eventually failing), while a local
/// apply failure is fatal to replication — continuing would silently
/// diverge.
pub fn run_replica(state: &ServerState, primary: &str, shutdown: &AtomicBool) {
    while !shutdown.load(Ordering::SeqCst) && state.hub().role() == Role::Replica {
        let hub = state.hub();
        let (snapshot, from) = state.replication_position();
        let path = format!(
            "{}?from={from}&wait_ms={REPLICA_POLL_WAIT_MS}&snap_len={}&snap_crc={}",
            ReplicationWal.path(),
            snapshot.len,
            snapshot.crc
        );
        let (status, body) = match client::get_once(primary, &path, POLL_TIMEOUT) {
            Ok(reply) => reply,
            Err(_) => {
                hub.set_connected(false);
                sleep_interruptible(shutdown, RECONNECT_PAUSE);
                continue;
            }
        };
        if status != 200 {
            hub.set_connected(false);
            sleep_interruptible(shutdown, RECONNECT_PAUSE);
            continue;
        }
        let (preamble, frames) = match split_preamble(&body) {
            Ok(split) => split,
            Err(err) => {
                eprintln!("frostd: bad replication reply from {primary}: {err}");
                hub.set_connected(false);
                sleep_interruptible(shutdown, RECONNECT_PAUSE);
                continue;
            }
        };
        hub.set_connected(true);
        hub.set_primary_position(preamble.wal_len, preamble.records);

        if preamble.snapshot != snapshot || from > preamble.wal_len {
            // The primary compacted (new snapshot epoch) or our offset
            // is from a different history: discard and re-bootstrap.
            if let Err(err) = rebootstrap(state, primary) {
                eprintln!("frostd: replica re-bootstrap from {primary} failed: {err}");
                hub.set_connected(false);
                sleep_interruptible(shutdown, RECONNECT_PAUSE);
            }
            continue;
        }

        match wal::scan_stream(frames) {
            Ok(scan) => {
                for op in &scan.ops {
                    if shutdown.load(Ordering::SeqCst) || hub.role() != Role::Replica {
                        return;
                    }
                    if let Err(err) = state.apply_replicated(op) {
                        eprintln!(
                            "frostd: replica apply failed, replication stalled \
                             (restart to resume): {err}"
                        );
                        return;
                    }
                }
            }
            Err(err) => {
                // A complete frame failed its CRC: the transport gave us
                // garbage. Re-bootstrapping from the snapshot is always
                // safe and gets us back to a verified state.
                eprintln!("frostd: corrupt replication frame from {primary}: {err}");
                if let Err(err) = rebootstrap(state, primary) {
                    eprintln!("frostd: replica re-bootstrap from {primary} failed: {err}");
                    hub.set_connected(false);
                    sleep_interruptible(shutdown, RECONNECT_PAUSE);
                }
                continue;
            }
        }

        let (_, applied) = state.replication_position();
        if applied >= preamble.wal_len {
            hub.note_caught_up();
        }
    }
}

/// Fetches the primary's snapshot, verifies it against its preamble,
/// and swaps it in as this node's new baseline.
fn rebootstrap(state: &ServerState, primary: &str) -> io::Result<()> {
    state.install_snapshot(&fetch_verified_snapshot(primary)?)
}

/// Fetches the primary's `/replication/snapshot` and checks the bytes
/// against the identity its preamble advertises; returns the snapshot
/// bytes without the preamble.
fn fetch_verified_snapshot(primary: &str) -> io::Result<Vec<u8>> {
    let (status, mut body) =
        client::get_once(primary, ReplicationSnapshot.path(), SNAPSHOT_TIMEOUT)
            .map_err(io::Error::other)?;
    if status != 200 {
        return Err(io::Error::other(format!(
            "snapshot fetch returned HTTP {status}"
        )));
    }
    let (preamble, snapshot_bytes) = split_preamble(&body).map_err(io::Error::other)?;
    if wal::snapshot_id(snapshot_bytes) != preamble.snapshot {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "snapshot bytes do not match their advertised identity",
        ));
    }
    body.drain(..STREAM_PREAMBLE_LEN);
    Ok(body)
}

/// Cold-start bootstrap: fetches the primary's snapshot and writes it
/// to `path` (tmp + fsync + rename) so `DurableStore::open` can start
/// from the primary's baseline. Retries until `max_wait` elapses so a
/// replica can be started before its primary.
pub fn bootstrap_snapshot(primary: &str, path: &Path, max_wait: Duration) -> io::Result<()> {
    let deadline = Instant::now() + max_wait;
    loop {
        match try_bootstrap(primary, path) {
            Ok(()) => return Ok(()),
            Err(err) => {
                if Instant::now() >= deadline {
                    return Err(io::Error::other(format!(
                        "bootstrap from {primary} failed after {max_wait:?}: {err}"
                    )));
                }
                thread::sleep(Duration::from_millis(500));
            }
        }
    }
}

fn try_bootstrap(primary: &str, path: &Path) -> io::Result<()> {
    snapshot::replace(path, "bootstrap.tmp", &fetch_verified_snapshot(primary)?)
}

fn sleep_interruptible(shutdown: &AtomicBool, total: Duration) {
    let deadline = Instant::now() + total;
    while !shutdown.load(Ordering::SeqCst) {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        thread::sleep((deadline - now).min(Duration::from_millis(50)));
    }
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(len: u64, crc: u32) -> SnapshotId {
        SnapshotId { len, crc }
    }

    #[test]
    fn preamble_roundtrips_through_its_wire_form() {
        let preamble = StreamPreamble {
            primary: true,
            snapshot: snap(1234, 0xDEAD_BEEF),
            wal_len: 24 + 99,
            records: 7,
        };
        let bytes = preamble.encode();
        assert_eq!(bytes.len(), STREAM_PREAMBLE_LEN);
        assert_eq!(StreamPreamble::decode(&bytes).unwrap(), preamble);

        let replica = StreamPreamble {
            primary: false,
            ..preamble
        };
        assert_eq!(StreamPreamble::decode(&replica.encode()).unwrap(), replica);
    }

    #[test]
    fn preamble_decode_rejects_garbage() {
        let good = StreamPreamble {
            primary: true,
            snapshot: snap(10, 1),
            wal_len: 24,
            records: 0,
        }
        .encode();

        assert!(StreamPreamble::decode(&good[..STREAM_PREAMBLE_LEN - 1]).is_err());

        let mut bad_magic = good;
        bad_magic[0] ^= 0xFF;
        assert!(StreamPreamble::decode(&bad_magic).is_err());

        let mut bad_version = good;
        bad_version[4] = 0xFE;
        assert!(StreamPreamble::decode(&bad_version).is_err());
    }

    #[test]
    fn ack_wait_returns_once_a_poll_reaches_the_target() {
        let id = snap(100, 42);
        let hub = Arc::new(ReplicationHub::new(id, 24 + 50, 3));

        // Target not yet durable anywhere: times out.
        assert!(!hub.wait_for_ack(id, 24 + 50, Duration::from_millis(30)));
        assert_eq!(hub.sync_timeouts(), 1);

        // A poll at the target offset proves durability and wakes us.
        let waker = Arc::clone(&hub);
        let handle = thread::spawn(move || {
            thread::sleep(Duration::from_millis(30));
            waker.note_poll(id, 24 + 50);
        });
        assert!(hub.wait_for_ack(id, 24 + 50, Duration::from_secs(5)));
        handle.join().unwrap();
        assert_eq!(hub.polls(), 1);
    }

    #[test]
    fn ack_wait_unblocks_when_compaction_changes_the_epoch() {
        let id = snap(100, 42);
        let hub = Arc::new(ReplicationHub::new(id, 24 + 50, 3));
        let waker = Arc::clone(&hub);
        let handle = thread::spawn(move || {
            thread::sleep(Duration::from_millis(30));
            waker.publish(snap(200, 43), 24, 0);
        });
        // The write we were waiting on got folded into a new snapshot:
        // replicas will bootstrap from it whole, so the wait succeeds.
        assert!(hub.wait_for_ack(id, 24 + 50, Duration::from_secs(5)));
        handle.join().unwrap();
    }

    #[test]
    fn data_wait_returns_early_on_publish_or_epoch_change() {
        let id = snap(100, 42);
        let hub = Arc::new(ReplicationHub::new(id, 24, 0));

        // Position already past `from`: returns immediately.
        let (_, len, _) = hub.wait_for_data(0, id, Duration::from_secs(5));
        assert_eq!(len, 24);

        // Caller's snapshot is stale: returns immediately too.
        let start = Instant::now();
        hub.wait_for_data(24, snap(9, 9), Duration::from_secs(5));
        assert!(start.elapsed() < Duration::from_secs(1));

        let waker = Arc::clone(&hub);
        let handle = thread::spawn(move || {
            thread::sleep(Duration::from_millis(30));
            waker.publish(id, 24 + 10, 1);
        });
        let (got_snap, got_len, got_records) = hub.wait_for_data(24, id, Duration::from_secs(5));
        assert_eq!((got_snap, got_len, got_records), (id, 24 + 10, 1));
        handle.join().unwrap();
    }

    #[test]
    fn lag_is_zero_on_a_primary_and_tracks_position_on_a_replica() {
        let id = snap(100, 42);
        let hub = ReplicationHub::new(id, 24, 0);
        assert_eq!(hub.lag().bytes, 0);

        hub.set_role(Role::Replica);
        hub.set_primary_position(24 + 80, 4);
        hub.publish(id, 24 + 30, 1);
        let lag = hub.lag();
        assert_eq!(lag.bytes, 50);
        assert_eq!(lag.records, 3);

        hub.set_role(Role::Primary);
        assert_eq!(hub.lag().bytes, 0);
    }
}
