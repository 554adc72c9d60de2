//! The std-only HTTP/1.1 server: a readiness-based event loop feeding
//! a fixed worker thread pool, persistent (keep-alive) connections
//! with request pipelining, JSON in and out, and a durable write path.
//!
//! This module wires the server together and owns its state: the
//! options ([`ServeOptions`]), the store, cache and write sequence
//! ([`ServerState`]), the worker side of a request (`execute`),
//! start-up ([`serve_with`], [`run_daemon`]) and shutdown. Each wire
//! format and policy lives in the module that owns it:
//! [`crate::request`] parses heads, [`crate::response`] renders every
//! response, [`crate::overload`] decides admission, sheds and
//! readiness, [`crate::route`] maps a request to its handler, and
//! [`crate::replication`] serves and follows the WAL stream.
//!
//! # Endpoints
//!
//! [`crate::route`] holds the route table: which endpoint a request
//! is, and each endpoint's handler, cost class, telemetry label and
//! cache scopes. Reads are cached response bytes; the write endpoints
//! are `POST /experiments?dataset=<D>&name=<N>` (import an experiment
//! from a CSV request body, `id1,id2[,similarity]` with native ids),
//! `DELETE /experiments/<N>` and `POST /snapshot/save` (compact WAL +
//! snapshot on durable stores).
//!
//! # Write path and durability
//!
//! Writes serialize on one writer lock and follow the WAL protocol
//! (see [`frost_storage::durable`]) through one sequence that primary
//! writes and replicated records share: prepare — validate and build
//! the import-time artifacts — under a **read** lock (imports stay
//! cheap for concurrent readers), append + fsync the op to the WAL,
//! then take the **write** lock only for the cheap commit. A `frostd`
//! started from a `FROSTB` file runs durably (WAL at `<store>.wal`,
//! `--fsync` policy); one started from a CSV directory accepts the
//! same writes volatile, in memory only. After a write, only the
//! touched cache *scopes* are invalidated — importing one experiment
//! does not evict `/datasets` or another experiment's cached bodies.
//!
//! Worker threads are panic-isolated: a panicking handler answers
//! `500` and the worker returns to the pool.
//!
//! # Connection model
//!
//! Connections are owned by [`crate::event_loop`]'s poll threads
//! (`--event-threads`) from `accept` to close, not by workers: the
//! first loop accepts and deals connections round-robin, sockets are
//! non-blocking, and each event thread multiplexes its share of
//! connections over a vendored `poll(2)` shim — an idle keep-alive
//! connection costs a descriptor and a poll slot, not a thread. The
//! event thread does the reads and parses heads out of a
//! per-connection [`RequestBuffer`]. A complete
//! cacheable `GET` is probed against the response cache on the event
//! thread, and a hit is written right there. Only misses and uncached
//! requests are dispatched to the worker pool (via [`execute`]); the
//! finished response is queued back to the event thread, which writes
//! it out under write-readiness. One request per connection is
//! in flight at a time, so pipelined responses go out in request order
//! with no reordering. A connection closes when the client asks
//! (`Connection: close`, or HTTP/1.0), when it has been idle longer
//! than [`ServeOptions::idle_timeout`], after
//! [`ServeOptions::max_requests`] responses (so a persistent client
//! cannot starve the server forever), or after any parse error (one
//! `400` is sent, then the socket closes).
//!
//! # Caching
//!
//! One result cache holds fully serialized HTTP **response bytes**
//! ([`ShardedCache<CachedResponse>`]), bounded by `--cache-budget-mb`.
//! A hit is answered by the event thread that parsed it and written
//! from a shared `Arc<[u8]>`: no worker hand-off, no store
//! computation, no JSON rendering and no response-building allocation
//! (the remaining per-request work is parsing the head, routing the
//! target and building the cache key; the API request and its
//! invalidation scopes are built only on a miss, by the worker). Each
//! request makes at most one counted lookup. The store itself
//! memoizes nothing. Entries are generation-stamped: any
//! mutation through [`ServerState::with_store_mut`] bumps the
//! generation and logically evicts every entry at once. Cached
//! responses carry a content-derived strong `ETag`; a request
//! presenting it via `If-None-Match` gets a bodyless
//! `304 Not Modified` instead of the payload.
//!
//! [`ServerState::json_renders`] counts actual JSON serializations, so
//! tests can pin that the hot path performs zero of them.
//!
//! `/stats` and the bare `/metrics` are two encodings of one table,
//! the counter registry in [`crate::telemetry`]: this module
//! owns the counters ([`OverloadStats`], the cache, the render and
//! connection counts) but names and renders none of them itself.
//!
//! Bodies are rendered by [`json::response_to_json`], so an HTTP
//! response is byte-identical to rendering the in-process
//! [`api::handle`] result — the invariant the loopback golden tests
//! pin, including across reused connections and pipelined clients.

use crate::event_loop;
use crate::json::response_to_json;
use crate::overload::{ClassGates, OverloadStats, RequestContext, ShedReason};
use crate::replication::{self, ReplicationHub, Role};
use crate::response::{error_body, revalidate, CachedResponse};
use crate::route::{self, store_error};
use crate::telemetry::{Stage, Telemetry};
use frost_storage::api;
use frost_storage::cache::ShardedCache;
use frost_storage::durable::{DurableError, DurableStore};
use frost_storage::snapshot;
use frost_storage::store::StoreError;
use frost_storage::wal::{SnapshotId, WalOp};
use frost_storage::BenchmarkStore;
use parking_lot::RwLock;
use serde_json::Value;
use std::borrow::Borrow;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub use crate::request::{Parsed, ParsedRequest, RequestBuffer, MAX_REQUEST_BYTES};

/// Shards in the result cache; 16 spreads a small thread pool's
/// keys with negligible memory overhead.
const CACHE_SHARDS: usize = 16;

/// Default for [`ServeOptions::idle_timeout`].
pub const DEFAULT_IDLE_TIMEOUT_MS: u64 = 5_000;

/// Default for [`ServeOptions::max_requests`].
pub const DEFAULT_MAX_REQUESTS: usize = 10_000;

/// Default for [`ServeOptions::max_queued`].
pub const DEFAULT_MAX_QUEUED: usize = 256;

/// Default for [`ServeOptions::cache_budget`]: generous for a query
/// daemon, small enough that cache growth can never OOM a modest host.
pub const DEFAULT_CACHE_BUDGET: usize = 256 * 1024 * 1024;

/// Default for [`ServeOptions::event_threads`]. One loop comfortably
/// multiplexes thousands of mostly-idle connections; add more only
/// when parse/write CPU in the loop itself becomes the bottleneck.
pub const DEFAULT_EVENT_THREADS: usize = 1;

/// Tunables of the connection path.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads in the fixed pool: they evaluate complete
    /// requests the event loops hand them, never own sockets.
    pub workers: usize,
    /// Event-loop threads multiplexing every connection's socket via
    /// `poll(2)` (non-blocking reads/writes, readiness-driven). A few
    /// suffice for thousands of mostly-idle keep-alive connections —
    /// connections cost file descriptors, not threads.
    pub event_threads: usize,
    /// How long a keep-alive connection may sit between requests
    /// before its event loop closes it. The same bound applies to
    /// writes (a client that stops reading is cut once a write has
    /// made no progress for this long) and, as a whole-head deadline,
    /// to a trickled (slow-loris) request head: a head that has not
    /// completed one `idle_timeout` after its first byte is answered
    /// `400` and cut, even if every individual read stays fast. It is
    /// also how long a compute- or write-class request waits for its
    /// class permit when no request deadline is set.
    pub idle_timeout: Duration,
    /// Responses served on one connection before the server closes it
    /// (advertised with `Connection: close` on the last response), so
    /// the fixed pool cannot be starved by immortal connections.
    pub max_requests: usize,
    /// Dispatch queue bound: parsed requests the response cache could
    /// not answer, waiting for a pool worker. While the queue is full,
    /// a request that needs a worker is shed with a canned `503` +
    /// `Retry-After`, and so is every new connection, before its
    /// event loop reads a byte of it — no parsing, no evaluation, no
    /// worker time. Cache hits take no slot.
    pub max_queued: usize,
    /// Per-request deadline. The first request on a connection clocks
    /// from **admission** (queue wait counts — a request that already
    /// waited out its deadline in the queue is shed before any work);
    /// later requests clock from their first buffered byte. A request
    /// past its deadline is never evaluated: it is shed with `503` +
    /// `Retry-After`, and the remaining deadline bounds socket reads
    /// and class-gate waits. `None` disables deadlines.
    pub request_deadline: Option<Duration>,
    /// Tracked-byte budget of the response cache, enforced with
    /// stale-first LRU eviction (default [`DEFAULT_CACHE_BUDGET`]).
    pub cache_budget: usize,
    /// Test-only: expose `GET /debug/panic`, which panics inside the
    /// request handler — the regression hook for worker panic
    /// isolation. Never enabled by the CLI.
    pub debug_panic: bool,
    /// Test-only: expose `GET /debug/sleep?ms=N`, a compute-class
    /// endpoint that holds its worker (and compute permit) for `N`
    /// milliseconds — the deterministic load generator the overload
    /// tests saturate the server with. Never enabled by the CLI.
    pub debug_sleep: bool,
    /// Per-request tracing and latency histograms (`GET /metrics`,
    /// `GET /debug/traces`). On by default — the hot-path cost is two
    /// extra `Instant::now()` calls and a handful of relaxed atomic
    /// adds per request, gated by the bench's telemetry-overhead
    /// phase. Disabling keeps `/metrics` serving counters/gauges but
    /// leaves every histogram empty and the trace ring idle.
    pub telemetry: bool,
    /// Log any request slower than this end-to-end as one structured
    /// `frostd: slow-request …` line on stderr (`--slow-request-ms`).
    /// `None` disables the slow log.
    pub slow_request: Option<Duration>,
    /// Capacity of the `/debug/traces` ring (`--trace-ring`).
    pub trace_ring: usize,
    /// Run as a replica of this primary (`host:port`): bootstrap from
    /// its snapshot when the local store file is absent, tail its WAL,
    /// serve the full read surface, and answer writes with `503` plus
    /// a `Frost-Primary` hint. Requires a durable (FROSTB) store.
    pub replica_of: Option<String>,
    /// Replica readiness gate: `/readyz` reports not-ready once
    /// replication lag exceeds this many milliseconds (`None` = lag
    /// never gates readiness). Lag oscillates between zero and roughly
    /// the poll interval on a healthy replica, so values under ~2000
    /// flap.
    pub max_replica_lag: Option<u64>,
    /// Semi-synchronous replication (primary side): a mutating write
    /// is acknowledged only after a replica has proven it durable by
    /// polling past it (or after a bounded wait, in which case the
    /// client gets `503` — the write *is* durable locally and will be
    /// re-shipped). Off = asynchronous shipping with a bounded loss
    /// window on failover.
    pub sync_replication: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
            event_threads: DEFAULT_EVENT_THREADS,
            idle_timeout: Duration::from_millis(DEFAULT_IDLE_TIMEOUT_MS),
            max_requests: DEFAULT_MAX_REQUESTS,
            max_queued: DEFAULT_MAX_QUEUED,
            request_deadline: None,
            cache_budget: DEFAULT_CACHE_BUDGET,
            debug_panic: false,
            debug_sleep: false,
            telemetry: true,
            slow_request: None,
            trace_ring: crate::telemetry::DEFAULT_TRACE_RING,
            replica_of: None,
            max_replica_lag: None,
            sync_replication: false,
        }
    }
}

/// The shared server state: the store behind a [`RwLock`], the result
/// cache in front of it, and the (optional) durable writer behind one
/// writer lock.
pub struct ServerState {
    store: RwLock<BenchmarkStore>,
    responses: ShardedCache<CachedResponse>,
    /// The write path serializes here. `Some` = durable (WAL-backed);
    /// `None` = volatile in-memory writes (CSV-dir store). Lock order:
    /// writer lock first, then the store lock — never the reverse.
    writer: parking_lot::Mutex<Option<DurableStore>>,
    /// Set during graceful shutdown: responses advertise
    /// `Connection: close`, and queued-but-unstarted requests and
    /// newly adopted connections are answered with a clean `503`
    /// instead of being served.
    draining: AtomicBool,
    json_renders: AtomicU64,
    connections: AtomicU64,
    overload: OverloadStats,
    /// Traces, latency histograms, and the `/metrics` registry (wired
    /// to the durable writer's WAL histograms when one exists).
    telemetry: Arc<Telemetry>,
    /// Replication role, positions, long-poll wakeup and semi-sync ack
    /// condvars. Present on every server (a primary with no replicas
    /// just never sees a poll).
    hub: Arc<ReplicationHub>,
}

impl ServerState {
    /// Wraps a loaded store (volatile writes: accepted, in-memory
    /// only).
    pub fn new(store: BenchmarkStore) -> Self {
        Self::build(store, None)
    }

    /// Wraps a store recovered by [`DurableStore::open`]: writes
    /// append to its WAL before they apply.
    pub fn with_durable(store: BenchmarkStore, durable: DurableStore) -> Self {
        Self::build(store, Some(durable))
    }

    fn build(store: BenchmarkStore, durable: Option<DurableStore>) -> Self {
        let wal_stats = durable.as_ref().map(|d| d.wal_stats()).unwrap_or_default();
        let hub = Arc::new(match durable.as_ref() {
            Some(d) => ReplicationHub::new(d.snapshot_id(), d.wal_len(), d.wal_records()),
            None => ReplicationHub::new(SnapshotId { len: 0, crc: 0 }, 0, 0),
        });
        Self {
            store: RwLock::new(store),
            responses: ShardedCache::new(CACHE_SHARDS),
            writer: parking_lot::Mutex::new(durable),
            draining: AtomicBool::new(false),
            json_renders: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            overload: OverloadStats::default(),
            telemetry: Arc::new(Telemetry::new(wal_stats)),
            hub,
        }
    }

    /// The telemetry registry (traces, histograms, `/metrics`).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// The replication hub (role, positions, lag, ack condvars).
    pub fn hub(&self) -> &Arc<ReplicationHub> {
        &self.hub
    }

    /// Whether writes are WAL-backed.
    pub fn is_durable(&self) -> bool {
        self.writer.lock().is_some()
    }

    /// Runs `f` on the durable store (`None` when volatile) under the
    /// writer lock, so no append or compaction interleaves with it.
    pub(crate) fn with_writer<R>(&self, f: impl FnOnce(Option<&DurableStore>) -> R) -> R {
        f(self.writer.lock().as_ref())
    }

    /// Flips the server into drain mode (used by graceful shutdown):
    /// every response from here on advertises `Connection: close`,
    /// workers answer queued-but-unstarted requests with a `503`
    /// instead of serving them, and the event loops shed new
    /// connections the same way.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
    }

    /// Whether the server is draining.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Fsyncs any unsynced WAL frames (the shutdown path; a no-op for
    /// volatile stores).
    pub fn sync_wal(&self) -> Result<(), String> {
        match self.writer.lock().as_mut() {
            Some(d) => d.sync().map_err(|e| e.to_string()),
            None => Ok(()),
        }
    }

    /// Runs a read-only closure against the store (shared lock).
    pub fn with_store<R>(&self, f: impl FnOnce(&BenchmarkStore) -> R) -> R {
        f(&self.store.read())
    }

    /// Runs a mutating closure against the store (exclusive lock) and
    /// bumps the cache generation afterwards — the invalidation rule:
    /// every cached response is stamped with the store generation it
    /// was computed under, and a mutation makes all older stamps stale
    /// at once.
    pub fn with_store_mut<R>(&self, f: impl FnOnce(&mut BenchmarkStore) -> R) -> R {
        let out = f(&mut self.store.write());
        self.responses.invalidate();
        out
    }

    /// The one write sequence. Primary imports, primary deletes and
    /// replicated records all take it, and boot recovery replays the
    /// same two store steps ([`WalOp::apply`]), so primary, replica
    /// and recovered store agree by construction:
    ///
    /// 1. prepare under the store read lock — `build` yields the op,
    ///    [`WalOp::prepare`] validates it and builds the import-time
    ///    artifacts (a write that fails here touches neither memory
    ///    nor disk);
    /// 2. append the op to the WAL (durable stores);
    /// 3. commit under the write lock — the cheap insert or removal;
    /// 4. bump the `exp:<name>` and `sys:experiments` cache scopes;
    /// 5. publish the new position to the replication hub.
    fn apply_write<W: Borrow<WalOp>>(
        &self,
        build: impl FnOnce(&BenchmarkStore) -> Result<W, StoreError>,
    ) -> Result<(), WriteError> {
        let mut writer = self.writer.lock();
        let (op, prepared) = {
            let store = self.store.read();
            let op = build(&store).map_err(WriteError::Store)?;
            let prepared = op.borrow().prepare(&store).map_err(WriteError::Store)?;
            (op, prepared)
        };
        if let Some(d) = writer.as_mut() {
            d.append(op.borrow()).map_err(WriteError::Durable)?;
        }
        let scope = format!("exp:{}", prepared.experiment_name());
        prepared
            .commit(&mut self.store.write())
            .map_err(WriteError::Store)?;
        self.responses
            .invalidate_scopes([scope.as_str(), "sys:experiments"]);
        if let Some(d) = writer.as_ref() {
            self.publish(d);
        }
        Ok(())
    }

    /// Publishes `d`'s durable position to the replication hub.
    fn publish(&self, d: &DurableStore) {
        self.hub
            .publish(d.snapshot_id(), d.wal_len(), d.wal_records());
    }

    /// `POST /experiments`: parses the CSV against the store, then
    /// takes the [write sequence](Self::apply_write).
    pub(crate) fn import_experiment(
        &self,
        dataset: &str,
        name: &str,
        csv: &str,
    ) -> Result<api::Response, (u16, String)> {
        let mut pairs = 0;
        self.apply_write(|store| {
            let experiment = api::parse_experiment_csv(store, dataset, name, csv)?;
            pairs = experiment.len();
            Ok(WalOp::add_owned_experiment(dataset, experiment, None))
        })
        .map_err(WriteError::http)?;
        Ok(api::Response::Imported {
            experiment: name.to_string(),
            pairs,
        })
    }

    /// `DELETE /experiments/<N>` through the [write sequence](Self::apply_write).
    pub(crate) fn delete_experiment(&self, name: &str) -> Result<api::Response, (u16, String)> {
        self.apply_write(|_| {
            Ok(WalOp::DeleteExperiment {
                name: name.to_string(),
            })
        })
        .map_err(WriteError::http)?;
        Ok(api::Response::Deleted {
            experiment: name.to_string(),
        })
    }

    /// Compacts WAL + snapshot under live traffic: the new `FROSTB`
    /// is written and atomically renamed while readers keep serving
    /// (only the writer lock and a read lock are held).
    pub(crate) fn save_snapshot(&self) -> Result<api::Response, (u16, String)> {
        let mut writer = self.writer.lock();
        let Some(d) = writer.as_mut() else {
            return Err((
                400,
                error_body(
                    "store has no snapshot backing (started from CSV); \
                     start frostd on a FROSTB file to enable saves",
                ),
            ));
        };
        let store = self.store.read();
        d.compact(&store).map_err(durable_error)?;
        self.publish(d);
        Ok(api::Response::Saved {
            datasets: store.dataset_names().len(),
            experiments: store.experiment_names(None).len(),
        })
    }

    /// This node's durable replication position: snapshot epoch plus
    /// WAL length — the coordinate the replica polls `?from=` with.
    /// Volatile stores report a zero position.
    pub fn replication_position(&self) -> (SnapshotId, u64) {
        match self.writer.lock().as_ref() {
            Some(d) => (d.snapshot_id(), d.wal_len()),
            None => (SnapshotId { len: 0, crc: 0 }, 0),
        }
    }

    /// Applies one replicated WAL record through the primary's
    /// [write sequence](Self::apply_write): a record that fails to prepare
    /// leaves the local WAL and store untouched, and one that prepares
    /// is appended (the op codec is deterministic, so the local frame
    /// is byte-identical to the primary's) and committed.
    pub fn apply_replicated(&self, op: &WalOp) -> std::io::Result<()> {
        if !self.is_durable() {
            return Err(no_durable_store());
        }
        self.apply_write(|_| Ok(op))
            .map_err(|e| std::io::Error::other(format!("replicated write failed: {e}")))
    }

    /// Swaps in a snapshot fetched from the primary (re-bootstrap after
    /// the primary compacted): atomically replaces the snapshot file
    /// (bytes that do not decode are refused and change nothing),
    /// reopens the durable store over it (the old WAL is discarded as
    /// stale by the normal recovery rule), replaces the in-memory
    /// store, and invalidates every cache entry.
    pub fn install_snapshot(&self, bytes: &[u8]) -> std::io::Result<()> {
        let mut writer = self.writer.lock();
        let Some(current) = writer.as_ref() else {
            return Err(no_durable_store());
        };
        let path = current.snapshot_path().to_path_buf();
        let policy = current.policy();
        let stats = current.wal_stats();
        snapshot::replace(&path, "rebootstrap.tmp", bytes)?;
        let (store, mut durable, _report) = DurableStore::open(&path, policy)
            .map_err(|e| std::io::Error::other(format!("reopen after bootstrap failed: {e}")))?;
        durable.set_wal_stats(stats);
        *self.store.write() = store;
        self.publish(&durable);
        *writer = Some(durable);
        self.responses.invalidate();
        Ok(())
    }

    /// `POST /replication/promote`: flips a replica into a primary.
    /// The role flips *first* (the apply loop and write path observe it
    /// before any state change), then the tail is sealed — fsync, then
    /// compact, so the promoted node starts its primary life on a
    /// fresh snapshot epoch and replicas of the old primary that
    /// re-point here re-bootstrap cleanly. Idempotent on a primary.
    pub fn promote(&self) -> Result<String, (u16, String)> {
        let already_primary = self.hub.is_primary();
        if !already_primary {
            self.hub.set_role(Role::Primary);
            self.hub.set_primary_hint(None);
            let mut writer = self.writer.lock();
            if let Some(d) = writer.as_mut() {
                d.sync().map_err(durable_error)?;
                d.compact(&self.store.read()).map_err(durable_error)?;
                self.publish(d);
            }
        }
        Ok(serde_json::to_string(&Value::object([
            ("promoted".to_string(), Value::from(!already_primary)),
            ("role".to_string(), Value::from("primary")),
        ])))
    }

    /// The result cache (serialized HTTP response bytes).
    pub fn response_cache(&self) -> &ShardedCache<CachedResponse> {
        &self.responses
    }

    /// JSON serializations performed since start-up. A cache-served
    /// request performs none — the render-counter tests pin that.
    pub fn json_renders(&self) -> u64 {
        self.json_renders.load(Ordering::Relaxed)
    }

    /// Connections accepted since start-up.
    pub fn connections_accepted(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    pub(crate) fn note_connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// The overload counters `/stats` and `/readyz` report.
    pub fn overload(&self) -> &OverloadStats {
        &self.overload
    }

    /// Whether the WAL writer refused further appends after an earlier
    /// disk failure (see `DurableStore::poisoned`). Volatile stores
    /// report `false`.
    pub fn wal_poisoned(&self) -> bool {
        self.writer.lock().as_ref().is_some_and(|d| d.poisoned())
    }

    /// Caps the response cache at `total_bytes`; eviction is
    /// stale-first, then least-recently-used.
    pub fn set_cache_budget(&self, total_bytes: usize) {
        self.responses.set_budget(total_bytes.max(1));
    }

    pub(crate) fn rendered(&self, response: &api::Response) -> String {
        self.json_renders.fetch_add(1, Ordering::Relaxed);
        serde_json::to_string(&response_to_json(response))
    }
}

/// A running server: its bound address, shared state, and shutdown
/// control.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    shutdown: Arc<AtomicBool>,
    /// The event loops' mailboxes — shutdown signals go through them.
    loops: Arc<[Arc<event_loop::LoopShared>]>,
    loop_threads: Vec<std::thread::JoinHandle<()>>,
    worker_threads: Vec<std::thread::JoinHandle<()>>,
    /// The replica apply loop (`--replica-of`); observes the shared
    /// shutdown flag.
    replica_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound socket address (resolves ephemeral port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (store + caches).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Stops accepting, drops every connection, and joins all server
    /// threads (the drop glue does the work, so forgetting to call
    /// this leaks nothing).
    pub fn shutdown(self) {}

    /// The graceful variant: stops accepting, lets dispatched and
    /// mid-write requests finish, closes idle connections, then joins
    /// everything. The ordering matters: loop 0 drops its listener
    /// first and then passes the drain to every loop, the loops drain
    /// (their in-flight requests need the still-live workers), and the
    /// workers exit once the last loop drops its queue sender.
    pub fn graceful_shutdown(mut self) {
        self.state.begin_drain();
        self.loops[0].begin_drain();
        self.join();
    }

    /// Joins the loops, then the workers, then the replica thread.
    fn join(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        for t in self.loop_threads.drain(..) {
            let _ = t.join();
        }
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
        if let Some(t) = self.replica_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.loop_threads.is_empty() {
            return; // graceful_shutdown already ran
        }
        // Hard stop: every loop drops its connections (and loop 0 its
        // listener) immediately; a worker mid-request finishes, but its
        // completion lands in a dead mailbox.
        for shared in self.loops.iter() {
            shared.kill();
        }
        self.join();
    }
}

/// Binds `addr` (use port 0 for an ephemeral port) and serves requests
/// on `workers` pool threads with default connection limits. See
/// [`serve_with`] for the tunable form.
pub fn serve(addr: &str, state: Arc<ServerState>, workers: usize) -> std::io::Result<ServerHandle> {
    serve_with(
        addr,
        state,
        ServeOptions {
            workers,
            ..ServeOptions::default()
        },
    )
}

/// Binds `addr` and serves keep-alive connections until the handle is
/// shut down or dropped: `options.event_threads` readiness loops own
/// every socket, `options.workers` pool threads evaluate the complete
/// requests the loops dispatch.
pub fn serve_with(
    addr: &str,
    state: Arc<ServerState>,
    options: ServeOptions,
) -> std::io::Result<ServerHandle> {
    if options.replica_of.is_some() && !state.is_durable() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "--replica-of requires a durable (FROSTB) store: a volatile \
             store has no WAL to replicate into",
        ));
    }
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    state.set_cache_budget(options.cache_budget);
    let replica_thread = match options.replica_of.clone() {
        Some(primary) => {
            // Role flips before any request can be served, so the
            // write path never races a not-yet-replica window.
            state.hub.set_role(Role::Replica);
            state.hub.set_primary_hint(Some(primary.clone()));
            let replica_state = Arc::clone(&state);
            let replica_shutdown = Arc::clone(&shutdown);
            Some(std::thread::spawn(move || {
                replication::run_replica(&replica_state, &primary, &replica_shutdown);
            }))
        }
        None => None,
    };
    state
        .telemetry
        .configure(options.telemetry, options.slow_request, options.trace_ring);
    // The dispatch queue carries complete parsed requests the response
    // cache could not answer, each stamped with its absolute deadline.
    // Its bound is the `try_enqueue` reservation the loops make before
    // each `send`, so the channel itself is unbounded.
    let (tx, rx) = mpsc::channel::<event_loop::Work>();
    let rx = Arc::new(Mutex::new(rx));
    let gates = Arc::new(ClassGates::for_workers(options.workers));
    let workers = options.workers.max(1);
    let event_threads = options.event_threads.max(1);
    let mut loop_mailboxes = Vec::with_capacity(event_threads);
    for _ in 0..event_threads {
        loop_mailboxes.push(Arc::new(event_loop::LoopShared::new()?));
    }
    let loops: Arc<[Arc<event_loop::LoopShared>]> = loop_mailboxes.into();
    let mut worker_threads = Vec::with_capacity(workers);
    for _ in 0..workers {
        let rx = Arc::clone(&rx);
        let state = Arc::clone(&state);
        let options = options.clone();
        let gates = Arc::clone(&gates);
        let loops = Arc::clone(&loops);
        worker_threads.push(std::thread::spawn(move || loop {
            // Holding the lock only for the recv keeps the pool fair.
            let next = rx.lock().expect("worker queue lock").recv();
            match next {
                Ok(mut work) => {
                    state.overload.queue_dequeued();
                    let done = execute(&work, &state, &options, &gates);
                    loops[work.loop_id].push_completion(event_loop::Completion {
                        token: work.token,
                        generation: work.generation,
                        done,
                        trace: work.trace.take(),
                    });
                }
                Err(_) => break, // every event loop exited → drain done
            }
        }));
    }
    // Loop 0 accepts; every loop adopts what loop 0 deals it.
    let mut acceptor = Some(event_loop::Acceptor {
        listener,
        loops: Arc::clone(&loops),
        next: 0,
    });
    let mut loop_threads = Vec::with_capacity(event_threads);
    for (loop_id, shared) in loops.iter().enumerate() {
        let shared = Arc::clone(shared);
        let acceptor = acceptor.take();
        let tx = tx.clone();
        let state = Arc::clone(&state);
        let options = options.clone();
        loop_threads.push(std::thread::spawn(move || {
            event_loop::run(loop_id, shared, acceptor, tx, state, options);
        }));
    }
    // Only the loops hold senders now: the last exiting loop is the
    // workers' stop signal.
    drop(tx);
    Ok(ServerHandle {
        addr: local,
        state,
        shutdown,
        loops,
        loop_threads,
        worker_threads,
        replica_thread,
    })
}

/// Set by the SIGINT/SIGTERM handler; polled by [`run_daemon`].
static SHUTDOWN_REQUESTED: AtomicBool = AtomicBool::new(false);

extern "C" fn note_shutdown_signal(_signum: i32) {
    // Only an atomic store — everything else is async-signal-unsafe.
    SHUTDOWN_REQUESTED.store(true, Ordering::SeqCst);
}

/// Installs SIGINT/SIGTERM handlers via the raw `signal(2)` C
/// function (declared directly — the workspace vendors no libc crate).
#[cfg(unix)]
fn install_shutdown_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    let handler = note_shutdown_signal as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

#[cfg(not(unix))]
fn install_shutdown_handlers() {}

/// The shared `frostd` / `frost serve` bootstrap: loads a store from
/// either on-disk representation, binds `addr:port`, prints the
/// scrapeable `frostd listening on http://…` line (the CI golden gate
/// greps it) and serves until SIGTERM/SIGINT, then drains gracefully:
/// stop accepting, let in-flight requests finish, fsync the WAL, exit.
///
/// A `FROSTB` snapshot path runs **durable** — the WAL at
/// `<path>.wal` is replayed over the snapshot on boot (torn tails
/// truncated with a warning, mid-log corruption refused) and every
/// write is logged with the given fsync policy before it applies. A
/// CSV directory runs volatile: writes are accepted in memory only.
pub fn run_daemon(
    store_path: &str,
    addr: &str,
    port: u16,
    options: ServeOptions,
    fsync: frost_storage::FsyncPolicy,
) -> Result<(), String> {
    if let Some(primary) = options.replica_of.as_deref() {
        // A replica may be pointed at a store file that does not exist
        // yet: bootstrap it from the primary's snapshot endpoint.
        if !std::path::Path::new(store_path).exists() {
            println!("frostd: replica bootstrap: fetching snapshot from {primary}");
            replication::bootstrap_snapshot(
                primary,
                std::path::Path::new(store_path),
                Duration::from_secs(30),
            )
            .map_err(|e| format!("replica bootstrap from {primary} failed: {e}"))?;
            println!("frostd: replica bootstrap complete");
        }
        if !frost_storage::snapshot::is_snapshot(store_path) {
            return Err(format!(
                "--replica-of requires a FROSTB snapshot store, but {store_path:?} is not one"
            ));
        }
    }
    let state = if frost_storage::snapshot::is_snapshot(store_path) {
        let (store, durable, report) = DurableStore::open(store_path, fsync)
            .map_err(|e| format!("cannot recover store {store_path:?}: {e}"))?;
        if let Some(bytes) = report.truncated_tail {
            eprintln!(
                "frostd: WARNING: truncated {bytes} byte(s) of torn WAL tail \
                 (crash during an unsynced append)"
            );
        }
        if report.discarded_stale_wal {
            eprintln!(
                "frostd: WARNING: discarded a stale WAL from an interrupted \
                 compaction (its operations are in the snapshot)"
            );
        }
        if report.replayed > 0 {
            println!("frostd: replayed {} WAL operation(s)", report.replayed);
        }
        Arc::new(ServerState::with_durable(store, durable))
    } else {
        let store = frost_storage::persist::load_auto(store_path)
            .map_err(|e| format!("cannot load store {store_path:?}: {e}"))?;
        Arc::new(ServerState::new(store))
    };
    let (datasets, experiments) =
        state.with_store(|s| (s.dataset_names().len(), s.experiment_names(None).len()));
    let workers = options.workers;
    let durability = if state.is_durable() {
        "durable (WAL-backed)"
    } else {
        "volatile (in-memory writes)"
    };
    let role = match options.replica_of.as_deref() {
        Some(primary) => format!("replica of {primary}"),
        None => "primary".to_string(),
    };
    let handle = serve_with(&format!("{addr}:{port}"), Arc::clone(&state), options)
        .map_err(|e| format!("cannot bind {addr}:{port}: {e}"))?;
    println!("frostd listening on http://{}", handle.addr());
    println!("serving {datasets} dataset(s), {experiments} experiment(s) with {workers} worker(s)");
    println!("write path: {durability}");
    println!("role: {role}");
    install_shutdown_handlers();
    while !SHUTDOWN_REQUESTED.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
    }
    println!("frostd: shutdown signal received, draining");
    handle.graceful_shutdown();
    state
        .sync_wal()
        .map_err(|e| format!("WAL fsync on shutdown failed: {e}"))?;
    println!("frostd: drained, WAL synced, exiting");
    Ok(())
}

// ---------------------------------------------------------------------
// Request execution (worker side)
// ---------------------------------------------------------------------

/// Evaluates one dispatched request on a pool worker. Everything
/// socket-shaped — and the response-cache probe of a cacheable read —
/// already happened in the event loop; this is pure request → verdict.
fn execute(
    work: &event_loop::Work,
    state: &ServerState,
    options: &ServeOptions,
    gates: &ClassGates,
) -> event_loop::Done {
    let trace = work.trace.as_deref();
    // Sheds are counted by the event loop as it writes them.
    // Graceful shutdown: requests still queued were never served —
    // a clean 503 instead of a silent drop.
    if state.is_draining() {
        return event_loop::Done::Shed(ShedReason::Draining);
    }
    // The admission contract, re-checked after queue wait: a request
    // past its deadline is never evaluated.
    if work.deadline.is_some_and(|d| Instant::now() > d) {
        return event_loop::Done::Shed(ShedReason::Deadline);
    }
    let ctx = RequestContext {
        options,
        gates,
        class: work.route.endpoint().class(),
        deadline: work.deadline,
        trace,
    };
    let request = &work.request;
    // Panic isolation: a panicking handler becomes a 500 (written by
    // the event loop) and the worker survives to serve the next
    // request. The store's own locks are parking_lot (no poisoning),
    // so unwinding cannot wedge them.
    let routed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        route::route(&work.route, request, state, &ctx)
    }));
    match routed {
        Ok(Ok(payload)) => {
            if work.deadline.is_some_and(|d| Instant::now() > d) {
                state.overload.note_deadline_late();
            }
            let payload = revalidate(payload, request);
            if let Some(trace) = trace {
                trace.stamp(Stage::Serialized);
                trace.set_status(payload.status());
            }
            event_loop::Done::Response(payload)
        }
        Ok(Err(reason)) => event_loop::Done::Shed(reason),
        Err(_) => {
            if let Some(trace) = trace {
                trace.set_status(500);
            }
            event_loop::Done::Panicked
        }
    }
}

/// A replicated write or snapshot sent to a volatile store.
fn no_durable_store() -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidInput,
        "replica has no durable store",
    )
}

fn durable_error(e: DurableError) -> (u16, String) {
    (500, error_body(&format!("write failed: {e}")))
}

/// Why a [write](ServerState::apply_write) failed: the store refused it, or
/// the WAL did.
enum WriteError {
    Store(StoreError),
    Durable(DurableError),
}

impl WriteError {
    fn http(self) -> (u16, String) {
        match self {
            WriteError::Store(e) => store_error(e),
            WriteError::Durable(e) => durable_error(e),
        }
    }
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteError::Store(e) => e.fmt(f),
            WriteError::Durable(e) => e.fmt(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overload::GaugeGuard;
    use crate::response::json_response;
    use crate::route::Class;
    use crate::telemetry::Registry;
    use frost_storage::api::Request;

    /// Drives a distinct value into every counter and gauge `/stats`
    /// reports, then hands the state to `check` while the live gauges
    /// (in-flight requests, open connections) are still held up.
    fn with_driven_state(check: impl FnOnce(&ServerState)) {
        let state = ServerState::new(BenchmarkStore::new());
        let ov = &state.overload;
        for _ in 0..3 {
            assert!(ov.try_enqueue(8));
        }
        ov.queue_dequeued(); // depth 2, high-water mark 3
        for _ in 0..4 {
            ov.note_admitted();
        }
        for (reason, n) in [
            (ShedReason::QueueFull, 5),
            (ShedReason::Deadline, 6),
            (ShedReason::ClassSaturated, 7),
            (ShedReason::Draining, 8),
        ] {
            for _ in 0..n {
                ov.shed(reason, None);
            }
        }
        for _ in 0..3 {
            ov.note_deadline_late(); // 6 deadline sheds + 3 late = 9
        }
        for _ in 0..10 {
            ov.note_method_not_allowed();
        }
        let _inflight: Vec<GaugeGuard> = [
            (Class::Cached, 11),
            (Class::Compute, 12),
            (Class::Write, 13),
        ]
        .into_iter()
        .flat_map(|(class, n)| (0..n).map(move |_| GaugeGuard::new(ov.gauge(class))))
        .collect();
        let cache = &state.responses;
        cache.invalidate();
        cache.invalidate(); // generation 2
        for i in 0..14 {
            assert!(cache.get(&format!("miss{i}")).is_none());
        }
        for key in ["a", "bb"] {
            let payload = json_response(200, key);
            cache.insert(key, payload, cache.begin());
        }
        for _ in 0..15 {
            assert!(cache.get("a").is_some());
        }
        for _ in 0..16 {
            state.with_store(|s| state.rendered(&api::handle(s, Request::ListDatasets).unwrap()));
        }
        state.connections.fetch_add(17, Ordering::Relaxed);
        let _open: Vec<crate::telemetry::OpenConnGuard> = (0..18)
            .map(|_| crate::telemetry::OpenConnGuard::new(&state.telemetry))
            .collect();
        state.hub.set_role(Role::Replica);
        check(&state);
    }

    /// `/stats` of [`with_driven_state`], captured from the
    /// hand-written renderer the counter registry replaced.
    const DRIVEN_STATS: &str = r#"{"admitted":4,"connections":17,"deadline_exceeded":9,"generation":2,"inflight_cached":11,"inflight_compute":12,"inflight_write":13,"json_renders":16,"method_not_allowed":10,"open_connections":18,"poisoned":false,"queue_depth":2,"queue_max_depth":3,"response_cache_bytes":146,"response_entries":2,"response_hits":15,"response_misses":14,"role":"replica","shed_class_saturated":7,"shed_deadline":6,"shed_draining":8,"shed_queue_full":5}"#;

    /// Each `/stats` key and the `/metrics` series reporting the same
    /// value — the spec the registry's two encoders must agree on.
    const STATS_SERIES: [(&str, &str); 22] = [
        ("generation", "frost_cache_generation"),
        ("poisoned", "frost_wal_poisoned"),
        ("role", "frost_replication_role"),
        ("response_hits", "frost_cache_hits_total{tier=\"response\"}"),
        (
            "response_misses",
            "frost_cache_misses_total{tier=\"response\"}",
        ),
        ("response_entries", "frost_cache_entries{tier=\"response\"}"),
        (
            "response_cache_bytes",
            "frost_cache_bytes{tier=\"response\"}",
        ),
        ("json_renders", "frost_json_renders_total"),
        ("connections", "frost_connections_accepted_total"),
        ("open_connections", "frost_open_connections"),
        ("queue_depth", "frost_queue_depth"),
        ("queue_max_depth", "frost_queue_max_depth"),
        ("admitted", "frost_admitted_total"),
        ("shed_queue_full", "frost_shed_total{reason=\"queue_full\"}"),
        ("shed_deadline", "frost_shed_total{reason=\"deadline\"}"),
        (
            "shed_class_saturated",
            "frost_shed_total{reason=\"class_saturated\"}",
        ),
        ("shed_draining", "frost_shed_total{reason=\"draining\"}"),
        ("deadline_exceeded", "frost_deadline_exceeded_total"),
        ("method_not_allowed", "frost_method_not_allowed_total"),
        (
            "inflight_cached",
            "frost_inflight_requests{class=\"cached\"}",
        ),
        (
            "inflight_compute",
            "frost_inflight_requests{class=\"compute\"}",
        ),
        ("inflight_write", "frost_inflight_requests{class=\"write\"}"),
    ];

    #[test]
    fn stats_body_matches_the_golden() {
        with_driven_state(|state| assert_eq!(Registry::read(state).stats_json(), DRIVEN_STATS));
    }

    #[test]
    fn every_stats_key_equals_its_metrics_series() {
        with_driven_state(|state| {
            let stats = serde_json::from_str(&Registry::read(state).stats_json()).unwrap();
            let Value::Object(stats) = stats else {
                panic!("/stats is not an object")
            };
            let mut spec_keys: Vec<&str> = STATS_SERIES.iter().map(|(key, _)| *key).collect();
            spec_keys.sort_unstable();
            assert!(
                stats.keys().map(String::as_str).eq(spec_keys),
                "every /stats key needs a series in the spec: {stats:?}"
            );
            let metrics = Registry::read(state).exposition();
            let series: std::collections::HashMap<&str, f64> = metrics
                .lines()
                .filter(|line| !line.starts_with('#'))
                .map(|line| {
                    let (name, value) = line.rsplit_once(' ').unwrap();
                    (name, value.parse().unwrap())
                })
                .collect();
            for (key, name) in STATS_SERIES {
                let want = match &stats[key] {
                    Value::Number(n) => *n,
                    Value::Bool(b) => f64::from(u8::from(*b)),
                    Value::String(role) if role == "primary" => 0.0,
                    Value::String(role) if role == "replica" => 1.0,
                    other => panic!("{key}: unexpected {other:?}"),
                };
                assert_eq!(series.get(name), Some(&want), "/stats {key} vs {name}");
            }
        });
    }

    #[test]
    fn fresh_metrics_match_the_golden() {
        // Captured from the hand-written renderer, with the four
        // `frost_cache_*` headers moved next to their own samples.
        let state = ServerState::new(BenchmarkStore::new());
        assert_eq!(
            Registry::read(&state).exposition(),
            include_str!("../tests/golden/fresh_metrics.prom")
        );
    }
}
