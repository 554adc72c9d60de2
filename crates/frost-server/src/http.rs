//! The std-only HTTP/1.1 server: a readiness-based event loop feeding
//! a fixed worker thread pool, persistent (keep-alive) connections
//! with request pipelining, JSON in and out, and a durable write path.
//!
//! # Endpoints
//!
//! | path               | request variant          | cached (scope) |
//! |--------------------|--------------------------|----------------|
//! | `/datasets`        | `ListDatasets`           | yes (`sys:datasets`) |
//! | `/experiments`     | `ListExperiments`        | yes (`sys:experiments`) |
//! | `/profile`         | `ProfileDataset`         | yes (`ds:<D>`) |
//! | `/matrix`          | `GetConfusionMatrix`     | yes (`exp:<E>`) |
//! | `/metrics`         | `GetMetrics`             | yes (`exp:<E>`) |
//! | `/diagram`         | `GetDiagram`             | yes (`exp:<E>`) |
//! | `/compare`         | `CompareExperiments`     | yes (per exp.) |
//! | `/venn`            | `CompareExperiments` (gold appended) | yes (per exp.) |
//! | `/cluster-metrics` | `GetClusterMetrics`      | yes (`exp:<E>`) |
//! | `/ratios`          | `GetAttributeRatios`     | yes (`exp:<E>`) |
//! | `/errors`          | `GetErrorProfile`        | yes (`exp:<E>`) |
//! | `/quality`         | `GetQualitySignals`      | yes (`exp:<E>`) |
//! | `/stats`           | cache counters           | no             |
//! | `/metrics` (bare)  | Prometheus exposition    | never          |
//! | `/debug/traces`    | last-N request traces    | never          |
//!
//! Write endpoints (threaded through the same `api::Request` enum):
//!
//! * `POST /experiments?dataset=<D>&name=<N>` — import an experiment
//!   from a CSV request body (`id1,id2[,similarity]`, native ids).
//! * `DELETE /experiments/<N>` — remove an experiment.
//! * `POST /snapshot/save` — compact WAL + snapshot (durable stores).
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
//! (`--event-threads`), not by workers: sockets are non-blocking, and
//! each event thread multiplexes its share of connections over a
//! vendored `poll(2)` shim — an idle keep-alive connection costs a
//! descriptor and a poll slot, not a thread. The event thread does the
//! reads and parses heads out of a per-connection [`RequestBuffer`]:
//! reads may split a request head at any byte boundary, and one read
//! may carry several pipelined requests back-to-back — both are
//! handled by buffering and re-scanning incrementally. Only *complete*
//! request heads are dispatched to the worker pool (via [`execute`]);
//! the finished response is queued back to the event thread, which
//! writes it out under write-readiness. One request per connection is
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
//! A hit is written with one buffered `write_all` of a shared
//! `Arc<[u8]>`: no store computation, no JSON rendering and no
//! response-building allocation on the hot path (the remaining
//! per-request work is parsing the head and routing the target). The
//! store itself memoizes nothing. Entries are generation-stamped: any
//! mutation through [`ServerState::with_store_mut`] bumps the
//! generation and logically evicts every entry at once. Cached
//! responses carry a content-derived strong `ETag`; a request
//! presenting it via `If-None-Match` gets a bodyless
//! `304 Not Modified` instead of the payload.
//!
//! [`ServerState::json_renders`] counts actual JSON serializations, so
//! tests can pin that the hot path performs zero of them. Listings
//! stay uncached — they are cheaper than the cache probe.
//!
//! Bodies are rendered by [`json::response_to_json`], so an HTTP
//! response is byte-identical to rendering the in-process
//! [`api::handle`] result — the invariant the loopback golden tests
//! pin, including across reused connections and pipelined clients.

use crate::event_loop;
use crate::json::{self, response_to_json};
use crate::replication::{self, ReplicationHub, Role, StreamPreamble};
use crate::telemetry::{self, Endpoint, Stage, Telemetry, Trace};
use frost_core::diagram::{DiagramEngine, MAX_DIAGRAM_SAMPLES, MAX_NAIVE_DIAGRAM_SAMPLES};
use frost_storage::api::{self, Request};
use frost_storage::cache::{CacheWeight, ShardedCache};
use frost_storage::durable::{DurableError, DurableStore};
use frost_storage::store::StoreError;
use frost_storage::wal::{SnapshotId, WalOp, WAL_HEADER_LEN};
use frost_storage::BenchmarkStore;
use parking_lot::RwLock;
use serde_json::Value;
use std::borrow::Borrow;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Shards in the result cache; 16 spreads a small thread pool's
/// keys with negligible memory overhead.
const CACHE_SHARDS: usize = 16;

/// Request head size cap.
pub const MAX_REQUEST_BYTES: usize = 16 * 1024;

/// Request body size cap (CSV imports).
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// Default for [`ServeOptions::idle_timeout`].
pub const DEFAULT_IDLE_TIMEOUT_MS: u64 = 5_000;

/// Default for [`ServeOptions::max_requests`].
pub const DEFAULT_MAX_REQUESTS: usize = 10_000;

/// Default for [`ServeOptions::max_queued`].
pub const DEFAULT_MAX_QUEUED: usize = 256;

/// Default for [`ServeOptions::event_threads`]. One loop comfortably
/// multiplexes thousands of mostly-idle connections; add more only
/// when parse/write CPU in the loop itself becomes the bottleneck.
pub const DEFAULT_EVENT_THREADS: usize = 1;

/// `Retry-After` seconds advertised on every shed (`503`) response.
pub const RETRY_AFTER_SECS: u64 = 1;

/// Sliding-window length for the recent shed rate `/readyz` reports.
const SHED_WINDOW_SECS: u64 = 8;

/// Minimum admission events in the window before the shed rate can
/// flip `/readyz` — a single early shed must not mark a quiet server
/// unready.
const READY_MIN_WINDOW_EVENTS: u64 = 16;

/// Longest a `/replication/wal` long poll is held open waiting for new
/// frames (the `wait_ms` parameter is clamped to this).
const MAX_POLL_WAIT_MS: u64 = 10_000;

/// How long a semi-sync (`--sync-replication`) write waits for a
/// replica to prove it durable before answering `503` (the write stays
/// durable locally either way).
const SYNC_ACK_TIMEOUT: Duration = Duration::from_secs(5);

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
    /// How long a keep-alive connection may sit between reads before
    /// the worker closes it and returns to the pool. The same bound
    /// applies to writes (a client that stops reading cannot pin a
    /// worker in `write_all`) and, as a whole-head deadline, to a
    /// trickled (slow-loris) request head: a head that has not
    /// completed one `idle_timeout` after its first byte is answered
    /// `400` and cut, even if every individual read stays fast.
    pub idle_timeout: Duration,
    /// Responses served on one connection before the server closes it
    /// (advertised with `Connection: close` on the last response), so
    /// the fixed pool cannot be starved by immortal connections.
    pub max_requests: usize,
    /// Admission queue bound: accepted connections waiting for a pool
    /// worker. When the queue is full, new connections are answered
    /// with a canned `503` + `Retry-After` by the accept thread — no
    /// parsing, no evaluation, no worker time.
    pub max_queued: usize,
    /// Per-request deadline. The first request on a connection clocks
    /// from **admission** (queue wait counts — a request that already
    /// waited out its deadline in the queue is shed before any work);
    /// later requests clock from their first buffered byte. A request
    /// past its deadline is never evaluated: it is shed with `503` +
    /// `Retry-After`, and the remaining deadline bounds socket reads
    /// and class-gate waits. `None` disables deadlines.
    pub request_deadline: Option<Duration>,
    /// Concurrency limit of the compute-heavy endpoint class
    /// (`/compare`, `/diagram`, `/venn`): at most this many cache-miss
    /// computations run at once, so expensive sweeps cannot occupy
    /// every worker and starve cheap cached GETs. `None` = half the
    /// worker pool (min 1). Cache *hits* on these endpoints bypass the
    /// gate — a saturated class degrades to serving cached bodies, not
    /// to shedding them.
    pub compute_concurrency: Option<usize>,
    /// Concurrency limit of the mutating class (`POST`/`DELETE`):
    /// bounds writers waiting on the serialized write path. `None` =
    /// a quarter of the worker pool (min 1).
    pub write_concurrency: Option<usize>,
    /// `/readyz` flips to not-ready when the recent shed rate
    /// (sheds / admission events over the last [`SHED_WINDOW_SECS`]
    /// seconds) exceeds this threshold.
    pub shed_ready_threshold: f64,
    /// Tracked-byte budget of the response cache, enforced with
    /// stale-first LRU eviction. `None` keeps the per-shard entry caps
    /// as the only bound.
    pub cache_budget: Option<usize>,
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
            compute_concurrency: None,
            write_concurrency: None,
            shed_ready_threshold: 0.9,
            cache_budget: None,
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

// ---------------------------------------------------------------------
// Overload accounting and cost classes
// ---------------------------------------------------------------------

/// Why a request (or connection) was shed with a `503`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The admission queue was full — rejected by the accept thread
    /// without parsing anything.
    QueueFull,
    /// The request's deadline expired before evaluation could start
    /// (queue wait, slow arrival, or a saturated class gate).
    Deadline,
    /// The request's cost class was at its concurrency limit and no
    /// permit freed up within the allowed wait.
    ClassSaturated,
    /// The server is draining for shutdown; queued-but-unstarted
    /// connections are answered instead of silently dropped.
    Draining,
}

impl ShedReason {
    fn message(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "server overloaded: admission queue full",
            ShedReason::Deadline => "request deadline exceeded before evaluation",
            ShedReason::ClassSaturated => "server overloaded: request class saturated",
            ShedReason::Draining => "server draining: connection not served",
        }
    }
}

/// Endpoint cost classes: each is gated independently so one class
/// cannot starve another (see [`ServeOptions::compute_concurrency`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Cheap GETs (cache probes, listings, health, stats) — never
    /// gated; bounded by the worker pool itself.
    Cached,
    /// Compute-heavy GETs: `/compare`, `/diagram`, `/venn` (and the
    /// test-only `/debug/sleep`).
    Compute,
    /// Mutating requests: `POST`, `DELETE`.
    Write,
}

fn classify(method: &str, path: &str) -> Class {
    if method != "GET" {
        Class::Write
    } else if matches!(path, "/compare" | "/diagram" | "/venn" | "/debug/sleep") {
        Class::Compute
    } else {
        Class::Cached
    }
}

/// One shed-rate window slot (a one-second bucket, reused modulo the
/// window length). Counts are heuristically reset when the slot is
/// reused for a new second; tiny cross-thread races only blur the
/// readiness heuristic, never correctness.
#[derive(Default)]
struct WindowSlot {
    epoch: AtomicU64,
    admitted: AtomicU64,
    shed: AtomicU64,
}

/// Overload counters surfaced by `/stats` and `/readyz`. All atomics:
/// the hot path only ever pays relaxed increments.
#[derive(Default)]
pub struct OverloadStats {
    queue_depth: AtomicI64,
    queue_max_depth: AtomicI64,
    admitted: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_deadline: AtomicU64,
    shed_class_saturated: AtomicU64,
    shed_draining: AtomicU64,
    deadline_exceeded: AtomicU64,
    method_not_allowed: AtomicU64,
    inflight_cached: AtomicUsize,
    inflight_compute: AtomicUsize,
    inflight_write: AtomicUsize,
    window: [WindowSlot; SHED_WINDOW_SECS as usize],
}

impl OverloadStats {
    /// Reserves a queue slot for one request *before* it is handed to
    /// the workers, who release it on dequeue; fails, taking nothing,
    /// when `cap` slots are taken. The depth thus never lags a worker,
    /// and since the reservation (not the channel) bounds the queue,
    /// neither the depth nor its high-water mark passes `cap`.
    pub(crate) fn try_enqueue(&self, cap: usize) -> bool {
        let cap = cap.max(1) as i64;
        let depth = self.queue_depth.fetch_add(1, Ordering::AcqRel) + 1;
        if depth > cap {
            self.queue_depth.fetch_sub(1, Ordering::AcqRel);
            return false;
        }
        self.queue_max_depth.fetch_max(depth, Ordering::AcqRel);
        true
    }

    pub(crate) fn queue_dequeued(&self) {
        self.queue_depth.fetch_sub(1, Ordering::AcqRel);
    }

    /// Connections currently waiting in the admission queue.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Acquire).max(0) as u64
    }

    /// High-water mark of [`queue_depth`](Self::queue_depth).
    pub fn queue_max_depth(&self) -> u64 {
        self.queue_max_depth.load(Ordering::Acquire).max(0) as u64
    }

    /// Connections admitted (queued for a worker) since start-up.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Sheds by reason, in declaration order: queue-full, deadline,
    /// class-saturated, draining.
    pub fn sheds(&self) -> [u64; 4] {
        [
            self.shed_queue_full.load(Ordering::Relaxed),
            self.shed_deadline.load(Ordering::Relaxed),
            self.shed_class_saturated.load(Ordering::Relaxed),
            self.shed_draining.load(Ordering::Relaxed),
        ]
    }

    /// Requests that observed an expired deadline at any point — shed
    /// before evaluation, or detected late after their (already
    /// admitted) evaluation finished.
    pub fn deadline_exceeded(&self) -> u64 {
        self.deadline_exceeded.load(Ordering::Relaxed)
    }

    /// Requests refused with `405 Method Not Allowed`. Counted only
    /// *after* the deadline check — a past-deadline request with a
    /// bogus method is shed, not answered per-method.
    pub fn method_not_allowed(&self) -> u64 {
        self.method_not_allowed.load(Ordering::Relaxed)
    }

    pub(crate) fn note_method_not_allowed(&self) {
        self.method_not_allowed.fetch_add(1, Ordering::Relaxed);
    }

    fn slot(&self, secs: u64) -> &WindowSlot {
        let slot = &self.window[(secs % SHED_WINDOW_SECS) as usize];
        if slot.epoch.swap(secs, Ordering::Relaxed) != secs {
            slot.admitted.store(0, Ordering::Relaxed);
            slot.shed.store(0, Ordering::Relaxed);
        }
        slot
    }

    fn note_admitted(&self, secs: u64) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
        self.slot(secs).admitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes back a [`note_admitted`](Self::note_admitted) whose
    /// hand-off failed. The window slot may have been reset since, so
    /// it never goes below zero.
    fn withdraw_admitted(&self, secs: u64) {
        self.admitted.fetch_sub(1, Ordering::Relaxed);
        let _ = self
            .slot(secs)
            .admitted
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
    }

    fn note_shed(&self, reason: ShedReason, secs: u64) {
        let counter = match reason {
            ShedReason::QueueFull => &self.shed_queue_full,
            ShedReason::Deadline => &self.shed_deadline,
            ShedReason::ClassSaturated => &self.shed_class_saturated,
            ShedReason::Draining => &self.shed_draining,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if reason == ShedReason::Deadline {
            self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
        }
        self.slot(secs).shed.fetch_add(1, Ordering::Relaxed);
    }

    /// A deadline that expired *during* an already-admitted
    /// evaluation: the response is still served (work is never
    /// cancelled mid-compute), but the lateness is counted.
    pub(crate) fn note_deadline_late(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// `(sheds, total events)` over the trailing window.
    fn window_counts(&self, now_secs: u64) -> (u64, u64) {
        let mut shed = 0;
        let mut total = 0;
        for slot in &self.window {
            let epoch = slot.epoch.load(Ordering::Relaxed);
            if epoch + SHED_WINDOW_SECS > now_secs && epoch <= now_secs {
                let s = slot.shed.load(Ordering::Relaxed);
                shed += s;
                total += s + slot.admitted.load(Ordering::Relaxed);
            }
        }
        (shed, total)
    }

    fn gauge(&self, class: Class) -> &AtomicUsize {
        match class {
            Class::Cached => &self.inflight_cached,
            Class::Compute => &self.inflight_compute,
            Class::Write => &self.inflight_write,
        }
    }

    /// In-flight gauges `(cached, compute, write)`: requests currently
    /// being served per class (for compute/write: currently holding a
    /// class permit, i.e. doing the expensive part).
    pub fn inflight(&self) -> (usize, usize, usize) {
        (
            self.inflight_cached.load(Ordering::Relaxed),
            self.inflight_compute.load(Ordering::Relaxed),
            self.inflight_write.load(Ordering::Relaxed),
        )
    }
}

/// A counting semaphore: the per-class concurrency gate.
struct Gate {
    limit: usize,
    busy: Mutex<usize>,
    freed: Condvar,
}

impl Gate {
    fn new(limit: usize) -> Self {
        Self {
            limit: limit.max(1),
            busy: Mutex::new(0),
            freed: Condvar::new(),
        }
    }

    /// Acquires a permit, waiting at most `wait`. Returns whether a
    /// permit was obtained.
    fn acquire(&self, wait: Duration) -> bool {
        let deadline = Instant::now() + wait;
        let mut busy = self.busy.lock().expect("gate lock");
        while *busy >= self.limit {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return false;
            }
            busy = self
                .freed
                .wait_timeout(busy, remaining)
                .expect("gate lock")
                .0;
        }
        *busy += 1;
        true
    }

    fn release(&self) {
        *self.busy.lock().expect("gate lock") -= 1;
        self.freed.notify_one();
    }
}

/// The per-class gates one `serve_with` call shares across its pool.
struct ClassGates {
    compute: Gate,
    write: Gate,
}

impl ClassGates {
    fn for_options(options: &ServeOptions) -> Self {
        let workers = options.workers.max(1);
        Self {
            compute: Gate::new(options.compute_concurrency.unwrap_or((workers / 2).max(1))),
            write: Gate::new(options.write_concurrency.unwrap_or((workers / 4).max(1))),
        }
    }
}

/// An RAII gate permit, released on drop — including on handler
/// panics (route runs under `catch_unwind`), so an unwinding worker
/// can never leak a permit and shrink a class forever.
struct Permit<'a> {
    gate: &'a Gate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.gate.release();
    }
}

/// An RAII in-flight gauge bump (one per routed request, by class).
struct GaugeGuard<'a>(&'a AtomicUsize);

impl<'a> GaugeGuard<'a> {
    fn new(gauge: &'a AtomicUsize) -> Self {
        gauge.fetch_add(1, Ordering::Relaxed);
        Self(gauge)
    }
}

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Per-request routing context: the class gates plus the request's
/// absolute deadline (when configured).
struct RequestContext<'a> {
    options: &'a ServeOptions,
    gates: &'a ClassGates,
    deadline: Option<Instant>,
    /// The request's lifecycle trace, when telemetry is on.
    trace: Option<&'a Trace>,
}

impl RequestContext<'_> {
    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() > d)
    }

    /// How long a request may wait for a class permit: its remaining
    /// deadline, or one idle timeout when deadlines are off.
    fn gate_wait(&self) -> Duration {
        match self.deadline {
            Some(d) => d.saturating_duration_since(Instant::now()),
            None => self.options.idle_timeout,
        }
    }

    /// Acquires the class's concurrency permit ([`Class::Cached`] has
    /// no gate). `Err` = the class stayed saturated for the whole
    /// allowed wait — the caller sheds.
    fn gate_for(&self, class: Class) -> Result<Option<Permit<'_>>, ShedReason> {
        let gate = match class {
            Class::Cached => return Ok(None),
            Class::Compute => &self.gates.compute,
            Class::Write => &self.gates.write,
        };
        if !gate.acquire(self.gate_wait()) {
            return Err(ShedReason::ClassSaturated);
        }
        if let Some(trace) = self.trace {
            trace.stamp(Stage::GateAcquired);
        }
        Ok(Some(Permit { gate }))
    }
}

/// What routing produced: a response to write, or a shed to report.
enum RouteOutcome {
    Response(CachedResponse),
    Shed(ShedReason),
}

/// A fully serialized HTTP response: the keep-alive rendering (status
/// line + headers + body, no `Connection` header — HTTP/1.1 defaults
/// to persistent) plus the offset where the body starts, so the
/// closing variant can reuse the body bytes without re-rendering.
#[derive(Clone)]
pub struct CachedResponse {
    status: u16,
    bytes: Arc<[u8]>,
    body_start: usize,
    /// The `Content-Type` this response was framed with — the closing
    /// variant re-frames the head and must preserve it.
    content_type: &'static str,
    /// Strong validator (quoted FNV-1a of the body), present only on
    /// cached `200`s — the revalidation (`If-None-Match` → `304`)
    /// surface.
    etag: Option<Arc<str>>,
    /// Extra pre-rendered header lines (`Name: value\r\n`), carried so
    /// the closing variant re-emits them — the replica's
    /// `Frost-Primary` redirect hint rides here.
    extra: Option<Arc<str>>,
}

impl CachedResponse {
    /// The HTTP status code.
    pub fn status(&self) -> u16 {
        self.status
    }

    /// The serialized keep-alive response.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The serialized keep-alive response, by shared handle (the
    /// event loop queues it for writing without a copy).
    pub(crate) fn shared_bytes(&self) -> Arc<[u8]> {
        Arc::clone(&self.bytes)
    }

    /// The response body (shared with [`bytes`](Self::bytes)).
    pub fn body(&self) -> &[u8] {
        &self.bytes[self.body_start..]
    }

    /// The entity tag, when this response carries one.
    pub fn etag(&self) -> Option<&str> {
        self.etag.as_deref()
    }
}

impl CacheWeight for CachedResponse {
    fn weight(&self) -> usize {
        self.bytes.len()
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
    /// `Connection: close` and queued-but-unstarted connections are
    /// answered with a clean `503` instead of being served.
    draining: AtomicBool,
    json_renders: AtomicU64,
    connections: AtomicU64,
    overload: OverloadStats,
    /// The shed-window clock's epoch (server start).
    started: Instant,
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
            started: Instant::now(),
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

    /// Flips the server into drain mode (used by graceful shutdown):
    /// every response from here on advertises `Connection: close`, and
    /// workers answer queued-but-unstarted connections with a `503`
    /// instead of serving them.
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
            self.hub
                .publish(d.snapshot_id(), d.wal_len(), d.wal_records());
        }
        Ok(())
    }

    /// `POST /experiments`: parses the CSV against the store, then
    /// takes the [write sequence](Self::apply_write).
    fn import_experiment(
        &self,
        dataset: &str,
        name: &str,
        csv: &str,
    ) -> Result<api::Response, (u16, String)> {
        let mut pairs = 0;
        self.apply_write(|store| {
            let experiment = api::parse_experiment_csv(store, dataset, name, csv)?;
            pairs = experiment.len();
            Ok(WalOp::add_experiment(dataset, &experiment, None))
        })
        .map_err(WriteError::http)?;
        Ok(api::Response::Imported {
            experiment: name.to_string(),
            pairs,
        })
    }

    /// `DELETE /experiments/<N>` through the [write sequence](Self::apply_write).
    fn delete_experiment(&self, name: &str) -> Result<api::Response, (u16, String)> {
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
    fn save_snapshot(&self) -> Result<api::Response, (u16, String)> {
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
        self.hub
            .publish(d.snapshot_id(), d.wal_len(), d.wal_records());
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
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "replica has no durable store",
            ));
        }
        self.apply_write(|_| Ok(op))
            .map_err(|e| std::io::Error::other(format!("replicated write failed: {e}")))
    }

    /// Swaps in a snapshot fetched from the primary (re-bootstrap after
    /// the primary compacted): atomically replaces the snapshot file,
    /// reopens the durable store over it (the old WAL is discarded as
    /// stale by the normal recovery rule), replaces the in-memory
    /// store, and invalidates every cache entry.
    pub fn install_snapshot(&self, bytes: &[u8]) -> std::io::Result<()> {
        let mut writer = self.writer.lock();
        let Some(current) = writer.as_ref() else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "replica has no durable store",
            ));
        };
        let path = current.snapshot_path().to_path_buf();
        let policy = current.policy();
        let stats = current.wal_stats();
        let tmp = path.with_extension("rebootstrap.tmp");
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(bytes)?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, &path)?;
        let (store, mut durable, _report) = DurableStore::open(&path, policy)
            .map_err(|e| std::io::Error::other(format!("reopen after bootstrap failed: {e}")))?;
        durable.set_wal_stats(stats);
        {
            let mut guard = self.store.write();
            *guard = store;
        }
        self.hub.publish(
            durable.snapshot_id(),
            durable.wal_len(),
            durable.wal_records(),
        );
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
                let store = self.store.read();
                d.compact(&store).map_err(durable_error)?;
                drop(store);
                self.hub
                    .publish(d.snapshot_id(), d.wal_len(), d.wal_records());
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

    /// The overload counters `/stats` and `/readyz` report.
    pub fn overload(&self) -> &OverloadStats {
        &self.overload
    }

    /// Seconds since start-up: the shed-window clock.
    fn clock_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    pub(crate) fn note_admitted(&self) {
        self.overload.note_admitted(self.clock_secs());
    }

    pub(crate) fn withdraw_admitted(&self) {
        self.overload.withdraw_admitted(self.clock_secs());
    }

    pub(crate) fn note_shed(&self, reason: ShedReason) {
        self.overload.note_shed(reason, self.clock_secs());
    }

    /// Whether the WAL writer refused further appends after an earlier
    /// disk failure (see `DurableStore::poisoned`). Volatile stores
    /// report `false`.
    pub fn wal_poisoned(&self) -> bool {
        self.writer.lock().as_ref().is_some_and(|d| d.poisoned())
    }

    /// The shed rate over the trailing window, or `0.0` while the
    /// window holds too few events to be meaningful.
    pub fn recent_shed_rate(&self) -> f64 {
        let (shed, total) = self.overload.window_counts(self.clock_secs());
        if total < READY_MIN_WINDOW_EVENTS {
            0.0
        } else {
            shed as f64 / total as f64
        }
    }

    /// Caps the response cache at `total_bytes`; eviction is
    /// stale-first, then least-recently-used.
    pub fn set_cache_budget(&self, total_bytes: usize) {
        self.responses.set_budget(total_bytes.max(1));
    }

    fn rendered(&self, response: &api::Response) -> String {
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
    accept_thread: Option<std::thread::JoinHandle<()>>,
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
    /// everything. The ordering matters: the accept thread stops
    /// first, then the event loops drain (their in-flight requests
    /// need the still-live workers), and the workers exit once the
    /// last loop drops its queue sender.
    pub fn graceful_shutdown(mut self) {
        if self.accept_thread.is_none() {
            return;
        }
        self.state.begin_drain();
        self.shutdown.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for shared in self.loops.iter() {
            shared.begin_drain();
        }
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
        if self.accept_thread.is_none() && self.loop_threads.is_empty() {
            return; // graceful_shutdown already ran
        }
        self.shutdown.store(true, Ordering::Release);
        // Hard stop: every loop drops its connections immediately (a
        // worker mid-request finishes, but its completion lands in a
        // dead mailbox).
        for shared in self.loops.iter() {
            shared.kill();
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
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
    let local = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    if let Some(budget) = options.cache_budget {
        state.set_cache_budget(budget);
    }
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
    // The bounded admission queue now carries *complete parsed
    // requests* (not connections): the event loops `try_send` each
    // request they finish assembling, stamped with its absolute
    // deadline. A full queue is the cheap-reject signal — and the
    // accept thread pre-screens new connections against the queue
    // depth so a flood is answered without ever entering a loop.
    let (tx, rx) = mpsc::sync_channel::<event_loop::Work>(options.max_queued.max(1));
    let rx = Arc::new(Mutex::new(rx));
    let gates = Arc::new(ClassGates::for_options(&options));
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
    let mut loop_threads = Vec::with_capacity(event_threads);
    for (loop_id, shared) in loops.iter().enumerate() {
        let shared = Arc::clone(shared);
        let tx = tx.clone();
        let state = Arc::clone(&state);
        let options = options.clone();
        loop_threads.push(std::thread::spawn(move || {
            event_loop::run(loop_id, shared, tx, state, options);
        }));
    }
    // Only the loops hold senders now: the last exiting loop is the
    // workers' stop signal.
    drop(tx);
    let accept_shutdown = Arc::clone(&shutdown);
    let accept_state = Arc::clone(&state);
    let accept_loops = Arc::clone(&loops);
    let max_queued = options.max_queued.max(1) as u64;
    let accept_thread = std::thread::spawn(move || {
        let mut next_loop = 0usize;
        for stream in listener.incoming() {
            if accept_shutdown.load(Ordering::Acquire) {
                break;
            }
            if let Ok(mut stream) = stream {
                accept_state.connections.fetch_add(1, Ordering::Relaxed);
                if accept_state.is_draining() {
                    // Connections racing shutdown must not land in a
                    // loop that may already have drained away.
                    accept_state.note_shed(ShedReason::Draining);
                    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
                    write_shed_unread(&mut stream, ShedReason::Draining);
                    continue;
                }
                if accept_state.overload.queue_depth() >= max_queued {
                    // The cheap reject: the accept thread answers the
                    // canned 503 itself — no parsing, no evaluation,
                    // no worker time — and moves on.
                    accept_state.note_shed(ShedReason::QueueFull);
                    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
                    write_shed_unread(&mut stream, ShedReason::QueueFull);
                    continue;
                }
                accept_loops[next_loop % accept_loops.len()].adopt(stream, Instant::now());
                next_loop = next_loop.wrapping_add(1);
            }
        }
    });
    Ok(ServerHandle {
        addr: local,
        state,
        shutdown,
        loops,
        loop_threads,
        worker_threads,
        accept_thread: Some(accept_thread),
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
// Request parsing
// ---------------------------------------------------------------------

/// A parsed request: the head plus (for `POST`/`DELETE`) its body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedRequest {
    /// The request method, verbatim (`GET`, `POST`, …).
    pub method: String,
    /// The request target (path + query, undecoded).
    pub target: String,
    /// Whether the client wants the connection kept open afterwards:
    /// HTTP/1.1 unless `Connection: close`; HTTP/1.0 never (we do not
    /// implement 1.0-style opt-in keep-alive).
    pub keep_alive: bool,
    /// Declared `Content-Length` (0 when absent).
    pub content_length: usize,
    /// The `If-None-Match` header, verbatim, when present — drives
    /// `304 Not Modified` revalidation against cached entity tags.
    pub if_none_match: Option<String>,
    /// The request body (`content_length` bytes, filled in by
    /// [`RequestBuffer::next_request`] once fully buffered).
    pub body: Vec<u8>,
}

/// One step of incremental parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed {
    /// A complete request head was consumed from the buffer.
    Request(ParsedRequest),
    /// No complete head is buffered yet — read more bytes.
    Incomplete,
    /// The buffered bytes can never become a valid request; respond
    /// `400` (message attached) and close the connection.
    Error(&'static str),
}

/// An incremental HTTP/1.1 request-head buffer: bytes arrive in
/// arbitrary splits ([`extend`](Self::extend)), complete heads are
/// consumed in arrival order ([`next_request`](Self::next_request)) —
/// one read may carry a fraction of a head or several pipelined heads,
/// and both sides of that spectrum land in the same code path.
///
/// The scan for the head terminator resumes where the previous call
/// stopped, so re-parsing after a tiny read is `O(new bytes)`, not
/// `O(buffered bytes)`.
#[derive(Debug, Default)]
pub struct RequestBuffer {
    buf: Vec<u8>,
    /// Bytes before this offset were consumed by earlier requests.
    consumed: usize,
    /// Terminator scan position (always ≥ `consumed`).
    scan: usize,
    /// Head terminator already located for a request whose body has
    /// not fully arrived yet, so re-parsing after each body read is
    /// `O(1)`, not a rescan of the head.
    head_end: Option<usize>,
    /// Arrival timestamps keyed by buffer offset: `(start, when)`
    /// records that bytes at `start..` (up to the next entry) arrived
    /// at `when`. A pipelined request's deadline clocks from the
    /// arrival of *its own first byte*, not from whenever its
    /// predecessor's response finished writing.
    arrivals: std::collections::VecDeque<(usize, Instant)>,
    /// Arrival of the first byte of the most recently consumed head.
    last_arrival: Option<Instant>,
}

impl RequestBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.extend_at(bytes, Instant::now());
    }

    /// [`extend`](Self::extend) with an explicit arrival timestamp for
    /// the appended bytes.
    pub fn extend_at(&mut self, bytes: &[u8], arrived: Instant) {
        self.prune_arrivals();
        // Reclaim consumed space before growing: a long-lived
        // keep-alive connection must not accumulate every head it ever
        // parsed.
        if self.consumed > 0 && (self.consumed == self.buf.len() || self.consumed >= 4096) {
            self.buf.drain(..self.consumed);
            self.scan -= self.consumed;
            if let Some(e) = &mut self.head_end {
                *e -= self.consumed;
            }
            for (start, _) in &mut self.arrivals {
                *start = start.saturating_sub(self.consumed);
            }
            self.consumed = 0;
        }
        if !bytes.is_empty() {
            self.arrivals.push_back((self.buf.len(), arrived));
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Drops arrival entries wholly behind the consumed frontier,
    /// keeping the latest such entry as the floor for offsets between
    /// it and the next one.
    fn prune_arrivals(&mut self) {
        while self.arrivals.len() >= 2 && self.arrivals[1].0 <= self.consumed {
            self.arrivals.pop_front();
        }
    }

    /// Arrival time of the read that delivered the byte at `offset`.
    fn arrival_at(&self, offset: usize) -> Option<Instant> {
        self.arrivals
            .iter()
            .rev()
            .find(|(start, _)| *start <= offset)
            .map(|&(_, at)| at)
    }

    /// When the first *unconsumed* byte arrived (`None` when nothing
    /// is pending) — the deadline clock for a buffered pipelined head.
    pub fn pending_arrival(&self) -> Option<Instant> {
        if self.pending() == 0 {
            return None;
        }
        self.arrival_at(self.consumed)
    }

    /// When the first byte of the most recently consumed request
    /// arrived — its deadline clock.
    pub fn last_arrival(&self) -> Option<Instant> {
        self.last_arrival
    }

    /// Unconsumed bytes currently buffered.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Tries to consume the next complete request (head, plus its body
    /// when a `Content-Length` is declared).
    pub fn next_request(&mut self) -> Parsed {
        let head_start = self.consumed;
        let end = match self.head_end {
            Some(e) => e,
            None => match self.find_head_end() {
                Some(e) => e,
                None => {
                    if self.pending() > MAX_REQUEST_BYTES {
                        return Parsed::Error("request head too large");
                    }
                    return Parsed::Incomplete;
                }
            },
        };
        if end - self.consumed > MAX_REQUEST_BYTES {
            return Parsed::Error("request head too large");
        }
        let head = &self.buf[self.consumed..end];
        let parsed = parse_head(head);
        if let Parsed::Request(mut request) = parsed {
            if request.content_length > MAX_BODY_BYTES {
                return Parsed::Error("request body too large");
            }
            let body_end = end + request.content_length;
            if self.buf.len() < body_end {
                // Remember the located head so the next call (after
                // more body bytes arrive) skips the terminator scan.
                self.head_end = Some(end);
                return Parsed::Incomplete;
            }
            request.body = self.buf[end..body_end].to_vec();
            self.head_end = None;
            self.last_arrival = self.arrival_at(head_start);
            self.consumed = body_end;
            self.scan = body_end;
            return Parsed::Request(request);
        }
        self.head_end = None;
        self.consumed = end;
        self.scan = end;
        parsed
    }

    /// Finds the exclusive end offset of the first complete head
    /// (`\r\n\r\n` or bare `\n\n`), resuming from the previous scan.
    fn find_head_end(&mut self) -> Option<usize> {
        // Back up over a possibly split terminator at the old read
        // boundary, but never into a previously consumed head.
        let from = self.scan.saturating_sub(3).max(self.consumed);
        for i in from..self.buf.len() {
            if self.buf[i] != b'\n' {
                continue;
            }
            if i > self.consumed && self.buf[i - 1] == b'\n' {
                return Some(i + 1);
            }
            if i >= self.consumed + 3
                && self.buf[i - 1] == b'\r'
                && self.buf[i - 2] == b'\n'
                && self.buf[i - 3] == b'\r'
            {
                return Some(i + 1);
            }
        }
        self.scan = self.buf.len();
        None
    }
}

/// Parses one complete request head (request line + headers, including
/// the trailing blank line).
fn parse_head(head: &[u8]) -> Parsed {
    let text = String::from_utf8_lossy(head);
    let mut lines = text.lines();
    let Some(request_line) = lines.next().filter(|l| !l.trim().is_empty()) else {
        return Parsed::Error("empty request line");
    };
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Parsed::Error("malformed request line");
    };
    let version = parts.next().unwrap_or("HTTP/1.1");
    if !version.starts_with("HTTP/1.") {
        return Parsed::Error("unsupported protocol version");
    }
    let http10 = version == "HTTP/1.0";
    let mut keep_alive = !http10;
    let mut content_length = 0usize;
    let mut if_none_match = None;
    for line in lines {
        let line = line.trim_end_matches('\r');
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Parsed::Error("malformed header line");
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "connection" => {
                // Token list; "close" wins over anything else.
                let tokens = value.split(',').map(|t| t.trim().to_ascii_lowercase());
                for token in tokens {
                    match token.as_str() {
                        "close" => keep_alive = false,
                        // 1.0-style opt-in keep-alive is not
                        // implemented: the response would need an
                        // explicit Connection: keep-alive echo the
                        // cached rendering does not carry.
                        "keep-alive" if http10 => keep_alive = false,
                        _ => {}
                    }
                }
            }
            "content-length" => match value.parse::<usize>() {
                Ok(n) => content_length = n,
                Err(_) => return Parsed::Error("bad Content-Length"),
            },
            "transfer-encoding" => {
                return Parsed::Error("chunked request bodies are not supported");
            }
            "if-none-match" => if_none_match = Some(value.to_string()),
            _ => {}
        }
    }
    // Bodies belong to the write methods; a GET carrying one is
    // either a confused client or request smuggling — refuse it.
    if method == "GET" && content_length > 0 {
        return Parsed::Error("request bodies are not supported on GET");
    }
    Parsed::Request(ParsedRequest {
        method: method.to_string(),
        target: target.to_string(),
        keep_alive,
        content_length,
        if_none_match,
        body: Vec::new(),
    })
}

// ---------------------------------------------------------------------
// Request execution (worker side)
// ---------------------------------------------------------------------

/// Evaluates one dispatched request on a pool worker. Everything
/// socket-shaped already happened in the event loop; this is pure
/// request → verdict.
fn execute(
    work: &event_loop::Work,
    state: &ServerState,
    options: &ServeOptions,
    gates: &ClassGates,
) -> event_loop::Done {
    let trace = work.trace.as_deref();
    // Graceful shutdown: requests still queued were never served —
    // a clean 503 instead of a silent drop.
    if state.is_draining() {
        state.note_shed(ShedReason::Draining);
        if let Some(trace) = trace {
            trace.set_status(503);
        }
        return event_loop::Done::Shed(ShedReason::Draining);
    }
    // The admission contract, re-checked after queue wait: a request
    // past its deadline is never evaluated.
    if work.deadline.is_some_and(|d| Instant::now() > d) {
        state.note_shed(ShedReason::Deadline);
        if let Some(trace) = trace {
            trace.set_status(503);
        }
        return event_loop::Done::Shed(ShedReason::Deadline);
    }
    let ctx = RequestContext {
        options,
        gates,
        deadline: work.deadline,
        trace,
    };
    let request = &work.request;
    // Panic isolation: a panicking handler becomes a 500 (written by
    // the event loop) and the worker survives to serve the next
    // request. The store's own locks are parking_lot (no poisoning),
    // so unwinding cannot wedge them.
    let routed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if options.debug_panic && request.target == "/debug/panic" {
            panic!("debug panic requested");
        }
        route(request, state, &ctx)
    }));
    match routed {
        Ok(RouteOutcome::Response(payload)) => {
            if work.deadline.is_some_and(|d| Instant::now() > d) {
                state.overload.note_deadline_late();
            }
            let payload = revalidate(payload, request);
            if let Some(trace) = trace {
                trace.stamp(Stage::Serialized);
                trace.set_status(payload.status);
            }
            event_loop::Done::Response(payload)
        }
        Ok(RouteOutcome::Shed(reason)) => {
            state.note_shed(reason);
            if let Some(trace) = trace {
                trace.set_status(503);
            }
            event_loop::Done::Shed(reason)
        }
        Err(_) => {
            if let Some(trace) = trace {
                trace.set_status(500);
            }
            event_loop::Done::Panicked
        }
    }
}

/// `ETag` revalidation on the response cache: when a `200` carries
/// an entity tag and the request's `If-None-Match` matches it, the
/// body is replaced by a `304 Not Modified` — the client's cached copy
/// is current, so only headers go over the wire.
fn revalidate(payload: CachedResponse, request: &ParsedRequest) -> CachedResponse {
    let (Some(etag), Some(candidates)) =
        (payload.etag.as_deref(), request.if_none_match.as_deref())
    else {
        return payload;
    };
    if payload.status == 200 && etag_matches(candidates, etag) {
        not_modified(etag)
    } else {
        payload
    }
}

/// Whether an `If-None-Match` header value matches `etag`: a
/// comma-separated list of (possibly `W/`-prefixed) quoted tags, or
/// `*`. Weak comparison — revalidation only decides whether bytes
/// must be resent.
fn etag_matches(candidates: &str, etag: &str) -> bool {
    candidates.split(',').any(|candidate| {
        let candidate = candidate.trim();
        candidate == "*" || candidate.strip_prefix("W/").unwrap_or(candidate) == etag
    })
}

/// Writes the canned shed response for `reason`: a `503` with
/// `Retry-After` and `Connection: close`, pre-serialized so the
/// reject path allocates and formats nothing.
fn write_shed(stream: &mut TcpStream, reason: ShedReason) {
    let _ = stream.write_all(shed_response_bytes(reason));
    let _ = stream.flush();
}

/// [`write_shed`] for the sites that answer *before* the request
/// bytes were read (queue-full and draining rejects, queue-wait and
/// mid-head deadline sheds). Closing a socket with unread data in its
/// receive buffer makes the kernel send RST, which can destroy the
/// in-flight `503` before the client reads it — so after writing,
/// half-close the send side and drain until the client closes
/// (bounded: a well-behaved client reads the response and closes
/// within a round trip; a trickler costs at most ~200 ms).
fn write_shed_unread(stream: &mut TcpStream, reason: ShedReason) {
    write_shed(stream, reason);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let deadline = Instant::now() + Duration::from_millis(150);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut scratch = [0u8; 4096];
    while Instant::now() < deadline {
        match stream.read(&mut scratch) {
            Ok(0) => break,
            Ok(_) => {}
            // A read timeout just means the client sent nothing this
            // tick; the drain window is the *deadline*, not one read.
            // Breaking here cut the documented ~150 ms drain to the
            // 50 ms read timeout.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break,
        }
    }
}

pub(crate) fn shed_response_bytes(reason: ShedReason) -> &'static [u8] {
    static PAYLOADS: std::sync::OnceLock<[Vec<u8>; 4]> = std::sync::OnceLock::new();
    let idx = match reason {
        ShedReason::QueueFull => 0,
        ShedReason::Deadline => 1,
        ShedReason::ClassSaturated => 2,
        ShedReason::Draining => 3,
    };
    &PAYLOADS.get_or_init(|| {
        [
            ShedReason::QueueFull,
            ShedReason::Deadline,
            ShedReason::ClassSaturated,
            ShedReason::Draining,
        ]
        .map(|r| {
            let body = error_body(r.message());
            format!(
                "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nRetry-After: {RETRY_AFTER_SECS}\r\n\
                 Connection: close\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        })
    })[idx]
}

/// The default response content type (every JSON endpoint).
const CONTENT_TYPE_JSON: &str = "application/json";

/// The Prometheus text exposition format version `/metrics` serves.
const CONTENT_TYPE_PROMETHEUS: &str = "text/plain; version=0.0.4";

/// The replication stream content type (`/replication/wal` and
/// `/replication/snapshot` bodies are binary: preamble + raw bytes).
const CONTENT_TYPE_BINARY: &str = "application/octet-stream";

/// The one response-head rendering both framings share; the closing
/// variant only adds the `Connection: close` header (HTTP/1.1
/// defaults to persistent, so the keep-alive form carries none).
fn response_head(
    status: u16,
    content_length: usize,
    close: bool,
    etag: Option<&str>,
    content_type: &str,
    extra: Option<&str>,
) -> String {
    let reason = match status {
        200 => "OK",
        304 => "Not Modified",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let connection = if close { "Connection: close\r\n" } else { "" };
    let etag = match etag {
        Some(tag) => format!("ETag: {tag}\r\n"),
        None => String::new(),
    };
    let extra = extra.unwrap_or("");
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {content_length}\r\n{etag}{extra}{connection}\r\n"
    )
}

/// Serializes an untagged response in its keep-alive form.
pub(crate) fn encode_response(status: u16, body: Vec<u8>) -> CachedResponse {
    encode_with_etag(status, body, None)
}

/// [`encode_response`] with a non-JSON content type (the Prometheus
/// exposition).
fn encode_text(status: u16, body: Vec<u8>, content_type: &'static str) -> CachedResponse {
    encode_full(status, body, None, content_type)
}

/// Serializes a cacheable response with a strong entity tag derived
/// from the body, enabling `If-None-Match` revalidation on the
/// response cache.
fn encode_cached(status: u16, body: Vec<u8>) -> CachedResponse {
    let etag: Arc<str> = format!("\"{:016x}\"", fnv1a64(&body)).into();
    encode_with_etag(status, body, Some(etag))
}

fn encode_with_etag(status: u16, body: Vec<u8>, etag: Option<Arc<str>>) -> CachedResponse {
    encode_full(status, body, etag, CONTENT_TYPE_JSON)
}

fn encode_full(
    status: u16,
    body: Vec<u8>,
    etag: Option<Arc<str>>,
    content_type: &'static str,
) -> CachedResponse {
    encode_extra(status, body, etag, content_type, None)
}

/// [`encode_full`] carrying extra pre-rendered header lines (the
/// replica write rejection's `Frost-Primary` hint).
fn encode_extra(
    status: u16,
    body: Vec<u8>,
    etag: Option<Arc<str>>,
    content_type: &'static str,
    extra: Option<Arc<str>>,
) -> CachedResponse {
    let head = response_head(
        status,
        body.len(),
        false,
        etag.as_deref(),
        content_type,
        extra.as_deref(),
    );
    let mut bytes = Vec::with_capacity(head.len() + body.len());
    bytes.extend_from_slice(head.as_bytes());
    let body_start = bytes.len();
    bytes.extend_from_slice(&body);
    CachedResponse {
        status,
        bytes: Arc::from(bytes),
        body_start,
        content_type,
        etag,
        extra,
    }
}

/// The canned `304 Not Modified` for a revalidated entity tag: an
/// empty body (`Content-Length: 0` keeps the in-repo client's framing
/// exact) echoing the tag it validated.
fn not_modified(etag: &str) -> CachedResponse {
    let etag: Arc<str> = etag.into();
    encode_with_etag(304, Vec::new(), Some(etag))
}

/// FNV-1a 64-bit — cheap, dependency-free, and stable across runs,
/// which is all an entity tag needs.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Re-frames a response with `Connection: close`, sharing nothing —
/// used for the final response on a closing connection.
pub(crate) fn close_variant_bytes(payload: &CachedResponse) -> Vec<u8> {
    let body = payload.body();
    let head = response_head(
        payload.status,
        body.len(),
        true,
        payload.etag(),
        payload.content_type,
        payload.extra.as_deref(),
    );
    let mut bytes = Vec::with_capacity(head.len() + body.len());
    bytes.extend_from_slice(head.as_bytes());
    bytes.extend_from_slice(body);
    bytes
}

pub(crate) fn error_body(message: &str) -> String {
    serde_json::to_string(&Value::object([(
        "error".to_string(),
        Value::from(message),
    )]))
}

/// Splits a request target into path + decoded query pairs.
fn parse_target(target: &str) -> (String, Vec<(String, String)>) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let params = query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect();
    (percent_decode(path), params)
}

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok());
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

struct Params(Vec<(String, String)>);

impl Params {
    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn required(&self, key: &str) -> Result<&str, (u16, String)> {
        self.get(key)
            .filter(|v| !v.is_empty())
            .ok_or_else(|| (400, error_body(&format!("missing query parameter {key:?}"))))
    }
}

/// Routes one parsed request to its serialized response — or to a
/// shed decision.
///
/// Cacheable GET endpoints probe the response cache (a hit is the
/// shared serialized bytes, no allocation); a miss computes, renders
/// and fills the cache, the entry stamped with the invalidation
/// scopes it read. Write methods take the durable
/// [write sequence](ServerState::apply_write) and bump only the scopes they
/// touched.
///
/// Overload discipline: the cache probe runs *before* the class gate,
/// so a hot GET on a saturated compute class degrades to its cached
/// response instead of shedding; only the expensive part (store
/// compute + render, or a write) needs a permit, and a permit-holder
/// re-checks its deadline before starting — queue wait and gate wait
/// never leak into evaluation time.
fn route(request: &ParsedRequest, state: &ServerState, ctx: &RequestContext) -> RouteOutcome {
    let (path, params) = parse_target(&request.target);
    let params = Params(params);
    let class = classify(&request.method, &path);
    let _inflight = GaugeGuard::new(state.overload.gauge(class));
    if request.method != "GET" {
        if request.method == "POST" && path == "/replication/promote" {
            let _permit = match ctx.gate_for(class) {
                Ok(permit) => permit,
                Err(reason) => return RouteOutcome::Shed(reason),
            };
            let outcome = state.promote();
            if let Some(trace) = ctx.trace {
                trace.stamp(Stage::Evaluated);
            }
            return RouteOutcome::Response(match outcome {
                Ok(body) => encode_response(200, body.into()),
                Err((status, body)) => encode_response(status, body.into()),
            });
        }
        if !state.hub.is_primary() {
            // Replicas reject writes before any gate or permit: cheap,
            // and the Frost-Primary header tells the client where to
            // retry.
            let extra = state
                .hub
                .primary_hint()
                .map(|h| Arc::from(format!("Frost-Primary: {h}\r\n")));
            if let Some(trace) = ctx.trace {
                trace.set_status(503);
            }
            return RouteOutcome::Response(encode_extra(
                503,
                error_body("replica: writes must go to the primary").into(),
                None,
                CONTENT_TYPE_JSON,
                extra,
            ));
        }
        let _permit = match ctx.gate_for(class) {
            Ok(permit) => permit,
            Err(reason) => return RouteOutcome::Shed(reason),
        };
        if ctx.expired() {
            return RouteOutcome::Shed(ShedReason::Deadline);
        }
        let outcome = route_write(&request.method, &path, &params, &request.body, state);
        if let Some(trace) = ctx.trace {
            trace.stamp(Stage::Evaluated);
        }
        // Semi-sync replication: a WAL-appending write is acknowledged
        // only once a replica has proven it durable by polling past
        // its offset. On timeout the client sees 503, but the write IS
        // durable locally — the safe direction (a retry is idempotent
        // for imports of the same experiment).
        let appended_wal = matches!(
            (request.method.as_str(), path.as_str()),
            ("POST", "/experiments")
        ) || (request.method == "DELETE" && path.starts_with("/experiments/"));
        if outcome.is_ok() && appended_wal && ctx.options.sync_replication && state.is_durable() {
            let (snap, target, _) = state.hub.position();
            let mut wait = SYNC_ACK_TIMEOUT;
            if let Some(deadline) = ctx.deadline {
                wait = wait.min(deadline.saturating_duration_since(Instant::now()));
            }
            if !state.hub.wait_for_ack(snap, target, wait) {
                return RouteOutcome::Response(encode_response(
                    503,
                    error_body(
                        "write is durable on the primary but no replica \
                         acknowledged it in time",
                    )
                    .into(),
                ));
            }
        }
        return RouteOutcome::Response(match outcome {
            Ok(response) => encode_response(200, state.rendered(&response).into()),
            Err((status, body)) => encode_response(status, body.into()),
        });
    }
    if path == "/debug/sleep" && ctx.options.debug_sleep {
        return debug_sleep(&params, ctx);
    }
    RouteOutcome::Response(match build_request(&path, &params) {
        Ok(Routed::Api {
            request,
            cache_key,
            scopes,
        }) => {
            let mut miss = None;
            if let Some(key) = cache_key {
                let probed = state.responses.get(&key);
                if let Some(trace) = ctx.trace {
                    trace.stamp(Stage::CacheProbe);
                }
                if let Some(hit) = probed {
                    return RouteOutcome::Response(hit);
                }
                let observed = state
                    .responses
                    .begin_scoped(scopes.iter().map(String::as_str));
                miss = Some((key, observed));
            }
            // Only the miss path is expensive — gate it.
            let _permit = match ctx.gate_for(class) {
                Ok(permit) => permit,
                Err(reason) => return RouteOutcome::Shed(reason),
            };
            if ctx.expired() {
                return RouteOutcome::Shed(ShedReason::Deadline);
            }
            let evaluated = state.with_store(|s| api::handle(s, request));
            if let Some(trace) = ctx.trace {
                trace.stamp(Stage::Evaluated);
            }
            match (evaluated, miss) {
                (Ok(response), Some((key, observed))) => {
                    let payload = encode_cached(200, state.rendered(&response).into_bytes());
                    state
                        .responses
                        .insert_scoped(key, payload.clone(), observed);
                    payload
                }
                (Ok(response), None) => encode_response(200, state.rendered(&response).into()),
                (Err(e), _) => {
                    let (status, body) = store_error(e);
                    encode_response(status, body.into())
                }
            }
        }
        Ok(Routed::Stats) => stats_response(state),
        Ok(Routed::Prometheus) => prometheus_response(state),
        Ok(Routed::Traces) => traces_response(state),
        Ok(Routed::ReplicationWal {
            from,
            wait_ms,
            snap,
        }) => replication_wal_response(state, from, wait_ms, snap),
        Ok(Routed::ReplicationSnapshot) => replication_snapshot_response(state),
        Ok(Routed::Health) => {
            // Liveness: the process routes requests. Nothing else.
            let body =
                serde_json::to_string(&Value::object([("ok".to_string(), Value::from(true))]));
            encode_response(200, body.into())
        }
        Ok(Routed::Ready) => readyz_response(state, ctx.options),
        Err((status, body)) => encode_response(status, body.into()),
    })
}

/// `GET /debug/sleep?ms=N` (test-only): a compute-class request that
/// holds its worker and compute permit for `N` ms — the deterministic
/// load the overload tests saturate the server with.
fn debug_sleep(params: &Params, ctx: &RequestContext) -> RouteOutcome {
    let ms = match parse_param(params, "ms", "50", |s| s.parse::<u64>().ok()) {
        Ok(ms) => ms.min(10_000),
        Err((status, body)) => return RouteOutcome::Response(encode_response(status, body.into())),
    };
    let _permit = match ctx.gate_for(Class::Compute) {
        Ok(permit) => permit,
        Err(reason) => return RouteOutcome::Shed(reason),
    };
    if ctx.expired() {
        return RouteOutcome::Shed(ShedReason::Deadline);
    }
    std::thread::sleep(Duration::from_millis(ms));
    if let Some(trace) = ctx.trace {
        trace.stamp(Stage::Evaluated);
    }
    let body = serde_json::to_string(&Value::object([("slept_ms".to_string(), Value::from(ms))]));
    RouteOutcome::Response(encode_response(200, body.into()))
}

/// The `/stats` body: cache counters plus the overload block
/// (queue gauges, sheds by reason, per-class in-flight, cache bytes).
fn stats_response(state: &ServerState) -> CachedResponse {
    let responses = state.response_cache();
    let ov = state.overload();
    let [queue_full, deadline, class_saturated, draining] = ov.sheds();
    let (inflight_cached, inflight_compute, inflight_write) = ov.inflight();
    let role = match state.hub.role() {
        Role::Primary => "primary",
        Role::Replica => "replica",
    };
    let body = serde_json::to_string(&Value::object([
        (
            "generation".to_string(),
            Value::from(responses.generation()),
        ),
        ("poisoned".to_string(), Value::from(state.wal_poisoned())),
        ("role".to_string(), Value::from(role)),
        ("response_hits".to_string(), Value::from(responses.hits())),
        (
            "response_misses".to_string(),
            Value::from(responses.misses()),
        ),
        ("response_entries".to_string(), Value::from(responses.len())),
        (
            "response_cache_bytes".to_string(),
            Value::from(responses.bytes()),
        ),
        (
            "json_renders".to_string(),
            Value::from(state.json_renders()),
        ),
        (
            "connections".to_string(),
            Value::from(state.connections_accepted()),
        ),
        (
            "open_connections".to_string(),
            Value::from(state.telemetry.open_connections() as f64),
        ),
        ("queue_depth".to_string(), Value::from(ov.queue_depth())),
        (
            "queue_max_depth".to_string(),
            Value::from(ov.queue_max_depth()),
        ),
        ("admitted".to_string(), Value::from(ov.admitted())),
        ("shed_queue_full".to_string(), Value::from(queue_full)),
        ("shed_deadline".to_string(), Value::from(deadline)),
        (
            "shed_class_saturated".to_string(),
            Value::from(class_saturated),
        ),
        ("shed_draining".to_string(), Value::from(draining)),
        (
            "deadline_exceeded".to_string(),
            Value::from(ov.deadline_exceeded()),
        ),
        (
            "method_not_allowed".to_string(),
            Value::from(ov.method_not_allowed()),
        ),
        ("inflight_cached".to_string(), Value::from(inflight_cached)),
        (
            "inflight_compute".to_string(),
            Value::from(inflight_compute),
        ),
        ("inflight_write".to_string(), Value::from(inflight_write)),
    ]));
    encode_response(200, body.into())
}

/// The `/readyz` body + status: ready (200) only while the store is
/// loaded, the WAL has not been poisoned by a disk failure, and the
/// recent shed rate is below the configured threshold.
fn readyz_response(state: &ServerState, options: &ServeOptions) -> CachedResponse {
    let poisoned = state.wal_poisoned();
    let shed_rate = state.recent_shed_rate();
    let draining = state.is_draining();
    let hub = &state.hub;
    let is_replica = !hub.is_primary();
    let role = if is_replica { "replica" } else { "primary" };
    let lag = hub.lag();
    // The lag gate takes a stale replica out of rotation; primaries
    // (lag zero by definition) are never gated by it.
    let lag_exceeded = is_replica
        && options
            .max_replica_lag
            .is_some_and(|max_ms| lag.ms > max_ms);
    let ready =
        !poisoned && !draining && !lag_exceeded && shed_rate <= options.shed_ready_threshold;
    let (_, applied_offset, applied_records) = hub.position();
    let body = serde_json::to_string(&Value::object([
        ("ready".to_string(), Value::from(ready)),
        ("store_loaded".to_string(), Value::from(true)),
        ("wal_poisoned".to_string(), Value::from(poisoned)),
        ("draining".to_string(), Value::from(draining)),
        ("recent_shed_rate".to_string(), Value::from(shed_rate)),
        ("role".to_string(), Value::from(role)),
        (
            "applied_offset_bytes".to_string(),
            Value::from(applied_offset),
        ),
        ("applied_records".to_string(), Value::from(applied_records)),
        ("replication_lag_bytes".to_string(), Value::from(lag.bytes)),
        (
            "replication_lag_records".to_string(),
            Value::from(lag.records),
        ),
        ("replication_lag_ms".to_string(), Value::from(lag.ms)),
        (
            "replication_lag_exceeded".to_string(),
            Value::from(lag_exceeded),
        ),
        (
            "replication_connected".to_string(),
            Value::from(hub.connected()),
        ),
    ]));
    encode_response(if ready { 200 } else { 503 }, body.into())
}

/// The `GET /metrics` body: every `/stats` counter and gauge plus the
/// telemetry histograms, in Prometheus text exposition format.
/// Rendered fresh on every scrape — never cached, no `ETag`.
fn prometheus_response(state: &ServerState) -> CachedResponse {
    let mut out = String::with_capacity(8 * 1024);
    let t = &state.telemetry;
    let responses = state.response_cache();
    let ov = state.overload();
    let [queue_full, deadline, class_saturated, draining] = ov.sheds();
    let (inflight_cached, inflight_compute, inflight_write) = ov.inflight();

    telemetry::write_family(
        &mut out,
        "frost_http_requests_total",
        "counter",
        "Responses completed (last byte written), by endpoint.",
    );
    for endpoint in Endpoint::ALL {
        let n = t.requests_for(endpoint);
        if n > 0 {
            telemetry::write_sample(
                &mut out,
                "frost_http_requests_total",
                &endpoint_labels(endpoint),
                n as f64,
            );
        }
    }
    telemetry::write_family(
        &mut out,
        "frost_http_slow_requests_total",
        "counter",
        "Requests exceeding the --slow-request-ms threshold.",
    );
    telemetry::write_sample(
        &mut out,
        "frost_http_slow_requests_total",
        "",
        t.slow_total() as f64,
    );
    telemetry::write_family(
        &mut out,
        "frost_connections_accepted_total",
        "counter",
        "Connections accepted since start.",
    );
    telemetry::write_sample(
        &mut out,
        "frost_connections_accepted_total",
        "",
        state.connections_accepted() as f64,
    );
    telemetry::write_family(
        &mut out,
        "frost_open_connections",
        "gauge",
        "Connections currently open on the event loops.",
    );
    telemetry::write_sample(
        &mut out,
        "frost_open_connections",
        "",
        t.open_connections() as f64,
    );
    telemetry::write_family(
        &mut out,
        "frost_admitted_total",
        "counter",
        "Requests admitted to the dispatch queue.",
    );
    telemetry::write_sample(&mut out, "frost_admitted_total", "", ov.admitted() as f64);
    telemetry::write_family(
        &mut out,
        "frost_shed_total",
        "counter",
        "Requests shed with 503, by reason.",
    );
    for (reason, n) in [
        ("queue_full", queue_full),
        ("deadline", deadline),
        ("class_saturated", class_saturated),
        ("draining", draining),
    ] {
        telemetry::write_sample(
            &mut out,
            "frost_shed_total",
            &format!("reason=\"{reason}\""),
            n as f64,
        );
    }
    telemetry::write_family(
        &mut out,
        "frost_deadline_exceeded_total",
        "counter",
        "Responses that finished after their deadline had passed.",
    );
    telemetry::write_sample(
        &mut out,
        "frost_deadline_exceeded_total",
        "",
        ov.deadline_exceeded() as f64,
    );
    telemetry::write_family(
        &mut out,
        "frost_method_not_allowed_total",
        "counter",
        "Requests rejected with 405.",
    );
    telemetry::write_sample(
        &mut out,
        "frost_method_not_allowed_total",
        "",
        ov.method_not_allowed() as f64,
    );
    telemetry::write_family(
        &mut out,
        "frost_queue_depth",
        "gauge",
        "Requests currently waiting in the dispatch queue.",
    );
    telemetry::write_sample(&mut out, "frost_queue_depth", "", ov.queue_depth() as f64);
    telemetry::write_family(
        &mut out,
        "frost_queue_max_depth",
        "gauge",
        "High-water mark of the dispatch queue.",
    );
    telemetry::write_sample(
        &mut out,
        "frost_queue_max_depth",
        "",
        ov.queue_max_depth() as f64,
    );
    telemetry::write_family(
        &mut out,
        "frost_inflight_requests",
        "gauge",
        "Requests currently being routed, by cost class.",
    );
    for (class, n) in [
        ("cached", inflight_cached),
        ("compute", inflight_compute),
        ("write", inflight_write),
    ] {
        telemetry::write_sample(
            &mut out,
            "frost_inflight_requests",
            &format!("class=\"{class}\""),
            n as f64,
        );
    }
    telemetry::write_family(
        &mut out,
        "frost_cache_hits_total",
        "counter",
        "Result-cache hits, by tier (response = serialized bytes).",
    );
    telemetry::write_family(
        &mut out,
        "frost_cache_misses_total",
        "counter",
        "Result-cache misses, by tier.",
    );
    telemetry::write_family(
        &mut out,
        "frost_cache_entries",
        "gauge",
        "Live result-cache entries, by tier.",
    );
    telemetry::write_family(
        &mut out,
        "frost_cache_bytes",
        "gauge",
        "Tracked result-cache bytes, by tier.",
    );
    let labels = "tier=\"response\"";
    for (family, value) in [
        ("frost_cache_hits_total", responses.hits()),
        ("frost_cache_misses_total", responses.misses()),
        ("frost_cache_entries", responses.len() as u64),
        ("frost_cache_bytes", responses.bytes() as u64),
    ] {
        telemetry::write_sample(&mut out, family, labels, value as f64);
    }
    telemetry::write_family(
        &mut out,
        "frost_cache_generation",
        "gauge",
        "Store mutation generation the result cache is stamped with.",
    );
    telemetry::write_sample(
        &mut out,
        "frost_cache_generation",
        "",
        responses.generation() as f64,
    );
    telemetry::write_family(
        &mut out,
        "frost_json_renders_total",
        "counter",
        "JSON serializations actually performed (cache misses).",
    );
    telemetry::write_sample(
        &mut out,
        "frost_json_renders_total",
        "",
        state.json_renders() as f64,
    );
    telemetry::write_family(
        &mut out,
        "frost_wal_poisoned",
        "gauge",
        "1 when a WAL disk failure has poisoned the write path.",
    );
    telemetry::write_sample(
        &mut out,
        "frost_wal_poisoned",
        "",
        if state.wal_poisoned() { 1.0 } else { 0.0 },
    );
    telemetry::write_family(
        &mut out,
        "frost_draining",
        "gauge",
        "1 while the server is draining for shutdown.",
    );
    telemetry::write_sample(
        &mut out,
        "frost_draining",
        "",
        if state.is_draining() { 1.0 } else { 0.0 },
    );

    let hub = &state.hub;
    let lag = hub.lag();
    let (_, applied_offset, applied_records) = hub.position();
    telemetry::write_family(
        &mut out,
        "frost_replication_role",
        "gauge",
        "Replication role: 0 = primary, 1 = replica.",
    );
    telemetry::write_sample(
        &mut out,
        "frost_replication_role",
        "",
        if hub.is_primary() { 0.0 } else { 1.0 },
    );
    telemetry::write_family(
        &mut out,
        "frost_replication_applied_offset_bytes",
        "gauge",
        "Durable WAL length of this node (the offset replicas poll from).",
    );
    telemetry::write_sample(
        &mut out,
        "frost_replication_applied_offset_bytes",
        "",
        applied_offset as f64,
    );
    telemetry::write_family(
        &mut out,
        "frost_replication_applied_records",
        "gauge",
        "WAL records in this node's durable prefix.",
    );
    telemetry::write_sample(
        &mut out,
        "frost_replication_applied_records",
        "",
        applied_records as f64,
    );
    telemetry::write_family(
        &mut out,
        "frost_replication_lag_bytes",
        "gauge",
        "WAL bytes the primary has that this replica has not applied (0 on a primary).",
    );
    telemetry::write_sample(
        &mut out,
        "frost_replication_lag_bytes",
        "",
        lag.bytes as f64,
    );
    telemetry::write_family(
        &mut out,
        "frost_replication_lag_records",
        "gauge",
        "WAL records the primary has that this replica has not applied (0 on a primary).",
    );
    telemetry::write_sample(
        &mut out,
        "frost_replication_lag_records",
        "",
        lag.records as f64,
    );
    telemetry::write_family(
        &mut out,
        "frost_replication_lag_seconds",
        "gauge",
        "Seconds since this replica last matched the primary's WAL length (0-ish when caught up).",
    );
    telemetry::write_sample(
        &mut out,
        "frost_replication_lag_seconds",
        "",
        lag.ms as f64 / 1000.0,
    );
    telemetry::write_family(
        &mut out,
        "frost_replication_connected",
        "gauge",
        "1 while the replica's last poll of its primary succeeded.",
    );
    telemetry::write_sample(
        &mut out,
        "frost_replication_connected",
        "",
        if hub.connected() { 1.0 } else { 0.0 },
    );
    telemetry::write_family(
        &mut out,
        "frost_replication_polls_total",
        "counter",
        "Replication WAL polls served to replicas.",
    );
    telemetry::write_sample(
        &mut out,
        "frost_replication_polls_total",
        "",
        hub.polls() as f64,
    );
    telemetry::write_family(
        &mut out,
        "frost_replication_streamed_bytes_total",
        "counter",
        "WAL and snapshot payload bytes streamed to replicas.",
    );
    telemetry::write_sample(
        &mut out,
        "frost_replication_streamed_bytes_total",
        "",
        hub.streamed_bytes() as f64,
    );
    telemetry::write_family(
        &mut out,
        "frost_replication_sync_timeouts_total",
        "counter",
        "Semi-sync writes answered 503 because no replica acknowledged in time.",
    );
    telemetry::write_sample(
        &mut out,
        "frost_replication_sync_timeouts_total",
        "",
        hub.sync_timeouts() as f64,
    );

    telemetry::write_family(
        &mut out,
        "frost_http_request_duration_seconds",
        "histogram",
        "End-to-end request latency (accepted to last byte), by endpoint.",
    );
    for endpoint in Endpoint::ALL {
        let h = t.e2e_histogram(endpoint);
        if h.count() > 0 {
            telemetry::write_histogram(
                &mut out,
                "frost_http_request_duration_seconds",
                &endpoint_labels(endpoint),
                h,
                1e-9,
            );
        }
    }
    telemetry::write_family(
        &mut out,
        "frost_http_stage_duration_seconds",
        "histogram",
        "Duration of each request lifecycle stage (see /debug/traces glossary).",
    );
    for stage in &Stage::ALL[1..] {
        telemetry::write_histogram(
            &mut out,
            "frost_http_stage_duration_seconds",
            &format!("stage=\"{}\"", stage.name()),
            t.stage_histogram(*stage),
            1e-9,
        );
    }
    telemetry::write_family(
        &mut out,
        "frost_wal_append_duration_seconds",
        "histogram",
        "WAL frame append (write) duration.",
    );
    telemetry::write_histogram(
        &mut out,
        "frost_wal_append_duration_seconds",
        "",
        &t.wal().append,
        1e-9,
    );
    telemetry::write_family(
        &mut out,
        "frost_wal_fsync_duration_seconds",
        "histogram",
        "WAL fsync duration.",
    );
    telemetry::write_histogram(
        &mut out,
        "frost_wal_fsync_duration_seconds",
        "",
        &t.wal().fsync,
        1e-9,
    );
    telemetry::write_family(
        &mut out,
        "frost_event_loop_poll_dwell_seconds",
        "histogram",
        "Wall time spent inside each poll(2) call.",
    );
    telemetry::write_histogram(
        &mut out,
        "frost_event_loop_poll_dwell_seconds",
        "",
        t.poll_dwell(),
        1e-9,
    );
    telemetry::write_family(
        &mut out,
        "frost_event_loop_dispatch_batch",
        "histogram",
        "Events handled per event-loop wake (adoptions + completions + readiness).",
    );
    telemetry::write_histogram(
        &mut out,
        "frost_event_loop_dispatch_batch",
        "",
        t.dispatch_batch(),
        1.0,
    );

    encode_text(200, out.into_bytes(), CONTENT_TYPE_PROMETHEUS)
}

/// The `endpoint="…",class="…"` label pair of one endpoint.
fn endpoint_labels(endpoint: Endpoint) -> String {
    format!(
        "endpoint=\"{}\",class=\"{}\"",
        endpoint.name(),
        endpoint.class_name()
    )
}

/// The `GET /debug/traces` body: the retained per-stage traces, most
/// recent first. Never cached.
fn traces_response(state: &ServerState) -> CachedResponse {
    let body = serde_json::to_string(&state.telemetry.traces_json());
    encode_response(200, body.into())
}

/// `GET /replication/wal?from=<offset>`: the long-poll WAL tail. The
/// reply is a [`StreamPreamble`] followed by the raw CRC-framed WAL
/// bytes from `from` to the durable length — exactly the bytes a
/// single-node recovery would replay. When the caller is current the
/// request is held open (condvar, no locks) up to `wait_ms` waiting
/// for the next append; a snapshot-epoch mismatch answers immediately
/// with empty frames so the caller re-bootstraps.
///
/// The poll doubles as the replication acknowledgement: a caller
/// asking for bytes past `from` has everything before `from` durable,
/// which is what `--sync-replication` writers wait on.
fn replication_wal_response(
    state: &ServerState,
    from: u64,
    wait_ms: u64,
    snap: Option<SnapshotId>,
) -> CachedResponse {
    let hub = &state.hub;
    let (current_snap, _, _) = hub.position();
    let snap = snap.unwrap_or(current_snap);
    hub.note_poll(snap, from);
    let wait = Duration::from_millis(wait_ms.min(MAX_POLL_WAIT_MS));
    hub.wait_for_data(from, snap, wait);
    // Serve under the writer lock so position and file bytes stay
    // consistent — no append or compaction can race the read.
    let writer = state.writer.lock();
    let Some(d) = writer.as_ref() else {
        return encode_response(
            400,
            error_body("store is volatile (no WAL): replication unavailable").into(),
        );
    };
    let snapshot_id = d.snapshot_id();
    let wal_len = d.wal_len();
    let records = d.wal_records();
    let frames: Vec<u8> = if snap == snapshot_id && from >= WAL_HEADER_LEN && from < wal_len {
        match d.read_wal() {
            Ok(bytes) => bytes
                .get(from as usize..)
                .map(<[u8]>::to_vec)
                .unwrap_or_default(),
            Err(e) => {
                return encode_response(500, error_body(&format!("WAL read failed: {e}")).into());
            }
        }
    } else {
        Vec::new()
    };
    drop(writer);
    hub.add_streamed(frames.len() as u64);
    let preamble = StreamPreamble {
        primary: hub.is_primary(),
        snapshot: snapshot_id,
        wal_len,
        records,
    };
    let mut body = Vec::with_capacity(replication::STREAM_PREAMBLE_LEN + frames.len());
    body.extend_from_slice(&preamble.encode());
    body.extend_from_slice(&frames);
    encode_text(200, body, CONTENT_TYPE_BINARY)
}

/// `GET /replication/snapshot`: preamble + the exact current FROSTB
/// snapshot bytes — the replica bootstrap payload. Served under the
/// writer lock so a concurrent compaction cannot swap the file
/// mid-read.
fn replication_snapshot_response(state: &ServerState) -> CachedResponse {
    let writer = state.writer.lock();
    let Some(d) = writer.as_ref() else {
        return encode_response(
            400,
            error_body("store is volatile (no snapshot): replication unavailable").into(),
        );
    };
    let bytes = match d.read_snapshot() {
        Ok(bytes) => bytes,
        Err(e) => {
            return encode_response(
                500,
                error_body(&format!("snapshot read failed: {e}")).into(),
            );
        }
    };
    let preamble = StreamPreamble {
        primary: state.hub.is_primary(),
        snapshot: d.snapshot_id(),
        wal_len: d.wal_len(),
        records: d.wal_records(),
    };
    drop(writer);
    state.hub.add_streamed(bytes.len() as u64);
    let mut body = Vec::with_capacity(replication::STREAM_PREAMBLE_LEN + bytes.len());
    body.extend_from_slice(&preamble.encode());
    body.extend_from_slice(&bytes);
    encode_text(200, body, CONTENT_TYPE_BINARY)
}

/// The write-method dispatcher: `POST /experiments` (CSV import),
/// `DELETE /experiments/<name>`, `POST /snapshot/save`. Anything else
/// reached with a write method is a 405.
fn route_write(
    method: &str,
    path: &str,
    params: &Params,
    body: &[u8],
    state: &ServerState,
) -> Result<api::Response, (u16, String)> {
    match (method, path) {
        ("POST", "/experiments") => {
            let dataset = params.required("dataset")?;
            let name = params.required("name")?;
            let csv = std::str::from_utf8(body)
                .map_err(|_| (400, error_body("request body is not valid UTF-8")))?;
            if csv.trim().is_empty() {
                return Err((400, error_body("request body is empty; expected CSV")));
            }
            state.import_experiment(dataset, name, csv)
        }
        ("POST", "/snapshot/save") => state.save_snapshot(),
        ("DELETE", p) => {
            let Some(name) = p.strip_prefix("/experiments/").filter(|n| !n.is_empty()) else {
                return Err((
                    405,
                    error_body("DELETE is only supported on /experiments/<name>"),
                ));
            };
            state.delete_experiment(name)
        }
        _ => Err((405, error_body("only GET is supported on this endpoint"))),
    }
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

enum Routed {
    Api {
        request: Request,
        cache_key: Option<String>,
        /// Invalidation scopes the response depends on (see the
        /// [module docs](self) table); stamped into the cache entry.
        scopes: Vec<String>,
    },
    Stats,
    /// `/healthz`: liveness.
    Health,
    /// `/readyz`: readiness (store loaded, WAL healthy, shed rate
    /// under threshold).
    Ready,
    /// `GET /metrics` without an `experiment` parameter: the
    /// Prometheus text exposition. Never cached — scrapers must see
    /// live values.
    Prometheus,
    /// `GET /debug/traces`: the last-N request traces. Never cached.
    Traces,
    /// `GET /replication/wal?from=<offset>`: long-poll WAL tail for
    /// replicas. Never cached.
    ReplicationWal {
        from: u64,
        wait_ms: u64,
        /// The snapshot epoch the caller's WAL applies over; a
        /// mismatch with ours means the caller must re-bootstrap, so
        /// the server answers immediately with empty frames. `None`
        /// (parameters absent) means "whatever the server has".
        snap: Option<SnapshotId>,
    },
    /// `GET /replication/snapshot`: the current FROSTB snapshot bytes
    /// (replica bootstrap). Never cached.
    ReplicationSnapshot,
}

fn build_request(path: &str, params: &Params) -> Result<Routed, (u16, String)> {
    let api = |request, cache_key, scopes| {
        Ok(Routed::Api {
            request,
            cache_key,
            scopes,
        })
    };
    let exp_scope = |e: &str| vec![format!("exp:{e}")];
    match path {
        "/datasets" => api(
            Request::ListDatasets,
            Some(cache_key("datasets", &[])),
            vec!["sys:datasets".to_string()],
        ),
        "/experiments" => {
            let dataset = params.get("dataset").map(str::to_string);
            let key = cache_key("experiments", &[dataset.as_deref().unwrap_or("")]);
            api(
                Request::ListExperiments { dataset },
                Some(key),
                vec!["sys:experiments".to_string()],
            )
        }
        "/profile" => {
            let dataset = params.required("dataset")?.to_string();
            let key = cache_key("profile", &[&dataset]);
            let scopes = vec![format!("ds:{dataset}")];
            api(Request::ProfileDataset { dataset }, Some(key), scopes)
        }
        "/matrix" => {
            let experiment = params.required("experiment")?.to_string();
            let key = cache_key("matrix", &[&experiment]);
            let scopes = exp_scope(&experiment);
            api(
                Request::GetConfusionMatrix { experiment },
                Some(key),
                scopes,
            )
        }
        "/metrics" => {
            // The bare path is the Prometheus exposition; with an
            // `experiment` parameter it is the evaluation-metrics API
            // (an empty value is still the API's 400, not a scrape).
            if params.get("experiment").is_none() {
                return Ok(Routed::Prometheus);
            }
            let experiment = params.required("experiment")?.to_string();
            let key = cache_key("metrics", &[&experiment]);
            let scopes = exp_scope(&experiment);
            api(Request::GetMetrics { experiment }, Some(key), scopes)
        }
        "/diagram" => {
            let experiment = params.required("experiment")?.to_string();
            let x = parse_param(params, "x", "recall", json::parse_metric)?;
            let y = parse_param(params, "y", "precision", json::parse_metric)?;
            let engine = parse_param(params, "engine", "optimized", json::parse_engine)?;
            let samples = parse_param(params, "samples", "20", |s| s.parse::<usize>().ok())?;
            if samples < 2 {
                return Err((400, error_body("samples must be at least 2")));
            }
            if samples > MAX_DIAGRAM_SAMPLES {
                return Err((
                    400,
                    error_body(&format!("samples must be at most {MAX_DIAGRAM_SAMPLES}")),
                ));
            }
            if engine == DiagramEngine::Naive && samples > MAX_NAIVE_DIAGRAM_SAMPLES {
                return Err((
                    400,
                    error_body(&format!(
                        "samples must be at most {MAX_NAIVE_DIAGRAM_SAMPLES} with engine=naive"
                    )),
                ));
            }
            let key = cache_key(
                "diagram",
                &[
                    &experiment,
                    &x.to_string(),
                    &y.to_string(),
                    &format!("{engine:?}"),
                    &samples.to_string(),
                ],
            );
            let scopes = exp_scope(&experiment);
            api(
                Request::GetDiagram {
                    experiment,
                    x,
                    y,
                    engine,
                    samples,
                },
                Some(key),
                scopes,
            )
        }
        "/compare" | "/venn" => {
            let list = params.required("experiments")?;
            let experiments: Vec<String> = list
                .split(',')
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect();
            if experiments.is_empty() {
                return Err((400, error_body("experiments list is empty")));
            }
            // /venn is the N-Intersection view including the ground
            // truth; /compare defaults to experiments only.
            let default_gold = path == "/venn";
            let include_gold = match params.get("gold") {
                None => default_gold,
                Some("true") => true,
                Some("false") => false,
                Some(other) => return Err((400, error_body(&format!("bad gold flag {other:?}")))),
            };
            let mut key_parts: Vec<&str> = experiments.iter().map(String::as_str).collect();
            let gold_part = include_gold.to_string();
            key_parts.push(&gold_part);
            let key = cache_key("venn", &key_parts);
            let scopes = experiments.iter().map(|e| format!("exp:{e}")).collect();
            api(
                Request::CompareExperiments {
                    experiments,
                    include_gold,
                },
                Some(key),
                scopes,
            )
        }
        "/cluster-metrics" => {
            let experiment = params.required("experiment")?.to_string();
            let key = cache_key("cluster-metrics", &[&experiment]);
            let scopes = exp_scope(&experiment);
            api(Request::GetClusterMetrics { experiment }, Some(key), scopes)
        }
        "/ratios" => {
            let experiment = params.required("experiment")?.to_string();
            let kind = parse_param(params, "kind", "null", json::parse_ratio_kind)?;
            let key = cache_key("ratios", &[&experiment, &format!("{kind:?}")]);
            let scopes = exp_scope(&experiment);
            api(
                Request::GetAttributeRatios { experiment, kind },
                Some(key),
                scopes,
            )
        }
        "/errors" => {
            let experiment = params.required("experiment")?.to_string();
            let key = cache_key("errors", &[&experiment]);
            let scopes = exp_scope(&experiment);
            api(Request::GetErrorProfile { experiment }, Some(key), scopes)
        }
        "/quality" => {
            let experiment = params.required("experiment")?.to_string();
            let key = cache_key("quality", &[&experiment]);
            let scopes = exp_scope(&experiment);
            api(Request::GetQualitySignals { experiment }, Some(key), scopes)
        }
        "/stats" => Ok(Routed::Stats),
        "/healthz" => Ok(Routed::Health),
        "/readyz" => Ok(Routed::Ready),
        "/debug/traces" => Ok(Routed::Traces),
        "/replication/wal" => {
            let from = parse_param(params, "from", "", |s| s.parse::<u64>().ok())?;
            let wait_ms = parse_param(
                params,
                "wait_ms",
                &replication::REPLICA_POLL_WAIT_MS.to_string(),
                |s| s.parse::<u64>().ok(),
            )?;
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
            Ok(Routed::ReplicationWal {
                from,
                wait_ms,
                snap,
            })
        }
        "/replication/snapshot" => Ok(Routed::ReplicationSnapshot),
        other => Err((404, error_body(&format!("no such endpoint {other:?}")))),
    }
}

/// Builds an unambiguous cache key: every component is
/// length-prefixed, so user-controlled names (which may contain any
/// byte, including the separators) cannot alias another request's
/// key.
fn cache_key(kind: &str, parts: &[&str]) -> String {
    let mut key =
        String::with_capacity(kind.len() + parts.iter().map(|p| p.len() + 8).sum::<usize>());
    key.push_str(kind);
    for p in parts {
        key.push('\u{1}');
        key.push_str(&p.len().to_string());
        key.push(':');
        key.push_str(p);
    }
    key
}

fn parse_param<T>(
    params: &Params,
    key: &str,
    default: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<T, (u16, String)> {
    let raw = params.get(key).unwrap_or(default);
    parse(raw).ok_or_else(|| (400, error_body(&format!("bad {key} value {raw:?}"))))
}

fn store_error(e: StoreError) -> (u16, String) {
    let status = match &e {
        StoreError::UnknownDataset(_)
        | StoreError::UnknownExperiment(_)
        | StoreError::NoGoldStandard(_) => 404,
        _ => 400,
    };
    (status, error_body(&e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_parsing_decodes_queries() {
        let (path, params) = parse_target("/diagram?experiment=run%201&samples=5&flag");
        assert_eq!(path, "/diagram");
        assert_eq!(
            params,
            vec![
                ("experiment".to_string(), "run 1".to_string()),
                ("samples".to_string(), "5".to_string()),
                ("flag".to_string(), String::new()),
            ]
        );
        assert_eq!(percent_decode("a+b%2Cc%"), "a b,c%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    fn parse_all(bytes: &[u8]) -> Vec<Parsed> {
        let mut buffer = RequestBuffer::new();
        buffer.extend(bytes);
        let mut out = Vec::new();
        loop {
            match buffer.next_request() {
                Parsed::Incomplete => break,
                done @ Parsed::Error(_) => {
                    out.push(done);
                    break;
                }
                request => out.push(request),
            }
        }
        out
    }

    fn get_request(target: &str, keep_alive: bool) -> ParsedRequest {
        ParsedRequest {
            method: "GET".into(),
            target: target.into(),
            keep_alive,
            content_length: 0,
            if_none_match: None,
            body: Vec::new(),
        }
    }

    #[test]
    fn parses_single_and_pipelined_heads() {
        let got = parse_all(b"GET /a HTTP/1.1\r\nHost: x\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        assert_eq!(
            got,
            vec![
                Parsed::Request(get_request("/a", true)),
                Parsed::Request(get_request("/b", true)),
            ]
        );
    }

    #[test]
    fn post_bodies_are_consumed_and_split_safely() {
        let mut buffer = RequestBuffer::new();
        buffer.extend(
            b"POST /experiments?dataset=d&name=n HTTP/1.1\r\nContent-Length: 12\r\n\r\nid1,",
        );
        // Head complete, body partial: not a request yet.
        assert_eq!(buffer.next_request(), Parsed::Incomplete);
        assert_eq!(
            buffer.next_request(),
            Parsed::Incomplete,
            "stable while waiting"
        );
        buffer.extend(b"id2\na,");
        assert_eq!(buffer.next_request(), Parsed::Incomplete);
        // Final body bytes plus a pipelined GET behind them.
        buffer.extend(b"b\nGET /datasets HTTP/1.1\r\n\r\n");
        let Parsed::Request(post) = buffer.next_request() else {
            panic!("complete POST must parse")
        };
        assert_eq!(post.method, "POST");
        assert_eq!(post.content_length, 12);
        assert_eq!(post.body, b"id1,id2\na,b\n".to_vec());
        let Parsed::Request(get) = buffer.next_request() else {
            panic!("pipelined GET must parse")
        };
        assert_eq!(get.target, "/datasets");
    }

    #[test]
    fn oversized_body_is_rejected() {
        let mut buffer = RequestBuffer::new();
        buffer.extend(
            format!(
                "POST /experiments HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            )
            .as_bytes(),
        );
        assert!(matches!(buffer.next_request(), Parsed::Error(_)));
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let close = parse_all(b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n");
        assert_eq!(close, vec![Parsed::Request(get_request("/", false))]);
        let old = parse_all(b"GET / HTTP/1.0\r\n\r\n");
        assert!(matches!(
            &old[0],
            Parsed::Request(r) if !r.keep_alive
        ));
        let old_ka = parse_all(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(
            matches!(&old_ka[0], Parsed::Request(r) if !r.keep_alive),
            "1.0 opt-in keep-alive is not implemented and must close"
        );
    }

    #[test]
    fn bare_lf_terminators_parse() {
        let got = parse_all(b"GET /x HTTP/1.1\nHost: y\n\n");
        assert!(matches!(&got[0], Parsed::Request(r) if r.target == "/x"));
    }

    #[test]
    fn malformed_heads_are_errors() {
        assert!(matches!(parse_all(b"GARBAGE\r\n\r\n")[0], Parsed::Error(_)));
        assert!(matches!(parse_all(b"\r\n\r\n")[0], Parsed::Error(_)));
        assert!(matches!(
            parse_all(b"GET / SPDY/3\r\n\r\n")[0],
            Parsed::Error(_)
        ));
        assert!(matches!(
            parse_all(b"GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\n")[0],
            Parsed::Error(_)
        ));
        assert!(matches!(
            parse_all(b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")[0],
            Parsed::Error(_)
        ));
        assert!(matches!(
            parse_all(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")[0],
            Parsed::Error(_)
        ));
    }

    #[test]
    fn oversized_head_is_rejected_before_completion() {
        let mut buffer = RequestBuffer::new();
        buffer.extend(b"GET /");
        buffer.extend(&vec![b'a'; MAX_REQUEST_BYTES + 1]);
        assert!(matches!(buffer.next_request(), Parsed::Error(_)));
    }

    #[test]
    fn buffer_compacts_consumed_heads() {
        let mut buffer = RequestBuffer::new();
        let request = b"GET /loop HTTP/1.1\r\n\r\n";
        for _ in 0..1_000 {
            buffer.extend(request);
            assert!(matches!(buffer.next_request(), Parsed::Request(_)));
        }
        assert!(
            buffer.buf.capacity() < 64 * 1024,
            "buffer must not grow with served request count (capacity {})",
            buffer.buf.capacity()
        );
    }
}
