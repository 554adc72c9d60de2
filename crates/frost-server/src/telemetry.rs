//! The serving layer's telemetry: per-request lifecycle traces, the
//! always-on latency histograms, the last-N trace ring behind
//! `GET /debug/traces`, and the counter registry behind `GET /stats`
//! and `GET /metrics`.
//!
//! # Stages
//!
//! A request is stamped as it moves through the pipeline, in this
//! order (stages that do not apply to a path are simply absent):
//!
//! | stage           | stamped when                                             |
//! |-----------------|----------------------------------------------------------|
//! | `accepted`      | the deadline clock starts: connection admission for the first request, arrival of its own first byte for pipelined successors |
//! | `head_complete` | the event loop's parser yields the complete request      |
//! | `admitted`      | the request passed the deadline and method checks        |
//! | `cache_probe`   | the event loop's one response-cache lookup returned      |
//! | `gate_acquired` | the worker obtained its class concurrency permit (compute/write only) |
//! | `evaluated`     | the store computation (or write) finished                |
//! | `serialized`    | the full response (head + body + `ETag` revalidation) is built |
//! | `first_byte`    | the event loop wrote the first response byte             |
//! | `last_byte`     | the last response byte entered the socket buffer         |
//!
//! The stage deltas telescope: the per-stage durations of one trace
//! sum *exactly* to its end-to-end duration (`last_byte − accepted`),
//! which the loopback tests pin.
//!
//! # Cost
//!
//! Recording is deliberately cheap: stamping shares `Instant::now()`
//! calls between adjacent stages (the hot cached path performs three
//! beyond what the deadline machinery already takes), finishing a
//! trace is a handful of relaxed `fetch_add`s into [`Histogram`]
//! buckets, and the trace ring claims its slot with one atomic
//! `fetch_add` (the slot payload swap is guarded by an uncontended
//! per-slot mutex, since traces carry strings). Setting
//! [`ServeOptions::telemetry`](crate::ServeOptions::telemetry) to
//! `false` skips tracing entirely — the bench harness gates the
//! enabled-vs-disabled difference at ≤ 5 % of hot-path p50.
//!
//! # The counter registry
//!
//! `Registry::read` is the one place that names, describes and reads
//! what `frostd` reports about itself. For each counter, gauge and
//! histogram family it holds the Prometheus name, kind, help text and
//! labels, the `/stats` key of each sample that has one, and the value,
//! read once per render. Two encoders render that table:
//! `Registry::stats_json` (the `/stats` object) and
//! `Registry::exposition` (the Prometheus text, each family's
//! `# HELP`/`# TYPE` header directly followed by its samples).

use crate::replication::Role;
use crate::route::{Endpoint, ENDPOINT_COUNT};
use crate::ServerState;
use frost_storage::telemetry::{Histogram, WalStats};
use parking_lot::{Mutex, RwLock};
use serde_json::Value;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default capacity of the `/debug/traces` ring
/// ([`ServeOptions::trace_ring`](crate::ServeOptions::trace_ring)).
pub const DEFAULT_TRACE_RING: usize = 256;

/// Resolution of the server-side histograms: `2^5` sub-buckets per
/// power of two, ≈3 % relative error, ~15 KB per histogram.
const SERVER_SUB_BITS: u32 = 5;

// ---------------------------------------------------------------------
// Stages
// ---------------------------------------------------------------------

/// A request lifecycle stage (see the [module docs](self) glossary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Accepted = 0,
    HeadComplete = 1,
    Admitted = 2,
    CacheProbe = 3,
    GateAcquired = 4,
    Evaluated = 5,
    Serialized = 6,
    FirstByte = 7,
    LastByte = 8,
}

/// Number of [`Stage`]s.
pub const STAGE_COUNT: usize = 9;

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Accepted,
        Stage::HeadComplete,
        Stage::Admitted,
        Stage::CacheProbe,
        Stage::GateAcquired,
        Stage::Evaluated,
        Stage::Serialized,
        Stage::FirstByte,
        Stage::LastByte,
    ];

    /// The label value used in `/metrics` and `/debug/traces`.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Accepted => "accepted",
            Stage::HeadComplete => "head_complete",
            Stage::Admitted => "admitted",
            Stage::CacheProbe => "cache_probe",
            Stage::GateAcquired => "gate_acquired",
            Stage::Evaluated => "evaluated",
            Stage::Serialized => "serialized",
            Stage::FirstByte => "first_byte",
            Stage::LastByte => "last_byte",
        }
    }
}

/// The `endpoint="…",class="…"` label pair of `endpoint` in `/metrics`.
fn labels(endpoint: Endpoint) -> String {
    format!(
        "endpoint=\"{}\",class=\"{}\"",
        endpoint.name(),
        endpoint.class().name()
    )
}

// ---------------------------------------------------------------------
// Traces
// ---------------------------------------------------------------------

/// One request's lifecycle stamps, threaded event loop → worker →
/// event loop alongside the request itself. Stamps are `Cell`s — the
/// trace is only ever touched by the thread currently owning the
/// request, so no atomics are needed — and a stage's first stamp wins
/// (re-stamping is a no-op), which lets the write path stamp
/// `first_byte`/`last_byte` unconditionally on completion.
pub struct Trace {
    endpoint: Endpoint,
    method: String,
    target: String,
    status: Cell<u16>,
    stamps: [Cell<Option<Instant>>; STAGE_COUNT],
}

impl Trace {
    /// Starts a trace of a request resolved to `endpoint` at
    /// `accepted` (the request's deadline clock).
    pub fn begin(method: &str, target: &str, endpoint: Endpoint, accepted: Instant) -> Box<Trace> {
        let trace = Box::new(Trace {
            endpoint,
            method: method.to_string(),
            target: target.to_string(),
            status: Cell::new(0),
            stamps: Default::default(),
        });
        trace.stamps[Stage::Accepted as usize].set(Some(accepted));
        trace
    }

    /// Stamps `stage` at `now` unless it was already stamped.
    pub fn stamp_at(&self, stage: Stage, now: Instant) {
        let slot = &self.stamps[stage as usize];
        if slot.get().is_none() {
            slot.set(Some(now));
        }
    }

    /// Stamps `stage` at the current instant (first stamp wins).
    pub fn stamp(&self, stage: Stage) {
        self.stamp_at(stage, Instant::now());
    }

    /// Records the response status (the last call wins — `ETag`
    /// revalidation may turn a `200` into a `304` after routing).
    pub fn set_status(&self, status: u16) {
        self.status.set(status);
    }

    /// The endpoint the request resolved to.
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint
    }
}

/// A finished trace as kept in the ring: stage *durations* (deltas
/// between consecutive present stamps, which telescope to `total`).
struct FinishedTrace {
    seq: u64,
    endpoint: Endpoint,
    method: String,
    target: String,
    status: u16,
    slow: bool,
    total: Duration,
    stages: Vec<(Stage, Duration)>,
}

impl FinishedTrace {
    fn to_json(&self) -> Value {
        let stages: Vec<Value> = self
            .stages
            .iter()
            .map(|(stage, d)| {
                Value::object([
                    ("stage".to_string(), Value::from(stage.name())),
                    ("ns".to_string(), Value::from(d.as_nanos() as u64)),
                ])
            })
            .collect();
        Value::object([
            ("seq".to_string(), Value::from(self.seq)),
            ("endpoint".to_string(), Value::from(self.endpoint.name())),
            (
                "class".to_string(),
                Value::from(self.endpoint.class().name()),
            ),
            ("method".to_string(), Value::from(self.method.as_str())),
            ("target".to_string(), Value::from(self.target.as_str())),
            ("status".to_string(), Value::from(u64::from(self.status))),
            ("slow".to_string(), Value::from(self.slow)),
            (
                "total_ns".to_string(),
                Value::from(self.total.as_nanos() as u64),
            ),
            ("stages".to_string(), Value::Array(stages)),
        ])
    }
}

/// The last-N trace ring: the slot index is claimed with one atomic
/// `fetch_add` (no lock, no contention point), and only the claimed
/// slot's payload swap takes that slot's own mutex — two writers
/// contend only if the ring wraps fully between their claims.
struct TraceRing {
    slots: Box<[Mutex<Option<FinishedTrace>>]>,
    head: AtomicU64,
}

impl TraceRing {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
        }
    }

    fn push(&self, trace: FinishedTrace) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        *slot.lock() = Some(FinishedTrace { seq, ..trace });
    }

    /// The retained traces, most recent first.
    fn collect(&self) -> Vec<Value> {
        let mut traces: Vec<(u64, Value)> = self
            .slots
            .iter()
            .filter_map(|slot| {
                let slot = slot.lock();
                slot.as_ref().map(|t| (t.seq, t.to_json()))
            })
            .collect();
        traces.sort_by_key(|t| std::cmp::Reverse(t.0));
        traces.into_iter().map(|(_, v)| v).collect()
    }
}

// ---------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------

/// Everything the telemetry layer accumulates, owned by
/// [`ServerState`](crate::ServerState) and shared with the event loops
/// and workers.
pub struct Telemetry {
    enabled: AtomicBool,
    /// Slow-request threshold in nanoseconds; `0` disables the log.
    slow_ns: AtomicU64,
    ring: RwLock<TraceRing>,
    /// Completed responses per endpoint (incremented at `last_byte`).
    requests: Vec<AtomicU64>,
    slow_total: AtomicU64,
    /// End-to-end latency per endpoint (`accepted` → `last_byte`).
    e2e: Vec<Histogram>,
    /// Per-stage durations, indexed by the stage each interval *ends*
    /// at (`stage[Accepted]` is unused — it has no predecessor).
    stage: Vec<Histogram>,
    /// Wall time spent inside each `poll(2)` call.
    poll_dwell: Histogram,
    /// Events handled per event-loop wake (fresh connections +
    /// completions + readiness firings).
    dispatch_batch: Histogram,
    open_connections: AtomicI64,
    wal: Arc<WalStats>,
}

impl Telemetry {
    /// A registry with default settings (enabled, 256-slot ring, slow
    /// log off) recording WAL timings into `wal`.
    pub fn new(wal: Arc<WalStats>) -> Self {
        Self {
            enabled: AtomicBool::new(true),
            slow_ns: AtomicU64::new(0),
            ring: RwLock::new(TraceRing::new(DEFAULT_TRACE_RING)),
            requests: (0..ENDPOINT_COUNT).map(|_| AtomicU64::new(0)).collect(),
            slow_total: AtomicU64::new(0),
            e2e: (0..ENDPOINT_COUNT)
                .map(|_| Histogram::new(SERVER_SUB_BITS))
                .collect(),
            stage: (0..STAGE_COUNT)
                .map(|_| Histogram::new(SERVER_SUB_BITS))
                .collect(),
            poll_dwell: Histogram::new(SERVER_SUB_BITS),
            dispatch_batch: Histogram::new(SERVER_SUB_BITS),
            open_connections: AtomicI64::new(0),
            wal,
        }
    }

    /// Applies the serve-time options (called once per `serve_with`).
    pub(crate) fn configure(&self, enabled: bool, slow: Option<Duration>, ring: usize) {
        self.enabled.store(enabled, Ordering::Release);
        let slow_ns = slow
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX).max(1))
            .unwrap_or(0);
        self.slow_ns.store(slow_ns, Ordering::Release);
        let ring = ring.max(1);
        if self.ring.read().slots.len() != ring {
            *self.ring.write() = TraceRing::new(ring);
        }
    }

    /// Whether request tracing is on (one relaxed load — the event
    /// loop checks this before allocating anything).
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Connections currently open on the event loops (the
    /// `open_connections` gauge; accepts that were shed before
    /// adoption never count).
    pub fn open_connections(&self) -> i64 {
        self.open_connections.load(Ordering::Relaxed).max(0)
    }

    pub(crate) fn note_poll_dwell(&self, dwell: Duration) {
        self.poll_dwell.record_duration(dwell);
    }

    pub(crate) fn note_dispatch_batch(&self, events: u64) {
        self.dispatch_batch.record(events);
    }

    /// Finishes a trace once its last response byte entered the
    /// socket: bumps the endpoint's request counter, records the
    /// end-to-end and per-stage histograms, pushes the trace into the
    /// ring, and emits the structured slow-request line when the
    /// configured threshold is exceeded.
    pub(crate) fn finish(&self, trace: Box<Trace>) {
        let endpoint = trace.endpoint;
        self.requests[endpoint as usize].fetch_add(1, Ordering::Relaxed);
        let stamps = &trace.stamps;
        let Some(accepted) = stamps[Stage::Accepted as usize].get() else {
            return; // loop-local error response: counted, not traced
        };
        let mut prev = accepted;
        let mut stages: Vec<(Stage, Duration)> = Vec::with_capacity(STAGE_COUNT - 1);
        for stage in &Stage::ALL[1..] {
            let Some(at) = stamps[*stage as usize].get() else {
                continue;
            };
            let delta = at.saturating_duration_since(prev);
            self.stage[*stage as usize].record_duration(delta);
            stages.push((*stage, delta));
            prev = at;
        }
        // `prev` is now the last present stamp (`last_byte`), so the
        // collected deltas telescope exactly to `total`.
        let total = prev.saturating_duration_since(accepted);
        self.e2e[endpoint as usize].record_duration(total);
        let slow_ns = self.slow_ns.load(Ordering::Relaxed);
        let slow = slow_ns > 0 && total.as_nanos() as u64 >= slow_ns;
        if slow {
            self.slow_total.fetch_add(1, Ordering::Relaxed);
            log_slow_request(&trace, total, &stages);
        }
        self.ring.read().push(FinishedTrace {
            seq: 0, // assigned by the ring
            endpoint,
            method: trace.method,
            target: trace.target,
            status: trace.status.get(),
            slow,
            total,
            stages,
        });
    }

    /// The `/debug/traces` body: retained traces, most recent first.
    pub fn traces_json(&self) -> Value {
        let ring = self.ring.read();
        Value::object([
            ("ring".to_string(), Value::from(ring.slots.len())),
            ("traces".to_string(), Value::Array(ring.collect())),
        ])
    }
}

/// RAII bump of the `open_connections` gauge, held by each event-loop
/// connection — every way a connection dies (idle sweep, parse error,
/// drain, hard kill, loop exit) drops the `Conn` and with it this
/// guard, so the gauge can never leak.
pub struct OpenConnGuard {
    telemetry: Arc<Telemetry>,
}

impl OpenConnGuard {
    pub(crate) fn new(telemetry: &Arc<Telemetry>) -> Self {
        telemetry.open_connections.fetch_add(1, Ordering::Relaxed);
        Self {
            telemetry: Arc::clone(telemetry),
        }
    }
}

impl Drop for OpenConnGuard {
    fn drop(&mut self) {
        self.telemetry
            .open_connections
            .fetch_sub(1, Ordering::Relaxed);
    }
}

/// One structured line per slow request, greppable by key:
/// `frostd: slow-request endpoint=… status=… total_ms=… stages=…`.
fn log_slow_request(trace: &Trace, total: Duration, stages: &[(Stage, Duration)]) {
    let mut breakdown = String::new();
    for (stage, d) in stages {
        if !breakdown.is_empty() {
            breakdown.push(',');
        }
        breakdown.push_str(stage.name());
        breakdown.push(':');
        breakdown.push_str(&format!("{:.3}", d.as_secs_f64() * 1e3));
    }
    eprintln!(
        "frostd: slow-request endpoint={} method={} target={:?} status={} total_ms={:.3} stages={}",
        trace.endpoint.name(),
        trace.method,
        trace.target,
        trace.status.get(),
        total.as_secs_f64() * 1e3,
        breakdown,
    );
}

// ---------------------------------------------------------------------
// The counter registry: one table, two encoders
// ---------------------------------------------------------------------

/// One sample's value, read once per render.
#[derive(Clone, Copy)]
enum Reading<'a> {
    /// A count or a level.
    Number(f64),
    /// `true`/`false` in `/stats`, `1`/`0` in `/metrics`.
    Flag(bool),
    /// `"primary"`/`"replica"` in `/stats`, `0`/`1` in `/metrics`.
    Role(Role),
    /// A histogram and the factor its recorded values are multiplied
    /// by in `/metrics` (`1e-9` renders nanoseconds as seconds).
    Histogram(&'a Histogram, f64),
}

impl From<u64> for Reading<'_> {
    fn from(n: u64) -> Self {
        Reading::Number(n as f64)
    }
}

/// One sample: its label set, its `/stats` key when `/stats` reports
/// it, and its value.
struct Sample<'a> {
    labels: String,
    stat: Option<&'static str>,
    value: Reading<'a>,
}

/// A metric family: its exposition header and its samples.
struct Family<'a> {
    name: &'static str,
    kind: &'static str,
    help: &'static str,
    samples: Vec<Sample<'a>>,
}

impl<'a> Family<'a> {
    fn sample(
        &mut self,
        labels: impl Into<String>,
        stat: Option<&'static str>,
        value: impl Into<Reading<'a>>,
    ) -> &mut Self {
        self.samples.push(Sample {
            labels: labels.into(),
            stat,
            value: value.into(),
        });
        self
    }
}

/// Everything `frostd` reports about itself, read once from a
/// [`ServerState`]: the one table behind both `GET /stats` (the
/// [`stats_json`](Self::stats_json) encoder) and `GET /metrics` (the
/// [`exposition`](Self::exposition) encoder). Each family's name,
/// kind, help text, labels and `/stats` key is written down here and
/// nowhere else.
pub(crate) struct Registry<'a> {
    families: Vec<Family<'a>>,
}

impl<'a> Registry<'a> {
    fn family(
        &mut self,
        kind: &'static str,
        name: &'static str,
        help: &'static str,
    ) -> &mut Family<'a> {
        self.families.push(Family {
            name,
            kind,
            help,
            samples: Vec::new(),
        });
        self.families.last_mut().expect("just pushed")
    }

    fn counter(&mut self, name: &'static str, help: &'static str) -> &mut Family<'a> {
        self.family("counter", name, help)
    }

    fn gauge(&mut self, name: &'static str, help: &'static str) -> &mut Family<'a> {
        self.family("gauge", name, help)
    }

    fn histogram(&mut self, name: &'static str, help: &'static str) -> &mut Family<'a> {
        self.family("histogram", name, help)
    }

    /// Reads every counter, gauge and histogram of `state`, in
    /// exposition order: counters and gauges first, then histograms.
    pub(crate) fn read(state: &'a ServerState) -> Self {
        let mut r = Registry {
            families: Vec::new(),
        };
        let t: &'a Telemetry = state.telemetry();
        let cache = state.response_cache();
        let ov = state.overload();
        let hub = state.hub();
        let load = |n: &AtomicU64| n.load(Ordering::Relaxed);

        let requests = r.counter(
            "frost_http_requests_total",
            "Responses completed (last byte written), by endpoint.",
        );
        for endpoint in Endpoint::ALL {
            let n = load(&t.requests[endpoint as usize]);
            if n > 0 {
                requests.sample(labels(endpoint), None, n);
            }
        }
        r.counter(
            "frost_http_slow_requests_total",
            "Requests exceeding the --slow-request-ms threshold.",
        )
        .sample("", None, load(&t.slow_total));
        r.counter(
            "frost_connections_accepted_total",
            "Connections accepted since start.",
        )
        .sample("", Some("connections"), state.connections_accepted());
        r.gauge(
            "frost_open_connections",
            "Connections currently open on the event loops.",
        )
        .sample("", Some("open_connections"), t.open_connections() as u64);
        r.counter(
            "frost_admitted_total",
            "Requests admitted: response-cache hits served on the event loop plus requests queued for a worker.",
        )
        .sample("", Some("admitted"), load(&ov.admitted));
        let shed = r.counter("frost_shed_total", "Requests shed with 503, by reason.");
        for (reason, stat, n) in [
            ("queue_full", "shed_queue_full", &ov.shed_queue_full),
            ("deadline", "shed_deadline", &ov.shed_deadline),
            (
                "class_saturated",
                "shed_class_saturated",
                &ov.shed_class_saturated,
            ),
            ("draining", "shed_draining", &ov.shed_draining),
        ] {
            shed.sample(format!("reason=\"{reason}\""), Some(stat), load(n));
        }
        r.counter(
            "frost_deadline_exceeded_total",
            "Responses that finished after their deadline had passed.",
        )
        .sample("", Some("deadline_exceeded"), load(&ov.deadline_exceeded));
        r.counter(
            "frost_method_not_allowed_total",
            "Requests rejected with 405.",
        )
        .sample("", Some("method_not_allowed"), load(&ov.method_not_allowed));
        r.gauge(
            "frost_queue_depth",
            "Requests currently waiting in the dispatch queue.",
        )
        .sample("", Some("queue_depth"), ov.queue_depth());
        let max_depth = ov.queue_max_depth.load(Ordering::Acquire).max(0) as u64;
        r.gauge(
            "frost_queue_max_depth",
            "High-water mark of the dispatch queue.",
        )
        .sample("", Some("queue_max_depth"), max_depth);
        let inflight = r.gauge(
            "frost_inflight_requests",
            "Requests currently being routed, by cost class.",
        );
        for (class, stat, n) in [
            ("cached", "inflight_cached", &ov.inflight_cached),
            ("compute", "inflight_compute", &ov.inflight_compute),
            ("write", "inflight_write", &ov.inflight_write),
        ] {
            let n = n.load(Ordering::Relaxed) as u64;
            inflight.sample(format!("class=\"{class}\""), Some(stat), n);
        }
        let tier = "tier=\"response\"";
        r.counter(
            "frost_cache_hits_total",
            "Result-cache hits, by tier (response = serialized bytes).",
        )
        .sample(tier, Some("response_hits"), cache.hits());
        r.counter("frost_cache_misses_total", "Result-cache misses, by tier.")
            .sample(tier, Some("response_misses"), cache.misses());
        r.gauge("frost_cache_entries", "Live result-cache entries, by tier.")
            .sample(tier, Some("response_entries"), cache.len() as u64);
        r.gauge("frost_cache_bytes", "Tracked result-cache bytes, by tier.")
            .sample(tier, Some("response_cache_bytes"), cache.bytes() as u64);
        r.gauge(
            "frost_cache_generation",
            "Store mutation generation the result cache is stamped with.",
        )
        .sample("", Some("generation"), cache.generation());
        r.counter(
            "frost_json_renders_total",
            "JSON serializations actually performed (cache misses).",
        )
        .sample("", Some("json_renders"), state.json_renders());
        r.gauge(
            "frost_wal_poisoned",
            "1 when a WAL disk failure has poisoned the write path.",
        )
        .sample("", Some("poisoned"), Reading::Flag(state.wal_poisoned()));
        r.gauge(
            "frost_draining",
            "1 while the server is draining for shutdown.",
        )
        .sample("", None, Reading::Flag(state.is_draining()));

        let lag = hub.lag();
        let (_, applied_offset, applied_records) = hub.position();
        r.gauge(
            "frost_replication_role",
            "Replication role: 0 = primary, 1 = replica.",
        )
        .sample("", Some("role"), Reading::Role(hub.role()));
        r.gauge(
            "frost_replication_applied_offset_bytes",
            "Durable WAL length of this node (the offset replicas poll from).",
        )
        .sample("", None, applied_offset);
        r.gauge(
            "frost_replication_applied_records",
            "WAL records in this node's durable prefix.",
        )
        .sample("", None, applied_records);
        r.gauge(
            "frost_replication_lag_bytes",
            "WAL bytes the primary has that this replica has not applied (0 on a primary).",
        )
        .sample("", None, lag.bytes);
        r.gauge(
            "frost_replication_lag_records",
            "WAL records the primary has that this replica has not applied (0 on a primary).",
        )
        .sample("", None, lag.records);
        r.gauge(
            "frost_replication_lag_seconds",
            "Seconds since this replica last matched the primary's WAL length (0-ish when caught up).",
        )
        .sample("", None, Reading::Number(lag.ms as f64 / 1000.0));
        r.gauge(
            "frost_replication_connected",
            "1 while the replica's last poll of its primary succeeded.",
        )
        .sample("", None, Reading::Flag(hub.connected()));
        r.counter(
            "frost_replication_polls_total",
            "Replication WAL polls served to replicas.",
        )
        .sample("", None, hub.polls());
        r.counter(
            "frost_replication_streamed_bytes_total",
            "WAL and snapshot payload bytes streamed to replicas.",
        )
        .sample("", None, hub.streamed_bytes());
        r.counter(
            "frost_replication_sync_timeouts_total",
            "Semi-sync writes answered 503 because no replica acknowledged in time.",
        )
        .sample("", None, hub.sync_timeouts());

        let e2e = r.histogram(
            "frost_http_request_duration_seconds",
            "End-to-end request latency (accepted to last byte), by endpoint.",
        );
        for endpoint in Endpoint::ALL {
            let h = &t.e2e[endpoint as usize];
            if h.count() > 0 {
                e2e.sample(labels(endpoint), None, Reading::Histogram(h, 1e-9));
            }
        }
        let stages = r.histogram(
            "frost_http_stage_duration_seconds",
            "Duration of each request lifecycle stage (see /debug/traces glossary).",
        );
        for stage in &Stage::ALL[1..] {
            let h = &t.stage[*stage as usize];
            stages.sample(
                format!("stage=\"{}\"", stage.name()),
                None,
                Reading::Histogram(h, 1e-9),
            );
        }
        r.histogram(
            "frost_wal_append_duration_seconds",
            "WAL frame append (write) duration.",
        )
        .sample("", None, Reading::Histogram(&t.wal.append, 1e-9));
        r.histogram("frost_wal_fsync_duration_seconds", "WAL fsync duration.")
            .sample("", None, Reading::Histogram(&t.wal.fsync, 1e-9));
        r.histogram(
            "frost_event_loop_poll_dwell_seconds",
            "Wall time spent inside each poll(2) call.",
        )
        .sample("", None, Reading::Histogram(&t.poll_dwell, 1e-9));
        r.histogram(
            "frost_event_loop_dispatch_batch",
            "Events handled per event-loop wake (adoptions + completions + readiness).",
        )
        .sample("", None, Reading::Histogram(&t.dispatch_batch, 1.0));
        r
    }

    /// The `/stats` JSON object: every sample that has a `/stats` key
    /// (object keys render sorted).
    pub(crate) fn stats_json(&self) -> String {
        let entries = self.families.iter().flat_map(|f| &f.samples);
        let entries = entries.filter_map(|s| {
            let key = s.stat?;
            let value = match s.value {
                Reading::Number(n) => Value::from(n),
                Reading::Flag(b) => Value::from(b),
                Reading::Role(Role::Primary) => Value::from("primary"),
                Reading::Role(Role::Replica) => Value::from("replica"),
                Reading::Histogram(..) => return None,
            };
            Some((key.to_string(), value))
        });
        serde_json::to_string(&Value::object(entries))
    }

    /// The Prometheus text exposition: each family's `# HELP`/`# TYPE`
    /// header directly followed by its samples.
    pub(crate) fn exposition(&self) -> String {
        let mut out = String::with_capacity(8 * 1024);
        for f in &self.families {
            write_family(&mut out, f.name, f.kind, f.help);
            for s in &f.samples {
                let value = match s.value {
                    Reading::Number(n) => n,
                    Reading::Flag(b) => f64::from(u8::from(b)),
                    Reading::Role(role) => f64::from(u8::from(role == Role::Replica)),
                    Reading::Histogram(h, unit) => {
                        write_histogram(&mut out, f.name, &s.labels, h, unit);
                        continue;
                    }
                };
                write_sample(&mut out, f.name, &s.labels, value);
            }
        }
        out
    }
}

/// Appends a `# HELP` + `# TYPE` family header.
fn write_family(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help);
    out.push_str("\n# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Appends one `name{labels} value` sample line (`labels` may be
/// empty; values render integrally when integral).
fn write_sample(out: &mut String, name: &str, labels: &str, value: f64) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        out.push_str(labels);
        out.push('}');
    }
    out.push(' ');
    if value.fract() == 0.0 && value.abs() < 9e15 {
        out.push_str(&format!("{}", value as i64));
    } else {
        out.push_str(&format!("{value}"));
    }
    out.push('\n');
}

/// Appends one histogram's `_bucket`/`_sum`/`_count` samples.
/// Recorded values are multiplied by `unit` (pass `1e-9` for
/// nanosecond histograms rendered as seconds, `1.0` for unitless
/// ones). Only non-empty buckets plus the mandatory `+Inf` bucket are
/// emitted — cumulative `le` semantics make that a valid (and
/// compact) exposition.
fn write_histogram(out: &mut String, name: &str, labels: &str, h: &Histogram, unit: f64) {
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cumulative = 0u64;
    for (upper, count) in h.nonzero_buckets() {
        cumulative += count;
        let le = upper as f64 * unit;
        out.push_str(name);
        out.push_str("_bucket{");
        out.push_str(labels);
        out.push_str(sep);
        out.push_str(&format!("le=\"{le}\"}} {cumulative}\n"));
    }
    out.push_str(name);
    out.push_str("_bucket{");
    out.push_str(labels);
    out.push_str(sep);
    out.push_str(&format!("le=\"+Inf\"}} {}\n", h.count()));
    write_sample(out, &format!("{name}_sum"), labels, h.sum() as f64 * unit);
    write_sample(out, &format!("{name}_count"), labels, h.count() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_deltas_telescope_to_total() {
        let telemetry = Telemetry::new(Arc::default());
        let t0 = Instant::now();
        let trace = Trace::begin("GET", "/datasets", Endpoint::Datasets, t0);
        trace.stamp_at(Stage::HeadComplete, t0 + Duration::from_micros(10));
        trace.stamp_at(Stage::Admitted, t0 + Duration::from_micros(12));
        trace.stamp_at(Stage::CacheProbe, t0 + Duration::from_micros(40));
        trace.stamp_at(Stage::Serialized, t0 + Duration::from_micros(90));
        trace.stamp_at(Stage::FirstByte, t0 + Duration::from_micros(120));
        trace.stamp_at(Stage::LastByte, t0 + Duration::from_micros(120));
        trace.set_status(200);
        telemetry.finish(trace);
        assert_eq!(
            telemetry.requests[Endpoint::Datasets as usize].load(Ordering::Relaxed),
            1
        );
        assert_eq!(telemetry.e2e[Endpoint::Datasets as usize].count(), 1);
        let traces = telemetry.traces_json();
        let entries = traces.get("traces").and_then(Value::as_array).unwrap();
        assert_eq!(entries.len(), 1);
        let total = entries[0].get("total_ns").and_then(Value::as_f64).unwrap();
        let stage_sum: f64 = entries[0]
            .get("stages")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|s| s.get("ns").and_then(Value::as_f64).unwrap())
            .sum();
        assert_eq!(total, 120_000.0);
        assert_eq!(stage_sum, total, "stage deltas must telescope exactly");
    }

    #[test]
    fn ring_keeps_only_the_last_n() {
        let telemetry = Telemetry::new(Arc::default());
        telemetry.configure(true, None, 4);
        for i in 0..10 {
            let t0 = Instant::now();
            let trace = Trace::begin("GET", &format!("/stats?i={i}"), Endpoint::Stats, t0);
            trace.stamp_at(Stage::LastByte, t0 + Duration::from_micros(i));
            telemetry.finish(trace);
        }
        let traces = telemetry.traces_json();
        let entries = traces.get("traces").and_then(Value::as_array).unwrap();
        assert_eq!(entries.len(), 4);
        let newest = entries[0].get("seq").and_then(Value::as_f64).unwrap();
        assert_eq!(newest, 9.0, "most recent trace first");
    }

    #[test]
    fn open_connection_gauge_balances() {
        let telemetry = Arc::new(Telemetry::new(Arc::default()));
        let a = OpenConnGuard::new(&telemetry);
        let b = OpenConnGuard::new(&telemetry);
        assert_eq!(telemetry.open_connections(), 2);
        drop(a);
        assert_eq!(telemetry.open_connections(), 1);
        drop(b);
        assert_eq!(telemetry.open_connections(), 0);
    }

    #[test]
    fn histogram_exposition_is_cumulative() {
        let h = Histogram::new(5);
        h.record(10);
        h.record(10);
        h.record(1_000);
        let mut out = String::new();
        write_histogram(&mut out, "x_seconds", "k=\"v\"", &h, 1e-9);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "x_seconds_bucket{k=\"v\",le=\"0.00000001\"} 2");
        assert!(out.contains("le=\"+Inf\"} 3"));
        assert!(out.contains("x_seconds_count{k=\"v\"} 3"));
    }
}
