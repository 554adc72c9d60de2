//! The overload policy: who is admitted, who is shed and why, and
//! when the server reports itself ready.
//!
//! Admission runs in the event loop (a bounded dispatch queue, a
//! request deadline) and in the workers (per-class concurrency gates):
//! `RequestContext::evaluate` is the one path the expensive part of
//! every request takes. Every shed is counted by `OverloadStats::shed`
//! and answered with one of the canned `503`s. The counters feed
//! `/stats`, `/metrics` and the shed-rate window behind `/readyz`.

use crate::http::{ServeOptions, ServerState};
use crate::response::{json_response, CachedResponse};
use crate::route::Class;
use crate::telemetry::{Stage, Trace};
use serde_json::Value;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// `Retry-After` seconds advertised on every shed (`503`) response.
pub const RETRY_AFTER_SECS: u64 = 1;

/// Sliding-window length for the recent shed rate `/readyz` reports.
const SHED_WINDOW_SECS: u64 = 8;

/// Minimum admission events in the window before the shed rate can
/// flip `/readyz` — a single early shed must not mark a quiet server
/// unready.
const READY_MIN_WINDOW_EVENTS: u64 = 16;

/// `/readyz` flips to not-ready when the recent shed rate (sheds /
/// admission events over the last [`SHED_WINDOW_SECS`] seconds)
/// exceeds this.
const SHED_READY_THRESHOLD: f64 = 0.9;

/// Why a request (or connection) was shed with a `503`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The dispatch queue was full: a new connection, answered before
    /// its event loop read a byte of it, or a parsed request the
    /// response cache could not answer.
    QueueFull,
    /// The request's deadline expired before evaluation could start
    /// (queue wait, slow arrival, or a saturated class gate).
    Deadline,
    /// The request's cost class was at its concurrency limit and no
    /// permit freed up within the allowed wait.
    ClassSaturated,
    /// The server is draining for shutdown; queued-but-unstarted
    /// requests and connections accepted during the drain are answered
    /// instead of silently dropped.
    Draining,
}

impl ShedReason {
    /// Every reason, in declaration order (the canned responses'
    /// index).
    pub(crate) const ALL: [ShedReason; 4] = [
        ShedReason::QueueFull,
        ShedReason::Deadline,
        ShedReason::ClassSaturated,
        ShedReason::Draining,
    ];

    /// The `error` text of this reason's canned `503`.
    pub(crate) fn message(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "server overloaded: admission queue full",
            ShedReason::Deadline => "request deadline exceeded before evaluation",
            ShedReason::ClassSaturated => "server overloaded: request class saturated",
            ShedReason::Draining => "server draining: connection not served",
        }
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

/// The shed-window clock's epoch: when the counters were created
/// (server start).
struct Started(Instant);

impl Default for Started {
    fn default() -> Self {
        Self(Instant::now())
    }
}

/// Overload counters surfaced by `/stats`, `/metrics` and `/readyz`.
/// All atomics: the hot path only ever pays relaxed increments.
#[derive(Default)]
pub struct OverloadStats {
    pub(crate) queue_depth: AtomicI64,
    /// High-water mark of `queue_depth`.
    pub(crate) queue_max_depth: AtomicI64,
    pub(crate) admitted: AtomicU64,
    pub(crate) shed_queue_full: AtomicU64,
    pub(crate) shed_deadline: AtomicU64,
    pub(crate) shed_class_saturated: AtomicU64,
    pub(crate) shed_draining: AtomicU64,
    /// Requests that saw their deadline pass: shed before evaluation,
    /// or found late after it.
    pub(crate) deadline_exceeded: AtomicU64,
    /// `405` answers, counted only after the deadline check.
    pub(crate) method_not_allowed: AtomicU64,
    /// Requests being served per class (compute and write: while
    /// holding their class permit).
    pub(crate) inflight_cached: AtomicUsize,
    pub(crate) inflight_compute: AtomicUsize,
    pub(crate) inflight_write: AtomicUsize,
    window: [WindowSlot; SHED_WINDOW_SECS as usize],
    started: Started,
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
    pub(crate) fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Acquire).max(0) as u64
    }

    pub(crate) fn note_method_not_allowed(&self) {
        self.method_not_allowed.fetch_add(1, Ordering::Relaxed);
    }

    fn now_secs(&self) -> u64 {
        self.started.0.elapsed().as_secs()
    }

    /// The current second's window slot, reset if it last counted
    /// another second.
    fn slot(&self) -> &WindowSlot {
        let secs = self.now_secs();
        let slot = &self.window[(secs % SHED_WINDOW_SECS) as usize];
        if slot.epoch.swap(secs, Ordering::Relaxed) != secs {
            slot.admitted.store(0, Ordering::Relaxed);
            slot.shed.store(0, Ordering::Relaxed);
        }
        slot
    }

    /// Counts one admitted request (a response-tier hit, or a request
    /// handed to the workers).
    pub(crate) fn note_admitted(&self) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
        self.slot().admitted.fetch_add(1, Ordering::Relaxed);
    }

    /// The one shed call: counts `reason` (a deadline shed is also a
    /// deadline exceeded) and marks the request's trace `503`. The
    /// caller then writes the reason's canned response.
    pub(crate) fn shed(&self, reason: ShedReason, trace: Option<&Trace>) {
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
        self.slot().shed.fetch_add(1, Ordering::Relaxed);
        if let Some(trace) = trace {
            trace.set_status(503);
        }
    }

    /// A deadline that expired *during* an already-admitted
    /// evaluation: the response is still served (work is never
    /// cancelled mid-compute), but the lateness is counted.
    pub(crate) fn note_deadline_late(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// The shed rate over the trailing window, or `0.0` while the
    /// window holds too few events to be meaningful.
    pub fn recent_shed_rate(&self) -> f64 {
        let now_secs = self.now_secs();
        let (mut shed, mut total) = (0, 0);
        for slot in &self.window {
            let epoch = slot.epoch.load(Ordering::Relaxed);
            if epoch + SHED_WINDOW_SECS > now_secs && epoch <= now_secs {
                let s = slot.shed.load(Ordering::Relaxed);
                shed += s;
                total += s + slot.admitted.load(Ordering::Relaxed);
            }
        }
        if total < READY_MIN_WINDOW_EVENTS {
            0.0
        } else {
            shed as f64 / total as f64
        }
    }

    pub(crate) fn gauge(&self, class: Class) -> &AtomicUsize {
        match class {
            Class::Cached => &self.inflight_cached,
            Class::Compute => &self.inflight_compute,
            Class::Write => &self.inflight_write,
        }
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
/// The compute class (`/compare`, `/diagram`, `/venn` misses) gets
/// half the workers, so expensive sweeps cannot occupy every worker
/// and starve cheap requests; the write class (`POST`/`DELETE`) gets a
/// quarter, bounding writers waiting on the serialized write path.
/// Cache hits never reach a gate: a saturated class degrades to
/// serving cached bodies, not to shedding them.
pub(crate) struct ClassGates {
    compute: Gate,
    write: Gate,
}

impl ClassGates {
    pub(crate) fn for_workers(workers: usize) -> Self {
        let workers = workers.max(1);
        Self {
            compute: Gate::new(workers / 2),
            write: Gate::new(workers / 4),
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
pub(crate) struct GaugeGuard<'a>(&'a AtomicUsize);

impl<'a> GaugeGuard<'a> {
    pub(crate) fn new(gauge: &'a AtomicUsize) -> Self {
        gauge.fetch_add(1, Ordering::Relaxed);
        Self(gauge)
    }
}

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Per-request routing context: the request's class gate and absolute
/// deadline (when configured).
pub(crate) struct RequestContext<'a> {
    pub(crate) options: &'a ServeOptions,
    pub(crate) gates: &'a ClassGates,
    /// The resolved endpoint's cost class.
    pub(crate) class: Class,
    pub(crate) deadline: Option<Instant>,
    /// The request's lifecycle trace, when telemetry is on.
    pub(crate) trace: Option<&'a Trace>,
}

impl RequestContext<'_> {
    /// The one path the expensive part of every request takes: acquire
    /// the class's concurrency permit ([`Class::Cached`] has no gate),
    /// re-check the deadline, run `work`, stamp `evaluated`. `Err` =
    /// shed: the class stayed saturated for the whole allowed wait
    /// (the remaining deadline, or one idle timeout when deadlines are
    /// off), or the deadline passed while waiting.
    pub(crate) fn evaluate<T>(&self, work: impl FnOnce() -> T) -> Result<T, ShedReason> {
        let gate = match self.class {
            Class::Cached => None,
            Class::Compute => Some(&self.gates.compute),
            Class::Write => Some(&self.gates.write),
        };
        let _permit = match gate {
            Some(gate) => {
                let wait = match self.deadline {
                    Some(d) => d.saturating_duration_since(Instant::now()),
                    None => self.options.idle_timeout,
                };
                if !gate.acquire(wait) {
                    return Err(ShedReason::ClassSaturated);
                }
                if let Some(trace) = self.trace {
                    trace.stamp(Stage::GateAcquired);
                }
                Some(Permit { gate })
            }
            None => None,
        };
        if self.deadline.is_some_and(|d| Instant::now() > d) {
            return Err(ShedReason::Deadline);
        }
        let out = work();
        if let Some(trace) = self.trace {
            trace.stamp(Stage::Evaluated);
        }
        Ok(out)
    }
}

/// The `/readyz` body + status: ready (200) only while the store is
/// loaded, the WAL has not been poisoned by a disk failure, and the
/// recent shed rate is below the configured threshold.
pub(crate) fn readyz_response(state: &ServerState, options: &ServeOptions) -> CachedResponse {
    let poisoned = state.wal_poisoned();
    let shed_rate = state.overload().recent_shed_rate();
    let draining = state.is_draining();
    let hub = state.hub();
    let is_replica = !hub.is_primary();
    let role = if is_replica { "replica" } else { "primary" };
    let lag = hub.lag();
    // The lag gate takes a stale replica out of rotation; primaries
    // (lag zero by definition) are never gated by it.
    let lag_exceeded = is_replica
        && options
            .max_replica_lag
            .is_some_and(|max_ms| lag.ms > max_ms);
    let ready = !poisoned && !draining && !lag_exceeded && shed_rate <= SHED_READY_THRESHOLD;
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
    json_response(if ready { 200 } else { 503 }, body)
}
