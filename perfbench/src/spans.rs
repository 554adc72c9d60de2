//! In-memory spans for the traced run, their self time, and simple
//! sample statistics.
//!
//! A span has a name, a start and an end (ns since the recorder's
//! epoch), a parent and a trace id. Spans stay in memory and are
//! written out once, when the run ends. A span's self time is its
//! duration minus the part of it that its children cover.

use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub trace: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans from any thread.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &str,
        trace: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            trace,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Runs `f` inside a span; returns its result and the span id.
    /// Children record themselves with the returned id as parent, so
    /// the id is reserved before `f` runs.
    pub fn time<R>(
        &self,
        name: &str,
        trace: u64,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.reserve(name, trace, parent);
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        self.finish(id, start, end);
        out
    }

    fn reserve(&self, name: &str, trace: u64, parent: Option<u64>) -> u64 {
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            trace,
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
        });
        id
    }

    fn finish(&self, id: u64, start: Instant, end: Instant) {
        let (s, e) = (self.ns(start), self.ns(end));
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        let span = &mut spans[id as usize - 1];
        span.start_ns = s;
        span.end_ns = e;
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }
}

/// Per span name: count, total, self time and the p50 of durations.
pub struct NameStats {
    pub count: usize,
    pub total_ms: f64,
    pub self_ms: f64,
    pub p50_us: f64,
}

/// Aggregates spans by name, with self time = duration minus the union
/// of the children's intervals (clipped to the parent).
pub fn by_name(spans: &[Span]) -> BTreeMap<String, NameStats> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut durations: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut out: BTreeMap<String, NameStats> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let e = out.entry(s.name.clone()).or_insert(NameStats {
            count: 0,
            total_ms: 0.0,
            self_ms: 0.0,
            p50_us: 0.0,
        });
        e.count += 1;
        e.total_ms += dur as f64 / 1e6;
        e.self_ms += dur.saturating_sub(covered) as f64 / 1e6;
        durations
            .entry(s.name.clone())
            .or_default()
            .push(dur as f64 / 1e3);
    }
    for (name, mut d) in durations {
        if let Some(e) = out.get_mut(&name) {
            e.p50_us = quantile(&mut d, 0.5);
        }
    }
    out
}

/// The span a `frostd` lifecycle stage becomes in a traced run, named
/// after the layer that does the work of the interval ending there.
pub fn server_stage_span(stage: &str) -> &'static str {
    match stage {
        "head_complete" => "server.http.parse",
        "admitted" => "server.event_loop.dispatch",
        "cache_probe" => "server.cache.handoff_and_probe",
        "gate_acquired" => "server.http.gate_wait",
        "evaluated" => "server.store.evaluate",
        "serialized" => "server.json.serialize",
        "first_byte" => "server.event_loop.write_back",
        "last_byte" => "server.http.write",
        _ => "server.other",
    }
}

/// The layer (module) a span's time belongs to.
pub fn layer_of(name: &str) -> &'static str {
    if let Some(rest) = name.strip_prefix("server.") {
        return match rest.split('.').next() {
            Some("http") => "http",
            Some("event_loop") => "event_loop",
            Some("cache") => "cache",
            Some("store") => "store",
            Some("json") => "json",
            _ => "server",
        };
    }
    match name {
        n if n.starts_with("client.") => "client",
        n if n.starts_with("op.") || n.starts_with("probe.") => "benchmark",
        n if n.starts_with("replica.") => "replication",
        "RequestBuffer::next_request" => "http",
        n if n.starts_with("ShardedCache::") => "cache",
        n if n.starts_with("json::") => "json",
        "BenchmarkStore::diagram_series" => "diagram",
        "BenchmarkStore::confusion_matrix" => "metrics",
        n if n.starts_with("venn_regions.") => "dataset",
        "choose_pair_engine" | "Experiment::roaring_pair_set" => "dataset",
        "Clustering::from_experiment" => "clustering",
        "api::parse_experiment_csv" => "import",
        "DurableStore::compact" => "durable",
        "DurableStore::open" => "store",
        "DurableStore::read_wal" | "WalOp::apply" => "replication",
        n if n.starts_with("DurableStore::") => "wal",
        _ => "store",
    }
}

pub fn to_json(spans: &[Span]) -> Value {
    Value::Array(
        spans
            .iter()
            .map(|s| {
                Value::object([
                    ("id".to_string(), Value::from(s.id)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Value::Null, Value::from),
                    ),
                    ("trace".to_string(), Value::from(s.trace)),
                    ("name".to_string(), Value::from(s.name.as_str())),
                    ("layer".to_string(), Value::from(layer_of(&s.name))),
                    ("start_ns".to_string(), Value::from(s.start_ns)),
                    ("end_ns".to_string(), Value::from(s.end_ns)),
                ])
            })
            .collect(),
    )
}

/// The `q` quantile (nearest rank) of `values`, 0 when empty. Sorts in place.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    quantile(&mut v, 0.5)
}
