//! The route table: which endpoint a request is, decided once, and
//! everything that follows from the endpoint — its handler, cost
//! class, telemetry label, cache key and invalidation scopes, and
//! whether a write appends to the WAL.
//!
//! The event loop calls [`resolve`] once, when a request head
//! completes, and the request's trace carries its [`Endpoint`] as the
//! `endpoint`/`class` label pair of `/metrics` and `/debug/traces`.
//! A cacheable read is then probed once, on the event thread, by
//! [`serve_hit`]: a hit is answered there, with only the cache key
//! built. Everything else — a miss, a bad parameter, a non-read —
//! rides the dispatch queue to a worker, which answers with [`route`]
//! and never probes the response tier itself. Neither does transport work: a resolved request in,
//! a serialized response (or a shed) out.
//!
//! # Endpoints
//!
//! `Endpoint::row` is the table of each endpoint's method, path,
//! label and cost class; the README's endpoint tables add the
//! parameters. Reads are cached under the scopes they read
//! (`sys:datasets`, `sys:experiments`, `ds:<D>`, or `exp:<E>` per
//! experiment); writes bump `exp:<N>` and `sys:experiments`. A request
//! no route serves is `other`: `404` on `GET`, `405` otherwise. The
//! `cached` class is never gated; `compute` and `write` take a permit
//! of their class gate, and only on a cache miss.

use crate::http::ServerState;
use crate::json;
use crate::overload::{self, GaugeGuard, RequestContext, ShedReason};
use crate::replication;
use crate::request::ParsedRequest;
use crate::response::{
    encode, entity_tag, error_body, json_response, revalidate, CachedResponse, CONTENT_TYPE_JSON,
    CONTENT_TYPE_PROMETHEUS,
};
use crate::telemetry::{Registry, Stage, Trace};
use frost_core::diagram::{DiagramEngine, MAX_DIAGRAM_SAMPLES, MAX_NAIVE_DIAGRAM_SAMPLES};
use frost_core::metrics::PairMetric;
use frost_storage::api::{self, RatioKind, Request};
use frost_storage::store::StoreError;
use serde_json::Value;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// How long a semi-sync (`--sync-replication`) write waits for a
/// replica to prove it durable before answering `503` (the write stays
/// durable locally either way).
const SYNC_ACK_TIMEOUT: Duration = Duration::from_secs(5);

/// Endpoint cost classes: each is gated independently so one class
/// cannot starve another (compute gets half the workers, writes a
/// quarter; see `overload::ClassGates`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Cheap GETs (cache probes, listings, health, stats) — never
    /// gated; bounded by the worker pool itself.
    Cached,
    /// Compute-heavy GETs: `/compare`, `/diagram`, `/venn` (and the
    /// test-only `/debug/*` load endpoints).
    Compute,
    /// Mutating requests.
    Write,
}

impl Class {
    /// The `class` label value.
    pub fn name(self) -> &'static str {
        match self {
            Class::Cached => "cached",
            Class::Compute => "compute",
            Class::Write => "write",
        }
    }
}

/// The bounded endpoint label set request metrics are keyed by. Every
/// request resolves to exactly one endpoint (anything unrouted is
/// [`Endpoint::Other`]), and each endpoint has one cost class — so
/// `endpoint × class` label pairs stay bounded no matter what clients
/// send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    Datasets = 0,
    Experiments = 1,
    Profile = 2,
    Matrix = 3,
    /// `/metrics?experiment=<E>` — the evaluation-metrics API (the
    /// bare `/metrics` is [`Endpoint::Prometheus`]).
    Metrics = 4,
    Diagram = 5,
    Compare = 6,
    Venn = 7,
    ClusterMetrics = 8,
    Ratios = 9,
    Errors = 10,
    Quality = 11,
    Stats = 12,
    Healthz = 13,
    Readyz = 14,
    /// `GET /metrics` without an `experiment` query key: the
    /// Prometheus exposition.
    Prometheus = 15,
    /// `GET /debug/traces`.
    Traces = 16,
    /// The test-only `/debug/*` load endpoints.
    Debug = 17,
    /// `POST /experiments` (CSV import).
    Import = 18,
    /// `DELETE /experiments/<name>`.
    Delete = 19,
    /// `POST /snapshot/save`.
    Snapshot = 20,
    Other = 21,
    /// `GET /replication/wal` — the replica long-poll WAL stream.
    ReplicationWal = 22,
    /// `GET /replication/snapshot` — the replica bootstrap download.
    ReplicationSnapshot = 23,
    /// `POST /replication/promote` — the explicit failover trigger.
    Promote = 24,
}

/// Number of [`Endpoint`]s.
pub const ENDPOINT_COUNT: usize = 25;

/// One row of the route table.
struct Row {
    method: &'static str,
    /// The exact path, or — ending in `/` — a prefix the rest of
    /// which names the resource.
    path: &'static str,
    name: &'static str,
    class: Class,
}

impl Endpoint {
    /// Every endpoint, in index order — also the order [`resolve`]
    /// tries them in.
    pub const ALL: [Endpoint; ENDPOINT_COUNT] = [
        Endpoint::Datasets,
        Endpoint::Experiments,
        Endpoint::Profile,
        Endpoint::Matrix,
        Endpoint::Metrics,
        Endpoint::Diagram,
        Endpoint::Compare,
        Endpoint::Venn,
        Endpoint::ClusterMetrics,
        Endpoint::Ratios,
        Endpoint::Errors,
        Endpoint::Quality,
        Endpoint::Stats,
        Endpoint::Healthz,
        Endpoint::Readyz,
        Endpoint::Prometheus,
        Endpoint::Traces,
        Endpoint::Debug,
        Endpoint::Import,
        Endpoint::Delete,
        Endpoint::Snapshot,
        Endpoint::Other,
        Endpoint::ReplicationWal,
        Endpoint::ReplicationSnapshot,
        Endpoint::Promote,
    ];

    /// The route table: method, path, label and cost class of every
    /// endpoint, and the only place a route path is written down.
    fn row(self) -> Row {
        use Class::{Cached, Compute, Write};
        let (method, path, name, class) = match self {
            Endpoint::Datasets => ("GET", "/datasets", "datasets", Cached),
            Endpoint::Experiments => ("GET", "/experiments", "experiments", Cached),
            Endpoint::Profile => ("GET", "/profile", "profile", Cached),
            Endpoint::Matrix => ("GET", "/matrix", "matrix", Cached),
            Endpoint::Metrics => ("GET", "/metrics", "metrics", Cached),
            Endpoint::Diagram => ("GET", "/diagram", "diagram", Compute),
            Endpoint::Compare => ("GET", "/compare", "compare", Compute),
            Endpoint::Venn => ("GET", "/venn", "venn", Compute),
            Endpoint::ClusterMetrics => ("GET", "/cluster-metrics", "cluster_metrics", Cached),
            Endpoint::Ratios => ("GET", "/ratios", "ratios", Cached),
            Endpoint::Errors => ("GET", "/errors", "errors", Cached),
            Endpoint::Quality => ("GET", "/quality", "quality", Cached),
            Endpoint::Stats => ("GET", "/stats", "stats", Cached),
            Endpoint::Healthz => ("GET", "/healthz", "healthz", Cached),
            Endpoint::Readyz => ("GET", "/readyz", "readyz", Cached),
            Endpoint::Prometheus => ("GET", "/metrics", "prometheus", Cached),
            Endpoint::Traces => ("GET", "/debug/traces", "traces", Cached),
            Endpoint::Debug => ("GET", "/debug/", "debug", Compute),
            Endpoint::Import => ("POST", "/experiments", "import", Write),
            Endpoint::Delete => ("DELETE", "/experiments/", "delete", Write),
            Endpoint::Snapshot => ("POST", "/snapshot/save", "snapshot", Write),
            Endpoint::Other => ("", "", "other", Cached),
            Endpoint::ReplicationWal => ("GET", "/replication/wal", "replication_wal", Cached),
            Endpoint::ReplicationSnapshot => (
                "GET",
                "/replication/snapshot",
                "replication_snapshot",
                Cached,
            ),
            Endpoint::Promote => ("POST", "/replication/promote", "promote", Write),
        };
        Row {
            method,
            path,
            name,
            class,
        }
    }

    /// The path this endpoint is served at (a prefix ending in `/` for
    /// `Delete` and `Debug`).
    pub(crate) fn path(self) -> &'static str {
        self.row().path
    }

    /// The `endpoint` label value.
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// The cost class: which gate a cache miss waits on, and the
    /// `class` label value.
    pub fn class(self) -> Class {
        self.row().class
    }

    /// Whether a successful request appends one WAL record — what a
    /// semi-sync (`--sync-replication`) write waits on a replica for.
    pub(crate) fn appends_wal(self) -> bool {
        matches!(self, Endpoint::Import | Endpoint::Delete)
    }

    /// Whether this is a cacheable API read: answered from the
    /// response tier when its key is there.
    fn is_read(self) -> bool {
        matches!(
            self,
            Endpoint::Datasets
                | Endpoint::Experiments
                | Endpoint::Profile
                | Endpoint::Matrix
                | Endpoint::Metrics
                | Endpoint::Diagram
                | Endpoint::Compare
                | Endpoint::Venn
                | Endpoint::ClusterMetrics
                | Endpoint::Ratios
                | Endpoint::Errors
                | Endpoint::Quality
        )
    }

    /// Whether this endpoint serves `method` on the decoded `path`.
    fn serves(self, method: &str, path: &str) -> bool {
        let row = self.row();
        let on_path = if row.path.ends_with('/') {
            path.len() > row.path.len() && path.starts_with(row.path)
        } else {
            path == row.path
        };
        on_path && method == row.method
    }
}

/// A request target, percent-decoded into one buffer: one allocation
/// for the text and one for the parameter offsets, however many
/// parameters there are.
pub(crate) struct Target {
    /// The path, then each query key and its value, back to back.
    text: String,
    path_end: usize,
    /// Where each key and its value end in `text`, in request order.
    ends: Vec<(usize, usize)>,
}

impl Target {
    fn decode(target: &str) -> Target {
        let (path, query) = target.split_once('?').unwrap_or((target, ""));
        let mut text = Vec::with_capacity(target.len());
        percent_decode_into(path, &mut text);
        let path_end = text.len();
        let mut ends = Vec::new();
        for kv in query.split('&').filter(|kv| !kv.is_empty()) {
            let (key, value) = kv.split_once('=').unwrap_or((kv, ""));
            percent_decode_into(key, &mut text);
            let key_end = text.len();
            percent_decode_into(value, &mut text);
            ends.push((key_end, text.len()));
        }
        Target {
            text: String::from_utf8(text).expect("every decoded part is UTF-8"),
            path_end,
            ends,
        }
    }

    fn path(&self) -> &str {
        &self.text[..self.path_end]
    }

    /// The `(key, value)` pairs, in request order.
    fn params(&self) -> impl Iterator<Item = (&str, &str)> {
        let mut start = self.path_end;
        self.ends.iter().map(move |&(key_end, end)| {
            let pair = (&self.text[start..key_end], &self.text[key_end..end]);
            start = end;
            pair
        })
    }

    /// The first value of `key`.
    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        self.params().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    fn required(&self, key: &str) -> Result<&str, (u16, String)> {
        self.get(key)
            .filter(|v| !v.is_empty())
            .ok_or_else(|| (400, error_body(&format!("missing query parameter {key:?}"))))
    }

    /// The value of `key` (`default` when absent) through `parse`; a
    /// value it refuses is the `400` to answer.
    pub(crate) fn parse<T>(
        &self,
        key: &str,
        default: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<T, (u16, String)> {
        let raw = self.get(key).unwrap_or(default);
        parse(raw).ok_or_else(|| (400, error_body(&format!("bad {key} value {raw:?}"))))
    }
}

/// Appends `s` percent-decoded (`+` is a space) to `out`; a part that
/// decodes to invalid UTF-8 is appended lossily.
fn percent_decode_into(s: &str, out: &mut Vec<u8>) {
    if !s.contains(['%', '+']) {
        out.extend_from_slice(s.as_bytes());
        return;
    }
    let start = out.len();
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => {
                // Exactly two hex digits: `from_str_radix` would also
                // take a sign (`%+4`).
                let digit = |at: usize| bytes.get(at).and_then(|&b| char::from(b).to_digit(16));
                match (digit(i + 1), digit(i + 2)) {
                    (Some(high), Some(low)) => {
                        out.push((high * 16 + low) as u8);
                        i += 2;
                    }
                    _ => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    if std::str::from_utf8(&out[start..]).is_err() {
        let lossy = String::from_utf8_lossy(&out[start..]).into_owned();
        out.truncate(start);
        out.extend_from_slice(lossy.as_bytes());
    }
}

/// A resolved request: its endpoint plus the percent-decoded target
/// the handler reads.
pub(crate) struct Route {
    endpoint: Endpoint,
    target: Target,
}

impl Route {
    /// The endpoint the request resolved to.
    pub(crate) fn endpoint(&self) -> Endpoint {
        self.endpoint
    }

    /// What follows a prefix route's path: the experiment a `DELETE`
    /// removes, the `/debug/` operation. Empty on exact routes.
    fn tail(&self) -> &str {
        let path = self.target.path();
        path.get(self.endpoint.path().len()..).unwrap_or("")
    }
}

/// Resolves a request line to its [`Route`]: the one decision of which
/// endpoint a request is. The path and query keys are matched
/// percent-decoded, so `/d%61tasets` is `/datasets` and
/// `?%65xperiment=` is `?experiment=`.
pub(crate) fn resolve(method: &str, target: &str) -> Route {
    let target = Target::decode(target);
    let path = target.path();
    // `ALL` order settles the overlaps: `/debug/traces` comes before
    // the `/debug/` prefix, and `Metrics` before `Prometheus`.
    let endpoint = match Endpoint::ALL.into_iter().find(|e| e.serves(method, path)) {
        // The bare `/metrics` is the scrape; with an `experiment` key
        // (even an empty one, the API's 400) it is the evaluation API.
        Some(Endpoint::Metrics) if target.get("experiment").is_none() => Endpoint::Prometheus,
        found => found.unwrap_or(Endpoint::Other),
    };
    Route { endpoint, target }
}

/// Why a handler stopped short of a `200`: a request error (status +
/// JSON body), or a shed.
enum Stop {
    Error(u16, String),
    Shed(ShedReason),
}

impl From<(u16, String)> for Stop {
    fn from((status, body): (u16, String)) -> Self {
        Stop::Error(status, body)
    }
}

impl From<ShedReason> for Stop {
    fn from(reason: ShedReason) -> Self {
        Stop::Shed(reason)
    }
}

type Handled = Result<CachedResponse, Stop>;

/// Answers one resolved request with its serialized response, or sheds
/// it.
///
/// A cacheable read reaches here only after [`serve_hit`] missed on
/// the event thread, so it does not probe again: it builds its API
/// request, computes, renders and fills the cache, the entry stamped
/// with the invalidation scopes it read. Writes take the durable
/// [write sequence](ServerState::apply_write) and bump only the scopes
/// they touched.
///
/// Overload discipline: the cache probe runs *before* the class gate
/// (on the event thread), so a hot GET on a saturated compute class
/// degrades to its cached response instead of shedding; only the
/// expensive part runs in [`RequestContext::evaluate`], under a permit
/// and after a deadline re-check — queue wait and gate wait never leak
/// into evaluation time.
pub(crate) fn route(
    route: &Route,
    request: &ParsedRequest,
    state: &ServerState,
    ctx: &RequestContext,
) -> Result<CachedResponse, ShedReason> {
    let endpoint = route.endpoint;
    let _inflight = GaugeGuard::new(state.overload().gauge(endpoint.class()));
    if request.method != "GET" && endpoint != Endpoint::Promote && !state.hub().is_primary() {
        // Replicas reject writes before any gate or permit: cheap, and
        // the Frost-Primary header tells the client where to retry.
        return Ok(replication::replica_rejection(state.hub()));
    }
    let handled = match endpoint {
        _ if endpoint.is_read() => read(route, state, ctx),
        Endpoint::Import | Endpoint::Delete | Endpoint::Snapshot => {
            write(route, &request.body, state, ctx)
        }
        Endpoint::Promote => promote(state, ctx),
        Endpoint::Debug => debug(route, ctx),
        Endpoint::Stats => Ok(json_response(200, Registry::read(state).stats_json())),
        // Rendered fresh on every scrape: never cached, no `ETag`.
        Endpoint::Prometheus => Ok(encode(
            200,
            Registry::read(state).exposition(),
            CONTENT_TYPE_PROMETHEUS,
            None,
            None,
        )),
        Endpoint::Traces => Ok(json_response(
            200,
            serde_json::to_string(&state.telemetry().traces_json()),
        )),
        // Liveness: the process routes requests. Nothing else.
        Endpoint::Healthz => Ok(json_response(
            200,
            serde_json::to_string(&Value::object([("ok".to_string(), Value::from(true))])),
        )),
        Endpoint::Readyz => Ok(overload::readyz_response(state, ctx.options)),
        Endpoint::ReplicationWal => {
            replication::wal_response(state, &route.target).map_err(Stop::from)
        }
        Endpoint::ReplicationSnapshot => replication::snapshot_response(state).map_err(Stop::from),
        // `Other`; every read was taken by the first arm.
        _ => Err(unrouted(route, &request.method).into()),
    };
    match handled {
        Ok(response) => Ok(response),
        Err(Stop::Error(status, body)) => Ok(json_response(status, body)),
        Err(Stop::Shed(reason)) => Err(reason),
    }
}

/// The answer to a request no route serves.
fn unrouted(route: &Route, method: &str) -> (u16, String) {
    match method {
        "GET" => not_found(route),
        "DELETE" => (
            405,
            error_body(&format!(
                "DELETE is only supported on {}<name>",
                Endpoint::Delete.path()
            )),
        ),
        _ => (405, error_body("only GET is supported on this endpoint")),
    }
}

fn not_found(route: &Route) -> (u16, String) {
    (
        404,
        error_body(&format!("no such endpoint {:?}", route.target.path())),
    )
}

/// Answers a cacheable `GET` from the response tier on the event
/// thread, before any hand-off: the request's one probe. A hit is
/// counted as admitted (it takes no queue slot), revalidated against
/// `If-None-Match`, and stamped `serialized`; the caller only writes
/// it. `None` sends the request to a worker: not a cacheable read, a
/// bad parameter (the worker's `400`), a drain, or a miss — which the
/// worker evaluates without a second lookup.
///
/// Runs outside the workers' `catch_unwind`, so nothing here may
/// panic.
pub(crate) fn serve_hit(
    route: &Route,
    request: &ParsedRequest,
    state: &ServerState,
    trace: Option<&Trace>,
) -> Option<CachedResponse> {
    if !route.endpoint.is_read() || state.is_draining() {
        return None;
    }
    let _inflight = GaugeGuard::new(state.overload().gauge(Class::Cached));
    let key = Read::parse(route).ok()?.key();
    let probed = state.response_cache().get(&key);
    if let Some(trace) = trace {
        trace.stamp(Stage::CacheProbe);
    }
    let hit = probed?;
    state.overload().note_admitted();
    let payload = revalidate(hit, request);
    if let Some(trace) = trace {
        trace.stamp(Stage::Serialized);
        trace.set_status(payload.status());
    }
    Some(payload)
}

/// A cacheable API read that [`serve_hit`] missed: evaluate under the
/// class gate, render, and fill the cache.
fn read(route: &Route, state: &ServerState, ctx: &RequestContext) -> Handled {
    let read = Read::parse(route)?;
    let key = read.key();
    let (request, scopes) = read.request();
    let cache = state.response_cache();
    let observed = cache.begin_scoped(scopes.iter().map(String::as_str));
    let response = ctx
        .evaluate(|| state.with_store(|s| api::handle(s, request)))?
        .map_err(store_error)?;
    let body = state.rendered(&response);
    let etag = entity_tag(body.as_bytes());
    let payload = encode(200, body, CONTENT_TYPE_JSON, Some(etag), None);
    cache.insert_scoped(key, payload.clone(), observed);
    Ok(payload)
}

/// A cacheable read's parameters, validated and borrowed from the
/// decoded target: the cache key is built from it on every request,
/// the API request and its scopes only on a miss.
enum Read<'a> {
    Datasets,
    Experiments {
        dataset: Option<&'a str>,
    },
    Profile {
        dataset: &'a str,
    },
    Diagram {
        experiment: &'a str,
        x: PairMetric,
        y: PairMetric,
        engine: DiagramEngine,
        samples: usize,
    },
    /// `/compare` and `/venn`: a comma-separated list with at least one
    /// name.
    Group {
        list: &'a str,
        include_gold: bool,
    },
    Ratios {
        experiment: &'a str,
        kind: RatioKind,
    },
    /// The per-experiment views: one required `experiment`, nothing
    /// else in the key.
    View {
        endpoint: Endpoint,
        experiment: &'a str,
    },
}

impl<'a> Read<'a> {
    /// Parses a read endpoint's parameters (`route.endpoint` is one of
    /// [`Endpoint::is_read`]); a bad one is the `400` to answer.
    fn parse(route: &'a Route) -> Result<Read<'a>, (u16, String)> {
        let endpoint = route.endpoint;
        let params = &route.target;
        Ok(match endpoint {
            Endpoint::Datasets => Read::Datasets,
            Endpoint::Experiments => Read::Experiments {
                dataset: params.get("dataset"),
            },
            Endpoint::Profile => Read::Profile {
                dataset: params.required("dataset")?,
            },
            Endpoint::Diagram => {
                let experiment = params.required("experiment")?;
                let x = params.parse("x", PairMetric::Recall.name(), json::parse_metric)?;
                let y = params.parse("y", PairMetric::Precision.name(), json::parse_metric)?;
                let engine = params.parse(
                    "engine",
                    DiagramEngine::Optimized.name(),
                    json::parse_engine,
                )?;
                let samples = params.parse("samples", "20", |s| s.parse::<usize>().ok())?;
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
                Read::Diagram {
                    experiment,
                    x,
                    y,
                    engine,
                    samples,
                }
            }
            Endpoint::Compare | Endpoint::Venn => {
                let list = params.required("experiments")?;
                if list.split(',').all(str::is_empty) {
                    return Err((400, error_body("experiments list is empty")));
                }
                // /venn is the N-Intersection view including the ground
                // truth; /compare defaults to experiments only.
                let include_gold = match params.get("gold") {
                    None => endpoint == Endpoint::Venn,
                    Some("true") => true,
                    Some("false") => false,
                    Some(other) => {
                        return Err((400, error_body(&format!("bad gold flag {other:?}"))))
                    }
                };
                Read::Group { list, include_gold }
            }
            Endpoint::Ratios => Read::Ratios {
                experiment: params.required("experiment")?,
                kind: params.parse("kind", RatioKind::Null.name(), json::parse_ratio_kind)?,
            },
            _ => Read::View {
                endpoint,
                experiment: params.required("experiment")?,
            },
        })
    }

    /// The names of a [`Read::Group`], in request order.
    fn group(list: &str) -> impl Iterator<Item = &str> + Clone {
        list.split(',').filter(|s| !s.is_empty())
    }

    /// The response-tier key.
    fn key(&self) -> String {
        match *self {
            Read::Datasets => cache_key(Endpoint::Datasets, []),
            Read::Experiments { dataset } => {
                cache_key(Endpoint::Experiments, [dataset.unwrap_or("")])
            }
            Read::Profile { dataset } => cache_key(Endpoint::Profile, [dataset]),
            Read::Diagram {
                experiment,
                x,
                y,
                engine,
                samples,
            } => {
                let samples = samples.to_string();
                cache_key(
                    Endpoint::Diagram,
                    [experiment, x.name(), y.name(), engine.name(), &samples],
                )
            }
            // The key carries the gold flag, so `/compare` and `/venn`
            // share one entry per distinct request.
            Read::Group { list, include_gold } => {
                let gold = if include_gold { "true" } else { "false" };
                cache_key(Endpoint::Venn, Read::group(list).chain([gold]))
            }
            Read::Ratios { experiment, kind } => {
                cache_key(Endpoint::Ratios, [experiment, kind.name()])
            }
            Read::View {
                endpoint,
                experiment,
            } => cache_key(endpoint, [experiment]),
        }
    }

    /// The API request a miss evaluates, and the invalidation scopes
    /// its response depends on.
    fn request(&self) -> (Request, Vec<String>) {
        let exp_scope = |e: &str| format!("exp:{e}");
        match *self {
            Read::Datasets => (Request::ListDatasets, vec!["sys:datasets".to_string()]),
            Read::Experiments { dataset } => (
                Request::ListExperiments {
                    dataset: dataset.map(str::to_string),
                },
                vec!["sys:experiments".to_string()],
            ),
            Read::Profile { dataset } => (
                Request::ProfileDataset {
                    dataset: dataset.to_string(),
                },
                vec![format!("ds:{dataset}")],
            ),
            Read::Diagram {
                experiment,
                x,
                y,
                engine,
                samples,
            } => (
                Request::GetDiagram {
                    experiment: experiment.to_string(),
                    x,
                    y,
                    engine,
                    samples,
                },
                vec![exp_scope(experiment)],
            ),
            Read::Group { list, include_gold } => (
                Request::CompareExperiments {
                    experiments: Read::group(list).map(str::to_string).collect(),
                    include_gold,
                },
                Read::group(list).map(exp_scope).collect(),
            ),
            Read::Ratios { experiment, kind } => (
                Request::GetAttributeRatios {
                    experiment: experiment.to_string(),
                    kind,
                },
                vec![exp_scope(experiment)],
            ),
            Read::View {
                endpoint,
                experiment,
            } => {
                let scopes = vec![exp_scope(experiment)];
                let experiment = experiment.to_string();
                let request = match endpoint {
                    Endpoint::Matrix => Request::GetConfusionMatrix { experiment },
                    Endpoint::Metrics => Request::GetMetrics { experiment },
                    Endpoint::ClusterMetrics => Request::GetClusterMetrics { experiment },
                    Endpoint::Errors => Request::GetErrorProfile { experiment },
                    _ => Request::GetQualitySignals { experiment },
                };
                (request, scopes)
            }
        }
    }
}

/// `POST /experiments` (CSV import), `DELETE /experiments/<name>` and
/// `POST /snapshot/save`, under the write gate. A semi-sync
/// (`--sync-replication`) write that appended to the WAL is
/// acknowledged only once a replica has proven it durable by polling
/// past its offset.
fn write(route: &Route, body: &[u8], state: &ServerState, ctx: &RequestContext) -> Handled {
    let endpoint = route.endpoint;
    let response = ctx.evaluate(|| match endpoint {
        Endpoint::Import => {
            let dataset = route.target.required("dataset")?;
            let name = route.target.required("name")?;
            let csv = std::str::from_utf8(body)
                .map_err(|_| (400, error_body("request body is not valid UTF-8")))?;
            if csv.trim().is_empty() {
                return Err((400, error_body("request body is empty; expected CSV")));
            }
            state.import_experiment(dataset, name, csv)
        }
        Endpoint::Delete => state.delete_experiment(route.tail()),
        _ => state.save_snapshot(),
    })??;
    if endpoint.appends_wal() && ctx.options.sync_replication && state.is_durable() {
        // On timeout the client sees 503, but the write IS durable
        // locally — the safe direction (a retry is idempotent for
        // imports of the same experiment).
        let (snap, target, _) = state.hub().position();
        let mut wait = SYNC_ACK_TIMEOUT;
        if let Some(deadline) = ctx.deadline {
            wait = wait.min(deadline.saturating_duration_since(Instant::now()));
        }
        if !state.hub().wait_for_ack(snap, target, wait) {
            return Err((
                503,
                error_body(
                    "write is durable on the primary but no replica \
                     acknowledged it in time",
                ),
            )
                .into());
        }
    }
    Ok(json_response(200, state.rendered(&response)))
}

/// `POST /replication/promote`, under the write gate.
fn promote(state: &ServerState, ctx: &RequestContext) -> Handled {
    Ok(json_response(200, ctx.evaluate(|| state.promote())??))
}

/// The test-only `/debug/*` endpoints, each behind its
/// [`ServeOptions`](crate::ServeOptions) flag: `sleep?ms=N` holds its
/// worker and compute permit for `N` ms — the deterministic load the
/// overload tests saturate the server with — and `panic` panics inside
/// the handler.
fn debug(route: &Route, ctx: &RequestContext) -> Handled {
    match route.tail() {
        "sleep" if ctx.options.debug_sleep => {
            let ms = route
                .target
                .parse("ms", "50", |s| s.parse::<u64>().ok())?
                .min(10_000);
            ctx.evaluate(|| std::thread::sleep(Duration::from_millis(ms)))?;
            let body =
                serde_json::to_string(&Value::object([("slept_ms".to_string(), Value::from(ms))]));
            Ok(json_response(200, body))
        }
        "panic" if ctx.options.debug_panic => panic!("debug panic requested"),
        _ => Err(not_found(route).into()),
    }
}

/// Builds an unambiguous cache key: every component is
/// length-prefixed, so user-controlled names (which may contain any
/// byte, including the separators) cannot alias another request's
/// key.
fn cache_key<'a, I>(endpoint: Endpoint, parts: I) -> String
where
    I: IntoIterator<Item = &'a str>,
    I::IntoIter: Clone,
{
    let parts = parts.into_iter();
    let kind = endpoint.name();
    let mut key =
        String::with_capacity(kind.len() + parts.clone().map(|p| p.len() + 8).sum::<usize>());
    key.push_str(kind);
    for p in parts {
        let _ = write!(key, "\u{1}{}:{p}", p.len());
    }
    key
}

pub(crate) fn store_error(e: StoreError) -> (u16, String) {
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
    use crate::overload::ClassGates;
    use crate::response::{close_variant_bytes, CONTENT_TYPE_BINARY};
    use crate::ServeOptions;
    use frost_core::clustering::Clustering;
    use frost_core::dataset::{Dataset, Experiment, Schema};
    use frost_storage::BenchmarkStore;
    use proptest::prelude::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn target_parsing_decodes_queries() {
        let target = Target::decode("/diagram?experiment=run%201&samples=5&flag&a+b%2Cc%=%zz");
        assert_eq!(target.path(), "/diagram");
        assert_eq!(
            target.params().collect::<Vec<_>>(),
            vec![
                ("experiment", "run 1"),
                ("samples", "5"),
                ("flag", ""),
                ("a b,c%", "%zz"),
            ]
        );
        // `%` needs two hex digits after it; a sign is not one.
        let signed = Target::decode("/x?experiment=%+41&b=%-1");
        assert_eq!(signed.get("experiment"), Some("% 41"));
        assert_eq!(signed.get("b"), Some("%-1"));
        let lossy = Target::decode("/%FF?k%C3=%E2%82%AC");
        assert_eq!(lossy.path(), "/\u{FFFD}");
        assert_eq!(lossy.get("k\u{FFFD}"), Some("€"));
    }

    #[test]
    fn resolver_covers_the_route_table() {
        let cases = [
            ("GET", "/datasets", Endpoint::Datasets),
            ("GET", "/d%61tasets", Endpoint::Datasets),
            ("GET", "/metrics?experiment=e1", Endpoint::Metrics),
            ("GET", "/metrics?%65xperiment=e1", Endpoint::Metrics),
            ("GET", "/metrics?experiment=", Endpoint::Metrics),
            ("GET", "/metrics", Endpoint::Prometheus),
            ("GET", "/metrics?experimentx=1", Endpoint::Prometheus),
            ("GET", "/diagram?experiment=e1&samples=5", Endpoint::Diagram),
            (
                "GET",
                "/cluster-metrics?experiment=e1",
                Endpoint::ClusterMetrics,
            ),
            ("GET", "/debug/traces", Endpoint::Traces),
            ("GET", "/debug/sleep?ms=5", Endpoint::Debug),
            ("GET", "/debug/", Endpoint::Other),
            ("GET", "/nope", Endpoint::Other),
            ("GET", "/replication/wal?from=1", Endpoint::ReplicationWal),
            ("POST", "/experiments?dataset=d&name=n", Endpoint::Import),
            ("POST", "/snapshot/save", Endpoint::Snapshot),
            ("POST", "/replication/promote", Endpoint::Promote),
            ("POST", "/nope", Endpoint::Other),
            ("POST", "/datasets", Endpoint::Other),
            ("DELETE", "/experiments/e1", Endpoint::Delete),
            ("DELETE", "/experiments/", Endpoint::Other),
            ("DELETE", "/snapshot/save", Endpoint::Other),
            ("PATCH", "/datasets", Endpoint::Other),
        ];
        for (method, target, want) in cases {
            assert_eq!(resolve(method, target).endpoint, want, "{method} {target}");
        }
        assert_eq!(resolve("DELETE", "/experiments/a%2Fb").tail(), "a/b");
        for (i, endpoint) in Endpoint::ALL.into_iter().enumerate() {
            assert_eq!(endpoint as usize, i, "ALL is in index order");
            assert!(!endpoint.name().is_empty());
        }
    }

    /// The fixture store: one dataset with a gold standard and two
    /// experiments.
    fn state() -> ServerState {
        let mut ds = Dataset::new("people", Schema::new(["name"]));
        for (id, name) in [("a", "Ann"), ("b", "Anne"), ("c", "Bob"), ("d", "Bobby")] {
            ds.push_record(id, [name]);
        }
        let mut store = BenchmarkStore::new();
        store.add_dataset(ds).unwrap();
        store
            .set_gold_standard("people", Clustering::from_assignment(&[0, 0, 1, 1]))
            .unwrap();
        for (name, pairs) in [
            ("e1", vec![(0u32, 1u32, 0.9), (0, 2, 0.4)]),
            ("e2", vec![(0, 1, 0.8), (2, 3, 0.7)]),
        ] {
            let experiment = Experiment::from_scored_pairs(name, pairs);
            store.add_experiment("people", experiment, None).unwrap();
        }
        ServerState::new(store)
    }

    fn get(target: &str, if_none_match: Option<&str>) -> ParsedRequest {
        ParsedRequest {
            method: "GET".to_string(),
            target: target.to_string(),
            keep_alive: true,
            content_length: 0,
            if_none_match: if_none_match.map(str::to_string),
            body: Vec::new(),
        }
    }

    /// The event-thread path on its own: a cold key is one counted miss
    /// that the worker fills without a second lookup, a warm key one
    /// counted hit with the worker's bytes (or its `304`), and a bad
    /// parameter, a non-read or a drain makes no lookup at all.
    #[test]
    fn serve_hit_makes_the_one_lookup() {
        let state = state();
        let options = ServeOptions::default();
        let gates = ClassGates::for_workers(options.workers);
        let cache = state.response_cache();
        let lookups = || cache.hits() + cache.misses();
        let target = "/diagram?experiment=e1&samples=5";
        let request = get(target, None);

        let cold = resolve("GET", target);
        assert!(serve_hit(&cold, &request, &state, None).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let ctx = RequestContext {
            options: &options,
            gates: &gates,
            class: cold.endpoint.class(),
            deadline: None,
            trace: None,
        };
        let filled = super::route(&cold, &request, &state, &ctx).unwrap();
        assert_eq!(filled.status(), 200);
        assert_eq!(lookups(), 1, "the worker did not probe again");

        let admitted = state.overload().admitted.load(Ordering::Relaxed);
        let warm = resolve("GET", target);
        let hit = serve_hit(&warm, &request, &state, None).expect("warm key hits");
        assert_eq!(hit.bytes(), filled.bytes());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(
            state.overload().admitted.load(Ordering::Relaxed),
            admitted + 1,
            "a hit is counted as admitted"
        );
        let etag = filled.etag().unwrap().to_string();
        let revalidated = get(target, Some(&etag));
        let not_modified = serve_hit(&resolve("GET", target), &revalidated, &state, None);
        assert_eq!(not_modified.map(|r| r.status()), Some(304));

        for quiet in ["/diagram?experiment=e1&samples=1", "/stats", "/nope"] {
            let route = resolve("GET", quiet);
            assert!(serve_hit(&route, &get(quiet, None), &state, None).is_none());
        }
        state.begin_drain();
        assert!(serve_hit(&resolve("GET", target), &request, &state, None).is_none());
        assert_eq!(
            lookups(),
            3,
            "no lookup for a bad parameter, a non-read or a drain"
        );
    }

    const METHODS: [&str; 3] = ["GET", "POST", "DELETE"];
    /// Path stems besides every endpoint's own path.
    const EXTRA_PATHS: [&str; 6] = [
        "/",
        "",
        "/debug/sleep",
        "/debug/panic",
        "/nope",
        "//datasets",
    ];
    const KEYS: [&str; 16] = [
        "experiment",
        "experiments",
        "dataset",
        "name",
        "x",
        "y",
        "engine",
        "samples",
        "kind",
        "gold",
        "from",
        "wait_ms",
        "snap_len",
        "snap_crc",
        "ms",
        "",
    ];
    /// No `0` and no large valid number: `from=0` long-polls a caught-up
    /// WAL and `ms` sleeps, which would only slow the cases down.
    const VALUES: [&str; 16] = [
        "e1", "e2", "e1,e2", "people", "", "1", "5", "17", "recall", "naive", "true", "false",
        "equal", "-1", "%zz", "e1,,nope",
    ];
    /// Parameters that make a well-formed request of some endpoint.
    const GOOD: [&str; 6] = [
        "experiment=e1",
        "experiments=e1,e2",
        "dataset=people",
        "name=up",
        "from=1",
        "ms=1",
    ];
    const BODIES: [&str; 4] = ["", "id1,id2\na,b\n", "id1,id2\na,zz\n", "\u{1}\u{2}"];

    /// `%`-escapes the unreserved bytes of `s` whose bit in `mask` is
    /// set (the bits cycle), except the two after a `%`: decoding the
    /// result gives what decoding `s` gives.
    fn escape(s: &str, mask: u32) -> String {
        let bytes = s.as_bytes();
        let mut out = String::new();
        for (i, &b) in bytes.iter().enumerate() {
            let unreserved = b.is_ascii_alphanumeric() || b"-._~/".contains(&b);
            let after_percent = bytes[i.saturating_sub(2)..i].contains(&b'%');
            if mask >> (i % 32) & 1 == 1 && unreserved && !after_percent {
                out.push_str(&format!("%{b:02X}"));
            } else {
                out.push(char::from(b));
            }
        }
        out
    }

    /// One generated request: method, target (raw and escaped), body,
    /// `If-None-Match`.
    #[derive(Debug)]
    struct Case {
        method: &'static str,
        raw: String,
        escaped: String,
        body: &'static str,
        if_none_match: Option<String>,
    }

    fn case() -> impl Strategy<Value = Case> {
        let stem = 0usize..ENDPOINT_COUNT + EXTRA_PATHS.len();
        let param = (
            0usize..KEYS.len(),
            0usize..VALUES.len(),
            0u32..5,
            "[a-z]{0,3}",
        );
        (
            (
                0usize..METHODS.len() * 2,
                stem,
                "[a-z0-9/]{0,4}",
                "[!-~]{0,3}",
            ),
            prop::collection::vec(param, 0..6usize),
            (
                0u32..u32::MAX,
                0usize..BODIES.len(),
                0u32..4,
                "[a-z]{200,400}",
            ),
        )
            .prop_map(
                |((m, stem, suffix, junk), params, (mask, body, inm, long))| {
                    let (path, method) = match stem.checked_sub(ENDPOINT_COUNT) {
                        None => (Endpoint::ALL[stem].path(), Endpoint::ALL[stem].row().method),
                        Some(i) => (EXTRA_PATHS[i], "GET"),
                    };
                    // Half the cases use the stem's own method.
                    let method = METHODS.get(m).copied().unwrap_or(method);
                    let method = if method.is_empty() { "GET" } else { method };
                    // Prefix routes need a name; exact ones sometimes get
                    // one too (an unknown path), or printable junk.
                    let path = match mask % 8 {
                        0 => format!("{path}{suffix}"),
                        1 => format!("{path}{junk}"),
                        2 => format!("{path}{long}"),
                        3 => format!("{path}{}", VALUES[stem % VALUES.len()]),
                        _ => path.to_string(),
                    };
                    let query: Vec<String> = params
                        .iter()
                        .map(|&(k, v, shape, ref extra)| match shape {
                            0 => format!("{}={}", KEYS[k], VALUES[v]),
                            1 => KEYS[k].to_string(),
                            2 => format!("{}{extra}={}", KEYS[k], VALUES[v]),
                            _ => GOOD[k % GOOD.len()].to_string(),
                        })
                        .collect();
                    let (raw, escaped) = if query.is_empty() && mask % 3 == 0 {
                        (path.clone(), escape(&path, mask))
                    } else {
                        let query = query.join("&");
                        let escaped_query: Vec<String> = query
                            .split('&')
                            .map(|kv| match kv.split_once('=') {
                                Some((k, v)) => format!("{}={v}", escape(k, mask.rotate_left(7))),
                                None => escape(kv, mask.rotate_left(7)),
                            })
                            .collect();
                        (
                            format!("{path}?{query}"),
                            format!("{}?{}", escape(&path, mask), escaped_query.join("&")),
                        )
                    };
                    Case {
                        method,
                        raw,
                        escaped,
                        body: BODIES[body],
                        if_none_match: match inm {
                            0 => Some("*".to_string()),
                            1 => Some("\"nope\", W/\"x\"".to_string()),
                            _ => None,
                        },
                    }
                },
            )
    }

    /// Answers `request` the way the server does: [`serve_hit`] on the
    /// event thread, and on a miss the worker's [`route`](super::route)
    /// plus its revalidation.
    fn answer(
        route: &Route,
        request: &ParsedRequest,
        state: &ServerState,
        options: &ServeOptions,
        gates: &ClassGates,
        trace: Option<&Trace>,
    ) -> CachedResponse {
        if let Some(hit) = serve_hit(route, request, state, trace) {
            return hit;
        }
        let ctx = RequestContext {
            options,
            gates,
            class: route.endpoint.class(),
            deadline: None,
            trace,
        };
        let answer = super::route(route, request, state, &ctx)
            .unwrap_or_else(|shed| panic!("{:?} shed: {shed:?}", request.target));
        revalidate(answer, request)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// Arbitrary requests through the route module: every one is
        /// answered without a panic, with a status from the served set,
        /// a parseable body whenever it claims JSON, and the label of
        /// the endpoint the resolver chose — escaping the path and keys
        /// never changes that choice. Every `GET` is then replayed the
        /// way the event loop serves it ([`serve_hit`], then the worker
        /// on a miss): the same bytes in both framings, and exactly one
        /// response-tier lookup per cacheable read on either path.
        #[test]
        fn arbitrary_requests_route_to_their_label(c in case()) {
            thread_local! {
                static STATE: ServerState = state();
            }
            let options = ServeOptions {
                debug_sleep: true,
                ..ServeOptions::default()
            };
            let gates = ClassGates::for_workers(options.workers);
            let route = resolve(c.method, &c.escaped);
            let plain = resolve(c.method, &c.raw);
            prop_assert_eq!(route.endpoint, plain.endpoint, "{:?}", c);
            let request = ParsedRequest {
                method: c.method.to_string(),
                target: c.escaped.clone(),
                keep_alive: true,
                content_length: c.body.len(),
                if_none_match: c.if_none_match.clone(),
                body: c.body.as_bytes().to_vec(),
            };
            STATE.with(|state| {
                let cache = state.response_cache();
                let lookups = || cache.hits() + cache.misses();
                let cacheable = route.endpoint.is_read() && Read::parse(&route).is_ok();
                let before = lookups();
                let trace = crate::telemetry::Trace::begin(
                    c.method,
                    &c.escaped,
                    route.endpoint,
                    Instant::now(),
                );
                let payload = answer(&route, &request, state, &options, &gates, Some(&*trace));
                prop_assert_eq!(lookups() - before, u64::from(cacheable), "{:?}", c);
                let status = payload.status();
                prop_assert!(
                    [200, 304, 400, 404, 405, 503].contains(&status),
                    "{c:?} answered {status}"
                );
                let body = std::str::from_utf8(payload.body()).unwrap_or_default();
                let content_type = payload.content_type;
                if content_type == CONTENT_TYPE_JSON && status != 304 {
                    prop_assert!(
                        serde_json::from_str(body).is_ok(),
                        "{c:?}: not JSON: {body:?}"
                    );
                }
                // The handler that answered is the one the label names.
                if status == 200 {
                    prop_assert_ne!(route.endpoint, Endpoint::Other, "{:?}", c);
                    let want = match route.endpoint {
                        Endpoint::Prometheus => CONTENT_TYPE_PROMETHEUS,
                        Endpoint::ReplicationWal | Endpoint::ReplicationSnapshot => {
                            CONTENT_TYPE_BINARY
                        }
                        _ => CONTENT_TYPE_JSON,
                    };
                    prop_assert_eq!(content_type, want, "{:?}", c);
                }
                state.telemetry().finish(trace);
                let traces = state.telemetry().traces_json();
                let newest = &traces.get("traces").and_then(Value::as_array).unwrap()[0];
                prop_assert_eq!(newest.get("endpoint"), Some(&Value::from(route.endpoint.name())));
                prop_assert_eq!(
                    newest.get("class"),
                    Some(&Value::from(route.endpoint.class().name()))
                );
                if c.method == "GET" {
                    // The first answer filled the key (or found it
                    // filled), so a cacheable replay is a hit.
                    let replay = resolve(c.method, &c.escaped);
                    let (before, hits) = (lookups(), cache.hits());
                    let again = answer(&replay, &request, state, &options, &gates, None);
                    prop_assert_eq!(lookups() - before, u64::from(cacheable), "{:?}", c);
                    if cacheable && [200, 304].contains(&status) {
                        prop_assert_eq!(cache.hits() - hits, 1, "{:?}: a filled key missed", c);
                    }
                    // Reads answer the same bytes twice; the live views
                    // (`/stats`, `/metrics`, traces) move between calls.
                    if replay.endpoint.is_read() {
                        prop_assert_eq!(again.bytes(), payload.bytes(), "{:?}", c);
                        prop_assert_eq!(
                            close_variant_bytes(&again),
                            close_variant_bytes(&payload),
                            "{:?}",
                            c
                        );
                    }
                }
            });
        }
    }
}
