//! The route table: which endpoint a request is, decided once, and
//! everything that follows from the endpoint — its handler, cost
//! class, telemetry label, cache key and invalidation scopes, and
//! whether a write appends to the WAL.
//!
//! The event loop calls [`resolve`] once, when a request head
//! completes. The resulting [`Route`] rides the dispatch queue to a
//! worker, and the request's trace carries its [`Endpoint`] as the
//! `endpoint`/`class` label pair of `/metrics` and `/debug/traces`.
//! The worker answers with [`route`], which does no transport work:
//! a resolved request in, a serialized response (or a shed) out.
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

use crate::http::{
    encode, error_body, CachedResponse, GaugeGuard, ParsedRequest, RequestContext, ServerState,
    ShedReason, CONTENT_TYPE_JSON, CONTENT_TYPE_PROMETHEUS,
};
use crate::json;
use crate::replication;
use crate::telemetry::{Registry, Stage};
use frost_core::diagram::{DiagramEngine, MAX_DIAGRAM_SAMPLES, MAX_NAIVE_DIAGRAM_SAMPLES};
use frost_storage::api::{self, Request};
use frost_storage::store::StoreError;
use frost_storage::wal::SnapshotId;
use serde_json::Value;
use std::time::{Duration, Instant};

/// How long a semi-sync (`--sync-replication`) write waits for a
/// replica to prove it durable before answering `503` (the write stays
/// durable locally either way).
const SYNC_ACK_TIMEOUT: Duration = Duration::from_secs(5);

/// Endpoint cost classes: each is gated independently so one class
/// cannot starve another (see
/// [`ServeOptions::compute_concurrency`](crate::ServeOptions::compute_concurrency)).
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
struct Target {
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
    fn get(&self, key: &str) -> Option<&str> {
        self.params().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    fn required(&self, key: &str) -> Result<&str, (u16, String)> {
        self.get(key)
            .filter(|v| !v.is_empty())
            .ok_or_else(|| (400, error_body(&format!("missing query parameter {key:?}"))))
    }

    fn parse<T>(
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

/// An untagged JSON response.
fn json_response(status: u16, body: String) -> CachedResponse {
    encode(status, body, CONTENT_TYPE_JSON, None, None)
}

/// Answers one resolved request with its serialized response, or sheds
/// it.
///
/// Cacheable reads probe the response cache (a hit is the shared
/// serialized bytes, no allocation); a miss computes, renders and
/// fills the cache, the entry stamped with the invalidation scopes it
/// read. Writes take the durable
/// [write sequence](ServerState::apply_write) and bump only the scopes
/// they touched.
///
/// Overload discipline: the cache probe runs *before* the class gate,
/// so a hot GET on a saturated compute class degrades to its cached
/// response instead of shedding; only the expensive part runs in
/// [`RequestContext::evaluate`], under a permit and after a deadline
/// re-check — queue wait and gate wait never leak into evaluation
/// time.
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
        return Ok(state.replica_rejection());
    }
    let handled = match endpoint {
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
        | Endpoint::Quality => read(route, state, ctx),
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
        Endpoint::Readyz => Ok(state.readyz_response(ctx.options)),
        Endpoint::ReplicationWal => replication_wal(route, state),
        Endpoint::ReplicationSnapshot => state.replication_snapshot_response().map_err(Stop::from),
        Endpoint::Other => Err(unrouted(route, &request.method).into()),
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

/// A cacheable API read: probe, and on a miss evaluate under the
/// class gate, render, and fill the cache.
fn read(route: &Route, state: &ServerState, ctx: &RequestContext) -> Handled {
    let (request, key, scopes) = api_request(route)?;
    let cache = state.response_cache();
    let probed = cache.get(&key);
    if let Some(trace) = ctx.trace {
        trace.stamp(Stage::CacheProbe);
    }
    if let Some(hit) = probed {
        return Ok(hit);
    }
    let observed = cache.begin_scoped(scopes.iter().map(String::as_str));
    let response = ctx
        .evaluate(|| state.with_store(|s| api::handle(s, request)))?
        .map_err(store_error)?;
    let body = state.rendered(&response);
    let etag = crate::http::entity_tag(body.as_bytes());
    let payload = encode(200, body, CONTENT_TYPE_JSON, Some(etag), None);
    cache.insert_scoped(key, payload.clone(), observed);
    Ok(payload)
}

/// The API request a read endpoint evaluates, its cache key, and the
/// invalidation scopes its response depends on.
fn api_request(route: &Route) -> Result<(Request, String, Vec<String>), (u16, String)> {
    let endpoint = route.endpoint;
    let params = &route.target;
    let exp_scope = |e: &str| format!("exp:{e}");
    Ok(match endpoint {
        Endpoint::Datasets => (
            Request::ListDatasets,
            cache_key(endpoint, &[]),
            vec!["sys:datasets".to_string()],
        ),
        Endpoint::Experiments => {
            let dataset = params.get("dataset").map(str::to_string);
            let key = cache_key(endpoint, &[dataset.as_deref().unwrap_or("")]);
            let scopes = vec!["sys:experiments".to_string()];
            (Request::ListExperiments { dataset }, key, scopes)
        }
        Endpoint::Profile => {
            let dataset = params.required("dataset")?.to_string();
            let key = cache_key(endpoint, &[&dataset]);
            let scopes = vec![format!("ds:{dataset}")];
            (Request::ProfileDataset { dataset }, key, scopes)
        }
        Endpoint::Diagram => {
            let experiment = params.required("experiment")?.to_string();
            let x = params.parse("x", "recall", json::parse_metric)?;
            let y = params.parse("y", "precision", json::parse_metric)?;
            let engine = params.parse("engine", "optimized", json::parse_engine)?;
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
            let key = cache_key(
                endpoint,
                &[
                    &experiment,
                    &x.to_string(),
                    &y.to_string(),
                    &format!("{engine:?}"),
                    &samples.to_string(),
                ],
            );
            let scopes = vec![exp_scope(&experiment)];
            let request = Request::GetDiagram {
                experiment,
                x,
                y,
                engine,
                samples,
            };
            (request, key, scopes)
        }
        Endpoint::Compare | Endpoint::Venn => {
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
            let include_gold = match params.get("gold") {
                None => endpoint == Endpoint::Venn,
                Some("true") => true,
                Some("false") => false,
                Some(other) => return Err((400, error_body(&format!("bad gold flag {other:?}")))),
            };
            let mut key_parts: Vec<&str> = experiments.iter().map(String::as_str).collect();
            let gold_part = include_gold.to_string();
            key_parts.push(&gold_part);
            // The key carries the gold flag, so `/compare` and `/venn`
            // share one entry per distinct request.
            let key = cache_key(Endpoint::Venn, &key_parts);
            let scopes = experiments.iter().map(|e| exp_scope(e)).collect();
            let request = Request::CompareExperiments {
                experiments,
                include_gold,
            };
            (request, key, scopes)
        }
        Endpoint::Ratios => {
            let experiment = params.required("experiment")?.to_string();
            let kind = params.parse("kind", "null", json::parse_ratio_kind)?;
            let key = cache_key(endpoint, &[&experiment, &format!("{kind:?}")]);
            let scopes = vec![exp_scope(&experiment)];
            (
                Request::GetAttributeRatios { experiment, kind },
                key,
                scopes,
            )
        }
        // The per-experiment views: one required `experiment`, nothing
        // else in the key.
        _ => {
            let experiment = params.required("experiment")?.to_string();
            let key = cache_key(endpoint, &[&experiment]);
            let scopes = vec![exp_scope(&experiment)];
            let request = match endpoint {
                Endpoint::Matrix => Request::GetConfusionMatrix { experiment },
                Endpoint::Metrics => Request::GetMetrics { experiment },
                Endpoint::ClusterMetrics => Request::GetClusterMetrics { experiment },
                Endpoint::Errors => Request::GetErrorProfile { experiment },
                _ => Request::GetQualitySignals { experiment },
            };
            (request, key, scopes)
        }
    })
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

/// `GET /replication/wal?from=<offset>[&wait_ms=][&snap_len=&snap_crc=]`.
fn replication_wal(route: &Route, state: &ServerState) -> Handled {
    let params = &route.target;
    let from = params.parse("from", "", |s| s.parse::<u64>().ok())?;
    let wait_ms = params.parse(
        "wait_ms",
        &replication::REPLICA_POLL_WAIT_MS.to_string(),
        |s| s.parse::<u64>().ok(),
    )?;
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
    Ok(state.replication_wal_response(from, wait_ms, snap)?)
}

/// Builds an unambiguous cache key: every component is
/// length-prefixed, so user-controlled names (which may contain any
/// byte, including the separators) cannot alias another request's
/// key.
fn cache_key(endpoint: Endpoint, parts: &[&str]) -> String {
    let kind = endpoint.name();
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
    use crate::http::{revalidate, ClassGates, CONTENT_TYPE_BINARY};
    use crate::ServeOptions;
    use frost_core::clustering::Clustering;
    use frost_core::dataset::{Dataset, Experiment, Schema};
    use frost_storage::BenchmarkStore;
    use proptest::prelude::*;

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// Arbitrary requests through the route module: every one is
        /// answered without a panic, with a status from the served set,
        /// a parseable body whenever it claims JSON, and the label of
        /// the endpoint the resolver chose — escaping the path and keys
        /// never changes that choice.
        #[test]
        fn arbitrary_requests_route_to_their_label(c in case()) {
            thread_local! {
                static STATE: ServerState = state();
            }
            let options = ServeOptions {
                debug_sleep: true,
                ..ServeOptions::default()
            };
            let gates = ClassGates::for_options(&options);
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
                let trace = crate::telemetry::Trace::begin(
                    c.method,
                    &c.escaped,
                    route.endpoint,
                    Instant::now(),
                );
                let ctx = RequestContext {
                    options: &options,
                    gates: &gates,
                    class: route.endpoint.class(),
                    deadline: None,
                    trace: Some(&*trace),
                };
                let payload = super::route(&route, &request, state, &ctx)
                    .unwrap_or_else(|shed| panic!("{c:?} shed: {shed:?}"));
                let payload = revalidate(payload, &request);
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
            });
        }
    }
}
