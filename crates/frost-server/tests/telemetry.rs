//! Telemetry loopback tests: the Prometheus exposition on bare
//! `GET /metrics`, per-stage traces behind `GET /debug/traces` (with
//! the slow-request flag), the open-connection gauge, and the
//! `--no-telemetry` escape hatch.

use frost_core::clustering::Clustering;
use frost_core::dataset::{Dataset, Experiment, Schema};
use frost_server::client::Connection;
use frost_server::{serve_with, ServeOptions, ServerHandle, ServerState};
use frost_storage::BenchmarkStore;
use serde_json::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The shared fixture (mirrors `tests/http_golden.rs`).
fn store() -> BenchmarkStore {
    let mut ds = Dataset::new("people", Schema::new(["name"]));
    for (id, name) in [
        ("a", "Ann"),
        ("b", "Anne"),
        ("c", "Bob"),
        ("d", "Bobby"),
        ("e", "Carl"),
        ("f", "Carlo"),
        ("g", "Dora"),
        ("h", "Dora B"),
    ] {
        ds.push_record(id, [name]);
    }
    let mut store = BenchmarkStore::new();
    store.add_dataset(ds).unwrap();
    store
        .set_gold_standard(
            "people",
            Clustering::from_assignment(&[0, 0, 1, 1, 2, 2, 3, 3]),
        )
        .unwrap();
    store
        .add_experiment(
            "people",
            Experiment::from_scored_pairs("e1", [(0u32, 1u32, 0.95), (2, 3, 0.9), (0, 2, 0.4)]),
            None,
        )
        .unwrap();
    store
        .add_experiment(
            "people",
            Experiment::from_scored_pairs("e2", [(0u32, 1u32, 0.9), (1, 2, 0.5)]),
            None,
        )
        .unwrap();
    store
}

fn start(options: ServeOptions) -> ServerHandle {
    serve_with("127.0.0.1:0", Arc::new(ServerState::new(store())), options)
        .expect("bind ephemeral port")
}

fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Every non-comment exposition line must be `name{labels} value` (or
/// `name value`) with a parseable finite value, and must belong to the
/// family named by the most recent `# TYPE` line (a histogram's
/// samples through `_bucket`/`_sum`/`_count`). No family header may
/// appear twice.
fn assert_exposition_shape(body: &str) {
    let mut headers = std::collections::HashSet::new();
    let mut family: Option<(&str, &str)> = None;
    for line in body.lines() {
        if let Some(header) = line.strip_prefix("# ") {
            let mut words = header.split(' ');
            let (kind, name) = (words.next().unwrap(), words.next().unwrap_or(""));
            assert!(
                headers.insert((kind, name)),
                "family header appears twice: {line:?}"
            );
            if kind == "TYPE" {
                family = Some((name, words.next().unwrap_or("")));
            }
            continue;
        }
        if line.is_empty() {
            continue;
        }
        let (name_part, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line without value: {line:?}");
        });
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable sample value: {line:?}"));
        assert!(value.is_finite(), "non-finite sample value: {line:?}");
        let name = name_part.split('{').next().unwrap();
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
            "bad metric name in {line:?}"
        );
        if let Some(labels) = name_part.strip_prefix(name) {
            if !labels.is_empty() {
                assert!(
                    labels.starts_with('{') && labels.ends_with('}'),
                    "bad label block in {line:?}"
                );
            }
        }
        let (family_name, kind) =
            family.unwrap_or_else(|| panic!("sample before any # TYPE line: {line:?}"));
        let base = if kind == "histogram" {
            ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suffix| name.strip_suffix(suffix))
                .unwrap_or(name)
        } else {
            name
        };
        assert_eq!(
            base, family_name,
            "sample {line:?} sits under the # TYPE of another family"
        );
    }
}

#[test]
fn metrics_exposition_covers_counters_and_histograms() {
    let handle = start(ServeOptions::default());
    let mut conn = Connection::open(&handle.addr().to_string()).unwrap();
    let (status, _) = conn.get("/metrics?experiment=e1").unwrap();
    assert_eq!(status, 200, "the query form stays the evaluation endpoint");
    let (status, first) = conn.get("/metrics").unwrap();
    assert_eq!(status, 200);
    assert_exposition_shape(&first);

    for family in [
        "# TYPE frost_http_requests_total counter",
        "# TYPE frost_http_request_duration_seconds histogram",
        "# TYPE frost_http_stage_duration_seconds histogram",
        "# TYPE frost_wal_append_duration_seconds histogram",
        "# TYPE frost_wal_fsync_duration_seconds histogram",
        "# TYPE frost_event_loop_poll_dwell_seconds histogram",
        "# TYPE frost_event_loop_dispatch_batch histogram",
        "# TYPE frost_shed_total counter",
        "# TYPE frost_open_connections gauge",
    ] {
        assert!(first.contains(family), "missing {family:?}");
    }
    // One finished request (the /metrics?experiment=e1 evaluation) at
    // scrape time, on this one live connection.
    assert!(
        first.contains("frost_http_requests_total{endpoint=\"metrics\",class=\"cached\"} 1"),
        "{first}"
    );
    assert!(
        first.contains(
            "frost_http_request_duration_seconds_count{endpoint=\"metrics\",class=\"cached\"} 1"
        ),
        "{first}"
    );
    assert!(first.contains("frost_open_connections 1"), "{first}");
    assert!(first.contains("frost_connections_accepted_total 1"));
    assert!(first.contains("frost_shed_total{reason=\"queue_full\"} 0"));
    // Stage histograms render for every stage even before traffic.
    for stage in ["head_complete", "serialized", "first_byte", "last_byte"] {
        let line = format!("frost_http_stage_duration_seconds_count{{stage=\"{stage}\"}}");
        assert!(first.contains(&line), "missing stage family {stage}");
    }
    // No WAL on a bare in-memory store: families render with count 0.
    assert!(first.contains("frost_wal_append_duration_seconds_count 0"));

    // Bucket lines are cumulative and end at +Inf == _count.
    let prefix =
        "frost_http_request_duration_seconds_bucket{endpoint=\"metrics\",class=\"cached\",le=\"";
    let mut cumulative = -1.0f64;
    let mut buckets = 0usize;
    for line in first.lines() {
        if line.starts_with(prefix) {
            buckets += 1;
            let value: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(value >= cumulative, "buckets must be cumulative: {line:?}");
            cumulative = value;
        }
    }
    assert!(buckets >= 2, "one interior bucket plus +Inf at minimum");
    assert_eq!(cumulative, 1.0, "+Inf bucket equals the request count");

    // A second scrape reflects the first one having finished — the
    // exposition is generated per request, never served from cache.
    let (status, second) = conn.get("/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(
        second.contains("frost_http_requests_total{endpoint=\"prometheus\",class=\"cached\"} 1"),
        "{second}"
    );
    assert_ne!(first, second);
    handle.shutdown();
}

#[test]
fn traces_capture_stages_and_flag_slow_requests() {
    let handle = start(ServeOptions {
        debug_sleep: true,
        slow_request: Some(Duration::from_millis(10)),
        trace_ring: 8,
        ..ServeOptions::default()
    });
    let mut conn = Connection::open(&handle.addr().to_string()).unwrap();
    // More finished requests than the ring holds, then one request
    // comfortably past the 10 ms slow threshold.
    for _ in 0..12 {
        let (status, _) = conn.get("/metrics?experiment=e1").unwrap();
        assert_eq!(status, 200);
    }
    let (status, _) = conn.get("/debug/sleep?ms=50").unwrap();
    assert_eq!(status, 200);

    let (status, body) = conn.get("/debug/traces").unwrap();
    assert_eq!(status, 200);
    let doc: Value = serde_json::from_str(&body).expect("trace dump is JSON");
    let traces = doc.get("traces").and_then(Value::as_array).expect("traces");
    assert_eq!(traces.len(), 8, "ring keeps exactly the last 8");
    let mut saw_sleep = false;
    for trace in traces {
        let total = trace
            .get("total_ns")
            .and_then(Value::as_f64)
            .expect("total_ns");
        let stages = trace
            .get("stages")
            .and_then(Value::as_array)
            .expect("stages");
        let sum: f64 = stages
            .iter()
            .map(|s| s.get("ns").and_then(Value::as_f64).expect("stage ns"))
            .sum();
        assert_eq!(sum, total, "stage deltas must telescope to the total");
        let target = trace.get("target").and_then(Value::as_str).expect("target");
        if target.starts_with("/debug/sleep") {
            saw_sleep = true;
            assert!(
                matches!(trace.get("slow"), Some(Value::Bool(true))),
                "the 50 ms sleep must be flagged slow"
            );
            assert!(total >= 50e6, "sleep trace total {total} ns < 50 ms");
        } else {
            assert!(
                matches!(trace.get("slow"), Some(Value::Bool(false))),
                "cached hits must not be flagged slow"
            );
        }
    }
    assert!(saw_sleep, "the slow request must still be in the ring");
    handle.shutdown();
}

#[test]
fn open_connection_gauge_tracks_live_sockets() {
    let handle = start(ServeOptions::default());
    let telemetry = Arc::clone(handle.state().telemetry());
    assert_eq!(telemetry.open_connections(), 0);
    let addr = handle.addr().to_string();
    let mut a = Connection::open(&addr).unwrap();
    let (status, _) = a.get("/healthz").unwrap();
    assert_eq!(status, 200);
    // A served response proves the connection was adopted by an event
    // loop, which is where the gauge increments.
    assert_eq!(telemetry.open_connections(), 1);
    let mut b = Connection::open(&addr).unwrap();
    let (status, _) = b.get("/healthz").unwrap();
    assert_eq!(status, 200);
    assert_eq!(telemetry.open_connections(), 2);
    drop(a);
    drop(b);
    // The event loop notices the FINs on its next wake.
    wait_for("open_connections to return to 0", || {
        telemetry.open_connections() == 0
    });
    handle.shutdown();
}

#[test]
fn disabled_telemetry_still_serves_metrics_and_empty_traces() {
    let handle = start(ServeOptions {
        telemetry: false,
        ..ServeOptions::default()
    });
    let mut conn = Connection::open(&handle.addr().to_string()).unwrap();
    let (status, _) = conn.get("/metrics?experiment=e1").unwrap();
    assert_eq!(status, 200);
    let (status, scrape) = conn.get("/metrics").unwrap();
    assert_eq!(status, 200);
    assert_exposition_shape(&scrape);
    // /stats-backed counters keep working without tracing…
    assert!(scrape.contains("frost_connections_accepted_total 1"));
    // …while trace-derived series render as empty families.
    assert!(scrape.contains("# TYPE frost_http_requests_total counter"));
    assert!(
        !scrape.contains("frost_http_requests_total{"),
        "no per-endpoint samples without tracing: {scrape}"
    );
    assert!(scrape.contains("frost_http_stage_duration_seconds_count{stage=\"last_byte\"} 0"));
    let (status, body) = conn.get("/debug/traces").unwrap();
    assert_eq!(status, 200);
    let doc: Value = serde_json::from_str(&body).expect("trace dump is JSON");
    let traces = doc.get("traces").and_then(Value::as_array).expect("traces");
    assert!(traces.is_empty(), "no traces when telemetry is disabled");
    handle.shutdown();
}

/// A shed is traced as a `503` whichever side decided it: the event
/// loop (a pipelined request already past its deadline when admitted)
/// or a worker (a miss that found its class gate saturated).
#[test]
fn shed_requests_are_traced_as_503() {
    use std::io::{Read, Write};
    let handle = start(ServeOptions {
        workers: 2, // one compute permit
        request_deadline: Some(Duration::from_millis(250)),
        debug_sleep: true,
        ..ServeOptions::default()
    });
    let addr = handle.addr();
    // The sleeper holds the compute permit past the deadline (it is
    // served late); `/datasets` waits buffered behind it.
    let mut pipelined = std::net::TcpStream::connect(addr).unwrap();
    pipelined
        .write_all(b"GET /debug/sleep?ms=600 HTTP/1.1\r\n\r\nGET /datasets HTTP/1.1\r\n\r\n")
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let mut conn = Connection::open(&addr.to_string()).unwrap();
    let (status, body) = conn.get("/venn?experiments=e1,e2").unwrap();
    assert_eq!(status, 503, "{body}");
    let mut answers = Vec::new();
    pipelined.read_to_end(&mut answers).unwrap();
    let answers = String::from_utf8(answers).unwrap();
    assert!(answers.starts_with("HTTP/1.1 200 OK"), "{answers}");
    assert!(
        answers.contains("HTTP/1.1 503 Service Unavailable"),
        "{answers}"
    );

    let mut conn = Connection::open(&addr.to_string()).unwrap();
    let (_, body) = conn.get("/debug/traces").unwrap();
    let doc: Value = serde_json::from_str(&body).expect("trace dump is JSON");
    let traces = doc.get("traces").and_then(Value::as_array).expect("traces");
    for endpoint in ["venn", "datasets"] {
        let trace = traces
            .iter()
            .find(|t| t.get("endpoint").and_then(Value::as_str) == Some(endpoint))
            .unwrap_or_else(|| panic!("no {endpoint} trace in {body}"));
        assert_eq!(trace.get("status"), Some(&Value::from(503u64)), "{trace:?}");
    }
    handle.shutdown();
}
