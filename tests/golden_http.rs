//! In-process replay of the HTTP goldens in `tests/golden_http/`.
//!
//! Follows the path of CI's loopback golden gate without a server:
//! `frost sample <dir> 0.1` → `frost snapshot save` → snapshot load →
//! [`api::handle`] → [`response_to_json`]. Every `<name>.url` must map
//! to a request whose rendered body (plus the newline `frost get`
//! prints) equals `<name>.json` byte for byte.
//!
//! A loopback test then serves the same snapshot and checks that each
//! request is counted under the endpoint whose handler answered it.

use frost::storage::api::{self, Request};
use frost::storage::snapshot;
use frost_server::client::Connection;
use frost_server::json::{parse_engine, parse_metric, response_to_json};
use frost_server::{serve_with, ServeOptions, ServerState};
use serde_json::Value;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

fn run_frost(args: &[&Path]) {
    let out = Command::new(env!("CARGO_BIN_EXE_frost"))
        .args(args)
        .output()
        .expect("frost binary runs");
    assert!(
        out.status.success(),
        "frost {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The request `frostd` routes `url` to, at the server's defaults.
fn request_for(url: &str) -> Request {
    let (path, query) = url.split_once('?').unwrap_or((url, ""));
    let params: HashMap<&str, &str> = query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .collect();
    let or = |key, default| params.get(key).copied().unwrap_or(default);
    let experiment = || or("experiment", "").to_string();
    match path {
        "/datasets" => Request::ListDatasets,
        "/experiments" => Request::ListExperiments {
            dataset: params.get("dataset").map(|d| d.to_string()),
        },
        "/metrics" => Request::GetMetrics {
            experiment: experiment(),
        },
        "/diagram" => Request::GetDiagram {
            experiment: experiment(),
            x: parse_metric(or("x", "recall")).unwrap(),
            y: parse_metric(or("y", "precision")).unwrap(),
            engine: parse_engine(or("engine", "optimized")).unwrap(),
            samples: or("samples", "20").parse().unwrap(),
        },
        "/compare" | "/venn" => Request::CompareExperiments {
            experiments: or("experiments", "")
                .split(',')
                .map(str::to_string)
                .collect(),
            include_gold: or("gold", if path == "/venn" { "true" } else { "false" }) == "true",
        },
        "/cluster-metrics" => Request::GetClusterMetrics {
            experiment: experiment(),
        },
        "/quality" => Request::GetQualitySignals {
            experiment: experiment(),
        },
        "/errors" => Request::GetErrorProfile {
            experiment: experiment(),
        },
        _ => panic!("no request mapping for golden url {url}"),
    }
}

/// The sample store `frost sample <dir> 0.1` writes, saved and loaded
/// as a snapshot, in a temporary directory named after `tag`.
fn sample_store(tag: &str) -> frost::storage::BenchmarkStore {
    let dir = std::env::temp_dir().join(format!("frost-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (store_dir, snap) = (dir.join("store"), dir.join("sample.frostb"));
    run_frost(&[Path::new("sample"), &store_dir, Path::new("0.1")]);
    run_frost(&[Path::new("snapshot"), Path::new("save"), &store_dir, &snap]);
    let store = snapshot::load(&snap).expect("snapshot loads");
    std::fs::remove_dir_all(&dir).unwrap();
    store
}

/// Every `tests/golden_http/*.url`, sorted.
fn golden_urls() -> Vec<PathBuf> {
    let goldens = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden_http");
    let mut urls: Vec<PathBuf> = std::fs::read_dir(&goldens)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "url"))
        .collect();
    urls.sort();
    assert!(urls.len() >= 8, "golden urls missing: {urls:?}");
    urls
}

#[test]
fn every_golden_body_replays_in_process() {
    let store = sample_store("http");
    for url_file in &golden_urls() {
        let url = std::fs::read_to_string(url_file).unwrap();
        let want = std::fs::read_to_string(url_file.with_extension("json")).unwrap();
        let response = api::handle(&store, request_for(url.trim())).expect("request succeeds");
        let got = format!("{}\n", response_to_json(&response));
        assert_eq!(got, want, "{url} drifted from {}", url_file.display());
    }
}

/// One request of the label test and what it must get back.
struct Case {
    method: &'static str,
    target: String,
    status: u16,
    /// `None` for the live Prometheus exposition.
    body: Option<String>,
    endpoint: String,
    class: &'static str,
}

/// Each request is answered as before — same status, same body — and
/// its `/debug/traces` entry and `frost_http_requests_total` sample
/// name the endpoint whose handler answered it, escaped spellings
/// included.
#[test]
fn requests_are_counted_under_the_endpoint_that_answered() {
    let handle = serve_with(
        "127.0.0.1:0",
        Arc::new(ServerState::new(sample_store("labels"))),
        ServeOptions::default(),
    )
    .expect("bind ephemeral port");
    let golden = |name: &str| {
        let path =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden_http/{name}.json"));
        let body = std::fs::read_to_string(path).unwrap();
        body.trim_end().to_string()
    };
    let case = |method, target: &str, status, body: Option<String>, endpoint: &str, class| Case {
        method,
        target: target.to_string(),
        status,
        body,
        endpoint: endpoint.to_string(),
        class,
    };
    let mut cases = vec![
        case(
            "GET",
            "/d%61tasets",
            200,
            Some(golden("datasets")),
            "datasets",
            "cached",
        ),
        case(
            "GET",
            "/metrics?experimentx=1",
            200,
            None,
            "prometheus",
            "cached",
        ),
        case(
            "GET",
            "/metrics?%65xperiment=cora-run1",
            200,
            Some(golden("metrics")),
            "metrics",
            "cached",
        ),
        case(
            "DELETE",
            "/snapshot/save",
            405,
            Some(r#"{"error":"DELETE is only supported on /experiments/<name>"}"#.into()),
            "other",
            "cached",
        ),
        case(
            "POST",
            "/nope",
            405,
            Some(r#"{"error":"only GET is supported on this endpoint"}"#.into()),
            "other",
            "cached",
        ),
    ];
    for url_file in golden_urls() {
        let name = url_file.file_stem().unwrap().to_str().unwrap().to_string();
        let target = std::fs::read_to_string(&url_file).unwrap();
        let class = match name.as_str() {
            "diagram" | "compare" | "venn" => "compute",
            _ => "cached",
        };
        let label = name.replace('-', "_");
        cases.push(case(
            "GET",
            target.trim(),
            200,
            Some(golden(&name)),
            &label,
            class,
        ));
    }

    let mut conn = Connection::open(&handle.addr().to_string()).unwrap();
    let mut want_counts: BTreeMap<String, u64> = BTreeMap::new();
    for c in &cases {
        let (status, body) = match c.method {
            "GET" => conn.get(&c.target),
            "POST" => conn.post(&c.target, &[]),
            _ => conn.delete(&c.target),
        }
        .unwrap();
        assert_eq!(status, c.status, "{} {}: {body}", c.method, c.target);
        match &c.body {
            Some(want) => assert_eq!(&body, want, "{} {}", c.method, c.target),
            None => assert!(body.contains("# TYPE frost_http_requests_total counter")),
        }
        *want_counts
            .entry(format!("endpoint=\"{}\",class=\"{}\"", c.endpoint, c.class))
            .or_default() += 1;
    }

    let (status, traces) = conn.get("/debug/traces").unwrap();
    assert_eq!(status, 200);
    let traces: Value = serde_json::from_str(&traces).unwrap();
    let traces = traces.get("traces").and_then(Value::as_array).unwrap();
    assert_eq!(traces.len(), cases.len());
    // Most recent first.
    for (trace, c) in traces.iter().zip(cases.iter().rev()) {
        let field = |key: &str| trace.get(key).and_then(Value::as_str).unwrap().to_string();
        assert_eq!(
            (field("method"), field("target")),
            (c.method.to_string(), c.target.clone())
        );
        assert_eq!(
            (field("endpoint"), field("class")),
            (c.endpoint.clone(), c.class.to_string()),
            "{} {}",
            c.method,
            c.target
        );
    }
    *want_counts
        .entry("endpoint=\"traces\",class=\"cached\"".into())
        .or_default() += 1;

    let (status, exposition) = conn.get("/metrics").unwrap();
    assert_eq!(status, 200);
    let got_counts: BTreeMap<String, u64> = exposition
        .lines()
        .filter_map(|line| line.strip_prefix("frost_http_requests_total{"))
        .map(|sample| {
            let (labels, n) = sample.split_once("} ").unwrap();
            (labels.to_string(), n.parse().unwrap())
        })
        .collect();
    assert_eq!(got_counts, want_counts);
    handle.shutdown();
}
