//! In-process replay of the HTTP goldens in `tests/golden_http/`.
//!
//! Follows the path of CI's loopback golden gate without a server:
//! `frost sample <dir> 0.1` → `frost snapshot save` → snapshot load →
//! [`api::handle`] → [`response_to_json`]. Every `<name>.url` must map
//! to a request whose rendered body (plus the newline `frost get`
//! prints) equals `<name>.json` byte for byte.

use frost::storage::api::{self, Request};
use frost::storage::snapshot;
use frost_server::json::{parse_engine, parse_metric, response_to_json};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::Command;

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
        _ => panic!("no request mapping for golden url {url}"),
    }
}

#[test]
fn every_golden_body_replays_in_process() {
    let dir = std::env::temp_dir().join(format!("frost-golden-http-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (store_dir, snap) = (dir.join("store"), dir.join("sample.frostb"));
    run_frost(&[Path::new("sample"), &store_dir, Path::new("0.1")]);
    run_frost(&[Path::new("snapshot"), Path::new("save"), &store_dir, &snap]);
    let store = snapshot::load(&snap).expect("snapshot loads");

    let goldens = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden_http");
    let mut urls: Vec<PathBuf> = std::fs::read_dir(&goldens)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "url"))
        .collect();
    urls.sort();
    assert!(urls.len() >= 8, "golden urls missing: {urls:?}");
    for url_file in &urls {
        let url = std::fs::read_to_string(url_file).unwrap();
        let want = std::fs::read_to_string(url_file.with_extension("json")).unwrap();
        let response = api::handle(&store, request_for(url.trim())).expect("request succeeds");
        let got = format!("{}\n", response_to_json(&response));
        assert_eq!(got, want, "{url} drifted from {}", url_file.display());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
