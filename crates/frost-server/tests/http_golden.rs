//! Loopback integration tests for `frostd`'s HTTP layer.
//!
//! The server's contract: every endpoint body is **byte-identical** to
//! rendering the corresponding in-process
//! [`api::handle`](frost_storage::api::handle) response through
//! [`frost_server::json::response_to_json`] — under concurrency, and
//! again when served from the result cache.

use frost_core::clustering::Clustering;
use frost_core::dataset::{Dataset, Experiment, Schema};
use frost_core::diagram::DiagramEngine;
use frost_core::metrics::pair::PairMetric;
use frost_server::client::http_get;
use frost_server::json::response_to_json;
use frost_server::{serve, ServerState};
use frost_storage::api::{self, RatioKind, Request};
use frost_storage::BenchmarkStore;
use std::sync::Arc;

/// The shared fixture: 8 records, a 4-pair gold standard, two
/// experiments of different quality (mirrors `tests/cli_golden.rs`).
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

/// Every endpoint under test, as `(http target, equivalent request)`.
fn endpoint_matrix() -> Vec<(&'static str, Request)> {
    vec![
        ("/datasets", Request::ListDatasets),
        ("/experiments", Request::ListExperiments { dataset: None }),
        (
            "/experiments?dataset=people",
            Request::ListExperiments {
                dataset: Some("people".into()),
            },
        ),
        (
            "/profile?dataset=people",
            Request::ProfileDataset {
                dataset: "people".into(),
            },
        ),
        (
            "/matrix?experiment=e1",
            Request::GetConfusionMatrix {
                experiment: "e1".into(),
            },
        ),
        (
            "/metrics?experiment=e2",
            Request::GetMetrics {
                experiment: "e2".into(),
            },
        ),
        (
            "/diagram?experiment=e1&x=recall&y=precision&engine=optimized&samples=5",
            Request::GetDiagram {
                experiment: "e1".into(),
                x: PairMetric::Recall,
                y: PairMetric::Precision,
                engine: DiagramEngine::Optimized,
                samples: 5,
            },
        ),
        (
            // Defaults: x=recall, y=precision, engine=optimized, samples=20.
            "/diagram?experiment=e2",
            Request::GetDiagram {
                experiment: "e2".into(),
                x: PairMetric::Recall,
                y: PairMetric::Precision,
                engine: DiagramEngine::Optimized,
                samples: 20,
            },
        ),
        (
            "/compare?experiments=e1,e2",
            Request::CompareExperiments {
                experiments: vec!["e1".into(), "e2".into()],
                include_gold: false,
            },
        ),
        (
            "/venn?experiments=e1,e2",
            Request::CompareExperiments {
                experiments: vec!["e1".into(), "e2".into()],
                include_gold: true,
            },
        ),
        (
            "/cluster-metrics?experiment=e2",
            Request::GetClusterMetrics {
                experiment: "e2".into(),
            },
        ),
        (
            "/ratios?experiment=e1&kind=equal",
            Request::GetAttributeRatios {
                experiment: "e1".into(),
                kind: RatioKind::Equal,
            },
        ),
        (
            "/errors?experiment=e1",
            Request::GetErrorProfile {
                experiment: "e1".into(),
            },
        ),
        (
            "/quality?experiment=e2",
            Request::GetQualitySignals {
                experiment: "e2".into(),
            },
        ),
    ]
}

fn reference_body(store: &BenchmarkStore, request: Request) -> String {
    serde_json::to_string(&response_to_json(&api::handle(store, request).unwrap()))
}

fn start() -> frost_server::ServerHandle {
    serve("127.0.0.1:0", Arc::new(ServerState::new(store())), 4).expect("bind ephemeral port")
}

#[test]
fn endpoints_match_in_process_handle_byte_for_byte() {
    let reference = store();
    let handle = start();
    let base = format!("http://{}", handle.addr());
    for (target, request) in endpoint_matrix() {
        let (status, body) = http_get(&format!("{base}{target}")).unwrap();
        assert_eq!(status, 200, "{target} failed: {body}");
        assert_eq!(
            body,
            reference_body(&reference, request),
            "{target} drifted from the in-process rendering"
        );
    }
    handle.shutdown();
}

#[test]
fn reused_keep_alive_connection_pins_identical_bytes() {
    let reference = store();
    let handle = start();
    let mut conn =
        frost_server::client::Connection::open(&handle.addr().to_string()).expect("connect");
    // Two passes over the whole matrix on ONE connection: the second
    // pass is served from the response-byte cache, and both must stay
    // byte-identical to the in-process rendering.
    for round in 0..2 {
        for (target, request) in endpoint_matrix() {
            let (status, body) = conn.get(target).unwrap();
            assert_eq!(status, 200, "{target} failed on round {round}: {body}");
            assert_eq!(
                body,
                reference_body(&reference, request),
                "{target} drifted across a reused connection (round {round})"
            );
        }
    }
    assert_eq!(
        handle.state().connections_accepted(),
        1,
        "the whole sequence must ride one keep-alive connection"
    );
    handle.shutdown();
}

#[test]
fn concurrent_clients_get_identical_bytes() {
    let reference = Arc::new(store());
    let handle = start();
    let base = format!("http://{}", handle.addr());
    let matrix = Arc::new(endpoint_matrix());
    let threads: Vec<_> = (0..6)
        .map(|t| {
            let base = base.clone();
            let matrix = Arc::clone(&matrix);
            let reference = Arc::clone(&reference);
            std::thread::spawn(move || {
                // Each thread walks the matrix from a different phase,
                // twice, so cached and uncached paths interleave.
                for round in 0..2 {
                    for i in 0..matrix.len() {
                        let (target, request) = &matrix[(i + t + round) % matrix.len()];
                        let (status, body) = http_get(&format!("{base}{target}")).unwrap();
                        assert_eq!(status, 200, "{target}");
                        assert_eq!(
                            body,
                            reference_body(&reference, request.clone()),
                            "{target} drifted under concurrency"
                        );
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    handle.shutdown();
}

#[test]
fn repeated_diagram_hits_the_cache() {
    let handle = start();
    let base = format!("http://{}", handle.addr());
    let target = format!("{base}/diagram?experiment=e1&samples=7");
    let (_, first) = http_get(&target).unwrap();
    let hits_before = handle.state().response_cache().hits();
    let renders_before = handle.state().json_renders();
    let (_, second) = http_get(&target).unwrap();
    assert_eq!(first, second);
    assert!(
        handle.state().response_cache().hits() > hits_before,
        "second identical /diagram query must be served from the response-byte cache"
    );
    assert_eq!(
        handle.state().json_renders(),
        renders_before,
        "a response-cache hit must not re-render JSON"
    );
    // The hit counters are also visible over HTTP.
    let (status, stats) = http_get(&format!("{base}/stats")).unwrap();
    assert_eq!(status, 200);
    let stats = serde_json::from_str(&stats).unwrap();
    assert!(stats.get("response_hits").and_then(|v| v.as_f64()).unwrap() >= 1.0);
    assert!(stats.get("generation").is_some());
    assert!(stats.get("json_renders").is_some());
    handle.shutdown();
}

#[test]
fn mutation_bumps_generation_and_invalidates_cached_results() {
    let handle = start();
    let base = format!("http://{}", handle.addr());
    let target = format!("{base}/metrics?experiment=e1");
    let (_, before) = http_get(&target).unwrap();
    let gen_before = handle.state().response_cache().generation();

    // Replace the gold standard: every cached derived artifact is now
    // stale and must be recomputed, not replayed.
    handle.state().with_store_mut(|s| {
        s.set_gold_standard(
            "people",
            Clustering::from_assignment(&[0, 1, 2, 3, 4, 5, 6, 7]),
        )
        .unwrap()
    });
    assert!(handle.state().response_cache().generation() > gen_before);

    let (_, after) = http_get(&target).unwrap();
    assert_ne!(
        before, after,
        "stale cached metrics served after a store mutation"
    );
    // And the new body matches a fresh in-process evaluation.
    let mut reference = store();
    reference
        .set_gold_standard(
            "people",
            Clustering::from_assignment(&[0, 1, 2, 3, 4, 5, 6, 7]),
        )
        .unwrap();
    assert_eq!(
        after,
        reference_body(
            &reference,
            Request::GetMetrics {
                experiment: "e1".into()
            }
        )
    );
    handle.shutdown();
}

#[test]
fn error_statuses_and_unknown_routes() {
    let handle = start();
    let base = format!("http://{}", handle.addr());
    let (status, body) = http_get(&format!("{base}/metrics?experiment=nope")).unwrap();
    assert_eq!(status, 404);
    assert!(body.contains("unknown experiment"));
    let (status, _) = http_get(&format!("{base}/no-such-endpoint")).unwrap();
    assert_eq!(status, 404);
    let (status, body) = http_get(&format!("{base}/diagram?experiment=e1&samples=1")).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("samples"));
    let (status, _) = http_get(&format!("{base}/diagram")).unwrap();
    assert_eq!(status, 400);
    let (status, _) = http_get(&format!("{base}/diagram?experiment=e1&engine=warp")).unwrap();
    assert_eq!(status, 400);
    handle.shutdown();
}

/// A Venn group whose experiments belong to different datasets is a
/// `400` (`/venn` with the gold standard, `/compare` without): record
/// ids are per dataset, so no pair can be "found by both".
#[test]
fn venn_across_datasets_is_bad_request() {
    let mut store = store();
    let mut other = Dataset::new("other", Schema::new(["name"]));
    for id in ["p", "q"] {
        other.push_record(id, ["x"]);
    }
    store.add_dataset(other).unwrap();
    store
        .add_experiment("other", Experiment::from_pairs("o1", [(0u32, 1u32)]), None)
        .unwrap();
    let handle =
        serve("127.0.0.1:0", Arc::new(ServerState::new(store)), 4).expect("bind ephemeral port");
    let base = format!("http://{}", handle.addr());
    for target in ["/venn?experiments=e1,o1", "/compare?experiments=o1,e2"] {
        let (status, body) = http_get(&format!("{base}{target}")).unwrap();
        assert_eq!(status, 400, "{target}: {body}");
        assert!(body.contains("one dataset"), "{target}: {body}");
    }
    handle.shutdown();
}
