//! Keep-alive connection-path tests: persistent connections,
//! pipelining, the response-byte cache, and the connection limits
//! (`Connection: close`, idle timeout, max requests per connection).

use frost_core::clustering::Clustering;
use frost_core::dataset::{Dataset, Experiment, Schema};
use frost_server::client::{read_raw_response as read_framed, Connection};
use frost_server::json::response_to_json;
use frost_server::{serve_with, ServeOptions, ServerHandle, ServerState};
use frost_storage::api::{self, Request};
use frost_storage::BenchmarkStore;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

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

fn reference_body(request: Request) -> String {
    serde_json::to_string(&response_to_json(&api::handle(&store(), request).unwrap()))
}

fn metrics_body() -> String {
    reference_body(Request::GetMetrics {
        experiment: "e1".into(),
    })
}

/// Reads one Content-Length framed response from a raw socket through
/// the client's framing implementation, returning
/// `(status, headers, body)`.
fn read_raw_response(stream: &mut TcpStream, spill: &mut Vec<u8>) -> (u16, String, String) {
    read_framed(stream, spill).expect("framed response")
}

#[test]
fn hot_endpoint_serves_with_zero_json_renders() {
    let handle = start(ServeOptions::default());
    let mut conn = Connection::open(&handle.addr().to_string()).unwrap();
    let (status, first) = conn.get("/metrics?experiment=e1").unwrap();
    assert_eq!(status, 200);
    let renders_after_first = handle.state().json_renders();
    assert!(renders_after_first >= 1);
    let hits_before = handle.state().response_cache().hits();
    for _ in 0..10 {
        let (status, body) = conn.get("/metrics?experiment=e1").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, first);
    }
    assert_eq!(
        handle.state().json_renders(),
        renders_after_first,
        "hot-endpoint requests must perform zero JSON serialization"
    );
    assert_eq!(handle.state().response_cache().hits() - hits_before, 10);
    handle.shutdown();
}

#[test]
fn pipelined_requests_get_in_order_identical_bodies() {
    let handle = start(ServeOptions::default());
    let addr = handle.addr();
    let expected = [
        (
            "/metrics?experiment=e1",
            reference_body(Request::GetMetrics {
                experiment: "e1".into(),
            }),
        ),
        (
            "/matrix?experiment=e2",
            reference_body(Request::GetConfusionMatrix {
                experiment: "e2".into(),
            }),
        ),
        (
            "/compare?experiments=e1,e2",
            reference_body(Request::CompareExperiments {
                experiments: vec!["e1".into(), "e2".into()],
                include_gold: false,
            }),
        ),
    ];
    // Several concurrent clients, each writing a deep pipeline of
    // back-to-back requests in ONE segment, then reading every
    // response. Responses must come back in request order with bodies
    // byte-identical to the in-process rendering.
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                let depth = 8usize;
                let mut batch = String::new();
                for i in 0..depth {
                    let (target, _) = &expected[(t + i) % expected.len()];
                    batch.push_str(&format!("GET {target} HTTP/1.1\r\nHost: x\r\n\r\n"));
                }
                stream.write_all(batch.as_bytes()).unwrap();
                let mut spill = Vec::new();
                for i in 0..depth {
                    let (target, body) = &expected[(t + i) % expected.len()];
                    let (status, _, got) = read_raw_response(&mut stream, &mut spill);
                    assert_eq!(status, 200, "{target}");
                    assert_eq!(&got, body, "{target} drifted under pipelining");
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
fn connection_close_is_honored() {
    let handle = start(ServeOptions::default());
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /metrics?experiment=e1 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut spill = Vec::new();
    let (status, head, body) = read_raw_response(&mut stream, &mut spill);
    assert_eq!(status, 200);
    assert_eq!(body, metrics_body());
    assert!(
        head.to_ascii_lowercase().contains("connection: close"),
        "closing response must advertise it: {head:?}"
    );
    // And the server actually closes.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    handle.shutdown();
}

#[test]
fn max_requests_per_connection_is_bounded() {
    let handle = start(ServeOptions {
        max_requests: 2,
        ..ServeOptions::default()
    });
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let request = b"GET /metrics?experiment=e1 HTTP/1.1\r\nHost: x\r\n\r\n";
    stream.write_all(request).unwrap();
    stream.write_all(request).unwrap();
    let mut spill = Vec::new();
    let (_, head1, _) = read_raw_response(&mut stream, &mut spill);
    assert!(!head1.to_ascii_lowercase().contains("connection: close"));
    let (_, head2, body2) = read_raw_response(&mut stream, &mut spill);
    assert!(
        head2.to_ascii_lowercase().contains("connection: close"),
        "the max-requests-th response must advertise the close: {head2:?}"
    );
    assert_eq!(body2, metrics_body());
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server must close after max_requests");

    // The keep-alive client rides through the cap by reconnecting.
    let mut conn = Connection::open(&handle.addr().to_string()).unwrap();
    for _ in 0..5 {
        let (status, body) = conn.get("/metrics?experiment=e1").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, metrics_body());
    }
    assert!(
        handle.state().connections_accepted() >= 3,
        "five requests at a 2-request cap need at least three connections"
    );
    handle.shutdown();
}

#[test]
fn idle_connections_are_reaped() {
    let handle = start(ServeOptions {
        idle_timeout: Duration::from_millis(100),
        ..ServeOptions::default()
    });
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /metrics?experiment=e1 HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut spill = Vec::new();
    let (status, _, _) = read_raw_response(&mut stream, &mut spill);
    assert_eq!(status, 200);
    // Sit idle past the timeout: the worker must hang up.
    std::thread::sleep(Duration::from_millis(400));
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "idle connection must be closed empty");
    handle.shutdown();
}

#[test]
fn mutation_clears_the_response_cache() {
    let handle = start(ServeOptions::default());
    let mut conn = Connection::open(&handle.addr().to_string()).unwrap();
    let (_, before) = conn.get("/metrics?experiment=e1").unwrap();
    let (_, again) = conn.get("/metrics?experiment=e1").unwrap();
    assert_eq!(before, again);
    assert!(!handle.state().response_cache().is_empty());

    handle.state().with_store_mut(|s| {
        s.set_gold_standard(
            "people",
            Clustering::from_assignment(&[0, 1, 2, 3, 4, 5, 6, 7]),
        )
        .unwrap()
    });
    // The generation bump clears the cache eagerly.
    assert_eq!(handle.state().response_cache().len(), 0);

    let (_, after) = conn.get("/metrics?experiment=e1").unwrap();
    assert_ne!(before, after, "stale bytes served after a mutation");
    let mut reference = store();
    reference
        .set_gold_standard(
            "people",
            Clustering::from_assignment(&[0, 1, 2, 3, 4, 5, 6, 7]),
        )
        .unwrap();
    assert_eq!(
        after,
        serde_json::to_string(&response_to_json(
            &api::handle(
                &reference,
                Request::GetMetrics {
                    experiment: "e1".into()
                }
            )
            .unwrap()
        ))
    );
    handle.shutdown();
}

#[test]
fn non_get_methods_are_rejected_and_closed() {
    let handle = start(ServeOptions::default());
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"PUT /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut spill = Vec::new();
    let (status, head, body) = read_raw_response(&mut stream, &mut spill);
    assert_eq!(status, 405);
    assert!(body.contains("only GET, POST and DELETE"));
    assert!(head.to_ascii_lowercase().contains("connection: close"));
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    handle.shutdown();
}

/// Extracts the `ETag` header value from a response head.
fn etag_of(head: &str) -> String {
    head.lines()
        .find_map(|l| l.strip_prefix("ETag: "))
        .unwrap_or_else(|| panic!("no ETag in {head:?}"))
        .trim()
        .to_string()
}

#[test]
fn cached_tier_revalidates_with_etag() {
    let handle = start(ServeOptions::default());
    let addr = handle.addr().to_string();
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut spill = Vec::new();

    // A cacheable 200 carries a strong entity tag.
    stream
        .write_all(format!("GET /datasets HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes())
        .unwrap();
    let (status, head, body) = read_raw_response(&mut stream, &mut spill);
    assert_eq!(status, 200, "{body}");
    let etag = etag_of(&head);
    assert!(
        etag.starts_with('"') && etag.ends_with('"'),
        "strong quoted tag expected, got {etag:?}"
    );

    // A matching If-None-Match revalidates: 304, empty body, the tag
    // echoed, and the connection stays open.
    stream
        .write_all(
            format!("GET /datasets HTTP/1.1\r\nHost: {addr}\r\nIf-None-Match: {etag}\r\n\r\n")
                .as_bytes(),
        )
        .unwrap();
    let (status, head, not_modified_body) = read_raw_response(&mut stream, &mut spill);
    assert_eq!(status, 304, "{head}");
    assert!(not_modified_body.is_empty());
    assert!(head.contains("Content-Length: 0"), "{head}");
    assert_eq!(etag_of(&head), etag);

    // A weak-prefixed tag and `*` both match; a stale tag does not.
    for candidate in [format!("W/{etag}"), "*".to_string()] {
        stream
            .write_all(
                format!(
                    "GET /datasets HTTP/1.1\r\nHost: {addr}\r\nIf-None-Match: {candidate}\r\n\r\n"
                )
                .as_bytes(),
            )
            .unwrap();
        let (status, _, _) = read_raw_response(&mut stream, &mut spill);
        assert_eq!(status, 304, "If-None-Match: {candidate} must revalidate");
    }
    stream
        .write_all(
            format!(
                "GET /datasets HTTP/1.1\r\nHost: {addr}\r\nIf-None-Match: \"deadbeef\"\r\n\r\n"
            )
            .as_bytes(),
        )
        .unwrap();
    let (status, _, full) = read_raw_response(&mut stream, &mut spill);
    assert_eq!(status, 200);
    assert_eq!(full, body, "a stale tag must serve the full body");

    // Tags are content-derived, so a mutation only invalidates them
    // where the body actually changes: the experiment listing gains an
    // entry (new tag, full 200 against the old tag), while /datasets
    // re-renders to identical bytes and keeps revalidating.
    stream
        .write_all(
            format!("GET /experiments?dataset=people HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes(),
        )
        .unwrap();
    let (status, head, listing) = read_raw_response(&mut stream, &mut spill);
    assert_eq!(status, 200, "{listing}");
    let listing_etag = etag_of(&head);
    let mut conn = Connection::open(&addr).unwrap();
    let (status, post_body) = conn
        .post(
            "/experiments?dataset=people&name=tagged",
            b"id1,id2,similarity\na,b,0.9\n",
        )
        .unwrap();
    assert_eq!(status, 200, "{post_body}");
    stream
        .write_all(
            format!(
                "GET /experiments?dataset=people HTTP/1.1\r\nHost: {addr}\r\nIf-None-Match: {listing_etag}\r\n\r\n"
            )
            .as_bytes(),
        )
        .unwrap();
    let (status, head, listing_after) = read_raw_response(&mut stream, &mut spill);
    assert_eq!(
        status, 200,
        "a stale tag after mutation must serve the new body"
    );
    assert_ne!(listing_after, listing);
    assert_ne!(
        etag_of(&head),
        listing_etag,
        "new body must carry a new tag"
    );
    // /datasets did not change: its tag survives the generation bump.
    stream
        .write_all(
            format!("GET /datasets HTTP/1.1\r\nHost: {addr}\r\nIf-None-Match: {etag}\r\n\r\n")
                .as_bytes(),
        )
        .unwrap();
    let (status, _, _) = read_raw_response(&mut stream, &mut spill);
    assert_eq!(
        status, 304,
        "an identical re-rendered body must keep revalidating"
    );
    handle.shutdown();
}
