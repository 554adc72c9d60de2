//! Exact wire bytes of the responses the HTTP goldens do not pin: the
//! goldens compare bodies only, so a status line, a header or its
//! order could drift unnoticed. Each case drives a real server over a
//! loopback socket and compares every byte it answers — the four
//! canned sheds, the event loop's own `400`s, `405` and `500`, a `304`
//! revalidation, a replica's write rejection with its `Frost-Primary`
//! hint, and one read in both its keep-alive and its `Connection:
//! close` framing.

use frost_core::clustering::Clustering;
use frost_core::dataset::{Dataset, Experiment, Schema};
use frost_server::{serve_with, ServeOptions, ServerHandle, ServerState};
use frost_storage::durable::DurableStore;
use frost_storage::{snapshot, BenchmarkStore, FsyncPolicy};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// The fixture store (mirrors `tests/overload.rs`).
fn store() -> BenchmarkStore {
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
        ("e1", vec![(0u32, 1u32, 0.95), (2, 3, 0.9), (0, 2, 0.4)]),
        ("e2", vec![(0, 1, 0.9), (1, 2, 0.5)]),
    ] {
        store
            .add_experiment("people", Experiment::from_scored_pairs(name, pairs), None)
            .unwrap();
    }
    store
}

fn start(options: ServeOptions) -> ServerHandle {
    serve_with("127.0.0.1:0", Arc::new(ServerState::new(store())), options)
        .expect("bind ephemeral port")
}

/// Opens a connection and writes `raw` without reading anything back.
fn send(handle: &ServerHandle, raw: &str) -> TcpStream {
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw.as_bytes()).expect("send");
    stream
}

/// Everything the server writes until it closes the connection.
fn read_to_close(stream: &mut TcpStream) -> String {
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("read until close");
    String::from_utf8(bytes).expect("UTF-8 response")
}

/// One keep-alive response: the head, then `Content-Length` body
/// bytes (the connection stays open).
fn read_one(stream: &mut TcpStream) -> String {
    let mut bytes = Vec::new();
    let mut byte = [0u8; 1];
    while !bytes.ends_with(b"\r\n\r\n") {
        assert_eq!(
            stream.read(&mut byte).expect("read head"),
            1,
            "closed mid-head"
        );
        bytes.push(byte[0]);
    }
    let head = String::from_utf8(bytes.clone()).unwrap();
    let length: usize = head
        .lines()
        .find_map(|line| line.strip_prefix("Content-Length: "))
        .expect("Content-Length")
        .parse()
        .unwrap();
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("read body");
    bytes.extend_from_slice(&body);
    String::from_utf8(bytes).expect("UTF-8 response")
}

/// A `GET` with an empty header block beyond the request line.
fn get(target: &str) -> String {
    format!("GET {target} HTTP/1.1\r\n\r\n")
}

const DATASETS_HEAD: &str = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                             Content-Length: 20\r\nETag: \"2a5400c8790a8282\"\r\n";

const DATASETS_BODY: &str = r#"{"names":["people"]}"#;

#[test]
fn a_read_in_its_keep_alive_and_closing_framing() {
    let handle = start(ServeOptions::default());
    let mut conn = send(&handle, &get("/datasets"));
    let keep_alive = read_one(&mut conn);
    assert_eq!(keep_alive, format!("{DATASETS_HEAD}\r\n{DATASETS_BODY}"));
    // The same (now cached) read as the connection's last response.
    conn.write_all(b"GET /datasets HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    assert_eq!(
        read_to_close(&mut conn),
        format!("{DATASETS_HEAD}Connection: close\r\n\r\n{DATASETS_BODY}")
    );
}

#[test]
fn a_matching_if_none_match_is_a_bodyless_304() {
    let handle = start(ServeOptions::default());
    let mut conn = send(&handle, &get("/datasets"));
    read_one(&mut conn);
    conn.write_all(b"GET /datasets HTTP/1.1\r\nIf-None-Match: \"2a5400c8790a8282\"\r\n\r\n")
        .unwrap();
    assert_eq!(
        read_one(&mut conn),
        "HTTP/1.1 304 Not Modified\r\nContent-Type: application/json\r\n\
         Content-Length: 0\r\nETag: \"2a5400c8790a8282\"\r\n\r\n"
    );
}

#[test]
fn the_event_loop_answers_faults_in_exact_bytes() {
    let handle = start(ServeOptions {
        debug_panic: true,
        idle_timeout: Duration::from_millis(300),
        ..ServeOptions::default()
    });
    let mut bad = send(&handle, "GARBAGE\r\n\r\n");
    assert_eq!(
        read_to_close(&mut bad),
        "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n\
         Content-Length: 34\r\nConnection: close\r\n\r\n\
         {\"error\":\"malformed request line\"}"
    );
    // Half a head, then silence past the whole-head deadline.
    let mut trickle = send(&handle, "GET /datasets HTTP/1.1\r\n");
    assert_eq!(
        read_to_close(&mut trickle),
        "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n\
         Content-Length: 32\r\nConnection: close\r\n\r\n\
         {\"error\":\"request head timeout\"}"
    );
    let mut patch = send(&handle, &get("/datasets").replace("GET", "PATCH"));
    assert_eq!(
        read_to_close(&mut patch),
        "HTTP/1.1 405 Method Not Allowed\r\nContent-Type: application/json\r\n\
         Content-Length: 51\r\nConnection: close\r\n\r\n\
         {\"error\":\"only GET, POST and DELETE are supported\"}"
    );
    let mut panic = send(&handle, &get("/debug/panic"));
    assert_eq!(
        read_to_close(&mut panic),
        "HTTP/1.1 500 Internal Server Error\r\nContent-Type: application/json\r\n\
         Content-Length: 52\r\nConnection: close\r\n\r\n\
         {\"error\":\"internal error: request handler panicked\"}"
    );
}

#[test]
fn a_full_queue_sheds_a_new_connection() {
    let handle = start(ServeOptions {
        workers: 1,
        max_queued: 1,
        debug_sleep: true,
        ..ServeOptions::default()
    });
    let _busy = send(&handle, &get("/debug/sleep?ms=1200"));
    std::thread::sleep(Duration::from_millis(150));
    let _queued = send(&handle, &get("/debug/sleep?ms=1200"));
    std::thread::sleep(Duration::from_millis(100));
    let mut shed_conn = send(&handle, &get("/datasets"));
    assert_eq!(
        read_to_close(&mut shed_conn),
        "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
         Content-Length: 51\r\nRetry-After: 1\r\nConnection: close\r\n\r\n\
         {\"error\":\"server overloaded: admission queue full\"}"
    );
}

#[test]
fn a_request_past_its_deadline_is_shed() {
    // The head never completes; the request deadline runs out long
    // before the whole-head timeout would.
    let handle = start(ServeOptions {
        request_deadline: Some(Duration::from_millis(200)),
        ..ServeOptions::default()
    });
    let mut late = send(&handle, "GET /datasets HTTP/1.1\r\n");
    assert_eq!(
        read_to_close(&mut late),
        "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
         Content-Length: 55\r\nRetry-After: 1\r\nConnection: close\r\n\r\n\
         {\"error\":\"request deadline exceeded before evaluation\"}"
    );
}

#[test]
fn a_saturated_class_sheds_a_miss() {
    // Two workers give the compute class one permit; with no deadline
    // a miss waits one idle timeout for it.
    let handle = start(ServeOptions {
        workers: 2,
        debug_sleep: true,
        idle_timeout: Duration::from_millis(200),
        ..ServeOptions::default()
    });
    let _busy = send(&handle, &get("/debug/sleep?ms=1500"));
    std::thread::sleep(Duration::from_millis(150));
    let mut miss = send(&handle, &get("/venn?experiments=e1,e2"));
    assert_eq!(
        read_to_close(&mut miss),
        "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
         Content-Length: 54\r\nRetry-After: 1\r\nConnection: close\r\n\r\n\
         {\"error\":\"server overloaded: request class saturated\"}"
    );
}

#[test]
fn a_draining_server_sheds_a_queued_request() {
    let handle = start(ServeOptions {
        workers: 1,
        debug_sleep: true,
        ..ServeOptions::default()
    });
    let mut busy = send(&handle, &get("/debug/sleep?ms=700"));
    std::thread::sleep(Duration::from_millis(150));
    let mut queued = send(&handle, &get("/datasets"));
    std::thread::sleep(Duration::from_millis(50));
    let readers = std::thread::spawn(move || {
        read_to_close(&mut busy);
        read_to_close(&mut queued)
    });
    handle.graceful_shutdown();
    assert_eq!(
        readers.join().unwrap(),
        "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
         Content-Length: 50\r\nRetry-After: 1\r\nConnection: close\r\n\r\n\
         {\"error\":\"server draining: connection not served\"}"
    );
}

#[test]
fn a_replica_rejects_a_write_with_the_primary_hint() {
    let dir = std::env::temp_dir().join(format!("frost-wire-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.frostb");
    snapshot::save(&store(), &path).unwrap();
    let (recovered, durable, _) = DurableStore::open(&path, FsyncPolicy::Always).unwrap();
    // Port 9 (discard) is closed on loopback: the apply loop only
    // retries, and the hint is all the rejection needs.
    let handle = serve_with(
        "127.0.0.1:0",
        Arc::new(ServerState::with_durable(recovered, durable)),
        ServeOptions {
            replica_of: Some("127.0.0.1:9".to_string()),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let mut write = send(
        &handle,
        "POST /experiments?dataset=people&name=up HTTP/1.1\r\nContent-Length: 12\r\n\
         Connection: close\r\n\r\nid1,id2\na,b\n",
    );
    assert_eq!(
        read_to_close(&mut write),
        "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
         Content-Length: 50\r\nFrost-Primary: 127.0.0.1:9\r\nConnection: close\r\n\r\n\
         {\"error\":\"replica: writes must go to the primary\"}"
    );
    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}
