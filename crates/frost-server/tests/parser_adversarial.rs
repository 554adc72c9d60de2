//! Adversarial tests for the incremental HTTP request parser and the
//! socket path behind it: request heads split at every byte boundary,
//! pipelined heads arriving in one segment, oversized and malformed
//! heads — never a panic, never a hang, always a clean `400`/close.

use frost_core::clustering::Clustering;
use frost_core::dataset::{Dataset, Experiment, Schema};
use frost_server::http::{Parsed, RequestBuffer, MAX_REQUEST_BYTES};
use frost_server::{serve, serve_with, ServeOptions, ServerHandle, ServerState};
use frost_storage::BenchmarkStore;
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const REQUEST: &[u8] =
    b"GET /metrics?experiment=e1 HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\r\n";

fn drain(buffer: &mut RequestBuffer) -> Vec<Parsed> {
    let mut out = Vec::new();
    loop {
        match buffer.next_request() {
            Parsed::Incomplete => break,
            done @ Parsed::Error(_) => {
                out.push(done);
                break;
            }
            request => out.push(request),
        }
    }
    out
}

#[test]
fn every_single_byte_split_parses_identically() {
    let mut whole = RequestBuffer::new();
    whole.extend(REQUEST);
    let expected = drain(&mut whole);
    assert_eq!(expected.len(), 1);
    for split in 0..=REQUEST.len() {
        let mut buffer = RequestBuffer::new();
        buffer.extend(&REQUEST[..split]);
        let mut got = drain(&mut buffer);
        buffer.extend(&REQUEST[split..]);
        got.extend(drain(&mut buffer));
        assert_eq!(got, expected, "split at byte {split} changed the parse");
    }
}

#[test]
fn byte_at_a_time_and_pipelined_segments_agree() {
    // One byte per read — the most fragmented arrival possible.
    let mut buffer = RequestBuffer::new();
    let mut got = Vec::new();
    for &b in REQUEST.iter().chain(REQUEST) {
        buffer.extend(&[b]);
        got.extend(drain(&mut buffer));
    }
    assert_eq!(got.len(), 2, "two heads must parse from byte-wise arrival");
    // Both heads in ONE segment — the most batched arrival possible.
    let mut batched = RequestBuffer::new();
    let mut doubled = REQUEST.to_vec();
    doubled.extend_from_slice(REQUEST);
    batched.extend(&doubled);
    assert_eq!(drain(&mut batched), got, "batched arrival must agree");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random chunkings of a pipeline of valid heads always yield the
    /// same requests in order.
    #[test]
    fn random_chunking_never_changes_the_parse(
        cuts in prop::collection::vec(0usize..(REQUEST.len() * 3), 0..12),
        repeats in 1usize..4,
    ) {
        let stream: Vec<u8> = REQUEST
            .iter()
            .copied()
            .cycle()
            .take(REQUEST.len() * repeats)
            .collect();
        let mut cuts: Vec<usize> = cuts.into_iter().filter(|&c| c < stream.len()).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut buffer = RequestBuffer::new();
        let mut got = Vec::new();
        let mut start = 0usize;
        for cut in cuts.into_iter().chain([stream.len()]) {
            buffer.extend(&stream[start..cut]);
            got.extend(drain(&mut buffer));
            start = cut;
        }
        prop_assert_eq!(got.len(), repeats, "every head parses exactly once");
        for parsed in got {
            prop_assert!(matches!(
                &parsed,
                Parsed::Request(r) if r.target == "/metrics?experiment=e1" && r.keep_alive
            ));
        }
    }

    /// Arbitrary bytes in arbitrary chunkings never panic the parser,
    /// and a parse error is sticky enough to close on (the server
    /// stops at the first error).
    #[test]
    fn arbitrary_bytes_never_panic(
        chunks in prop::collection::vec(
            prop::collection::vec((0usize..256).prop_map(|b| b as u8), 0..300),
            1..8,
        ),
    ) {
        let mut buffer = RequestBuffer::new();
        for chunk in &chunks {
            buffer.extend(chunk);
            // Drain until Incomplete or Error — must terminate.
            let mut guard = 0usize;
            loop {
                match buffer.next_request() {
                    Parsed::Incomplete | Parsed::Error(_) => break,
                    Parsed::Request(_) => {}
                }
                guard += 1;
                prop_assert!(guard <= chunks.iter().map(Vec::len).sum::<usize>() + 1);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Socket-level adversaries against a live server
// ---------------------------------------------------------------------

fn tiny_store() -> BenchmarkStore {
    let mut ds = Dataset::new("people", Schema::new(["name"]));
    for (id, name) in [("a", "Ann"), ("b", "Anne"), ("c", "Bob"), ("d", "Bobby")] {
        ds.push_record(id, [name]);
    }
    let mut store = BenchmarkStore::new();
    store.add_dataset(ds).unwrap();
    store
        .set_gold_standard("people", Clustering::from_assignment(&[0, 0, 1, 1]))
        .unwrap();
    store
        .add_experiment(
            "people",
            Experiment::from_scored_pairs("e1", [(0u32, 1u32, 0.9)]),
            None,
        )
        .unwrap();
    store
}

fn start() -> ServerHandle {
    serve("127.0.0.1:0", Arc::new(ServerState::new(tiny_store())), 2).expect("bind")
}

/// Sends raw bytes (optionally in timed pieces) and returns everything
/// the server says until it closes the connection.
fn raw_exchange(handle: &ServerHandle, pieces: &[&[u8]]) -> String {
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for piece in pieces {
        stream.write_all(piece).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut out = Vec::new();
    stream.read_to_end(&mut out).unwrap();
    String::from_utf8_lossy(&out).into_owned()
}

#[test]
fn slow_trickled_request_still_parses() {
    let handle = start();
    let body = b"GET /datasets HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
    // Three awkward cuts: mid-method, mid-header-name, mid-terminator.
    let response = raw_exchange(
        &handle,
        &[&body[..2], &body[2..30], &body[30..53], &body[53..]],
    );
    assert!(response.starts_with("HTTP/1.1 200"), "{response:?}");
    assert!(response.contains("people"));
    handle.shutdown();
}

#[test]
fn malformed_request_line_gets_400_and_close() {
    let handle = start();
    let response = raw_exchange(&handle, &[b"GARBAGE\r\n\r\n"]);
    assert!(response.starts_with("HTTP/1.1 400"), "{response:?}");
    assert!(response.to_ascii_lowercase().contains("connection: close"));
    handle.shutdown();
}

#[test]
fn oversized_request_head_gets_400_and_close() {
    let handle = start();
    let mut huge = b"GET /".to_vec();
    huge.extend(std::iter::repeat_n(b'a', MAX_REQUEST_BYTES + 64));
    // Never completed with a terminator — the size cap must trip
    // before the (never-arriving) blank line.
    let response = raw_exchange(&handle, &[&huge]);
    assert!(response.starts_with("HTTP/1.1 400"), "{response:?}");
    assert!(response.contains("too large"));
    handle.shutdown();
}

#[test]
fn trickled_head_is_cut_at_the_deadline() {
    // Each 60ms gap stays under the 150ms per-read idle timeout, but
    // the head as a whole must complete within one idle_timeout — a
    // byte-per-interval trickler cannot hold a pool worker forever.
    let handle = serve_with(
        "127.0.0.1:0",
        Arc::new(ServerState::new(tiny_store())),
        ServeOptions {
            workers: 1,
            idle_timeout: Duration::from_millis(150),
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let head = b"GET /datasets HTTP/1.1\r\n\r\n";
    let mut response = Vec::new();
    for piece in head.chunks(4) {
        if stream.write_all(piece).is_err() {
            break; // server already hung up on us — also a pass
        }
        std::thread::sleep(Duration::from_millis(60));
    }
    let _ = stream.read_to_end(&mut response);
    let response = String::from_utf8_lossy(&response);
    // Depending on where the deadline lands the server either sent
    // the 400 or just closed; it must NOT have served a 200.
    assert!(
        !response.contains("HTTP/1.1 200"),
        "a deadline-expired head must not be served: {response:?}"
    );
    if !response.is_empty() {
        assert!(response.contains("HTTP/1.1 400"), "{response:?}");
        assert!(response.contains("timeout"), "{response:?}");
    }
    handle.shutdown();
}

#[test]
fn request_with_a_body_is_rejected() {
    let handle = start();
    let response = raw_exchange(
        &handle,
        &[b"GET /datasets HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc"],
    );
    assert!(response.starts_with("HTTP/1.1 400"), "{response:?}");
    assert!(response.contains("bodies"));
    handle.shutdown();
}

#[test]
fn error_after_served_pipeline_closes_cleanly() {
    let handle = start();
    // A valid request pipelined with garbage: the first is answered,
    // the second gets the 400, then the socket closes.
    let response = raw_exchange(
        &handle,
        &[b"GET /datasets HTTP/1.1\r\nHost: x\r\n\r\nBROKEN\r\n\r\n"],
    );
    let ok = response.matches("HTTP/1.1 200").count();
    let bad = response.matches("HTTP/1.1 400").count();
    assert_eq!((ok, bad), (1, 1), "{response:?}");
    handle.shutdown();
}

#[test]
fn oversized_diagram_sample_counts_get_400_and_the_server_lives() {
    let handle = start();
    for samples in ["100000000000", "18446744073709551615"] {
        let request = format!(
            "GET /diagram?experiment=e1&samples={samples} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        );
        let response = raw_exchange(&handle, &[request.as_bytes()]);
        assert!(
            response.starts_with("HTTP/1.1 400"),
            "{samples}: {response:?}"
        );
        assert!(response.contains("samples must be at most"), "{response:?}");
        let health = raw_exchange(
            &handle,
            &[b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"],
        );
        assert!(health.starts_with("HTTP/1.1 200"), "{health:?}");
    }
    handle.shutdown();
}

#[test]
fn naive_diagram_sample_counts_are_capped_at_table_1s_value() {
    let handle = start();
    let get = |query: &str| {
        let request =
            format!("GET /diagram?{query} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
        raw_exchange(&handle, &[request.as_bytes()])
    };
    let response = get("experiment=e1&engine=naive&samples=101");
    assert!(response.starts_with("HTTP/1.1 400"), "{response:?}");
    assert!(
        response.contains("samples must be at most 100 with engine=naive"),
        "{response:?}"
    );
    // At the cap the naive engine answers, and the optimized engine
    // keeps the general cap.
    for query in [
        "experiment=e1&engine=naive&samples=100",
        "experiment=e1&engine=optimized&samples=101",
    ] {
        let response = get(query);
        assert!(
            response.starts_with("HTTP/1.1 200"),
            "{query}: {response:?}"
        );
    }
    handle.shutdown();
}

#[test]
fn comparisons_wider_than_the_region_mask_get_400_and_the_server_lives() {
    let handle = start();
    let get = |path: &str, sets: usize| {
        let experiments = vec!["e1"; sets].join(",");
        let request = format!(
            "GET {path}?experiments={experiments} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        );
        raw_exchange(&handle, &[request.as_bytes()])
    };
    // /venn appends the gold standard as one more set.
    let response = get("/venn", 31);
    assert!(response.starts_with("HTTP/1.1 200"), "{response:?}");
    for (path, sets) in [("/venn", 32), ("/compare", 33)] {
        let response = get(path, sets);
        assert!(
            response.starts_with("HTTP/1.1 400"),
            "{path} with {sets}: {response:?}"
        );
        assert!(
            response.contains("a comparison takes at most 32 sets"),
            "{response:?}"
        );
    }
    let response = get("/compare", 32);
    assert!(response.starts_with("HTTP/1.1 200"), "{response:?}");
    let health = raw_exchange(
        &handle,
        &[b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"],
    );
    assert!(health.starts_with("HTTP/1.1 200"), "{health:?}");
    handle.shutdown();
}
