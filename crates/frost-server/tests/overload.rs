//! Loopback tests for the overload-resilience layer: bounded
//! admission with cheap `503` + `Retry-After` rejects, per-request
//! deadlines (queue wait included), cost-class gates with graceful
//! cache-hit degradation, `/healthz` + `/readyz`, drain semantics for
//! queued requests, and a ~2× soak asserting bounded queue depth,
//! bounded cache bytes, fast sheds and byte-identical successes — the
//! write path's fault-injection discipline, applied to load instead of
//! disk.

use frost_core::clustering::Clustering;
use frost_core::dataset::{Dataset, Experiment, Schema};
use frost_server::client::{read_raw_response, Connection, RetryPolicy};
use frost_server::json::response_to_json;
use frost_server::{serve_with, ServeOptions, ServerHandle, ServerState};
use frost_storage::api::{self, Request};
use frost_storage::durable::DurableStore;
use frost_storage::fault::{FailMode, FailpointFs};
use frost_storage::{snapshot, BenchmarkStore, FsyncPolicy};
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The shared fixture (mirrors `tests/write_path.rs`).
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

const CSV: &str = "id1,id2,similarity\na,b,0.9\nc,d,0.8\n";

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "frost-overload-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start(options: ServeOptions) -> ServerHandle {
    serve_with("127.0.0.1:0", Arc::new(ServerState::new(store())), options)
        .expect("bind ephemeral port")
}

/// Opens a raw connection and writes one GET without reading the
/// response yet — the building block for occupying workers and
/// filling the admission queue deterministically.
fn send_get(addr: &str, target: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let request = format!("GET {target} HTTP/1.1\r\nHost: {addr}\r\n\r\n");
    stream.write_all(request.as_bytes()).expect("send");
    stream
}

/// Reads the pending response off a [`send_get`] stream.
fn read_reply(stream: &mut TcpStream) -> (u16, String, String) {
    let mut buf = Vec::new();
    read_raw_response(stream, &mut buf).expect("read response")
}

fn get(addr: &str, target: &str) -> (u16, String, String) {
    let mut stream = send_get(addr, target);
    read_reply(&mut stream)
}

/// Extracts an integer counter from a `/stats` (or `/readyz`) body.
fn counter(body: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let start = body
        .find(&pat)
        .unwrap_or_else(|| panic!("{key:?} missing in {body}"))
        + pat.len();
    body[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{key:?} is not an integer in {body}"))
}

#[test]
fn full_admission_queue_rejects_fast_with_retry_after() {
    let handle = start(ServeOptions {
        workers: 1,
        max_queued: 1,
        debug_sleep: true,
        ..ServeOptions::default()
    });
    let addr = handle.addr().to_string();

    // Occupy the lone worker, then fill the one-slot queue.
    let mut busy = send_get(&addr, "/debug/sleep?ms=1200");
    std::thread::sleep(Duration::from_millis(150));
    let mut queued = send_get(&addr, "/debug/sleep?ms=1200");
    std::thread::sleep(Duration::from_millis(100));

    // The next connection must be rejected when its event loop adopts
    // it: immediately (no waiting out either sleep), with Retry-After,
    // and with a well-formed JSON body.
    let started = Instant::now();
    let (status, head, body) = get(&addr, "/datasets");
    let elapsed = started.elapsed();
    assert_eq!(status, 503, "{body}");
    assert!(head.contains("Retry-After: 1"), "{head}");
    assert!(head.contains("Connection: close"), "{head}");
    assert!(body.contains("\"error\""), "{body}");
    assert!(body.contains("queue full"), "{body}");
    assert!(
        elapsed < Duration::from_millis(800),
        "queue-full reject must not wait for a worker: {elapsed:?}"
    );

    // Both admitted requests still complete (no deadline configured).
    let (status, _, body) = read_reply(&mut busy);
    assert_eq!(status, 200, "{body}");
    let (status, _, body) = read_reply(&mut queued);
    assert_eq!(status, 200, "{body}");

    // The overload counters moved, and the queue bound held.
    let (status, _, stats) = get(&addr, "/stats");
    assert_eq!(status, 200);
    assert!(counter(&stats, "shed_queue_full") >= 1, "{stats}");
    assert_eq!(counter(&stats, "queue_max_depth"), 1, "{stats}");
    assert!(counter(&stats, "admitted") >= 3, "{stats}");
    // Every new gauge is present even when idle.
    for key in [
        "queue_depth",
        "shed_deadline",
        "shed_class_saturated",
        "shed_draining",
        "deadline_exceeded",
        "inflight_cached",
        "inflight_compute",
        "inflight_write",
        "response_cache_bytes",
    ] {
        let _ = counter(&stats, key);
    }
    handle.shutdown();
}

#[test]
fn shed_clients_that_never_read_do_not_delay_the_next_connection() {
    // Regression: queue-full rejects used to be written by a blocking
    // accept thread that drained each shed socket for up to 150 ms, so
    // ten shed clients that neither read nor closed held every later
    // connection back for ~1.5 s. Sheds now linger on the event loop.
    let handle = start(ServeOptions {
        workers: 1,
        max_queued: 1,
        debug_sleep: true,
        ..ServeOptions::default()
    });
    let addr = handle.addr().to_string();

    // Occupy the lone worker, then fill the one-slot queue.
    let mut busy = send_get(&addr, "/debug/sleep?ms=1500");
    std::thread::sleep(Duration::from_millis(150));
    let mut queued = send_get(&addr, "/debug/sleep?ms=1500");
    std::thread::sleep(Duration::from_millis(100));

    // Ten shed clients: each sends its GET, then neither reads nor
    // closes.
    let silent: Vec<TcpStream> = (0..10).map(|_| send_get(&addr, "/datasets")).collect();

    let started = Instant::now();
    let (status, _, body) = get(&addr, "/datasets");
    let elapsed = started.elapsed();
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("queue full"), "{body}");
    assert!(
        elapsed < Duration::from_millis(500),
        "the eleventh shed waited behind the silent ones: {elapsed:?}"
    );
    drop(silent);

    let (status, _, body) = read_reply(&mut busy);
    assert_eq!(status, 200, "{body}");
    let (status, _, body) = read_reply(&mut queued);
    assert_eq!(status, 200, "{body}");
    handle.shutdown();
}

#[test]
fn a_request_that_waited_out_its_deadline_is_shed_before_any_work() {
    let handle = start(ServeOptions {
        workers: 1,
        max_queued: 4,
        request_deadline: Some(Duration::from_millis(250)),
        debug_sleep: true,
        ..ServeOptions::default()
    });
    let addr = handle.addr().to_string();
    let renders_before = handle.state().json_renders();

    // The sleeper starts evaluating before its deadline, so it is
    // served (late — the server never cancels mid-compute).
    let mut busy = send_get(&addr, "/debug/sleep?ms=900");
    std::thread::sleep(Duration::from_millis(100));
    // This one waits ~800 ms in the queue — past its 250 ms deadline
    // — and must be shed without being parsed into an evaluation.
    let mut stale = send_get(&addr, "/metrics?experiment=e1");

    let (status, _, body) = read_reply(&mut busy);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("slept_ms"), "{body}");
    let (status, head, body) = read_reply(&mut stale);
    assert_eq!(status, 503, "{body}");
    assert!(head.contains("Retry-After: 1"), "{head}");
    assert!(body.contains("deadline"), "{body}");
    assert_eq!(
        handle.state().json_renders(),
        renders_before,
        "a deadline-shed request must never render"
    );

    let (_, _, stats) = get(&addr, "/stats");
    assert!(counter(&stats, "shed_deadline") >= 1, "{stats}");
    assert!(
        counter(&stats, "deadline_exceeded") >= counter(&stats, "shed_deadline"),
        "{stats}"
    );
    handle.shutdown();
}

#[test]
fn a_saturated_compute_class_serves_cached_bodies_and_sheds_misses() {
    let handle = start(ServeOptions {
        workers: 3,
        max_queued: 8,
        request_deadline: Some(Duration::from_millis(400)),
        debug_sleep: true,
        ..ServeOptions::default()
    });
    let addr = handle.addr().to_string();

    // Warm a compute-heavy endpoint while the class is free.
    let (status, _, warm_body) = get(&addr, "/diagram?experiment=e1");
    assert_eq!(status, 200, "{warm_body}");

    // Saturate the compute class (half of three workers: limit 1) with
    // a sleeper.
    let mut busy = send_get(&addr, "/debug/sleep?ms=1000");
    std::thread::sleep(Duration::from_millis(150));

    // The cached body keeps serving — degradation, not shedding —
    // byte-identical and without waiting on the gate.
    let started = Instant::now();
    let (status, _, body) = get(&addr, "/diagram?experiment=e1");
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, warm_body, "cached body must be byte-identical");
    assert!(
        started.elapsed() < Duration::from_millis(700),
        "a cache hit must not wait out the saturated gate"
    );

    // The in-flight gauge sees the sleeper holding the class.
    let (_, _, stats) = get(&addr, "/stats");
    assert!(counter(&stats, "inflight_compute") >= 1, "{stats}");

    // A compute-class *miss* cannot get a permit before its deadline:
    // shed, fast, with Retry-After.
    let started = Instant::now();
    let (status, head, body) = get(&addr, "/venn?experiments=e1,e2");
    assert_eq!(status, 503, "{body}");
    assert!(head.contains("Retry-After: 1"), "{head}");
    assert!(
        started.elapsed() < Duration::from_millis(900),
        "a saturated-class shed must not outwait the sleeper"
    );

    let (status, _, body) = read_reply(&mut busy);
    assert_eq!(status, 200, "{body}");
    let (_, _, stats) = get(&addr, "/stats");
    assert!(
        counter(&stats, "shed_class_saturated") + counter(&stats, "shed_deadline") >= 1,
        "{stats}"
    );
    handle.shutdown();
}

#[test]
fn health_endpoints_serve_on_a_volatile_store() {
    let handle = start(ServeOptions::default());
    let addr = handle.addr().to_string();
    let (status, _, body) = get(&addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ok\":true"), "{body}");
    let (status, _, body) = get(&addr, "/readyz");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ready\":true"), "{body}");
    assert!(body.contains("\"wal_poisoned\":false"), "{body}");
    handle.shutdown();
}

#[test]
fn a_default_server_bounds_its_response_cache_at_256_mib() {
    // Regression: the budget used to be an `Option` that only frostd's
    // CLI filled in, so `frost serve` (and every server built from the
    // default options) cached without a byte bound.
    let handle = start(ServeOptions::default());
    assert_eq!(handle.state().response_cache().budget(), 256 * 1024 * 1024);
    handle.shutdown();
}

#[test]
fn readyz_flips_to_not_ready_when_the_wal_is_poisoned() {
    let dir = scratch("readyz");
    let path = dir.join("store.frostb");
    snapshot::save(&store(), &path).unwrap();
    // Fresh-WAL open costs 3 fs ops; the first append's fsync is op 4
    // (the same failpoint the durable-store tests pin).
    let fs = Arc::new(FailpointFs::failing_at(4, FailMode::Error));
    let (recovered, durable, _) = DurableStore::open_with(&path, FsyncPolicy::Always, fs).unwrap();
    let handle = serve_with(
        "127.0.0.1:0",
        Arc::new(ServerState::with_durable(recovered, durable)),
        ServeOptions::default(),
    )
    .unwrap();
    let addr = handle.addr().to_string();

    let (status, _, body) = get(&addr, "/readyz");
    assert_eq!(status, 200, "healthy boot must be ready: {body}");

    // The write's WAL fsync fails: the append rolls back, the write
    // path reports 500, and the WAL is poisoned.
    let mut conn = Connection::open_with_retry(&addr, RetryPolicy::NONE).unwrap();
    let (status, body) = conn
        .post("/experiments?dataset=people&name=up1", CSV.as_bytes())
        .unwrap();
    assert_eq!(status, 500, "{body}");

    // Liveness holds; readiness flips.
    let (status, _, body) = get(&addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    let (status, _, body) = get(&addr, "/readyz");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("\"ready\":false"), "{body}");
    assert!(body.contains("\"wal_poisoned\":true"), "{body}");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGTERM/SIGINT ([`run_daemon`] calls the same
/// [`ServerHandle::graceful_shutdown`]) with a non-empty dispatch
/// queue completes in-flight requests and answers queued-but-unstarted
/// requests with a clean `503` instead of leaving them to hang.
#[test]
fn graceful_drain_completes_inflight_and_sheds_queued_connections() {
    let handle = start(ServeOptions {
        workers: 1,
        max_queued: 4,
        debug_sleep: true,
        ..ServeOptions::default()
    });
    let addr = handle.addr().to_string();

    let mut inflight = send_get(&addr, "/debug/sleep?ms=700");
    std::thread::sleep(Duration::from_millis(150));
    let mut queued = send_get(&addr, "/datasets");
    std::thread::sleep(Duration::from_millis(50));

    let readers = std::thread::spawn(move || {
        let inflight_reply = read_reply(&mut inflight);
        let queued_reply = read_reply(&mut queued);
        (inflight_reply, queued_reply)
    });
    handle.graceful_shutdown();

    let ((status, _, body), (q_status, q_head, q_body)) = readers.join().unwrap();
    assert_eq!(status, 200, "in-flight request must complete: {body}");
    assert!(body.contains("slept_ms"), "{body}");
    assert_eq!(
        q_status, 503,
        "queued connection gets a clean 503: {q_body}"
    );
    assert!(q_head.contains("Retry-After: 1"), "{q_head}");
    assert!(q_body.contains("draining"), "{q_body}");
}

/// The soak: flood a deliberately tiny server at well over its
/// capacity and hold the overload invariants — every reject is a fast
/// `503` + `Retry-After`, queue depth and cache bytes stay bounded,
/// and every `200` body is byte-identical to the in-process rendering
/// of the same request.
#[test]
fn soak_at_twice_capacity_stays_bounded_and_byte_identical() {
    const CACHE_BUDGET: usize = 256 * 1024;
    let handle = start(ServeOptions {
        workers: 2,
        max_queued: 2,
        request_deadline: Some(Duration::from_millis(300)),
        cache_budget: CACHE_BUDGET,
        debug_sleep: true,
        ..ServeOptions::default()
    });
    let addr = handle.addr().to_string();

    // In-process ground truth for every cacheable target the flood
    // uses: handle + render, no HTTP anywhere.
    let reference = store();
    let targets: Vec<(&str, Request)> = vec![
        (
            "/metrics?experiment=e1",
            Request::GetMetrics {
                experiment: "e1".into(),
            },
        ),
        (
            "/metrics?experiment=e2",
            Request::GetMetrics {
                experiment: "e2".into(),
            },
        ),
        ("/datasets", Request::ListDatasets),
        ("/experiments", Request::ListExperiments { dataset: None }),
    ];
    let expected: Vec<(String, String)> = targets
        .into_iter()
        .map(|(target, request)| {
            let response = api::handle(&reference, request).expect(target);
            (
                target.to_string(),
                serde_json::to_string(&response_to_json(&response)),
            )
        })
        .collect();
    // Warm each under no load — these must already match.
    for (target, want) in &expected {
        let (status, _, body) = get(&addr, target);
        assert_eq!(status, 200, "{body}");
        assert_eq!(&body, want, "warm body mismatch for {target}");
    }
    let expected = Arc::new(expected);

    // ~2× offered load: six conn-per-request threads against two
    // workers whose compute class admits one 25 ms sleep at a time.
    let flood_until = Instant::now() + Duration::from_millis(1500);
    let mut floods = Vec::new();
    for worker in 0..6 {
        let addr = addr.clone();
        let expected = Arc::clone(&expected);
        floods.push(std::thread::spawn(move || {
            let mut ok = 0u64;
            let mut shed = 0u64;
            let mut refused = 0u64;
            let mut faults: Vec<String> = Vec::new();
            let mut i = worker;
            while Instant::now() < flood_until {
                let target = if i % 3 == 0 {
                    "/debug/sleep?ms=25"
                } else {
                    expected[i % expected.len()].0.as_str()
                };
                i += 1;
                let started = Instant::now();
                let Ok(mut stream) = TcpStream::connect(&addr) else {
                    refused += 1;
                    continue;
                };
                stream
                    .set_read_timeout(Some(Duration::from_secs(5)))
                    .unwrap();
                let request = format!("GET {target} HTTP/1.1\r\nHost: {addr}\r\n\r\n");
                if stream.write_all(request.as_bytes()).is_err() {
                    refused += 1;
                    continue;
                }
                let mut buf = Vec::new();
                let Ok((status, head, body)) = read_raw_response(&mut stream, &mut buf) else {
                    refused += 1;
                    continue;
                };
                let elapsed = started.elapsed();
                match status {
                    200 => {
                        ok += 1;
                        if let Some((_, want)) = expected.iter().find(|(t, _)| t == target) {
                            if &body != want {
                                faults.push(format!("{target}: body diverged under load"));
                            }
                        }
                    }
                    503 => {
                        shed += 1;
                        if !head.contains("Retry-After:") {
                            faults.push(format!("{target}: 503 without Retry-After: {head}"));
                        }
                        if body.is_empty() || !body.contains("\"error\"") {
                            faults.push(format!("{target}: malformed shed body {body:?}"));
                        }
                        if elapsed > Duration::from_secs(2) {
                            faults.push(format!("{target}: slow shed {elapsed:?}"));
                        }
                    }
                    other => faults.push(format!("{target}: unexpected status {other}: {body}")),
                }
            }
            (ok, shed, refused, faults)
        }));
    }
    let mut total_ok = 0;
    let mut total_shed = 0;
    let mut total_refused = 0;
    let mut faults = Vec::new();
    for flood in floods {
        let (ok, shed, refused, thread_faults) = flood.join().unwrap();
        total_ok += ok;
        total_shed += shed;
        total_refused += refused;
        faults.extend(thread_faults);
    }
    assert!(faults.is_empty(), "soak faults: {faults:#?}");
    assert!(total_ok > 0, "some requests must be served under overload");
    assert!(
        total_shed > 0,
        "2x offered load must shed (ok={total_ok}, refused={total_refused})"
    );

    // Bounds held: the queue never grew past its cap, and the response
    // cache stayed inside the whole byte budget.
    let (status, _, stats) = get(&addr, "/stats");
    assert_eq!(status, 200);
    assert!(
        counter(&stats, "queue_max_depth") <= 2,
        "queue bound violated: {stats}"
    );
    assert!(counter(&stats, "admitted") > 0, "{stats}");
    let state = handle.state();
    assert!(
        state.response_cache().bytes() <= CACHE_BUDGET,
        "response-cache bytes over budget: {}",
        state.response_cache().bytes()
    );

    // And the flood changed nothing: the same requests still serve
    // the in-process rendering, byte for byte.
    for (target, want) in expected.iter() {
        let (status, _, body) = get(&addr, target);
        assert_eq!(status, 200, "{body}");
        assert_eq!(&body, want, "post-soak body mismatch for {target}");
    }
    handle.shutdown();
}

#[test]
fn expired_request_with_bogus_method_is_shed_not_405() {
    // Regression: the 405 method check used to run *before* the
    // per-request deadline check, so an expired request with a bad
    // method was evaluated (as a 405) and bypassed shed accounting.
    let handle = start(ServeOptions {
        workers: 1,
        request_deadline: Some(Duration::from_millis(250)),
        debug_sleep: true,
        ..ServeOptions::default()
    });
    let addr = handle.addr().to_string();

    // Pipeline a slow request and a bogus-method request in one
    // write: by the time the PUT is parsed (after the sleeper's
    // response), its deadline — clocked from arrival — has passed.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let pipeline = format!(
        "GET /debug/sleep?ms=600 HTTP/1.1\r\nHost: {addr}\r\n\r\n\
         PUT /datasets HTTP/1.1\r\nHost: {addr}\r\n\r\n"
    );
    stream.write_all(pipeline.as_bytes()).expect("send");

    let mut buf = Vec::new();
    let (status, _, body) = read_raw_response(&mut stream, &mut buf).expect("first response");
    assert_eq!(status, 200, "{body}");
    let (status, _, body) = read_raw_response(&mut stream, &mut buf).expect("second response");
    assert_eq!(status, 503, "expired PUT must shed, not 405: {body}");
    assert!(body.contains("deadline"), "{body}");

    let (status, _, stats) = get(&addr, "/stats");
    assert_eq!(status, 200);
    assert!(counter(&stats, "shed_deadline") >= 1, "{stats}");
    assert_eq!(
        counter(&stats, "method_not_allowed"),
        0,
        "an expired request must never reach method evaluation: {stats}"
    );
    handle.shutdown();
}

#[test]
fn method_not_allowed_is_counted_in_stats() {
    let handle = start(ServeOptions::default());
    let addr = handle.addr().to_string();

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(format!("PUT /datasets HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes())
        .expect("send");
    let mut buf = Vec::new();
    let (status, head, _) = read_raw_response(&mut stream, &mut buf).expect("response");
    assert_eq!(status, 405);
    assert!(head.contains("Connection: close"), "{head}");

    let (status, _, stats) = get(&addr, "/stats");
    assert_eq!(status, 200);
    assert_eq!(counter(&stats, "method_not_allowed"), 1, "{stats}");
    handle.shutdown();
}

#[test]
fn shed_response_survives_a_client_that_pauses_before_reading() {
    // Regression: the post-shed drain broke out of its loop on the
    // first read timeout (~50 ms) instead of draining until the
    // documented ~150 ms deadline. A client that paused, wrote more
    // bytes, then read would hit a closed socket: the kernel answers
    // writes-after-close with RST, which destroys the buffered 503.
    let handle = start(ServeOptions {
        workers: 1,
        max_queued: 1,
        debug_sleep: true,
        ..ServeOptions::default()
    });
    let addr = handle.addr().to_string();

    // Occupy the lone worker, then fill the one-slot queue.
    let mut busy = send_get(&addr, "/debug/sleep?ms=1200");
    std::thread::sleep(Duration::from_millis(150));
    let mut queued = send_get(&addr, "/debug/sleep?ms=1200");
    std::thread::sleep(Duration::from_millis(100));

    // The shed candidate: request written, then a pause longer than
    // the drain's per-read timeout, then *more* bytes, then the read.
    let mut slow = send_get(&addr, "/datasets");
    std::thread::sleep(Duration::from_millis(80));
    slow.write_all(b"GET /datasets HTTP/1.1\r\n").expect(
        "the server must still be draining 80 ms after the shed \
         (a closed socket here means the drain ended early)",
    );
    std::thread::sleep(Duration::from_millis(20));
    let mut buf = Vec::new();
    let (status, head, body) =
        read_raw_response(&mut slow, &mut buf).expect("full 503 despite the pause");
    assert_eq!(status, 503, "{body}");
    assert!(head.contains("Retry-After"), "{head}");
    assert!(body.contains("queue full"), "{body}");

    let (status, _, body) = read_reply(&mut busy);
    assert_eq!(status, 200, "{body}");
    let (status, _, body) = read_reply(&mut queued);
    assert_eq!(status, 200, "{body}");
    handle.shutdown();
}

#[test]
fn pipelined_request_deadline_clocks_from_its_arrival() {
    // Regression: a pipelined request already buffered when its
    // predecessor's response was written used to clock its deadline
    // from response-write time — queue time spent buffered was free.
    // The deadline clock is the arrival of the request's first byte.
    let handle = start(ServeOptions {
        workers: 1,
        request_deadline: Some(Duration::from_millis(250)),
        debug_sleep: true,
        ..ServeOptions::default()
    });
    let addr = handle.addr().to_string();

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let pipeline = format!(
        "GET /debug/sleep?ms=600 HTTP/1.1\r\nHost: {addr}\r\n\r\n\
         GET /datasets HTTP/1.1\r\nHost: {addr}\r\n\r\n"
    );
    stream.write_all(pipeline.as_bytes()).expect("send");

    let mut buf = Vec::new();
    // The sleeper started evaluating before its deadline: served late.
    let (status, _, body) = read_raw_response(&mut stream, &mut buf).expect("first response");
    assert_eq!(status, 200, "{body}");
    // The second request waited ~600 ms buffered — far past its
    // 250 ms deadline. Clocked from arrival it must shed; clocked
    // from response-write time (the bug) it would have served.
    let (status, _, body) = read_raw_response(&mut stream, &mut buf).expect("second response");
    assert_eq!(
        status, 503,
        "a pipelined request that waited out its deadline must shed: {body}"
    );
    assert!(body.contains("deadline"), "{body}");

    let (status, _, stats) = get(&addr, "/stats");
    assert_eq!(status, 200);
    assert!(counter(&stats, "shed_deadline") >= 1, "{stats}");
    handle.shutdown();
}
