//! Loopback tests for the durable write path: `POST /experiments`,
//! `DELETE /experiments/<name>`, `POST /snapshot/save`, restart
//! recovery from snapshot + WAL, scoped cache invalidation, panic
//! isolation, and graceful drain.

use frost_core::clustering::Clustering;
use frost_core::dataset::{Dataset, Experiment, Schema};
use frost_server::client::{Connection, RetryPolicy};
use frost_server::{serve_with, ServeOptions, ServerHandle, ServerState};
use frost_storage::durable::DurableStore;
use frost_storage::{snapshot, BenchmarkStore, FsyncPolicy};
use std::path::PathBuf;
use std::sync::Arc;

/// The shared fixture (mirrors `tests/keepalive.rs`).
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
        "frost-writepath-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start_volatile(options: ServeOptions) -> ServerHandle {
    serve_with("127.0.0.1:0", Arc::new(ServerState::new(store())), options)
        .expect("bind ephemeral port")
}

fn start_durable(path: &std::path::Path, options: ServeOptions) -> ServerHandle {
    let (store, durable, _) = DurableStore::open(path, FsyncPolicy::Always).expect("open durable");
    serve_with(
        "127.0.0.1:0",
        Arc::new(ServerState::with_durable(store, durable)),
        options,
    )
    .expect("bind ephemeral port")
}

#[test]
fn imports_deletes_and_saves_survive_restarts() {
    let dir = scratch("restart");
    let path = dir.join("store.frostb");
    snapshot::save(&store(), &path).unwrap();

    // Round 1: import over HTTP, verify it serves, kill the server.
    let handle = start_durable(&path, ServeOptions::default());
    let mut conn = Connection::open(&handle.addr().to_string()).unwrap();
    let (status, body) = conn
        .post("/experiments?dataset=people&name=up1", CSV.as_bytes())
        .unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"imported\":\"up1\""), "{body}");
    assert!(body.contains("\"pairs\":2"), "{body}");
    let (status, body) = conn.get("/metrics?experiment=up1").unwrap();
    assert_eq!(status, 200, "{body}");
    // Duplicate import is refused before any mutation.
    let (status, body) = conn
        .post("/experiments?dataset=people&name=up1", CSV.as_bytes())
        .unwrap();
    assert_eq!(status, 400, "{body}");
    handle.shutdown();

    // Round 2: the import was journaled — a fresh boot replays it.
    let handle = start_durable(&path, ServeOptions::default());
    let mut conn = Connection::open(&handle.addr().to_string()).unwrap();
    let (status, body) = conn.get("/experiments").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("up1"), "replayed import must serve: {body}");
    // Delete it, then fold the WAL into the snapshot.
    let (status, body) = conn.delete("/experiments/up1").unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"deleted\":\"up1\""), "{body}");
    let (status, body) = conn.post("/snapshot/save", &[]).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"saved\":true"), "{body}");
    let (status, _) = conn.delete("/experiments/up1").unwrap();
    assert_eq!(status, 404, "double delete reports missing");
    handle.shutdown();

    // Round 3: the compacted snapshot is authoritative, the WAL empty.
    let (reopened, durable, report) = DurableStore::open(&path, FsyncPolicy::Always).unwrap();
    assert_eq!(report.replayed, 0, "save folded the WAL into the snapshot");
    assert_eq!(durable.wal_backlog(), 0);
    assert_eq!(reopened.experiment_names(None), vec!["e1", "e2"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_writes_are_rejected_with_400() {
    let handle = start_volatile(ServeOptions::default());
    let mut conn = Connection::open(&handle.addr().to_string()).unwrap();
    // Missing parameters.
    let (status, body) = conn.post("/experiments", CSV.as_bytes()).unwrap();
    assert_eq!(status, 400, "{body}");
    // Empty body.
    let (status, body) = conn
        .post("/experiments?dataset=people&name=x", b"  \n ")
        .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("empty"), "{body}");
    // Unknown dataset.
    let (status, body) = conn
        .post("/experiments?dataset=nope&name=x", CSV.as_bytes())
        .unwrap();
    assert_eq!(status, 404, "{body}");
    // Unknown record id in the pair list.
    let (status, body) = conn
        .post("/experiments?dataset=people&name=x", b"id1,id2\na,zzz\n")
        .unwrap();
    assert_eq!(status, 400, "{body}");
    // A NaN score would make the diagram sweep's order undefined.
    let (status, body) = conn
        .post(
            "/experiments?dataset=people&name=x",
            b"id1,id2,similarity\na,b,0.9\nc,d,NaN\n",
        )
        .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("bad similarity"), "{body}");
    // Nothing landed.
    let (status, body) = conn.get("/experiments").unwrap();
    assert_eq!(status, 200);
    assert!(!body.contains("\"x\""), "{body}");
    // Deleting something that does not exist.
    let (status, _) = conn.delete("/experiments/ghost").unwrap();
    assert_eq!(status, 404);
    // DELETE on a non-experiment path.
    let (status, body) = conn.delete("/datasets").unwrap();
    assert_eq!(status, 405, "{body}");
    handle.shutdown();
}

/// A one-column upload has no `id2` to read: it is a client error
/// (400, `missing column "id2"`), not a handler panic (500).
#[test]
fn a_one_column_upload_is_a_missing_column_400() {
    let handle = start_volatile(ServeOptions::default());
    let mut conn = Connection::open(&handle.addr().to_string()).unwrap();
    let (status, body) = conn
        .post("/experiments?dataset=people&name=x", b"id1\na\n")
        .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("missing column"), "{body}");
    assert!(body.contains("id2"), "{body}");
    let (status, body) = conn.get("/experiments").unwrap();
    assert_eq!(status, 200);
    assert!(!body.contains("\"x\""), "{body}");
    handle.shutdown();
}

#[test]
fn volatile_store_accepts_writes_but_refuses_snapshot_save() {
    let handle = start_volatile(ServeOptions::default());
    let mut conn = Connection::open(&handle.addr().to_string()).unwrap();
    let (status, body) = conn
        .post("/experiments?dataset=people&name=mem1", CSV.as_bytes())
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = conn.get("/metrics?experiment=mem1").unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = conn.post("/snapshot/save", &[]).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("snapshot backing"), "{body}");
    handle.shutdown();
}

/// A volatile store has no WAL to stream: the replication long-poll is
/// refused at once, not after waiting out `wait_ms` on a worker.
#[test]
fn volatile_store_refuses_the_wal_long_poll_without_waiting() {
    let handle = start_volatile(ServeOptions::default());
    let mut conn = Connection::open(&handle.addr().to_string()).unwrap();
    let started = std::time::Instant::now();
    let (status, body) = conn.get("/replication/wal?from=0&wait_ms=10000").unwrap();
    let elapsed = started.elapsed();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("volatile"), "{body}");
    assert!(
        elapsed < std::time::Duration::from_millis(500),
        "the refusal waited {elapsed:?}"
    );
    handle.shutdown();
}

/// The scoped-invalidation pin: importing experiment A must not evict
/// the cached `/datasets` body nor another experiment's metrics — both
/// keep serving with **zero** additional JSON renders — while the
/// experiment listing (which now includes A) re-renders.
#[test]
fn importing_one_experiment_preserves_unrelated_cache_entries() {
    let handle = start_volatile(ServeOptions::default());
    let state = Arc::clone(handle.state());
    let mut conn = Connection::open(&handle.addr().to_string()).unwrap();

    // Warm the caches.
    for target in ["/datasets", "/metrics?experiment=e2", "/experiments"] {
        let (status, _) = conn.get(target).unwrap();
        assert_eq!(status, 200);
    }
    let warmed = state.json_renders();
    for target in ["/datasets", "/metrics?experiment=e2", "/experiments"] {
        let (status, _) = conn.get(target).unwrap();
        assert_eq!(status, 200);
    }
    assert_eq!(state.json_renders(), warmed, "warm entries serve cached");

    // Import a new experiment (one render: the POST response body).
    let (status, body) = conn
        .post("/experiments?dataset=people&name=up1", CSV.as_bytes())
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let after_import = state.json_renders();

    // Unrelated entries survive the import: still zero renders.
    let (status, datasets) = conn.get("/datasets").unwrap();
    assert_eq!(status, 200);
    assert!(datasets.contains("people"));
    let (status, _) = conn.get("/metrics?experiment=e2").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        state.json_renders(),
        after_import,
        "import of up1 must not evict /datasets or e2's metrics"
    );

    // The experiment listing was scoped to the import and re-renders.
    let (status, listing) = conn.get("/experiments").unwrap();
    assert_eq!(status, 200);
    assert!(listing.contains("up1"), "{listing}");
    assert_eq!(state.json_renders(), after_import + 1);

    // And the new experiment itself serves.
    let (status, body) = conn.get("/metrics?experiment=up1").unwrap();
    assert_eq!(status, 200, "{body}");
    handle.shutdown();
}

#[test]
fn a_panicking_handler_returns_500_and_the_worker_survives() {
    let options = ServeOptions {
        workers: 1,
        debug_panic: true,
        ..ServeOptions::default()
    };
    let handle = start_volatile(options);
    let mut conn = Connection::open(&handle.addr().to_string()).unwrap();
    let (status, body) = conn.get("/debug/panic").unwrap();
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("panicked"), "{body}");
    // The lone worker must still serve: a fresh request succeeds.
    let mut conn = Connection::open(&handle.addr().to_string()).unwrap();
    let (status, _) = conn.get("/datasets").unwrap();
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn the_debug_panic_endpoint_is_disabled_by_default() {
    let handle = start_volatile(ServeOptions::default());
    let mut conn = Connection::open(&handle.addr().to_string()).unwrap();
    let (status, _) = conn.get("/debug/panic").unwrap();
    assert_eq!(status, 404);
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_and_stops_accepting() {
    let handle = start_volatile(ServeOptions::default());
    let addr = handle.addr().to_string();
    let mut conn = Connection::open(&addr).unwrap();
    let (status, _) = conn.get("/datasets").unwrap();
    assert_eq!(status, 200);

    handle.graceful_shutdown();

    // The listener is gone: a no-retry connect (or its first request)
    // must fail rather than hang.
    match Connection::open_with_retry(&addr, RetryPolicy::NONE) {
        Err(_) => {}
        Ok(mut conn) => {
            assert!(conn.get("/datasets").is_err(), "server must be gone");
        }
    }
}
