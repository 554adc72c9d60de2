//! Loopback tests for WAL-shipping replication: replica bootstrap,
//! live tailing, byte-identical read serving, write rejection with the
//! `Frost-Primary` hint, promote-based failover, crash/restart
//! resumption (including a torn replica WAL tail), replication-lag
//! readiness gating, and the semi-synchronous ack path.
//!
//! The mid-frame streaming boundary (a primary dying partway through a
//! frame) is covered at the codec level by the `scan_stream` property
//! tests in `frost-storage/tests/wal_properties.rs`: any byte prefix
//! of a frame stream applies exactly its complete-record prefix, which
//! is what the replica apply loop feeds through.

use frost_core::clustering::Clustering;
use frost_core::dataset::{Dataset, Experiment, Schema};
use frost_server::client::{Connection, RetryPolicy};
use frost_server::replication::{bootstrap_snapshot, StreamPreamble};
use frost_server::{serve_with, ServeOptions, ServerHandle, ServerState};
use frost_storage::durable::{wal_path_for, DurableStore};
use frost_storage::wal::{self, WalOp, WAL_HEADER_LEN};
use frost_storage::{snapshot, BenchmarkStore, FsyncPolicy};
use std::io::{Read, Write};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
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
        "frost-replication-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start_durable(path: &Path, options: ServeOptions) -> ServerHandle {
    let (store, durable, _) = DurableStore::open(path, FsyncPolicy::Always).expect("open durable");
    serve_with(
        "127.0.0.1:0",
        Arc::new(ServerState::with_durable(store, durable)),
        options,
    )
    .expect("bind ephemeral port")
}

fn start_primary(path: &Path) -> ServerHandle {
    snapshot::save(&store(), path).unwrap();
    start_durable(path, ServeOptions::default())
}

/// Bootstraps `path` from a running primary and starts a replica
/// serving it.
fn start_replica(path: &Path, primary: &str, mut options: ServeOptions) -> ServerHandle {
    if !path.exists() {
        bootstrap_snapshot(primary, path, Duration::from_secs(10)).expect("bootstrap snapshot");
    }
    options.replica_of = Some(primary.to_string());
    start_durable(path, options)
}

fn wait_until(what: &str, timeout: Duration, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if done() {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("timed out after {timeout:?} waiting for {what}");
}

fn get_ok(conn: &mut Connection, target: &str) -> String {
    let (status, body) = conn.get(target).unwrap();
    assert_eq!(status, 200, "GET {target}: {body}");
    body
}

fn import(conn: &mut Connection, name: &str) -> (u16, String) {
    conn.post(
        &format!("/experiments?dataset=people&name={name}"),
        CSV.as_bytes(),
    )
    .unwrap()
}

/// Read-surface endpoints whose bodies must be byte-identical between
/// a caught-up replica (or promoted node) and the primary it shipped
/// from.
const READ_SURFACE: &[&str] = &[
    "/datasets",
    "/experiments",
    "/metrics?experiment=e1",
    "/metrics?experiment=e2",
    "/profile?dataset=people",
    "/quality?experiment=e1",
];

#[test]
fn replica_bootstraps_tails_the_wal_and_serves_identical_reads() {
    let dir = scratch("tail");
    let primary = start_primary(&dir.join("primary.frostb"));
    let primary_addr = primary.addr().to_string();
    let mut pconn = Connection::open(&primary_addr).unwrap();
    let (status, body) = import(&mut pconn, "up1");
    assert_eq!(status, 200, "{body}");

    // The replica bootstraps the snapshot over HTTP, replays the WAL
    // it tails, and serves the same read surface.
    let replica = start_replica(
        &dir.join("replica.frostb"),
        &primary_addr,
        ServeOptions::default(),
    );
    let mut rconn = Connection::open(&replica.addr().to_string()).unwrap();
    wait_until(
        "replica to catch up with up1",
        Duration::from_secs(10),
        || rconn.get("/experiments").unwrap().1.contains("up1"),
    );
    for target in READ_SURFACE {
        assert_eq!(
            get_ok(&mut pconn, target),
            get_ok(&mut rconn, target),
            "replica body must be byte-identical for {target}"
        );
    }
    let stats = get_ok(&mut rconn, "/stats");
    assert!(stats.contains("\"role\":\"replica\""), "{stats}");
    assert!(stats.contains("\"poisoned\":false"), "{stats}");
    assert!(
        get_ok(&mut pconn, "/stats").contains("\"role\":\"primary\""),
        "primary reports its role"
    );

    // Live tailing: a write after the replica attached arrives too,
    // and the replica's caches invalidate (fresh bodies, not stale
    // cached ones).
    let (status, body) = import(&mut pconn, "up2");
    assert_eq!(status, 200, "{body}");
    wait_until(
        "replica to catch up with up2",
        Duration::from_secs(10),
        || rconn.get("/experiments").unwrap().1.contains("up2"),
    );
    assert_eq!(
        get_ok(&mut pconn, "/metrics?experiment=up2"),
        get_ok(&mut rconn, "/metrics?experiment=up2"),
    );

    // The replica's readiness and metrics expose the role and lag.
    let (status, ready) = rconn.get("/readyz").unwrap();
    assert_eq!(status, 200, "{ready}");
    assert!(ready.contains("\"role\":\"replica\""), "{ready}");
    assert!(ready.contains("\"replication_lag_records\""), "{ready}");
    let metrics = get_ok(&mut rconn, "/metrics");
    assert!(metrics.contains("frost_replication_role 1"), "{metrics}");
    assert!(
        metrics.contains("frost_replication_connected 1"),
        "{metrics}"
    );

    replica.shutdown();
    primary.shutdown();
}

#[test]
fn a_replica_declines_writes_and_names_the_primary() {
    let dir = scratch("decline");
    let primary = start_primary(&dir.join("primary.frostb"));
    let primary_addr = primary.addr().to_string();
    let replica = start_replica(
        &dir.join("replica.frostb"),
        &primary_addr,
        ServeOptions::default(),
    );

    // The client connects to the replica only; the 503's
    // Frost-Primary hint re-points it, and the retry lands.
    let mut conn =
        Connection::open_with_retry(&replica.addr().to_string(), RetryPolicy::NONE).unwrap();
    let (status, body) = import(&mut conn, "up1");
    assert_eq!(status, 503, "replicas decline writes: {body}");
    assert!(body.contains("writes must go to the primary"), "{body}");
    assert_eq!(
        conn.authority(),
        primary_addr,
        "the Frost-Primary hint must re-point the connection"
    );
    let (status, body) = import(&mut conn, "up1");
    assert_eq!(status, 200, "retry lands on the primary: {body}");

    // DELETE is declined the same way.
    let mut rconn =
        Connection::open_with_retry(&replica.addr().to_string(), RetryPolicy::NONE).unwrap();
    let (status, body) = rconn.delete("/experiments/e1").unwrap();
    assert_eq!(status, 503, "{body}");

    replica.shutdown();
    primary.shutdown();
}

#[test]
fn promote_after_primary_loss_keeps_every_synchronously_acked_write() {
    let dir = scratch("failover");
    let primary_path = dir.join("primary.frostb");
    snapshot::save(&store(), &primary_path).unwrap();
    // Semi-sync needs a worker for the write *and* one for the
    // replica's concurrent poll.
    let primary = start_durable(
        &primary_path,
        ServeOptions {
            sync_replication: true,
            workers: 4,
            ..ServeOptions::default()
        },
    );
    let primary_addr = primary.addr().to_string();
    let replica_path = dir.join("replica.frostb");
    let replica = start_replica(&replica_path, &primary_addr, ServeOptions::default());
    let replica_addr = replica.addr().to_string();

    // Every acked import was, by the semi-sync contract, already
    // durable on the replica when the 200 came back.
    let mut pconn = Connection::open(&primary_addr).unwrap();
    let acked: Vec<String> = (0..5).map(|i| format!("imp{i}")).collect();
    for name in &acked {
        let (status, body) = import(&mut pconn, name);
        assert_eq!(status, 200, "sync-replicated import {name}: {body}");
    }

    // The primary is lost; promote the replica.
    primary.shutdown();
    let mut rconn = Connection::open(&replica_addr).unwrap();
    let (status, body) = rconn.post("/replication/promote", &[]).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"promoted\":true"), "{body}");
    assert!(body.contains("\"role\":\"primary\""), "{body}");
    // Promote is idempotent.
    let (status, body) = rconn.post("/replication/promote", &[]).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"promoted\":false"), "{body}");

    let experiments = get_ok(&mut rconn, "/experiments");
    for name in &acked {
        assert!(
            experiments.contains(name.as_str()),
            "acked {name} must survive failover: {experiments}"
        );
    }

    // Byte-identity: the promoted node serves exactly what a
    // single-node recovery of the lost primary's store serves.
    let recovered = start_durable(&primary_path, ServeOptions::default());
    let mut cconn = Connection::open(&recovered.addr().to_string()).unwrap();
    for target in READ_SURFACE
        .iter()
        .copied()
        .chain(["/experiments", "/metrics?experiment=imp3"])
    {
        assert_eq!(
            get_ok(&mut cconn, target),
            get_ok(&mut rconn, target),
            "promoted node must match single-node recovery for {target}"
        );
    }
    recovered.shutdown();

    // The promoted node is a real primary: it takes writes and
    // reports the role everywhere.
    let (status, body) = import(&mut rconn, "after-failover");
    assert_eq!(status, 200, "{body}");
    assert!(
        get_ok(&mut rconn, "/stats").contains("\"role\":\"primary\""),
        "promoted node reports primary"
    );

    replica.shutdown();

    // The promoted store recovers on its own: everything survives a
    // restart of the new primary.
    let reborn = start_durable(&replica_path, ServeOptions::default());
    let mut conn = Connection::open(&reborn.addr().to_string()).unwrap();
    let experiments = get_ok(&mut conn, "/experiments");
    for name in acked.iter().map(String::as_str).chain(["after-failover"]) {
        assert!(experiments.contains(name), "{name} lost on restart");
    }
    reborn.shutdown();
}

#[test]
fn a_replica_restart_resumes_from_its_applied_offset() {
    let dir = scratch("resume");
    let primary = start_primary(&dir.join("primary.frostb"));
    let primary_addr = primary.addr().to_string();
    let mut pconn = Connection::open(&primary_addr).unwrap();
    assert_eq!(import(&mut pconn, "up1").0, 200);

    let replica_path = dir.join("replica.frostb");
    let replica = start_replica(&replica_path, &primary_addr, ServeOptions::default());
    let mut rconn = Connection::open(&replica.addr().to_string()).unwrap();
    wait_until(
        "replica to catch up with up1",
        Duration::from_secs(10),
        || rconn.get("/experiments").unwrap().1.contains("up1"),
    );
    drop(rconn);
    replica.shutdown();

    // Writes continue while the replica is down...
    assert_eq!(import(&mut pconn, "up2").0, 200);
    assert_eq!(import(&mut pconn, "up3").0, 200);

    // ...and a restart replays the local WAL, then resumes tailing
    // from exactly the applied offset (no re-bootstrap: the store
    // file already exists).
    let replica = start_replica(&replica_path, &primary_addr, ServeOptions::default());
    let mut rconn = Connection::open(&replica.addr().to_string()).unwrap();
    wait_until(
        "restarted replica to catch up",
        Duration::from_secs(10),
        || rconn.get("/experiments").unwrap().1.contains("up3"),
    );
    assert_eq!(
        get_ok(&mut pconn, "/experiments"),
        get_ok(&mut rconn, "/experiments"),
    );
    replica.shutdown();
    primary.shutdown();
}

#[test]
fn a_torn_replica_wal_tail_heals_and_tailing_converges() {
    let dir = scratch("torn");
    let primary = start_primary(&dir.join("primary.frostb"));
    let primary_addr = primary.addr().to_string();
    let mut pconn = Connection::open(&primary_addr).unwrap();
    assert_eq!(import(&mut pconn, "up1").0, 200);

    let replica_path = dir.join("replica.frostb");
    let replica = start_replica(&replica_path, &primary_addr, ServeOptions::default());
    let mut rconn = Connection::open(&replica.addr().to_string()).unwrap();
    wait_until(
        "replica to catch up with up1",
        Duration::from_secs(10),
        || rconn.get("/experiments").unwrap().1.contains("up1"),
    );
    drop(rconn);
    replica.shutdown();

    // The replica died mid-apply: its WAL carries a torn half-frame.
    let wal_path = frost_storage::durable::wal_path_for(&replica_path);
    use std::io::Write;
    let mut wal = std::fs::OpenOptions::new()
        .append(true)
        .open(&wal_path)
        .unwrap();
    wal.write_all(&[0x2a, 0xde, 0xad]).unwrap(); // varint len, torn payload
    drop(wal);

    assert_eq!(import(&mut pconn, "up2").0, 200);

    // Recovery truncates the torn tail; the resumed poll offset is the
    // truncated length, so the stream realigns and converges.
    let replica = start_replica(&replica_path, &primary_addr, ServeOptions::default());
    let mut rconn = Connection::open(&replica.addr().to_string()).unwrap();
    wait_until(
        "healed replica to catch up",
        Duration::from_secs(10),
        || rconn.get("/experiments").unwrap().1.contains("up2"),
    );
    for target in READ_SURFACE {
        assert_eq!(
            get_ok(&mut pconn, target),
            get_ok(&mut rconn, target),
            "healed replica must converge byte-identically for {target}"
        );
    }
    replica.shutdown();
    primary.shutdown();
}

#[test]
fn promote_during_catchup_yields_a_legal_write_prefix() {
    let dir = scratch("early-promote");
    let primary = start_primary(&dir.join("primary.frostb"));
    let primary_addr = primary.addr().to_string();
    let mut pconn = Connection::open(&primary_addr).unwrap();
    let names: Vec<String> = (0..5).map(|i| format!("imp{i}")).collect();
    for name in &names {
        assert_eq!(import(&mut pconn, name).0, 200);
    }

    // Promote immediately — the replica may be anywhere in catch-up.
    // Whatever it applied must be a *prefix* of the primary's write
    // order: WAL shipping never reorders or skips records.
    let replica = start_replica(
        &dir.join("replica.frostb"),
        &primary_addr,
        ServeOptions::default(),
    );
    let mut rconn = Connection::open(&replica.addr().to_string()).unwrap();
    let (status, body) = rconn.post("/replication/promote", &[]).unwrap();
    assert_eq!(status, 200, "{body}");
    let experiments = get_ok(&mut rconn, "/experiments");
    let applied: Vec<bool> = names
        .iter()
        .map(|n| experiments.contains(n.as_str()))
        .collect();
    let count = applied.iter().filter(|p| **p).count();
    assert_eq!(
        &applied[..count],
        vec![true; count].as_slice(),
        "applied imports must form a prefix of the write order: {experiments}"
    );

    // A promoted mid-catchup node is a primary: it accepts writes and
    // no longer applies the old primary's stream.
    let (status, body) = import(&mut rconn, "post-promote");
    assert_eq!(status, 200, "{body}");
    replica.shutdown();
    primary.shutdown();
}

#[test]
fn replication_lag_gates_replica_readiness() {
    let dir = scratch("lag");
    let primary = start_primary(&dir.join("primary.frostb"));
    let primary_addr = primary.addr().to_string();
    let replica = start_replica(
        &dir.join("replica.frostb"),
        &primary_addr,
        ServeOptions {
            max_replica_lag: Some(300),
            ..ServeOptions::default()
        },
    );
    let mut rconn = Connection::open(&replica.addr().to_string()).unwrap();
    wait_until("replica to become ready", Duration::from_secs(10), || {
        rconn.get("/readyz").unwrap().0 == 200
    });

    // The primary goes away: lag grows past the bound and the replica
    // takes itself out of rotation — while still serving reads.
    primary.shutdown();
    wait_until(
        "lag to exceed the 300ms bound",
        Duration::from_secs(10),
        || rconn.get("/readyz").unwrap().0 == 503,
    );
    let (_, ready) = rconn.get("/readyz").unwrap();
    assert!(
        ready.contains("\"replication_lag_exceeded\":true"),
        "{ready}"
    );
    let (status, _) = rconn.get("/experiments").unwrap();
    assert_eq!(status, 200, "an unready replica still serves reads");
    let metrics = get_ok(&mut rconn, "/metrics");
    assert!(
        metrics.contains("frost_replication_connected 0"),
        "{metrics}"
    );
    replica.shutdown();
}

#[test]
fn sync_replication_times_out_safely_without_a_replica() {
    let dir = scratch("sync-timeout");
    let path = dir.join("primary.frostb");
    snapshot::save(&store(), &path).unwrap();
    let primary = start_durable(
        &path,
        ServeOptions {
            sync_replication: true,
            workers: 2,
            // Keep the test fast: the ack wait is bounded by the
            // request deadline, not only the 5s ack timeout.
            request_deadline: Some(Duration::from_millis(300)),
            ..ServeOptions::default()
        },
    );
    let mut conn = Connection::open(&primary.addr().to_string()).unwrap();
    let (status, body) = import(&mut conn, "up1");
    assert_eq!(status, 503, "no replica ever acks: {body}");
    assert!(body.contains("durable on the primary"), "{body}");
    primary.shutdown();

    // The write it reported 503 for is nonetheless durable (the safe
    // direction): recovery serves it.
    let recovered = start_durable(&path, ServeOptions::default());
    let mut conn = Connection::open(&recovered.addr().to_string()).unwrap();
    let body = get_ok(&mut conn, "/experiments");
    assert!(body.contains("up1"), "{body}");
    recovered.shutdown();
}

#[test]
fn a_replicated_record_that_fails_prepare_changes_nothing() {
    let dir = scratch("bad-record");
    let path = dir.join("replica.frostb");
    snapshot::save(&store(), &path).unwrap();
    let (recovered, durable, _) = DurableStore::open(&path, FsyncPolicy::Always).unwrap();
    let state = ServerState::with_durable(recovered, durable);
    let wal = wal_path_for(&path);
    let position = state.replication_position();
    let wal_bytes = std::fs::read(&wal).unwrap();
    let names = state.with_store(|s| s.experiment_names(None));
    for bad in [
        WalOp::AddExperiment {
            dataset: "nope".into(),
            name: "e3".into(),
            pairs: Vec::new(),
            kpis: None,
        },
        WalOp::DeleteExperiment {
            name: "ghost".into(),
        },
    ] {
        assert!(state.apply_replicated(&bad).is_err(), "{bad:?} applied");
        assert_eq!(state.replication_position(), position, "{bad:?}");
        assert_eq!(std::fs::read(&wal).unwrap(), wal_bytes, "{bad:?}");
        assert_eq!(state.with_store(|s| s.experiment_names(None)), names);
    }
    // A record that prepares still goes through.
    state
        .apply_replicated(&WalOp::DeleteExperiment { name: "e2".into() })
        .unwrap();
    assert!(state.replication_position().1 > position.1);
    assert_eq!(
        state.with_store(|s| s.experiment_names(None)),
        vec!["e1".to_string()]
    );
}

/// `good` (a FROSTB file of [`store`]) with record `b`'s native id
/// changed to `a` and every checksum recomputed: the file passes each
/// CRC, its own and the preamble's, but repeats a native id, so it does
/// not decode.
fn repeating_a_native_id(good: &[u8]) -> Vec<u8> {
    let crc = |bytes: &[u8]| wal::snapshot_id(bytes).crc;
    let mut bytes = good.to_vec();
    let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    for entry in (0..count).map(|i| 12 + 24 * i) {
        let field = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        let section = field(entry + 4)..field(entry + 4) + field(entry + 12);
        if &bytes[entry..entry + 4] == b"DSET" {
            // Native ids are length-prefixed: `\x01b` is record b's.
            let body = &mut bytes[section.clone()];
            let at: Vec<usize> = (0..body.len() - 1)
                .filter(|&i| &body[i..i + 2] == b"\x01b")
                .collect();
            assert_eq!(at.len(), 1, "record b's id is not unique in DSET");
            body[at[0] + 1] = b'a';
        }
        let sum = crc(&bytes[section]);
        bytes[entry + 20..entry + 24].copy_from_slice(&sum.to_le_bytes());
    }
    let table_end = 12 + 24 * count;
    let sum = crc(&bytes[..table_end]);
    bytes[table_end..table_end + 4].copy_from_slice(&sum.to_le_bytes());
    bytes
}

/// Answers every connection with `snapshot` behind a preamble that
/// names its identity, as a primary's `/replication/snapshot` does;
/// returns the address it listens on.
fn fake_primary(snapshot: Vec<u8>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let preamble = StreamPreamble {
        primary: true,
        snapshot: wal::snapshot_id(&snapshot),
        wal_len: WAL_HEADER_LEN,
        records: 0,
    };
    let mut body = preamble.encode().to_vec();
    body.extend_from_slice(&snapshot);
    std::thread::spawn(move || {
        for mut stream in listener.incoming().flatten() {
            let _ = stream.read(&mut [0u8; 1024]);
            let head = format!(
                "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                body.len()
            );
            let _ = stream
                .write_all(head.as_bytes())
                .and_then(|()| stream.write_all(&body));
        }
    });
    addr
}

#[test]
fn a_fetched_snapshot_that_does_not_decode_never_replaces_the_last_good_one() {
    let dir = scratch("undecodable");
    let path = dir.join("replica.frostb");
    snapshot::save(&store(), &path).unwrap();
    let good = std::fs::read(&path).unwrap();
    let bad = repeating_a_native_id(&good);
    assert!(snapshot::from_bytes(&bad).is_err());

    // Re-bootstrap: a running replica is offered the bytes.
    let (recovered, durable, _) = DurableStore::open(&path, FsyncPolicy::Always).unwrap();
    let state = ServerState::with_durable(recovered, durable);
    let position = state.replication_position();
    let err = state.install_snapshot(&bad).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert_eq!(std::fs::read(&path).unwrap(), good);
    assert_eq!(state.replication_position(), position);
    assert_eq!(
        state.with_store(|s| s.experiment_names(None)),
        vec!["e1".to_string(), "e2".to_string()]
    );
    drop(state);

    // Cold start: the bytes come from a primary, preamble and all.
    let primary = fake_primary(bad);
    let err = bootstrap_snapshot(&primary, &path, Duration::ZERO).unwrap_err();
    assert!(err.to_string().contains("does not decode"), "{err}");
    assert_eq!(std::fs::read(&path).unwrap(), good);

    // The replica still boots from its last good snapshot.
    let replica = start_durable(&path, ServeOptions::default());
    let mut conn = Connection::open(&replica.addr().to_string()).unwrap();
    assert!(get_ok(&mut conn, "/experiments").contains("e2"));
    replica.shutdown();
}
