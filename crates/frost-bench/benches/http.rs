//! Loopback HTTP throughput benchmark: the serving-path measurement
//! behind the keep-alive + response-byte-cache work.
//!
//! ```text
//! cargo bench -p frost-bench --bench http              # smoke scale
//! FROST_SCALE=1 cargo bench -p frost-bench --bench http
//! ```
//!
//! `N` client threads each issue `M` requests against a live `frostd`
//! server state on a loopback ephemeral port, in three transport
//! modes:
//!
//! * **conn-per-request** — a fresh TCP connection and
//!   `Connection: close` per request (the PR-4 serving model);
//! * **keep-alive** — one persistent connection per thread, reused for
//!   all `M` requests;
//! * **pipelined** — one persistent connection per thread, requests
//!   written in batches of 16 before reading the 16 responses.
//!
//! Each mode runs three endpoint mixes: **hot** (one cacheable
//! endpoint repeated — served from the response-byte tier by a single
//! `write_all`), **cold** (every request a distinct uncached `/diagram`
//! shape — full compute + render), and **mixed** (alternating).
//!
//! The run hard-asserts keep-alive ≥ 2× conn-per-request on the hot
//! mix (scale ≥ 0.05) and records that ratio as
//! `keepalive.hot_speedup_vs_conn_per_request` for the CI gate
//! (`FROST_BENCH_BASELINE`, −25% floor). Results land in
//! `BENCH_http.json` (`FROST_BENCH_OUT` overrides), with the CPU count
//! (`nproc`) and each phase's round count beside the scale.
//!
//! A second phase measures **overload behavior** against a
//! deliberately constrained server (2 workers, bounded admission
//! queue, 200 ms request deadline): closed-loop capacity first, then
//! paced open-loop floods at 1× and 2× of that capacity, reporting
//! goodput (successful responses per second) and p50/p99 latency per
//! run. `overload.goodput_ratio_2x_vs_1x` — how well goodput holds up
//! when offered load doubles past capacity — is the shedding
//! regression gate (same −25% baseline floor).
//!
//! A third phase measures the **high-connection mix**: a herd of
//! mostly-idle keep-alive connections (8 000 at scale 1) held open
//! against the event loop while a small active subset keeps issuing
//! hot requests. Active p50/p99/p999 latency is recorded with and
//! without the herd; `highconn.p99_penalty_vs_alone` — how much the
//! idle mass inflates active tail latency — is the C10K regression
//! gate (3× ceiling vs the recorded baseline ratio).
//!
//! A fourth phase measures **telemetry overhead**: the hot keep-alive
//! mix against a server with per-request tracing + histograms enabled
//! (the default) vs `--no-telemetry`, interleaved over several rounds
//! with the min-of-rounds p50 per arm. `telemetry.overhead_pct` lands
//! in the JSON and the run hard-asserts the enabled arm costs ≤ 5%
//! hot-path p50 (scale ≥ 0.05).
//!
//! All percentiles here come from the same log-linear histogram the
//! server's `/metrics` endpoint exposes
//! ([`frost_storage::telemetry::Histogram`]), not a private
//! sort-and-index — one quantile implementation, property-tested
//! against exact order statistics in `frost-storage`.

use frost_datagen::experiments::synthetic_experiment;
use frost_datagen::generator::{generate, GeneratorConfig};
use frost_server::client::{http_get, read_raw_response, Connection, IdleHerd};
use frost_server::{serve_with, ServeOptions, ServerHandle, ServerState};
use frost_storage::telemetry::Histogram;
use frost_storage::BenchmarkStore;
use serde_json::Value;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pipelining depth for the pipelined mode.
const PIPELINE_DEPTH: usize = 16;

fn build_store(scale: f64) -> BenchmarkStore {
    let records = ((8_000f64) * scale).max(400.0) as usize;
    let generated = generate(&GeneratorConfig::small("http-bench", records, 31));
    let name = generated.dataset.name().to_string();
    let mut store = BenchmarkStore::new();
    store.add_dataset(generated.dataset).expect("fresh store");
    store
        .set_gold_standard(&name, generated.truth)
        .expect("dataset just added");
    let truth = store.gold_standard(&name).expect("just set").clone();
    for (i, fraction) in [(1, 0.9), (2, 0.7), (3, 0.5)] {
        let exp = synthetic_experiment(
            format!("{name}-run{i}"),
            &truth,
            (records * 2).max(64),
            fraction,
            700 + i as u64,
        );
        store.add_experiment(&name, exp, None).expect("unique name");
    }
    store
}

/// The three endpoint mixes. Cold requests must each be a distinct
/// cache key, so the target carries a per-request discriminator.
#[derive(Clone, Copy)]
enum Mix {
    Hot,
    Cold,
    Mixed,
}

impl Mix {
    fn name(self) -> &'static str {
        match self {
            Mix::Hot => "hot",
            Mix::Cold => "cold",
            Mix::Mixed => "mixed",
        }
    }
}

/// URL-safe `x`-metric names used to widen the cold key space.
const COLD_METRICS: [&str; 4] = ["recall", "precision", "f1", "accuracy"];

/// The target for request number `seq` of a thread. Hot requests reuse
/// one cacheable endpoint; cold requests enumerate distinct `/diagram`
/// shapes (sample count × x-metric × experiment are all part of the
/// cache key), so within one run every cold request is a fresh compute
/// — the caches are additionally invalidated between runs. Samples
/// stay small so compute cost is the endpoint's floor, not an
/// artificial inflation.
fn target_for(
    mix: Mix,
    experiments: &[String],
    requests_per_thread: usize,
    thread: usize,
    seq: usize,
) -> String {
    let hot = || format!("/metrics?experiment={}", experiments[0]);
    let cold = |seq: usize| {
        let g = thread * requests_per_thread + seq;
        let samples = 7 + g % 211;
        let x = COLD_METRICS[(g / 211) % COLD_METRICS.len()];
        let experiment = &experiments[(g / (211 * COLD_METRICS.len())) % experiments.len()];
        format!("/diagram?experiment={experiment}&x={x}&samples={samples}")
    };
    match mix {
        Mix::Hot => hot(),
        Mix::Cold => cold(seq),
        Mix::Mixed => {
            if seq.is_multiple_of(2) {
                hot()
            } else {
                cold(seq)
            }
        }
    }
}

/// Runs `threads × requests` in the given transport mode and returns
/// requests per second (wall clock across all threads).
fn run_mode(
    handle: &ServerHandle,
    mode: &'static str,
    mix: Mix,
    experiments: &Arc<Vec<String>>,
    threads: usize,
    requests: usize,
) -> f64 {
    let addr = handle.addr();
    let start = Instant::now();
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let experiments = Arc::clone(experiments);
            std::thread::spawn(move || match mode {
                "conn_per_request" => {
                    for seq in 0..requests {
                        let target = target_for(mix, &experiments, requests, t, seq);
                        let (status, _) =
                            http_get(&format!("http://{addr}{target}")).expect("request");
                        assert_eq!(status, 200);
                    }
                }
                "keepalive" => {
                    let mut conn = Connection::open(&addr.to_string()).expect("connect");
                    for seq in 0..requests {
                        let target = target_for(mix, &experiments, requests, t, seq);
                        let (status, _) = conn.get(&target).expect("request");
                        assert_eq!(status, 200);
                    }
                }
                "pipelined" => {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    stream
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .expect("timeout");
                    let mut spill: Vec<u8> = Vec::new();
                    let mut seq = 0usize;
                    while seq < requests {
                        let batch = PIPELINE_DEPTH.min(requests - seq);
                        let mut wire = String::new();
                        for k in 0..batch {
                            let target = target_for(mix, &experiments, requests, t, seq + k);
                            wire.push_str(&format!("GET {target} HTTP/1.1\r\nHost: b\r\n\r\n"));
                        }
                        stream.write_all(wire.as_bytes()).expect("send batch");
                        for _ in 0..batch {
                            read_one_response(&mut stream, &mut spill);
                        }
                        seq += batch;
                    }
                }
                other => panic!("unknown mode {other}"),
            })
        })
        .collect();
    for w in workers {
        w.join().expect("bench client thread");
    }
    (threads * requests) as f64 / start.elapsed().as_secs_f64()
}

/// Reads one Content-Length framed response off a pipelined socket
/// (the client's framing implementation, shared with the tests).
fn read_one_response(stream: &mut TcpStream, spill: &mut Vec<u8>) {
    let (status, head, _) = read_raw_response(stream, spill).expect("framed response");
    assert_eq!(status, 200, "bad response: {head:?}");
}

/// The overload phase's request stream: every request is a distinct
/// response-cache key (samples band × x-metric × y-metric ×
/// experiment ≈ 10k keys per generation), so each one exercises the
/// compute class rather than the cached fast path, at a stable
/// per-request cost: each one sweeps its experiment's series at a
/// sample count from a fixed band.
fn overload_target(experiments: &[String], g: usize) -> String {
    let samples = 16 + g % 211;
    let x = COLD_METRICS[(g / 211) % COLD_METRICS.len()];
    let y = COLD_METRICS[(g / (211 * COLD_METRICS.len())) % COLD_METRICS.len()];
    let len = 211 * COLD_METRICS.len() * COLD_METRICS.len();
    let experiment = &experiments[(g / len) % experiments.len()];
    format!("/diagram?experiment={experiment}&x={x}&y={y}&samples={samples}")
}

/// One conn-per-request exchange; `None` means the connection itself
/// failed (refused / reset), which the overload runs count separately.
fn overload_request(addr: &str, target: &str) -> Option<(u16, Duration)> {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .ok()?;
    let request = format!("GET {target} HTTP/1.1\r\nHost: b\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).ok()?;
    let mut spill = Vec::new();
    let (status, _, _) = read_raw_response(&mut stream, &mut spill).ok()?;
    Some((status, started.elapsed()))
}

/// Pacer threads for the paced floods. Deliberately larger than
/// `workers + max_queued`: a synchronous pacer stalls while a request
/// is in flight, so overload (queue-full rejects, deadline sheds) is
/// only reachable when the client-side concurrency ceiling exceeds
/// what the server will queue.
const PACERS: usize = 16;

/// Clients for the closed-loop capacity probe: enough to keep both
/// workers busy with the queue partly full, few enough (strictly
/// below `workers + max_queued`) that the probe never floods its own
/// measurement with reject churn.
const PROBE_CLIENTS: usize = 6;

/// Closed-loop capacity probe: [`PROBE_CLIENTS`] flat-out
/// conn-per-request clients against the constrained server;
/// successful responses per second is the capacity the paced floods
/// are scaled from.
fn overload_capacity(addr: &str, experiments: &Arc<Vec<String>>, requests: usize) -> f64 {
    let counter = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let start = Instant::now();
    let clients: Vec<_> = (0..PROBE_CLIENTS)
        .map(|_| {
            let addr = addr.to_string();
            let experiments = Arc::clone(experiments);
            let counter = Arc::clone(&counter);
            std::thread::spawn(move || {
                let mut ok = 0usize;
                loop {
                    let g = counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if g >= requests {
                        return ok;
                    }
                    let target = overload_target(&experiments, g);
                    if matches!(overload_request(&addr, &target), Some((200, _))) {
                        ok += 1;
                    }
                }
            })
        })
        .collect();
    let ok: usize = clients.into_iter().map(|c| c.join().expect("client")).sum();
    assert!(ok > 0, "capacity probe served nothing");
    ok as f64 / start.elapsed().as_secs_f64()
}

struct OverloadRun {
    offered_multiple: f64,
    offered_rps: f64,
    attempted_rps: f64,
    goodput_rps: f64,
    ok: usize,
    shed: usize,
    errors: usize,
    p50_ms: f64,
    p99_ms: f64,
}

/// Millisecond percentile through the shared telemetry histogram —
/// the same quantile implementation `/metrics` serves, accurate to one
/// bucket width (≤ 0.8% relative at `sub_bits` 7).
fn percentile_ms(latencies: &[Duration], p: f64) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    let histogram = Histogram::new(7);
    for latency in latencies {
        histogram.record_duration(*latency);
    }
    histogram.quantile(p) as f64 / 1e6
}

/// The active subset of the high-connection phase: `threads`
/// keep-alive clients each timing `requests` hot requests
/// individually. Returns throughput plus the latency sample.
fn run_active_subset(
    addr: &str,
    target: &str,
    threads: usize,
    requests: usize,
) -> (f64, Vec<Duration>) {
    let start = Instant::now();
    let clients: Vec<_> = (0..threads)
        .map(|_| {
            let addr = addr.to_string();
            let target = target.to_string();
            std::thread::spawn(move || {
                let mut conn = Connection::open(&addr).expect("active connect");
                let mut latencies = Vec::with_capacity(requests);
                for _ in 0..requests {
                    let begun = Instant::now();
                    let (status, _) = conn.get(&target).expect("active request");
                    assert_eq!(status, 200);
                    latencies.push(begun.elapsed());
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<Duration> = Vec::new();
    for client in clients {
        latencies.extend(client.join().expect("active client"));
    }
    let rps = latencies.len() as f64 / start.elapsed().as_secs_f64();
    (rps, latencies)
}

/// The `{rps, p50, p99, p999}` JSON entry for one active-subset run.
fn active_entry(rps: f64, latencies: &[Duration]) -> Value {
    Value::object([
        ("requests_per_second".to_string(), Value::from(rps)),
        (
            "p50_ms".to_string(),
            Value::from(percentile_ms(latencies, 0.50)),
        ),
        (
            "p99_ms".to_string(),
            Value::from(percentile_ms(latencies, 0.99)),
        ),
        (
            "p999_ms".to_string(),
            Value::from(percentile_ms(latencies, 0.999)),
        ),
    ])
}

/// Paced open-loop flood: eight pacer threads jointly offer
/// `offered_rps` until `requests` have been attempted. A pacer that
/// falls behind its schedule (the server stopped answering quickly)
/// degrades to closed-loop, which the recorded `attempted_rps`
/// exposes; with shedding working, rejects are fast enough that the
/// offered rate is actually achieved.
fn run_overload(
    addr: &str,
    experiments: &Arc<Vec<String>>,
    offered_multiple: f64,
    offered_rps: f64,
    requests: usize,
) -> OverloadRun {
    let interval = Duration::from_secs_f64(PACERS as f64 / offered_rps);
    let start = Instant::now();
    let threads: Vec<_> = (0..PACERS)
        .map(|t| {
            let addr = addr.to_string();
            let experiments = Arc::clone(experiments);
            std::thread::spawn(move || {
                let quota = requests / PACERS + usize::from(t < requests % PACERS);
                let first = start + interval.mul_f64(t as f64 / PACERS as f64);
                let mut ok: Vec<Duration> = Vec::with_capacity(quota);
                let (mut shed, mut errors) = (0usize, 0usize);
                for k in 0..quota {
                    let tick = first + interval.mul_f64(k as f64);
                    if let Some(wait) = tick.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let target = overload_target(&experiments, t + k * PACERS);
                    match overload_request(&addr, &target) {
                        Some((200, latency)) => ok.push(latency),
                        Some((503, _)) => shed += 1,
                        Some(_) | None => errors += 1,
                    }
                }
                (ok, shed, errors)
            })
        })
        .collect();
    let mut latencies: Vec<Duration> = Vec::new();
    let (mut shed, mut errors) = (0usize, 0usize);
    for thread in threads {
        let (ok, s, e) = thread.join().expect("pacer thread");
        latencies.extend(ok);
        shed += s;
        errors += e;
    }
    let elapsed = start.elapsed().as_secs_f64();
    OverloadRun {
        offered_multiple,
        offered_rps,
        attempted_rps: requests as f64 / elapsed,
        goodput_rps: latencies.len() as f64 / elapsed,
        ok: latencies.len(),
        shed,
        errors,
        p50_ms: percentile_ms(&latencies, 0.50),
        p99_ms: percentile_ms(&latencies, 0.99),
    }
}

fn main() {
    let scale = frost_bench::scale_from_env();
    println!("building store (scale {scale}) ...");
    let store = build_store(scale);
    let experiments = Arc::new(store.experiment_names(None));
    let dataset = store.dataset_names()[0].clone();
    let gold = store.gold_standard(&dataset).expect("gold set").clone();
    let state = Arc::new(ServerState::new(store));
    let options = ServeOptions {
        workers: 8,
        idle_timeout: Duration::from_secs(10),
        max_requests: usize::MAX,
        ..ServeOptions::default()
    };
    let handle = serve_with("127.0.0.1:0", Arc::clone(&state), options).expect("bind");
    println!("frostd state serving on {}", handle.addr());

    // Transport correctness spot-check: both transports must return
    // the same bytes for the same target.
    let probe = format!("/metrics?experiment={}", experiments[0]);
    let (_, one_shot) = http_get(&format!("http://{}{probe}", handle.addr())).expect("probe");
    let mut conn = Connection::open(&handle.addr().to_string()).expect("probe connect");
    let (_, kept) = conn.get(&probe).expect("probe get");
    assert_eq!(one_shot, kept, "transport modes must agree byte-for-byte");
    drop(conn);

    let threads = 4usize;
    let hot_requests = ((4_000f64) * scale).max(200.0) as usize;
    let cold_requests = ((600f64) * scale).max(60.0) as usize;
    // The cold key space (samples × x-metric × experiment) must cover
    // one full run, or "cold" requests would silently hit the cache.
    assert!(
        threads * cold_requests <= 211 * COLD_METRICS.len() * experiments.len(),
        "cold key space too small for this scale"
    );
    println!(
        "{threads} threads; {hot_requests} hot / {cold_requests} cold requests per thread per mode"
    );

    let modes: [&'static str; 3] = ["conn_per_request", "keepalive", "pipelined"];
    let mixes = [Mix::Hot, Mix::Cold, Mix::Mixed];
    let mut results: Vec<(&'static str, &'static str, f64)> = Vec::new();
    for mix in mixes {
        let requests = match mix {
            Mix::Hot => hot_requests,
            Mix::Cold | Mix::Mixed => cold_requests,
        };
        for mode in modes {
            match mix {
                // Re-setting the identical gold standard is a
                // result-preserving mutation whose generation bump
                // clears the response cache — every cold run
                // recomputes from scratch instead of replaying the
                // previous mode's entries.
                Mix::Cold | Mix::Mixed => state.with_store_mut(|s| {
                    s.set_gold_standard(&dataset, gold.clone()).expect("reset")
                }),
                // Warm the one hot entry so the hot mix measures the
                // response-byte path from the first request.
                Mix::Hot => {
                    let warm = target_for(mix, &experiments, requests, 0, 0);
                    let (status, _) =
                        http_get(&format!("http://{}{warm}", handle.addr())).expect("warm");
                    assert_eq!(status, 200);
                }
            }
            let rps = run_mode(&handle, mode, mix, &experiments, threads, requests);
            println!("  {:<8} {:<17} {rps:>10.0} req/s", mix.name(), mode);
            results.push((mix.name(), mode, rps));
        }
    }

    let rps_of = |mix: &str, mode: &str| -> f64 {
        results
            .iter()
            .find(|(m, md, _)| *m == mix && *md == mode)
            .map(|&(_, _, r)| r)
            .expect("measured above")
    };
    let hot_speedup = rps_of("hot", "keepalive") / rps_of("hot", "conn_per_request");
    let hot_pipeline_speedup = rps_of("hot", "pipelined") / rps_of("hot", "conn_per_request");
    let mixed_speedup = rps_of("mixed", "keepalive") / rps_of("mixed", "conn_per_request");
    println!(
        "keep-alive vs conn-per-request: hot {hot_speedup:.2}×, mixed {mixed_speedup:.2}× \
(pipelined hot {hot_pipeline_speedup:.2}×)"
    );
    // The render counter proves the hot path stayed serialization-free:
    // after warmup, hot-mix traffic is served entirely from the
    // response-byte tier.
    println!(
        "server counters: {} connections, {} JSON renders, {} response-cache hits",
        state.connections_accepted(),
        state.json_renders(),
        state.response_cache().hits()
    );
    if scale >= 0.05 {
        assert!(
            hot_speedup >= 2.0,
            "keep-alive must be ≥ 2× conn-per-request on the hot mix (got {hot_speedup:.2}×)"
        );
    }
    handle.shutdown();

    // ---- Overload phase: constrained server, paced floods. ----
    const OVERLOAD_WORKERS: usize = 2;
    const OVERLOAD_MAX_QUEUED: usize = 8;
    const OVERLOAD_DEADLINE_MS: u64 = 200;
    let overload_handle = serve_with(
        "127.0.0.1:0",
        Arc::clone(&state),
        ServeOptions {
            workers: OVERLOAD_WORKERS,
            max_queued: OVERLOAD_MAX_QUEUED,
            request_deadline: Some(Duration::from_millis(OVERLOAD_DEADLINE_MS)),
            idle_timeout: Duration::from_secs(10),
            max_requests: usize::MAX,
            ..ServeOptions::default()
        },
    )
    .expect("bind overload server");
    let overload_addr = overload_handle.addr().to_string();
    // Fresh caches per phase (same reset idiom as the cold mixes), so
    // every attempted key is a genuine compute-class request. The key
    // space per reset (~10k) comfortably covers each run's request
    // budget.
    let overload_requests = ((6_000f64) * scale).clamp(600.0, 9_600.0) as usize;
    let reset =
        || state.with_store_mut(|s| s.set_gold_standard(&dataset, gold.clone()).expect("reset"));
    // The probe replays the exact request sequence the paced runs use
    // (same count, same reset), so its mix of store-level series
    // computes vs cached renders matches what "1×" will actually see.
    reset();
    let capacity = overload_capacity(&overload_addr, &experiments, overload_requests);
    println!("overload capacity ({OVERLOAD_WORKERS} workers, closed loop): {capacity:>8.0} req/s");
    let mut overload_runs: Vec<OverloadRun> = Vec::new();
    for multiple in [1.0f64, 2.0] {
        reset();
        let run = run_overload(
            &overload_addr,
            &experiments,
            multiple,
            capacity * multiple,
            overload_requests,
        );
        println!(
            "  {multiple:.0}x offered {:>8.0} req/s (attempted {:>8.0}): goodput {:>8.0} req/s, \
{} ok / {} shed / {} errors, p50 {:.2} ms, p99 {:.2} ms",
            run.offered_rps,
            run.attempted_rps,
            run.goodput_rps,
            run.ok,
            run.shed,
            run.errors,
            run.p50_ms,
            run.p99_ms
        );
        assert!(run.ok > 0, "an overloaded server must still serve requests");
        overload_runs.push(run);
    }
    let goodput_ratio = overload_runs[1].goodput_rps / overload_runs[0].goodput_rps;
    println!("overload goodput at 2x vs 1x offered load: {goodput_ratio:.2}x");
    overload_handle.shutdown();

    // ---- High-connection phase: mostly-idle keep-alive herd. ----
    const HIGHCONN_WORKERS: usize = 4;
    const HIGHCONN_EVENT_THREADS: usize = 2;
    const HIGHCONN_ACTIVE_THREADS: usize = 4;
    // 8 000 connections at scale 1 (16k fds with the client side —
    // inside the usual 20k+ descriptor budget), smoke scales down.
    let herd_size = ((8_000f64) * scale).clamp(400.0, 8_000.0) as usize;
    let highconn_handle = serve_with(
        "127.0.0.1:0",
        Arc::clone(&state),
        ServeOptions {
            workers: HIGHCONN_WORKERS,
            event_threads: HIGHCONN_EVENT_THREADS,
            // The herd is idle on purpose; reaping it mid-measurement
            // would quietly shrink what the phase claims to measure.
            idle_timeout: Duration::from_secs(120),
            max_requests: usize::MAX,
            ..ServeOptions::default()
        },
    )
    .expect("bind highconn server");
    let highconn_addr = highconn_handle.addr().to_string();
    let hot_target = format!("/metrics?experiment={}", experiments[0]);
    let (status, _) = http_get(&format!("http://{highconn_addr}{hot_target}")).expect("warm");
    assert_eq!(status, 200);
    let active_requests = ((2_000f64) * scale).max(200.0) as usize;
    // Tail latency of the active subset alone, then under the herd:
    // the same-host ratio is the portable regression signal.
    let (alone_rps, alone_lat) = run_active_subset(
        &highconn_addr,
        &hot_target,
        HIGHCONN_ACTIVE_THREADS,
        active_requests,
    );
    let mut herd = IdleHerd::open(&highconn_addr, herd_size).expect("open idle herd");
    for index in [0, herd_size / 2, herd_size - 1] {
        let (status, _) = herd.probe(index, &hot_target).expect("herd probe");
        assert_eq!(status, 200);
    }
    let (herd_rps, herd_lat) = run_active_subset(
        &highconn_addr,
        &hot_target,
        HIGHCONN_ACTIVE_THREADS,
        active_requests,
    );
    let p99_penalty = percentile_ms(&herd_lat, 0.99) / percentile_ms(&alone_lat, 0.99).max(1e-3);
    println!(
        "highconn ({herd_size} idle connections, {HIGHCONN_EVENT_THREADS} event threads): \
active alone {alone_rps:>8.0} req/s p50 {:.3} p99 {:.3} p999 {:.3} ms; \
with herd {herd_rps:>8.0} req/s p50 {:.3} p99 {:.3} p999 {:.3} ms (p99 penalty {p99_penalty:.2}x)",
        percentile_ms(&alone_lat, 0.50),
        percentile_ms(&alone_lat, 0.99),
        percentile_ms(&alone_lat, 0.999),
        percentile_ms(&herd_lat, 0.50),
        percentile_ms(&herd_lat, 0.99),
        percentile_ms(&herd_lat, 0.999),
    );
    let highconn_entry = Value::object([
        ("connections".to_string(), Value::from(herd_size)),
        ("workers".to_string(), Value::from(HIGHCONN_WORKERS)),
        (
            "event_threads".to_string(),
            Value::from(HIGHCONN_EVENT_THREADS),
        ),
        (
            "active_threads".to_string(),
            Value::from(HIGHCONN_ACTIVE_THREADS),
        ),
        (
            "active_requests_per_thread".to_string(),
            Value::from(active_requests),
        ),
        ("alone".to_string(), active_entry(alone_rps, &alone_lat)),
        ("with_herd".to_string(), active_entry(herd_rps, &herd_lat)),
        ("p99_penalty_vs_alone".to_string(), Value::from(p99_penalty)),
    ]);
    drop(herd);
    highconn_handle.shutdown();

    // ---- Telemetry overhead phase: hot path, tracing on vs off. ----
    // Interleaved rounds (on, off, on, off, …) with min-of-rounds p50
    // per arm: scheduler noise moves whole rounds, the minimum of
    // several is what the hardware actually does. Both arms reuse the
    // warmed shared state, so they serve identical response bytes.
    const TELEMETRY_ROUNDS: usize = 3;
    const TELEMETRY_THREADS: usize = 4;
    let telemetry_requests = ((2_000f64) * scale).max(200.0) as usize;
    let telemetry_target = format!("/metrics?experiment={}", experiments[0]);
    let mut p50_on = f64::INFINITY;
    let mut p50_off = f64::INFINITY;
    for _round in 0..TELEMETRY_ROUNDS {
        for enabled in [true, false] {
            let handle = serve_with(
                "127.0.0.1:0",
                Arc::clone(&state),
                ServeOptions {
                    workers: 8,
                    idle_timeout: Duration::from_secs(10),
                    max_requests: usize::MAX,
                    telemetry: enabled,
                    ..ServeOptions::default()
                },
            )
            .expect("bind telemetry server");
            let addr = handle.addr().to_string();
            let (status, _) = http_get(&format!("http://{addr}{telemetry_target}")).expect("warm");
            assert_eq!(status, 200);
            let (_, latencies) = run_active_subset(
                &addr,
                &telemetry_target,
                TELEMETRY_THREADS,
                telemetry_requests,
            );
            let p50 = percentile_ms(&latencies, 0.50);
            if enabled {
                p50_on = p50_on.min(p50);
            } else {
                p50_off = p50_off.min(p50);
            }
            handle.shutdown();
        }
    }
    let telemetry_overhead_pct = (p50_on / p50_off.max(1e-9) - 1.0) * 100.0;
    println!(
        "telemetry overhead (hot p50, min of {TELEMETRY_ROUNDS} rounds): \
on {p50_on:.4} ms, off {p50_off:.4} ms ({telemetry_overhead_pct:+.2}%)"
    );
    if scale >= 0.05 {
        // 20 µs absolute grace: at smoke scale the hot p50 is tens of
        // microseconds, where one scheduler hiccup outweighs any
        // plausible instrumentation cost.
        assert!(
            p50_on <= p50_off * 1.05 + 0.02,
            "telemetry must cost ≤ 5% hot-path p50 \
(on {p50_on:.4} ms vs off {p50_off:.4} ms, {telemetry_overhead_pct:+.2}%)"
        );
    }

    let mut mode_entries = Vec::new();
    for (mix, mode, rps) in &results {
        mode_entries.push(Value::object([
            ("mix".to_string(), Value::from(*mix)),
            ("mode".to_string(), Value::from(*mode)),
            ("requests_per_second".to_string(), Value::from(*rps)),
        ]));
    }
    let doc = Value::object([
        ("scale".to_string(), Value::from(scale)),
        ("nproc".to_string(), Value::from(frost_bench::nproc())),
        // Timed runs per measurement: every mix × mode, overload load
        // level and highconn arm runs once; telemetry interleaves.
        (
            "rounds".to_string(),
            Value::object([
                ("modes".to_string(), Value::from(1usize)),
                ("overload".to_string(), Value::from(1usize)),
                ("highconn".to_string(), Value::from(1usize)),
                ("telemetry".to_string(), Value::from(TELEMETRY_ROUNDS)),
            ]),
        ),
        ("threads".to_string(), Value::from(threads)),
        (
            "hot_requests_per_thread".to_string(),
            Value::from(hot_requests),
        ),
        (
            "cold_requests_per_thread".to_string(),
            Value::from(cold_requests),
        ),
        ("pipeline_depth".to_string(), Value::from(PIPELINE_DEPTH)),
        ("modes".to_string(), Value::Array(mode_entries)),
        (
            "keepalive".to_string(),
            Value::object([
                (
                    "hot_speedup_vs_conn_per_request".to_string(),
                    Value::from(hot_speedup),
                ),
                (
                    "mixed_speedup_vs_conn_per_request".to_string(),
                    Value::from(mixed_speedup),
                ),
                (
                    "hot_pipelined_speedup_vs_conn_per_request".to_string(),
                    Value::from(hot_pipeline_speedup),
                ),
            ]),
        ),
        (
            "overload".to_string(),
            Value::object([
                ("workers".to_string(), Value::from(OVERLOAD_WORKERS)),
                ("max_queued".to_string(), Value::from(OVERLOAD_MAX_QUEUED)),
                (
                    "request_deadline_ms".to_string(),
                    Value::from(OVERLOAD_DEADLINE_MS),
                ),
                (
                    "capacity_requests_per_second".to_string(),
                    Value::from(capacity),
                ),
                (
                    "runs".to_string(),
                    Value::Array(
                        overload_runs
                            .iter()
                            .map(|run| {
                                Value::object([
                                    (
                                        "offered_multiple".to_string(),
                                        Value::from(run.offered_multiple),
                                    ),
                                    ("offered_rps".to_string(), Value::from(run.offered_rps)),
                                    ("attempted_rps".to_string(), Value::from(run.attempted_rps)),
                                    ("goodput_rps".to_string(), Value::from(run.goodput_rps)),
                                    ("ok".to_string(), Value::from(run.ok)),
                                    ("shed".to_string(), Value::from(run.shed)),
                                    ("errors".to_string(), Value::from(run.errors)),
                                    ("p50_ms".to_string(), Value::from(run.p50_ms)),
                                    ("p99_ms".to_string(), Value::from(run.p99_ms)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "goodput_ratio_2x_vs_1x".to_string(),
                    Value::from(goodput_ratio),
                ),
            ]),
        ),
        ("highconn".to_string(), highconn_entry),
        (
            "telemetry".to_string(),
            Value::object([
                ("rounds".to_string(), Value::from(TELEMETRY_ROUNDS)),
                ("threads".to_string(), Value::from(TELEMETRY_THREADS)),
                (
                    "requests_per_thread".to_string(),
                    Value::from(telemetry_requests),
                ),
                ("p50_on_ms".to_string(), Value::from(p50_on)),
                ("p50_off_ms".to_string(), Value::from(p50_off)),
                (
                    "overhead_pct".to_string(),
                    Value::from(telemetry_overhead_pct),
                ),
            ]),
        ),
    ]);
    let workspace_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out_path = match std::env::var("FROST_BENCH_OUT") {
        Ok(p) if std::path::Path::new(&p).is_absolute() => std::path::PathBuf::from(p),
        Ok(p) => workspace_root.join(p),
        Err(_) => workspace_root.join("BENCH_http.json"),
    };
    std::fs::write(&out_path, serde_json::to_string_pretty(&doc)).expect("write bench json");
    println!("wrote {}", out_path.display());

    // Regression gate: same shape as the pairset/snapshot gates —
    // scale-matched baseline, −25% floor on the recorded hot-mix
    // keep-alive speedup (a same-host ratio, so fairly portable).
    if let Ok(baseline_env) = std::env::var("FROST_BENCH_BASELINE") {
        let mut baseline_path = std::path::PathBuf::from(&baseline_env);
        if !baseline_path.exists() {
            baseline_path = workspace_root.join(&baseline_env);
        }
        let baseline: Value = serde_json::from_str(
            &std::fs::read_to_string(&baseline_path).expect("read baseline json"),
        )
        .expect("parse baseline json");
        let recorded_scale = baseline.get("scale").and_then(Value::as_f64).unwrap_or(1.0);
        let recorded = baseline
            .get("keepalive")
            .and_then(|v| v.get("hot_speedup_vs_conn_per_request"))
            .and_then(Value::as_f64)
            .expect("baseline missing keepalive.hot_speedup_vs_conn_per_request");
        if !(recorded_scale / 1.5..=recorded_scale * 1.5).contains(&scale) {
            println!(
                "baseline gate skipped: baseline recorded at scale {recorded_scale}, this run at {scale}"
            );
        } else {
            let floor = recorded * 0.75;
            println!(
                "baseline gate (keepalive hot): {hot_speedup:.2}× vs recorded {recorded:.2}× (floor {floor:.2}×)"
            );
            if hot_speedup < floor {
                eprintln!(
                    "REGRESSION: keep-alive hot speedup {hot_speedup:.2}× fell more than 25% below the recorded {recorded:.2}×"
                );
                std::process::exit(1);
            }
            // Second gated metric: goodput retention when offered
            // load doubles past capacity. Paced loopback ratios are
            // noisier than the same-run speedup ratios (scheduler
            // contention moves both runs independently), so this gate
            // uses a −50% floor: it catches shedding collapse (a
            // thrashing server lands near 0.2×), not drift. Absent in
            // pre-overload baselines, so tolerate the missing key.
            match baseline
                .get("overload")
                .and_then(|v| v.get("goodput_ratio_2x_vs_1x"))
                .and_then(Value::as_f64)
            {
                None => println!("overload gate skipped: baseline has no overload entry"),
                Some(recorded) => {
                    let floor = recorded * 0.5;
                    println!(
                        "baseline gate (overload goodput 2x/1x): {goodput_ratio:.2}x vs recorded {recorded:.2}x (floor {floor:.2}x)"
                    );
                    if goodput_ratio < floor {
                        eprintln!(
                            "REGRESSION: overload goodput ratio {goodput_ratio:.2}x fell more than 50% below the recorded {recorded:.2}x"
                        );
                        std::process::exit(1);
                    }
                }
            }
            // Third gated metric: how much the idle herd inflates
            // active p99. Loopback tail latencies are the noisiest of
            // the gated ratios, so the ceiling is 3× the recorded
            // penalty: it catches per-request work scaling with
            // connection count (the C10K failure mode), not jitter.
            // Absent in pre-event-loop baselines — tolerate that.
            match baseline
                .get("highconn")
                .and_then(|v| v.get("p99_penalty_vs_alone"))
                .and_then(Value::as_f64)
            {
                None => println!("highconn gate skipped: baseline has no highconn entry"),
                Some(recorded) => {
                    let ceiling = recorded * 3.0;
                    println!(
                        "baseline gate (highconn p99 penalty): {p99_penalty:.2}x vs recorded {recorded:.2}x (ceiling {ceiling:.2}x)"
                    );
                    if p99_penalty > ceiling {
                        eprintln!(
                            "REGRESSION: idle-herd p99 penalty {p99_penalty:.2}x grew more than 3x past the recorded {recorded:.2}x"
                        );
                        std::process::exit(1);
                    }
                }
            }
        }
    }
}
