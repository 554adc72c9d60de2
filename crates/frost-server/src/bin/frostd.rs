//! `frostd` — the Frost benchmark query daemon.
//!
//! ```text
//! frostd <store> [--port N] [--addr HOST] [--workers N]
//!                [--event-threads N] [--idle-timeout-ms N]
//!                [--max-requests N] [--max-queued N]
//!                [--request-deadline-ms N] [--cache-budget-mb N]
//!                [--fsync always|interval:<ms>] [--debug-panic]
//!                [--slow-request-ms N] [--trace-ring N] [--no-telemetry]
//!                [--replica-of HOST:PORT] [--max-replica-lag MS]
//!                [--sync-replication]
//! ```
//!
//! `<store>` is either a `FROSTB` snapshot file (the fast path: one
//! sequential read) or a CSV store directory written by
//! `frost_storage::persist::save`. Port 0 binds an ephemeral port; the
//! bound address is printed on the first line so scripts can scrape
//! it.
//!
//! Serving a `FROSTB` snapshot enables the durable write path: a
//! `FROSTW` write-ahead log at `<store>.wal` is replayed on boot and
//! appended on every `POST`/`DELETE`. `--fsync` picks the durability
//! policy: `always` (default; fsync before acknowledging each write)
//! or `interval:<ms>` (batch fsyncs, bounding loss to the interval).
//! CSV store directories serve the same write endpoints in-memory.
//!
//! Connections are HTTP/1.1 keep-alive, multiplexed by a small set of
//! readiness-polling event threads (`--event-threads`): idle
//! connections cost a poll slot, not a thread, so thousands of
//! keep-alive clients coexist with a worker pool sized for the CPU.
//! `--idle-timeout-ms` bounds both connection idleness and head
//! assembly, and `--max-requests` caps the responses served per
//! connection before the server closes it (`Connection: close` is
//! advertised on the final response). `SIGINT`/`SIGTERM` drain
//! in-flight requests and fsync the WAL before exiting.
//!
//! Overload controls: `--max-queued` bounds the admission queue
//! (excess connections are answered `503` + `Retry-After` without
//! parsing), `--request-deadline-ms` sheds any request that cannot
//! start evaluating before its deadline (queue wait counts), and
//! `--cache-budget-mb` caps the bytes the response cache — frostd's
//! only result cache — may hold (default 256 MB; stale-first LRU
//! eviction). `/healthz`
//! reports liveness, `/readyz` readiness, and `/stats` the shed and
//! queue counters.
//!
//! Observability: `GET /metrics` (no query) serves every counter,
//! gauge, and latency histogram in Prometheus text exposition format,
//! and `GET /debug/traces` dumps the last per-stage request traces
//! (`--trace-ring` sets how many are kept). `--slow-request-ms N`
//! logs any request slower than `N` ms end-to-end as one structured
//! `frostd: slow-request …` line on stderr. `--no-telemetry` disables
//! tracing and histograms (counters keep working) for overhead
//! comparisons.
//!
//! Replication: `--replica-of <host:port>` starts this daemon as a
//! read replica of the named primary — it bootstraps the FROSTB
//! snapshot from the primary when the store file is missing, tails
//! the primary's WAL over long-poll `GET /replication/wal`, serves
//! the full read surface, and answers writes `503` with a
//! `Frost-Primary` hint. `--max-replica-lag <ms>` takes a replica out
//! of rotation (`/readyz` 503) when its replication lag exceeds the
//! bound; `--sync-replication` makes a primary hold each acknowledged
//! write until a replica has polled past it (semi-synchronous
//! replication). `POST /replication/promote` seals the WAL, compacts,
//! and flips a replica into a primary.

use frost_server::{run_daemon, ServeOptions};
use frost_storage::FsyncPolicy;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: frostd <store.frostb | store-dir> [--port N] [--addr HOST] \
[--workers N] [--event-threads N] [--idle-timeout-ms N] [--max-requests N] \
[--max-queued N] [--request-deadline-ms N] [--cache-budget-mb N] \
[--fsync always|interval:<ms>] [--debug-panic] \
[--slow-request-ms N] [--trace-ring N] [--no-telemetry] \
[--replica-of HOST:PORT] [--max-replica-lag MS] [--sync-replication]";

struct Args {
    store: String,
    addr: String,
    port: u16,
    options: ServeOptions,
    fsync: FsyncPolicy,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut store = None;
    let mut addr = "127.0.0.1".to_string();
    let mut port = 7878u16;
    let mut options = ServeOptions::default();
    let mut fsync = FsyncPolicy::Always;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--port" => {
                let v = it.next().ok_or("--port needs a value")?;
                port = v.parse().map_err(|_| format!("bad port {v:?}"))?;
            }
            "--addr" => {
                addr = it.next().ok_or("--addr needs a value")?.clone();
            }
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                options.workers = v.parse().map_err(|_| format!("bad worker count {v:?}"))?;
                if options.workers == 0 {
                    return Err("worker count must be positive".into());
                }
            }
            "--event-threads" => {
                let v = it.next().ok_or("--event-threads needs a value")?;
                options.event_threads = v
                    .parse()
                    .map_err(|_| format!("bad event thread count {v:?}"))?;
                if options.event_threads == 0 {
                    return Err("event thread count must be positive".into());
                }
            }
            "--idle-timeout-ms" => {
                let v = it.next().ok_or("--idle-timeout-ms needs a value")?;
                let ms: u64 = v.parse().map_err(|_| format!("bad idle timeout {v:?}"))?;
                if ms == 0 {
                    return Err("idle timeout must be positive".into());
                }
                options.idle_timeout = Duration::from_millis(ms);
            }
            "--max-requests" => {
                let v = it.next().ok_or("--max-requests needs a value")?;
                options.max_requests = v
                    .parse()
                    .map_err(|_| format!("bad max request count {v:?}"))?;
                if options.max_requests == 0 {
                    return Err("max request count must be positive".into());
                }
            }
            "--max-queued" => {
                let v = it.next().ok_or("--max-queued needs a value")?;
                options.max_queued = v.parse().map_err(|_| format!("bad queue bound {v:?}"))?;
                if options.max_queued == 0 {
                    return Err("queue bound must be positive".into());
                }
            }
            "--request-deadline-ms" => {
                let v = it.next().ok_or("--request-deadline-ms needs a value")?;
                let ms: u64 = v.parse().map_err(|_| format!("bad deadline {v:?}"))?;
                if ms == 0 {
                    return Err("request deadline must be positive".into());
                }
                options.request_deadline = Some(Duration::from_millis(ms));
            }
            "--cache-budget-mb" => {
                let v = it.next().ok_or("--cache-budget-mb needs a value")?;
                let mb: usize = v.parse().map_err(|_| format!("bad cache budget {v:?}"))?;
                if mb == 0 {
                    return Err("cache budget must be positive".into());
                }
                options.cache_budget = mb * 1024 * 1024;
            }
            "--fsync" => {
                let v = it.next().ok_or("--fsync needs a value")?;
                fsync = match v.as_str() {
                    "always" => FsyncPolicy::Always,
                    other => match other.strip_prefix("interval:") {
                        Some(ms) => {
                            let ms: u64 = ms
                                .parse()
                                .map_err(|_| format!("bad fsync interval {other:?}"))?;
                            if ms == 0 {
                                return Err("fsync interval must be positive".into());
                            }
                            FsyncPolicy::Interval(Duration::from_millis(ms))
                        }
                        None => {
                            return Err(format!(
                                "bad fsync policy {v:?}; expected always or interval:<ms>"
                            ))
                        }
                    },
                };
            }
            "--debug-panic" => {
                options.debug_panic = true;
            }
            "--slow-request-ms" => {
                let v = it.next().ok_or("--slow-request-ms needs a value")?;
                let ms: u64 = v
                    .parse()
                    .map_err(|_| format!("bad slow-request threshold {v:?}"))?;
                if ms == 0 {
                    return Err("slow-request threshold must be positive".into());
                }
                options.slow_request = Some(Duration::from_millis(ms));
            }
            "--trace-ring" => {
                let v = it.next().ok_or("--trace-ring needs a value")?;
                options.trace_ring = v
                    .parse()
                    .map_err(|_| format!("bad trace ring capacity {v:?}"))?;
                if options.trace_ring == 0 {
                    return Err("trace ring capacity must be positive".into());
                }
            }
            "--no-telemetry" => {
                options.telemetry = false;
            }
            "--replica-of" => {
                let v = it.next().ok_or("--replica-of needs a host:port value")?;
                if !v.contains(':') {
                    return Err(format!("bad primary authority {v:?}; expected host:port"));
                }
                options.replica_of = Some(v.clone());
            }
            "--max-replica-lag" => {
                let v = it.next().ok_or("--max-replica-lag needs a value (ms)")?;
                let ms: u64 = v.parse().map_err(|_| format!("bad lag bound {v:?}"))?;
                if ms == 0 {
                    return Err("replica lag bound must be positive".into());
                }
                options.max_replica_lag = Some(ms);
            }
            "--sync-replication" => {
                options.sync_replication = true;
            }
            other if store.is_none() && !other.starts_with("--") => {
                store = Some(other.to_string());
            }
            other => return Err(format!("unexpected argument {other:?}\n{USAGE}")),
        }
    }
    Ok(Args {
        store: store.ok_or(USAGE.to_string())?,
        addr,
        port,
        options,
        fsync,
    })
}

fn run(args: Args) -> Result<(), String> {
    run_daemon(&args.store, &args.addr, args.port, args.options, args.fsync)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
