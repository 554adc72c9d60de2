//! `frost-perfbench`: boots the real `frostd` on a seeded FROSTB
//! snapshot, drives one workload over at most two client connections,
//! checks every response, and prints the run record plus, as the last
//! line of stdout, one JSON object with the metrics.
//!
//! ```text
//! frost-perfbench --workload <browse|analyze|ingest> --seed N
//!                 --seconds S --trace 0|1 --frostd <path> --work <dir> --out <dir>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` runs the
//! same seed untraced, then traced (client spans, server ledger), then
//! makes the layer probe's writes against a primary with a replica
//! attached, then replays the operation list in-process with a span
//! around every layer call, and reports the per-layer metrics.

mod drive;
mod gen;
mod ledger;
mod plan;
mod replay;
mod replica;
mod server;
mod spans;

use drive::{Phase, Sample, Setup};
use ledger::{stage_p50_us, CacheClass, HistDelta, Scrape, ServerTrace};
use plan::{Key, Kind, Op, Plan};
use serde_json::Value;
use spans::{quantile, Recorder};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// The response tier's share of frostd's default 256 MB cache budget.
const RESPONSE_TIER_BYTES: f64 = 128.0 * 1024.0 * 1024.0;

/// The end-to-end metrics every workload reports, with units. Each
/// latency covers one operation type, the workload's main and side one:
/// browse read / diagram hit, analyze cold diagram / cold venn, ingest
/// import / fresh read, and is the median of that type's p50 in each
/// slice of the timed phase (`drive::SLICES`). The
/// run record carries p90, p99 (from 1000 samples) and the sample count
/// of every operation type, and the failure ratio, which is 0 on a
/// correct run and so is no metric of its own. It also carries
/// `ops_per_s`, the median slice throughput: on a shared 2-vCPU VM it
/// followed the host's speed drift further than the p50s did (browse
/// spread 0.30 over ten seeds where its p50s stayed at 0.22), so it is
/// reported but not a gated metric.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("main_p50_ms", "ms"),
    ("side_p50_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    frostd: PathBuf,
    work: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    if !plan::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {:?}",
            plan::WORKLOADS
        ));
    }
    let seconds: u64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other:?}")),
        },
        frostd: PathBuf::from(get("--frostd")?),
        work: PathBuf::from(get("--work")?),
        out: PathBuf::from(get("--out")?),
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Latency summary of one operation type: p50 and p90 always, p99 only
/// with at least 1000 samples (ten beyond it), and the sample count.
fn summary(samples: &[Sample], kind: Kind) -> Value {
    let mut v: Vec<f64> = samples
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| s.ms)
        .collect();
    let n = v.len();
    let mut entries = vec![
        ("n".to_string(), Value::from(n)),
        ("p50_ms".to_string(), Value::from(quantile(&mut v, 0.5))),
        ("p90_ms".to_string(), Value::from(quantile(&mut v, 0.9))),
    ];
    if n >= 1000 {
        entries.push(("p99_ms".to_string(), Value::from(quantile(&mut v, 0.99))));
    }
    Value::object(entries)
}

/// The p50 of one operation type in every slice that ran it.
fn slice_p50s(samples: &[Sample], kind: Kind) -> Vec<f64> {
    (0..drive::SLICES)
        .filter_map(|slice| {
            let mut v: Vec<f64> = samples
                .iter()
                .filter(|s| s.kind == kind && s.slice == slice)
                .map(|s| s.ms)
                .collect();
            (!v.is_empty()).then(|| quantile(&mut v, 0.5))
        })
        .collect()
}

/// The timed phase of one untraced or traced run, with its ledger.
struct Measured {
    phase: Phase,
    before: Scrape,
    after: Scrape,
    peak_rss_mb: f64,
    /// Traced runs: the primary's retained request traces.
    traces: Vec<ServerTrace>,
}

fn measure(plan: &Plan, setup: &Setup, rec: Option<&Recorder>) -> Result<Measured, String> {
    drive::lead_in(plan, setup)?;
    let before = Scrape::take(&setup.primary.addr)?;
    let phase = drive::timed_phase(plan, setup, rec)?;
    let after = Scrape::take(&setup.primary.addr)?;
    let peak_rss_mb = setup.primary.peak_rss_mb()?;
    let traces = match rec {
        Some(_) => ledger::server_traces(&setup.primary.addr)?,
        None => Vec::new(),
    };
    Ok(Measured {
        phase,
        before,
        after,
        peak_rss_mb,
        traces,
    })
}

/// Turns the primary's request traces into spans under the client
/// exchange they answered (the latest traced exchange of the same
/// target), laid out from when its request went out.
fn record_server_spans(rec: &Recorder, m: &Measured) -> usize {
    let mut recorded = 0;
    for t in &m.traces {
        let Some(sent) = m.phase.sent.get(&t.target) else {
            continue;
        };
        let total: u64 = t.stages.iter().map(|s| s.1).sum();
        let root = rec.record(
            "server.request",
            sent.trace,
            sent.parent,
            sent.at,
            sent.at + Duration::from_nanos(total),
        );
        let mut at = sent.at;
        for (stage, ns) in t.stages.iter().filter(|s| s.0 != "accepted") {
            let end = at + Duration::from_nanos(*ns);
            rec.record(
                spans::server_stage_span(stage),
                sent.trace,
                Some(root),
                at,
                end,
            );
            at = end;
        }
        recorded += 1;
    }
    recorded
}

fn count_ops(plan: &Plan, f: impl Fn(&Op) -> bool) -> usize {
    plan.lanes.iter().flatten().filter(|op| f(op)).count()
}

/// Checks that the timed phase stayed inside the workload's cache
/// class, from the server's own counters.
fn check_cache_class(workload: &str, plan: &Plan, cc: &CacheClass) -> Result<(), String> {
    let gets = count_ops(plan, |op| matches!(op, Op::Get { .. })) as f64;
    let fresh: usize = plan
        .lanes
        .iter()
        .flatten()
        .map(|op| match op {
            Op::FreshRead { reads } => reads.len(),
            _ => 0,
        })
        .sum();
    let fresh = fresh as f64;
    let paced = plan.paced.as_ref().map_or(0, |p| p.order.len()) as f64;
    let (want_hits, want_misses) = match workload {
        "browse" => (gets, 0.0),
        "analyze" => (0.0, gets),
        _ => (paced, fresh),
    };
    if cc.response_hits != want_hits || cc.response_misses != want_misses {
        return Err(format!(
            "cache class broken: response tier {} hits / {} misses, expected {want_hits} / {want_misses}",
            cc.response_hits, cc.response_misses
        ));
    }
    if workload == "browse" && cc.renders != 0.0 {
        return Err(format!(
            "cache class broken: {} JSON renders in a hit-only phase",
            cc.renders
        ));
    }
    Ok(())
}

/// Compares a seeded sample of analyze bodies with the in-process
/// `api::handle` + `json::response_to_json` over the same snapshot, and
/// checks that the venn groups used both the roaring and the chunked
/// engine.
fn check_in_process(
    plan: &Plan,
    sampled: &[(Key, String)],
    snapshot_path: &Path,
    problems: &mut Vec<String>,
) -> Result<(BTreeMap<String, usize>, usize), String> {
    let store = frost_storage::snapshot::load(snapshot_path).map_err(|e| e.to_string())?;
    let mut differing = 0;
    for (key, body) in sampled {
        let response =
            frost_storage::api::handle(&store, key.request.clone()).map_err(|e| e.to_string())?;
        let expected = serde_json::to_string(&frost_server::json::response_to_json(&response));
        if &expected != body {
            differing += 1;
            problems.push(format!(
                "{}: server body differs from the in-process rendering",
                key.target
            ));
        }
    }
    let mut engines: BTreeMap<String, usize> = BTreeMap::new();
    for op in plan.lanes.iter().flatten() {
        if let Op::Get {
            kind: Kind::Venn,
            key,
        } = op
        {
            if let frost_storage::api::Request::CompareExperiments { experiments, .. } =
                &key.request
            {
                let engine = replay::group_engine(&store, experiments)?;
                *engines.entry(engine.to_string()).or_default() += 1;
            }
        }
    }
    if !engines.contains_key("roaring") || !engines.contains_key("chunked") {
        problems.push(format!(
            "venn groups did not use both roaring and chunked: {engines:?}"
        ));
    }
    Ok((engines, differing))
}

/// Everything a run found wrong (empty means correct), and how many
/// operations whose response was accepted at the time failed a later
/// check of their body.
fn check_phase(
    args: &Args,
    plan: &Plan,
    m: &Measured,
    snapshot_path: &Path,
    record: &mut BTreeMap<String, Value>,
) -> (Vec<String>, usize) {
    let mut failed_checks = 0;
    let mut problems = m.phase.errors.clone();
    let cc = CacheClass::between(&m.before, &m.after);
    record.insert(
        "cache_class".into(),
        Value::object([
            ("response_hits".to_string(), Value::from(cc.response_hits)),
            (
                "response_misses".to_string(),
                Value::from(cc.response_misses),
            ),
            ("body_hits".to_string(), Value::from(cc.body_hits)),
            ("body_misses".to_string(), Value::from(cc.body_misses)),
            ("json_renders".to_string(), Value::from(cc.renders)),
        ]),
    );
    if let Err(e) = check_cache_class(&args.workload, plan, &cc) {
        problems.push(e);
    }
    if args.workload == "analyze" {
        match check_in_process(plan, &m.phase.sampled, snapshot_path, &mut problems) {
            Ok((engines, differing)) => {
                failed_checks += differing;
                record.insert(
                    "sampled_bodies_checked".into(),
                    Value::from(m.phase.sampled.len()),
                );
                record.insert(
                    "venn_engines".into(),
                    Value::object(engines.into_iter().map(|(k, v)| (k, Value::from(v)))),
                );
            }
            Err(e) => problems.push(e),
        }
    }
    (problems, failed_checks)
}

fn metric(value: f64, unit: &str) -> Value {
    Value::object([
        ("value".to_string(), Value::from(value)),
        ("unit".to_string(), Value::from(unit)),
    ])
}

/// What the replication layer's metrics move: no kept workload attaches
/// a replica, so they come from the traced run's replication probe.
const NO_REPLICA: &str =
    "no end-to-end metric (no workload attaches a replica); the traced replication probe";

/// The per-layer metrics, their units, and the end-to-end metric and
/// workload each is expected to move. `main`/`side` name the operation
/// type of each workload: browse read/diagram hit, analyze
/// diagram/venn, ingest import/fresh read.
fn per_layer_catalog() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = vec![
        ("http.parse_us".into(), "us", "main_p50_ms (read) on browse"),
        (
            "http.handoff_us".into(),
            "us",
            "main_p50_ms (read) on browse",
        ),
        (
            "http.gate_wait_us".into(),
            "us",
            "main_p50_ms and side_p50_ms (diagram, venn) on analyze, and their p90 in the record",
        ),
        (
            "http.evaluated_us".into(),
            "us",
            "main_p50_ms (diagram) on analyze",
        ),
        (
            "http.serialize_us".into(),
            "us",
            "main_p50_ms (diagram) on analyze",
        ),
        (
            "http.write_us".into(),
            "us",
            "main_p50_ms (read) and side_p50_ms (diagram hit) on browse",
        ),
        (
            "event_loop.poll_dwell_us".into(),
            "us",
            "main_p50_ms (read) on browse",
        ),
        (
            "event_loop.dispatch_batch".into(),
            "count",
            "ops_per_s on browse (in the record)",
        ),
        (
            "cache.probe_us".into(),
            "us",
            "main_p50_ms (read) on browse",
        ),
        (
            "cache.response_hit_ratio".into(),
            "ratio",
            "main_p50_ms on browse (1.0) and analyze (0); base cache.response_lookups",
        ),
        (
            "cache.response_lookups".into(),
            "count",
            "base of cache.response_hit_ratio",
        ),
        (
            "cache.body_hit_ratio".into(),
            "ratio",
            "main_p50_ms on browse and analyze; base cache.body_lookups",
        ),
        (
            "cache.body_lookups".into(),
            "count",
            "base of cache.body_hit_ratio",
        ),
        (
            "cache.response_bytes".into(),
            "bytes",
            "peak_rss_mb on browse and analyze",
        ),
        (
            "cache.body_bytes".into(),
            "bytes",
            "peak_rss_mb on browse and analyze",
        ),
        (
            "cache.invalidated_per_write".into(),
            "count",
            "side_p50_ms (fresh read) on ingest, and the paced read p50 in the record",
        ),
        (
            "client.reconnects".into(),
            "count",
            "ops_per_s on browse (in the record)",
        ),
        (
            "json.renders".into(),
            "count",
            "main_p50_ms on analyze (one per request; 0 on browse)",
        ),
    ];
    for ep in plan::ENDPOINTS {
        out.push((
            format!("json.render_us.{ep}"),
            "us",
            "main_p50_ms (diagram) on analyze",
        ));
    }
    for ep in plan::ENDPOINTS {
        out.push((
            format!("json.body_bytes.{ep}"),
            "bytes",
            "main_p50_ms (diagram) on analyze",
        ));
    }
    for ep in plan::ENDPOINTS {
        out.push((
            format!("store.evaluate_ms.{ep}"),
            "ms",
            "main_p50_ms and side_p50_ms (diagram, venn) on analyze; side_p50_ms (fresh read) on ingest",
        ));
    }
    out.extend([
        (
            "store.memo_entries".into(),
            "count",
            "peak_rss_mb on analyze",
        ),
        (
            "diagram.sweep_ms".into(),
            "ms",
            "main_p50_ms (diagram) on analyze, and its p90 in the record",
        ),
        (
            "diagram.sweep_sequential_ms".into(),
            "ms",
            "main_p50_ms (diagram) on analyze",
        ),
        (
            "diagram.fanout_threads".into(),
            "count",
            "main_p50_ms (diagram) on analyze, and its p90 in the record; threads a sharded sweep ran on",
        ),
        (
            "dataset.bytes_per_pair".into(),
            "B/pair",
            "peak_rss_mb on browse and analyze",
        ),
        (
            "dataset.venn_ms.roaring".into(),
            "ms",
            "side_p50_ms (venn) on analyze",
        ),
        (
            "dataset.venn_ms.chunked".into(),
            "ms",
            "side_p50_ms (venn) on analyze",
        ),
        (
            "dataset.venn_ms.packed".into(),
            "ms",
            "side_p50_ms (venn) on analyze",
        ),
        (
            "dataset.engine_roaring".into(),
            "count",
            "side_p50_ms (venn) on analyze",
        ),
        (
            "dataset.engine_chunked".into(),
            "count",
            "side_p50_ms (venn) on analyze",
        ),
        (
            "dataset.roaring_build_ms".into(),
            "ms",
            "main_p50_ms (import) on ingest",
        ),
        ("snapshot.load_ms".into(), "ms", "setup_s on every workload"),
        (
            "snapshot.bytes".into(),
            "bytes",
            "setup_s on every workload",
        ),
        (
            "import.parse_ms".into(),
            "ms",
            "main_p50_ms (import) on ingest",
        ),
        (
            "import.csv_bytes".into(),
            "bytes",
            "base of wal.bytes_per_csv_byte",
        ),
        (
            "clustering.closure_ms".into(),
            "ms",
            "main_p50_ms (import) on ingest",
        ),
        (
            "metrics.confusion_ms".into(),
            "ms",
            "side_p50_ms (fresh read) on ingest",
        ),
        (
            "wal.append_us".into(),
            "us",
            "main_p50_ms (import) on ingest",
        ),
        (
            "wal.fsync_us".into(),
            "us",
            "main_p50_ms (import) on ingest",
        ),
        (
            "wal.bytes_per_csv_byte".into(),
            "ratio",
            "main_p50_ms (import) on ingest; base import.csv_bytes",
        ),
        (
            "durable.compact_ms".into(),
            "ms",
            "the import p90 and ops_per_s on ingest, in the record",
        ),
        (
            "replication.polls".into(),
            "count",
            NO_REPLICA,
        ),
        (
            "replication.poll_read_bytes".into(),
            "bytes",
            NO_REPLICA,
        ),
        (
            "replication.streamed_bytes_per_wal_byte".into(),
            "ratio",
            NO_REPLICA,
        ),
        (
            "replication.wal_bytes".into(),
            "bytes",
            "base of replication.streamed_bytes_per_wal_byte",
        ),
        ("replication.apply_us".into(), "us", NO_REPLICA),
        ("replication.lag_records".into(), "count", NO_REPLICA),
        ("replication.visible_ms".into(), "ms", NO_REPLICA),
        ("replication.rebootstrap_ms".into(), "ms", NO_REPLICA),
        (
            "trace.overhead_pct".into(),
            "%",
            "none: traced minus untraced main_p50_ms, over the untraced one",
        ),
        ("trace.spans".into(), "count", "none: spans recorded"),
    ]);
    out
}

/// Server-side ledger numbers of one timed phase.
fn server_layers(m: &Measured, layers: &mut BTreeMap<String, f64>) {
    let (b, a) = (&m.before, &m.after);
    for (name, stage) in [
        ("http.parse_us", "head_complete"),
        ("http.handoff_us", "cache_probe"),
        ("http.gate_wait_us", "gate_acquired"),
        ("http.evaluated_us", "evaluated"),
        ("http.serialize_us", "serialized"),
        ("http.write_us", "first_byte"),
    ] {
        layers.insert(name.into(), stage_p50_us(b, a, stage));
    }
    layers.insert(
        "event_loop.poll_dwell_us".into(),
        HistDelta::between(b, a, "frost_event_loop_poll_dwell_seconds", "").quantile(0.5) * 1e6,
    );
    layers.insert(
        "event_loop.dispatch_batch".into(),
        HistDelta::between(b, a, "frost_event_loop_dispatch_batch", "").mean(),
    );
    let cc = CacheClass::between(b, a);
    let ratio = |hits: f64, misses: f64| {
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }
    };
    layers.insert(
        "cache.response_hit_ratio".into(),
        ratio(cc.response_hits, cc.response_misses),
    );
    layers.insert(
        "cache.response_lookups".into(),
        cc.response_hits + cc.response_misses,
    );
    layers.insert(
        "cache.body_hit_ratio".into(),
        ratio(cc.body_hits, cc.body_misses),
    );
    layers.insert("cache.body_lookups".into(), cc.body_hits + cc.body_misses);
    layers.insert(
        "cache.response_bytes".into(),
        a.sample("frost_cache_bytes{tier=\"response\"}"),
    );
    layers.insert(
        "cache.body_bytes".into(),
        a.sample("frost_cache_bytes{tier=\"body\"}"),
    );
    layers.insert("json.renders".into(), cc.renders);
    layers.insert(
        "wal.append_us".into(),
        HistDelta::between(b, a, "frost_wal_append_duration_seconds", "").quantile(0.5) * 1e6,
    );
    layers.insert(
        "wal.fsync_us".into(),
        HistDelta::between(b, a, "frost_wal_fsync_duration_seconds", "").quantile(0.5) * 1e6,
    );
    layers.insert("client.reconnects".into(), m.phase.reconnects as f64);
}

/// The set-up(s) of one run; returns the last (kept) one and every
/// set-up time. The daemons of the others stop when they drop.
fn setups(args: &Args, plan: &Plan, count: usize, tag: &str) -> Result<(Setup, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..count {
        drop(last.take());
        let s = drive::setup(&args.frostd, &args.work, &format!("{tag}{i}"), plan)?;
        times.push(s.seconds);
        last = Some(s);
    }
    Ok((last.ok_or("no set-up ran")?, times))
}

fn run(args: &Args) -> Result<(Value, bool), String> {
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("create {}: {e}", args.work.display()))?;
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    let generating = Instant::now();
    let inputs = gen::generate(args.seed);
    let snapshot_path = args.work.join("base.frostb");
    frost_storage::snapshot::save(&inputs.store, &snapshot_path).map_err(|e| e.to_string())?;
    let plan =
        plan::plan(&args.workload, &inputs, args.seed, args.seconds).expect("workload validated");
    let gen_s = generating.elapsed().as_secs_f64();
    let snapshot_bytes = std::fs::metadata(&snapshot_path)
        .map_err(|e| e.to_string())?
        .len();

    let mut record: BTreeMap<String, Value> = BTreeMap::new();
    record.insert("workload".into(), Value::from(args.workload.as_str()));
    record.insert("seed".into(), Value::from(args.seed));
    record.insert("seconds".into(), Value::from(args.seconds));
    record.insert("trace".into(), Value::from(args.trace));
    record.insert("nproc".into(), Value::from(nproc()));
    record.insert("cpu_model".into(), Value::from(cpu_model()));
    record.insert(
        "frostd_flags".into(),
        Value::from("<store> --addr 127.0.0.1 --port 0 (defaults: --fsync always, --cache-budget-mb 256, --workers nproc, --max-requests 10000)"),
    );
    record.insert("fsync_policy".into(), Value::from("always"));
    record.insert("input_gen_s".into(), Value::from(gen_s));
    record.insert(
        "store".into(),
        Value::object([
            (
                "datasets".to_string(),
                Value::from(gen::ACTIVE_DATASETS + gen::RESIDENT_DATASETS),
            ),
            ("records".to_string(), Value::from(inputs.records)),
            ("pairs".to_string(), Value::from(inputs.pairs)),
            ("snapshot_bytes".to_string(), Value::from(snapshot_bytes)),
        ]),
    );
    let mut op_counts: BTreeMap<String, usize> = BTreeMap::new();
    for op in plan.lanes.iter().flatten() {
        *op_counts.entry(op.kind().name().to_string()).or_default() += 1;
    }
    if let Some(p) = &plan.paced {
        *op_counts.entry("read".into()).or_default() += p.order.len();
        record.insert("paced_rate_per_s".into(), Value::from(p.rate));
    }
    record.insert(
        "op_counts".into(),
        Value::object(op_counts.into_iter().map(|(k, v)| (k, Value::from(v)))),
    );
    record.insert("lead_in_ops".into(), Value::from(plan.lead_in.len()));
    record.insert("main_op".into(), Value::from(plan.main.name()));
    record.insert("side_op".into(), Value::from(plan.side.name()));

    // The untraced run: the end-to-end numbers.
    let count = if args.trace { 1 } else { SETUPS };
    let (setup, setup_times) = setups(args, &plan, count, "setup")?;
    let warm_bytes: usize = setup.warm.values().map(String::len).sum();
    record.insert(
        "warm_key_set".into(),
        Value::object([
            ("keys".to_string(), Value::from(setup.warm.len())),
            ("body_bytes".to_string(), Value::from(warm_bytes)),
            (
                "response_tier_budget_bytes".to_string(),
                Value::from(RESPONSE_TIER_BYTES),
            ),
            (
                "share_of_budget".to_string(),
                Value::from(warm_bytes as f64 / RESPONSE_TIER_BYTES),
            ),
        ]),
    );
    record.insert("setup_times_s".into(), Value::from(setup_times.clone()));
    let untraced = measure(&plan, &setup, None);
    drop(setup);
    let untraced = untraced?;
    let (problems, failed_checks) =
        check_phase(args, &plan, &untraced, &snapshot_path, &mut record);
    let samples = &untraced.phase.samples;
    let attempted = samples.len();
    let failed = samples.iter().filter(|s| !s.ok).count() + failed_checks;
    record.insert(
        "fail_ratio".into(),
        Value::from(failed as f64 / attempted.max(1) as f64),
    );
    let mut latency = BTreeMap::new();
    for kind in [
        Kind::Read,
        Kind::DiagramHit,
        Kind::Diagram,
        Kind::Venn,
        Kind::Import,
        Kind::FreshRead,
        Kind::Delete,
        Kind::Save,
    ] {
        if samples.iter().any(|s| s.kind == kind) {
            latency.insert(kind.name().to_string(), summary(samples, kind));
        }
    }
    record.insert("latency".into(), Value::Object(latency));
    if !untraced.phase.lateness_ms.is_empty() {
        let mut late = untraced.phase.lateness_ms.clone();
        record.insert(
            "paced_lateness_ms".into(),
            Value::object([
                ("n".to_string(), Value::from(late.len())),
                ("p50".to_string(), Value::from(quantile(&mut late, 0.5))),
                ("p99".to_string(), Value::from(quantile(&mut late, 0.99))),
                ("max".to_string(), Value::from(quantile(&mut late, 1.0))),
            ]),
        );
    }
    record.insert("reconnects".into(), Value::from(untraced.phase.reconnects));
    record.insert(
        "ops_per_s".into(),
        metric(spans::median(&untraced.phase.slice_ops_per_s), "1/s"),
    );
    record.insert(
        "slice_ops_per_s".into(),
        Value::from(untraced.phase.slice_ops_per_s.clone()),
    );
    record.insert(
        "whole_phase_ops_per_s".into(),
        Value::from(untraced.phase.lane_ops as f64 / untraced.phase.lane_wall_s),
    );
    record.insert("problems".into(), Value::from(problems.clone()));

    let main_slices = slice_p50s(samples, plan.main);
    let side_slices = slice_p50s(samples, plan.side);
    record.insert(
        "slice_p50_ms".into(),
        Value::object([
            ("main".to_string(), Value::from(main_slices.clone())),
            ("side".to_string(), Value::from(side_slices.clone())),
        ]),
    );
    let main_p50 = spans::median(&main_slices);
    let mut metrics: BTreeMap<String, Value> = BTreeMap::new();
    let e2e = [
        spans::median(&setup_times),
        untraced.peak_rss_mb,
        main_p50,
        spans::median(&side_slices),
    ];
    let mut e2e_record = BTreeMap::new();
    for ((name, unit), value) in END_TO_END.iter().zip(e2e) {
        e2e_record.insert(name.to_string(), metric(value, unit));
        if !args.trace {
            metrics.insert(name.to_string(), metric(value, unit));
        }
    }
    record.insert("end_to_end".into(), Value::Object(e2e_record));

    let mut correct = problems.is_empty();
    if args.trace {
        let (layers, trace_problems) = traced(args, &plan, &inputs, &snapshot_path, main_p50)?;
        correct &= trace_problems.is_empty();
        record.insert("trace_problems".into(), Value::from(trace_problems));
        let mut report = Vec::new();
        for (name, unit, moves) in per_layer_catalog() {
            let value = layers.get(&name).copied().unwrap_or(0.0);
            report.push(format!("  {name:<40} {value:>14.3} {unit:<6} -> {moves}"));
            metrics.insert(name, metric(value, unit));
        }
        println!("per-layer ledger ({}, seed {}):", args.workload, args.seed);
        for line in report {
            println!("{line}");
        }
    }
    println!("record: {}", serde_json::to_string(&Value::Object(record)));
    let result = Value::object([
        ("correct".to_string(), Value::from(correct)),
        ("attempted".to_string(), Value::from(attempted)),
        ("failed".to_string(), Value::from(failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    Ok((result, correct))
}

/// The traced run: the same seed on a fresh set-up with client spans,
/// the server ledger of that phase, the replication probe, and the
/// in-process replay.
fn traced(
    args: &Args,
    plan: &Plan,
    inputs: &gen::Inputs,
    snapshot_path: &Path,
    untraced_main_p50: f64,
) -> Result<(BTreeMap<String, f64>, Vec<String>), String> {
    let rec = Recorder::new(Instant::now());
    let (setup, _) = setups(args, plan, 1, "traced")?;
    let m = measure(plan, &setup, Some(&rec));
    drop(setup);
    let m = m?;
    let server_spans = record_server_spans(&rec, &m);
    let mut layers = BTreeMap::new();
    server_layers(&m, &mut layers);
    let traced_main_p50 = spans::median(&slice_p50s(&m.phase.samples, plan.main));
    let mut problems = m.phase.errors.clone();

    let writes = plan::probe_writes(inputs, args.seed);
    let replication = replica::probe(&args.frostd, &args.work, &writes, Some(&rec))?;
    problems.extend(replication.problems);
    layers.extend(replication.layers);
    let probe = plan::probe(inputs, args.seed);
    let (replayed, from_probe) = replay::replay(plan, snapshot_path, &args.work, &rec, &probe)?;
    // The server's own figure where the phase produced one, the
    // replay's otherwise (WAL timings on a read-only workload).
    for (k, v) in replayed {
        let server = layers.entry(k).or_insert(0.0);
        if *server == 0.0 {
            *server = v;
        }
    }
    layers.insert(
        "trace.overhead_pct".into(),
        if untraced_main_p50 > 0.0 {
            (traced_main_p50 - untraced_main_p50) / untraced_main_p50 * 100.0
        } else {
            0.0
        },
    );
    let all = rec.spans();
    layers.insert("trace.spans".into(), all.len() as f64);

    // Span output and the self-time report.
    let spans_path = args
        .out
        .join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&spans_path, serde_json::to_string(&spans::to_json(&all)))
        .map_err(|e| e.to_string())?;
    println!("spans: {} written to {}", all.len(), spans_path.display());
    println!(
        "server traces turned into spans: {server_spans} of {}",
        m.traces.len()
    );
    println!("self time by span (count, total ms, self ms, p50 us):");
    let mut by = spans::by_name(&all).into_iter().collect::<Vec<_>>();
    by.sort_by(|a, b| b.1.self_ms.total_cmp(&a.1.self_ms));
    let mut by_layer: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
    for (name, s) in &by {
        println!(
            "  {name:<40} {:>8} {:>12.3} {:>12.3} {:>10.1}",
            s.count, s.total_ms, s.self_ms, s.p50_us
        );
        let layer = by_layer.entry(spans::layer_of(name)).or_default();
        layer.0 += s.count;
        layer.1 += s.self_ms;
    }
    println!("self time by layer (spans, self ms):");
    for (layer, (count, self_ms)) in by_layer {
        println!("  {layer:<40} {count:>8} {self_ms:>12.3}");
    }
    println!("per-endpoint cold cost (evaluate ms, render us, body bytes):");
    for ep in plan::ENDPOINTS {
        let g = |p: &str| layers.get(&format!("{p}.{ep}")).copied().unwrap_or(0.0);
        println!(
            "  {ep:<16} {:>10.3} {:>10.1} {:>10.0}",
            g("store.evaluate_ms"),
            g("json.render_us"),
            g("json.body_bytes")
        );
    }
    println!(
        "tracing overhead: main_p50 untraced {untraced_main_p50:.4} ms, traced {traced_main_p50:.4} ms"
    );
    println!(
        "layers this workload never ran, taken from the layer probe: {}",
        from_probe.join(", ")
    );
    Ok((layers, problems))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("frost-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((result, correct)) => {
            if !correct {
                eprintln!("frost-perfbench: outputs failed their checks (see record.problems)");
            }
            println!("{}", serde_json::to_string(&result));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("frost-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
