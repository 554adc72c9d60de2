//! The in-process replay of a plan: the same operation list, run on
//! one thread directly against the layer APIs, with a span around
//! every layer call. It attributes time to layers; its own latencies
//! are never reported as end-to-end numbers.
//!
//! Reads follow `frostd`'s miss path: `RequestBuffer` parse, a
//! `ShardedCache::get` probe, `api::handle`, `json::response_to_json`,
//! `ShardedCache::insert`. Inside the `api::handle` span the store call
//! the handler makes is issued first (`BenchmarkStore::diagram_series`
//! or `confusion_matrix`), so its time nests under the handler; the
//! handler then reuses the store memo. `/venn` and `/compare` replay
//! the handler's own steps (engine choice, set build, `venn_regions`)
//! so the engine's time is its own span. Writes follow the primary's
//! import path (parse, closure, roaring build, `DurableStore::append`,
//! insert) and the replica's (`WalOp::apply`).
//!
//! Before the plan, a fixed layer probe runs on a store of its own: one
//! cold read per endpoint variant, one group through every venn engine,
//! and a dozen imports with their fresh reads and deletes, then a
//! compaction, with a replica applying every write. A layer the
//! workload's own operations never reach is reported from the probe, so
//! every workload reports every layer.

use crate::plan::{Key, Kind, Op, Plan};
use crate::spans::{median, Recorder};
use frost_core::clustering::Clustering;
use frost_core::dataset::{choose_pair_engine, ChunkedPairSet, PairAlgebra, PairEngine, PairSet};
use frost_core::diagram::DiagramEngine;
use frost_core::explore::setops::venn_regions;
use frost_server::http::{Parsed, RequestBuffer};
use frost_server::json::response_to_json;
use frost_storage::api::{self, Request, Response};
use frost_storage::telemetry::Histogram;
use frost_storage::wal::WalOp;
use frost_storage::{snapshot, BenchmarkStore, DurableStore, FsyncPolicy, ShardedCache};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Replay results: per-layer numbers by metric name.
pub type Layers = BTreeMap<String, f64>;

const ENGINES: [PairEngine; 3] = [PairEngine::Roaring, PairEngine::Chunked, PairEngine::Packed];

struct Ctx<'a> {
    rec: &'a Recorder,
    store: BenchmarkStore,
    durable: Option<DurableStore>,
    replica: Option<BenchmarkStore>,
    cache: ShardedCache,
    /// Time every venn engine on each group, not only the chosen one.
    all_engines: bool,
    /// Cached keys and their scopes, to count what a write invalidates.
    cached_scopes: HashMap<String, Vec<String>>,
    memo_diagram: HashSet<(String, usize)>,
    memo_matrix: HashSet<String>,
    evaluate_ms: BTreeMap<&'static str, Vec<f64>>,
    render_us: BTreeMap<&'static str, Vec<f64>>,
    body_bytes: BTreeMap<&'static str, Vec<f64>>,
    sweep_ms: Vec<f64>,
    sweep_seq_ms: Vec<f64>,
    /// Threads each watched sharded sweep ran on.
    fanout: Vec<f64>,
    cold_diagrams: usize,
    venn_ms: BTreeMap<&'static str, Vec<f64>>,
    engine_counts: BTreeMap<&'static str, usize>,
    confusion_ms: Vec<f64>,
    probe_us: Vec<f64>,
    parse_ms: Vec<f64>,
    closure_ms: Vec<f64>,
    roaring_ms: Vec<f64>,
    apply_us: Vec<f64>,
    compact_ms: Vec<f64>,
    invalidated: Vec<f64>,
    wal_bytes: u64,
    csv_bytes: u64,
    poll_read_bytes: Vec<f64>,
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn engine_name(e: PairEngine) -> &'static str {
    match e {
        PairEngine::Roaring => "roaring",
        PairEngine::Chunked => "chunked",
        PairEngine::Packed => "packed",
    }
}

/// The engine `/venn` and `/compare` pick for a group (the handler's
/// cost model over the prebuilt roaring directories). The handler
/// reports no engine, so this and `venn_counts` repeat its steps
/// (`frost_storage::api::handle`, `Request::CompareExperiments`); keep
/// them in step with it. Both the engine counts and the analyze check
/// that both engines ran use this one copy.
pub fn group_engine(store: &BenchmarkStore, experiments: &[String]) -> Result<PairEngine, String> {
    let mut hints = Vec::new();
    for name in experiments {
        let s = store.experiment(name).map_err(|e| e.to_string())?;
        hints.push(choose_pair_engine(
            s.pair_set.len(),
            s.pair_set.chunk_count(),
        ));
    }
    Ok(PairEngine::combined(hints))
}

fn venn_counts<S: PairAlgebra>(mut sets: Vec<S>, truth: Option<&Clustering>) -> Vec<(u32, usize)> {
    if let Some(truth) = truth {
        sets.push(S::from_pairs(truth.intra_pairs()));
    }
    venn_regions(&sets)
        .into_iter()
        .map(|r| (r.membership, r.pairs.len()))
        .collect()
}

/// Mean of a histogram in microseconds (recorded in nanoseconds).
fn mean_us(h: &Histogram) -> f64 {
    if h.count() == 0 {
        0.0
    } else {
        h.sum() as f64 / h.count() as f64 / 1e3
    }
}

impl<'a> Ctx<'a> {
    fn new(
        rec: &'a Recorder,
        store: BenchmarkStore,
        durable: Option<DurableStore>,
        replica: Option<BenchmarkStore>,
    ) -> Self {
        let cache = ShardedCache::new(16);
        cache.set_budget(128 * 1024 * 1024);
        Ctx {
            rec,
            store,
            durable,
            replica,
            cache,
            all_engines: false,
            cached_scopes: HashMap::new(),
            memo_diagram: HashSet::new(),
            memo_matrix: HashSet::new(),
            evaluate_ms: BTreeMap::new(),
            render_us: BTreeMap::new(),
            body_bytes: BTreeMap::new(),
            sweep_ms: Vec::new(),
            sweep_seq_ms: Vec::new(),
            fanout: Vec::new(),
            cold_diagrams: 0,
            venn_ms: BTreeMap::new(),
            engine_counts: BTreeMap::new(),
            confusion_ms: Vec::new(),
            probe_us: Vec::new(),
            parse_ms: Vec::new(),
            closure_ms: Vec::new(),
            roaring_ms: Vec::new(),
            apply_us: Vec::new(),
            compact_ms: Vec::new(),
            invalidated: Vec::new(),
            wal_bytes: 0,
            csv_bytes: 0,
            poll_read_bytes: Vec::new(),
        }
    }

    /// `/venn` and `/compare`, step by step as the handler runs them.
    fn venn(
        &mut self,
        experiments: &[String],
        include_gold: bool,
        trace: u64,
        parent: u64,
    ) -> Result<Response, String> {
        let rec = self.rec;
        let store = &self.store;
        let chosen = rec.time("choose_pair_engine", trace, Some(parent), |_| {
            group_engine(store, experiments)
        })?;
        *self.engine_counts.entry(engine_name(chosen)).or_default() += 1;
        let stored: Vec<_> = experiments
            .iter()
            .map(|n| store.experiment(n).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let truth = if include_gold {
            Some(
                store
                    .gold_standard(&stored[0].dataset)
                    .map_err(|e| e.to_string())?,
            )
        } else {
            None
        };
        let mut response = None;
        for engine in ENGINES {
            if engine != chosen && !self.all_engines {
                continue;
            }
            let name = engine_name(engine);
            let start = Instant::now();
            let regions =
                rec.time(
                    &format!("venn_regions.{name}"),
                    trace,
                    Some(parent),
                    |_| match engine {
                        PairEngine::Roaring => {
                            venn_counts(stored.iter().map(|s| s.pair_set.clone()).collect(), truth)
                        }
                        PairEngine::Chunked => venn_counts::<ChunkedPairSet>(
                            stored.iter().map(|s| s.experiment.pair_set_as()).collect(),
                            truth,
                        ),
                        PairEngine::Packed => venn_counts::<PairSet>(
                            stored.iter().map(|s| s.experiment.pair_set_as()).collect(),
                            truth,
                        ),
                    },
                );
            self.venn_ms
                .entry(name)
                .or_default()
                .push(ms(start.elapsed()));
            if engine == chosen {
                response = Some(Response::Venn(regions));
            }
        }
        Ok(response.expect("the chosen engine ran"))
    }

    /// Evaluates a request inside the `api::handle` span.
    fn evaluate(&mut self, key: &Key, trace: u64, parent: u64) -> Result<Response, String> {
        let rec = self.rec;
        match &key.request {
            Request::CompareExperiments {
                experiments,
                include_gold,
            } => return self.venn(experiments, *include_gold, trace, parent),
            Request::GetDiagram {
                experiment,
                engine,
                samples,
                ..
            } => {
                let start = Instant::now();
                let store = &self.store;
                rec.time(
                    "BenchmarkStore::diagram_series",
                    trace,
                    Some(parent),
                    |_| store.diagram_series(experiment, *engine, *samples),
                )
                .map_err(|e| e.to_string())?;
                if self.memo_diagram.insert((experiment.clone(), *samples)) {
                    self.sweep_ms.push(ms(start.elapsed()));
                }
            }
            Request::GetConfusionMatrix { experiment } | Request::GetMetrics { experiment } => {
                let start = Instant::now();
                let store = &self.store;
                rec.time(
                    "BenchmarkStore::confusion_matrix",
                    trace,
                    Some(parent),
                    |_| store.confusion_matrix(experiment),
                )
                .map_err(|e| e.to_string())?;
                if self.memo_matrix.insert(experiment.clone()) {
                    self.confusion_ms.push(ms(start.elapsed()));
                }
            }
            _ => {}
        }
        api::handle(&self.store, key.request.clone()).map_err(|e| e.to_string())
    }

    /// One GET on the server's path; returns the body.
    fn read(&mut self, key: &Key, trace: u64, parent: u64) -> Result<String, String> {
        let rec = self.rec;
        let raw = format!("GET {} HTTP/1.1\r\nHost: bench\r\n\r\n", key.target);
        rec.time("RequestBuffer::next_request", trace, Some(parent), |_| {
            let mut buf = RequestBuffer::new();
            buf.extend(raw.as_bytes());
            match buf.next_request() {
                Parsed::Request(r) if r.target == key.target => Ok(()),
                _ => Err(format!("{}: request did not parse back", key.target)),
            }
        })?;
        let probe = Instant::now();
        let cache = &self.cache;
        let hit = rec.time("ShardedCache::get", trace, Some(parent), |_| {
            cache.get(&key.target)
        });
        self.probe_us.push(probe.elapsed().as_secs_f64() * 1e6);
        if let Some(body) = hit {
            return Ok(body.to_string());
        }
        let scopes = key.scopes();
        let stamp = self.cache.begin_scoped(scopes.iter().map(String::as_str));
        let start = Instant::now();
        let response = rec.time("api::handle", trace, Some(parent), |id| {
            self.evaluate(key, trace, id)
        })?;
        self.evaluate_ms
            .entry(key.endpoint)
            .or_default()
            .push(ms(start.elapsed()));
        let start = Instant::now();
        let body: Arc<str> = rec.time("json::response_to_json", trace, Some(parent), |_| {
            Arc::from(serde_json::to_string(&response_to_json(&response)).as_str())
        });
        self.render_us
            .entry(key.endpoint)
            .or_default()
            .push(start.elapsed().as_secs_f64() * 1e6);
        self.body_bytes
            .entry(key.endpoint)
            .or_default()
            .push(body.len() as f64);
        let cache = &self.cache;
        let stored = Arc::clone(&body);
        rec.time("ShardedCache::insert", trace, Some(parent), |_| {
            cache.insert_scoped(key.target.clone(), stored, stamp)
        });
        self.cached_scopes.insert(key.target.clone(), scopes);
        Ok(body.to_string())
    }

    /// Counts the cached entries a write's scopes invalidate.
    fn invalidate(&mut self, scopes: &[String], trace: u64, parent: u64) {
        let cache = &self.cache;
        self.rec.time(
            "ShardedCache::invalidate_scopes",
            trace,
            Some(parent),
            |_| cache.invalidate_scopes(scopes.iter().map(String::as_str)),
        );
        let before = self.cached_scopes.len();
        self.cached_scopes
            .retain(|_, s| !s.iter().any(|x| scopes.contains(x)));
        self.invalidated
            .push((before - self.cached_scopes.len()) as f64);
    }

    /// Ships the WAL to the replica the way the primary serves a poll
    /// (the whole log is read back), then applies the op there.
    fn replicate(&mut self, op: &WalOp, trace: u64, parent: u64) -> Result<(), String> {
        let rec = self.rec;
        if let (Some(d), Some(replica)) = (&self.durable, self.replica.as_mut()) {
            let bytes = rec
                .time("DurableStore::read_wal", trace, Some(parent), |_| {
                    d.read_wal()
                })
                .map_err(|e| e.to_string())?;
            self.poll_read_bytes.push(bytes.len() as f64);
            let start = Instant::now();
            rec.time("WalOp::apply", trace, Some(parent), |_| op.apply(replica))
                .map_err(|e| e.to_string())?;
            self.apply_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        Ok(())
    }

    fn import(
        &mut self,
        dataset: &str,
        name: &str,
        csv: &str,
        pairs: usize,
        trace: u64,
        parent: u64,
    ) -> Result<(), String> {
        let rec = self.rec;
        let raw = format!(
            "POST /experiments?dataset={dataset}&name={name} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{csv}",
            csv.len()
        );
        rec.time("RequestBuffer::next_request", trace, Some(parent), |_| {
            let mut buf = RequestBuffer::new();
            buf.extend(raw.as_bytes());
            match buf.next_request() {
                Parsed::Request(r) if r.body.len() == csv.len() => Ok(()),
                _ => Err("import request did not parse back".to_string()),
            }
        })?;
        let store = &self.store;
        let start = Instant::now();
        let experiment = rec
            .time("api::parse_experiment_csv", trace, Some(parent), |_| {
                api::parse_experiment_csv(store, dataset, name, csv)
            })
            .map_err(|e| e.to_string())?;
        self.parse_ms.push(ms(start.elapsed()));
        if experiment.len() != pairs {
            return Err(format!(
                "{name}: parsed {} pairs, expected {pairs}",
                experiment.len()
            ));
        }
        let n = store.dataset(dataset).map_err(|e| e.to_string())?.len();
        let start = Instant::now();
        let clustering = rec.time("Clustering::from_experiment", trace, Some(parent), |_| {
            Clustering::from_experiment(n, &experiment)
        });
        self.closure_ms.push(ms(start.elapsed()));
        let start = Instant::now();
        let pair_set = rec.time("Experiment::roaring_pair_set", trace, Some(parent), |_| {
            experiment.roaring_pair_set()
        });
        self.roaring_ms.push(ms(start.elapsed()));
        let op = WalOp::add_experiment(dataset, &experiment, None);
        if let Some(d) = self.durable.as_mut() {
            let before = d.wal_len();
            rec.time("DurableStore::append", trace, Some(parent), |_| {
                d.append(&op)
            })
            .map_err(|e| e.to_string())?;
            self.wal_bytes += d.wal_len() - before;
            self.csv_bytes += csv.len() as u64;
        }
        let stored = frost_storage::store::StoredExperiment {
            dataset: dataset.to_string(),
            experiment,
            clustering,
            pair_set,
            kpis: None,
        };
        let store = &mut self.store;
        rec.time("BenchmarkStore::insert_stored", trace, Some(parent), |_| {
            store.insert_stored(stored)
        })
        .map_err(|e| e.to_string())?;
        self.invalidate(
            &[format!("exp:{name}"), "sys:experiments".to_string()],
            trace,
            parent,
        );
        let response = Response::Imported {
            experiment: name.to_string(),
            pairs,
        };
        rec.time("json::response_to_json", trace, Some(parent), |_| {
            serde_json::to_string(&response_to_json(&response))
        });
        self.replicate(&op, trace, parent)
    }

    fn delete(&mut self, name: &str, trace: u64, parent: u64) -> Result<(), String> {
        let rec = self.rec;
        let op = WalOp::DeleteExperiment {
            name: name.to_string(),
        };
        if let Some(d) = self.durable.as_mut() {
            rec.time("DurableStore::append", trace, Some(parent), |_| {
                d.append(&op)
            })
            .map_err(|e| e.to_string())?;
        }
        let store = &mut self.store;
        rec.time(
            "BenchmarkStore::remove_experiment",
            trace,
            Some(parent),
            |_| store.remove_experiment(name),
        )
        .map_err(|e| e.to_string())?;
        self.invalidate(
            &[format!("exp:{name}"), "sys:experiments".to_string()],
            trace,
            parent,
        );
        self.replicate(&op, trace, parent)
    }

    fn save(&mut self, trace: u64, parent: u64) -> Result<(), String> {
        let rec = self.rec;
        let store = &self.store;
        if let Some(d) = self.durable.as_mut() {
            let start = Instant::now();
            rec.time("DurableStore::compact", trace, Some(parent), |_| {
                d.compact(store)
            })
            .map_err(|e| e.to_string())?;
            self.compact_ms.push(ms(start.elapsed()));
        }
        Ok(())
    }

    fn run(&mut self, op: &Op, trace: u64) -> Result<(), String> {
        let rec = self.rec;
        rec.time(
            &format!("op.{}", op.kind().name()),
            trace,
            None,
            |id| match op {
                Op::Get { key, .. } => self.read(key, trace, id).map(|_| ()),
                Op::Import {
                    dataset,
                    name,
                    csv,
                    pairs,
                } => self.import(dataset, name, csv, *pairs, trace, id),
                Op::FreshRead { reads } => reads
                    .iter()
                    .try_for_each(|key| self.read(key, trace, id).map(|_| ())),
                Op::Delete { name } => self.delete(name, trace, id),
                Op::Save => self.save(trace, id),
            },
        )?;
        // A cold diagram's sweep also runs again twice, on the probe
        // every time and on every fourth of the timed mix: on the calling
        // thread only, and sharded as the store runs it while a watcher
        // counts the threads it fans out to.
        if let Op::Get {
            kind: Kind::Diagram,
            key,
        } = op
        {
            if self.all_engines || self.cold_diagrams.is_multiple_of(4) {
                self.probe_sweeps(key, trace)?;
            }
            self.cold_diagrams += 1;
        }
        Ok(())
    }

    /// The probe sweeps of a cold diagram, as probe spans of their own
    /// (not under the operation).
    fn probe_sweeps(&mut self, key: &Key, trace: u64) -> Result<(), String> {
        let Request::GetDiagram {
            experiment,
            samples,
            ..
        } = &key.request
        else {
            return Ok(());
        };
        let stored = self
            .store
            .experiment(experiment)
            .map_err(|e| e.to_string())?;
        let ds = self
            .store
            .dataset(&stored.dataset)
            .map_err(|e| e.to_string())?;
        let truth = self
            .store
            .gold_standard(&stored.dataset)
            .map_err(|e| e.to_string())?;
        let start = Instant::now();
        self.rec.time("probe.diagram_sequential", trace, None, |_| {
            std::hint::black_box(DiagramEngine::Optimized.confusion_series_sequential(
                ds.len(),
                truth,
                &stored.experiment,
                *samples,
            ))
        });
        self.sweep_seq_ms.push(ms(start.elapsed()));
        let (_, spawned) = self.rec.time("probe.diagram_fanout", trace, None, |_| {
            watch_threads(|| {
                std::hint::black_box(DiagramEngine::Optimized.confusion_series(
                    ds.len(),
                    truth,
                    &stored.experiment,
                    *samples,
                ))
            })
        });
        // The calling thread waits while spawned ones sweep; with none
        // spawned it sweeps alone.
        self.fanout.push(spawned.max(1) as f64);
        Ok(())
    }

    /// Drops the timings taken so far; the store, cache and memos stay.
    fn forget_timings(&mut self) {
        for m in [
            &mut self.evaluate_ms,
            &mut self.render_us,
            &mut self.body_bytes,
            &mut self.venn_ms,
        ] {
            m.clear();
        }
        for v in [
            &mut self.sweep_ms,
            &mut self.sweep_seq_ms,
            &mut self.fanout,
            &mut self.confusion_ms,
            &mut self.probe_us,
        ] {
            v.clear();
        }
        self.engine_counts.clear();
    }

    /// The layer numbers of everything this context ran; a layer it
    /// never reached has no entry.
    fn layers(&self) -> Layers {
        let mut layers = Layers::new();
        let mut p50 = |name: String, v: Option<&Vec<f64>>| {
            if let Some(v) = v.filter(|v| !v.is_empty()) {
                layers.insert(name, median(v));
            }
        };
        for ep in crate::plan::ENDPOINTS {
            p50(format!("store.evaluate_ms.{ep}"), self.evaluate_ms.get(ep));
            p50(format!("json.render_us.{ep}"), self.render_us.get(ep));
            p50(format!("json.body_bytes.{ep}"), self.body_bytes.get(ep));
        }
        for engine in ENGINES.map(engine_name) {
            p50(
                format!("dataset.venn_ms.{engine}"),
                self.venn_ms.get(engine),
            );
        }
        p50("cache.probe_us".into(), Some(&self.probe_us));
        p50("diagram.sweep_ms".into(), Some(&self.sweep_ms));
        p50(
            "diagram.sweep_sequential_ms".into(),
            Some(&self.sweep_seq_ms),
        );
        p50("diagram.fanout_threads".into(), Some(&self.fanout));
        p50("metrics.confusion_ms".into(), Some(&self.confusion_ms));
        p50("import.parse_ms".into(), Some(&self.parse_ms));
        p50("clustering.closure_ms".into(), Some(&self.closure_ms));
        p50("dataset.roaring_build_ms".into(), Some(&self.roaring_ms));
        p50("durable.compact_ms".into(), Some(&self.compact_ms));
        p50("replication.apply_us".into(), Some(&self.apply_us));
        p50(
            "replication.poll_read_bytes".into(),
            Some(&self.poll_read_bytes),
        );
        layers.insert(
            "store.memo_entries".into(),
            (self.memo_diagram.len() + self.memo_matrix.len()) as f64,
        );
        if !self.invalidated.is_empty() {
            layers.insert(
                "cache.invalidated_per_write".into(),
                self.invalidated.iter().sum::<f64>() / self.invalidated.len() as f64,
            );
        }
        if self.csv_bytes > 0 {
            layers.insert("import.csv_bytes".into(), self.csv_bytes as f64);
            layers.insert(
                "wal.bytes_per_csv_byte".into(),
                self.wal_bytes as f64 / self.csv_bytes as f64,
            );
        }
        let wal = self.durable.as_ref().map(DurableStore::wal_stats);
        if let Some(stats) = wal.filter(|s| s.append.count() > 0) {
            layers.insert("wal.append_us".into(), mean_us(&stats.append));
            layers.insert("wal.fsync_us".into(), mean_us(&stats.fsync));
        }
        layers
    }
}

/// Replays `plan` (warm-up, lead-in, then the lanes interleaved in
/// global order, then the paced reads) after the layer probe, and returns the
/// layer numbers and the names of those taken from the probe.
pub fn replay(
    plan: &Plan,
    snapshot_path: &Path,
    work: &Path,
    rec: &Recorder,
    probe: &[Op],
) -> Result<(Layers, Vec<String>), String> {
    let mut layers = Layers::new();
    let snapshot_bytes = std::fs::metadata(snapshot_path)
        .map_err(|e| e.to_string())?
        .len();
    let start = Instant::now();
    let loaded = rec
        .time("snapshot::load", 0, None, |_| snapshot::load(snapshot_path))
        .map_err(|e| e.to_string())?;
    layers.insert("snapshot.load_ms".into(), ms(start.elapsed()));
    layers.insert("snapshot.bytes".into(), snapshot_bytes as f64);

    // Bytes per stored pair of the prebuilt roaring sets.
    let (mut heap, mut pairs) = (0usize, 0usize);
    for name in loaded.experiment_names(None) {
        let s = loaded.experiment(&name).map_err(|e| e.to_string())?;
        heap += s.pair_set.heap_bytes();
        pairs += s.pair_set.len();
    }
    layers.insert(
        "dataset.bytes_per_pair".into(),
        heap as f64 / pairs.max(1) as f64,
    );

    let durable_copy = |file: &str| -> Result<(BenchmarkStore, DurableStore), String> {
        let copy = work.join(file);
        std::fs::copy(snapshot_path, &copy).map_err(|e| e.to_string())?;
        let (store, durable, _) = rec
            .time("DurableStore::open", 0, None, |_| {
                DurableStore::open(&copy, FsyncPolicy::Always)
            })
            .map_err(|e| e.to_string())?;
        Ok((store, durable))
    };

    // The layer probe, on a store and cache nothing else touches.
    let probe_layers = {
        let (store, durable) = durable_copy("probe.frostb")?;
        let replica = snapshot::load(snapshot_path).map_err(|e| e.to_string())?;
        let mut ctx = Ctx::new(rec, store, Some(durable), Some(replica));
        ctx.all_engines = true;
        for (i, op) in probe.iter().enumerate() {
            ctx.run(op, 3 << 40 | i as u64)?;
        }
        ctx.layers()
    };

    let writes = plan
        .lanes
        .iter()
        .flatten()
        .any(|op| matches!(op, Op::Import { .. }));
    let mut ctx = if writes {
        let (store, durable) = durable_copy("replay.frostb")?;
        Ctx::new(rec, store, Some(durable), None)
    } else {
        Ctx::new(rec, loaded, None, None)
    };
    for (i, key) in plan.warmup.iter().enumerate() {
        let op = Op::Get {
            kind: Kind::Read,
            key: key.clone(),
        };
        ctx.run(&op, 1 << 43 | i as u64)?;
    }
    for (i, op) in plan.lead_in.iter().enumerate() {
        ctx.run(op, 1 << 42 | i as u64)?;
    }
    // The warm-up's cold evaluations and the lead-in are set-up, not the
    // timed mix.
    ctx.forget_timings();
    let longest = plan.lanes.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for (lane_no, lane) in plan.lanes.iter().enumerate() {
            let Some(op) = lane.get(i) else { continue };
            let hit = matches!(op.kind(), Kind::Read | Kind::DiagramHit);
            if hit && !(i * plan.lanes.len() + lane_no).is_multiple_of(plan.trace_every) {
                continue;
            }
            ctx.run(op, (lane_no as u64) << 40 | i as u64)?;
        }
    }
    if let Some(paced) = &plan.paced {
        for (i, &k) in paced.order.iter().enumerate() {
            let op = Op::Get {
                kind: Kind::Read,
                key: paced.keys[k].clone(),
            };
            ctx.run(&op, 1 << 41 | i as u64)?;
        }
    }
    if let Some(d) = ctx.durable.as_mut() {
        rec.time("DurableStore::sync", 0, None, |_| d.sync())
            .map_err(|e| e.to_string())?;
    }
    // The workload's own numbers where it ran the layer, the probe's
    // where it did not.
    let timed = ctx.layers();
    let mut from_probe = Vec::new();
    for (name, value) in probe_layers {
        let own = match timed.get(&name) {
            Some(own) => *own,
            None => {
                from_probe.push(name.clone());
                value
            }
        };
        layers.insert(name, own);
    }
    // Every generated experiment holds more pairs than the packed
    // engine's limit, so no group picks it; its time is the probe's.
    for engine in ["roaring", "chunked"] {
        let n = ctx.engine_counts.get(engine).copied().unwrap_or(0);
        layers.insert(format!("dataset.engine_{engine}"), n as f64);
    }
    Ok((layers, from_probe))
}

/// Threads alive in this process (`Threads:` of `/proc/self/status`).
fn live_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Runs `f` while a watcher thread samples the process's thread count
/// every 100 µs; returns `f`'s result and the most threads seen beyond
/// those alive before `f` started (the watcher not counted).
fn watch_threads<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let done = AtomicBool::new(false);
    let (ready_tx, ready_rx) = mpsc::channel();
    std::thread::scope(|s| {
        let watcher = s.spawn(|| {
            let base = live_threads();
            let _ = ready_tx.send(());
            let mut peak = base;
            while !done.load(Ordering::Relaxed) {
                peak = peak.max(live_threads());
                std::thread::sleep(Duration::from_micros(100));
            }
            peak - base
        });
        let _ = ready_rx.recv();
        let out = f();
        done.store(true, Ordering::Relaxed);
        (out, watcher.join().expect("thread watcher panicked"))
    })
}
