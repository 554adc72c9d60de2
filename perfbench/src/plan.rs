//! Workload plans: the seeded, fixed operation lists each workload
//! runs. A plan is a pure function of `(workload, seed, seconds)`, so
//! every run of the same arguments does identical work.

use crate::gen::{upload_csv, ActiveDataset, Inputs, Rng};
use frost_core::diagram::DiagramEngine;
use frost_core::metrics::pair::PairMetric;
use frost_storage::api::{RatioKind, Request};
use std::collections::HashSet;
use std::sync::Arc;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["browse", "analyze", "ingest"];

/// The 13 cacheable read endpoint variants, in report order.
pub const ENDPOINTS: [&str; 13] = [
    "datasets",
    "experiments",
    "profile",
    "matrix",
    "metrics",
    "diagram",
    "compare",
    "venn",
    "cluster_metrics",
    "ratios_null",
    "ratios_equal",
    "errors",
    "quality",
];

/// Operation types. Every latency distribution covers exactly one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    /// A response-tier hit with a small body (every endpoint but `/diagram`).
    Read,
    /// A response-tier hit on `/diagram` (10–50 KB bodies).
    DiagramHit,
    /// A cold `/diagram` with a sample count never requested before.
    Diagram,
    /// A cold `/venn` or `/compare` over a never-requested group.
    Venn,
    /// `POST /experiments`.
    Import,
    /// The first reads of an experiment just imported: `/metrics` and
    /// `/diagram`.
    FreshRead,
    /// `DELETE /experiments/<name>`.
    Delete,
    /// `POST /snapshot/save` (WAL compaction).
    Save,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Read => "read",
            Kind::DiagramHit => "diagram_hit",
            Kind::Diagram => "diagram",
            Kind::Venn => "venn",
            Kind::Import => "import",
            Kind::FreshRead => "fresh_read",
            Kind::Delete => "delete",
            Kind::Save => "save",
        }
    }
}

/// One cacheable read: its HTTP target, the equivalent library request,
/// and its endpoint label.
#[derive(Clone, Debug)]
pub struct Key {
    pub target: String,
    pub request: Request,
    pub endpoint: &'static str,
}

impl Key {
    /// The cache scopes `frostd` stamps on this key (its invalidation rule).
    pub fn scopes(&self) -> Vec<String> {
        match &self.request {
            Request::ListDatasets => vec!["sys:datasets".into()],
            Request::ListExperiments { .. } => vec!["sys:experiments".into()],
            Request::ProfileDataset { dataset } => vec![format!("ds:{dataset}")],
            Request::CompareExperiments { experiments, .. } => {
                experiments.iter().map(|e| format!("exp:{e}")).collect()
            }
            Request::GetConfusionMatrix { experiment }
            | Request::GetMetrics { experiment }
            | Request::GetDiagram { experiment, .. }
            | Request::GetClusterMetrics { experiment }
            | Request::GetAttributeRatios { experiment, .. }
            | Request::GetErrorProfile { experiment }
            | Request::GetQualitySignals { experiment } => vec![format!("exp:{experiment}")],
            _ => Vec::new(),
        }
    }
}

pub fn datasets() -> Key {
    Key {
        target: "/datasets".into(),
        request: Request::ListDatasets,
        endpoint: "datasets",
    }
}

pub fn experiments(ds: &str) -> Key {
    Key {
        target: format!("/experiments?dataset={ds}"),
        request: Request::ListExperiments {
            dataset: Some(ds.into()),
        },
        endpoint: "experiments",
    }
}

pub fn profile(ds: &str) -> Key {
    Key {
        target: format!("/profile?dataset={ds}"),
        request: Request::ProfileDataset { dataset: ds.into() },
        endpoint: "profile",
    }
}

pub fn diagram(e: &str, samples: usize) -> Key {
    Key {
        target: format!("/diagram?experiment={e}&samples={samples}"),
        request: Request::GetDiagram {
            experiment: e.into(),
            x: PairMetric::Recall,
            y: PairMetric::Precision,
            engine: DiagramEngine::Optimized,
            samples,
        },
        endpoint: "diagram",
    }
}

pub fn metrics(e: &str) -> Key {
    Key {
        target: format!("/metrics?experiment={e}"),
        request: Request::GetMetrics {
            experiment: e.into(),
        },
        endpoint: "metrics",
    }
}

/// `/venn` (gold by default) or `/compare` (no gold by default), with
/// the gold flag always explicit. Both share one cache key space.
pub fn group(exps: &[String], gold: bool, venn_path: bool) -> Key {
    let path = if venn_path { "venn" } else { "compare" };
    Key {
        target: format!("/{path}?experiments={}&gold={gold}", exps.join(",")),
        request: Request::CompareExperiments {
            experiments: exps.to_vec(),
            include_gold: gold,
        },
        endpoint: if venn_path { "venn" } else { "compare" },
    }
}

/// Every per-experiment endpoint variant of one sparse experiment.
fn experiment_keys(e: &str, diagram_samples: usize) -> Vec<Key> {
    let exp = || e.to_string();
    vec![
        Key {
            target: format!("/matrix?experiment={e}"),
            request: Request::GetConfusionMatrix { experiment: exp() },
            endpoint: "matrix",
        },
        metrics(e),
        diagram(e, diagram_samples),
        Key {
            target: format!("/cluster-metrics?experiment={e}"),
            request: Request::GetClusterMetrics { experiment: exp() },
            endpoint: "cluster_metrics",
        },
        Key {
            target: format!("/ratios?experiment={e}&kind=null"),
            request: Request::GetAttributeRatios {
                experiment: exp(),
                kind: RatioKind::Null,
            },
            endpoint: "ratios_null",
        },
        Key {
            target: format!("/ratios?experiment={e}&kind=equal"),
            request: Request::GetAttributeRatios {
                experiment: exp(),
                kind: RatioKind::Equal,
            },
            endpoint: "ratios_equal",
        },
        Key {
            target: format!("/errors?experiment={e}"),
            request: Request::GetErrorProfile { experiment: exp() },
            endpoint: "errors",
        },
        Key {
            target: format!("/quality?experiment={e}"),
            request: Request::GetQualitySignals { experiment: exp() },
            endpoint: "quality",
        },
    ]
}

/// One timed operation.
#[derive(Clone, Debug)]
pub enum Op {
    Get {
        kind: Kind,
        key: Key,
    },
    Import {
        dataset: String,
        name: String,
        csv: Arc<String>,
        pairs: usize,
    },
    /// Cold reads of an experiment just imported; the first is its `/metrics`.
    FreshRead {
        reads: Vec<Key>,
    },
    Delete {
        name: String,
    },
    Save,
}

impl Op {
    pub fn kind(&self) -> Kind {
        match self {
            Op::Get { kind, .. } => *kind,
            Op::Import { .. } => Kind::Import,
            Op::FreshRead { .. } => Kind::FreshRead,
            Op::Delete { .. } => Kind::Delete,
            Op::Save => Kind::Save,
        }
    }
}

/// An open-loop reader: `count` GETs due every `1/rate` seconds,
/// cycling through `keys` in a seeded Zipf order.
pub struct Paced {
    pub keys: Vec<Key>,
    pub order: Vec<usize>,
    pub rate: f64,
}

pub struct Plan {
    /// Keys fetched once during set-up (their cold cost counts in `setup_s`).
    pub warmup: Vec<Key>,
    /// Operations run once after set-up and before the timed phase,
    /// untimed: `ingest`'s first writer iterations, so the timed writer
    /// starts on a process that has grown to the store size it keeps.
    pub lead_in: Vec<Op>,
    /// Closed-loop lanes, one client connection each.
    pub lanes: Vec<Vec<Op>>,
    /// Connection 2 of `ingest`: paced hot reads.
    pub paced: Option<Paced>,
    /// The operation types behind `main_*` and `side_*`.
    pub main: Kind,
    pub side: Kind,
    /// Traced runs record spans for every this-many-th lane operation,
    /// so a hit-heavy plan keeps its span output bounded.
    pub trace_every: usize,
}

/// Lane operations a traced run records spans for, at most.
const TRACED_OPS: usize = 5_000;

/// Closed-loop browse GETs issued per second of `--seconds`.
const BROWSE_OPS_PER_S: usize = 20_000;
/// Cold analyze operations per second of `--seconds`.
const ANALYZE_OPS_PER_S: usize = 75;
/// Writer-loop iterations (import, fresh read, delete) per second:
/// about as many as a 2-vCPU VM completes, so the writer, like the
/// paced reader beside it, runs for most of `--seconds`.
const WRITES_PER_S: usize = 16;
/// Paced hot reads per second on `ingest`'s second connection.
const PACED_RATE: f64 = 100.0;
/// An `ingest` write deletes the experiment imported this many steps
/// earlier, so the store size stays steady.
const DELETE_LAG: usize = 16;
/// Imports of the layer probe before its compaction, and how many steps
/// back each of its deletes reaches. The probe's WAL grows by about a
/// dozen uploads, so the whole-WAL read behind every replication poll
/// shows in its numbers.
const PROBE_IMPORTS: usize = 12;
const PROBE_DELETE_LAG: usize = 4;
/// `/diagram` sample count of browse and fresh-read keys.
const HOT_DIAGRAM_SAMPLES: usize = 300;
const FRESH_DIAGRAM_SAMPLES: usize = 100;

/// Zipf(1) rank sampler over `n` items.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The browse key set: every cacheable endpoint across the first
/// three sparse experiments of each active dataset.
fn browse_keys(inputs: &Inputs) -> (Vec<Key>, Vec<Key>) {
    let mut small = vec![datasets()];
    let mut diagrams = Vec::new();
    for ds in &inputs.active {
        small.push(experiments(&ds.name));
        small.push(profile(&ds.name));
        for e in ds.sparse.iter().take(3) {
            for key in experiment_keys(e, HOT_DIAGRAM_SAMPLES) {
                if key.endpoint == "diagram" {
                    diagrams.push(key);
                } else {
                    small.push(key);
                }
            }
        }
        let sp = &ds.sparse;
        for (i, venn_path) in [(0usize, true), (1, false)] {
            let g = vec![sp[i].clone(), sp[i + 1].clone(), sp[i + 2].clone()];
            small.push(group(&g, venn_path, venn_path));
        }
    }
    (small, diagrams)
}

/// One key per endpoint variant for the per-endpoint cold-cost table.
/// Every per-experiment endpoint gets an experiment of its own, so no
/// endpoint finds a store memo another one filled.
fn cold_keys(inputs: &Inputs) -> Vec<Key> {
    let ds = &inputs.active[0].name;
    let mut sparse = inputs.active.iter().flat_map(|d| d.sparse.iter());
    let mut keys = vec![datasets(), experiments(ds), profile(ds)];
    for endpoint in [
        "matrix",
        "metrics",
        "diagram",
        "cluster_metrics",
        "ratios_null",
        "ratios_equal",
        "errors",
        "quality",
    ] {
        let e = sparse.next().expect("enough sparse experiments");
        let key = experiment_keys(e, HOT_DIAGRAM_SAMPLES)
            .into_iter()
            .find(|k| k.endpoint == endpoint)
            .expect("every endpoint variant has a key");
        keys.push(key);
    }
    let rest: Vec<String> = sparse.take(3).cloned().collect();
    keys.push(group(&rest, false, false));
    keys.push(group(&rest, true, true));
    keys
}

/// The layer probe the traced run makes on every workload: one cold
/// read per endpoint variant, then `probe_writes`.
pub fn probe(inputs: &Inputs, seed: u64) -> Vec<Op> {
    let mut ops: Vec<Op> = cold_keys(inputs)
        .into_iter()
        .map(|key| Op::Get {
            kind: match key.endpoint {
                "diagram" => Kind::Diagram,
                "venn" | "compare" => Kind::Venn,
                _ => Kind::Read,
            },
            key,
        })
        .collect();
    ops.extend(probe_writes(inputs, seed));
    ops
}

/// The probe's writes: `PROBE_IMPORTS` seeded uploads with their fresh
/// reads and deletes, a compaction, and one upload after it. The traced
/// run makes them against a primary `frostd` with a replica attached,
/// and in process.
pub fn probe_writes(inputs: &Inputs, seed: u64) -> Vec<Op> {
    let mut rng = Rng::fork(seed, "probe");
    writer_ops(
        inputs,
        &mut rng,
        "probe",
        PROBE_IMPORTS + 1,
        PROBE_DELETE_LAG,
        PROBE_IMPORTS,
        0,
    )
}

/// A seeded Zipf order over `n` keys. Popularity follows key order, so
/// on every seed the hot keys are the same endpoints with bodies of
/// about the same size, and seeds vary only the request sequence.
fn zipf_order(rng: &mut Rng, n: usize, count: usize) -> Vec<usize> {
    let zipf = Zipf::new(n);
    (0..count).map(|_| zipf.sample(rng)).collect()
}

fn browse(inputs: &Inputs, seed: u64, seconds: u64) -> Plan {
    let mut rng = Rng::fork(seed, "browse");
    let (small, diagrams) = browse_keys(inputs);
    let count = BROWSE_OPS_PER_S * seconds as usize;
    let small_order = zipf_order(&mut rng, small.len(), count);
    let diagram_order = zipf_order(&mut rng, diagrams.len(), count);
    let mut lanes = vec![Vec::new(), Vec::new()];
    for i in 0..count {
        // One GET in four of each lane is a diagram view.
        let op = if (i / 2) % 4 == 0 {
            Op::Get {
                kind: Kind::DiagramHit,
                key: diagrams[diagram_order[i]].clone(),
            }
        } else {
            Op::Get {
                kind: Kind::Read,
                key: small[small_order[i]].clone(),
            }
        };
        lanes[i % 2].push(op);
    }
    let mut warmup = small;
    warmup.extend(diagrams);
    Plan {
        warmup,
        lead_in: Vec::new(),
        lanes,
        paced: None,
        main: Kind::Read,
        side: Kind::DiagramHit,
        trace_every: count.div_ceil(TRACED_OPS),
    }
}

/// A never-requested ordered group of `size` experiments of one
/// dataset; with `dense`, one or two dense hub experiments are among them.
fn fresh_group(
    rng: &mut Rng,
    ds: &ActiveDataset,
    size: usize,
    dense: bool,
    gold: bool,
    seen: &mut HashSet<(Vec<String>, bool)>,
) -> Vec<String> {
    loop {
        let dense_n = if dense { 1 + rng.below(2) } else { 0 };
        let mut sparse = ds.sparse.clone();
        rng.shuffle(&mut sparse);
        let mut hubs = ds.dense.clone();
        rng.shuffle(&mut hubs);
        let mut members: Vec<String> = hubs.into_iter().take(dense_n).collect();
        members.extend(sparse.into_iter().take(size - dense_n));
        rng.shuffle(&mut members);
        if seen.insert((members.clone(), gold)) {
            return members;
        }
    }
}

/// Cold operations alternate per lane between `/diagram` and a group
/// view, so both lanes carry the same mix. Diagrams visit the sparse
/// experiments round-robin, one sample count higher each round, so a
/// key never repeats and later operations sweep more points. Groups
/// cycle through every (size 3–5, dense or not, gold or not)
/// combination, so every seed has the same group shapes.
fn analyze(inputs: &Inputs, seed: u64, seconds: u64) -> Plan {
    let mut rng = Rng::fork(seed, "analyze");
    let count = ANALYZE_OPS_PER_S * seconds as usize;
    let mut sparse: Vec<&String> = inputs.active.iter().flat_map(|d| d.sparse.iter()).collect();
    rng.shuffle(&mut sparse);
    let mut seen = HashSet::new();
    let (mut diagrams, mut groups) = (0usize, 0usize);
    let mut lanes = vec![Vec::new(), Vec::new()];
    for i in 0..count {
        let op = if (i / 2 + i) % 2 == 0 {
            let e = sparse[diagrams % sparse.len()];
            let samples = 200 + diagrams / sparse.len();
            diagrams += 1;
            Op::Get {
                kind: Kind::Diagram,
                key: diagram(e, samples),
            }
        } else {
            let combo = groups % 12;
            let ds = &inputs.active[(groups / 12) % inputs.active.len()];
            let (size, dense, gold) = (3 + combo % 3, combo / 3 % 2 == 1, combo / 6 == 1);
            let members = fresh_group(&mut rng, ds, size, dense, gold, &mut seen);
            groups += 1;
            Op::Get {
                kind: Kind::Venn,
                key: group(&members, gold, groups % 2 == 0),
            }
        };
        lanes[i % 2].push(op);
    }
    Plan {
        warmup: vec![datasets()],
        lead_in: Vec::new(),
        lanes,
        paced: None,
        main: Kind::Diagram,
        side: Kind::Venn,
        trace_every: 1,
    }
}

/// The writer loop of `ingest` and the layer probe: import
/// `<prefix><i>`, read it (`/metrics`, `/diagram`), delete the import
/// `delete_lag` steps back, and compact every `save_every` imports
/// counted from import `lead`.
fn writer_ops(
    inputs: &Inputs,
    rng: &mut Rng,
    prefix: &str,
    imports: usize,
    delete_lag: usize,
    save_every: usize,
    lead: usize,
) -> Vec<Op> {
    let ds = &inputs.active[0];
    let mut ops = Vec::new();
    for i in 0..imports {
        let name = format!("{prefix}{i}");
        let (csv, pairs) = upload_csv(rng, &ds.gold, i);
        ops.push(Op::Import {
            dataset: ds.name.clone(),
            name: name.clone(),
            csv: Arc::new(csv),
            pairs,
        });
        ops.push(Op::FreshRead {
            reads: vec![metrics(&name), diagram(&name, FRESH_DIAGRAM_SAMPLES)],
        });
        if i >= delete_lag {
            ops.push(Op::Delete {
                name: format!("{prefix}{}", i - delete_lag),
            });
        }
        if i >= lead && (i + 1 - lead).is_multiple_of(save_every) {
            ops.push(Op::Save);
        }
    }
    ops
}

/// Hot keys the paced reader cycles through: browse-style keys of the
/// base experiments that no write invalidates (`/experiments` lists
/// are invalidated by every import and left out).
fn paced_keys(inputs: &Inputs) -> Vec<Key> {
    let (small, diagrams) = browse_keys(inputs);
    small
        .into_iter()
        .chain(diagrams)
        .filter(|k| k.endpoint != "experiments")
        .collect()
}

fn ingest(inputs: &Inputs, seed: u64, seconds: u64) -> Plan {
    let mut rng = Rng::fork(seed, "ingest");
    let imports = WRITES_PER_S * seconds as usize;
    let save_every = (imports / crate::drive::SLICES).max(1);
    // The first `DELETE_LAG` iterations are the lead-in: after them the
    // store holds as many uploads as every timed iteration leaves it.
    let mut writer = writer_ops(
        inputs,
        &mut rng,
        "up",
        DELETE_LAG + imports,
        DELETE_LAG,
        save_every,
        DELETE_LAG,
    );
    let timed_from = writer
        .iter()
        .enumerate()
        .filter(|(_, op)| matches!(op, Op::Import { .. }))
        .nth(DELETE_LAG)
        .map_or(writer.len(), |(i, _)| i);
    let timed = writer.split_off(timed_from);
    let keys = paced_keys(inputs);
    let count = (PACED_RATE * seconds as f64) as usize;
    let order = zipf_order(&mut rng, keys.len(), count);
    Plan {
        warmup: keys.clone(),
        lead_in: writer,
        lanes: vec![timed],
        paced: Some(Paced {
            keys,
            order,
            rate: PACED_RATE,
        }),
        main: Kind::Import,
        side: Kind::FreshRead,
        trace_every: 1,
    }
}

pub fn plan(workload: &str, inputs: &Inputs, seed: u64, seconds: u64) -> Option<Plan> {
    Some(match workload {
        "browse" => browse(inputs, seed, seconds),
        "analyze" => analyze(inputs, seed, seconds),
        "ingest" => ingest(inputs, seed, seconds),
        _ => return None,
    })
}
