//! Cost contract of the per-experiment views: on adversarial match
//! shapes, every per-experiment request answered by [`api::handle`]
//! allocates at most `C · (records + pairs)` bytes at its peak.
//!
//! The shapes are the ones whose transitive closure is far larger than
//! the upload: a star, a long path, a near-clique and a many-hub
//! experiment that closes into one giant cluster. A view that
//! enumerates the closure's intra-cluster pairs pays `C(k, 2)` for a
//! closure cluster of `k` records and breaks the contract by orders of
//! magnitude. The `/quality` and `/cluster-metrics` values are pinned
//! against literals, and so is the `/errors` profile, so a cheaper
//! computation cannot drift in value.

use frost_core::clustering::Clustering;
use frost_core::dataset::{Dataset, Experiment, Schema};
use frost_core::diagram::DiagramEngine;
use frost_core::explore::error_categories::{ErrorCategory, ErrorProfile};
use frost_core::metrics::pair::PairMetric;
use frost_storage::api::{self, RatioKind, Request, Response};
use frost_storage::BenchmarkStore;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Counts live heap bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so the caller's guarantees under `GlobalAlloc`'s contract are exactly
// the ones `System` needs; the counters only read `layout.size()`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Serializes the measurements: the counters are process-wide.
static MEASURE: Mutex<()> = Mutex::new(());

/// Peak bytes allocated per `records + pairs` that any request may
/// reach. A linear view holds a handful of record- and pair-indexed
/// arrays at once: contingency keys and cells, similarity-sorted pair
/// keys, the CSR adjacency of the clique and bridge kernels, judged
/// pairs. On these shapes that peaks at ~60 B per unit (the path's
/// `/quality`; ~125 B on the star while the clique kernel kept hash-set
/// adjacency); 512 leaves ample headroom for allocator growth policy.
/// A view that puts the closure's pairs in hash sets peaks at
/// 13 000–47 000 B per unit on the star, path and hub shapes.
const BYTES_PER_UNIT: usize = 512;

/// Bytes the request allocated at its peak, above what was live before.
fn peak_of(store: &BenchmarkStore, request: Request) -> (usize, Response) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let response = api::handle(store, request).expect("request succeeds");
    (PEAK.load(Ordering::Relaxed) - base, response)
}

/// Every per-experiment request, as served at its default parameters.
fn requests(experiment: &str) -> Vec<(&'static str, Request)> {
    let e = || experiment.to_string();
    vec![
        ("/matrix", Request::GetConfusionMatrix { experiment: e() }),
        ("/metrics", Request::GetMetrics { experiment: e() }),
        (
            "/diagram",
            Request::GetDiagram {
                experiment: e(),
                x: PairMetric::Recall,
                y: PairMetric::Precision,
                engine: DiagramEngine::Optimized,
                samples: 20,
            },
        ),
        (
            "/cluster-metrics",
            Request::GetClusterMetrics { experiment: e() },
        ),
        (
            "/ratios?kind=null",
            Request::GetAttributeRatios {
                experiment: e(),
                kind: RatioKind::Null,
            },
        ),
        (
            "/ratios?kind=equal",
            Request::GetAttributeRatios {
                experiment: e(),
                kind: RatioKind::Equal,
            },
        ),
        ("/errors", Request::GetErrorProfile { experiment: e() }),
        ("/quality", Request::GetQualitySignals { experiment: e() }),
    ]
}

/// A store with one `n`-record dataset (gold clusters of three, a few
/// nulls and repeated values for the attribute views) and one scored
/// experiment over `pairs`.
fn store(n: u32, pairs: Vec<(u32, u32)>) -> BenchmarkStore {
    let mut ds = Dataset::new("ds", Schema::new(["name", "city"]));
    for i in 0..n {
        let city = (i % 7 != 0).then(|| format!("c{}", i % 5));
        ds.push_record_opt(format!("r{i}"), vec![Some(format!("n{}", i % 50)), city]);
    }
    let mut store = BenchmarkStore::new();
    store.add_dataset(ds).unwrap();
    let labels: Vec<u32> = (0..n).map(|i| i / 3).collect();
    store
        .set_gold_standard("ds", Clustering::from_assignment(&labels))
        .unwrap();
    let scored = pairs
        .into_iter()
        .map(|(a, b)| (a, b, f64::from((a * 31 + b * 17) % 97) / 97.0));
    store
        .add_experiment("ds", Experiment::from_scored_pairs("e", scored), None)
        .unwrap();
    store
}

/// The `/errors` profile as (false positives, false negatives), each
/// category with its count, in `ErrorCategory` order.
type Profile<'a> = (&'a [(ErrorCategory, usize)], &'a [(ErrorCategory, usize)]);

/// `counts` as (category, count) pairs in `ErrorCategory` order.
fn sorted(counts: &std::collections::HashMap<ErrorCategory, usize>) -> Vec<(ErrorCategory, usize)> {
    let mut v: Vec<_> = counts.iter().map(|(&c, &n)| (c, n)).collect();
    v.sort();
    v
}

/// Runs every request on the shape, checks the peak bound, and checks
/// the `/cluster-metrics` and `/quality` values against `pinned` and
/// the `/errors` profile against `errors`.
fn check(
    shape: &str,
    n: u32,
    pairs: Vec<(u32, u32)>,
    pinned: &[(&str, &[(&str, f64)])],
    errors: Profile,
) {
    let units = n as usize + pairs.len();
    let store = store(n, pairs);
    // The mutex guards no data, so a shape that failed while holding it
    // leaves nothing half-updated for the next one.
    let _serial = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    for (endpoint, request) in requests("e") {
        let (peak, response) = peak_of(&store, request);
        assert!(
            peak <= BYTES_PER_UNIT * units,
            "{shape} {endpoint}: peak {peak} B > {BYTES_PER_UNIT} B × {units} units"
        );
        if let Response::ErrorProfile(ErrorProfile {
            false_positives,
            false_negatives,
        }) = &response
        {
            let got = (sorted(false_positives), sorted(false_negatives));
            assert_eq!(
                (got.0.as_slice(), got.1.as_slice()),
                errors,
                "{shape} /errors: (false positives, false negatives)"
            );
        }
        if let Some((_, values)) = pinned.iter().find(|(e, _)| *e == endpoint) {
            let Response::Metrics(got) = response else {
                panic!("{shape} {endpoint}: not a metrics response");
            };
            let bits = |k: &str, v: f64| (k.to_string(), v.to_bits());
            assert!(
                got.iter()
                    .map(|(k, v)| bits(k, *v))
                    .eq(values.iter().map(|&(k, v)| bits(k, v))),
                "{shape} {endpoint}: got {got:?}, pinned {values:?}"
            );
        }
    }
}

#[test]
fn star() {
    // One hub matched to 4 000 leaves: one closure cluster of 4 001.
    let pairs = (1..=4_000).map(|leaf| (0, leaf)).collect();
    check(
        "star",
        4_001,
        pairs,
        &[
            (
                "/cluster-metrics",
                &[
                    ("closest-cluster f1", 0.000749718855429204),
                    ("variation of information", 7.195890002072515),
                    ("basic merge distance", 1333.0),
                    ("adjusted Rand index", 0.0),
                    ("purity", 0.0007498125468632841),
                    ("inverse purity", 1.0),
                    ("purity f1", 0.0014985014985014985),
                    ("Talburt-Wang index", 0.027379283909669677),
                ],
            ),
            (
                "/quality",
                &[
                    ("closure inconsistency", 7998000.0),
                    ("normalized closure inconsistency", 0.9995001249687578),
                    ("link redundancy", 0.0),
                    ("bridge ratio", 1.0),
                    ("algorithm consensus", 0.33333341664583854),
                    ("compactness", 0.4948427835051546),
                ],
            ),
        ],
        (
            &[
                (ErrorCategory::MissingValue, 3427),
                (ErrorCategory::Typo, 560),
                (ErrorCategory::ValueConflict, 11),
            ],
            &[],
        ),
    );
}

#[test]
fn path() {
    // 0 – 1 – … – 3 999: a spanning tree, all bridges.
    let pairs = (0..3_999).map(|i| (i, i + 1)).collect();
    check(
        "path",
        4_000,
        pairs,
        &[
            (
                "/cluster-metrics",
                &[
                    ("closest-cluster f1", 0.000749812546863288),
                    ("variation of information", 7.195712004506306),
                    ("basic merge distance", 1333.0),
                    ("adjusted Rand index", 0.0),
                    ("purity", 0.00075),
                    ("inverse purity", 1.0),
                    ("purity f1", 0.0014988758431176618),
                    ("Talburt-Wang index", 0.027379283909669677),
                ],
            ),
            (
                "/quality",
                &[
                    ("closure inconsistency", 7994001.0),
                    ("normalized closure inconsistency", 0.9995),
                    ("link redundancy", 0.0),
                    ("bridge ratio", 1.0),
                    ("algorithm consensus", 0.10874196421167955),
                    ("compactness", 0.49416477830797906),
                ],
            ),
        ],
        (
            &[
                (ErrorCategory::MissingValue, 380),
                (ErrorCategory::Typo, 953),
            ],
            &[],
        ),
    );
}

#[test]
fn near_clique() {
    // K_90 less every 97th edge, beside 1 000 untouched records.
    let pairs = (0..90u32)
        .flat_map(|a| (a + 1..90).map(move |b| (a, b)))
        .enumerate()
        .filter(|(k, _)| k % 97 != 0)
        .map(|(_, p)| p)
        .collect();
    check(
        "near-clique",
        1_090,
        pairs,
        &[
            (
                "/cluster-metrics",
                &[
                    ("closest-cluster f1", 0.32164963271019426),
                    ("variation of information", 1.2877260924119862),
                    ("basic merge distance", 695.0),
                    ("adjusted Rand index", 0.03254437869822485),
                    ("purity", 0.9201834862385321),
                    ("inverse purity", 0.3889908256880734),
                    ("purity f1", 0.5468224220954978),
                    ("Talburt-Wang index", 0.5860443804317308),
                ],
            ),
            (
                "/quality",
                &[
                    ("closure inconsistency", 42.0),
                    ("normalized closure inconsistency", 0.010486891385767791),
                    ("link redundancy", 0.9892747701736466),
                    ("bridge ratio", 0.0),
                    ("algorithm consensus", 0.19733392469938893),
                    ("compactness", 0.49566219489036495),
                ],
            ),
        ],
        (
            &[
                (ErrorCategory::MissingValue, 966),
                (ErrorCategory::Typo, 2765),
                (ErrorCategory::Abbreviation, 116),
                (ErrorCategory::ValueConflict, 28),
            ],
            &[],
        ),
    );
}

#[test]
fn hubs() {
    // 48 hubs × 280 partners drawn from 3 952 shared records: the
    // partner sets overlap, so the closure is one giant cluster.
    const HUBS: u32 = 48;
    const POOL: u32 = 3_952;
    let pairs = (0..HUBS)
        .flat_map(|h| (0..280).map(move |k| (h, HUBS + (h * 7_919 + k * 131) % POOL)))
        .collect();
    check(
        "hubs",
        HUBS + POOL,
        pairs,
        &[
            (
                "/cluster-metrics",
                &[
                    ("closest-cluster f1", 0.000749812546863288),
                    ("variation of information", 7.195712004506306),
                    ("basic merge distance", 1333.0),
                    ("adjusted Rand index", 0.0),
                    ("purity", 0.00075),
                    ("inverse purity", 1.0),
                    ("purity f1", 0.0014988758431176618),
                    ("Talburt-Wang index", 0.027379283909669677),
                ],
            ),
            (
                "/quality",
                &[
                    ("closure inconsistency", 7984560.0),
                    ("normalized closure inconsistency", 0.9983195798949738),
                    ("link redundancy", 0.0011810106103314223),
                    ("bridge ratio", 0.0),
                    ("algorithm consensus", 0.012656215305582722),
                    ("compactness", 0.4933657032400583),
                ],
            ),
        ],
        (
            &[
                (ErrorCategory::MissingValue, 3316),
                (ErrorCategory::Typo, 9551),
                (ErrorCategory::Abbreviation, 361),
                (ErrorCategory::ValueConflict, 212),
            ],
            &[],
        ),
    );
}
