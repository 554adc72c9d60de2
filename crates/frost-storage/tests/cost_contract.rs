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
//!
//! `/venn` and `/compare` are pinned separately: they count regions in
//! place over sets the store already holds, so their peak is bounded
//! by a small constant over those sets, and the mask-width request
//! allocates no `2^k` counters.

use frost_core::clustering::Clustering;
use frost_core::dataset::{
    choose_pair_engine, Dataset, Experiment, PairEngine, RoaringPairSet, Schema, MAX_VENN_SETS,
};
use frost_core::diagram::DiagramEngine;
use frost_core::explore::error_categories::{ErrorCategory, ErrorProfile};
use frost_core::explore::setops::venn_regions;
use frost_core::metrics::pair::PairMetric;
use frost_storage::api::{self, RatioKind, Request, Response};
use frost_storage::BenchmarkStore;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Counts live heap bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's net allocated bytes and their high-water mark. A
    /// request that runs on the calling thread alone is measured here,
    /// unaffected by tests that allocate in parallel.
    static THREAD: (Cell<isize>, Cell<isize>) = const { (Cell::new(0), Cell::new(0)) };
}

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
    thread_moved(bytes as isize);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
    thread_moved(-(bytes as isize));
}

fn thread_moved(bytes: isize) {
    let _ = THREAD.try_with(|(live, peak)| {
        live.set(live.get() + bytes);
        peak.set(peak.get().max(live.get()));
    });
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
        shrank(layout.size());
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
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

/// Bytes `f` allocated on this thread at its peak, above what the
/// thread held before; for work that spawns no threads.
fn thread_peak_of<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let base = THREAD.with(|(live, peak)| {
        peak.set(live.get());
        live.get()
    });
    let out = f();
    let peak = THREAD.with(|(_, peak)| peak.get());
    ((peak - base) as usize, out)
}

/// [`thread_peak_of`] a request (`/venn` and `/compare` run on the
/// calling thread).
fn thread_peak_of_request(store: &BenchmarkStore, request: Request) -> (usize, Response) {
    thread_peak_of(|| api::handle(store, request).expect("request succeeds"))
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

/// Work space a `/venn` or `/compare` request may allocate: the
/// participant lists, the merge's per-set cursors and the
/// `(membership, count)` response. A three-set group with and without
/// the gold standard peaks at ~200–300 B.
const VENN_SLACK: usize = 4096;

/// A 20 000-record dataset (gold clusters of three) with `k` sparse
/// experiments `e0`, `e1`, … of 5 000 pairs each: a group of them runs
/// on the roaring engine.
fn group_store(k: u32) -> BenchmarkStore {
    let n = 20_000u32;
    let mut ds = Dataset::new("ds", Schema::new(["name"]));
    for i in 0..n {
        ds.push_record(format!("r{i}"), [format!("n{}", i % 50)]);
    }
    let mut store = BenchmarkStore::new();
    store.add_dataset(ds).unwrap();
    let labels: Vec<u32> = (0..n).map(|i| i / 3).collect();
    store
        .set_gold_standard("ds", Clustering::from_assignment(&labels))
        .unwrap();
    for e in 0..k {
        let pairs = (0..5_000u32).map(|i| {
            let lo = (i * (e + 2) + e) % (n - 4);
            (lo, lo + 1 + (i + e) % 3)
        });
        store
            .add_experiment("ds", Experiment::from_pairs(format!("e{e}"), pairs), None)
            .unwrap();
    }
    store
}

fn compare(names: &[String], include_gold: bool) -> Request {
    Request::CompareExperiments {
        experiments: names.to_vec(),
        include_gold,
    }
}

#[test]
fn venn_on_a_roaring_group_allocates_no_sets() {
    let store = group_store(3);
    let names: Vec<String> = (0..3).map(|e| format!("e{e}")).collect();
    let experiments: Vec<&RoaringPairSet> = names
        .iter()
        .map(|e| &store.experiment(e).unwrap().pair_set)
        .collect();
    for set in &experiments {
        assert_eq!(
            choose_pair_engine(set.len(), set.chunk_count()),
            PairEngine::Roaring
        );
    }
    // The gold set is built on first use and then kept by the store.
    let gold = store.gold_pair_set("ds").unwrap();
    let sets_bytes: usize = experiments
        .iter()
        .chain([&gold])
        .map(|s| s.heap_bytes())
        .sum();
    for include_gold in [false, true] {
        let (peak, response) = thread_peak_of_request(&store, compare(&names, include_gold));
        assert!(
            peak <= VENN_SLACK,
            "/venn gold {include_gold}: peak {peak} B > {VENN_SLACK} B"
        );
        let Response::Venn(regions) = response else {
            panic!("not a Venn response");
        };
        assert!(regions.len() > 3, "{regions:?}");
    }
    // The steps the handler took before counting in place break even
    // the looser bound of the sets' own bytes plus the slack: clone
    // every set, copy each region's pairs into a vector, and build one
    // set per region only to read its length.
    let bound = sets_bytes + VENN_SLACK;
    let (parent_peak, _) = thread_peak_of(|| {
        let mut sets: Vec<RoaringPairSet> = experiments.iter().map(|&s| s.clone()).collect();
        sets.push(gold.clone());
        venn_regions(&sets)
            .into_iter()
            .map(|r| (r.membership, r.pairs.len()))
            .collect::<Vec<_>>()
    });
    assert!(
        parent_peak > bound,
        "per-region materialization peaked at {parent_peak} B, within {bound} B"
    );
}

/// Hub experiments `h0`, `h1`, `h2` (one record matched to 6 000
/// others each, two of them sharing the hub record and 3 000 partners)
/// beside the gold standard of [`group_store`]: the shape the pair-set
/// cost model calls dense (chunked), which is counted on the stored
/// roaring sets like any other group.
#[test]
fn venn_on_a_hub_group_allocates_no_sets() {
    let mut store = group_store(0);
    for (e, (hub, first)) in [(0u32, 1u32), (0, 3_001), (7, 8)].into_iter().enumerate() {
        let pairs = (first..first + 6_000).map(move |hi| (hub, hi));
        store
            .add_experiment("ds", Experiment::from_pairs(format!("h{e}"), pairs), None)
            .unwrap();
    }
    let names: Vec<String> = (0..3).map(|e| format!("h{e}")).collect();
    for name in &names {
        let set = &store.experiment(name).unwrap().pair_set;
        assert_eq!(
            choose_pair_engine(set.len(), set.chunk_count()),
            PairEngine::Chunked
        );
    }
    store.gold_pair_set("ds").unwrap();
    for include_gold in [false, true] {
        let (peak, response) = thread_peak_of_request(&store, compare(&names, include_gold));
        assert!(
            peak <= VENN_SLACK,
            "/venn gold {include_gold}: peak {peak} B > {VENN_SLACK} B"
        );
        let Response::Venn(regions) = response else {
            panic!("not a Venn response");
        };
        assert!(regions.len() >= 3, "{regions:?}");
    }
}

#[test]
fn venn_of_the_widest_group_allocates_no_mask_array() {
    // The widest comparison: 31 experiments and the gold standard.
    let store = group_store(MAX_VENN_SETS as u32 - 1);
    let names: Vec<String> = (0..MAX_VENN_SETS - 1).map(|e| format!("e{e}")).collect();
    store.gold_pair_set("ds").unwrap();
    let (peak, response) = thread_peak_of_request(&store, compare(&names, true));
    let Response::Venn(regions) = response else {
        panic!("not a Venn response");
    };
    // One mask-index entry and one response entry per occurring region;
    // a dense counter array would need 2^32 entries.
    let bound = VENN_SLACK + 128 * regions.len();
    assert!(
        peak <= bound,
        "{} sets: peak {peak} B > {bound} B for {} regions",
        MAX_VENN_SETS,
        regions.len()
    );
    assert!(regions.len() > 100, "{} regions", regions.len());
}
