//! `/venn` and `/compare` (`Request::CompareExperiments`) against a
//! reference that builds every set from the raw pair lists and the gold
//! standard's `intra_pairs()` and sizes the regions of `venn_regions`,
//! on a packed, a roaring and a chunked (hub) group, with and without
//! the gold standard; and the gold standard's cached pair set never
//! outlives the gold standard it was built from.

use frost_core::clustering::Clustering;
use frost_core::dataset::{choose_pair_engine, Dataset, Experiment, PairEngine, PairSet, Schema};
use frost_core::explore::setops::venn_regions;
use frost_storage::api::{self, Request, Response};
use frost_storage::wal::WalOp;
use frost_storage::{snapshot, BenchmarkStore};

const RECORDS: u32 = 12_000;

/// Clusters of three, plus one 150-record cluster whose 11 175 pairs
/// fill dense chunks.
fn gold_a() -> Clustering {
    let labels: Vec<u32> = (0..RECORDS)
        .map(|i| if i < 150 { 0 } else { i / 3 })
        .collect();
    Clustering::from_assignment(&labels)
}

/// Pairs `(2j, 2j + 1)`: a different gold standard over the same records.
fn gold_b() -> Clustering {
    Clustering::from_assignment(&(0..RECORDS).map(|i| i / 2).collect::<Vec<_>>())
}

/// Sparse pairs near the diagonal, `step` apart, starting at `from`.
fn sparse(from: u32, step: u32, count: u32) -> Vec<(u32, u32)> {
    (0..count)
        .map(|i| {
            let lo = (from + i * step) % (RECORDS - 8);
            (lo, lo + 1 + i % 5)
        })
        .collect()
}

/// One hub record matched to `count` others: one dense chunk.
fn hub(center: u32, count: u32) -> Vec<(u32, u32)> {
    (0..count).map(|i| (center, center + 1 + i)).collect()
}

fn store() -> BenchmarkStore {
    let mut ds = Dataset::new("ds", Schema::new(["name"]));
    for i in 0..RECORDS {
        ds.push_record(format!("r{i}"), [format!("n{}", i % 97)]);
    }
    let mut store = BenchmarkStore::new();
    store.add_dataset(ds).unwrap();
    store.set_gold_standard("ds", gold_a()).unwrap();
    let experiments: [(&str, Vec<(u32, u32)>); 9] = [
        ("p1", sparse(0, 3, 900)),
        ("p2", sparse(0, 6, 1_500)),
        ("p3", [sparse(1, 5, 600), hub(0, 80)].concat()),
        ("r1", sparse(0, 2, 6_000)),
        ("r2", sparse(3, 3, 5_000)),
        ("r3", [sparse(0, 4, 4_500), hub(0, 120)].concat()),
        ("c1", hub(0, 6_000)),
        ("c2", [hub(10, 5_000), sparse(0, 2, 2_000)].concat()),
        ("c3", [hub(2_000, 4_500), hub(0, 300)].concat()),
    ];
    for (name, pairs) in experiments {
        store
            .add_experiment("ds", Experiment::from_pairs(name, pairs), None)
            .unwrap();
    }
    store
}

/// The region sizes as the handler computed them before it counted in
/// place: every set rebuilt from its pair list, the gold set from
/// `intra_pairs()`, then `venn_regions`.
fn reference(store: &BenchmarkStore, experiments: &[&str], gold: bool) -> Vec<(u32, usize)> {
    let mut sets: Vec<PairSet> = experiments
        .iter()
        .map(|e| store.experiment(e).unwrap().experiment.pair_set_as())
        .collect();
    if gold {
        sets.push(store.gold_standard("ds").unwrap().intra_pairs().collect());
    }
    venn_regions(&sets)
        .into_iter()
        .map(|r| (r.membership, r.pairs.len()))
        .collect()
}

fn served(store: &BenchmarkStore, experiments: &[&str], gold: bool) -> Vec<(u32, usize)> {
    let request = Request::CompareExperiments {
        experiments: experiments.iter().map(|e| e.to_string()).collect(),
        include_gold: gold,
    };
    match api::handle(store, request).expect("comparison succeeds") {
        Response::Venn(regions) => regions,
        other => panic!("not a Venn response: {other:?}"),
    }
}

fn engine(store: &BenchmarkStore, experiments: &[&str]) -> PairEngine {
    PairEngine::combined(experiments.iter().map(|e| {
        let set = &store.experiment(e).unwrap().pair_set;
        choose_pair_engine(set.len(), set.chunk_count())
    }))
}

/// Every group, with and without the gold standard, answers the
/// reference's counts.
fn assert_agrees(store: &BenchmarkStore, context: &str) {
    let groups: [(&[&str], PairEngine); 6] = [
        (&["p1", "p2", "p3"], PairEngine::Packed),
        (&["p1"], PairEngine::Packed),
        (&["r1", "r2", "r3"], PairEngine::Roaring),
        (&["r1", "p2", "r3", "p3", "r2"], PairEngine::Roaring),
        (&["c1", "c2", "c3"], PairEngine::Chunked),
        (&["c1", "r1", "p1", "c3", "r3"], PairEngine::Chunked),
    ];
    for (group, expected_engine) in groups {
        assert_eq!(engine(store, group), expected_engine, "{group:?}");
        for gold in [false, true] {
            assert_eq!(
                served(store, group, gold),
                reference(store, group, gold),
                "{context}: {group:?} with gold {gold}"
            );
        }
    }
}

#[test]
fn venn_and_compare_agree_with_reference() {
    let store = store();
    assert_agrees(&store, "fresh store");
    // Gold-only regions exist: the gold set is not empty.
    assert!(served(&store, &["p1"], true)
        .iter()
        .any(|&(m, _)| m == 0b10));
}

#[test]
fn a_replaced_gold_standard_is_never_answered_from_the_old_set() {
    let mut store = store();
    let group = ["r1", "c1"];
    // Builds and caches gold A's pair set.
    let with_a = served(&store, &group, true);
    assert_eq!(with_a, reference(&store, &group, true));

    // Replaced in place.
    store.set_gold_standard("ds", gold_b()).unwrap();
    let with_b = served(&store, &group, true);
    assert_ne!(with_b, with_a, "the two gold standards must differ here");
    assert_eq!(with_b, reference(&store, &group, true));
    assert_agrees(&store, "after set_gold_standard");

    // WAL operations change experiments, never the gold standard: the
    // cached gold set stays valid across them.
    WalOp::add_experiment(
        "ds",
        &Experiment::from_pairs("w1", sparse(5, 7, 5_000)),
        None,
    )
    .apply(&mut store)
    .unwrap();
    WalOp::DeleteExperiment { name: "r2".into() }
        .apply(&mut store)
        .unwrap();
    for group in [&["w1", "r1"][..], &["w1", "c1", "p1"]] {
        assert_eq!(
            served(&store, group, true),
            reference(&store, group, true),
            "after WAL apply: {group:?}"
        );
    }

    // A snapshot carries the clustering, not the cached set: the loaded
    // store answers from gold B, and from gold A once that is restored.
    let bytes = snapshot::to_bytes(&store).unwrap();
    let mut loaded = snapshot::from_bytes(&bytes).unwrap();
    assert_eq!(served(&loaded, &group, true), with_b);
    loaded.set_gold_standard("ds", gold_a()).unwrap();
    assert_eq!(served(&loaded, &group, true), with_a);
}
