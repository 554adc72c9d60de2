//! Property tests for the `FROSTB` snapshot format.
//!
//! * **Round-trip**: a randomized store survives `to_bytes` →
//!   `from_bytes` exactly — records (including nulls and awkward
//!   characters), gold standards, experiment pair lists (order,
//!   scores, origins), precomputed clusterings, and the pair sets of
//!   **all three engines** byte-identical (each engine's
//!   representation is canonical, so structural equality is byte
//!   equality).
//! * **Corruption**: flipping any byte or truncating at any point is
//!   rejected — by the magic/version checks or by a checksum.

use frost_core::dataset::{
    ChunkedPairSet, Dataset, Experiment, PairOrigin, PairSet, RecordPair, RoaringPairSet, Schema,
    ScoredPair,
};
use frost_storage::snapshot::{from_bytes, to_bytes, SnapshotError};
use frost_storage::BenchmarkStore;
use proptest::prelude::*;

/// Deterministically builds a randomized store from raw proptest
/// material (the vendored proptest has no flat_map, so dependent
/// choices are normalized here instead).
fn build_store(
    values: &[(String, String)],
    gold_labels: &[u32],
    raw_pairs: &[(u32, u32, u32, u32)],
    with_kpis: bool,
) -> BenchmarkStore {
    let n = values.len();
    let mut ds = Dataset::with_capacity("ds", Schema::new(["name", "note"]), n);
    for (i, (name, note)) in values.iter().enumerate() {
        ds.push_record_opt(
            format!("r{i}"),
            vec![
                if name.is_empty() {
                    None
                } else {
                    Some(name.clone())
                },
                if note.is_empty() {
                    None
                } else {
                    Some(note.clone())
                },
            ],
        );
    }
    let mut store = BenchmarkStore::new();
    store.add_dataset(ds).unwrap();

    // Gold labels resized to the record count.
    let labels: Vec<u32> = (0..n)
        .map(|i| gold_labels.get(i).copied().unwrap_or(0))
        .collect();
    store
        .set_gold_standard(
            "ds",
            frost_core::clustering::Clustering::from_assignment(&labels),
        )
        .unwrap();

    // Split the raw pairs into two experiments; ids are folded into
    // range, self-pairs dropped, duplicates collapsed by Experiment.
    let half = raw_pairs.len() / 2;
    for (e, chunk) in [&raw_pairs[..half], &raw_pairs[half..]]
        .into_iter()
        .enumerate()
    {
        let pairs = chunk.iter().filter_map(|&(a, b, sim, kind)| {
            let (a, b) = (a % n as u32, b % n as u32);
            if a == b {
                return None;
            }
            let pair = RecordPair::from((a, b));
            Some(match kind % 3 {
                0 => ScoredPair {
                    pair,
                    similarity: Some(sim as f64 / 100.0),
                    origin: PairOrigin::Matcher,
                },
                1 => ScoredPair {
                    pair,
                    similarity: None,
                    origin: PairOrigin::Matcher,
                },
                _ => ScoredPair {
                    pair,
                    similarity: None,
                    origin: PairOrigin::Closure,
                },
            })
        });
        let kpis = if with_kpis && e == 0 {
            Some(frost_core::softkpi::ExperimentKpis {
                setup: frost_core::softkpi::Effort {
                    hours: 1.5,
                    expertise: 70,
                },
                runtime_seconds: 0.25,
            })
        } else {
            None
        };
        store
            .add_experiment("ds", Experiment::new(format!("e{e}"), pairs), kpis)
            .unwrap();
    }
    store
}

fn assert_round_trip(store: &BenchmarkStore) {
    let bytes = to_bytes(store).unwrap();
    let loaded = from_bytes(&bytes).unwrap();

    assert_eq!(store.dataset_names(), loaded.dataset_names());
    for name in store.dataset_names() {
        assert_eq!(
            store.dataset(&name).unwrap(),
            loaded.dataset(&name).unwrap()
        );
        assert_eq!(
            store.gold_standard(&name).ok(),
            loaded.gold_standard(&name).ok()
        );
    }
    assert_eq!(store.experiment_names(None), loaded.experiment_names(None));
    for name in store.experiment_names(None) {
        let (a, b) = (
            store.experiment(&name).unwrap(),
            loaded.experiment(&name).unwrap(),
        );
        assert_eq!(a.dataset, b.dataset);
        assert_eq!(
            a.experiment.pairs(),
            b.experiment.pairs(),
            "pair list drift"
        );
        assert_eq!(a.clustering, b.clustering, "clustering drift");
        // All three engines' pair sets are byte-identical after
        // save/load: the stored roaring arenas match, and rebuilding
        // the other engines from the loaded pairs reproduces the
        // originals exactly.
        assert_eq!(a.pair_set, b.pair_set, "stored roaring arenas drift");
        assert_eq!(
            a.experiment.pair_set_as::<PairSet>(),
            b.experiment.pair_set_as::<PairSet>()
        );
        assert_eq!(
            a.experiment.pair_set_as::<ChunkedPairSet>(),
            b.experiment.pair_set_as::<ChunkedPairSet>()
        );
        assert_eq!(
            a.experiment.pair_set_as::<RoaringPairSet>(),
            b.experiment.pair_set_as::<RoaringPairSet>()
        );
        assert_eq!(b.experiment.pair_set_as::<RoaringPairSet>(), b.pair_set);
    }
    // Determinism: writing the reloaded store reproduces the bytes.
    assert_eq!(bytes, to_bytes(&loaded).unwrap());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_store_round_trips(
        values in prop::collection::vec(("[a-z0-9 ,\"]{0,8}", "[ -~]{0,10}"), 2..24),
        gold_labels in prop::collection::vec(0u32..6, 0..24),
        raw_pairs in prop::collection::vec((0u32..24, 0u32..24, 0u32..101, 0u32..3), 0..50),
        with_kpis in prop::collection::vec(0u32..2, 1..2),
    ) {
        let store = build_store(&values, &gold_labels, &raw_pairs, with_kpis[0] == 1);
        assert_round_trip(&store);
    }

    /// Any single corrupted byte is rejected by a magic, version or
    /// checksum check — never silently accepted.
    #[test]
    fn corrupted_byte_rejected(
        values in prop::collection::vec(("[a-z]{0,6}", "[a-z]{0,6}"), 2..12),
        raw_pairs in prop::collection::vec((0u32..12, 0u32..12, 0u32..101, 0u32..3), 0..20),
        flip in (0u32..10_000, 1u32..256),
    ) {
        let store = build_store(&values, &[], &raw_pairs, false);
        let bytes = to_bytes(&store).unwrap();
        let at = flip.0 as usize % bytes.len();
        let mut bad = bytes.clone();
        bad[at] ^= flip.1 as u8;
        prop_assert!(
            from_bytes(&bad).is_err(),
            "corrupted byte {at} (xor {:#x}) was accepted", flip.1
        );
    }

    /// Any truncation is rejected.
    #[test]
    fn truncation_rejected(
        values in prop::collection::vec(("[a-z]{0,6}", "[a-z]{0,6}"), 2..12),
        raw_pairs in prop::collection::vec((0u32..12, 0u32..12, 0u32..101, 0u32..3), 0..20),
        cut in 0u32..10_000,
    ) {
        let store = build_store(&values, &[], &raw_pairs, false);
        let bytes = to_bytes(&store).unwrap();
        let at = cut as usize % bytes.len();
        prop_assert!(from_bytes(&bytes[..at]).is_err(), "truncation at {at} was accepted");
    }
}

/// A version bump is reported as [`SnapshotError::VersionMismatch`],
/// not as generic corruption (so operators see "upgrade your build",
/// not "your file is broken").
#[test]
fn future_version_is_version_mismatch() {
    let store = build_store(
        &[("a".into(), String::new()), ("b".into(), "x".into())],
        &[],
        &[],
        false,
    );
    let mut bytes = to_bytes(&store).unwrap();
    bytes[6] = 2;
    bytes[7] = 0;
    assert!(matches!(
        from_bytes(&bytes),
        Err(SnapshotError::VersionMismatch { found: 2, .. })
    ));
}
