//! Pins the FROSTB v1 format with a checked-in snapshot.
//!
//! `fixtures/v1.frostb` is `snapshot::to_bytes` of the store that
//! [`fixture_store`] builds, written while datasets still kept one
//! `Vec<Option<String>>` per record. It holds every shape the `DSET`
//! section encodes: a null mask that spans two bytes, empty values next
//! to missing ones, multi-byte UTF-8, CSV metacharacters, and a dataset
//! with no attributes; plus a gold standard and experiments with
//! scored, unscored and closure pairs, with and without effort KPIs.
//! Loading it must read back exactly those values, and encoding the
//! loaded store must give the same bytes again. A format change that
//! keeps reading v1 keeps this test as its compatibility check.

use frost_core::clustering::Clustering;
use frost_core::dataset::{Dataset, Experiment, RecordId, Schema, ScoredPair};
use frost_core::softkpi::{Effort, ExperimentKpis};
use frost_storage::{snapshot, BenchmarkStore};

const FIXTURE: &[u8] = include_bytes!("fixtures/v1.frostb");

const ATTRIBUTES: [&str; 10] = [
    "name", "city", "zip", "phone", "email", "street", "country", "note", "age", "tag",
];

/// The records of `people`: a native id and ten optional values.
fn people() -> Vec<(&'static str, [Option<&'static str>; 10])> {
    vec![
        (
            "p1",
            [
                Some("Anna Schmidt"),
                Some("Berlin"),
                Some("10115"),
                Some("030-1"),
                Some("anna@example.org"),
                Some("Hauptstraße 1"),
                Some("DE"),
                Some("first"),
                Some("34"),
                Some("a"),
            ],
        ),
        (
            "p2",
            [
                Some("Anna Schmid"),
                None,
                Some(""),
                None,
                Some(""),
                None,
                Some("DE"),
                None,
                None,
                Some("b"),
            ],
        ),
        ("p3", [None; 10]),
        (
            "p4",
            [
                Some("Jürgen Müller-Ø"),
                Some("東京"),
                None,
                Some(""),
                None,
                Some("🦀 Crab Lane 7"),
                Some("JP"),
                Some("comma, \"quote\"\nnewline"),
                Some("  "),
                None,
            ],
        ),
        (
            "",
            [
                Some(""),
                Some(""),
                Some(""),
                Some(""),
                Some(""),
                Some(""),
                Some(""),
                Some(""),
                Some(""),
                Some(""),
            ],
        ),
        (
            "p6",
            [
                Some("Bert Weber"),
                Some("Potsdam"),
                Some("14467"),
                None,
                None,
                None,
                None,
                None,
                None,
                Some("last"),
            ],
        ),
    ]
}

fn fixture_store() -> BenchmarkStore {
    let mut ds = Dataset::new("people", Schema::new(ATTRIBUTES));
    for (native, values) in people() {
        ds.push_record_opt(native, values.iter().map(|v| v.map(String::from)).collect());
    }
    let mut bare = Dataset::new("bare", Schema::new(Vec::<String>::new()));
    bare.push_record_opt("x", vec![]);
    bare.push_record_opt("y", vec![]);

    let mut store = BenchmarkStore::new();
    store.add_dataset(ds).unwrap();
    store.add_dataset(bare).unwrap();
    store
        .set_gold_standard("people", Clustering::from_assignment(&[0, 0, 1, 2, 3, 2]))
        .unwrap();
    store
        .add_experiment(
            "people",
            Experiment::new(
                "run-1",
                [
                    ScoredPair::scored((0u32, 1u32), 0.93),
                    ScoredPair::closure((0u32, 2u32)),
                    ScoredPair::unscored((3u32, 5u32)),
                    ScoredPair::scored((1u32, 2u32), -0.0),
                ],
            ),
            Some(ExperimentKpis {
                setup: Effort {
                    hours: 2.5,
                    expertise: 40,
                },
                runtime_seconds: 1.25,
            }),
        )
        .unwrap();
    store
        .add_experiment(
            "people",
            Experiment::from_scored_pairs("run-2", [(0u32, 1u32, 0.7), (4, 5, 0.6)]),
            None,
        )
        .unwrap();
    store
        .add_experiment(
            "bare",
            Experiment::from_pairs("bare-run", [(0u32, 1u32)]),
            None,
        )
        .unwrap();
    store
}

#[test]
fn v1_fixture_is_a_v1_snapshot() {
    assert_eq!(&FIXTURE[..6], snapshot::MAGIC);
    assert_eq!(u16::from_le_bytes([FIXTURE[6], FIXTURE[7]]), 1);
}

#[test]
fn v1_fixture_loads_with_every_value() {
    let store = snapshot::from_bytes(FIXTURE).unwrap();
    assert_eq!(store.dataset_names(), ["bare", "people"]);

    let ds = store.dataset("people").unwrap();
    assert_eq!(ds.schema().attributes(), ATTRIBUTES);
    let expected = people();
    assert_eq!(ds.len(), expected.len());
    for (i, (native, values)) in expected.iter().enumerate() {
        let id = RecordId(i as u32);
        assert_eq!(ds.native_id(id), *native);
        assert_eq!(ds.resolve_native(native), Some(id));
        for (col, value) in values.iter().enumerate() {
            assert_eq!(ds.value(id, ATTRIBUTES[col]), *value, "{native:?}.{col}");
        }
    }
    // An empty value is present; a missing one is not.
    assert_eq!(ds.value(RecordId(1), "zip"), Some(""));
    assert_eq!(ds.value(RecordId(1), "city"), None);

    let bare = store.dataset("bare").unwrap();
    assert_eq!((bare.len(), bare.schema().len()), (2, 0));
    assert_eq!(bare.resolve_native("y"), Some(RecordId(1)));

    assert_eq!(store.experiment_names(None), ["bare-run", "run-1", "run-2"]);
    let run1 = store.experiment("run-1").unwrap();
    assert_eq!(run1.experiment.len(), 4);
    assert!(run1.kpis.is_some());
    assert_eq!(store.gold_standard("people").unwrap().num_clusters(), 4);
}

#[test]
fn v1_fixture_is_what_the_fixture_store_encodes() {
    assert_eq!(snapshot::to_bytes(&fixture_store()).unwrap(), FIXTURE);
}

#[test]
fn v1_fixture_re_encodes_byte_for_byte() {
    let store = snapshot::from_bytes(FIXTURE).unwrap();
    assert_eq!(snapshot::to_bytes(&store).unwrap(), FIXTURE);
}
