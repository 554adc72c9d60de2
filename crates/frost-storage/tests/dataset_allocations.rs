//! Allocation contract of loading a dataset: neither the snapshot
//! `DSET` decoder nor the CSV dataset importer allocates per record or
//! per value. A dataset keeps its values in one column per attribute,
//! each sized exactly before the first record is copied in, so loading
//! 1 000 records and loading 20 000 make the same number of heap
//! allocations, counted on the loading thread. One allocation per
//! record, per value, or per doubling of a growing buffer would make
//! the two counts differ.

use frost_core::dataset::{Dataset, Schema};
use frost_storage::import::DatasetImporter;
use frost_storage::persist::dataset_to_csv;
use frost_storage::{snapshot, BenchmarkStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations (and reallocations) made by the current thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so the caller's guarantees under `GlobalAlloc`'s contract are exactly
// the ones `System` needs; the counter touches no heap memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout)
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(p, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A dataset of `records` records over four attributes: multi-byte
/// text, a value with a comma and a quote (quoted in CSV), empty values
/// and missing ones.
fn dataset(records: u32) -> Dataset {
    let mut ds = Dataset::new("people", Schema::new(["name", "city", "note", "year"]));
    for i in 0..records {
        let city = ["Berlin", "Köln", "東京", "Zürich"][i as usize % 4];
        let note = match i % 5 {
            0 => Some(format!("says \"hi\", {i}")),
            1 => Some(String::new()),
            _ => None,
        };
        let year = (i % 7 != 0).then(|| (1950 + i % 70).to_string());
        ds.push_record_opt(
            format!("r{i}"),
            vec![Some(format!("Person {i}")), Some(city.into()), note, year],
        );
    }
    ds
}

/// Allocations `load` makes on this thread, and what it loaded.
fn allocations<T>(load: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let loaded = load();
    let after = ALLOCATIONS.with(Cell::get);
    (after - before, loaded)
}

/// The snapshot of a store holding just `ds`.
fn snapshot_of(ds: Dataset) -> Vec<u8> {
    let mut store = BenchmarkStore::new();
    store.add_dataset(ds).unwrap();
    snapshot::to_bytes(&store).unwrap()
}

#[test]
fn snapshot_decode_allocations_do_not_grow_with_the_dataset() {
    let (small_ds, large_ds) = (dataset(1_000), dataset(20_000));
    let (small_bytes, large_bytes) = (snapshot_of(small_ds.clone()), snapshot_of(large_ds.clone()));
    let (small, small_store) = allocations(|| snapshot::from_bytes(&small_bytes).unwrap());
    let (large, large_store) = allocations(|| snapshot::from_bytes(&large_bytes).unwrap());
    assert_eq!(small_store.dataset("people").unwrap(), &small_ds);
    assert_eq!(large_store.dataset("people").unwrap(), &large_ds);
    assert_eq!(
        small, large,
        "decoding 1 000 records made {small} allocations, 20 000 records {large}"
    );
    assert!(small <= 48, "{small} allocations for one snapshot");
}

#[test]
fn csv_import_allocations_do_not_grow_with_the_dataset() {
    let (small_ds, large_ds) = (dataset(1_000), dataset(20_000));
    let (small_csv, large_csv) = (dataset_to_csv(&small_ds), dataset_to_csv(&large_ds));
    let importer = DatasetImporter::standard();
    let (small, small_import) = allocations(|| importer.import("people", &small_csv).unwrap());
    let (large, large_import) = allocations(|| importer.import("people", &large_csv).unwrap());
    for (imported, original) in [(&small_import, &small_ds), (&large_import, &large_ds)] {
        assert_eq!(imported.len(), original.len());
        for (a, b) in imported.columns().iter().zip(original.columns()) {
            // CSV reads an empty cell back as a missing value.
            assert!(a
                .values()
                .eq(b.values().map(|v| v.filter(|v| !v.is_empty()))));
        }
    }
    assert_eq!(
        small, large,
        "importing 1 000 records made {small} allocations, 20 000 records {large}"
    );
    assert!(small <= 48, "{small} allocations for one import");
}
