//! Allocation contract of the experiment import: reading an upload
//! allocates nothing per row or per field. On unquoted uploads of
//! 1 000 and 20 000 rows, [`import_experiment`] makes the same number
//! of heap allocations (the pair list, the deduplicator, the reader's
//! field buffer, the name, and in debug builds the no-duplicates
//! check), counted on the importing thread. Any allocation per row or
//! per field would make the two counts differ by thousands.

use frost_core::dataset::{CsvOptions, Dataset, Schema};
use frost_storage::import::import_experiment;
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

const RECORDS: u32 = 5_000;

fn dataset() -> Dataset {
    let mut ds = Dataset::new("d", Schema::new(["name"]));
    for i in 0..RECORDS {
        ds.push_record(format!("r{i}"), ["x"]);
    }
    ds
}

/// An unquoted `id1,id2,similarity` upload of `rows` rows, every 50th
/// row repeating an earlier pair reversed and every 97th a self-pair.
fn upload(rows: u32) -> String {
    let mut csv = String::from("id1,id2,similarity\n");
    for i in 0..rows {
        let (a, b) = (i % RECORDS, (i * 7 + 1) % RECORDS);
        let (a, b) = match i {
            _ if i % 97 == 5 => (a, a),
            _ if i % 50 == 49 => (((i - 1) * 7 + 1) % RECORDS, (i - 1) % RECORDS),
            _ => (a, b),
        };
        csv.push_str(&format!("r{a},r{b},0.{:04}\n", i % 10_000));
    }
    csv
}

/// Allocations `import_experiment` makes on this thread for `csv`,
/// and the pair count it imported.
fn allocations(ds: &Dataset, csv: &str) -> (usize, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let experiment = import_experiment("upload", ds, csv, CsvOptions::comma()).unwrap();
    let after = ALLOCATIONS.with(Cell::get);
    (after - before, experiment.len())
}

#[test]
fn import_allocations_do_not_grow_with_the_upload() {
    let ds = dataset();
    let (small_csv, large_csv) = (upload(1_000), upload(20_000));
    let (small, small_pairs) = allocations(&ds, &small_csv);
    let (large, large_pairs) = allocations(&ds, &large_csv);
    assert!(
        small_pairs > 900 && large_pairs > small_pairs,
        "{small_pairs} {large_pairs}"
    );
    assert_eq!(
        small, large,
        "1 000 rows made {small} allocations, 20 000 rows {large}"
    );
    assert!(small <= 8, "{small} allocations for one upload");
}
