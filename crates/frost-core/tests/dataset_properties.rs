//! Property tests: the columnar [`Dataset`] agrees with a row-wise
//! reference — one `Vec<Option<String>>` per record, the layout the
//! columns replaced — on every accessor, for schemas of 0 to 12
//! attributes (so the snapshot's null mask crosses a byte), empty
//! values next to missing ones, multi-byte UTF-8, and repeated native
//! ids, which every push path must refuse without changing anything.

use frost_core::dataset::{Dataset, DatasetBuilder, RecordId, Schema};
use proptest::prelude::*;
use std::collections::HashMap;

const MAX_WIDTH: usize = 12;

/// One cell: kind 0 is missing, 1 is empty, anything else is the text.
type Cell = (u8, String);

fn cells() -> impl Strategy<Value = Vec<Cell>> {
    prop::collection::vec((0u8..4, "[a-cü東🦀 ]{0,4}"), MAX_WIDTH)
}

/// Records as a native-id number (drawn from a small range, so ids
/// repeat) and up to [`MAX_WIDTH`] cells, cut to the schema's width.
fn records() -> impl Strategy<Value = Vec<(u32, Vec<Cell>)>> {
    prop::collection::vec((0u32..40, cells()), 0..60)
}

fn value((kind, text): &Cell) -> Option<String> {
    match kind {
        0 => None,
        1 => Some(String::new()),
        _ => Some(text.clone()),
    }
}

/// The row-wise reference: records in push order, and the index of
/// each native id.
#[derive(Default)]
struct Rows {
    rows: Vec<(String, Vec<Option<String>>)>,
    index: HashMap<String, usize>,
}

impl Rows {
    fn try_push(&mut self, native: &str, values: Vec<Option<String>>) -> Option<RecordId> {
        if self.index.contains_key(native) {
            return None;
        }
        self.index.insert(native.to_owned(), self.rows.len());
        self.rows.push((native.to_owned(), values));
        Some(RecordId(self.rows.len() as u32 - 1))
    }
}

fn schema(width: usize) -> Schema {
    Schema::new((0..width).map(|i| format!("a{i}")))
}

/// Checks every accessor of `ds` against `rows`.
fn assert_agrees(ds: &Dataset, rows: &Rows, width: usize) {
    prop_assert_eq!(ds.len(), rows.rows.len());
    prop_assert_eq!(ds.columns().len(), width);
    for (i, (native, values)) in rows.rows.iter().enumerate() {
        let id = RecordId(i as u32);
        prop_assert_eq!(ds.native_id(id), native.as_str());
        prop_assert_eq!(ds.resolve_native(native), Some(id));
        let record = ds.record(id);
        prop_assert_eq!(record.width(), width);
        prop_assert_eq!(
            record.null_count(),
            values.iter().filter(|v| v.is_none()).count()
        );
        for col in 0..=width {
            let expected = values.get(col).and_then(Option::as_deref);
            prop_assert_eq!(record.value(col), expected);
        }
        prop_assert!(record.values().eq(values.iter().map(Option::as_deref)));
        prop_assert!(record
            .tokens()
            .eq(values.iter().flatten().flat_map(|v| v.split_whitespace())));
        for (col, name) in ds.schema().attributes().iter().enumerate() {
            prop_assert_eq!(ds.value(id, name), values[col].as_deref());
            prop_assert_eq!(ds.column(col).get(i), values[col].as_deref());
            prop_assert_eq!(ds.column(col).is_present(i), values[col].is_some());
        }
        prop_assert_eq!(ds.get(id), Some(record));
    }
    prop_assert!(ds.get(RecordId(rows.rows.len() as u32)).is_none());
    for col in 0..width {
        let nulls = rows.rows.iter().filter(|(_, v)| v[col].is_none()).count();
        prop_assert_eq!(ds.column(col).null_count(), nulls);
    }
    prop_assert!(ds.records().eq(ds.iter().map(|(_, r)| r)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Records pushed one by one, through both the owned and the
    /// borrowed push, read back as the reference holds them; a
    /// repeated native id is refused and leaves the dataset as it was.
    #[test]
    fn columns_agree_with_rows(width in 0usize..(MAX_WIDTH + 1), records in records()) {
        let mut ds = Dataset::new("d", schema(width));
        let mut rows = Rows::default();
        for (n, (native, cells)) in records.iter().enumerate() {
            let native = format!("r{native}");
            let values: Vec<Option<String>> = cells[..width].iter().map(value).collect();
            let before = ds.clone();
            let pushed = if n % 2 == 0 {
                ds.try_push_record_opt(&native, values.clone())
            } else {
                ds.try_push_fields(&native, values.iter().map(Option::as_deref))
            };
            let expected = rows.try_push(&native, values);
            prop_assert_eq!(pushed, expected);
            if pushed.is_none() {
                prop_assert_eq!(&ds, &before);
            }
        }
        assert_agrees(&ds, &rows, width);
    }

    /// The byte builder and a dataset sized far ahead build the same
    /// dataset as plain pushes: `==` compares values, not capacity.
    #[test]
    fn equality_ignores_capacity(width in 0usize..(MAX_WIDTH + 1), records in records()) {
        let mut pushed = Dataset::new("d", schema(width));
        let mut reserved = Dataset::with_capacity("d", schema(width), 500);
        reserved.reserve_bytes(1_000, &vec![100; width]);
        let mut builder = DatasetBuilder::new("d", schema(width), 3, 2, &vec![1; width]);
        for (native, cells) in &records {
            let native = format!("r{native}");
            let values: Vec<Option<String>> = cells[..width].iter().map(value).collect();
            let fields = values.iter().map(Option::as_deref);
            let first = pushed.try_push_fields(&native, fields.clone());
            prop_assert_eq!(reserved.try_push_fields(&native, fields.clone()), first);
            prop_assert_eq!(builder.try_push(&native, fields.map(|v| v.map(str::as_bytes))), first);
        }
        let built = builder.finish().unwrap();
        prop_assert_eq!(&reserved, &pushed);
        prop_assert_eq!(&built, &pushed);
        prop_assert_eq!(built.clone(), pushed);
    }
}

#[test]
fn a_changed_value_or_presence_breaks_equality() {
    let build = |third: Option<&str>| {
        let mut ds = Dataset::new("d", schema(2));
        ds.try_push_fields("a", [Some("x"), None]).unwrap();
        ds.try_push_fields("b", [Some(""), third]).unwrap();
        ds
    };
    assert_eq!(build(Some("")), build(Some("")));
    // Same arena bytes, different presence.
    assert_ne!(build(Some("")), build(None));
    assert_ne!(build(Some("y")), build(Some("z")));
}

#[test]
fn the_builder_names_the_first_column_that_is_not_utf8() {
    let mut builder = DatasetBuilder::new("d", schema(3), 2, 2, &[1, 1, 1]);
    builder
        .try_push(
            "a",
            [Some(&b"ok"[..]), Some(&[0xC3][..]), Some(&[0xFF][..])],
        )
        .unwrap();
    // A repeated id is refused before any value is taken.
    assert_eq!(builder.try_push("a", [None, None, None]), None);
    builder
        .try_push("b", [None, Some(&[0xBC][..]), None])
        .unwrap();
    // Column 1 holds `ü` split across two records; column 2 is not
    // UTF-8 at all.
    assert_eq!(builder.finish().unwrap_err(), 1);
}
