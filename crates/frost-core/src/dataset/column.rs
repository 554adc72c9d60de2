//! One attribute of a dataset, stored as a column.
//!
//! A [`Column`] keeps the values of one attribute for every record in
//! three flat buffers: the present values back to back in one UTF-8
//! arena, the `u32` end offset of each record's value in that arena,
//! and a presence bitmap with one bit per record. A missing value
//! takes no arena bytes, so its end repeats the previous end and its
//! bit is clear; an empty value (`Some("")`) takes no bytes either, but
//! its bit is set. This is the layout of Gupta et al.'s columnar
//! storage for graph databases (*Columnar Storage and List-based
//! Processing for GDBMSs*): a dataset of `n` records and `w` attributes
//! holds `w` arenas, `w·n` offsets and `w·n` bits, and no heap object
//! per value.

/// The values of one attribute, one per record, in record order.
///
/// Equality compares the values (and which are missing), not the
/// buffers' spare capacity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Column {
    arena: String,
    /// End of each record's value in `arena`.
    ends: Vec<u32>,
    /// Bit `i % 64` of word `i / 64` is set iff record `i` has a value.
    /// Bits past the last record are clear, so the words compare equal
    /// exactly when the presence of every record does.
    present: Vec<u64>,
}

impl Column {
    /// An empty column with room for `records` records and `bytes` bytes
    /// of values.
    pub(crate) fn with_capacity(records: usize, bytes: usize) -> Self {
        Self {
            arena: String::with_capacity(bytes),
            ends: Vec::with_capacity(records),
            present: Vec::with_capacity(records.div_ceil(64)),
        }
    }

    /// Makes room for `bytes` more bytes of values.
    pub(crate) fn reserve_bytes(&mut self, bytes: usize) {
        self.arena.reserve_exact(bytes);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the column holds no records.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The value of record `i`, `None` when it is missing.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&str> {
        let end = self.ends[i] as usize;
        if !self.is_present(i) {
            return None;
        }
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        Some(&self.arena[start..end])
    }

    /// Whether record `i` has a value (an empty one included).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn is_present(&self, i: usize) -> bool {
        assert!(
            i < self.len(),
            "record {i} out of range for {} records",
            self.len()
        );
        self.present[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of records without a value: the record count minus the
    /// presence bitmap's popcount.
    pub fn null_count(&self) -> usize {
        let present: u32 = self.present.iter().map(|w| w.count_ones()).sum();
        self.len() - present as usize
    }

    /// Every record's value in record order, `None` where missing.
    pub fn values(&self) -> impl ExactSizeIterator<Item = Option<&str>> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Appends a record's value.
    ///
    /// # Panics
    /// Panics if the column's text would outgrow its `u32` offsets.
    pub(crate) fn push(&mut self, value: Option<&str>) {
        if let Some(v) = value {
            self.arena.push_str(v);
        }
        self.push_end(self.arena.len(), value.is_some());
    }

    /// Records the end of the next record's value, already in the arena.
    fn push_end(&mut self, end: usize, present: bool) {
        let i = self.ends.len();
        self.ends
            .push(u32::try_from(end).expect("attribute values exceed 4 GiB"));
        if i.is_multiple_of(64) {
            self.present.push(0);
        }
        if present {
            self.present[i / 64] |= 1 << (i % 64);
        }
    }
}

/// A column whose values arrive as bytes and are checked for UTF-8
/// once, when the column is finished.
#[derive(Debug)]
pub(crate) struct RawColumn {
    bytes: Vec<u8>,
    column: Column,
}

impl RawColumn {
    /// An empty column with room for `records` records and `bytes` bytes
    /// of values.
    pub(crate) fn with_capacity(records: usize, bytes: usize) -> Self {
        Self {
            bytes: Vec::with_capacity(bytes),
            column: Column::with_capacity(records, 0),
        }
    }

    /// Appends a record's value, unchecked until [`finish`](Self::finish).
    ///
    /// # Panics
    /// Panics if the column's bytes would outgrow its `u32` offsets.
    pub(crate) fn push(&mut self, value: Option<&[u8]>) {
        if let Some(v) = value {
            self.bytes.extend_from_slice(v);
        }
        self.column.push_end(self.bytes.len(), value.is_some());
    }

    /// The column, or `None` unless the bytes are UTF-8 and every value
    /// starts and ends on a character boundary.
    pub(crate) fn finish(self) -> Option<Column> {
        let RawColumn { bytes, mut column } = self;
        column.arena = String::from_utf8(bytes).ok()?;
        let arena = &column.arena;
        column
            .ends
            .iter()
            .all(|&end| arena.is_char_boundary(end as usize))
            .then_some(column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_and_empty_values_differ() {
        let mut c = Column::default();
        for v in [Some("a b"), None, Some(""), Some("Müller"), None] {
            c.push(v);
        }
        assert_eq!(c.len(), 5);
        assert_eq!(c.null_count(), 2);
        let values: Vec<_> = c.values().collect();
        assert_eq!(values, [Some("a b"), None, Some(""), Some("Müller"), None]);
        assert_eq!(c.arena, "a bMüller");
    }

    #[test]
    fn presence_bits_cross_words() {
        let mut c = Column::default();
        for i in 0..200 {
            c.push((i % 3 != 0).then_some("x"));
        }
        assert_eq!(c.null_count(), (0..200).filter(|i| i % 3 == 0).count());
        assert!(!c.is_present(63) && c.is_present(64) && !c.is_present(66));
    }

    #[test]
    #[should_panic(expected = "record 3 out of range for 3 records")]
    fn presence_past_the_last_record_panics() {
        let mut c = Column::default();
        for _ in 0..3 {
            c.push(None);
        }
        c.is_present(3);
    }

    #[test]
    fn a_raw_column_checks_utf8_and_boundaries() {
        let mut raw = RawColumn::with_capacity(2, 4);
        raw.push(Some("ü".as_bytes()));
        raw.push(None);
        let mut same = Column::default();
        same.push(Some("ü"));
        same.push(None);
        assert_eq!(raw.finish(), Some(same));

        // Valid as a whole, but the first value ends inside `ü`.
        let bytes = "ü".as_bytes();
        let mut split = RawColumn::with_capacity(2, 2);
        split.push(Some(&bytes[..1]));
        split.push(Some(&bytes[1..]));
        assert_eq!(split.finish(), None);

        let mut bad = RawColumn::with_capacity(1, 1);
        bad.push(Some(&[0xFF]));
        assert_eq!(bad.finish(), None);
    }
}
