//! Records and record identifiers.

use super::Column;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense numeric identifier of a record within a [`Dataset`](super::Dataset).
///
/// Assigned sequentially at import time; mirrors Snowman's import-time
/// "unique numerical ID" optimization (§5.3 of the paper). A `u32` keeps
/// pair types small (see the type-size guidance in the Rust perf book);
/// datasets up to 4.29 billion records are supported, far beyond the
/// paper's largest evaluation dataset (1 M records).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RecordId(pub u32);

impl RecordId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<u32> for RecordId {
    fn from(v: u32) -> Self {
        RecordId(v)
    }
}

/// A borrowed view of one record: one optional value per schema
/// attribute, read from the dataset's [`Column`]s. `None` models a
/// missing (null) value, which is central to the paper's sparsity
/// profiling (§3.1.3) and nullRatio analysis (§4.5.2). The record's
/// native id is kept by its [`Dataset`](super::Dataset)
/// ([`Dataset::native_id`](super::Dataset::native_id)).
///
/// A view is two words and `Copy`; the values it returns borrow from
/// the dataset, not from the view.
#[derive(Clone, Copy)]
pub struct Record<'a> {
    columns: &'a [Column],
    index: usize,
}

impl<'a> Record<'a> {
    /// The view of record `index` over `columns`.
    pub(crate) fn new(columns: &'a [Column], index: usize) -> Self {
        Self { columns, index }
    }

    /// Value of the `col`-th attribute, `None` when missing or when the
    /// record has no such attribute.
    #[inline]
    pub fn value(self, col: usize) -> Option<&'a str> {
        self.columns.get(col)?.get(self.index)
    }

    /// All attribute values in schema order.
    pub fn values(self) -> impl ExactSizeIterator<Item = Option<&'a str>> {
        self.columns.iter().map(move |c| c.get(self.index))
    }

    /// Number of attributes.
    pub fn width(self) -> usize {
        self.columns.len()
    }

    /// Number of missing (null) attribute values.
    pub fn null_count(self) -> usize {
        self.columns
            .iter()
            .filter(|c| !c.is_present(self.index))
            .count()
    }

    /// Whitespace-tokenizes every present value, yielding each token.
    pub fn tokens(self) -> impl Iterator<Item = &'a str> {
        self.values().flatten().flat_map(str::split_whitespace)
    }
}

/// Equal when the values (and which are missing) are equal.
impl PartialEq for Record<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.values().eq(other.values())
    }
}

impl Eq for Record<'_> {}

impl fmt::Debug for Record<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.values()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accessors() {
        let columns: Vec<Column> = [Some("a b"), None, Some("c")]
            .into_iter()
            .map(|v| {
                let mut c = Column::default();
                c.push(v);
                c
            })
            .collect();
        let r = Record::new(&columns, 0);
        assert_eq!(r.width(), 3);
        assert_eq!(r.null_count(), 1);
        assert_eq!(r.value(0), Some("a b"));
        assert_eq!(r.value(1), None);
        assert_eq!(r.value(9), None);
        let toks: Vec<&str> = r.tokens().collect();
        assert_eq!(toks, vec!["a", "b", "c"]);
        assert_eq!(format!("{r:?}"), r#"[Some("a b"), None, Some("c")]"#);
    }

    #[test]
    fn record_id_display_and_index() {
        let id = RecordId(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "#7");
        assert_eq!(RecordId::from(3u32), RecordId(3));
    }
}
