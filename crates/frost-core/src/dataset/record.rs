//! Records and record identifiers.

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

/// A single record: one optional value per schema attribute. `None`
/// models a missing (null) value, which is central to the paper's
/// sparsity profiling (§3.1.3) and nullRatio analysis (§4.5.2). The
/// record's native id is kept by its [`Dataset`](super::Dataset)
/// ([`Dataset::native_id`](super::Dataset::native_id)).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Record {
    values: Vec<Option<String>>,
}

impl Record {
    /// Creates a record from its attribute values.
    pub fn new(values: Vec<Option<String>>) -> Self {
        Self { values }
    }

    /// Value of the `col`-th attribute, `None` when missing.
    pub fn value(&self, col: usize) -> Option<&str> {
        self.values.get(col).and_then(|v| v.as_deref())
    }

    /// All attribute values in schema order.
    pub fn values(&self) -> &[Option<String>] {
        &self.values
    }

    /// Number of attributes.
    pub fn width(&self) -> usize {
        self.values.len()
    }

    /// Number of missing (null) attribute values.
    pub fn null_count(&self) -> usize {
        self.values.iter().filter(|v| v.is_none()).count()
    }

    /// Whitespace-tokenizes every present value, yielding each token.
    pub fn tokens(&self) -> impl Iterator<Item = &str> {
        self.values
            .iter()
            .filter_map(|v| v.as_deref())
            .flat_map(|v| v.split_whitespace())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accessors() {
        let r = Record::new(vec![Some("a b".into()), None, Some("c".into())]);
        assert_eq!(r.width(), 3);
        assert_eq!(r.null_count(), 1);
        assert_eq!(r.value(0), Some("a b"));
        assert_eq!(r.value(1), None);
        assert_eq!(r.value(9), None);
        let toks: Vec<&str> = r.tokens().collect();
        assert_eq!(toks, vec!["a", "b", "c"]);
    }

    #[test]
    fn record_id_display_and_index() {
        let id = RecordId(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "#7");
        assert_eq!(RecordId::from(3u32), RecordId(3));
    }
}
