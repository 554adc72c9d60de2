//! Dataset schemas.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// An ordered list of attribute names.
///
/// The paper's profiling features (schema complexity, §3.1.3) and the
/// attribute-level error analyses (nullRatio / equalRatio, §4.5.2–4.5.3)
/// operate per attribute, so attribute lookup by name must be cheap.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Schema {
    attributes: Vec<String>,
    #[serde(skip)]
    index: HashMap<String, usize>,
}

impl Schema {
    /// Builds a schema from attribute names.
    ///
    /// # Panics
    /// Panics on duplicate attribute names; names read from untrusted
    /// input go through [`try_new`](Self::try_new).
    pub fn new<I, S>(attributes: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self::try_new(attributes).unwrap_or_else(|a| panic!("duplicate attribute name {a:?}"))
    }

    /// Builds a schema from attribute names, or returns the first name
    /// that repeats an earlier one.
    pub fn try_new<I, S>(attributes: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let attributes: Vec<String> = attributes.into_iter().map(Into::into).collect();
        let mut index = HashMap::with_capacity(attributes.len());
        for (i, a) in attributes.iter().enumerate() {
            if index.insert(a.clone(), i).is_some() {
                return Err(a.clone());
            }
        }
        Ok(Self { attributes, index })
    }

    /// Number of attributes ("schema complexity" in the paper's profiling).
    pub fn len(&self) -> usize {
        self.attributes.len()
    }

    /// Whether the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }

    /// Attribute names in order.
    pub fn attributes(&self) -> &[String] {
        &self.attributes
    }

    /// Name of the `i`-th attribute.
    pub fn name(&self, i: usize) -> &str {
        &self.attributes[i]
    }

    /// Column index of the attribute with the given name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }
}

impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        self.attributes == other.attributes
    }
}
impl Eq for Schema {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup() {
        let s = Schema::new(["a", "b", "c"]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.index_of("z"), None);
        assert_eq!(s.name(2), "c");
        assert_eq!(s.attributes(), &["a", "b", "c"]);
    }

    #[test]
    fn equality_ignores_index_cache() {
        assert_eq!(Schema::new(["a", "b"]), Schema::new(["a", "b"]));
        assert_ne!(Schema::new(["a"]), Schema::new(["b"]));
    }

    #[test]
    #[should_panic(expected = "duplicate attribute")]
    fn duplicates_panic() {
        Schema::new(["a", "a"]);
    }

    #[test]
    fn try_new_names_the_first_repeat() {
        assert_eq!(Schema::try_new(["a", "b", "b", "a"]), Err("b".to_string()));
        assert_eq!(Schema::try_new(["a", "b"]), Ok(Schema::new(["a", "b"])));
    }
}
