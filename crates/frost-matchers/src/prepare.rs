//! Data preparation (pipeline step 1, §1.2): segment, standardize,
//! clean, and enrich the original dataset.

use frost_core::dataset::Dataset;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configurable normalization applied to every attribute value.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Preparer {
    /// Lowercase all values.
    pub lowercase: bool,
    /// Strip punctuation (non-alphanumeric, non-whitespace characters).
    pub strip_punctuation: bool,
    /// Collapse runs of whitespace to single spaces and trim ends.
    pub collapse_whitespace: bool,
    /// Token-level replacements (e.g. abbreviation expansion:
    /// `"st" → "street"`), applied after the above.
    pub replacements: HashMap<String, String>,
    /// Treat the resulting empty string as a missing value.
    pub empty_is_null: bool,
}

impl Preparer {
    /// A sensible default: lowercase, strip punctuation, collapse
    /// whitespace, empty → null.
    pub fn standard() -> Self {
        Self {
            lowercase: true,
            strip_punctuation: true,
            collapse_whitespace: true,
            replacements: HashMap::new(),
            empty_is_null: true,
        }
    }

    /// Adds a token replacement (builder style).
    pub fn with_replacement(mut self, from: impl Into<String>, to: impl Into<String>) -> Self {
        self.replacements.insert(from.into(), to.into());
        self
    }

    /// Normalizes one value.
    pub fn normalize(&self, value: &str) -> Option<String> {
        let mut v = value.to_string();
        if self.lowercase {
            v = v.to_lowercase();
        }
        if self.strip_punctuation {
            v = v
                .chars()
                .map(|c| {
                    if c.is_alphanumeric() || c.is_whitespace() {
                        c
                    } else {
                        ' '
                    }
                })
                .collect();
        }
        if !self.replacements.is_empty() {
            v = v
                .split_whitespace()
                .map(|t| self.replacements.get(t).map(String::as_str).unwrap_or(t))
                .collect::<Vec<&str>>()
                .join(" ");
        }
        if self.collapse_whitespace {
            v = v.split_whitespace().collect::<Vec<&str>>().join(" ");
        }
        if self.empty_is_null && v.trim().is_empty() {
            None
        } else {
            Some(v)
        }
    }

    /// Produces a normalized copy of a dataset (same schema, same native
    /// ids, same record order — so [`RecordId`]s remain valid across the
    /// preparation step).
    ///
    /// [`RecordId`]: frost_core::dataset::RecordId
    pub fn prepare(&self, ds: &Dataset) -> Dataset {
        let mut out = Dataset::with_capacity(
            format!("{}-prepared", ds.name()),
            ds.schema().clone(),
            ds.len(),
        );
        for (id, r) in ds.iter() {
            let values: Vec<Option<String>> = r
                .values()
                .map(|v| v.and_then(|s| self.normalize(s)))
                .collect();
            out.push_record_opt(ds.native_id(id), values);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frost_core::dataset::Schema;

    #[test]
    fn normalize_pipeline() {
        let p = Preparer::standard().with_replacement("st", "street");
        assert_eq!(
            p.normalize("  123 Main St.  ").as_deref(),
            Some("123 main street")
        );
        assert_eq!(p.normalize("..!!..").as_deref(), None);
        assert_eq!(p.normalize("A  B").as_deref(), Some("a b"));
    }

    #[test]
    fn disabled_steps_pass_through() {
        let p = Preparer::default();
        assert_eq!(p.normalize("  A B. ").as_deref(), Some("  A B. "));
    }

    #[test]
    fn prepare_preserves_ids_and_schema() {
        let mut ds = Dataset::new("d", Schema::new(["name", "city"]));
        ds.push_record("a", ["ANN!", "Berlin"]);
        ds.push_record_opt("b", vec![None, Some("  ".into())]);
        let prepared = Preparer::standard().prepare(&ds);
        assert_eq!(prepared.len(), 2);
        assert_eq!(prepared.schema(), ds.schema());
        let a = prepared.resolve_native("a").unwrap();
        assert_eq!(prepared.value(a, "name"), Some("ann"));
        let b = prepared.resolve_native("b").unwrap();
        // Whitespace-only collapses to null.
        assert_eq!(prepared.value(b, "city"), None);
        assert_eq!(prepared.value(b, "name"), None);
    }
}
