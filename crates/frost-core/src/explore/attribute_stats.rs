//! Attribute-level error statistics: nullRatio and equalRatio
//! (§4.5.2–4.5.3).
//!
//! Rather than profiling the *dataset* (Crescenzi et al.'s attribute
//! sparsity), these metrics profile the *result set*: which attributes'
//! missingness or equality co-occurs with misclassification.
//!
//! * `nullRatio(a) = falseNullCount(a) / nullCount(a)` over pairs where
//!   at least one record is null in `a` — high values flag attributes
//!   whose absence relates to many wrong labels.
//! * `equalRatio(a) = falseEqualCount(a) / equalCount(a)` over pairs
//!   whose records are equal in `a` — high values indicate the solution
//!   "did not weigh the matching sufficiency of `a` correctly".
//!
//! Mismatches between revealed and expected significance point to a
//! *semantic* mismatch (rule weights inconsistent with the domain) or a
//! *material* mismatch (weights inadequate for this dataset, e.g. after
//! transfer learning) — see [`MismatchKind`].

use super::JudgedPair;
use crate::dataset::{Column, Dataset};
use serde::{Deserialize, Serialize};

/// The per-attribute outcome of a nullRatio/equalRatio analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttributeRatio {
    /// Attribute name.
    pub attribute: String,
    /// Pairs satisfying the condition (null present / values equal).
    pub count: u64,
    /// Misclassified pairs among them.
    pub false_count: u64,
    /// `false_count / count`; `None` when `count` is 0 (the ratio is
    /// undefined, *not* zero — an attribute never null cannot be
    /// blamed).
    pub ratio: Option<f64>,
}

impl AttributeRatio {
    fn new(attribute: String, count: u64, false_count: u64) -> Self {
        Self {
            attribute,
            count,
            false_count,
            ratio: if count == 0 {
                None
            } else {
                Some(false_count as f64 / count as f64)
            },
        }
    }
}

/// Computes `nullRatio` for every attribute over the judged pairs:
/// the fraction of misclassified pairs among pairs where at least one
/// record misses the attribute (§4.5.2). Reads only the columns'
/// presence bits.
pub fn null_ratio(ds: &Dataset, judged: &[JudgedPair]) -> Vec<AttributeRatio> {
    attribute_ratios(ds, judged, |column, lo, hi| {
        !column.is_present(lo) || !column.is_present(hi)
    })
}

/// Computes `equalRatio` for every attribute over the judged pairs:
/// the fraction of misclassified pairs among pairs whose two records
/// hold *equal, present* values in the attribute (§4.5.3).
pub fn equal_ratio(ds: &Dataset, judged: &[JudgedPair]) -> Vec<AttributeRatio> {
    attribute_ratios(
        ds,
        judged,
        |column, lo, hi| matches!((column.get(lo), column.get(hi)), (Some(a), Some(b)) if a == b),
    )
}

/// Per attribute, one column at a time: the judged pairs whose two
/// records (by index) satisfy `counts`, and the misclassified ones
/// among them.
fn attribute_ratios(
    ds: &Dataset,
    judged: &[JudgedPair],
    counts: impl Fn(&Column, usize, usize) -> bool,
) -> Vec<AttributeRatio> {
    ds.columns()
        .iter()
        .enumerate()
        .map(|(col, column)| {
            let (mut count, mut false_count) = (0, 0);
            for p in judged {
                if counts(column, p.pair.lo().index(), p.pair.hi().index()) {
                    count += 1;
                    false_count += u64::from(!p.correct());
                }
            }
            AttributeRatio::new(ds.schema().name(col).to_string(), count, false_count)
        })
        .collect()
}

/// Kinds of mismatch between revealed attribute significance and
/// expectations (§4.5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MismatchKind {
    /// The solution weighs attributes that are semantically irrelevant
    /// for the matching decision.
    Semantic,
    /// The statistically assumed significance does not fit this dataset
    /// (e.g. heavily weighted attributes are mostly null here).
    Material,
}

/// Flags attributes whose revealed significance (high ratio) conflicts
/// with the caller's expectation. `expected_significant` lists the
/// attributes a domain expert considers decisive; an unexpected
/// high-ratio attribute is a [`MismatchKind::Semantic`] candidate, and an
/// expected-significant attribute that is mostly null in the data is a
/// [`MismatchKind::Material`] candidate.
pub fn detect_mismatches(
    ds: &Dataset,
    ratios: &[AttributeRatio],
    expected_significant: &[&str],
    ratio_threshold: f64,
    sparsity_threshold: f64,
) -> Vec<(String, MismatchKind)> {
    let sparsity = crate::profiling::attribute_sparsity(ds);
    let mut out = Vec::new();
    for (col, r) in ratios.iter().enumerate() {
        let expected = expected_significant.contains(&r.attribute.as_str());
        let significant = r.ratio.is_some_and(|x| x >= ratio_threshold);
        if significant && !expected {
            out.push((r.attribute.clone(), MismatchKind::Semantic));
        }
        if expected && sparsity[col] >= sparsity_threshold {
            out.push((r.attribute.clone(), MismatchKind::Material));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{RecordPair, Schema};

    fn jp(a: u32, b: u32, correct: bool) -> JudgedPair {
        JudgedPair {
            pair: RecordPair::from((a, b)),
            similarity: Some(0.5),
            predicted_match: true,
            actual_match: correct,
        }
    }

    fn dataset() -> Dataset {
        let mut ds = Dataset::new("d", Schema::new(["author", "year"]));
        ds.push_record_opt("r0", vec![Some("smith".into()), Some("1999".into())]);
        ds.push_record_opt("r1", vec![None, Some("1999".into())]);
        ds.push_record_opt("r2", vec![Some("jones".into()), None]);
        ds.push_record_opt("r3", vec![Some("smith".into()), Some("2001".into())]);
        ds
    }

    #[test]
    fn null_ratio_blames_missing_attributes() {
        let ds = dataset();
        // Pair (0,1): author null on one side, misclassified.
        // Pair (0,3): nothing null, correct.
        // Pair (2,3): year null on one side, correct.
        let judged = vec![jp(0, 1, false), jp(0, 3, true), jp(2, 3, true)];
        let ratios = null_ratio(&ds, &judged);
        let author = &ratios[0];
        assert_eq!(author.attribute, "author");
        assert_eq!(author.count, 1);
        assert_eq!(author.false_count, 1);
        assert_eq!(author.ratio, Some(1.0));
        let year = &ratios[1];
        assert_eq!(year.count, 1);
        assert_eq!(year.ratio, Some(0.0));
    }

    #[test]
    fn equal_ratio_counts_equal_values_only() {
        let ds = dataset();
        // (0,1): year equal ("1999"), misclassified.
        // (0,3): author equal ("smith"), correct.
        let judged = vec![jp(0, 1, false), jp(0, 3, true)];
        let ratios = equal_ratio(&ds, &judged);
        let author = &ratios[0];
        assert_eq!(author.count, 1);
        assert_eq!(author.ratio, Some(0.0));
        let year = &ratios[1];
        assert_eq!(year.count, 1);
        assert_eq!(year.ratio, Some(1.0));
    }

    #[test]
    fn zero_count_ratio_is_undefined() {
        let ds = dataset();
        let ratios = null_ratio(&ds, &[jp(0, 3, true)]);
        assert_eq!(ratios[0].ratio, None);
        assert_eq!(ratios[0].count, 0);
    }

    #[test]
    fn mismatch_detection() {
        let ds = dataset();
        let ratios = vec![
            AttributeRatio::new("author".into(), 10, 9), // high ratio
            AttributeRatio::new("year".into(), 10, 1),
        ];
        // Expectation says only "year" matters → author's high ratio is a
        // semantic mismatch. "year" is sparse enough (1/4) with threshold
        // 0.2 → material mismatch.
        let found = detect_mismatches(&ds, &ratios, &["year"], 0.5, 0.2);
        assert!(found.contains(&("author".to_string(), MismatchKind::Semantic)));
        assert!(found.contains(&("year".to_string(), MismatchKind::Material)));
        assert_eq!(found.len(), 2);
    }
}
