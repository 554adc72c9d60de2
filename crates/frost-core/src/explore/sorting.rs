//! Sorting strategies: interestingness of record pairs (§4.3).
//!
//! * [`sort_by_similarity`] — the matching solution's own view (§4.3.1).
//! * [`ColumnEntropy`] — a solution-independent score (§4.3.2): pairs with
//!   many rare tokens carry much information and are expected to be easy;
//!   sorting by entropy surfaces pairs where that expectation fails.

use super::JudgedPair;
use crate::dataset::{Dataset, RecordId, RecordPair};
use std::collections::HashMap;

/// Sorts judged pairs by similarity (descending by default); pairs
/// without a score go last. Stable with respect to pair order.
pub fn sort_by_similarity(judged: &mut [JudgedPair], descending: bool) {
    judged.sort_by(|a, b| {
        let sa = a.similarity.unwrap_or(f64::NEG_INFINITY);
        let sb = b.similarity.unwrap_or(f64::NEG_INFINITY);
        let ord = sb.partial_cmp(&sa).unwrap_or(std::cmp::Ordering::Equal);
        if descending {
            ord
        } else {
            // Unscored pairs stay last either way.
            match (a.similarity, b.similarity) {
                (Some(_), Some(_)) => ord.reverse(),
                (Some(_), None) => std::cmp::Ordering::Less,
                (None, Some(_)) => std::cmp::Ordering::Greater,
                (None, None) => std::cmp::Ordering::Equal,
            }
        }
    });
}

/// Precomputed per-column token statistics enabling O(cell) entropy
/// computation.
///
/// For a token `t` in a cell, `prob_t` is its occurrence probability
/// *within the cell* and `columnProb_t` its probability within the
/// column; the cell entropy is `Σ_t prob_t · −ln(columnProb_t)` —
/// Shannon's formula applied column-wise (§4.3.2).
#[derive(Debug, Clone)]
pub struct ColumnEntropy {
    /// Per column: token → occurrences in that column.
    column_counts: Vec<HashMap<String, u64>>,
    /// Per column: total token occurrences.
    column_totals: Vec<u64>,
}

impl ColumnEntropy {
    /// Scans a dataset once, building the per-column token distributions.
    pub fn from_dataset(ds: &Dataset) -> Self {
        let (column_counts, column_totals) = ds
            .columns()
            .iter()
            .map(|column| {
                let mut counts: HashMap<String, u64> = HashMap::new();
                let mut total = 0u64;
                for t in column.values().flatten().flat_map(str::split_whitespace) {
                    // A token's `String` is made once, when first seen.
                    match counts.get_mut(t) {
                        Some(n) => *n += 1,
                        None => {
                            counts.insert(t.to_string(), 1);
                        }
                    }
                    total += 1;
                }
                (counts, total)
            })
            .unzip();
        Self {
            column_counts,
            column_totals,
        }
    }

    /// Entropy of one cell; 0 for missing/empty values.
    pub fn cell_entropy(&self, ds: &Dataset, record: RecordId, col: usize) -> f64 {
        let Some(value) = ds.record(record).value(col) else {
            return 0.0;
        };
        let tokens: Vec<&str> = value.split_whitespace().collect();
        if tokens.is_empty() || self.column_totals[col] == 0 {
            return 0.0;
        }
        // Occurrence probability of each token within this cell.
        let mut in_cell: HashMap<&str, u64> = HashMap::new();
        for t in &tokens {
            *in_cell.entry(t).or_insert(0) += 1;
        }
        let cell_total = tokens.len() as f64;
        let column_total = self.column_totals[col] as f64;
        in_cell
            .into_iter()
            .map(|(t, cnt)| {
                let prob_t = cnt as f64 / cell_total;
                let column_prob =
                    self.column_counts[col].get(t).copied().unwrap_or(1) as f64 / column_total;
                prob_t * -column_prob.ln()
            })
            .sum()
    }

    /// Entropy of a record: the sum of its cell entropies.
    pub fn record_entropy(&self, ds: &Dataset, record: RecordId) -> f64 {
        (0..ds.schema().len())
            .map(|col| self.cell_entropy(ds, record, col))
            .sum()
    }

    /// Entropy of a pair: the sum of all cell entropies of both records
    /// (§4.3.2). High-entropy pairs contain many rare tokens.
    pub fn pair_entropy(&self, ds: &Dataset, pair: RecordPair) -> f64 {
        self.record_entropy(ds, pair.lo()) + self.record_entropy(ds, pair.hi())
    }

    /// Sorts judged pairs by entropy, descending.
    pub fn sort_by_entropy(&self, ds: &Dataset, judged: &mut [JudgedPair]) {
        // Cache record entropies: pairs share records.
        let mut cache: HashMap<RecordId, f64> = HashMap::new();
        let mut entropy_of =
            |r: RecordId| -> f64 { *cache.entry(r).or_insert_with(|| self.record_entropy(ds, r)) };
        let keyed: HashMap<RecordPair, f64> = judged
            .iter()
            .map(|p| {
                let e = entropy_of(p.pair.lo()) + entropy_of(p.pair.hi());
                (p.pair, e)
            })
            .collect();
        judged.sort_by(|a, b| {
            keyed[&b.pair]
                .partial_cmp(&keyed[&a.pair])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Schema;

    fn dataset() -> Dataset {
        let mut ds = Dataset::new("d", Schema::new(["title"]));
        ds.push_record("r0", ["the the the"]); // common tokens only
        ds.push_record("r1", ["zanzibar"]); // rare token
        ds.push_record("r2", ["the zanzibar"]);
        ds.push_record("r3", ["the"]);
        ds
    }

    #[test]
    fn rare_tokens_have_higher_entropy() {
        let ds = dataset();
        let ent = ColumnEntropy::from_dataset(&ds);
        let common = ent.record_entropy(&ds, RecordId(0));
        let rare = ent.record_entropy(&ds, RecordId(1));
        assert!(rare > common, "rare {rare} vs common {common}");
    }

    #[test]
    fn cell_entropy_formula() {
        let ds = dataset();
        let ent = ColumnEntropy::from_dataset(&ds);
        // Column tokens: the×5, zanzibar×2 → total 7.
        // Cell "the": prob=1, columnProb=5/7 → −ln(5/7).
        let e = ent.cell_entropy(&ds, RecordId(3), 0);
        assert!((e - -(5.0f64 / 7.0).ln()).abs() < 1e-12);
        // Cell "the zanzibar": 0.5·−ln(5/7) + 0.5·−ln(2/7).
        let e2 = ent.cell_entropy(&ds, RecordId(2), 0);
        let expected = 0.5 * -(5.0f64 / 7.0).ln() + 0.5 * -(2.0f64 / 7.0).ln();
        assert!((e2 - expected).abs() < 1e-12);
    }

    #[test]
    fn missing_cells_are_zero() {
        let mut ds = Dataset::new("d", Schema::new(["a"]));
        ds.push_record_opt("r0", vec![None]);
        ds.push_record("r1", ["x"]);
        let ent = ColumnEntropy::from_dataset(&ds);
        assert_eq!(ent.cell_entropy(&ds, RecordId(0), 0), 0.0);
    }

    fn jp(a: u32, b: u32, sim: Option<f64>) -> JudgedPair {
        JudgedPair {
            pair: RecordPair::from((a, b)),
            similarity: sim,
            predicted_match: true,
            actual_match: true,
        }
    }

    #[test]
    fn similarity_sort_directions() {
        let mut v = vec![jp(0, 1, Some(0.2)), jp(2, 3, Some(0.9)), jp(4, 5, None)];
        sort_by_similarity(&mut v, true);
        assert_eq!(v[0].similarity, Some(0.9));
        assert_eq!(v[2].similarity, None);
        sort_by_similarity(&mut v, false);
        assert_eq!(v[0].similarity, Some(0.2));
        assert_eq!(v[2].similarity, None, "unscored stays last ascending too");
    }

    #[test]
    fn entropy_sort_puts_rare_pairs_first() {
        let ds = dataset();
        let ent = ColumnEntropy::from_dataset(&ds);
        let mut judged = vec![jp(0, 3, Some(0.5)), jp(1, 2, Some(0.5))];
        ent.sort_by_entropy(&ds, &mut judged);
        // Pair (1,2) contains zanzibar twice → sorts first.
        assert_eq!(judged[0].pair, RecordPair::from((1u32, 2u32)));
    }
}
