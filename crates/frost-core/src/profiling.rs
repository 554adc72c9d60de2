//! Dataset profiling and benchmark-dataset selection (§3.1.3, Appendix C).
//!
//! Practitioners must pick a *benchmark* dataset whose characteristics
//! resemble their (unlabeled) use-case dataset, so that quality measured
//! on the benchmark transfers. Frost profiles datasets with the features
//! of Primpeli/Bizer and Crescenzi et al. plus its own additions, and
//! offers a decision matrix ranking candidate benchmarks by weighted
//! feature distance.
//!
//! Profiled features (Appendix C.1):
//! * **Sparsity (SP)** — missing attribute values / all attribute values.
//! * **Textuality (TX)** — average number of words per present value.
//! * **Tuple count (TC)** — dataset size (affects the optimal threshold).
//! * **Positive ratio (PR)** — true duplicate pairs / all pairs.
//! * **Vocabulary similarity (VS)** — Jaccard overlap of token sets.

use crate::clustering::Clustering;
use crate::dataset::{Column, Dataset};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Fraction of missing attribute values over the whole dataset.
pub fn sparsity(ds: &Dataset) -> f64 {
    let cells = ds.len() * ds.schema().len();
    if cells == 0 {
        return 0.0;
    }
    let nulls: usize = ds.columns().iter().map(Column::null_count).sum();
    nulls as f64 / cells as f64
}

/// Fraction of missing values per attribute (Crescenzi et al.'s
/// *attribute sparsity*), in schema order.
pub fn attribute_sparsity(ds: &Dataset) -> Vec<f64> {
    let n = ds.len().max(1) as f64;
    ds.columns()
        .iter()
        .map(|c| c.null_count() as f64 / n)
        .collect()
}

/// Average number of whitespace-separated words per *present* attribute
/// value.
pub fn textuality(ds: &Dataset) -> f64 {
    let mut values = 0u64;
    let mut words = 0u64;
    for v in ds.columns().iter().flat_map(|c| c.values().flatten()) {
        values += 1;
        words += v.split_whitespace().count() as u64;
    }
    if values == 0 {
        0.0
    } else {
        words as f64 / values as f64
    }
}

/// Ratio of true duplicate pairs to all record pairs.
pub fn positive_ratio(ds: &Dataset, truth: &Clustering) -> f64 {
    let total = ds.pair_count();
    if total == 0 {
        0.0
    } else {
        truth.pair_count() as f64 / total as f64
    }
}

/// The whitespace-tokenized vocabulary of a dataset.
pub fn vocabulary(ds: &Dataset) -> HashSet<String> {
    let mut vocab = HashSet::new();
    for v in ds.columns().iter().flat_map(|c| c.values().flatten()) {
        for t in v.split_whitespace() {
            if !vocab.contains(t) {
                vocab.insert(t.to_string());
            }
        }
    }
    vocab
}

/// Vocabulary similarity `VS(D1, D2) = |v1 ∩ v2| / |v1 ∪ v2|` (Jaccard).
pub fn vocabulary_similarity(a: &Dataset, b: &Dataset) -> f64 {
    let va = vocabulary(a);
    let vb = vocabulary(b);
    if va.is_empty() && vb.is_empty() {
        return 1.0;
    }
    let inter = va.intersection(&vb).count() as f64;
    let union = (va.len() + vb.len()) as f64 - inter;
    inter / union
}

/// Summary statistics of a ground truth's duplicate-cluster structure
/// ("number and size of duplicate clusters", §3.1.3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterStats {
    /// Clusters with at least two members.
    pub duplicate_clusters: usize,
    /// Records that are part of some duplicate cluster.
    pub duplicated_records: usize,
    /// Mean size of duplicate clusters (0 when none exist).
    pub mean_duplicate_cluster_size: f64,
    /// Largest cluster size.
    pub max_cluster_size: usize,
}

impl ClusterStats {
    /// Computes the statistics from a clustering.
    pub fn from_clustering(c: &Clustering) -> Self {
        let dups: Vec<usize> = c.duplicate_clusters().map(<[_]>::len).collect();
        let duplicated_records: usize = dups.iter().sum();
        Self {
            duplicate_clusters: dups.len(),
            duplicated_records,
            mean_duplicate_cluster_size: if dups.is_empty() {
                0.0
            } else {
                duplicated_records as f64 / dups.len() as f64
            },
            max_cluster_size: c.clusters().map(<[_]>::len).max().unwrap_or(0),
        }
    }
}

/// The full profile of one dataset, optionally including ground-truth
/// dependent features.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetProfile {
    /// Dataset name.
    pub name: String,
    /// SP — sparsity.
    pub sparsity: f64,
    /// TX — textuality.
    pub textuality: f64,
    /// TC — tuple count.
    pub tuple_count: usize,
    /// Schema complexity: number of attributes.
    pub schema_complexity: usize,
    /// Per-attribute sparsity, schema order.
    pub attribute_sparsity: Vec<f64>,
    /// PR — positive ratio; `None` without a ground truth.
    pub positive_ratio: Option<f64>,
    /// Duplicate-cluster statistics; `None` without a ground truth.
    pub cluster_stats: Option<ClusterStats>,
}

impl DatasetProfile {
    /// Profiles a dataset without ground truth (the practitioner case).
    pub fn without_truth(ds: &Dataset) -> Self {
        Self {
            name: ds.name().to_string(),
            sparsity: sparsity(ds),
            textuality: textuality(ds),
            tuple_count: ds.len(),
            schema_complexity: ds.schema().len(),
            attribute_sparsity: attribute_sparsity(ds),
            positive_ratio: None,
            cluster_stats: None,
        }
    }

    /// Profiles a benchmark dataset together with its gold standard.
    pub fn with_truth(ds: &Dataset, truth: &Clustering) -> Self {
        let mut p = Self::without_truth(ds);
        p.positive_ratio = Some(positive_ratio(ds, truth));
        p.cluster_stats = Some(ClusterStats::from_clustering(truth));
        p
    }
}

/// Weights for the decision matrix; all default to 1. "It remains to the
/// experts to determine how important the individual features are for
/// their use case" (§3.1.3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeatureWeights {
    /// Weight of the sparsity difference.
    pub sparsity: f64,
    /// Weight of the textuality difference.
    pub textuality: f64,
    /// Weight of the (log-scaled) tuple-count difference.
    pub tuple_count: f64,
    /// Weight of the schema-complexity difference.
    pub schema_complexity: f64,
    /// Weight of the vocabulary-similarity term.
    pub vocabulary: f64,
}

impl Default for FeatureWeights {
    fn default() -> Self {
        Self {
            sparsity: 1.0,
            textuality: 1.0,
            tuple_count: 1.0,
            schema_complexity: 1.0,
            vocabulary: 1.0,
        }
    }
}

/// One row of the benchmark-selection decision matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionRow {
    /// Candidate benchmark dataset name.
    pub candidate: String,
    /// Per-feature dissimilarities in `[0, 1]` (smaller is better):
    /// `(feature name, dissimilarity)`.
    pub dissimilarities: Vec<(String, f64)>,
    /// Weighted aggregate dissimilarity (smaller is better).
    pub score: f64,
}

/// Builds the decision matrix comparing a use-case dataset against
/// candidate benchmark datasets, ranked by ascending weighted
/// dissimilarity.
///
/// Feature dissimilarities:
/// * sparsity: absolute difference (already in `[0,1]`),
/// * textuality: `|Δ| / max`, scale-free,
/// * tuple count: `|Δ log10| / 6` clamped (a 6-orders-of-magnitude gap
///   saturates),
/// * schema complexity: `|Δ| / max`,
/// * vocabulary: `1 − VS` computed on the actual datasets.
pub fn decision_matrix(
    use_case: &Dataset,
    candidates: &[(&Dataset, Option<&Clustering>)],
    weights: FeatureWeights,
) -> Vec<DecisionRow> {
    let base = DatasetProfile::without_truth(use_case);
    let mut rows: Vec<DecisionRow> = candidates
        .iter()
        .map(|(ds, truth)| {
            let p = match truth {
                Some(t) => DatasetProfile::with_truth(ds, t),
                None => DatasetProfile::without_truth(ds),
            };
            let d_sp = (base.sparsity - p.sparsity).abs();
            let tx_max = base.textuality.max(p.textuality);
            let d_tx = if tx_max == 0.0 {
                0.0
            } else {
                (base.textuality - p.textuality).abs() / tx_max
            };
            let d_tc = ((base.tuple_count.max(1) as f64).log10()
                - (p.tuple_count.max(1) as f64).log10())
            .abs()
            .min(6.0)
                / 6.0;
            let sc_max = base.schema_complexity.max(p.schema_complexity);
            let d_sc = if sc_max == 0 {
                0.0
            } else {
                (base.schema_complexity as f64 - p.schema_complexity as f64).abs() / sc_max as f64
            };
            let d_vs = 1.0 - vocabulary_similarity(use_case, ds);
            let dissimilarities = vec![
                ("sparsity".to_string(), d_sp),
                ("textuality".to_string(), d_tx),
                ("tuple_count".to_string(), d_tc),
                ("schema_complexity".to_string(), d_sc),
                ("vocabulary".to_string(), d_vs),
            ];
            let wsum = weights.sparsity
                + weights.textuality
                + weights.tuple_count
                + weights.schema_complexity
                + weights.vocabulary;
            let score = (weights.sparsity * d_sp
                + weights.textuality * d_tx
                + weights.tuple_count * d_tc
                + weights.schema_complexity * d_sc
                + weights.vocabulary * d_vs)
                / wsum.max(f64::EPSILON);
            DecisionRow {
                candidate: p.name,
                dissimilarities,
                score,
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        a.score
            .partial_cmp(&b.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

/// Similarity of two clusterings' *size distributions*, in `[0, 1]`:
/// one minus half the L1 distance between the normalized cluster-size
/// histograms. Part of the "matching solution" feature of §3.1.3 — the
/// solution's clusterings on use-case and benchmark data should look
/// alike for the benchmark to be representative.
pub fn cluster_size_distribution_similarity(a: &Clustering, b: &Clustering) -> f64 {
    let ha = a.size_histogram();
    let hb = b.size_histogram();
    let ta: f64 = ha.iter().sum::<usize>() as f64;
    let tb: f64 = hb.iter().sum::<usize>() as f64;
    if ta == 0.0 && tb == 0.0 {
        return 1.0;
    }
    if ta == 0.0 || tb == 0.0 {
        return 0.0;
    }
    let len = ha.len().max(hb.len());
    let mut l1 = 0.0;
    for s in 0..len {
        let pa = ha.get(s).copied().unwrap_or(0) as f64 / ta;
        let pb = hb.get(s).copied().unwrap_or(0) as f64 / tb;
        l1 += (pa - pb).abs();
    }
    1.0 - l1 / 2.0
}

/// Behavioral similarity of one matching solution across two datasets
/// (§3.1.3): how alike its outputs look on the use-case dataset vs the
/// candidate benchmark. Combines the cluster-size-distribution
/// similarity of the closed clusterings with the closeness of the
/// normalized closure inconsistency of the raw match sets.
pub fn matcher_behavior_similarity(
    use_case_n: usize,
    use_case_run: &crate::dataset::Experiment,
    benchmark_n: usize,
    benchmark_run: &crate::dataset::Experiment,
) -> f64 {
    let ca = Clustering::from_experiment(use_case_n, use_case_run);
    let cb = Clustering::from_experiment(benchmark_n, benchmark_run);
    let dist_sim = cluster_size_distribution_similarity(&ca, &cb);
    let ia = crate::quality::normalized_closure_inconsistency(&ca, use_case_run);
    let ib = crate::quality::normalized_closure_inconsistency(&cb, benchmark_run);
    let inconsistency_sim = 1.0 - (ia - ib).abs();
    (dist_sim + inconsistency_sim) / 2.0
}

/// The §7-outlook *suitability score* of a candidate benchmark for a
/// use case, in `[0, 1]` (higher = more suitable): the profile-based
/// similarity (`1 − decision-matrix score`), optionally averaged with a
/// [`matcher_behavior_similarity`] measurement.
pub fn suitability_score(row: &DecisionRow, behavior_similarity: Option<f64>) -> f64 {
    let profile = (1.0 - row.score).clamp(0.0, 1.0);
    match behavior_similarity {
        Some(b) => (profile + b.clamp(0.0, 1.0)) / 2.0,
        None => profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Schema;

    fn ds(name: &str, rows: &[[Option<&str>; 2]]) -> Dataset {
        let mut d = Dataset::new(name, Schema::new(["a", "b"]));
        for (i, row) in rows.iter().enumerate() {
            d.push_record_opt(
                format!("r{i}"),
                row.iter().map(|v| v.map(str::to_string)).collect(),
            );
        }
        d
    }

    #[test]
    fn sparsity_counts_nulls() {
        let d = ds(
            "d",
            &[[Some("x"), None], [None, None], [Some("y"), Some("z")]],
        );
        assert!((sparsity(&d) - 0.5).abs() < 1e-12);
        let per_attr = attribute_sparsity(&d);
        assert!((per_attr[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((per_attr[1] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn textuality_counts_words() {
        let d = ds(
            "d",
            &[[Some("one two three"), Some("one")], [None, Some("a b")]],
        );
        // values: 3 present, words 3+1+2 = 6 → 2.0
        assert!((textuality(&d) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset_profiles_cleanly() {
        let d = ds("e", &[]);
        assert_eq!(sparsity(&d), 0.0);
        assert_eq!(textuality(&d), 0.0);
        let p = DatasetProfile::without_truth(&d);
        assert_eq!(p.tuple_count, 0);
        assert!(p.positive_ratio.is_none());
    }

    #[test]
    fn positive_ratio_basic() {
        let d = ds(
            "d",
            &[
                [Some("x"), None],
                [Some("x"), None],
                [Some("y"), None],
                [Some("z"), None],
            ],
        );
        let truth = Clustering::from_assignment(&[0, 0, 1, 2]);
        // 1 duplicate pair out of C(4,2)=6.
        assert!((positive_ratio(&d, &truth) - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn vocabulary_similarity_jaccard() {
        let a = ds("a", &[[Some("red green"), Some("blue")]]);
        let b = ds("b", &[[Some("red"), Some("yellow")]]);
        // vocab a = {red, green, blue}, b = {red, yellow}; J = 1/4.
        assert!((vocabulary_similarity(&a, &b) - 0.25).abs() < 1e-12);
        assert!((vocabulary_similarity(&a, &a) - 1.0).abs() < 1e-12);
        let e1 = ds("e1", &[]);
        let e2 = ds("e2", &[]);
        assert_eq!(vocabulary_similarity(&e1, &e2), 1.0);
    }

    #[test]
    fn cluster_stats() {
        let truth = Clustering::from_assignment(&[0, 0, 0, 1, 2, 2]);
        let s = ClusterStats::from_clustering(&truth);
        assert_eq!(s.duplicate_clusters, 2);
        assert_eq!(s.duplicated_records, 5);
        assert!((s.mean_duplicate_cluster_size - 2.5).abs() < 1e-12);
        assert_eq!(s.max_cluster_size, 3);
    }

    #[test]
    fn profile_with_truth_fills_optionals() {
        let d = ds("d", &[[Some("x"), None], [Some("x"), None]]);
        let truth = Clustering::from_assignment(&[0, 0]);
        let p = DatasetProfile::with_truth(&d, &truth);
        assert_eq!(p.positive_ratio, Some(1.0));
        assert_eq!(p.cluster_stats.unwrap().duplicate_clusters, 1);
        assert_eq!(p.schema_complexity, 2);
    }

    #[test]
    fn decision_matrix_prefers_similar_dataset() {
        let use_case = ds(
            "uc",
            &[[Some("alpha beta"), Some("gamma")], [Some("alpha"), None]],
        );
        let similar = ds(
            "sim",
            &[[Some("alpha beta"), Some("delta")], [Some("beta"), None]],
        );
        let dissimilar = ds(
            "dis",
            &[
                [Some("zzz yyy xxx www vvv"), Some("uuu ttt sss")],
                [Some("rrr qqq ppp"), Some("ooo nnn")],
                [Some("mmm"), Some("lll")],
                [Some("kkk"), Some("jjj")],
            ],
        );
        let rows = decision_matrix(
            &use_case,
            &[(&similar, None), (&dissimilar, None)],
            FeatureWeights::default(),
        );
        assert_eq!(rows[0].candidate, "sim");
        assert!(rows[0].score < rows[1].score);
        assert_eq!(rows[0].dissimilarities.len(), 5);
        for (_, v) in &rows[0].dissimilarities {
            assert!((0.0..=1.0).contains(v));
        }
    }

    #[test]
    fn cluster_size_distribution_similarity_bounds() {
        let a = Clustering::from_assignment(&[0, 0, 1, 1, 2]);
        let same_shape = Clustering::from_assignment(&[5, 5, 7, 7, 9]);
        assert!((cluster_size_distribution_similarity(&a, &same_shape) - 1.0).abs() < 1e-12);
        let all_singletons = Clustering::singletons(5);
        let sim = cluster_size_distribution_similarity(&a, &all_singletons);
        assert!((0.0..1.0).contains(&sim));
        let e = Clustering::singletons(0);
        assert_eq!(cluster_size_distribution_similarity(&e, &e), 1.0);
        assert_eq!(cluster_size_distribution_similarity(&e, &a), 0.0);
    }

    #[test]
    fn behavior_similarity_and_suitability() {
        use crate::dataset::Experiment;
        // The same solution producing pairs-of-two on both datasets.
        let run_a = Experiment::from_pairs("a", [(0u32, 1u32), (2, 3)]);
        let run_b = Experiment::from_pairs("b", [(0u32, 1u32), (2, 3), (4, 5)]);
        let high = matcher_behavior_similarity(6, &run_a, 8, &run_b);
        // A chain-heavy, inconsistent output on the benchmark.
        let run_c = Experiment::from_pairs("c", [(0u32, 1u32), (1, 2), (2, 3), (3, 4)]);
        let low = matcher_behavior_similarity(6, &run_a, 8, &run_c);
        assert!(high > low, "{high} vs {low}");

        let row = DecisionRow {
            candidate: "x".into(),
            dissimilarities: vec![],
            score: 0.2,
        };
        assert!((suitability_score(&row, None) - 0.8).abs() < 1e-12);
        assert!((suitability_score(&row, Some(0.6)) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn decision_matrix_zero_weights_guarded() {
        let a = ds("a", &[[Some("x"), None]]);
        let b = ds("b", &[[Some("x"), None]]);
        let w = FeatureWeights {
            sparsity: 0.0,
            textuality: 0.0,
            tuple_count: 0.0,
            schema_complexity: 0.0,
            vocabulary: 0.0,
        };
        let rows = decision_matrix(&a, &[(&b, None)], w);
        assert!(rows[0].score.is_finite());
    }
}
