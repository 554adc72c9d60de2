//! Cluster-based quality metrics (§3.2.2).
//!
//! Cluster-based metrics compare the *clusterings* of experiment and
//! ground truth rather than their pair sets; they are immune to the
//! class-imbalance problem of pair-based metrics but require transitively
//! closed results. Frost ships "the closest-cluster-f1 score, the
//! Variation of information and the Generalized merge distance".
//!
//! Every metric reads one [`Contingency`] table, built once per
//! comparison with the experiment as side `a` (the rows) and the ground
//! truth as side `b` (the columns). The table is linear in the number of
//! records, and so is every metric.

use crate::clustering::Contingency;

/// `C(x, 2)`.
fn c2(x: u64) -> u64 {
    x * x.saturating_sub(1) / 2
}

/// `Σ C(s, 2)`: the intra-cluster pairs of one side's clusters.
fn pairs_within(sizes: &[u64]) -> u64 {
    sizes.iter().map(|&s| c2(s)).sum()
}

/// For each cluster of one side — `a`, the rows, or `b`, the columns,
/// read in place without a transposed copy — the largest
/// `score(overlap, own size, other size)` over its non-empty cells.
/// Clusters sharing no record score zero.
fn best_per_cluster<T: PartialOrd + Copy + Default>(
    t: &Contingency,
    of_b: bool,
    score: impl Fn(u64, u64, u64) -> T,
) -> Vec<T> {
    let (own, other) = if of_b {
        (t.b_sizes(), t.a_sizes())
    } else {
        (t.a_sizes(), t.b_sizes())
    };
    let mut best = vec![T::default(); own.len()];
    for &(i, j, overlap) in t.cells() {
        let (f, o) = if of_b { (j, i) } else { (i, j) };
        let v = score(overlap, own[f as usize], other[o as usize]);
        if v > best[f as usize] {
            best[f as usize] = v;
        }
    }
    best
}

/// Closest-cluster precision: the average, over experiment clusters, of
/// the best Jaccard overlap with any ground-truth cluster.
pub fn closest_cluster_precision(t: &Contingency) -> f64 {
    closest_cluster_directed(t, false)
}

/// Closest-cluster recall: the average, over ground-truth clusters, of
/// the best Jaccard overlap with any experiment cluster.
pub fn closest_cluster_recall(t: &Contingency) -> f64 {
    closest_cluster_directed(t, true)
}

/// Harmonic mean of closest-cluster precision and recall (the
/// "closest-cluster-f1 score" after Benjelloun et al.).
pub fn closest_cluster_f1(t: &Contingency) -> f64 {
    let p = closest_cluster_precision(t);
    let r = closest_cluster_recall(t);
    if p + r == 0.0 {
        0.0
    } else {
        2.0 * p * r / (p + r)
    }
}

fn closest_cluster_directed(t: &Contingency, of_b: bool) -> f64 {
    let best = best_per_cluster(t, of_b, |n, own, other| n as f64 / (own + other - n) as f64);
    if best.is_empty() {
        return 0.0;
    }
    best.iter().sum::<f64>() / best.len() as f64
}

/// Variation of information (Meilă 2003): `H(A|B) + H(B|A)`, in nats.
/// Zero iff the clusterings are identical; a true metric on clusterings.
pub fn variation_of_information(t: &Contingency) -> f64 {
    let n = t.num_records() as f64;
    if n == 0.0 {
        return 0.0;
    }
    let mut vi = 0.0;
    for &(i, j, nij) in t.cells() {
        let pij = nij as f64 / n;
        let pi = t.a_sizes()[i as usize] as f64 / n;
        let pj = t.b_sizes()[j as usize] as f64 / n;
        // −p_ij · (ln(p_ij/p_i) + ln(p_ij/p_j))
        vi -= pij * ((pij / pi).ln() + (pij / pj).ln());
    }
    vi.max(0.0) // guard tiny negative rounding
}

/// Generalized merge distance (Menestrina et al. 2010): the cheapest cost
/// of transforming clustering `a` into clustering `b` using cluster
/// splits and merges, with user-supplied cost functions
/// `split_cost(x, y)` / `merge_cost(x, y)` on part sizes. Computed with
/// the linear-time "slice" algorithm: each row of the table is one
/// cluster of `a` split into its parts, in ascending `j`.
pub fn generalized_merge_distance(
    t: &Contingency,
    split_cost: impl Fn(u64, u64) -> f64,
    merge_cost: impl Fn(u64, u64) -> f64,
) -> f64 {
    let mut cost = 0.0;
    // Accumulated sizes per target cluster across already-processed
    // parts; 0 means no part has reached the cluster yet.
    let mut acc = vec![0u64; t.b_sizes().len()];
    for (i, &size) in t.a_sizes().iter().enumerate() {
        let parts = t.row(i);
        // Cost of splitting the cluster into its parts, peeling one part
        // off the remainder at a time.
        let mut remaining = size;
        for &(_, _, cnt) in parts {
            if remaining > cnt {
                cost += split_cost(cnt, remaining - cnt);
            }
            remaining -= cnt;
        }
        // Cost of merging each part into its target cluster.
        for &(_, j, cnt) in parts {
            let existing = &mut acc[j as usize];
            if *existing > 0 {
                cost += merge_cost(cnt, *existing);
            }
            *existing += cnt;
        }
    }
    cost
}

/// Basic merge distance: GMD with unit costs — the number of split and
/// merge operations needed.
pub fn basic_merge_distance(t: &Contingency) -> f64 {
    generalized_merge_distance(t, |_, _| 1.0, |_, _| 1.0)
}

/// Pairwise precision derived from the GMD (Menestrina et al.):
/// splits with cost `x·y` measure wrongly-merged pairs.
pub fn gmd_pairwise_precision(t: &Contingency) -> f64 {
    let wrong = generalized_merge_distance(t, |x, y| (x * y) as f64, |_, _| 0.0);
    let total = pairs_within(t.a_sizes()) as f64;
    if total == 0.0 {
        0.0
    } else {
        (total - wrong) / total
    }
}

/// Pairwise recall derived from the GMD: merges with cost `x·y` measure
/// missed pairs.
pub fn gmd_pairwise_recall(t: &Contingency) -> f64 {
    let missed = generalized_merge_distance(t, |_, _| 0.0, |x, y| (x * y) as f64);
    let total = pairs_within(t.b_sizes()) as f64;
    if total == 0.0 {
        0.0
    } else {
        (total - missed) / total
    }
}

/// Purity: every experiment cluster votes for its dominant ground-truth
/// cluster; purity is the fraction of records covered by those votes.
/// `1.0` iff every experiment cluster is a subset of a truth cluster
/// (over-splitting is *not* penalized — pair with
/// [`inverse_purity`]).
pub fn purity(t: &Contingency) -> f64 {
    directed_purity(t, false)
}

/// Inverse purity: [`purity`] with the roles swapped — penalizes
/// over-splitting instead of over-merging.
pub fn inverse_purity(t: &Contingency) -> f64 {
    directed_purity(t, true)
}

/// Harmonic mean of purity and inverse purity.
pub fn purity_f1(t: &Contingency) -> f64 {
    let p = purity(t);
    let i = inverse_purity(t);
    if p + i == 0.0 {
        0.0
    } else {
        2.0 * p * i / (p + i)
    }
}

fn directed_purity(t: &Contingency, of_b: bool) -> f64 {
    let n = t.num_records();
    if n == 0 {
        return 1.0;
    }
    let best = best_per_cluster(t, of_b, |overlap, _, _| overlap);
    best.iter().sum::<u64>() as f64 / n as f64
}

/// Talburt–Wang index: `√(|A|·|B|) / |Φ|` where `Φ` is the set of
/// non-empty cluster overlaps. `1.0` iff the clusterings are identical;
/// decreases as they fragment against each other.
pub fn talburt_wang_index(t: &Contingency) -> f64 {
    let overlaps = t.cells().len();
    if overlaps == 0 {
        return 1.0; // both empty
    }
    ((t.a_sizes().len() as f64) * (t.b_sizes().len() as f64)).sqrt() / overlaps as f64
}

/// Adjusted Rand index: chance-corrected pair agreement, `1.0` for
/// identical clusterings, `≈0` for independent ones.
pub fn adjusted_rand_index(t: &Contingency) -> f64 {
    let n = t.num_records();
    if n < 2 {
        return 1.0;
    }
    let sum_ij = t.pair_count() as f64;
    let sum_a = pairs_within(t.a_sizes()) as f64;
    let sum_b = pairs_within(t.b_sizes()) as f64;
    let expected = sum_a * sum_b / c2(n) as f64;
    let max = (sum_a + sum_b) / 2.0;
    if (max - expected).abs() < f64::EPSILON {
        1.0
    } else {
        (sum_ij - expected) / (max - expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::clustering::Clustering;

    fn c(labels: &[u32]) -> Clustering {
        Clustering::from_assignment(labels)
    }

    /// The table of `a` (rows) against `b` (columns).
    fn t(a: &Clustering, b: &Clustering) -> Contingency {
        Contingency::new(a, b)
    }

    #[test]
    fn identical_clusterings_are_perfect() {
        let a = c(&[0, 0, 1, 1, 2]);
        assert!((closest_cluster_f1(&t(&a, &a)) - 1.0).abs() < 1e-12);
        assert!(variation_of_information(&t(&a, &a)).abs() < 1e-12);
        assert_eq!(basic_merge_distance(&t(&a, &a)), 0.0);
        assert!((adjusted_rand_index(&t(&a, &a)) - 1.0).abs() < 1e-12);
        assert!((gmd_pairwise_precision(&t(&a, &a)) - 1.0).abs() < 1e-12);
        assert!((gmd_pairwise_recall(&t(&a, &a)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bmd_counts_operations() {
        // {0,1,2} vs {0,1},{2}: one split.
        assert_eq!(
            basic_merge_distance(&t(&c(&[0, 0, 0]), &c(&[0, 0, 1]))),
            1.0
        );
        // {0,1},{2} vs {0,1,2}: one merge.
        assert_eq!(
            basic_merge_distance(&t(&c(&[0, 0, 1]), &c(&[0, 0, 0]))),
            1.0
        );
        // {0,1},{2,3} vs {0,2},{1,3}: two splits + two merges.
        assert_eq!(
            basic_merge_distance(&t(&c(&[0, 0, 1, 1]), &c(&[0, 1, 0, 1]))),
            4.0
        );
    }

    #[test]
    fn gmd_pairwise_matches_confusion_based() {
        use crate::metrics::confusion::ConfusionMatrix;
        use crate::metrics::pair;
        let exp = c(&[0, 0, 0, 1, 2, 2]);
        let truth = c(&[0, 0, 1, 1, 2, 3]);
        let m = ConfusionMatrix::from_clusterings(&exp, &truth);
        assert!((gmd_pairwise_precision(&t(&exp, &truth)) - pair::precision(&m)).abs() < 1e-12);
        assert!((gmd_pairwise_recall(&t(&exp, &truth)) - pair::recall(&m)).abs() < 1e-12);
    }

    #[test]
    fn vi_known_value() {
        // Two records split apart vs together: VI = H(A|B)+H(B|A).
        let together = c(&[0, 0]);
        let apart = c(&[0, 1]);
        // H(apart) = ln 2, H(together) = 0, I = 0 → VI = ln 2.
        let vi = variation_of_information(&t(&together, &apart));
        assert!((vi - std::f64::consts::LN_2).abs() < 1e-12);
        // Symmetry.
        assert!((vi - variation_of_information(&t(&apart, &together))).abs() < 1e-12);
    }

    #[test]
    fn vi_triangle_inequality_spot_check() {
        let a = c(&[0, 0, 1, 1, 2, 2]);
        let b = c(&[0, 0, 0, 1, 1, 1]);
        let d = c(&[0, 1, 2, 3, 4, 5]);
        let ab = variation_of_information(&t(&a, &b));
        let bd = variation_of_information(&t(&b, &d));
        let ad = variation_of_information(&t(&a, &d));
        assert!(ad <= ab + bd + 1e-12);
    }

    #[test]
    fn closest_cluster_partial_overlap() {
        let exp = c(&[0, 0, 0, 1]); // {0,1,2},{3}
        let truth = c(&[0, 0, 1, 1]); // {0,1},{2,3}
        let p = closest_cluster_precision(&t(&exp, &truth));
        // Cluster {0,1,2}: best J = 2/3 vs {0,1}; cluster {3}: J = 1/2 vs {2,3}.
        assert!((p - (2.0 / 3.0 + 0.5) / 2.0).abs() < 1e-12);
        let f = closest_cluster_f1(&t(&exp, &truth));
        assert!(f > 0.0 && f < 1.0);
    }

    #[test]
    fn ari_independent_is_near_zero() {
        // A perfectly "crossed" pair of clusterings.
        let a = c(&[0, 0, 1, 1]);
        let b = c(&[0, 1, 0, 1]);
        let ari = adjusted_rand_index(&t(&a, &b));
        assert!(ari.abs() < 0.5, "ARI {ari} not near 0");
        assert!(ari < 1.0);
    }

    #[test]
    fn singleton_vs_everything() {
        let singles = Clustering::singletons(4);
        let one = c(&[0, 0, 0, 0]);
        // Merging 4 singletons into one cluster: 3 merges.
        assert_eq!(basic_merge_distance(&t(&singles, &one)), 3.0);
        assert_eq!(basic_merge_distance(&t(&one, &singles)), 3.0);
        assert_eq!(gmd_pairwise_precision(&t(&singles, &one)), 0.0); // no pairs proposed
        assert!((gmd_pairwise_recall(&t(&one, &singles)) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn empty_clusterings() {
        let e = Clustering::singletons(0);
        assert_eq!(variation_of_information(&t(&e, &e)), 0.0);
        assert_eq!(adjusted_rand_index(&t(&e, &e)), 1.0);
        assert_eq!(talburt_wang_index(&t(&e, &e)), 1.0);
        assert_eq!(purity(&t(&e, &e)), 1.0);
    }

    #[test]
    fn purity_asymmetry() {
        let truth = c(&[0, 0, 1, 1]);
        // Over-split experiment: all singletons — perfectly pure, but
        // inverse purity suffers.
        let split = Clustering::singletons(4);
        assert_eq!(purity(&t(&split, &truth)), 1.0);
        assert_eq!(inverse_purity(&t(&split, &truth)), 0.5);
        // Over-merged experiment: one big cluster — inverse purity 1,
        // purity suffers.
        let merged = c(&[0, 0, 0, 0]);
        assert_eq!(purity(&t(&merged, &truth)), 0.5);
        assert_eq!(inverse_purity(&t(&merged, &truth)), 1.0);
        // Purity-F balances both failure modes equally here.
        assert!((purity_f1(&t(&split, &truth)) - purity_f1(&t(&merged, &truth))).abs() < 1e-12);
        assert!((purity_f1(&t(&truth, &truth)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn talburt_wang_values() {
        let truth = c(&[0, 0, 1, 1]);
        assert!((talburt_wang_index(&t(&truth, &truth)) - 1.0).abs() < 1e-12);
        // Crossed clusterings: |A|=2, |B|=2, overlaps=4 → √4/4 = 0.5.
        let crossed = c(&[0, 1, 0, 1]);
        assert!((talburt_wang_index(&t(&truth, &crossed)) - 0.5).abs() < 1e-12);
        // Symmetric.
        assert_eq!(
            talburt_wang_index(&t(&truth, &crossed)),
            talburt_wang_index(&t(&crossed, &truth))
        );
    }
}
