//! Synthetic matcher output: scored match sets of controlled size and
//! quality.
//!
//! The runtime evaluation of the paper (Table 1) depends only on the
//! dataset size, the number of matches, and how well the match set
//! aligns with the ground-truth clustering — not on any particular
//! matching solution. These helpers fabricate experiments with exactly
//! those knobs, plus labelled candidate-pair lists with a target
//! positive ratio (the PR feature of Table 2, which the SIGMOD contest
//! datasets define over labelled pairs).

use frost_core::clustering::Clustering;
use frost_core::dataset::{Experiment, RecordId, RecordPair, ScoredPair};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Samples a random intra-cluster (true duplicate) pair, weighted by the
/// number of pairs each cluster contributes. Returns `None` when the
/// clustering has no duplicate pairs.
fn sample_true_pair(truth: &Clustering, rng: &mut impl Rng) -> Option<RecordPair> {
    // Weighted cluster choice via cumulative pair counts.
    let dups: Vec<&[RecordId]> = truth.duplicate_clusters().collect();
    if dups.is_empty() {
        return None;
    }
    let weights: Vec<u64> = dups
        .iter()
        .map(|c| {
            let s = c.len() as u64;
            s * (s - 1) / 2
        })
        .collect();
    let total: u64 = weights.iter().sum();
    let mut pick = rng.gen_range(0..total);
    let mut idx = 0usize;
    for (i, &w) in weights.iter().enumerate() {
        if pick < w {
            idx = i;
            break;
        }
        pick -= w;
    }
    let cluster = dups[idx];
    let i = rng.gen_range(0..cluster.len());
    let mut j = rng.gen_range(0..cluster.len() - 1);
    if j >= i {
        j += 1;
    }
    Some(RecordPair::new(cluster[i], cluster[j]))
}

/// Samples a random non-duplicate pair.
fn sample_false_pair(truth: &Clustering, rng: &mut impl Rng) -> RecordPair {
    let n = truth.num_records() as u32;
    loop {
        let a = RecordId(rng.gen_range(0..n));
        let b = RecordId(rng.gen_range(0..n));
        if a != b && !truth.same_cluster(a, b) {
            return RecordPair::new(a, b);
        }
    }
}

/// Fabricates a scored experiment over a ground truth: `num_matches`
/// distinct pairs, of which a `true_fraction` are genuine duplicates.
/// True pairs score in `[0.55, 1.0)`, false pairs in `[0.2, 0.85)` —
/// overlapping ranges, so threshold sweeps produce realistic
/// precision/recall trade-offs.
pub fn synthetic_experiment(
    name: impl Into<String>,
    truth: &Clustering,
    num_matches: usize,
    true_fraction: f64,
    seed: u64,
) -> Experiment {
    assert!(
        (0.0..=1.0).contains(&true_fraction),
        "true_fraction must be in [0,1]"
    );
    assert!(truth.num_records() >= 2, "need at least two records");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::with_capacity(num_matches);
    let mut pairs = Vec::with_capacity(num_matches);
    let max_true = truth.pair_count() as usize;
    let mut trues = 0usize;
    let mut attempts = 0usize;
    let attempt_cap = num_matches.saturating_mul(20).max(1024);
    while pairs.len() < num_matches && attempts < attempt_cap {
        attempts += 1;
        let want_true = rng.gen::<f64>() < true_fraction && trues < max_true;
        let (pair, score) = if want_true {
            match sample_true_pair(truth, &mut rng) {
                Some(p) => (p, rng.gen_range(0.55..1.0)),
                None => (sample_false_pair(truth, &mut rng), rng.gen_range(0.2..0.85)),
            }
        } else {
            (sample_false_pair(truth, &mut rng), rng.gen_range(0.2..0.85))
        };
        if seen.insert(pair) {
            if truth.same_cluster(pair.lo(), pair.hi()) {
                trues += 1;
            }
            pairs.push(ScoredPair::scored(pair, score));
        }
    }
    Experiment::new(name, pairs)
}

/// A labelled candidate-pair list with an exact positive ratio —
/// mirrors the SIGMOD contest's labelled training sets (Table 2's PR is
/// defined over such pair lists).
pub fn labeled_candidates(
    truth: &Clustering,
    num_pairs: usize,
    positive_ratio: f64,
    seed: u64,
) -> Vec<(RecordPair, bool)> {
    assert!(
        (0.0..=1.0).contains(&positive_ratio),
        "positive_ratio must be in [0,1]"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let want_pos =
        ((num_pairs as f64 * positive_ratio).round() as usize).min(truth.pair_count() as usize);
    let mut seen = std::collections::HashSet::with_capacity(num_pairs);
    let mut out = Vec::with_capacity(num_pairs);
    let mut attempts = 0usize;
    let cap = num_pairs.saturating_mul(50).max(1024);
    while out.iter().filter(|(_, l)| *l).count() < want_pos && attempts < cap {
        attempts += 1;
        if let Some(p) = sample_true_pair(truth, &mut rng) {
            if seen.insert(p) {
                out.push((p, true));
            }
        } else {
            break;
        }
    }
    while out.len() < num_pairs && attempts < cap * 2 {
        attempts += 1;
        let p = sample_false_pair(truth, &mut rng);
        if seen.insert(p) {
            out.push((p, false));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> Clustering {
        // 20 records: 5 clusters of 3, 5 singletons.
        let mut labels = Vec::new();
        for c in 0..5u32 {
            labels.extend([c, c, c]);
        }
        for c in 5..10u32 {
            labels.push(c);
        }
        Clustering::from_assignment(&labels)
    }

    #[test]
    fn experiment_has_requested_size_and_quality() {
        let t = truth();
        let e = synthetic_experiment("syn", &t, 12, 0.75, 1);
        assert_eq!(e.len(), 12);
        let true_count = e
            .pairs()
            .iter()
            .filter(|sp| t.same_cluster(sp.pair.lo(), sp.pair.hi()))
            .count();
        // 75% ± sampling noise of 12 pairs, and capped by the 15 true pairs.
        assert!(true_count >= 6, "true count {true_count}");
        assert!(e.fully_scored());
        for sp in e.pairs() {
            let s = sp.similarity.unwrap();
            assert!((0.2..1.0).contains(&s));
        }
    }

    #[test]
    fn experiment_is_reproducible() {
        let t = truth();
        let a = synthetic_experiment("syn", &t, 10, 0.5, 9);
        let b = synthetic_experiment("syn", &t, 10, 0.5, 9);
        assert_eq!(a.pairs(), b.pairs());
    }

    #[test]
    fn pure_noise_and_pure_truth() {
        let t = truth();
        let noise = synthetic_experiment("noise", &t, 10, 0.0, 2);
        assert!(noise
            .pairs()
            .iter()
            .all(|sp| !t.same_cluster(sp.pair.lo(), sp.pair.hi())));
        let perfect = synthetic_experiment("true", &t, 10, 1.0, 3);
        let trues = perfect
            .pairs()
            .iter()
            .filter(|sp| t.same_cluster(sp.pair.lo(), sp.pair.hi()))
            .count();
        assert!(trues >= 9, "trues {trues}");
    }

    #[test]
    fn no_duplicates_in_truth_degrades_gracefully() {
        let singles = Clustering::singletons(10);
        let e = synthetic_experiment("none", &singles, 5, 0.9, 4);
        assert_eq!(e.len(), 5);
        assert!(e
            .pairs()
            .iter()
            .all(|sp| !singles.same_cluster(sp.pair.lo(), sp.pair.hi())));
    }

    #[test]
    fn labeled_candidates_hit_positive_ratio() {
        let t = truth();
        let labeled = labeled_candidates(&t, 100, 0.1, 5);
        assert_eq!(labeled.len(), 100);
        let pos = labeled.iter().filter(|(_, l)| *l).count();
        assert_eq!(pos, 10);
        // All labels are consistent with the truth.
        for &(p, l) in &labeled {
            assert_eq!(t.same_cluster(p.lo(), p.hi()), l);
        }
    }

    #[test]
    fn labeled_candidates_cap_at_available_positives() {
        let t = truth(); // only 15 true pairs exist
        let labeled = labeled_candidates(&t, 100, 0.5, 6);
        let pos = labeled.iter().filter(|(_, l)| *l).count();
        assert_eq!(pos, 15);
        assert_eq!(labeled.len(), 100);
    }
}
