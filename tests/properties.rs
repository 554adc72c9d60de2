//! Property-based tests on the platform's core invariants.

use frost::core::clustering::algorithms::clustering_agreement;
use frost::core::clustering::{closure, Clustering, Contingency, UnionFind};
use frost::core::dataset::{
    parse_csv, write_csv, CsvOptions, Experiment, PairSet, RecordId, RecordPair, ScoredPair,
};
use frost::core::diagram::timeline::DiagramTimeline;
use frost::core::diagram::{naive, DiagramEngine, DiagramPoint};
use frost::core::explore::setops::venn_regions;
use frost::core::metrics::cluster as cm;
use frost::core::metrics::confusion::{total_pairs, ConfusionMatrix};
use frost::core::metrics::pair as pm;
use proptest::prelude::*;
use std::collections::HashSet;

/// A random clustering over `n` records as an assignment vector.
fn clustering_strategy(n: usize) -> impl Strategy<Value = Clustering> {
    prop::collection::vec(0u32..(n as u32 / 2).max(1), n)
        .prop_map(|labels| Clustering::from_assignment(&labels))
}

/// Random scored match pairs over `n` records.
fn pairs_strategy(n: u32, max_pairs: usize) -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    prop::collection::vec(
        (0..n, 0..n, 0.0f64..1.0).prop_filter("distinct records", |(a, b, _)| a != b),
        0..max_pairs,
    )
}

/// Raw draws for a larger diagram input; see [`diagram_input`].
type Draws = (u32, u32, Vec<u32>, u8, Vec<(u32, u32, u8, u8)>);

fn diagram_draws() -> impl Strategy<Value = Draws> {
    (
        40u32..240,
        1u32..60,
        prop::collection::vec(0u32..1_000_000, 240),
        0u8..5,
        prop::collection::vec((0u32..1_000_000, 0u32..1_000_000, 0u8..16, 0u8..8), 0..400),
    )
}

/// Scores of draws 11 to 15: the values whose sort key is shared with
/// another score or with unscored pairs, and the infinities.
const ODD_SCORES: [f64; 5] = [
    f64::NAN,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    // A negative NaN with a payload.
    f64::from_bits(0xfff8_0000_0000_0123),
];

/// Builds `(n, truth, experiment)` from raw draws. `n` records fall into
/// at most `k` ground-truth clusters. Each draw `(a, b, score, hub)`
/// becomes a match: `score < 10` scores it `score / 10` (so ties are the
/// norm), 10 leaves it unscored, 11 to 15 score it from [`ODD_SCORES`],
/// and `hub < hubs` replaces `a` by hub record `hub`. With a few hubs
/// and hundreds of draws, the closure grows one giant cluster that
/// absorbs clusters of every size.
fn diagram_input((n, k, labels, hubs, draws): Draws) -> (usize, Clustering, Experiment) {
    let labels: Vec<u32> = labels[..n as usize].iter().map(|l| l % k).collect();
    let matches = draws.into_iter().filter_map(|(a, b, score, hub)| {
        let a = if hub < hubs { u32::from(hub) } else { a % n };
        let b = b % n;
        (a != b).then(|| match score {
            0..10 => ScoredPair::scored((a, b), f64::from(score) / 10.0),
            10 => ScoredPair::unscored((a, b)),
            _ => ScoredPair::scored((a, b), ODD_SCORES[usize::from(score - 11)]),
        })
    });
    (
        n as usize,
        Clustering::from_assignment(&labels),
        Experiment::new("p", matches),
    )
}

/// The comparator `Experiment::pairs_by_similarity_desc` used before it
/// sorted by a total key; total itself on NaN-free input.
fn similarity_desc_by_comparator(e: &Experiment) -> Vec<ScoredPair> {
    let mut out = e.pairs().to_vec();
    out.sort_by(|a, b| {
        let sa = a.similarity.unwrap_or(f64::NEG_INFINITY);
        let sb = b.similarity.unwrap_or(f64::NEG_INFINITY);
        sb.partial_cmp(&sa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.pair.cmp(&b.pair))
    });
    out
}

/// The sweep order by a comparator that is total on every score: NaN
/// ranks with unscored pairs and `-∞`, `-0.0` with `+0.0`, and ties
/// break by pair.
fn similarity_desc_reference(e: &Experiment) -> Vec<ScoredPair> {
    let rank = |sp: &ScoredPair| match sp.similarity {
        Some(s) if !s.is_nan() => s + 0.0,
        _ => f64::NEG_INFINITY,
    };
    let mut out = e.pairs().to_vec();
    out.sort_by(|a, b| {
        rank(b)
            .total_cmp(&rank(a))
            .then_with(|| a.pair.cmp(&b.pair))
    });
    out
}

/// A series with each threshold as its bits: `DiagramPoint`'s
/// `PartialEq` fails on a NaN threshold even when both sides agree.
fn by_bits(series: &[DiagramPoint]) -> Vec<(u64, usize, ConfusionMatrix)> {
    series
        .iter()
        .map(|p| (p.threshold.to_bits(), p.matches_applied, p.matrix))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Optimized and naive sweeps agree with a naive sweep over the
    /// reference order at larger `n`, under score ties, unscored pairs,
    /// NaN, signed-zero and infinite scores (thresholds to the bit),
    /// and hub-shaped inputs whose closure is one giant cluster
    /// (ground-truth tallies spilling and merging small-to-large).
    #[test]
    fn diagram_engines_agree_at_scale(draws in diagram_draws(), s in 2usize..40) {
        let (n, truth, e) = diagram_input(draws);
        let reference =
            by_bits(&naive::confusion_series(n, &truth, &similarity_desc_reference(&e), s));
        for engine in DiagramEngine::ALL {
            let series = engine.confusion_series(n, &truth, &e, s);
            prop_assert_eq!(by_bits(&series), reference.clone(), "{:?}", engine);
        }
    }

    /// Every range a checkpointed timeline answers is the matching slice
    /// of the full sweep, for any stride and any query order.
    #[test]
    fn timeline_range_is_a_slice_of_the_sweep(
        draws in diagram_draws(),
        s in 2usize..30,
        stride in 1usize..6,
        ranges in prop::collection::vec((0usize..1_000, 0usize..1_000), 1..8),
    ) {
        let (n, truth, e) = diagram_input(draws);
        let full = by_bits(&DiagramEngine::Naive.confusion_series(n, &truth, &e, s));
        let timeline = DiagramTimeline::build(n, &truth, &e, s, stride);
        for (from, len) in ranges {
            let from = from % s;
            let to = from + len % (s - from);
            prop_assert_eq!(by_bits(&timeline.range(from, to)), &full[from..=to]);
        }
    }

    /// The total-key sort orders NaN-free pairs exactly as the
    /// partial-order comparator did, including ties, unscored pairs,
    /// infinities and signed zeros.
    #[test]
    fn similarity_sort_matches_comparator(
        draws in prop::collection::vec((0u32..40, 0u32..40, 0usize..9), 0..120),
    ) {
        const SCORES: [Option<f64>; 9] = [
            None,
            Some(f64::NEG_INFINITY),
            Some(-1.5),
            Some(-0.0),
            Some(0.0),
            Some(0.25),
            Some(0.5),
            Some(1.0),
            Some(f64::INFINITY),
        ];
        let e = Experiment::new(
            "p",
            draws.into_iter().filter(|(a, b, _)| a != b).map(|(a, b, i)| match SCORES[i] {
                Some(score) => ScoredPair::scored((a, b), score),
                None => ScoredPair::unscored((a, b)),
            }),
        );
        let by_key = e.pairs_by_similarity_desc();
        let by_comparator = similarity_desc_by_comparator(&e);
        prop_assert_eq!(by_key, by_comparator);
    }

    /// The optimized Appendix D algorithm and the naïve baseline agree
    /// on every input and sample count.
    #[test]
    fn diagram_engines_agree(
        truth in clustering_strategy(24),
        pairs in pairs_strategy(24, 40),
        s in 2usize..9,
    ) {
        let e = Experiment::from_scored_pairs("p", pairs);
        let a = DiagramEngine::Naive.confusion_series(24, &truth, &e, s);
        let b = DiagramEngine::Optimized.confusion_series(24, &truth, &e, s);
        prop_assert_eq!(a, b);
    }

    /// Union-find pair counting equals the count derived from cluster
    /// sizes, and cluster count + merges = n.
    #[test]
    fn union_find_invariants(pairs in pairs_strategy(32, 60)) {
        let mut uf = UnionFind::new(32);
        let mut merges = 0usize;
        for (a, b, _) in pairs {
            if uf.union(RecordId(a), RecordId(b)).is_some() {
                merges += 1;
            }
        }
        prop_assert_eq!(uf.num_clusters(), 32 - merges);
        let from_sizes: u64 = Clustering::from_union_find(&mut uf)
            .clusters()
            .map(|c| {
                let s = c.len() as u64;
                s * (s - 1) / 2
            })
            .sum();
        prop_assert_eq!(uf.total_pairs(), from_sizes);
    }

    /// Transitive closure is idempotent and only ever adds pairs.
    #[test]
    fn closure_idempotent(pairs in pairs_strategy(16, 24)) {
        let e = Experiment::from_scored_pairs("p", pairs);
        let closed = closure::close_experiment(16, &e);
        prop_assert!(closed.len() >= e.len());
        prop_assert!(closure::is_transitively_closed(16, &closed));
        let twice = closure::close_experiment(16, &closed);
        prop_assert_eq!(closed.pair_set(), twice.pair_set());
        prop_assert!(e.pair_set().is_subset(&closed.pair_set()));
    }

    /// Pair metrics stay in range and the confusion matrix sums to the
    /// full pair space.
    #[test]
    fn metric_bounds(
        truth in clustering_strategy(20),
        pairs in pairs_strategy(20, 30),
    ) {
        let e = Experiment::from_scored_pairs("p", pairs);
        let m = ConfusionMatrix::from_experiment(&e, &truth, 20);
        prop_assert_eq!(m.total(), total_pairs(20));
        for metric in frost::core::metrics::pair::PairMetric::ALL {
            let v = metric.compute(&m);
            prop_assert!(v.is_finite());
            if metric == frost::core::metrics::pair::PairMetric::MatthewsCorrelation {
                prop_assert!((-1.0..=1.0).contains(&v), "{} = {}", metric, v);
            } else {
                prop_assert!((0.0..=1.0).contains(&v), "{} = {}", metric, v);
            }
        }
        // f* = f1 / (2 − f1) always.
        let f1 = pm::f1(&m);
        prop_assert!((pm::f_star(&m) - f1 / (2.0 - f1)).abs() < 1e-9);
    }

    /// Cluster metrics: identity is perfect, VI is symmetric and
    /// non-negative, BMD triangle-ish sanity.
    #[test]
    fn cluster_metric_properties(
        a in clustering_strategy(18),
        b in clustering_strategy(18),
    ) {
        let ab = Contingency::new(&a, &b);
        let ba = Contingency::new(&b, &a);
        let aa = Contingency::new(&a, &a);
        prop_assert!(cm::variation_of_information(&ab) >= 0.0);
        prop_assert!(
            (cm::variation_of_information(&ab) - cm::variation_of_information(&ba)).abs()
                < 1e-9
        );
        prop_assert!(cm::variation_of_information(&aa) < 1e-9);
        prop_assert_eq!(cm::basic_merge_distance(&aa), 0.0);
        let f = cm::closest_cluster_f1(&ab);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&f));
        let ari = cm::adjusted_rand_index(&ab);
        prop_assert!(ari <= 1.0 + 1e-9);
        // GMD-derived pairwise metrics equal the confusion-matrix route.
        let m = ConfusionMatrix::from_clusterings(&a, &b);
        prop_assert!((cm::gmd_pairwise_precision(&ab) - pm::precision(&m)).abs() < 1e-9);
        prop_assert!((cm::gmd_pairwise_recall(&ab) - pm::recall(&m)).abs() < 1e-9);
    }

    /// The static intersection's pair count equals TP from the pair
    /// route, for closed experiments.
    #[test]
    fn intersection_is_tp(
        a in clustering_strategy(16),
        b in clustering_strategy(16),
    ) {
        let inter = a.intersect(&b);
        let m = ConfusionMatrix::from_clusterings(&a, &b);
        prop_assert_eq!(inter.pair_count(), m.true_positives);
    }

    /// The counted agreement equals, bit for bit, the Jaccard similarity
    /// of the two enumerated intra-cluster pair sets, and the
    /// contingency's pair count equals the intersection clustering's.
    #[test]
    fn agreement_matches_pair_set_jaccard(
        a in clustering_strategy(18),
        b in clustering_strategy(18),
    ) {
        let pa: HashSet<RecordPair> = a.intra_pairs().collect();
        let pb: HashSet<RecordPair> = b.intra_pairs().collect();
        let reference = if pa.is_empty() && pb.is_empty() {
            1.0
        } else {
            let inter = pa.intersection(&pb).count() as f64;
            inter / ((pa.len() + pb.len()) as f64 - inter)
        };
        prop_assert_eq!(clustering_agreement(&a, &b).to_bits(), reference.to_bits());
        prop_assert_eq!(Contingency::new(&a, &b).pair_count(), a.intersect(&b).pair_count());
    }

    /// Venn regions are disjoint and cover exactly the union.
    #[test]
    fn venn_regions_partition(
        raw in prop::collection::vec(
            prop::collection::vec((0u32..12, 0u32..12), 0..20),
            1..4
        ),
    ) {
        // Reference model: plain hash sets; engine under test: PairSet.
        let reference: Vec<std::collections::HashSet<RecordPair>> = raw
            .into_iter()
            .map(|pairs| {
                pairs
                    .into_iter()
                    .filter(|(a, b)| a != b)
                    .map(RecordPair::from)
                    .collect()
            })
            .collect();
        let sets: Vec<PairSet> = reference
            .iter()
            .map(|s| s.iter().copied().collect())
            .collect();
        let regions = venn_regions(&sets);
        let mut seen = std::collections::HashSet::new();
        for r in &regions {
            prop_assert!(r.membership != 0);
            for p in &r.pairs {
                prop_assert!(seen.insert(p), "pair in two regions");
                // Membership mask is truthful against the reference.
                for (i, s) in reference.iter().enumerate() {
                    prop_assert_eq!(r.contains_set(i), s.contains(&p));
                }
            }
        }
        let union: std::collections::HashSet<RecordPair> =
            reference.iter().flatten().copied().collect();
        prop_assert_eq!(seen, union);
    }

    /// CSV writer/parser round-trip for arbitrary field content.
    #[test]
    fn csv_round_trip(
        rows in prop::collection::vec(
            prop::collection::vec("[ -~]{0,12}", 1..5),
            1..6
        ),
    ) {
        // All rows must share the first row's width for a valid table.
        let width = rows[0].len();
        let rows: Vec<Vec<String>> = rows
            .into_iter()
            .map(|mut r| {
                r.resize(width, String::new());
                r
            })
            .collect();
        // Skip tables whose single field is empty-only first row, which
        // serializes to a blank line (not a row).
        prop_assume!(!(width == 1 && rows.iter().all(|r| r[0].is_empty())));
        let text = write_csv(rows.clone(), CsvOptions::comma());
        let parsed = parse_csv(&text, CsvOptions::comma()).unwrap();
        let kept: Vec<Vec<String>> = rows
            .into_iter()
            .filter(|r| !(width == 1 && r[0].is_empty()))
            .collect();
        prop_assert_eq!(parsed, kept);
    }

    /// Clustering round-trip: pairs → clustering → pairs is the closure.
    #[test]
    fn clustering_pair_round_trip(pairs in pairs_strategy(14, 20)) {
        let e = Experiment::from_scored_pairs("p", pairs);
        let c = Clustering::from_experiment(14, &e);
        let back = Clustering::from_pairs(
            14,
            c.intra_pairs().map(|p| (p.lo(), p.hi())),
        );
        prop_assert_eq!(c, back);
    }
}
