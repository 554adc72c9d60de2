//! Metric/metric diagrams (§4.5.1, Appendix D).
//!
//! For matching solutions that return similarity scores, Frost plots two
//! quality metrics against each other over a sweep of similarity
//! thresholds — e.g. the precision/recall curve (Figure 3). Every data
//! point is a confusion matrix at one threshold, so the problem reduces
//! to computing a *sequence of confusion matrices*.
//!
//! Two engines are provided:
//!
//! * [`naive`] — rebuilds the experiment clustering and its intersection
//!   with the ground truth from scratch at every sampled threshold
//!   (`O(s · (|D| + |Matches|))`), the baseline of Table 1.
//! * [`optimized`] — Snowman's algorithm (Appendix D): a single pass over
//!   the matches in descending similarity order, maintaining the
//!   experiment clustering in a pair-counting union-find whose clusters
//!   carry ground-truth tallies, so every union updates the
//!   true-positive count directly. The series costs
//!   `O(n + m·α(n) + m log m + s)` for `n = |D|` records, `m = |Matches|`
//!   and `s` samples, and runs on the calling thread.
//!
//! Sampling follows the paper: rather than stepping the threshold by a
//! constant amount (which concentrates points wherever scores cluster),
//! the number of *matches* between consecutive points is constant. Point
//! `i` applies the `⌊i·|Matches|/(s−1)⌋` highest-scoring matches; point 0
//! corresponds to threshold `+∞` (no matches).

pub mod naive;
pub mod optimized;
pub mod timeline;

use crate::clustering::Clustering;
use crate::dataset::{Experiment, ScoredPair};
use crate::metrics::confusion::ConfusionMatrix;
use crate::metrics::pair::PairMetric;
use serde::{Deserialize, Serialize};

/// One sampled point of a threshold sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiagramPoint {
    /// The similarity threshold this point corresponds to: the score of
    /// the last match applied (`+∞` for the empty prefix, `-∞` when the
    /// last applied match carries no score).
    pub threshold: f64,
    /// How many matches (prefix of the descending-similarity order) are
    /// treated as predicted positives.
    pub matches_applied: usize,
    /// The confusion matrix at this threshold.
    pub matrix: ConfusionMatrix,
}

/// Which algorithm computes the confusion-matrix series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DiagramEngine {
    /// Per-threshold recomputation (Table 1 baseline).
    Naive,
    /// Appendix D: one pass, union-find with ground-truth tallies.
    Optimized,
}

impl DiagramEngine {
    /// Every engine.
    pub const ALL: [DiagramEngine; 2] = [DiagramEngine::Optimized, DiagramEngine::Naive];

    /// The engine's query-parameter spelling (`optimized` / `naive`).
    pub fn name(self) -> &'static str {
        match self {
            DiagramEngine::Optimized => "optimized",
            DiagramEngine::Naive => "naive",
        }
    }

    /// Computes `s` confusion matrices for the experiment against the
    /// ground truth over a dataset of `n` records.
    ///
    /// The engine walks the experiment's matches by similarity
    /// descending, ties broken by pair: the optimized engine sorts
    /// 16-byte integer keys and sweeps them, the naive one gathers
    /// [`Experiment::pairs_by_similarity_desc`] from the same sort. The
    /// experiment clustering at each point is the transitive closure of
    /// the applied prefix (Frost's experiments are clusterings, §1.2).
    ///
    /// # Panics
    /// Panics if `s < 2` or the ground truth does not cover `n` records.
    ///
    /// A *huge* naive series is itself sharded across rayon tasks:
    /// when the sweep's work (`records + matches`) reaches
    /// [`PARALLEL_SWEEP_MIN_MATCHES`], the sample points, which the
    /// naive engine recomputes from scratch anyway, are computed in
    /// parallel. Results are identical to the sequential sweep. The
    /// optimized engine is a single pass and always runs on the
    /// calling thread.
    pub fn confusion_series(
        self,
        n: usize,
        truth: &Clustering,
        experiment: &Experiment,
        s: usize,
    ) -> Vec<DiagramPoint> {
        self.series_one(n, truth, experiment, s, true)
    }

    /// [`confusion_series`](Self::confusion_series) without the naive
    /// engine's point-level sharding: the whole sweep runs on the
    /// calling thread. For callers that manage their own parallelism
    /// around independent sweeps (nesting scoped-thread fan-outs
    /// oversubscribes) or that time the underlying algorithms
    /// apples-to-apples.
    pub fn confusion_series_sequential(
        self,
        n: usize,
        truth: &Clustering,
        experiment: &Experiment,
        s: usize,
    ) -> Vec<DiagramPoint> {
        self.series_one(n, truth, experiment, s, false)
    }

    /// [`confusion_series`](Self::confusion_series) with point-level
    /// sharding opt-in — the multi-experiment sweep disables it inside
    /// its own rayon tasks (the vendored rayon spawns scoped threads
    /// per call, so nesting would oversubscribe).
    fn series_one(
        self,
        n: usize,
        truth: &Clustering,
        experiment: &Experiment,
        s: usize,
        shard_points: bool,
    ) -> Vec<DiagramPoint> {
        assert!(s >= 2, "a diagram needs at least two sample points");
        assert_eq!(
            truth.num_records(),
            n,
            "ground truth covers {} records, dataset has {n}",
            truth.num_records()
        );
        if self == DiagramEngine::Optimized {
            return optimized::experiment_series(truth, experiment.pairs(), s);
        }
        let matches = experiment.pairs_by_similarity_desc();
        if shard_points && n + matches.len() >= PARALLEL_SWEEP_MIN_MATCHES {
            let shards = rayon::current_num_threads();
            if shards > 1 {
                return naive::confusion_series_sharded(n, truth, &matches, s, shards);
            }
        }
        naive::confusion_series(n, truth, &matches, s)
    }

    /// Computes the confusion-matrix series of several experiments
    /// against the same ground truth — the multi-experiment sweep
    /// behind the N-Metrics view, Table 1 and the timeline figures.
    ///
    /// Experiments are independent, so they are sharded across rayon
    /// tasks (one scoped thread per experiment, capped at the thread
    /// count). Sweeps whose total work falls below
    /// [`PARALLEL_SWEEP_MIN_MATCHES`] run on the calling thread —
    /// spawning costs more than it saves on tiny diagrams.
    ///
    /// Returns one series per experiment, in input order.
    ///
    /// # Panics
    /// As [`confusion_series`](Self::confusion_series), for any input.
    pub fn confusion_series_multi(
        self,
        n: usize,
        truth: &Clustering,
        experiments: &[&Experiment],
        s: usize,
    ) -> Vec<Vec<DiagramPoint>> {
        use rayon::prelude::*;
        // Per-sweep work is O(n + matches·…) for both engines, so the
        // gate counts both terms.
        let total_work: usize = experiments.iter().map(|e| e.len() + n).sum();
        if total_work < PARALLEL_SWEEP_MIN_MATCHES || experiments.len() < 2 {
            // Sequential over experiments — a single huge naive series
            // still shards its own sample points.
            return experiments
                .iter()
                .map(|e| self.series_one(n, truth, e, s, true))
                .collect();
        }
        experiments
            .par_iter()
            .with_min_len(1)
            .map(|e| self.series_one(n, truth, e, s, false))
            .collect()
    }
}

/// Minimum sweep work (`records + matches`) before a diagram sweep
/// fans out to threads — summed over all experiments for
/// [`DiagramEngine::confusion_series_multi`], per series for the
/// naive engine's point-sharded [`DiagramEngine::confusion_series`].
/// Below this, one sweep is microseconds of work and thread spawning
/// dominates end to end. A single optimized series never fans out.
pub const PARALLEL_SWEEP_MIN_MATCHES: usize = 4_096;

/// The most sample points a diagram request may ask for. A series
/// holds one point per sample, so the server rejects larger counts
/// before allocating; the cap sits far above any useful resolution.
pub const MAX_DIAGRAM_SAMPLES: usize = 100_000;

/// The most sample points a diagram request may ask the naive engine
/// for — Table 1's value. The naive engine re-clusters the dataset at
/// every point, so its cost grows with the sample count, while the
/// optimized engine's barely does.
pub const MAX_NAIVE_DIAGRAM_SAMPLES: usize = 100;

/// Prefix boundaries for `s` sample points over `m` matches:
/// `k_i = ⌊i·m/(s−1)⌋` for `i = 0..s`.
pub(crate) fn sample_boundaries(m: usize, s: usize) -> Vec<usize> {
    (0..s).map(|i| i * m / (s - 1)).collect()
}

/// Threshold value for a prefix of `k` matches.
pub(crate) fn threshold_at(matches: &[ScoredPair], k: usize) -> f64 {
    if k == 0 {
        f64::INFINITY
    } else {
        matches[k - 1].similarity.unwrap_or(f64::NEG_INFINITY)
    }
}

/// A metric/metric diagram: two pair metrics evaluated over the same
/// threshold sweep (e.g. recall on x, precision on y — Figure 3).
///
/// ```
/// use frost_core::clustering::Clustering;
/// use frost_core::dataset::Experiment;
/// use frost_core::diagram::{DiagramEngine, MetricDiagram};
///
/// let truth = Clustering::from_assignment(&[0, 0, 1, 1]);
/// let run = Experiment::from_scored_pairs("r", [(0u32, 1u32, 0.9), (0, 2, 0.4)]);
/// let points = MetricDiagram::precision_recall()
///     .compute(DiagramEngine::Optimized, 4, &truth, &run, 3);
/// assert_eq!(points.len(), 3);
/// // At the strictest threshold nothing is matched yet.
/// assert_eq!(points[0].1, 0.0); // recall
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MetricDiagram {
    /// Metric on the x axis.
    pub x: PairMetric,
    /// Metric on the y axis.
    pub y: PairMetric,
}

impl MetricDiagram {
    /// The classic precision/recall curve (recall on x, precision on y).
    pub fn precision_recall() -> Self {
        Self {
            x: PairMetric::Recall,
            y: PairMetric::Precision,
        }
    }

    /// The ROC curve (1−specificity on x via recall pairing is *not* what
    /// the paper plots; it plots sensitivity against specificity, §4.5.1).
    pub fn roc() -> Self {
        Self {
            x: PairMetric::Specificity,
            y: PairMetric::Recall,
        }
    }

    /// Any metric pair.
    pub fn new(x: PairMetric, y: PairMetric) -> Self {
        Self { x, y }
    }

    /// Evaluates the diagram: one `(threshold, x, y)` triple per sample.
    pub fn compute(
        &self,
        engine: DiagramEngine,
        n: usize,
        truth: &Clustering,
        experiment: &Experiment,
        s: usize,
    ) -> Vec<(f64, f64, f64)> {
        engine
            .confusion_series(n, truth, experiment, s)
            .into_iter()
            .map(|p| {
                (
                    p.threshold,
                    self.x.compute(&p.matrix),
                    self.y.compute(&p.matrix),
                )
            })
            .collect()
    }

    /// The threshold maximizing a target metric over the sweep — how
    /// Snowman "assists users in finding good similarity thresholds".
    pub fn best_threshold(
        engine: DiagramEngine,
        target: PairMetric,
        n: usize,
        truth: &Clustering,
        experiment: &Experiment,
        s: usize,
    ) -> (f64, f64) {
        engine
            .confusion_series(n, truth, experiment, s)
            .into_iter()
            .map(|p| (p.threshold, target.compute(&p.matrix)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("series is never empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::RecordPair;

    fn truth_ab_cd() -> Clustering {
        Clustering::from_assignment(&[0, 0, 1, 1])
    }

    fn paper_experiment() -> Experiment {
        // Appendix D.4: matches {a,c}, {b,d}, {a,b} in descending score.
        Experiment::from_scored_pairs("ex", [(0u32, 2u32, 0.9), (1, 3, 0.6), (0, 1, 0.3)])
    }

    /// Appendix D.4 / Figure 10 worked example, on both engines.
    #[test]
    fn paper_example_fig10() {
        for engine in [DiagramEngine::Naive, DiagramEngine::Optimized] {
            let points = engine.confusion_series(4, &truth_ab_cd(), &paper_experiment(), 4);
            assert_eq!(points.len(), 4);
            let expect = [
                ConfusionMatrix::new(0, 0, 2, 4), // step 0: no matches
                ConfusionMatrix::new(0, 1, 2, 3), // {a,c}
                ConfusionMatrix::new(0, 2, 2, 2), // + {b,d}
                ConfusionMatrix::new(2, 4, 0, 0), // + {a,b} closes everything
            ];
            for (p, e) in points.iter().zip(expect) {
                assert_eq!(p.matrix, e, "engine {engine:?}");
            }
            assert_eq!(points[0].threshold, f64::INFINITY);
            assert!((points[1].threshold - 0.9).abs() < 1e-12);
            assert!((points[3].threshold - 0.3).abs() < 1e-12);
        }
    }

    #[test]
    fn engines_agree_on_small_random_like_input() {
        let truth = Clustering::from_assignment(&[0, 0, 0, 1, 1, 2, 3, 3]);
        let e = Experiment::from_scored_pairs(
            "e",
            [
                (0u32, 1u32, 0.95),
                (3, 4, 0.9),
                (1, 2, 0.85),
                (6, 7, 0.8),
                (2, 5, 0.4),
                (0, 6, 0.2),
            ],
        );
        for s in [2, 3, 4, 7] {
            let a = DiagramEngine::Naive.confusion_series(8, &truth, &e, s);
            let b = DiagramEngine::Optimized.confusion_series(8, &truth, &e, s);
            assert_eq!(a, b, "s = {s}");
        }
    }

    #[test]
    fn empty_experiment_series() {
        let truth = truth_ab_cd();
        let e = Experiment::from_pairs::<u32>("none", []);
        for engine in [DiagramEngine::Naive, DiagramEngine::Optimized] {
            let pts = engine.confusion_series(4, &truth, &e, 3);
            assert_eq!(pts.len(), 3);
            for p in &pts {
                assert_eq!(p.matrix, ConfusionMatrix::new(0, 0, 2, 4));
                assert_eq!(p.matches_applied, 0);
            }
        }
    }

    /// A NaN score (possible through the library, never through
    /// import) must not break the sort: every engine sweeps, and they
    /// agree.
    #[test]
    fn nan_similarity_sweeps_without_panic() {
        let n = 2_001u32;
        let truth = Clustering::from_assignment(&(0..n).map(|i| i / 3).collect::<Vec<_>>());
        let e = Experiment::from_scored_pairs(
            "nan",
            (0..n - 1).map(|i| {
                let s = if i % 7 == 0 {
                    f64::NAN
                } else {
                    f64::from(i.wrapping_mul(2654435761) % 1000) / 1000.0
                };
                (i, i + 1, s)
            }),
        );
        let naive = DiagramEngine::Naive.confusion_series(n as usize, &truth, &e, 11);
        let optimized = DiagramEngine::Optimized.confusion_series(n as usize, &truth, &e, 11);
        assert_eq!(naive.len(), 11);
        for (a, b) in naive.iter().zip(&optimized) {
            assert_eq!((a.matches_applied, a.matrix), (b.matches_applied, b.matrix));
        }
    }

    #[test]
    fn sample_boundaries_cover_all_matches() {
        assert_eq!(sample_boundaries(4, 3), vec![0, 2, 4]);
        assert_eq!(sample_boundaries(5, 3), vec![0, 2, 5]);
        assert_eq!(sample_boundaries(0, 2), vec![0, 0]);
        // The largest request the server accepts, against the largest
        // match count record ids allow: `i * m` must not overflow.
        for (m, s) in [(144_349, 100), (u32::MAX as usize, MAX_DIAGRAM_SAMPLES)] {
            let b = sample_boundaries(m, s);
            assert_eq!(b.len(), s);
            assert_eq!((b[0], *b.last().unwrap()), (0, m));
            assert!(b.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn threshold_at_unscored_is_neg_infinity() {
        let m = [crate::dataset::ScoredPair::unscored(RecordPair::from((
            0u32, 1u32,
        )))];
        assert_eq!(threshold_at(&m, 1), f64::NEG_INFINITY);
        assert_eq!(threshold_at(&m, 0), f64::INFINITY);
    }

    #[test]
    fn precision_recall_diagram_shape() {
        // A well-behaved matcher: high-score matches correct, low-score wrong.
        let truth = Clustering::from_assignment(&[0, 0, 1, 1, 2, 3]);
        let e = Experiment::from_scored_pairs("e", [(0u32, 1u32, 0.9), (2, 3, 0.8), (4, 5, 0.2)]);
        let pts =
            MetricDiagram::precision_recall().compute(DiagramEngine::Optimized, 6, &truth, &e, 4);
        // Recall grows monotonically as the threshold drops.
        for w in pts.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-12, "recall must not decrease");
        }
        // Final point has perfect recall but imperfect precision.
        let last = pts.last().unwrap();
        assert!((last.1 - 1.0).abs() < 1e-12);
        assert!(last.2 < 1.0);
    }

    #[test]
    fn best_threshold_finds_f1_peak() {
        let truth = Clustering::from_assignment(&[0, 0, 1, 1, 2, 3]);
        let e = Experiment::from_scored_pairs("e", [(0u32, 1u32, 0.9), (2, 3, 0.8), (4, 5, 0.2)]);
        let (thr, f1) = MetricDiagram::best_threshold(
            DiagramEngine::Optimized,
            PairMetric::F1,
            6,
            &truth,
            &e,
            4,
        );
        assert!((f1 - 1.0).abs() < 1e-12);
        assert!((thr - 0.8).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn s_must_be_at_least_two() {
        DiagramEngine::Optimized.confusion_series(4, &truth_ab_cd(), &paper_experiment(), 1);
    }

    /// The sharded multi-experiment sweep returns exactly the
    /// per-experiment series, in input order — on both the sequential
    /// small-work path and the rayon path.
    #[test]
    fn multi_sweep_equals_individual_sweeps() {
        // Tiny: below the parallel gate.
        let truth = truth_ab_cd();
        let small = [paper_experiment(), paper_experiment()];
        let refs: Vec<&Experiment> = small.iter().collect();
        let multi = DiagramEngine::Optimized.confusion_series_multi(4, &truth, &refs, 3);
        for (series, e) in multi.iter().zip(&refs) {
            assert_eq!(
                series,
                &DiagramEngine::Optimized.confusion_series(4, &truth, e, 3)
            );
        }
        // Large enough to cross PARALLEL_SWEEP_MIN_MATCHES.
        let n = 6_000usize;
        let assignment: Vec<u32> = (0..n as u32).map(|i| i / 3).collect();
        let big_truth = Clustering::from_assignment(&assignment);
        let mk = |seed: u32| {
            Experiment::from_scored_pairs(
                format!("e{seed}"),
                (0..n as u32 - 1).map(|i| {
                    let s =
                        ((i.wrapping_mul(2654435761).wrapping_add(seed)) % 1000) as f64 / 1000.0;
                    (i, i + 1, s)
                }),
            )
        };
        let big = [mk(1), mk(2), mk(3)];
        let refs: Vec<&Experiment> = big.iter().collect();
        for engine in [DiagramEngine::Naive, DiagramEngine::Optimized] {
            let multi = engine.confusion_series_multi(n, &big_truth, &refs, 5);
            assert_eq!(multi.len(), 3);
            for (series, e) in multi.iter().zip(&refs) {
                assert_eq!(series, &engine.confusion_series(n, &big_truth, e, 5));
            }
        }
    }

    /// Point-level sharding of one naive series returns exactly the
    /// sequential sweep, across shard counts that divide the points
    /// unevenly (including more shards than points), and equals the
    /// optimized sweep.
    #[test]
    fn sharded_series_equals_sequential() {
        let n = 5_000usize;
        let assignment: Vec<u32> = (0..n as u32).map(|i| i / 4).collect();
        let truth = Clustering::from_assignment(&assignment);
        let e = Experiment::from_scored_pairs(
            "sharded",
            (0..n as u32 - 1).map(|i| {
                let s = ((i.wrapping_mul(2654435761).wrapping_add(7)) % 1000) as f64 / 1000.0;
                (i, i + 1, s)
            }),
        );
        let matches = e.pairs_by_similarity_desc();
        for s in [2usize, 3, 7, 100] {
            let seq_naive = naive::confusion_series(n, &truth, &matches, s);
            assert_eq!(
                optimized::confusion_series(&truth, &matches, s),
                seq_naive,
                "optimized s={s}"
            );
            for shards in [1usize, 2, 3, 5, s + 3] {
                assert_eq!(
                    naive::confusion_series_sharded(n, &truth, &matches, s, shards),
                    seq_naive,
                    "naive s={s} shards={shards}"
                );
            }
        }
        // The public entry point (which gates on work and thread
        // count) agrees too.
        let direct = naive::confusion_series(n, &truth, &matches, 9);
        for engine in [DiagramEngine::Naive, DiagramEngine::Optimized] {
            assert_eq!(engine.confusion_series(n, &truth, &e, 9), direct);
        }
    }
}
