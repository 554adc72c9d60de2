//! Interactive threshold-timeline queries (the paper's Appendix D.5
//! extension, implemented).
//!
//! Appendix D closes with: "whenever the user selects a similarity
//! threshold range starting before the end of the previous range,
//! `O(|D|)` time is necessary to reset the clusterings. This makes
//! interactively exploring the timeline slow … a useful next step is to
//! develop an algorithm for efficiently reverting merges."
//!
//! Union-find merges cannot be reverted cheaply in place, but they can
//! be *checkpointed*: [`DiagramTimeline`] stores snapshots of the
//! optimized engine's sweep state (the experiment union-find and its
//! ground-truth tallies) every `stride` sample points. A query for any
//! threshold range restores the nearest checkpoint at or before the
//! range start (an `O(|D|)` clone — but of a *pre-merged* state) and
//! replays only the matches inside the range, instead of rebuilding
//! from scratch and replaying the entire prefix. For a stride `c`,
//! backward jumps cost `O(|D| + (range + c/s·|Matches|))` instead of
//! `O(|D| + |Matches|)`, at `O(s/c · |D|)` memory for the checkpoints.
//!
//! The timeline keeps the matches as the optimized sweep sorts them,
//! one 16-byte key each, and the threshold of every sample point.

use super::optimized::{sweep_points, thresholds, SweepState};
use super::{sample_boundaries, DiagramPoint};
use crate::clustering::Clustering;
use crate::dataset::{key_ids, Experiment, SimilarityOrder};

/// One stored checkpoint: the state after applying a prefix of matches.
struct Checkpoint {
    /// Sample-point index this checkpoint corresponds to.
    point: usize,
    state: SweepState,
}

/// A reusable, checkpointed threshold timeline over one experiment.
pub struct DiagramTimeline {
    truth: Clustering,
    /// The matches' sorted `SimilarityOrder` keys.
    keys: Vec<u128>,
    boundaries: Vec<usize>,
    /// The threshold of every sample point.
    thresholds: Vec<f64>,
    checkpoints: Vec<Checkpoint>,
}

impl DiagramTimeline {
    /// Builds the timeline with `s` sample points, storing a checkpoint
    /// every `stride` points (`stride ≥ 1`; 1 checkpoints every point,
    /// trading memory for instant queries).
    pub fn build(
        n: usize,
        truth: &Clustering,
        experiment: &Experiment,
        s: usize,
        stride: usize,
    ) -> Self {
        assert!(s >= 2, "a timeline needs at least two sample points");
        assert!(stride >= 1, "stride must be at least 1");
        assert_eq!(truth.num_records(), n, "ground truth size mismatch");
        let order = SimilarityOrder::new(experiment.pairs());
        let boundaries = sample_boundaries(experiment.len(), s);
        let thresholds = thresholds(&order, &boundaries);
        let keys = order.into_keys();
        let mut state = SweepState::new(truth);
        let mut checkpoints = vec![Checkpoint {
            point: 0,
            state: state.clone(),
        }];
        for (i, window) in boundaries.windows(2).enumerate() {
            state.apply(
                truth,
                keys[window[0]..window[1]].iter().map(|&k| key_ids(k)),
            );
            let point = i + 1;
            if point % stride == 0 && point + 1 < boundaries.len() {
                checkpoints.push(Checkpoint {
                    point,
                    state: state.clone(),
                });
            }
        }
        Self {
            truth: truth.clone(),
            keys,
            boundaries,
            thresholds,
            checkpoints,
        }
    }

    /// Number of sample points.
    pub fn len(&self) -> usize {
        self.boundaries.len()
    }

    /// Whether the timeline has no sample points (never true: `s ≥ 2`).
    pub fn is_empty(&self) -> bool {
        self.boundaries.is_empty()
    }

    /// Number of stored checkpoints (memory diagnostics).
    pub fn checkpoint_count(&self) -> usize {
        self.checkpoints.len()
    }

    /// Returns the diagram points for the sample range
    /// `[from_point, to_point]` (inclusive), restoring the nearest
    /// checkpoint and replaying only the needed matches — backward jumps
    /// no longer replay the whole prefix.
    ///
    /// # Panics
    /// Panics when the range is empty or out of bounds.
    pub fn range(&self, from_point: usize, to_point: usize) -> Vec<DiagramPoint> {
        assert!(
            from_point <= to_point && to_point < self.boundaries.len(),
            "invalid range [{from_point}, {to_point}] over {} points",
            self.boundaries.len()
        );
        // Nearest checkpoint at or before the range start.
        let checkpoint = self
            .checkpoints
            .iter()
            .rev()
            .find(|c| c.point <= from_point)
            .expect("checkpoint 0 always exists");
        let applied = self.boundaries[checkpoint.point];
        sweep_points(
            checkpoint.state.clone(),
            &self.truth,
            self.keys[applied..].iter().map(|&k| key_ids(k)),
            applied,
            &self.boundaries[from_point..=to_point],
            self.thresholds[from_point..=to_point].iter().copied(),
        )
    }

    /// The new true and false positives gained between two consecutive
    /// sample points — the "timeline feature in which new true positives
    /// and false positives between two similarity thresholds are shown"
    /// (Appendix D.5). Returns `(new_tp, new_fp)`.
    pub fn delta(&self, point: usize) -> (u64, u64) {
        assert!(
            point + 1 < self.boundaries.len(),
            "no next point after {point}"
        );
        let pts = self.range(point, point + 1);
        let a = pts[0].matrix;
        let b = pts[1].matrix;
        (
            b.true_positives - a.true_positives,
            b.false_positives - a.false_positives,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagram::DiagramEngine;

    fn setup() -> (Clustering, Experiment) {
        let truth = Clustering::from_assignment(&[0, 0, 0, 1, 1, 2, 3, 3, 4, 4]);
        let e = Experiment::from_scored_pairs(
            "t",
            [
                (0u32, 1u32, 0.95),
                (3, 4, 0.9),
                (1, 2, 0.85),
                (6, 7, 0.8),
                (8, 9, 0.75),
                (2, 5, 0.4),
                (0, 6, 0.3),
                (5, 8, 0.2),
            ],
        );
        (truth, e)
    }

    #[test]
    fn full_range_matches_direct_series() {
        let (truth, e) = setup();
        for stride in [1, 2, 3] {
            let timeline = DiagramTimeline::build(10, &truth, &e, 5, stride);
            let direct = DiagramEngine::Optimized.confusion_series(10, &truth, &e, 5);
            let ranged = timeline.range(0, 4);
            assert_eq!(ranged, direct, "stride {stride}");
        }
    }

    #[test]
    fn backward_jumps_are_consistent() {
        let (truth, e) = setup();
        let timeline = DiagramTimeline::build(10, &truth, &e, 9, 3);
        let full = timeline.range(0, 8);
        // Query ranges in arbitrary (including backward) order; every
        // sub-range must agree with the full series.
        for (from, to) in [(4, 7), (1, 3), (6, 8), (0, 0), (2, 6)] {
            let sub = timeline.range(from, to);
            assert_eq!(sub.as_slice(), &full[from..=to], "range [{from},{to}]");
        }
    }

    #[test]
    fn checkpoint_count_respects_stride() {
        let (truth, e) = setup();
        let dense = DiagramTimeline::build(10, &truth, &e, 9, 1);
        let sparse = DiagramTimeline::build(10, &truth, &e, 9, 4);
        assert!(dense.checkpoint_count() > sparse.checkpoint_count());
        assert!(sparse.checkpoint_count() >= 1);
        assert_eq!(dense.len(), 9);
        assert!(!dense.is_empty());
    }

    #[test]
    fn deltas_sum_to_final_counts() {
        let (truth, e) = setup();
        let timeline = DiagramTimeline::build(10, &truth, &e, 5, 2);
        let full = timeline.range(0, 4);
        let mut tp = full[0].matrix.true_positives;
        let mut fp = full[0].matrix.false_positives;
        for point in 0..4 {
            let (dtp, dfp) = timeline.delta(point);
            tp += dtp;
            fp += dfp;
        }
        let last = full.last().unwrap().matrix;
        assert_eq!(tp, last.true_positives);
        assert_eq!(fp, last.false_positives);
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn out_of_bounds_range_panics() {
        let (truth, e) = setup();
        DiagramTimeline::build(10, &truth, &e, 5, 2).range(2, 9);
    }
}
