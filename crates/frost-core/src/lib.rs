//! # frost-core
//!
//! Core of the Frost benchmark platform for data matching (entity
//! resolution) results, reproducing Graf et al., *"Frost: A Platform for
//! Benchmarking and Exploring Data Matching Results"*, PVLDB 15(12), 2022.
//!
//! Frost does **not** execute matching solutions itself: it takes their
//! results (sets of record pairs, optionally with similarity scores, or
//! clusterings) as input and evaluates them against gold standards and
//! against each other. This crate provides:
//!
//! * [`dataset`] — records, datasets, schemas, record pairs, CSV I/O,
//!   and the packed [`dataset::PairSet`] engine: every set-based
//!   evaluation (confusion matrices, Venn regions, set algebra) runs on
//!   sorted packed `u64` pair sets via linear merges, galloping
//!   intersections and k-way merges instead of hash sets — see the
//!   [`dataset::pairset`] module docs for the complexity table.
//! * [`clustering`] — union-find with pair counting, duplicate
//!   clusterings, transitive closure, clustering algorithms.
//! * [`metrics`] — the confusion matrix (Fig. 2 of the paper), pair-based
//!   metrics (§3.2.1) and cluster-based metrics (§3.2.2).
//! * [`diagram`] — metric/metric diagrams (§4.5.1) with both the naïve
//!   per-threshold algorithm and the optimized one-pass algorithm of
//!   Appendix D (Table 1 of the paper).
//! * [`quality`] — quality estimation without a ground truth (§3.2.3).
//! * [`profiling`] — dataset profiling and benchmark-dataset selection
//!   (§3.1.3, Appendix C).
//! * [`softkpi`] — soft KPIs: effort, cost, lifecycle expenditures and the
//!   decision-matrix / aggregation framework (§3.3).
//! * [`explore`] — exploration of matching results (§4): set-based
//!   comparisons, pair-selection strategies, interestingness sorting,
//!   error analysis, attribute sparsity/equality statistics.
//!
//! ## Quickstart
//!
//! ```
//! use frost_core::prelude::*;
//!
//! // A tiny dataset of four records.
//! let mut ds = Dataset::new("people", Schema::new(["name", "city"]));
//! let a = ds.push_record("a", ["Ann", "Berlin"]);
//! let b = ds.push_record("b", ["Anne", "Berlin"]);
//! let c = ds.push_record("c", ["Bob", "Potsdam"]);
//! let d = ds.push_record("d", ["Bobby", "Potsdam"]);
//!
//! // Ground truth: {a,b} and {c,d} are duplicates.
//! let truth = Clustering::from_pairs(ds.len(), [(a, b), (c, d)]);
//!
//! // A matching solution found {a,b} and (incorrectly) {a,c}.
//! let experiment = Experiment::from_scored_pairs(
//!     "run-1",
//!     [(a, b, 0.97), (a, c, 0.61)],
//! );
//!
//! let matrix = ConfusionMatrix::from_experiment(&experiment, &truth, ds.len());
//! assert_eq!(matrix.true_positives, 1);
//! assert_eq!(matrix.false_positives, 1);
//! assert_eq!(matrix.false_negatives, 1);
//! let f1 = PairMetric::F1.compute(&matrix);
//! assert!(f1 > 0.4 && f1 < 0.6);
//! ```

pub mod clustering;
pub mod dataset;
pub mod diagram;
pub mod explore;
pub mod metrics;
pub mod profiling;
pub mod quality;
pub mod report;
pub mod softkpi;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::clustering::{Clustering, Contingency, UnionFind};
    pub use crate::dataset::{
        Dataset, Experiment, PairSet, Record, RecordId, RecordPair, Schema, ScoredPair,
    };
    pub use crate::diagram::{DiagramEngine, DiagramPoint, MetricDiagram};
    pub use crate::explore::setops::SetExpression;
    pub use crate::metrics::confusion::ConfusionMatrix;
    pub use crate::metrics::pair::PairMetric;
    pub use crate::profiling::DatasetProfile;
    pub use crate::softkpi::{Effort, SoftKpiSheet};
}
