//! A request/response facade over the store, mirroring Snowman's REST
//! API surface (Appendix A.4).
//!
//! Snowman's front-end has no capability that is not also reachable via
//! the HTTP API; third-party tools integrate by speaking it ("one could
//! automatically upload results into a (potentially shared) Snowman
//! instance"). This module is the library-level equivalent: a
//! serializable [`Request`] enum handled against a
//! [`BenchmarkStore`], so embedding applications (or a thin HTTP shim)
//! get the full feature set through one entry point.

use crate::store::{BenchmarkStore, StoreError, StoredExperiment};
use frost_core::clustering::Adjacency;
use frost_core::dataset::{RoaringPairSet, MAX_VENN_SETS};
use frost_core::diagram::DiagramEngine;
use frost_core::explore::setops::venn_counts;
use frost_core::metrics::confusion::ConfusionMatrix;
use frost_core::metrics::pair::PairMetric;
use frost_core::profiling::DatasetProfile;
use serde::{Deserialize, Serialize};

/// An API request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// All dataset names.
    ListDatasets,
    /// All experiment names, optionally restricted to one dataset.
    ListExperiments {
        /// Restrict to this dataset.
        dataset: Option<String>,
    },
    /// The dataset's profile (§3.1.3); includes ground-truth features
    /// when a gold standard exists.
    ProfileDataset {
        /// Dataset name.
        dataset: String,
    },
    /// The confusion matrix of an experiment against its gold standard.
    GetConfusionMatrix {
        /// Experiment name.
        experiment: String,
    },
    /// All built-in pair metrics of an experiment (the N-Metrics viewer
    /// of §5.4).
    GetMetrics {
        /// Experiment name.
        experiment: String,
    },
    /// A metric/metric diagram (§4.5.1).
    GetDiagram {
        /// Experiment name.
        experiment: String,
        /// X-axis metric.
        x: PairMetric,
        /// Y-axis metric.
        y: PairMetric,
        /// Algorithm choice.
        engine: DiagramEngine,
        /// Sample points.
        samples: usize,
    },
    /// Venn-region sizes over n experiments of one dataset (+
    /// optionally the ground truth as an extra set) — the
    /// N-Intersection viewer (Figure 1).
    CompareExperiments {
        /// Experiment names (region bit `i` corresponds to entry `i`).
        experiments: Vec<String>,
        /// Append the gold standard of the first experiment's dataset
        /// as the last set.
        include_gold: bool,
    },
    /// Cluster-based metrics (§3.2.2) of an experiment's clustering
    /// against the gold standard.
    GetClusterMetrics {
        /// Experiment name.
        experiment: String,
    },
    /// Per-attribute nullRatio or equalRatio over the experiment's
    /// judged pairs (§4.5.2–4.5.3).
    GetAttributeRatios {
        /// Experiment name.
        experiment: String,
        /// Which ratio to compute.
        kind: RatioKind,
    },
    /// The structural error profile of an experiment (§7 outlook).
    GetErrorProfile {
        /// Experiment name.
        experiment: String,
    },
    /// Ground-truth-free quality signals of an experiment (§3.2.3).
    GetQualitySignals {
        /// Experiment name.
        experiment: String,
    },
}

/// Which attribute-level ratio [`Request::GetAttributeRatios`] computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RatioKind {
    /// nullRatio (§4.5.2).
    Null,
    /// equalRatio (§4.5.3).
    Equal,
}

impl RatioKind {
    /// Every ratio kind.
    pub const ALL: [RatioKind; 2] = [RatioKind::Null, RatioKind::Equal];

    /// The kind's query-parameter spelling (`null` / `equal`).
    pub fn name(self) -> &'static str {
        match self {
            RatioKind::Null => "null",
            RatioKind::Equal => "equal",
        }
    }
}

/// An API response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Name list.
    Names(Vec<String>),
    /// A dataset profile.
    Profile(DatasetProfile),
    /// A confusion matrix.
    Matrix(ConfusionMatrix),
    /// Named metric values.
    Metrics(Vec<(String, f64)>),
    /// Diagram points: `(threshold, x, y)`.
    Diagram(Vec<(f64, f64, f64)>),
    /// Venn regions: `(membership bitmask, pair count)`.
    Venn(Vec<(u32, usize)>),
    /// Per-attribute ratios.
    AttributeRatios(Vec<frost_core::explore::attribute_stats::AttributeRatio>),
    /// A structural error profile.
    ErrorProfile(frost_core::explore::error_categories::ErrorProfile),
    /// An experiment was imported: its name and accepted pair count.
    Imported {
        /// The new experiment's name.
        experiment: String,
        /// Deduplicated pairs accepted.
        pairs: usize,
    },
    /// An experiment was deleted.
    Deleted {
        /// The removed experiment's name.
        experiment: String,
    },
    /// A snapshot was saved (or would be): object counts.
    Saved {
        /// Datasets in the snapshot.
        datasets: usize,
        /// Experiments in the snapshot.
        experiments: usize,
    },
}

/// Validates and parses an import request against the current store:
/// the dataset must exist, the name must be free, and the CSV must
/// resolve (native record ids, optional similarity column). Read-only
/// and potentially expensive — the server runs it under a read lock
/// *before* touching the WAL, so a bad request never reaches the log.
pub fn parse_experiment_csv(
    store: &BenchmarkStore,
    dataset: &str,
    name: &str,
    csv: &str,
) -> Result<frost_core::dataset::Experiment, StoreError> {
    if name.is_empty() {
        return Err(StoreError::InvalidInput("experiment name is empty".into()));
    }
    let ds = store.dataset(dataset)?;
    if store.experiment(name).is_ok() {
        return Err(StoreError::AlreadyExists(name.into()));
    }
    crate::import::import_experiment(name, ds, csv, frost_core::dataset::CsvOptions::comma())
        .map_err(|e| StoreError::InvalidInput(e.to_string()))
}

/// Handles one request against the store. Every request reads; writes
/// go through the WAL protocol ([`crate::wal::WalOp`]), never through
/// here.
pub fn handle(store: &BenchmarkStore, request: Request) -> Result<Response, StoreError> {
    match request {
        Request::ListDatasets => Ok(Response::Names(store.dataset_names())),
        Request::ListExperiments { dataset } => {
            Ok(Response::Names(store.experiment_names(dataset.as_deref())))
        }
        Request::ProfileDataset { dataset } => {
            let ds = store.dataset(&dataset)?;
            let profile = match store.gold_standard(&dataset) {
                Ok(truth) => DatasetProfile::with_truth(ds, truth),
                Err(_) => DatasetProfile::without_truth(ds),
            };
            Ok(Response::Profile(profile))
        }
        Request::GetConfusionMatrix { experiment } => {
            Ok(Response::Matrix(store.confusion_matrix(&experiment)?))
        }
        Request::GetMetrics { experiment } => {
            let matrix = store.confusion_matrix(&experiment)?;
            Ok(Response::Metrics(
                PairMetric::ALL
                    .iter()
                    .map(|m| (m.to_string(), m.compute(&matrix)))
                    .collect(),
            ))
        }
        Request::GetDiagram {
            experiment,
            x,
            y,
            engine,
            samples,
        } => {
            let points = store.diagram_series(&experiment, engine, samples)?;
            Ok(Response::Diagram(
                points
                    .into_iter()
                    .map(|p| (p.threshold, x.compute(&p.matrix), y.compute(&p.matrix)))
                    .collect(),
            ))
        }
        Request::CompareExperiments {
            experiments,
            include_gold,
        } => {
            let sets = experiments.len() + usize::from(include_gold);
            if sets > MAX_VENN_SETS {
                return Err(StoreError::InvalidInput(format!(
                    "a comparison takes at most {MAX_VENN_SETS} sets, got {sets}"
                )));
            }
            // Record ids are per dataset, so sets of different datasets
            // share no pair: a pair "found by both" would join
            // unrelated records.
            let mut stored: Vec<&StoredExperiment> = Vec::with_capacity(experiments.len());
            for name in &experiments {
                let s = store.experiment(name)?;
                if let Some(first) = stored.first().filter(|f| f.dataset != s.dataset) {
                    return Err(StoreError::InvalidInput(format!(
                        "a comparison takes experiments of one dataset, got {} ({}) and {name} ({})",
                        experiments[0], first.dataset, s.dataset
                    )));
                }
                stored.push(s);
            }
            let gold = if include_gold {
                let first = stored
                    .first()
                    .ok_or_else(|| StoreError::UnknownExperiment("<none>".into()))?;
                Some(store.gold_pair_set(&first.dataset)?)
            } else {
                None
            };
            // Every participant already exists as a roaring set: the
            // experiments' from import, the gold standard's from its
            // first use. The merge borrows them and only counts, so no
            // set is copied or built per request.
            let roaring: Vec<&RoaringPairSet> =
                stored.iter().map(|s| &s.pair_set).chain(gold).collect();
            Ok(Response::Venn(venn_counts(&roaring)))
        }
        Request::GetClusterMetrics { experiment } => {
            use frost_core::metrics::cluster as cm;
            let stored = store.experiment(&experiment)?;
            let truth = store.gold_standard(&stored.dataset)?;
            let t = &frost_core::clustering::Contingency::new(&stored.clustering, truth);
            Ok(Response::Metrics(vec![
                ("closest-cluster f1".into(), cm::closest_cluster_f1(t)),
                (
                    "variation of information".into(),
                    cm::variation_of_information(t),
                ),
                ("basic merge distance".into(), cm::basic_merge_distance(t)),
                ("adjusted Rand index".into(), cm::adjusted_rand_index(t)),
                ("purity".into(), cm::purity(t)),
                ("inverse purity".into(), cm::inverse_purity(t)),
                ("purity f1".into(), cm::purity_f1(t)),
                ("Talburt-Wang index".into(), cm::talburt_wang_index(t)),
            ]))
        }
        Request::GetAttributeRatios { experiment, kind } => {
            use frost_core::explore::{attribute_stats, judge_experiment};
            let stored = store.experiment(&experiment)?;
            let ds = store.dataset(&stored.dataset)?;
            let truth = store.gold_standard(&stored.dataset)?;
            let judged = judge_experiment(&stored.experiment, truth);
            let ratios = match kind {
                RatioKind::Null => attribute_stats::null_ratio(ds, &judged),
                RatioKind::Equal => attribute_stats::equal_ratio(ds, &judged),
            };
            Ok(Response::AttributeRatios(ratios))
        }
        Request::GetErrorProfile { experiment } => {
            use frost_core::explore::{error_categories::ErrorProfile, judge_experiment};
            let stored = store.experiment(&experiment)?;
            let ds = store.dataset(&stored.dataset)?;
            let truth = store.gold_standard(&stored.dataset)?;
            let judged = judge_experiment(&stored.experiment, truth);
            Ok(Response::ErrorProfile(ErrorProfile::from_judged(
                ds, &judged,
            )))
        }
        Request::GetQualitySignals { experiment } => {
            use frost_core::quality;
            let stored = store.experiment(&experiment)?;
            let (closure, e) = (&stored.clustering, &stored.experiment);
            // One CSR build feeds both graph kernels.
            let adjacency = Adjacency::new(closure.num_records(), e.pairs());
            let mut signals = vec![
                (
                    "closure inconsistency".to_string(),
                    quality::closure_inconsistency(closure, e) as f64,
                ),
                (
                    "normalized closure inconsistency".to_string(),
                    quality::normalized_closure_inconsistency(closure, e),
                ),
                (
                    "link redundancy".to_string(),
                    quality::link_redundancy(closure, e),
                ),
                (
                    "bridge ratio".to_string(),
                    quality::bridge_ratio(&adjacency),
                ),
                (
                    "algorithm consensus".to_string(),
                    quality::algorithm_consensus(closure, e, &adjacency),
                ),
            ];
            if let Some(compactness) = quality::compactness(e) {
                signals.push(("compactness".to_string(), compactness));
            }
            Ok(Response::Metrics(signals))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frost_core::clustering::Clustering;
    use frost_core::dataset::{Dataset, Experiment, Schema};

    fn store() -> BenchmarkStore {
        let mut ds = Dataset::new("d", Schema::new(["name"]));
        for (id, name) in [("a", "x"), ("b", "x"), ("c", "y"), ("d", "z")] {
            ds.push_record(id, [name]);
        }
        let mut store = BenchmarkStore::new();
        store.add_dataset(ds).unwrap();
        store
            .set_gold_standard("d", Clustering::from_assignment(&[0, 0, 1, 1]))
            .unwrap();
        store
            .add_experiment(
                "d",
                Experiment::from_scored_pairs("e1", [(0u32, 1u32, 0.9)]),
                None,
            )
            .unwrap();
        store
            .add_experiment(
                "d",
                Experiment::from_scored_pairs("e2", [(0u32, 1u32, 0.8), (2, 3, 0.7)]),
                None,
            )
            .unwrap();
        store
    }

    #[test]
    fn listing() {
        let s = store();
        assert_eq!(
            handle(&s, Request::ListDatasets).unwrap(),
            Response::Names(vec!["d".into()])
        );
        assert_eq!(
            handle(&s, Request::ListExperiments { dataset: None }).unwrap(),
            Response::Names(vec!["e1".into(), "e2".into()])
        );
    }

    #[test]
    fn metrics_endpoint() {
        let s = store();
        let Response::Metrics(metrics) = handle(
            &s,
            Request::GetMetrics {
                experiment: "e2".into(),
            },
        )
        .unwrap() else {
            panic!("wrong response type")
        };
        let f1 = metrics.iter().find(|(n, _)| n == "f1").unwrap().1;
        assert!((f1 - 1.0).abs() < 1e-12); // e2 is perfect
        let Response::Matrix(m) = handle(
            &s,
            Request::GetConfusionMatrix {
                experiment: "e1".into(),
            },
        )
        .unwrap() else {
            panic!("wrong response type")
        };
        assert_eq!(m.false_negatives, 1);
    }

    #[test]
    fn diagram_endpoint() {
        let s = store();
        let Response::Diagram(points) = handle(
            &s,
            Request::GetDiagram {
                experiment: "e2".into(),
                x: PairMetric::Recall,
                y: PairMetric::Precision,
                engine: DiagramEngine::Optimized,
                samples: 3,
            },
        )
        .unwrap() else {
            panic!("wrong response type")
        };
        assert_eq!(points.len(), 3);
        let last = points.last().unwrap();
        assert_eq!(last.1, 1.0);
        assert_eq!(last.2, 1.0);
    }

    #[test]
    fn venn_endpoint_with_gold() {
        let s = store();
        let Response::Venn(regions) = handle(
            &s,
            Request::CompareExperiments {
                experiments: vec!["e1".into(), "e2".into()],
                include_gold: true,
            },
        )
        .unwrap() else {
            panic!("wrong response type")
        };
        // Sets: e1 {ab}, e2 {ab, cd}, gold {ab, cd}.
        // Regions: ab in all three (0b111, 1 pair); cd in e2+gold (0b110, 1).
        let as_map: std::collections::HashMap<u32, usize> = regions.into_iter().collect();
        assert_eq!(as_map[&0b111], 1);
        assert_eq!(as_map[&0b110], 1);
        assert_eq!(as_map.len(), 2);
    }

    /// Record ids are per dataset: a group that spans datasets is
    /// refused, with or without the gold standard, even where the
    /// datasets' pair ids coincide.
    #[test]
    fn venn_refuses_experiments_of_different_datasets() {
        let mut s = store();
        let mut other = Dataset::new("o", Schema::new(["name"]));
        for id in ["p", "q"] {
            other.push_record(id, ["x"]);
        }
        s.add_dataset(other).unwrap();
        s.set_gold_standard("o", Clustering::from_assignment(&[0, 0]))
            .unwrap();
        s.add_experiment("o", Experiment::from_pairs("o1", [(0u32, 1u32)]), None)
            .unwrap();
        for include_gold in [false, true] {
            for experiments in [vec!["e1", "o1"], vec!["o1", "e2", "e1"]] {
                let err = handle(
                    &s,
                    Request::CompareExperiments {
                        experiments: experiments.iter().map(|e| e.to_string()).collect(),
                        include_gold,
                    },
                )
                .unwrap_err();
                assert!(
                    matches!(&err, StoreError::InvalidInput(m) if m.contains("one dataset")),
                    "{experiments:?} gold={include_gold}: {err}"
                );
            }
        }
        // One dataset's group is still answered.
        assert!(handle(
            &s,
            Request::CompareExperiments {
                experiments: vec!["o1".into()],
                include_gold: true,
            },
        )
        .is_ok());
    }

    #[test]
    fn profile_endpoint() {
        let s = store();
        let Response::Profile(p) = handle(
            &s,
            Request::ProfileDataset {
                dataset: "d".into(),
            },
        )
        .unwrap() else {
            panic!("wrong response type")
        };
        assert_eq!(p.tuple_count, 4);
        assert!(p.positive_ratio.is_some());
    }

    #[test]
    fn cluster_metrics_endpoint() {
        let s = store();
        let Response::Metrics(metrics) = handle(
            &s,
            Request::GetClusterMetrics {
                experiment: "e2".into(),
            },
        )
        .unwrap() else {
            panic!("wrong response type")
        };
        let get = |k: &str| metrics.iter().find(|(n, _)| n == k).unwrap().1;
        // e2 reproduces the gold standard exactly.
        assert!((get("closest-cluster f1") - 1.0).abs() < 1e-12);
        assert!(get("variation of information").abs() < 1e-12);
        assert_eq!(get("basic merge distance"), 0.0);
        assert!((get("purity f1") - 1.0).abs() < 1e-12);
        assert!((get("Talburt-Wang index") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn attribute_ratio_and_error_profile_endpoints() {
        let s = store();
        let Response::AttributeRatios(ratios) = handle(
            &s,
            Request::GetAttributeRatios {
                experiment: "e1".into(),
                kind: RatioKind::Equal,
            },
        )
        .unwrap() else {
            panic!("wrong response type")
        };
        assert_eq!(ratios.len(), 1); // one attribute
        assert_eq!(ratios[0].attribute, "name");
        let Response::ErrorProfile(profile) = handle(
            &s,
            Request::GetErrorProfile {
                experiment: "e1".into(),
            },
        )
        .unwrap() else {
            panic!("wrong response type")
        };
        // e1 only predicted a correct pair → no errors among predictions.
        assert!(profile.false_positives.is_empty());
    }

    #[test]
    fn quality_signals_endpoint() {
        let s = store();
        let Response::Metrics(signals) = handle(
            &s,
            Request::GetQualitySignals {
                experiment: "e2".into(),
            },
        )
        .unwrap() else {
            panic!("wrong response type")
        };
        let get = |k: &str| signals.iter().find(|(n, _)| n == k).unwrap().1;
        assert_eq!(get("closure inconsistency"), 0.0);
        assert!(get("compactness") > 0.0);
        assert!((0.0..=1.0).contains(&get("bridge ratio")));
    }

    #[test]
    fn errors_propagate() {
        let s = store();
        assert!(handle(
            &s,
            Request::GetMetrics {
                experiment: "nope".into()
            }
        )
        .is_err());
    }
}
