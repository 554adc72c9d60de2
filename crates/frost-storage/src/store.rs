//! The in-memory benchmark store with import-time optimization.

use frost_core::clustering::Clustering;
use frost_core::dataset::{Dataset, Experiment, RoaringPairSet};
use frost_core::diagram::{DiagramEngine, DiagramPoint};
use frost_core::metrics::confusion::ConfusionMatrix;
use frost_core::softkpi::ExperimentKpis;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// Errors surfaced by store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// No dataset registered under this name.
    UnknownDataset(String),
    /// No experiment registered under this name.
    UnknownExperiment(String),
    /// No gold standard registered for this dataset.
    NoGoldStandard(String),
    /// The object exists already.
    AlreadyExists(String),
    /// The experiment references records outside the dataset.
    RecordOutOfRange {
        /// Experiment name.
        experiment: String,
        /// Dataset size.
        dataset_len: usize,
    },
    /// A write request carried an unusable payload (malformed CSV,
    /// unresolvable record ids, a bad name).
    InvalidInput(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownDataset(n) => write!(f, "unknown dataset {n:?}"),
            StoreError::UnknownExperiment(n) => write!(f, "unknown experiment {n:?}"),
            StoreError::NoGoldStandard(n) => write!(f, "dataset {n:?} has no gold standard"),
            StoreError::AlreadyExists(n) => write!(f, "{n:?} already exists"),
            StoreError::RecordOutOfRange {
                experiment,
                dataset_len,
            } => write!(
                f,
                "experiment {experiment:?} references records beyond the dataset ({dataset_len} records)"
            ),
            StoreError::InvalidInput(reason) => write!(f, "invalid input: {reason}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// An experiment as stored: the raw pairs plus the import-time
/// pre-computed clustering (§5.3's optimization).
#[derive(Debug, Clone)]
pub struct StoredExperiment {
    /// Dataset the experiment ran on.
    pub dataset: String,
    /// The experiment (pairs, scores, origins).
    pub experiment: Experiment,
    /// Pre-computed transitive-closure clustering.
    pub clustering: Clustering,
    /// The experiment's match pairs as a prebuilt two-level roaring
    /// set: the set-heavy views (N-Intersection comparisons, consensus
    /// signals) reuse these arenas instead of re-packing the pair list
    /// per request, and `FROSTB` snapshots persist them verbatim.
    pub pair_set: RoaringPairSet,
    /// Optional per-experiment soft KPIs (§3.3).
    pub kpis: Option<ExperimentKpis>,
}

/// A dataset's gold standard: the clustering, and its intra-cluster
/// pairs as a roaring set that is built on first use and then only
/// read. Replacing the gold standard replaces this whole value, so the
/// old set goes with the old clustering.
struct GoldStandard {
    truth: Clustering,
    pairs: OnceLock<RoaringPairSet>,
}

/// The benchmark store: datasets, gold standards and experiments.
/// Every evaluation ([`confusion_matrix`](Self::confusion_matrix),
/// [`diagram_series`](Self::diagram_series)) is a plain computation
/// over `&self`. The one piece of interior mutability is each gold
/// standard's pair set ([`gold_pair_set`](Self::gold_pair_set)): built
/// once, on the first request that uses it (so loading a store never
/// pays for it), and then only read. A shared (multi-user) deployment
/// can therefore evaluate concurrently behind one read/write lock
/// (§5.2 allows both local and shared hosting), and result caching is
/// the server's job.
#[derive(Default)]
pub struct BenchmarkStore {
    datasets: HashMap<String, Dataset>,
    gold_standards: HashMap<String, GoldStandard>,
    experiments: HashMap<String, StoredExperiment>,
}

impl fmt::Debug for BenchmarkStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BenchmarkStore")
            .field("datasets", &self.dataset_names())
            .field("experiments", &self.experiment_names(None))
            .finish_non_exhaustive()
    }
}

impl BenchmarkStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a dataset.
    pub fn add_dataset(&mut self, dataset: Dataset) -> Result<(), StoreError> {
        let name = dataset.name().to_string();
        if self.datasets.contains_key(&name) {
            return Err(StoreError::AlreadyExists(name));
        }
        self.datasets.insert(name, dataset);
        Ok(())
    }

    /// Registers (or replaces) the gold standard of a dataset.
    pub fn set_gold_standard(
        &mut self,
        dataset: &str,
        truth: Clustering,
    ) -> Result<(), StoreError> {
        let ds = self
            .datasets
            .get(dataset)
            .ok_or_else(|| StoreError::UnknownDataset(dataset.into()))?;
        assert_eq!(
            truth.num_records(),
            ds.len(),
            "gold standard covers {} records, dataset has {}",
            truth.num_records(),
            ds.len()
        );
        self.gold_standards.insert(
            dataset.into(),
            GoldStandard {
                truth,
                pairs: OnceLock::new(),
            },
        );
        Ok(())
    }

    /// Imports an experiment: [`prepare`](Self::prepare), then
    /// [`insert_stored`](Self::insert_stored).
    pub fn add_experiment(
        &mut self,
        dataset: &str,
        experiment: Experiment,
        kpis: Option<ExperimentKpis>,
    ) -> Result<(), StoreError> {
        let stored = self.prepare(dataset, experiment, kpis)?;
        self.insert_stored(stored)
    }

    /// The read-only half of an import, and the one place an
    /// [`Experiment`] becomes a [`StoredExperiment`]: validates the
    /// experiment against its dataset (dataset known, name free, every
    /// record in range), then performs the §5.3 import-time
    /// optimization — the closure clustering
    /// (`O(|Matches| · α(|D|))`) and the roaring arenas. Commit the
    /// result with [`insert_stored`](Self::insert_stored).
    pub fn prepare(
        &self,
        dataset: &str,
        experiment: Experiment,
        kpis: Option<ExperimentKpis>,
    ) -> Result<StoredExperiment, StoreError> {
        let ds = self
            .datasets
            .get(dataset)
            .ok_or_else(|| StoreError::UnknownDataset(dataset.into()))?;
        let name = experiment.name();
        if self.experiments.contains_key(name) {
            return Err(StoreError::AlreadyExists(name.into()));
        }
        let n = ds.len();
        if experiment
            .pairs()
            .iter()
            .any(|sp| sp.pair.hi().index() >= n)
        {
            return Err(StoreError::RecordOutOfRange {
                experiment: name.into(),
                dataset_len: n,
            });
        }
        Ok(StoredExperiment {
            dataset: dataset.into(),
            clustering: Clustering::from_experiment(n, &experiment),
            pair_set: experiment.roaring_pair_set(),
            experiment,
            kpis,
        })
    }

    /// Commits an experiment whose import-time artifacts (clustering,
    /// roaring pair set) are already built — by
    /// [`prepare`](Self::prepare), or by the `FROSTB` snapshot loader,
    /// which skips the union-find and arena construction. The caller
    /// vouches that the artifacts belong to the experiment; the cheap
    /// structural checks (record range, sizes) still run so a
    /// malformed source cannot plant ids that panic record lookups
    /// later.
    pub fn insert_stored(&mut self, stored: StoredExperiment) -> Result<(), StoreError> {
        let ds = self
            .datasets
            .get(&stored.dataset)
            .ok_or_else(|| StoreError::UnknownDataset(stored.dataset.clone()))?;
        let name = stored.experiment.name().to_string();
        if self.experiments.contains_key(&name) {
            return Err(StoreError::AlreadyExists(name));
        }
        let n = ds.len();
        // The prebuilt set must describe the same pair list: the pair
        // list is deduplicated, so the counts must agree (full
        // containment would cost a sort; the count catches a set that
        // was paired with the wrong experiment).
        if stored.clustering.num_records() != n
            || stored.pair_set.len() != stored.experiment.len()
            || stored
                .experiment
                .pairs()
                .iter()
                .any(|sp| sp.pair.hi().index() >= n)
        {
            return Err(StoreError::RecordOutOfRange {
                experiment: name,
                dataset_len: n,
            });
        }
        self.experiments.insert(name, stored);
        Ok(())
    }

    /// Removes an experiment.
    pub fn remove_experiment(&mut self, name: &str) -> Result<(), StoreError> {
        self.experiments
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| StoreError::UnknownExperiment(name.into()))
    }

    /// Dataset lookup.
    pub fn dataset(&self, name: &str) -> Result<&Dataset, StoreError> {
        self.datasets
            .get(name)
            .ok_or_else(|| StoreError::UnknownDataset(name.into()))
    }

    /// Gold-standard lookup.
    pub fn gold_standard(&self, dataset: &str) -> Result<&Clustering, StoreError> {
        self.gold(dataset).map(|g| &g.truth)
    }

    /// The gold standard's intra-cluster pairs as a roaring set: built
    /// from the clustering's sorted pair stream on the first call for
    /// this gold standard, then shared by every later call.
    pub fn gold_pair_set(&self, dataset: &str) -> Result<&RoaringPairSet, StoreError> {
        let gold = self.gold(dataset)?;
        Ok(gold.pairs.get_or_init(|| gold.truth.roaring_pair_set()))
    }

    fn gold(&self, dataset: &str) -> Result<&GoldStandard, StoreError> {
        self.gold_standards
            .get(dataset)
            .ok_or_else(|| StoreError::NoGoldStandard(dataset.into()))
    }

    /// Experiment lookup.
    pub fn experiment(&self, name: &str) -> Result<&StoredExperiment, StoreError> {
        self.experiments
            .get(name)
            .ok_or_else(|| StoreError::UnknownExperiment(name.into()))
    }

    /// All dataset names, sorted.
    pub fn dataset_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.datasets.keys().cloned().collect();
        v.sort();
        v
    }

    /// All experiment names (optionally restricted to a dataset), sorted.
    pub fn experiment_names(&self, dataset: Option<&str>) -> Vec<String> {
        let mut v: Vec<String> = self
            .experiments
            .iter()
            .filter(|(_, e)| dataset.is_none_or(|d| e.dataset == d))
            .map(|(n, _)| n.clone())
            .collect();
        v.sort();
        v
    }

    /// The confusion matrix of an experiment against its dataset's gold
    /// standard.
    pub fn confusion_matrix(&self, experiment: &str) -> Result<ConfusionMatrix, StoreError> {
        let stored = self.experiment(experiment)?;
        let truth = self.gold_standard(&stored.dataset)?;
        Ok(ConfusionMatrix::from_clusterings(&stored.clustering, truth))
    }

    /// A metric/metric diagram series for an experiment: `s` sample
    /// points of the threshold sweep.
    pub fn diagram_series(
        &self,
        experiment: &str,
        engine: DiagramEngine,
        s: usize,
    ) -> Result<Vec<DiagramPoint>, StoreError> {
        let stored = self.experiment(experiment)?;
        let ds = self.dataset(&stored.dataset)?;
        let truth = self.gold_standard(&stored.dataset)?;
        Ok(engine.confusion_series(ds.len(), truth, &stored.experiment, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frost_core::dataset::Schema;

    fn store_with_data() -> BenchmarkStore {
        let mut ds = Dataset::new("people", Schema::new(["name"]));
        for (id, name) in [("a", "ann"), ("b", "anne"), ("c", "bob"), ("d", "bobby")] {
            ds.push_record(id, [name]);
        }
        let mut store = BenchmarkStore::new();
        store.add_dataset(ds).unwrap();
        store
            .set_gold_standard("people", Clustering::from_assignment(&[0, 0, 1, 1]))
            .unwrap();
        store
            .add_experiment(
                "people",
                Experiment::from_scored_pairs("run-1", [(0u32, 1u32, 0.9), (0, 2, 0.4)]),
                None,
            )
            .unwrap();
        store
    }

    #[test]
    fn crud_and_lookup() {
        let store = store_with_data();
        assert_eq!(store.dataset_names(), vec!["people"]);
        assert_eq!(store.experiment_names(None), vec!["run-1"]);
        assert_eq!(store.experiment_names(Some("people")), vec!["run-1"]);
        assert_eq!(store.experiment_names(Some("other")), Vec::<String>::new());
        assert!(store.dataset("nope").is_err());
        assert!(store.experiment("nope").is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut store = store_with_data();
        let err = store
            .add_dataset(Dataset::new("people", Schema::new(["x"])))
            .unwrap_err();
        assert_eq!(err, StoreError::AlreadyExists("people".into()));
        let err = store
            .add_experiment(
                "people",
                Experiment::from_pairs("run-1", [(0u32, 1u32)]),
                None,
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::AlreadyExists(_)));
    }

    #[test]
    fn insert_stored_validates_ranges_and_names() {
        let mut store = store_with_data();
        let make = |name: &str, hi: u32| {
            // Clustering built directly (not via union-find) so even
            // out-of-range pairs reach insert_stored's own checks.
            let experiment = Experiment::from_pairs(name, [(0u32, hi)]);
            StoredExperiment {
                dataset: "people".into(),
                clustering: Clustering::from_assignment(&[0, 0, 1, 1]),
                pair_set: experiment.roaring_pair_set(),
                experiment,
                kpis: None,
            }
        };
        // Out-of-range pair ids must be rejected even on the trusted
        // path — they would panic record lookups later.
        assert!(matches!(
            store.insert_stored(make("evil", 99)),
            Err(StoreError::RecordOutOfRange { .. })
        ));
        // Clustering size mismatch likewise.
        let mut mismatched = make("off", 1);
        mismatched.clustering = Clustering::from_assignment(&[0, 0]);
        assert!(matches!(
            store.insert_stored(mismatched),
            Err(StoreError::RecordOutOfRange { .. })
        ));
        // A prebuilt set that does not match the pair list (wrong
        // cardinality) is rejected too.
        let mut wrong_set = make("swapped", 1);
        wrong_set.pair_set =
            Experiment::from_pairs("other", [(0u32, 1u32), (2, 3)]).roaring_pair_set();
        assert!(matches!(
            store.insert_stored(wrong_set),
            Err(StoreError::RecordOutOfRange { .. })
        ));
        let mut unknown = make("ghost", 1);
        unknown.dataset = "nope".into();
        assert!(matches!(
            store.insert_stored(unknown),
            Err(StoreError::UnknownDataset(_))
        ));
        store.insert_stored(make("ok", 1)).unwrap();
        assert!(matches!(
            store.insert_stored(make("ok", 1)),
            Err(StoreError::AlreadyExists(_))
        ));
        assert_eq!(store.experiment("ok").unwrap().experiment.len(), 1);
    }

    #[test]
    fn out_of_range_experiment_rejected() {
        let mut store = store_with_data();
        let err = store
            .add_experiment(
                "people",
                Experiment::from_pairs("bad", [(0u32, 99u32)]),
                None,
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::RecordOutOfRange { .. }));
    }

    #[test]
    fn import_precomputes_clustering() {
        let store = store_with_data();
        let stored = store.experiment("run-1").unwrap();
        assert_eq!(stored.clustering.num_records(), 4);
        // 0-1 and 0-2 connect into one cluster of 3 → closed.
        assert_eq!(stored.clustering.num_clusters(), 2);
    }

    #[test]
    fn prepare_validates_without_touching_the_store() {
        let store = store_with_data();
        let prepare = |dataset: &str, name: &str, hi: u32| {
            store.prepare(dataset, Experiment::from_pairs(name, [(0u32, hi)]), None)
        };
        assert!(matches!(
            prepare("nope", "run-2", 1),
            Err(StoreError::UnknownDataset(_))
        ));
        assert!(matches!(
            prepare("people", "run-1", 1),
            Err(StoreError::AlreadyExists(_))
        ));
        assert!(matches!(
            prepare("people", "run-2", 99),
            Err(StoreError::RecordOutOfRange { .. })
        ));
        let stored = prepare("people", "run-2", 3).unwrap();
        assert_eq!(stored.clustering.num_records(), 4);
        assert_eq!(stored.pair_set.len(), 1);
        assert_eq!(store.experiment_names(None), vec!["run-1"]);
        let mut store = store;
        store.insert_stored(stored).unwrap();
        assert_eq!(store.experiment_names(None), vec!["run-1", "run-2"]);
    }

    #[test]
    fn confusion_matrix_counts_closure_pairs() {
        let store = store_with_data();
        let m1 = store.confusion_matrix("run-1").unwrap();
        // Clustered experiment {0,1,2} → TP 1 ({0,1}), FP 2 ({0,2},{1,2}), FN 1.
        assert_eq!(m1, ConfusionMatrix::new(1, 2, 1, 2));
        assert_eq!(store.confusion_matrix("run-1").unwrap(), m1);
    }

    #[test]
    fn diagram_engines_agree() {
        let store = store_with_data();
        let optimized = store
            .diagram_series("run-1", DiagramEngine::Optimized, 3)
            .unwrap();
        let naive = store
            .diagram_series("run-1", DiagramEngine::Naive, 3)
            .unwrap();
        assert_eq!(optimized.len(), 3);
        assert_eq!(optimized, naive);
        assert!(matches!(
            store.diagram_series("nope", DiagramEngine::Optimized, 3),
            Err(StoreError::UnknownExperiment(_))
        ));
    }

    #[test]
    fn remove_experiment_makes_lookups_fail() {
        let mut store = store_with_data();
        store.remove_experiment("run-1").unwrap();
        assert!(store.experiment("run-1").is_err());
        assert!(store.confusion_matrix("run-1").is_err());
        assert!(store
            .diagram_series("run-1", DiagramEngine::Optimized, 3)
            .is_err());
        assert!(matches!(
            store.remove_experiment("run-1"),
            Err(StoreError::UnknownExperiment(_))
        ));
    }

    #[test]
    fn gold_standard_replacement_changes_the_matrix() {
        let mut store = store_with_data();
        let before = store.confusion_matrix("run-1").unwrap();
        store
            .set_gold_standard("people", Clustering::from_assignment(&[0, 1, 2, 3]))
            .unwrap();
        let after = store.confusion_matrix("run-1").unwrap();
        assert_ne!(before, after);
    }

    #[test]
    fn error_display() {
        let e = StoreError::UnknownDataset("x".into());
        assert!(e.to_string().contains("unknown dataset"));
    }
}
