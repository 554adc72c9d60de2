//! File-based persistence for the benchmark store.
//!
//! Snowman persists everything in a single portable application-data
//! directory (SQLite under the hood) so that installing, upgrading and
//! removing the tool is "as simple as … apps on a smartphone" (Appendix
//! A). This module persists a [`BenchmarkStore`] as a plain directory of
//! CSV files — even more portable, diffable, and importable by any other
//! tool:
//!
//! ```text
//! <root>/datasets/<name>.csv      id + attribute columns
//! <root>/golds/<name>.csv         id1,id2 pair list (§3.1.1)
//! <root>/experiments/<name>.csv   dataset,id1,id2,similarity,origin
//! ```

use crate::import::{decode_pair, import_gold_pairs, DatasetImporter, ImportError};
use crate::store::{BenchmarkStore, StoreError};
use frost_core::dataset::{
    read_csv, write_csv, CsvError, CsvOptions, Dataset, Experiment, PairOrigin, ScoredPair,
};
use std::fmt;
use std::path::{Path, PathBuf};

/// Errors raised while saving or loading a store directory.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// CSV/import failure.
    Import(ImportError),
    /// Store-level failure (duplicate names, unknown datasets …).
    Store(StoreError),
    /// A file's content was structurally invalid.
    Malformed {
        /// Offending file.
        path: PathBuf,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io: {e}"),
            PersistError::Import(e) => write!(f, "import: {e}"),
            PersistError::Store(e) => write!(f, "store: {e}"),
            PersistError::Malformed { path, reason } => {
                write!(f, "malformed {}: {reason}", path.display())
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}
impl From<ImportError> for PersistError {
    fn from(e: ImportError) -> Self {
        PersistError::Import(e)
    }
}
impl From<CsvError> for PersistError {
    fn from(e: CsvError) -> Self {
        PersistError::Import(ImportError::Csv(e))
    }
}
impl From<StoreError> for PersistError {
    fn from(e: StoreError) -> Self {
        PersistError::Store(e)
    }
}

/// Serializes a dataset to CSV with a leading `id` column.
pub fn dataset_to_csv(ds: &Dataset) -> String {
    let header = std::iter::once("id".to_string())
        .chain(ds.schema().attributes().iter().cloned())
        .collect::<Vec<String>>();
    let rows = std::iter::once(header).chain(ds.iter().map(|(id, r)| {
        std::iter::once(ds.native_id(id).to_string())
            .chain(r.values().map(|v| v.unwrap_or_default().to_owned()))
            .collect()
    }));
    write_csv(rows, CsvOptions::comma())
}

fn experiment_to_csv(ds: &Dataset, dataset_name: &str, e: &Experiment) -> String {
    let rows = std::iter::once(vec![
        "dataset".to_string(),
        "id1".to_string(),
        "id2".to_string(),
        "similarity".to_string(),
        "origin".to_string(),
    ])
    .chain(e.pairs().iter().map(|sp| {
        vec![
            dataset_name.to_string(),
            ds.native_id(sp.pair.lo()).to_string(),
            ds.native_id(sp.pair.hi()).to_string(),
            sp.similarity.map(|s| s.to_string()).unwrap_or_default(),
            match sp.origin {
                PairOrigin::Matcher => "matcher".to_string(),
                PairOrigin::Closure => "closure".to_string(),
            },
        ]
    }));
    write_csv(rows, CsvOptions::comma())
}

/// Writes the store to a directory (created if missing, contents
/// overwritten).
pub fn save(store: &BenchmarkStore, root: impl AsRef<Path>) -> Result<(), PersistError> {
    let root = root.as_ref();
    for sub in ["datasets", "golds", "experiments"] {
        std::fs::create_dir_all(root.join(sub))?;
    }
    for name in store.dataset_names() {
        let ds = store.dataset(&name)?;
        std::fs::write(
            root.join("datasets").join(format!("{name}.csv")),
            dataset_to_csv(ds),
        )?;
        if let Ok(truth) = store.gold_standard(&name) {
            let rows = std::iter::once(vec!["id1".to_string(), "id2".to_string()]).chain(
                truth.intra_pairs().map(|p| {
                    vec![
                        ds.native_id(p.lo()).to_string(),
                        ds.native_id(p.hi()).to_string(),
                    ]
                }),
            );
            std::fs::write(
                root.join("golds").join(format!("{name}.csv")),
                write_csv(rows, CsvOptions::comma()),
            )?;
        }
    }
    for name in store.experiment_names(None) {
        let stored = store.experiment(&name)?;
        let ds = store.dataset(&stored.dataset)?;
        std::fs::write(
            root.join("experiments").join(format!("{name}.csv")),
            experiment_to_csv(ds, &stored.dataset, &stored.experiment),
        )?;
    }
    Ok(())
}

fn file_stem(path: &Path) -> Result<String, PersistError> {
    path.file_stem()
        .and_then(|s| s.to_str())
        .map(str::to_string)
        .ok_or_else(|| PersistError::Malformed {
            path: path.to_path_buf(),
            reason: "file name is not valid UTF-8".into(),
        })
}

fn csv_files(dir: &Path) -> Result<Vec<PathBuf>, PersistError> {
    if !dir.exists() {
        return Ok(Vec::new());
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|x| x.to_str()) == Some("csv"))
        .collect();
    files.sort();
    Ok(files)
}

/// Loads a store from either on-disk representation: a `FROSTB`
/// snapshot file ([`crate::snapshot`], the at-rest fast path) or a CSV
/// store directory ([`load`], the interchange format). The `frost
/// serve` / `frostd` entry points accept both through this function.
pub fn load_auto(path: impl AsRef<Path>) -> Result<BenchmarkStore, PersistError> {
    let path = path.as_ref();
    if path.is_file() {
        if !crate::snapshot::is_snapshot(path) {
            return Err(PersistError::Malformed {
                path: path.to_path_buf(),
                reason: "not a FROSTB snapshot (store directories must be directories)".into(),
            });
        }
        return crate::snapshot::load(path).map_err(|e| PersistError::Malformed {
            path: path.to_path_buf(),
            reason: e.to_string(),
        });
    }
    load(path)
}

/// Loads a store directory written by [`save`].
pub fn load(root: impl AsRef<Path>) -> Result<BenchmarkStore, PersistError> {
    let root = root.as_ref();
    let mut store = BenchmarkStore::new();
    let importer = DatasetImporter::standard();
    for path in csv_files(&root.join("datasets"))? {
        let name = file_stem(&path)?;
        let text = std::fs::read_to_string(&path)?;
        store.add_dataset(importer.import(&name, &text)?)?;
    }
    for path in csv_files(&root.join("golds"))? {
        let name = file_stem(&path)?;
        let ds = store.dataset(&name)?;
        let truth = import_gold_pairs(ds, &std::fs::read_to_string(&path)?, CsvOptions::comma())?;
        store.set_gold_standard(&name, truth)?;
    }
    for path in csv_files(&root.join("experiments"))? {
        let name = file_stem(&path)?;
        let text = std::fs::read_to_string(&path)?;
        let malformed = |reason: String| PersistError::Malformed {
            path: path.clone(),
            reason,
        };
        let mut header_seen = false;
        // The dataset named by the first row; every row must name it.
        let mut dataset: Option<&Dataset> = None;
        let mut pairs: Vec<ScoredPair> = Vec::new();
        read_csv(&text, CsvOptions::comma(), |row| {
            if !header_seen {
                header_seen = true;
                if row.len() != 5 {
                    return Err(malformed(format!(
                        "expected 5 columns, found {}",
                        row.len()
                    )));
                }
                return Ok(());
            }
            let ds = match dataset {
                Some(ds) if ds.name() == &row[0] => ds,
                Some(_) => return Err(malformed("experiment spans multiple datasets".into())),
                None => *dataset.insert(store.dataset(&row[0])?),
            };
            let decoded =
                decode_pair(ds, &row[1], &row[2], &row[3], row.number()).map_err(|e| match e {
                    ImportError::BadSimilarity { text, .. } => {
                        malformed(format!("bad similarity {text:?}"))
                    }
                    other => other.into(),
                })?;
            let origin = match &row[4] {
                "matcher" => PairOrigin::Matcher,
                "closure" => PairOrigin::Closure,
                other => return Err(malformed(format!("bad origin {other:?}"))),
            };
            if let Some(sp) = decoded {
                pairs.push(ScoredPair { origin, ..sp });
            }
            Ok(())
        })?;
        if !header_seen {
            return Err(malformed("missing header".into()));
        }
        if let Some(ds_name) = dataset.map(|ds| ds.name().to_owned()) {
            store.add_experiment(&ds_name, Experiment::new(name, pairs), None)?;
        }
        // An experiment file with only a header is silently skipped.
    }
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use frost_core::clustering::Clustering;
    use frost_core::dataset::Schema;

    fn unique_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("frost-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_store() -> BenchmarkStore {
        let mut ds = Dataset::new("people", Schema::new(["name", "city"]));
        ds.push_record("a", ["Ann, the first", "Berlin"]);
        ds.push_record_opt("b", vec![Some("Anne \"II\"".into()), None]);
        ds.push_record("c", ["Bob\nNewline", "Potsdam"]);
        ds.push_record("d", ["Dora", "Kiel"]);
        let mut store = BenchmarkStore::new();
        store.add_dataset(ds).unwrap();
        store
            .set_gold_standard("people", Clustering::from_assignment(&[0, 0, 1, 2]))
            .unwrap();
        store
            .add_experiment(
                "people",
                Experiment::new(
                    "run-1",
                    [
                        ScoredPair::scored((0u32, 1u32), 0.93),
                        ScoredPair::closure((0u32, 2u32)),
                        ScoredPair::unscored((2u32, 3u32)),
                    ],
                ),
                None,
            )
            .unwrap();
        store
    }

    #[test]
    fn round_trip_preserves_everything() {
        let dir = unique_dir("roundtrip");
        let store = sample_store();
        save(&store, &dir).unwrap();
        let loaded = load(&dir).unwrap();

        assert_eq!(loaded.dataset_names(), store.dataset_names());
        let ds = loaded.dataset("people").unwrap();
        assert_eq!(ds.len(), 4);
        // Tricky values (commas, quotes, newlines, nulls) survive.
        let b = ds.resolve_native("b").unwrap();
        assert_eq!(ds.value(b, "name"), Some("Anne \"II\""));
        assert_eq!(ds.value(b, "city"), None);
        let c = ds.resolve_native("c").unwrap();
        assert_eq!(ds.value(c, "name"), Some("Bob\nNewline"));

        // Gold standard round-trips as the same clustering.
        let truth = loaded.gold_standard("people").unwrap();
        assert_eq!(truth, store.gold_standard("people").unwrap());

        // Experiment pairs, scores and origins survive.
        let exp = loaded.experiment("run-1").unwrap();
        let orig = store.experiment("run-1").unwrap();
        assert_eq!(exp.experiment.pairs(), orig.experiment.pairs());
        assert_eq!(exp.dataset, "people");

        // Evaluations agree between original and reloaded store.
        assert_eq!(
            loaded.confusion_matrix("run-1").unwrap(),
            store.confusion_matrix("run-1").unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_of_missing_directory_is_empty_store() {
        let dir = unique_dir("missing");
        let store = load(&dir).unwrap();
        assert!(store.dataset_names().is_empty());
    }

    #[test]
    fn malformed_experiment_is_rejected() {
        let dir = unique_dir("malformed");
        save(&sample_store(), &dir).unwrap();
        std::fs::write(
            dir.join("experiments").join("bad.csv"),
            "dataset,id1,id2,similarity,origin\npeople,a,b,0.5,teleport\n",
        )
        .unwrap();
        let err = load(&dir).unwrap_err();
        assert!(matches!(err, PersistError::Malformed { .. }));
        assert!(err.to_string().contains("bad origin"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn experiment_rows_decode_like_uploads() {
        let dir = unique_dir("rows");
        save(&sample_store(), &dir).unwrap();
        let bad = dir.join("experiments").join("bad.csv");
        // A NaN similarity keeps the store loader's own message.
        std::fs::write(
            &bad,
            "dataset,id1,id2,similarity,origin\npeople,a,b,NaN,matcher\n",
        )
        .unwrap();
        let err = load(&dir).unwrap_err();
        assert!(matches!(err, PersistError::Malformed { .. }));
        assert!(err.to_string().ends_with("bad similarity \"NaN\""), "{err}");
        // A self-pair is no match: skipped, as in an upload.
        std::fs::write(
            &bad,
            "dataset,id1,id2,similarity,origin\npeople,a,a,0.5,matcher\npeople,a,c,,closure\n",
        )
        .unwrap();
        let loaded = load(&dir).unwrap();
        let e = &loaded.experiment("bad").unwrap().experiment;
        assert_eq!(e.pairs(), &[ScoredPair::closure((0u32, 2u32))]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_record_in_experiment_is_import_error() {
        let dir = unique_dir("unknown");
        save(&sample_store(), &dir).unwrap();
        std::fs::write(
            dir.join("experiments").join("ghost.csv"),
            "dataset,id1,id2,similarity,origin\npeople,a,zz,0.5,matcher\n",
        )
        .unwrap();
        assert!(matches!(
            load(&dir).unwrap_err(),
            PersistError::Import(ImportError::UnknownRecord(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dataset_csv_has_id_header() {
        let store = sample_store();
        let text = dataset_to_csv(store.dataset("people").unwrap());
        assert!(text.starts_with("id,name,city\n"));
    }
}
