//! CSV importers for datasets, gold standards and experiments.
//!
//! Snowman supports "a range of different dataset and experiment
//! formats and provides a convenient interface for additional custom
//! CSV-based formats" — an importer being little more than CSV options
//! plus a column mapping (§5.1). Gold standards come in the two shapes
//! of §3.1.1: a pair list, or a cluster-id attribute on the dataset
//! itself.

use frost_core::clustering::Clustering;
use frost_core::dataset::{parse_csv, CsvOptions, Dataset, Experiment, Schema, ScoredPair};
use std::fmt;

/// Errors raised during import.
#[derive(Debug, Clone, PartialEq)]
pub enum ImportError {
    /// Underlying CSV parse failure.
    Csv(frost_core::dataset::CsvError),
    /// The input had no header row.
    MissingHeader,
    /// A required column is absent.
    MissingColumn(String),
    /// A record id used in a pair/cluster file is unknown.
    UnknownRecord(String),
    /// A similarity value failed to parse.
    BadSimilarity {
        /// 1-based row.
        row: usize,
        /// Offending text.
        text: String,
    },
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::Csv(e) => write!(f, "csv: {e}"),
            ImportError::MissingHeader => write!(f, "input has no header row"),
            ImportError::MissingColumn(c) => write!(f, "missing column {c:?}"),
            ImportError::UnknownRecord(id) => write!(f, "unknown record id {id:?}"),
            ImportError::BadSimilarity { row, text } => {
                write!(f, "row {row}: bad similarity {text:?}")
            }
        }
    }
}

impl std::error::Error for ImportError {}

impl From<frost_core::dataset::CsvError> for ImportError {
    fn from(e: frost_core::dataset::CsvError) -> Self {
        ImportError::Csv(e)
    }
}

/// Column mapping of a CSV dataset: which column holds the record id,
/// which columns become attributes (empty cells become nulls).
#[derive(Debug, Clone)]
pub struct DatasetImporter {
    /// CSV dialect.
    pub csv: CsvOptions,
    /// Header name of the id column.
    pub id_column: String,
    /// `None` imports every non-id column; `Some` restricts and orders
    /// the attributes.
    pub attribute_columns: Option<Vec<String>>,
}

impl DatasetImporter {
    /// A comma-CSV importer with an `id` column importing all attributes.
    pub fn standard() -> Self {
        Self {
            csv: CsvOptions::comma(),
            id_column: "id".into(),
            attribute_columns: None,
        }
    }

    /// Parses CSV text into a dataset.
    pub fn import(&self, name: &str, text: &str) -> Result<Dataset, ImportError> {
        let rows = parse_csv(text, self.csv)?;
        let mut iter = rows.into_iter();
        let header = iter.next().ok_or(ImportError::MissingHeader)?;
        let id_idx = header
            .iter()
            .position(|h| h == &self.id_column)
            .ok_or_else(|| ImportError::MissingColumn(self.id_column.clone()))?;
        let attr_indices: Vec<(usize, String)> = match &self.attribute_columns {
            Some(cols) => cols
                .iter()
                .map(|c| {
                    header
                        .iter()
                        .position(|h| h == c)
                        .map(|i| (i, c.clone()))
                        .ok_or_else(|| ImportError::MissingColumn(c.clone()))
                })
                .collect::<Result<_, _>>()?,
            None => header
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != id_idx)
                .map(|(i, h)| (i, h.clone()))
                .collect(),
        };
        let schema = Schema::new(attr_indices.iter().map(|(_, n)| n.clone()));
        // Pre-size the record table (and its id index) from the parsed
        // row count, and move field strings out of each row instead of
        // cloning them — the importer allocates nothing per row beyond
        // the one values vector that becomes the record.
        let mut ds = Dataset::with_capacity(name, schema, iter.len());
        for mut row in iter {
            let mut values: Vec<Option<String>> = Vec::with_capacity(attr_indices.len());
            for &(i, _) in &attr_indices {
                // The id column may double as an attribute under an
                // explicit selection — clone it; every other column is
                // referenced exactly once (`Schema::new` asserts
                // attribute names are unique, so a repeated selection
                // never reaches this loop) and its field is moved out
                // of the row.
                let v = if i == id_idx {
                    row[i].clone()
                } else {
                    std::mem::take(&mut row[i])
                };
                values.push(if v.is_empty() { None } else { Some(v) });
            }
            ds.push_record_opt(std::mem::take(&mut row[id_idx]), values);
        }
        Ok(ds)
    }
}

/// Imports a gold standard stored as a pair list (`id1,id2` per row,
/// with header). Pairs are transitively closed into a clustering, per
/// §3.1.1 ("the gold standard … corresponds to a final matching
/// solution").
pub fn import_gold_pairs(
    ds: &Dataset,
    text: &str,
    csv: CsvOptions,
) -> Result<Clustering, ImportError> {
    let rows = parse_csv(text, csv)?;
    let mut iter = rows.into_iter();
    iter.next().ok_or(ImportError::MissingHeader)?;
    let mut pairs = Vec::with_capacity(iter.len());
    for row in iter {
        let a = resolve(ds, &row[0])?;
        let b = resolve(ds, &row[1])?;
        if a != b {
            pairs.push((a, b));
        }
    }
    Ok(Clustering::from_pairs(ds.len(), pairs))
}

/// Imports a gold standard from a cluster-id attribute of the dataset
/// itself (§3.1.1's second format). Records with a missing cluster id
/// become singletons.
pub fn import_gold_cluster_attribute(
    ds: &Dataset,
    attribute: &str,
) -> Result<Clustering, ImportError> {
    if ds.schema().index_of(attribute).is_none() {
        return Err(ImportError::MissingColumn(attribute.into()));
    }
    let labels: Vec<String> = ds
        .iter()
        .map(|(id, _)| {
            ds.value(id, attribute)
                .map(str::to_string)
                // Unlabelled records become unique singleton labels.
                .unwrap_or_else(|| format!("\u{0}singleton-{}", id.0))
        })
        .collect();
    Ok(Clustering::from_labels(labels))
}

/// Imports an experiment from CSV rows of `id1,id2[,similarity]` (with
/// header). An empty or absent similarity cell yields an unscored pair.
pub fn import_experiment(
    name: &str,
    ds: &Dataset,
    text: &str,
    csv: CsvOptions,
) -> Result<Experiment, ImportError> {
    let rows = parse_csv(text, csv)?;
    let mut iter = rows.into_iter();
    let header = iter.next().ok_or(ImportError::MissingHeader)?;
    let has_similarity = header.len() >= 3;
    let mut pairs = Vec::with_capacity(iter.len());
    for (i, row) in iter.enumerate() {
        let a = resolve(ds, &row[0])?;
        let b = resolve(ds, &row[1])?;
        if a == b {
            continue;
        }
        let similarity = if has_similarity && !row[2].is_empty() {
            // `NaN` parses as an `f64` but has no place in the
            // similarity order the diagrams sweep.
            Some(
                row[2]
                    .parse::<f64>()
                    .ok()
                    .filter(|s| !s.is_nan())
                    .ok_or_else(|| ImportError::BadSimilarity {
                        row: i + 2,
                        text: row[2].clone(),
                    })?,
            )
        } else {
            None
        };
        pairs.push(match similarity {
            Some(s) => ScoredPair::scored((a, b), s),
            None => ScoredPair::unscored((a, b)),
        });
    }
    Ok(Experiment::new(name, pairs))
}

fn resolve(ds: &Dataset, native: &str) -> Result<frost_core::dataset::RecordId, ImportError> {
    ds.resolve_native(native)
        .ok_or_else(|| ImportError::UnknownRecord(native.into()))
}

/// Exports an experiment back to `id1,id2,similarity` CSV (the reverse
/// mapping, so third-party tools can ingest Frost's data).
pub fn export_experiment(ds: &Dataset, experiment: &Experiment, csv: CsvOptions) -> String {
    let rows = std::iter::once(vec![
        "id1".to_string(),
        "id2".to_string(),
        "similarity".to_string(),
    ])
    .chain(experiment.pairs().iter().map(|sp| {
        vec![
            ds.native_id(sp.pair.lo()).to_string(),
            ds.native_id(sp.pair.hi()).to_string(),
            sp.similarity.map(|s| s.to_string()).unwrap_or_default(),
        ]
    }));
    frost_core::dataset::write_csv(rows, csv)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DATASET_CSV: &str = "id,name,year\nr1,ann,1999\nr2,anne,\nr3,bob,2001\n";

    fn dataset() -> Dataset {
        DatasetImporter::standard()
            .import("d", DATASET_CSV)
            .unwrap()
    }

    #[test]
    fn dataset_import_maps_columns_and_nulls() {
        let ds = dataset();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.schema().attributes(), &["name", "year"]);
        let r2 = ds.resolve_native("r2").unwrap();
        assert_eq!(ds.value(r2, "name"), Some("anne"));
        assert_eq!(ds.value(r2, "year"), None);
    }

    #[test]
    fn dataset_import_with_column_selection() {
        let importer = DatasetImporter {
            csv: CsvOptions::comma(),
            id_column: "id".into(),
            attribute_columns: Some(vec!["year".into()]),
        };
        let ds = importer.import("d", DATASET_CSV).unwrap();
        assert_eq!(ds.schema().attributes(), &["year"]);
    }

    #[test]
    fn dataset_import_with_id_column_as_attribute() {
        // A selection may reuse the id column as an attribute; both
        // uses must keep their value (the move-out-of-the-row
        // optimization only applies to uniquely referenced columns).
        let importer = DatasetImporter {
            csv: CsvOptions::comma(),
            id_column: "id".into(),
            attribute_columns: Some(vec!["name".into(), "id".into()]),
        };
        let ds = importer.import("d", DATASET_CSV).unwrap();
        let r1 = ds.resolve_native("r1").unwrap();
        assert_eq!(ds.record(r1).values()[0].as_deref(), Some("ann"));
        assert_eq!(ds.record(r1).values()[1].as_deref(), Some("r1"));
        assert_eq!(ds.native_id(r1), "r1");
    }

    #[test]
    fn dataset_import_errors() {
        let importer = DatasetImporter::standard();
        assert_eq!(
            importer.import("d", "").unwrap_err(),
            ImportError::MissingHeader
        );
        assert_eq!(
            importer.import("d", "x,y\n1,2\n").unwrap_err(),
            ImportError::MissingColumn("id".into())
        );
        assert!(matches!(
            importer.import("d", "id,a\nr1\n").unwrap_err(),
            ImportError::Csv(_)
        ));
    }

    #[test]
    fn gold_pairs_import_closes_transitively() {
        let ds = dataset();
        let truth = import_gold_pairs(&ds, "id1,id2\nr1,r2\nr2,r1\n", CsvOptions::comma()).unwrap();
        assert_eq!(truth.num_clusters(), 2);
        assert!(truth.same_cluster(
            ds.resolve_native("r1").unwrap(),
            ds.resolve_native("r2").unwrap()
        ));
        assert!(matches!(
            import_gold_pairs(&ds, "id1,id2\nr1,zz\n", CsvOptions::comma()).unwrap_err(),
            ImportError::UnknownRecord(_)
        ));
    }

    #[test]
    fn gold_cluster_attribute_import() {
        let text = "id,name,cluster\nr1,ann,c1\nr2,anne,c1\nr3,bob,\n";
        let ds = DatasetImporter::standard().import("d", text).unwrap();
        let truth = import_gold_cluster_attribute(&ds, "cluster").unwrap();
        assert_eq!(truth.num_clusters(), 2);
        assert!(matches!(
            import_gold_cluster_attribute(&ds, "nope").unwrap_err(),
            ImportError::MissingColumn(_)
        ));
    }

    #[test]
    fn experiment_import_scored_and_unscored() {
        let ds = dataset();
        let e = import_experiment(
            "run",
            &ds,
            "id1,id2,similarity\nr1,r2,0.93\nr1,r3,\n",
            CsvOptions::comma(),
        )
        .unwrap();
        assert_eq!(e.len(), 2);
        assert_eq!(e.pairs()[0].similarity, Some(0.93));
        assert_eq!(e.pairs()[1].similarity, None);
        // Two-column format: all unscored.
        let e2 = import_experiment("run2", &ds, "id1,id2\nr1,r2\n", CsvOptions::comma()).unwrap();
        assert!(!e2.pairs().is_empty());
        assert_eq!(e2.pairs()[0].similarity, None);
    }

    #[test]
    fn experiment_import_bad_similarity() {
        let ds = dataset();
        let err = import_experiment(
            "run",
            &ds,
            "id1,id2,similarity\nr1,r2,high\n",
            CsvOptions::comma(),
        )
        .unwrap_err();
        assert!(matches!(err, ImportError::BadSimilarity { row: 2, .. }));
        assert!(err.to_string().contains("bad similarity"));
    }

    #[test]
    fn experiment_import_rejects_nan_similarity() {
        let ds = dataset();
        for nan in ["NaN", "nan", "-NaN"] {
            let err = import_experiment(
                "run",
                &ds,
                &format!("id1,id2,similarity\nr1,r2,0.5\nr2,r3,{nan}\n"),
                CsvOptions::comma(),
            )
            .unwrap_err();
            assert_eq!(
                err,
                ImportError::BadSimilarity {
                    row: 3,
                    text: nan.into()
                }
            );
        }
        // Infinities are ordered, so they stay valid scores.
        let e = import_experiment(
            "run",
            &ds,
            "id1,id2,similarity\nr1,r2,inf\n",
            CsvOptions::comma(),
        )
        .unwrap();
        assert_eq!(e.pairs()[0].similarity, Some(f64::INFINITY));
    }

    #[test]
    fn experiment_roundtrip_through_export() {
        let ds = dataset();
        let e = import_experiment(
            "run",
            &ds,
            "id1,id2,similarity\nr1,r2,0.5\nr2,r3,0.25\n",
            CsvOptions::comma(),
        )
        .unwrap();
        let text = export_experiment(&ds, &e, CsvOptions::comma());
        let back = import_experiment("run", &ds, &text, CsvOptions::comma()).unwrap();
        assert_eq!(e.pairs(), back.pairs());
    }

    #[test]
    fn semicolon_dialect() {
        let importer = DatasetImporter {
            csv: CsvOptions::semicolon(),
            id_column: "id".into(),
            attribute_columns: None,
        };
        let ds = importer.import("d", "id;name\nr1;ann\n").unwrap();
        assert_eq!(ds.len(), 1);
    }
}
