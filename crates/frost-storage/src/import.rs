//! CSV importers for datasets, gold standards and experiments.
//!
//! Snowman supports "a range of different dataset and experiment
//! formats and provides a convenient interface for additional custom
//! CSV-based formats" — an importer being little more than CSV options
//! plus a column mapping (§5.1). Gold standards come in the two shapes
//! of §3.1.1: a pair list, or a cluster-id attribute on the dataset
//! itself.
//!
//! Every importer streams its input through [`read_csv`], one row at
//! a time, and keeps only what the row maps to. An experiment upload is a single
//! pass: each row's ids are resolved against the dataset's native-id
//! index, its similarity is parsed, and a [`PairDedup`] drops repeated
//! pairs as they arrive, so the import allocates nothing per row or
//! per field — only the pair list and the deduplicator, both sized
//! once from the input's line count. Errors keep the precedence of a
//! parse-everything-first importer: a structural CSV error anywhere in
//! the input beats a bad id or similarity on an earlier row.

use frost_core::clustering::{Clustering, UnionFind};
use frost_core::dataset::{
    read_csv, CsvOptions, CsvRow, Dataset, Experiment, PairDedup, RecordId, RecordPair, Schema,
    ScoredPair,
};
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
    /// A dataset file lists the same record id twice.
    DuplicateId(String),
    /// A dataset header names the same attribute twice.
    DuplicateAttribute(String),
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
            ImportError::DuplicateId(id) => write!(f, "duplicate record id {id:?}"),
            ImportError::DuplicateAttribute(a) => write!(f, "duplicate attribute name {a:?}"),
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
    ///
    /// Two passes over the text: the first maps the header and counts
    /// the records and the bytes of every column, the second copies
    /// each row's fields straight into the dataset's columns, which
    /// were sized exactly, so the import allocates nothing per row or
    /// per field.
    pub fn import(&self, name: &str, text: &str) -> Result<Dataset, ImportError> {
        let mut layout: Option<Layout> = None;
        read_csv(text, self.csv, |row| {
            match layout.as_mut() {
                None => layout = Some(self.layout(row)?),
                Some(layout) => layout.measure(row),
            }
            Ok::<(), ImportError>(())
        })?;
        let layout = layout.ok_or(ImportError::MissingHeader)?;
        let mut ds = Dataset::with_capacity(name, layout.schema, layout.records);
        ds.reserve_bytes(layout.id_bytes, &layout.value_bytes);
        let (id_idx, attr_indices) = (layout.id_idx, layout.attr_indices);
        // The first pass has seen the whole text: the only error left
        // is a repeated record id.
        read_csv(text, self.csv, |row| {
            if row.number() == 1 {
                return Ok(());
            }
            let id = &row[id_idx];
            let values = attr_indices
                .iter()
                .map(|&i| Some(&row[i]).filter(|v| !v.is_empty()));
            ds.try_push_fields(id, values)
                .map(drop)
                .ok_or_else(|| ImportError::DuplicateId(id.to_owned()))
        })?;
        Ok(ds)
    }

    /// The [`Layout`] of a header row, before any record is measured.
    fn layout(&self, header: CsvRow<'_>) -> Result<Layout, ImportError> {
        let (id_idx, attr_indices, schema) = self.columns(header)?;
        Ok(Layout {
            value_bytes: vec![0; attr_indices.len()],
            id_idx,
            attr_indices,
            schema,
            records: 0,
            id_bytes: 0,
        })
    }

    /// Maps the header row: the id column, the attribute columns in
    /// schema order, and the schema.
    fn columns(&self, header: CsvRow<'_>) -> Result<(usize, Vec<usize>, Schema), ImportError> {
        let position = |name: &str| header.iter().position(|h| h == name);
        let id_idx = position(&self.id_column)
            .ok_or_else(|| ImportError::MissingColumn(self.id_column.clone()))?;
        let attrs: Vec<(usize, String)> = match &self.attribute_columns {
            Some(cols) => cols
                .iter()
                .map(|c| {
                    position(c)
                        .map(|i| (i, c.clone()))
                        .ok_or_else(|| ImportError::MissingColumn(c.clone()))
                })
                .collect::<Result<_, _>>()?,
            None => header
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != id_idx)
                .map(|(i, h)| (i, h.to_owned()))
                .collect(),
        };
        let indices = attrs.iter().map(|&(i, _)| i).collect();
        let schema = Schema::try_new(attrs.into_iter().map(|(_, n)| n))
            .map_err(ImportError::DuplicateAttribute)?;
        Ok((id_idx, indices, schema))
    }
}

/// Where a dataset file keeps its ids and attributes, and how much of
/// each it holds.
struct Layout {
    id_idx: usize,
    /// The column of each attribute, in schema order.
    attr_indices: Vec<usize>,
    schema: Schema,
    records: usize,
    id_bytes: usize,
    /// Bytes of the present values of each attribute.
    value_bytes: Vec<usize>,
}

impl Layout {
    /// Counts one record row.
    fn measure(&mut self, row: CsvRow<'_>) {
        self.records += 1;
        self.id_bytes += row[self.id_idx].len();
        for (bytes, &i) in self.value_bytes.iter_mut().zip(&self.attr_indices) {
            *bytes += row[i].len();
        }
    }
}

/// The rows of `text` as its `\n` count plus one, to size per-row
/// buffers once: blank lines and quoted newlines overshoot, and only
/// lone-`\r` line ends undershoot (the buffers then grow).
fn rows_upper_bound(text: &str) -> usize {
    text.bytes().filter(|&b| b == b'\n').count() + 1
}

/// Rejects a pair-list header with fewer than the two id columns.
fn require_pair_columns(header: CsvRow<'_>) -> Result<(), ImportError> {
    if header.len() < 2 {
        return Err(ImportError::MissingColumn("id2".into()));
    }
    Ok(())
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
    let mut components: Option<UnionFind> = None;
    read_csv(text, csv, |row| {
        let Some(uf) = components.as_mut() else {
            require_pair_columns(row)?;
            components = Some(UnionFind::new(ds.len()));
            return Ok(());
        };
        let a = resolve(ds, &row[0])?;
        let b = resolve(ds, &row[1])?;
        if a != b {
            uf.union(a, b);
        }
        Ok::<(), ImportError>(())
    })?;
    let mut uf = components.ok_or(ImportError::MissingHeader)?;
    Ok(Clustering::from_union_find(&mut uf))
}

/// Imports a gold standard from a cluster-id attribute of the dataset
/// itself (§3.1.1's second format). Records with a missing cluster id
/// become singletons.
pub fn import_gold_cluster_attribute(
    ds: &Dataset,
    attribute: &str,
) -> Result<Clustering, ImportError> {
    let col = ds
        .schema()
        .index_of(attribute)
        .ok_or_else(|| ImportError::MissingColumn(attribute.into()))?;
    let labels: Vec<String> = ds
        .column(col)
        .values()
        .enumerate()
        .map(|(i, label)| {
            label
                .map(str::to_string)
                // Unlabelled records become unique singleton labels.
                .unwrap_or_else(|| format!("\u{0}singleton-{i}"))
        })
        .collect();
    Ok(Clustering::from_labels(labels))
}

/// Imports an experiment from CSV rows of `id1,id2[,similarity]` (with
/// header). An empty or absent similarity cell yields an unscored pair;
/// self-pairs are skipped and repeated pairs keep their first row.
pub fn import_experiment(
    name: &str,
    ds: &Dataset,
    text: &str,
    csv: CsvOptions,
) -> Result<Experiment, ImportError> {
    let rows = rows_upper_bound(text);
    let mut pairs = Vec::with_capacity(rows);
    let mut seen = PairDedup::with_capacity(rows);
    // Set from the header row: whether a similarity column exists.
    let mut scored: Option<bool> = None;
    read_csv(text, csv, |row| {
        let Some(scored) = scored else {
            require_pair_columns(row)?;
            scored = Some(row.len() >= 3);
            return Ok(());
        };
        let similarity = if scored { &row[2] } else { "" };
        if let Some(sp) = decode_pair(ds, &row[0], &row[1], similarity, row.number())? {
            if seen.insert(sp.pair) {
                pairs.push(sp);
            }
        }
        Ok::<(), ImportError>(())
    })?;
    if scored.is_none() {
        return Err(ImportError::MissingHeader);
    }
    Ok(Experiment::from_deduplicated_pairs(name, pairs))
}

/// Decodes one experiment row: resolves both native ids and parses the
/// similarity (empty means unscored; `NaN` is rejected). `None` for a
/// self-pair, which is no match. The one row decoder of
/// [`import_experiment`] and the CSV store loader
/// ([`persist::load`](crate::persist::load)); `row` is the 1-based row
/// number a [`ImportError::BadSimilarity`] reports.
pub(crate) fn decode_pair(
    ds: &Dataset,
    id1: &str,
    id2: &str,
    similarity: &str,
    row: usize,
) -> Result<Option<ScoredPair>, ImportError> {
    let a = resolve(ds, id1)?;
    let b = resolve(ds, id2)?;
    if a == b {
        return Ok(None);
    }
    let pair = RecordPair::new(a, b);
    if similarity.is_empty() {
        return Ok(Some(ScoredPair::unscored(pair)));
    }
    // `NaN` parses as an `f64` but has no place in the similarity
    // order the diagrams sweep.
    match similarity.parse::<f64>() {
        Ok(s) if !s.is_nan() => Ok(Some(ScoredPair::scored(pair, s))),
        _ => Err(ImportError::BadSimilarity {
            row,
            text: similarity.into(),
        }),
    }
}

fn resolve(ds: &Dataset, native: &str) -> Result<RecordId, ImportError> {
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
    fn a_repeated_record_id_is_an_error() {
        let err = DatasetImporter::standard()
            .import("d", "id,name\nr1,a\nr2,b\nr1,c\n")
            .unwrap_err();
        assert_eq!(err, ImportError::DuplicateId("r1".into()));
        assert_eq!(err.to_string(), "duplicate record id \"r1\"");
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
        assert_eq!(ds.record(r1).value(0), Some("ann"));
        assert_eq!(ds.record(r1).value(1), Some("r1"));
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
    fn one_column_pair_lists_are_missing_id2() {
        let ds = dataset();
        let missing = ImportError::MissingColumn("id2".into());
        assert_eq!(
            import_experiment("x", &ds, "id1\nr1\n", CsvOptions::comma()).unwrap_err(),
            missing
        );
        assert_eq!(
            import_gold_pairs(&ds, "id1\nr1\n", CsvOptions::comma()).unwrap_err(),
            missing
        );
        // A header alone is enough to tell.
        assert_eq!(
            import_experiment("x", &ds, "id1\n", CsvOptions::comma()).unwrap_err(),
            missing
        );
        // Nothing at all is still a missing header.
        assert_eq!(
            import_experiment("x", &ds, "", CsvOptions::comma()).unwrap_err(),
            ImportError::MissingHeader
        );
    }

    #[test]
    fn csv_errors_beat_earlier_row_errors() {
        let ds = dataset();
        let csv = CsvOptions::comma();
        // An unknown id on row 2, a ragged row 3: the structural error
        // anywhere in the body wins, as if the body were parsed first.
        assert_eq!(
            import_experiment("x", &ds, "id1,id2,similarity\nr1,zz,0.5\nr2,r3\n", csv).unwrap_err(),
            ImportError::Csv(frost_core::dataset::CsvError::RaggedRow {
                row: 3,
                found: 2,
                expected: 3
            })
        );
        // A bad similarity before an unterminated quote.
        assert_eq!(
            import_experiment(
                "x",
                &ds,
                "id1,id2,similarity\nr1,r2,high\n\"r2,r3,0.5\n",
                csv
            )
            .unwrap_err(),
            ImportError::Csv(frost_core::dataset::CsvError::UnterminatedQuote { line: 3 })
        );
        // A one-column header before a ragged row.
        assert!(matches!(
            import_gold_pairs(&ds, "id1\nr1,r2\n", csv).unwrap_err(),
            ImportError::Csv(_)
        ));
        // Without a structural error, the first row error is reported.
        assert_eq!(
            import_experiment("x", &ds, "id1,id2\nr1,zz\nr1,yy\n", csv).unwrap_err(),
            ImportError::UnknownRecord("zz".into())
        );
    }

    #[test]
    fn experiment_import_skips_self_pairs_and_keeps_first_duplicates() {
        let ds = dataset();
        let e = import_experiment(
            "run",
            &ds,
            "id1,id2,similarity\nr1,r2,0.5\nr3,r3,junk\nr2,r1,0.9\n\"r3\",r2,\nr2,r3,0.1\n",
            CsvOptions::comma(),
        )
        .unwrap();
        let r = |n: &str| ds.resolve_native(n).unwrap();
        assert_eq!(
            e.pairs(),
            &[
                ScoredPair::scored((r("r1"), r("r2")), 0.5),
                ScoredPair::unscored((r("r3"), r("r2"))),
            ]
        );
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
