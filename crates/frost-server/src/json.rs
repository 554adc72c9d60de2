//! The canonical JSON rendering of [`frost_storage::api::Response`]
//! values, plus the query-parameter parsers for the enum-typed request
//! fields.
//!
//! `frostd` and the in-process reference path share these functions,
//! so an HTTP body is byte-identical to rendering
//! [`api::handle`](frost_storage::api::handle)'s result directly —
//! the invariant the loopback golden tests assert.

use frost_core::diagram::DiagramEngine;
use frost_core::explore::error_categories::ErrorCategory;
use frost_core::metrics::pair::PairMetric;
use frost_storage::api::{RatioKind, Response};
use serde_json::Value;

/// A JSON number, with non-finite values (degenerate metric
/// denominators) rendered as `null` to keep the output valid JSON.
fn num(v: f64) -> Value {
    if v.is_finite() {
        Value::Number(v)
    } else {
        Value::Null
    }
}

/// Renders a response as its canonical JSON value.
pub fn response_to_json(response: &Response) -> Value {
    match response {
        Response::Names(names) => Value::object([(
            "names".to_string(),
            Value::Array(names.iter().map(|n| Value::from(n.as_str())).collect()),
        )]),
        Response::Profile(p) => {
            let mut entries = vec![
                ("name".to_string(), Value::from(p.name.as_str())),
                ("sparsity".to_string(), num(p.sparsity)),
                ("textuality".to_string(), num(p.textuality)),
                ("tuple_count".to_string(), Value::from(p.tuple_count)),
                (
                    "schema_complexity".to_string(),
                    Value::from(p.schema_complexity),
                ),
                (
                    "attribute_sparsity".to_string(),
                    Value::Array(p.attribute_sparsity.iter().map(|&s| num(s)).collect()),
                ),
                (
                    "positive_ratio".to_string(),
                    p.positive_ratio.map_or(Value::Null, num),
                ),
            ];
            entries.push((
                "cluster_stats".to_string(),
                match &p.cluster_stats {
                    None => Value::Null,
                    Some(c) => Value::object([
                        (
                            "duplicate_clusters".to_string(),
                            Value::from(c.duplicate_clusters),
                        ),
                        (
                            "duplicated_records".to_string(),
                            Value::from(c.duplicated_records),
                        ),
                        (
                            "mean_duplicate_cluster_size".to_string(),
                            num(c.mean_duplicate_cluster_size),
                        ),
                        (
                            "max_cluster_size".to_string(),
                            Value::from(c.max_cluster_size),
                        ),
                    ]),
                },
            ));
            Value::object(entries)
        }
        Response::Matrix(m) => Value::object([
            ("true_positives".to_string(), Value::from(m.true_positives)),
            (
                "false_positives".to_string(),
                Value::from(m.false_positives),
            ),
            (
                "false_negatives".to_string(),
                Value::from(m.false_negatives),
            ),
            ("true_negatives".to_string(), Value::from(m.true_negatives)),
        ]),
        Response::Metrics(metrics) => Value::object([(
            "metrics".to_string(),
            Value::Array(
                metrics
                    .iter()
                    .map(|(name, value)| {
                        Value::object([
                            ("name".to_string(), Value::from(name.as_str())),
                            ("value".to_string(), num(*value)),
                        ])
                    })
                    .collect(),
            ),
        )]),
        Response::Diagram(points) => Value::object([(
            "points".to_string(),
            Value::Array(
                points
                    .iter()
                    .map(|&(t, x, y)| Value::Array(vec![num(t), num(x), num(y)]))
                    .collect(),
            ),
        )]),
        Response::Venn(regions) => Value::object([(
            "regions".to_string(),
            Value::Array(
                regions
                    .iter()
                    .map(|&(mask, pairs)| {
                        Value::object([
                            ("mask".to_string(), Value::from(mask as u64)),
                            ("pairs".to_string(), Value::from(pairs)),
                        ])
                    })
                    .collect(),
            ),
        )]),
        Response::AttributeRatios(ratios) => Value::object([(
            "ratios".to_string(),
            Value::Array(
                ratios
                    .iter()
                    .map(|r| {
                        Value::object([
                            ("attribute".to_string(), Value::from(r.attribute.as_str())),
                            ("count".to_string(), Value::from(r.count)),
                            ("false_count".to_string(), Value::from(r.false_count)),
                            ("ratio".to_string(), r.ratio.map_or(Value::Null, num)),
                        ])
                    })
                    .collect(),
            ),
        )]),
        Response::ErrorProfile(profile) => {
            let bucket = |counts: &std::collections::HashMap<ErrorCategory, usize>| {
                // Value::Object keys are sorted, so the rendering is
                // deterministic despite the HashMap.
                Value::object(
                    counts
                        .iter()
                        .map(|(cat, &n)| (cat.to_string(), Value::from(n))),
                )
            };
            Value::object([
                (
                    "false_positives".to_string(),
                    bucket(&profile.false_positives),
                ),
                (
                    "false_negatives".to_string(),
                    bucket(&profile.false_negatives),
                ),
            ])
        }
        Response::Imported { experiment, pairs } => Value::object([
            ("imported".to_string(), Value::from(experiment.as_str())),
            ("pairs".to_string(), Value::from(*pairs)),
        ]),
        Response::Deleted { experiment } => {
            Value::object([("deleted".to_string(), Value::from(experiment.as_str()))])
        }
        Response::Saved {
            datasets,
            experiments,
        } => Value::object([
            ("datasets".to_string(), Value::from(*datasets)),
            ("experiments".to_string(), Value::from(*experiments)),
            ("saved".to_string(), Value::Bool(true)),
        ]),
    }
}

/// Parses a metric query value by its display name (`precision`,
/// `recall`, `f1`, `f*`, …).
pub fn parse_metric(s: &str) -> Option<PairMetric> {
    PairMetric::ALL.iter().copied().find(|m| m.name() == s)
}

/// Parses a diagram engine query value (`optimized` / `naive`).
pub fn parse_engine(s: &str) -> Option<DiagramEngine> {
    DiagramEngine::ALL.into_iter().find(|e| e.name() == s)
}

/// Parses a ratio kind query value (`null` / `equal`).
pub fn parse_ratio_kind(s: &str) -> Option<RatioKind> {
    RatioKind::ALL.into_iter().find(|k| k.name() == s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_parsers() {
        assert_eq!(parse_metric("precision"), Some(PairMetric::Precision));
        assert_eq!(parse_metric("f*"), Some(PairMetric::FStar));
        assert_eq!(parse_metric("bogus"), None);
        assert_eq!(parse_engine("naive"), Some(DiagramEngine::Naive));
        assert_eq!(parse_engine("turbo"), None);
        assert_eq!(parse_ratio_kind("equal"), Some(RatioKind::Equal));
        assert_eq!(parse_ratio_kind("x"), None);
    }

    #[test]
    fn non_finite_numbers_render_null() {
        let v = response_to_json(&Response::Metrics(vec![("m".into(), f64::NAN)]));
        assert_eq!(
            serde_json::to_string(&v),
            r#"{"metrics":[{"name":"m","value":null}]}"#
        );
    }
}
