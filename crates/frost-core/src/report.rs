//! Text rendering of Frost's comparison views.
//!
//! Snowman presents evaluations as interactive tables and diagrams;
//! this module is the terminal/CI counterpart: aligned text tables for
//! the N-Metrics view (§5.4), Venn-region summaries (§4.1), percentile
//! partition reports (§4.2.3), attribute-ratio bar charts
//! (§4.5.2–4.5.3) and error profiles. All renderers are pure
//! `data → String` so they are trivially testable and embeddable.

use crate::explore::attribute_stats::AttributeRatio;
use crate::explore::error_categories::{ErrorCategory, ErrorProfile};
use crate::explore::selection::Partition;
use crate::metrics::confusion::ConfusionMatrix;
use crate::metrics::pair::PairMetric;

/// Renders the N-Metrics view: one row per experiment, one column per
/// metric.
pub fn metrics_table(rows: &[(String, ConfusionMatrix)], metrics: &[PairMetric]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<20}", "experiment"));
    for m in metrics {
        out.push_str(&format!(" | {:>12}", m.to_string()));
    }
    out.push('\n');
    let width = 20 + metrics.len() * 15;
    out.push_str(&"-".repeat(width));
    out.push('\n');
    for (name, matrix) in rows {
        out.push_str(&format!("{name:<20}"));
        for m in metrics {
            out.push_str(&format!(" | {:>12.4}", m.compute(matrix)));
        }
        out.push('\n');
    }
    out
}

/// Renders Venn regions, given as `(membership, pair count)` the way
/// [`venn_counts`](crate::explore::setops::venn_counts) returns them,
/// with set names, largest region first; regions of equal size keep
/// their input order.
pub fn venn_table(regions: &[(u32, usize)], set_names: &[&str]) -> String {
    let mut sorted: Vec<&(u32, usize)> = regions.iter().collect();
    sorted.sort_by_key(|&&(_, count)| std::cmp::Reverse(count));
    let mut out = String::new();
    for &(membership, count) in sorted {
        let members: Vec<&str> = set_names
            .iter()
            .enumerate()
            .filter(|&(i, _)| membership & (1 << i) != 0)
            .map(|(_, n)| *n)
            .collect();
        out.push_str(&format!(
            "{count:>8} pairs  exactly in {}\n",
            members.join(" ∩ ")
        ));
    }
    out
}

/// Renders percentile partitions with a text error bar per partition —
/// "users can focus on those partitions with high error levels".
pub fn partition_report(partitions: &[Partition]) -> String {
    let max_errors = partitions
        .iter()
        .map(|p| p.matrix.errors())
        .max()
        .unwrap_or(0)
        .max(1);
    let mut out = String::new();
    for p in partitions {
        let bar_len = (p.matrix.errors() * 24 / max_errors) as usize;
        let range = if p.score_range.0.is_nan() {
            "    (empty)     ".to_string()
        } else {
            format!("[{:.3}, {:.3}]", p.score_range.0, p.score_range.1)
        };
        out.push_str(&format!(
            "p{:<2} {range} errors {:>5} {}{}\n",
            p.index,
            p.matrix.errors(),
            "#".repeat(bar_len),
            if p.is_confident() { " (confident)" } else { "" },
        ));
    }
    out
}

/// Renders attribute ratios (nullRatio / equalRatio) as a bar chart,
/// highest ratio first; undefined ratios sort last.
pub fn attribute_ratio_chart(title: &str, ratios: &[AttributeRatio]) -> String {
    let mut sorted: Vec<&AttributeRatio> = ratios.iter().collect();
    sorted.sort_by(|a, b| {
        b.ratio
            .unwrap_or(-1.0)
            .partial_cmp(&a.ratio.unwrap_or(-1.0))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut out = format!("{title}\n");
    for r in sorted {
        match r.ratio {
            Some(v) => {
                let bar = "#".repeat((v * 24.0).round() as usize);
                out.push_str(&format!(
                    "  {:<16} {:>6.3} ({:>6}/{:<6}) {bar}\n",
                    r.attribute, v, r.false_count, r.count
                ));
            }
            None => out.push_str(&format!(
                "  {:<16}      - (no qualifying pairs)\n",
                r.attribute
            )),
        }
    }
    out
}

/// Renders an error profile, FP and FN side by side per category.
pub fn error_profile_report(profile: &ErrorProfile) -> String {
    let mut out = format!(
        "{:<16} {:>6} {:>6} {:>6}\n",
        "category", "FP", "FN", "total"
    );
    for cat in ErrorCategory::ALL {
        let fp = profile.false_positives.get(&cat).copied().unwrap_or(0);
        let fn_ = profile.false_negatives.get(&cat).copied().unwrap_or(0);
        if fp + fn_ > 0 {
            out.push_str(&format!("{cat:<16} {fp:>6} {fn_:>6} {:>6}\n", fp + fn_));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_table_layout() {
        let rows = vec![
            ("run-1".to_string(), ConfusionMatrix::new(8, 2, 2, 88)),
            ("run-2".to_string(), ConfusionMatrix::new(9, 5, 1, 85)),
        ];
        let table = metrics_table(
            &rows,
            &[PairMetric::Precision, PairMetric::Recall, PairMetric::F1],
        );
        assert!(table.contains("run-1"));
        assert!(table.contains("precision"));
        assert!(table.contains("0.8000")); // run-1 precision
        assert_eq!(table.lines().count(), 4); // header + rule + 2 rows
    }

    #[test]
    fn venn_table_orders_by_size() {
        let regions = [(0b01, 1), (0b10, 5), (0b11, 5)];
        let table = venn_table(&regions, &["A", "B"]);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(
            lines,
            [
                "       5 pairs  exactly in B",
                "       5 pairs  exactly in A ∩ B",
                "       1 pairs  exactly in A",
            ]
        );
    }

    #[test]
    fn partition_report_bars_scale() {
        let partitions = vec![
            Partition {
                index: 0,
                score_range: (0.0, 0.5),
                matrix: ConfusionMatrix::new(1, 0, 0, 9),
                representatives: vec![],
            },
            Partition {
                index: 1,
                score_range: (0.5, 1.0),
                matrix: ConfusionMatrix::new(1, 6, 6, 0),
                representatives: vec![],
            },
        ];
        let report = partition_report(&partitions);
        assert!(report.contains("(confident)"));
        let lines: Vec<&str> = report.lines().collect();
        let hashes = |s: &str| s.matches('#').count();
        assert!(hashes(lines[1]) > hashes(lines[0]));
        assert_eq!(hashes(lines[1]), 24); // max errors → full bar
    }

    #[test]
    fn partition_report_handles_empty() {
        let partitions = vec![Partition {
            index: 0,
            score_range: (f64::NAN, f64::NAN),
            matrix: ConfusionMatrix::default(),
            representatives: vec![],
        }];
        assert!(partition_report(&partitions).contains("(empty)"));
    }

    #[test]
    fn ratio_chart_sorts_and_handles_undefined() {
        let ratios = vec![
            AttributeRatio {
                attribute: "low".into(),
                count: 10,
                false_count: 1,
                ratio: Some(0.1),
            },
            AttributeRatio {
                attribute: "high".into(),
                count: 10,
                false_count: 9,
                ratio: Some(0.9),
            },
            AttributeRatio {
                attribute: "unused".into(),
                count: 0,
                false_count: 0,
                ratio: None,
            },
        ];
        let chart = attribute_ratio_chart("nullRatio", &ratios);
        let lines: Vec<&str> = chart.lines().collect();
        assert!(lines[1].contains("high"));
        assert!(lines[2].contains("low"));
        assert!(lines[3].contains("no qualifying pairs"));
    }

    #[test]
    fn error_profile_report_skips_empty_categories() {
        let mut profile = ErrorProfile::default();
        profile.false_negatives.insert(ErrorCategory::Typo, 3);
        profile.false_positives.insert(ErrorCategory::Typo, 1);
        let report = error_profile_report(&profile);
        assert!(report.contains("typo"));
        assert!(report.contains("4"));
        assert!(!report.contains("abbreviation"));
    }
}
