//! Shared helpers for the table/figure regeneration binaries.
//!
//! Every table and figure of the paper has a dedicated binary under
//! `src/bin/` (see DESIGN.md's per-experiment index); this library holds
//! the workload construction and evaluation plumbing they share.

use frost_core::clustering::Clustering;
use frost_core::dataset::Dataset;
use frost_core::metrics::confusion::ConfusionMatrix;
use frost_core::metrics::pair;
use frost_datagen::experiments::labeled_candidates;
use frost_datagen::generator::{generate, Generated};
use frost_datagen::presets::Preset;
use frost_matchers::blocking::{Blocker, TokenBlocking};
use frost_matchers::decision::logistic::{LogisticRegression, TrainConfig};
use frost_matchers::decision::DecisionModel;
use frost_matchers::features::{Comparator, FeatureConfig};
use frost_matchers::similarity::Measure;

/// Reads the workload scale factor from `FROST_SCALE` (default 0.05 —
/// fast enough for CI; set `FROST_SCALE=1` to regenerate the paper's
/// full sizes).
pub fn scale_from_env() -> f64 {
    std::env::var("FROST_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
        .unwrap_or(0.05)
}

/// The CPU count the benches record beside the scale (`nproc` in each
/// `BENCH_*.json`), so a result can be read against its hardware.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Generates a preset's dataset + gold standard.
pub fn materialize(preset: &Preset) -> Generated {
    generate(&preset.config)
}

/// The token blocker the contest-style matchers use on the SIGMOD-like
/// datasets (names are long, so token blocking with a stop-word cap
/// keeps the candidate set tractable).
pub fn sigmod_blocker() -> TokenBlocking {
    TokenBlocking {
        attributes: vec!["name".into(), "brand".into()],
        max_token_frequency: 60,
    }
}

/// Feature configuration of a matcher developed on the *dense* D2 data:
/// plain similarities, no missing-value handling (its developers never
/// saw sparse data — the modeling choice behind Table 3's transfer
/// asymmetry; see DESIGN.md).
pub fn dense_features() -> FeatureConfig {
    FeatureConfig::new([
        Comparator::new("name", Measure::TokenJaccard),
        Comparator::new("name", Measure::TokenOverlap),
        Comparator::new("brand", Measure::JaroWinkler),
    ])
}

/// Feature configuration of a matcher developed on the *sparse* D3
/// data: the same similarities plus missing-value indicator features.
pub fn sparse_features() -> FeatureConfig {
    dense_features().with_missing_indicators()
}

/// Trains a contest-style logistic matcher on a generated split.
pub fn train_contest_matcher(
    gen: &Generated,
    features: FeatureConfig,
    positive_ratio: f64,
    labeled_pairs: usize,
    seed: u64,
) -> LogisticRegression {
    let labeled = labeled_candidates(&gen.truth, labeled_pairs, positive_ratio.max(0.05), seed);
    LogisticRegression::train(
        &gen.dataset,
        &labeled,
        features,
        TrainConfig {
            epochs: 250,
            learning_rate: 0.8,
            l2: 1e-4,
            positive_weight: 2.0,
        },
    )
}

/// Precision / recall / f1 of a decision model over a blocker's
/// candidates, with transitive closure (the evaluation route of §5.3).
pub fn evaluate_model(
    ds: &Dataset,
    truth: &Clustering,
    blocker: &dyn Blocker,
    model: &dyn DecisionModel,
) -> (f64, f64, f64) {
    let candidates = blocker.candidates(ds);
    let threshold = model.threshold();
    let matches: Vec<(u32, u32, f64)> = candidates
        .iter()
        .filter_map(|&p| {
            let s = model.score(ds, p);
            (s >= threshold).then_some((p.lo().0, p.hi().0, s))
        })
        .collect();
    let experiment = frost_core::dataset::Experiment::from_scored_pairs("eval", matches);
    let closed = frost_core::clustering::closure::close_experiment(ds.len(), &experiment);
    let matrix = ConfusionMatrix::from_experiment(&closed, truth, ds.len());
    (
        pair::precision(&matrix),
        pair::recall(&matrix),
        pair::f1(&matrix),
    )
}

/// Tunes the similarity threshold of a model on its development split:
/// scores all candidates once, then sweeps a threshold grid with the
/// same `score ≥ t` + transitive-closure semantics as
/// [`evaluate_model`], returning the f1-optimal threshold — the
/// workflow metric/metric diagrams support interactively (§4.5.1).
/// (Learned scores carry heavy ties — many pairs hit identical sigmoid
/// saturation values — so an explicit grid is used rather than diagram
/// prefixes, which split tie groups.)
pub fn tune_threshold_on(
    ds: &Dataset,
    truth: &Clustering,
    blocker: &dyn Blocker,
    model: &dyn DecisionModel,
) -> f64 {
    let scored: Vec<(frost_core::dataset::RecordPair, f64)> = blocker
        .candidates(ds)
        .into_iter()
        .map(|p| (p, model.score(ds, p)))
        .collect();
    let mut best = (0.5f64, f64::NEG_INFINITY);
    for i in 1..20 {
        let t = i as f64 * 0.05;
        let matches: Vec<(u32, u32, f64)> = scored
            .iter()
            .filter(|&&(_, s)| s >= t)
            .map(|&(p, s)| (p.lo().0, p.hi().0, s))
            .collect();
        let experiment = frost_core::dataset::Experiment::from_scored_pairs("sweep", matches);
        let closed = frost_core::clustering::closure::close_experiment(ds.len(), &experiment);
        let matrix = ConfusionMatrix::from_experiment(&closed, truth, ds.len());
        let f1 = pair::f1(&matrix);
        if f1 > best.1 {
            best = (t, f1);
        }
    }
    best.0
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a duration in the paper's style (`184ms`, `1.7s`, `6min 43s`).
pub fn fmt_duration(d: std::time::Duration) -> String {
    let ms = d.as_millis();
    if ms < 1_000 {
        format!("{ms}ms")
    } else if ms < 60_000 {
        format!("{:.1}s", d.as_secs_f64())
    } else {
        let mins = ms / 60_000;
        let secs = (ms % 60_000) / 1_000;
        format!("{mins}min {secs}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting() {
        use std::time::Duration;
        assert_eq!(fmt_duration(Duration::from_millis(184)), "184ms");
        assert_eq!(fmt_duration(Duration::from_millis(1_700)), "1.7s");
        assert_eq!(fmt_duration(Duration::from_secs(403)), "6min 43s");
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.903), "90.3%");
    }

    #[test]
    fn scale_default() {
        // Only meaningful when FROST_SCALE is unset in the test env.
        if std::env::var("FROST_SCALE").is_err() {
            assert_eq!(scale_from_env(), 0.05);
        }
    }

    #[test]
    fn contest_matcher_trains_and_evaluates() {
        let preset = frost_datagen::presets::altosight_x4(0.3);
        let gen = materialize(&preset);
        let model = train_contest_matcher(&gen, sparse_features(), 0.3, 500, 1);
        let blocker = TokenBlocking {
            attributes: vec!["name".into()],
            max_token_frequency: 60,
        };
        let (p, r, f1) = evaluate_model(&gen.dataset, &gen.truth, &blocker, &model);
        assert!(f1 > 0.3, "f1 {f1} (p {p}, r {r})");
    }
}
