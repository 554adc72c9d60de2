//! Structural error analysis (the paper's §7 outlook, implemented):
//! categorize a matching solution's errors (typos, reorders,
//! abbreviations, missing values), measure how fragile its identity
//! links are (bridge ratio), and score how suitable a benchmark is for
//! a use case including the solution's *behavioral* similarity.
//!
//! ```text
//! cargo run --release --example error_study
//! ```

use frost::core::clustering::{Adjacency, Clustering};
use frost::core::explore::error_categories::{ErrorCategory, ErrorProfile};
use frost::core::explore::judge_experiment;
use frost::core::profiling::{
    decision_matrix, matcher_behavior_similarity, suitability_score, FeatureWeights,
};
use frost::core::quality::{bridge_ratio, link_redundancy};
use frost::datagen::generator::{generate, GeneratorConfig};
use frost::matchers::blocking::TokenBlocking;
use frost::matchers::decision::threshold::WeightedAverage;
use frost::matchers::features::Comparator;
use frost::matchers::pipeline::{ClusteringMethod, MatchingPipeline};
use frost::matchers::similarity::Measure;

fn run_matcher(
    ds: &frost::core::dataset::Dataset,
    threshold: f64,
) -> frost::matchers::pipeline::PipelineRun {
    MatchingPipeline {
        name: format!("study@{threshold}"),
        preparer: None,
        blocker: Box::new(TokenBlocking {
            attributes: vec!["name".into(), "description".into()],
            max_token_frequency: 80,
        }),
        model: Box::new(WeightedAverage::uniform(
            [
                Comparator::new("name", Measure::Exact),
                Comparator::new("description", Measure::TokenJaccard),
            ],
            threshold,
        )),
        clustering: ClusteringMethod::TransitiveClosure,
    }
    .run(ds)
}

fn main() {
    let use_case = generate(&GeneratorConfig::small("use-case", 400, 1));
    let benchmark_close = generate(&GeneratorConfig::small("bench-close", 500, 2));
    let mut far_cfg = GeneratorConfig::small("bench-far", 500, 3);
    far_cfg.sparsity = 0.5;
    far_cfg.attributes[1].min_words = 15;
    far_cfg.attributes[1].max_words = 25;
    let benchmark_far = generate(&far_cfg);

    // A matcher that relies on exact name equality — by construction
    // weak against typos.
    let run = run_matcher(&use_case.dataset, 0.6);
    let judged = judge_experiment(&run.experiment, &use_case.truth);

    // §7 outlook: categorize the errors.
    let mut all_judged = judged.clone();
    // Add the false negatives (truth pairs the matcher missed) so the
    // profile covers both error kinds.
    let found = run.experiment.pair_set();
    for p in use_case.truth.intra_pairs() {
        if !found.contains(&p) {
            all_judged.push(frost::core::explore::JudgedPair {
                pair: p,
                similarity: None,
                predicted_match: false,
                actual_match: true,
            });
        }
    }
    let profile = ErrorProfile::from_judged(&use_case.dataset, &all_judged);
    println!("error profile of the exact-name matcher:");
    for cat in ErrorCategory::ALL {
        let total = profile.total(cat);
        if total > 0 {
            println!("  {cat:<15} {total}");
        }
    }
    if let Some(dominant) = profile.dominant() {
        println!("dominant structural weakness: {dominant}");
    }

    // Link fragility of the result.
    println!(
        "\nlink redundancy {:.3}, bridge ratio {:.3}",
        link_redundancy(
            &Clustering::from_experiment(use_case.dataset.len(), &run.experiment),
            &run.experiment
        ),
        bridge_ratio(&Adjacency::new(
            use_case.dataset.len(),
            run.experiment.pairs()
        )),
    );

    // Suitability: profile distance + behavioral similarity of the same
    // matcher on each candidate benchmark.
    let rows = decision_matrix(
        &use_case.dataset,
        &[
            (&benchmark_close.dataset, Some(&benchmark_close.truth)),
            (&benchmark_far.dataset, Some(&benchmark_far.truth)),
        ],
        FeatureWeights::default(),
    );
    println!("\nbenchmark suitability (profile × behavior):");
    for row in &rows {
        let bench = if row.candidate == "bench-close" {
            &benchmark_close
        } else {
            &benchmark_far
        };
        let bench_run = run_matcher(&bench.dataset, 0.6);
        let behavior = matcher_behavior_similarity(
            use_case.dataset.len(),
            &run.experiment,
            bench.dataset.len(),
            &bench_run.experiment,
        );
        let score = suitability_score(row, Some(behavior));
        println!(
            "  {:<12} profile-distance {:.3}, behavior-similarity {:.3} → suitability {:.3}",
            row.candidate, row.score, behavior, score
        );
    }
    assert_eq!(
        rows[0].candidate, "bench-close",
        "the similar benchmark should rank first"
    );
}
