//! Integration test spanning every crate: generate a dirty dataset,
//! run real matching pipelines, store and evaluate the results, and
//! exercise the exploration stack on top.

use frost::core::clustering::{Adjacency, Clustering};
use frost::core::diagram::DiagramEngine;
use frost::core::explore::{attribute_stats, judge_experiment, selection, setops};
use frost::core::metrics::pair::PairMetric;
use frost::core::profiling::DatasetProfile;
use frost::core::quality;
use frost::core::softkpi::{Effort, ExperimentKpis};
use frost::datagen::generator::{generate, GeneratorConfig};
use frost::matchers::blocking::{pair_completeness, Blocker, SortedNeighborhood, TokenBlocking};
use frost::matchers::decision::threshold::WeightedAverage;
use frost::matchers::features::Comparator;
use frost::matchers::pipeline::{ClusteringMethod, MatchingPipeline};
use frost::matchers::prepare::Preparer;
use frost::matchers::similarity::Measure;
use frost::storage::api::{handle, Request, Response};
use frost::storage::BenchmarkStore;

fn pipeline(name: &str, blocker: Box<dyn Blocker>, threshold: f64) -> MatchingPipeline {
    MatchingPipeline {
        name: name.into(),
        preparer: Some(Preparer::standard()),
        blocker,
        model: Box::new(WeightedAverage::new(
            [
                (Comparator::new("name", Measure::JaroWinkler), 2.0),
                (Comparator::new("description", Measure::TokenJaccard), 1.5),
                (Comparator::new("category", Measure::Exact), 0.5),
            ],
            threshold,
        )),
        clustering: ClusteringMethod::TransitiveClosure,
    }
}

#[test]
fn full_platform_round_trip() {
    let generated = generate(&GeneratorConfig::small("e2e", 400, 99));
    let ds = &generated.dataset;
    let truth = &generated.truth;

    // Two matching solutions with different blockers and thresholds.
    let token_run = pipeline(
        "token-run",
        Box::new(TokenBlocking {
            attributes: vec!["name".into(), "description".into()],
            max_token_frequency: 80,
        }),
        0.8,
    )
    .run(ds);
    let snm_run = pipeline(
        "snm-run",
        Box::new(SortedNeighborhood {
            key: frost::matchers::blocking::BlockingKey::FirstToken("name".into()),
            window: 8,
        }),
        0.75,
    )
    .run(ds);

    // Blocking quality is measurable on its own (§3.2.1).
    let completeness = pair_completeness(&token_run.candidates, truth);
    assert!(
        completeness > 0.5,
        "token blocking completeness {completeness}"
    );

    // Store everything, with per-experiment soft KPIs.
    let mut store = BenchmarkStore::new();
    store.add_dataset(ds.clone()).unwrap();
    store.set_gold_standard("e2e", truth.clone()).unwrap();
    store
        .add_experiment(
            "e2e",
            token_run.experiment.clone(),
            Some(ExperimentKpis {
                setup: Effort::new(0.5, 70),
                runtime_seconds: 0.2,
            }),
        )
        .unwrap();
    store
        .add_experiment("e2e", snm_run.experiment.clone(), None)
        .unwrap();

    // Metrics through the API facade.
    let Response::Metrics(metrics) = handle(
        &store,
        Request::GetMetrics {
            experiment: "token-run".into(),
        },
    )
    .unwrap() else {
        panic!("wrong response")
    };
    let f1 = metrics.iter().find(|(n, _)| n == "f1").unwrap().1;
    assert!(f1 > 0.4, "token-run f1 {f1}");

    // Diagram through the API; optimized and naive agree.
    for engine in [DiagramEngine::Optimized, DiagramEngine::Naive] {
        let Response::Diagram(points) = handle(
            &store,
            Request::GetDiagram {
                experiment: "token-run".into(),
                x: PairMetric::Recall,
                y: PairMetric::Precision,
                engine,
                samples: 10,
            },
        )
        .unwrap() else {
            panic!("wrong response")
        };
        assert_eq!(points.len(), 10);
    }
    let opt = store
        .diagram_series("token-run", DiagramEngine::Optimized, 10)
        .unwrap();
    let naive = store
        .diagram_series("token-run", DiagramEngine::Naive, 10)
        .unwrap();
    assert_eq!(opt, naive);

    // Venn comparison of both runs + gold standard.
    let Response::Venn(regions) = handle(
        &store,
        Request::CompareExperiments {
            experiments: vec!["token-run".into(), "snm-run".into()],
            include_gold: true,
        },
    )
    .unwrap() else {
        panic!("wrong response")
    };
    let total: usize = regions.iter().map(|(_, c)| c).sum();
    assert!(total > 0);
    // Regions partition the union of the three sets.
    let union_size = {
        let mut u = token_run.experiment.pair_set();
        u.extend(snm_run.experiment.pair_set());
        u.extend(truth.intra_pairs());
        u.len()
    };
    assert_eq!(total, union_size);

    // Exploration: judge, select, attribute stats.
    let judged = judge_experiment(&token_run.experiment, truth);
    let outliers = selection::misclassified_outliers(&judged, 0.8, 5);
    assert!(outliers.iter().all(|p| !p.correct()));
    let ratios = attribute_stats::null_ratio(ds, &judged);
    assert_eq!(ratios.len(), ds.schema().len());

    // Ground-truth-free quality signals rank a good run above noise.
    let noise = frost::datagen::experiments::synthetic_experiment(
        "noise",
        truth,
        token_run.experiment.len().max(10),
        0.0,
        5,
    );
    let consensus = |e: &frost::core::dataset::Experiment| {
        let closure = Clustering::from_experiment(ds.len(), e);
        quality::algorithm_consensus(&closure, e, &Adjacency::new(ds.len(), e.pairs()))
    };
    let good_consensus = consensus(&token_run.experiment);
    let _ = consensus(&noise);
    assert!(good_consensus > 0.5);

    // Profiling through the API.
    let Response::Profile(profile) = handle(
        &store,
        Request::ProfileDataset {
            dataset: "e2e".into(),
        },
    )
    .unwrap() else {
        panic!("wrong response")
    };
    assert_eq!(profile.tuple_count, 400);
    assert!(profile.positive_ratio.is_some());

    // Hard pairs: every truth pair missed by both runs.
    let truth_pairs: frost::core::dataset::PairSet = truth.intra_pairs().collect();
    let hard = setops::hard_pairs(
        &truth_pairs,
        &[&token_run.experiment, &snm_run.experiment],
        0,
    );
    // Hard pairs + found pairs cover the ground truth.
    assert!(hard.len() <= truth_pairs.len());

    // Stored profile of the dataset directly.
    let direct = DatasetProfile::with_truth(ds, truth);
    assert_eq!(direct.tuple_count, profile.tuple_count);
}

#[test]
fn fusion_after_matching_shrinks_dataset() {
    let generated = generate(&GeneratorConfig::small("fuse", 200, 5));
    let run = pipeline(
        "fuser",
        Box::new(TokenBlocking {
            attributes: vec!["name".into()],
            max_token_frequency: 60,
        }),
        0.85,
    )
    .run(&generated.dataset);
    let fused = frost::matchers::fusion::fuse(
        &generated.dataset,
        &run.clustering,
        &frost::matchers::fusion::FusionConfig::default(),
    );
    assert_eq!(fused.len(), run.clustering.num_clusters());
    assert!(fused.len() < generated.dataset.len());
    assert_eq!(fused.schema(), generated.dataset.schema());
}

#[test]
fn effort_study_feeds_soft_kpi_curves() {
    let generated = generate(&GeneratorConfig::small("effort", 150, 17));
    let tuner = frost::matchers::tuning::Tuner {
        solution: "study".into(),
        basic_comparators: vec![Comparator::new("name", Measure::TokenJaccard)],
        advanced_comparators: vec![Comparator::new("description", Measure::TokenJaccard)],
        steps: 20,
        hours_per_step: 1.0,
        breakthrough_step: 6,
        seed: 3,
        initial_threshold: 0.7,
    };
    let outcome = tuner.run(&generated.dataset, &generated.truth);
    let curve = frost::core::softkpi::EffortCurve::new("study", outcome.best_trace);
    assert!(curve.breakthrough().is_some());
    assert!(curve.plateau_start(0.05).is_some());
    let final_f1 = curve.running_max().last().unwrap().metric;
    assert!(final_f1 > 0.2, "tuned f1 {final_f1}");
}
