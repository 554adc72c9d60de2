//! Property-based tests of the dataset generator and synthetic
//! experiments.

use frost_datagen::experiments::{labeled_candidates, synthetic_experiment};
use frost_datagen::generator::{generate, AttributeSpec, ClusterSizeModel, GeneratorConfig};
use frost_datagen::words::{word, Vocabulary};
use proptest::prelude::*;

fn config_strategy() -> impl Strategy<Value = GeneratorConfig> {
    (
        20usize..150,
        0.0f64..0.8,
        0.0f64..0.6,
        0usize..3,
        1u64..1000,
    )
        .prop_map(|(n, dup, sparsity, corruptions, seed)| GeneratorConfig {
            name: "prop".into(),
            num_records: n,
            attributes: vec![AttributeSpec::new("a", 1, 3), AttributeSpec::new("b", 2, 5)],
            duplicate_fraction: dup,
            cluster_sizes: ClusterSizeModel::Geometric { p: 0.5, max: 6 },
            sparsity,
            corruptions_per_value: corruptions,
            vocabulary: Vocabulary::new(0, 500),
            seed,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generation is total and structurally sound for any configuration.
    #[test]
    fn generator_invariants(cfg in config_strategy()) {
        let g = generate(&cfg);
        prop_assert_eq!(g.dataset.len(), cfg.num_records);
        prop_assert_eq!(g.truth.num_records(), cfg.num_records);
        // Every record belongs to exactly one cluster and the clusters
        // cover the dataset.
        let covered: usize = g.truth.clusters().map(<[_]>::len).sum();
        prop_assert_eq!(covered, cfg.num_records);
        // Native ids resolve back to their records.
        for (id, _) in g.dataset.iter() {
            prop_assert_eq!(g.dataset.resolve_native(g.dataset.native_id(id)), Some(id));
        }
        // Cluster sizes respect the model's cap.
        for c in g.truth.duplicate_clusters() {
            prop_assert!(c.len() <= 6);
        }
    }

    /// The same seed reproduces the dataset; the measured sparsity lands
    /// near the configured target on non-trivial datasets.
    #[test]
    fn generator_determinism_and_sparsity(cfg in config_strategy()) {
        let a = generate(&cfg);
        let b = generate(&cfg);
        prop_assert_eq!(&a.dataset, &b.dataset);
        if cfg.num_records >= 100 {
            let sp = frost_core::profiling::sparsity(&a.dataset);
            prop_assert!((sp - cfg.sparsity).abs() < 0.15, "target {} got {sp}", cfg.sparsity);
        }
    }

    /// Synthetic experiments deliver the requested size (when the pair
    /// space allows), valid scores, and no duplicate pairs.
    #[test]
    fn synthetic_experiment_invariants(
        cfg in config_strategy(),
        m in 1usize..60,
        quality in 0.0f64..1.0,
    ) {
        let g = generate(&cfg);
        let e = synthetic_experiment("s", &g.truth, m, quality, cfg.seed ^ 1);
        prop_assert!(e.len() <= m);
        let mut seen = std::collections::HashSet::new();
        for sp in e.pairs() {
            prop_assert!(seen.insert(sp.pair));
            let s = sp.similarity.expect("synthetic pairs are scored");
            prop_assert!((0.0..=1.0).contains(&s));
            prop_assert!(sp.pair.hi().index() < g.dataset.len());
        }
    }

    /// Labelled candidates are truthful and hit the positive target when
    /// enough true pairs exist.
    #[test]
    fn labeled_candidates_truthful(cfg in config_strategy(), pr in 0.0f64..0.3) {
        let g = generate(&cfg);
        let labeled = labeled_candidates(&g.truth, 80, pr, cfg.seed ^ 2);
        for &(p, l) in &labeled {
            prop_assert_eq!(g.truth.same_cluster(p.lo(), p.hi()), l);
        }
        let want = ((80.0 * pr).round() as usize).min(g.truth.pair_count() as usize);
        let got = labeled.iter().filter(|(_, l)| *l).count();
        prop_assert_eq!(got, want);
    }

    /// The synthetic vocabulary is collision-free over large ranges.
    #[test]
    fn words_unique(i in 0usize..50_000, j in 0usize..50_000) {
        if i != j {
            prop_assert_ne!(word(i), word(j), "collision at {} / {}", i, j);
        }
    }
}
