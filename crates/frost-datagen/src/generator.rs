//! Dirty-dataset generation with gold standards.
//!
//! A generated dataset consists of *entities* (clean base records) some
//! of which appear multiple times as corrupted duplicates. The generator
//! controls every profile feature of §3.1.3 / Appendix C.1:
//!
//! * **TC** — `num_records`.
//! * **SP** — per-cell null probability.
//! * **TX** — words per attribute value (per-attribute ranges).
//! * **PR** / cluster structure — duplicate fraction and cluster-size
//!   model.
//! * **VS** — the vocabulary window (see
//!   [`Vocabulary::offset_for_jaccard`](crate::words::Vocabulary)).

use crate::corrupt::corrupt_value;
use crate::words::Vocabulary;
use frost_core::clustering::Clustering;
use frost_core::dataset::{Dataset, Schema};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// How duplicate-cluster sizes are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ClusterSizeModel {
    /// `2 + Geometric(p)`, capped at `max` (realistic long-tail).
    Geometric {
        /// Success probability; higher `p` → smaller clusters.
        p: f64,
        /// Maximum cluster size.
        max: usize,
    },
    /// All duplicate clusters have exactly this size (≥ 2).
    Fixed(usize),
}

impl ClusterSizeModel {
    fn sample(&self, rng: &mut impl Rng) -> usize {
        match *self {
            ClusterSizeModel::Geometric { p, max } => {
                assert!((0.0..1.0).contains(&p) && p > 0.0, "p must be in (0,1)");
                let mut size = 2usize;
                while size < max && rng.gen::<f64>() > p {
                    size += 1;
                }
                size
            }
            ClusterSizeModel::Fixed(k) => {
                assert!(k >= 2, "a duplicate cluster has at least 2 members");
                k
            }
        }
    }
}

/// One attribute of the generated schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttributeSpec {
    /// Attribute name.
    pub name: String,
    /// Minimum words per value.
    pub min_words: usize,
    /// Maximum words per value (inclusive).
    pub max_words: usize,
}

impl AttributeSpec {
    /// Creates an attribute spec.
    pub fn new(name: impl Into<String>, min_words: usize, max_words: usize) -> Self {
        assert!(
            min_words >= 1 && max_words >= min_words,
            "invalid word range"
        );
        Self {
            name: name.into(),
            min_words,
            max_words,
        }
    }
}

/// Full generator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Dataset name.
    pub name: String,
    /// Total records (TC).
    pub num_records: usize,
    /// Attribute specifications (controls TX and schema complexity).
    pub attributes: Vec<AttributeSpec>,
    /// Fraction of records that belong to a duplicate cluster.
    pub duplicate_fraction: f64,
    /// Cluster-size model for duplicate clusters.
    pub cluster_sizes: ClusterSizeModel,
    /// Per-cell null probability (SP).
    pub sparsity: f64,
    /// Corruptions applied to every value of every duplicate copy.
    pub corruptions_per_value: usize,
    /// Vocabulary window (size + offset control VS between datasets).
    pub vocabulary: Vocabulary,
    /// RNG seed — generation is fully reproducible.
    pub seed: u64,
}

impl GeneratorConfig {
    /// A small, sane default configuration for tests and examples.
    pub fn small(name: impl Into<String>, num_records: usize, seed: u64) -> Self {
        Self {
            name: name.into(),
            num_records,
            attributes: vec![
                AttributeSpec::new("name", 2, 3),
                AttributeSpec::new("description", 3, 8),
                AttributeSpec::new("category", 1, 1),
            ],
            duplicate_fraction: 0.3,
            cluster_sizes: ClusterSizeModel::Geometric { p: 0.6, max: 6 },
            sparsity: 0.1,
            corruptions_per_value: 1,
            vocabulary: Vocabulary::new(0, 2000),
            seed,
        }
    }
}

/// A generated dataset with its gold standard.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The dirty dataset.
    pub dataset: Dataset,
    /// The ground-truth duplicate clustering.
    pub truth: Clustering,
}

/// Generates a dataset per the configuration.
pub fn generate(config: &GeneratorConfig) -> Generated {
    assert!(
        (0.0..=1.0).contains(&config.duplicate_fraction),
        "duplicate_fraction must be in [0,1]"
    );
    assert!(
        (0.0..=1.0).contains(&config.sparsity),
        "sparsity must be in [0,1]"
    );
    assert!(!config.attributes.is_empty(), "need at least one attribute");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.num_records;
    let target_duplicated = (n as f64 * config.duplicate_fraction).round() as usize;

    // Plan cluster sizes: duplicate clusters first, then singletons.
    let mut sizes: Vec<usize> = Vec::new();
    let mut used = 0usize;
    while used < target_duplicated {
        let mut s = config.cluster_sizes.sample(&mut rng);
        if used + s > n {
            s = n - used;
            if s < 2 {
                break;
            }
        }
        sizes.push(s);
        used += s;
    }
    while used < n {
        sizes.push(1);
        used += 1;
    }

    // Generate one base entity per cluster and corrupt the copies.
    // rows: (cluster label, values).
    let mut rows: Vec<(u32, Vec<Option<String>>)> = Vec::with_capacity(n);
    for (label, &size) in sizes.iter().enumerate() {
        let base: Vec<String> = config
            .attributes
            .iter()
            .map(|spec| {
                let words = rng.gen_range(spec.min_words..=spec.max_words);
                (0..words)
                    .map(|_| config.vocabulary.sample(&mut rng))
                    .collect::<Vec<String>>()
                    .join(" ")
            })
            .collect();
        for copy in 0..size {
            let values: Vec<Option<String>> = base
                .iter()
                .map(|v| {
                    if rng.gen::<f64>() < config.sparsity {
                        return None;
                    }
                    if copy == 0 {
                        Some(v.clone())
                    } else {
                        Some(corrupt_value(v, config.corruptions_per_value, &mut rng))
                    }
                })
                .collect();
            rows.push((label as u32, values));
        }
    }

    // Shuffle so cluster members are scattered through the dataset.
    rows.shuffle(&mut rng);

    let schema = Schema::new(config.attributes.iter().map(|a| a.name.clone()));
    let mut dataset = Dataset::with_capacity(config.name.clone(), schema, rows.len());
    let mut labels = Vec::with_capacity(rows.len());
    for (i, (label, values)) in rows.into_iter().enumerate() {
        dataset.push_record_opt(format!("{}-{i}", config.name), values);
        labels.push(label);
    }
    Generated {
        dataset,
        truth: Clustering::from_assignment(&labels),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frost_core::profiling;

    #[test]
    fn generates_requested_size_and_clusters() {
        let g = generate(&GeneratorConfig::small("t", 200, 1));
        assert_eq!(g.dataset.len(), 200);
        assert_eq!(g.truth.num_records(), 200);
        let stats = profiling::ClusterStats::from_clustering(&g.truth);
        assert!(stats.duplicate_clusters > 5);
        // Roughly 30% of records duplicated (generation rounds per cluster).
        assert!(
            (stats.duplicated_records as f64 - 60.0).abs() < 20.0,
            "duplicated {}",
            stats.duplicated_records
        );
    }

    #[test]
    fn generation_is_reproducible() {
        let cfg = GeneratorConfig::small("t", 100, 7);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.dataset, b.dataset);
        assert_eq!(a.truth, b.truth);
        // Different seed → different data.
        let c = generate(&GeneratorConfig::small("t", 100, 8));
        assert_ne!(a.dataset.columns(), c.dataset.columns());
    }

    #[test]
    fn sparsity_target_is_hit() {
        let mut cfg = GeneratorConfig::small("t", 2000, 3);
        cfg.sparsity = 0.4;
        let g = generate(&cfg);
        let sp = profiling::sparsity(&g.dataset);
        assert!((sp - 0.4).abs() < 0.03, "sparsity {sp}");
    }

    #[test]
    fn textuality_tracks_word_ranges() {
        let mut cfg = GeneratorConfig::small("t", 1000, 4);
        cfg.attributes = vec![AttributeSpec::new("long", 10, 14)];
        cfg.sparsity = 0.0;
        cfg.corruptions_per_value = 0;
        let g = generate(&cfg);
        let tx = profiling::textuality(&g.dataset);
        assert!((tx - 12.0).abs() < 0.5, "textuality {tx}");
    }

    #[test]
    fn duplicates_resemble_their_base() {
        let mut cfg = GeneratorConfig::small("t", 100, 5);
        cfg.sparsity = 0.0;
        cfg.corruptions_per_value = 1;
        let g = generate(&cfg);
        // Every duplicate pair should share most tokens in most attributes.
        let mut checked = 0;
        for cluster in g.truth.duplicate_clusters() {
            let a = g.dataset.record(cluster[0]);
            let b = g.dataset.record(cluster[1]);
            let ta: std::collections::HashSet<&str> = a.tokens().collect();
            let tb: std::collections::HashSet<&str> = b.tokens().collect();
            // Both members may be corrupted copies (one corruption per
            // value each), so allow substantial but not total drift.
            let inter = ta.intersection(&tb).count() as f64;
            let union = (ta.len() + tb.len()) as f64 - inter;
            assert!(
                inter / union > 0.15,
                "cluster too dissimilar: {ta:?} vs {tb:?}"
            );
            checked += 1;
        }
        assert!(checked > 0);
    }

    #[test]
    fn fixed_cluster_sizes() {
        let mut cfg = GeneratorConfig::small("t", 100, 6);
        cfg.cluster_sizes = ClusterSizeModel::Fixed(4);
        cfg.duplicate_fraction = 0.4;
        let g = generate(&cfg);
        for c in g.truth.duplicate_clusters() {
            assert_eq!(c.len(), 4);
        }
    }

    #[test]
    fn vocabulary_offset_controls_overlap() {
        let mut a_cfg = GeneratorConfig::small("a", 500, 9);
        let mut b_cfg = GeneratorConfig::small("b", 500, 10);
        let size = 2000;
        let offset = Vocabulary::offset_for_jaccard(size, 0.5);
        a_cfg.vocabulary = Vocabulary::new(0, size);
        b_cfg.vocabulary = Vocabulary::new(offset, size);
        let a = generate(&a_cfg);
        let b = generate(&b_cfg);
        let vs = profiling::vocabulary_similarity(&a.dataset, &b.dataset);
        // Zipf sampling does not use the whole window uniformly, so allow
        // slack — but the overlap must be far from 0 and from 1.
        assert!(vs > 0.2 && vs < 0.9, "VS {vs}");
    }

    #[test]
    #[should_panic(expected = "duplicate_fraction")]
    fn bad_duplicate_fraction_panics() {
        let mut cfg = GeneratorConfig::small("t", 10, 1);
        cfg.duplicate_fraction = 1.5;
        generate(&cfg);
    }
}
