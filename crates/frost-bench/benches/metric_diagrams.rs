//! Criterion benchmark for Table 1's workload: the optimized
//! metric/metric-diagram algorithm (Appendix D) against the naïve
//! per-threshold baseline, across dataset sizes.
//!
//! Run `cargo bench -p frost-bench`. Sizes are scaled versions of the
//! paper's rows; set `FROST_SCALE` to adjust. The `served_shape` group
//! is not scaled: it sweeps the two experiment shapes `frostd` serves a
//! cold `/diagram` for (see [`bench_served_shapes`]).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use frost_core::clustering::Clustering;
use frost_core::dataset::Experiment;
use frost_core::diagram::DiagramEngine;
use frost_datagen::experiments::synthetic_experiment;
use frost_datagen::generator::generate;
use frost_datagen::presets::{altosight_x4, cora, freedb_cds, songs_100k};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn bench_engines(c: &mut Criterion) {
    let scale: f64 = std::env::var("FROST_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.1);
    let s = 100;
    let mut group = c.benchmark_group("metric_diagrams");
    group.sample_size(10);

    for preset in [
        altosight_x4(scale.max(0.5)),
        cora(scale.max(0.5)),
        freedb_cds(scale),
        songs_100k(scale),
    ] {
        let gen = generate(&preset.config);
        let n = gen.dataset.len();
        let experiment = synthetic_experiment(
            "bench",
            &gen.truth,
            preset.matched_pairs,
            0.7,
            preset.config.seed,
        );
        let matches = experiment.len();
        group.bench_with_input(
            BenchmarkId::new(
                "optimized",
                format!("{}-n{n}-m{matches}", preset.config.name),
            ),
            &(),
            |b, _| {
                b.iter(|| DiagramEngine::Optimized.confusion_series(n, &gen.truth, &experiment, s))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("naive", format!("{}-n{n}-m{matches}", preset.config.name)),
            &(),
            |b, _| b.iter(|| DiagramEngine::Naive.confusion_series(n, &gen.truth, &experiment, s)),
        );
    }
    group.finish();
}

/// One optimized `s = 250` sweep over each of the two shapes a served
/// cold `/diagram` sweeps, on 20 000 records in gold clusters of 1–4
/// (about 0.75 gold pairs per record):
///
/// * `sparse` — about as many matches as gold pairs, 80 % of them gold
///   pairs and the rest pairs between neighbouring gold clusters, so
///   every closure stays within four gold clusters;
/// * `hub` — 48 hub records with 280 random partners each: the closure
///   is one giant cluster spanning thousands of gold clusters, which
///   catches a ground-truth tally whose merge has turned quadratic.
fn bench_served_shapes(c: &mut Criterion) {
    const RECORDS: usize = 20_000;
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut labels = Vec::with_capacity(RECORDS);
    let mut members: Vec<Vec<u32>> = Vec::new();
    while labels.len() < RECORDS {
        let size = [1, 1, 1, 1, 2, 2, 2, 3, 3, 4][rng.gen_range(0..10)].min(RECORDS - labels.len());
        labels.extend(std::iter::repeat_n(members.len() as u32, size));
        members.push(Vec::new());
    }
    labels.shuffle(&mut rng);
    for (r, &g) in labels.iter().enumerate() {
        members[g as usize].push(r as u32);
    }
    let truth = Clustering::from_assignment(&labels);

    let mut gold: Vec<(u32, u32)> = truth.intra_pairs().map(|p| (p.lo().0, p.hi().0)).collect();
    gold.shuffle(&mut rng);
    let trues = gold.len() * 4 / 5;
    let mut sparse: Vec<(u32, u32, f64)> = gold[..trues]
        .iter()
        .map(|&(a, b)| (a, b, rng.gen_range(0.45..1.0)))
        .collect();
    while sparse.len() < gold.len() {
        let a = rng.gen_range(0..RECORDS as u32);
        let other = (labels[a as usize] & !3) | rng.gen_range(0..4u32);
        if let Some(candidates) = members.get(other as usize) {
            let b = candidates[rng.gen_range(0..candidates.len())];
            if labels[b as usize] != labels[a as usize] {
                sparse.push((a, b, rng.gen_range(0.0..0.8)));
            }
        }
    }
    let hubs = 48u32;
    let hub: Vec<(u32, u32, f64)> = (0..hubs)
        .flat_map(|h| (0..280).map(move |_| h))
        .map(|h| (h, rng.gen_range(hubs..RECORDS as u32), rng.gen::<f64>()))
        .collect();

    let mut group = c.benchmark_group("served_shape");
    for (shape, triples) in [("sparse", sparse), ("hub", hub)] {
        let experiment = Experiment::from_scored_pairs(shape, triples);
        let id = format!("{shape}-n{RECORDS}-m{}", experiment.len());
        group.bench_function(BenchmarkId::new("optimized_s250", id), |b| {
            b.iter(|| DiagramEngine::Optimized.confusion_series(RECORDS, &truth, &experiment, 250))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engines, bench_served_shapes);
criterion_main!(benches);
