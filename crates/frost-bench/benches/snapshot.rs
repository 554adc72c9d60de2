//! Snapshot and serving-cache benchmarks: the measurements behind the
//! `frost-server` subsystem.
//!
//! ```text
//! cargo bench -p frost-bench --bench snapshot             # smoke scale
//! FROST_SCALE=1 cargo bench -p frost-bench --bench snapshot
//! ```
//!
//! Sections:
//!
//! 1. **Snapshot load vs CSV import** — the start-up path. The CSV
//!    path is `persist::load`: byte-level CSV reading, id interning,
//!    per-experiment union-find and roaring-arena construction. The
//!    snapshot path is `snapshot::load`: one sequential read plus
//!    varint decoding straight into the arenas. The `FROSTB` format
//!    exists to make this ratio large; the run **hard-asserts ≥ 3×**
//!    at smoke scale and records the ratio as `snapshot_load.speedup`
//!    for the CI gate (`FROST_BENCH_BASELINE`, −25% floor).
//! 2. **Cache hit vs recompute** — the serving path. A cache hit on a
//!    rendered diagram body versus recomputing the series and
//!    re-rendering it on the loaded store (what every request would
//!    pay without the generation-stamped cache; the store memoizes
//!    nothing).
//!
//! Results land in `BENCH_snapshot.json` (`FROST_BENCH_OUT`
//! overrides), with the CPU count (`nproc`) and the best-of iteration
//! counts of each section.

use frost_datagen::experiments::synthetic_experiment;
use frost_datagen::generator::generate;
use frost_storage::cache::ShardedCache;
use frost_storage::{persist, snapshot, BenchmarkStore};
use serde_json::Value;
use std::sync::Arc;
use std::time::Instant;

/// Best-of-`n` wall-clock seconds for `f`, with the result kept alive.
fn time_best<T>(n: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..n {
        let start = Instant::now();
        let out = f();
        best = best.min(start.elapsed().as_secs_f64());
        last = Some(out);
    }
    (best, last.expect("n > 0"))
}

fn build_store(scale: f64) -> BenchmarkStore {
    let mut store = BenchmarkStore::new();
    for preset in [
        frost_datagen::presets::cora(scale),
        frost_datagen::presets::freedb_cds(scale),
        frost_datagen::presets::altosight_x4(scale),
    ] {
        let generated = generate(&preset.config);
        let name = generated.dataset.name().to_string();
        let records = generated.dataset.len();
        store
            .add_dataset(generated.dataset)
            .expect("distinct presets");
        store
            .set_gold_standard(&name, generated.truth)
            .expect("dataset just added");
        let truth = store.gold_standard(&name).expect("just set").clone();
        // Four experiments per dataset at different quality levels,
        // each proposing ~2 matches per record — the shape a
        // benchmarking store accumulates (matcher outputs scale with
        // the dataset, and §4's views hold several runs per dataset).
        for (i, fraction) in [(1, 0.95), (2, 0.8), (3, 0.6), (4, 0.4)] {
            let exp = synthetic_experiment(
                format!("{name}-run{i}"),
                &truth,
                (records * 2).max(8),
                fraction,
                1000 + i as u64,
            );
            store
                .add_experiment(&name, exp, None)
                .expect("distinct names");
        }
    }
    store
}

fn main() {
    let scale = frost_bench::scale_from_env();
    println!("building store (scale {scale}) ...");
    let store = build_store(scale);
    let records: usize = store
        .dataset_names()
        .iter()
        .map(|n| store.dataset(n).unwrap().len())
        .sum();
    let experiments = store.experiment_names(None);
    let pairs: usize = experiments
        .iter()
        .map(|n| store.experiment(n).unwrap().experiment.len())
        .sum();
    println!(
        "{records} records, {} experiments, {pairs} pairs",
        experiments.len()
    );

    let dir = std::env::temp_dir().join(format!("frost-bench-snapshot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let csv_dir = dir.join("store");
    let snap_path = dir.join("store.frostb");

    // ---- Section 1: start-up paths ----
    let iters = if scale >= 0.5 { 3 } else { 7 };
    let (csv_save_s, ()) = time_best(iters, || persist::save(&store, &csv_dir).expect("csv save"));
    let (snap_save_s, ()) = time_best(iters, || {
        snapshot::save(&store, &snap_path).expect("snapshot save")
    });
    let (csv_load_s, csv_loaded) = time_best(iters, || persist::load(&csv_dir).expect("csv load"));
    let (snap_load_s, snap_loaded) =
        time_best(iters, || snapshot::load(&snap_path).expect("snapshot load"));

    // Both paths restore the same store (spot check).
    assert_eq!(csv_loaded.dataset_names(), snap_loaded.dataset_names());
    assert_eq!(
        csv_loaded.experiment_names(None),
        snap_loaded.experiment_names(None)
    );
    for name in &experiments {
        assert_eq!(
            csv_loaded.experiment(name).unwrap().pair_set,
            snap_loaded.experiment(name).unwrap().pair_set,
            "loaded pair sets must agree"
        );
    }

    let csv_bytes: u64 = walk_bytes(&csv_dir);
    let snap_bytes = std::fs::metadata(&snap_path).map(|m| m.len()).unwrap_or(0);
    let speedup = csv_load_s / snap_load_s;
    println!("csv   save {csv_save_s:.4}s  load {csv_load_s:.4}s  ({csv_bytes} bytes)");
    println!("frostb save {snap_save_s:.4}s  load {snap_load_s:.4}s  ({snap_bytes} bytes)");
    println!("snapshot load speedup vs CSV import + rebuild: {speedup:.1}×");
    if scale >= 0.05 {
        assert!(
            speedup >= 3.0,
            "snapshot load must be ≥ 3× faster than the CSV path (got {speedup:.2}×)"
        );
    }

    // ---- Section 2: cache hit vs recompute ----
    let cache: ShardedCache = ShardedCache::new(16);
    let diagram_exp = &experiments[0];
    let samples = 20;
    let render = |store: &BenchmarkStore| {
        let points = store
            .diagram_series(
                diagram_exp,
                frost_core::diagram::DiagramEngine::Optimized,
                samples,
            )
            .expect("diagram");
        let mut body = String::with_capacity(points.len() * 32);
        for p in &points {
            body.push_str(&format!(
                "{},{},{};",
                p.threshold, p.matrix.true_positives, p.matrix.false_positives
            ));
        }
        body
    };
    // Miss path: full recompute + render on the loaded store.
    let miss_iters = if scale >= 0.5 { 5 } else { 20 };
    let (miss_s, body) = time_best(miss_iters, || render(&store));
    let generation = cache.begin();
    cache.insert("diagram", Arc::from(body.as_str()), generation);
    let (hit_s, hit) = time_best(miss_iters, || cache.get("diagram").expect("cached"));
    assert_eq!(hit.as_ref(), body);
    let cache_speedup = miss_s / hit_s;
    println!(
        "cache: recompute {:.1}µs vs hit {:.3}µs ({cache_speedup:.0}×, hits {})",
        miss_s * 1e6,
        hit_s * 1e6,
        cache.hits()
    );
    assert!(cache.hits() >= 1);

    // ---- BENCH_snapshot.json + gate ----
    let doc = Value::object([
        ("scale".to_string(), Value::from(scale)),
        ("nproc".to_string(), Value::from(frost_bench::nproc())),
        (
            "iterations".to_string(),
            Value::object([
                ("save_load".to_string(), Value::from(iters)),
                ("cache".to_string(), Value::from(miss_iters)),
            ]),
        ),
        ("records".to_string(), Value::from(records)),
        ("experiments".to_string(), Value::from(experiments.len())),
        ("pairs".to_string(), Value::from(pairs)),
        (
            "csv".to_string(),
            Value::object([
                ("save_seconds".to_string(), Value::from(csv_save_s)),
                ("load_seconds".to_string(), Value::from(csv_load_s)),
                ("bytes".to_string(), Value::from(csv_bytes)),
            ]),
        ),
        (
            "snapshot".to_string(),
            Value::object([
                ("save_seconds".to_string(), Value::from(snap_save_s)),
                ("load_seconds".to_string(), Value::from(snap_load_s)),
                ("bytes".to_string(), Value::from(snap_bytes)),
            ]),
        ),
        (
            "snapshot_load".to_string(),
            Value::object([("speedup".to_string(), Value::from(speedup))]),
        ),
        (
            "cache".to_string(),
            Value::object([
                ("recompute_seconds".to_string(), Value::from(miss_s)),
                ("hit_seconds".to_string(), Value::from(hit_s)),
                ("speedup".to_string(), Value::from(cache_speedup)),
            ]),
        ),
    ]);
    let workspace_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out_path = match std::env::var("FROST_BENCH_OUT") {
        Ok(p) if std::path::Path::new(&p).is_absolute() => std::path::PathBuf::from(p),
        Ok(p) => workspace_root.join(p),
        Err(_) => workspace_root.join("BENCH_snapshot.json"),
    };
    std::fs::write(&out_path, serde_json::to_string_pretty(&doc)).expect("write bench json");
    println!("wrote {}", out_path.display());
    let _ = std::fs::remove_dir_all(&dir);

    // Regression gate: the `snapshot_load` entry of the smoke bench
    // gate. Same shape as the pairset gate — scale-matched baseline,
    // −25% floor on the recorded speedup.
    if let Ok(baseline_env) = std::env::var("FROST_BENCH_BASELINE") {
        let mut baseline_path = std::path::PathBuf::from(&baseline_env);
        if !baseline_path.exists() {
            baseline_path = workspace_root.join(&baseline_env);
        }
        let baseline: Value = serde_json::from_str(
            &std::fs::read_to_string(&baseline_path).expect("read baseline json"),
        )
        .expect("parse baseline json");
        let recorded_scale = baseline.get("scale").and_then(Value::as_f64).unwrap_or(1.0);
        let recorded = baseline
            .get("snapshot_load")
            .and_then(|v| v.get("speedup"))
            .and_then(Value::as_f64)
            .expect("baseline missing snapshot_load.speedup");
        if !(recorded_scale / 1.5..=recorded_scale * 1.5).contains(&scale) {
            println!(
                "baseline gate skipped: baseline recorded at scale {recorded_scale}, this run at {scale}"
            );
        } else {
            let floor = recorded * 0.75;
            println!(
                "baseline gate (snapshot_load): {speedup:.1}× vs recorded {recorded:.1}× (floor {floor:.1}×)"
            );
            if speedup < floor {
                eprintln!(
                    "REGRESSION: snapshot-load speedup {speedup:.1}× fell more than 25% below the recorded {recorded:.1}×"
                );
                std::process::exit(1);
            }
        }
    }
}

fn walk_bytes(dir: &std::path::Path) -> u64 {
    let mut total = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                total += walk_bytes(&path);
            } else {
                total += entry.metadata().map(|m| m.len()).unwrap_or(0);
            }
        }
    }
    total
}
