//! **Table 1** — Runtime of metric/metric diagrams: Snowman's optimized
//! algorithm (Appendix D) vs the naïve per-threshold approach, on five
//! datasets spanning 835 … 1 000 000 records, 100 similarity thresholds.
//!
//! ```text
//! cargo run --release -p frost-bench --bin table1_runtime          # scaled (FROST_SCALE=0.05)
//! FROST_SCALE=1 cargo run --release -p frost-bench --bin table1_runtime   # paper-sized
//! ```
//!
//! Expected shape (not absolute numbers — the paper measured TypeScript
//! on a laptop): the optimized algorithm wins on every dataset and its
//! advantage grows with dataset size (paper: 9× → 66×).
//!
//! Every row asserts that both engines return the same series, so the
//! binary doubles as an equality check of the two engines on all five
//! presets.

use frost_bench::{fmt_duration, materialize, scale_from_env};
use frost_core::diagram::DiagramEngine;
use frost_datagen::experiments::synthetic_experiment;
use frost_datagen::presets::table1_presets;
use std::time::Instant;

fn main() {
    let scale = scale_from_env();
    let s = 100; // similarity thresholds per diagram, as in the paper
    println!("Table 1: Runtime of Metric/Metric Diagrams ({s} thresholds, scale {scale})");
    println!(
        "{:<16} {:>10} {:>14} {:>12} {:>12} {:>9}",
        "Dataset", "Records", "Matched pairs", "Custom", "Naive", "Speedup"
    );
    for preset in table1_presets(scale) {
        let gen = materialize(&preset);
        let n = gen.dataset.len();
        let experiment = synthetic_experiment(
            format!("{}-exp", preset.config.name),
            &gen.truth,
            preset.matched_pairs,
            0.7,
            preset.config.seed ^ 0xbead,
        );

        // Measure: optimized vs naive. Both engines run on this
        // thread, so the ratio compares the algorithms, not the host's
        // parallelism.
        let t0 = Instant::now();
        let optimized = DiagramEngine::Optimized.confusion_series(n, &gen.truth, &experiment, s);
        let custom_time = t0.elapsed();

        let t1 = Instant::now();
        let naive = DiagramEngine::Naive.confusion_series(n, &gen.truth, &experiment, s);
        let naive_time = t1.elapsed();

        assert_eq!(
            optimized, naive,
            "engines disagree on {}",
            preset.config.name
        );
        let speedup = naive_time.as_secs_f64() / custom_time.as_secs_f64().max(1e-9);
        println!(
            "{:<16} {:>10} {:>14} {:>12} {:>12} {:>8.0}x",
            preset.config.name,
            n,
            experiment.len(),
            fmt_duration(custom_time),
            fmt_duration(naive_time),
            speedup
        );
    }

    println!();
    println!("Paper (Snowman v3.2.0, TypeScript, i5 laptop):");
    println!("  Altosight X4       835    4 005   184ms    1.7s      9x");
    println!("  HPI Cora         1 879    5 067   245ms    7.4s     30x");
    println!("  FreeDB CDs       9 763      147   293ms   16.4s     56x");
    println!("  Songs 100k     100 000   45 801    1.6s   43.9s     28x");
    println!("  Magellan Songs 1000 000  144 349    6.1s  6min 43s  66x");
}
