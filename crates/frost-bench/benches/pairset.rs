//! Pair-set engine benchmarks: the two-level `RoaringPairSet` vs the
//! single-level `ChunkedPairSet` vs packed `PairSet` vs the seed's
//! `HashSet<RecordPair>` baseline, plus galloping-threshold tuning,
//! memory footprints and matching-pipeline core scaling — the
//! measurements behind this repo's `BENCH_pairset.json`.
//!
//! ```text
//! cargo bench -p frost-bench --bench pairset            # smoke scale
//! FROST_SCALE=1 cargo bench -p frost-bench --bench pairset   # full sizes
//! ```
//!
//! Sections:
//!
//! 1. **Set operations** on three workloads × four engines: union,
//!    intersection, difference, 3-set Venn regions, expression-tree TP
//!    and confusion-matrix TP counting. Workloads: `uniform-250k` and
//!    `uniform-2.5m` (uniformly sparse chunks — packed's home turf and
//!    the roaring engine's target shape) and `dense-2.5m` (few `lo`
//!    ids with thousands of partners each — bitmap containers dominate
//!    at full scale).
//! 2. **Galloping-ratio tuning**: scalar merge vs galloping
//!    intersection head-to-head across size ratios; the crossover
//!    backs the `GALLOP_RATIO` constant all engines share. The
//!    **equal-merge** subsection adds the four-lane column: the
//!    production unrolled 4-lane equal-size intersection
//!    (`PairSet::intersection_len`) against the two-lane bidirectional
//!    merge on identical equal-size data.
//! 3. **Memory footprint**: bytes/pair for each engine and workload
//!    (hash estimated from hashbrown's bucket layout).
//! 4. **Sparse-workload verdict** (`sparse_roaring` in the JSON): on
//!    the uniform-2.5m shape the two-level engine must hold ≤ 2.4
//!    bytes/pair *and* an intersection/union/venn3 geomean ≥ 1× vs
//!    packed — the claim that motivated the second chunk level.
//! 5. **Pipeline scaling**: one full matching pipeline at 1, 2 and all
//!    hardware threads.
//!
//! Regression gate: when `FROST_BENCH_BASELINE=<path>` is set, the run
//! compares its packed-vs-hash geomean (uniform-250k) and its sparse
//! roaring-vs-packed geomean (uniform-2.5m) against the recorded ones
//! and exits nonzero on a >25% regression of either.
//! `FROST_BENCH_OUT=<path>` redirects the JSON (default:
//! `BENCH_pairset.json` at the workspace root), which records the CPU
//! count (`nproc`) and each section's iteration counts beside the
//! scale.

use criterion::{black_box, Criterion};
use frost_core::dataset::{ChunkedPairSet, Experiment, PairSet, RecordPair, RoaringPairSet};
use frost_core::explore::setops::{venn_regions, SetExpression};
use frost_core::metrics::confusion::{total_pairs, ConfusionMatrix};
use frost_datagen::experiments::synthetic_experiment;
use frost_datagen::generator::{generate, GeneratorConfig};
use frost_matchers::blocking::TokenBlocking;
use frost_matchers::decision::threshold::WeightedAverage;
use frost_matchers::features::Comparator;
use frost_matchers::pipeline::{ClusteringMethod, MatchingPipeline};
use frost_matchers::similarity::Measure;
use serde_json::Value;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Reference (seed) implementations on `HashSet<RecordPair>`.
mod hash_baseline {
    use super::*;

    pub fn venn(sets: &[HashSet<RecordPair>]) -> Vec<(u32, usize)> {
        let mut membership_of: HashMap<RecordPair, u32> = HashMap::new();
        for (i, set) in sets.iter().enumerate() {
            for &p in set {
                *membership_of.entry(p).or_insert(0) |= 1 << i;
            }
        }
        let mut by_mask: HashMap<u32, usize> = HashMap::new();
        for (_, mask) in membership_of {
            *by_mask.entry(mask).or_insert(0) += 1;
        }
        let mut out: Vec<(u32, usize)> = by_mask.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// The seed's `SetExpression::evaluate` for `S0 ∩ S1`: leaf sets
    /// are cloned, then intersected — replicated verbatim as the
    /// baseline for the expression-level benchmark.
    pub fn expression_tp(universe: &[HashSet<RecordPair>]) -> HashSet<RecordPair> {
        let sa = universe[0].clone();
        let sb = universe[1].clone();
        sa.intersection(&sb).copied().collect()
    }

    pub fn confusion(
        e: &HashSet<RecordPair>,
        g: &HashSet<RecordPair>,
        total: u64,
    ) -> ConfusionMatrix {
        let tp = e.intersection(g).count() as u64;
        ConfusionMatrix::new(
            tp,
            e.len() as u64 - tp,
            g.len() as u64 - tp,
            total - e.len() as u64 - (g.len() as u64 - tp),
        )
    }

    /// Estimated heap bytes of a `HashSet<RecordPair>`: hashbrown
    /// allocates `buckets × (payload + 1 control byte)` with a 7/8
    /// load factor and power-of-two bucket counts.
    pub fn estimated_heap_bytes(len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        let buckets = (len * 8 / 7).next_power_of_two().max(8);
        buckets * (std::mem::size_of::<RecordPair>() + 1)
    }
}

/// One benchmark workload: the same three pair sets in all four
/// representations.
struct Workload {
    name: &'static str,
    records: usize,
    packed: [PairSet; 3],
    chunked: [ChunkedPairSet; 3],
    roaring: [RoaringPairSet; 3],
    hash: [HashSet<RecordPair>; 3],
}

impl Workload {
    fn from_packed(name: &'static str, records: usize, sets: [Vec<u64>; 3]) -> Self {
        let chunked = [
            ChunkedPairSet::from_sorted_packed(sets[0].clone()),
            ChunkedPairSet::from_sorted_packed(sets[1].clone()),
            ChunkedPairSet::from_sorted_packed(sets[2].clone()),
        ];
        let roaring = [
            RoaringPairSet::from_sorted_packed(sets[0].clone()),
            RoaringPairSet::from_sorted_packed(sets[1].clone()),
            RoaringPairSet::from_sorted_packed(sets[2].clone()),
        ];
        let hash = sets.each_ref().map(|v| {
            v.iter()
                .map(|&x| RecordPair::from(((x >> 32) as u32, x as u32)))
                .collect::<HashSet<RecordPair>>()
        });
        let packed = sets.map(PairSet::from_sorted_packed);
        Self {
            name,
            records,
            packed,
            chunked,
            roaring,
            hash,
        }
    }
}

/// xoshiro-ish deterministic stream for workload construction.
fn next_rand(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A dense, chunk-skewed set: `lo_count` chunks over `records` records,
/// each with ~`per_lo` partners — above the 4096 container threshold at
/// full scale, so bitmap kernels carry the set operations.
fn dense_set(records: u32, lo_count: u32, per_lo: usize, seed: u64) -> Vec<u64> {
    let mut state = seed | 1;
    let mut packed = Vec::with_capacity(lo_count as usize * per_lo);
    for lo in 0..lo_count {
        let span = records - lo - 1;
        let mut his: Vec<u32> = (0..per_lo * 5 / 4)
            .map(|_| lo + 1 + (next_rand(&mut state) % span as u64) as u32)
            .collect();
        his.sort_unstable();
        his.dedup();
        his.truncate(per_lo);
        packed.extend(his.into_iter().map(|hi| ((lo as u64) << 32) | hi as u64));
    }
    packed
}

fn mean_of(c: &Criterion, id: &str) -> f64 {
    c.results
        .iter()
        .find(|r| r.id == id)
        .unwrap_or_else(|| panic!("missing bench result {id}"))
        .mean_ns
}

/// Time budget of each set-operation measurement: one mean per
/// operation over as many iterations as fit.
const SET_OPS_BUDGET_MS: u64 = 700;

/// Ops measured per workload and engine.
const OPS: [&str; 6] = [
    "union",
    "intersection",
    "difference",
    "venn3",
    "expression_tp",
    "confusion",
];

fn bench_workload(c: &mut Criterion, w: &Workload) {
    let total = total_pairs(w.records);
    let mut g = c.benchmark_group(format!("setops-{}", w.name));
    let (pa, pb, pt) = (&w.packed[0], &w.packed[1], &w.packed[2]);
    let (ca, cb, ct) = (&w.chunked[0], &w.chunked[1], &w.chunked[2]);
    let (ra, rb, rt) = (&w.roaring[0], &w.roaring[1], &w.roaring[2]);
    let (ha, hb, ht) = (&w.hash[0], &w.hash[1], &w.hash[2]);

    g.bench_function("union/packed", |b| b.iter(|| black_box(pa.union(pb))));
    g.bench_function("union/chunked", |b| b.iter(|| black_box(ca.union(cb))));
    g.bench_function("union/roaring", |b| b.iter(|| black_box(ra.union(rb))));
    g.bench_function("union/hash", |b| {
        b.iter(|| black_box(ha.union(hb).copied().collect::<HashSet<_>>()))
    });

    g.bench_function("intersection/packed", |b| {
        b.iter(|| black_box(pa.intersection(pb)))
    });
    g.bench_function("intersection/chunked", |b| {
        b.iter(|| black_box(ca.intersection(cb)))
    });
    g.bench_function("intersection/roaring", |b| {
        b.iter(|| black_box(ra.intersection(rb)))
    });
    g.bench_function("intersection/hash", |b| {
        b.iter(|| black_box(ha.intersection(hb).copied().collect::<HashSet<_>>()))
    });

    g.bench_function("difference/packed", |b| {
        b.iter(|| black_box(pa.difference(pb)))
    });
    g.bench_function("difference/chunked", |b| {
        b.iter(|| black_box(ca.difference(cb)))
    });
    g.bench_function("difference/roaring", |b| {
        b.iter(|| black_box(ra.difference(rb)))
    });
    g.bench_function("difference/hash", |b| {
        b.iter(|| black_box(ha.difference(hb).copied().collect::<HashSet<_>>()))
    });

    let packed_sets = [pa.clone(), pb.clone(), pt.clone()];
    let chunked_sets = [ca.clone(), cb.clone(), ct.clone()];
    let roaring_sets = [ra.clone(), rb.clone(), rt.clone()];
    let hash_sets = [ha.clone(), hb.clone(), ht.clone()];
    g.bench_function("venn3/packed", |b| {
        b.iter(|| black_box(venn_regions(&packed_sets)))
    });
    g.bench_function("venn3/chunked", |b| {
        b.iter(|| black_box(venn_regions(&chunked_sets)))
    });
    g.bench_function("venn3/roaring", |b| {
        b.iter(|| black_box(venn_regions(&roaring_sets)))
    });
    g.bench_function("venn3/hash", |b| {
        b.iter(|| black_box(hash_baseline::venn(&hash_sets)))
    });

    // The §4.1 exploration API as the seed shipped it: expression trees
    // whose leaves clone their input sets (the packed/chunked/roaring
    // engines borrow leaves instead).
    let expr = SetExpression::set(0).intersection(SetExpression::set(1));
    let packed_universe = vec![pa.clone(), pb.clone()];
    let chunked_universe = vec![ca.clone(), cb.clone()];
    let roaring_universe = vec![ra.clone(), rb.clone()];
    let hash_universe = vec![ha.clone(), hb.clone()];
    g.bench_function("expression_tp/packed", |b| {
        b.iter(|| black_box(expr.evaluate(&packed_universe)))
    });
    g.bench_function("expression_tp/chunked", |b| {
        b.iter(|| black_box(expr.evaluate(&chunked_universe)))
    });
    g.bench_function("expression_tp/roaring", |b| {
        b.iter(|| black_box(expr.evaluate(&roaring_universe)))
    });
    g.bench_function("expression_tp/hash", |b| {
        b.iter(|| black_box(hash_baseline::expression_tp(&hash_universe)))
    });

    g.bench_function("confusion/packed", |b| {
        b.iter(|| black_box(ConfusionMatrix::from_pair_sets(pa, pt, total)))
    });
    g.bench_function("confusion/chunked", |b| {
        b.iter(|| black_box(ConfusionMatrix::from_pair_sets(ca, ct, total)))
    });
    g.bench_function("confusion/roaring", |b| {
        b.iter(|| black_box(ConfusionMatrix::from_pair_sets(ra, rt, total)))
    });
    g.bench_function("confusion/hash", |b| {
        b.iter(|| black_box(hash_baseline::confusion(ha, ht, total)))
    });
    g.finish();

    // Cross-check: identical results on all four representations.
    let pv: Vec<(u32, usize)> = venn_regions(&packed_sets)
        .iter()
        .map(|r| (r.membership, r.pairs.len()))
        .collect();
    let cv: Vec<(u32, usize)> = venn_regions(&chunked_sets)
        .iter()
        .map(|r| (r.membership, r.pairs.len()))
        .collect();
    let rv: Vec<(u32, usize)> = venn_regions(&roaring_sets)
        .iter()
        .map(|r| (r.membership, r.pairs.len()))
        .collect();
    let hv = hash_baseline::venn(&hash_sets);
    assert_eq!(pv, hv, "venn mismatch packed vs hash on {}", w.name);
    assert_eq!(pv, cv, "venn mismatch packed vs chunked on {}", w.name);
    assert_eq!(pv, rv, "venn mismatch packed vs roaring on {}", w.name);
    assert_eq!(
        ConfusionMatrix::from_pair_sets(pa, pt, total),
        hash_baseline::confusion(ha, ht, total),
    );
    assert_eq!(
        ConfusionMatrix::from_pair_sets(pa, pt, total),
        ConfusionMatrix::from_pair_sets(ca, ct, total),
    );
    assert_eq!(
        ConfusionMatrix::from_pair_sets(pa, pt, total),
        ConfusionMatrix::from_pair_sets(ra, rt, total),
    );
    assert_eq!(ca.union(cb).to_pair_set(), pa.union(pb));
    assert_eq!(ca.intersection(cb).to_pair_set(), pa.intersection(pb));
    assert_eq!(ca.difference(cb).to_pair_set(), pa.difference(pb));
    assert_eq!(ra.union(rb).to_pair_set(), pa.union(pb));
    assert_eq!(ra.intersection(rb).to_pair_set(), pa.intersection(pb));
    assert_eq!(ra.difference(rb).to_pair_set(), pa.difference(pb));
}

/// Local copies of the two intersection kernels, so the crossover can
/// be measured on *both* sides of the production `GALLOP_RATIO` switch
/// (the library always picks one path per ratio). The merge side is
/// the production engine's bidirectional two-lane merge, not a plain
/// two-pointer loop — comparing galloping against a weaker merge would
/// bias the crossover downward.
mod gallop_lab {
    pub fn merge_count(small: &[u64], large: &[u64]) -> usize {
        let (mut fwd, mut back) = (0usize, 0usize);
        let (mut i, mut j) = (0usize, 0usize);
        let (mut p, mut q) = (small.len(), large.len());
        while i < p && j < q {
            let (x, y) = (small[i], large[j]);
            fwd += usize::from(x == y);
            i += usize::from(x <= y);
            j += usize::from(y <= x);
            if i >= p || j >= q {
                break;
            }
            let (u, v) = (small[p - 1], large[q - 1]);
            back += usize::from(u == v);
            p -= usize::from(u >= v);
            q -= usize::from(v >= u);
        }
        fwd + back
    }

    pub fn gallop_count(small: &[u64], large: &[u64]) -> usize {
        let mut n = 0usize;
        let mut base = 0usize;
        for &x in small {
            if base >= large.len() {
                break;
            }
            let mut step = 1usize;
            let mut win_lo = base;
            let mut hi = base;
            while hi < large.len() && large[hi] < x {
                win_lo = hi + 1;
                hi += step;
                step <<= 1;
            }
            let win_hi = if hi < large.len() {
                hi + 1
            } else {
                large.len()
            };
            match large[win_lo..win_hi].binary_search(&x) {
                Ok(at) => {
                    n += 1;
                    base = win_lo + at + 1;
                }
                Err(at) => base = win_lo + at,
            }
        }
        n
    }
}

fn main() {
    let scale: f64 = std::env::var("FROST_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    let n_records = ((60_000f64) * scale).max(2_000.0) as usize;
    let n_pairs = ((250_000f64) * scale).max(10_000.0) as usize;
    let n_pairs_big = ((2_500_000f64) * scale).max(50_000.0) as usize;

    // Workloads 1+2: uniformly sparse synthetic matcher output.
    println!("generating workloads (scale {scale}) ...");
    let generated = generate(&GeneratorConfig::small("pairset-bench", n_records, 17));
    let truth = &generated.truth;
    let truth_packed: Vec<u64> = {
        let t: PairSet = truth.intra_pairs().collect();
        t.as_packed().to_vec()
    };
    let mk_uniform = |name: &'static str, pairs: usize| -> Workload {
        let a = synthetic_experiment("a", truth, pairs, 0.6, 1);
        let b = synthetic_experiment("b", truth, pairs, 0.6, 2);
        Workload::from_packed(
            name,
            n_records,
            [
                a.pair_set().as_packed().to_vec(),
                b.pair_set().as_packed().to_vec(),
                truth_packed.clone(),
            ],
        )
    };
    let uniform_small = mk_uniform("uniform-250k", n_pairs);
    let uniform_big = mk_uniform("uniform-2.5m", n_pairs_big);

    // Workload 3: dense chunk-skewed sets. At full scale each chunk
    // holds ~5000 partners — above the 4096 threshold, so both
    // operand sides are bitmap containers.
    let dense_records = ((20_000f64) * scale.max(0.25)) as u32;
    let dense_lo = 500u32.min(dense_records / 4);
    let per_lo = ((5_000f64) * scale).max(256.0) as usize;
    let dense = Workload::from_packed(
        "dense-2.5m",
        dense_records as usize,
        [
            dense_set(dense_records, dense_lo, per_lo, 0xD5A1),
            dense_set(dense_records, dense_lo, per_lo, 0xB0B2),
            dense_set(dense_records, dense_lo, per_lo, 0x7EE3),
        ],
    );
    for w in [&uniform_small, &uniform_big, &dense] {
        println!(
            "  {:<13} |A| = {}, |B| = {}, |C| = {}  (bitmap chunks in A: chunked {}/{}, roaring {}/{})",
            w.name,
            w.packed[0].len(),
            w.packed[1].len(),
            w.packed[2].len(),
            w.chunked[0].bitmap_chunk_count(),
            w.chunked[0].chunk_count(),
            w.roaring[0].bitmap_chunk_count(),
            w.roaring[0].chunk_count(),
        );
    }

    let mut c =
        Criterion::default().measurement_time(std::time::Duration::from_millis(SET_OPS_BUDGET_MS));
    for w in [&uniform_small, &uniform_big, &dense] {
        bench_workload(&mut c, w);
    }

    // Section 2: galloping-ratio tuning. Fixed 4096-needle small side
    // against larger sides at increasing ratios; both kernels timed on
    // the same data. Half the needles are present in the large side,
    // half absent — a skewed intersection's realistic hit mix.
    let gallop_ratios = [2usize, 4, 8, 16, 32, 64];
    {
        let mut g = c.benchmark_group("gallop_tuning");
        let small_n = 4_096usize;
        for &ratio in &gallop_ratios {
            let mut state = 0x5EEDu64;
            let large_n = small_n * ratio;
            let mut large: Vec<u64> = (0..large_n)
                .map(|_| (next_rand(&mut state) % (large_n as u64 * 16)) | 1)
                .collect();
            large.sort_unstable();
            large.dedup();
            let mut small: Vec<u64> = large
                .iter()
                .step_by(ratio * 2)
                .copied()
                // Even values never occur in `large`: guaranteed misses.
                .flat_map(|x| [x, x + 1])
                .collect();
            small.sort_unstable();
            small.dedup();
            g.bench_function(format!("merge/r{ratio}").as_str(), |b| {
                b.iter(|| black_box(gallop_lab::merge_count(&small, &large)))
            });
            g.bench_function(format!("gallop/r{ratio}").as_str(), |b| {
                b.iter(|| black_box(gallop_lab::gallop_count(&small, &large)))
            });
        }
        g.finish();
    }

    // Section 2b: equal-size merge — the two-lane bidirectional merge
    // vs the production four-lane merge (PairSet::intersection_len
    // dispatches to it at near-equal sizes) on identical data with a
    // ~50% hit rate. Sizes are fixed (the kernel is data-shape
    // independent).
    let equal_sizes = [4_096usize, 32_768, 262_144];
    {
        let mut g = c.benchmark_group("equal_merge");
        for &n in &equal_sizes {
            let mut state = 0xEAA1u64 ^ n as u64;
            let mut draw = |exclude_parity: u64| -> Vec<u64> {
                let mut v: Vec<u64> = (0..n * 5 / 4)
                    .map(|_| (next_rand(&mut state) % (n as u64 * 8)) * 2 + exclude_parity)
                    .collect();
                v.sort_unstable();
                v.dedup();
                v.truncate(n);
                v
            };
            // ~half the elements shared, half odd-parity (guaranteed
            // misses) — an equal-size intersection's realistic mix.
            let shared = draw(0);
            let mk = |state: &mut u64, shared: &[u64]| -> Vec<u64> {
                let mut v: Vec<u64> = shared[..n / 2].to_vec();
                v.extend((0..n / 2).map(|_| (next_rand(state) % (n as u64 * 8)) * 2 + 1));
                v.sort_unstable();
                v.dedup();
                v
            };
            let a = mk(&mut state, &shared);
            let b = mk(&mut state, &shared);
            let (pa, pb) = (
                PairSet::from_sorted_packed(a.clone()),
                PairSet::from_sorted_packed(b.clone()),
            );
            assert_eq!(
                pa.intersection_len(&pb),
                gallop_lab::merge_count(&a, &b),
                "four-lane and two-lane counts must agree"
            );
            g.bench_function(format!("two_lane/n{n}").as_str(), |bch| {
                bch.iter(|| black_box(gallop_lab::merge_count(&a, &b)))
            });
            g.bench_function(format!("four_lane/n{n}").as_str(), |bch| {
                bch.iter(|| black_box(pa.intersection_len(&pb)))
            });
        }
        g.finish();
    }

    // Section 5: pipeline scaling across cores.
    let hw = frost_bench::nproc();
    let pipe_records = ((12_000f64) * scale).max(1_000.0) as usize;
    let pipe_gen = generate(&GeneratorConfig::small("pipe-bench", pipe_records, 23));
    let pipeline = MatchingPipeline {
        name: "scaling".into(),
        preparer: None,
        blocker: Box::new(TokenBlocking {
            attributes: vec!["name".into(), "description".into()],
            max_token_frequency: 80,
        }),
        model: Box::new(WeightedAverage::uniform(
            [
                Comparator::new("name", Measure::JaroWinkler),
                Comparator::new("description", Measure::TokenJaccard),
                Comparator::new("category", Measure::Exact),
            ],
            0.75,
        )),
        clustering: ClusteringMethod::TransitiveClosure,
    };
    // Always exercise 1/2/4 threads (oversubscribed on small hosts;
    // speedups only appear with real cores), plus all hardware threads
    // when more exist.
    let mut thread_counts = vec![1usize, 2, 4];
    if hw > 4 {
        thread_counts.push(hw);
    }
    let mut pipeline_times: Vec<(usize, f64, usize)> = Vec::new();
    let mut reference: Option<Experiment> = None;
    for threads in thread_counts {
        std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
        let start = Instant::now();
        let run = pipeline.run(&pipe_gen.dataset);
        let secs = start.elapsed().as_secs_f64();
        println!(
            "pipeline.run {threads:>2} thread(s): {secs:.3}s  ({} candidates, {} matches)",
            run.candidates.len(),
            run.experiment.len()
        );
        pipeline_times.push((threads, secs, run.candidates.len()));
        match &reference {
            None => reference = Some(run.experiment),
            Some(r) => assert_eq!(
                r.pair_set(),
                run.experiment.pair_set(),
                "thread count changed the result"
            ),
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");

    // ---- Summaries + BENCH_pairset.json ----
    let mut workload_entries = Vec::new();
    let mut op_entries = Vec::new();
    let mut memory_entries = Vec::new();
    let mut geomean_250k_log = 0.0f64; // packed vs hash, uniform-250k (CI gate)
    let mut dense_chunked_vs_packed_log = 0.0f64;
    let mut dense_core_ops = 0usize;
    // Sparse verdict: roaring vs packed and vs chunked on the
    // uniform-2.5m shape, over the ops the ISSUE names.
    let mut sparse_roaring_vs_packed_log = 0.0f64;
    let mut sparse_roaring_vs_chunked_log = 0.0f64;
    let mut sparse_core_ops = 0usize;
    for w in [&uniform_small, &uniform_big, &dense] {
        workload_entries.push(Value::object([
            ("name".to_string(), Value::from(w.name)),
            ("records".to_string(), Value::from(w.records)),
            ("pairs_per_set".to_string(), Value::from(w.packed[0].len())),
            (
                "bitmap_chunks".to_string(),
                Value::from(w.chunked[0].bitmap_chunk_count()),
            ),
            (
                "chunks".to_string(),
                Value::from(w.chunked[0].chunk_count()),
            ),
            (
                "roaring_bitmap_chunks".to_string(),
                Value::from(w.roaring[0].bitmap_chunk_count()),
            ),
            (
                "roaring_chunks".to_string(),
                Value::from(w.roaring[0].chunk_count()),
            ),
        ]));
        println!("\n[{}] speedups vs hash baseline:", w.name);
        for op in OPS {
            let hash_ns = mean_of(&c, &format!("setops-{}/{op}/hash", w.name));
            let packed_ns = mean_of(&c, &format!("setops-{}/{op}/packed", w.name));
            let chunked_ns = mean_of(&c, &format!("setops-{}/{op}/chunked", w.name));
            let roaring_ns = mean_of(&c, &format!("setops-{}/{op}/roaring", w.name));
            let packed_speedup = hash_ns / packed_ns;
            let chunked_speedup = hash_ns / chunked_ns;
            let roaring_speedup = hash_ns / roaring_ns;
            let chunked_vs_packed = packed_ns / chunked_ns;
            let roaring_vs_packed = packed_ns / roaring_ns;
            if w.name == "uniform-250k" {
                geomean_250k_log += packed_speedup.ln();
            }
            if w.name == "dense-2.5m" && matches!(op, "intersection" | "venn3" | "confusion") {
                dense_chunked_vs_packed_log += chunked_vs_packed.ln();
                dense_core_ops += 1;
            }
            if w.name == "uniform-2.5m" && matches!(op, "intersection" | "union" | "venn3") {
                sparse_roaring_vs_packed_log += roaring_vs_packed.ln();
                sparse_roaring_vs_chunked_log += (chunked_ns / roaring_ns).ln();
                sparse_core_ops += 1;
            }
            println!(
                "  {op:<14} packed {packed_speedup:>6.2}×  chunked {chunked_speedup:>6.2}×  roaring {roaring_speedup:>6.2}×  (roaring/packed {roaring_vs_packed:>5.2}×)"
            );
            op_entries.push(Value::object([
                ("workload".to_string(), Value::from(w.name)),
                ("op".to_string(), Value::from(op)),
                ("hash_ns".to_string(), Value::from(hash_ns)),
                ("pairset_ns".to_string(), Value::from(packed_ns)),
                ("chunked_ns".to_string(), Value::from(chunked_ns)),
                ("roaring_ns".to_string(), Value::from(roaring_ns)),
                ("speedup".to_string(), Value::from(packed_speedup)),
                ("chunked_speedup".to_string(), Value::from(chunked_speedup)),
                ("roaring_speedup".to_string(), Value::from(roaring_speedup)),
                (
                    "chunked_vs_packed".to_string(),
                    Value::from(chunked_vs_packed),
                ),
                (
                    "roaring_vs_packed".to_string(),
                    Value::from(roaring_vs_packed),
                ),
            ]));
        }
        // Memory footprint.
        let pairs = w.packed[0].len().max(1) as f64;
        let packed_bpp = w.packed[0].heap_bytes() as f64 / pairs;
        let chunked_bpp = w.chunked[0].heap_bytes() as f64 / pairs;
        let roaring_bpp = w.roaring[0].heap_bytes() as f64 / pairs;
        let hash_bpp = hash_baseline::estimated_heap_bytes(w.hash[0].len()) as f64 / pairs;
        println!(
            "  bytes/pair     packed {packed_bpp:>6.2}  chunked {chunked_bpp:>6.2}  roaring {roaring_bpp:>6.2}  hash ~{hash_bpp:>6.2}"
        );
        memory_entries.push(Value::object([
            ("workload".to_string(), Value::from(w.name)),
            ("packed_bytes_per_pair".to_string(), Value::from(packed_bpp)),
            (
                "chunked_bytes_per_pair".to_string(),
                Value::from(chunked_bpp),
            ),
            (
                "roaring_bytes_per_pair".to_string(),
                Value::from(roaring_bpp),
            ),
            (
                "hash_bytes_per_pair_estimated".to_string(),
                Value::from(hash_bpp),
            ),
            (
                "chunked_vs_packed_ratio".to_string(),
                Value::from(chunked_bpp / packed_bpp),
            ),
            (
                "roaring_vs_packed_ratio".to_string(),
                Value::from(roaring_bpp / packed_bpp),
            ),
        ]));
    }
    let geomean = (geomean_250k_log / OPS.len() as f64).exp();
    let dense_geomean = (dense_chunked_vs_packed_log / dense_core_ops.max(1) as f64).exp();
    println!("\nuniform-250k packed-vs-hash geomean: {geomean:.2}×");
    println!(
        "dense-2.5m chunked-vs-packed geomean (intersection/venn3/confusion): {dense_geomean:.2}×"
    );

    // Sparse-workload verdict: the two-level engine's reason to exist.
    // Bytes/pair is deterministic (exact arenas, scale-invariant chunk
    // occupancy down to FROST_SCALE=0.05), so it is asserted hard; the
    // speed geomean is recorded and gated against the baseline below.
    let sparse = &uniform_big;
    let sparse_pairs = sparse.packed[0].len().max(1) as f64;
    let sparse_roaring_bpp = sparse.roaring[0].heap_bytes() as f64 / sparse_pairs;
    let sparse_chunked_bpp = sparse.chunked[0].heap_bytes() as f64 / sparse_pairs;
    let sparse_packed_bpp = sparse.packed[0].heap_bytes() as f64 / sparse_pairs;
    let sparse_vs_packed = (sparse_roaring_vs_packed_log / sparse_core_ops.max(1) as f64).exp();
    let sparse_vs_chunked = (sparse_roaring_vs_chunked_log / sparse_core_ops.max(1) as f64).exp();
    println!(
        "{} roaring: {sparse_roaring_bpp:.2} bytes/pair (chunked {sparse_chunked_bpp:.2}, packed {sparse_packed_bpp:.2}); \
intersection/union/venn3 geomean vs packed {sparse_vs_packed:.2}×, vs chunked {sparse_vs_chunked:.2}×",
        sparse.name
    );
    if scale >= 0.05 {
        assert!(
            sparse_roaring_bpp <= 2.4,
            "sparse roaring bytes/pair {sparse_roaring_bpp:.2} exceeds the 2.4 bound"
        );
        assert!(
            sparse_roaring_bpp < sparse_chunked_bpp && sparse_roaring_bpp < sparse_packed_bpp,
            "sparse roaring must be the smallest engine"
        );
    }

    // Gallop tuning summary.
    let mut gallop_entries = Vec::new();
    let mut crossover: Option<usize> = None;
    for &ratio in &gallop_ratios {
        let merge_ns = mean_of(&c, &format!("gallop_tuning/merge/r{ratio}"));
        let gallop_ns = mean_of(&c, &format!("gallop_tuning/gallop/r{ratio}"));
        if gallop_ns < merge_ns && crossover.is_none() {
            crossover = Some(ratio);
        }
        gallop_entries.push(Value::object([
            ("ratio".to_string(), Value::from(ratio)),
            ("merge_ns".to_string(), Value::from(merge_ns)),
            ("gallop_ns".to_string(), Value::from(gallop_ns)),
        ]));
    }
    println!(
        "gallop crossover: galloping first wins at ratio {} (shared GALLOP_RATIO = {})",
        crossover.map_or("none".to_string(), |r| r.to_string()),
        frost_core::dataset::pairset::GALLOP_RATIO
    );

    // Equal-size merge summary: the four-lane column vs the two-lane
    // bidirectional merge.
    let mut equal_entries = Vec::new();
    for &n in &equal_sizes {
        let two_ns = mean_of(&c, &format!("equal_merge/two_lane/n{n}"));
        let four_ns = mean_of(&c, &format!("equal_merge/four_lane/n{n}"));
        println!(
            "equal merge n={n:<7} two-lane {two_ns:>10.0}ns  four-lane {four_ns:>10.0}ns  ({:.2}×)",
            two_ns / four_ns
        );
        equal_entries.push(Value::object([
            ("n".to_string(), Value::from(n)),
            ("two_lane_ns".to_string(), Value::from(two_ns)),
            ("four_lane_ns".to_string(), Value::from(four_ns)),
            ("speedup".to_string(), Value::from(two_ns / four_ns)),
        ]));
    }

    let base_secs = pipeline_times.first().map(|&(_, s, _)| s).unwrap_or(0.0);
    let scaling_entries: Vec<Value> = pipeline_times
        .iter()
        .map(|&(threads, secs, candidates)| {
            Value::object([
                ("threads".to_string(), Value::from(threads)),
                ("seconds".to_string(), Value::from(secs)),
                ("candidates".to_string(), Value::from(candidates)),
                (
                    "speedup_vs_1_thread".to_string(),
                    Value::from(if secs > 0.0 { base_secs / secs } else { 0.0 }),
                ),
            ])
        })
        .collect();

    let doc = Value::object([
        ("workloads".to_string(), Value::Array(workload_entries)),
        ("scale".to_string(), Value::from(scale)),
        ("nproc".to_string(), Value::from(hw)),
        (
            "iterations".to_string(),
            Value::object([
                (
                    "set_operations_budget_ms".to_string(),
                    Value::from(SET_OPS_BUDGET_MS),
                ),
                ("pipeline_scaling".to_string(), Value::from(1usize)),
            ]),
        ),
        ("set_operations".to_string(), Value::Array(op_entries)),
        ("set_ops_geomean_speedup".to_string(), Value::from(geomean)),
        (
            "dense_chunked_vs_packed_geomean".to_string(),
            Value::from(dense_geomean),
        ),
        (
            "sparse_roaring".to_string(),
            Value::object([
                ("workload".to_string(), Value::from(sparse.name)),
                (
                    "roaring_bytes_per_pair".to_string(),
                    Value::from(sparse_roaring_bpp),
                ),
                (
                    "chunked_bytes_per_pair".to_string(),
                    Value::from(sparse_chunked_bpp),
                ),
                (
                    "packed_bytes_per_pair".to_string(),
                    Value::from(sparse_packed_bpp),
                ),
                (
                    "vs_packed_geomean".to_string(),
                    Value::from(sparse_vs_packed),
                ),
                (
                    "vs_chunked_geomean".to_string(),
                    Value::from(sparse_vs_chunked),
                ),
            ]),
        ),
        ("memory".to_string(), Value::Array(memory_entries)),
        ("equal_merge".to_string(), Value::Array(equal_entries)),
        (
            "gallop_tuning".to_string(),
            Value::object([
                ("ratios".to_string(), Value::Array(gallop_entries)),
                (
                    "crossover_ratio".to_string(),
                    Value::from(crossover.unwrap_or(0)),
                ),
                (
                    "shared_constant".to_string(),
                    Value::from(frost_core::dataset::pairset::GALLOP_RATIO),
                ),
            ]),
        ),
        (
            "pipeline_scaling".to_string(),
            Value::Array(scaling_entries),
        ),
    ]);
    let out = serde_json::to_string_pretty(&doc);
    // Relative FROST_BENCH_OUT paths resolve against the workspace
    // root (cargo bench runs with the package directory as cwd).
    let workspace_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = match std::env::var("FROST_BENCH_OUT") {
        Ok(p) if std::path::Path::new(&p).is_absolute() => std::path::PathBuf::from(p),
        Ok(p) => workspace_root.join(p),
        Err(_) => workspace_root.join("BENCH_pairset.json"),
    };
    std::fs::write(&path, out).expect("write BENCH_pairset.json");
    println!("\nwrote {}", path.display());

    // Regression gate against a recorded baseline (CI smoke step).
    // Geomeans depend on the workload scale, so the gate only fires
    // when the baseline was recorded at a comparable FROST_SCALE —
    // compare smoke runs against a smoke baseline
    // (BENCH_pairset_smoke.json), full runs against the full one.
    if let Ok(baseline_env) = std::env::var("FROST_BENCH_BASELINE") {
        // Relative paths resolve against the workspace root (cargo
        // bench runs with the package directory as cwd).
        let mut baseline_path = std::path::PathBuf::from(&baseline_env);
        if !baseline_path.exists() {
            baseline_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(&baseline_env);
        }
        let baseline: Value = serde_json::from_str(
            &std::fs::read_to_string(&baseline_path).expect("read baseline json"),
        )
        .expect("parse baseline json");
        let recorded_scale = baseline.get("scale").and_then(Value::as_f64).unwrap_or(1.0);
        let recorded = baseline
            .get("set_ops_geomean_speedup")
            .and_then(Value::as_f64)
            .expect("baseline missing set_ops_geomean_speedup");
        if !(recorded_scale / 1.5..=recorded_scale * 1.5).contains(&scale) {
            println!(
                "baseline gate skipped: baseline recorded at scale {recorded_scale}, this run at {scale}"
            );
        } else {
            let floor = recorded * 0.75;
            println!(
                "baseline gate: geomean {geomean:.2}× vs recorded {recorded:.2}× (floor {floor:.2}×)"
            );
            if geomean < floor {
                eprintln!(
                    "REGRESSION: packed-vs-hash geomean {geomean:.2}× fell more than 25% below the recorded {recorded:.2}×"
                );
                std::process::exit(1);
            }
            // Sparse-workload gate: roaring-vs-packed geomean on the
            // uniform-2.5m shape, same -25% floor. Baselines recorded
            // before the two-level engine lack the field and skip.
            if let Some(recorded_sparse) = baseline
                .get("sparse_roaring")
                .and_then(|v| v.get("vs_packed_geomean"))
                .and_then(Value::as_f64)
            {
                let sparse_floor = recorded_sparse * 0.75;
                println!(
                    "baseline gate (sparse roaring): geomean {sparse_vs_packed:.2}× vs recorded {recorded_sparse:.2}× (floor {sparse_floor:.2}×)"
                );
                if sparse_vs_packed < sparse_floor {
                    eprintln!(
                        "REGRESSION: sparse roaring-vs-packed geomean {sparse_vs_packed:.2}× fell more than 25% below the recorded {recorded_sparse:.2}×"
                    );
                    std::process::exit(1);
                }
            }
        }
    }
}
