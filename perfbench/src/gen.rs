//! Seeded input generation: the store `frostd` boots on, and the CSV
//! bodies the write workloads upload.
//!
//! Every dataset has a gold standard of small clusters (sizes 1–4,
//! about 0.75 gold pairs per record). Experiments come in two shapes:
//!
//! * *sparse* — sized close to the gold pair count, with a true
//!   fraction between 0.6 and 0.95. A false pair joins two records of
//!   neighbouring gold clusters (clusters `c` and `c'` with the same
//!   `c / 4`), the way a matcher confuses similar entities. Closures
//!   therefore stay within four gold clusters: no giant transitive
//!   closure forms, and `/quality` stays cheap;
//! * *dense hub* — a few low-id records each matched to ≥ 256 others.
//!   Every hub's pairs share one 2¹⁶ chunk, so the mean chunk occupancy
//!   is above the threshold at which `choose_pair_engine` picks the
//!   chunked engine. Dense experiments are never sent to `/quality` or
//!   `/cluster-metrics` (their closures are giant).

use frost_core::clustering::Clustering;
use frost_core::dataset::{Dataset, Experiment, Schema};
use frost_storage::BenchmarkStore;
use std::collections::HashSet;

/// Records per dataset.
const RECORDS: usize = 20_000;
/// Datasets the timed operations use.
pub const ACTIVE_DATASETS: usize = 2;
/// Datasets resident in the store that no timed operation touches:
/// they make `setup_s` measure snapshot load rather than process spawn.
pub const RESIDENT_DATASETS: usize = 2;
/// Sparse experiments per active dataset.
const SPARSE_PER_DATASET: usize = 8;
/// Dense hub experiments per active dataset.
const DENSE_PER_DATASET: usize = 3;
/// Hub records per dense experiment.
const HUBS: u32 = 48;
/// Partners per hub (≥ 256, the chunked-engine occupancy threshold).
const HUB_PARTNERS: usize = 280;

/// SplitMix64: a small, fast, seedable generator. The benchmark's
/// inputs are a pure function of `--seed`.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// A generator for one named purpose, independent of how many
    /// numbers other purposes drew.
    pub fn fork(seed: u64, purpose: &str) -> Self {
        let mut h = seed;
        for b in purpose.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng::new(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One dataset the timed operations touch.
pub struct ActiveDataset {
    pub name: String,
    pub sparse: Vec<String>,
    pub dense: Vec<String>,
    /// Gold clusters and their record ids — the source of matches for uploads.
    pub gold: Gold,
}

/// A gold standard as the generator needs it.
pub struct Gold {
    /// Gold pairs `(lo, hi)`.
    pub pairs: Vec<(u32, u32)>,
    /// Record ids of every gold cluster.
    pub members: Vec<Vec<u32>>,
    /// The gold cluster of every record.
    pub labels: Vec<u32>,
}

/// The generated store and what the workloads need to address it.
pub struct Inputs {
    pub store: BenchmarkStore,
    pub active: Vec<ActiveDataset>,
    pub records: usize,
    pub pairs: usize,
}

const SYLLABLES: [&str; 24] = [
    "an", "bel", "cor", "da", "el", "fin", "gor", "ha", "is", "jo", "ka", "lin", "mar", "no", "or",
    "pet", "qui", "ro", "sen", "ta", "ul", "ve", "wil", "zo",
];
const CITIES: [&str; 16] = [
    "Berlin", "Potsdam", "Hamburg", "Bremen", "Leipzig", "Dresden", "Kiel", "Mainz", "Bonn",
    "Essen", "Ulm", "Trier", "Jena", "Halle", "Erfurt", "Gotha",
];

fn base_name(rng: &mut Rng) -> String {
    let parts = 2 + rng.below(3);
    let mut s = String::new();
    for _ in 0..parts {
        s.push_str(SYLLABLES[rng.below(SYLLABLES.len())]);
    }
    s
}

/// A near-duplicate of `name`: one character dropped or doubled.
fn typo(rng: &mut Rng, name: &str) -> String {
    let bytes = name.as_bytes();
    let at = rng.below(bytes.len());
    let mut out = Vec::with_capacity(bytes.len() + 1);
    for (i, &b) in bytes.iter().enumerate() {
        if i == at {
            if rng.below(2) == 0 {
                continue;
            }
            out.push(b);
        }
        out.push(b);
    }
    String::from_utf8(out).expect("ASCII syllables")
}

/// Builds one dataset and its gold standard.
fn dataset(rng: &mut Rng, name: &str) -> (Dataset, Clustering, Gold) {
    let mut labels: Vec<u32> = Vec::with_capacity(RECORDS);
    let mut cluster = 0u32;
    while labels.len() < RECORDS {
        let size = match rng.below(10) {
            0..=3 => 1,
            4..=6 => 2,
            7..=8 => 3,
            _ => 4,
        };
        for _ in 0..size.min(RECORDS - labels.len()) {
            labels.push(cluster);
        }
        cluster += 1;
    }
    // Scatter cluster members over the id space.
    rng.shuffle(&mut labels);
    let mut names: Vec<Option<(String, usize)>> = vec![None; cluster as usize];
    let mut ds = Dataset::new(name, Schema::new(["name", "city", "year"]));
    for (i, &label) in labels.iter().enumerate() {
        let slot = &mut names[label as usize];
        let (base, city) = slot
            .get_or_insert_with(|| (base_name(rng), rng.below(CITIES.len())))
            .clone();
        let shown = if rng.below(3) == 0 {
            typo(rng, &base)
        } else {
            base
        };
        let city = (rng.below(8) != 0).then(|| CITIES[city].to_string());
        let year = (rng.below(10) != 0).then(|| (1950 + rng.below(56)).to_string());
        ds.push_record_opt(format!("r{i}"), vec![Some(shown), city, year]);
    }
    let truth = Clustering::from_assignment(&labels);
    let pairs: Vec<(u32, u32)> = truth.intra_pairs().map(|p| (p.lo().0, p.hi().0)).collect();
    let mut members = vec![Vec::new(); cluster as usize];
    for (i, &label) in labels.iter().enumerate() {
        members[label as usize].push(i as u32);
    }
    let gold = Gold {
        pairs,
        members,
        labels,
    };
    (ds, truth, gold)
}

/// Scored pairs of a sparse experiment: a `true_fraction` share drawn
/// from the gold pairs, the rest false pairs between neighbouring gold
/// clusters, about `size_factor` × the gold pair count in total.
fn sparse_pairs(
    rng: &mut Rng,
    gold: &Gold,
    size_factor: f64,
    true_fraction: f64,
) -> Vec<(u32, u32, f64)> {
    let total = (gold.pairs.len() as f64 * size_factor) as usize;
    let trues = (total as f64 * true_fraction) as usize;
    let mut picked: Vec<(u32, u32)> = gold.pairs.clone();
    rng.shuffle(&mut picked);
    picked.truncate(trues.min(gold.pairs.len()));
    let mut seen: HashSet<(u32, u32)> = picked.iter().copied().collect();
    let mut out: Vec<(u32, u32, f64)> = picked
        .into_iter()
        .map(|(a, b)| (a, b, rng.range(0.45, 1.0)))
        .collect();
    let clusters = gold.members.len() as u32;
    while out.len() < total {
        let a = rng.below(RECORDS) as u32;
        let home = gold.labels[a as usize];
        let other = (home & !3) | rng.below(4) as u32;
        if other == home || other >= clusters {
            continue;
        }
        let candidates = &gold.members[other as usize];
        let b = candidates[rng.below(candidates.len())];
        let key = (a.min(b), a.max(b));
        if !seen.insert(key) {
            continue;
        }
        out.push((key.0, key.1, rng.range(0.0, 0.8)));
    }
    out
}

/// Scored pairs of a dense hub experiment: `HUBS` low-id records, each
/// matched to `HUB_PARTNERS` distinct higher-id records.
fn dense_pairs(rng: &mut Rng) -> Vec<(u32, u32, f64)> {
    let mut out = Vec::with_capacity(HUBS as usize * HUB_PARTNERS);
    for hub in 0..HUBS {
        let mut partners = HashSet::with_capacity(HUB_PARTNERS);
        while partners.len() < HUB_PARTNERS {
            partners.insert(HUBS + rng.below(RECORDS - HUBS as usize) as u32);
        }
        let mut partners: Vec<u32> = partners.into_iter().collect();
        partners.sort_unstable();
        for p in partners {
            out.push((hub, p, rng.range(0.0, 1.0)));
        }
    }
    out
}

/// Generates the store for `seed`.
pub fn generate(seed: u64) -> Inputs {
    let mut store = BenchmarkStore::new();
    let mut active = Vec::new();
    let mut pairs = 0usize;
    let total = ACTIVE_DATASETS + RESIDENT_DATASETS;
    for d in 0..total {
        let name = format!("ds{d}");
        let mut rng = Rng::fork(seed, &name);
        let (ds, truth, gold) = dataset(&mut rng, &name);
        store.add_dataset(ds).expect("fresh dataset name");
        store
            .set_gold_standard(&name, truth)
            .expect("dataset just added");
        let is_active = d < ACTIVE_DATASETS;
        let sparse_count = if is_active { SPARSE_PER_DATASET } else { 2 };
        let dense_count = if is_active { DENSE_PER_DATASET } else { 0 };
        let mut sparse = Vec::new();
        for s in 0..sparse_count {
            let exp = format!("{name}-s{s}");
            let (size, truth_share) = shape(s, sparse_count);
            let triples = sparse_pairs(&mut rng, &gold, size, truth_share);
            pairs += triples.len();
            store
                .add_experiment(&name, Experiment::from_scored_pairs(&*exp, triples), None)
                .expect("generated ids are in range");
            sparse.push(exp);
        }
        let mut dense = Vec::new();
        for h in 0..dense_count {
            let exp = format!("{name}-d{h}");
            let triples = dense_pairs(&mut rng);
            pairs += triples.len();
            store
                .add_experiment(&name, Experiment::from_scored_pairs(&*exp, triples), None)
                .expect("generated ids are in range");
            dense.push(exp);
        }
        if is_active {
            active.push(ActiveDataset {
                name,
                sparse,
                dense,
                gold,
            });
        }
    }
    Inputs {
        store,
        active,
        records: total * RECORDS,
        pairs,
    }
}

/// The size factor (0.85–1.15 × the gold pair count) and true fraction
/// (0.6–0.95) of the `i`-th of `n` experiments: evenly spread levels,
/// the same for every seed, so seeds vary content but not shape.
fn shape(i: usize, n: usize) -> (f64, f64) {
    let level = |k: usize| (k % n) as f64 / (n - 1).max(1) as f64;
    (0.85 + 0.30 * level(i), 0.6 + 0.35 * level(i * 3 + 1))
}

/// The CSV body of the `index`-th upload (`id1,id2,similarity` with
/// native ids) and its deduplicated pair count. About 1 % of the rows repeat an
/// earlier pair in reversed order, which the import must collapse.
pub fn upload_csv(rng: &mut Rng, gold: &Gold, index: usize) -> (String, usize) {
    let (size, truth_share) = shape(index, 7);
    let triples = sparse_pairs(rng, gold, size, truth_share);
    let mut csv = String::with_capacity(triples.len() * 24);
    csv.push_str("id1,id2,similarity\n");
    for (i, &(a, b, s)) in triples.iter().enumerate() {
        csv.push_str(&format!("r{a},r{b},{s:.4}\n"));
        if i % 100 == 7 {
            csv.push_str(&format!("r{b},r{a},{s:.4}\n"));
        }
    }
    (csv, triples.len())
}
