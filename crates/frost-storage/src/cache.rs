//! A sharded, generation-stamped, byte-budgeted LRU cache for derived
//! artifacts.
//!
//! The long-lived `frostd` server memoizes rendered results — diagram
//! series, Venn tables, comparison views — keyed by the canonical
//! request. Its one result cache holds fully serialized HTTP response
//! bytes (a server-side wrapper around `Arc<[u8]>`); the cache is
//! generic over its value type (`Arc<str>` by default), so other
//! callers can cache other derived values under the same rules. Three
//! properties matter for a shared deployment (§5.2 allows both local
//! and hosted instances):
//!
//! * **Sharded locking** — keys hash onto independent mutex-guarded
//!   shards, so concurrent readers of different requests never contend
//!   on one lock.
//! * **Generation stamping** — every entry records the store
//!   generation it was computed under. A mutation bumps the generation
//!   ([`ShardedCache::invalidate`]), which logically evicts every
//!   older entry at once: a stale entry is treated as a miss and
//!   dropped lazily on the next lookup. A compute that *straddles* a
//!   mutation is also safe, because the writer stamps the entry with
//!   the generation it observed **before** computing
//!   ([`ShardedCache::begin`]) and [`ShardedCache::insert`] refuses
//!   the entry when that stamp is no longer current. Entries inserted
//!   via [`ShardedCache::begin_scoped`] /
//!   [`ShardedCache::insert_scoped`] are additionally stamped with the
//!   named *scopes* they read, so a write invalidates only what it
//!   touched ([`ShardedCache::invalidate_scopes`]).
//! * **Bounded memory, deterministic eviction** — every entry carries
//!   its tracked byte size ([`CacheWeight`]), each shard carries a
//!   byte budget ([`ShardedCache::set_budget`]) alongside the entry
//!   cap, and going over either bound evicts **stale entries first**
//!   (anything an intervening mutation already invalidated), then the
//!   **least-recently-used** live entry — never an arbitrary
//!   map-iteration victim. A flood of distinct request shapes
//!   therefore cannot grow the daemon's resident set past the
//!   configured budget, and hot entries survive the churn.

use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Entries per shard before insertion evicts (stale first, then the
/// least-recently-used) — the shape-count bound that predates the byte
/// budget and still caps pathological tiny-entry floods.
const MAX_SHARD_ENTRIES: usize = 512;

/// Recency-queue slack before compaction: the lazy LRU queue may hold
/// superseded touch records, and is rebuilt once it exceeds twice the
/// live entry count (plus headroom for small shards).
const ORDER_SLACK: usize = 16;

/// The tracked byte size of a cached value — the payload bytes an
/// entry pins (keys are accounted separately), so the cache can
/// enforce a byte budget.
pub trait CacheWeight {
    /// Approximate heap bytes held by this value.
    fn weight(&self) -> usize;
}

impl CacheWeight for Arc<str> {
    fn weight(&self) -> usize {
        self.len()
    }
}

impl CacheWeight for Arc<[u8]> {
    fn weight(&self) -> usize {
        self.len()
    }
}

impl CacheWeight for (Arc<[u8]>, usize) {
    fn weight(&self) -> usize {
        self.0.len()
    }
}

struct Entry<V> {
    generation: u64,
    /// The scope generations observed at compute time; the entry is
    /// stale as soon as any listed scope has been bumped past its
    /// recorded value. Empty for scope-blind entries.
    scopes: Box<[(String, u64)]>,
    value: V,
    /// Tracked size: key bytes + value weight.
    bytes: usize,
    /// The recency tick of this entry's latest touch; an older tick
    /// queued in [`ShardInner::order`] is a superseded record.
    touched: u64,
}

/// One lock domain: the entry map plus its LRU bookkeeping.
struct ShardInner<V> {
    map: HashMap<Arc<str>, Entry<V>>,
    /// Lazy recency queue, oldest first. Each touch pushes a
    /// `(tick, key)` record; a record whose tick no longer matches the
    /// entry's `touched` is skipped on pop (the entry was used again
    /// later), so both touches and evictions stay amortized O(1).
    order: VecDeque<(u64, Arc<str>)>,
    /// Monotonic touch counter (shard-local).
    tick: u64,
    /// Tracked bytes currently held by `map`.
    bytes: usize,
}

impl<V> ShardInner<V> {
    fn new() -> Self {
        Self {
            map: HashMap::new(),
            order: VecDeque::new(),
            tick: 0,
            bytes: 0,
        }
    }

    fn touch(&mut self, key: &Arc<str>) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.map.get_mut(key) {
            e.touched = tick;
        }
        self.order.push_back((tick, Arc::clone(key)));
        if self.order.len() > self.map.len() * 2 + ORDER_SLACK {
            let map = &self.map;
            self.order
                .retain(|(t, k)| map.get(k).is_some_and(|e| e.touched == *t));
        }
    }

    fn remove(&mut self, key: &str) -> bool {
        match self.map.remove(key) {
            Some(e) => {
                self.bytes -= e.bytes;
                true
            }
            None => false,
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
        self.bytes = 0;
    }
}

type Shard<V> = Mutex<ShardInner<V>>;

/// The stamp for a scoped compute: the global generation plus every
/// scope generation observed **before** the compute started. Produced
/// by [`ShardedCache::begin_scoped`], consumed by
/// [`ShardedCache::insert_scoped`].
#[derive(Debug, Clone)]
pub struct ScopedStamp {
    generation: u64,
    scopes: Box<[(String, u64)]>,
}

/// The cache, generic over the cached value (cheaply cloneable —
/// tiers store `Arc`s). See the [module docs](self) for the
/// invalidation and eviction rules.
pub struct ShardedCache<V: Clone + CacheWeight = Arc<str>> {
    shards: Box<[Shard<V>]>,
    /// Current store generation; entries stamped with an older value
    /// are stale.
    generation: AtomicU64,
    /// Per-scope generations (absent scope = 0). Lock order: a shard
    /// lock may be held when taking this lock, never the reverse.
    scope_gens: Mutex<HashMap<String, u64>>,
    /// Total tracked-byte budget across all shards (each shard is
    /// bounded by its equal split). `usize::MAX` = entry-cap only.
    budget: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V: Clone + CacheWeight> ShardedCache<V> {
    /// Creates a cache with `shards` independent lock domains (rounded
    /// up to a power of two, minimum 1) and no byte budget — the
    /// per-shard entry cap is the only bound until
    /// [`set_budget`](Self::set_budget) is called.
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        Self {
            shards: (0..n).map(|_| Mutex::new(ShardInner::new())).collect(),
            generation: AtomicU64::new(0),
            scope_gens: Mutex::new(HashMap::new()),
            budget: AtomicUsize::new(usize::MAX),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Sets the total tracked-byte budget (split evenly across
    /// shards). Takes effect on the next insertions; it does not
    /// proactively sweep already-cached entries.
    pub fn set_budget(&self, bytes: usize) {
        self.budget.store(bytes.max(1), Ordering::Relaxed);
    }

    /// The configured total byte budget (`usize::MAX` = unbudgeted).
    pub fn budget(&self) -> usize {
        self.budget.load(Ordering::Relaxed)
    }

    fn shard_budget(&self) -> usize {
        let budget = self.budget.load(Ordering::Relaxed);
        if budget == usize::MAX {
            usize::MAX
        } else {
            (budget / self.shards.len()).max(1)
        }
    }

    fn shard(&self, key: &str) -> &Shard<V> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) & (self.shards.len() - 1)]
    }

    /// The current generation.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Observes the generation a compute is about to run under; pass
    /// the returned stamp to [`insert`](Self::insert) afterwards.
    pub fn begin(&self) -> u64 {
        self.generation()
    }

    /// Observes the global generation **and** the named scope
    /// generations before a scoped compute; pass the stamp to
    /// [`insert_scoped`](Self::insert_scoped) afterwards.
    pub fn begin_scoped<'a>(&self, scopes: impl IntoIterator<Item = &'a str>) -> ScopedStamp {
        let generation = self.generation();
        let gens = self.scope_gens.lock();
        ScopedStamp {
            generation,
            scopes: scopes
                .into_iter()
                .map(|s| (s.to_string(), gens.get(s).copied().unwrap_or(0)))
                .collect(),
        }
    }

    /// Bumps the named scopes, logically evicting every entry stamped
    /// with any of them. Entries stamped only with other scopes stay
    /// live — this is the fine-grained counterpart of
    /// [`invalidate`](Self::invalidate). Eviction is lazy (on lookup,
    /// or stale-first when an insertion goes over budget): scoped
    /// writes are frequent and must not pay a full sweep.
    pub fn invalidate_scopes<'a>(&self, scopes: impl IntoIterator<Item = &'a str>) {
        let mut gens = self.scope_gens.lock();
        for scope in scopes {
            *gens.entry(scope.to_string()).or_insert(0) += 1;
        }
    }

    /// Whether every scope stamp in `scopes` is still current. Assumed
    /// to be called with the entry's shard lock held.
    fn scopes_current(&self, scopes: &[(String, u64)]) -> bool {
        if scopes.is_empty() {
            return true;
        }
        let gens = self.scope_gens.lock();
        scopes
            .iter()
            .all(|(name, observed)| gens.get(name).copied().unwrap_or(0) == *observed)
    }

    /// Bumps the generation, logically evicting every cached entry,
    /// and frees the shard maps eagerly — a long-lived server must
    /// not keep stale bodies alive waiting for their exact keys to be
    /// looked up again. Call after any store mutation.
    pub fn invalidate(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
        for shard in self.shards.iter() {
            shard.lock().clear();
        }
    }

    /// Looks up a key, counting a hit or miss. Entries from an older
    /// generation — global or any stamped scope — are dropped and
    /// reported as misses; a hit refreshes the entry's LRU position.
    pub fn get(&self, key: &str) -> Option<V> {
        let mut shard = self.shard(key).lock();
        // Read under the shard lock: a racing invalidate + re-insert
        // must not make a freshly stamped entry look stale.
        let current = self.generation();
        let fresh = match shard.map.get(key) {
            Some(e) => e.generation == current && self.scopes_current(&e.scopes),
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        if fresh {
            let (stored_key, value) = {
                let (k, e) = shard.map.get_key_value(key).expect("checked above");
                (Arc::clone(k), e.value.clone())
            };
            shard.touch(&stored_key);
            self.hits.fetch_add(1, Ordering::Relaxed);
            Some(value)
        } else {
            shard.remove(key);
            self.misses.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// Inserts a value computed under `observed` (from
    /// [`begin`](Self::begin)). Dropped silently when a mutation
    /// intervened — the result may already be stale.
    pub fn insert(&self, key: impl Into<String>, value: V, observed: u64) {
        self.insert_entry(key.into(), value, observed, Box::from([]));
    }

    /// Inserts a value computed under a [`ScopedStamp`] (from
    /// [`begin_scoped`](Self::begin_scoped)). Dropped silently when
    /// the global generation *or any observed scope* moved while the
    /// value was being computed.
    pub fn insert_scoped(&self, key: impl Into<String>, value: V, stamp: ScopedStamp) {
        self.insert_entry(key.into(), value, stamp.generation, stamp.scopes);
    }

    fn insert_entry(&self, key: String, value: V, observed: u64, scopes: Box<[(String, u64)]>) {
        if observed != self.generation() {
            return;
        }
        let bytes = key.len() + value.weight();
        let key: Arc<str> = Arc::from(key);
        let mut shard = self.shard(&key).lock();
        // Re-check under the shard lock: an invalidation racing the
        // first check must not let a stale value land.
        if observed != self.generation() || !self.scopes_current(&scopes) {
            return;
        }
        shard.remove(&key);
        shard.bytes += bytes;
        shard.map.insert(
            Arc::clone(&key),
            Entry {
                generation: observed,
                scopes,
                value,
                bytes,
                touched: 0,
            },
        );
        shard.touch(&key);
        self.evict_over_bounds(&mut shard, observed);
    }

    /// Brings a shard back under both bounds (entry cap and byte
    /// budget): first drops every **stale** entry (older generation or
    /// bumped scope — already logically evicted, just not yet
    /// collected), then pops **least-recently-used** live entries
    /// until the bounds hold. Both phases are deterministic; the most
    /// recently inserted/touched entry is evicted last, and only if it
    /// alone exceeds the budget.
    fn evict_over_bounds(&self, shard: &mut ShardInner<V>, current: u64) {
        let budget = self.shard_budget();
        let over = |s: &ShardInner<V>| s.map.len() > MAX_SHARD_ENTRIES || s.bytes > budget;
        if !over(shard) {
            return;
        }
        // Stale-first: reclaim logically dead entries before touching
        // any live one.
        let stale: Vec<Arc<str>> = shard
            .map
            .iter()
            .filter(|(_, e)| e.generation != current || !self.scopes_current(&e.scopes))
            .map(|(k, _)| Arc::clone(k))
            .collect();
        for key in stale {
            shard.remove(&key);
        }
        // Then strict LRU: pop recency records oldest-first, skipping
        // superseded ones.
        while over(shard) {
            match shard.order.pop_front() {
                Some((tick, key)) => {
                    if shard.map.get(&key).is_some_and(|e| e.touched == tick) {
                        shard.remove(&key);
                    }
                }
                None => break, // map must be empty too
            }
        }
    }

    /// Cache hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Live entries across all shards (stale entries not yet evicted
    /// count too).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Tracked bytes across all shards (key bytes + value weights,
    /// stale-but-uncollected entries included).
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }

    /// Whether no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn hit_miss_accounting() {
        let cache = ShardedCache::new(4);
        assert!(cache.get("a").is_none());
        let g = cache.begin();
        cache.insert("a", arc("1"), g);
        assert_eq!(cache.get("a").as_deref(), Some("1"));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), "a".len() + "1".len());
        assert!(!cache.is_empty());
    }

    #[test]
    fn generation_invalidates_all_entries() {
        let cache = ShardedCache::new(1);
        let g = cache.begin();
        cache.insert("a", arc("1"), g);
        cache.insert("b", arc("2"), g);
        cache.invalidate();
        assert!(cache.get("a").is_none(), "stale entries must miss");
        // Invalidation frees the shard maps eagerly.
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.bytes(), 0);
        let g2 = cache.begin();
        assert_eq!(g2, g + 1);
        cache.insert("a", arc("3"), g2);
        assert_eq!(cache.get("a").as_deref(), Some("3"));
    }

    #[test]
    fn stale_compute_does_not_land() {
        let cache = ShardedCache::new(2);
        let observed = cache.begin();
        // A mutation intervenes while the value is being computed.
        cache.invalidate();
        cache.insert("k", arc("stale"), observed);
        assert!(cache.get("k").is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn shard_size_is_bounded() {
        let cache = ShardedCache::new(1);
        let g = cache.begin();
        for i in 0..(MAX_SHARD_ENTRIES * 3) {
            cache.insert(format!("k{i}"), arc("v"), g);
        }
        assert!(cache.len() <= MAX_SHARD_ENTRIES, "cache must stay bounded");
        // Re-inserting an existing key does not evict anything.
        let before = cache.len();
        cache.insert("k0", arc("v2"), g);
        assert!(cache.len() <= before.max(MAX_SHARD_ENTRIES));
    }

    #[test]
    fn byte_budget_is_enforced() {
        let cache = ShardedCache::new(1);
        // Each entry: 3-byte key + 10-byte value = 13 tracked bytes.
        cache.set_budget(5 * 13);
        let g = cache.begin();
        for i in 10..40 {
            cache.insert(format!("k{i}"), arc("0123456789"), g);
        }
        assert!(
            cache.bytes() <= cache.budget(),
            "tracked bytes {} must stay within the budget {}",
            cache.bytes(),
            cache.budget()
        );
        assert_eq!(cache.len(), 5);
        // The survivors are exactly the five most recent insertions.
        for i in 35..40 {
            assert!(cache.get(&format!("k{i}")).is_some(), "k{i} must survive");
        }
    }

    /// The PR-7 regression pin: the eviction victim is chosen by
    /// recency, not by `HashMap` iteration order — a hot (recently
    /// read) entry survives insertion pressure that evicts a colder
    /// sibling inserted after it.
    #[test]
    fn eviction_is_lru_not_arbitrary() {
        let cache = ShardedCache::new(1);
        cache.set_budget(3 * 12); // three 12-byte entries fit
        let g = cache.begin();
        cache.insert("aa", arc("0123456789"), g);
        cache.insert("bb", arc("0123456789"), g);
        cache.insert("cc", arc("0123456789"), g);
        // Touch "aa": it is now the most recently used, "bb" the LRU.
        assert!(cache.get("aa").is_some());
        cache.insert("dd", arc("0123456789"), g);
        assert!(cache.get("bb").is_none(), "LRU victim must be bb");
        assert!(cache.get("aa").is_some(), "recently read entry survives");
        assert!(cache.get("cc").is_some());
        assert!(cache.get("dd").is_some());
    }

    /// Stale entries are reclaimed before any live entry is evicted,
    /// even when the stale entry is the most recently used.
    #[test]
    fn eviction_prefers_stale_over_live() {
        let cache = ShardedCache::new(1);
        cache.set_budget(3 * 12);
        let g = cache.begin();
        cache.insert("aa", arc("0123456789"), g);
        let stamp = cache.begin_scoped(["exp:dead"]);
        cache.insert_scoped("bb", arc("0123456789"), stamp);
        cache.insert("cc", arc("0123456789"), g);
        // "bb" is logically dead but the most recently *inserted live
        // touch* is "cc"; make "bb" also the most recently used so the
        // stale-first rule (not recency) must save the live entries.
        assert!(cache.get("bb").is_some());
        cache.invalidate_scopes(["exp:dead"]);
        cache.insert("dd", arc("0123456789"), g);
        assert!(cache.get("aa").is_some(), "live LRU survives: stale first");
        assert!(cache.get("cc").is_some());
        assert!(cache.get("dd").is_some());
        assert!(cache.get("bb").is_none());
    }

    #[test]
    fn oversized_value_does_not_pin_the_cache() {
        let cache = ShardedCache::new(1);
        cache.set_budget(16);
        let g = cache.begin();
        cache.insert("k", Arc::<str>::from("x".repeat(64).as_str()), g);
        assert!(
            cache.bytes() <= 16,
            "an entry larger than the whole budget must not stick"
        );
    }

    #[test]
    fn generic_value_tier_shares_the_invalidation_rule() {
        // The response-byte tier the server stacks on top: full
        // serialized responses plus a body offset.
        let cache: ShardedCache<(Arc<[u8]>, usize)> = ShardedCache::new(2);
        let g = cache.begin();
        let bytes: Arc<[u8]> = Arc::from(b"HTTP/1.1 200 OK\r\n\r\n{}".as_slice());
        cache.insert("k", (Arc::clone(&bytes), 19), g);
        let (hit, body_start) = cache.get("k").expect("fresh entry");
        assert_eq!(&hit[body_start..], b"{}");
        cache.invalidate();
        assert!(cache.get("k").is_none(), "generation bump clears the tier");
    }

    #[test]
    fn scoped_invalidation_only_evicts_the_named_scopes() {
        let cache = ShardedCache::new(4);
        let s1 = cache.begin_scoped(["exp:run-1"]);
        cache.insert_scoped("metrics?run-1", arc("m1"), s1);
        let s2 = cache.begin_scoped(["exp:run-2"]);
        cache.insert_scoped("metrics?run-2", arc("m2"), s2);
        let listing = cache.begin_scoped(["sys:experiments"]);
        cache.insert_scoped("experiments", arc("le"), listing);
        let s3 = cache.begin_scoped(["sys:datasets"]);
        cache.insert_scoped("datasets", arc("ds"), s3);

        // Importing/touching run-1 bumps its scope and the experiment
        // listing; run-2's metrics and the dataset listing survive.
        cache.invalidate_scopes(["exp:run-1", "sys:experiments"]);
        assert!(cache.get("metrics?run-1").is_none(), "touched scope evicts");
        assert!(cache.get("experiments").is_none(), "listing changed");
        assert_eq!(cache.get("metrics?run-2").as_deref(), Some("m2"));
        assert_eq!(cache.get("datasets").as_deref(), Some("ds"));
    }

    #[test]
    fn scoped_compute_straddling_a_scope_bump_does_not_land() {
        let cache = ShardedCache::new(2);
        let stamp = cache.begin_scoped(["exp:a"]);
        cache.invalidate_scopes(["exp:a"]);
        cache.insert_scoped("k", arc("stale"), stamp);
        assert!(cache.get("k").is_none());
    }

    #[test]
    fn global_invalidation_still_clears_scoped_entries() {
        let cache = ShardedCache::new(2);
        let stamp = cache.begin_scoped(["exp:a"]);
        cache.insert_scoped("k", arc("v"), stamp);
        cache.invalidate();
        assert!(cache.get("k").is_none());
        assert_eq!(cache.len(), 0, "global invalidation stays eager");
    }

    #[test]
    fn scope_blind_entries_ignore_scope_bumps() {
        let cache = ShardedCache::new(2);
        let g = cache.begin();
        cache.insert("k", arc("v"), g);
        cache.invalidate_scopes(["exp:a", "sys:experiments"]);
        assert_eq!(cache.get("k").as_deref(), Some("v"));
    }

    #[test]
    fn dropped_stale_lookup_releases_its_bytes() {
        let cache = ShardedCache::new(1);
        let stamp = cache.begin_scoped(["exp:a"]);
        cache.insert_scoped("k", arc("0123456789"), stamp);
        let full = cache.bytes();
        assert!(full > 0);
        cache.invalidate_scopes(["exp:a"]);
        assert!(cache.get("k").is_none());
        assert_eq!(cache.bytes(), 0, "lazy eviction must release bytes");
    }

    #[test]
    fn recency_queue_stays_compact_under_repeated_hits() {
        let cache = ShardedCache::new(1);
        let g = cache.begin();
        cache.insert("k", arc("v"), g);
        for _ in 0..10_000 {
            assert!(cache.get("k").is_some());
        }
        let order_len = cache.shards[0].lock().order.len();
        assert!(
            order_len <= 2 + ORDER_SLACK,
            "recency queue must not grow with hit count (len {order_len})"
        );
    }

    #[test]
    fn concurrent_readers_and_invalidation() {
        let cache: Arc<ShardedCache> = Arc::new(ShardedCache::new(8));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let key = format!("k{}", i % 10);
                        let g = cache.begin();
                        if cache.get(&key).is_none() {
                            cache.insert(key, Arc::from(format!("v{g}").as_str()), g);
                        }
                        if t == 0 && i % 50 == 0 {
                            cache.invalidate();
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // Every surviving entry must be stamped with the final
        // generation once re-read.
        let g = cache.generation();
        for i in 0..10 {
            if let Some(v) = cache.get(&format!("k{i}")) {
                assert_eq!(v.as_ref(), format!("v{g}"));
            }
        }
    }
}
