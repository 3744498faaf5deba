//! The bounded result cache.
//!
//! A keyword search depends only on the prepared graph's immutable indexes,
//! the search configuration and the *normalized* query terms, and every
//! phase of it — matching, augmentation, exploration, query mapping — is
//! deterministic. Under serving traffic (see [`crate::serve`]) a few hot
//! keyword combinations account for most requests, and exploration is where
//! a request's time goes (the committed benchmark's per-layer shares put it
//! at roughly half to four fifths of a cold request, matching well under a
//! quarter, augmentation under one percent). So [`AugmentationCache`] caches
//! the answer, not the cheap phases in front of it. Its whole contract:
//!
//! * **A hit is a replay.** A resident entry holds the *complete* ranked-query
//!   stream a drained session emitted under the key (or the verdict that no
//!   keyword matched anything). A session that hits emits from that log
//!   instead of matching, augmenting and exploring — **bit-identically**,
//!   which the cross-thread determinism suite, the cache-coherence proptests
//!   and the sanitizer's shadow exploration pin. It is still a full
//!   [`SearchSession`](crate::SearchSession): `raise_k` rebuilds the
//!   augmented graph from a fresh lookup, explores for real and
//!   fast-forwards past the replayed prefix, exactly like raising a session
//!   that explored honestly.
//! * **A miss is an ordinary session.** Nothing is registered, nobody waits:
//!   concurrent sessions that miss on one key each run the full search.
//! * **Entries appear when a session drains.** A session that reaches the end
//!   of its stream naturally — not raised, not truncated by the `max_cursors`
//!   valve, not aborted by a deadline or cancellation — inserts its log in
//!   one step under the cache mutex. Racing drained sessions computed
//!   identical logs; the first insert wins. A session that stops early
//!   (first-query-only consumers, `min_answers` requests) inserts nothing.
//!
//! Entries are immutable once inserted and keyed by [`AugmentationKey`] — the
//! full [`SearchConfig`] (embedded verbatim, so cross-config collisions are
//! impossible by construction), the per-keyword normalized terms, and the
//! write epoch. Keying on the normalized terms (lower-cased, tokenized, stop
//! words removed — see
//! [`KeywordIndex::normalized_query_terms`](kwsearch_keyword_index::KeywordIndex::normalized_query_terms))
//! rather than the raw strings lets `"Cimiano"` and `"cimiano"` share an
//! entry; keeping the per-keyword term lists *in query order* is essential,
//! because the augmentation assigns dense element ids in keyword order and a
//! reordered query may legitimately break cost ties differently. Keying on
//! the configuration means sessions with different configurations over one
//! [`PreparedGraph`](crate::PreparedGraph) never invalidate or corrupt each
//! other's entries: each configuration populates its own keys, and going
//! back to an earlier one rehits its entries.

use std::collections::{HashMap, HashSet};
use std::mem::size_of_val;

use kwsearch_keyword_index::ElementRef;
use kwsearch_query::QueryTerm;

use crate::config::SearchConfig;
use crate::invariants;
use crate::result::RankedQuery;
use crate::sync::{lock_unpoisoned, Arc, Mutex};

/// The key of one cached result: the search configuration (embedded
/// verbatim — see [`SearchConfig`]'s `Eq + Hash` note), the normalized
/// query terms of every keyword in query order, and the write epoch of the
/// preparation the entry was computed against.
///
/// The epoch serves the live write path (see [`crate::live`]): a cache
/// shared across a [`LiveGraph`](crate::live::LiveGraph)'s succession of
/// prepared snapshots folds each snapshot's monotone write epoch into the
/// key, so an entry computed before a write — its match counts and above
/// all its replay log — can never be served to a reader of a later
/// snapshot. Frozen, standalone preparations stay at epoch 0 and behave
/// exactly as before.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AugmentationKey {
    config: SearchConfig,
    terms: Vec<Vec<String>>,
    epoch: u64,
}

impl AugmentationKey {
    /// Builds a key from a configuration and the per-keyword normalized
    /// term lists (one entry per input keyword, in query order; keywords
    /// that normalize to nothing contribute an empty list). The key starts
    /// at write epoch 0 — the frozen-preparation case.
    pub fn new(config: SearchConfig, terms: Vec<Vec<String>>) -> Self {
        Self {
            config,
            terms,
            epoch: 0,
        }
    }

    /// Folds a write epoch into the key fingerprint (see the type docs).
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// The write epoch folded into this key.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of keywords the key covers.
    pub fn keyword_count(&self) -> usize {
        self.terms.len()
    }

    /// Approximate heap footprint of the key's term lists.
    fn heap_bytes(&self) -> usize {
        let per_keyword = |terms: &Vec<String>| {
            size_of_val(terms.as_slice()) + terms.iter().map(String::len).sum::<usize>()
        };
        size_of_val(self.terms.as_slice()) + self.terms.iter().map(per_keyword).sum::<usize>()
    }
}

/// One immutable cache entry: everything a same-key session needs to report
/// and emit exactly what the drained session that inserted it did.
#[derive(Debug)]
pub(crate) struct CachedAugmentation {
    /// Per-keyword element-match counts (aligned with the query order), used
    /// to rebuild the session's keyword report without re-running the
    /// matching.
    pub(crate) element_matches: Vec<usize>,
    /// Element count of the augmented summary graph the inserting session
    /// explored — the size its outcome reported (0 for a negative entry).
    pub(crate) augmented_elements: usize,
    /// The distinct elements the keywords matched, in canonical (sorted)
    /// order — the fan-in side of the cache's per-element reverse map. A
    /// write that touches any of these elements invalidates the entry (see
    /// [`AugmentationCache::advance_epoch`]); an entry whose elements are
    /// all untouched can be carried forward to the new epoch. Empty for
    /// negative entries (nothing matched, so nothing to touch).
    pub(crate) elements: Vec<ElementRef>,
    /// The complete ranked-query stream the drained session emitted, in
    /// emission order — or `None` for a *negative* entry: the keywords all
    /// failed to match, the session start errors before augmenting, and
    /// caching that verdict keeps a hot failing query from re-running the
    /// matching on every request. The exploration is deterministic over the
    /// (immutable) indexes and the keyed configuration, so replaying the log
    /// is bit-identical to re-exploring.
    pub(crate) queries: Option<Vec<RankedQuery>>,
}

impl CachedAugmentation {
    /// Assembles an entry. `elements` need not be sorted or distinct; it is
    /// canonicalized here.
    pub(crate) fn new(
        element_matches: Vec<usize>,
        augmented_elements: usize,
        mut elements: Vec<ElementRef>,
        queries: Option<Vec<RankedQuery>>,
    ) -> Self {
        elements.sort_unstable();
        elements.dedup();
        Self {
            element_matches,
            augmented_elements,
            elements,
            queries,
        }
    }

    /// Approximate heap footprint of the entry: the replay log (queries and
    /// the subgraphs they were mapped from) plus the match counts and the
    /// matched-element set.
    fn heap_bytes(&self) -> usize {
        let log = self.queries.as_deref().unwrap_or_default();
        size_of_val(self.element_matches.as_slice())
            + size_of_val(self.elements.as_slice())
            + size_of_val(log)
            + log.iter().map(ranked_query_heap_bytes).sum::<usize>()
    }

    /// debug-invariants: a drained session that finds its key already
    /// resident must have computed a bit-identical log (the determinism
    /// contract the first-writer-wins policy relies on).
    fn assert_same_log(&self, late: &Self) {
        let (resident, late) = (
            self.queries.as_deref().unwrap_or_default(),
            late.queries.as_deref().unwrap_or_default(),
        );
        assert_eq!(
            resident.len(),
            late.len(),
            "late replay log disagrees in length with the resident log"
        );
        for (resident, late) in resident.iter().zip(late) {
            assert_eq!(
                resident.cost.to_bits(),
                late.cost.to_bits(),
                "late replay log disagrees in cost with the resident log"
            );
            assert_eq!(
                resident.query.canonicalized(),
                late.query.canonicalized(),
                "late replay log disagrees in query with the resident log"
            );
        }
    }
}

/// Approximate heap bytes one logged query owns beyond its inline size: the
/// atoms and variable names of the conjunctive query, and the per-keyword
/// paths and element set of the subgraph it was mapped from.
fn ranked_query_heap_bytes(ranked: &RankedQuery) -> usize {
    let term = |t: &QueryTerm| t.as_variable().or(t.as_constant()).map_or(0, str::len);
    let (query, subgraph) = (&ranked.query, &ranked.subgraph);
    let atoms: usize = query
        .atoms()
        .iter()
        .map(|a| a.predicate.len() + term(&a.subject) + term(&a.object))
        .sum();
    let distinguished: usize = query.distinguished().iter().map(String::len).sum();
    let paths: usize = subgraph
        .paths()
        .iter()
        .map(|p| size_of_val(p.elements.as_slice()))
        .sum();
    size_of_val(query.atoms())
        + atoms
        + size_of_val(query.distinguished())
        + distinguished
        + size_of_val(subgraph.paths())
        + paths
        + size_of_val(subgraph.elements())
}

/// Cumulative counters of one [`AugmentationCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes that found their key resident: the session replayed the
    /// entry's log (or re-raised its negative verdict) instead of searching.
    pub hits: u64,
    /// Probes that found nothing: the session ran the full search.
    pub misses: u64,
    /// Entries inserted (one per key a session drained under first).
    pub insertions: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Entries dropped by keyed invalidation: a write touched one of the
    /// entry's matched elements (see `AugmentationCache::advance_epoch`).
    pub invalidations: u64,
    /// Entries carried forward to a new write epoch because the write
    /// touched none of their matched elements.
    pub promotions: u64,
    /// Entries currently resident.
    pub len: usize,
    /// The capacity bound (0 means the cache is disabled).
    pub capacity: usize,
    /// Approximate heap footprint of what is resident, in bytes: every
    /// entry's key terms, match counts, matched-element set and replay log
    /// (queries and subgraphs) — what a hit clones from. A promoted entry
    /// shares its payload with its old-epoch twin and is counted under both
    /// keys while both are resident.
    pub heap_bytes: usize,
}

impl CacheStats {
    /// Fraction of lookups that hit (`0.0` when nothing was looked up).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<AugmentationKey, Entry>,
    /// Per-element reverse map: which resident keys matched each element.
    /// Maintained by insert/remove so keyed invalidation
    /// ([`AugmentationCache::advance_epoch`]) never scans entry payloads.
    reverse: HashMap<ElementRef, HashSet<AugmentationKey>>,
    /// Monotonic logical clock stamping every hit/insert for LRU eviction.
    tick: u64,
    /// Approximate heap bytes of the resident entries (kept incrementally).
    heap_bytes: usize,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    invalidations: u64,
    promotions: u64,
}

#[derive(Debug)]
struct Entry {
    last_used: u64,
    payload: Arc<CachedAugmentation>,
}

impl CacheInner {
    fn remove(&mut self, key: &AugmentationKey) -> Option<Entry> {
        let entry = self.map.remove(key)?;
        self.heap_bytes = self
            .heap_bytes
            .saturating_sub(key.heap_bytes() + entry.payload.heap_bytes());
        for element in &entry.payload.elements {
            if let Some(keys) = self.reverse.get_mut(element) {
                keys.remove(key);
                if keys.is_empty() {
                    self.reverse.remove(element);
                }
            }
        }
        Some(entry)
    }

    /// Inserts `payload` under `key` with a fresh LRU tick, maintaining the
    /// heap estimate and the per-element reverse map.
    fn insert(&mut self, key: AugmentationKey, payload: Arc<CachedAugmentation>) {
        self.tick += 1;
        let tick = self.tick;
        self.heap_bytes += key.heap_bytes() + payload.heap_bytes();
        for element in &payload.elements {
            self.reverse
                .entry(*element)
                .or_default()
                .insert(key.clone());
        }
        self.map.insert(
            key,
            Entry {
                last_used: tick,
                payload,
            },
        );
    }

    /// Evicts least-recently-used entries until at most `capacity` remain.
    fn evict_to(&mut self, capacity: usize) {
        while self.map.len() > capacity {
            // O(capacity) scan; capacities are small (default 128) and
            // eviction is off the hit path.
            let Some(oldest) = self
                .map
                // lint: unordered-ok(reason = "min_by_key over last_used ticks, which the monotonic clock keeps unique — the selected entry is independent of hash order")
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| key.clone())
            else {
                break;
            };
            self.remove(&oldest);
            self.evictions += 1;
        }
    }
}

/// A bounded, thread-safe LRU cache of complete search results (see the
/// module docs for the contract).
///
/// The type keeps the name it had when it memoized augmentations because the
/// frozen benchmark reads it through
/// [`PreparedGraph::augmentation_cache`](crate::PreparedGraph::augmentation_cache);
/// rename it together with the next `benchmark/` change.
///
/// Owned by a [`PreparedGraph`](crate::PreparedGraph) and consulted by every
/// session start. All methods take `&self`; the cache is internally
/// synchronized with one [`Mutex`], so a `PreparedGraph` stays `Sync` and
/// many worker threads can share one cache. The critical sections are tiny
/// (a hash probe plus an `Arc` clone on a hit, a map insert when a session
/// drains) and nothing ever blocks on another session's work.
///
/// A capacity of 0 disables the cache: every lookup misses and insertions
/// are dropped.
#[derive(Debug)]
pub struct AugmentationCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
}

impl AugmentationCache {
    /// The capacity used by [`Default`] and by
    /// [`PreparedGraph::index`](crate::PreparedGraph::index).
    pub const DEFAULT_CAPACITY: usize = 128;

    /// Creates a cache bounded to `capacity` entries (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(CacheInner::default()),
            capacity,
        }
    }

    /// Whether the cache stores anything at all (capacity > 0).
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current counters (len/capacity plus cumulative hit/miss/eviction
    /// counts).
    pub fn stats(&self) -> CacheStats {
        let inner = lock_unpoisoned(&self.inner);
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            insertions: inner.insertions,
            evictions: inner.evictions,
            invalidations: inner.invalidations,
            promotions: inner.promotions,
            len: inner.map.len(),
            capacity: self.capacity,
            heap_bytes: inner.heap_bytes,
        }
    }

    /// Drops every entry (the counters keep accumulating). Sessions already
    /// running are unaffected and insert as usual when they drain.
    pub fn clear(&self) {
        let mut inner = lock_unpoisoned(&self.inner);
        inner.map.clear();
        inner.reverse.clear();
        inner.heap_bytes = 0;
    }

    /// Advances the live write epoch (see [`crate::live`]): processes every
    /// resident entry keyed at epoch `from` — the snapshot the write
    /// replaced. Entries whose matched elements intersect `touched` are
    /// removed (keyed invalidation via the per-element reverse map; they
    /// describe state the write changed). When `promote` is set — the
    /// caller proved the write changed neither the match vocabulary nor the
    /// summary structure — the remaining (untouched) entries are carried
    /// forward: re-inserted under the same config/terms at epoch `to`,
    /// sharing the payload, so readers of the new snapshot keep hitting.
    /// Without `promote` the untouched entries merely stay behind at their
    /// old epoch, serving concurrent readers of the replaced snapshot until
    /// LRU pressure or [`Self::prune_below_epoch`] retires them.
    pub(crate) fn advance_epoch(&self, from: u64, to: u64, touched: &[ElementRef], promote: bool) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = lock_unpoisoned(&self.inner);
        // Keys to drop: resolved through the reverse map, so the cost is
        // proportional to the touched entries, not the cache size.
        // The collected keys are sorted-deduped below, so removal order over
        // a set of distinct keys cannot affect the resulting map.
        let mut stale: Vec<AugmentationKey> = touched
            .iter()
            .filter_map(|element| inner.reverse.get(element))
            .flat_map(|keys| keys.iter().filter(|k| k.epoch == from).cloned())
            .collect();
        stale.sort_by(|a, b| a.terms.cmp(&b.terms).then(a.epoch.cmp(&b.epoch)));
        stale.dedup();
        for key in stale {
            if inner.remove(&key).is_some() {
                inner.invalidations += 1;
            }
        }
        if promote {
            let survivors: Vec<AugmentationKey> = inner
                .map
                // lint: unordered-ok(reason = "promotion re-keys every surviving entry exactly once; the per-entry LRU ticks it assigns only bias later eviction order, never a served result")
                .keys()
                .filter(|k| k.epoch == from)
                .cloned()
                .collect();
            for key in survivors {
                let payload = Arc::clone(&inner.map[&key].payload);
                inner.insert(key.with_epoch(to), payload);
                inner.promotions += 1;
            }
            inner.evict_to(self.capacity);
        }
    }

    /// Drops every entry keyed below `epoch` — the compaction-time sweep
    /// retiring entries that only ever served readers of replaced
    /// snapshots.
    pub(crate) fn prune_below_epoch(&self, epoch: u64) {
        let mut inner = lock_unpoisoned(&self.inner);
        let old: Vec<AugmentationKey> = inner
            .map
            // lint: unordered-ok(reason = "removing a fixed set of keys; the resulting map is independent of removal order")
            .keys()
            .filter(|k| k.epoch < epoch)
            .cloned()
            .collect();
        for key in old {
            inner.remove(&key);
            inner.invalidations += 1;
        }
    }

    /// Probes a key, counting the hit or the miss. A hit refreshes the
    /// entry's LRU stamp and returns the resident entry to replay; a miss
    /// registers nothing — the caller runs an ordinary session and calls
    /// [`Self::insert`] if it drains. Never blocks on another session.
    ///
    /// # Panics
    ///
    /// Panics when the cache is disabled (capacity 0); callers skip the
    /// cache entirely in that case.
    pub(crate) fn probe(&self, key: &AugmentationKey) -> Option<Arc<CachedAugmentation>> {
        assert!(self.capacity > 0, "probe on a disabled cache");
        let mut guard = lock_unpoisoned(&self.inner);
        let inner = &mut *guard;
        inner.tick += 1;
        match inner.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = inner.tick;
                inner.hits += 1;
                Some(Arc::clone(&entry.payload))
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Inserts the entry of a session that drained under `key`, evicting
    /// least-recently-used entries past the capacity bound. First writer
    /// wins: when the key is already resident — another session that missed
    /// at the same time drained first — the late entry is dropped (it is
    /// identical by determinism, which the sanitizer checks).
    pub(crate) fn insert(&self, key: AugmentationKey, payload: CachedAugmentation) {
        let mut inner = lock_unpoisoned(&self.inner);
        if let Some(resident) = inner.map.get(&key) {
            if invariants::enabled() {
                resident.payload.assert_same_log(&payload);
            }
            return;
        }
        inner.insert(key, Arc::new(payload));
        inner.evict_to(self.capacity);
        inner.insertions += 1;
        // debug-invariants: the eviction loop above must have restored the
        // capacity bound, and the incremental heap-byte estimate must agree
        // with a full recount.
        if invariants::enabled() {
            assert!(
                inner.map.len() <= self.capacity,
                "LRU bound violated: {} resident entries exceed capacity {}",
                inner.map.len(),
                self.capacity
            );
            let recount: usize = inner
                .map
                // lint: unordered-ok(reason = "summing heap bytes — addition over usize is commutative, the total is independent of hash order")
                .iter()
                .map(|(key, entry)| key.heap_bytes() + entry.payload.heap_bytes())
                .sum();
            assert_eq!(
                recount, inner.heap_bytes,
                "incremental heap-byte estimate drifted from the recount"
            );
            // The reverse map must list exactly the resident keys of every
            // element (no leaked keys after remove/clear, none missing after
            // insert/promotion).
            let mut expected: HashMap<ElementRef, HashSet<AugmentationKey>> = HashMap::new();
            // Building a set-valued map: insertion order over a hash map
            // cannot change the resulting sets.
            for (key, entry) in &inner.map {
                for element in &entry.payload.elements {
                    expected.entry(*element).or_default().insert(key.clone());
                }
            }
            assert_eq!(
                expected, inner.reverse,
                "per-element reverse map drifted from the resident entries"
            );
        }
    }
}

impl Default for AugmentationCache {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PreparedGraph;
    use kwsearch_rdf::fixtures::figure1_graph;

    /// The entry a session draining `keywords` on the Fig. 1 graph inserts
    /// (with an empty matched-element set: these tests key by `tag`).
    fn payload(keywords: &[&str]) -> CachedAugmentation {
        let uncached = PreparedGraph::index_with(figure1_graph(), Default::default(), 0);
        let outcome = uncached
            .session(keywords, SearchConfig::with_k(7))
            .unwrap()
            .into_outcome();
        assert!(!outcome.queries.is_empty());
        CachedAugmentation::new(
            outcome.keywords.iter().map(|k| k.element_matches).collect(),
            outcome.augmented_elements,
            Vec::new(),
            Some(outcome.queries),
        )
    }

    fn key(tag: &str) -> AugmentationKey {
        AugmentationKey::new(SearchConfig::with_k(7), vec![vec![tag.to_string()]])
    }

    /// Probes expecting a miss, then inserts like a drained session would.
    fn fill(cache: &AugmentationCache, tag: &str, keywords: &[&str]) {
        assert!(
            cache.probe(&key(tag)).is_none(),
            "key {tag} unexpectedly resident"
        );
        cache.insert(key(tag), payload(keywords));
    }

    fn hit(cache: &AugmentationCache, tag: &str) -> Option<Arc<CachedAugmentation>> {
        cache.probe(&key(tag))
    }

    #[test]
    fn hits_misses_and_insertions_are_counted() {
        let cache = AugmentationCache::new(4);
        fill(&cache, "a", &["aifb"]);
        let resident = hit(&cache, "a").expect("inserted entry hits");
        assert_eq!(resident.element_matches.len(), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert_eq!(stats.len, 1);
        assert!(stats.hit_ratio() > 0.0);
    }

    #[test]
    fn capacity_bound_holds_and_lru_entry_is_evicted() {
        let cache = AugmentationCache::new(2);
        fill(&cache, "a", &["aifb"]);
        fill(&cache, "b", &["cimiano"]);
        // Touch "a" so "b" becomes the LRU entry.
        assert!(hit(&cache, "a").is_some());
        fill(&cache, "c", &["2006"]);
        let stats = cache.stats();
        assert_eq!(stats.len, 2);
        assert_eq!(stats.evictions, 1);
        assert!(hit(&cache, "a").is_some(), "recently used survives");
        assert!(hit(&cache, "b").is_none(), "LRU entry was evicted");
        assert!(hit(&cache, "c").is_some());
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let cache = AugmentationCache::new(0);
        assert!(!cache.is_enabled());
        assert_eq!(cache.stats().len, 0);
        assert_eq!(cache.stats().capacity, 0);
    }

    #[test]
    fn keys_distinguish_config_order_and_terms() {
        let terms = |words: &[&str]| -> Vec<Vec<String>> {
            words.iter().map(|w| vec![w.to_string()]).collect()
        };
        let k1 = SearchConfig::with_k(1);
        let base = AugmentationKey::new(k1.clone(), terms(&["a", "b"]));
        assert_eq!(base, AugmentationKey::new(k1.clone(), terms(&["a", "b"])));
        assert_ne!(
            base,
            AugmentationKey::new(SearchConfig::with_k(2), terms(&["a", "b"]))
        );
        assert_ne!(base, AugmentationKey::new(k1.clone(), terms(&["b", "a"])));
        assert_ne!(base, AugmentationKey::new(k1, terms(&["a"])));
        assert_eq!(base.keyword_count(), 2);
    }

    #[test]
    fn heap_bytes_track_insertions_evictions_and_clear() {
        let cache = AugmentationCache::new(1);
        assert_eq!(cache.stats().heap_bytes, 0);
        let log_len = payload(&["aifb"]).queries.map_or(0, |log| log.len());
        fill(&cache, "a", &["aifb"]);
        let after_a = cache.stats().heap_bytes;
        assert!(
            after_a > log_len * std::mem::size_of::<RankedQuery>(),
            "the footprint covers the replay log, not just the key: {after_a}"
        );
        fill(&cache, "b", &["cimiano"]); // evicts "a"
        let stats = cache.stats();
        assert_eq!(stats.len, 1);
        assert!(stats.heap_bytes > 0);
        cache.clear();
        assert_eq!(cache.stats().heap_bytes, 0);
    }

    #[test]
    fn clear_keeps_counters_but_drops_entries() {
        let cache = AugmentationCache::new(4);
        fill(&cache, "a", &["aifb"]);
        cache.clear();
        assert_eq!(cache.stats().len, 0);
        assert_eq!(cache.stats().insertions, 1);
        assert!(hit(&cache, "a").is_none());
    }

    #[test]
    fn epoch_distinguishes_otherwise_equal_keys() {
        let base = key("same");
        assert_eq!(base.clone(), base.clone().with_epoch(0));
        assert_ne!(base.clone(), base.clone().with_epoch(1));
        assert_eq!(base.clone().with_epoch(3).epoch(), 3);

        let cache = AugmentationCache::new(4);
        fill(&cache, "same", &["aifb"]);
        assert!(
            cache.probe(&key("same").with_epoch(1)).is_none(),
            "an epoch-0 entry must not serve epoch-1 readers"
        );
    }

    /// An entry whose declared elements include `element`.
    fn fill_with_element(cache: &AugmentationCache, tag: &str, element: ElementRef) {
        cache.insert(
            key(tag),
            CachedAugmentation::new(vec![1], 0, vec![element], Some(Vec::new())),
        );
    }

    #[test]
    fn advance_epoch_invalidates_touched_entries_and_promotes_the_rest() {
        let touched_element = ElementRef::Value(kwsearch_rdf::VertexId::from_index(7));
        let safe_element = ElementRef::Value(kwsearch_rdf::VertexId::from_index(9));
        let cache = AugmentationCache::new(4);
        fill_with_element(&cache, "touched", touched_element);
        fill_with_element(&cache, "safe", safe_element);

        cache.advance_epoch(0, 1, &[touched_element], true);
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 1, "{stats:?}");
        assert_eq!(stats.promotions, 1, "{stats:?}");

        // The touched entry is gone at both epochs.
        assert!(hit(&cache, "touched").is_none());
        assert!(
            cache.probe(&key("touched").with_epoch(1)).is_none(),
            "the touched entry must not survive the write"
        );
        // The safe entry is resident at the old epoch *and* the new one,
        // sharing one payload.
        let old = hit(&cache, "safe").expect("old-epoch readers keep hitting");
        let promoted = cache
            .probe(&key("safe").with_epoch(1))
            .expect("the promoted entry must hit at the new epoch");
        assert!(Arc::ptr_eq(&promoted, &old));
    }

    #[test]
    fn advance_epoch_without_promotion_leaves_survivors_behind() {
        let safe_element = ElementRef::Value(kwsearch_rdf::VertexId::from_index(3));
        let cache = AugmentationCache::new(4);
        fill_with_element(&cache, "safe", safe_element);
        cache.advance_epoch(0, 1, &[], false);
        assert_eq!(cache.stats().promotions, 0);
        assert!(hit(&cache, "safe").is_some(), "old epoch still serves");
        assert!(
            cache.probe(&key("safe").with_epoch(1)).is_none(),
            "no promotion was requested"
        );
    }

    #[test]
    fn prune_below_epoch_retires_old_entries_only() {
        let element = ElementRef::Value(kwsearch_rdf::VertexId::from_index(1));
        let cache = AugmentationCache::new(4);
        fill_with_element(&cache, "old", element);
        cache.advance_epoch(0, 1, &[], true); // "old" promoted to epoch 1
        cache.prune_below_epoch(1);
        assert!(hit(&cache, "old").is_none(), "the epoch-0 copy was pruned");
        assert!(
            cache.probe(&key("old").with_epoch(1)).is_some(),
            "the current-epoch copy must survive the prune"
        );
    }
}
