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
//!   and the sanitizer's shadow exploration pin.
//! * **A miss is an ordinary session.** Nothing is registered, nobody waits:
//!   concurrent sessions that miss on one key each run the full search.
//! * **Entries appear when a session drains.** A session that reaches the end
//!   of its stream naturally — not truncated by the `max_cursors` valve, not
//!   aborted by a deadline — inserts its log in one step under
//!   the cache mutex. Racing drained sessions computed identical logs; the
//!   first insert wins. A session that stops early (first-query-only
//!   consumers, `min_answers` requests) inserts nothing.
//! * **A snapshot owns its cache.** Every [`PreparedGraph`](crate::PreparedGraph)
//!   has a cache of its own, and an entry stays valid exactly as long as the
//!   immutable snapshot that computed it — so nothing is ever invalidated. A
//!   [`LiveGraph`](crate::LiveGraph) write builds its successor snapshot
//!   around a fresh, empty cache; compaction hands the cache on, because the
//!   compacted snapshot holds the same data at the same epoch.
//!
//! Entries are immutable once inserted and keyed by [`AugmentationKey`] — the
//! full [`SearchConfig`] (embedded verbatim, so cross-config collisions are
//! impossible by construction) and the per-keyword normalized terms. Keying
//! on the normalized terms (lower-cased, tokenized, stop words removed — see
//! [`KeywordIndex::normalized_query_terms`](kwsearch_keyword_index::KeywordIndex::normalized_query_terms))
//! rather than the raw strings lets `"Cimiano"` and `"cimiano"` share an
//! entry; keeping the per-keyword term lists *in query order* is essential,
//! because the augmentation assigns dense element ids in keyword order and a
//! reordered query may legitimately break cost ties differently. Keying on
//! the configuration means sessions with different configurations over one
//! [`PreparedGraph`](crate::PreparedGraph) never invalidate or corrupt each
//! other's entries: each configuration populates its own keys, and going
//! back to an earlier one rehits its entries.

use std::collections::HashMap;
use std::mem::size_of_val;
use std::sync::{Arc, Mutex};

use kwsearch_query::QueryTerm;

use crate::config::SearchConfig;
use crate::invariants;
use crate::result::RankedQuery;
use crate::sync::lock_unpoisoned;

/// The key of one cached result: the search configuration (embedded
/// verbatim — see [`SearchConfig`]'s `Eq + Hash` note) and the normalized
/// query terms of every keyword in query order. The snapshot is not part of
/// the key: each snapshot owns its cache (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AugmentationKey {
    config: SearchConfig,
    terms: Vec<Vec<String>>,
}

impl AugmentationKey {
    /// Builds a key from a configuration and the per-keyword normalized
    /// term lists (one entry per input keyword, in query order; keywords
    /// that normalize to nothing contribute an empty list).
    pub fn new(config: SearchConfig, terms: Vec<Vec<String>>) -> Self {
        Self { config, terms }
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
    /// Approximate heap footprint of the entry: the replay log (queries and
    /// the subgraphs they were mapped from) plus the match counts.
    fn heap_bytes(&self) -> usize {
        let log = self.queries.as_deref().unwrap_or_default();
        size_of_val(self.element_matches.as_slice())
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
    /// Always 0: entries are never invalidated, because each snapshot owns
    /// its cache. Kept only because the benchmark still reads it; it goes
    /// with the next `benchmark/` change.
    #[doc(hidden)]
    pub invalidations: u64,
    /// Entries currently resident.
    pub len: usize,
    /// The capacity bound (0 means the cache is disabled).
    pub capacity: usize,
    /// Approximate heap footprint of what is resident, in bytes: every
    /// entry's key terms, match counts and replay log (queries and
    /// subgraphs) — what a hit clones from.
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
    /// Monotonic logical clock stamping every hit/insert for LRU eviction.
    tick: u64,
    /// Approximate heap bytes of the resident entries (kept incrementally).
    heap_bytes: usize,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

#[derive(Debug)]
struct Entry {
    last_used: u64,
    payload: Arc<CachedAugmentation>,
}

impl CacheInner {
    /// Evicts least-recently-used entries until at most `capacity` remain.
    fn evict_to(&mut self, capacity: usize) {
        while self.map.len() > capacity {
            // O(capacity) scan; capacities are small (default 128) and
            // eviction is off the hit path.
            #[expect(
                clippy::disallowed_methods,
                reason = "min_by_key over last_used ticks, which the monotonic clock keeps unique — the selected entry is independent of hash order"
            )]
            let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| key.clone())
            else {
                break;
            };
            if let Some(entry) = self.map.remove(&oldest) {
                self.heap_bytes = self
                    .heap_bytes
                    .saturating_sub(oldest.heap_bytes() + entry.payload.heap_bytes());
            }
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
/// Owned by one [`PreparedGraph`](crate::PreparedGraph) (and shared only
/// with its compacted form, which holds the same data) and consulted by
/// every session start. All methods take `&self`; the cache is internally
/// synchronized with one [`Mutex`], so a `PreparedGraph` stays `Sync` and
/// any number of reader threads can share one cache. The critical sections
/// are tiny (a hash probe plus an `Arc` clone on a hit, a map insert when a
/// session drains) and nothing ever blocks on another session's work.
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
            invalidations: 0,
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
        inner.heap_bytes = 0;
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
        inner.tick += 1;
        inner.heap_bytes += key.heap_bytes() + payload.heap_bytes();
        let entry = Entry {
            last_used: inner.tick,
            payload: Arc::new(payload),
        };
        inner.map.insert(key, entry);
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
            #[expect(
                clippy::disallowed_methods,
                reason = "summing heap bytes — addition over usize is commutative, the total is independent of hash order"
            )]
            let recount: usize = inner
                .map
                .iter()
                .map(|(key, entry)| key.heap_bytes() + entry.payload.heap_bytes())
                .sum();
            assert_eq!(
                recount, inner.heap_bytes,
                "incremental heap-byte estimate drifted from the recount"
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
    /// (these tests key it by `tag`, not by the keywords).
    fn payload(keywords: &[&str]) -> CachedAugmentation {
        let uncached = PreparedGraph::index_with(figure1_graph(), Default::default(), 0);
        let outcome = uncached
            .session(keywords, SearchConfig::with_k(7))
            .unwrap()
            .into_outcome();
        assert!(!outcome.queries.is_empty());
        CachedAugmentation {
            element_matches: outcome.keywords.iter().map(|k| k.element_matches).collect(),
            augmented_elements: outcome.augmented_elements,
            queries: Some(outcome.queries),
        }
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

    /// Two sessions miss one key, both drain, both insert: the first insert
    /// wins, the late one is dropped, and both next probes are served the
    /// one resident log.
    #[test]
    fn racing_drained_sessions_insert_once() {
        let cache = AugmentationCache::new(4);
        let drained = std::sync::Barrier::new(2);
        let session = || {
            assert!(cache.probe(&key("shared")).is_none());
            drained.wait();
            cache.insert(
                key("shared"),
                CachedAugmentation {
                    element_matches: vec![1],
                    augmented_elements: 0,
                    queries: Some(Vec::new()),
                },
            );
            cache
                .probe(&key("shared"))
                .expect("resident once any session drained")
        };
        let (mine, theirs) = std::thread::scope(|scope| {
            let theirs = scope.spawn(session);
            (session(), theirs.join().unwrap())
        });
        assert!(
            Arc::ptr_eq(&mine, &theirs),
            "both readers must be served the one resident log"
        );
        let stats = cache.stats();
        assert_eq!(stats.insertions, 1, "the first drained session wins");
        assert_eq!(stats.len, 1, "one key, one resident entry");
        assert_eq!((stats.hits, stats.misses), (2, 2));
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
}
