//! The bounded augmentation cache.
//!
//! The first two phases of every search — keyword-to-element mapping and
//! summary-graph augmentation — depend only on the prepared graph's immutable
//! indexes, the search configuration and the *normalized* query terms.
//! Repeated or overlapping queries therefore redo identical work, and under
//! serving traffic (see [`crate::serve`]) the repetition dominates: a few
//! hot keyword combinations account for most requests.
//!
//! [`AugmentationCache`] memoizes that work. It is a bounded, thread-safe
//! LRU map from [`AugmentationKey`] — the pair of the full
//! [`SearchConfig`] (embedded verbatim, so cross-config
//! collisions are impossible by construction) and the
//! per-keyword normalized query terms — to the finished augmentation
//! ([`AugmentationSnapshot`]) plus the per-keyword match counts the session
//! report needs. A hit skips the matching *and* the augmentation phase
//! entirely, and is **bit-identical** to a fresh run: the snapshot captures
//! the built augmented graph exactly (same dense element ids, same CSR
//! order, same scores), and the exploration that runs on top is
//! deterministic. The cross-thread determinism suite and the cache-coherence
//! proptests pin this property.
//!
//! Determinism buys a second layer for free: once any session under a key
//! has drained naturally, its complete emission log (the ranked queries, in
//! order) is written back to the entry, and later same-key sessions *replay*
//! the log instead of exploring — the dominant cost of a repeated query
//! drops to cloning its results. A replayed session is still a full
//! [`SearchSession`](crate::SearchSession): `raise_k` falls back to real
//! exploration (over the snapshot's augmented graph) and fast-forwards past
//! the replayed prefix, exactly like raising a session that explored
//! honestly.
//!
//! Keying on the normalized terms (lower-cased, tokenized, stop words
//! removed — see
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
use std::sync::PoisonError;

use kwsearch_keyword_index::ElementRef;
use kwsearch_summary::AugmentationSnapshot;

use crate::config::SearchConfig;
use crate::invariants;
use crate::result::RankedQuery;
use crate::sync::{lock_unpoisoned, Arc, Condvar, Mutex};

/// The key of one cached augmentation: the search configuration (embedded
/// verbatim — see [`SearchConfig`]'s `Eq + Hash` note), the normalized
/// query terms of every keyword in query order, and the write epoch of the
/// preparation the entry was computed against.
///
/// The snapshot itself is configuration-independent (augmentation takes no
/// [`SearchConfig`]), so keying it under the config deliberately trades
/// some duplication — one snapshot per distinct config sweeping the same
/// keywords — for a single, simple invariant: everything under a key was
/// produced under that key's exact configuration, replay logs included.
/// Splitting the key (snapshot by terms, log by config + terms) would share
/// the snapshot across sweeps and is the natural next step if that
/// duplication ever shows up in [`CacheStats::heap_bytes`].
///
/// The epoch serves the live write path (see [`crate::live`]): a cache
/// shared across a [`LiveGraph`](crate::live::LiveGraph)'s succession of
/// prepared snapshots folds each snapshot's monotone write epoch into the
/// key, so an entry computed before a write — its matches, its snapshot,
/// and above all its replay log — can never be served to a reader of a
/// later snapshot. Frozen, standalone preparations stay at epoch 0 and
/// behave exactly as before.
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
}

/// A cached augmentation: everything a session start needs to skip the
/// matching and augmentation phases, plus — once some session under this key
/// has drained naturally — the certified-result replay log that lets later
/// sessions skip the exploration too.
#[derive(Debug)]
pub(crate) struct CachedAugmentation {
    /// Per-keyword element-match counts (aligned with the query order), used
    /// to rebuild the session's keyword report without re-running the
    /// matching.
    pub(crate) element_matches: Vec<usize>,
    /// The finished augmentation, detached from the data graph — or `None`
    /// for a *negative* entry: the keywords all failed to match, the session
    /// start errors before augmenting, and caching that verdict keeps a hot
    /// failing query from re-running (or, worse, serializing coalesced
    /// waiters behind) the matching on every request.
    pub(crate) snapshot: Option<AugmentationSnapshot>,
    /// The distinct elements the keywords matched, in canonical (sorted)
    /// order — the fan-in side of the cache's per-element reverse map. A
    /// write that touches any of these elements invalidates the entry (see
    /// [`AugmentationCache::advance_epoch`]); an entry whose elements are
    /// all untouched can be carried forward to the new epoch. Empty for
    /// negative entries (nothing matched, so nothing to touch).
    pub(crate) elements: Vec<ElementRef>,
    /// The complete ranked-query stream a drained session under this key
    /// emitted, in emission order. `None` until the first session drains.
    /// The exploration is deterministic over the (immutable) indexes and the
    /// keyed configuration, so replaying this log is bit-identical to
    /// re-exploring — the determinism suite and the cache-coherence
    /// proptests pin that. Written once (racing drained sessions computed
    /// identical logs; the first one wins).
    results: Mutex<Option<Arc<Vec<RankedQuery>>>>,
}

impl CachedAugmentation {
    pub(crate) fn new(element_matches: Vec<usize>, snapshot: Option<AugmentationSnapshot>) -> Self {
        Self::with_elements(element_matches, snapshot, Vec::new())
    }

    /// Like [`Self::new`], with the matched element set for keyed
    /// invalidation. `elements` need not be sorted; it is canonicalized
    /// here.
    pub(crate) fn with_elements(
        element_matches: Vec<usize>,
        snapshot: Option<AugmentationSnapshot>,
        mut elements: Vec<ElementRef>,
    ) -> Self {
        elements.sort_unstable();
        elements.dedup();
        Self {
            element_matches,
            snapshot,
            elements,
            results: Mutex::new(None),
        }
    }

    /// Approximate heap footprint of the entry (the snapshot dominates;
    /// match counts and the replay log are comparatively negligible).
    fn heap_bytes(&self) -> usize {
        self.snapshot
            .as_ref()
            .map(AugmentationSnapshot::heap_bytes)
            .unwrap_or(0)
    }

    /// The replay log, if a session under this key already drained.
    pub(crate) fn results(&self) -> Option<Arc<Vec<RankedQuery>>> {
        lock_unpoisoned(&self.results).clone()
    }

    /// Stores the complete emission log of a drained session (first writer
    /// wins; identical by determinism).
    pub(crate) fn store_results(&self, queries: &[RankedQuery]) {
        let mut slot = lock_unpoisoned(&self.results);
        match slot.as_ref() {
            None => *slot = Some(Arc::new(queries.to_vec())),
            Some(existing) => {
                // debug-invariants: racing drained sessions must have
                // computed bit-identical logs (the determinism contract the
                // first-writer-wins policy relies on).
                if invariants::enabled() {
                    assert_eq!(
                        existing.len(),
                        queries.len(),
                        "replay-log write-back disagrees in length with the resident log"
                    );
                    for (resident, late) in existing.iter().zip(queries) {
                        assert_eq!(
                            resident.cost.to_bits(),
                            late.cost.to_bits(),
                            "replay-log write-back disagrees in cost with the resident log"
                        );
                        assert_eq!(
                            resident.query.canonicalized(),
                            late.query.canonicalized(),
                            "replay-log write-back disagrees in query with the resident log"
                        );
                    }
                }
            }
        }
    }
}

/// Cumulative counters of one [`AugmentationCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes that avoided computing: the key was resident, or an in-flight
    /// computation of the same key was joined (request coalescing).
    pub hits: u64,
    /// Probes that had to compute (they became the key's owner).
    pub misses: u64,
    /// Entries inserted.
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
    /// Approximate heap footprint of the resident snapshots, in bytes — the
    /// number to watch when sizing `capacity` for a large graph, where a
    /// single augmentation snapshot can run to megabytes.
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
    /// Keys some session is currently computing (request coalescing):
    /// same-key probes join the owner's [`InFlight`] instead of redoing the
    /// matching and augmentation — the thundering-herd guard for serving
    /// workloads, where the same hot query arrives on many workers at once.
    in_flight: HashMap<AugmentationKey, Arc<InFlight>>,
    /// Per-element reverse map: which resident keys matched each element.
    /// Maintained by insert/remove so keyed invalidation
    /// ([`AugmentationCache::advance_epoch`]) never scans entry payloads.
    reverse: HashMap<ElementRef, HashSet<AugmentationKey>>,
    /// Monotone clear-generation: [`AugmentationCache::clear`] bumps it so
    /// in-flight owners whose computation started before the clear cannot
    /// re-insert (resurrect) their entry afterwards. Compare
    /// [`ComputeTicket::complete`].
    generation: u64,
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
        self.heap_bytes = self.heap_bytes.saturating_sub(entry.payload.heap_bytes());
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
        self.heap_bytes += payload.heap_bytes();
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

/// The rendezvous between the owner computing a key and the probes waiting
/// on it. The slot distinguishes pending (`None`), completed
/// (`Some(Some(_))`) and abandoned (`Some(None)` — the owner errored or
/// panicked; waiters retry and one of them becomes the new owner).
#[derive(Debug, Default)]
struct InFlight {
    slot: Mutex<Option<Option<Arc<CachedAugmentation>>>>,
    done: Condvar,
}

impl InFlight {
    // lint: wait-loop
    fn wait(&self) -> Option<Arc<CachedAugmentation>> {
        let mut slot = lock_unpoisoned(&self.slot);
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self.done.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn finish(&self, result: Option<Arc<CachedAugmentation>>) {
        let mut slot = lock_unpoisoned(&self.slot);
        *slot = Some(result);
        drop(slot);
        // Seeded mutation (a): dropping this notify_all leaves every joined
        // waiter blocked forever once the owner publishes — the model
        // checker must report it as a lost wakeup
        // (`tests/model_mutations.rs`).
        #[cfg(not(all(kwsearch_model, kwsearch_model_mutation)))]
        self.done.notify_all();
    }
}

/// The outcome of [`AugmentationCache::probe`].
pub(crate) enum CacheProbe<'c> {
    /// The augmentation is available — resident, or just finished by the
    /// in-flight owner this probe joined.
    Hit(Arc<CachedAugmentation>),
    /// This probe owns the computation: it must run the matching and
    /// augmentation and then call [`ComputeTicket::complete`] (dropping the
    /// ticket instead — e.g. on an all-unmatched error — releases the
    /// waiters to compute for themselves).
    Compute(ComputeTicket<'c>),
}

/// The obligation of the probe that owns a missing key (see
/// [`CacheProbe::Compute`]).
pub(crate) struct ComputeTicket<'c> {
    cache: &'c AugmentationCache,
    key: Option<AugmentationKey>,
    flight: Arc<InFlight>,
    /// The cache's clear-generation at miss time; a [`AugmentationCache::clear`]
    /// in between orphans this owner's write-back (see [`Self::complete`]).
    generation: u64,
}

impl ComputeTicket<'_> {
    /// Publishes the computed augmentation: inserts it (evicting LRU entries
    /// past the capacity bound), wakes every waiter joined on the key, and
    /// returns the resident entry for the replay-log write-back.
    ///
    /// If [`AugmentationCache::clear`] ran since this owner took the miss,
    /// the computed entry is **not** inserted — the clear's contract is that
    /// nothing computed before it survives it, and without the generation
    /// check an in-flight owner would resurrect a stale entry (and, worse,
    /// a stale replay log) right after the clear. The orphaned payload is
    /// still returned so the owning session can finish normally; its
    /// waiters are released empty-handed and retry under the new
    /// generation.
    pub(crate) fn complete(mut self, payload: CachedAugmentation) -> Arc<CachedAugmentation> {
        // lint: allow(no-unwrap, reason = "completion consumes the ticket by value, so the key is always present; the Option exists only for the Drop impl")
        let key = self.key.take().expect("ticket completed twice");
        match self.cache.insert_resolved(&key, payload, self.generation) {
            Ok(resident) => {
                self.flight.finish(Some(Arc::clone(&resident)));
                resident
            }
            Err(orphan) => {
                self.flight.finish(None);
                orphan
            }
        }
    }
}

impl Drop for ComputeTicket<'_> {
    fn drop(&mut self) {
        // Abandoned (error or panic on the computing path): deregister the
        // key and release the waiters empty-handed so they can retry.
        if let Some(key) = self.key.take() {
            let mut inner = lock_unpoisoned(&self.cache.inner);
            inner.in_flight.remove(&key);
            drop(inner);
            self.flight.finish(None);
        }
    }
}

/// A bounded, thread-safe LRU cache of finished augmentations.
///
/// Owned by a [`PreparedGraph`](crate::PreparedGraph) and consulted by every
/// session start. All methods take `&self`; the cache is internally
/// synchronized with a [`Mutex`], so a `PreparedGraph` stays `Sync` and many
/// worker threads can share one cache. The critical sections are tiny (a
/// hash probe plus an `Arc` clone — the snapshot itself is cloned *outside*
/// the lock), so contention stays negligible even at high request rates.
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

    /// Drops every entry (the counters keep accumulating) and bumps the
    /// clear-generation, so in-flight owners that took their miss before
    /// this call cannot re-insert afterwards (their write-backs are
    /// orphaned — see `ComputeTicket::complete`). In-flight registrations
    /// are left in place: post-clear probes still coalesce on the running
    /// owner, are released empty-handed when its insert is refused, and
    /// retry under the new generation.
    pub fn clear(&self) {
        let mut inner = lock_unpoisoned(&self.inner);
        inner.map.clear();
        inner.reverse.clear();
        inner.heap_bytes = 0;
        inner.generation += 1;
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

    /// Probes a key: a resident entry (or one an in-flight owner finishes
    /// while we wait) comes back as [`CacheProbe::Hit`]; otherwise this
    /// probe becomes the key's owner and receives the
    /// [`ComputeTicket`] obligation. Blocks only while another session is
    /// computing the same key — never during an unrelated computation.
    ///
    /// # Panics
    ///
    /// Panics when the cache is disabled (capacity 0); callers skip the
    /// cache entirely in that case.
    pub(crate) fn probe(&self, key: AugmentationKey) -> CacheProbe<'_> {
        assert!(self.capacity > 0, "probe on a disabled cache");
        loop {
            let flight = {
                let mut inner = lock_unpoisoned(&self.inner);
                inner.tick += 1;
                let tick = inner.tick;
                if let Some(entry) = inner.map.get_mut(&key) {
                    entry.last_used = tick;
                    let payload = Arc::clone(&entry.payload);
                    inner.hits += 1;
                    return CacheProbe::Hit(payload);
                }
                match inner.in_flight.get(&key) {
                    Some(flight) => Arc::clone(flight),
                    None => {
                        let flight = Arc::new(InFlight::default());
                        inner.in_flight.insert(key.clone(), Arc::clone(&flight));
                        inner.misses += 1;
                        let generation = inner.generation;
                        return CacheProbe::Compute(ComputeTicket {
                            cache: self,
                            key: Some(key),
                            flight,
                            generation,
                        });
                    }
                }
            };
            // Join the owner outside the cache lock.
            match flight.wait() {
                Some(payload) => {
                    let mut inner = lock_unpoisoned(&self.inner);
                    inner.hits += 1;
                    return CacheProbe::Hit(payload);
                }
                // The owner abandoned the key (error/panic); retry — the
                // next round either finds a new owner or becomes one.
                None => continue,
            }
        }
    }

    /// Publishes an owner's finished augmentation: deregisters the in-flight
    /// marker and inserts the entry, evicting least-recently-used entries
    /// past the capacity bound. Returns the resident entry (the freshly
    /// inserted one; the in-flight marker guarantees no same-key race) —
    /// or, when [`Self::clear`] ran after the owner took its miss
    /// (`generation` is stale), refuses the insert and hands the payload
    /// back as `Err` so the owner's session can still use it privately.
    fn insert_resolved(
        &self,
        key: &AugmentationKey,
        payload: CachedAugmentation,
        generation: u64,
    ) -> Result<Arc<CachedAugmentation>, Arc<CachedAugmentation>> {
        let mut inner = lock_unpoisoned(&self.inner);
        inner.in_flight.remove(key);
        let payload = Arc::new(payload);
        // Seeded mutation (d): skipping this generation check lets an owner
        // that took its miss before a `clear()` resurrect the stale entry —
        // and its stale replay log — right after the clear; the model
        // checker must observe the resurrected hit and report the panic
        // (`tests/model_mutations.rs`).
        #[cfg(not(all(kwsearch_model, kwsearch_model_mutation)))]
        if generation != inner.generation {
            // Orphaned by a clear(): resurrecting the entry would undo the
            // clear's visible effect (model scenario `cache_clear_orphans_
            // inflight_writeback` pins the schedule space).
            return Err(payload);
        }
        #[cfg(all(kwsearch_model, kwsearch_model_mutation))]
        let _ = generation;
        inner.insert(key.clone(), Arc::clone(&payload));
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
                .values()
                .map(|entry| entry.payload.heap_bytes())
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
        Ok(payload)
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
    use kwsearch_keyword_index::KeywordIndex;
    use kwsearch_rdf::fixtures::figure1_graph;
    use kwsearch_summary::{AugmentedSummaryGraph, SummaryGraph};

    fn payload(keywords: &[&str]) -> CachedAugmentation {
        let g = figure1_graph();
        let base = SummaryGraph::build(&g);
        let index = KeywordIndex::build(&g);
        let matches = index.lookup_all(keywords);
        let augmented = AugmentedSummaryGraph::build(&g, &base, &matches);
        CachedAugmentation::new(
            matches.iter().map(Vec::len).collect(),
            Some(augmented.to_snapshot()),
        )
    }

    fn key(tag: &str) -> AugmentationKey {
        AugmentationKey::new(SearchConfig::with_k(7), vec![vec![tag.to_string()]])
    }

    /// Probes expecting to own the computation, and completes it.
    fn fill(cache: &AugmentationCache, tag: &str, keywords: &[&str]) -> Arc<CachedAugmentation> {
        match cache.probe(key(tag)) {
            CacheProbe::Compute(ticket) => ticket.complete(payload(keywords)),
            CacheProbe::Hit(_) => panic!("key {tag} unexpectedly resident"),
        }
    }

    /// Probes expecting a resident entry.
    fn hit(cache: &AugmentationCache, tag: &str) -> Option<Arc<CachedAugmentation>> {
        match cache.probe(key(tag)) {
            CacheProbe::Hit(payload) => Some(payload),
            CacheProbe::Compute(_) => None, // dropping the ticket abandons it
        }
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
        fill(&cache, "a", &["aifb"]);
        let after_a = cache.stats().heap_bytes;
        assert!(after_a > 0);
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
    fn concurrent_probes_coalesce_on_one_owner() {
        let cache = Arc::new(AugmentationCache::new(4));
        let ticket = match cache.probe(key("shared")) {
            CacheProbe::Compute(ticket) => ticket,
            CacheProbe::Hit(_) => panic!("the key cannot be resident yet"),
        };
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || match cache.probe(key("shared")) {
                CacheProbe::Hit(payload) => payload.element_matches.len(),
                CacheProbe::Compute(_) => panic!("a joined probe must hit, not recompute"),
            })
        };
        // Give the waiter a moment to join the in-flight computation (the
        // test is correct either way — a late probe hits the resident entry).
        std::thread::sleep(std::time::Duration::from_millis(20));
        ticket.complete(payload(&["aifb"]));
        assert_eq!(waiter.join().unwrap(), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
    }

    #[test]
    fn abandoned_owner_releases_waiters_to_retry() {
        let cache = Arc::new(AugmentationCache::new(4));
        let ticket = match cache.probe(key("doomed")) {
            CacheProbe::Compute(ticket) => ticket,
            CacheProbe::Hit(_) => panic!("the key cannot be resident yet"),
        };
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || match cache.probe(key("doomed")) {
                // Either ordering is legal: the waiter may probe after the
                // abandonment (fresh owner) or join and be released to retry.
                CacheProbe::Compute(ticket) => {
                    ticket.complete(payload(&["cimiano"]));
                    true
                }
                CacheProbe::Hit(_) => false,
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(ticket); // the owner errors out
        assert!(
            waiter.join().unwrap(),
            "after the abandonment the waiter must become the new owner"
        );
        assert!(
            hit(&cache, "doomed").is_some(),
            "the retry populated the key"
        );
    }

    #[test]
    fn epoch_distinguishes_otherwise_equal_keys() {
        let base = key("same");
        assert_eq!(base.clone(), base.clone().with_epoch(0));
        assert_ne!(base.clone(), base.clone().with_epoch(1));
        assert_eq!(base.clone().with_epoch(3).epoch(), 3);

        let cache = AugmentationCache::new(4);
        fill(&cache, "same", &["aifb"]);
        match cache.probe(key("same").with_epoch(1)) {
            CacheProbe::Compute(_) => {} // dropped: the epoch-1 twin is absent
            CacheProbe::Hit(_) => panic!("an epoch-0 entry must not serve epoch-1 readers"),
        };
    }

    #[test]
    fn clear_orphans_the_inflight_writeback() {
        let cache = AugmentationCache::new(4);
        let ticket = match cache.probe(key("stale")) {
            CacheProbe::Compute(ticket) => ticket,
            CacheProbe::Hit(_) => panic!("the key cannot be resident yet"),
        };
        // The owner computed against pre-clear state; the clear must win.
        cache.clear();
        let orphan = ticket.complete(payload(&["aifb"]));
        assert_eq!(
            orphan.element_matches.len(),
            1,
            "the owning session still gets its payload"
        );
        assert!(
            hit(&cache, "stale").is_none(),
            "the write-back must not resurrect the cleared entry"
        );
        assert_eq!(cache.stats().insertions, 0);
        assert_eq!(cache.stats().len, 0);
    }

    /// An entry whose declared elements include `element`.
    fn fill_with_element(cache: &AugmentationCache, tag: &str, element: ElementRef) {
        match cache.probe(key(tag)) {
            CacheProbe::Compute(ticket) => {
                let base = payload(&["aifb"]);
                ticket.complete(CachedAugmentation::with_elements(
                    base.element_matches.clone(),
                    base.snapshot.clone(),
                    vec![element],
                ));
            }
            CacheProbe::Hit(_) => panic!("key {tag} unexpectedly resident"),
        }
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
        match cache.probe(key("touched").with_epoch(1)) {
            CacheProbe::Compute(_) => {}
            CacheProbe::Hit(_) => panic!("the touched entry must not survive the write"),
        }
        // The safe entry is resident at the old epoch *and* the new one,
        // sharing one payload.
        let old = hit(&cache, "safe").expect("old-epoch readers keep hitting");
        match cache.probe(key("safe").with_epoch(1)) {
            CacheProbe::Hit(promoted) => assert!(Arc::ptr_eq(&promoted, &old)),
            CacheProbe::Compute(_) => panic!("the promoted entry must hit at the new epoch"),
        };
    }

    #[test]
    fn advance_epoch_without_promotion_leaves_survivors_behind() {
        let safe_element = ElementRef::Value(kwsearch_rdf::VertexId::from_index(3));
        let cache = AugmentationCache::new(4);
        fill_with_element(&cache, "safe", safe_element);
        cache.advance_epoch(0, 1, &[], false);
        assert_eq!(cache.stats().promotions, 0);
        assert!(hit(&cache, "safe").is_some(), "old epoch still serves");
        match cache.probe(key("safe").with_epoch(1)) {
            CacheProbe::Compute(_) => {}
            CacheProbe::Hit(_) => panic!("no promotion was requested"),
        };
    }

    #[test]
    fn prune_below_epoch_retires_old_entries_only() {
        let element = ElementRef::Value(kwsearch_rdf::VertexId::from_index(1));
        let cache = AugmentationCache::new(4);
        fill_with_element(&cache, "old", element);
        cache.advance_epoch(0, 1, &[], true); // "old" promoted to epoch 1
        cache.prune_below_epoch(1);
        assert!(hit(&cache, "old").is_none(), "the epoch-0 copy was pruned");
        match cache.probe(key("old").with_epoch(1)) {
            CacheProbe::Hit(_) => {}
            CacheProbe::Compute(_) => panic!("the current-epoch copy must survive the prune"),
        };
    }
}
