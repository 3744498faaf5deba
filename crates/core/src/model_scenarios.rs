//! Model-checked concurrency scenarios for the cache, the `sync` facade and
//! [`LiveGraph`].
//!
//! Compiled only under `--cfg kwsearch_model`, where the [`crate::sync`]
//! facade resolves to the `kwsearch-modelcheck` shims: every scenario here
//! is a closed 2-thread program over the *real* cache / live-graph code,
//! handed to [`kwsearch_modelcheck::explore`] so the DFS scheduler
//! exhaustively enumerates its interleavings up to the configured
//! preemption bound. ([`crate::serve::SearchService`] has no scenario: its
//! one lock is never nested and never waited on.)
//!
//! The functions return the explorer's [`Report`] rather than asserting, so
//! the integration tests (`tests/model_cache.rs`, `tests/model_live.rs`,
//! `tests/model_sync.rs`) assert the pass and pin the schedule count.
//!
//! Scenario code panics on violated expectations — inside an exploration
//! the shims convert a model-thread panic into a
//! [`FailureKind::Panic`](kwsearch_modelcheck::FailureKind::Panic) report
//! with the schedule that provoked it, which is exactly the signal we want.
// lint: allow-file(no-unwrap, reason = "scenario assertions: a panic inside a model thread is the checker's failure signal, reported with the replayable schedule that provoked it")

use kwsearch_keyword_index::ElementRef;
use kwsearch_modelcheck::{explore, thread, Config, Report};
use kwsearch_rdf::VertexId;

use crate::cache::{AugmentationCache, AugmentationKey, CachedAugmentation};
use crate::sync::{lock_unpoisoned, Arc, Mutex};
use crate::{LiveGraph, PreparedGraph, SearchConfig};

/// A distinct cache key per scenario role (the config is shared; the terms
/// disambiguate), pinned to a write epoch as the live write path mints them.
fn key(term: &str, epoch: u64) -> AugmentationKey {
    AugmentationKey::new(SearchConfig::default(), vec![vec![term.to_string()]]).with_epoch(epoch)
}

/// The entry a drained session inserts, reduced to what the scenarios
/// observe: its matched-element set is the single V-vertex `element`, and
/// its (complete) log is empty.
fn entry(element: u32) -> CachedAugmentation {
    CachedAugmentation::new(
        vec![1],
        0,
        vec![ElementRef::Value(VertexId::from_index(element))],
        Some(Vec::new()),
    )
}

/// **Two drained sessions insert one key.** Both sessions took their miss
/// before either drained (a miss registers nothing, so both searched); now
/// both insert. In every interleaving the first insert wins and the late one
/// is dropped — `insertions == 1`, one resident entry — and both sessions'
/// next probes are served the *same* resident log.
pub fn cache_racing_drained_sessions_insert_once(config: Config) -> Report {
    explore(config, || {
        let cache = Arc::new(AugmentationCache::new(4));
        assert!(cache.probe(&key("shared", 0)).is_none());
        assert!(cache.probe(&key("shared", 0)).is_none());
        let insert_then_read = |cache: &AugmentationCache| {
            cache.insert(key("shared", 0), entry(1));
            cache
                .probe(&key("shared", 0))
                .expect("resident once any session drained")
        };
        let worker = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || insert_then_read(&cache))
        };
        let mine = insert_then_read(&cache);
        let theirs = worker.join().unwrap();
        assert!(
            Arc::ptr_eq(&mine, &theirs),
            "both readers must be served the one resident log"
        );
        let stats = cache.stats();
        assert_eq!(stats.insertions, 1, "the first drained session wins");
        assert_eq!(stats.len, 1, "one key, one resident entry");
        assert_eq!((stats.hits, stats.misses), (2, 2));
    })
}

/// **Epoch advance vs. a late insert** — the write/invalidate/replay race
/// behind [`crate::LiveGraph`]'s keyed invalidation. A reader of the epoch-0
/// snapshot missed on a key whose keywords match element `V3` and is about
/// to drain; concurrently a write touching `V3` advances the cache from
/// epoch 0 to epoch 1 (with promotion). In every interleaving:
///
/// * the advanced epoch starts clean of the touched entry — if the insert
///   landed first, keyed invalidation dropped it; if the advance ran first,
///   the insert lands keyed at epoch 0, unreachable from epoch-1 readers
///   (epoch-0 readers still hold the old snapshot, for which the entry
///   remains correct);
/// * the untouched resident entry crosses over to epoch 1 as the *same*
///   `Arc` — promotion shares the payload (and its replay log), never
///   copies it.
pub fn cache_epoch_advance_races_late_insert(config: Config) -> Report {
    explore(config, || {
        let cache = Arc::new(AugmentationCache::new(8));
        cache.insert(key("stable", 0), entry(7));
        let stable = cache
            .probe(&key("stable", 0))
            .expect("the seeded entry is resident");
        assert!(cache.probe(&key("hot", 0)).is_none());
        let writer = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                cache.advance_epoch(0, 1, &[ElementRef::Value(VertexId::from_index(3))], true);
            })
        };
        cache.insert(key("hot", 0), entry(3));
        writer.join().unwrap();
        assert!(
            cache.probe(&key("hot", 1)).is_none(),
            "stale result served at the advanced epoch"
        );
        let promoted = cache
            .probe(&key("stable", 1))
            .expect("untouched entry lost its promotion");
        assert!(
            Arc::ptr_eq(&promoted, &stable),
            "promotion must share the seeded payload Arc, not copy it"
        );
    })
}

/// **A reader makes progress while a write is in flight.** The writer, inside
/// [`LiveGraph`]'s write section (holding `writer`, building the successor),
/// blocks until the reader thread's `snapshot()` has returned — joining it is
/// the model's blocking primitive. Every interleaving must complete: readers
/// take only `current`, which a writer holds for a pointer store and never
/// across the build. With `snapshot` behind the lock a write holds throughout
/// (the pre-PR-14 single `state` mutex) the reader blocks on it, the writer
/// blocks on the reader, and the checker reports a deadlock.
///
/// Then the successor is installed — `writer → current`, the one nested
/// lock order left in the crate — and later snapshots see it.
pub fn live_reader_progress_during_write(config: Config) -> Report {
    explore(config, || {
        let prepared = || PreparedGraph::index(kwsearch_rdf::fixtures::figure1_graph());
        let live = Arc::new(LiveGraph::new(prepared()));
        let before = live.snapshot();
        let reader = {
            let live = Arc::clone(&live);
            thread::spawn(move || live.snapshot())
        };
        let seen = live
            .write(|current| {
                assert!(std::ptr::eq(current, &*before));
                let seen = reader.join().unwrap();
                Ok::<_, std::convert::Infallible>((Some(prepared()), seen))
            })
            .unwrap();
        assert!(
            Arc::ptr_eq(&seen, &before),
            "a snapshot served during the write is the pre-write one"
        );
        assert!(
            !Arc::ptr_eq(&live.snapshot(), &before),
            "the successor is installed once the write returns"
        );
    })
}

/// **Poisoning recovery under exploration.** A model thread panics with
/// the guard held (poisoning the mutex); the surviving thread's
/// [`lock_unpoisoned`] must recover the guard and read the last write in
/// every interleaving — the contract every lock in the crate relies on
/// (service counters and cache maps stay usable after a request panics).
pub fn sync_lock_unpoisoned_recovery(config: Config) -> Report {
    explore(config, || {
        let value = Arc::new(Mutex::new(0u32));
        let poisoner = {
            let value = Arc::clone(&value);
            thread::spawn(move || {
                let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut guard = lock_unpoisoned(&value);
                    *guard = 7;
                    panic!("poison the guard");
                }));
                assert!(panicked.is_err());
            })
        };
        assert!(
            matches!(*lock_unpoisoned(&value), 0 | 7),
            "recovery reads a coherent value"
        );
        poisoner.join().unwrap();
        assert_eq!(*lock_unpoisoned(&value), 7, "the poisoned write persists");
        assert!(value.is_poisoned(), "the panic left its mark");
    })
}
