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

use kwsearch_modelcheck::{explore, thread, Config, Report};

use crate::cache::{AugmentationCache, AugmentationKey, CachedAugmentation};
use crate::sync::{lock_unpoisoned, Arc, Mutex};
use crate::{LiveGraph, PreparedGraph, SearchConfig};

/// The cache key of the scenario's one query.
fn key() -> AugmentationKey {
    AugmentationKey::new(SearchConfig::default(), vec![vec!["shared".to_string()]])
}

/// The entry a drained session inserts, reduced to what the scenario
/// observes: a complete, empty log.
fn entry() -> CachedAugmentation {
    CachedAugmentation {
        element_matches: vec![1],
        augmented_elements: 0,
        queries: Some(Vec::new()),
    }
}

/// **Two drained sessions insert one key.** Both sessions took their miss
/// before either drained (a miss registers nothing, so both searched); now
/// both insert. In every interleaving the first insert wins and the late one
/// is dropped — `insertions == 1`, one resident entry — and both sessions'
/// next probes are served the *same* resident log.
pub fn cache_racing_drained_sessions_insert_once(config: Config) -> Report {
    explore(config, || {
        let cache = Arc::new(AugmentationCache::new(4));
        assert!(cache.probe(&key()).is_none());
        assert!(cache.probe(&key()).is_none());
        let insert_then_read = |cache: &AugmentationCache| {
            cache.insert(key(), entry());
            cache
                .probe(&key())
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
