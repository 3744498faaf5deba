//! Model-checked concurrency scenarios for the serving stack.
//!
//! Compiled only under `--cfg kwsearch_model`, where the [`crate::sync`]
//! facade resolves to the `kwsearch-modelcheck` shims: every scenario here
//! is a closed 2–3-thread program over the *real* cache / job-queue code,
//! handed to [`kwsearch_modelcheck::explore`] so the DFS scheduler
//! exhaustively enumerates its interleavings up to the configured
//! preemption bound.
//!
//! The functions return the explorer's [`Report`] rather than asserting, so
//! the integration tests (`tests/model_cache.rs`, `tests/model_serve.rs`,
//! `tests/model_sync.rs`) can assert a pass *and* the seeded-mutation tests
//! (`tests/model_mutations.rs`, under the additional
//! `kwsearch_model_mutation` cfg) can assert the exact failure the checker
//! must report against the sabotaged build.
//!
//! Scenario code panics on violated expectations — inside an exploration
//! the shims convert a model-thread panic into a
//! [`FailureKind::Panic`](kwsearch_modelcheck::FailureKind::Panic) report
//! with the schedule that provoked it, which is exactly the signal we want.
// lint: allow-file(no-unwrap, reason = "scenario assertions: a panic inside a model thread is the checker's failure signal, reported with the replayable schedule that provoked it")

use kwsearch_keyword_index::ElementRef;
use kwsearch_modelcheck::{explore, thread, Config, Report};
use kwsearch_rdf::VertexId;

use crate::cache::{AugmentationCache, AugmentationKey, CacheProbe, CachedAugmentation};
use crate::serve::{Job, JobQueue, SearchRequest};
use crate::sync::{lock_unpoisoned, Arc, Mutex};
use crate::SearchConfig;

/// A distinct cache key per scenario role (the config is shared; the terms
/// disambiguate).
fn key(term: &str) -> AugmentationKey {
    AugmentationKey::new(SearchConfig::default(), vec![vec![term.to_string()]])
}

/// A minimal payload: one matched keyword, no snapshot (the cache treats
/// the snapshot as opaque bytes, so its absence changes nothing the
/// scenarios observe), no replay log yet.
fn payload() -> CachedAugmentation {
    CachedAugmentation::new(vec![1], None)
}

/// A queue job carrying a fresh reply channel (the channel is a per-request
/// rendezvous; the scenarios never block on it).
fn job() -> Job {
    // lint: allow(no-raw-sync, reason = "per-job rendezvous channel, same as serve.rs; the scenarios never block on it, so it needs no model shim")
    let (reply, _rx) = std::sync::mpsc::channel();
    Job {
        request: SearchRequest::new(["model"]),
        reply,
        deadline: None,
    }
}

/// **Single-flight coalescing.** Two threads probe the same missing key:
/// exactly one becomes the owner and computes; the other joins the owner's
/// in-flight slot and comes back with a [`CacheProbe::Hit`]. In *every*
/// interleaving the cache ends with `misses == 1 && hits == 1` — the
/// augmentation ran once, never twice.
///
/// Under seeded mutation (a) — the dropped `notify_all` in
/// `InFlight::finish` — any interleaving where the waiter blocks before the
/// owner publishes hangs forever, which the checker reports as a lost
/// wakeup.
pub fn cache_single_flight_coalescing(config: Config) -> Report {
    explore(config, cache_single_flight_body)
}

/// The closed program behind [`cache_single_flight_coalescing`], exposed so
/// the seeded-mutation tests can [`kwsearch_modelcheck::replay`] a failing
/// schedule against the identical body.
pub fn cache_single_flight_body() {
    let cache = Arc::new(AugmentationCache::new(4));
    let worker = {
        let cache = Arc::clone(&cache);
        thread::spawn(move || resolve(&cache))
    };
    resolve(&cache);
    worker.join().unwrap();
    let stats = cache.stats();
    assert_eq!(stats.misses, 1, "exactly one probe may own the computation");
    assert_eq!(stats.hits, 1, "the other probe must coalesce onto it");
    assert_eq!(stats.insertions, 1, "the augmentation ran exactly once");
}

/// Probes `key("shared")` and fulfils the single-flight contract: owners
/// complete, waiters accept the published entry.
fn resolve(cache: &AugmentationCache) {
    match cache.probe(key("shared")) {
        CacheProbe::Hit(entry) => assert_eq!(entry.element_matches, vec![1]),
        CacheProbe::Compute(ticket) => {
            let entry = ticket.complete(payload());
            assert_eq!(entry.element_matches, vec![1]);
        }
    }
}

/// **Owner abandonment.** The first thread to own the key *drops* its
/// ticket (modelling an error or panic on the computing path) before
/// retrying; the release must wake the coalesced waiter empty-handed so it
/// retries, and whichever thread re-probes first becomes the new owner. In
/// every interleaving both threads end with the published entry and the
/// cache holds exactly one resident copy.
pub fn cache_owner_abandons_waiters_retry(config: Config) -> Report {
    explore(config, || {
        let cache = Arc::new(AugmentationCache::new(4));
        let abandoned = Arc::new(Mutex::new(false));
        let worker = {
            let cache = Arc::clone(&cache);
            let abandoned = Arc::clone(&abandoned);
            thread::spawn(move || resolve_after_one_abandon(&cache, &abandoned))
        };
        resolve_after_one_abandon(&cache, &abandoned);
        worker.join().unwrap();
        let stats = cache.stats();
        assert_eq!(stats.len, 1, "retry must converge on one resident entry");
        assert_eq!(stats.insertions, 1, "only the second owner publishes");
        assert_eq!(
            stats.misses, 2,
            "the abandoned ownership and its replacement"
        );
    })
}

/// First ownership across both threads is abandoned; every later probe
/// follows the normal contract. Loops because an abandoning owner must
/// retry its own probe too.
fn resolve_after_one_abandon(cache: &AugmentationCache, abandoned: &Mutex<bool>) {
    loop {
        match cache.probe(key("shared")) {
            CacheProbe::Hit(entry) => {
                assert_eq!(entry.element_matches, vec![1]);
                return;
            }
            CacheProbe::Compute(ticket) => {
                let mut flag = lock_unpoisoned(abandoned);
                if *flag {
                    drop(flag);
                    ticket.complete(payload());
                    return;
                }
                *flag = true;
                drop(flag);
                drop(ticket); // abandon: waiters must retry, not hang
            }
        }
    }
}

/// **Negative entries don't serialize waiters.** The owner publishes a
/// *negative* entry (`snapshot: None` — the keywords failed to match).
/// The verdict must be cached like any other payload: the concurrent probe
/// either coalesces onto the in-flight owner or hits the resident entry,
/// but in no interleaving does it recompute or block behind a second
/// matching run (`misses` stays 1).
pub fn cache_negative_entry_is_cached(config: Config) -> Report {
    explore(config, || {
        let cache = Arc::new(AugmentationCache::new(4));
        let prober = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || match cache.probe(key("unmatched")) {
                CacheProbe::Hit(entry) => assert!(entry.snapshot.is_none()),
                CacheProbe::Compute(ticket) => {
                    ticket.complete(CachedAugmentation::new(vec![0], None));
                }
            })
        };
        match cache.probe(key("unmatched")) {
            CacheProbe::Hit(entry) => assert!(entry.snapshot.is_none()),
            CacheProbe::Compute(ticket) => {
                ticket.complete(CachedAugmentation::new(vec![0], None));
            }
        }
        prober.join().unwrap();
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "the failing match must not re-run");
        assert_eq!(stats.hits, 1, "the negative verdict serves the other probe");
    })
}

/// **Replay-log write-back vs. concurrent eviction.** A capacity-1 cache:
/// thread 0 holds the `Arc` of the first resident entry and writes its
/// replay log back while thread 1 inserts a second key, evicting the first.
/// The write-back targets the *entry* (not the cache slot), so it must
/// succeed and stay readable through the held `Arc` in every interleaving —
/// eviction only drops the cache's reference.
pub fn cache_store_results_vs_eviction(config: Config) -> Report {
    explore(config, || {
        let cache = Arc::new(AugmentationCache::new(1));
        let first = match cache.probe(key("first")) {
            CacheProbe::Compute(ticket) => ticket.complete(payload()),
            CacheProbe::Hit(_) => unreachable!("fresh cache cannot hit"),
        };
        let evictor = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || match cache.probe(key("second")) {
                CacheProbe::Compute(ticket) => {
                    ticket.complete(payload());
                }
                CacheProbe::Hit(_) => unreachable!("distinct key cannot hit"),
            })
        };
        first.store_results(&[]);
        assert_eq!(
            first.results().map(|log| log.len()),
            Some(0),
            "the replay log outlives eviction through the held Arc"
        );
        evictor.join().unwrap();
        let stats = cache.stats();
        assert_eq!(stats.len, 1, "capacity 1 holds exactly one entry");
        assert_eq!(stats.evictions, 1, "the first entry was evicted");
    })
}

/// **`clear()` orphans in-flight write-backs.** An owner takes its miss,
/// then a concurrent thread clears the cache while the owner's computation
/// is still in flight. The clear's contract is that *nothing computed
/// before it survives it*: whichever side wins the race — write-back lands
/// first and the clear wipes it, or the clear's generation bump orphans the
/// write-back — the cache ends empty and the next probe is a genuine miss.
/// The owner itself always gets its computed payload back, resident or
/// orphaned.
///
/// Under seeded mutation (d) — the skipped generation check in
/// `AugmentationCache::insert_resolved` — the interleaving where the clear
/// runs between the miss and the write-back resurrects the stale entry,
/// which the final probe observes as a hit and the checker reports as a
/// panic with the provoking schedule.
pub fn cache_clear_orphans_inflight_writeback(config: Config) -> Report {
    explore(config, cache_clear_orphans_inflight_writeback_body)
}

/// The closed program behind [`cache_clear_orphans_inflight_writeback`],
/// exposed so the seeded-mutation tests can [`kwsearch_modelcheck::replay`]
/// a failing schedule against the identical body.
pub fn cache_clear_orphans_inflight_writeback_body() {
    let cache = Arc::new(AugmentationCache::new(4));
    // The ownership is taken *before* the clearing thread exists, so every
    // interleaving races the same in-flight write-back against the clear.
    let ticket = match cache.probe(key("live")) {
        CacheProbe::Compute(ticket) => ticket,
        CacheProbe::Hit(_) => unreachable!("fresh cache cannot hit"),
    };
    let clearer = {
        let cache = Arc::clone(&cache);
        thread::spawn(move || cache.clear())
    };
    let finished = ticket.complete(payload());
    assert_eq!(
        finished.element_matches,
        vec![1],
        "the owner keeps its computed payload, resident or orphaned"
    );
    clearer.join().unwrap();
    let stats = cache.stats();
    assert_eq!(
        stats.len, 0,
        "nothing computed before the clear may survive it"
    );
    match cache.probe(key("live")) {
        CacheProbe::Compute(ticket) => drop(ticket),
        CacheProbe::Hit(_) => panic!("orphaned write-back resurrected a cleared entry"),
    };
}

/// A cache key pinned to a write epoch, as the live write path mints them.
fn epoch_key(term: &str, epoch: u64) -> AugmentationKey {
    key(term).with_epoch(epoch)
}

/// Seeds one resident epoch-0 entry whose matched-element set is the single
/// V-vertex `element`, returning the resident `Arc` so scenarios can prove
/// promotion shares the payload rather than copying it.
fn seed_epoch0(cache: &AugmentationCache, term: &str, element: u32) -> Arc<CachedAugmentation> {
    match cache.probe(epoch_key(term, 0)) {
        CacheProbe::Compute(ticket) => ticket.complete(CachedAugmentation::with_elements(
            vec![element as usize],
            None,
            vec![ElementRef::Value(VertexId::from_index(element))],
        )),
        CacheProbe::Hit(_) => unreachable!("fresh cache cannot hit"),
    }
}

/// **Epoch advance vs. in-flight write-back** — the write/invalidate/replay
/// race behind [`crate::LiveGraph`]'s keyed invalidation. An owner takes an
/// epoch-0 miss whose augmentation matches element `V3`; concurrently a
/// write touching `V3` advances the cache from epoch 0 to epoch 1 (with
/// promotion). In every interleaving:
///
/// * the advanced epoch starts clean of the touched entry — if the
///   write-back landed first, keyed invalidation dropped it; if the advance
///   ran first, the write-back lands keyed at epoch 0, unreachable from
///   epoch-1 readers (epoch-0 readers still hold the old snapshot, for
///   which the entry remains correct);
/// * the untouched resident entry crosses over to epoch 1 as the *same*
///   `Arc` — promotion shares the payload (and its replay log), never
///   copies it.
pub fn cache_epoch_advance_races_inflight_writeback(config: Config) -> Report {
    explore(config, || {
        let cache = Arc::new(AugmentationCache::new(8));
        let stable = seed_epoch0(&cache, "stable", 7);
        let ticket = match cache.probe(epoch_key("hot", 0)) {
            CacheProbe::Compute(ticket) => ticket,
            CacheProbe::Hit(_) => unreachable!("fresh key cannot hit"),
        };
        let writer = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                cache.advance_epoch(0, 1, &[ElementRef::Value(VertexId::from_index(3))], true);
            })
        };
        ticket.complete(CachedAugmentation::with_elements(
            vec![3],
            None,
            vec![ElementRef::Value(VertexId::from_index(3))],
        ));
        writer.join().unwrap();
        match cache.probe(epoch_key("hot", 1)) {
            CacheProbe::Compute(ticket) => drop(ticket),
            CacheProbe::Hit(_) => panic!("stale augmentation served at the advanced epoch"),
        };
        match cache.probe(epoch_key("stable", 1)) {
            CacheProbe::Hit(entry) => assert!(
                Arc::ptr_eq(&entry, &stable),
                "promotion must share the seeded payload Arc, not copy it"
            ),
            CacheProbe::Compute(_) => panic!("untouched entry lost its promotion"),
        };
    })
}

/// **Queue drains exactly what was submitted.** One submitter pushes two
/// jobs and closes; one worker pops until the queue reports closed-empty.
/// Every interleaving drains exactly two jobs — whether the worker races
/// ahead (blocking on the condvar between pushes) or lags behind (draining
/// after close) — and the metrics agree with the queue they describe.
///
/// Under seeded mutation (b) — `pop` acquiring `metrics` before `state` —
/// the interleaving where the worker blocks first and the submitter then
/// pushes is an AB-BA lock cycle, which the checker reports as a deadlock.
pub fn service_queue_submit_drain(config: Config) -> Report {
    explore(config, service_queue_submit_drain_body)
}

/// The closed program behind [`service_queue_submit_drain`], exposed so
/// the seeded-mutation tests can [`kwsearch_modelcheck::replay`] a failing
/// schedule against the identical body.
pub fn service_queue_submit_drain_body() {
    let queue = Arc::new(JobQueue::new(8));
    let worker = {
        let queue = Arc::clone(&queue);
        thread::spawn(move || {
            let mut drained = 0u64;
            while queue.pop().is_some() {
                drained += 1;
            }
            drained
        })
    };
    queue.push(job()).unwrap();
    queue.push(job()).unwrap();
    queue.close();
    let drained = worker.join().unwrap();
    assert_eq!(drained, 2, "the worker must see both jobs, then the close");
    let stats = queue.stats();
    assert_eq!(stats.jobs_submitted, 2);
    assert_eq!(stats.jobs_served, 2);
    assert!(
        (1..=2).contains(&stats.peak_queue_depth),
        "peak depth reflects how far the submitter outran the worker"
    );
}

/// **Shutdown with nothing queued.** Close racing an idle worker: the
/// worker either finds the queue already closed or blocks and is woken by
/// `close`'s `notify_all`. No interleaving may strand it.
pub fn service_queue_close_wakes_idle_worker(config: Config) -> Report {
    explore(config, || {
        let queue = Arc::new(JobQueue::new(8));
        let worker = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || queue.pop())
        };
        queue.close();
        assert!(
            worker.join().unwrap().is_none(),
            "an empty closed queue pops None"
        );
    })
}

/// **Poisoning recovery under exploration.** A model thread panics with
/// the guard held (poisoning the mutex); the surviving thread's
/// [`lock_unpoisoned`] must recover the guard and read the last write in
/// every interleaving — the serving stack's workers share this contract
/// (metrics and cache maps stay usable after a worker dies).
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
