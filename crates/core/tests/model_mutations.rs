//! Seeded-mutation regression tests: prove the model checker actually
//! catches the bug classes it exists for.
//!
//! Under `RUSTFLAGS="--cfg kwsearch_model --cfg kwsearch_model_mutation"`
//! three deliberate bugs are compiled into the serving stack:
//!
//! * **(a)** `InFlight::finish` in `cache.rs` drops its `notify_all` — the
//!   owner publishes, but coalesced waiters blocked on the condvar are
//!   never woken;
//! * **(b)** `JobQueue::pop` in `serve.rs` acquires `metrics` before
//!   `state` — the inverse of `push`'s documented order, an AB-BA lock
//!   cycle;
//! * **(d)** `AugmentationCache::insert_resolved` in `cache.rs` skips its
//!   clear-generation check — an owner that took its miss before a
//!   `clear()` resurrects the cleared entry (and its stale replay log)
//!   with its write-back.
//!
//! Each test runs the same healthy scenario the `model_cache.rs` /
//! `model_serve.rs` suites prove correct, and asserts the checker reports
//! the exact failure kind with a non-empty schedule that *replays* to the
//! same failure. A future change that blunts the checker (or accidentally
//! fixes only the healthy path) turns these red.

#![cfg(all(kwsearch_model, kwsearch_model_mutation))]

use kwsearch_core::model_scenarios as scenarios;
use kwsearch_modelcheck::{replay, Config, FailureKind};

#[test]
fn dropped_notify_in_single_flight_release_is_reported_as_lost_wakeup() {
    let report = scenarios::cache_single_flight_coalescing(Config::with_preemptions(2));
    let failure = report.expect_failure();
    assert_eq!(failure.kind, FailureKind::LostWakeup, "{failure}");
    assert!(!failure.schedule.is_empty(), "schedule must be replayable");
    assert!(!failure.trace.is_empty(), "trace must narrate the hang");
    assert!(
        failure.trace.iter().any(|line| line.contains("condvar")),
        "the trace names the stranded condvar wait: {failure}"
    );
    let replayed = replay(
        Config::with_preemptions(2),
        &failure.schedule,
        scenarios::cache_single_flight_body,
    )
    .expect("replaying the printed schedule must reproduce the hang");
    assert_eq!(replayed.kind, FailureKind::LostWakeup);
}

#[test]
fn inverted_pop_lock_order_is_reported_as_deadlock() {
    let report = scenarios::service_queue_submit_drain(Config::with_preemptions(2));
    let failure = report.expect_failure();
    assert_eq!(failure.kind, FailureKind::Deadlock, "{failure}");
    assert!(!failure.schedule.is_empty(), "schedule must be replayable");
    assert!(
        failure.trace.iter().any(|line| line.contains("mutex")),
        "the trace names the blocked lock acquisitions: {failure}"
    );
    let replayed = replay(
        Config::with_preemptions(2),
        &failure.schedule,
        scenarios::service_queue_submit_drain_body,
    )
    .expect("replaying the printed schedule must reproduce the deadlock");
    assert_eq!(replayed.kind, FailureKind::Deadlock);
}

#[test]
fn skipped_generation_check_is_reported_as_a_resurrected_entry() {
    let report = scenarios::cache_clear_orphans_inflight_writeback(Config::with_preemptions(2));
    let failure = report.expect_failure();
    assert_eq!(failure.kind, FailureKind::Panic, "{failure}");
    assert!(!failure.schedule.is_empty(), "schedule must be replayable");
    // The scenario has two tripwires for a resurrected entry — the end-state
    // residency count and the follow-up probe — and the checker stops at the
    // first one the provoking schedule reaches; both name the clear.
    assert!(
        failure.message.contains("clear"),
        "the panic names the violated clear contract: {failure}"
    );
    let replayed = replay(
        Config::with_preemptions(2),
        &failure.schedule,
        scenarios::cache_clear_orphans_inflight_writeback_body,
    )
    .expect("replaying the printed schedule must reproduce the resurrection");
    assert_eq!(replayed.kind, FailureKind::Panic);
}
