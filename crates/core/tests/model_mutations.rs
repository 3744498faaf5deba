//! Seeded-mutation regression tests: prove the model checker actually
//! catches the bug classes it exists for.
//!
//! Under `RUSTFLAGS="--cfg kwsearch_model --cfg kwsearch_model_mutation"`
//! two deliberate bugs are compiled into the serving stack:
//!
//! * **(a′)** `JobQueue::close` in `serve.rs` drops its `notify_all` when
//!   the queue never held a job — the queue closes, but an idle worker
//!   blocked on the condvar is never woken;
//! * **(b)** `JobQueue::pop` in `serve.rs` acquires `metrics` before
//!   `state` — the inverse of `push`'s documented order, an AB-BA lock
//!   cycle.
//!
//! Each test runs the same healthy scenario the `model_serve.rs` suite
//! proves correct, and asserts the checker reports the exact failure kind
//! with a non-empty schedule that *replays* to the same failure. A future
//! change that blunts the checker (or accidentally fixes only the healthy
//! path) turns these red.

#![cfg(all(kwsearch_model, kwsearch_model_mutation))]

use kwsearch_core::model_scenarios as scenarios;
use kwsearch_modelcheck::{replay, Config, FailureKind};

#[test]
fn dropped_notify_in_queue_close_is_reported_as_lost_wakeup() {
    let report = scenarios::service_queue_close_wakes_idle_worker(Config::with_preemptions(2));
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
        scenarios::service_queue_close_wakes_idle_worker_body,
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
