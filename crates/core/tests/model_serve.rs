//! Exhaustive model checking of the `SearchService` job queue
//! (submit/drain, shutdown wake-ups).
//!
//! Runs only under `RUSTFLAGS="--cfg kwsearch_model"` and not under the
//! sabotaging `kwsearch_model_mutation` cfg (see `model_mutations.rs`).
//! The scenarios drive `JobQueue` directly: `SearchService` itself spawns
//! native worker threads that the model scheduler cannot see, so the queue
//! — the only shared mutable state on the serve path — is the model
//! surface. (`ShardedService` serves on the caller's thread behind one
//! never-nested mutex; it has no interleaving to explore.)
//!
//! Interleaving counts are asserted exactly; see `model_cache.rs` for the
//! fingerprint rationale.

#![cfg(all(kwsearch_model, not(kwsearch_model_mutation)))]

use kwsearch_core::model_scenarios as scenarios;
use kwsearch_modelcheck::Config;

#[test]
fn queue_drains_exactly_what_was_submitted_in_every_interleaving() {
    let schedules =
        scenarios::service_queue_submit_drain(Config::with_preemptions(2)).assert_pass();
    assert_eq!(schedules, 83, "explored-space fingerprint moved");
    println!("queue submit/drain: {schedules} interleavings, all correct");
}

#[test]
fn close_always_wakes_an_idle_worker() {
    let schedules =
        scenarios::service_queue_close_wakes_idle_worker(Config::with_preemptions(2)).assert_pass();
    assert_eq!(schedules, 13, "explored-space fingerprint moved");
    println!("close vs idle worker: {schedules} interleavings, all correct");
}
