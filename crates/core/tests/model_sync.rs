//! Model checking of the `sync` facade's poisoning-recovery contract
//! (`lock_unpoisoned`) under exploration.
//!
//! Runs only under `RUSTFLAGS="--cfg kwsearch_model"`. The interleaving count is asserted exactly; see `model_cache.rs` for
//! the fingerprint rationale.

#![cfg(kwsearch_model)]

use kwsearch_core::model_scenarios as scenarios;
use kwsearch_modelcheck::Config;

#[test]
fn lock_unpoisoned_recovers_in_every_interleaving() {
    let schedules =
        scenarios::sync_lock_unpoisoned_recovery(Config::with_preemptions(2)).assert_pass();
    assert_eq!(schedules, 7, "explored-space fingerprint moved");
    println!("poisoning recovery: {schedules} interleavings, all correct");
}
