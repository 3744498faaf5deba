//! Exhaustive model checking of `LiveGraph`'s reader/writer contract: a
//! reader's `snapshot()` returns while a write is in flight, in every
//! interleaving of the `writer → current` lock pair.
//!
//! Runs only under `RUSTFLAGS="--cfg kwsearch_model"`. The interleaving
//! count is asserted exactly; see `model_cache.rs` for the fingerprint
//! rationale.

#![cfg(kwsearch_model)]

use kwsearch_core::model_scenarios as scenarios;
use kwsearch_modelcheck::Config;

#[test]
fn a_reader_is_served_while_a_write_is_in_flight_in_every_interleaving() {
    let schedules =
        scenarios::live_reader_progress_during_write(Config::with_preemptions(2)).assert_pass();
    assert_eq!(schedules, 16, "explored-space fingerprint moved");
    println!("reader progress during a write: {schedules} interleavings, all correct");
}
