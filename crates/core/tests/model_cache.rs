//! Exhaustive model checking of the result cache's one concurrency contract:
//! racing drained sessions insert once and share the resident log.
//!
//! Runs only under `RUSTFLAGS="--cfg kwsearch_model"`, where
//! `kwsearch_core::sync` resolves to the `kwsearch-modelcheck` shims.
//!
//! The asserted interleaving count is exact: the DFS explorer is
//! deterministic, so the count is a fingerprint of the explored space. A
//! legitimate change to the scenario or to the shims' schedule points moves
//! the number — update the constant after confirming the new exploration
//! still passes. A count that silently *shrinks* without a code change
//! means the explorer stopped exploring.

#![cfg(kwsearch_model)]

use kwsearch_core::model_scenarios as scenarios;
use kwsearch_modelcheck::Config;

#[test]
fn racing_drained_sessions_insert_once_and_share_the_resident_log() {
    let schedules =
        scenarios::cache_racing_drained_sessions_insert_once(Config::with_preemptions(2))
            .assert_pass();
    assert_eq!(schedules, 20, "explored-space fingerprint moved");
    println!("racing inserts: {schedules} interleavings, all correct");
}
