//! Compile-time auto-trait guards for the shared serving path.
//!
//! The concurrent architecture rests on `PreparedGraph` (and everything
//! reachable from it) being `Send + Sync`: an `Arc<PreparedGraph>` is handed
//! to worker threads, sessions borrow it, and the augmentation cache is
//! probed from all of them. These assertions make a future regression — say,
//! an `Rc` or `RefCell` slipped into an index or the cache — fail at
//! `cargo test` time with a type error pointing at the offending type,
//! instead of surfacing as a build break in downstream serving code (or not
//! at all until production).

use std::sync::Arc;

use kwsearch_core::serve::{SearchRequest, SearchResponse, SearchTicket};
use kwsearch_core::{
    AnswerPhase, AugmentationCache, AugmentationKey, CacheStats, PreparedGraph, SearchConfig,
    SearchError, SearchOutcome, SearchService, SearchSession,
};
use kwsearch_keyword_index::{KeywordIndex, KeywordIndexConfig};
use kwsearch_rdf::{DataGraph, TripleStore};
use kwsearch_summary::SummaryGraph;

fn assert_send_sync<T: Send + Sync>() {}
fn assert_send<T: Send>() {}

#[test]
fn shared_read_path_is_send_and_sync() {
    assert_send_sync::<PreparedGraph>();
    assert_send_sync::<Arc<PreparedGraph>>();
    assert_send_sync::<AugmentationCache>();
    assert_send_sync::<AugmentationKey>();
}

#[test]
fn serving_types_are_send_and_sync() {
    assert_send_sync::<SearchService>();
    assert_send_sync::<SearchRequest>();
    assert_send_sync::<SearchResponse>();
    // A ticket is moved to whoever awaits the response; it does not need to
    // be shared, only sent.
    assert_send::<SearchTicket>();
}

#[test]
fn config_types_are_send_and_sync() {
    assert_send_sync::<SearchConfig>();
    assert_send_sync::<KeywordIndexConfig>();
    assert_send_sync::<CacheStats>();
}

#[test]
fn request_scoped_types_are_send_and_sync() {
    // Sessions and outcomes cross thread boundaries in the worker pool.
    assert_send_sync::<SearchSession<'static>>();
    assert_send_sync::<SearchOutcome>();
    assert_send_sync::<AnswerPhase>();
    assert_send_sync::<SearchError>();
}

#[test]
fn underlying_indexes_are_send_and_sync() {
    assert_send_sync::<DataGraph>();
    assert_send_sync::<TripleStore>();
    assert_send_sync::<KeywordIndex>();
    assert_send_sync::<SummaryGraph>();
}
