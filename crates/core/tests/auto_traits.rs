//! Compile-time auto-trait guards for the shared serving path.
//!
//! The concurrent architecture rests on `PreparedGraph` (and everything
//! reachable from it) being `Send + Sync`: one `SearchService` (or one
//! `Arc<PreparedGraph>`) is shared by every caller thread, sessions borrow
//! it, and the result cache is probed from all of them. These assertions make a future regression — say,
//! an `Rc` or `RefCell` slipped into an index or the cache — fail at
//! `cargo test` time with a type error pointing at the offending type,
//! instead of surfacing as a build break in downstream serving code (or not
//! at all until production).

use std::sync::Arc;

use kwsearch_core::{
    AnswerPhase, AugmentationCache, AugmentationKey, CacheStats, PreparedGraph, SearchConfig,
    SearchError, SearchOutcome, SearchReply, SearchRequest, SearchService, SearchSession,
    ServeError, ServiceStats,
};
use kwsearch_keyword_index::{KeywordIndex, KeywordIndexConfig};
use kwsearch_rdf::{DataGraph, TripleStore};
use kwsearch_summary::SummaryGraph;

fn assert_send_sync<T: Send + Sync>() {}

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
    assert_send_sync::<SearchReply>();
    assert_send_sync::<ServeError>();
    assert_send_sync::<ServiceStats>();
}

#[test]
fn config_types_are_send_and_sync() {
    assert_send_sync::<SearchConfig>();
    assert_send_sync::<KeywordIndexConfig>();
    assert_send_sync::<CacheStats>();
}

#[test]
fn request_scoped_types_are_send_and_sync() {
    // Sessions and outcomes cross thread boundaries when a caller runs
    // `search` on a thread of its own and hands the reply back.
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
