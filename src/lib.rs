//! SearchWebDB — top-k exploration of query candidates for keyword search on
//! graph-shaped (RDF) data.
//!
//! This crate is the facade of the workspace reproducing Tran, Wang, Rudolph
//! and Cimiano's ICDE 2009 paper. It re-exports the public API of every
//! sub-crate so that applications only need a single dependency:
//!
//! ```
//! use searchwebdb::prelude::*;
//!
//! // 1. Build (or load) an RDF data graph.
//! let graph = searchwebdb::rdf::fixtures::figure1_graph();
//!
//! // 2. Index it once, off-line: keyword index, summary graph, triple store.
//! let prepared = PreparedGraph::index(graph);
//!
//! // 3. Open a streaming search session: the top-k exploration is an
//! //    anytime algorithm, so the best query is certified long before the
//! //    k-th — `next_query` explores only as far as rank 1 requires.
//! let mut session = prepared
//!     .session(&["2006", "cimiano", "aifb"], SearchConfig::with_k(10))
//!     .unwrap();
//! let best = session.next_query().expect("the running example has a match");
//! println!("{}", best.sparql());
//!
//! // 4. Process the chosen query with the underlying query engine.
//! let answers = prepared.answers(&best.query, None).unwrap();
//! assert!(!answers.is_empty());
//!
//! // 5. Or drain the session into the familiar batch outcome.
//! let outcome = session.into_outcome();
//! assert_eq!(outcome.best().unwrap().rank, 1);
//! ```
//!
//! For serving many clients, a [`PreparedGraph`](core::PreparedGraph) is
//! immutable, `Send + Sync` and `Arc`-shareable, and a thread-less
//! [`SearchService`](core::SearchService) puts admission control, deadlines
//! and the answer phase around one session per request, over one
//! preparation or a set of shards — repeated queries are replayed from the
//! shared result cache, bit-identically to fresh runs (see the README's
//! "Serving" section):
//!
//! ```
//! use searchwebdb::prelude::*;
//!
//! let graph = searchwebdb::rdf::fixtures::figure1_graph();
//! let service = SearchService::new([PreparedGraph::index(graph)], SearchConfig::default());
//! let reply = service.search(SearchRequest::new(["cimiano", "aifb"])).unwrap();
//! assert!(!reply.outcome.queries.is_empty());
//! ```
//!
//! The sub-crates can also be used individually:
//!
//! * [`rdf`] — the typed RDF data graph, triple store and N-Triples I/O,
//! * [`query`] — conjunctive queries, SPARQL/SQL rendering and evaluation,
//! * [`keyword_index`] — the IR-style keyword-to-element index,
//! * [`summary`] — the summary graph (graph index) and its augmentation,
//! * [`core`] — the top-k exploration, search sessions and serving,
//! * [`baselines`] — BANKS/BLINKS-style baselines on the full data graph,
//! * [`datagen`] — DBLP/LUBM/TAP-like dataset generators and workloads.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub use kwsearch_baselines as baselines;
pub use kwsearch_core as core;
pub use kwsearch_datagen as datagen;
pub use kwsearch_keyword_index as keyword_index;
pub use kwsearch_query as query;
pub use kwsearch_rdf as rdf;
pub use kwsearch_summary as summary;

/// The most commonly used types, re-exported for glob import.
pub mod prelude {
    pub use kwsearch_core::{
        AnswerPhase, AugmentationCache, CacheStats, KeywordMatch, PartitionPlan, PreparedGraph,
        RankedQuery, ScoringFunction, SearchConfig, SearchError, SearchOutcome, SearchReply,
        SearchRequest, SearchService, SearchSession, ServeError,
    };
    pub use kwsearch_keyword_index::KeywordIndex;
    pub use kwsearch_query::{AnswerSet, ConjunctiveQuery, QueryBuilder};
    pub use kwsearch_rdf::{DataGraph, GraphBuilder, Triple};
    pub use kwsearch_summary::SummaryGraph;
}
