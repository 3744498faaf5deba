//! One read request, two ways: through a `SearchSession` (what users call,
//! and what every untraced measurement runs), and as the decomposed public
//! pipeline — lookup → augment → explore → map → answer — with a span
//! around every layer call. The two must return the same ranked queries;
//! the traced run checks that with the result digest.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

use kwsearch_core::{
    map_subgraph_to_query, ExplorationState, ExplorationStats, PreparedGraph, RankedQuery,
    SearchConfig, SearchError,
};
use kwsearch_summary::AugmentedSummaryGraph;

use crate::trace::{SpanId, Tracer};

/// The paper's Fig. 5 answer target: queries are processed until at least
/// this many answers exist.
pub const MIN_ANSWERS: usize = 10;

pub const SPAN_REQUEST: &str = "client.request";
pub const SPAN_LOOKUP: &str = "keyword_index.lookup";
pub const SPAN_AUGMENT: &str = "summary.augment";
pub const SPAN_EXPLORE: &str = "exploration.run";
pub const SPAN_MAP: &str = "query_map.map";
pub const SPAN_ANSWER: &str = "query_eval.answer";

/// What one read request produced and cost.
#[derive(Debug)]
pub struct RequestResult {
    pub queries: Vec<RankedQuery>,
    /// Until the caller held the first Theorem-1-certified query.
    pub first_query: Duration,
    pub total: Duration,
    pub stats: ExplorationStats,
    /// Queue pops spent when the first query was certified.
    pub first_query_pops: usize,
    pub answers: usize,
    /// Queries the answer phase evaluated to reach its target.
    pub queries_processed: usize,
    pub keywords: usize,
    /// Keyword-element matches over all keywords.
    pub matches: usize,
    pub augmented_elements: usize,
    /// Subgraphs mapped to queries, duplicates included (traced path only).
    pub queries_mapped: usize,
}

/// The request every read workload issues: open a session, take the first
/// certified query and evaluate it, continue the answer phase down the
/// ranking until [`MIN_ANSWERS`] answers exist, drain the rest.
pub fn session_request(
    prepared: &PreparedGraph,
    keywords: &[String],
    config: &SearchConfig,
    deadline: Instant,
) -> Result<RequestResult, SearchError> {
    let start = Instant::now();
    let mut session = prepared.session(keywords, config.clone())?;
    session.set_deadline(Some(deadline));
    let first = black_box(session.next_query());
    let first_query = start.elapsed();
    let first_query_pops = session.stats().queue_pops;
    let first_answers = first
        .as_ref()
        .and_then(|ranked| prepared.answers(&ranked.query, Some(MIN_ANSWERS)).ok())
        .map_or(0, |set| set.len());
    let phase = session.answers_until(MIN_ANSWERS.saturating_sub(first_answers));
    let outcome = session.into_outcome();
    let total = start.elapsed();
    Ok(RequestResult {
        first_query,
        total,
        stats: outcome.exploration,
        first_query_pops,
        answers: first_answers + phase.total_answers(),
        queries_processed: usize::from(first.is_some()) + phase.queries_processed,
        keywords: keywords.len(),
        matches: outcome.keywords.iter().map(|k| k.element_matches).sum(),
        augmented_elements: outcome.augmented_elements,
        queries_mapped: 0,
        queries: outcome.queries,
    })
}

/// The ranked stream of the decomposed pipeline: the same loop
/// `SearchSession` runs internally (certify, map, drop duplicates).
struct Stream<'g> {
    augmented: AugmentedSummaryGraph<'g>,
    state: ExplorationState,
    seen: BTreeSet<String>,
    queries: Vec<RankedQuery>,
    mapped: usize,
    drained: bool,
}

impl Stream<'_> {
    fn advance(
        &mut self,
        config: &SearchConfig,
        tracer: &mut Tracer,
        request: u32,
        parent: SpanId,
    ) -> Option<usize> {
        while !self.drained {
            if self.queries.len() >= config.k {
                break;
            }
            let explore = tracer.begin(SPAN_EXPLORE, request, Some(parent));
            let certified = self.state.next_certified(&self.augmented, config);
            tracer.end(explore);
            let Some(subgraph) = certified else {
                break;
            };
            let map = tracer.begin(SPAN_MAP, request, Some(parent));
            let query = map_subgraph_to_query(&self.augmented, &subgraph);
            let fresh = self.seen.insert(query.canonicalized().to_string());
            tracer.end(map);
            self.mapped += 1;
            if fresh {
                self.queries.push(RankedQuery {
                    rank: self.queries.len() + 1,
                    cost: subgraph.cost,
                    query,
                    subgraph,
                });
                return Some(self.queries.len() - 1);
            }
        }
        self.drained = true;
        None
    }
}

/// The same request as [`session_request`], executed layer by layer through
/// the public functions, each call inside a span of `tracer`.
pub fn traced_request(
    prepared: &PreparedGraph,
    keywords: &[String],
    config: &SearchConfig,
    deadline: Instant,
    tracer: &mut Tracer,
    request: u32,
) -> Option<RequestResult> {
    let start = Instant::now();
    let root = tracer.begin(SPAN_REQUEST, request, None);

    let all_matches = tracer.span(SPAN_LOOKUP, request, Some(root), || {
        prepared.keyword_index().lookup_all(keywords)
    });
    let matches: Vec<_> = all_matches.into_iter().filter(|m| !m.is_empty()).collect();
    if matches.is_empty() {
        tracer.end(root);
        return None;
    }
    let match_count = matches.iter().map(Vec::len).sum();

    let augmented = tracer.span(SPAN_AUGMENT, request, Some(root), || {
        AugmentedSummaryGraph::build(prepared.graph(), prepared.summary(), &matches)
    });
    let augmented_elements = augmented.element_count();

    let seed = tracer.begin(SPAN_EXPLORE, request, Some(root));
    let mut state = ExplorationState::new(&augmented, config);
    state.set_deadline(Some(deadline));
    tracer.end(seed);
    let mut stream = Stream {
        augmented,
        state,
        seen: BTreeSet::new(),
        queries: Vec::new(),
        mapped: 0,
        drained: false,
    };

    let mut next = stream.advance(config, tracer, request, root);
    black_box(next.map(|index| stream.queries[index].clone()));
    let first_query = start.elapsed();
    let first_query_pops = stream.state.stats().queue_pops;

    let mut answers = 0usize;
    let mut queries_processed = 0usize;
    while let Some(index) = next {
        queries_processed += 1;
        let evaluated = tracer.span(SPAN_ANSWER, request, Some(root), || {
            prepared.answers(&stream.queries[index].query, Some(MIN_ANSWERS - answers))
        });
        if let Ok(set) = evaluated {
            answers += set.len();
            black_box(set);
        }
        if answers >= MIN_ANSWERS {
            break;
        }
        next = stream.advance(config, tracer, request, root);
    }
    while stream.advance(config, tracer, request, root).is_some() {}

    let stats = stream.state.stats();
    tracer.end(root);
    Some(RequestResult {
        queries: stream.queries,
        first_query,
        total: start.elapsed(),
        stats,
        first_query_pops,
        answers,
        queries_processed,
        keywords: keywords.len(),
        matches: match_count,
        augmented_elements,
        queries_mapped: stream.mapped,
    })
}
