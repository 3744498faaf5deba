//! Search results: ranked queries, the batch outcome and the answer phase.

use std::time::Duration;

use kwsearch_query::{sparql, AnswerSet, ConjunctiveQuery};

use crate::error::KeywordMatch;
use crate::exploration::ExplorationStats;
use crate::subgraph::MatchingSubgraph;

/// One entry of the top-k result list: a conjunctive query, its cost and the
/// matching subgraph it was derived from.
#[derive(Debug, Clone)]
#[must_use]
pub struct RankedQuery {
    /// Rank (1-based) within the result list.
    pub rank: usize,
    /// The computed conjunctive query.
    pub query: ConjunctiveQuery,
    /// The cost of the underlying matching subgraph (lower is better).
    pub cost: f64,
    /// The matching subgraph the query was derived from.
    pub subgraph: MatchingSubgraph,
}

impl RankedQuery {
    /// The SPARQL rendering of the query (Fig. 1c style).
    pub fn sparql(&self) -> String {
        sparql::to_sparql(&self.query)
    }

    /// A short natural-language-like description of the query, as shown to
    /// users by the paper's demo system.
    pub fn description(&self) -> String {
        sparql::to_description(&self.query)
    }
}

impl std::fmt::Display for RankedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{} (cost {:.3}): {}", self.rank, self.cost, self.query)
    }
}

/// The result of one keyword search.
#[derive(Debug, Clone)]
#[must_use]
pub struct SearchOutcome {
    /// The top-k queries in ascending cost order (rank 1 first).
    pub queries: Vec<RankedQuery>,
    /// The per-keyword match report: one entry per input keyword, carrying
    /// the keyword string, its position and how many graph elements it
    /// matched (unmatched keywords were ignored by the exploration).
    pub keywords: Vec<KeywordMatch>,
    /// Statistics of the exploration run.
    pub exploration: ExplorationStats,
    /// Size of the augmented summary graph that was explored.
    pub augmented_elements: usize,
    /// Time spent mapping keywords to elements.
    pub keyword_mapping_time: Duration,
    /// Time spent augmenting the summary graph and exploring it.
    pub exploration_time: Duration,
}

impl SearchOutcome {
    /// The best (rank-1) query, if any.
    pub fn best(&self) -> Option<&RankedQuery> {
        self.queries.first()
    }

    /// The keywords that did not match any graph element (and were ignored).
    pub fn unmatched_keywords(&self) -> impl Iterator<Item = &KeywordMatch> {
        self.keywords.iter().filter(|k| !k.is_matched())
    }

    /// Total query-computation time (mapping + exploration).
    pub fn computation_time(&self) -> Duration {
        self.keyword_mapping_time + self.exploration_time
    }
}

/// The answer phase of one Fig. 5 interaction: the top queries processed in
/// rank order until enough answers were retrieved.
#[derive(Debug, Clone)]
#[must_use]
pub struct AnswerPhase {
    /// One answer set per successfully processed query, in rank order.
    pub answers: Vec<AnswerSet>,
    /// How many queries were processed (including ones that failed to
    /// evaluate).
    pub queries_processed: usize,
    /// Wall-clock time of the whole answer phase — the second half of the
    /// paper's Fig. 5 metric ("processing several queries … until finding at
    /// least 10 answers").
    pub answer_time: Duration,
    /// Whether the phase stopped early because a deadline expired. The
    /// collected answers are a valid prefix
    /// (every returned row is exact); only the `min_answers` goal may be
    /// unmet.
    pub truncated: bool,
}

impl AnswerPhase {
    /// Total number of answers retrieved across all processed queries.
    pub fn total_answers(&self) -> usize {
        self.answers.iter().map(AnswerSet::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subgraph::SubgraphPath;
    use kwsearch_query::QueryBuilder;
    use kwsearch_summary::SummaryElement;

    fn sample() -> RankedQuery {
        // A minimal subgraph handle is enough for formatting tests; real
        // subgraphs are covered by the session tests.
        let element = sample_element();
        RankedQuery {
            rank: 1,
            cost: 2.5,
            query: QueryBuilder::new()
                .class_pattern("x", "Publication")
                .attribute_pattern("x", "year", "2006")
                .distinguished(["x"])
                .build(),
            subgraph: MatchingSubgraph::new(
                element,
                vec![SubgraphPath {
                    keyword: 0,
                    elements: vec![element],
                    cost: 2.5,
                }],
            ),
        }
    }

    fn sample_element() -> SummaryElement {
        use kwsearch_rdf::fixtures::figure1_graph;
        use kwsearch_summary::SummaryGraph;
        let g = figure1_graph();
        let s = SummaryGraph::build(&g);
        let first = s.nodes().next().unwrap();
        SummaryElement::Node(first)
    }

    #[test]
    fn sparql_and_description_are_derived_from_the_query() {
        let ranked = sample();
        assert!(ranked.sparql().contains("SELECT ?x"));
        assert!(ranked.sparql().contains("?x year '2006'"));
        assert!(ranked.description().contains("Publication"));
    }

    #[test]
    fn display_shows_rank_and_cost() {
        let text = sample().to_string();
        assert!(text.starts_with("#1"));
        assert!(text.contains("2.500"));
        assert!(text.contains("type(?x, Publication)"));
    }
}
