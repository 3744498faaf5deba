//! The cost functions C1, C2 and C3 of Section V.
//!
//! All three functions share the same aggregation structure:
//!
//! * the cost of a **subgraph** is the sum of the costs of its paths
//!   (`C_G = Σ C_p`), and
//! * the cost of a **path** is the sum of the costs of its elements
//!   (`C_p = Σ c(n)`),
//!
//! so costs can be computed *locally* while a cursor extends a path — the
//! property that makes the Threshold-Algorithm-style top-k of Algorithm 2
//! possible. The functions differ only in the per-element cost `c(n)`:
//!
//! | function | element cost |
//! |----------|--------------|
//! | C1 (path length)        | `1` |
//! | C2 (popularity)         | `1 − |n_agg| / |total|` |
//! | C3 (popularity + match) | `c2(n) / s_m(n)` |
//!
//! The popularity of a node is `|v_agg| / |V_E|` and of an edge
//! `|e_agg| / |E_R|`: the aggregation count of the summary element over the
//! total number of E-vertices or R-edges. The paper divides by the totals
//! "of the summary graph"; we normalise by the data-graph totals instead, so
//! the ratio is a true fraction of the data that the element represents and
//! the cost stays in `[MIN_ELEMENT_COST, 1]` — a deliberate deviation from
//! the paper's wording. Elements added during augmentation aggregate a
//! single data element and are therefore "unpopular" (cost close to 1):
//! query-specific detours are not free.

use kwsearch_summary::{AugmentedSummaryGraph, SummaryElement};

/// Minimum element cost, keeping costs strictly positive so that longer
/// paths always cost more than their prefixes.
pub const MIN_ELEMENT_COST: f64 = 0.05;

/// Which of the paper's cost functions to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScoringFunction {
    /// C1: every element costs 1, so a subgraph's cost is its total path
    /// length.
    PathLength,
    /// C2: popularity-based element costs.
    Popularity,
    /// C3: popularity divided by the keyword matching score `s_m(n)`
    /// (elements that match the keywords well become cheaper).
    #[default]
    PopularityAndMatch,
}

impl ScoringFunction {
    /// Short name used in reports and benchmark output (`C1`, `C2`, `C3`).
    pub fn short_name(self) -> &'static str {
        match self {
            ScoringFunction::PathLength => "C1",
            ScoringFunction::Popularity => "C2",
            ScoringFunction::PopularityAndMatch => "C3",
        }
    }

    /// All scoring functions, in the order used by the effectiveness study
    /// (Fig. 4).
    pub fn all() -> [ScoringFunction; 3] {
        [
            ScoringFunction::PathLength,
            ScoringFunction::Popularity,
            ScoringFunction::PopularityAndMatch,
        ]
    }

    /// The cost `c(n)` of a single element of the augmented summary graph.
    pub fn element_cost(self, graph: &AugmentedSummaryGraph<'_>, element: SummaryElement) -> f64 {
        match self {
            ScoringFunction::PathLength => 1.0,
            ScoringFunction::Popularity => popularity_cost(graph, element),
            ScoringFunction::PopularityAndMatch => {
                let base = popularity_cost(graph, element);
                let s_m = graph.match_score(element).clamp(f64::EPSILON, 1.0);
                base / s_m
            }
        }
    }

    /// The per-element costs of the whole augmented summary graph, indexed
    /// by dense element id (`AugmentedSummaryGraph::element_index`; nodes
    /// first, then edges). The exploration precomputes this once per run so
    /// the expansion loop pays one array load per neighbour instead of one
    /// cost evaluation.
    pub fn cost_table(self, graph: &AugmentedSummaryGraph<'_>) -> Vec<f64> {
        graph
            .elements()
            .map(|element| self.element_cost(graph, element))
            .collect()
    }

    /// The cost of a path given as a sequence of elements.
    pub fn path_cost(self, graph: &AugmentedSummaryGraph<'_>, path: &[SummaryElement]) -> f64 {
        path.iter().map(|&e| self.element_cost(graph, e)).sum()
    }

    /// The cost of a subgraph given as a set of paths. Shared elements are
    /// counted once per path (Section V: this biases the ranking towards
    /// tightly connected subgraphs and keeps the cost computation local).
    pub fn subgraph_cost(
        self,
        graph: &AugmentedSummaryGraph<'_>,
        paths: &[Vec<SummaryElement>],
    ) -> f64 {
        paths.iter().map(|p| self.path_cost(graph, p)).sum()
    }
}

/// The C2 cost of `element`: one minus its popularity (module doc),
/// floored at [`MIN_ELEMENT_COST`]; 1 when the data graph has no element of
/// its kind.
fn popularity_cost(graph: &AugmentedSummaryGraph<'_>, element: SummaryElement) -> f64 {
    let total = match element {
        SummaryElement::Node(_) => graph.total_entities(),
        SummaryElement::Edge(_) => graph.total_relation_edges(),
    };
    if total == 0 {
        return 1.0;
    }
    let popularity = (graph.aggregated(element) as f64 / total as f64).min(1.0);
    (1.0 - popularity).max(MIN_ELEMENT_COST)
}

impl std::fmt::Display for ScoringFunction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwsearch_keyword_index::KeywordIndex;
    use kwsearch_rdf::fixtures::figure1_graph;
    use kwsearch_rdf::DataGraph;
    use kwsearch_summary::SummaryGraph;

    fn augmented<'g>(graph: &'g DataGraph, keywords: &[&str]) -> AugmentedSummaryGraph<'g> {
        let base = SummaryGraph::build(graph);
        let index = KeywordIndex::build(graph);
        let matches = index.lookup_all(keywords);
        AugmentedSummaryGraph::build(graph, &base, &matches)
    }

    #[test]
    fn uniform_costs_are_all_one() {
        let g = figure1_graph();
        let aug = augmented(&g, &["aifb"]);
        for element in aug.elements() {
            assert_eq!(ScoringFunction::PathLength.element_cost(&aug, element), 1.0);
        }
    }

    #[test]
    fn popularity_costs_are_bounded_and_positive() {
        let g = figure1_graph();
        let aug = augmented(&g, &["2006", "cimiano", "aifb"]);
        for element in aug.elements() {
            let cost = ScoringFunction::Popularity.element_cost(&aug, element);
            assert!(cost >= MIN_ELEMENT_COST - 1e-12);
            assert!(cost <= 1.0);
        }
    }

    #[test]
    fn popular_elements_cost_less() {
        let g = figure1_graph();
        let base = SummaryGraph::build(&g);
        let aug = augmented(&g, &["aifb"]);
        // Publication aggregates 2 of 8 entities; Agent aggregates 0.
        let publication =
            SummaryElement::Node(base.node_of_class(g.class("Publication").unwrap()).unwrap());
        let agent = SummaryElement::Node(base.node_of_class(g.class("Agent").unwrap()).unwrap());
        let c_pub = ScoringFunction::Popularity.element_cost(&aug, publication);
        let c_agent = ScoringFunction::Popularity.element_cost(&aug, agent);
        assert!(c_pub < c_agent);
        assert_eq!(c_agent, 1.0);
    }

    #[test]
    fn augmented_elements_are_unpopular() {
        let g = figure1_graph();
        let aug = augmented(&g, &["aifb"]);
        let value_node = aug.keyword_elements()[0][0].element;
        let cost = ScoringFunction::Popularity.element_cost(&aug, value_node);
        assert!(
            cost > 0.8,
            "a single-value node should be expensive, got {cost}"
        );
    }

    #[test]
    fn c1_counts_elements() {
        let g = figure1_graph();
        let aug = augmented(&g, &["aifb"]);
        let elements: Vec<SummaryElement> = aug.elements().take(4).collect();
        assert_eq!(ScoringFunction::PathLength.path_cost(&aug, &elements), 4.0);
    }

    #[test]
    fn c2_is_cheaper_for_popular_elements_but_never_exceeds_c1() {
        let g = figure1_graph();
        let aug = augmented(&g, &["aifb"]);
        for element in aug.elements() {
            let c1 = ScoringFunction::PathLength.element_cost(&aug, element);
            let c2 = ScoringFunction::Popularity.element_cost(&aug, element);
            assert!(c2 <= c1 + 1e-12);
            assert!(c2 > 0.0);
        }
    }

    #[test]
    fn c3_discounts_well_matching_keyword_elements() {
        let g = figure1_graph();
        // Second keyword has a typo.
        let aug = augmented(&g, &["aifb", "cimano"]);
        // The exact match scores s_m = 1.0, so C3 equals C2 for it.
        let exact = aug.keyword_elements()[0][0].element;
        let c2 = ScoringFunction::Popularity.element_cost(&aug, exact);
        let c3 = ScoringFunction::PopularityAndMatch.element_cost(&aug, exact);
        assert!((c2 - c3).abs() < 1e-12);
        // The fuzzy match has s_m < 1.0, so C3 makes it more expensive than C2.
        let fuzzy = aug.keyword_elements()[1][0].element;
        let c2 = ScoringFunction::Popularity.element_cost(&aug, fuzzy);
        let c3 = ScoringFunction::PopularityAndMatch.element_cost(&aug, fuzzy);
        assert!(c3 > c2);
    }

    #[test]
    fn subgraph_cost_counts_shared_elements_per_path() {
        let g = figure1_graph();
        let aug = augmented(&g, &["aifb"]);
        let shared: Vec<SummaryElement> = aug.elements().take(2).collect();
        let paths = vec![shared.clone(), shared.clone()];
        let single = ScoringFunction::PathLength.path_cost(&aug, &shared);
        let total = ScoringFunction::PathLength.subgraph_cost(&aug, &paths);
        assert_eq!(total, 2.0 * single);
    }

    #[test]
    fn names_and_display() {
        assert_eq!(ScoringFunction::PathLength.short_name(), "C1");
        assert_eq!(ScoringFunction::Popularity.to_string(), "C2");
        assert_eq!(ScoringFunction::PopularityAndMatch.to_string(), "C3");
        assert_eq!(ScoringFunction::all().len(), 3);
        assert_eq!(
            ScoringFunction::default(),
            ScoringFunction::PopularityAndMatch
        );
    }

    #[test]
    fn costs_are_monotonic_under_path_extension() {
        // Extending a path can never decrease its cost — the property the
        // top-k termination proof relies on.
        let g = figure1_graph();
        let aug = augmented(&g, &["2006", "cimiano", "aifb"]);
        let elements: Vec<SummaryElement> = aug.elements().collect();
        for scoring in ScoringFunction::all() {
            let mut prefix_cost = 0.0;
            for (i, &e) in elements.iter().enumerate() {
                let extended = scoring.path_cost(&aug, &elements[..=i]);
                assert!(extended >= prefix_cost - 1e-12);
                prefix_cost = extended;
                let _ = e;
            }
        }
    }
}
