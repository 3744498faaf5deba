//! Element-level cost model (Section V).
//!
//! The cost of a path is the sum of the costs of its elements, and the cost
//! of a matching subgraph is the sum of its paths' costs. This module
//! defines the per-element costs; the path/subgraph aggregation and the
//! keyword-matching adjustment (C3) live in the core crate's scoring module.
//!
//! Two element costs are provided:
//!
//! * **Uniform** — every element costs 1; summing it along a path yields the
//!   path-length metric of C1.
//! * **Popularity** — `c(v) = 1 − |v_agg| / |V_E|` for nodes and
//!   `c(e) = 1 − |e_agg| / |E_R|` for edges, where `|v_agg|`/`|e_agg|` are
//!   the aggregation counts of the summary element and `|V_E|`/`|E_R|` are
//!   the total numbers of E-vertices and R-edges of the data graph. The
//!   paper divides by the totals "of the summary graph"; we normalise by the
//!   data-graph totals instead so the ratio is a true fraction of the data
//!   that the element represents and the cost always stays in `[0, 1]` —
//!   a deliberate deviation from the paper's wording. Elements added during
//!   augmentation aggregate a single data element and are therefore
//!   "unpopular" (cost close to 1), which matches the intuition that
//!   query-specific detours should not be free.

use crate::augment::AugmentedSummaryGraph;
use crate::element::SummaryElement;

/// Minimum element cost, keeping costs strictly positive so that longer
/// paths always cost more than their prefixes.
pub const MIN_ELEMENT_COST: f64 = 0.05;

/// The element-level cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostModel {
    /// Every element costs 1 (path-length metric, C1).
    Uniform,
    /// Popularity-based cost (C2/C3).
    #[default]
    Popularity,
}

impl CostModel {
    /// The cost of one element of the augmented summary graph.
    pub fn element_cost(self, graph: &AugmentedSummaryGraph<'_>, element: SummaryElement) -> f64 {
        match self {
            CostModel::Uniform => 1.0,
            CostModel::Popularity => {
                let (aggregated, total) = match element {
                    SummaryElement::Node(_) => (graph.aggregated(element), graph.total_entities()),
                    SummaryElement::Edge(_) => {
                        (graph.aggregated(element), graph.total_relation_edges())
                    }
                };
                if total == 0 {
                    return 1.0;
                }
                let popularity = (aggregated as f64 / total as f64).min(1.0);
                (1.0 - popularity).max(MIN_ELEMENT_COST)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::SummaryGraph;
    use kwsearch_keyword_index::KeywordIndex;
    use kwsearch_rdf::fixtures::figure1_graph;
    use kwsearch_rdf::DataGraph;

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
            assert_eq!(CostModel::Uniform.element_cost(&aug, element), 1.0);
        }
    }

    #[test]
    fn popularity_costs_are_bounded_and_positive() {
        let g = figure1_graph();
        let aug = augmented(&g, &["2006", "cimiano", "aifb"]);
        for element in aug.elements() {
            let cost = CostModel::Popularity.element_cost(&aug, element);
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
        let c_pub = CostModel::Popularity.element_cost(&aug, publication);
        let c_agent = CostModel::Popularity.element_cost(&aug, agent);
        assert!(c_pub < c_agent);
        assert_eq!(c_agent, 1.0);
    }

    #[test]
    fn augmented_elements_are_unpopular() {
        let g = figure1_graph();
        let aug = augmented(&g, &["aifb"]);
        let value_node = aug.keyword_elements()[0][0].element;
        let cost = CostModel::Popularity.element_cost(&aug, value_node);
        assert!(
            cost > 0.8,
            "a single-value node should be expensive, got {cost}"
        );
    }

    #[test]
    fn default_cost_model_is_popularity() {
        assert_eq!(CostModel::default(), CostModel::Popularity);
    }
}
