//! Small, well-known example graphs.
//!
//! These fixtures are compiled into the library (not only into tests) so
//! that downstream crates, integration tests, examples and documentation can
//! all share the paper's running example.

use crate::graph::DataGraph;
use crate::triple::Triple;

/// The triples of the running example of the paper (Fig. 1a): publications,
/// researchers, projects and institutes.
pub fn figure1_triples() -> Vec<Triple> {
    vec![
        Triple::typed("pro2URI", "Project"),
        Triple::typed("pro1URI", "Project"),
        Triple::attribute("pro1URI", "name", "X-Media"),
        Triple::relation("pub1URI", "hasProject", "pro1URI"),
        Triple::typed("pub1URI", "Publication"),
        Triple::attribute("pub1URI", "title", "Top-k Exploration of Query Candidates"),
        Triple::relation("pub1URI", "author", "re1URI"),
        Triple::relation("pub1URI", "author", "re2URI"),
        Triple::attribute("pub1URI", "year", "2006"),
        Triple::typed("pub2URI", "Publication"),
        Triple::attribute("pub2URI", "year", "2008"),
        Triple::relation("pub2URI", "author", "re1URI"),
        Triple::typed("re1URI", "Researcher"),
        Triple::attribute("re1URI", "name", "Thanh Tran"),
        Triple::relation("re1URI", "worksAt", "inst1URI"),
        Triple::typed("re2URI", "Researcher"),
        Triple::attribute("re2URI", "name", "P. Cimiano"),
        Triple::relation("re2URI", "worksAt", "inst1URI"),
        Triple::typed("inst1URI", "Institute"),
        Triple::attribute("inst1URI", "name", "AIFB"),
        Triple::typed("inst2URI", "Institute"),
        Triple::subclass("Institute", "Agent"),
        Triple::subclass("Researcher", "Person"),
        Triple::subclass("Person", "Agent"),
        Triple::subclass("Agent", "Thing"),
    ]
}

/// The running-example data graph of Fig. 1a.
pub fn figure1_graph() -> DataGraph {
    let mut g = DataGraph::new();
    for t in &figure1_triples() {
        #[expect(
            clippy::expect_used,
            reason = "the fixture triples are a hard-coded constant vetted by the tests in this module"
        )]
        g.insert_triple(t)
            .expect("the figure-1 fixture contains only well-formed triples");
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::VertexKind;

    #[test]
    fn figure1_graph_builds() {
        let g = figure1_graph();
        assert!(g.vertex_count_of_kind(VertexKind::Entity) >= 8);
        assert!(g.class("Publication").is_some());
        assert!(g.value("AIFB").is_some());
        assert!(g.edge_count() >= figure1_triples().len() - 1);
    }

    #[test]
    fn figure1_contains_the_example_query_ingredients() {
        // The worked example in the paper maps the keywords
        // "2006 cimiano aifb" onto the year value, the researcher name and
        // the institute name.
        let g = figure1_graph();
        assert!(g.value("2006").is_some());
        assert!(g.value("P. Cimiano").is_some());
        assert!(g.value("AIFB").is_some());
        assert!(g.entity("pub1URI").is_some());
    }
}
