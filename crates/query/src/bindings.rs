//! Variable bindings and answer sets.
//!
//! An answer to a conjunctive query (Definition 3) is a mapping from the
//! distinguished variables to graph vertices such that the mapping extends to
//! all variables consistently with the data graph. During evaluation we carry
//! full bindings (all variables); the final [`AnswerSet`] is the projection
//! onto the distinguished variables, each answer once.

use kwsearch_rdf::{DataGraph, VertexId};

/// The result of evaluating a conjunctive query: the distinguished variables
/// and one row per answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnswerSet {
    variables: Vec<String>,
    rows: Vec<Vec<VertexId>>,
}

impl AnswerSet {
    /// Creates an answer set from already-projected rows that are distinct:
    /// the streaming evaluator deduplicates while enumerating.
    pub fn from_distinct(variables: Vec<String>, rows: Vec<Vec<VertexId>>) -> Self {
        debug_assert!(
            {
                let mut probe = rows.clone();
                probe.sort_unstable();
                probe.dedup();
                probe.len() == rows.len()
            },
            "from_distinct requires unique rows"
        );
        Self { variables, rows }
    }

    /// The projected (distinguished) variables.
    pub fn variables(&self) -> &[String] {
        &self.variables
    }

    /// The answer rows (vertex ids, positionally matching `variables`).
    pub fn rows(&self) -> &[Vec<VertexId>] {
        &self.rows
    }

    /// Number of answers.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no answers.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders each answer as `(variable, label)` pairs using the graph's
    /// vertex labels.
    pub fn labelled_rows<'g>(&self, graph: &'g DataGraph) -> Vec<Vec<(String, &'g str)>> {
        self.rows
            .iter()
            .map(|row| {
                self.variables
                    .iter()
                    .zip(row)
                    .map(|(var, &v)| (var.clone(), graph.vertex_label(v)))
                    .collect()
            })
            .collect()
    }

    /// The bindings of a single variable across all answers.
    pub fn column(&self, variable: &str) -> Option<Vec<VertexId>> {
        let idx = self.variables.iter().position(|v| v == variable)?;
        Some(self.rows.iter().map(|r| r[idx]).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwsearch_rdf::fixtures::figure1_graph;

    #[test]
    fn labelled_rows_resolve_vertex_labels() {
        let g = figure1_graph();
        let v = g.entity("pub1URI").unwrap();
        let answers = AnswerSet::from_distinct(vec!["x".into()], vec![vec![v]]);
        let labelled = answers.labelled_rows(&g);
        assert_eq!(labelled.len(), 1);
        assert_eq!(labelled[0][0], ("x".to_string(), "pub1URI"));
    }

    #[test]
    fn column_extraction() {
        let g = figure1_graph();
        let a = g.entity("re1URI").unwrap();
        let b = g.entity("re2URI").unwrap();
        let answers = AnswerSet::from_distinct(vec!["y".into()], vec![vec![a], vec![b]]);
        assert_eq!(answers.column("y").unwrap(), vec![a, b]);
        assert!(answers.column("missing").is_none());
    }

    #[test]
    fn from_distinct_keeps_rows_verbatim() {
        let g = figure1_graph();
        let a = g.entity("pub1URI").unwrap();
        let b = g.entity("re1URI").unwrap();
        let answers = AnswerSet::from_distinct(vec!["x".into()], vec![vec![b], vec![a]]);
        assert_eq!(answers.len(), 2);
        assert_eq!(answers.rows(), &[vec![b], vec![a]]);
    }
}
