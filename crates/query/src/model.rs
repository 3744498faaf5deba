//! The conjunctive query model of Definition 2.
//!
//! A conjunctive query is an expression
//! `(x1, …, xk). ∃ xk+1 … xm . A1 ∧ … ∧ Ar` where `x1 … xk` are the
//! *distinguished* variables (bound to produce answers), the remaining
//! variables are existentially quantified, and every atom `A` has the form
//! `P(v1, v2)` with `P` a predicate (edge label) and `v1`, `v2` variables or
//! constants.

use std::collections::BTreeSet;
use std::fmt;

/// A term position inside a query atom.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QueryTerm {
    /// A variable, e.g. `?x`. The name excludes the leading `?`.
    Variable(String),
    /// A constant naming an entity or class (rendered bare / as an IRI).
    Iri(String),
    /// A constant literal value (rendered quoted).
    Literal(String),
}

impl QueryTerm {
    /// Creates a variable term.
    pub fn var(name: impl Into<String>) -> Self {
        QueryTerm::Variable(name.into())
    }

    /// Creates an IRI constant.
    pub fn iri(value: impl Into<String>) -> Self {
        QueryTerm::Iri(value.into())
    }

    /// Creates a literal constant.
    pub fn literal(value: impl Into<String>) -> Self {
        QueryTerm::Literal(value.into())
    }

    /// The variable name, if this term is a variable.
    pub fn as_variable(&self) -> Option<&str> {
        match self {
            QueryTerm::Variable(v) => Some(v),
            _ => None,
        }
    }

    /// The constant text, if this term is a constant.
    pub fn as_constant(&self) -> Option<&str> {
        match self {
            QueryTerm::Iri(v) | QueryTerm::Literal(v) => Some(v),
            QueryTerm::Variable(_) => None,
        }
    }

    /// Whether this term is a variable.
    pub fn is_variable(&self) -> bool {
        matches!(self, QueryTerm::Variable(_))
    }
}

impl fmt::Display for QueryTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryTerm::Variable(v) => write!(f, "?{v}"),
            QueryTerm::Iri(v) => write!(f, "{v}"),
            QueryTerm::Literal(v) => write!(f, "'{v}'"),
        }
    }
}

/// A query atom `P(v1, v2)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom {
    /// The predicate (edge label) name.
    pub predicate: String,
    /// The subject position.
    pub subject: QueryTerm,
    /// The object position.
    pub object: QueryTerm,
}

impl Atom {
    /// Creates an atom.
    pub fn new(predicate: impl Into<String>, subject: QueryTerm, object: QueryTerm) -> Self {
        Self {
            predicate: predicate.into(),
            subject,
            object,
        }
    }

    /// The variables appearing in this atom (0, 1 or 2).
    pub fn variables(&self) -> Vec<&str> {
        [&self.subject, &self.object]
            .into_iter()
            .filter_map(|t| t.as_variable())
            .collect()
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({}, {})", self.predicate, self.subject, self.object)
    }
}

/// A conjunctive query (Definition 2).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConjunctiveQuery {
    distinguished: Vec<String>,
    atoms: Vec<Atom>,
}

impl ConjunctiveQuery {
    /// Creates an empty query.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an atom to the conjunction.
    pub fn add_atom(&mut self, atom: Atom) -> &mut Self {
        if !self.atoms.contains(&atom) {
            self.atoms.push(atom);
        }
        self
    }

    /// Marks a variable as distinguished (it will appear in answers).
    ///
    /// Unknown variables are accepted; they simply never bind.
    pub fn add_distinguished(&mut self, var: impl Into<String>) -> &mut Self {
        let var = var.into();
        if !self.distinguished.contains(&var) {
            self.distinguished.push(var);
        }
        self
    }

    /// Makes every variable of the query distinguished. The paper uses this
    /// as the default when nothing but keywords is known about the user's
    /// intent ("a reasonable choice is to treat all query variables as
    /// distinguished").
    pub fn distinguish_all(&mut self) -> &mut Self {
        self.distinguished = self.variables().into_iter().collect();
        self
    }

    /// The atoms of the query.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// The distinguished variables, in declaration order.
    pub fn distinguished(&self) -> &[String] {
        &self.distinguished
    }

    /// The variables answers are projected onto: the declared distinguished
    /// variables, or — when none were declared — every variable of the query
    /// (the paper's default, Section VI-D).
    pub fn effective_distinguished(&self) -> Vec<String> {
        if self.distinguished.is_empty() {
            self.variables().into_iter().collect()
        } else {
            self.distinguished.clone()
        }
    }

    /// All variables occurring in the query, sorted.
    pub fn variables(&self) -> BTreeSet<String> {
        self.atoms
            .iter()
            .flat_map(|a| a.variables().into_iter().map(str::to_owned))
            .collect()
    }

    /// The undistinguished (existential) variables, sorted.
    pub fn undistinguished(&self) -> BTreeSet<String> {
        let mut vars = self.variables();
        for d in &self.distinguished {
            vars.remove(d);
        }
        vars
    }

    /// All constants occurring in the query, sorted.
    pub fn constants(&self) -> BTreeSet<String> {
        self.atoms
            .iter()
            .flat_map(|a| {
                [&a.subject, &a.object]
                    .into_iter()
                    .filter_map(|t| t.as_constant().map(str::to_owned))
            })
            .collect()
    }

    /// All predicate names, sorted.
    pub fn predicates(&self) -> BTreeSet<String> {
        self.atoms.iter().map(|a| a.predicate.clone()).collect()
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Whether the query has no atoms.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// A deterministic normal form (sorted atoms, sorted distinguished
    /// variables) used to deduplicate queries generated from different
    /// subgraph explorations.
    pub fn canonicalized(&self) -> ConjunctiveQuery {
        let mut atoms = self.atoms.clone();
        atoms.sort();
        let mut distinguished = self.distinguished.clone();
        distinguished.sort();
        ConjunctiveQuery {
            distinguished,
            atoms,
        }
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.distinguished.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "?{d}")?;
        }
        write!(f, "). ")?;
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The example conjunctive query from Fig. 1c:
    /// `(x, y, z). type(x, Publication) ∧ year(x, 2006) ∧ author(x, y) ∧
    ///  name(y, P. Cimiano) ∧ worksAt(y, z) ∧ name(z, AIFB)`.
    pub(crate) fn figure1_query() -> ConjunctiveQuery {
        let mut q = ConjunctiveQuery::new();
        q.add_atom(Atom::new(
            "type",
            QueryTerm::var("x"),
            QueryTerm::iri("Publication"),
        ));
        q.add_atom(Atom::new(
            "year",
            QueryTerm::var("x"),
            QueryTerm::literal("2006"),
        ));
        q.add_atom(Atom::new(
            "author",
            QueryTerm::var("x"),
            QueryTerm::var("y"),
        ));
        q.add_atom(Atom::new(
            "name",
            QueryTerm::var("y"),
            QueryTerm::literal("P. Cimiano"),
        ));
        q.add_atom(Atom::new(
            "worksAt",
            QueryTerm::var("y"),
            QueryTerm::var("z"),
        ));
        q.add_atom(Atom::new(
            "name",
            QueryTerm::var("z"),
            QueryTerm::literal("AIFB"),
        ));
        q.add_distinguished("x");
        q.add_distinguished("y");
        q.add_distinguished("z");
        q
    }

    #[test]
    fn variable_and_constant_accessors() {
        let q = figure1_query();
        assert_eq!(q.len(), 6);
        assert_eq!(
            q.variables().into_iter().collect::<Vec<_>>(),
            vec!["x", "y", "z"]
        );
        assert!(q.undistinguished().is_empty());
        assert!(q.constants().contains("Publication"));
        assert!(q.constants().contains("AIFB"));
        assert!(q.predicates().contains("worksAt"));
    }

    #[test]
    fn undistinguished_variables_are_the_rest() {
        let mut q = figure1_query();
        q.distinguished.clear();
        q.add_distinguished("x");
        assert_eq!(
            q.undistinguished().into_iter().collect::<Vec<_>>(),
            vec!["y", "z"]
        );
    }

    #[test]
    fn distinguish_all_covers_every_variable() {
        let mut q = figure1_query();
        q.distinguished.clear();
        q.distinguish_all();
        assert_eq!(q.distinguished().len(), 3);
    }

    #[test]
    fn effective_distinguished_defaults_to_all_variables() {
        let mut q = figure1_query();
        assert_eq!(q.effective_distinguished(), q.distinguished());
        q.distinguished.clear();
        assert_eq!(q.effective_distinguished(), vec!["x", "y", "z"]);
    }

    #[test]
    fn duplicate_atoms_and_variables_are_deduplicated() {
        let mut q = ConjunctiveQuery::new();
        let a = Atom::new("type", QueryTerm::var("x"), QueryTerm::iri("Person"));
        q.add_atom(a.clone());
        q.add_atom(a);
        q.add_distinguished("x");
        q.add_distinguished("x");
        assert_eq!(q.len(), 1);
        assert_eq!(q.distinguished().len(), 1);
    }

    #[test]
    fn canonicalization_makes_order_irrelevant() {
        let mut q1 = ConjunctiveQuery::new();
        q1.add_atom(Atom::new("a", QueryTerm::var("x"), QueryTerm::var("y")));
        q1.add_atom(Atom::new("b", QueryTerm::var("y"), QueryTerm::literal("v")));
        let mut q2 = ConjunctiveQuery::new();
        q2.add_atom(Atom::new("b", QueryTerm::var("y"), QueryTerm::literal("v")));
        q2.add_atom(Atom::new("a", QueryTerm::var("x"), QueryTerm::var("y")));
        assert_ne!(q1, q2);
        assert_eq!(q1.canonicalized(), q2.canonicalized());
    }

    #[test]
    fn display_resembles_the_paper_notation() {
        let q = figure1_query();
        let text = q.to_string();
        assert!(text.starts_with("(?x, ?y, ?z). "));
        assert!(text.contains("type(?x, Publication)"));
        assert!(text.contains("name(?y, 'P. Cimiano')"));
        assert!(text.contains(" ∧ "));
    }

    #[test]
    fn atom_helpers() {
        let a = Atom::new("year", QueryTerm::var("x"), QueryTerm::literal("2006"));
        assert_eq!(a.variables(), vec!["x"]);
        assert_eq!(a.to_string(), "year(?x, '2006')");
    }
}
