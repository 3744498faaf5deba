//! RDF terms.
//!
//! A [`Term`] is either an IRI (identifying an entity or a class) or a
//! literal (a data value). Terms appear as subjects and objects of
//! [`Triple`](crate::Triple)s before the triples are classified into the
//! typed edges of the data graph.

use std::fmt;

/// A subject or object position of an RDF triple.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An IRI or other global identifier (entity URIs, class names).
    Iri(String),
    /// A literal data value (strings, numbers, dates — all kept as text).
    Literal(String),
}

impl Term {
    /// Creates an IRI term.
    pub fn iri(value: impl Into<String>) -> Self {
        Term::Iri(value.into())
    }

    /// Creates a literal term.
    pub fn literal(value: impl Into<String>) -> Self {
        Term::Literal(value.into())
    }

    /// The textual value of the term, without syntactic decoration.
    pub fn value(&self) -> &str {
        match self {
            Term::Iri(v) | Term::Literal(v) => v,
        }
    }

    /// Whether the term is an IRI.
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// Whether the term is a literal.
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal(_))
    }

    /// A borrowed view of the term.
    pub(crate) fn as_ref(&self) -> TermRef<'_> {
        match self {
            Term::Iri(v) => TermRef::Iri(v),
            Term::Literal(v) => TermRef::Literal(v),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(v) => write!(f, "<{v}>"),
            Term::Literal(v) => write!(f, "\"{v}\""),
        }
    }
}

/// A borrowed view of a [`Term`], used by the streamed N-Triples ingest
/// path to avoid allocating a `String` per term.
///
/// Literal contents are already unescaped — on the fast path they borrow the
/// input line directly; escaped literals borrow a reusable scratch buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermRef<'a> {
    /// An IRI or other global identifier.
    Iri(&'a str),
    /// A literal data value (unescaped).
    Literal(&'a str),
}

impl<'a> TermRef<'a> {
    /// The textual value of the term, without syntactic decoration.
    pub fn value(&self) -> &'a str {
        match self {
            TermRef::Iri(v) | TermRef::Literal(v) => v,
        }
    }

    /// Whether the term is an IRI.
    pub fn is_iri(&self) -> bool {
        matches!(self, TermRef::Iri(_))
    }

    /// Whether the term is a literal.
    pub fn is_literal(&self) -> bool {
        matches!(self, TermRef::Literal(_))
    }

    /// Converts into an owning [`Term`].
    pub fn to_term(self) -> Term {
        match self {
            TermRef::Iri(v) => Term::iri(v),
            TermRef::Literal(v) => Term::literal(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let iri = Term::iri("pub1URI");
        assert!(iri.is_iri());
        assert!(!iri.is_literal());
        assert_eq!(iri.value(), "pub1URI");

        let lit = Term::literal("P. Cimiano");
        assert!(lit.is_literal());
        assert_eq!(lit.value(), "P. Cimiano");
    }

    #[test]
    fn display_uses_ntriples_like_syntax() {
        assert_eq!(Term::iri("re1URI").to_string(), "<re1URI>");
        assert_eq!(Term::literal("2006").to_string(), "\"2006\"");
    }

    #[test]
    fn ordering_groups_iris_before_literals() {
        let mut terms = vec![Term::literal("a"), Term::iri("b"), Term::iri("a")];
        terms.sort();
        assert_eq!(
            terms,
            vec![Term::iri("a"), Term::iri("b"), Term::literal("a")]
        );
    }
}
