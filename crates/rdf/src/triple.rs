//! Triples and edge-kind classification.

use std::fmt;

use crate::term::{Term, TermRef};
use crate::vocab;

/// The four edge kinds of Definition 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EdgeKind {
    /// An R-edge: relation between two entities (`e ∈ L_R`).
    Relation,
    /// An A-edge: attribute assignment from an entity to a value (`e ∈ L_A`).
    Attribute,
    /// The predefined `type` edge from an entity to a class.
    Type,
    /// The predefined `subclass` edge between two classes.
    SubClass,
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EdgeKind::Relation => "relation",
            EdgeKind::Attribute => "attribute",
            EdgeKind::Type => "type",
            EdgeKind::SubClass => "subclass",
        };
        f.write_str(s)
    }
}

/// An RDF triple `(subject, predicate, object)`.
///
/// The subject is always an IRI; the object may be an IRI (relation, type and
/// subclass triples) or a literal (attribute triples).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    /// The subject term (always an IRI in well-formed data).
    pub subject: Term,
    /// The predicate label.
    pub predicate: String,
    /// The object term.
    pub object: Term,
}

impl Triple {
    /// Creates a triple.
    pub fn new(subject: Term, predicate: impl Into<String>, object: Term) -> Self {
        Self {
            subject,
            predicate: predicate.into(),
            object,
        }
    }

    /// Convenience constructor for a relation triple between two entities.
    pub fn relation(
        subject: impl Into<String>,
        predicate: impl Into<String>,
        object: impl Into<String>,
    ) -> Self {
        Self::new(Term::iri(subject), predicate, Term::iri(object))
    }

    /// Convenience constructor for an attribute triple.
    pub fn attribute(
        subject: impl Into<String>,
        predicate: impl Into<String>,
        value: impl Into<String>,
    ) -> Self {
        Self::new(Term::iri(subject), predicate, Term::literal(value))
    }

    /// Convenience constructor for a `type` triple.
    pub fn typed(subject: impl Into<String>, class: impl Into<String>) -> Self {
        Self::new(Term::iri(subject), vocab::TYPE, Term::iri(class))
    }

    /// Convenience constructor for a `subclass` triple.
    pub fn subclass(class: impl Into<String>, super_class: impl Into<String>) -> Self {
        Self::new(Term::iri(class), vocab::SUBCLASS, Term::iri(super_class))
    }

    /// Classifies the triple into one of the four edge kinds of Definition 1
    /// (see [`TripleRef::edge_kind`]).
    pub fn edge_kind(&self) -> EdgeKind {
        self.as_ref().edge_kind()
    }

    /// A borrowed view of the triple.
    pub(crate) fn as_ref(&self) -> TripleRef<'_> {
        TripleRef {
            subject: self.subject.value(),
            predicate: &self.predicate,
            object: self.object.as_ref(),
        }
    }
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} <{}> {} .", self.subject, self.predicate, self.object)
    }
}

/// A borrowed view of a [`Triple`], produced by the streamed N-Triples
/// parser so a whole triple can be classified and interned without any
/// intermediate `String` allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TripleRef<'a> {
    /// The subject IRI.
    pub subject: &'a str,
    /// The predicate label.
    pub predicate: &'a str,
    /// The object term.
    pub object: TermRef<'a>,
}

impl<'a> TripleRef<'a> {
    /// Classifies the triple into one of the four edge kinds of Definition 1.
    ///
    /// * `type` and `subclass` predicates map to their dedicated kinds,
    /// * an IRI object yields a [`EdgeKind::Relation`],
    /// * a literal object yields an [`EdgeKind::Attribute`].
    pub fn edge_kind(&self) -> EdgeKind {
        if self.predicate == vocab::TYPE {
            EdgeKind::Type
        } else if self.predicate == vocab::SUBCLASS {
            EdgeKind::SubClass
        } else if self.object.is_literal() {
            EdgeKind::Attribute
        } else {
            EdgeKind::Relation
        }
    }

    /// Converts into an owning [`Triple`].
    pub fn to_triple(self) -> Triple {
        Triple::new(
            Term::iri(self.subject),
            self.predicate,
            self.object.to_term(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_follows_definition_1() {
        assert_eq!(
            Triple::relation("pub1URI", "author", "re1URI").edge_kind(),
            EdgeKind::Relation
        );
        assert_eq!(
            Triple::attribute("pub1URI", "year", "2006").edge_kind(),
            EdgeKind::Attribute
        );
        assert_eq!(
            Triple::typed("pub1URI", "Publication").edge_kind(),
            EdgeKind::Type
        );
        assert_eq!(
            Triple::subclass("Researcher", "Person").edge_kind(),
            EdgeKind::SubClass
        );
    }

    #[test]
    fn type_predicate_wins_over_object_shape() {
        // Even if a `type` triple carries a literal object (malformed data),
        // classification is driven by the reserved predicate; the builder
        // rejects it later.
        let odd = Triple::new(Term::iri("x"), vocab::TYPE, Term::literal("Publication"));
        assert_eq!(odd.edge_kind(), EdgeKind::Type);
    }

    #[test]
    fn display_round_trips_through_parser_syntax() {
        let t = Triple::attribute("re2URI", "name", "P. Cimiano");
        assert_eq!(t.to_string(), "<re2URI> <name> \"P. Cimiano\" .");
        let t = Triple::relation("re2URI", "worksAt", "inst1URI");
        assert_eq!(t.to_string(), "<re2URI> <worksAt> <inst1URI> .");
    }

    #[test]
    fn edge_kind_display() {
        assert_eq!(EdgeKind::Relation.to_string(), "relation");
        assert_eq!(EdgeKind::Attribute.to_string(), "attribute");
        assert_eq!(EdgeKind::Type.to_string(), "type");
        assert_eq!(EdgeKind::SubClass.to_string(), "subclass");
    }
}
