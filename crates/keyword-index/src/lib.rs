//! The keyword index of Section IV-A.
//!
//! The keyword index is "in fact an IR engine, which lexically analyzes a
//! given keyword, performs an imprecise matching, and finally returns a list
//! of graph elements having labels that are syntactically or semantically
//! similar". This crate provides exactly that engine:
//!
//! * [`analyzer`] — the lexical analysis pipeline (tokenisation, stop-word
//!   removal, stemming),
//! * [`stemmer`] — a Porter stemmer,
//! * [`stopwords`] — the built-in English stop-word list,
//! * [`levenshtein`](mod@levenshtein) — bounded edit distance for syntactic similarity,
//! * [`thesaurus`] — synonym/hypernym expansion standing in for WordNet,
//! * [`postings`] — the frozen flat posting lists and value connections
//!   that lookups and disk snapshots operate on,
//! * [`keyword_index`] — the keyword-to-element map returning, for each
//!   keyword, the matching classes, values, relations and attributes with
//!   the values' neighbourhood data structures
//!   (`[V-vertex, A-edge, (C-vertex…)]`) and matching scores `s_m ∈ [0, 1]`.
//!
//! E-vertices (entity URIs) are deliberately not indexed, following the
//! paper: "it can be assumed the user will enter keywords corresponding to
//! attribute values such as a name rather than using the verbose URI".

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod analyzer;
pub mod keyword_index;
pub mod levenshtein;
pub mod postings;
pub mod stemmer;
pub mod stopwords;
pub mod thesaurus;

pub use analyzer::Analyzer;
pub use keyword_index::{
    ElementRef, KeywordIndex, KeywordIndexConfig, KeywordMatch, MatchedElement, ValueConnection,
};
pub use levenshtein::{bounded_levenshtein, levenshtein, similarity};
pub use postings::PostingLists;
pub use stemmer::porter_stem;
pub use thesaurus::Thesaurus;
