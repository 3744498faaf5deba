//! Semantic expansion of terms.
//!
//! The paper links every indexed term with "semantically similar entries
//! such as synonyms, hyponyms and hypernyms … extracted from WordNet" so
//! that a keyword can match a label it does not share any token with.
//! WordNet itself is not redistributable inside this repository, so the
//! [`Thesaurus`] ships with a compact built-in synonym table covering the
//! vocabulary of the evaluation datasets (bibliographic, university and
//! general-knowledge domains) and can be extended programmatically. The
//! lookup interface is the same as a WordNet-backed implementation would
//! offer: given a term, return related terms with a relatedness weight.

use std::collections::HashMap;

use kwsearch_rdf::snapshot::{SectionDecoder, SectionEncoder, SnapshotError};

/// Relation between a term and a related term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// Same meaning (synonym) — full weight.
    Synonym,
    /// More general term (hypernym) — dampened weight.
    Hypernym,
    /// More specific term (hyponym) — dampened weight.
    Hyponym,
}

impl Relation {
    /// The score multiplier applied to matches found through this relation.
    pub fn weight(self) -> f64 {
        match self {
            Relation::Synonym => 0.9,
            Relation::Hypernym => 0.7,
            Relation::Hyponym => 0.7,
        }
    }

    /// Stable numeric tag used by the snapshot format.
    fn tag(self) -> u32 {
        match self {
            Relation::Synonym => 0,
            Relation::Hypernym => 1,
            Relation::Hyponym => 2,
        }
    }

    /// Inverse of [`Self::tag`].
    fn from_tag(tag: u32) -> Option<Self> {
        match tag {
            0 => Some(Relation::Synonym),
            1 => Some(Relation::Hypernym),
            2 => Some(Relation::Hyponym),
            _ => None,
        }
    }
}

/// A related term together with its relation to the queried term.
#[derive(Debug, Clone, PartialEq)]
pub struct RelatedTerm {
    /// The related word (not stemmed).
    pub term: String,
    /// How the word relates to the queried term.
    pub relation: Relation,
}

/// An in-memory synonym/hypernym/hyponym table.
#[derive(Debug, Clone, Default)]
pub struct Thesaurus {
    entries: HashMap<String, Vec<RelatedTerm>>,
}

/// Built-in synonym groups: every word in a group is a synonym of every
/// other word in the group.
const SYNONYM_GROUPS: &[&[&str]] = &[
    &["publication", "paper", "article"],
    &["author", "writer", "creator"],
    &["researcher", "scientist", "academic"],
    &["institute", "institution", "organization", "organisation"],
    &["university", "college"],
    &["project", "undertaking"],
    &["person", "human", "individual"],
    &["student", "pupil", "learner"],
    &["professor", "lecturer", "instructor"],
    &["course", "class", "lecture"],
    &["department", "faculty", "division"],
    &["conference", "venue", "proceedings"],
    &["journal", "periodical", "magazine"],
    &["year", "date"],
    &["name", "label", "title"],
    &["work", "employment", "job"],
    &["location", "place", "region"],
    &["city", "town"],
    &["country", "nation", "state"],
    &["sport", "game", "athletics"],
    &["music", "song", "melody"],
    &["film", "movie", "picture"],
    &["book", "volume"],
    &["team", "club", "squad"],
];

/// Built-in (hyponym, hypernym) pairs: the first word is a more specific
/// kind of the second.
const HYPERNYM_PAIRS: &[(&str, &str)] = &[
    ("researcher", "person"),
    ("professor", "person"),
    ("student", "person"),
    ("author", "person"),
    ("university", "organization"),
    ("institute", "organization"),
    ("department", "organization"),
    ("publication", "document"),
    ("article", "document"),
    ("book", "document"),
    ("thesis", "document"),
    ("city", "location"),
    ("country", "location"),
    ("conference", "event"),
    ("workshop", "event"),
];

impl Thesaurus {
    /// An empty thesaurus (no semantic expansion).
    pub fn empty() -> Self {
        Self::default()
    }

    /// The built-in thesaurus covering the evaluation vocabulary.
    pub fn builtin() -> Self {
        let mut t = Self::default();
        for group in SYNONYM_GROUPS {
            for &a in *group {
                for &b in *group {
                    if a != b {
                        t.add(a, b, Relation::Synonym);
                    }
                }
            }
        }
        for &(hypo, hyper) in HYPERNYM_PAIRS {
            t.add(hypo, hyper, Relation::Hypernym);
            t.add(hyper, hypo, Relation::Hyponym);
        }
        t
    }

    /// Adds a directed relation `term → related`.
    pub fn add(&mut self, term: &str, related: &str, relation: Relation) {
        let entry = self.entries.entry(term.to_lowercase()).or_default();
        let related = related.to_lowercase();
        if !entry
            .iter()
            .any(|r| r.term == related && r.relation == relation)
        {
            entry.push(RelatedTerm {
                term: related,
                relation,
            });
        }
    }

    /// Adds a bidirectional synonym pair.
    pub fn add_synonyms(&mut self, a: &str, b: &str) {
        self.add(a, b, Relation::Synonym);
        self.add(b, a, Relation::Synonym);
    }

    /// All terms related to `term` (lower-cased lookup).
    pub fn related(&self, term: &str) -> &[RelatedTerm] {
        self.entries
            .get(&term.to_lowercase())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of terms with at least one relation.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the thesaurus has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serialises the table with terms in sorted order, so equal thesauri
    /// produce byte-identical snapshots.
    pub fn write_snapshot(&self, enc: &mut SectionEncoder) {
        #[expect(
            clippy::disallowed_methods,
            reason = "keys are collected and sorted before serialisation, erasing hash order"
        )]
        let mut terms: Vec<&String> = self.entries.keys().collect();
        terms.sort_unstable();
        enc.put_u64(terms.len() as u64);
        for term in terms {
            enc.put_str(term);
            let related = &self.entries[term];
            enc.put_u64(related.len() as u64);
            for r in related {
                enc.put_str(&r.term);
                enc.put_u32(r.relation.tag());
            }
        }
    }

    /// Reads a table serialised by [`Self::write_snapshot`]. The thesaurus
    /// is small (hundreds of entries), so rebuilding the hash map here does
    /// not threaten the O(bytes) load budget.
    pub fn read_snapshot(dec: &mut SectionDecoder<'_>) -> Result<Self, SnapshotError> {
        let term_count = dec.get_u64()?;
        let mut entries = HashMap::new();
        for _ in 0..term_count {
            let term = dec.get_string()?;
            let related_count = dec.get_u64()?;
            let mut related = Vec::new();
            for _ in 0..related_count {
                let related_term = dec.get_string()?;
                let relation = Relation::from_tag(dec.get_u32()?)
                    .ok_or_else(|| dec.corrupt("unknown thesaurus relation tag"))?;
                related.push(RelatedTerm {
                    term: related_term,
                    relation,
                });
            }
            if entries.insert(term, related).is_some() {
                return Err(dec.corrupt("duplicate thesaurus term"));
            }
        }
        Ok(Self { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_contains_bibliographic_synonyms() {
        let t = Thesaurus::builtin();
        let related: Vec<&str> = t
            .related("publication")
            .iter()
            .map(|r| r.term.as_str())
            .collect();
        assert!(related.contains(&"paper"));
        assert!(related.contains(&"article"));
    }

    #[test]
    fn synonym_groups_are_symmetric() {
        let t = Thesaurus::builtin();
        assert!(t.related("paper").iter().any(|r| r.term == "publication"));
        assert!(t.related("publication").iter().any(|r| r.term == "paper"));
    }

    #[test]
    fn hypernyms_and_hyponyms_are_directional() {
        let t = Thesaurus::builtin();
        assert!(t
            .related("researcher")
            .iter()
            .any(|r| r.term == "person" && r.relation == Relation::Hypernym));
        assert!(t
            .related("person")
            .iter()
            .any(|r| r.term == "researcher" && r.relation == Relation::Hyponym));
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let t = Thesaurus::builtin();
        assert!(!t.related("Publication").is_empty());
        assert!(!t.related("AUTHOR").is_empty());
    }

    #[test]
    fn unknown_terms_have_no_relations() {
        let t = Thesaurus::builtin();
        assert!(t.related("xyzzy").is_empty());
    }

    #[test]
    fn custom_entries_can_be_added() {
        let mut t = Thesaurus::empty();
        assert!(t.is_empty());
        t.add_synonyms("rdf", "resource description framework");
        assert!(t.related("rdf").iter().any(|r| r.term.contains("resource")));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn duplicate_relations_are_not_stored_twice() {
        let mut t = Thesaurus::empty();
        t.add("a", "b", Relation::Synonym);
        t.add("a", "b", Relation::Synonym);
        assert_eq!(t.related("a").len(), 1);
    }

    #[test]
    fn relation_weights_order_synonyms_first() {
        assert!(Relation::Synonym.weight() > Relation::Hypernym.weight());
        assert_eq!(Relation::Hypernym.weight(), Relation::Hyponym.weight());
    }

    #[test]
    fn snapshot_round_trips_and_is_deterministic() {
        use kwsearch_rdf::snapshot::{SnapshotReader, SnapshotWriter};
        let t = Thesaurus::builtin();
        let bytes_of = |t: &Thesaurus| {
            let mut enc = SectionEncoder::new();
            t.write_snapshot(&mut enc);
            let mut writer = SnapshotWriter::new();
            writer.add_section(1, enc);
            let mut bytes = Vec::new();
            writer.write_to(&mut bytes).unwrap();
            bytes
        };
        let bytes = bytes_of(&t);
        // Deterministic despite the HashMap backing store.
        assert_eq!(bytes, bytes_of(&Thesaurus::builtin()));
        let reader = SnapshotReader::read_from(bytes.as_slice()).unwrap();
        let mut dec = reader.section(1).unwrap();
        let loaded = Thesaurus::read_snapshot(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(loaded.len(), t.len());
        for term in ["publication", "researcher", "person", "film"] {
            assert_eq!(loaded.related(term), t.related(term));
        }
    }
}
