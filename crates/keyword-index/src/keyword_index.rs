//! The keyword-to-element map of Section IV-A.
//!
//! For every keyword the index returns the graph elements whose labels are
//! syntactically or semantically similar, together with a matching score
//! `s_m ∈ [0, 1]` and — for V-vertices — the neighbourhood data structure
//! `[V-vertex, A-edge, (C-vertex1…n)]` that the summary-graph augmentation
//! (Definition 5) needs in order to attach the matched value to the right
//! classes. The classes of an A-edge label, `[A-edge, (C-vertex1…n)]`, are
//! schema-level: the summary graph records them, not this index.
//!
//! E-vertices are not indexed; classes, values, relation labels and
//! attribute labels are.

use std::collections::HashMap;
use std::sync::Arc;

use kwsearch_rdf::snapshot::{SectionDecoder, SectionEncoder, SnapshotError};
use kwsearch_rdf::{
    counting_sort, DataGraph, EdgeId, EdgeKind, EdgeLabel, EdgeLabelId, Interner, VertexId,
    VertexKind,
};

use crate::analyzer::{rough_tokens, Analyzer};
use crate::levenshtein::bounded_levenshtein;
use crate::postings::{pack, unpack, ConnectionTable, PostingLists};
use crate::thesaurus::Thesaurus;

/// Reference to an indexable graph element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ElementRef {
    /// A class (C-vertex).
    Class(VertexId),
    /// A data value (V-vertex).
    Value(VertexId),
    /// A relation edge label (R-edge label).
    Relation(EdgeLabelId),
    /// An attribute edge label (A-edge label).
    Attribute(EdgeLabelId),
}

/// How a matched V-vertex connects to the schema: through which attribute
/// edge, into entities of which classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueConnection {
    /// The A-edge label connecting an entity to the matched value.
    pub attribute: EdgeLabelId,
    /// The classes of the entities carrying that attribute value.
    pub classes: Vec<VertexId>,
    /// Whether at least one of those entities has no `type` edge (it will be
    /// attached to `Thing` during augmentation).
    pub has_untyped_source: bool,
}

/// A matched graph element, enriched with the neighbourhood information
/// required by the summary-graph augmentation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchedElement {
    /// The keyword matched a class label.
    Class {
        /// The matched C-vertex.
        class: VertexId,
    },
    /// The keyword matched a relation (R-edge) label.
    Relation {
        /// The matched relation label.
        label: EdgeLabelId,
    },
    /// The keyword matched an attribute (A-edge) label; the summary graph
    /// knows the classes of the entities using it.
    Attribute {
        /// The matched attribute label.
        label: EdgeLabelId,
    },
    /// The keyword matched a data value (V-vertex).
    Value {
        /// The matched V-vertex.
        value: VertexId,
        /// The `[V-vertex, A-edge, (C-vertex…)]` structures: one entry per
        /// attribute label through which the value is reachable.
        connections: Vec<ValueConnection>,
    },
}

impl MatchedElement {
    /// The bare element reference (without neighbourhood data).
    pub fn element_ref(&self) -> ElementRef {
        match self {
            MatchedElement::Class { class } => ElementRef::Class(*class),
            MatchedElement::Relation { label } => ElementRef::Relation(*label),
            MatchedElement::Attribute { label } => ElementRef::Attribute(*label),
            MatchedElement::Value { value, .. } => ElementRef::Value(*value),
        }
    }
}

/// One keyword → element match with its score `s_m`.
#[derive(Debug, Clone, PartialEq)]
pub struct KeywordMatch {
    /// The matched element with neighbourhood data.
    pub element: MatchedElement,
    /// The matching score in `[0, 1]` combining syntactic and semantic
    /// similarity (Section V, used by the C3 cost function).
    pub score: f64,
}

/// Configuration of the matching behaviour.
#[derive(Debug, Clone)]
pub struct KeywordIndexConfig {
    /// Enable Levenshtein-based fuzzy matching.
    pub fuzzy: bool,
    /// Maximum accepted edit distance for fuzzy matches.
    pub max_edit_distance: usize,
    /// Minimum normalised similarity for fuzzy matches.
    pub min_fuzzy_similarity: f64,
    /// Enable thesaurus-based semantic expansion.
    pub semantic: bool,
    /// Maximum number of matches returned per keyword.
    pub max_matches_per_keyword: usize,
}

impl Default for KeywordIndexConfig {
    fn default() -> Self {
        Self {
            fuzzy: true,
            max_edit_distance: 2,
            min_fuzzy_similarity: 0.7,
            semantic: true,
            max_matches_per_keyword: 20,
        }
    }
}

/// Post-freeze additions unioned into every lookup — the live-update
/// overlay. Kept deliberately small: it only ever holds what a handful of
/// write batches touched, and compaction folds it back into the frozen
/// columns.
///
/// Lookup results over base + delta are bit-identical to a from-scratch
/// build over the merged graph: [`KeywordIndex::lookup`] keeps the
/// *maximum* score per (element, query term), so visiting an element
/// through both the frozen and the delta side (or in a different order)
/// cannot change any score, and the final match list is canonically sorted.
#[derive(Debug, Clone, Default)]
struct DeltaIndex {
    /// Extra `term → packed postings`, sorted by term (binary-searched and
    /// iterated in order, like the frozen vocabulary).
    terms: Vec<(String, Vec<u32>)>,
    /// Overridden `[V-vertex, A-edge, (C-vertex…)]` structures for values
    /// that are new or whose neighbourhood changed; consulted before the
    /// frozen [`ConnectionTable`].
    values: HashMap<VertexId, Vec<ValueConnection>>,
}

impl DeltaIndex {
    fn is_empty(&self) -> bool {
        self.terms.is_empty() && self.values.is_empty()
    }

    fn get_packed(&self, term: &str) -> &[u32] {
        match self.terms.binary_search_by(|(t, _)| t.as_str().cmp(term)) {
            Ok(i) => &self.terms[i].1,
            Err(_) => &[],
        }
    }

    /// Registers `element` under `term`, keeping the vocabulary sorted and
    /// each posting list duplicate-free.
    fn insert(&mut self, term: &str, element: ElementRef) {
        let packed = pack(element);
        match self.terms.binary_search_by(|(t, _)| t.as_str().cmp(term)) {
            Ok(i) => {
                if !self.terms[i].1.contains(&packed) {
                    self.terms[i].1.push(packed);
                }
            }
            Err(i) => self.terms.insert(i, (term.to_string(), vec![packed])),
        }
    }

    fn heap_bytes(&self) -> usize {
        self.terms
            .iter()
            .map(|(t, p)| t.len() + p.len() * std::mem::size_of::<u32>())
            .sum::<usize>()
            + self.values.len() * 64
    }
}

/// The keyword index: an IR engine over the labels of the data graph.
///
/// Construction analyzes each distinct rough token of the labels once,
/// counting-sorts the `(term, element)` postings on term rank and writes
/// straight into flat, offset-indexed columns ([`PostingLists`],
/// [`ConnectionTable`]) — the shape that both lookups and disk snapshots
/// operate on. Everything it holds is per element and instance-level: the
/// vocabulary and, per value, its connections. The frozen columns are
/// `Arc`-shared, so cloning an index (the live-update snapshot path) costs
/// O(delta), and live writes land in a small `DeltaIndex` overlay that
/// every lookup unions with the frozen side.
#[derive(Debug, Clone)]
pub struct KeywordIndex {
    analyzer: Analyzer,
    thesaurus: Thesaurus,
    config: KeywordIndexConfig,
    postings: Arc<PostingLists>,
    values: Arc<ConnectionTable>,
    delta: DeltaIndex,
    indexed_elements: usize,
}

impl KeywordIndex {
    /// Builds the keyword index with the default analyzer, thesaurus and
    /// configuration.
    pub fn build(graph: &DataGraph) -> Self {
        Self::build_with(
            graph,
            Analyzer::new(),
            Thesaurus::builtin(),
            KeywordIndexConfig::default(),
        )
    }

    /// Builds the keyword index with custom components.
    ///
    /// One pass over the labels: each distinct rough token (a run of
    /// alphanumerics) is analyzed once, every label posts `(term, element)`
    /// pairs, and the postings are placed by a stable counting sort on term
    /// rank. The
    /// value connections read the classes of every entity from one
    /// [`DataGraph::entity_classes`] table.
    pub fn build_with(
        graph: &DataGraph,
        analyzer: Analyzer,
        thesaurus: Thesaurus,
        config: KeywordIndexConfig,
    ) -> Self {
        let entity_classes = graph.entity_classes();
        let classes_of = |entity| entity_classes.of(entity).iter().copied();
        let mut vocabulary = Vocabulary::default();
        let mut indexed_elements = 0usize;

        // Classes.
        for class in graph.vertices_of_kind(VertexKind::Class) {
            vocabulary.post(
                &analyzer,
                graph.vertex_label(class),
                ElementRef::Class(class),
            );
            indexed_elements += 1;
        }

        // Values, together with their [V-vertex, A-edge, (C-vertex…)] data.
        // `vertices_of_kind` yields ascending vertex ids, the push order the
        // frozen table requires.
        let mut values = ConnectionTable::default();
        let mut links = Vec::new();
        for value in graph.vertices_of_kind(VertexKind::Value) {
            vocabulary.post(
                &analyzer,
                graph.vertex_label(value),
                ElementRef::Value(value),
            );
            indexed_elements += 1;
            value_links(graph, value, classes_of, &mut links);
            values.push_value(value);
            for (attribute, classes, has_untyped) in connections(&links) {
                values.push_connection(attribute, classes, has_untyped);
            }
        }

        // Edge labels (relations and attributes), in ascending label ids.
        for (label_id, label) in graph.edge_labels() {
            let (sym, element) = match label {
                EdgeLabel::Relation(sym) => (sym, ElementRef::Relation(label_id)),
                EdgeLabel::Attribute(sym) => (sym, ElementRef::Attribute(label_id)),
                EdgeLabel::Type | EdgeLabel::SubClass => continue,
            };
            vocabulary.post(&analyzer, graph.resolve(sym), element);
            indexed_elements += 1;
        }

        Self {
            postings: Arc::new(vocabulary.freeze()),
            analyzer,
            thesaurus,
            config,
            values: Arc::new(values),
            delta: DeltaIndex::default(),
            indexed_elements,
        }
    }

    /// Extends the index in place with a live-update delta against the
    /// *merged* (post-write) `graph`. `old_vertices`, `old_labels` and
    /// `old_edges` are the graph's counts before the write: the vertices,
    /// labels and edges at or past them are the batch's.
    ///
    /// New classes, values and relation/attribute labels are keyword
    /// elements: their labels are analyzed and indexed into the delta
    /// vocabulary. A value's `[V-vertex, A-edge, (C-vertex…)]` structures
    /// change when it gains an A-edge, or when an entity with an A-edge to
    /// it gains a `type` edge; those values' structures (new values
    /// included, since a value arrives with its first A-edge) are recomputed
    /// from `graph` through the build's own per-value function, with the
    /// classes read off the graph's out-edges instead of a whole-graph
    /// table. A write costs `O(delta)`; a new label's terms are
    /// [`Analyzer::analyze_unique`], which the build's memoized analysis
    /// equals. Lookups stay bit-identical to a fresh index over the merged
    /// graph.
    pub fn apply_delta(
        &mut self,
        graph: &DataGraph,
        old_vertices: usize,
        old_labels: usize,
        old_edges: usize,
    ) {
        let new_vertices = (old_vertices..graph.vertex_count())
            .map(|i| VertexId::from_index(i as u32))
            .filter_map(|v| match graph.vertex_kind(v) {
                VertexKind::Class => Some(ElementRef::Class(v)),
                VertexKind::Value => Some(ElementRef::Value(v)),
                VertexKind::Entity => None,
            });
        let new_labels = (old_labels..graph.edge_label_count())
            .map(|i| EdgeLabelId::from_index(i as u32))
            .filter_map(|l| match graph.edge_label(l) {
                EdgeLabel::Relation(_) => Some(ElementRef::Relation(l)),
                EdgeLabel::Attribute(_) => Some(ElementRef::Attribute(l)),
                EdgeLabel::Type | EdgeLabel::SubClass => None,
            });
        for element in new_vertices.chain(new_labels) {
            let label = match element {
                ElementRef::Class(v) | ElementRef::Value(v) => graph.vertex_label(v),
                ElementRef::Relation(l) | ElementRef::Attribute(l) => graph.edge_label_name(l),
            };
            for term in self.analyzer.analyze_unique(label) {
                self.delta.insert(&term, element);
            }
            self.indexed_elements += 1;
        }

        let mut values = Vec::new();
        for e in (old_edges..graph.edge_count()).map(|i| EdgeId::from_index(i as u32)) {
            let edge = graph.edge(e);
            match graph.edge_label(edge.label) {
                EdgeLabel::Attribute(_) => values.push(edge.to),
                // A re-typed entity changes the class lists inside the
                // structures of every value it reaches.
                EdgeLabel::Type => values.extend(
                    graph
                        .out_edges(edge.from)
                        .iter()
                        .map(|&out| graph.edge(out))
                        .filter(|out| {
                            matches!(graph.edge_label(out.label), EdgeLabel::Attribute(_))
                        })
                        .map(|out| out.to),
                ),
                // Neither relations nor classes carry enrichment.
                EdgeLabel::Relation(_) | EdgeLabel::SubClass => {}
            }
        }

        values.sort_unstable();
        values.dedup();
        // No whole-graph class table here: a write reads the classes of the
        // few entities it reaches off their out-edges.
        let classes_of = |entity| graph.classes_iter(entity);
        let mut links = Vec::new();
        for v in values {
            value_links(graph, v, classes_of, &mut links);
            let value_connections = connections(&links)
                .map(|(attribute, classes, has_untyped_source)| ValueConnection {
                    attribute,
                    classes: classes.collect(),
                    has_untyped_source,
                })
                .collect();
            self.delta.values.insert(v, value_connections);
        }
    }

    /// Whether a live-update delta is overlaid on the frozen columns
    /// (snapshots refuse to serialise such an index — compact first).
    pub fn has_delta(&self) -> bool {
        !self.delta.is_empty()
    }

    /// Rebuilds the index from scratch over `graph` with the same analyzer,
    /// thesaurus and configuration — the compaction path, folding the delta
    /// overlay back into frozen columns. Lookups over the result are
    /// bit-identical to lookups over the delta'd index (pinned by the
    /// `delta_lookups_are_bit_identical_to_a_rebuild` test), and the result
    /// has no delta, so it serialises.
    pub fn rebuilt(&self, graph: &DataGraph) -> Self {
        Self::build_with(
            graph,
            self.analyzer.clone(),
            self.thesaurus.clone(),
            self.config.clone(),
        )
    }

    /// The normalized query terms of a keyword: tokenized and, when the
    /// index's analyzer removes stop words, stop-word filtered — exactly the
    /// per-term input [`Self::lookup`] matches on (stemming, fuzzy and
    /// thesaurus expansion are all derived from these terms). Two keywords
    /// with equal normalized terms therefore produce identical matches,
    /// which makes the terms a sound cache key for everything downstream of
    /// the keyword-to-element mapping.
    pub fn normalized_query_terms(&self, keyword: &str) -> Vec<String> {
        self.analyzer
            .tokenize(keyword)
            .into_iter()
            .filter(|t| self.analyzer.keeps(t))
            .collect()
    }

    /// Looks up one keyword, returning matches sorted by descending score.
    ///
    /// The cost follows the output: every posting reached becomes one flat
    /// hit, the hits are ranked on their packed element alone, and only the
    /// `max_matches_per_keyword` survivors are enriched with neighbourhood
    /// data.
    pub fn lookup(&self, keyword: &str) -> Vec<KeywordMatch> {
        let tokens = self.normalized_query_terms(keyword);
        let keep = self.config.max_matches_per_keyword;
        if tokens.is_empty() || keep == 0 {
            return Vec::new();
        }
        let max = self.config.max_edit_distance;

        // Every posting reached, as `(packed element << 32 | query term
        // index, score)`: sorting by the key groups the hits of one element
        // and, inside it, of one query term.
        let mut hits: Vec<(u64, f64)> = Vec::new();
        for (term_idx, token) in tokens.iter().enumerate() {
            let term = self.analyzer.term_of(token.clone());
            let mut reach = |postings: &[u32], score: f64| {
                hits.extend(
                    postings
                        .iter()
                        .map(|&packed| ((u64::from(packed) << 32) | term_idx as u64, score)),
                );
            };

            // 1. Exact (post-analysis) matches, frozen side and delta side.
            reach(self.postings.get_packed(&term), 1.0);
            reach(self.delta.get_packed(&term), 1.0);

            // 2. Fuzzy matches: one prefix-sharing walk over the frozen
            // vocabulary, then a linear scan of the small delta one. A term
            // living on both sides is reached twice with the same
            // similarity, which the per-(element, term) maximum below
            // makes a no-op.
            if self.config.fuzzy {
                let query: Vec<char> = term.chars().collect();
                let mut fuzzy = |vocab_term: &str, distance: usize, postings: &[u32]| {
                    if vocab_term == term {
                        return;
                    }
                    let longest = query.len().max(vocab_term.chars().count());
                    if longest == 0 {
                        return;
                    }
                    let sim = 1.0 - distance as f64 / longest as f64;
                    if sim >= self.config.min_fuzzy_similarity {
                        reach(postings, sim);
                    }
                };
                self.postings.for_each_within(&query, max, &mut fuzzy);
                for (vocab_term, postings) in &self.delta.terms {
                    if let Some(distance) = bounded_levenshtein(&term, vocab_term, max) {
                        fuzzy(vocab_term, distance, postings);
                    }
                }
            }

            // 3. Semantic expansion through the thesaurus. The thesaurus is
            // keyed by full (unstemmed) words, so besides the raw token we
            // also try its analyzed term and a naive singular form.
            if self.config.semantic {
                let mut variants = vec![token.clone(), term.clone()];
                if let Some(singular) = token.strip_suffix('s') {
                    variants.push(singular.to_string());
                }
                variants.dedup();
                for variant in variants {
                    for related in self.thesaurus.related(&variant) {
                        let weight = related.relation.weight();
                        for expanded in self.analyzer.analyze_unique(&related.term) {
                            reach(self.postings.get_packed(&expanded), weight);
                            reach(self.delta.get_packed(&expanded), weight);
                        }
                    }
                }
            }
        }

        // 4. Score: an element's score is the mean over the query terms of
        // its best per-term score, so an element matching every keyword
        // token scores higher than one matching only some. Each per-term
        // best starts from 0.0 (an element reached only with weight ≤ 0
        // still appears), and a term the element missed would add an exact
        // +0.0, so summing the present terms in term order gives the same
        // bits.
        hits.sort_unstable_by_key(|&(key, _)| key);
        let num_terms = tokens.len() as f64;
        let mut scored: Vec<(u32, f64)> = hits
            .chunk_by(|a, b| a.0 >> 32 == b.0 >> 32)
            .map(|element_hits| {
                let sum = element_hits
                    .chunk_by(|a, b| a.0 == b.0)
                    .map(|term_hits| {
                        term_hits
                            .iter()
                            .fold(0.0, |best, &(_, s)| if s > best { s } else { best })
                    })
                    .fold(0.0, |sum, best| sum + best);
                ((element_hits[0].0 >> 32) as u32, sum / num_terms)
            })
            .collect();

        // 5. Rank by (score desc, element asc) — the packed order is
        // `ElementRef`'s — keep the best `keep`, and enrich only those.
        let rank = |a: &(u32, f64), b: &(u32, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
        if scored.len() > keep {
            scored.select_nth_unstable_by(keep - 1, rank);
            scored.truncate(keep);
        }
        scored.sort_unstable_by(rank);
        scored
            .into_iter()
            .map(|(packed, score)| KeywordMatch {
                element: self.enrich(unpack(packed)),
                score,
            })
            .collect()
    }

    /// Looks up several keywords at once; the result has one entry per
    /// keyword (empty if the keyword matched nothing).
    pub fn lookup_all<S: AsRef<str>>(&self, keywords: &[S]) -> Vec<Vec<KeywordMatch>> {
        keywords.iter().map(|k| self.lookup(k.as_ref())).collect()
    }

    fn enrich(&self, element: ElementRef) -> MatchedElement {
        match element {
            ElementRef::Class(class) => MatchedElement::Class { class },
            ElementRef::Relation(label) => MatchedElement::Relation { label },
            ElementRef::Attribute(label) => MatchedElement::Attribute { label },
            ElementRef::Value(value) => MatchedElement::Value {
                value,
                connections: self
                    .delta
                    .values
                    .get(&value)
                    .cloned()
                    .unwrap_or_else(|| self.values.get(value)),
            },
        }
    }

    /// Number of distinct terms in the index.
    pub fn term_count(&self) -> usize {
        self.postings.term_count()
    }

    /// Number of indexed graph elements.
    pub fn element_count(&self) -> usize {
        self.indexed_elements
    }

    /// Total number of postings.
    pub fn posting_count(&self) -> usize {
        self.postings.posting_count()
    }

    /// Approximate heap size in bytes (Fig. 6b index-size report).
    pub fn heap_bytes(&self) -> usize {
        self.postings.heap_bytes() + self.values.heap_bytes() + self.delta.heap_bytes()
    }

    /// The configuration in use.
    pub fn config(&self) -> &KeywordIndexConfig {
        &self.config
    }

    /// Serialises the complete index — analysis configuration, thesaurus,
    /// frozen posting lists and value connections — into one section.
    pub fn write_snapshot(&self, enc: &mut SectionEncoder) {
        assert!(
            !self.has_delta(),
            "a keyword index with a live delta cannot be snapshotted; compact first"
        );
        enc.put_u32(u32::from(self.analyzer.stemming));
        enc.put_u32(u32::from(self.analyzer.remove_stop_words));
        enc.put_u32(u32::from(self.analyzer.split_camel_case));
        enc.put_u32(u32::from(self.config.fuzzy));
        enc.put_u64(self.config.max_edit_distance as u64);
        enc.put_f64(self.config.min_fuzzy_similarity);
        enc.put_u32(u32::from(self.config.semantic));
        enc.put_u64(self.config.max_matches_per_keyword as u64);
        self.thesaurus.write_snapshot(enc);
        self.postings.write_snapshot(enc);
        self.values.write_snapshot(enc);
        enc.put_u64(self.indexed_elements as u64);
    }

    /// Reads an index serialised by [`Self::write_snapshot`] for `graph`.
    /// The posting lists and connections load as bulk buffer reads; only the
    /// small thesaurus is re-hashed. Every vertex and label id they hold
    /// must name an element of `graph` of the kind its tag says (a class or
    /// value vertex, a relation or attribute label); any other id is
    /// [`SnapshotError::Corrupt`].
    pub fn read_snapshot(
        dec: &mut SectionDecoder<'_>,
        graph: &DataGraph,
    ) -> Result<Self, SnapshotError> {
        let analyzer = Analyzer {
            stemming: dec.get_u32()? != 0,
            remove_stop_words: dec.get_u32()? != 0,
            split_camel_case: dec.get_u32()? != 0,
        };
        let config = KeywordIndexConfig {
            fuzzy: dec.get_u32()? != 0,
            max_edit_distance: dec.get_u64()? as usize,
            min_fuzzy_similarity: dec.get_f64()?,
            semantic: dec.get_u32()? != 0,
            max_matches_per_keyword: dec.get_u64()? as usize,
        };
        let thesaurus = Thesaurus::read_snapshot(dec)?;
        let postings = Arc::new(PostingLists::read_snapshot(dec)?);
        let values = Arc::new(ConnectionTable::read_snapshot(dec)?);
        let indexed_elements = dec.get_u64()? as usize;
        if let Some(stray) = postings
            .elements()
            .chain(values.elements())
            .find(|&element| !is_element_of(graph, element))
        {
            return Err(dec.corrupt(format!("{stray:?} is not an element of the data graph")));
        }
        Ok(Self {
            analyzer,
            thesaurus,
            config,
            postings,
            values,
            delta: DeltaIndex::default(),
            indexed_elements,
        })
    }
}

/// The build's vocabulary: the terms interned to dense ids, and a memo from
/// each distinct rough token ([`rough_tokens`]) to its term ids, so a token
/// repeated across many labels is analyzed once. The memo is sound because
/// a label's terms are its rough tokens' terms, in order.
#[derive(Default)]
struct Vocabulary {
    terms: Interner,
    rough: Interner,
    /// The term ids of each rough token, by its id in `rough`.
    memo: Vec<Vec<u32>>,
    /// The number of the last label that posted each term: a label posts
    /// a term once, at its first occurrence.
    last_label: Vec<u32>,
    labels: u32,
    /// `(term id, packed element)`, in posting order.
    postings: Vec<(u32, u32)>,
}

impl Vocabulary {
    /// Posts `element` under each distinct term of `label`.
    fn post(&mut self, analyzer: &Analyzer, label: &str, element: ElementRef) {
        self.labels += 1;
        let packed = pack(element);
        for rough in rough_tokens(label) {
            let r = self.rough.intern(rough).index();
            if r == self.memo.len() {
                let terms = analyzer.analyze(rough);
                let ids = terms.iter().map(|t| self.terms.intern(t).index() as u32);
                self.memo.push(ids.collect());
                self.last_label.resize(self.terms.len(), 0);
            }
            for &t in &self.memo[r] {
                if self.last_label[t as usize] != self.labels {
                    self.last_label[t as usize] = self.labels;
                    self.postings.push((t, packed));
                }
            }
        }
    }

    /// Sorts the vocabulary by bytes and places every posting under its
    /// term's rank, keeping posting order within a term.
    fn freeze(self) -> PostingLists {
        let words: Vec<&str> = self.terms.iter().map(|(_, word)| word).collect();
        let mut order: Vec<u32> = (0..words.len() as u32).collect();
        order.sort_unstable_by_key(|&t| words[t as usize]);
        let mut rank = vec![0u32; words.len()];
        for (r, &t) in order.iter().enumerate() {
            rank[t as usize] = r as u32;
        }
        let mut postings = vec![0u32; self.postings.len()];
        let offsets = counting_sort(
            &self.postings,
            &mut postings,
            words.len(),
            |&(t, _)| rank[t as usize] as usize,
            |_, &(_, packed)| packed,
        );
        PostingLists::from_sorted(order.iter().map(|&t| words[t as usize]), offsets, postings)
    }
}

/// Stands for an untyped source entity in a value's links; sorts after
/// every class.
const UNTYPED: u32 = u32::MAX;

/// Fills `links` with the `[V-vertex, A-edge, (C-vertex…)]` structures of
/// `value` as sorted, distinct `attribute << 32 | class` links, one per
/// (in-edge label, source class) and [`UNTYPED`] for a source without
/// classes. `classes_of` yields an entity's classes: the build's
/// [`DataGraph::entity_classes`] table, or the graph's out-edges on the
/// write path — the one code both share.
///
/// The class lists this spells are ascending — a function of the edge
/// *set*, not the edge insertion order, so a live write's delta and a
/// rebuild over the merged graph (which re-ingests the edges in another
/// order) spell the same lists.
fn value_links<I: Iterator<Item = VertexId>>(
    graph: &DataGraph,
    value: VertexId,
    classes_of: impl Fn(VertexId) -> I,
    links: &mut Vec<u64>,
) {
    links.clear();
    for &e in graph.in_edges(value) {
        let edge = graph.edge(e);
        let attribute = (edge.label.index() as u64) << 32;
        let before = links.len();
        links.extend(classes_of(edge.from).map(|c| attribute | c.index() as u64));
        if links.len() == before {
            links.push(attribute | u64::from(UNTYPED));
        }
    }
    links.sort_unstable();
    links.dedup();
}

/// The connections sorted `links` spell, in label order: each attribute
/// label with its classes, ascending, and whether an untyped entity is a
/// source.
fn connections(
    links: &[u64],
) -> impl Iterator<Item = (EdgeLabelId, impl Iterator<Item = VertexId> + '_, bool)> {
    links.chunk_by(|a, b| a >> 32 == b >> 32).map(|run| {
        let classes = run
            .iter()
            .map(|&link| link as u32)
            .filter(|&class| class != UNTYPED)
            .map(VertexId::from_index);
        let attribute = EdgeLabelId::from_index((run[0] >> 32) as u32);
        (attribute, classes, run[run.len() - 1] as u32 == UNTYPED)
    })
}

/// Whether `element` names a vertex or label of `graph` of its own kind.
fn is_element_of(graph: &DataGraph, element: ElementRef) -> bool {
    let vertex_is =
        |v: VertexId, kind| v.index() < graph.vertex_count() && graph.vertex_kind(v) == kind;
    let label_is = |l: EdgeLabelId, kind| {
        l.index() < graph.edge_label_count() && graph.edge_label(l).kind() == kind
    };
    match element {
        ElementRef::Class(v) => vertex_is(v, VertexKind::Class),
        ElementRef::Value(v) => vertex_is(v, VertexKind::Value),
        ElementRef::Relation(l) => label_is(l, EdgeKind::Relation),
        ElementRef::Attribute(l) => label_is(l, EdgeKind::Attribute),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwsearch_rdf::fixtures::figure1_graph;

    /// The build before the one-pass vocabulary: every label analyzed in
    /// full into a term-ordered `BTreeMap`, and a `HashMap` and a
    /// `classes_of` `Vec` per value.
    /// [`KeywordIndex::build_with`] must equal it to the snapshot byte.
    fn reference_build(
        graph: &DataGraph,
        analyzer: Analyzer,
        thesaurus: Thesaurus,
        config: KeywordIndexConfig,
    ) -> KeywordIndex {
        let mut index: std::collections::BTreeMap<String, Vec<ElementRef>> =
            std::collections::BTreeMap::new();
        let mut indexed_elements = 0usize;
        let mut post = |label: &str, element: ElementRef| {
            for term in analyzer.analyze_unique(label) {
                index.entry(term).or_default().push(element);
            }
            indexed_elements += 1;
        };
        for class in graph.vertices_of_kind(VertexKind::Class) {
            post(graph.vertex_label(class), ElementRef::Class(class));
        }
        let mut values = ConnectionTable::default();
        for value in graph.vertices_of_kind(VertexKind::Value) {
            post(graph.vertex_label(value), ElementRef::Value(value));
            values.push_value(value);
            for conn in reference_connections_of_value(graph, value) {
                let classes = conn.classes.into_iter();
                values.push_connection(conn.attribute, classes, conn.has_untyped_source);
            }
        }
        for (label_id, label) in graph.edge_labels() {
            match label {
                EdgeLabel::Relation(sym) => {
                    post(graph.resolve(sym), ElementRef::Relation(label_id));
                }
                EdgeLabel::Attribute(sym) => {
                    post(graph.resolve(sym), ElementRef::Attribute(label_id));
                }
                EdgeLabel::Type | EdgeLabel::SubClass => {}
            }
        }
        KeywordIndex {
            analyzer,
            thesaurus,
            config,
            postings: Arc::new(PostingLists::from_map(&index)),
            values: Arc::new(values),
            delta: DeltaIndex::default(),
            indexed_elements,
        }
    }

    /// The per-value connections of [`reference_build`]: a `HashMap` per
    /// value and a `classes_of` `Vec` per in-edge.
    fn reference_connections_of_value(graph: &DataGraph, value: VertexId) -> Vec<ValueConnection> {
        let mut per_attribute: HashMap<EdgeLabelId, (Vec<VertexId>, bool)> = HashMap::new();
        for &e in graph.in_edges(value) {
            let edge = graph.edge(e);
            let entry = per_attribute.entry(edge.label).or_default();
            let classes = graph.classes_of(edge.from);
            if classes.is_empty() {
                entry.1 = true;
            }
            for c in classes {
                if !entry.0.contains(&c) {
                    entry.0.push(c);
                }
            }
        }
        let mut connections: Vec<ValueConnection> = per_attribute
            .into_iter()
            .map(|(attribute, (mut classes, has_untyped_source))| {
                classes.sort_unstable();
                ValueConnection {
                    attribute,
                    classes,
                    has_untyped_source,
                }
            })
            .collect();
        connections.sort_by_key(|c| c.attribute);
        connections
    }

    /// The keyword section an index writes.
    fn section_bytes(idx: &KeywordIndex) -> Vec<u8> {
        let mut enc = SectionEncoder::new();
        idx.write_snapshot(&mut enc);
        enc.into_bytes()
    }

    /// `build_with` and [`reference_build`] agree on the section bytes,
    /// the element count and the term count.
    fn assert_build_matches_reference(g: &DataGraph, analyzer: Analyzer) {
        let config = KeywordIndexConfig::default;
        let fast = KeywordIndex::build_with(g, analyzer.clone(), Thesaurus::builtin(), config());
        let reference = reference_build(g, analyzer, Thesaurus::builtin(), config());
        assert_eq!(fast.element_count(), reference.element_count());
        assert_eq!(fast.term_count(), reference.term_count());
        assert!(
            section_bytes(&fast) == section_bytes(&reference),
            "section bytes differ"
        );
    }

    /// The lookup before ranking preceded enrichment: a `HashMap` of
    /// per-term best scores for every element reached, every candidate
    /// enriched and sorted, and a linear `bounded_levenshtein` scan of the
    /// whole vocabulary. [`KeywordIndex::lookup`] must equal it to the
    /// score bit.
    fn reference_lookup(idx: &KeywordIndex, keyword: &str) -> Vec<KeywordMatch> {
        let raw_tokens = idx.normalized_query_terms(keyword);
        if raw_tokens.is_empty() {
            return Vec::new();
        }

        // element -> per-query-term best score
        let mut per_element: HashMap<ElementRef, Vec<f64>> = HashMap::new();
        let num_terms = raw_tokens.len();

        for (term_idx, raw) in raw_tokens.iter().enumerate() {
            let stemmed = idx.analyzer.term_of(raw.clone());

            // 1. Exact (post-analysis) matches, frozen side and delta side.
            for &packed in idx.postings.get_packed(&stemmed) {
                record(&mut per_element, unpack(packed), term_idx, num_terms, 1.0);
            }
            for &packed in idx.delta.get_packed(&stemmed) {
                record(&mut per_element, unpack(packed), term_idx, num_terms, 1.0);
            }

            // 2. Fuzzy matches against the (sorted) vocabulary — the frozen
            // one, then the delta one.
            if idx.config.fuzzy {
                let delta_vocab = idx
                    .delta
                    .terms
                    .iter()
                    .map(|(t, p)| (t.as_str(), p.as_slice()));
                for (vocab_term, packed_postings) in idx.postings.iter().chain(delta_vocab) {
                    if vocab_term == stemmed {
                        continue;
                    }
                    let Some(distance) =
                        bounded_levenshtein(&stemmed, vocab_term, idx.config.max_edit_distance)
                    else {
                        continue;
                    };
                    let longest = stemmed.chars().count().max(vocab_term.chars().count());
                    if longest == 0 {
                        continue;
                    }
                    let sim = 1.0 - distance as f64 / longest as f64;
                    if sim < idx.config.min_fuzzy_similarity {
                        continue;
                    }
                    for &packed in packed_postings {
                        record(&mut per_element, unpack(packed), term_idx, num_terms, sim);
                    }
                }
            }

            // 3. Semantic expansion through the thesaurus.
            if idx.config.semantic {
                let mut variants = vec![raw.clone(), stemmed.clone()];
                if let Some(singular) = raw.strip_suffix('s') {
                    variants.push(singular.to_string());
                }
                variants.dedup();
                for variant in variants {
                    for related in idx.thesaurus.related(&variant) {
                        let weight = related.relation.weight();
                        for expanded in idx.analyzer.analyze_unique(&related.term) {
                            for &packed in idx
                                .postings
                                .get_packed(&expanded)
                                .iter()
                                .chain(idx.delta.get_packed(&expanded))
                            {
                                record(
                                    &mut per_element,
                                    unpack(packed),
                                    term_idx,
                                    num_terms,
                                    weight,
                                );
                            }
                        }
                    }
                }
            }
        }

        let mut matches: Vec<KeywordMatch> = per_element
            .into_iter()
            .map(|(element, term_scores)| {
                let score = term_scores.iter().sum::<f64>() / num_terms as f64;
                KeywordMatch {
                    element: idx.enrich(element),
                    score,
                }
            })
            .collect();
        // Sorting by (score, element ref) erases the hash order of
        // `per_element`.
        matches.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| a.element.element_ref().cmp(&b.element.element_ref()))
        });
        matches.truncate(idx.config.max_matches_per_keyword);
        matches
    }

    fn record(
        per_element: &mut HashMap<ElementRef, Vec<f64>>,
        element: ElementRef,
        term_idx: usize,
        num_terms: usize,
        score: f64,
    ) {
        let scores = per_element
            .entry(element)
            .or_insert_with(|| vec![0.0; num_terms]);
        if score > scores[term_idx] {
            scores[term_idx] = score;
        }
    }

    /// `lookup` and [`reference_lookup`] agree on every element, score bit
    /// and position.
    fn assert_matches_reference(idx: &KeywordIndex, keyword: &str) {
        let fast = idx.lookup(keyword);
        let reference = reference_lookup(idx, keyword);
        assert_eq!(fast.len(), reference.len(), "{keyword:?}: match count");
        for (a, b) in fast.iter().zip(&reference) {
            assert_eq!(a.element, b.element, "{keyword:?}: element");
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "{keyword:?}: score bits"
            );
        }
    }

    fn index() -> (KeywordIndex, DataGraph) {
        let g = figure1_graph();
        (KeywordIndex::build(&g), g)
    }

    fn top_match(matches: &[KeywordMatch]) -> &MatchedElement {
        &matches
            .first()
            .expect("expected at least one match")
            .element
    }

    #[test]
    fn class_keywords_match_classes() {
        let (idx, g) = index();
        let matches = idx.lookup("publications");
        match top_match(&matches) {
            MatchedElement::Class { class } => {
                assert_eq!(g.vertex_label(*class), "Publication");
            }
            other => panic!("expected class match, got {other:?}"),
        }
    }

    #[test]
    fn value_keywords_return_neighbourhood_structures() {
        let (idx, g) = index();
        let matches = idx.lookup("AIFB");
        match top_match(&matches) {
            MatchedElement::Value { value, connections } => {
                assert_eq!(g.vertex_label(*value), "AIFB");
                assert_eq!(connections.len(), 1);
                let conn = &connections[0];
                assert_eq!(g.edge_label_name(conn.attribute), "name");
                let classes: Vec<&str> = conn.classes.iter().map(|&c| g.vertex_label(c)).collect();
                assert_eq!(classes, vec!["Institute"]);
                assert!(!conn.has_untyped_source);
            }
            other => panic!("expected value match, got {other:?}"),
        }
    }

    #[test]
    fn relation_and_attribute_labels_are_matched() {
        let (idx, g) = index();
        let matches = idx.lookup("author");
        assert!(matches.iter().any(|m| matches!(
            &m.element,
            MatchedElement::Relation { label } if g.edge_label_name(*label) == "author"
        )));

        let matches = idx.lookup("year");
        assert!(
            matches.iter().any(|m| matches!(
                &m.element,
                MatchedElement::Attribute { label } if g.edge_label_name(*label) == "year"
            )),
            "year should match the attribute label"
        );
    }

    #[test]
    fn entity_uris_are_not_indexed() {
        let (idx, _) = index();
        assert!(idx.lookup("pub1URI").iter().all(|m| !matches!(
            m.element,
            MatchedElement::Value { .. } | MatchedElement::Class { .. }
        ) || m.score < 1.0));
        // A keyword that only occurs as an entity URI yields nothing exact.
        let matches = idx.lookup("inst2URI");
        assert!(matches.iter().all(|m| m.score < 1.0));
    }

    #[test]
    fn multi_word_keywords_score_by_coverage() {
        let (idx, g) = index();
        let matches = idx.lookup("Thanh Tran");
        match top_match(&matches) {
            MatchedElement::Value { value, .. } => {
                assert_eq!(g.vertex_label(*value), "Thanh Tran");
            }
            other => panic!("expected value match, got {other:?}"),
        }
        assert!((matches[0].score - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fuzzy_matching_tolerates_typos() {
        let (idx, g) = index();
        let matches = idx.lookup("cimano"); // missing the second "i"
        let found = matches.iter().any(|m| match &m.element {
            MatchedElement::Value { value, .. } => g.vertex_label(*value) == "P. Cimiano",
            _ => false,
        });
        assert!(found, "typo should still match P. Cimiano");
        assert!(
            matches[0].score < 1.0,
            "fuzzy matches score below exact matches"
        );
    }

    #[test]
    fn semantic_matching_uses_the_thesaurus() {
        let (idx, g) = index();
        // "paper" is a synonym of "publication" in the built-in thesaurus.
        let matches = idx.lookup("papers");
        let found = matches.iter().any(|m| match &m.element {
            MatchedElement::Class { class } => g.vertex_label(*class) == "Publication",
            _ => false,
        });
        assert!(found, "synonym should match the Publication class");
    }

    #[test]
    fn scores_are_within_bounds_and_sorted() {
        let (idx, _) = index();
        for keyword in ["publication", "cimiano", "2006", "name", "agent"] {
            let matches = idx.lookup(keyword);
            for w in matches.windows(2) {
                assert!(w[0].score >= w[1].score, "matches must be sorted by score");
            }
            for m in &matches {
                assert!(m.score > 0.0 && m.score <= 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn normalized_query_terms_predict_lookup_equality() {
        let (idx, _) = index();
        // Same normalized terms (case, stop words) => identical matches.
        for (a, b) in [("Cimiano", "cimiano"), ("the publication", "publication")] {
            assert_eq!(idx.normalized_query_terms(a), idx.normalized_query_terms(b));
            assert_eq!(idx.lookup(a), idx.lookup(b));
        }
        // Stop-word-only input normalizes to nothing, like lookup.
        assert!(idx.normalized_query_terms("the of and").is_empty());
        assert!(idx.normalized_query_terms("").is_empty());
    }

    #[test]
    fn unknown_keywords_return_nothing() {
        let (idx, _) = index();
        assert!(idx.lookup("quetzalcoatl").is_empty());
        assert!(idx.lookup("").is_empty());
        assert!(idx.lookup("the of and").is_empty());
    }

    #[test]
    fn lookup_all_preserves_keyword_order() {
        let (idx, _) = index();
        let all = idx.lookup_all(&["2006", "cimiano", "aifb"]);
        assert_eq!(all.len(), 3);
        assert!(all.iter().all(|m| !m.is_empty()));
    }

    #[test]
    fn max_matches_is_respected() {
        let g = figure1_graph();
        let config = KeywordIndexConfig {
            max_matches_per_keyword: 1,
            ..KeywordIndexConfig::default()
        };
        let idx = KeywordIndex::build_with(&g, Analyzer::new(), Thesaurus::builtin(), config);
        assert!(idx.lookup("name").len() <= 1);
    }

    #[test]
    fn untyped_sources_are_flagged() {
        let mut g = DataGraph::new();
        g.insert_triple(&kwsearch_rdf::Triple::attribute("x", "label", "orphan"))
            .unwrap();
        let idx = KeywordIndex::build(&g);
        let matches = idx.lookup("orphan");
        match top_match(&matches) {
            MatchedElement::Value { connections, .. } => {
                assert_eq!(connections.len(), 1);
                assert!(connections[0].has_untyped_source);
                assert!(connections[0].classes.is_empty());
            }
            other => panic!("expected value match, got {other:?}"),
        }
    }

    #[test]
    fn index_statistics_are_populated() {
        let (idx, _) = index();
        assert!(idx.term_count() > 10);
        assert!(idx.element_count() > 10);
        assert!(idx.posting_count() >= idx.term_count());
        assert!(idx.heap_bytes() > 0);
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        use kwsearch_rdf::snapshot::{SnapshotReader, SnapshotWriter};
        let (idx, g) = index();
        let bytes_of = |idx: &KeywordIndex| {
            let mut enc = SectionEncoder::new();
            idx.write_snapshot(&mut enc);
            let mut writer = SnapshotWriter::new();
            writer.add_section(4, enc);
            let mut bytes = Vec::new();
            writer.write_to(&mut bytes).unwrap();
            bytes
        };
        let bytes = bytes_of(&idx);
        let reader = SnapshotReader::read_from(bytes.as_slice()).unwrap();
        let mut dec = reader.section(4).unwrap();
        let loaded = KeywordIndex::read_snapshot(&mut dec, &g).unwrap();
        dec.finish().unwrap();

        assert_eq!(loaded.term_count(), idx.term_count());
        assert_eq!(loaded.element_count(), idx.element_count());
        assert_eq!(loaded.posting_count(), idx.posting_count());
        for keyword in ["publications", "AIFB", "author", "year", "cimano", "papers"] {
            assert_eq!(loaded.lookup(keyword), idx.lookup(keyword), "{keyword}");
        }
        // Save → load → save is byte-identical.
        assert_eq!(bytes_of(&loaded), bytes);
    }

    #[test]
    fn delta_lookups_are_bit_identical_to_a_rebuild() {
        use kwsearch_rdf::Triple;
        let mut g = figure1_graph();
        let mut idx = KeywordIndex::build(&g);
        assert!(!idx.has_delta());

        // Write batches, each applied on top of the previous ones:
        let batches = [
            // a new publication with a new title value and a new class,
            // touching the existing attribute labels "title" and "year" and
            // the existing "2006" value;
            vec![
                Triple::relation("pub9URI", "type", "Poster"),
                Triple::attribute("pub9URI", "title", "Graph Summaries"),
                Triple::attribute("pub9URI", "year", "2006"),
            ],
            // an attribute write on a typed subject: a new value reached
            // from an Institute;
            vec![Triple::attribute("inst1URI", "year", "2007")],
            // an untyped subject: "2009" gains an untyped source;
            vec![Triple::attribute("draftURI", "year", "2009")],
            // and that subject typed: the source gains a class;
            vec![Triple::typed("draftURI", "Poster")],
            // a typed subject re-typed: "AIFB" and "2007" gain a class.
            vec![Triple::typed("inst1URI", "Organisation")],
        ];
        for batch in &batches {
            let (nv, nl, ne) = (g.vertex_count(), g.edge_label_count(), g.edge_count());
            for t in batch {
                g.insert_triple(t).unwrap();
            }
            idx.apply_delta(&g, nv, nl, ne);
            assert!(idx.has_delta());

            let fresh = KeywordIndex::build(&g);
            for keyword in [
                "poster",
                "graph summaries",
                "title",
                "year",
                "name",
                "organisation",
                "2006",
                "2007",
                "2009",
                "publications",
                "cimiano",
                "AIFB",
                "papers",
                "cimano",
                "summaries",
                "postr", // fuzzy against the delta vocabulary
            ] {
                let live = idx.lookup(keyword);
                let rebuilt = fresh.lookup(keyword);
                assert_eq!(live.len(), rebuilt.len(), "{keyword}: match count");
                for (a, b) in live.iter().zip(rebuilt.iter()) {
                    assert_eq!(
                        a.score.to_bits(),
                        b.score.to_bits(),
                        "{keyword}: score bits"
                    );
                    assert_eq!(a.element, b.element, "{keyword}: element");
                }
            }
            assert_eq!(idx.element_count(), fresh.element_count());
        }
    }

    #[test]
    #[should_panic(expected = "compact first")]
    fn snapshotting_a_delta_index_panics() {
        use kwsearch_rdf::Triple;
        let mut g = figure1_graph();
        let mut idx = KeywordIndex::build(&g);
        let (nv, nl, ne) = (g.vertex_count(), g.edge_label_count(), g.edge_count());
        g.insert_triple(&Triple::attribute("pub1URI", "note", "Addendum"))
            .unwrap();
        idx.apply_delta(&g, nv, nl, ne);
        let mut enc = SectionEncoder::new();
        idx.write_snapshot(&mut enc);
    }

    #[test]
    fn disabling_fuzzy_and_semantic_matching_works() {
        let g = figure1_graph();
        let config = KeywordIndexConfig {
            fuzzy: false,
            semantic: false,
            ..KeywordIndexConfig::default()
        };
        let idx = KeywordIndex::build_with(&g, Analyzer::new(), Thesaurus::builtin(), config);
        assert!(idx.lookup("cimano").is_empty(), "no fuzzy matching");
        assert!(
            !idx.lookup("cimiano").is_empty(),
            "exact matching still works"
        );
    }

    #[test]
    fn a_minimal_analyzer_matches_labels_typed_verbatim() {
        let g = figure1_graph();
        let config = KeywordIndexConfig {
            fuzzy: false,
            semantic: false,
            ..KeywordIndexConfig::default()
        };
        let idx = KeywordIndex::build_with(&g, Analyzer::minimal(), Thesaurus::builtin(), config);
        for label in ["Publication", "Institute", "Researcher"] {
            let matches = idx.lookup(label);
            assert_eq!(matches.len(), 1, "{label}");
            assert_eq!(
                matches[0].element,
                MatchedElement::Class {
                    class: g.class(label).unwrap()
                }
            );
            assert_eq!(matches[0].score, 1.0);
        }
        // Without stop-word removal a stop word is a term like any other.
        assert_eq!(idx.normalized_query_terms("the of"), vec!["the", "of"]);
    }

    #[test]
    fn a_64_kib_keyword_costs_a_band_per_vocabulary_character() {
        let (idx, _) = index();
        let keyword: String = "cimiano".chars().cycle().take(64 * 1024).collect();
        let query: Vec<char> = keyword.chars().collect();
        for max in 0..=3 {
            let mut walked = Vec::new();
            let cells = idx.postings.for_each_within(&query, max, |term, d, _| {
                walked.push((term.to_string(), d));
            });
            let scanned: Vec<(String, usize)> = idx
                .postings
                .iter()
                .filter_map(|(term, _)| {
                    Some((term.to_string(), bounded_levenshtein(&keyword, term, max)?))
                })
                .collect();
            assert_eq!(walked, scanned);
            let (chars, terms) = idx.postings.iter().fold((0, 0), |(c, t), (term, _)| {
                (c + term.chars().count(), t + 1)
            });
            assert!(
                cells <= (2 * max + 1) * (chars + terms),
                "max {max}: {cells} cells for {chars} chars in {terms} terms"
            );
        }
        assert_matches_reference(&idx, &keyword);
    }

    #[test]
    fn the_build_equals_the_reference_on_the_running_example() {
        let g = figure1_graph();
        assert_build_matches_reference(&g, Analyzer::new());
        assert_build_matches_reference(&g, Analyzer::minimal());
        assert_build_matches_reference(&DataGraph::new(), Analyzer::new());
    }

    /// Generated bibliographic data: titles from a small word pool, Zipf
    /// authors, camel-cased predicates, digit runs and a class hierarchy.
    #[test]
    fn the_build_equals_the_reference_on_dblp() {
        let g = kwsearch_datagen::DblpDataset::scaled(2_000).graph;
        assert_build_matches_reference(&g, Analyzer::new());
    }

    #[test]
    fn lookup_equals_the_reference_on_the_running_example() {
        let (idx, _) = index();
        for keyword in [
            "publications",
            "cimano",
            "papers",
            "Thanh Tran",
            "2006 aifb",
            "name",
            "agent",
            "the of and",
            "",
        ] {
            assert_matches_reference(&idx, keyword);
        }
    }

    mod equivalence {
        use super::*;
        use kwsearch_rdf::Triple;
        use proptest::prelude::*;

        /// Labels over a small alphabet with multi-byte characters, so that
        /// terms share prefixes and sit within small edit distances of each
        /// other, plus thesaurus words and multi-word labels.
        fn label() -> impl Strategy<Value = String> {
            prop_oneof![
                "[abcé漢]{1,6}",
                "pub[ailoé]{0,5}",
                "[abé]{1,4} [a-cé漢]{1,7}",
                Just("paper".to_string()),
                Just("Publications".to_string()),
                Just("the article".to_string()),
            ]
        }

        /// A keyword: a label as is, or with a character dropped, added or
        /// replaced.
        fn keyword() -> impl Strategy<Value = String> {
            (label(), 0usize..4, 0usize..8, 0usize..4).prop_map(|(label, edit, at, c)| {
                let mut chars: Vec<char> = label.chars().collect();
                let at = at % (chars.len() + 1);
                let c = ['b', 'é', '漢', 'x'][c];
                match edit {
                    1 if at < chars.len() => {
                        chars.remove(at);
                    }
                    2 => chars.insert(at, c),
                    3 if at < chars.len() => chars[at] = c,
                    _ => {}
                }
                chars.into_iter().collect()
            })
        }

        /// Entity `i` gets a class, a labelled value and a relation to
        /// entity `i + 1`.
        fn triples(offset: usize, rows: &[(String, String, usize)]) -> Vec<Triple> {
            let mut triples = Vec::new();
            for (i, (class, value, predicate)) in rows.iter().enumerate() {
                let subject = format!("e{}", offset + i);
                triples.push(Triple::typed(&subject, class));
                let attribute = ["title", "name", "année"][predicate % 3];
                triples.push(Triple::attribute(&subject, attribute, value));
                let relation = ["author", "cites"][predicate % 2];
                triples.push(Triple::relation(
                    &subject,
                    relation,
                    format!("e{}", offset + i + 1),
                ));
            }
            triples
        }

        fn row() -> impl Strategy<Value = (String, String, usize)> {
            (label(), label(), 0usize..6)
        }

        /// One piece of a label: words, capitalized and all-caps runs,
        /// digit runs, non-ASCII letters (final sigma included), stop
        /// words and a small pool of repeated words.
        fn piece() -> impl Strategy<Value = String> {
            prop_oneof![
                "[a-z]{1,5}",
                "[A-Z][a-z]{0,4}",
                "[A-Z]{2,4}",
                "[0-9]{1,4}",
                "[äöüßéÀΣςσ漢字]{1,4}",
                Just("the".to_string()),
                Just("of and".to_string()),
                Just("search".to_string()),
                Just("Searching".to_string()),
            ]
        }

        /// A label of zero to four pieces, joined with nothing (camel case,
        /// digit runs glued to words), spaces or punctuation: empty,
        /// separator-only and stop-word-only labels included.
        fn rich_label() -> impl Strategy<Value = String> {
            (proptest::collection::vec(piece(), 0..5), 0usize..4)
                .prop_map(|(pieces, sep)| pieces.join(["", " ", "-", ", "][sep]))
        }

        /// A random graph over a few entities: `type` edges (several or none
        /// per entity), attributes into shared values, relations and
        /// subclass edges, every name a rich label. A triple the graph
        /// refuses is skipped.
        fn rich_graph() -> impl Strategy<Value = DataGraph> {
            let triple = (0usize..4, 0usize..6, 0usize..6, rich_label(), rich_label());
            proptest::collection::vec(triple, 0..32).prop_map(|rows| {
                let mut g = DataGraph::new();
                for (kind, s, o, a, b) in rows {
                    let (subject, object) = (format!("e{s}"), format!("e{o}"));
                    let triple = match kind {
                        0 => Triple::typed(subject, format!("C{a}")),
                        1 => Triple::attribute(subject, format!("has{b}"), a),
                        2 => Triple::relation(subject, format!("rel{a}"), object),
                        _ => Triple::subclass(format!("C{a}"), format!("C{b}")),
                    };
                    let _ = g.insert_triple(&triple);
                }
                g
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// The one-pass build writes the reference build's keyword
            /// section byte for byte, over either analyzer.
            #[test]
            fn the_build_equals_the_reference_build(g in rich_graph(), minimal in 0usize..2) {
                let analyzer = if minimal == 1 { Analyzer::minimal() } else { Analyzer::new() };
                assert_build_matches_reference(&g, analyzer);
            }

            /// `lookup` returns what the enrich-everything, scan-everything
            /// lookup returns: same elements, same score bits, same order —
            /// over either analyzer, every edit bound the index is used
            /// with, every truncation, with and without a live delta.
            #[test]
            fn lookup_equals_the_reference_lookup(
                base in proptest::collection::vec(row(), 1..12),
                batch in proptest::collection::vec(row(), 0..4),
                keywords in proptest::collection::vec(keyword(), 1..6),
                (minimal, max_edit_distance, keep, loose) in (0usize..2, 0usize..4, 0usize..4, 0usize..2),
            ) {
                let mut g = DataGraph::new();
                for t in triples(0, &base) {
                    g.insert_triple(&t).unwrap();
                }
                let analyzer = if minimal == 1 { Analyzer::minimal() } else { Analyzer::new() };
                let config = KeywordIndexConfig {
                    max_edit_distance,
                    max_matches_per_keyword: [0, 1, 3, 20][keep],
                    min_fuzzy_similarity: [0.7, 0.0][loose],
                    ..KeywordIndexConfig::default()
                };
                let mut idx = KeywordIndex::build_with(&g, analyzer, Thesaurus::builtin(), config);
                if !batch.is_empty() {
                    let (nv, nl, ne) = (g.vertex_count(), g.edge_label_count(), g.edge_count());
                    for t in triples(base.len() + 1, &batch) {
                        g.insert_triple(&t).unwrap();
                    }
                    idx.apply_delta(&g, nv, nl, ne);
                }
                for keyword in &keywords {
                    assert_matches_reference(&idx, keyword);
                }
            }
        }
    }
}
