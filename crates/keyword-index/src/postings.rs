//! Frozen, snapshot-friendly storage for the keyword index.
//!
//! The index build collects `(term id, packed element)` pairs, sorts its
//! small vocabulary by bytes and places the pairs by a stable
//! [`counting_sort`](kwsearch_rdf::counting_sort) on term rank; the result
//! is frozen as [`PostingLists`]: the sorted vocabulary as one string blob
//! plus an offsets column, and all posting lists as one packed `u32` column
//! sliced by a second offsets column. Lookups binary-search the vocabulary,
//! and a snapshot load is a handful of bulk buffer reads — no per-term
//! allocation, hashing or parsing.
//!
//! Fuzzy matching walks the same sorted blob once per query term
//! (`PostingLists::for_each_within`): consecutive terms share the banded
//! Levenshtein rows of their common prefix, and a prefix already more than
//! the edit bound away from the query is skipped, with every term under it,
//! by one galloping search — the trie form of Schulz & Mihov's
//! Levenshtein-automaton lookup, without a trie to build.
//!
//! The same flattening is applied to the augmentation side table,
//! [`ConnectionTable`]: the `[V-vertex, A-edge, (C-vertex…)]` structures of
//! every V-vertex. (The classes of an A-edge label are schema-level; the
//! summary graph projects them.)

use kwsearch_rdf::snapshot::{SectionDecoder, SectionEncoder, SnapshotError};
use kwsearch_rdf::{EdgeLabelId, VertexId};

use crate::keyword_index::{ElementRef, ValueConnection};
use crate::levenshtein::PrefixRows;

const TAG_CLASS: u32 = 0;
const TAG_VALUE: u32 = 1;
const TAG_RELATION: u32 = 2;
const TAG_ATTRIBUTE: u32 = 3;
const TAG_SHIFT: u32 = 30;
const ID_MASK: u32 = (1 << TAG_SHIFT) - 1;

/// Packs an element reference into one `u32`: a 2-bit kind tag plus a
/// 30-bit dense id. 2³⁰ vertices/labels is two orders of magnitude above
/// the `huge` (10⁷ triple) tier.
pub(crate) fn pack(element: ElementRef) -> u32 {
    let (tag, id) = match element {
        ElementRef::Class(v) => (TAG_CLASS, v.index() as u32),
        ElementRef::Value(v) => (TAG_VALUE, v.index() as u32),
        ElementRef::Relation(l) => (TAG_RELATION, l.index() as u32),
        ElementRef::Attribute(l) => (TAG_ATTRIBUTE, l.index() as u32),
    };
    assert!(
        id <= ID_MASK,
        "dense id exceeds 30-bit packed posting space"
    );
    (tag << TAG_SHIFT) | id
}

/// Inverse of [`pack`].
pub(crate) fn unpack(packed: u32) -> ElementRef {
    let id = packed & ID_MASK;
    match packed >> TAG_SHIFT {
        TAG_CLASS => ElementRef::Class(VertexId::from_index(id)),
        TAG_VALUE => ElementRef::Value(VertexId::from_index(id)),
        TAG_RELATION => ElementRef::Relation(EdgeLabelId::from_index(id)),
        _ => ElementRef::Attribute(EdgeLabelId::from_index(id)),
    }
}

/// The frozen term → packed-posting map.
#[derive(Debug, Clone, Default)]
pub struct PostingLists {
    /// All vocabulary terms concatenated in sorted order.
    term_bytes: String,
    /// `term_offsets[i]..term_offsets[i + 1]` delimits term `i`.
    term_offsets: Vec<u32>,
    /// `posting_offsets[i]..posting_offsets[i + 1]` delimits the postings
    /// of term `i`.
    posting_offsets: Vec<u32>,
    /// All packed postings, concatenated per term.
    postings: Vec<u32>,
}

impl PostingLists {
    /// Freezes counting-sorted postings: `terms` in ascending byte order,
    /// and the packed postings of term `i` at
    /// `postings[posting_offsets[i]..posting_offsets[i + 1]]` — the offsets
    /// a [`counting_sort`](kwsearch_rdf::counting_sort) of the postings on
    /// term rank returns.
    pub fn from_sorted<'a>(
        terms: impl IntoIterator<Item = &'a str>,
        posting_offsets: Vec<u32>,
        postings: Vec<u32>,
    ) -> Self {
        let mut term_bytes = String::new();
        let mut term_offsets = vec![0];
        for term in terms {
            term_bytes.push_str(term);
            term_offsets.push(term_bytes.len() as u32);
        }
        let out = Self {
            term_bytes,
            term_offsets,
            posting_offsets,
            postings,
        };
        debug_assert_eq!(out.posting_offsets.len(), out.term_offsets.len());
        debug_assert!((1..out.term_count()).all(|i| out.term_at(i - 1) < out.term_at(i)));
        out
    }

    /// Freezes a term → postings map, each list in its own order: the
    /// shape of the reference build the tests compare against.
    #[cfg(test)]
    pub(crate) fn from_map(index: &std::collections::BTreeMap<String, Vec<ElementRef>>) -> Self {
        let mut posting_offsets = vec![0];
        let mut postings = Vec::new();
        for list in index.values() {
            postings.extend(list.iter().map(|&e| pack(e)));
            posting_offsets.push(postings.len() as u32);
        }
        Self::from_sorted(index.keys().map(String::as_str), posting_offsets, postings)
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.term_offsets.len() - 1
    }

    /// Total number of postings.
    pub fn posting_count(&self) -> usize {
        self.postings.len()
    }

    #[inline]
    fn term_at(&self, i: usize) -> &str {
        &self.term_bytes[self.term_offsets[i] as usize..self.term_offsets[i + 1] as usize]
    }

    #[inline]
    fn postings_at(&self, i: usize) -> &[u32] {
        &self.postings[self.posting_offsets[i] as usize..self.posting_offsets[i + 1] as usize]
    }

    /// The packed posting list of `term` (empty if unknown); binary search
    /// over the sorted vocabulary.
    pub fn get_packed(&self, term: &str) -> &[u32] {
        let mut lo = 0usize;
        let mut hi = self.term_count();
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.term_at(mid) < term {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo < self.term_count() && self.term_at(lo) == term {
            self.postings_at(lo)
        } else {
            &[]
        }
    }

    /// Iterates `(term, packed postings)` in sorted term order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[u32])> + '_ {
        (0..self.term_count()).map(|i| (self.term_at(i), self.postings_at(i)))
    }

    /// Calls `visit(term, distance, packed postings)` for every vocabulary
    /// term within Levenshtein distance `max` of `query`, in sorted term
    /// order, and returns the number of DP cells computed.
    ///
    /// One walk over the sorted vocabulary: consecutive terms share the
    /// [`PrefixRows`] of their common prefix, and once a row's minimum
    /// exceeds `max`, every term under that prefix — a contiguous run,
    /// because the vocabulary is sorted by bytes — is skipped with one
    /// galloping search.
    pub(crate) fn for_each_within(
        &self,
        query: &[char],
        max: usize,
        mut visit: impl FnMut(&str, usize, &[u32]),
    ) -> usize {
        let mut rows = PrefixRows::new(query, max);
        let mut i = 0;
        while i < self.term_count() {
            let term = self.term_at(i);
            let shared = rows
                .prefix()
                .iter()
                .zip(term.chars())
                .take_while(|(a, b)| *a == b)
                .count();
            rows.truncate(shared);
            let hopeless = term
                .char_indices()
                .skip(shared)
                .find(|&(_, c)| rows.push(c) > max)
                .map(|(at, c)| &term[..at + c.len_utf8()]);
            match hopeless {
                Some(prefix) => i = self.end_of_prefix(i, prefix),
                None => {
                    if let Some(distance) = rows.distance() {
                        visit(term, distance, self.postings_at(i));
                    }
                    i += 1;
                }
            }
        }
        rows.computed()
    }

    /// The first index after `i` whose term does not start with `prefix`,
    /// given that term `i` does.
    ///
    /// Most runs under a hopeless prefix hold one or two terms, so the
    /// search gallops — probing `i + 1, i + 2, i + 4, …` — before it
    /// bisects the last gap: a run of `r` terms costs `O(log r)` probes
    /// rather than `O(log |vocabulary|)`.
    fn end_of_prefix(&self, i: usize, prefix: &str) -> usize {
        let count = self.term_count();
        let (mut inside, mut step) = (i, 1);
        let mut hi = loop {
            let probe = i.saturating_add(step);
            if probe >= count || !self.term_at(probe).starts_with(prefix) {
                break probe.min(count);
            }
            inside = probe;
            step *= 2;
        };
        let mut lo = inside + 1;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.term_at(mid).starts_with(prefix) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Approximate heap bytes (Fig. 6b index-size report).
    pub fn heap_bytes(&self) -> usize {
        self.term_bytes.len()
            + (self.term_offsets.len() + self.posting_offsets.len() + self.postings.len())
                * std::mem::size_of::<u32>()
    }

    /// Every element the postings name, once per posting.
    pub(crate) fn elements(&self) -> impl Iterator<Item = ElementRef> + '_ {
        self.postings.iter().map(|&packed| unpack(packed))
    }

    /// Serialises the four flat buffers verbatim.
    pub fn write_snapshot(&self, enc: &mut SectionEncoder) {
        enc.put_str(&self.term_bytes);
        enc.put_u32_slice(&self.term_offsets);
        enc.put_u32_slice(&self.posting_offsets);
        enc.put_u32_slice(&self.postings);
    }

    /// Bulk-loads the four flat buffers, validating the offset structure and
    /// sorted vocabulary.
    pub fn read_snapshot(dec: &mut SectionDecoder<'_>) -> Result<Self, SnapshotError> {
        let term_bytes = dec.get_string()?;
        let term_offsets = dec.get_u32_vec()?;
        let posting_offsets = dec.get_u32_vec()?;
        let postings = dec.get_u32_vec()?;
        validate_offsets(dec, &term_offsets, term_bytes.len(), "posting term")?;
        if term_offsets
            .iter()
            .any(|&o| !term_bytes.is_char_boundary(o as usize))
        {
            return Err(dec.corrupt("posting term offset splits a UTF-8 character"));
        }
        if posting_offsets.len() != term_offsets.len() {
            return Err(dec.corrupt("posting offsets do not match the term count"));
        }
        validate_offsets(dec, &posting_offsets, postings.len(), "posting list")?;
        let out = Self {
            term_bytes,
            term_offsets,
            posting_offsets,
            postings,
        };
        for i in 1..out.term_count() {
            if out.term_at(i - 1) >= out.term_at(i) {
                return Err(dec.corrupt("posting vocabulary is not sorted"));
            }
        }
        Ok(out)
    }
}

/// An offsets column must start at 0, be monotone, and end at `total`.
fn validate_offsets(
    dec: &SectionDecoder<'_>,
    offsets: &[u32],
    total: usize,
    what: &str,
) -> Result<(), SnapshotError> {
    if offsets.first() != Some(&0) || offsets.last().map(|&o| o as usize) != Some(total) {
        return Err(dec.corrupt(format!("{what} offsets do not cover the buffer")));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(dec.corrupt(format!("{what} offsets are not monotone")));
    }
    Ok(())
}

/// Frozen per-V-vertex `[V-vertex, A-edge, (C-vertex…)]` structures.
///
/// Three-level CSR: value → connections → classes, with one flag column per
/// connection. Lookup is a binary search over the sorted value ids;
/// [`Self::get`] materialises the `Vec<ValueConnection>` shape the
/// augmentation consumes (the previous `HashMap` representation also cloned
/// per lookup, so the output and its cost are unchanged).
#[derive(Debug, Clone, Default)]
pub struct ConnectionTable {
    values: Vec<u32>,
    conn_offsets: Vec<u32>,
    attrs: Vec<u32>,
    flags: Vec<u32>,
    class_offsets: Vec<u32>,
    classes: Vec<u32>,
}

impl ConnectionTable {
    /// Opens the entry of `value`, with no connections yet. Values must
    /// come in ascending id order (the build loop iterates vertices in id
    /// order).
    pub(crate) fn push_value(&mut self, value: VertexId) {
        if self.conn_offsets.is_empty() {
            self.conn_offsets.push(0);
            self.class_offsets.push(0);
        }
        debug_assert!(self.values.last().is_none_or(|&v| v < value.index() as u32));
        self.values.push(value.index() as u32);
        self.conn_offsets.push(self.attrs.len() as u32);
    }

    /// Appends one connection to the value [`Self::push_value`] opened
    /// last.
    pub(crate) fn push_connection(
        &mut self,
        attribute: EdgeLabelId,
        classes: impl Iterator<Item = VertexId>,
        has_untyped_source: bool,
    ) {
        self.attrs.push(attribute.index() as u32);
        self.flags.push(u32::from(has_untyped_source));
        self.classes.extend(classes.map(|c| c.index() as u32));
        self.class_offsets.push(self.classes.len() as u32);
        if let Some(end) = self.conn_offsets.last_mut() {
            *end = self.attrs.len() as u32;
        }
    }

    /// The connections of `value` (empty if the vertex carries none).
    pub fn get(&self, value: VertexId) -> Vec<ValueConnection> {
        let Ok(i) = self.values.binary_search(&(value.index() as u32)) else {
            return Vec::new();
        };
        let (start, end) = (
            self.conn_offsets[i] as usize,
            self.conn_offsets[i + 1] as usize,
        );
        (start..end)
            .map(|c| ValueConnection {
                attribute: EdgeLabelId::from_index(self.attrs[c]),
                classes: self.classes
                    [self.class_offsets[c] as usize..self.class_offsets[c + 1] as usize]
                    .iter()
                    .map(|&v| VertexId::from_index(v))
                    .collect(),
                has_untyped_source: self.flags[c] != 0,
            })
            .collect()
    }

    /// Approximate heap bytes.
    pub fn heap_bytes(&self) -> usize {
        (self.values.len()
            + self.conn_offsets.len()
            + self.attrs.len()
            + self.flags.len()
            + self.class_offsets.len()
            + self.classes.len())
            * std::mem::size_of::<u32>()
    }

    /// Every element the table names: its values, their attribute labels
    /// and the classes behind them.
    pub(crate) fn elements(&self) -> impl Iterator<Item = ElementRef> + '_ {
        let values = self
            .values
            .iter()
            .map(|&v| ElementRef::Value(VertexId::from_index(v)));
        let attrs = self
            .attrs
            .iter()
            .map(|&a| ElementRef::Attribute(EdgeLabelId::from_index(a)));
        let classes = self
            .classes
            .iter()
            .map(|&c| ElementRef::Class(VertexId::from_index(c)));
        values.chain(attrs).chain(classes)
    }

    /// Serialises the six flat columns verbatim.
    pub fn write_snapshot(&self, enc: &mut SectionEncoder) {
        enc.put_u32_slice(&self.values);
        enc.put_u32_slice(&self.conn_offsets);
        enc.put_u32_slice(&self.attrs);
        enc.put_u32_slice(&self.flags);
        enc.put_u32_slice(&self.class_offsets);
        enc.put_u32_slice(&self.classes);
    }

    /// Bulk-loads the six flat columns, validating the CSR structure.
    pub fn read_snapshot(dec: &mut SectionDecoder<'_>) -> Result<Self, SnapshotError> {
        let values = dec.get_u32_vec()?;
        let conn_offsets = dec.get_u32_vec()?;
        let attrs = dec.get_u32_vec()?;
        let flags = dec.get_u32_vec()?;
        let class_offsets = dec.get_u32_vec()?;
        let classes = dec.get_u32_vec()?;
        if values.is_empty() && conn_offsets.is_empty() {
            // An empty table round-trips to all-empty columns.
            return Ok(Self::default());
        }
        if values.windows(2).any(|w| w[0] >= w[1]) {
            return Err(dec.corrupt("connection table values are not sorted"));
        }
        if conn_offsets.len() != values.len() + 1 {
            return Err(dec.corrupt("connection offsets do not match the value count"));
        }
        validate_offsets(dec, &conn_offsets, attrs.len(), "connection")?;
        if flags.len() != attrs.len() {
            return Err(dec.corrupt("connection flag column length mismatch"));
        }
        if class_offsets.len() != attrs.len() + 1 {
            return Err(dec.corrupt("class offsets do not match the connection count"));
        }
        validate_offsets(dec, &class_offsets, classes.len(), "connection class")?;
        Ok(Self {
            values,
            conn_offsets,
            attrs,
            flags,
            class_offsets,
            classes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levenshtein::{bounded_levenshtein, levenshtein};
    use std::collections::BTreeMap;

    #[test]
    fn pack_unpack_round_trips() {
        let elements = [
            ElementRef::Class(VertexId::from_index(0)),
            ElementRef::Value(VertexId::from_index(12345)),
            ElementRef::Relation(EdgeLabelId::from_index(ID_MASK)),
            ElementRef::Attribute(EdgeLabelId::from_index(7)),
        ];
        for e in elements {
            assert_eq!(unpack(pack(e)), e);
        }
    }

    #[test]
    fn pack_order_is_element_ref_order() {
        let mut elements = Vec::new();
        for id in [0, 1, 7, ID_MASK - 1, ID_MASK] {
            elements.extend([
                ElementRef::Class(VertexId::from_index(id)),
                ElementRef::Value(VertexId::from_index(id)),
                ElementRef::Relation(EdgeLabelId::from_index(id)),
                ElementRef::Attribute(EdgeLabelId::from_index(id)),
            ]);
        }
        for a in &elements {
            for b in &elements {
                assert_eq!(pack(*a).cmp(&pack(*b)), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }

    /// A vocabulary whose term `i` posts to class `i`.
    fn vocabulary<S: AsRef<str>>(terms: impl IntoIterator<Item = S>) -> PostingLists {
        let terms: Vec<S> = terms.into_iter().collect();
        let pairs: Vec<(&str, ElementRef)> = terms
            .iter()
            .enumerate()
            .map(|(i, t)| {
                (
                    t.as_ref(),
                    ElementRef::Class(VertexId::from_index(i as u32)),
                )
            })
            .collect();
        PostingLists::from_map(&inverted(&pairs))
    }

    /// The walk's `(term, distance, postings)` visits and its cell count.
    fn walk(
        lists: &PostingLists,
        query: &str,
        max: usize,
    ) -> (Vec<(String, usize, Vec<u32>)>, usize) {
        let query: Vec<char> = query.chars().collect();
        let mut visits = Vec::new();
        let cells = lists.for_each_within(&query, max, |term, d, postings| {
            visits.push((term.to_string(), d, postings.to_vec()));
        });
        (visits, cells)
    }

    /// The linear scan the walk replaces, with `distance` per term.
    fn scan(
        lists: &PostingLists,
        query: &str,
        distance: impl Fn(&str, &str) -> Option<usize>,
    ) -> Vec<(String, usize, Vec<u32>)> {
        lists
            .iter()
            .filter_map(|(term, postings)| {
                Some((term.to_string(), distance(query, term)?, postings.to_vec()))
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]

        /// Over random Unicode vocabularies with shared prefixes, the walk
        /// visits exactly the terms a `bounded_levenshtein` scan accepts,
        /// with the same distances, at every bound.
        #[test]
        fn the_walk_equals_a_bounded_levenshtein_scan(
            terms in proptest::collection::btree_set("[abé漢]{0,5}", 1..40),
            query in "[abéx漢]{0,6}",
        ) {
            let lists = vocabulary(&terms);
            for max in 0..=3 {
                let expected = scan(&lists, &query, |q, t| bounded_levenshtein(q, t, max));
                proptest::prop_assert_eq!(walk(&lists, &query, max).0, expected, "max {}", max);
            }
        }
    }

    #[test]
    fn an_unbounded_walk_equals_the_unbounded_scan() {
        let lists = vocabulary(["", "a", "ab", "abé", "b", "ba", "漢字", "漢字漢"]);
        for query in ["", "abé", "漢", "xyz"] {
            let (visits, _) = walk(&lists, query, usize::MAX);
            assert_eq!(visits, scan(&lists, query, |q, t| Some(levenshtein(q, t))));
        }
    }

    #[test]
    fn a_prefix_the_query_misses_is_skipped_in_one_search() {
        let terms: Vec<String> = (0..1000).map(|i| format!("prefix{i:03}")).collect();
        let lists = vocabulary(&terms);
        let (query, max) = ("zzzzzz500", 2);
        let (visits, cells) = walk(&lists, query, max);
        assert_eq!(
            visits,
            scan(&lists, query, |q, t| bounded_levenshtein(q, t, max))
        );
        // A linear scan computes at least `max + 1` full rows per term
        // before its first chance to give up.
        let scan_cells: usize = terms.iter().map(|t| (max + 1) * t.chars().count()).sum();
        assert!(
            cells * 100 < scan_cells,
            "{cells} walk cells against at least {scan_cells} scan cells"
        );
    }

    /// A term → postings map, built by pushing `(term, element)` pairs in
    /// order.
    fn inverted(pairs: &[(&str, ElementRef)]) -> BTreeMap<String, Vec<ElementRef>> {
        let mut index: BTreeMap<String, Vec<ElementRef>> = BTreeMap::new();
        for &(term, element) in pairs {
            index.entry(term.to_string()).or_default().push(element);
        }
        index
    }

    #[test]
    fn frozen_lists_match_the_inverted_index() {
        let inv = inverted(&[
            ("beta", ElementRef::Class(VertexId::from_index(1))),
            ("alpha", ElementRef::Value(VertexId::from_index(2))),
            ("alpha", ElementRef::Value(VertexId::from_index(3))),
            ("gamma", ElementRef::Relation(EdgeLabelId::from_index(0))),
        ]);
        let frozen = PostingLists::from_map(&inv);
        assert_eq!(frozen.term_count(), 3);
        assert_eq!(frozen.posting_count(), 4);
        // Sorted vocabulary.
        let terms: Vec<&str> = frozen.iter().map(|(t, _)| t).collect();
        assert_eq!(terms, vec!["alpha", "beta", "gamma"]);
        // Postings preserved in insertion order.
        let alpha: Vec<ElementRef> = frozen
            .get_packed("alpha")
            .iter()
            .map(|&p| unpack(p))
            .collect();
        assert_eq!(
            alpha,
            vec![
                ElementRef::Value(VertexId::from_index(2)),
                ElementRef::Value(VertexId::from_index(3)),
            ]
        );
        assert!(frozen.get_packed("missing").is_empty());
        assert!(frozen.get_packed("").is_empty());
    }

    #[test]
    fn posting_snapshot_round_trips() {
        use kwsearch_rdf::snapshot::{SnapshotReader, SnapshotWriter};
        let pairs: Vec<(&str, ElementRef)> = ["x", "yy", "zzz", "aa"]
            .into_iter()
            .enumerate()
            .map(|(i, term)| (term, ElementRef::Class(VertexId::from_index(i as u32))))
            .collect();
        let frozen = PostingLists::from_map(&inverted(&pairs));
        let mut enc = SectionEncoder::new();
        frozen.write_snapshot(&mut enc);
        let mut writer = SnapshotWriter::new();
        writer.add_section(9, enc);
        let mut bytes = Vec::new();
        writer.write_to(&mut bytes).unwrap();
        let reader = SnapshotReader::read_from(bytes.as_slice()).unwrap();
        let mut dec = reader.section(9).unwrap();
        let loaded = PostingLists::read_snapshot(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(loaded.term_count(), frozen.term_count());
        for (a, b) in loaded.iter().zip(frozen.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn connection_table_lookups() {
        let (label, vertex) = (EdgeLabelId::from_index, VertexId::from_index);
        let mut table = ConnectionTable::default();
        table.push_value(vertex(3));
        table.push_connection(label(1), [vertex(9)].into_iter(), false);
        table.push_value(vertex(8));
        table.push_connection(label(0), [].into_iter(), true);
        table.push_connection(label(2), [vertex(4), vertex(5)].into_iter(), false);
        assert_eq!(table.get(VertexId::from_index(3)).len(), 1);
        let conns = table.get(VertexId::from_index(8));
        assert_eq!(conns.len(), 2);
        assert!(conns[0].has_untyped_source);
        assert_eq!(conns[1].classes.len(), 2);
        assert!(table.get(VertexId::from_index(7)).is_empty());
    }
}
