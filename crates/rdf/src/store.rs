//! Indexed triple store.
//!
//! The paper's architecture processes the generated conjunctive query with
//! "the underlying database engine". This module provides that engine's
//! storage layer: a [`TripleStore`] holding the data graph's edges as
//! `(subject, predicate-label, object)` rows in two sorted permutations,
//! SPO and POS. Every atom of a conjunctive query (Definition 2) names its
//! predicate, so a [`TriplePattern`] always binds it, and each of its four
//! shapes `(s?, p, o?)` is one binary-searched range: SPO serves a bound
//! subject, POS a bound predicate alone or with its object.
//!
//! The permutations are a pure function of the graph's edge columns, so the
//! store is never persisted: a snapshot load derives it with
//! [`TripleStore::build`], a chain of stable counting sorts over the dense
//! ids.

use std::sync::Arc;

use crate::graph::{counting_sort, DataGraph, EdgeLabelId, VertexId};

/// A triple pattern: the predicate is always bound, as in every atom of a
/// conjunctive query; the subject and the object are each bound to a
/// concrete id or a wildcard (`None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriplePattern {
    /// Bound subject vertex, if any.
    pub subject: Option<VertexId>,
    /// Bound predicate label.
    pub predicate: EdgeLabelId,
    /// Bound object vertex, if any.
    pub object: Option<VertexId>,
}

impl TriplePattern {
    /// Pattern over `predicate` with the subject and the object unbound.
    pub fn new(predicate: EdgeLabelId) -> Self {
        Self {
            subject: None,
            predicate,
            object: None,
        }
    }

    /// Sets the subject.
    pub fn with_subject(mut self, s: VertexId) -> Self {
        self.subject = Some(s);
        self
    }

    /// Sets the object.
    pub fn with_object(mut self, o: VertexId) -> Self {
        self.object = Some(o);
        self
    }
}

/// A materialised `(subject, predicate, object)` row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpoRow {
    /// Subject vertex.
    pub subject: VertexId,
    /// Predicate label.
    pub predicate: EdgeLabelId,
    /// Object vertex.
    pub object: VertexId,
}

/// The frozen bulk of a [`TripleStore`]: two sorted permutations built
/// once and shared (via [`Arc`]) across every clone of the store, so a
/// live-update snapshot clones in O(delta), not O(base).
#[derive(Debug, Default)]
struct BaseRows {
    /// Rows sorted by (subject, predicate, object).
    spo: Vec<SpoRow>,
    /// Rows sorted by (predicate, object, subject).
    pos: Vec<SpoRow>,
}

/// Sorted-permutation index over the edges of a [`DataGraph`].
///
/// The store is a frozen, `Arc`-shared base derived from the graph's edge
/// columns by [`Self::build`], plus a small sorted delta per permutation
/// (the live-update overlay; empty for frozen builds). A pattern reads one
/// binary-searched range of each side, borrowed and in permutation order;
/// the two ranges are disjoint, and merged they are bit-identical to the
/// range of a from-scratch build over the same row set — per-permutation
/// keys are unique, which makes the merge order unambiguous.
#[derive(Debug, Clone, Default)]
pub struct TripleStore {
    base: Arc<BaseRows>,
    /// Delta rows sorted by (subject, predicate, object).
    delta_spo: Vec<SpoRow>,
    /// Delta rows sorted by (predicate, object, subject).
    delta_pos: Vec<SpoRow>,
}

#[derive(Debug, Clone, Copy)]
enum Permutation {
    Spo,
    Pos,
}

fn key(row: &SpoRow, perm: Permutation) -> (u32, u32, u32) {
    match perm {
        Permutation::Spo => (row.subject.0, row.predicate.0, row.object.0),
        Permutation::Pos => (row.predicate.0, row.object.0, row.subject.0),
    }
}

#[cfg(test)]
thread_local! {
    /// Rows this thread copied out of any store, so tests can pin that
    /// pattern reads copy none.
    static ROWS_COPIED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl TripleStore {
    /// Builds the store from all edges of `graph`.
    pub fn build(graph: &DataGraph) -> Self {
        let rows: Vec<SpoRow> = graph
            .edges()
            .map(|e| {
                let edge = graph.edge(e);
                SpoRow {
                    subject: edge.from,
                    predicate: edge.label,
                    object: edge.to,
                }
            })
            .collect();
        Self::from_rows(rows, graph.vertex_count(), graph.edge_label_count())
    }

    /// Builds a flat (delta-free) store from a duplicate-free row set whose
    /// vertex ids lie below `vertices` and label ids below `labels`.
    ///
    /// Each permutation is a chain of stable counting sorts, least
    /// significant key first: POS is the rows sorted by subject, then
    /// object, then predicate; SPO is POS sorted by subject (each subject's
    /// rows keep their (predicate, object) order). Keys are unique within a
    /// permutation, so this is exactly the comparison-sorted order. The
    /// passes ping-pong between `rows` and one scratch buffer, which become
    /// SPO and POS.
    fn from_rows(mut rows: Vec<SpoRow>, vertices: usize, labels: usize) -> Self {
        let subject = |r: &SpoRow| r.subject.index();
        let predicate = |r: &SpoRow| r.predicate.index();
        let object = |r: &SpoRow| r.object.index();
        let row = |_: usize, r: &SpoRow| *r;
        // Only the length matters: every pass overwrites all of its output.
        let mut pos = rows.clone();
        counting_sort(&rows, &mut pos, vertices, subject, row);
        counting_sort(&pos, &mut rows, vertices, object, row);
        counting_sort(&rows, &mut pos, labels, predicate, row);
        counting_sort(&pos, &mut rows, vertices, subject, row);
        Self {
            base: Arc::new(BaseRows { spo: rows, pos }),
            delta_spo: Vec::new(),
            delta_pos: Vec::new(),
        }
    }

    /// Appends `rows` to the delta overlay. The caller (the live-update
    /// layer) guarantees the rows are not already present — the data graph
    /// deduplicates edges before they ever reach the store.
    pub fn add_rows(&mut self, rows: &[SpoRow]) {
        if rows.is_empty() {
            return;
        }
        debug_assert!(
            rows.iter().all(|r| {
                let pattern = TriplePattern::new(r.predicate)
                    .with_subject(r.subject)
                    .with_object(r.object);
                self.count(pattern) == 0
            }),
            "delta rows must not duplicate existing rows"
        );
        self.delta_spo.extend_from_slice(rows);
        self.delta_pos.extend_from_slice(rows);
        self.delta_spo.sort_by_key(|r| key(r, Permutation::Spo));
        self.delta_pos.sort_by_key(|r| key(r, Permutation::Pos));
    }

    /// A row the frozen base holds twice, if any: equal rows are adjacent in
    /// SPO order. A graph's edges are a set, so only a graph decoded from a
    /// corrupt snapshot yields one.
    pub fn repeated_row(&self) -> Option<SpoRow> {
        let spo = &self.base.spo;
        spo.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
    }

    /// Whether any delta rows are overlaid on the shared base.
    pub fn has_delta(&self) -> bool {
        !self.delta_spo.is_empty()
    }

    /// Number of delta rows overlaid on the shared base.
    pub fn delta_len(&self) -> usize {
        self.delta_spo.len()
    }

    /// Number of rows (equal to the graph's edge count).
    pub fn len(&self) -> usize {
        self.base.spo.len() + self.delta_spo.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every row, base and delta merged in (subject, predicate, object)
    /// order.
    pub fn rows(&self) -> Vec<SpoRow> {
        merge_sorted(&self.base.spo, &self.delta_spo, Permutation::Spo)
    }

    /// The rows matching `pattern`, borrowed: one contiguous range of the
    /// base and one of the delta, each sorted by the permutation whose key
    /// starts with the pattern's bound positions. SPO serves a bound subject,
    /// so the rows of `(s, p, *)` run in ascending object; POS serves the
    /// rest, so the rows of `(*, p, o)` run in ascending subject and those of
    /// `(*, p, *)` in ascending object (then subject). The two ranges are
    /// disjoint; `O(log n)`, no copy.
    pub fn ranges(&self, pattern: TriplePattern) -> [&[SpoRow]; 2] {
        let p = pattern.predicate.0;
        let (perm, lower, upper) = match (pattern.subject, pattern.object) {
            (Some(s), Some(o)) => (Permutation::Spo, (s.0, p, o.0), (s.0, p, o.0)),
            (Some(s), None) => (Permutation::Spo, (s.0, p, 0), (s.0, p, u32::MAX)),
            (None, Some(o)) => (Permutation::Pos, (p, o.0, 0), (p, o.0, u32::MAX)),
            (None, None) => (Permutation::Pos, (p, 0, 0), (p, u32::MAX, u32::MAX)),
        };
        let range = |rows: &[SpoRow]| {
            let start = rows.partition_point(|r| key(r, perm) < lower);
            start..start + rows[start..].partition_point(|r| key(r, perm) <= upper)
        };
        let (base, delta) = match perm {
            Permutation::Spo => (&self.base.spo, &self.delta_spo),
            Permutation::Pos => (&self.base.pos, &self.delta_pos),
        };
        [&base[range(base)], &delta[range(delta)]]
    }

    /// Counts the rows matching `pattern` without materialising them: the
    /// lengths of its two [`Self::ranges`] add. `O(log n)`, no allocation.
    pub fn count(&self, pattern: TriplePattern) -> usize {
        self.ranges(pattern).iter().map(|rows| rows.len()).sum()
    }
}

/// Merges two runs that are each sorted (and jointly duplicate-free) under
/// `perm`'s key into one sorted vector.
fn merge_sorted(base: &[SpoRow], delta: &[SpoRow], perm: Permutation) -> Vec<SpoRow> {
    #[cfg(test)]
    ROWS_COPIED.with(|copied| copied.set(copied.get() + base.len() + delta.len()));
    if delta.is_empty() {
        return base.to_vec();
    }
    if base.is_empty() {
        return delta.to_vec();
    }
    let mut out = Vec::with_capacity(base.len() + delta.len());
    let (mut i, mut j) = (0, 0);
    while i < base.len() && j < delta.len() {
        if key(&base[i], perm) <= key(&delta[j], perm) {
            out.push(base[i]);
            i += 1;
        } else {
            out.push(delta[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&base[i..]);
    out.extend_from_slice(&delta[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::figure1_graph;
    use crate::graph::EdgeLabel;
    use crate::triple::Triple;
    use proptest::prelude::*;

    fn store_and_graph() -> (TripleStore, DataGraph) {
        let g = figure1_graph();
        (TripleStore::build(&g), g)
    }

    fn relation(g: &DataGraph, name: &str) -> EdgeLabelId {
        g.edge_label_id(&EdgeLabel::Relation(g.symbol(name).unwrap()))
            .unwrap()
    }

    /// The four pattern shapes around each row: its predicate alone, with
    /// its object, with its subject, and with both.
    fn every_shape(rows: &[SpoRow]) -> Vec<TriplePattern> {
        rows.iter()
            .flat_map(|r| {
                let p = TriplePattern::new(r.predicate);
                [
                    p,
                    p.with_object(r.object),
                    p.with_subject(r.subject),
                    p.with_subject(r.subject).with_object(r.object),
                ]
            })
            .collect()
    }

    /// The figure-1 rows split into a base store plus a delta overlay, both
    /// fed in scrambled order.
    fn overlaid(flat: &TripleStore, g: &DataGraph) -> TripleStore {
        let all = flat.rows();
        let (head, tail) = all.split_at(all.len() / 2);
        let mut head_rows = head.to_vec();
        head_rows.reverse();
        let mut store = TripleStore::from_rows(head_rows, g.vertex_count(), g.edge_label_count());
        let mut scrambled_tail = tail.to_vec();
        scrambled_tail.reverse();
        store.add_rows(&scrambled_tail);
        store
    }

    #[test]
    fn store_has_one_row_per_edge() {
        let (store, g) = store_and_graph();
        assert_eq!(store.len(), g.edge_count());
        assert!(!store.is_empty());
    }

    #[test]
    fn full_scan_returns_everything() {
        let (store, g) = store_and_graph();
        let rows = store.rows();
        assert_eq!(rows.len(), g.edge_count());
        assert!(rows
            .windows(2)
            .all(|w| key(&w[0], Permutation::Spo) < key(&w[1], Permutation::Spo)));
    }

    /// The rows matching `pattern`: its two borrowed ranges, each checked
    /// sorted in the permutation that serves the pattern, merged.
    fn scan(store: &TripleStore, pattern: TriplePattern) -> Vec<SpoRow> {
        let perm = match pattern.subject {
            Some(_) => Permutation::Spo,
            None => Permutation::Pos,
        };
        let [base, delta] = store.ranges(pattern);
        for run in [base, delta] {
            assert!(run.windows(2).all(|w| key(&w[0], perm) < key(&w[1], perm)));
        }
        merge_sorted(base, delta, perm)
    }

    #[test]
    fn subject_bound_scan() {
        let (store, g) = store_and_graph();
        let pub1 = g.entity("pub1URI").unwrap();
        let author = relation(&g, "author");
        let rows = scan(&store, TriplePattern::new(author).with_subject(pub1));
        assert_eq!(rows.len(), 2, "pub1 has two authors");
        assert!(rows
            .iter()
            .all(|r| r.subject == pub1 && r.predicate == author));
    }

    #[test]
    fn predicate_bound_scan() {
        let (store, g) = store_and_graph();
        let author = relation(&g, "author");
        let rows = scan(&store, TriplePattern::new(author));
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.predicate == author));
    }

    #[test]
    fn fully_bound_scan_behaves_like_contains() {
        let (store, g) = store_and_graph();
        let pub1 = g.entity("pub1URI").unwrap();
        let re1 = g.entity("re1URI").unwrap();
        let author = relation(&g, "author");
        let hit = scan(
            &store,
            TriplePattern::new(author)
                .with_subject(pub1)
                .with_object(re1),
        );
        assert_eq!(hit.len(), 1);
        let miss = scan(
            &store,
            TriplePattern::new(author)
                .with_subject(re1)
                .with_object(pub1),
        );
        assert!(miss.is_empty());
    }

    #[test]
    fn predicate_object_bound_scan() {
        let (store, g) = store_and_graph();
        let type_label = g.edge_label_id(&EdgeLabel::Type).unwrap();
        let publication = g.class("Publication").unwrap();
        let rows = scan(
            &store,
            TriplePattern::new(type_label).with_object(publication),
        );
        assert_eq!(rows.len(), 2, "pub1 and pub2 are Publications");
    }

    /// Every shape, over a flat store and a base+delta store, and over
    /// patterns that match (built from a row) and mostly miss (built from a
    /// row with subject and object swapped): `count` equals the length of
    /// the merged ranges, and neither `count` nor `ranges` copies a row.
    #[test]
    fn counts_are_consistent_with_scans() {
        let (flat, g) = store_and_graph();
        let overlaid = overlaid(&flat, &g);
        let rows = flat.rows();
        let swapped: Vec<SpoRow> = rows
            .iter()
            .map(|r| SpoRow {
                subject: r.object,
                predicate: r.predicate,
                object: r.subject,
            })
            .collect();
        let mut patterns = every_shape(&rows);
        patterns.extend(every_shape(&swapped));
        for store in [&flat, &overlaid] {
            ROWS_COPIED.set(0);
            let counts: Vec<usize> = patterns.iter().map(|&p| store.count(p)).collect();
            assert_eq!(ROWS_COPIED.get(), 0, "count must not copy rows");
            let ranged: Vec<usize> = patterns
                .iter()
                .map(|&p| store.ranges(p).iter().map(|run| run.len()).sum())
                .collect();
            assert_eq!(ROWS_COPIED.get(), 0, "ranges must not copy rows");
            let scanned: Vec<usize> = patterns.iter().map(|&p| scan(store, p).len()).collect();
            assert_eq!(counts, scanned);
            assert_eq!(ranged, scanned);
            assert!(counts.contains(&0) && counts.iter().any(|&n| n > 1));
        }
    }

    #[test]
    fn empty_graph_store() {
        let g = DataGraph::new();
        let store = TripleStore::build(&g);
        assert!(store.is_empty());
        assert!(store.rows().is_empty());
        assert_eq!(store.count(TriplePattern::new(EdgeLabelId(0))), 0);
    }

    /// Splits the figure-1 rows into a base store plus a delta overlay and
    /// checks every pattern's merged ranges match the flat build.
    #[test]
    fn delta_overlay_scans_match_a_flat_build() {
        let (flat, g) = store_and_graph();
        let overlaid = overlaid(&flat, &g);
        assert!(overlaid.has_delta());
        assert_eq!(overlaid.delta_len(), flat.len() - flat.len() / 2);
        assert_eq!(overlaid.len(), flat.len());
        assert_eq!(overlaid.rows(), flat.rows());
        for pattern in every_shape(&flat.rows()) {
            assert_eq!(
                scan(&overlaid, pattern),
                scan(&flat, pattern),
                "pattern {pattern:?} must not see the base/delta split"
            );
        }
    }

    /// Today's order, by comparison: the oracle the counting-sort build must
    /// equal, permutation by permutation.
    fn comparison_sorted(rows: &[SpoRow]) -> [Vec<SpoRow>; 2] {
        let mut rows = rows.to_vec();
        rows.sort_by_key(|r| key(r, Permutation::Spo));
        let spo = rows.clone();
        rows.sort_by_key(|r| key(r, Permutation::Pos));
        [spo, rows]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On random graphs — parallel edges under different labels, self
        /// loops, isolated vertices — both permutations of the
        /// counting-sort build equal the comparison sort.
        #[test]
        fn build_equals_the_comparison_sort(
            edges in proptest::collection::vec((0usize..12, 0usize..4, 0usize..12), 0..60),
            types in proptest::collection::vec((0usize..12, 0usize..3), 0..12),
        ) {
            let mut g = DataGraph::new();
            for (s, p, o) in &edges {
                g.insert_triple(&Triple::relation(format!("e{s}"), format!("r{p}"), format!("e{o}")))
                    .unwrap();
            }
            for (e, c) in &types {
                g.insert_triple(&Triple::typed(format!("e{e}"), format!("C{c}")))
                    .unwrap();
            }
            let rows: Vec<SpoRow> = g
                .edges()
                .map(|e| {
                    let edge = g.edge(e);
                    SpoRow { subject: edge.from, predicate: edge.label, object: edge.to }
                })
                .collect();
            let [spo, pos] = comparison_sorted(&rows);
            let store = TripleStore::build(&g);
            prop_assert_eq!(&store.base.spo, &spo);
            prop_assert_eq!(&store.base.pos, &pos);
        }
    }
}
