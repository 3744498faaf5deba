//! Indexed triple store.
//!
//! The paper's architecture processes the generated conjunctive query with
//! "the underlying database engine". This module provides that engine's
//! storage layer: a [`TripleStore`] holding the data graph's edges as
//! `(subject, predicate-label, object)` rows in three sorted permutations
//! (SPO, POS, OSP), so that any triple pattern with bound/unbound positions
//! can be answered by a binary-searched range scan.
//!
//! The permutations are a pure function of the graph's edge columns, so the
//! store is never persisted: a snapshot load derives it with
//! [`TripleStore::build`], a chain of stable counting sorts over the dense
//! ids.

use std::sync::Arc;

use crate::graph::{counting_sort, DataGraph, EdgeLabelId, VertexId};

/// A triple pattern: each position is either bound to a concrete id or a
/// wildcard (`None`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TriplePattern {
    /// Bound subject vertex, if any.
    pub subject: Option<VertexId>,
    /// Bound predicate label, if any.
    pub predicate: Option<EdgeLabelId>,
    /// Bound object vertex, if any.
    pub object: Option<VertexId>,
}

impl TriplePattern {
    /// Pattern with all positions unbound.
    pub fn any() -> Self {
        Self::default()
    }

    /// Sets the subject.
    pub fn with_subject(mut self, s: VertexId) -> Self {
        self.subject = Some(s);
        self
    }

    /// Sets the predicate.
    pub fn with_predicate(mut self, p: EdgeLabelId) -> Self {
        self.predicate = Some(p);
        self
    }

    /// Sets the object.
    pub fn with_object(mut self, o: VertexId) -> Self {
        self.object = Some(o);
        self
    }

    /// Number of bound positions (0–3).
    pub fn bound_positions(&self) -> usize {
        self.subject.is_some() as usize
            + self.predicate.is_some() as usize
            + self.object.is_some() as usize
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

/// The frozen bulk of a [`TripleStore`]: three sorted permutations built
/// once and shared (via [`Arc`]) across every clone of the store, so a
/// live-update snapshot clones in O(delta), not O(base).
#[derive(Debug, Default)]
struct BaseRows {
    /// Rows sorted by (subject, predicate, object).
    spo: Vec<SpoRow>,
    /// Rows sorted by (predicate, object, subject).
    pos: Vec<SpoRow>,
    /// Rows sorted by (object, subject, predicate).
    osp: Vec<SpoRow>,
}

/// Sorted-permutation index over the edges of a [`DataGraph`].
///
/// The store is a frozen, `Arc`-shared base derived from the graph's edge
/// columns by [`Self::build`], plus a small sorted delta per permutation
/// (the live-update overlay; empty for frozen builds). Every scan
/// binary-searches both sides and merges, so results are always in
/// permutation order and bit-identical to a from-scratch build over the
/// same row set — per-permutation keys are unique, which makes the merge
/// order unambiguous.
#[derive(Debug, Clone, Default)]
pub struct TripleStore {
    base: Arc<BaseRows>,
    /// Delta rows sorted by (subject, predicate, object).
    delta_spo: Vec<SpoRow>,
    /// Delta rows sorted by (predicate, object, subject).
    delta_pos: Vec<SpoRow>,
    /// Delta rows sorted by (object, subject, predicate).
    delta_osp: Vec<SpoRow>,
}

#[derive(Debug, Clone, Copy)]
enum Permutation {
    Spo,
    Pos,
    Osp,
}

fn key(row: &SpoRow, perm: Permutation) -> (u32, u32, u32) {
    match perm {
        Permutation::Spo => (row.subject.0, row.predicate.0, row.object.0),
        Permutation::Pos => (row.predicate.0, row.object.0, row.subject.0),
        Permutation::Osp => (row.object.0, row.subject.0, row.predicate.0),
    }
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
    /// significant key first: SPO is the rows sorted by object, then
    /// predicate, then subject; OSP is SPO sorted by object (each object's
    /// rows keep their (subject, predicate) order); POS is OSP sorted by
    /// predicate. Keys are unique within a permutation, so this is exactly
    /// the comparison-sorted order. The passes ping-pong between `rows` and
    /// one scratch buffer, which become SPO and OSP.
    fn from_rows(mut rows: Vec<SpoRow>, vertices: usize, labels: usize) -> Self {
        let subject = |r: &SpoRow| r.subject.index();
        let predicate = |r: &SpoRow| r.predicate.index();
        let object = |r: &SpoRow| r.object.index();
        let row = |_: usize, r: &SpoRow| *r;
        // Only the length matters: every pass overwrites all of its output.
        let mut spo = rows.clone();
        counting_sort(&rows, &mut spo, vertices, object, row);
        counting_sort(&spo, &mut rows, labels, predicate, row);
        counting_sort(&rows, &mut spo, vertices, subject, row);
        counting_sort(&spo, &mut rows, vertices, object, row);
        let osp = rows;
        let mut pos = osp.clone();
        counting_sort(&osp, &mut pos, labels, predicate, row);
        Self {
            base: Arc::new(BaseRows { spo, pos, osp }),
            delta_spo: Vec::new(),
            delta_pos: Vec::new(),
            delta_osp: Vec::new(),
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
                self.scan(TriplePattern {
                    subject: Some(r.subject),
                    predicate: Some(r.predicate),
                    object: Some(r.object),
                })
                .is_empty()
            }),
            "delta rows must not duplicate existing rows"
        );
        self.delta_spo.extend_from_slice(rows);
        self.delta_pos.extend_from_slice(rows);
        self.delta_osp.extend_from_slice(rows);
        self.delta_spo.sort_by_key(|r| key(r, Permutation::Spo));
        self.delta_pos.sort_by_key(|r| key(r, Permutation::Pos));
        self.delta_osp.sort_by_key(|r| key(r, Permutation::Osp));
    }

    /// Whether any delta rows are overlaid on the shared base.
    pub fn has_delta(&self) -> bool {
        !self.delta_spo.is_empty()
    }

    /// Number of delta rows overlaid on the shared base.
    pub fn delta_len(&self) -> usize {
        self.delta_spo.len()
    }

    /// All rows of one permutation, base and delta merged in key order.
    fn merged(&self, perm: Permutation) -> Vec<SpoRow> {
        let (base, delta) = self.rows(perm);
        merge_sorted(base, delta, perm)
    }

    fn rows(&self, perm: Permutation) -> (&[SpoRow], &[SpoRow]) {
        match perm {
            Permutation::Spo => (&self.base.spo, &self.delta_spo),
            Permutation::Pos => (&self.base.pos, &self.delta_pos),
            Permutation::Osp => (&self.base.osp, &self.delta_osp),
        }
    }

    /// Number of rows (equal to the graph's edge count).
    pub fn len(&self) -> usize {
        self.base.spo.len() + self.delta_spo.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap size in bytes (for the Fig. 6b index-size report).
    pub fn heap_bytes(&self) -> usize {
        3 * self.len() * std::mem::size_of::<SpoRow>()
    }

    fn scan_permutation(
        &self,
        perm: Permutation,
        first: Option<u32>,
        second: Option<u32>,
        third: Option<u32>,
    ) -> Vec<SpoRow> {
        debug_assert!(
            !(first.is_none() && (second.is_some() || third.is_some())),
            "bound positions must form a prefix of the permutation"
        );
        debug_assert!(
            !(second.is_none() && third.is_some()),
            "bound positions must form a prefix of the permutation"
        );
        let lower = (first.unwrap_or(0), second.unwrap_or(0), third.unwrap_or(0));
        let upper = (
            first.unwrap_or(u32::MAX),
            second.unwrap_or(u32::MAX),
            third.unwrap_or(u32::MAX),
        );
        let range = |rows: &[SpoRow]| {
            let start = rows.partition_point(|r| key(r, perm) < lower);
            let end = rows.partition_point(|r| key(r, perm) <= upper);
            (start, end)
        };
        let (base, delta) = self.rows(perm);
        let (bs, be) = range(base);
        if delta.is_empty() {
            return base[bs..be].to_vec();
        }
        let (ds, de) = range(delta);
        merge_sorted(&base[bs..be], &delta[ds..de], perm)
    }

    /// Returns all rows matching `pattern`.
    ///
    /// The permutation is chosen so the bound positions form a prefix of the
    /// sort key, which makes every pattern a contiguous range scan.
    pub fn scan(&self, pattern: TriplePattern) -> Vec<SpoRow> {
        let TriplePattern {
            subject: s,
            predicate: p,
            object: o,
        } = pattern;
        match (s, p, o) {
            // Fully bound or s-prefix bound -> SPO.
            (Some(s), p, _) => {
                // SPO supports (s), (s,p), (s,p,o).
                match (p, o) {
                    (Some(p), o) => self.scan_permutation(
                        Permutation::Spo,
                        Some(s.0),
                        Some(p.0),
                        o.map(|v| v.0),
                    ),
                    (None, None) => self.scan_permutation(Permutation::Spo, Some(s.0), None, None),
                    // (s, ?, o) -> OSP prefix (o, s).
                    (None, Some(o)) => {
                        self.scan_permutation(Permutation::Osp, Some(o.0), Some(s.0), None)
                    }
                }
            }
            // Predicate-prefix bound -> POS.
            (None, Some(p), o) => {
                self.scan_permutation(Permutation::Pos, Some(p.0), o.map(|v| v.0), None)
            }
            // Object-only bound -> OSP.
            (None, None, Some(o)) => self.scan_permutation(Permutation::Osp, Some(o.0), None, None),
            // Nothing bound -> full scan.
            (None, None, None) => self.merged(Permutation::Spo),
        }
    }

    /// Counts the rows matching `pattern` without materialising them.
    pub fn count(&self, pattern: TriplePattern) -> usize {
        self.scan(pattern).len()
    }
}

/// Merges two runs that are each sorted (and jointly duplicate-free) under
/// `perm`'s key into one sorted vector.
fn merge_sorted(base: &[SpoRow], delta: &[SpoRow], perm: Permutation) -> Vec<SpoRow> {
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

    #[test]
    fn store_has_one_row_per_edge() {
        let (store, g) = store_and_graph();
        assert_eq!(store.len(), g.edge_count());
        assert!(!store.is_empty());
    }

    #[test]
    fn full_scan_returns_everything() {
        let (store, g) = store_and_graph();
        assert_eq!(store.scan(TriplePattern::any()).len(), g.edge_count());
    }

    #[test]
    fn subject_bound_scan() {
        let (store, g) = store_and_graph();
        let pub1 = g.entity("pub1URI").unwrap();
        let rows = store.scan(TriplePattern::any().with_subject(pub1));
        assert_eq!(rows.len(), g.out_edges(pub1).len());
        assert!(rows.iter().all(|r| r.subject == pub1));
    }

    #[test]
    fn predicate_bound_scan() {
        let (store, g) = store_and_graph();
        let author_sym = g.symbol("author").unwrap();
        let author = g.edge_label_id(&EdgeLabel::Relation(author_sym)).unwrap();
        let rows = store.scan(TriplePattern::any().with_predicate(author));
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.predicate == author));
    }

    #[test]
    fn object_bound_scan() {
        let (store, g) = store_and_graph();
        let inst1 = g.entity("inst1URI").unwrap();
        let rows = store.scan(TriplePattern::any().with_object(inst1));
        assert_eq!(rows.len(), g.in_edges(inst1).len());
        assert!(rows.iter().all(|r| r.object == inst1));
    }

    #[test]
    fn subject_object_bound_scan() {
        let (store, g) = store_and_graph();
        let pub1 = g.entity("pub1URI").unwrap();
        let re1 = g.entity("re1URI").unwrap();
        let rows = store.scan(TriplePattern::any().with_subject(pub1).with_object(re1));
        assert_eq!(rows.len(), 1);
        assert_eq!(g.edge_label_name(rows[0].predicate), "author");
    }

    #[test]
    fn fully_bound_scan_behaves_like_contains() {
        let (store, g) = store_and_graph();
        let pub1 = g.entity("pub1URI").unwrap();
        let re1 = g.entity("re1URI").unwrap();
        let author = g
            .edge_label_id(&EdgeLabel::Relation(g.symbol("author").unwrap()))
            .unwrap();
        let hit = store.scan(TriplePattern {
            subject: Some(pub1),
            predicate: Some(author),
            object: Some(re1),
        });
        assert_eq!(hit.len(), 1);
        let miss = store.scan(TriplePattern {
            subject: Some(re1),
            predicate: Some(author),
            object: Some(pub1),
        });
        assert!(miss.is_empty());
    }

    #[test]
    fn predicate_object_bound_scan() {
        let (store, g) = store_and_graph();
        let type_label = g.edge_label_id(&EdgeLabel::Type).unwrap();
        let publication = g.class("Publication").unwrap();
        let rows = store.scan(
            TriplePattern::any()
                .with_predicate(type_label)
                .with_object(publication),
        );
        assert_eq!(rows.len(), 2, "pub1 and pub2 are Publications");
    }

    #[test]
    fn counts_are_consistent_with_scans() {
        let (store, g) = store_and_graph();
        for v in g.vertices() {
            let p = TriplePattern::any().with_subject(v);
            assert_eq!(store.count(p), store.scan(p).len());
        }
    }

    #[test]
    fn empty_graph_store() {
        let g = DataGraph::new();
        let store = TripleStore::build(&g);
        assert!(store.is_empty());
        assert!(store.scan(TriplePattern::any()).is_empty());
    }

    /// Splits the figure-1 rows into a base store plus a delta overlay and
    /// checks every scan matches the flat build.
    #[test]
    fn delta_overlay_scans_match_a_flat_build() {
        let (flat, g) = store_and_graph();
        let all = flat.scan(TriplePattern::any());
        let (head, tail) = all.split_at(all.len() / 2);
        // Deliberately feed the base and delta in scrambled order.
        let mut head_rows = head.to_vec();
        head_rows.reverse();
        let mut overlaid =
            TripleStore::from_rows(head_rows, g.vertex_count(), g.edge_label_count());
        let mut scrambled_tail = tail.to_vec();
        scrambled_tail.reverse();
        overlaid.add_rows(&scrambled_tail);

        assert!(overlaid.has_delta());
        assert_eq!(overlaid.delta_len(), tail.len());
        assert_eq!(overlaid.len(), flat.len());
        let mut patterns = vec![TriplePattern::any()];
        for v in g.vertices() {
            patterns.push(TriplePattern::any().with_subject(v));
            patterns.push(TriplePattern::any().with_object(v));
        }
        for row in &all {
            patterns.push(TriplePattern {
                subject: Some(row.subject),
                predicate: Some(row.predicate),
                object: Some(row.object),
            });
            patterns.push(
                TriplePattern::any()
                    .with_subject(row.subject)
                    .with_object(row.object),
            );
            patterns.push(TriplePattern::any().with_predicate(row.predicate));
            patterns.push(
                TriplePattern::any()
                    .with_predicate(row.predicate)
                    .with_object(row.object),
            );
        }
        for pattern in patterns {
            assert_eq!(
                overlaid.scan(pattern),
                flat.scan(pattern),
                "pattern {pattern:?} must not see the base/delta split"
            );
        }
    }

    /// Today's order, by comparison: the oracle the counting-sort build must
    /// equal, permutation by permutation.
    fn comparison_sorted(rows: &[SpoRow]) -> [Vec<SpoRow>; 3] {
        let mut rows = rows.to_vec();
        rows.sort_by_key(|r| key(r, Permutation::Spo));
        let spo = rows.clone();
        rows.sort_by_key(|r| key(r, Permutation::Pos));
        let pos = rows.clone();
        rows.sort_by_key(|r| key(r, Permutation::Osp));
        [spo, pos, rows]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On random graphs — parallel edges under different labels, self
        /// loops, isolated vertices — all three permutations of the
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
            let [spo, pos, osp] = comparison_sorted(&rows);
            let store = TripleStore::build(&g);
            prop_assert_eq!(&store.base.spo, &spo);
            prop_assert_eq!(&store.base.pos, &pos);
            prop_assert_eq!(&store.base.osp, &osp);
        }
    }
}
