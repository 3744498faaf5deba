//! Top-k candidate management (Algorithm 2).
//!
//! Following the Threshold Algorithm, the exploration maintains
//!
//! * a **candidate list** `LG'` of matching subgraphs discovered so far,
//!   kept sorted by cost and truncated to the k best (this module), and
//! * a lower bound on the cost of every candidate still to be generated —
//!   the completion bound, stated with its admissibility argument in the
//!   [`crate::exploration`] module doc.
//!
//! The search may stop as soon as the k-th best candidate costs less than
//! that lower bound: no undiscovered subgraph can displace the current top-k.
//! The same k-th cost also cuts the per-pop work here: a combination that
//! costs at least as much is one [`CandidateList::add`] would reject, so
//! [`combinations_with_new_cursor`] never builds it.

use kwsearch_summary::{AugmentedSummaryGraph, SummaryElement};

use crate::cursor::{CursorArena, CursorId};
use crate::subgraph::{MatchingSubgraph, SubgraphPath};

/// The candidate list `LG'` of Algorithm 2.
///
/// Candidates are kept sorted by ascending cost; insertion is a binary
/// search plus one `Vec::insert` (the list never exceeds `k` entries).
/// Deduplication probes the element-set hash cached on
/// [`MatchingSubgraph`] — integer compares, no re-hashing of element sets
/// and no side index to keep consistent.
#[derive(Debug, Clone)]
pub struct CandidateList {
    k: usize,
    candidates: Vec<MatchingSubgraph>,
}

impl CandidateList {
    /// Creates an empty list that keeps the `k` best candidates.
    pub fn new(k: usize) -> Self {
        Self {
            k: k.max(1),
            candidates: Vec::new(),
        }
    }

    /// Adds a candidate subgraph. Subgraphs with the same element set are
    /// deduplicated, keeping the cheaper one. Returns `true` if the list
    /// changed.
    // lint: hot-path
    pub fn add(&mut self, subgraph: MatchingSubgraph) -> bool {
        // Fast path (`k-best(LG')`): a full list rejects anything not
        // strictly cheaper than the current k-th candidate. This also covers
        // duplicates: a stored duplicate costs at most the k-th candidate,
        // so a newcomer at or above that cost can never improve it.
        if self.candidates.len() >= self.k && subgraph.cost >= self.candidates[self.k - 1].cost {
            return false;
        }
        // Duplicate probe: cached hash first, element-set compare only on a
        // hash match.
        if let Some(idx) = self
            .candidates
            .iter()
            .position(|c| c.same_elements(&subgraph))
        {
            if subgraph.cost < self.candidates[idx].cost {
                // Improvement: move the entry to its new cost position. The
                // insertion point (after all equal-cost entries) reproduces
                // the former stable re-sort exactly.
                self.candidates.remove(idx);
                let pos = self.candidates.partition_point(|c| c.cost <= subgraph.cost);
                self.candidates.insert(pos, subgraph);
                return true;
            }
            return false;
        }
        let pos = self.candidates.partition_point(|c| c.cost <= subgraph.cost);
        self.candidates.insert(pos, subgraph);
        self.candidates.truncate(self.k);
        true
    }

    /// The cost of the k-th best candidate ("highestCost" in Algorithm 2),
    /// if at least `k` candidates exist.
    pub fn kth_cost(&self) -> Option<f64> {
        if self.candidates.len() >= self.k {
            Some(self.candidates[self.k - 1].cost)
        } else {
            None
        }
    }

    /// Number of candidates currently held (at most `k`).
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// The candidates in ascending cost order.
    pub fn best(&self) -> &[MatchingSubgraph] {
        &self.candidates
    }

    /// Consumes the list and returns the candidates in ascending cost order.
    pub fn into_best(self) -> Vec<MatchingSubgraph> {
        self.candidates
    }
}

/// Generates the new candidate subgraphs that arise when `new_cursor`
/// (for keyword `new_cursor.keyword`) reaches an element whose per-keyword
/// path lists are `paths_at_element`.
///
/// Every combination that includes the new cursor could be enumerated (the
/// paper's "cursorCombinations(n)"), but only the `max_combinations`
/// **cheapest** ones can ever make it into the k-best candidate list, so the
/// enumeration is bounded: the per-keyword path lists are sorted by cost
/// (cursors are processed in non-decreasing cost order, Theorem 1), and a
/// best-first walk over the combination lattice yields the cheapest
/// combinations first. Skipped combinations are dominated by
/// `max_combinations` cheaper candidates through the same element and can
/// therefore never enter the top-k.
///
/// The walk also stops at the first combination that costs `below` or more
/// (pass the k-th candidate's cost, ∞ while the list is not full): it and
/// every later one would be rejected by [`CandidateList::add`]. When even
/// the cheapest combination — the new cursor plus every other keyword's
/// first path — costs that much, nothing is allocated at all.
pub fn combinations_with_new_cursor(
    graph: &AugmentedSummaryGraph<'_>,
    arena: &CursorArena,
    element: SummaryElement,
    paths_at_element: &[Vec<CursorId>],
    new_cursor: CursorId,
    max_combinations: usize,
    below: f64,
) -> Vec<MatchingSubgraph> {
    let new_keyword = arena.get(new_cursor).keyword;
    // The element is a connecting element only if every keyword has at least
    // one path ending here; the new cursor itself covers its own keyword.
    // The sum runs in keyword order, exactly like a subgraph's cost.
    let cheapest: Option<f64> = paths_at_element
        .iter()
        .enumerate()
        .map(|(keyword, cursors)| {
            if keyword == new_keyword {
                Some(arena.get(new_cursor).cost)
            } else {
                cursors.first().map(|&cursor| arena.get(cursor).cost)
            }
        })
        .sum();
    if cheapest.is_none_or(|cost| cost >= below) {
        return Vec::new();
    }

    // Per-keyword choice lists: the new cursor is fixed for its own keyword.
    let new_cursor_slice = [new_cursor];
    let choices: Vec<&[CursorId]> = paths_at_element
        .iter()
        .enumerate()
        .map(|(keyword, cursors)| {
            if keyword == new_keyword {
                &new_cursor_slice[..]
            } else {
                cursors.as_slice()
            }
        })
        .collect();

    let combos = cheapest_combinations(arena, &choices, max_combinations, below);

    combos
        .into_iter()
        .map(|cursor_choice| {
            let paths: Vec<SubgraphPath> = cursor_choice
                .iter()
                .enumerate()
                .map(|(keyword, &cursor_id)| {
                    let cursor = arena.get(cursor_id);
                    SubgraphPath {
                        keyword,
                        elements: arena.path(cursor_id),
                        cost: cursor.cost,
                    }
                })
                .collect();
            debug_assert!(paths.iter().all(|p| p.elements.last() == Some(&element)));
            let subgraph = MatchingSubgraph::new(element, paths);
            debug_assert!(subgraph.is_connected(graph));
            subgraph
        })
        .collect()
}

/// Best-first enumeration of the `limit` cheapest combinations (one cursor
/// per keyword) costing less than `below`, from per-keyword choice lists
/// that are sorted by ascending cursor cost. The classic "k smallest sums"
/// walk: start from the all-zeros index vector and expand by incrementing
/// one position at a time; combinations come out in ascending cost, so the
/// walk ends at the first one that reaches `below`.
fn cheapest_combinations(
    arena: &CursorArena,
    choices: &[&[CursorId]],
    limit: usize,
    below: f64,
) -> Vec<Vec<CursorId>> {
    use std::collections::{BTreeSet, BinaryHeap};

    #[derive(PartialEq)]
    struct Entry {
        cost: f64,
        indices: Vec<usize>,
    }
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Min-heap by cost.
            other
                .cost
                .total_cmp(&self.cost)
                .then_with(|| other.indices.cmp(&self.indices))
        }
    }

    let cost_of = |indices: &[usize]| -> f64 {
        indices
            .iter()
            .zip(choices)
            .map(|(&i, list)| arena.get(list[i]).cost)
            .sum()
    };

    let mut out = Vec::new();
    if choices.iter().any(|list| list.is_empty()) || limit == 0 {
        return out;
    }
    let start = vec![0usize; choices.len()];
    let mut heap = BinaryHeap::new();
    let mut seen: BTreeSet<Vec<usize>> = BTreeSet::new();
    heap.push(Entry {
        cost: cost_of(&start),
        indices: start.clone(),
    });
    seen.insert(start);

    while let Some(entry) = heap.pop() {
        if entry.cost >= below {
            break;
        }
        let combo: Vec<CursorId> = entry
            .indices
            .iter()
            .zip(choices)
            .map(|(&i, list)| list[i])
            .collect();
        out.push(combo);
        if out.len() >= limit {
            break;
        }
        for position in 0..choices.len() {
            if entry.indices[position] + 1 >= choices[position].len() {
                continue;
            }
            let mut next = entry.indices.clone();
            next[position] += 1;
            if seen.insert(next.clone()) {
                heap.push(Entry {
                    cost: cost_of(&next),
                    indices: next,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::Cursor;
    use kwsearch_keyword_index::KeywordIndex;
    use kwsearch_rdf::fixtures::figure1_graph;
    use kwsearch_rdf::DataGraph;
    use kwsearch_summary::SummaryGraph;

    fn augmented<'g>(graph: &'g DataGraph, keywords: &[&str]) -> AugmentedSummaryGraph<'g> {
        let base = SummaryGraph::build(graph);
        let index = KeywordIndex::build(graph);
        let matches = index.lookup_all(keywords);
        AugmentedSummaryGraph::build(graph, &base, &matches)
    }

    fn toy_subgraph(
        graph: &AugmentedSummaryGraph<'_>,
        cost: f64,
        extra: usize,
    ) -> MatchingSubgraph {
        let elements: Vec<SummaryElement> = graph.elements().take(2 + extra).collect();
        let connecting = *elements.last().unwrap();
        MatchingSubgraph::new(
            connecting,
            vec![SubgraphPath {
                keyword: 0,
                elements,
                cost,
            }],
        )
    }

    #[test]
    fn candidate_list_keeps_the_k_best_sorted() {
        let g = figure1_graph();
        let aug = augmented(&g, &["aifb"]);
        let mut list = CandidateList::new(2);
        assert_eq!(list.len(), 0);
        list.add(toy_subgraph(&aug, 5.0, 0));
        list.add(toy_subgraph(&aug, 1.0, 1));
        list.add(toy_subgraph(&aug, 3.0, 2));
        assert_eq!(list.len(), 2);
        let costs: Vec<f64> = list.best().iter().map(|s| s.cost).collect();
        assert_eq!(costs, vec![1.0, 3.0]);
        assert_eq!(list.kth_cost(), Some(3.0));
    }

    #[test]
    fn kth_cost_requires_k_candidates() {
        let g = figure1_graph();
        let aug = augmented(&g, &["aifb"]);
        let mut list = CandidateList::new(3);
        list.add(toy_subgraph(&aug, 2.0, 0));
        assert_eq!(list.kth_cost(), None);
        list.add(toy_subgraph(&aug, 4.0, 1));
        list.add(toy_subgraph(&aug, 6.0, 2));
        assert_eq!(list.kth_cost(), Some(6.0));
    }

    #[test]
    fn duplicate_element_sets_keep_the_cheaper_cost() {
        let g = figure1_graph();
        let aug = augmented(&g, &["aifb"]);
        let mut list = CandidateList::new(5);
        assert!(list.add(toy_subgraph(&aug, 4.0, 0)));
        // Same elements, higher cost: rejected.
        assert!(!list.add(toy_subgraph(&aug, 9.0, 0)));
        // Same elements, lower cost: replaces the old entry.
        assert!(list.add(toy_subgraph(&aug, 2.0, 0)));
        assert_eq!(list.len(), 1);
        assert!((list.best()[0].cost - 2.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_improvement_reorders_and_keeps_the_list_consistent() {
        // Regression test for the former `add` implementation, which did a
        // full re-sort plus two index rebuilds per insertion: an improvement
        // to an existing element set must move that entry to its new cost
        // position, keep exactly one entry per element set, and leave
        // `kth_cost` consistent.
        let g = figure1_graph();
        let aug = augmented(&g, &["aifb"]);
        let mut list = CandidateList::new(3);
        assert!(list.add(toy_subgraph(&aug, 2.0, 0)));
        assert!(list.add(toy_subgraph(&aug, 5.0, 1)));
        assert!(list.add(toy_subgraph(&aug, 7.0, 2)));
        assert_eq!(list.kth_cost(), Some(7.0));
        // Improving the most expensive entry past the cheapest must reorder.
        assert!(list.add(toy_subgraph(&aug, 1.0, 2)));
        let costs: Vec<f64> = list.best().iter().map(|s| s.cost).collect();
        assert_eq!(costs, vec![1.0, 2.0, 5.0]);
        assert_eq!(list.kth_cost(), Some(5.0));
        // Exactly one entry per element set survives the improvement.
        assert_eq!(list.len(), 3);
        let mut hashes: Vec<u64> = list.best().iter().map(|s| s.element_hash()).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(
            hashes.len(),
            3,
            "no duplicate element sets after improvement"
        );
        // A worse duplicate of the improved entry is still rejected…
        assert!(!list.add(toy_subgraph(&aug, 6.0, 2)));
        // …even when the list is full and the duplicate beats the k-th cost.
        assert!(!list.add(toy_subgraph(&aug, 1.5, 2)));
        let costs: Vec<f64> = list.best().iter().map(|s| s.cost).collect();
        assert_eq!(costs, vec![1.0, 2.0, 5.0]);
        // An improvement that ties another entry's cost lands after it
        // (matching the former stable re-sort).
        assert!(list.add(toy_subgraph(&aug, 2.0, 1)));
        let costs: Vec<f64> = list.best().iter().map(|s| s.cost).collect();
        assert_eq!(costs, vec![1.0, 2.0, 2.0]);
        assert_eq!(
            list.best()[2].size(),
            3,
            "the improved entry sorts after the tie"
        );
    }

    #[test]
    fn combinations_require_paths_for_every_keyword() {
        let g = figure1_graph();
        let aug = augmented(&g, &["aifb", "cimiano"]);
        let mut arena = CursorArena::new();
        let value = aug.keyword_elements()[0][0].element;
        let c0 = arena.push(Cursor {
            element: value,
            keyword: 0,
            parent: None,
            distance: 0,
            cost: 1.0,
        });
        // Keyword 1 has no path at the element yet: no combinations.
        let combos = combinations_with_new_cursor(
            &aug,
            &arena,
            value,
            &[vec![c0], vec![]],
            c0,
            10,
            f64::INFINITY,
        );
        assert!(combos.is_empty());
    }

    #[test]
    fn the_walk_returns_exactly_the_combinations_below_the_bound_in_cost_order() {
        let g = figure1_graph();
        let aug = augmented(&g, &["aifb"]);
        let element = aug.keyword_elements()[0][0].element;
        let mut arena = CursorArena::new();
        // Dyadic costs keep every sum exact; 1 + 0.5 + 2.5 lands on 4.0.
        let lists: Vec<Vec<CursorId>> = [vec![1.0, 2.0, 4.0], vec![0.5, 1.5], vec![0.25, 2.5]]
            .iter()
            .enumerate()
            .map(|(keyword, costs)| {
                costs
                    .iter()
                    .map(|&cost| {
                        arena.push(Cursor {
                            element,
                            keyword,
                            parent: None,
                            distance: 0,
                            cost,
                        })
                    })
                    .collect()
            })
            .collect();
        let choices: Vec<&[CursorId]> = lists.iter().map(Vec::as_slice).collect();
        // Brute force: every combination, in index order, stably sorted by
        // cost — the walk's tie-break is the index vector.
        let mut all: Vec<(f64, Vec<CursorId>)> = Vec::new();
        for &a in &lists[0] {
            for &b in &lists[1] {
                for &c in &lists[2] {
                    let combo = vec![a, b, c];
                    let cost = combo.iter().map(|&id| arena.get(id).cost).sum();
                    all.push((cost, combo));
                }
            }
        }
        all.sort_by(|x, y| x.0.total_cmp(&y.0));
        for below in [f64::INFINITY, 4.0, 2.75, 1.75] {
            let want: Vec<Vec<CursorId>> = all
                .iter()
                .filter(|(cost, _)| *cost < below)
                .map(|(_, combo)| combo.clone())
                .collect();
            let got = cheapest_combinations(&arena, &choices, usize::MAX, below);
            assert_eq!(got, want, "bound {below}");
        }
        // The bound and the count limit compose: the limit still cuts first.
        assert_eq!(
            cheapest_combinations(&arena, &choices, 2, 4.0),
            all[..2].iter().map(|(_, c)| c.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn combinations_enumerate_the_cartesian_product() {
        let g = figure1_graph();
        let aug = augmented(&g, &["aifb", "institute"]);
        // Build, by hand, two alternative paths for keyword 0 and a new
        // cursor for keyword 1 that all end at the Institute class node.
        let value = aug.keyword_elements()[0][0].element;
        let name_edge = aug.neighbors(value)[0];
        let institute = aug
            .neighbors(name_edge)
            .iter()
            .copied()
            .find(|&n| n != value)
            .unwrap();

        let mut arena = CursorArena::new();
        let origin0 = arena.push(Cursor {
            element: value,
            keyword: 0,
            parent: None,
            distance: 0,
            cost: 1.0,
        });
        let via_edge = arena.push(Cursor {
            element: name_edge,
            keyword: 0,
            parent: Some(origin0),
            distance: 1,
            cost: 2.0,
        });
        let path_a = arena.push(Cursor {
            element: institute,
            keyword: 0,
            parent: Some(via_edge),
            distance: 2,
            cost: 3.0,
        });
        // A second (cheaper) arrival of keyword 0 at the institute node.
        let path_b = arena.push(Cursor {
            element: institute,
            keyword: 0,
            parent: Some(via_edge),
            distance: 2,
            cost: 2.5,
        });
        // Keyword 1 starts at the institute class node directly.
        let new_cursor = arena.push(Cursor {
            element: institute,
            keyword: 1,
            parent: None,
            distance: 0,
            cost: 0.5,
        });

        let combos = combinations_with_new_cursor(
            &aug,
            &arena,
            institute,
            &[vec![path_a, path_b], vec![]],
            new_cursor,
            10,
            f64::INFINITY,
        );
        // The new cursor is fixed for keyword 1; keyword 0 offers two paths.
        assert_eq!(combos.len(), 2);
        let costs: Vec<f64> = combos.iter().map(|s| s.cost).collect();
        assert!(costs.contains(&3.5));
        assert!(costs.contains(&3.0));
        for combo in &combos {
            assert_eq!(combo.connecting_element, institute);
            assert_eq!(combo.keyword_count(), 2);
        }
    }
}
