//! Algorithm 1: search for minimal matching subgraphs.
//!
//! The exploration starts with one cursor per keyword element and repeatedly
//! expands the globally cheapest cursor:
//!
//! * expansion creates new cursors for all neighbours of the visited element
//!   (vertices *and* edges, in both directions), except the element the
//!   cursor just came from and elements already on its path (no cycles
//!   within one path),
//! * every visited element keeps, per keyword, the list of cursors (paths)
//!   that reached it,
//! * after each visit the top-k procedure (Algorithm 2, the private `topk`
//!   module) checks whether the element became a *connecting element* and
//!   whether the search may stop.
//!
//! Because the cheapest cursor is always expanded first and element costs
//! are non-negative, cursors are popped in non-decreasing order of path
//! cost (Theorem 1), which makes the candidate/threshold comparison of the
//! top-k procedure sound.
//!
//! # The completion bound
//!
//! The paper stops once the k-th candidate costs less than the cheapest
//! pending cursor. A subgraph's cost is the *sum* of one path cost per
//! keyword, so that test ignores the other m − 1 paths. The exploration
//! instead tests against a completion bound `B` built from what the state
//! already records. With
//!
//! * `top` the cost of the cheapest pending cursor (∞ once none is left),
//! * `o_j` keyword j's cheapest origin cost (fixed at creation),
//! * `Q_j = max(top, o_j)`: no keyword-j cursor that is pending or not yet
//!   created costs less, since a cursor costs at least its parent and at
//!   least its origin,
//! * `r_j(e)` the cost of the first keyword-j path recorded at a visited
//!   element `e` (∞ if none) — pops come out in cost order, so the first is
//!   the cheapest,
//!
//! every candidate generated from now on joins, at some element `e`, one
//! path per keyword of which at least one (say keyword i's) is popped in
//! the future. Keyword i's path costs at least `Q_i`, every other keyword
//! j's at least `min(r_j(e), Q_j)`, so the candidate costs at least
//!
//! ```text
//! B(e) = min_i ( Q_i + Σ_{j≠i} min(r_j(e), Q_j) )
//! ```
//!
//! An element no keyword has reached yet gives `Σ_j Q_j`, which bounds
//! every `B(e)` from above. `B` is the minimum of `Σ_j Q_j` and `B(e)` over
//! the visited elements. It is admissible under all three scorings: C1, C2
//! and C3 differ only in the non-negative element cost `c(n)`, and nothing
//! above depends on which one is used. With one keyword `B = top`, the
//! paper's test; with more, `B ≥ top`, so the bound never fires later.
//!
//! **Floating point.** Each `B(e)` term is summed left to right in keyword
//! order, the order `MatchingSubgraph::new` sums a candidate's path costs.
//! Rounded addition is monotone in each operand, so summing term-wise
//! smaller non-negative values in the same order never gives a larger
//! result: no candidate's float cost falls below the float `B`.
//!
//! `B` is used in both places that need a lower bound on the future:
//!
//! * **termination** — once the k-th candidate costs less than `B`, no
//!   future candidate can enter the list ([`ExplorationState::run_to_completion`]),
//! * **certification** — a front candidate costing at most `B` can no
//!   longer be displaced ([`ExplorationState::next_certified`]).
//!
//! Computing `B` scans the visited elements (`O(visited · m²)`), but both
//! tests only need to know whether some term falls below a threshold: the
//! scan stops at the first term that does, and the element that last
//! stopped it is checked first next time.

use std::collections::BinaryHeap;

use kwsearch_summary::AugmentedSummaryGraph;

use crate::config::SearchConfig;
use crate::cursor::{Cursor, CursorArena, CursorId, QueueEntry};
use crate::subgraph::MatchingSubgraph;
use crate::topk::{combinations_with_new_cursor, CandidateList};

/// Counters describing one exploration run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExplorationStats {
    /// Total cursors created (including the initial keyword-element cursors).
    pub cursors_created: usize,
    /// Cursors popped from the queue and processed.
    pub cursors_expanded: usize,
    /// Distinct elements visited by at least one cursor.
    pub elements_visited: usize,
    /// Candidate subgraphs generated (before deduplication). Only
    /// combinations cheaper than the current k-th candidate are generated,
    /// so this counts the candidates the list could still accept.
    pub candidates_generated: usize,
    /// Entries pushed onto the global cursor queue.
    pub queue_pushes: usize,
    /// Entries popped from the global cursor queue. Pushes minus pops is the
    /// wasted work: cursors paid for but never examined because the run
    /// terminated first.
    pub queue_pops: usize,
    /// Largest number of entries simultaneously pending in the queue.
    pub peak_queue_len: usize,
    /// Whether the run stopped through the top-k threshold test (as opposed
    /// to exhausting all cursors within `dmax`).
    pub terminated_by_threshold: bool,
    /// Whether the run hit the `max_cursors` safety valve.
    pub hit_cursor_limit: bool,
}

impl ExplorationStats {
    /// Fraction of queued cursors that were never popped (`0.0` when nothing
    /// was queued): the share of expansion work wasted on cursors the
    /// termination test made irrelevant.
    pub fn wasted_queue_ratio(&self) -> f64 {
        if self.queue_pushes == 0 {
            0.0
        } else {
            (self.queue_pushes - self.queue_pops) as f64 / self.queue_pushes as f64
        }
    }
}

/// The result of one exploration run.
#[derive(Debug, Clone)]
#[must_use]
pub struct ExplorationOutcome {
    /// The k cheapest matching subgraphs, in ascending cost order.
    pub subgraphs: Vec<MatchingSubgraph>,
    /// Run statistics.
    pub stats: ExplorationStats,
}

/// The deadline is polled when `queue_pops & DEADLINE_POLL_MASK == 0`: once
/// every 64 pops (and on the very first), bounding both the clock-sampling
/// overhead and the post-expiry overshoot.
pub const DEADLINE_POLL_MASK: usize = 63;

/// Per-element bookkeeping: the cursors that reached the element, per
/// keyword (`n(w, (C1, …, Cm))` in Algorithm 1).
#[derive(Debug, Clone)]
struct ElementPaths {
    per_keyword: Vec<Vec<CursorId>>,
}

/// The explicit, suspendable run state of Algorithm 1 + 2.
///
/// Everything the former monolithic exploration loop kept in locals — the
/// global cursor heap, the cursor arena, the per-element path lists, the
/// candidate list and the run counters — lives here, so an exploration can
/// be advanced one cursor pop at a time and paused between results.
/// [`Self::run_to_completion`] drives it to the end in one call (the batch
/// shape); [`crate::SearchSession`] owns one and advances it lazily, popping
/// [`Self::next_certified`] results on demand.
///
/// The state holds no borrows: cursors, queue entries, path lists and
/// candidates are all index- or value-based, so the state can be stored next
/// to the [`AugmentedSummaryGraph`] it was created from. The graph and the
/// [`SearchConfig`] are passed back in on every advancing call and **must be
/// the ones the state was created with** — the dense element ids baked into
/// the cursors are only meaningful for that graph.
#[derive(Debug, Clone)]
pub struct ExplorationState {
    /// Number of keywords (`m` in Algorithm 1).
    m: usize,
    /// The effective per-(element, keyword) path cap.
    path_cap: usize,
    arena: CursorArena,
    /// One global queue replaces the former per-keyword heaps: the entry
    /// ordering (cost, then globally unique cursor id) reproduces the
    /// "cheapest top among m heaps" pop order exactly, without scanning
    /// m heap tops twice per iteration.
    queue: BinaryHeap<QueueEntry>,
    /// Per-run flat cost table indexed by dense element id (one evaluation
    /// per element for the whole run instead of one per visited neighbour).
    costs: Vec<f64>,
    /// Per-element path bookkeeping (no `SummaryElement` hashing on the hot
    /// path).
    element_paths: Vec<Option<ElementPaths>>,
    /// Dense ids of the visited elements, in first-visit order: the
    /// elements the completion bound scans.
    visited: Vec<usize>,
    /// `o_j` of the completion bound: each keyword's cheapest origin cost.
    origin_costs: Vec<f64>,
    /// The visited element whose `B(e)` last stopped a completion-bound
    /// scan; the next scan checks it first.
    bound_witness: Option<usize>,
    candidates: CandidateList,
    stats: ExplorationStats,
    /// Candidates `[0, certified)` of the sorted list have been proven
    /// rank-correct and handed out by [`Self::next_certified`].
    certified: usize,
    /// Whether the main loop has terminated (threshold, exhaustion, or the
    /// cursor safety valve).
    finished: bool,
    /// Absolute wall-clock bound: once it passes, the run aborts at the next
    /// deadline poll (every [`DEADLINE_POLL_MASK`]+1-th pop).
    deadline: Option<std::time::Instant>,
    /// Whether the run was cut short by the deadline. Unlike ordinary
    /// termination, an aborted run makes no completeness claim, so
    /// [`Self::next_certified`] stops emitting instead of flushing the
    /// retained candidates.
    aborted: bool,
    /// debug-invariants: cost of the last popped queue entry, for the pop
    /// monotonicity check (absent from release builds).
    #[cfg(debug_assertions)]
    last_pop_cost: f64,
    /// debug-invariants: the largest completion bound a certification used;
    /// no candidate generated afterwards may cost less.
    #[cfg(debug_assertions)]
    certified_bound: f64,
}

impl ExplorationState {
    /// Creates the initial state for one exploration: seeds one cursor per
    /// keyword element (Algorithm 1, lines 1–6) and precomputes the element
    /// cost table for the configured scoring function.
    pub fn new(graph: &AugmentedSummaryGraph<'_>, config: &SearchConfig) -> Self {
        let keyword_elements = graph.keyword_elements();
        let m = keyword_elements.len();

        // Without keywords, or with a keyword that matched nothing, no
        // K-matching subgraph exists (Definition 6 requires a representative
        // for every keyword) — the state is born finished, before paying for
        // the cost table or the per-element bookkeeping.
        if m == 0 || keyword_elements.iter().any(Vec::is_empty) {
            return Self {
                m,
                path_cap: config.effective_path_cap(),
                arena: CursorArena::new(),
                queue: BinaryHeap::new(),
                costs: Vec::new(),
                element_paths: Vec::new(),
                visited: Vec::new(),
                origin_costs: Vec::new(),
                bound_witness: None,
                candidates: CandidateList::new(config.k),
                stats: ExplorationStats::default(),
                certified: 0,
                finished: true,
                deadline: None,
                aborted: false,
                #[cfg(debug_assertions)]
                last_pop_cost: f64::NEG_INFINITY,
                #[cfg(debug_assertions)]
                certified_bound: f64::NEG_INFINITY,
            };
        }

        let mut stats = ExplorationStats::default();
        let costs: Vec<f64> = config.scoring.cost_table(graph);
        let mut arena = CursorArena::new();
        let mut queue: BinaryHeap<QueueEntry> = BinaryHeap::new();
        let mut origin_costs = vec![f64::INFINITY; m];
        for (keyword, elements) in keyword_elements.iter().enumerate() {
            for ke in elements {
                let cost = costs[graph.element_index(ke.element)];
                origin_costs[keyword] = origin_costs[keyword].min(cost);
                let id = arena.push(Cursor {
                    element: ke.element,
                    keyword,
                    parent: None,
                    distance: 0,
                    cost,
                });
                stats.cursors_created += 1;
                stats.queue_pushes += 1;
                queue.push(QueueEntry {
                    cost,
                    keyword: keyword as u32,
                    cursor: id,
                });
            }
        }
        stats.peak_queue_len = queue.len();

        Self {
            m,
            path_cap: config.effective_path_cap(),
            arena,
            queue,
            costs,
            element_paths: (0..graph.element_count()).map(|_| None).collect(),
            visited: Vec::new(),
            origin_costs,
            bound_witness: None,
            candidates: CandidateList::new(config.k),
            stats,
            certified: 0,
            finished: false,
            deadline: None,
            aborted: false,
            #[cfg(debug_assertions)]
            last_pop_cost: f64::NEG_INFINITY,
            #[cfg(debug_assertions)]
            certified_bound: f64::NEG_INFINITY,
        }
    }

    /// The counters of the run so far.
    pub fn stats(&self) -> ExplorationStats {
        self.stats
    }

    /// Whether the main loop has terminated: no further cursor will be
    /// expanded (the remaining candidates, if any, are final by default).
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Number of subgraphs already handed out by [`Self::next_certified`].
    pub fn certified_count(&self) -> usize {
        self.certified
    }

    /// Whether the run was cut short by its deadline (see
    /// [`Self::set_deadline`]).
    pub fn is_aborted(&self) -> bool {
        self.aborted
    }

    /// Installs an absolute wall-clock deadline. The clock is sampled every
    /// [`DEADLINE_POLL_MASK`]+1-th pop (an `Instant::now` per pop would
    /// dominate the per-pop cost), so the abort lands within that many pops
    /// of expiry. `None` removes a previously installed deadline.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.deadline = deadline;
    }

    /// debug-invariants: the full completion bound `B` (module doc), the
    /// upper bound every certified emission must respect.
    #[cfg(debug_assertions)]
    pub(crate) fn completion_bound(&mut self) -> f64 {
        self.completion_bound_until(|_| false)
    }

    /// The completion bound `B` (module doc), scanning its terms until one
    /// satisfies `stop`. Returns `B` when no term stops the scan, and
    /// otherwise the stopping term — an upper bound on `B` — after
    /// remembering its element as the next scan's first check.
    fn completion_bound_until(&mut self, stop: impl Fn(f64) -> bool) -> f64 {
        let top = self.queue.peek().map_or(f64::INFINITY, |entry| entry.cost);
        let unvisited: f64 = self
            .origin_costs
            .iter()
            .map(|&origin| origin.max(top))
            .sum();
        if stop(unvisited) {
            return unvisited;
        }
        if let Some(witness) = self.bound_witness {
            let term = self.element_bound(witness, top);
            if stop(term) {
                return term;
            }
        }
        let mut bound = unvisited;
        let stopped = self.visited.iter().find_map(|&element| {
            let term = self.element_bound(element, top);
            bound = bound.min(term);
            stop(term).then_some((element, term))
        });
        match stopped {
            Some((element, term)) => {
                self.bound_witness = Some(element);
                term
            }
            None => bound,
        }
    }

    /// `B(e)` of the module doc for the visited element with dense id
    /// `element`, given the cheapest pending cost `top`. Every sum runs
    /// left to right in keyword order, like a candidate's cost.
    fn element_bound(&self, element: usize, top: f64) -> f64 {
        let Some(paths) = &self.element_paths[element] else {
            return f64::INFINITY;
        };
        let pending = |keyword: usize| self.origin_costs[keyword].max(top);
        let recorded = |keyword: usize| {
            paths.per_keyword[keyword]
                .first()
                .map_or(f64::INFINITY, |&cursor| self.arena.get(cursor).cost)
                .min(pending(keyword))
        };
        (0..self.m)
            .map(|unpopped| {
                (0..self.m)
                    .map(|keyword| {
                        if keyword == unpopped {
                            pending(keyword)
                        } else {
                            recorded(keyword)
                        }
                    })
                    .sum::<f64>()
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// One iteration of the main loop (Algorithm 1, line 7): pop the
    /// globally cheapest cursor, record its path, generate candidates,
    /// expand to neighbours, and run the top-k threshold test.
    // lint: hot-path
    fn step(&mut self, graph: &AugmentedSummaryGraph<'_>, config: &SearchConfig) {
        debug_assert!(!self.finished, "step on a finished exploration");
        if let Some(deadline) = self.deadline {
            if self.stats.queue_pops & DEADLINE_POLL_MASK == 0
                && std::time::Instant::now() >= deadline
            {
                self.aborted = true;
                self.finished = true;
                return;
            }
        }
        if self.arena.len() >= config.max_cursors {
            self.stats.hit_cursor_limit = true;
            self.finished = true;
            return;
        }
        // Line 8: the globally cheapest cursor.
        let Some(entry) = self.queue.pop() else {
            self.finished = true; // queue exhausted
            return;
        };
        let cursor_id = entry.cursor;
        let cursor = self.arena.get(cursor_id);
        self.stats.queue_pops += 1;
        self.stats.cursors_expanded += 1;

        // debug-invariants: pops must come out in non-decreasing cost order —
        // the property every Theorem-1 certificate builds on.
        #[cfg(debug_assertions)]
        if crate::invariants::enabled() {
            assert!(
                entry.cost >= self.last_pop_cost,
                "cursor-heap pop monotonicity violated: popped {} after {}",
                entry.cost,
                self.last_pop_cost
            );
            self.last_pop_cost = entry.cost;
        }

        // Line 10: bound the exploration depth.
        if cursor.distance < config.dmax {
            let element = cursor.element;
            let element_idx = graph.element_index(element);

            // Line 11: record the path at the element (bounded to the k
            // cheapest per keyword — see SearchConfig::effective_path_cap).
            let m = self.m;
            let stats = &mut self.stats;
            let visited = &mut self.visited;
            let paths = self.element_paths[element_idx].get_or_insert_with(|| {
                stats.elements_visited += 1;
                visited.push(element_idx);
                ElementPaths {
                    // lint: allow(no-alloc-hot-path, reason = "lazy one-time init per *visited* element — amortized over the run, never per pop")
                    per_keyword: vec![Vec::new(); m],
                }
            });
            let recorded = if paths.per_keyword[cursor.keyword].len() < self.path_cap {
                paths.per_keyword[cursor.keyword].push(cursor_id);
                true
            } else {
                false
            };

            // Algorithm 2: new candidate subgraphs involving this cursor —
            // only those cheaper than the k-th candidate, the rest `add`
            // would reject.
            if recorded {
                let combos = combinations_with_new_cursor(
                    graph,
                    &self.arena,
                    element,
                    &paths.per_keyword,
                    cursor_id,
                    config.k,
                    self.candidates.kth_cost().unwrap_or(f64::INFINITY),
                );
                self.stats.candidates_generated += combos.len();
                // debug-invariants: a certification promised that nothing
                // cheaper than its completion bound would ever appear.
                #[cfg(debug_assertions)]
                if crate::invariants::enabled() {
                    for combo in &combos {
                        assert!(
                            combo.cost >= self.certified_bound,
                            "completion bound violated: generated cost {} below the \
                             bound {} a certification already used",
                            combo.cost,
                            self.certified_bound
                        );
                    }
                }
                for combo in combos {
                    self.candidates.add(combo);
                }
            }

            // Lines 12-23: expand to all neighbours except the parent and
            // except elements already on this path (no cyclic expansion).
            // Paths beyond the per-(element, keyword) cap are not
            // expanded — this is what keeps the cursor count within the
            // paper's k·|K|·|G| space bound.
            if recorded {
                let parent_element = self.arena.parent_element(cursor_id);
                for &neighbor in graph.neighbors(cursor.element) {
                    if Some(neighbor) == parent_element {
                        continue;
                    }
                    if self.arena.path_contains(cursor_id, neighbor) {
                        continue;
                    }
                    let cost = cursor.cost + self.costs[graph.element_index(neighbor)];
                    let id = self.arena.push(Cursor {
                        element: neighbor,
                        keyword: cursor.keyword,
                        parent: Some(cursor_id),
                        distance: cursor.distance + 1,
                        cost,
                    });
                    self.stats.cursors_created += 1;
                    self.stats.queue_pushes += 1;
                    self.queue.push(QueueEntry {
                        cost,
                        keyword: entry.keyword,
                        cursor: id,
                    });
                }
                self.stats.peak_queue_len = self.stats.peak_queue_len.max(self.queue.len());
            }
        }

        // Algorithm 2, lines 9-17: threshold test, against the completion
        // bound `B` of the module doc instead of the paper's cheapest
        // pending cursor. `B` lower-bounds every candidate still to be
        // generated, so once the k-th candidate is cheaper the top-k is
        // final. The test also runs after pruned-path pops: whatever such a
        // pop could have produced costs at least `B` as well.
        if let Some(kth_cost) = self.candidates.kth_cost() {
            if self.queue.is_empty() {
                self.finished = true;
            } else if kth_cost < self.completion_bound_until(|term| term <= kth_cost) {
                self.stats.terminated_by_threshold = true;
                self.finished = true;
            }
        }
    }

    /// Advances the exploration until the next result subgraph is *provably*
    /// rank-correct, and returns it — or `None` when the run is complete.
    ///
    /// A candidate is certified as soon as its cost is at most the
    /// completion bound `B` of the [module doc](crate::exploration): every
    /// candidate still to be generated costs at least `B` (the same
    /// certificate the batch top-k termination uses), and an equal-cost
    /// newcomer is never placed ahead of an existing candidate, so the
    /// certified prefix of the candidate list can no longer change. This is what makes the search
    /// *anytime*: the rank-1 result is typically certified after a small
    /// fraction of the pops a full top-k run performs.
    ///
    /// One exception, shared with the batch mode: when the run is cut short
    /// by the `max_cursors` safety valve (`stats().hit_cursor_limit`), the
    /// remaining candidates are handed out as the best found so far
    /// *without* a certificate — a longer run could outrank them, exactly
    /// as a truncated [`Self::run_to_completion`] could.
    pub fn next_certified(
        &mut self,
        graph: &AugmentedSummaryGraph<'_>,
        config: &SearchConfig,
    ) -> Option<MatchingSubgraph> {
        loop {
            if self.aborted {
                // No completeness claim: certified results already handed out
                // stand, but the retained rest is NOT flushed — a longer run
                // could outrank any of it, and unlike the `max_cursors` case
                // the caller asked for the cut, so it gets a truncated stream
                // plus the `is_aborted` flag rather than uncertified tails.
                return None;
            }
            if self.certified < self.candidates.len() {
                // A finished run certifies every retained candidate; a live
                // run certifies the front once the completion bound reaches
                // it.
                let front_cost = self.candidates.best()[self.certified].cost;
                let is_final = self.finished || {
                    let bound = self.completion_bound_until(|term| term < front_cost);
                    #[cfg(debug_assertions)]
                    if front_cost <= bound {
                        self.certified_bound = self.certified_bound.max(bound);
                    }
                    front_cost <= bound
                };
                if is_final {
                    let subgraph = self.candidates.best()[self.certified].clone();
                    self.certified += 1;
                    return Some(subgraph);
                }
            } else if self.finished {
                return None;
            }
            self.step(graph, config);
        }
    }

    /// Drives the main loop to completion (the batch shape): afterwards all
    /// retained candidates are final.
    pub fn run_to_completion(&mut self, graph: &AugmentedSummaryGraph<'_>, config: &SearchConfig) {
        while !self.finished {
            self.step(graph, config);
        }
    }

    /// Consumes the state into the batch [`ExplorationOutcome`] (all
    /// candidates retained so far, in ascending cost order, plus the
    /// counters).
    pub fn into_outcome(self) -> ExplorationOutcome {
        ExplorationOutcome {
            subgraphs: self.candidates.into_best(),
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoring::ScoringFunction;
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

    fn run(graph: &AugmentedSummaryGraph<'_>, config: SearchConfig) -> ExplorationOutcome {
        let mut state = ExplorationState::new(graph, &config);
        state.run_to_completion(graph, &config);
        state.into_outcome()
    }

    #[test]
    fn the_running_example_finds_a_connecting_subgraph() {
        let g = figure1_graph();
        let aug = augmented(&g, &["2006", "cimiano", "aifb"]);
        let outcome = run(&aug, SearchConfig::default());
        assert!(!outcome.subgraphs.is_empty());
        let best = &outcome.subgraphs[0];
        assert_eq!(best.keyword_count(), 3);
        assert!(best.is_connected(&aug));
        // The cheapest subgraph must touch the three matched values and the
        // classes that connect them (Publication, Researcher, Institute).
        let labels: Vec<&str> = best
            .elements()
            .iter()
            .map(|&e| aug.element_label(e))
            .collect();
        assert!(labels.contains(&"2006"));
        assert!(labels.contains(&"P. Cimiano"));
        assert!(labels.contains(&"AIFB"));
        assert!(labels.contains(&"Publication"));
        assert!(labels.contains(&"Researcher"));
        assert!(labels.contains(&"Institute"));
    }

    #[test]
    fn results_are_sorted_by_cost_and_bounded_by_k() {
        let g = figure1_graph();
        let aug = augmented(&g, &["cimiano", "publication"]);
        let outcome = run(&aug, SearchConfig::with_k(3));
        assert!(outcome.subgraphs.len() <= 3);
        for pair in outcome.subgraphs.windows(2) {
            assert!(pair[0].cost <= pair[1].cost + 1e-12);
        }
    }

    #[test]
    fn single_keyword_queries_yield_trivial_subgraphs() {
        let g = figure1_graph();
        let aug = augmented(&g, &["publications"]);
        let outcome = run(&aug, SearchConfig::default());
        assert!(!outcome.subgraphs.is_empty());
        let best = &outcome.subgraphs[0];
        assert_eq!(best.keyword_count(), 1);
        assert_eq!(aug.element_label(best.connecting_element), "Publication");
    }

    #[test]
    fn unmatched_keywords_produce_no_subgraphs() {
        let g = figure1_graph();
        let aug = augmented(&g, &["cimiano", "quetzalcoatl"]);
        let outcome = run(&aug, SearchConfig::default());
        assert!(outcome.subgraphs.is_empty());
        assert_eq!(outcome.stats.cursors_created, 0);
    }

    #[test]
    fn dmax_zero_prevents_any_connection() {
        let g = figure1_graph();
        let aug = augmented(&g, &["2006", "aifb"]);
        let outcome = run(&aug, SearchConfig::default().dmax(0));
        assert!(outcome.subgraphs.is_empty());
    }

    #[test]
    fn results_agree_with_exhaustive_search_on_the_fixture() {
        // Brute-force reference: enumerate all candidates by running the
        // explorer without the threshold shortcut (huge k) and compare the
        // cheapest costs — the top-k guarantee says they must coincide.
        let g = figure1_graph();
        let aug = augmented(&g, &["cimiano", "aifb"]);
        let exact = run(
            &aug,
            SearchConfig {
                k: usize::MAX / 2,
                ..SearchConfig::default()
            },
        );
        let topk = run(&aug, SearchConfig::with_k(3));
        assert!(!topk.subgraphs.is_empty());
        for (a, b) in topk.subgraphs.iter().zip(exact.subgraphs.iter()) {
            assert!(
                (a.cost - b.cost).abs() < 1e-9,
                "top-k costs must match the exhaustive enumeration: {} vs {}",
                a.cost,
                b.cost
            );
        }
    }

    #[test]
    fn the_completion_bound_stops_and_certifies_before_exhaustion() {
        // With three keywords the paper's single-cursor test never fires on
        // the running example at k = 1: the search runs until its queue is
        // empty.
        let g = figure1_graph();
        let aug = augmented(&g, &["2006", "cimiano", "aifb"]);
        for scoring in ScoringFunction::all() {
            let exhaustive = run(
                &aug,
                SearchConfig {
                    k: usize::MAX / 2,
                    ..SearchConfig::default()
                }
                .scoring(scoring),
            );
            let exhaustive_pops = exhaustive.stats.queue_pops;

            let config = SearchConfig::with_k(1).scoring(scoring);
            let mut state = ExplorationState::new(&aug, &config);
            let first = state.next_certified(&aug, &config).expect("rank 1 exists");
            let first_pops = state.stats().queue_pops;
            assert!(
                first_pops < exhaustive_pops,
                "{scoring}: rank 1 certified after {first_pops} pops, exhaustion takes \
                 {exhaustive_pops}"
            );
            assert_eq!(first.cost.to_bits(), exhaustive.subgraphs[0].cost.to_bits());

            state.run_to_completion(&aug, &config);
            let stats = state.stats();
            assert!(
                stats.terminated_by_threshold,
                "{scoring}: k = 1 must stop on the bound, popped {} of {exhaustive_pops}",
                stats.queue_pops
            );
        }
    }

    #[test]
    fn cursor_limit_is_respected() {
        let g = figure1_graph();
        let aug = augmented(&g, &["2006", "cimiano", "aifb"]);
        let outcome = run(
            &aug,
            SearchConfig {
                max_cursors: 10,
                ..SearchConfig::default()
            },
        );
        assert!(outcome.stats.hit_cursor_limit);
        assert!(outcome.stats.cursors_created <= 10 + aug.element_count());
    }

    #[test]
    fn stats_are_populated() {
        let g = figure1_graph();
        let aug = augmented(&g, &["2006", "cimiano", "aifb"]);
        let outcome = run(&aug, SearchConfig::default());
        assert!(outcome.stats.cursors_created > 0);
        assert!(outcome.stats.cursors_expanded > 0);
        assert!(outcome.stats.elements_visited > 0);
        assert!(outcome.stats.candidates_generated > 0);
    }

    #[test]
    fn queue_counters_account_for_every_push_and_pop() {
        let g = figure1_graph();
        let aug = augmented(&g, &["2006", "cimiano", "aifb"]);
        let outcome = run(&aug, SearchConfig::default());
        let stats = outcome.stats;
        // Every created cursor is pushed exactly once.
        assert_eq!(stats.queue_pushes, stats.cursors_created);
        // Every pop is an expansion, and nothing is popped twice.
        assert_eq!(stats.queue_pops, stats.cursors_expanded);
        assert!(stats.queue_pops <= stats.queue_pushes);
        // The peak is a real high-water mark.
        assert!(stats.peak_queue_len >= 1);
        assert!(stats.peak_queue_len <= stats.queue_pushes);
        // The wasted-work ratio is a valid fraction consistent with the
        // counters.
        let wasted = stats.wasted_queue_ratio();
        assert!((0.0..=1.0).contains(&wasted));
        let expected = (stats.queue_pushes - stats.queue_pops) as f64 / stats.queue_pushes as f64;
        assert!((wasted - expected).abs() < 1e-15);
        // A run terminated by the threshold leaves unexpanded cursors behind.
        let early = run(&aug, SearchConfig::with_k(1));
        if early.stats.terminated_by_threshold {
            assert!(early.stats.wasted_queue_ratio() > 0.0);
        }
    }

    #[test]
    fn paths_explored_in_nondecreasing_cost_order() {
        // Theorem 1: the sequence of expanded cursors has non-decreasing
        // path costs. We re-run the exploration manually tracking pops.
        let g = figure1_graph();
        let aug = augmented(&g, &["cimiano", "aifb"]);
        // Use C1 so costs are integers and ties are common.
        let config = SearchConfig::default().scoring(ScoringFunction::PathLength);
        // Indirect check: all result subgraph path costs are >= the cost of
        // their keyword element and the result list is cost-sorted.
        let outcome = run(&aug, config);
        for subgraph in &outcome.subgraphs {
            for path in subgraph.paths() {
                assert!(path.cost >= 1.0 - 1e-12);
                assert_eq!(path.elements.len() as f64, path.cost);
            }
        }
    }

    #[test]
    fn an_expired_deadline_aborts_at_the_first_poll() {
        let g = figure1_graph();
        let aug = augmented(&g, &["2006", "cimiano", "aifb"]);
        let config = SearchConfig::default();
        let mut state = ExplorationState::new(&aug, &config);
        state.set_deadline(Some(
            std::time::Instant::now() - std::time::Duration::from_millis(1),
        ));
        assert!(state.next_certified(&aug, &config).is_none());
        assert!(state.is_aborted());
        assert!(state.is_finished());
        assert_eq!(state.certified_count(), 0);
        // Clearing the deadline does not resurrect an aborted run.
        state.set_deadline(None);
        assert!(state.next_certified(&aug, &config).is_none());
    }

    #[test]
    fn subgraphs_can_be_cyclic() {
        // Two keywords matching relation labels that connect the same pair of
        // classes produce a cyclic matching subgraph (Publication -author->
        // Researcher and Publication -editor-> Researcher).
        let mut g = figure1_graph();
        g.insert_triple(&kwsearch_rdf::Triple::relation(
            "pub2URI", "editedBy", "re2URI",
        ))
        .unwrap();
        let aug = augmented(&g, &["author", "editedBy"]);
        let outcome = run(&aug, SearchConfig::default());
        assert!(!outcome.subgraphs.is_empty());
        let best = &outcome.subgraphs[0];
        // A cycle has at least as many edges as vertices among its elements.
        let nodes = best
            .elements()
            .iter()
            .filter(|e| e.as_node().is_some())
            .count();
        let edges = best
            .elements()
            .iter()
            .filter(|e| e.as_edge().is_some())
            .count();
        assert!(edges + 1 > nodes || best.is_connected(&aug));
    }
}
