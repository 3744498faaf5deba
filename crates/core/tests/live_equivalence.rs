//! Property-based equivalence of the live write path: a [`LiveGraph`]
//! that absorbed a random delta batch (additions, retractions, or both)
//! must answer every query **bit-identically** to a `PreparedGraph`
//! indexed from scratch over the merged data — costs compared as raw
//! `f64` bits, queries by canonical form, subgraphs by element set, and
//! answer rows verbatim — across all three scoring functions.
//!
//! This is the acceptance property of the delta-overlay design: overlays
//! (triple store, adjacency, keyword vocabulary, summary adjustments) are
//! a physical representation choice, never observable through the read
//! path.

use proptest::prelude::*;

use kwsearch_core::{DeltaBatch, LiveGraph, PreparedGraph, ScoringFunction, SearchConfig};
use kwsearch_rdf::{DataGraph, Triple};

/// Entity pool: `e0..e11` exist in the base generator's range; the delta
/// generator reaches up to `e15`, so deltas routinely introduce brand-new
/// entities alongside writes to existing ones.
const CLASSES: [&str; 4] = ["Alpha", "Beta", "Gamma", "Delta"];
const VALUES: [&str; 7] = ["red", "green", "blue", "cyan", "amber", "violet", "ochre"];
const RELATIONS: [&str; 4] = ["linksTo", "near", "uses", "cites"];
const ATTRIBUTES: [&str; 2] = ["label", "tag"];

/// Keywords the tests probe with: every value, plus class and relation
/// names (the keyword index matches those too, case-insensitively).
const KEYWORD_POOL: [&str; 13] = [
    "red", "green", "blue", "cyan", "amber", "violet", "ochre", "alpha", "beta", "gamma", "delta",
    "linksto", "cites",
];

/// A compact random base graph: the first three classes, values and
/// relations only, so deltas can extend every vocabulary dimension.
#[derive(Debug, Clone)]
struct BaseSpec {
    triples: Vec<Triple>,
}

fn base_graph() -> impl Strategy<Value = BaseSpec> {
    (
        proptest::collection::vec((0usize..12, 0usize..3), 2..10),
        proptest::collection::vec((0usize..12, 0usize..5), 2..10),
        proptest::collection::vec((0usize..12, 0usize..3, 0usize..12), 0..10),
    )
        .prop_map(|(types, attrs, rels)| {
            let mut triples = Vec::new();
            for (e, c) in &types {
                triples.push(Triple::typed(format!("e{e}"), CLASSES[*c]));
            }
            for (e, v) in &attrs {
                triples.push(Triple::attribute(format!("e{e}"), "label", VALUES[*v]));
            }
            for (s, r, o) in &rels {
                triples.push(Triple::relation(
                    format!("e{s}"),
                    RELATIONS[*r],
                    format!("e{o}"),
                ));
            }
            BaseSpec { triples }
        })
}

/// A random delta: additions drawn from the *extended* pools (new
/// entities, the `Delta` class, two new values, the `cites` relation, the
/// `tag` attribute label) plus a handful of retraction picks resolved
/// against the base graph's triples at test time (modulo its length).
#[derive(Debug, Clone)]
struct DeltaSpec {
    additions: Vec<Triple>,
    retraction_picks: Vec<usize>,
}

fn random_delta() -> impl Strategy<Value = DeltaSpec> {
    (
        proptest::collection::vec((0usize..16, 0usize..CLASSES.len()), 0..5),
        proptest::collection::vec(
            (0usize..16, 0usize..ATTRIBUTES.len(), 0usize..VALUES.len()),
            0..8,
        ),
        proptest::collection::vec((0usize..16, 0usize..RELATIONS.len(), 0usize..16), 0..8),
        proptest::collection::vec(0usize..1 << 16, 0..4),
    )
        .prop_map(|(types, attrs, rels, retraction_picks)| {
            let mut additions = Vec::new();
            for (e, c) in &types {
                additions.push(Triple::typed(format!("e{e}"), CLASSES[*c]));
            }
            for (e, a, v) in &attrs {
                additions.push(Triple::attribute(
                    format!("e{e}"),
                    ATTRIBUTES[*a],
                    VALUES[*v],
                ));
            }
            for (s, r, o) in &rels {
                additions.push(Triple::relation(
                    format!("e{s}"),
                    RELATIONS[*r],
                    format!("e{o}"),
                ));
            }
            DeltaSpec {
                additions,
                retraction_picks,
            }
        })
}

fn build(triples: &[Triple]) -> DataGraph {
    let mut graph = DataGraph::new();
    for t in triples {
        graph
            .insert_triple(t)
            .expect("generated triples are well-formed");
    }
    graph
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The acceptance property: after a random batch of additions and
    /// retractions, the live snapshot and a from-scratch preparation over
    /// the merged triples agree bit-for-bit on every query — result
    /// counts, costs (`f64::to_bits`), canonicalized conjunctive queries,
    /// subgraph element sets, augmented-summary sizes, and the answer
    /// rows of every returned query — for all three scoring functions.
    #[test]
    fn live_writes_read_bit_identically_to_a_fresh_preparation(
        spec in base_graph(),
        delta in random_delta(),
        kw_picks in proptest::collection::vec(0usize..KEYWORD_POOL.len(), 1..3),
    ) {
        let base = build(&spec.triples);
        let base_triples = base.triples();
        // Round-trip the base through the snapshot path so its adjacency
        // base is derived from the edge columns and every delta is appended
        // beside it, which is the production shape of a live graph.
        let mut base_bytes = Vec::new();
        PreparedGraph::index(base)
            .save(&mut base_bytes)
            .expect("base snapshot");
        let live = LiveGraph::new(PreparedGraph::load(&base_bytes[..]).expect("base loads"));

        // Resolve retraction picks against the canonical triple listing,
        // deduplicating positions (the graph stores each triple once, so a
        // duplicate pick would be a spurious MissingRetraction).
        let mut positions: Vec<usize> = delta
            .retraction_picks
            .iter()
            .filter(|_| !base_triples.is_empty())
            .map(|pick| pick % base_triples.len())
            .collect();
        positions.sort_unstable();
        positions.dedup();
        let retracted: Vec<Triple> = positions
            .iter()
            .map(|&i| base_triples[i].clone())
            .collect();

        let mut batch = DeltaBatch::new();
        for t in &retracted {
            batch = batch.retract(t.clone());
        }
        for t in &delta.additions {
            batch = batch.add(t.clone());
        }
        live.apply(&batch).expect("generated batches are well-formed");
        let snapshot = live.snapshot();

        // The reference: the surviving base triples in canonical order,
        // then the additions in batch order, indexed entirely from scratch
        // — the same merge the live path claims to represent.
        let mut merged = DataGraph::new();
        for t in &base_triples {
            if !retracted.contains(t) {
                merged.insert_triple(t).expect("base triples re-insert");
            }
        }
        for t in &delta.additions {
            merged.insert_triple(t).expect("delta triples insert");
        }
        let fresh = PreparedGraph::index(merged);

        let mut keywords: Vec<String> = kw_picks
            .iter()
            .map(|&pick| KEYWORD_POOL[pick].to_string())
            .collect();
        keywords.dedup();

        for scoring in ScoringFunction::all() {
            let config = SearchConfig::with_k(5).scoring(scoring);
            let got = snapshot.session(&keywords, config.clone());
            let want = fresh.session(&keywords, config);
            let (got, want) = match (got, want) {
                (Err(_), Err(_)) => continue, // both reject: no keyword matched
                (Ok(g), Ok(w)) => (g.into_outcome(), w.into_outcome()),
                (g, w) => panic!(
                    "session acceptance diverged for {keywords:?} under {scoring:?}: \
                     live={} fresh={}",
                    g.is_ok(),
                    w.is_ok()
                ),
            };
            prop_assert_eq!(
                got.augmented_elements,
                want.augmented_elements,
                "augmented size under {:?}",
                scoring
            );
            prop_assert_eq!(
                got.queries.len(),
                want.queries.len(),
                "result count under {:?}",
                scoring
            );
            for (g, w) in got.queries.iter().zip(&want.queries) {
                prop_assert_eq!(g.rank, w.rank);
                prop_assert_eq!(
                    g.cost.to_bits(),
                    w.cost.to_bits(),
                    "cost of rank {} under {:?}",
                    w.rank,
                    scoring
                );
                prop_assert_eq!(
                    g.query.canonicalized(),
                    w.query.canonicalized(),
                    "query of rank {} under {:?}",
                    w.rank,
                    scoring
                );
                prop_assert_eq!(
                    g.subgraph.canonical_key(),
                    w.subgraph.canonical_key(),
                    "element set of rank {} under {:?}",
                    w.rank,
                    scoring
                );
                match (snapshot.answers(&g.query, None), fresh.answers(&w.query, None)) {
                    (Ok(g_set), Ok(w_set)) => {
                        prop_assert_eq!(
                            g_set.variables(),
                            w_set.variables(),
                            "answer variables of rank {} under {:?}",
                            w.rank,
                            scoring
                        );
                        prop_assert_eq!(
                            g_set.rows(),
                            w_set.rows(),
                            "answer rows of rank {} under {:?}",
                            w.rank,
                            scoring
                        );
                    }
                    (g_set, w_set) => panic!(
                        "answer evaluation diverged at rank {} under {scoring:?}: \
                         live={} fresh={}",
                        w.rank,
                        g_set.is_ok(),
                        w_set.is_ok()
                    ),
                }
            }
        }
    }

    /// Splitting the same delta across several batches lands on the same
    /// state as applying it at once: after compaction (which itself proves
    /// each lineage's store and summary equal to a fresh derivation), the two
    /// snapshots save to the same bytes regardless of write granularity —
    /// physical overlay layout cannot leak into the durable form.
    ///
    /// The epochs differ (one write vs. many), so the comparison goes
    /// through the saved snapshot, which carries data, not epochs.
    #[test]
    fn write_granularity_does_not_change_the_compacted_snapshot(
        spec in base_graph(),
        delta in random_delta(),
    ) {
        prop_assume!(!delta.additions.is_empty());
        // Both lineages start from one saved base, so both also run a live
        // graph over a loaded snapshot.
        let mut base_bytes = Vec::new();
        PreparedGraph::index(build(&spec.triples))
            .save(&mut base_bytes)
            .expect("base snapshot");
        let one_shot = LiveGraph::new(PreparedGraph::load(&base_bytes[..]).expect("base loads"));
        let mut batch = DeltaBatch::new();
        for t in &delta.additions {
            batch = batch.add(t.clone());
        }
        one_shot.apply(&batch).expect("additions are well-formed");
        one_shot.compact().expect("compaction proves itself");

        let stepwise = LiveGraph::new(PreparedGraph::load(&base_bytes[..]).expect("base loads"));
        for t in &delta.additions {
            stepwise
                .apply(&DeltaBatch::new().add(t.clone()))
                .expect("additions are well-formed");
        }
        stepwise.compact().expect("compaction proves itself");

        let mut one_bytes = Vec::new();
        one_shot.snapshot().save(&mut one_bytes).expect("snapshot");
        let mut step_bytes = Vec::new();
        stepwise.snapshot().save(&mut step_bytes).expect("snapshot");
        prop_assert_eq!(one_bytes, step_bytes, "saved snapshots diverged");
    }
}
