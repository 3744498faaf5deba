//! Property-based tests of the RDF substrate: serialisation round-trips,
//! graph-construction invariants and triple-store consistency.

use std::collections::HashMap;

use proptest::prelude::*;

use kwsearch_rdf::{
    ntriples, DataGraph, EdgeId, GraphStats, SectionDecoder, SectionEncoder, SpoRow, Triple,
    TriplePattern, TripleStore,
};

/// A label that is safe for entity IRIs and class names.
fn iri_label() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9_]{0,8}"
}

/// A literal value, including characters that need escaping.
fn literal_value() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~]{0,12}").expect("valid regex")
}

/// A literal built from characters the writer must escape or may pass
/// through raw: control characters, quotes, backslashes, the letters of
/// escape sequences and non-ASCII text.
fn awkward_literal() -> impl Strategy<Value = String> {
    const CHARS: [char; 22] = [
        '\n',
        '\r',
        '\t',
        '\u{8}',
        '\u{c}',
        '\u{0}',
        '\u{7f}',
        '"',
        '\'',
        '\\',
        'u',
        'U',
        'n',
        'r',
        '0',
        'F',
        ' ',
        '\u{e9}',
        '\u{df}',
        '\u{6f22}',
        '\u{1f600}',
        '\u{2028}',
    ];
    proptest::collection::vec(0..CHARS.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| CHARS[i]).collect())
}

/// An IRI tail built from characters IRIREF forbids and the writer must
/// escape — space, `<>"{}|^`, backtick, `\`, line breaks, other controls —
/// and characters it passes through raw: the letters of escape sequences
/// and non-ASCII text.
fn awkward_iri() -> impl Strategy<Value = String> {
    const CHARS: [char; 22] = [
        ' ',
        '>',
        '<',
        '"',
        '\\',
        '\n',
        '\r',
        '\t',
        '\u{0}',
        '{',
        '}',
        '|',
        '^',
        '`',
        'u',
        '0',
        'A',
        '\u{e9}',
        '\u{6f22}',
        '\u{1f600}',
        '\u{2028}',
        '\u{7f}',
    ];
    proptest::collection::vec(0..CHARS.len(), 0..10)
        .prop_map(|picks| picks.into_iter().map(|i| CHARS[i]).collect())
}

/// A random well-formed triple.
fn triple() -> impl Strategy<Value = Triple> {
    prop_oneof![
        (iri_label(), iri_label(), iri_label()).prop_map(|(s, p, o)| Triple::relation(
            s,
            format!("rel_{p}"),
            o
        )),
        (iri_label(), iri_label(), literal_value()).prop_map(|(s, p, v)| Triple::attribute(
            s,
            format!("attr_{p}"),
            v
        )),
        (iri_label(), iri_label()).prop_map(|(s, c)| Triple::typed(s, format!("C{c}"))),
        (iri_label(), iri_label())
            .prop_map(|(c, d)| Triple::subclass(format!("C{c}"), format!("D{d}"))),
    ]
}

fn triples(max: usize) -> impl Strategy<Value = Vec<Triple>> {
    proptest::collection::vec(triple(), 1..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Writing a graph to the N-Triples-like syntax and parsing it back
    /// yields the same set of triples.
    #[test]
    fn ntriples_round_trip(ts in triples(40)) {
        let mut graph = DataGraph::new();
        for t in &ts {
            graph.insert_triple(t).expect("generated triples are well-formed");
        }
        let mut document = Vec::new();
        ntriples::write_graph_to(&graph, &mut document).expect("writes to memory");
        let mut reparsed = DataGraph::new();
        ntriples::ingest_ntriples(document.as_slice(), &mut reparsed).expect("round-trip parses");
        let mut original: Vec<String> = graph.triples().iter().map(|t| t.to_string()).collect();
        let mut round_tripped: Vec<String> =
            reparsed.triples().iter().map(|t| t.to_string()).collect();
        original.sort();
        round_tripped.sort();
        prop_assert_eq!(original, round_tripped);
    }

    /// Literals with control characters, quotes, backslashes and non-ASCII
    /// text survive `write_graph_to` → `ingest_ntriples`: the graph read
    /// back is the graph written, triple for triple and in order.
    #[test]
    fn awkward_literals_round_trip(values in proptest::collection::vec(awkward_literal(), 1..12)) {
        let mut graph = DataGraph::new();
        for (i, value) in values.iter().enumerate() {
            graph
                .insert_triple(&Triple::attribute(format!("e{i}"), "note", value.clone()))
                .expect("an attribute triple is well-formed");
        }
        let mut document = Vec::new();
        ntriples::write_graph_to(&graph, &mut document).expect("writes to memory");
        let mut reparsed = DataGraph::new();
        ntriples::ingest_ntriples(document.as_slice(), &mut reparsed).expect("round-trip parses");
        prop_assert_eq!(reparsed.vertex_count(), graph.vertex_count());
        prop_assert_eq!(reparsed.triples(), graph.triples());
    }

    /// IRIs with spaces, `>`, `"`, `\`, line breaks and non-ASCII text
    /// survive `write_graph_to` → `ingest_ntriples` in every position: the
    /// graph read back is the graph written, triple for triple and in order.
    #[test]
    fn awkward_iris_round_trip(iris in proptest::collection::vec(awkward_iri(), 1..12)) {
        let mut graph = DataGraph::new();
        for (i, iri) in iris.iter().enumerate() {
            let subject = format!("e{i}{iri}");
            for t in [
                Triple::relation(&subject, format!("p{iri}"), format!("o{iri}")),
                Triple::attribute(&subject, format!("a{iri}"), iri.clone()),
                Triple::typed(&subject, format!("C{iri}")),
            ] {
                graph.insert_triple(&t).expect("the triple is well-formed");
            }
        }
        let mut document = Vec::new();
        ntriples::write_graph_to(&graph, &mut document).expect("writes to memory");
        let mut reparsed = DataGraph::new();
        ntriples::ingest_ntriples(document.as_slice(), &mut reparsed).expect("round-trip parses");
        prop_assert_eq!(reparsed.vertex_count(), graph.vertex_count());
        prop_assert_eq!(reparsed.triples(), graph.triples());
    }

    /// Inserting the same triples twice never creates additional vertices or
    /// edges (idempotence of graph construction).
    #[test]
    fn insertion_is_idempotent(ts in triples(30)) {
        let mut once = DataGraph::new();
        for t in &ts {
            once.insert_triple(t).unwrap();
        }
        let mut twice = DataGraph::new();
        for t in ts.iter().chain(ts.iter()) {
            twice.insert_triple(t).unwrap();
        }
        prop_assert_eq!(once.vertex_count(), twice.vertex_count());
        prop_assert_eq!(once.edge_count(), twice.edge_count());
    }

    /// The graph is a set of edges however it was built. A map from each
    /// distinct triple to the id of its first insert is the oracle: a graph
    /// built by inserts, the same graph reloaded from its snapshot section,
    /// and its `edge_subset` each take the rest of a sequence with repeats.
    /// Every insert of a repeat returns the first occurrence's id,
    /// `find_triple` agrees with the map, the edge count is the number of
    /// distinct triples, and `triples` lists them in first-insert order.
    #[test]
    fn inserts_deduplicate_against_the_first_occurrence(
        pool in triples(12),
        picks in proptest::collection::vec(0usize..64, 1..60),
        split in 0usize..60,
    ) {
        let sequence: Vec<&Triple> = picks.iter().map(|&i| &pool[i % pool.len()]).collect();
        let split = split % (sequence.len() + 1);
        let mut first: HashMap<&Triple, EdgeId> = HashMap::new();
        let mut distinct = Vec::new();
        let mut base = DataGraph::new();
        for &t in &sequence[..split] {
            let e = base.insert_triple(t).unwrap();
            prop_assert_eq!(*first.entry(t).or_insert(e), e);
            if e.index() == distinct.len() {
                distinct.push(t.clone());
            }
        }
        let starts = [reload(&base), base.edge_subset(|_, _| true), base];
        for mut graph in starts {
            let mut first = first.clone();
            let mut distinct = distinct.clone();
            for &t in &sequence[split..] {
                let e = graph.insert_triple(t).unwrap();
                prop_assert_eq!(*first.entry(t).or_insert(e), e);
                if e.index() == distinct.len() {
                    distinct.push(t.clone());
                }
            }
            prop_assert_eq!(graph.edge_count(), first.len());
            prop_assert_eq!(graph.triples(), distinct);
            for t in &pool {
                prop_assert_eq!(graph.find_triple(t), first.get(t).copied(), "{}", t);
            }
        }
    }

    /// The statistics invariants hold for arbitrary graphs: totals add up
    /// and the edge partition covers every edge exactly once.
    #[test]
    fn stats_partition_vertices_and_edges(ts in triples(40)) {
        let mut graph = DataGraph::new();
        for t in &ts {
            graph.insert_triple(t).unwrap();
        }
        let stats = GraphStats::compute(&graph);
        prop_assert_eq!(stats.total_vertices(), graph.vertex_count());
        prop_assert_eq!(stats.total_edges(), graph.edge_count());
        prop_assert!(stats.untyped_entities <= stats.entities);
    }

    /// A pattern's two triple-store ranges, each sorted by the permutation
    /// that serves the pattern, merge to exactly the rows of a naive filter
    /// over all edges,
    /// for every shape a conjunctive-query atom produces (the predicate
    /// bound, the subject and the object each bound or not), and `rows`
    /// returns every edge in SPO order. Three stores must agree: one built
    /// over an inserted graph, one over the same graph reloaded from its
    /// snapshot section, and one built over a prefix of the triples with
    /// the rest added as a delta.
    #[test]
    fn store_scans_match_naive_filtering(ts in triples(30), split in 0usize..30) {
        let graph = insert_all(DataGraph::new(), &ts);
        let split = split % (ts.len() + 1);
        let prefix = insert_all(DataGraph::new(), &ts[..split]);
        let mut overlaid = TripleStore::build(&prefix);
        let tail: Vec<SpoRow> = edge_rows(&graph).split_off(prefix.edge_count());
        overlaid.add_rows(&tail);
        let stores = [TripleStore::build(&graph), TripleStore::build(&reload(&graph)), overlaid];

        // Each pattern with the sort key of the permutation that serves it:
        // SPO for a bound subject (with or without the object), POS for a
        // bound predicate alone or with the object.
        type Key = fn(&SpoRow) -> (usize, usize, usize);
        let spo: Key = |r| (r.subject.index(), r.predicate.index(), r.object.index());
        let pos: Key = |r| (r.predicate.index(), r.object.index(), r.subject.index());
        let mut all = edge_rows(&graph);
        all.sort_by_key(spo);
        let mut patterns = Vec::new();
        for edge in graph.edges().take(10).map(|e| graph.edge(e)) {
            let p = TriplePattern::new(edge.label);
            patterns.extend([
                (p.with_subject(edge.from), spo),
                (p.with_subject(edge.from).with_object(edge.to), spo),
                (p, pos),
                (p.with_object(edge.to), pos),
            ]);
        }
        for store in &stores {
            prop_assert_eq!(store.len(), graph.edge_count());
            prop_assert_eq!(store.rows(), all.clone());
        }
        for (pattern, order) in patterns {
            let mut expected: Vec<SpoRow> = all
                .iter()
                .copied()
                .filter(|r| {
                    pattern.subject.is_none_or(|s| s == r.subject)
                        && pattern.predicate == r.predicate
                        && pattern.object.is_none_or(|o| o == r.object)
                })
                .collect();
            expected.sort_by_key(order);
            for store in &stores {
                prop_assert_eq!(store.count(pattern), expected.len(), "{:?}", pattern);
                // The two borrowed ranges, each sorted by the serving
                // permutation, merged.
                let [base, delta] = store.ranges(pattern);
                for run in [base, delta] {
                    prop_assert!(run.windows(2).all(|w| order(&w[0]) < order(&w[1])));
                }
                let mut merged = [base, delta].concat();
                merged.sort_by_key(order);
                prop_assert_eq!(merged, expected.clone(), "{:?}", pattern);
            }
        }
    }

    /// Adjacency is one function of the edges, whichever way the graph was
    /// built: inserts, a snapshot round trip, a round trip plus further
    /// inserts, and `edge_subset` all list every edge exactly once under its
    /// endpoint, in ascending edge id, and write the same graph section.
    #[test]
    fn adjacency_is_consistent_with_edges(ts in triples(30), split in 0usize..30) {
        let built = insert_all(DataGraph::new(), &ts);
        let split = split % (ts.len() + 1);
        let resumed = insert_all(reload(&insert_all(DataGraph::new(), &ts[..split])), &ts[split..]);
        let graphs = [reload(&built), resumed, built.edge_subset(|_, _| true)];

        let mut out_total = 0usize;
        let mut in_total = 0usize;
        for v in built.vertices() {
            let out: Vec<EdgeId> = built.out_edges(v).iter().copied().collect();
            let inc: Vec<EdgeId> = built.in_edges(v).iter().copied().collect();
            prop_assert!(out.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(inc.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(out.iter().all(|&e| built.edge(e).from == v));
            prop_assert!(inc.iter().all(|&e| built.edge(e).to == v));
            out_total += out.len();
            in_total += inc.len();
            prop_assert_eq!(built.neighbors(v).len(), built.degree(v));
            for g in &graphs {
                prop_assert_eq!(g.out_edges(v), built.out_edges(v));
                prop_assert_eq!(g.in_edges(v), built.in_edges(v));
            }
        }
        prop_assert_eq!(out_total, built.edge_count());
        prop_assert_eq!(in_total, built.edge_count());
        for g in &graphs {
            prop_assert_eq!(g.vertex_count(), built.vertex_count());
            prop_assert_eq!(graph_section(g), graph_section(&built));
        }
    }
}

/// The graph's edges as store rows, in edge-id order.
fn edge_rows(graph: &DataGraph) -> Vec<SpoRow> {
    graph
        .edges()
        .map(|e| {
            let edge = graph.edge(e);
            SpoRow {
                subject: edge.from,
                predicate: edge.label,
                object: edge.to,
            }
        })
        .collect()
}

fn insert_all(mut graph: DataGraph, ts: &[Triple]) -> DataGraph {
    for t in ts {
        graph
            .insert_triple(t)
            .expect("generated triples are well-formed");
    }
    graph
}

/// The graph's snapshot section bytes.
fn graph_section(graph: &DataGraph) -> Vec<u8> {
    let mut enc = SectionEncoder::new();
    graph.write_snapshot(&mut enc);
    enc.into_bytes()
}

/// The graph read back from its snapshot section.
fn reload(graph: &DataGraph) -> DataGraph {
    let bytes = graph_section(graph);
    let mut dec = SectionDecoder::new(0, &bytes);
    let loaded = DataGraph::read_snapshot(&mut dec).expect("a written graph loads");
    dec.finish().expect("the section is read to its end");
    loaded
}
