//! Golden regression test: the explorer's top-k results on the Figure-1
//! fixture, captured from the reference implementation. Costs are compared
//! bit-for-bit (f64 bit patterns) and element sets label-for-label, so any
//! behavioural drift in the exploration order, the candidate list, or the
//! cost functions is caught immediately.
//!
//! Every case is checked twice on an [`ExplorationState`]: once run to
//! completion (the batch shape) and once by streaming certified subgraphs
//! out of a suspended state one at a time — pinning the *session pop order*
//! to the very same golden tables.

use kwsearch_core::{ExplorationState, ScoringFunction, SearchConfig};
use kwsearch_keyword_index::KeywordIndex;
use kwsearch_rdf::fixtures::figure1_graph;
use kwsearch_summary::{AugmentedSummaryGraph, SummaryGraph};

/// One expected subgraph: exact cost bits and the sorted element labels.
struct Golden {
    cost_bits: u64,
    labels: &'static [&'static str],
}

fn check(keywords: &[&str], scoring: ScoringFunction, expected: &[Golden]) {
    let g = figure1_graph();
    let base = SummaryGraph::build(&g);
    let index = KeywordIndex::build(&g);
    let matches = index.lookup_all(keywords);
    let aug = AugmentedSummaryGraph::build(&g, &base, &matches);
    let config = SearchConfig::with_k(10).scoring(scoring);
    let mut batch = ExplorationState::new(&aug, &config);
    batch.run_to_completion(&aug, &config);
    let outcome = batch.into_outcome();
    assert_eq!(
        outcome.subgraphs.len(),
        expected.len(),
        "{keywords:?} {scoring}: result count"
    );
    for (i, (got, want)) in outcome.subgraphs.iter().zip(expected).enumerate() {
        assert_eq!(
            got.cost.to_bits(),
            want.cost_bits,
            "{keywords:?} {scoring} rank {i}: cost {} != expected bits",
            got.cost
        );
        let mut labels: Vec<&str> = got
            .elements()
            .iter()
            .map(|&e| aug.element_label(e))
            .collect();
        labels.sort_unstable();
        assert_eq!(
            labels, want.labels,
            "{keywords:?} {scoring} rank {i}: element set"
        );
    }

    // The streaming pop order reproduces the batch order exactly: popping
    // certified subgraphs one at a time from a suspended exploration yields
    // the same sequence, bit for bit.
    let mut state = ExplorationState::new(&aug, &config);
    for (i, want) in expected.iter().enumerate() {
        let got = state
            .next_certified(&aug, &config)
            .unwrap_or_else(|| panic!("{keywords:?} {scoring} streamed pop {i}: missing"));
        assert_eq!(
            got.cost.to_bits(),
            want.cost_bits,
            "{keywords:?} {scoring} streamed pop {i}: cost {} != expected bits",
            got.cost
        );
        let mut labels: Vec<&str> = got
            .elements()
            .iter()
            .map(|&e| aug.element_label(e))
            .collect();
        labels.sort_unstable();
        assert_eq!(
            labels, want.labels,
            "{keywords:?} {scoring} streamed pop {i}: element set"
        );
    }
    assert!(
        state.next_certified(&aug, &config).is_none(),
        "{keywords:?} {scoring}: the stream ends with the golden table"
    );
}

#[test]
fn golden_2006_cimiano_aifb_c1() {
    check(
        &["2006", "cimiano", "aifb"],
        ScoringFunction::PathLength,
        &[
            Golden {
                cost_bits: 0x402a000000000000,
                labels: &[
                    "2006",
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "name",
                    "name",
                    "worksAt",
                    "year",
                ],
            },
            Golden {
                cost_bits: 0x402a000000000000,
                labels: &[
                    "2008",
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "name",
                    "name",
                    "worksAt",
                    "year",
                ],
            },
            Golden {
                cost_bits: 0x4030000000000000,
                labels: &[
                    "2006",
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "name",
                    "name",
                    "subclass",
                    "worksAt",
                    "year",
                ],
            },
            Golden {
                cost_bits: 0x4030000000000000,
                labels: &[
                    "2008",
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "name",
                    "name",
                    "subclass",
                    "worksAt",
                    "year",
                ],
            },
            Golden {
                cost_bits: 0x4032000000000000,
                labels: &[
                    "2006",
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "name",
                    "name",
                    "subclass",
                    "worksAt",
                    "year",
                ],
            },
            Golden {
                cost_bits: 0x4032000000000000,
                labels: &[
                    "2008",
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "name",
                    "name",
                    "subclass",
                    "worksAt",
                    "year",
                ],
            },
            Golden {
                cost_bits: 0x4032000000000000,
                labels: &[
                    "2006",
                    "AIFB",
                    "Agent",
                    "Institute",
                    "P. Cimiano",
                    "Person",
                    "Publication",
                    "Researcher",
                    "author",
                    "name",
                    "name",
                    "subclass",
                    "subclass",
                    "subclass",
                    "year",
                ],
            },
            Golden {
                cost_bits: 0x4032000000000000,
                labels: &[
                    "2008",
                    "AIFB",
                    "Agent",
                    "Institute",
                    "P. Cimiano",
                    "Person",
                    "Publication",
                    "Researcher",
                    "author",
                    "name",
                    "name",
                    "subclass",
                    "subclass",
                    "subclass",
                    "year",
                ],
            },
            Golden {
                cost_bits: 0x4032000000000000,
                labels: &[
                    "2006",
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "hasProject",
                    "name",
                    "name",
                    "worksAt",
                    "year",
                ],
            },
            Golden {
                cost_bits: 0x4032000000000000,
                labels: &[
                    "2008",
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "hasProject",
                    "name",
                    "name",
                    "worksAt",
                    "year",
                ],
            },
        ],
    );
}

#[test]
fn golden_2006_cimiano_aifb_c2() {
    check(
        &["2006", "cimiano", "aifb"],
        ScoringFunction::Popularity,
        &[
            Golden {
                cost_bits: 0x4024155555555556,
                labels: &[
                    "2006",
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "name",
                    "name",
                    "worksAt",
                    "year",
                ],
            },
            Golden {
                cost_bits: 0x4024155555555556,
                labels: &[
                    "2008",
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "name",
                    "name",
                    "worksAt",
                    "year",
                ],
            },
            Golden {
                cost_bits: 0x4029155555555556,
                labels: &[
                    "2006",
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "name",
                    "name",
                    "subclass",
                    "worksAt",
                    "year",
                ],
            },
            Golden {
                cost_bits: 0x4029155555555556,
                labels: &[
                    "2008",
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "name",
                    "name",
                    "subclass",
                    "worksAt",
                    "year",
                ],
            },
            Golden {
                cost_bits: 0x402b955555555556,
                labels: &[
                    "2006",
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "hasProject",
                    "name",
                    "name",
                    "worksAt",
                    "year",
                ],
            },
            Golden {
                cost_bits: 0x402b955555555556,
                labels: &[
                    "2008",
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "hasProject",
                    "name",
                    "name",
                    "worksAt",
                    "year",
                ],
            },
            Golden {
                cost_bits: 0x402b955555555556,
                labels: &[
                    "2008",
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "name",
                    "name",
                    "worksAt",
                    "year",
                    "year",
                ],
            },
            Golden {
                cost_bits: 0x402b955555555556,
                labels: &[
                    "2006",
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "name",
                    "name",
                    "worksAt",
                    "year",
                    "year",
                ],
            },
            Golden {
                cost_bits: 0x402beaaaaaaaaaaa,
                labels: &[
                    "2006",
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "name",
                    "name",
                    "subclass",
                    "worksAt",
                    "year",
                ],
            },
            Golden {
                cost_bits: 0x402beaaaaaaaaaaa,
                labels: &[
                    "2008",
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "name",
                    "name",
                    "subclass",
                    "worksAt",
                    "year",
                ],
            },
        ],
    );
}

#[test]
fn golden_2006_cimiano_aifb_c3() {
    check(
        &["2006", "cimiano", "aifb"],
        ScoringFunction::PopularityAndMatch,
        &[
            Golden {
                cost_bits: 0x4024155555555556,
                labels: &[
                    "2006",
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "name",
                    "name",
                    "worksAt",
                    "year",
                ],
            },
            Golden {
                cost_bits: 0x4024aaaaaaaaaaab,
                labels: &[
                    "2008",
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "name",
                    "name",
                    "worksAt",
                    "year",
                ],
            },
            Golden {
                cost_bits: 0x4029155555555556,
                labels: &[
                    "2006",
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "name",
                    "name",
                    "subclass",
                    "worksAt",
                    "year",
                ],
            },
            Golden {
                cost_bits: 0x4029aaaaaaaaaaaa,
                labels: &[
                    "2008",
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "name",
                    "name",
                    "subclass",
                    "worksAt",
                    "year",
                ],
            },
            Golden {
                cost_bits: 0x402b955555555556,
                labels: &[
                    "2006",
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "hasProject",
                    "name",
                    "name",
                    "worksAt",
                    "year",
                ],
            },
            Golden {
                cost_bits: 0x402b955555555556,
                labels: &[
                    "2006",
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "name",
                    "name",
                    "worksAt",
                    "year",
                    "year",
                ],
            },
            Golden {
                cost_bits: 0x402beaaaaaaaaaaa,
                labels: &[
                    "2006",
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "name",
                    "name",
                    "subclass",
                    "worksAt",
                    "year",
                ],
            },
            Golden {
                cost_bits: 0x402c2aaaaaaaaaaa,
                labels: &[
                    "2008",
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "hasProject",
                    "name",
                    "name",
                    "worksAt",
                    "year",
                ],
            },
            Golden {
                cost_bits: 0x402c2aaaaaaaaaaa,
                labels: &[
                    "2008",
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "name",
                    "name",
                    "worksAt",
                    "year",
                    "year",
                ],
            },
            Golden {
                cost_bits: 0x402c800000000000,
                labels: &[
                    "2008",
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "name",
                    "name",
                    "subclass",
                    "worksAt",
                    "year",
                ],
            },
        ],
    );
}

#[test]
fn golden_cimiano_aifb_c1() {
    check(
        &["cimiano", "aifb"],
        ScoringFunction::PathLength,
        &[
            Golden {
                cost_bits: 0x4020000000000000,
                labels: &[
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Researcher",
                    "name",
                    "name",
                    "worksAt",
                ],
            },
            Golden {
                cost_bits: 0x4024000000000000,
                labels: &[
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Researcher",
                    "name",
                    "name",
                    "subclass",
                    "worksAt",
                ],
            },
            Golden {
                cost_bits: 0x4024000000000000,
                labels: &[
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Researcher",
                    "name",
                    "name",
                    "subclass",
                    "worksAt",
                ],
            },
            Golden {
                cost_bits: 0x4024000000000000,
                labels: &[
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Researcher",
                    "author",
                    "name",
                    "name",
                    "worksAt",
                ],
            },
            Golden {
                cost_bits: 0x4028000000000000,
                labels: &[
                    "AIFB",
                    "Agent",
                    "Institute",
                    "P. Cimiano",
                    "Person",
                    "Researcher",
                    "name",
                    "name",
                    "subclass",
                    "subclass",
                    "subclass",
                ],
            },
            Golden {
                cost_bits: 0x4028000000000000,
                labels: &[
                    "AIFB",
                    "Agent",
                    "Institute",
                    "P. Cimiano",
                    "Researcher",
                    "name",
                    "name",
                    "subclass",
                    "worksAt",
                ],
            },
            Golden {
                cost_bits: 0x4028000000000000,
                labels: &[
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Person",
                    "Researcher",
                    "name",
                    "name",
                    "subclass",
                    "worksAt",
                ],
            },
            Golden {
                cost_bits: 0x4028000000000000,
                labels: &[
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "name",
                    "name",
                    "worksAt",
                ],
            },
            Golden {
                cost_bits: 0x402c000000000000,
                labels: &[
                    "AIFB",
                    "Agent",
                    "Institute",
                    "P. Cimiano",
                    "Researcher",
                    "name",
                    "name",
                    "subclass",
                    "subclass",
                    "worksAt",
                ],
            },
            Golden {
                cost_bits: 0x402c000000000000,
                labels: &[
                    "AIFB",
                    "Agent",
                    "Institute",
                    "P. Cimiano",
                    "Researcher",
                    "name",
                    "name",
                    "subclass",
                    "subclass",
                    "worksAt",
                ],
            },
        ],
    );
}

#[test]
fn golden_cimiano_aifb_c2() {
    check(
        &["cimiano", "aifb"],
        ScoringFunction::Popularity,
        &[
            Golden {
                cost_bits: 0x4019000000000000,
                labels: &[
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Researcher",
                    "name",
                    "name",
                    "worksAt",
                ],
            },
            Golden {
                cost_bits: 0x401d555555555556,
                labels: &[
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Researcher",
                    "author",
                    "name",
                    "name",
                    "worksAt",
                ],
            },
            Golden {
                cost_bits: 0x4020000000000000,
                labels: &[
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Researcher",
                    "name",
                    "name",
                    "subclass",
                    "worksAt",
                ],
            },
            Golden {
                cost_bits: 0x4020000000000000,
                labels: &[
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Researcher",
                    "name",
                    "name",
                    "subclass",
                    "worksAt",
                ],
            },
            Golden {
                cost_bits: 0x4021aaaaaaaaaaab,
                labels: &[
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "name",
                    "name",
                    "worksAt",
                ],
            },
            Golden {
                cost_bits: 0x4024000000000000,
                labels: &[
                    "AIFB",
                    "Agent",
                    "Institute",
                    "P. Cimiano",
                    "Researcher",
                    "name",
                    "name",
                    "subclass",
                    "worksAt",
                ],
            },
            Golden {
                cost_bits: 0x4024000000000000,
                labels: &[
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Person",
                    "Researcher",
                    "name",
                    "name",
                    "subclass",
                    "worksAt",
                ],
            },
            Golden {
                cost_bits: 0x4024800000000000,
                labels: &[
                    "AIFB",
                    "Agent",
                    "Institute",
                    "P. Cimiano",
                    "Person",
                    "Researcher",
                    "name",
                    "name",
                    "subclass",
                    "subclass",
                    "subclass",
                ],
            },
            Golden {
                cost_bits: 0x4025000000000000,
                labels: &[
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "hasProject",
                    "name",
                    "name",
                    "worksAt",
                ],
            },
            Golden {
                cost_bits: 0x4027555555555555,
                labels: &[
                    "AIFB",
                    "Agent",
                    "Institute",
                    "P. Cimiano",
                    "Researcher",
                    "name",
                    "name",
                    "subclass",
                    "subclass",
                    "worksAt",
                ],
            },
        ],
    );
}

#[test]
fn golden_cimiano_aifb_c3() {
    check(
        &["cimiano", "aifb"],
        ScoringFunction::PopularityAndMatch,
        &[
            Golden {
                cost_bits: 0x4019000000000000,
                labels: &[
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Researcher",
                    "name",
                    "name",
                    "worksAt",
                ],
            },
            Golden {
                cost_bits: 0x401d555555555556,
                labels: &[
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Researcher",
                    "author",
                    "name",
                    "name",
                    "worksAt",
                ],
            },
            Golden {
                cost_bits: 0x4020000000000000,
                labels: &[
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Researcher",
                    "name",
                    "name",
                    "subclass",
                    "worksAt",
                ],
            },
            Golden {
                cost_bits: 0x4020000000000000,
                labels: &[
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Researcher",
                    "name",
                    "name",
                    "subclass",
                    "worksAt",
                ],
            },
            Golden {
                cost_bits: 0x4021aaaaaaaaaaab,
                labels: &[
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "name",
                    "name",
                    "worksAt",
                ],
            },
            Golden {
                cost_bits: 0x4024000000000000,
                labels: &[
                    "AIFB",
                    "Agent",
                    "Institute",
                    "P. Cimiano",
                    "Researcher",
                    "name",
                    "name",
                    "subclass",
                    "worksAt",
                ],
            },
            Golden {
                cost_bits: 0x4024000000000000,
                labels: &[
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Person",
                    "Researcher",
                    "name",
                    "name",
                    "subclass",
                    "worksAt",
                ],
            },
            Golden {
                cost_bits: 0x4024800000000000,
                labels: &[
                    "AIFB",
                    "Agent",
                    "Institute",
                    "P. Cimiano",
                    "Person",
                    "Researcher",
                    "name",
                    "name",
                    "subclass",
                    "subclass",
                    "subclass",
                ],
            },
            Golden {
                cost_bits: 0x4025000000000000,
                labels: &[
                    "AIFB",
                    "Institute",
                    "P. Cimiano",
                    "Publication",
                    "Researcher",
                    "author",
                    "hasProject",
                    "name",
                    "name",
                    "worksAt",
                ],
            },
            Golden {
                cost_bits: 0x4027555555555555,
                labels: &[
                    "AIFB",
                    "Agent",
                    "Institute",
                    "P. Cimiano",
                    "Researcher",
                    "name",
                    "name",
                    "subclass",
                    "subclass",
                    "worksAt",
                ],
            },
        ],
    );
}

#[test]
fn golden_publications_c1() {
    check(
        &["publications"],
        ScoringFunction::PathLength,
        &[
            Golden {
                cost_bits: 0x3ff0000000000000,
                labels: &["Publication"],
            },
            Golden {
                cost_bits: 0x4000000000000000,
                labels: &["Publication", "hasProject"],
            },
            Golden {
                cost_bits: 0x4000000000000000,
                labels: &["Publication", "author"],
            },
            Golden {
                cost_bits: 0x4008000000000000,
                labels: &["Project", "Publication", "hasProject"],
            },
            Golden {
                cost_bits: 0x4008000000000000,
                labels: &["Publication", "Researcher", "author"],
            },
            Golden {
                cost_bits: 0x4010000000000000,
                labels: &["Publication", "Researcher", "author", "worksAt"],
            },
            Golden {
                cost_bits: 0x4010000000000000,
                labels: &["Publication", "Researcher", "author", "subclass"],
            },
            Golden {
                cost_bits: 0x4014000000000000,
                labels: &[
                    "Institute",
                    "Publication",
                    "Researcher",
                    "author",
                    "worksAt",
                ],
            },
            Golden {
                cost_bits: 0x4014000000000000,
                labels: &["Person", "Publication", "Researcher", "author", "subclass"],
            },
            Golden {
                cost_bits: 0x4018000000000000,
                labels: &[
                    "Institute",
                    "Publication",
                    "Researcher",
                    "author",
                    "subclass",
                    "worksAt",
                ],
            },
        ],
    );
}

#[test]
fn golden_publications_c2() {
    check(
        &["publications"],
        ScoringFunction::Popularity,
        &[
            Golden {
                cost_bits: 0x3fe8000000000000,
                labels: &["Publication"],
            },
            Golden {
                cost_bits: 0x3ff4000000000000,
                labels: &["Publication", "author"],
            },
            Golden {
                cost_bits: 0x3ff9555555555556,
                labels: &["Publication", "hasProject"],
            },
            Golden {
                cost_bits: 0x4000000000000000,
                labels: &["Publication", "Researcher", "author"],
            },
            Golden {
                cost_bits: 0x4002aaaaaaaaaaab,
                labels: &["Project", "Publication", "hasProject"],
            },
            Golden {
                cost_bits: 0x4005555555555556,
                labels: &["Publication", "Researcher", "author", "worksAt"],
            },
            Golden {
                cost_bits: 0x4006aaaaaaaaaaab,
                labels: &["Publication", "Researcher", "author", "subclass"],
            },
            Golden {
                cost_bits: 0x400b555555555556,
                labels: &[
                    "Institute",
                    "Publication",
                    "Researcher",
                    "author",
                    "worksAt",
                ],
            },
            Golden {
                cost_bits: 0x400eaaaaaaaaaaab,
                labels: &["Person", "Publication", "Researcher", "author", "subclass"],
            },
            Golden {
                cost_bits: 0x4011000000000000,
                labels: &[
                    "Institute",
                    "Publication",
                    "Researcher",
                    "author",
                    "subclass",
                    "worksAt",
                ],
            },
        ],
    );
}

#[test]
fn golden_publications_c3() {
    check(
        &["publications"],
        ScoringFunction::PopularityAndMatch,
        &[
            Golden {
                cost_bits: 0x3fe8000000000000,
                labels: &["Publication"],
            },
            Golden {
                cost_bits: 0x3ff4000000000000,
                labels: &["Publication", "author"],
            },
            Golden {
                cost_bits: 0x3ff9555555555556,
                labels: &["Publication", "hasProject"],
            },
            Golden {
                cost_bits: 0x4000000000000000,
                labels: &["Publication", "Researcher", "author"],
            },
            Golden {
                cost_bits: 0x4002aaaaaaaaaaab,
                labels: &["Project", "Publication", "hasProject"],
            },
            Golden {
                cost_bits: 0x4005555555555556,
                labels: &["Publication", "Researcher", "author", "worksAt"],
            },
            Golden {
                cost_bits: 0x4006aaaaaaaaaaab,
                labels: &["Publication", "Researcher", "author", "subclass"],
            },
            Golden {
                cost_bits: 0x400b555555555556,
                labels: &[
                    "Institute",
                    "Publication",
                    "Researcher",
                    "author",
                    "worksAt",
                ],
            },
            Golden {
                cost_bits: 0x400eaaaaaaaaaaab,
                labels: &["Person", "Publication", "Researcher", "author", "subclass"],
            },
            Golden {
                cost_bits: 0x4011000000000000,
                labels: &[
                    "Institute",
                    "Publication",
                    "Researcher",
                    "author",
                    "subclass",
                    "worksAt",
                ],
            },
        ],
    );
}
