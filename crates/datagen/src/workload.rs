//! Benchmark workloads: keyword queries with gold-standard interpretations.
//!
//! The paper's effectiveness study (Fig. 4) uses 30 DBLP and 9 TAP keyword
//! queries collected from 12 participants, each accompanied by a natural
//! language description of the intended meaning; a generated query is
//! "correct" if it matches that description. We regenerate the DBLP
//! workload programmatically: every [`EffectivenessQuery`] carries the
//! keywords, a description and the **gold conjunctive query** that encodes
//! the intent, so the Reciprocal Rank of the gold query can be computed
//! exactly.
//!
//! The performance study (Fig. 5) uses the ten queries Q1–Q10 of the BLINKS
//! evaluation with an increasing number of keywords;
//! [`dblp_performance_queries`] rebuilds that progression on the generated
//! dataset (Q1–Q3: two keywords, Q4–Q6: three, Q7–Q10: four or five).

use std::collections::BTreeSet;

use kwsearch_query::{ConjunctiveQuery, QueryBuilder};

use crate::dblp::DblpDataset;

/// A keyword query with a known intended interpretation.
#[derive(Debug, Clone)]
pub struct EffectivenessQuery {
    /// Identifier (`Q1`, `Q2`, …).
    pub id: String,
    /// The keywords the "user" types.
    pub keywords: Vec<String>,
    /// Natural-language description of the information need.
    pub description: String,
    /// The gold-standard conjunctive query.
    pub gold: ConjunctiveQuery,
}

impl EffectivenessQuery {
    /// Whether `candidate` matches the intended interpretation.
    ///
    /// Two queries are considered equivalent when they use the same set of
    /// predicates and the same set of constants — a variable-renaming-
    /// insensitive proxy for query equivalence that is exact for the
    /// template-generated gold queries of this workload.
    pub fn is_match(&self, candidate: &ConjunctiveQuery) -> bool {
        self.gold.predicates() == candidate.predicates()
            && self.gold.constants() == candidate.constants()
    }

    /// Reciprocal rank of the gold query within a ranked candidate list
    /// (1/rank, or 0.0 if absent) — the RR measure of the paper.
    pub fn reciprocal_rank<'a, I>(&self, ranked: I) -> f64
    where
        I: IntoIterator<Item = &'a ConjunctiveQuery>,
    {
        for (i, candidate) in ranked.into_iter().enumerate() {
            if self.is_match(candidate) {
                return 1.0 / (i + 1) as f64;
            }
        }
        0.0
    }
}

/// A keyword query used in the performance comparison (no gold needed).
#[derive(Debug, Clone)]
pub struct PerformanceQuery {
    /// Identifier (`Q1`…`Q10`).
    pub id: String,
    /// The keywords.
    pub keywords: Vec<String>,
}

impl PerformanceQuery {
    /// Number of keywords.
    pub fn len(&self) -> usize {
        self.keywords.len()
    }

    /// Whether the query has no keywords (never true for generated
    /// workloads).
    pub fn is_empty(&self) -> bool {
        self.keywords.is_empty()
    }
}

/// Family name of a full person name.
fn family_name(full: &str) -> String {
    full.split_whitespace().nth(1).unwrap_or(full).to_string()
}

/// A publication index whose author list is non-empty (always true for the
/// generator) selected deterministically.
fn pick_publication(dataset: &DblpDataset, salt: usize) -> usize {
    (salt * 37 + 11) % dataset.titles.len()
}

/// Builds the 30-query DBLP effectiveness workload (Fig. 4).
///
/// The queries cycle through templates of increasing ambiguity and length
/// (two to four keywords, as in the paper's collected workload):
/// full author name + year, family name + year, author + "publications",
/// venue + year, two co-authors, relation keyword + year,
/// author + venue + year, and title term + author + venue + year.
pub fn dblp_effectiveness_workload(dataset: &DblpDataset, n: usize) -> Vec<EffectivenessQuery> {
    let mut queries = Vec::with_capacity(n);
    for i in 0..n {
        let p = pick_publication(dataset, i);
        let author_idx = dataset.authorship[p][0];
        let author = dataset.author_names[author_idx].clone();
        let year = dataset.years[p].clone();
        let venue = dataset.venue_names[dataset.publication_venue[p]].clone();

        let q = match i % 8 {
            0 => EffectivenessQuery {
                id: format!("Q{}", i + 1),
                keywords: vec![author.clone(), year.clone()],
                description: format!("All publications by {author} in {year}"),
                gold: QueryBuilder::new()
                    .class_pattern("x", "Publication")
                    .attribute_pattern("x", "year", &year)
                    .relation_pattern("x", "author", "y")
                    .class_pattern("y", "Person")
                    .attribute_pattern("y", "name", &author)
                    .distinguish_all()
                    .build(),
            },
            1 => EffectivenessQuery {
                id: format!("Q{}", i + 1),
                keywords: vec![family_name(&author), year.clone()],
                description: format!(
                    "All publications by an author named {} in {year}",
                    family_name(&author)
                ),
                gold: QueryBuilder::new()
                    .class_pattern("x", "Publication")
                    .attribute_pattern("x", "year", &year)
                    .relation_pattern("x", "author", "y")
                    .class_pattern("y", "Person")
                    .attribute_pattern("y", "name", &author)
                    .distinguish_all()
                    .build(),
            },
            2 => EffectivenessQuery {
                id: format!("Q{}", i + 1),
                keywords: vec![author.clone(), "publications".to_string()],
                description: format!("All publications authored by {author}"),
                gold: QueryBuilder::new()
                    .class_pattern("x", "Publication")
                    .relation_pattern("x", "author", "y")
                    .class_pattern("y", "Person")
                    .attribute_pattern("y", "name", &author)
                    .distinguish_all()
                    .build(),
            },
            3 => EffectivenessQuery {
                id: format!("Q{}", i + 1),
                keywords: vec![venue.clone(), year.clone()],
                description: format!("Publications that appeared in {venue} in {year}"),
                gold: QueryBuilder::new()
                    .class_pattern("x", "Publication")
                    .attribute_pattern("x", "year", &year)
                    .relation_pattern("x", "publishedIn", "v")
                    .class_pattern("v", "Venue")
                    .attribute_pattern("v", "name", &venue)
                    .distinguish_all()
                    .build(),
            },
            4 => {
                // Two authors of the same publication when available, else
                // the first author twice removed.
                let second_idx = dataset.authorship[p]
                    .get(1)
                    .copied()
                    .unwrap_or((author_idx + 1) % dataset.author_names.len());
                let second = dataset.author_names[second_idx].clone();
                EffectivenessQuery {
                    id: format!("Q{}", i + 1),
                    keywords: vec![author.clone(), second.clone()],
                    description: format!("Publications co-authored by {author} and {second}"),
                    gold: QueryBuilder::new()
                        .class_pattern("x", "Publication")
                        .relation_pattern("x", "author", "y")
                        .class_pattern("y", "Person")
                        .attribute_pattern("y", "name", &author)
                        .relation_pattern("x", "author", "z")
                        .class_pattern("z", "Person")
                        .attribute_pattern("z", "name", &second)
                        .distinguish_all()
                        .build(),
                }
            }
            5 => EffectivenessQuery {
                id: format!("Q{}", i + 1),
                keywords: vec!["author".to_string(), year.clone()],
                description: format!("Authors of publications from {year}"),
                gold: QueryBuilder::new()
                    .class_pattern("x", "Publication")
                    .attribute_pattern("x", "year", &year)
                    .relation_pattern("x", "author", "y")
                    .class_pattern("y", "Person")
                    .distinguish_all()
                    .build(),
            },
            6 => EffectivenessQuery {
                id: format!("Q{}", i + 1),
                keywords: vec![author.clone(), venue.clone(), year.clone()],
                description: format!("Publications by {author} that appeared in {venue} in {year}"),
                gold: QueryBuilder::new()
                    .class_pattern("x", "Publication")
                    .attribute_pattern("x", "year", &year)
                    .relation_pattern("x", "author", "y")
                    .class_pattern("y", "Person")
                    .attribute_pattern("y", "name", &author)
                    .relation_pattern("x", "publishedIn", "v")
                    .class_pattern("v", "Venue")
                    .attribute_pattern("v", "name", &venue)
                    .distinguish_all()
                    .build(),
            },
            _ => {
                let title = dataset.titles[p].clone();
                let title_term = title
                    .split_whitespace()
                    .next()
                    .unwrap_or("search")
                    .to_string();
                EffectivenessQuery {
                    id: format!("Q{}", i + 1),
                    keywords: vec![title_term, author.clone(), venue.clone(), year.clone()],
                    description: format!(
                        "The publication titled '{title}' by {author} in {venue}, {year}"
                    ),
                    gold: QueryBuilder::new()
                        .class_pattern("x", "Publication")
                        .attribute_pattern("x", "title", &title)
                        .attribute_pattern("x", "year", &year)
                        .relation_pattern("x", "author", "y")
                        .class_pattern("y", "Person")
                        .attribute_pattern("y", "name", &author)
                        .relation_pattern("x", "publishedIn", "v")
                        .class_pattern("v", "Venue")
                        .attribute_pattern("v", "name", &venue)
                        .distinguish_all()
                        .build(),
                }
            }
        };
        queries.push(q);
    }
    queries
}

/// Builds the Q1–Q10 performance workload (Fig. 5) with an increasing
/// number of keywords, drawn from the dataset's labels.
pub fn dblp_performance_queries(dataset: &DblpDataset) -> Vec<PerformanceQuery> {
    let author = |i: usize| dataset.author_names[i % dataset.author_names.len()].clone();
    let year = |i: usize| dataset.years[i % dataset.years.len()].clone();
    let venue = |i: usize| dataset.venue_names[i % dataset.venue_names.len()].clone();
    let title_term = |i: usize| {
        dataset.titles[i % dataset.titles.len()]
            .split_whitespace()
            .next()
            .unwrap_or("search")
            .to_string()
    };

    let specs: Vec<Vec<String>> = vec![
        // Q1-Q3: two keywords.
        vec![author(0), year(0)],
        vec![venue(1), year(3)],
        vec![author(5), "publications".to_string()],
        // Q4-Q6: three keywords.
        vec![author(2), venue(0), year(7)],
        vec![author(7), author(12), year(11)],
        vec![title_term(4), author(9), year(5)],
        // Q7-Q10: four and five keywords.
        vec![author(1), author(3), venue(2), year(13)],
        vec![title_term(8), author(6), venue(3), year(17)],
        vec![author(4), author(8), author(15), year(19)],
        vec![title_term(2), author(10), author(20), venue(1), year(23)],
    ];

    specs
        .into_iter()
        .enumerate()
        .map(|(i, keywords)| PerformanceQuery {
            id: format!("Q{}", i + 1),
            keywords,
        })
        .collect()
}

/// Distinct keyword counts of a performance workload, useful for reports.
pub fn keyword_counts(queries: &[PerformanceQuery]) -> BTreeSet<usize> {
    queries.iter().map(PerformanceQuery::len).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwsearch_query::QueryBuilder;

    #[test]
    fn dblp_workload_has_the_requested_size_and_valid_golds() {
        let dataset = DblpDataset::small();
        let workload = dblp_effectiveness_workload(&dataset, 30);
        assert_eq!(workload.len(), 30);
        for q in &workload {
            assert!(!q.keywords.is_empty());
            assert!(!q.gold.is_empty());
            assert!(!q.description.is_empty());
            assert!(q.gold.predicates().contains("type"));
        }
    }

    #[test]
    fn performance_queries_grow_in_keyword_count() {
        let dataset = DblpDataset::small();
        let queries = dblp_performance_queries(&dataset);
        assert_eq!(queries.len(), 10);
        assert_eq!(queries[0].len(), 2);
        assert_eq!(queries[4].len(), 3);
        assert_eq!(queries[9].len(), 5);
        assert!(keyword_counts(&queries).contains(&4));
        for q in &queries {
            assert!(!q.is_empty());
        }
    }

    #[test]
    fn gold_matching_is_insensitive_to_variable_names() {
        let dataset = DblpDataset::small();
        let workload = dblp_effectiveness_workload(&dataset, 1);
        let gold = &workload[0];
        // Rebuild the same query with different variable names.
        let author = dataset.author_names[dataset.authorship[pick(&dataset, 0)][0]].clone();
        let year = dataset.years[pick(&dataset, 0)].clone();
        let candidate = QueryBuilder::new()
            .class_pattern("a", "Publication")
            .attribute_pattern("a", "year", &year)
            .relation_pattern("a", "author", "b")
            .class_pattern("b", "Person")
            .attribute_pattern("b", "name", &author)
            .distinguish_all()
            .build();
        assert!(gold.is_match(&candidate));
        // A query about a different year must not match.
        let other = QueryBuilder::new()
            .class_pattern("a", "Publication")
            .attribute_pattern("a", "year", "1600")
            .distinguish_all()
            .build();
        assert!(!gold.is_match(&other));
    }

    fn pick(dataset: &DblpDataset, salt: usize) -> usize {
        super::pick_publication(dataset, salt)
    }

    #[test]
    fn reciprocal_rank_honours_the_position() {
        let dataset = DblpDataset::small();
        let workload = dblp_effectiveness_workload(&dataset, 1);
        let gold = &workload[0];
        let wrong = QueryBuilder::new()
            .class_pattern("x", "Venue")
            .distinguish_all()
            .build();
        let right = gold.gold.clone();
        assert_eq!(gold.reciprocal_rank([&right]), 1.0);
        assert_eq!(gold.reciprocal_rank([&wrong, &right]), 0.5);
        assert_eq!(gold.reciprocal_rank([&wrong]), 0.0);
        assert_eq!(gold.reciprocal_rank([]), 0.0);
    }

    #[test]
    fn workloads_are_deterministic() {
        let dataset = DblpDataset::small();
        let a = dblp_effectiveness_workload(&dataset, 10);
        let b = dblp_effectiveness_workload(&dataset, 10);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.keywords, y.keywords);
            assert_eq!(x.gold, y.gold);
        }
    }
}
