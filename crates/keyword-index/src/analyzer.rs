//! Lexical analysis of labels and keywords.
//!
//! "A lexical analysis (stemming, removal of stopwords) as supported by
//! standard IR engines is performed on the labels of elements … in order to
//! obtain terms. Processing labels consisting of more than one word might
//! result in many terms." (Section IV-A)
//!
//! The [`Analyzer`] turns a label such as `"Efficient RDF Keyword-Search"`
//! or a camel-cased identifier such as `worksAt` into a list of normalised
//! terms (`efficient`, `rdf`, `keyword`, `search` / `works`, `at`). The same
//! pipeline is applied to user keywords so that query terms and index terms
//! live in the same space.

use crate::stemmer::porter_stem;
use crate::stopwords::is_stop_word;

/// Configuration of the analysis pipeline.
#[derive(Debug, Clone)]
pub struct Analyzer {
    /// Whether to apply the Porter stemmer.
    pub stemming: bool,
    /// Whether to drop stop words.
    pub remove_stop_words: bool,
    /// Whether to split camel-case identifiers (`worksAt` → `works`, `at`).
    pub split_camel_case: bool,
}

impl Default for Analyzer {
    fn default() -> Self {
        Self {
            stemming: true,
            remove_stop_words: true,
            split_camel_case: true,
        }
    }
}

impl Analyzer {
    /// The default pipeline (stemming + stop words + camel-case splitting).
    pub fn new() -> Self {
        Self::default()
    }

    /// An analyzer that only tokenises and lower-cases, useful for tests and
    /// for exact-label matching.
    pub fn minimal() -> Self {
        Self {
            stemming: false,
            remove_stop_words: false,
            split_camel_case: false,
        }
    }

    /// Splits `text` into raw lower-cased tokens without stemming or
    /// stop-word removal.
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        for rough in rough_tokens(text) {
            if self.split_camel_case {
                for part in split_camel(rough) {
                    tokens.push(part.to_lowercase());
                }
            } else {
                tokens.push(rough.to_lowercase());
            }
        }
        tokens
    }

    /// Runs the full pipeline: tokenise, remove stop words, stem.
    pub fn analyze(&self, text: &str) -> Vec<String> {
        self.tokenize(text)
            .into_iter()
            .filter(|t| self.keeps(t))
            .map(|t| self.term_of(t))
            .filter(|t| !t.is_empty())
            .collect()
    }

    /// Whether the pipeline keeps `token`: only stop words are dropped, and
    /// only when `remove_stop_words` is set.
    pub(crate) fn keeps(&self, token: &str) -> bool {
        !self.remove_stop_words || !is_stop_word(token)
    }

    /// The term a kept token becomes: its Porter stem when `stemming` is
    /// set, else the token itself.
    pub(crate) fn term_of(&self, token: String) -> String {
        if self.stemming {
            porter_stem(&token)
        } else {
            token
        }
    }

    /// Analyzes and deduplicates, preserving first-occurrence order.
    pub fn analyze_unique(&self, text: &str) -> Vec<String> {
        let mut seen = std::collections::HashSet::new();
        self.analyze(text)
            .into_iter()
            .filter(|t| seen.insert(t.clone()))
            .collect()
    }
}

/// The rough tokens of `text`: its non-empty runs of alphanumeric
/// characters. [`Analyzer::tokenize`] treats each one on its own, so
/// [`Analyzer::analyze`] of a text is the concatenation of `analyze` over its
/// rough tokens — which lets an index build analyze each distinct rough
/// token once.
pub(crate) fn rough_tokens(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|rough| !rough.is_empty())
}

/// Splits a single token at lower-to-upper case boundaries and digit
/// boundaries: `worksAt` → `[works, At]`, `LUBM50` → `[LUBM, 50]`.
fn split_camel(token: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let chars: Vec<(usize, char)> = token.char_indices().collect();
    for window in chars.windows(2) {
        let (_, current) = window[0];
        let (next_idx, next) = window[1];
        let case_boundary = current.is_lowercase() && next.is_uppercase();
        let digit_boundary = current.is_ascii_digit() != next.is_ascii_digit();
        if case_boundary || digit_boundary {
            parts.push(&token[start..next_idx]);
            start = next_idx;
        }
    }
    parts.push(&token[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenization_splits_on_punctuation_and_whitespace() {
        let a = Analyzer::minimal();
        assert_eq!(
            a.tokenize("P. Cimiano, AIFB (Karlsruhe)"),
            vec!["p", "cimiano", "aifb", "karlsruhe"]
        );
        assert_eq!(a.tokenize("X-Media"), vec!["x", "media"]);
    }

    #[test]
    fn camel_case_identifiers_are_split() {
        let a = Analyzer::new();
        assert_eq!(a.tokenize("worksAt"), vec!["works", "at"]);
        assert_eq!(a.tokenize("hasProject"), vec!["has", "project"]);
        assert_eq!(a.tokenize("LUBM50"), vec!["lubm", "50"]);
    }

    #[test]
    fn stop_words_are_removed_and_terms_stemmed() {
        let a = Analyzer::new();
        let terms = a.analyze("The publications of the institute");
        assert!(terms.contains(&porter_stem("publication")));
        assert!(terms.contains(&porter_stem("institute")));
        assert!(!terms.iter().any(|t| t == "the" || t == "of"));
    }

    #[test]
    fn keywords_and_labels_normalise_to_the_same_terms() {
        let a = Analyzer::new();
        // A user typing "publications" must match a class labelled "Publication".
        assert_eq!(a.analyze("publications"), a.analyze("Publication"));
        // "works at" (keyword) matches the camel-cased edge label "worksAt"
        // up to stop-wording of "at".
        let keyword = a.analyze("working at");
        let label = a.analyze("worksAt");
        assert_eq!(keyword[0], label[0]);
    }

    #[test]
    fn analyze_unique_deduplicates() {
        let a = Analyzer::new();
        let terms = a.analyze_unique("search search searching");
        assert_eq!(terms.len(), 1);
    }

    #[test]
    fn numbers_survive_analysis() {
        let a = Analyzer::new();
        assert_eq!(a.analyze("2006"), vec!["2006"]);
        assert_eq!(
            a.analyze("ICDE 2009"),
            vec![porter_stem("icde"), "2009".to_string()]
        );
    }

    #[test]
    fn empty_and_symbol_only_labels_yield_no_terms() {
        let a = Analyzer::new();
        assert!(a.analyze("").is_empty());
        assert!(a.analyze("--- !!! ---").is_empty());
    }

    /// The index build's memo rests on this: a label's terms are its rough
    /// tokens' terms, in order.
    #[test]
    fn analysis_is_the_concatenation_over_rough_tokens() {
        let labels = [
            "",
            "--- !!! ---",
            "The publications of the institute",
            "worksAt hasProjectLUBM50 X-Media",
            "ICDE2009: Top-k Exploration, top-K exploration!",
            "Ünïcödé ÀPFEL straße ΣΟΦΟΣ ΟΔΟΣ 漢字カタカナ",
            "a an the of and",
            "search search searching 42 42 4two",
            "camelCaseWithDigits123andMORE",
        ];
        for analyzer in [Analyzer::new(), Analyzer::minimal()] {
            for label in labels {
                let pieces: Vec<String> = rough_tokens(label)
                    .flat_map(|rough| analyzer.analyze(rough))
                    .collect();
                assert_eq!(analyzer.analyze(label), pieces, "{label:?}");
            }
        }
    }

    #[test]
    fn minimal_analyzer_keeps_everything() {
        let a = Analyzer::minimal();
        assert_eq!(a.analyze("The Publications"), vec!["the", "publications"]);
    }
}
