//! Edit distance for syntactic similarity.
//!
//! "In order to incorporate syntactic similarities, the Levenshtein distance
//! is used for an imprecise matching of keywords to terms." (Section IV-A)

/// Computes the (unbounded) Levenshtein distance between two strings,
/// operating on Unicode scalar values.
#[expect(
    clippy::expect_used,
    reason = "bounded_levenshtein returns None only when the distance exceeds the bound, which usize::MAX never allows"
)]
pub fn levenshtein(a: &str, b: &str) -> usize {
    bounded_levenshtein(a, b, usize::MAX).expect("unbounded distance always returned")
}

/// Computes the Levenshtein distance, giving up early when it can prove the
/// distance exceeds `max`. Returns `None` in that case.
///
/// The early exit keeps the fuzzy vocabulary scan of the keyword index cheap:
/// most vocabulary terms differ from the query keyword by far more than the
/// acceptance threshold.
pub fn bounded_levenshtein(a: &str, b: &str, max: usize) -> Option<usize> {
    if a == b {
        return Some(0);
    }
    let a_chars: Vec<char> = a.chars().collect();
    let b_chars: Vec<char> = b.chars().collect();
    let (n, m) = (a_chars.len(), b_chars.len());
    if n == 0 {
        return (m <= max).then_some(m);
    }
    if m == 0 {
        return (n <= max).then_some(n);
    }
    if n.abs_diff(m) > max {
        return None;
    }

    let mut prev: Vec<usize> = (0..=m).collect();
    let mut current = vec![0usize; m + 1];
    for i in 1..=n {
        current[0] = i;
        let mut row_min = current[0];
        for j in 1..=m {
            let cost = usize::from(a_chars[i - 1] != b_chars[j - 1]);
            current[j] = (prev[j] + 1)
                .min(current[j - 1] + 1)
                .min(prev[j - 1] + cost);
            row_min = row_min.min(current[j]);
        }
        if row_min > max {
            return None;
        }
        std::mem::swap(&mut prev, &mut current);
    }
    let d = prev[m];
    (d <= max).then_some(d)
}

/// Normalised similarity in `[0, 1]`: `1 - distance / max(|a|, |b|)`.
///
/// Comparison is case-insensitive, matching the keyword index's analyzer
/// which lower-cases all terms.
pub fn similarity(a: &str, b: &str) -> f64 {
    let a = a.to_lowercase();
    let b = b.to_lowercase();
    let longest = a.chars().count().max(b.chars().count());
    if longest == 0 {
        return 1.0;
    }
    let d = levenshtein(&a, &b);
    1.0 - d as f64 / longest as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_distances() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("same", "same"), 0);
    }

    #[test]
    fn distance_is_symmetric() {
        let pairs = [
            ("cimiano", "cimano"),
            ("aifb", "afib"),
            ("publication", "publikation"),
        ];
        for (a, b) in pairs {
            assert_eq!(levenshtein(a, b), levenshtein(b, a));
        }
    }

    #[test]
    fn bounded_distance_gives_up_when_exceeded() {
        assert_eq!(bounded_levenshtein("kitten", "sitting", 3), Some(3));
        assert_eq!(bounded_levenshtein("kitten", "sitting", 2), None);
        assert_eq!(
            bounded_levenshtein("short", "a very long different string", 3),
            None
        );
        assert_eq!(bounded_levenshtein("same", "same", 0), Some(0));
    }

    #[test]
    fn typo_similarity_is_high() {
        assert!(similarity("cimiano", "cimano") > 0.8);
        assert!(similarity("publication", "publications") > 0.9);
        assert!(similarity("aifb", "xyz") < 0.3);
    }

    #[test]
    fn similarity_is_case_insensitive() {
        assert_eq!(similarity("AIFB", "aifb"), 1.0);
        assert_eq!(similarity("Cimiano", "cimiano"), 1.0);
    }

    #[test]
    fn unicode_is_handled_per_character() {
        assert_eq!(levenshtein("café", "cafe"), 1);
        assert_eq!(levenshtein("naïve", "naive"), 1);
    }

    #[test]
    fn triangle_inequality_holds_on_samples() {
        let words = ["graph", "grape", "grove", "growth"];
        for a in words {
            for b in words {
                for c in words {
                    assert!(levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c));
                }
            }
        }
    }
}
