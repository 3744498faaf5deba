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
/// The keyword index scans its small live-update delta vocabulary with this
/// function, and its tests use it as the oracle of the walk over the frozen
/// vocabulary; the early exit keeps that scan cheap, since most terms
/// differ from the keyword by far more than the threshold.
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

/// The Levenshtein rows of one query against a term that grows and shrinks
/// at its end — the state of a walk over a sorted vocabulary, where
/// consecutive terms share the rows of their common prefix.
///
/// Row `d` holds the distances between the first `d` characters of the term
/// and every query prefix, but only inside the band `|d − j| ≤ max`: a cell
/// outside it is more than `max` by its length difference alone and counts
/// as `max + 1`. Inside the band a cell is exact whenever it is at most
/// `max` (an alignment that cheap never leaves the band), and above `max`
/// otherwise. All band arithmetic saturates, so `max = usize::MAX` is the
/// full, unbounded table.
#[derive(Debug)]
pub(crate) struct PrefixRows<'q> {
    query: &'q [char],
    max: usize,
    /// The term prefix the rows describe: row `d` is for its first `d`
    /// characters.
    prefix: Vec<char>,
    /// Every row's band cells, concatenated.
    cells: Vec<usize>,
    /// `ends[d]..ends[d + 1]` delimits row `d` in `cells`.
    ends: Vec<usize>,
    /// Cells computed so far, row 0 included.
    computed: usize,
}

impl<'q> PrefixRows<'q> {
    /// The rows of the empty prefix: row 0 only.
    pub(crate) fn new(query: &'q [char], max: usize) -> Self {
        let cells: Vec<usize> = (0..=max.min(query.len())).collect();
        Self {
            query,
            max,
            prefix: Vec::new(),
            computed: cells.len(),
            ends: vec![0, cells.len()],
            cells,
        }
    }

    /// The query columns `lo..=hi` row `d` stores (empty when `lo > hi`).
    fn band(&self, d: usize) -> (usize, usize) {
        (
            d.saturating_sub(self.max),
            d.saturating_add(self.max).min(self.query.len()),
        )
    }

    /// The term prefix the current rows describe.
    pub(crate) fn prefix(&self) -> &[char] {
        &self.prefix
    }

    /// Drops the rows beyond the first `len` characters of the prefix.
    pub(crate) fn truncate(&mut self, len: usize) {
        if len < self.prefix.len() {
            self.prefix.truncate(len);
            self.ends.truncate(len + 2);
            self.cells.truncate(self.ends[len + 1]);
        }
    }

    /// Appends `c` to the prefix, computes its row, and returns the row's
    /// minimum: above `max`, no term extending the prefix is within `max`.
    pub(crate) fn push(&mut self, c: char) -> usize {
        let d = self.prefix.len() + 1;
        let outside = self.max.saturating_add(1);
        let (prev_lo, prev_hi) = self.band(d - 1);
        let (lo, hi) = self.band(d);
        let (prev_start, start) = (self.ends[d - 1], self.cells.len());
        let prev = |cells: &[usize], col: usize| {
            if (prev_lo..=prev_hi).contains(&col) {
                cells[prev_start + col - prev_lo]
            } else {
                outside
            }
        };
        let mut row_min = outside;
        let mut left = outside;
        for j in lo..=hi {
            let cell = if j == 0 {
                d
            } else {
                let substitute =
                    prev(&self.cells, j - 1).saturating_add(usize::from(self.query[j - 1] != c));
                let delete = prev(&self.cells, j).saturating_add(1);
                substitute.min(delete).min(left.saturating_add(1))
            };
            self.cells.push(cell);
            row_min = row_min.min(cell);
            left = cell;
        }
        self.computed += self.cells.len() - start;
        self.prefix.push(c);
        self.ends.push(self.cells.len());
        row_min
    }

    /// The distance between the query and the whole prefix, if at most
    /// `max`.
    pub(crate) fn distance(&self) -> Option<usize> {
        let d = self.prefix.len();
        let (lo, hi) = self.band(d);
        let n = self.query.len();
        if lo > n || hi < n {
            return None;
        }
        let cell = self.cells[self.ends[d] + n - lo];
        (cell <= self.max).then_some(cell)
    }

    /// The number of cells computed since [`Self::new`].
    pub(crate) fn computed(&self) -> usize {
        self.computed
    }
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
