//! Porter stemmer.
//!
//! The keyword index performs "lexical analysis (stemming, removal of
//! stopwords) as supported by standard IR engines". This is a
//! self-contained implementation of M. Porter's 1980 suffix-stripping
//! algorithm, operating on lower-case ASCII words (non-ASCII words are
//! returned unchanged).

/// Stems a single lower-case word with the Porter algorithm.
///
/// Words shorter than three characters and words containing non-ASCII
/// characters are returned unchanged.
#[expect(
    clippy::expect_used,
    reason = "the input is filtered to ASCII before stemming and every step only removes or appends ASCII bytes"
)]
pub fn porter_stem(word: &str) -> String {
    if word.len() <= 2 || !word.is_ascii() {
        return word.to_string();
    }
    let mut stemmer = Stemmer {
        b: word.as_bytes().to_vec(),
    };
    stemmer.step1a();
    stemmer.step1b();
    stemmer.step1c();
    stemmer.step2();
    stemmer.step3();
    stemmer.step4();
    stemmer.step5a();
    stemmer.step5b();
    String::from_utf8(stemmer.b).expect("stemming preserves ASCII")
}

struct Stemmer {
    b: Vec<u8>,
}

impl Stemmer {
    fn is_consonant(&self, i: usize) -> bool {
        match self.b[i] {
            b'a' | b'e' | b'i' | b'o' | b'u' => false,
            b'y' => {
                if i == 0 {
                    true
                } else {
                    !self.is_consonant(i - 1)
                }
            }
            _ => true,
        }
    }

    /// Measure of the word prefix of length `upto` (the `m` in Porter's
    /// paper): the number of vowel-consonant sequences.
    fn measure(&self, upto: usize) -> usize {
        let mut m = 0;
        let mut i = 0;
        // Skip initial consonants.
        while i < upto && self.is_consonant(i) {
            i += 1;
        }
        loop {
            // Skip vowels.
            while i < upto && !self.is_consonant(i) {
                i += 1;
            }
            if i >= upto {
                return m;
            }
            // Skip consonants.
            while i < upto && self.is_consonant(i) {
                i += 1;
            }
            m += 1;
        }
    }

    fn stem_len_for_suffix(&self, suffix: &str) -> Option<usize> {
        let s = suffix.as_bytes();
        if self.b.len() < s.len() {
            return None;
        }
        let start = self.b.len() - s.len();
        if &self.b[start..] == s {
            Some(start)
        } else {
            None
        }
    }

    fn ends_with(&self, suffix: &str) -> bool {
        self.stem_len_for_suffix(suffix).is_some()
    }

    fn has_vowel(&self, upto: usize) -> bool {
        (0..upto).any(|i| !self.is_consonant(i))
    }

    fn double_consonant(&self, at_end_of: usize) -> bool {
        if at_end_of < 2 {
            return false;
        }
        self.b[at_end_of - 1] == self.b[at_end_of - 2] && self.is_consonant(at_end_of - 1)
    }

    /// consonant-vowel-consonant, where the final consonant is not w, x or y.
    fn cvc(&self, at_end_of: usize) -> bool {
        if at_end_of < 3 {
            return false;
        }
        let i = at_end_of - 1;
        if !self.is_consonant(i) || self.is_consonant(i - 1) || !self.is_consonant(i - 2) {
            return false;
        }
        !matches!(self.b[i], b'w' | b'x' | b'y')
    }

    fn truncate(&mut self, len: usize) {
        self.b.truncate(len);
    }

    fn replace_suffix(&mut self, suffix: &str, replacement: &str) {
        let start = self.b.len() - suffix.len();
        self.b.truncate(start);
        self.b.extend_from_slice(replacement.as_bytes());
    }

    /// Replaces `suffix` by `replacement` if the preceding stem has measure
    /// greater than `min_measure`. Returns whether the suffix was present.
    fn replace_if_measure(&mut self, suffix: &str, replacement: &str, min_measure: usize) -> bool {
        if let Some(stem_len) = self.stem_len_for_suffix(suffix) {
            if self.measure(stem_len) > min_measure {
                self.truncate(stem_len);
                self.b.extend_from_slice(replacement.as_bytes());
            }
            true
        } else {
            false
        }
    }

    fn step1a(&mut self) {
        if self.ends_with("sses") {
            self.replace_suffix("sses", "ss");
        } else if self.ends_with("ies") {
            self.replace_suffix("ies", "i");
        } else if self.ends_with("ss") {
            // keep
        } else if self.ends_with("s") {
            self.replace_suffix("s", "");
        }
    }

    fn step1b(&mut self) {
        if let Some(stem_len) = self.stem_len_for_suffix("eed") {
            if self.measure(stem_len) > 0 {
                self.replace_suffix("eed", "ee");
            }
            return;
        }
        let matched = if let Some(stem_len) = self.stem_len_for_suffix("ed") {
            if self.has_vowel(stem_len) {
                self.truncate(stem_len);
                true
            } else {
                false
            }
        } else if let Some(stem_len) = self.stem_len_for_suffix("ing") {
            if self.has_vowel(stem_len) {
                self.truncate(stem_len);
                true
            } else {
                false
            }
        } else {
            false
        };
        if matched {
            if self.ends_with("at") || self.ends_with("bl") || self.ends_with("iz") {
                self.b.push(b'e');
            } else if self.double_consonant(self.b.len()) {
                #[expect(
                    clippy::unwrap_used,
                    reason = "double_consonant(len) just returned true, which requires at least two buffered bytes"
                )]
                let last = *self.b.last().unwrap();
                if !matches!(last, b'l' | b's' | b'z') {
                    self.b.pop();
                }
            } else if self.measure(self.b.len()) == 1 && self.cvc(self.b.len()) {
                self.b.push(b'e');
            }
        }
    }

    fn step1c(&mut self) {
        if let Some(stem_len) = self.stem_len_for_suffix("y") {
            if self.has_vowel(stem_len) {
                self.replace_suffix("y", "i");
            }
        }
    }

    fn step2(&mut self) {
        const RULES: &[(&str, &str)] = &[
            ("ational", "ate"),
            ("tional", "tion"),
            ("enci", "ence"),
            ("anci", "ance"),
            ("izer", "ize"),
            ("abli", "able"),
            ("alli", "al"),
            ("entli", "ent"),
            ("eli", "e"),
            ("ousli", "ous"),
            ("ization", "ize"),
            ("ation", "ate"),
            ("ator", "ate"),
            ("alism", "al"),
            ("iveness", "ive"),
            ("fulness", "ful"),
            ("ousness", "ous"),
            ("aliti", "al"),
            ("iviti", "ive"),
            ("biliti", "ble"),
        ];
        for (suffix, replacement) in RULES {
            if self.replace_if_measure(suffix, replacement, 0) {
                return;
            }
        }
    }

    fn step3(&mut self) {
        const RULES: &[(&str, &str)] = &[
            ("icate", "ic"),
            ("ative", ""),
            ("alize", "al"),
            ("iciti", "ic"),
            ("ical", "ic"),
            ("ful", ""),
            ("ness", ""),
        ];
        for (suffix, replacement) in RULES {
            if self.replace_if_measure(suffix, replacement, 0) {
                return;
            }
        }
    }

    fn step4(&mut self) {
        const SUFFIXES: &[&str] = &[
            "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement", "ment", "ent", "ou",
            "ism", "ate", "iti", "ous", "ive", "ize",
        ];
        // "ion" needs the extra condition that the stem ends in s or t.
        if let Some(stem_len) = self.stem_len_for_suffix("ion") {
            if stem_len > 0
                && matches!(self.b[stem_len - 1], b's' | b't')
                && self.measure(stem_len) > 1
            {
                self.truncate(stem_len);
                return;
            }
        }
        for suffix in SUFFIXES {
            if let Some(stem_len) = self.stem_len_for_suffix(suffix) {
                if self.measure(stem_len) > 1 {
                    self.truncate(stem_len);
                }
                return;
            }
        }
    }

    fn step5a(&mut self) {
        if let Some(stem_len) = self.stem_len_for_suffix("e") {
            let m = self.measure(stem_len);
            if m > 1 || (m == 1 && !self.cvc(stem_len)) {
                self.truncate(stem_len);
            }
        }
    }

    fn step5b(&mut self) {
        let len = self.b.len();
        if len > 1 && self.b[len - 1] == b'l' && self.double_consonant(len) && self.measure(len) > 1
        {
            self.b.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_porter_examples() {
        let cases = [
            ("caresses", "caress"),
            ("ponies", "poni"),
            ("ties", "ti"),
            ("caress", "caress"),
            ("cats", "cat"),
            ("feed", "feed"),
            ("agreed", "agre"),
            ("plastered", "plaster"),
            ("bled", "bled"),
            ("motoring", "motor"),
            ("sing", "sing"),
            ("conflated", "conflat"),
            ("troubled", "troubl"),
            ("sized", "size"),
            ("hopping", "hop"),
            ("tanned", "tan"),
            ("falling", "fall"),
            ("hissing", "hiss"),
            ("fizzed", "fizz"),
            ("failing", "fail"),
            ("filing", "file"),
            ("happy", "happi"),
            ("sky", "sky"),
            ("relational", "relat"),
            ("conditional", "condit"),
            ("rational", "ration"),
            ("valenci", "valenc"),
            ("digitizer", "digit"),
            ("operator", "oper"),
            ("feudalism", "feudal"),
            ("decisiveness", "decis"),
            ("hopefulness", "hope"),
            ("callousness", "callous"),
            ("formaliti", "formal"),
            ("sensitiviti", "sensit"),
            ("sensibiliti", "sensibl"),
            ("triplicate", "triplic"),
            ("formative", "form"),
            ("formalize", "formal"),
            ("electriciti", "electr"),
            ("electrical", "electr"),
            ("hopeful", "hope"),
            ("goodness", "good"),
            ("revival", "reviv"),
            ("allowance", "allow"),
            ("inference", "infer"),
            ("airliner", "airlin"),
            ("gyroscopic", "gyroscop"),
            ("adjustable", "adjust"),
            ("defensible", "defens"),
            ("irritant", "irrit"),
            ("replacement", "replac"),
            ("adjustment", "adjust"),
            ("dependent", "depend"),
            ("adoption", "adopt"),
            ("communism", "commun"),
            ("activate", "activ"),
            ("angulariti", "angular"),
            ("homologous", "homolog"),
            ("effective", "effect"),
            ("bowdlerize", "bowdler"),
            ("probate", "probat"),
            ("rate", "rate"),
            ("cease", "ceas"),
            ("controll", "control"),
            ("roll", "roll"),
        ];
        for (input, expected) in cases {
            assert_eq!(porter_stem(input), expected, "stem({input})");
        }
    }

    #[test]
    fn domain_terms_stem_consistently() {
        // The keyword index matches query terms to label terms after
        // stemming, so morphological variants must collapse.
        assert_eq!(porter_stem("publications"), porter_stem("publication"));
        assert_eq!(porter_stem("algorithms"), porter_stem("algorithm"));
        assert_eq!(porter_stem("searching"), porter_stem("searched"));
        assert_eq!(porter_stem("universities"), porter_stem("universiti"));
        assert_eq!(porter_stem("databases"), porter_stem("database"));
    }

    #[test]
    fn short_and_non_ascii_words_are_untouched() {
        assert_eq!(porter_stem("db"), "db");
        assert_eq!(porter_stem("a"), "a");
        assert_eq!(porter_stem("café"), "café");
        assert_eq!(porter_stem("2006"), "2006");
    }
}
