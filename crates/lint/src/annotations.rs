//! The `// lint:` annotation grammar.
//!
//! Annotations are ordinary line comments whose text starts with `lint:`.
//! Four forms exist:
//!
//! * `// lint: allow(<rule>, reason = "…")` — suppress `<rule>` on the
//!   annotation's own line and the line after it. A non-empty reason is
//!   mandatory.
//! * `// lint: allow-file(<rule>, reason = "…")` — suppress `<rule>` for the
//!   whole file (measurement binaries use this for `no-unwrap`).
//! * `// lint: unordered-ok(reason = "…")` — sugar for
//!   `allow(unordered-iteration, …)`, matching the vocabulary the rule's
//!   diagnostic suggests.
//! * `// lint: hot-path` — marks the next `fn` as allocation-free: the
//!   `no-alloc-hot-path` rule checks its body.
//!
//! Malformed directives (unknown rule, missing reason, trailing junk) are
//! themselves diagnostics (`bad-annotation`), and allows that suppress
//! nothing are reported as `unused-allow` — so stale escapes cannot linger.

use crate::rules::RULE_NAMES;
use crate::tokenizer::{Token, TokenKind};

/// A parsed `allow` / `allow-file` / `unordered-ok` directive.
#[derive(Debug)]
pub struct Allow {
    /// The rule being suppressed.
    pub rule: String,
    /// Line of the annotation comment.
    pub line: u32,
    /// Set when the allow actually suppressed a diagnostic.
    pub used: bool,
}

/// All annotations found in one file.
#[derive(Debug, Default)]
pub struct Annotations {
    /// Line-scoped allows (cover their own line and the next).
    pub allows: Vec<Allow>,
    /// File-scoped allows.
    pub file_allows: Vec<Allow>,
    /// Lines carrying a `hot-path` marker (binds to the next `fn`).
    pub hot_path: Vec<u32>,
    /// `bad-annotation` findings: (line, message).
    pub problems: Vec<(u32, String)>,
}

impl Annotations {
    /// Parses every `// lint:` directive out of a token stream.
    pub fn collect(tokens: &[Token<'_>]) -> Self {
        let mut out = Self::default();
        for tok in tokens {
            // Only plain line comments carry directives; doc comments are
            // documentation and block comments are prose.
            let TokenKind::LineComment { doc: false } = tok.kind else {
                continue;
            };
            let body = tok.text.trim_start_matches('/').trim();
            let Some(directive) = body.strip_prefix("lint:") else {
                continue;
            };
            out.parse_directive(directive.trim(), tok.line);
        }
        out
    }

    fn parse_directive(&mut self, directive: &str, line: u32) {
        let (name, args) = match directive.find('(') {
            Some(open) => {
                let Some(inner) = directive[open..]
                    .strip_prefix('(')
                    .and_then(|rest| rest.strip_suffix(')'))
                else {
                    self.problems
                        .push((line, format!("unbalanced parentheses in `{directive}`")));
                    return;
                };
                (directive[..open].trim(), Some(inner.trim()))
            }
            None => (directive, None),
        };
        match (name, args) {
            ("hot-path", None) => self.hot_path.push(line),
            ("hot-path", Some(_)) => self
                .problems
                .push((line, "`hot-path` markers take no arguments".to_string())),
            ("allow" | "allow-file", Some(args)) => {
                let Some((rule, reason_part)) = args.split_once(',') else {
                    self.problems.push((
                        line,
                        format!(
                            "`{name}` needs a rule and a reason: `{name}(<rule>, reason = \"…\")`"
                        ),
                    ));
                    return;
                };
                let rule = rule.trim();
                if !RULE_NAMES.contains(&rule) {
                    self.problems
                        .push((line, format!("unknown rule `{rule}` in `{name}`")));
                    return;
                }
                if !self.require_reason(reason_part, name, line) {
                    return;
                }
                let allow = Allow {
                    rule: rule.to_string(),
                    line,
                    used: false,
                };
                if name == "allow" {
                    self.allows.push(allow);
                } else {
                    self.file_allows.push(allow);
                }
            }
            ("unordered-ok", Some(args)) => {
                if !self.require_reason(args, "unordered-ok", line) {
                    return;
                }
                self.allows.push(Allow {
                    rule: "unordered-iteration".to_string(),
                    line,
                    used: false,
                });
            }
            ("allow" | "allow-file" | "unordered-ok", None) => self.problems.push((
                line,
                format!("`{name}` requires arguments including a reason"),
            )),
            _ => self
                .problems
                .push((line, format!("unknown lint directive `{name}`"))),
        }
    }

    /// Validates a `reason = "…"` clause with a non-empty string.
    fn require_reason(&mut self, clause: &str, directive: &str, line: u32) -> bool {
        let ok = clause
            .trim()
            .strip_prefix("reason")
            .map(str::trim_start)
            .and_then(|rest| rest.strip_prefix('='))
            .map(str::trim)
            .and_then(|rest| rest.strip_prefix('"'))
            .and_then(|rest| rest.strip_suffix('"'))
            .is_some_and(|reason| !reason.trim().is_empty());
        if !ok {
            self.problems.push((
                line,
                format!("`{directive}` requires a non-empty `reason = \"…\"` clause"),
            ));
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn collect(src: &str) -> Annotations {
        Annotations::collect(&tokenize(src))
    }

    #[test]
    fn parses_all_directive_forms() {
        let ann = collect(
            "// lint: allow(no-unwrap, reason = \"invariant\")\n\
             // lint: allow-file(no-unwrap, reason = \"harness\")\n\
             // lint: unordered-ok(reason = \"order-independent fold\")\n\
             // lint: hot-path\n",
        );
        assert_eq!(ann.allows.len(), 2);
        assert_eq!(ann.allows[1].rule, "unordered-iteration");
        assert_eq!(ann.file_allows.len(), 1);
        assert_eq!(ann.hot_path, vec![4]);
        assert!(ann.problems.is_empty());
    }

    #[test]
    fn missing_reason_is_a_problem() {
        let ann = collect("// lint: allow(no-unwrap)\n// lint: unordered-ok(reason = \"\")\n");
        assert_eq!(ann.problems.len(), 2);
        assert!(ann.allows.is_empty());
    }

    #[test]
    fn unknown_rule_and_directive_are_problems() {
        let ann = collect("// lint: allow(no-such-rule, reason = \"x\")\n// lint: frobnicate\n");
        assert_eq!(ann.problems.len(), 2);
    }

    #[test]
    fn doc_comments_and_prose_do_not_parse() {
        let ann =
            collect("/// lint: allow(no-unwrap, reason = \"doc\")\n// mentions lint: nothing\n");
        assert!(ann.allows.is_empty());
        assert!(ann.problems.is_empty());
    }
}
