//! `kwsearch-lint` — the workspace's own static-analysis pass.
//!
//! The engine's central claim (PR 5's determinism suite) is that results are
//! bit-identical across threads, cache hits, and replays. The hazards that
//! would break that claim are statically recognizable, and with no registry
//! access (no clippy plugins, miri, or loom) the workspace carries its own
//! correctness tooling: a hand-rolled Rust tokenizer
//! ([`tokenizer`]) plus a token-level rule engine that walks every
//! non-`compat` workspace source.
//!
//! # Rules
//!
//! | rule | guards against |
//! |------|----------------|
//! | `unordered-iteration` | hash-order iteration reaching `SearchOutcome` in `core`/`summary`/`keyword-index` |
//! | `no-alloc-hot-path` | allocation creeping back into `// lint: hot-path` fns (PR 2's flattened pop loop) |
//! | `lock-discipline` | nested `.lock()`/`lock_unpoisoned(…)` while a guard is live |
//! | `no-unsafe` | `unsafe` anywhere |
//! | `no-unwrap` | `.unwrap()`/`.expect(…)`/`.unwrap_unchecked(…)` panic or UB sites in non-test code |
//! | `float-ordering` | `partial_cmp` shortcuts / bare float `==` outside the blessed total-order sites |
//!
//! Two hygiene findings keep the escape hatches honest: `bad-annotation`
//! (malformed directive, unknown rule, missing reason) and `unused-allow`
//! (an allow that suppressed nothing). Neither can itself be suppressed.
//!
//! # Annotation grammar
//!
//! See [`annotations`]: `// lint: allow(<rule>, reason = "…")` (line scope),
//! `allow-file(<rule>, reason = "…")`, `unordered-ok(reason = "…")`, and
//! `hot-path`. Every suppression carries a mandatory, non-empty reason.
//!
//! The static pass is paired with a runtime sanitizer
//! (`searchwebdb_core::invariants`) that checks the same invariants the lint
//! cannot see statically — pop monotonicity, the Theorem-1 certificate
//! inequality, replay-log equality, LRU bounds — under `debug_assertions`.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(missing_debug_implementations)]

pub mod annotations;
pub mod rules;
pub mod tokenizer;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use annotations::Annotations;
use rules::FileContext;

/// One finding: where it is, which rule fired, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// Rule name (one of [`rules::RULE_NAMES`], `bad-annotation`, or
    /// `unused-allow`).
    pub rule: &'static str,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

impl Diagnostic {
    /// Renders the diagnostic as one JSON object (hand-rolled: the workspace
    /// has no serde).
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"path":"{}","line":{},"rule":"{}","message":"{}"}}"#,
            escape_json(&self.path),
            self.line,
            self.rule,
            escape_json(&self.message)
        )
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Lints one source file given its workspace-relative `path` (used for
/// crate-scoped rules and blessed-site checks) and returns the diagnostics
/// that survive the file's `// lint:` annotations, sorted by line.
pub fn lint_source(path: &str, source: &str) -> Vec<Diagnostic> {
    let tokens = tokenizer::tokenize(source);
    let mut ann = Annotations::collect(&tokens);
    let ctx = FileContext::new(path, &tokens);

    let mut diags: Vec<Diagnostic> = Vec::new();
    for diag in rules::run_rules(&ctx, &ann) {
        if diag.rule != "bad-annotation" && suppress(&mut ann, diag.rule, diag.line) {
            continue;
        }
        diags.push(diag);
    }
    for (line, message) in ann.problems {
        diags.push(Diagnostic {
            path: path.to_string(),
            line,
            rule: "bad-annotation",
            message,
        });
    }
    for allow in ann.allows.iter().filter(|a| !a.used) {
        diags.push(Diagnostic {
            path: path.to_string(),
            line: allow.line,
            rule: "unused-allow",
            message: format!(
                "`allow({})` suppresses nothing: remove it or move it next to the violation",
                allow.rule
            ),
        });
    }
    for allow in ann.file_allows.iter().filter(|a| !a.used) {
        diags.push(Diagnostic {
            path: path.to_string(),
            line: allow.line,
            rule: "unused-allow",
            message: format!("`allow-file({})` suppresses nothing: remove it", allow.rule),
        });
    }
    diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    diags
}

/// Marks the first matching allow used and reports whether `rule` at `line`
/// is suppressed. Line allows cover their own line and the next one, so the
/// annotation reads naturally either trailing the violation or above it.
fn suppress(ann: &mut Annotations, rule: &str, line: u32) -> bool {
    if let Some(allow) = ann.file_allows.iter_mut().find(|a| a.rule == rule) {
        allow.used = true;
        return true;
    }
    if let Some(allow) = ann
        .allows
        .iter_mut()
        .find(|a| a.rule == rule && (a.line == line || a.line + 1 == line))
    {
        allow.used = true;
        return true;
    }
    false
}

/// Walks every workspace `.rs` source under `root` — skipping `target/`,
/// `.git/`, the `crates/compat/` stand-ins, and the lint crate's own
/// violation fixtures — and lints each file. Files and diagnostics come back
/// in deterministic (sorted) order.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    collect_sources(root, root, &mut files)?;
    files.sort();
    let mut diags = Vec::new();
    for rel in &files {
        let source = fs::read_to_string(root.join(rel))?;
        let rel_unix = rel.to_string_lossy().replace('\\', "/");
        diags.extend(lint_source(&rel_unix, &source));
    }
    Ok(diags)
}

/// Workspace-relative paths (with OS separators) that `lint_workspace` must
/// not descend into.
const SKIP_DIRS: &[&str] = &[
    "target",
    ".git",
    "crates/compat",
    "crates/lint/tests/fixtures",
];

fn collect_sources(root: &Path, dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let Ok(rel) = path.strip_prefix(root) else {
            continue;
        };
        let rel_unix = rel.to_string_lossy().replace('\\', "/");
        if path.is_dir() {
            if SKIP_DIRS.contains(&rel_unix.as_str()) {
                continue;
            }
            collect_sources(root, &path, files)?;
        } else if rel_unix.ends_with(".rs") {
            files.push(rel.to_path_buf());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_suppresses_adjacent_line_only() {
        let src = "\
// lint: allow(no-unwrap, reason = \"demo\")
fn f(x: Option<u32>) -> u32 { x.unwrap() }
fn g(x: Option<u32>) -> u32 { x.unwrap() }
";
        let diags = lint_source("crates/core/src/demo.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn unused_allow_is_reported() {
        let src = "// lint: allow(no-unwrap, reason = \"stale\")\nfn f() {}\n";
        let diags = lint_source("crates/core/src/demo.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "unused-allow");
    }

    #[test]
    fn file_allow_covers_whole_file() {
        let src = "\
// lint: allow-file(no-unwrap, reason = \"demo harness\")
fn f(x: Option<u32>) -> u32 { x.unwrap() }
fn g(x: Option<u32>) -> u32 { x.unwrap() }
";
        assert!(lint_source("crates/datagen/src/demo.rs", src).is_empty());
    }

    #[test]
    fn json_escaping() {
        let d = Diagnostic {
            path: "a\\b.rs".to_string(),
            line: 1,
            rule: "no-unwrap",
            message: "say \"no\"".to_string(),
        };
        assert_eq!(
            d.to_json(),
            r#"{"path":"a\\b.rs","line":1,"rule":"no-unwrap","message":"say \"no\""}"#
        );
    }
}
