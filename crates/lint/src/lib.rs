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
//! | `lock-discipline` | nested `.lock()`/`lock_unpoisoned(…)` while a guard is live; condvar waits outside `// lint: wait-loop` fns |
//! | `lock-order` | cycles in the workspace-wide lock acquisition graph (cross-file AB-BA deadlocks) |
//! | `no-raw-sync` | `std::sync` state in `crates/core` bypassing the `sync.rs` facade (invisible to the model checker) |
//! | `no-unsafe` | `unsafe` anywhere outside the vendored `crates/compat` stand-ins |
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
//! `allow-file(<rule>, reason = "…")`, `unordered-ok(reason = "…")`,
//! `hot-path`, and `wait-loop`. Every suppression carries a mandatory,
//! non-empty reason.
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

/// One nested lock acquisition located in the workspace: lock `second` was
/// taken at `path:line` while a guard of lock `first` was live. These are
/// the edges of the global acquisition-order graph; see
/// [`lock_order_cycles`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Workspace-relative path of the nesting site.
    pub path: String,
    /// 1-based line of the second acquisition.
    pub line: u32,
    /// Lock whose guard was already held.
    pub first: String,
    /// Lock acquired under it.
    pub second: String,
}

/// Per-file lint output: the surviving diagnostics plus the file's
/// contribution to the global lock acquisition graph (edges already waived
/// by `// lint: allow(lock-order, …)` are excluded and count the allow as
/// used).
#[derive(Debug)]
pub struct FileAnalysis {
    /// Diagnostics that survive the file's annotations, sorted by line.
    pub diagnostics: Vec<Diagnostic>,
    /// Nested-acquisition edges for the cross-file `lock-order` analysis.
    pub lock_edges: Vec<LockEdge>,
}

/// Lints one source file given its workspace-relative `path` (used for
/// crate-scoped rules and blessed-site checks) and returns the diagnostics
/// that survive the file's `// lint:` annotations, sorted by line.
///
/// Cross-file analyses see only this file: lock-order cycles are checked
/// against the file's own edges. Use [`analyze_source`] +
/// [`lock_order_cycles`] to aggregate over many files (what
/// [`lint_workspace`] does).
pub fn lint_source(path: &str, source: &str) -> Vec<Diagnostic> {
    let analysis = analyze_source(path, source);
    let mut diags = analysis.diagnostics;
    diags.extend(lock_order_cycles(&analysis.lock_edges));
    diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    diags
}

/// Lints one source file and also returns its lock acquisition edges for
/// cross-file aggregation.
pub fn analyze_source(path: &str, source: &str) -> FileAnalysis {
    let tokens = tokenizer::tokenize(source);
    let mut ann = Annotations::collect(&tokens);
    let ctx = FileContext::new(path, &tokens);
    let (raw, raw_edges) = rules::run_rules_full(&ctx, &ann);

    let mut diags: Vec<Diagnostic> = Vec::new();
    for diag in raw {
        if diag.rule != "bad-annotation" && suppress(&mut ann, diag.rule, diag.line) {
            continue;
        }
        diags.push(diag);
    }
    let mut lock_edges = Vec::new();
    for edge in raw_edges {
        if suppress(&mut ann, "lock-order", edge.line) {
            continue;
        }
        lock_edges.push(LockEdge {
            path: path.to_string(),
            line: edge.line,
            first: edge.first,
            second: edge.second,
        });
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
    FileAnalysis {
        diagnostics: diags,
        lock_edges,
    }
}

/// Checks the aggregated lock acquisition graph for cycles.
///
/// Nodes are lock names (the mutex-holding field), edges come from
/// [`analyze_source`]. Any directed cycle — `state → metrics` in one file
/// and `metrics → state` in another is the classic AB-BA — produces one
/// `lock-order` diagnostic anchored at the cycle's first site and naming
/// every participating site, so both halves of the inversion are in the
/// message. A self-edge (`a → a`) is a re-entrant acquisition and reported
/// the same way.
pub fn lock_order_cycles(edges: &[LockEdge]) -> Vec<Diagnostic> {
    // One representative site per distinct (first, second) pair, in
    // deterministic order.
    let mut pairs: Vec<&LockEdge> = Vec::new();
    let mut sorted: Vec<&LockEdge> = edges.iter().collect();
    sorted.sort_by_key(|e| (&e.first, &e.second, &e.path, e.line));
    for edge in sorted {
        if !pairs
            .iter()
            .any(|p| p.first == edge.first && p.second == edge.second)
        {
            pairs.push(edge);
        }
    }

    let mut diags = Vec::new();
    let mut reported: Vec<Vec<&str>> = Vec::new();
    for (start_idx, start) in pairs.iter().enumerate() {
        // DFS from `start.second` back to `start.first` over the pair graph.
        let Some(mut path_edges) = find_path(&pairs, start.second.as_str(), start.first.as_str())
        else {
            continue;
        };
        path_edges.insert(0, start_idx);
        // Normalize the cycle to its sorted node set so each cycle is
        // reported once no matter which edge the scan reached first.
        let mut signature: Vec<&str> = path_edges
            .iter()
            .map(|&i| pairs[i].first.as_str())
            .collect();
        signature.sort_unstable();
        if reported.contains(&signature) {
            continue;
        }
        reported.push(signature);
        let sites: Vec<String> = path_edges
            .iter()
            .map(|&i| {
                let e = pairs[i];
                format!("`{}` → `{}` at {}:{}", e.first, e.second, e.path, e.line)
            })
            .collect();
        diags.push(Diagnostic {
            path: start.path.clone(),
            line: start.line,
            rule: "lock-order",
            message: format!(
                "lock acquisition cycle: {} — threads taking these locks in different orders \
                 can deadlock; pick one workspace-wide order (or waive a deliberate edge with \
                 `// lint: allow(lock-order, reason = \"…\")` at its site)",
                sites.join(", ")
            ),
        });
    }
    diags
}

/// Edge indices (into `pairs`) forming a path `from →* to`, or `None`.
/// Deterministic: pairs are pre-sorted and visited in order.
fn find_path(pairs: &[&LockEdge], from: &str, to: &str) -> Option<Vec<usize>> {
    if from == to {
        return Some(Vec::new());
    }
    let mut stack = vec![(from, Vec::new())];
    let mut visited = vec![from.to_string()];
    while let Some((node, path)) = stack.pop() {
        for (i, pair) in pairs.iter().enumerate() {
            if pair.first != node {
                continue;
            }
            let mut next_path = path.clone();
            next_path.push(i);
            if pair.second == to {
                return Some(next_path);
            }
            if !visited.iter().any(|v| v == &pair.second) {
                visited.push(pair.second.clone());
                stack.push((pair.second.as_str(), next_path));
            }
        }
    }
    None
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
/// violation fixtures — lints each file, and checks the aggregated lock
/// acquisition graph for cross-file `lock-order` cycles. Files and
/// diagnostics come back in deterministic (sorted) order.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    collect_sources(root, root, &mut files)?;
    files.sort();
    let mut diags = Vec::new();
    let mut edges = Vec::new();
    for rel in &files {
        let source = fs::read_to_string(root.join(rel))?;
        let rel_unix = rel.to_string_lossy().replace('\\', "/");
        let analysis = analyze_source(&rel_unix, &source);
        diags.extend(analysis.diagnostics);
        edges.extend(analysis.lock_edges);
    }
    diags.extend(lock_order_cycles(&edges));
    diags.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(diags)
}

/// The aggregated lock acquisition edges of the whole workspace — every
/// nested-lock site, including those whose `lock-discipline` diagnostic is
/// allowed (the documented hierarchies must still appear in the graph).
/// The suite asserts the serve-path hierarchy is present and acyclic.
pub fn workspace_lock_edges(root: &Path) -> io::Result<Vec<LockEdge>> {
    let mut files = Vec::new();
    collect_sources(root, root, &mut files)?;
    files.sort();
    let mut edges = Vec::new();
    for rel in &files {
        let source = fs::read_to_string(root.join(rel))?;
        let rel_unix = rel.to_string_lossy().replace('\\', "/");
        edges.extend(analyze_source(&rel_unix, &source).lock_edges);
    }
    Ok(edges)
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
