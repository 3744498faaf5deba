//! The repo-specific rules.
//!
//! Every rule works on the token stream from [`crate::tokenizer`] — no AST.
//! The heuristics are deliberately tuned to this workspace's idioms (see the
//! per-rule docs); where a heuristic over-approximates, the inline
//! `// lint: allow(...)` escape documents why the flagged site is sound.

use crate::annotations::Annotations;
use crate::tokenizer::{Token, TokenKind};
use crate::Diagnostic;

/// Names of all enforceable rules, in severity-neutral alphabetical order.
///
/// `bad-annotation` and `unused-allow` are engine-level hygiene findings and
/// intentionally absent: they cannot be suppressed.
pub const RULE_NAMES: &[&str] = &[
    "float-ordering",
    "lock-discipline",
    "no-alloc-hot-path",
    "no-unsafe",
    "no-unwrap",
    "unordered-iteration",
];

/// Crates whose iteration order can reach `SearchOutcome` and therefore must
/// not leak hash order (the determinism surface of the engine).
const ORDER_SENSITIVE_PREFIXES: &[&str] = &[
    "crates/core/src/",
    "crates/summary/src/",
    "crates/keyword-index/src/",
];

/// The two blessed total-order sites where `partial_cmp` shortcuts and bare
/// float comparisons are reviewed and sound (both build on `f64::total_cmp`).
const FLOAT_ORDER_BLESSED: &[&str] = &["crates/core/src/cursor.rs", "crates/core/src/topk.rs"];

/// Calls that allocate and are therefore banned in `// lint: hot-path` fns.
const HOT_PATH_BANNED: &[&str] = &[
    "clone",
    "collect",
    "to_owned",
    "to_string",
    "to_vec",
    "with_capacity",
];

/// A function body located in the token stream.
#[derive(Debug)]
struct FnRegion {
    /// Token index of the opening `{` (body start).
    body_start: usize,
    /// Token index one past the matching `}`.
    body_end: usize,
    /// Line of the `fn` keyword.
    line: u32,
}

/// Shared per-file context handed to every rule.
#[derive(Debug)]
pub struct FileContext<'s> {
    /// Workspace-relative path with `/` separators.
    pub path: &'s str,
    /// Code tokens only — comments stripped, indices stable across rules.
    pub code: Vec<Token<'s>>,
    /// Whether the whole file is test context (`tests/`, `examples/`).
    pub path_is_test: bool,
    /// Line ranges `[start, end]` covered by `#[cfg(test)]` / `#[test]`.
    test_regions: Vec<(u32, u32)>,
    fns: Vec<FnRegion>,
}

impl<'s> FileContext<'s> {
    /// Builds the context: strips comments, finds test regions and fn bodies.
    pub fn new(path: &'s str, tokens: &[Token<'s>]) -> Self {
        let code: Vec<Token<'s>> = tokens.iter().filter(|t| !t.is_comment()).copied().collect();
        let path_is_test = ["tests/", "examples/"]
            .iter()
            .any(|dir| path.starts_with(dir) || path.contains(&format!("/{dir}")));
        let test_regions = find_test_regions(&code);
        let fns = find_fns(&code);
        Self {
            path,
            code,
            path_is_test,
            test_regions,
            fns,
        }
    }

    /// Whether a line sits in test-only code (by path or `cfg(test)` region).
    pub fn is_test_line(&self, line: u32) -> bool {
        self.path_is_test
            || self
                .test_regions
                .iter()
                .any(|&(start, end)| (start..=end).contains(&line))
    }

    fn diag(&self, line: u32, rule: &'static str, message: String) -> Diagnostic {
        Diagnostic {
            path: self.path.to_string(),
            line,
            rule,
            message,
        }
    }

    /// Resolves a marker comment line to the first fn declared after it.
    fn fn_after(&self, marker_line: u32) -> Option<&FnRegion> {
        self.fns.iter().find(|f| f.line >= marker_line)
    }
}

/// Locates `#[cfg(test)]` / `#[test]` attributes and the brace block that
/// follows each, producing inclusive line ranges of test-only code.
fn find_test_regions(code: &[Token<'_>]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if code[i].text == "#" && code.get(i + 1).map(|t| t.text) == Some("[") {
            let attr_line = code[i].line;
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut is_test = false;
            while j < code.len() {
                match code[j].text {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    "test" if code[j].kind == TokenKind::Ident => is_test = true,
                    _ => {}
                }
                j += 1;
            }
            if is_test {
                // The attribute governs the next brace block (mod or fn).
                if let Some(open) = (j..code.len()).find(|&k| code[k].text == "{") {
                    let close = matching_brace(code, open);
                    regions.push((attr_line, code[close.min(code.len() - 1)].line));
                    i = j + 1;
                    continue;
                }
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    regions
}

/// Index of the `}` matching the `{` at `open` (or the last token if the
/// file is unbalanced — the linter must not panic on broken input).
fn matching_brace(code: &[Token<'_>], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, tok) in code.iter().enumerate().skip(open) {
        match tok.text {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    code.len().saturating_sub(1)
}

/// Finds every `fn` and its body block. The body is the first `{` after the
/// signature at zero paren/bracket depth (skips argument lists, generics with
/// defaults, and `where` clauses).
fn find_fns(code: &[Token<'_>]) -> Vec<FnRegion> {
    let mut fns = Vec::new();
    for (i, tok) in code.iter().enumerate() {
        if tok.kind != TokenKind::Ident || tok.text != "fn" {
            continue;
        }
        let mut parens = 0i32;
        let mut brackets = 0i32;
        let mut j = i + 1;
        let body_start = loop {
            let Some(t) = code.get(j) else { break None };
            match t.text {
                "(" => parens += 1,
                ")" => parens -= 1,
                "[" => brackets += 1,
                "]" => brackets -= 1,
                "{" if parens == 0 && brackets == 0 => break Some(j),
                // A trait-method declaration without a body.
                ";" if parens == 0 && brackets == 0 => break None,
                _ => {}
            }
            j += 1;
        };
        if let Some(body_start) = body_start {
            fns.push(FnRegion {
                body_start,
                body_end: matching_brace(code, body_start) + 1,
                line: tok.line,
            });
        }
    }
    fns
}

/// Runs every rule over one file and returns the raw (pre-`allow`)
/// diagnostics.
pub fn run_rules(ctx: &FileContext<'_>, ann: &Annotations) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    no_unwrap(ctx, &mut diags);
    no_unsafe(ctx, &mut diags);
    float_ordering(ctx, &mut diags);
    unordered_iteration(ctx, &mut diags);
    no_alloc_hot_path(ctx, ann, &mut diags);
    lock_discipline(ctx, &mut diags);
    diags
}

/// **no-unwrap** — `.unwrap()` / `.expect(…)` abort the worker thread that
/// runs them (and `.unwrap_unchecked(…)` is UB when the invariant slips);
/// outside tests, examples and doc code every panic site must be an
/// explicit, reasoned decision (`allow` with reason) or be rewritten.
fn no_unwrap(ctx: &FileContext<'_>, diags: &mut Vec<Diagnostic>) {
    let code = &ctx.code;
    for i in 1..code.len() {
        let t = &code[i];
        if t.kind != TokenKind::Ident
            || (t.text != "unwrap" && t.text != "expect" && t.text != "unwrap_unchecked")
        {
            continue;
        }
        if code[i - 1].text == "." && code.get(i + 1).map(|t| t.text) == Some("(") {
            if ctx.is_test_line(t.line) {
                continue;
            }
            let consequence = if t.text == "unwrap_unchecked" {
                "undefined behavior the moment the invariant slips: prove the invariant or \
                 handle the `None`/`Err` arm"
            } else {
                "handle the error or document the invariant with \
                 `// lint: allow(no-unwrap, reason = \"…\")`"
            };
            diags.push(ctx.diag(
                t.line,
                "no-unwrap",
                format!("`.{}(…)` in non-test code: {consequence}", t.text),
            ));
        }
    }
}

/// **no-unsafe** — the workspace ships no `unsafe`. An `unsafe` token
/// anywhere — tests included, since UB does not care about `cfg(test)` —
/// needs a reasoned `// lint: allow(no-unsafe, reason = "…")`.
fn no_unsafe(ctx: &FileContext<'_>, diags: &mut Vec<Diagnostic>) {
    for t in &ctx.code {
        if t.kind == TokenKind::Ident && t.text == "unsafe" {
            diags.push(
                ctx.diag(
                    t.line,
                    "no-unsafe",
                    "`unsafe` in a safe-Rust workspace: justify the \
                 exception with `// lint: allow(no-unsafe, reason = \"…\")` or rewrite"
                        .to_string(),
                ),
            );
        }
    }
}

/// **float-ordering** — `partial_cmp` shortcuts and bare `f64` comparisons
/// silently disagree about NaN and signed zero, which desynchronizes ranking
/// across threads. Total-order comparisons live in exactly two blessed files
/// (`cursor.rs`, `topk.rs`); everywhere else must route through them or use
/// `f64::total_cmp`. The canonical `PartialOrd` delegation
/// `{ Some(self.cmp(other)) }` is recognized as safe.
fn float_ordering(ctx: &FileContext<'_>, diags: &mut Vec<Diagnostic>) {
    if FLOAT_ORDER_BLESSED.contains(&ctx.path) {
        return;
    }
    let code = &ctx.code;
    for (i, t) in code.iter().enumerate() {
        if ctx.is_test_line(t.line) {
            continue;
        }
        if t.kind == TokenKind::Ident && t.text == "partial_cmp" {
            if is_safe_partial_cmp_delegation(code, i) {
                continue;
            }
            diags.push(
                ctx.diag(
                    t.line,
                    "float-ordering",
                    "`partial_cmp` outside the blessed total-order sites (cursor.rs, topk.rs): \
                 use `f64::total_cmp` or delegate to `Ord`"
                        .to_string(),
                ),
            );
        }
        if t.text == "==" || t.text == "!=" {
            let float_operand = [i.wrapping_sub(1), i + 1].iter().any(|&j| {
                code.get(j)
                    .is_some_and(|t| matches!(t.kind, TokenKind::Number { float: true }))
            });
            if float_operand {
                diags.push(ctx.diag(
                    t.line,
                    "float-ordering",
                    format!(
                        "bare `{}` against a float literal outside the blessed total-order \
                         sites: compare via `f64::total_cmp`",
                        t.text
                    ),
                ));
            }
        }
    }
}

/// Recognizes `fn partial_cmp(&self, other: &Self) -> … {{ Some(self.cmp(other)) }}`
/// — the mandatory `PartialOrd` impl that forwards to a total `Ord`.
fn is_safe_partial_cmp_delegation(code: &[Token<'_>], name_idx: usize) -> bool {
    if name_idx == 0 || code[name_idx - 1].text != "fn" {
        return false;
    }
    let Some(open) = (name_idx..code.len()).find(|&k| code[k].text == "{") else {
        return false;
    };
    let close = matching_brace(code, open);
    let body: Vec<&str> = code[open + 1..close].iter().map(|t| t.text).collect();
    body == ["Some", "(", "self", ".", "cmp", "(", "other", ")", ")"]
}

/// **unordered-iteration** — in `crates/core`, `crates/summary` and
/// `crates/keyword-index`, iterating a `HashMap`/`HashSet` without an
/// `unordered-ok` annotation risks hash order reaching `SearchOutcome`.
/// Bindings are tracked from `name: …HashMap<…>` type ascriptions (lets,
/// params, struct fields) and `let name = HashMap::new()` initializers.
fn unordered_iteration(ctx: &FileContext<'_>, diags: &mut Vec<Diagnostic>) {
    if !ORDER_SENSITIVE_PREFIXES
        .iter()
        .any(|p| ctx.path.starts_with(p))
    {
        return;
    }
    let code = &ctx.code;
    let mut hash_names: Vec<&str> = Vec::new();

    // Pass 1: collect identifiers whose declared or inferred type is a hash
    // collection anywhere in the file (fields are declared before methods).
    for i in 0..code.len() {
        let t = &code[i];
        if t.kind != TokenKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        // Walk back to the `name :` or `name =` that owns this type mention,
        // stopping at statement/field boundaries.
        let mut j = i;
        while j > 0 {
            j -= 1;
            match code[j].text {
                ":" | "=" => {
                    if j >= 1 && code[j - 1].kind == TokenKind::Ident {
                        let name = code[j - 1].text;
                        if !matches!(name, "mut" | "let" | "pub") && !hash_names.contains(&name) {
                            hash_names.push(name);
                        }
                    }
                    break;
                }
                ";" | "," | "{" | "}" | "(" | "::" | "<" => break,
                _ => {}
            }
        }
    }

    // Pass 2: flag iteration over those identifiers.
    const ITER_METHODS: &[&str] = &[
        "iter",
        "iter_mut",
        "into_iter",
        "keys",
        "values",
        "values_mut",
        "drain",
        "retain",
    ];
    for i in 0..code.len() {
        let t = &code[i];
        if ctx.is_test_line(t.line) {
            continue;
        }
        // `recv.method(` where recv is a tracked hash binding.
        if t.kind == TokenKind::Ident
            && ITER_METHODS.contains(&t.text)
            && i >= 2
            && code[i - 1].text == "."
            && code[i - 2].kind == TokenKind::Ident
            && hash_names.contains(&code[i - 2].text)
            && code.get(i + 1).map(|t| t.text) == Some("(")
        {
            diags.push(ctx.diag(
                t.line,
                "unordered-iteration",
                format!(
                    "`{}.{}()` iterates in hash order inside an order-sensitive crate: \
                     sort the results or annotate `// lint: unordered-ok(reason = \"…\")`",
                    code[i - 2].text,
                    t.text
                ),
            ));
        }
        // `for pat in [&][mut] recv {` over a tracked hash binding.
        if t.kind == TokenKind::Ident && t.text == "in" {
            let mut j = i + 1;
            while code
                .get(j)
                .is_some_and(|t| t.text == "&" || t.text == "mut")
            {
                j += 1;
            }
            if let Some(recv) = code.get(j) {
                if recv.kind == TokenKind::Ident
                    && hash_names.contains(&recv.text)
                    && code.get(j + 1).map(|t| t.text) == Some("{")
                {
                    diags.push(ctx.diag(
                        t.line,
                        "unordered-iteration",
                        format!(
                            "`for … in {}` iterates in hash order inside an order-sensitive \
                             crate: sort the results or annotate \
                             `// lint: unordered-ok(reason = \"…\")`",
                            recv.text
                        ),
                    ));
                }
            }
        }
    }
}

/// **no-alloc-hot-path** — fns marked `// lint: hot-path` are on the
/// per-pop exploration path that PR 2 flattened; any allocation there is a
/// regression. Bans `Vec::new`, `vec![…]`, `with_capacity`, `collect`,
/// `to_vec`, `clone`, `to_string`/`to_owned`, `format!`, `String::from` and
/// `Box::new` inside the marked body.
fn no_alloc_hot_path(ctx: &FileContext<'_>, ann: &Annotations, diags: &mut Vec<Diagnostic>) {
    let code = &ctx.code;
    for &marker in &ann.hot_path {
        let Some(region) = ctx.fn_after(marker) else {
            diags.push(ctx.diag(
                marker,
                "bad-annotation",
                "`hot-path` marker is not followed by a function".to_string(),
            ));
            continue;
        };
        for i in region.body_start..region.body_end.min(code.len()) {
            let t = &code[i];
            if t.kind != TokenKind::Ident {
                continue;
            }
            let next = code.get(i + 1).map(|t| t.text);
            let flagged = if HOT_PATH_BANNED.contains(&t.text) {
                code[i - 1].text == "." && next == Some("(")
            } else if t.text == "format" || t.text == "vec" {
                next == Some("!")
            } else if t.text == "new" || t.text == "from" {
                i >= 2
                    && code[i - 1].text == "::"
                    && matches!(
                        code[i - 2].text,
                        "Vec" | "String" | "Box" | "HashMap" | "HashSet"
                    )
                    && next == Some("(")
            } else {
                false
            };
            if flagged {
                let call = if next == Some("!") {
                    format!("{}!", t.text)
                } else if code[i - 1].text == "::" {
                    format!("{}::{}", code[i - 2].text, t.text)
                } else {
                    format!(".{}()", t.text)
                };
                diags.push(ctx.diag(
                    t.line,
                    "no-alloc-hot-path",
                    format!(
                        "`{call}` allocates inside `// lint: hot-path` fn (marked on line \
                         {marker}): hoist the allocation out of the per-pop path",
                    ),
                ));
            }
        }
    }
}

/// **lock-discipline** — a poor man's deadlock detector for the engine's
/// locks (the `cache.rs` mutex, the `serve.rs` admission state, `live.rs`'s
/// `writer → current` pair): taking a second lock — `.lock()` or
/// `lock_unpoisoned(…)` — while another guard is plausibly live in the same
/// function is flagged (guards die at `drop(g)`, scope end, or the end of
/// the statement for unbound temporaries). A deadlock needs a nesting site,
/// so flagging every one — waived only by an `allow` with a reason — leaves
/// no lock order unreviewed.
fn lock_discipline(ctx: &FileContext<'_>, diags: &mut Vec<Diagnostic>) {
    let code = &ctx.code;
    for region in &ctx.fns {
        if ctx.is_test_line(region.line) {
            continue;
        }
        // Live guards per brace depth: (binding name, lock name).
        let mut scopes: Vec<Vec<(&str, &str)>> = vec![Vec::new()];
        // The name a `let` in the current statement would bind, if any.
        let mut pending_let: Option<&str> = None;
        // The lock acquired in the current statement, if any.
        let mut stmt_lock: Option<&str> = None;
        for i in region.body_start + 1..(region.body_end - 1).min(code.len()) {
            let t = &code[i];
            // An acquisition is `recv.lock(` or `lock_unpoisoned(&recv)`;
            // either way the *lock name* is the receiver's last path
            // segment (the field holding the mutex).
            let acquired: Option<&str> = if t.kind == TokenKind::Ident
                && t.text == "lock"
                && i >= 1
                && code[i - 1].text == "."
                && code.get(i + 1).map(|t| t.text) == Some("(")
            {
                Some(if i >= 2 && code[i - 2].kind == TokenKind::Ident {
                    code[i - 2].text
                } else {
                    "?"
                })
            } else if t.kind == TokenKind::Ident
                && t.text == "lock_unpoisoned"
                && code.get(i + 1).map(|t| t.text) == Some("(")
                && (i == 0 || code[i - 1].text != "fn")
            {
                Some(last_ident_in_parens(code, i + 1))
            } else {
                None
            };
            if let Some(lock_name) = acquired {
                if let Some(&(live_guard, live_lock)) = scopes.iter().flatten().next() {
                    diags.push(ctx.diag(
                        t.line,
                        "lock-discipline",
                        format!(
                            "acquiring `{lock_name}` while guard `{live_guard}` (of \
                             `{live_lock}`) is still live in this scope: drop the first \
                             guard before taking a second lock",
                        ),
                    ));
                }
                stmt_lock = Some(lock_name);
                continue;
            }
            match t.text {
                "{" => scopes.push(Vec::new()),
                "}" => {
                    scopes.pop();
                    if scopes.is_empty() {
                        scopes.push(Vec::new());
                    }
                }
                ";" => {
                    if let (Some(name), Some(lock), Some(scope)) =
                        (pending_let, stmt_lock, scopes.last_mut())
                    {
                        scope.push((name, lock));
                    }
                    pending_let = None;
                    stmt_lock = None;
                }
                "let" => {
                    let mut j = i + 1;
                    while code.get(j).is_some_and(|t| t.text == "mut") {
                        j += 1;
                    }
                    pending_let = code
                        .get(j)
                        .filter(|t| t.kind == TokenKind::Ident)
                        .map(|t| t.text);
                }
                "drop" if code.get(i + 1).map(|t| t.text) == Some("(") => {
                    if let Some(name) = code.get(i + 2).map(|t| t.text) {
                        for scope in &mut scopes {
                            scope.retain(|&(g, _)| g != name);
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

/// Last identifier inside the paren group opening at `open` — for
/// `lock_unpoisoned(&self.state)` that is `state`, the field naming the
/// lock. Falls back to `?` on an empty or unbalanced group.
fn last_ident_in_parens<'s>(code: &[Token<'s>], open: usize) -> &'s str {
    let mut depth = 0usize;
    let mut last = "?";
    for t in code.iter().skip(open) {
        match t.text {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return last;
                }
            }
            _ if t.kind == TokenKind::Ident => last = t.text,
            _ => {}
        }
    }
    last
}
