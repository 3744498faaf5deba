//! Golden-fixture tests for the rule engine, the workspace self-check, and
//! the CLI exit-code contract.
//!
//! Each fixture under `tests/fixtures/` is linted *as if* it lived at a
//! chosen workspace-relative path (several rules are path-scoped), and its
//! diagnostics must match the `<fixture>.expected` sidecar line for line.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use kwsearch_lint::{analyze_source, lint_source, lint_workspace, lock_order_cycles};

/// Fixture file → the workspace-relative path it is linted as.
const FIXTURES: &[(&str, &str)] = &[
    ("no_unwrap.rs", "crates/rdf/src/no_unwrap.rs"),
    ("float_ordering.rs", "crates/rdf/src/float_ordering.rs"),
    (
        "unordered_iteration.rs",
        "crates/core/src/unordered_iteration.rs",
    ),
    (
        "no_alloc_hot_path.rs",
        "crates/rdf/src/no_alloc_hot_path.rs",
    ),
    ("lock_discipline.rs", "crates/rdf/src/lock_discipline.rs"),
    ("lock_order_a.rs", "crates/rdf/src/lock_order_a.rs"),
    ("lock_order_b.rs", "crates/rdf/src/lock_order_b.rs"),
    ("no_raw_sync.rs", "crates/core/src/no_raw_sync.rs"),
    ("no_unsafe.rs", "crates/rdf/src/no_unsafe.rs"),
    ("tokenizer_edges.rs", "crates/rdf/src/tokenizer_edges.rs"),
];

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn read_expected(fixture: &str) -> Vec<String> {
    let path = fixtures_dir().join(fixture).with_extension("expected");
    fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect()
}

#[test]
fn fixtures_match_expected_diagnostics() {
    for &(fixture, lint_path) in FIXTURES {
        let source = fs::read_to_string(fixtures_dir().join(fixture)).unwrap();
        let got: Vec<String> = lint_source(lint_path, &source)
            .iter()
            .map(|d| format!("{}:{}", d.line, d.rule))
            .collect();
        let want = read_expected(fixture);
        assert_eq!(got, want, "fixture {fixture} (linted as {lint_path})");
    }
}

/// Every fixture carries at least one deliberate violation; the golden test
/// above would silently weaken if an `.expected` file were emptied.
#[test]
fn every_fixture_expects_at_least_one_diagnostic() {
    for &(fixture, _) in FIXTURES {
        assert!(
            !read_expected(fixture).is_empty(),
            "fixture {fixture} expects no diagnostics — it no longer guards anything"
        );
    }
}

/// The two `lock_order_*` fixtures each nest innocently on their own; only
/// the aggregated acquisition graph closes the AB-BA cycle. The diagnostic
/// must name both sites so either half can be fixed.
#[test]
fn cross_file_lock_order_cycle_is_reported_with_both_sites() {
    let read = |fixture: &str, lint_path: &str| {
        let source = fs::read_to_string(fixtures_dir().join(fixture)).unwrap();
        analyze_source(lint_path, &source)
    };
    let a = read("lock_order_a.rs", "crates/rdf/src/lock_order_a.rs");
    let b = read("lock_order_b.rs", "crates/rdf/src/lock_order_b.rs");

    // Each half alone is acyclic.
    assert!(lock_order_cycles(&a.lock_edges).is_empty());
    assert!(lock_order_cycles(&b.lock_edges).is_empty());

    let mut edges = a.lock_edges;
    edges.extend(b.lock_edges);
    let cycles = lock_order_cycles(&edges);
    assert_eq!(cycles.len(), 1, "exactly one AB-BA cycle: {cycles:?}");
    let diag = &cycles[0];
    assert_eq!(diag.rule, "lock-order");
    assert!(
        diag.message.contains("crates/rdf/src/lock_order_a.rs:17")
            && diag.message.contains("crates/rdf/src/lock_order_b.rs:15"),
        "cycle must name both nesting sites: {}",
        diag.message
    );
    assert!(
        diag.message.contains("`alpha` → `beta`") && diag.message.contains("`beta` → `alpha`"),
        "cycle must name both edges: {}",
        diag.message
    );
}

/// The serving stack's documented hierarchy is one edge: `LiveGraph`'s
/// `writer` before `current` in `live.rs`. It must be visible in the
/// workspace acquisition graph — an allow on the `lock-discipline`
/// diagnostic must not hide the edge — and the graph as a whole must stay
/// acyclic. The service's one lock (`serve.rs`) never nests, so neither it
/// nor the sharded answer phase contributes an edge.
#[test]
fn workspace_acquisition_graph_contains_the_serve_hierarchy_and_is_acyclic() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let edges = kwsearch_lint::workspace_lock_edges(&root).expect("walking the workspace");
    let core_edges: Vec<_> = edges
        .iter()
        .filter(|e| e.path.starts_with("crates/core/src/"))
        .map(|e| (e.path.as_str(), e.first.as_str(), e.second.as_str()))
        .collect();
    assert_eq!(
        core_edges,
        [("crates/core/src/live.rs", "writer", "current")],
        "the only nested acquisition in crates/core is LiveGraph's write section"
    );
    let cycles = lock_order_cycles(&edges);
    assert!(
        cycles.is_empty(),
        "workspace lock graph has cycles: {cycles:?}"
    );
}

/// The repository itself must be clean: every remaining violation is either
/// fixed or carries a reasoned `// lint: allow`.
#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let diags = lint_workspace(&root).expect("walking the workspace");
    assert!(
        diags.is_empty(),
        "workspace has lint diagnostics:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Runs the real binary against one fixture staged at its virtual
/// workspace-relative path and returns the exit code.
fn run_cli_on(fixture: &str, lint_path: &str, extra: &[&str]) -> (i32, String) {
    // Tests run in parallel and several stage the same fixture: key the
    // stage on the arguments too, so no run lints a file another is copying.
    let stage = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("lint-cli")
        .join(fixture.trim_end_matches(".rs").to_owned() + &extra.concat());
    let staged = stage.join(lint_path);
    fs::create_dir_all(staged.parent().expect("staged path has a parent")).unwrap();
    fs::copy(fixtures_dir().join(fixture), &staged).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_kwsearch-lint"))
        .arg("--root")
        .arg(&stage)
        .args(extra)
        .arg(&staged)
        .output()
        .expect("running kwsearch-lint");
    let code = output.status.code().expect("lint exited without a code");
    (code, String::from_utf8_lossy(&output.stdout).into_owned())
}

#[test]
fn cli_exits_nonzero_on_each_fixture_violation_under_deny() {
    for &(fixture, lint_path) in FIXTURES {
        let (code, _) = run_cli_on(fixture, lint_path, &["--deny"]);
        assert_eq!(code, 1, "fixture {fixture} must fail `--deny`");
    }
}

#[test]
fn cli_is_report_only_without_deny() {
    let (code, stdout) = run_cli_on("no_unwrap.rs", "crates/rdf/src/no_unwrap.rs", &[]);
    assert_eq!(code, 0, "without --deny the lint is report-only");
    assert!(stdout.contains("no-unwrap"), "diagnostics still printed");
}

/// Passing both halves of the AB-BA to the CLI as one invocation must
/// surface the cross-file cycle (explicit files form one analysis unit).
#[test]
fn cli_reports_cross_file_lock_order_cycle() {
    let stage = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("lint-cli")
        .join("lock-order-pair");
    let mut staged = Vec::new();
    for (fixture, lint_path) in [
        ("lock_order_a.rs", "crates/rdf/src/lock_order_a.rs"),
        ("lock_order_b.rs", "crates/rdf/src/lock_order_b.rs"),
    ] {
        let dest = stage.join(lint_path);
        fs::create_dir_all(dest.parent().expect("staged path has a parent")).unwrap();
        fs::copy(fixtures_dir().join(fixture), &dest).unwrap();
        staged.push(dest);
    }
    let output = Command::new(env!("CARGO_BIN_EXE_kwsearch-lint"))
        .arg("--root")
        .arg(&stage)
        .arg("--deny")
        .args(&staged)
        .output()
        .expect("running kwsearch-lint");
    assert_eq!(output.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("[lock-order]") && stdout.contains("lock_order_b.rs:15"),
        "CLI must report the aggregated cycle with both sites:\n{stdout}"
    );
}

#[test]
fn cli_json_output_is_machine_readable() {
    let (code, stdout) = run_cli_on(
        "no_unwrap.rs",
        "crates/rdf/src/no_unwrap.rs",
        &["--deny", "--format", "json"],
    );
    assert_eq!(code, 1);
    let body = stdout.trim();
    assert!(body.starts_with("[{") && body.ends_with("}]"), "{body}");
    assert!(body.contains(r#""rule":"no-unwrap""#), "{body}");
    assert!(body.contains(r#""line":4"#), "{body}");
}
