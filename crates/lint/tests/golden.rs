//! Golden-fixture tests for the rule engine, the workspace self-check, and
//! the CLI exit-code contract.
//!
//! Each fixture under `tests/fixtures/` is linted *as if* it lived at a
//! chosen workspace-relative path (several rules are path-scoped), and its
//! diagnostics must match the `<fixture>.expected` sidecar line for line.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use kwsearch_lint::{lint_source, lint_workspace};

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
