//! Command-line front end for the workspace lint engine.
//!
//! ```text
//! kwsearch-lint --workspace [--deny] [--format text|json] [--root <dir>]
//! kwsearch-lint [--deny] [--format text|json] [--root <dir>] <file.rs>…
//! ```
//!
//! * `--workspace` lints every non-`compat` source in the workspace.
//! * `--deny` exits 1 when any diagnostic is emitted (CI mode); without it
//!   the run is report-only and always exits 0.
//! * `--format json` prints one JSON array of `{path, line, rule, message}`
//!   objects for machine consumption; the default is `file:line` text.
//! * `--root` overrides workspace-root auto-detection (the nearest ancestor
//!   directory with a `[workspace]` manifest).
//!
//! Exit codes: 0 clean (or report-only), 1 diagnostics under `--deny`,
//! 2 usage or I/O error.

use std::env;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use kwsearch_lint::{lint_source, lint_workspace, Diagnostic};

struct Options {
    workspace: bool,
    deny: bool,
    json: bool,
    root: Option<PathBuf>,
    files: Vec<PathBuf>,
}

fn main() -> ExitCode {
    let options = match parse_args(env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("kwsearch-lint: {message}");
            return ExitCode::from(2);
        }
    };
    let root = match options.root.clone().map_or_else(detect_root, Ok) {
        Ok(root) => root,
        Err(message) => {
            eprintln!("kwsearch-lint: {message}");
            return ExitCode::from(2);
        }
    };

    let diags = if options.workspace {
        match lint_workspace(&root) {
            Ok(diags) => diags,
            Err(err) => {
                eprintln!("kwsearch-lint: walking {}: {err}", root.display());
                return ExitCode::from(2);
            }
        }
    } else {
        let mut diags = Vec::new();
        for file in &options.files {
            let source = match fs::read_to_string(file) {
                Ok(source) => source,
                Err(err) => {
                    eprintln!("kwsearch-lint: reading {}: {err}", file.display());
                    return ExitCode::from(2);
                }
            };
            let rel = file
                .strip_prefix(&root)
                .unwrap_or(file)
                .to_string_lossy()
                .replace('\\', "/");
            diags.extend(lint_source(&rel, &source));
        }
        diags
    };

    report(&diags, options.json);
    if options.deny && !diags.is_empty() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut options = Options {
        workspace: false,
        deny: false,
        json: false,
        root: None,
        files: Vec::new(),
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => options.workspace = true,
            "--deny" => options.deny = true,
            "--format" => match args.next().as_deref() {
                Some("json") => options.json = true,
                Some("text") => options.json = false,
                other => {
                    return Err(format!(
                        "--format expects `text` or `json`, got {}",
                        other.unwrap_or("nothing")
                    ))
                }
            },
            "--root" => match args.next() {
                Some(dir) => options.root = Some(PathBuf::from(dir)),
                None => return Err("--root expects a directory".to_string()),
            },
            "--help" | "-h" => {
                return Err("usage: kwsearch-lint (--workspace | <file.rs>…) \
                            [--deny] [--format text|json] [--root <dir>]"
                    .to_string())
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            path => options.files.push(PathBuf::from(path)),
        }
    }
    if !options.workspace && options.files.is_empty() {
        return Err("nothing to lint: pass --workspace or one or more files".to_string());
    }
    if options.workspace && !options.files.is_empty() {
        return Err("--workspace and explicit files are mutually exclusive".to_string());
    }
    Ok(options)
}

/// Finds the nearest ancestor of the current directory whose `Cargo.toml`
/// declares `[workspace]`.
fn detect_root() -> Result<PathBuf, String> {
    let start = env::current_dir().map_err(|err| format!("current dir: {err}"))?;
    let mut dir: &Path = &start;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir.to_path_buf());
            }
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => {
                return Err(
                    "no workspace root found above the current directory (pass --root)".to_string(),
                )
            }
        }
    }
}

fn report(diags: &[Diagnostic], json: bool) {
    if json {
        let body: Vec<String> = diags.iter().map(Diagnostic::to_json).collect();
        println!("[{}]", body.join(","));
    } else {
        for diag in diags {
            println!("{diag}");
        }
        if diags.is_empty() {
            eprintln!("kwsearch-lint: clean");
        } else {
            eprintln!("kwsearch-lint: {} diagnostic(s)", diags.len());
        }
    }
}
