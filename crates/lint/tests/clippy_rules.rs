//! Equal coverage for the determinism and robustness rules that moved
//! from stabl-lint to clippy (D-001/D-003, R-001..R-004, X-001/X-002).
//!
//! The fixture crate under `tests/fixtures/clippy` holds one case per
//! former rule case. The test copies it to a temp dir and runs
//! `cargo clippy` there with `CLIPPY_CONF_DIR` pointing at the repo
//! root, so the committed `clippy.toml` is what gets checked, and its
//! `[workspace.lints.clippy]` block must stay byte-equal to the root
//! manifest's. Like CI, clippy runs without `--all-targets`, so the
//! fixture's `#[cfg(test)]` module is exempt.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves")
}

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/clippy")
}

/// The `[workspace.lints.clippy]` table of a manifest: its header line
/// through the line before the next table header, trailing blank lines
/// dropped.
fn workspace_lints_block(manifest: &Path) -> String {
    let src = fs::read_to_string(manifest).expect("read manifest");
    let mut lines = src.lines().skip_while(|l| *l != "[workspace.lints.clippy]");
    let header = lines.next().expect("manifest has [workspace.lints.clippy]");
    let body: Vec<&str> = lines.take_while(|l| !l.starts_with('[')).collect();
    format!("{header}\n{}", body.join("\n"))
        .trim_end()
        .to_owned()
}

/// Maps a clippy/rustc short-format message to the lint that raised it.
fn lint_of(message: &str) -> &'static str {
    const MESSAGES: &[(&str, &str)] = &[
        ("use of a disallowed method", "disallowed_methods"),
        ("use of a disallowed type", "disallowed_types"),
        ("used `unwrap()`", "unwrap_used"),
        ("used `expect()`", "expect_used"),
        ("`panic` should not be present", "panic"),
        ("`todo` should not be present", "todo"),
        ("`unimplemented` should not be present", "unimplemented"),
        ("usage of `process::exit`", "exit"),
        ("#[allow] attribute found", "allow_attributes"),
        (
            "attribute without specifying a reason",
            "allow_attributes_without_reason",
        ),
        (
            "this lint expectation is unfulfilled",
            "unfulfilled_lint_expectations",
        ),
    ];
    MESSAGES
        .iter()
        .find(|(text, _)| message.contains(text))
        .map(|(_, lint)| *lint)
        .unwrap_or_else(|| panic!("unexpected diagnostic: {message}"))
}

/// One clippy finding: (file under `src/`, line, lint, message).
type Finding = (String, u32, &'static str, String);

fn copy_dir(from: &Path, to: &Path) {
    fs::create_dir_all(to).expect("create dir");
    for entry in fs::read_dir(from).expect("read fixture dir") {
        let path = entry.expect("dir entry").path();
        let dest = to.join(path.file_name().expect("file name"));
        if path.is_dir() {
            copy_dir(&path, &dest);
        } else {
            fs::copy(&path, &dest).expect("copy fixture file");
        }
    }
}

/// Runs clippy on a temp copy of the fixture once per test binary and
/// returns its findings, sorted.
fn findings() -> &'static [Finding] {
    static FINDINGS: OnceLock<Vec<Finding>> = OnceLock::new();
    FINDINGS.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("stabl-clippy-fixture-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        copy_dir(&fixture_root(), &dir);
        let out = Command::new(env!("CARGO"))
            .args(["clippy", "--offline", "--message-format=short"])
            .current_dir(&dir)
            .env("CLIPPY_CONF_DIR", repo_root())
            .env("CARGO_TARGET_DIR", dir.join("target"))
            .output()
            .expect("cargo clippy runs");
        fs::remove_dir_all(&dir).ok();
        let stderr = String::from_utf8_lossy(&out.stderr);
        // `src/robustness.rs:5:5: error: used `unwrap()` on …`
        let mut found: Vec<Finding> = stderr
            .lines()
            .filter_map(|line| {
                let rest = line.strip_prefix("src/")?;
                let mut parts = rest.splitn(4, ':');
                let file = parts.next()?.to_owned();
                let line_no = parts.next()?.parse().ok()?;
                let _col = parts.next()?;
                let message = parts.next()?.trim().to_owned();
                Some((file, line_no, lint_of(&message), message))
            })
            .collect();
        assert!(
            !found.is_empty(),
            "clippy produced no findings; is it installed?\n{stderr}"
        );
        found.sort();
        found
    })
}

#[test]
fn fixture_workspace_lints_match_the_root_manifest() {
    let root = workspace_lints_block(&repo_root().join("Cargo.toml"));
    let fixture = workspace_lints_block(&fixture_root().join("Cargo.toml"));
    assert_eq!(
        fixture, root,
        "the fixture must lint with exactly the workspace's clippy levels"
    );
}

#[test]
fn clippy_flags_every_former_d_r_and_x_case_and_nothing_else() {
    let got: Vec<(&str, u32, &str)> = findings()
        .iter()
        .map(|(file, line, lint, _)| (file.as_str(), *line, *lint))
        .collect();
    let want = vec![
        // X-001: `#[allow]` is banned outright, and so is an
        // `#[allow]`/`#[expect]` without a reason.
        ("attributes.rs", 4, "allow_attributes"),
        ("attributes.rs", 4, "allow_attributes_without_reason"),
        ("attributes.rs", 9, "allow_attributes"),
        ("attributes.rs", 14, "allow_attributes_without_reason"),
        // X-002: an expectation that matches nothing.
        ("attributes.rs", 19, "unfulfilled_lint_expectations"),
        // D-003 on the imports: `HashMap as Registry`, then `HashSet`.
        ("determinism.rs", 4, "disallowed_types"),
        ("determinism.rs", 5, "disallowed_types"),
        // D-001: `Instant::now`, `SystemTime::now`.
        ("determinism.rs", 9, "disallowed_methods"),
        ("determinism.rs", 13, "disallowed_methods"),
        // D-003 on uses: the `Registry` alias, then `HashSet`.
        ("determinism.rs", 16, "disallowed_types"),
        ("determinism.rs", 20, "disallowed_types"),
        ("determinism.rs", 21, "disallowed_types"),
        // Ambient entropy: std's RandomState.
        ("determinism.rs", 24, "disallowed_types"),
        ("determinism.rs", 25, "disallowed_types"),
        // R-001, R-002, R-003 (×3), R-004.
        ("robustness.rs", 5, "unwrap_used"),
        ("robustness.rs", 9, "expect_used"),
        ("robustness.rs", 13, "panic"),
        ("robustness.rs", 17, "todo"),
        ("robustness.rs", 21, "unimplemented"),
        ("robustness.rs", 25, "exit"),
    ];
    // Everything else stays silent: the reasoned `#[expect]` at the end
    // of attributes.rs, comments and strings, `unwrap_or`, and the
    // `#[cfg(test)]` module in lib.rs.
    assert_eq!(got, want, "{:#?}", findings());
}

#[test]
fn d003_sees_through_use_aliases() {
    // `use std::collections::HashMap as Registry;` on line 4, then
    // `Registry<u32, u64>` on line 16: both resolve to HashMap by type.
    for line in [4, 16] {
        assert!(
            findings().iter().any(|(file, l, lint, message)| {
                file == "determinism.rs"
                    && *l == line
                    && *lint == "disallowed_types"
                    && message.contains("std::collections::HashMap")
            }),
            "aliased HashMap on determinism.rs:{line} must be flagged: {:#?}",
            findings()
        );
    }
}
