//! Self-test: the committed workspace lints clean, and the CLI's exit
//! codes match its findings.

use stabl_lint::Engine;
use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves")
}

#[test]
fn workspace_lints_clean() {
    let engine = Engine::from_root(repo_root()).expect("lint.toml parses");
    let report = engine.run().expect("scan succeeds");
    let errors: Vec<String> = report
        .diagnostics
        .iter()
        .map(|d| {
            format!(
                "{}:{}:{}: [{}] {}",
                d.file, d.line, d.col, d.rule, d.message
            )
        })
        .collect();
    assert!(
        errors.is_empty(),
        "workspace must lint clean; found:\n{}",
        errors.join("\n")
    );
    assert!(report.files_scanned > 50, "walked the whole workspace");
    let uncertified: Vec<&str> = report
        .certifications
        .iter()
        .filter(|c| !c.certified)
        .map(|c| c.crate_key.as_str())
        .collect();
    assert!(
        uncertified.is_empty(),
        "kernel and chain crates must certify shard-safe: {uncertified:?}"
    );
    assert_eq!(
        report.certifications.len(),
        7,
        "sim, the five chains and the workload generator are certified"
    );
}

#[test]
fn cli_exits_zero_on_clean_workspace() {
    let out = Command::new(env!("CARGO_BIN_EXE_stabl-lint"))
        .args(["--root"])
        .arg(repo_root())
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stdout:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn cli_exits_nonzero_on_fixture_violations_with_json() {
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/sem");
    let out = Command::new(env!("CARGO_BIN_EXE_stabl-lint"))
        .args(["--format", "json", "--root"])
        .arg(&fixture)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout);
    // Rule id, file and line of a known violation: the unmatched
    // `ChainMsg::Orphan` variant on msg.rs line 7.
    assert!(
        json.contains("{\"rule\": \"E-001\", \"file\": \"crates/chain/src/msg.rs\", \"line\": 7, "),
        "{json}"
    );
    // Cheap well-formedness check without a JSON dependency.
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}

#[test]
fn cli_lists_rules() {
    let out = Command::new(env!("CARGO_BIN_EXE_stabl-lint"))
        .arg("--list-rules")
        .output()
        .expect("binary runs");
    let text = String::from_utf8_lossy(&out.stdout);
    for id in [
        "E-001", "E-002", "N-001", "N-002", "N-003", "P-001", "P-002", "P-003", "P-004", "P-005",
        "P-006",
    ] {
        assert!(text.contains(id), "missing {id} in --list-rules");
    }
    // The D-, R- and X-rules are clippy lints (clippy.toml,
    // `[workspace.lints.clippy]`, tests/clippy_rules.rs); the B-001
    // baseline ratchet and the S-rules are gone.
    for family in ["B-", "D-", "R-", "S-", "X-"] {
        assert!(
            !text.lines().any(|line| line.starts_with(family)),
            "--list-rules still lists a {family} rule:\n{text}"
        );
    }
}
