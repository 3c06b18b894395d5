//! Integration tests for the semantic rules (P/E/N families), path
//! skipping and per-file scope gating, driven through the full
//! [`stabl_lint::Engine`] on the fixture workspace under
//! `tests/fixtures/sem`.

use stabl_lint::rules::{scan_file, FileScope};
use stabl_lint::{Config, Diagnostic, Engine};
use std::path::PathBuf;

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/sem")
}

fn fixture_report() -> Vec<Diagnostic> {
    Engine::from_root(fixture_root())
        .expect("config parses")
        .run()
        .expect("scan succeeds")
        .diagnostics
}

fn rules_at(diags: &[Diagnostic], file: &str) -> Vec<&'static str> {
    diags
        .iter()
        .filter(|d| d.file == file)
        .map(|d| d.rule)
        .collect()
}

#[test]
fn e001_flags_the_unmatched_variant_at_its_definition() {
    let diags = fixture_report();
    let orphan: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "E-001").collect();
    assert_eq!(orphan.len(), 1, "{orphan:?}");
    assert_eq!(orphan[0].file, "crates/chain/src/msg.rs");
    assert!(
        orphan[0].message.contains("ChainMsg::Orphan"),
        "construction in an arm body is not coverage: {}",
        orphan[0].message
    );
}

#[test]
fn e002_flags_the_uncovered_event_variant() {
    let diags = fixture_report();
    let uncovered: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "E-002").collect();
    assert_eq!(uncovered.len(), 1, "{uncovered:?}");
    assert_eq!(uncovered[0].file, "crates/events/src/ev.rs");
    assert!(uncovered[0].message.contains("Ev::Trace"));
    assert!(uncovered[0].message.contains("export.rs"));
}

#[test]
fn n_rules_flag_float_eq_seed_cast_and_raw_time_arithmetic() {
    let diags = fixture_report();
    let node = rules_at(&diags, "crates/chain/src/node.rs");
    for rule in ["N-001", "N-002", "N-003"] {
        assert!(node.contains(&rule), "missing {rule} in {node:?}");
    }
}

#[test]
fn p_rules_flag_ambient_state_and_annotate_handler_paths() {
    let diags = fixture_report();
    let state = rules_at(&diags, "crates/chain/src/state.rs");
    assert!(state.contains(&"P-001"), "static mut: {state:?}");
    assert!(state.contains(&"P-002"), "thread_local!: {state:?}");
    assert_eq!(
        state.iter().filter(|r| **r == "P-001").count(),
        1,
        "the #[cfg(test)] static mut is exempt"
    );
    let arc_in_handler = diags.iter().find(|d| {
        d.rule == "P-003"
            && d.file == "crates/chain/src/node.rs"
            && d.message.contains("reachable from handler")
    });
    let arc = arc_in_handler.expect("Arc reachable from on_message is flagged with a path");
    assert!(
        arc.message.contains("on_message → remember → share"),
        "expected the call path, got: {}",
        arc.message
    );
}

#[test]
fn certification_is_voided_by_findings() {
    let report = Engine::from_root(fixture_root())
        .expect("config parses")
        .run()
        .expect("scan succeeds");
    let cert = report
        .certifications
        .iter()
        .find(|c| c.crate_key == "crates/chain")
        .expect("chain crate has a certification row");
    assert!(!cert.certified, "P findings must void the certificate");
    assert!(cert.findings > 0);
}

#[test]
fn fixture_report_is_deterministic() {
    let a = Engine::from_root(fixture_root())
        .expect("config parses")
        .run()
        .expect("scan succeeds")
        .json();
    let b = Engine::from_root(fixture_root())
        .expect("config parses")
        .run()
        .expect("scan succeeds")
        .json();
    assert_eq!(a, b, "two runs must be byte-identical");
}

#[test]
fn skipped_paths_are_never_scanned() {
    let diags = fixture_report();
    assert!(
        diags
            .iter()
            .all(|d| !d.file.starts_with("crates/chain/src/generated/")),
        "{diags:?}"
    );

    // The skipped file is in P and N scope, so with the skip list
    // cleared it must produce findings: the check above is not vacuous.
    let src = std::fs::read_to_string(fixture_root().join("lint.toml")).expect("fixture config");
    let config = Config {
        skip: Vec::new(),
        ..Config::parse(&src).expect("config parses")
    };
    let unskipped = Engine::new(fixture_root(), config)
        .run()
        .expect("scan succeeds")
        .diagnostics;
    let generated = rules_at(&unskipped, "crates/chain/src/generated/ambient.rs");
    assert_eq!(generated, vec!["P-001", "N-001"], "{unskipped:?}");
}

#[test]
fn scan_file_scopes_gate_rule_families() {
    let src = "pub static mut TICKS: u64 = 0;\npub fn f(x: f64) -> bool { x == 0.5 }\n";
    let rules = |scope: FileScope| -> Vec<&'static str> {
        scan_file("x.rs", src, scope)
            .iter()
            .map(|d| d.rule)
            .collect()
    };
    let both = FileScope {
        shard: true,
        numeric: true,
    };
    assert_eq!(rules(both), vec!["P-001", "N-001"]);
    let shard_only = FileScope {
        shard: true,
        numeric: false,
    };
    assert_eq!(rules(shard_only), vec!["P-001"]);
    let numeric_only = FileScope {
        shard: false,
        numeric: true,
    };
    assert_eq!(rules(numeric_only), vec!["N-001"]);
    assert!(rules(FileScope::default()).is_empty());
}
