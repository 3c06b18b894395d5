//! Rule-engine tests: per-rule positive, suppressed and out-of-scope
//! fixtures, driven through the full [`stabl_lint::Engine`] on the
//! fixture workspace under `tests/fixtures/ws`.

use stabl_lint::rules::{scan_file, FileScope};
use stabl_lint::{Diagnostic, Engine, Severity};
use std::path::PathBuf;

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn fixture_report() -> Vec<Diagnostic> {
    let engine = Engine::from_root(fixture_root()).expect("fixture lint.toml parses");
    engine.run().expect("fixture scan succeeds").diagnostics
}

fn active<'a>(diags: &'a [Diagnostic], rule: &str, file: &str) -> Vec<&'a Diagnostic> {
    diags
        .iter()
        .filter(|d| d.rule == rule && d.file == file && d.suppressed.is_none())
        .collect()
}

fn suppressed<'a>(diags: &'a [Diagnostic], rule: &str, file: &str) -> Vec<&'a Diagnostic> {
    diags
        .iter()
        .filter(|d| d.rule == rule && d.file == file && d.suppressed.is_some())
        .collect()
}

// ---------------------------------------------------------------- D-rules

#[test]
fn d001_wall_clock_positive() {
    let diags = fixture_report();
    let hits = active(&diags, "D-001", "crates/sim/src/clock.rs");
    assert_eq!(hits.len(), 2, "{hits:?}"); // Instant::now + SystemTime::now
    assert_eq!(hits[0].line, 6);
}

#[test]
fn d002_ambient_rng_positive() {
    let diags = fixture_report();
    let hits = active(&diags, "D-002", "crates/sim/src/clock.rs");
    assert_eq!(hits.len(), 2, "{hits:?}"); // thread_rng + rand::random
}

#[test]
fn d003_containers_positive() {
    let diags = fixture_report();
    let hits = active(&diags, "D-003", "crates/sim/src/clock.rs");
    // use{HashMap,HashSet} + two decl sites with type and ::new each.
    assert!(hits.len() >= 4, "{hits:?}");
}

#[test]
fn d_rules_suppressed_with_reason() {
    let diags = fixture_report();
    assert!(active(&diags, "D-001", "crates/sim/src/suppressed.rs").is_empty());
    assert!(active(&diags, "D-003", "crates/sim/src/suppressed.rs").is_empty());
    let sup = suppressed(&diags, "D-001", "crates/sim/src/suppressed.rs");
    assert_eq!(sup.len(), 1);
    assert!(sup[0]
        .suppressed
        .as_deref()
        .is_some_and(|r| r.contains("above-line")));
}

#[test]
fn d_rules_out_of_scope_crate_is_clean() {
    let diags = fixture_report();
    assert!(
        diags.iter().all(|d| d.file != "crates/other/src/free.rs"),
        "{diags:?}"
    );
}

#[test]
fn test_code_in_scope_is_exempt() {
    let diags = fixture_report();
    // clock.rs has Instant::now + HashMap inside #[cfg(test)] mod: the
    // only D-001 hits are the two library ones asserted above.
    let all_d1 = active(&diags, "D-001", "crates/sim/src/clock.rs");
    assert!(all_d1.iter().all(|d| d.line < 33), "{all_d1:?}");
}

// ---------------------------------------------------------------- R-rules

#[test]
fn r001_unwrap_positive_and_total_alternatives_clean() {
    let diags = fixture_report();
    let hits = active(&diags, "R-001", "crates/core/src/lib_code.rs");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].line, 5);
    // unwrap_or is not flagged anywhere in the file.
    assert!(hits.iter().all(|d| d.line != 27));
}

#[test]
fn r002_expect_positive() {
    let diags = fixture_report();
    let hits = active(&diags, "R-002", "crates/core/src/lib_code.rs");
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].line, 9);
}

#[test]
fn r003_panic_and_todo_positive() {
    let diags = fixture_report();
    let hits = active(&diags, "R-003", "crates/core/src/lib_code.rs");
    assert_eq!(hits.len(), 2, "{hits:?}"); // panic! + todo!
}

#[test]
fn r001_suppressed_with_reason() {
    let diags = fixture_report();
    let sup = suppressed(&diags, "R-001", "crates/core/src/lib_code.rs");
    assert_eq!(sup.len(), 1);
    assert_eq!(sup[0].line, 22);
}

#[test]
fn r004_exit_banned_in_library_code() {
    let diags = fixture_report();
    let hits = active(&diags, "R-004", "crates/core/src/exit.rs");
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].line, 3);
}

#[test]
fn r_rules_skip_src_bin() {
    let diags = fixture_report();
    assert!(
        diags
            .iter()
            .all(|d| d.file != "crates/core/src/bin/tool.rs"),
        "{diags:?}"
    );
}

// ---------------------------------------------------------------- X-rules

#[test]
fn x001_malformed_suppressions() {
    let diags = fixture_report();
    let hits = active(&diags, "X-001", "crates/core/src/badsup.rs");
    assert_eq!(hits.len(), 2, "{hits:?}"); // missing reason + unknown rule
    assert!(hits.iter().any(|d| d.message.contains("no reason")));
    assert!(hits.iter().any(|d| d.message.contains("Z-999")));
}

#[test]
fn x002_unused_suppression_is_a_warning() {
    let diags = fixture_report();
    let hits: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.rule == "X-002" && d.file == "crates/core/src/badsup.rs")
        .collect();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].severity, Severity::Warning);
}

// ------------------------------------------------------------ path skips

#[test]
fn skipped_paths_are_never_scanned() {
    let diags = fixture_report();
    assert!(diags.iter().all(|d| !d.file.starts_with("skipped/")));
}

// -------------------------------------------------------- scan_file unit

#[test]
fn scan_file_scopes_gate_rule_families() {
    let src = "pub fn f(v: Option<u32>) -> u32 { let _ = std::time::Instant::now(); v.unwrap() }";
    let all = FileScope {
        determinism: true,
        robustness: true,
        exit_banned: true,
        shard: false,
        numeric: false,
    };
    let scan = scan_file("x.rs", src, all);
    let rules: Vec<&str> = scan.diagnostics.iter().map(|d| d.rule).collect();
    assert!(rules.contains(&"D-001"));
    assert!(rules.contains(&"R-001"));

    let none = FileScope::default();
    assert!(scan_file("x.rs", src, none).diagnostics.is_empty());
}

#[test]
fn json_output_is_well_formed() {
    let engine = Engine::from_root(fixture_root()).expect("config");
    let report = engine.run().expect("scan");
    let json = report.json();
    assert!(json.contains("\"rule\": \"D-001\""));
    assert!(json.contains("\"errors\": "));
    // Balanced braces/brackets (cheap well-formedness check without a
    // JSON dependency).
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}
