//! The rule table and the per-file scanner: every rule is a pattern
//! over the token stream (or the parsed items) of one file, gated by
//! the file's scope (see [`crate::config`]).
//!
//! | id    | family      | bans |
//! |-------|-------------|------|
//! | E-001 | exhaustive  | `Protocol::Msg` variant without a match arm in its chain crate |
//! | E-002 | exhaustive  | configured enum variant missing from a cover file |
//! | N-001 | numeric     | float equality comparison / `partial_cmp` |
//! | N-002 | numeric     | truncating `as` cast of a time/seed value |
//! | N-003 | numeric     | raw `+`/`-` on `.as_micros()`/`.as_millis()` output |
//! | P-001 | shard       | `static mut` in a shard-certified crate |
//! | P-002 | shard       | `thread_local!` in a shard-certified crate |
//! | P-003 | shard       | `Rc` / `Arc` in a shard-certified crate |
//! | P-004 | shard       | `Cell` / `RefCell` / … in a shard-certified crate |
//! | P-005 | shard       | `Mutex` / `RwLock` / … in a shard-certified crate |
//! | P-006 | shard       | atomic types in a shard-certified crate |
//!
//! The per-file P and N families ([`crate::rules_shard`] /
//! [`crate::rules_numeric`]) run through [`scan_analysis`]; the
//! cross-file E rules live in [`crate::rules_exhaustive`], driven by
//! the engine. Every finding is an error. The determinism and
//! robustness bans (wall clocks, unordered containers, panics,
//! `process::exit`) are clippy lints, configured in `clippy.toml` and
//! `[workspace.lints.clippy]`; an exception there is an
//! `#[expect(clippy::…, reason = "…")]` attribute.

use crate::symbols::{CrateGraph, FileAnalysis};

/// Static description of one rule (id, summary, fix-hint).
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Stable rule id (`P-001`, …) used in output.
    pub id: &'static str,
    /// One-line summary for `--list-rules` and docs.
    pub summary: &'static str,
    /// How to fix a violation.
    pub hint: &'static str,
}

/// Every rule the engine knows, in id order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "E-001",
        summary: "Protocol Msg variant without a match arm in its chain crate",
        hint: "handle the variant in the node's dispatch path (or delete the variant); \
               a silently ignored message is how liveness bugs hide",
    },
    RuleInfo {
        id: "E-002",
        summary: "enum variant not covered by a configured cover file",
        hint: "add the variant to the cover file's match (exporter / counter) so it \
               cannot silently vanish from traces and post-mortems",
    },
    RuleInfo {
        id: "N-001",
        summary: "float equality comparison (or partial_cmp) in numeric-scoped code",
        hint: "use total_cmp or integer micros; float comparison semantics are not \
               replay-stable",
    },
    RuleInfo {
        id: "N-002",
        summary: "truncating `as` cast on a time/seed-typed value",
        hint: "keep times and seeds in u64/u128, or use TryFrom so truncation is explicit",
    },
    RuleInfo {
        id: "N-003",
        summary: "unchecked +/- on .as_micros()/.as_millis() output",
        hint: "stay in SimTime/SimDuration and use their saturating arithmetic instead of \
               raw integer offsets",
    },
    RuleInfo {
        id: "P-001",
        summary: "static mut in a shard-certified crate",
        hint: "move the state into the node struct; sharded logical processes may not \
               share ambient state",
    },
    RuleInfo {
        id: "P-002",
        summary: "thread_local! state in a shard-certified crate",
        hint: "move the state into the node struct; thread identity is meaningless under \
               logical-process sharding",
    },
    RuleInfo {
        id: "P-003",
        summary: "shared-ownership handle (Rc/Arc) in a shard-certified crate",
        hint: "pass owned values or &mut through the handler; aliased state breaks the \
               pure message-passing model sharding relies on",
    },
    RuleInfo {
        id: "P-004",
        summary: "interior mutability (Cell/RefCell/…) in a shard-certified crate",
        hint: "use plain fields behind &mut self; hidden writes defeat shard-safety \
               certification",
    },
    RuleInfo {
        id: "P-005",
        summary: "lock primitive (Mutex/RwLock/…) in a shard-certified crate",
        hint: "handlers must not synchronise behind the kernel's back; let the event \
               kernel serialise access instead",
    },
    RuleInfo {
        id: "P-006",
        summary: "atomic type in a shard-certified crate",
        hint: "atomics imply cross-thread sharing; keep node state owned and let the \
               kernel order effects",
    },
];

/// Looks up a rule by id.
pub fn rule(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// One finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Rule id (`P-001`, …).
    pub rule: &'static str,
    /// Path relative to the linted root, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of this occurrence.
    pub message: String,
    /// Fix hint (from the rule table).
    pub hint: &'static str,
}

/// Which per-file rule families apply to one file.
#[derive(Clone, Copy, Debug, Default)]
pub struct FileScope {
    /// P-rules (shard-safety certification) apply.
    pub shard: bool,
    /// N-rules (numeric determinism) apply.
    pub numeric: bool,
}

/// Scans one standalone file: analyzes it and runs the per-file rules
/// without a symbol table.
pub fn scan_file(rel_path: &str, src: &str, scope: FileScope) -> Vec<Diagnostic> {
    scan_analysis(&FileAnalysis::analyze(rel_path, src), scope, None)
}

/// Runs the per-file rules over an already-analyzed file. `graph` is
/// the file's crate call graph (used by P-rules to annotate findings
/// with handler reachability); pass `None` when no symbol table is
/// available.
pub fn scan_analysis(
    fa: &FileAnalysis,
    scope: FileScope,
    graph: Option<&CrateGraph>,
) -> Vec<Diagnostic> {
    let tokens = &fa.tokens;
    let mut raw: Vec<(usize, &'static str, String)> = Vec::new(); // (token idx, rule, message)
    for i in 0..tokens.len() {
        if fa.in_test_span(i) {
            continue;
        }
        if scope.shard {
            crate::rules_shard::check_token(fa, i, graph, &mut raw);
        }
        if scope.numeric {
            crate::rules_numeric::check_token(tokens, i, &mut raw);
        }
    }
    if scope.shard {
        crate::rules_shard::check_items(fa, &mut raw);
    }

    let mut diagnostics: Vec<Diagnostic> = raw
        .into_iter()
        .map(|(idx, rule_id, message)| {
            let t = &tokens[idx];
            Diagnostic::new(rule_id, &fa.rel, t.line, t.col, message)
        })
        .collect();
    diagnostics.sort_by_key(|d| (d.line, d.col, d.rule));
    diagnostics
}

impl Diagnostic {
    /// Builds a diagnostic for a known rule id, inheriting the rule's
    /// hint.
    pub fn new(
        rule_id: &'static str,
        file: &str,
        line: u32,
        col: u32,
        message: String,
    ) -> Diagnostic {
        let info = rule(rule_id).unwrap_or(&RULES[0]);
        Diagnostic {
            rule: rule_id,
            file: file.to_owned(),
            line,
            col,
            message,
            hint: info.hint,
        }
    }
}
