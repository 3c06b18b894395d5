//! The rule engine: every rule is a pattern over the token stream of
//! one file, gated by the file's scope (see [`crate::config`]).
//!
//! | id    | family      | bans |
//! |-------|-------------|------|
//! | B-001 | baseline    | stale `lint-baseline.json` entry (debt shrank, ratchet down) |
//! | D-001 | determinism | `Instant::now` / `SystemTime::now` |
//! | D-002 | determinism | `thread_rng` / `rand::random` / `OsRng` / `from_entropy` |
//! | D-003 | determinism | `HashMap` / `HashSet` in protocol code (alias-resolved) |
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
//! | R-001 | robustness  | `.unwrap()` in non-test library code |
//! | R-002 | robustness  | `.expect(…)` in non-test library code |
//! | R-003 | robustness  | `panic!` / `todo!` / `unimplemented!` in non-test library code |
//! | R-004 | robustness  | `process::exit` outside `src/bin` |
//! | X-001 | meta        | malformed `stabl-lint:` suppression comment |
//! | X-002 | meta        | suppression that suppresses nothing (warning) |
//!
//! The per-file token rules (D, R, X plus the v2 P and N families
//! in [`crate::rules_shard`] / [`crate::rules_numeric`]) run through
//! [`scan_analysis`]; the cross-file E rules live in
//! [`crate::rules_exhaustive`] and the B ratchet in
//! [`crate::baseline`], both driven by the engine.
//!
//! Suppression syntax, one rule per comment, reason mandatory:
//!
//! ```text
//! // stabl-lint: allow(R-003, documented panicking wrapper kept for the legacy API)
//! ```
//!
//! A suppression covers its own line and the next line, so it can sit
//! either at the end of the offending line or directly above it.

use crate::lexer::{Comment, Token, TokenKind};
use crate::symbols::{CrateGraph, FileAnalysis};

/// Diagnostic severity. Only [`Severity::Error`] affects the exit code.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational; never fails the build.
    Warning,
    /// Fails the build unless suppressed.
    Error,
}

impl Severity {
    /// Lower-case name used in output.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Static description of one rule (id, severity, summary, fix-hint).
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Stable rule id (`D-001`, …) used in output and suppressions.
    pub id: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// One-line summary for `--list-rules` and docs.
    pub summary: &'static str,
    /// How to fix a violation.
    pub hint: &'static str,
}

/// Every rule the engine knows, in id order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "B-001",
        severity: Severity::Error,
        summary: "stale lint-baseline.json entry — recorded debt no longer exists",
        hint: "run `stabl-lint --write-baseline` and commit the shrunk baseline",
    },
    RuleInfo {
        id: "D-001",
        severity: Severity::Error,
        summary: "wall-clock read (Instant::now / SystemTime::now) in deterministic code",
        hint: "use the simulation clock (Ctx::now / SimTime); wall time differs across runs",
    },
    RuleInfo {
        id: "D-002",
        severity: Severity::Error,
        summary: "ambient RNG (thread_rng / rand::random / OsRng / from_entropy) in deterministic code",
        hint: "thread the seeded SimRng through instead; ambient entropy breaks replay",
    },
    RuleInfo {
        id: "D-003",
        severity: Severity::Error,
        summary: "HashMap/HashSet in protocol code (iteration order is nondeterministic)",
        hint: "use BTreeMap/BTreeSet, or collect and sort before iterating",
    },
    RuleInfo {
        id: "E-001",
        severity: Severity::Error,
        summary: "Protocol Msg variant without a match arm in its chain crate",
        hint: "handle the variant in the node's dispatch path (or delete the variant); \
               a silently ignored message is how liveness bugs hide",
    },
    RuleInfo {
        id: "E-002",
        severity: Severity::Error,
        summary: "enum variant not covered by a configured cover file",
        hint: "add the variant to the cover file's match (exporter / counter) so it \
               cannot silently vanish from traces and post-mortems",
    },
    RuleInfo {
        id: "N-001",
        severity: Severity::Error,
        summary: "float equality comparison (or partial_cmp) in numeric-scoped code",
        hint: "use total_cmp or integer micros; float comparison semantics are not \
               replay-stable",
    },
    RuleInfo {
        id: "N-002",
        severity: Severity::Error,
        summary: "truncating `as` cast on a time/seed-typed value",
        hint: "keep times and seeds in u64/u128, or use TryFrom so truncation is explicit",
    },
    RuleInfo {
        id: "N-003",
        severity: Severity::Error,
        summary: "unchecked +/- on .as_micros()/.as_millis() output",
        hint: "stay in SimTime/SimDuration and use their saturating arithmetic instead of \
               raw integer offsets",
    },
    RuleInfo {
        id: "P-001",
        severity: Severity::Error,
        summary: "static mut in a shard-certified crate",
        hint: "move the state into the node struct; sharded logical processes may not \
               share ambient state",
    },
    RuleInfo {
        id: "P-002",
        severity: Severity::Error,
        summary: "thread_local! state in a shard-certified crate",
        hint: "move the state into the node struct; thread identity is meaningless under \
               logical-process sharding",
    },
    RuleInfo {
        id: "P-003",
        severity: Severity::Error,
        summary: "shared-ownership handle (Rc/Arc) in a shard-certified crate",
        hint: "pass owned values or &mut through the handler; aliased state breaks the \
               pure message-passing model sharding relies on",
    },
    RuleInfo {
        id: "P-004",
        severity: Severity::Error,
        summary: "interior mutability (Cell/RefCell/…) in a shard-certified crate",
        hint: "use plain fields behind &mut self; hidden writes defeat shard-safety \
               certification",
    },
    RuleInfo {
        id: "P-005",
        severity: Severity::Error,
        summary: "lock primitive (Mutex/RwLock/…) in a shard-certified crate",
        hint: "handlers must not synchronise behind the kernel's back; let the event \
               kernel serialise access instead",
    },
    RuleInfo {
        id: "P-006",
        severity: Severity::Error,
        summary: "atomic type in a shard-certified crate",
        hint: "atomics imply cross-thread sharing; keep node state owned and let the \
               kernel order effects",
    },
    RuleInfo {
        id: "R-001",
        severity: Severity::Error,
        summary: ".unwrap() in non-test library code",
        hint: "propagate a typed error, or restructure so the case is impossible (let-else, pop_first)",
    },
    RuleInfo {
        id: "R-002",
        severity: Severity::Error,
        summary: ".expect(…) in non-test library code",
        hint: "propagate a typed error, or restructure so the case is impossible (let-else, pop_first)",
    },
    RuleInfo {
        id: "R-003",
        severity: Severity::Error,
        summary: "panic! / todo! / unimplemented! in non-test library code",
        hint: "return a typed error; a panic takes down the whole campaign worker",
    },
    RuleInfo {
        id: "R-004",
        severity: Severity::Error,
        summary: "process::exit outside src/bin",
        hint: "return an error to the caller; only binaries choose the process exit code",
    },
    RuleInfo {
        id: "X-001",
        severity: Severity::Error,
        summary: "malformed stabl-lint suppression comment",
        hint: "write `// stabl-lint: allow(rule-id, reason)` — the reason is mandatory",
    },
    RuleInfo {
        id: "X-002",
        severity: Severity::Warning,
        summary: "suppression that matched no diagnostic",
        hint: "delete the stale allow(…) comment",
    },
];

/// Looks up a rule by id.
pub fn rule(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// One finding, suppressed or not.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Rule id (`D-001`, …).
    pub rule: &'static str,
    /// Severity (from the rule table).
    pub severity: Severity,
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
    /// `Some(reason)` when an inline suppression covers the finding.
    pub suppressed: Option<String>,
    /// `true` when the committed `lint-baseline.json` tolerates the
    /// finding as known debt (see [`crate::baseline`]).
    pub baselined: bool,
}

/// Which rule families apply to one file.
#[derive(Clone, Copy, Debug, Default)]
pub struct FileScope {
    /// D-rules apply.
    pub determinism: bool,
    /// R-001..R-003 apply.
    pub robustness: bool,
    /// R-004 applies (`false` under `src/bin`).
    pub exit_banned: bool,
    /// P-rules (shard-safety certification) apply.
    pub shard: bool,
    /// N-rules (numeric determinism) apply.
    pub numeric: bool,
}

/// The outcome of scanning one file.
#[derive(Clone, Debug, Default)]
pub struct FileScan {
    /// Findings, suppressed ones included (marked).
    pub diagnostics: Vec<Diagnostic>,
    /// Suppressions no per-file rule consumed. The engine offers them
    /// to cross-file diagnostics (E-*) anchored in this file
    /// before declaring them unused (X-002).
    pub pending: Vec<PendingSuppression>,
}

/// A well-formed suppression that matched nothing in the per-file
/// pass.
#[derive(Clone, Debug)]
pub struct PendingSuppression {
    /// Rule id the suppression names.
    pub rule: String,
    /// Mandatory reason text.
    pub reason: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// Last line of the comment (for block comments).
    pub end_line: u32,
}

impl PendingSuppression {
    /// `true` when this suppression covers `diag` (same rule, within
    /// the comment's own line through the line after it).
    pub fn covers(&self, diag: &Diagnostic) -> bool {
        self.rule == diag.rule && diag.line >= self.line && diag.line <= self.end_line + 1
    }
}

struct Suppression {
    rule: String,
    reason: String,
    line: u32,
    end_line: u32,
    used: bool,
}

/// Scans one standalone file: analyzes it, runs the per-file rules,
/// and converts any leftover suppressions straight to X-002 (there is
/// no engine around to consume them).
pub fn scan_file(rel_path: &str, src: &str, scope: FileScope) -> FileScan {
    let fa = FileAnalysis::analyze(rel_path, src);
    let mut scan = scan_analysis(&fa, scope, None);
    flush_pending(&mut scan, rel_path);
    scan
}

/// Converts still-pending suppressions into X-002 warnings. The engine
/// calls this after cross-file rules had their chance; [`scan_file`]
/// calls it immediately.
pub fn flush_pending(scan: &mut FileScan, rel_path: &str) {
    for sup in scan.pending.drain(..) {
        scan.diagnostics.push(make_diag(
            "X-002",
            rel_path,
            sup.line,
            1,
            format!("allow({}) matched no diagnostic", sup.rule),
        ));
    }
}

/// Runs the per-file rules over an already-analyzed file. `graph` is
/// the file's crate call graph (used by P-rules to annotate findings
/// with handler reachability); pass `None` when no symbol table is
/// available.
pub fn scan_analysis(fa: &FileAnalysis, scope: FileScope, graph: Option<&CrateGraph>) -> FileScan {
    let rel_path = fa.rel.as_str();
    let tokens = &fa.lexed.tokens;

    let mut scan = FileScan::default();
    let mut suppressions = parse_suppressions(&fa.lexed.comments, rel_path, &mut scan.diagnostics);

    let mut raw: Vec<(usize, &'static str, String)> = Vec::new(); // (token idx, rule, message)

    for i in 0..tokens.len() {
        if fa.in_test_span(i) {
            continue;
        }
        if scope.determinism {
            determinism_at(fa, i, &mut raw);
        }
        if scope.robustness {
            robustness_at(tokens, i, &mut raw);
        }
        if scope.shard {
            crate::rules_shard::check_token(fa, i, graph, &mut raw);
        }
        if scope.numeric {
            crate::rules_numeric::check_token(tokens, i, &mut raw);
        }
        if scope.exit_banned && matches_path2(tokens, i, "process", "exit") {
            raw.push((i, "R-004", "`process::exit` outside src/bin".to_owned()));
        }
    }
    if scope.shard {
        crate::rules_shard::check_items(fa, &mut raw);
    }

    for (idx, rule_id, message) in raw {
        let t = &tokens[idx];
        scan.diagnostics
            .push(make_diag(rule_id, rel_path, t.line, t.col, message));
    }

    // Apply suppressions: a suppression on line L covers [L, L+1]
    // (block comments: their *last* line).
    scan.diagnostics.sort_by_key(|d| (d.line, d.col, d.rule));
    for diag in &mut scan.diagnostics {
        if diag.rule == "X-001" {
            continue; // malformed suppressions cannot self-suppress
        }
        for sup in suppressions.iter_mut() {
            if sup.rule == diag.rule && diag.line >= sup.line && diag.line <= sup.end_line + 1 {
                diag.suppressed = Some(sup.reason.clone());
                sup.used = true;
                break;
            }
        }
    }
    for sup in suppressions {
        if !sup.used {
            scan.pending.push(PendingSuppression {
                rule: sup.rule,
                reason: sup.reason,
                line: sup.line,
                end_line: sup.end_line,
            });
        }
    }
    scan
}

impl Diagnostic {
    /// Builds an unsuppressed diagnostic for a known rule id,
    /// inheriting the rule's severity and hint.
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
            severity: info.severity,
            file: file.to_owned(),
            line,
            col,
            message,
            hint: info.hint,
            suppressed: None,
            baselined: false,
        }
    }
}

fn make_diag(
    rule_id: &'static str,
    file: &str,
    line: u32,
    col: u32,
    message: String,
) -> Diagnostic {
    Diagnostic::new(rule_id, file, line, col, message)
}

fn ident_at(tokens: &[Token], i: usize, text: &str) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.kind == TokenKind::Ident && t.text == text)
}

fn punct_at(tokens: &[Token], i: usize, c: char) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text.len() == 1 && t.text.starts_with(c))
}

/// `a::b` starting at token `i`.
fn matches_path2(tokens: &[Token], i: usize, a: &str, b: &str) -> bool {
    ident_at(tokens, i, a)
        && punct_at(tokens, i + 1, ':')
        && punct_at(tokens, i + 2, ':')
        && ident_at(tokens, i + 3, b)
}

fn determinism_at(fa: &FileAnalysis, i: usize, raw: &mut Vec<(usize, &'static str, String)>) {
    let tokens = &fa.lexed.tokens;
    let Some(t) = tokens.get(i) else { return };
    if t.kind != TokenKind::Ident {
        return;
    }
    // All D-rule names resolve through the file's `use` aliases, so
    // `use std::collections::HashMap as FastMap` (or `Instant as
    // Clock`) cannot smuggle a banned item past the scan.
    let resolved = fa.resolve_last(&t.text);
    let alias = |raw_name: &str| {
        if resolved == t.text {
            format!("`{raw_name}`")
        } else {
            format!("`{}` (alias of `{raw_name}`)", t.text)
        }
    };
    if (resolved == "Instant" || resolved == "SystemTime")
        && punct_at(tokens, i + 1, ':')
        && punct_at(tokens, i + 2, ':')
        && ident_at(tokens, i + 3, "now")
    {
        let msg = if resolved == t.text {
            format!("wall-clock read `{resolved}::now`")
        } else {
            format!("wall-clock read `{}::now` (alias of `{resolved}`)", t.text)
        };
        raw.push((i, "D-001", msg));
    }
    if ["thread_rng", "OsRng", "from_entropy", "getrandom"].contains(&resolved) {
        raw.push((
            i,
            "D-002",
            format!("ambient RNG source {}", alias(resolved)),
        ));
    }
    if matches_path2(tokens, i, "rand", "random") {
        raw.push((i, "D-002", "ambient RNG source `rand::random`".to_owned()));
    }
    if resolved == "HashMap" || resolved == "HashSet" {
        raw.push((
            i,
            "D-003",
            format!("{} in protocol code (unordered iteration)", alias(resolved)),
        ));
    }
}

fn robustness_at(tokens: &[Token], i: usize, raw: &mut Vec<(usize, &'static str, String)>) {
    if punct_at(tokens, i, '.') && punct_at(tokens, i + 2, '(') {
        if ident_at(tokens, i + 1, "unwrap") {
            raw.push((i + 1, "R-001", "`.unwrap()` in library code".to_owned()));
        } else if ident_at(tokens, i + 1, "expect") {
            raw.push((i + 1, "R-002", "`.expect(…)` in library code".to_owned()));
        }
    }
    for mac in ["panic", "todo", "unimplemented"] {
        if ident_at(tokens, i, mac) && punct_at(tokens, i + 1, '!') {
            raw.push((i, "R-003", format!("`{mac}!` in library code")));
        }
    }
}

/// Parses `stabl-lint: allow(rule, reason)` comments; pushes X-001
/// diagnostics for malformed ones.
fn parse_suppressions(
    comments: &[Comment],
    rel_path: &str,
    diags: &mut Vec<Diagnostic>,
) -> Vec<Suppression> {
    let mut out = Vec::new();
    for comment in comments {
        // Doc comments (`///`, `//!` — text starts with `/` or `!`)
        // only *document* the syntax; suppressions are plain comments.
        if comment.text.starts_with('/') || comment.text.starts_with('!') {
            continue;
        }
        let Some(rest) = comment.text.split("stabl-lint:").nth(1) else {
            continue;
        };
        let rest = rest.trim();
        let Some(inner) = rest
            .strip_prefix("allow(")
            .and_then(|r| r.split(')').next())
        else {
            diags.push(make_diag(
                "X-001",
                rel_path,
                comment.line,
                1,
                format!("unrecognised stabl-lint directive `{rest}`"),
            ));
            continue;
        };
        let Some((rule_id, reason)) = inner.split_once(',') else {
            diags.push(make_diag(
                "X-001",
                rel_path,
                comment.line,
                1,
                "suppression has no reason — allow(rule-id, reason)".to_owned(),
            ));
            continue;
        };
        let rule_id = rule_id.trim();
        let reason = reason.trim();
        if rule(rule_id).is_none() {
            diags.push(make_diag(
                "X-001",
                rel_path,
                comment.line,
                1,
                format!("unknown rule id `{rule_id}` in suppression"),
            ));
            continue;
        }
        if reason.is_empty() {
            diags.push(make_diag(
                "X-001",
                rel_path,
                comment.line,
                1,
                "suppression reason is empty".to_owned(),
            ));
            continue;
        }
        out.push(Suppression {
            rule: rule_id.to_owned(),
            reason: reason.to_owned(),
            line: comment.line,
            end_line: comment.end_line,
            used: false,
        });
    }
    out
}
