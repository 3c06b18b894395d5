//! P-rules: shard-safety certification.
//!
//! Chain node handlers must be *pure message-passing state machines*:
//! all state owned by the node struct, nothing ambient, nothing
//! aliased, nothing synchronised behind the kernel's back. Ambient
//! shared state lives outside the simulation's seeded inputs, so it
//! breaks byte-identical replay; and a `Clone` of the simulation would
//! share it instead of copying it, which breaks the prefix forking of
//! ROADMAP item 5 (fork a run at its first divergence). The P-rules
//! certify exactly that, per crate, over the `[shard]` scope of
//! `lint.toml`:
//!
//! | id    | bans |
//! |-------|------|
//! | P-001 | `static mut` items |
//! | P-002 | `thread_local!` state |
//! | P-003 | shared-ownership handles (`Rc`, `Arc`) |
//! | P-004 | interior mutability (`Cell`, `RefCell`, `UnsafeCell`, `OnceCell`, `LazyCell`) |
//! | P-005 | lock primitives (`Mutex`, `RwLock`, `Condvar`, `Barrier`, `Once`, `OnceLock`, `LazyLock`) |
//! | P-006 | atomic types (`AtomicBool`, `AtomicU64`, …) |
//!
//! Identifiers are resolved through the file's `use`-alias map, so
//! `use std::sync::Arc as Shared` does not hide the handle. When the
//! occurrence sits inside a function the Protocol call graph can reach
//! from a handler, the finding message carries an example call path
//! (`on_message → dispatch → try_commit`) — the reviewer sees *how*
//! handler code touches the banned item, not just that the crate does.

use crate::symbols::{CrateGraph, FileAnalysis};

/// Shared-ownership handles (P-003).
const SHARED: &[&str] = &["Rc", "Arc"];
/// Interior-mutability cells (P-004).
const CELLS: &[&str] = &["Cell", "RefCell", "UnsafeCell", "OnceCell", "LazyCell"];
/// Lock and one-shot synchronisation primitives (P-005).
const LOCKS: &[&str] = &[
    "Mutex", "RwLock", "Condvar", "Barrier", "Once", "OnceLock", "LazyLock",
];
/// Atomic integer/bool/pointer types (P-006).
const ATOMICS: &[&str] = &[
    "AtomicBool",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
];

/// Per-token P-rule pass; called by the scanner for every non-test
/// token of a `[shard]`-scoped file.
pub fn check_token(
    fa: &FileAnalysis,
    i: usize,
    graph: Option<&CrateGraph>,
    raw: &mut Vec<(usize, &'static str, String)>,
) {
    let tokens = &fa.tokens;
    let Some(t) = tokens.get(i) else { return };
    if t.kind != crate::lexer::TokenKind::Ident {
        return;
    }
    if t.text == "thread_local"
        && tokens
            .get(i + 1)
            .is_some_and(|n| n.kind == crate::lexer::TokenKind::Punct && n.text == "!")
    {
        raw.push((
            i,
            "P-002",
            annotate(fa, i, graph, "`thread_local!` state".to_owned()),
        ));
        return;
    }
    let resolved = fa.resolve_last(&t.text);
    let (rule, what) = if SHARED.contains(&resolved) {
        ("P-003", "shared-ownership handle")
    } else if CELLS.contains(&resolved) {
        ("P-004", "interior mutability")
    } else if LOCKS.contains(&resolved) {
        ("P-005", "lock primitive")
    } else if ATOMICS.contains(&resolved) {
        ("P-006", "atomic type")
    } else {
        return;
    };
    let named = if resolved == t.text {
        format!("`{}` ({what})", t.text)
    } else {
        format!("`{}` (alias of `{resolved}`, {what})", t.text)
    };
    raw.push((i, rule, annotate(fa, i, graph, named)));
}

/// Item-level P-rule pass (P-001, which anchors at the item rather
/// than a use site); called once per `[shard]`-scoped file.
pub fn check_items(fa: &FileAnalysis, raw: &mut Vec<(usize, &'static str, String)>) {
    for s in &fa.parsed.statics {
        if s.is_mut && !fa.in_test_span(s.tok) {
            raw.push((
                s.tok,
                "P-001",
                format!("`static mut {}` is ambient mutable state", s.name),
            ));
        }
    }
}

/// Appends the handler reachability evidence to a finding message.
fn annotate(fa: &FileAnalysis, i: usize, graph: Option<&CrateGraph>, mut msg: String) -> String {
    msg.push_str(" in shard-certified crate");
    if let Some(g) = graph {
        if let Some(f) = fa.enclosing_fn(i) {
            if let Some(path) = g.example_path(f) {
                msg.push_str(&format!("; reachable from handler via {path}"));
            }
        }
    }
    msg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::SymbolTable;

    fn findings(src: &str) -> Vec<(String, String)> {
        let fa = FileAnalysis::analyze("crates/x/src/lib.rs", src);
        let table = SymbolTable::build(std::slice::from_ref(&fa));
        let graph = table.graph("crates/x");
        let mut raw = Vec::new();
        for i in 0..fa.tokens.len() {
            if !fa.in_test_span(i) {
                check_token(&fa, i, graph, &mut raw);
            }
        }
        check_items(&fa, &mut raw);
        raw.into_iter()
            .map(|(_, rule, msg)| (rule.to_owned(), msg))
            .collect()
    }

    #[test]
    fn bans_the_six_families() {
        let hits = findings(
            "use std::sync::{Arc, Mutex};\n\
             use std::cell::RefCell;\n\
             use std::sync::atomic::AtomicU64;\n\
             static mut COUNTER: u64 = 0;\n\
             thread_local! { static TL: u32 = 0; }\n",
        );
        let rules: Vec<&str> = hits.iter().map(|(r, _)| r.as_str()).collect();
        for want in ["P-001", "P-002", "P-003", "P-004", "P-005", "P-006"] {
            assert!(rules.contains(&want), "missing {want} in {rules:?}");
        }
    }

    #[test]
    fn aliases_do_not_hide_banned_types() {
        let hits = findings("use std::sync::Arc as Shared;\nfn f() { let _x: Shared<u32>; }\n");
        assert!(
            hits.iter()
                .any(|(r, m)| r == "P-003" && m.contains("alias of `Arc`")),
            "{hits:?}"
        );
    }

    #[test]
    fn reachable_findings_carry_an_example_path() {
        let hits = findings(
            "use std::sync::Mutex;\n\
             struct N;\n\
             impl Protocol for N { fn on_message(&mut self) { self.inner(); } }\n\
             impl N { fn inner(&mut self) { let _m: Mutex<u32>; } }\n",
        );
        let p005: Vec<&(String, String)> = hits.iter().filter(|(r, _)| r == "P-005").collect();
        assert!(
            p005.iter().any(|(_, m)| m.contains("on_message → inner")),
            "{p005:?}"
        );
    }

    #[test]
    fn test_code_and_plain_statics_are_exempt() {
        let hits = findings(
            "static LIMIT: u64 = 8;\n\
             #[cfg(test)]\nmod tests { use std::sync::Arc; static mut X: u8 = 0; }\n",
        );
        assert!(hits.is_empty(), "{hits:?}");
    }
}
