//! Per-crate symbol tables and the workspace item graph.
//!
//! This is the semantic layer between [`crate::parse`] (one file at a
//! time) and the v2 rule families:
//!
//! * [`FileAnalysis`] bundles everything a rule needs about one file —
//!   the lexed tokens, its `#[cfg(test)]` spans, the parsed items, and
//!   a **use-alias map** that resolves a local identifier to the last
//!   segment of its canonical imported path. That resolution is what
//!   makes the P-rules unspoofable: `use std::sync::Arc as Shared`
//!   leaves `Shared` resolving to `Arc`.
//! * [`CrateGraph`] holds a per-crate, name-based function call graph
//!   seeded at `impl Protocol for …` methods, with BFS-computed
//!   reachability and a reconstructed example path
//!   (`on_message → dispatch → try_commit`) so a P-rule finding can
//!   say *how* handler code reaches the banned item.
//!
//! The call graph is a deliberate over-approximation: an edge is "an
//! identifier that names a function of this crate appears in this
//! body, immediately followed by `(`". Coarse name-based resolution
//! cannot miss a real call (no false negatives for reachability), at
//! the cost of occasionally connecting same-named functions — which
//! for a *certification* lint is the safe direction to err.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::{self, Token, TokenKind};
use crate::parse::{self, ParsedFile};

/// The crate a workspace-relative path belongs to: `"crates/<name>"`
/// for crate sources, `""` for everything else (root bins, xtask).
pub fn crate_key_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    if parts.next() == Some("crates") {
        if let Some(name) = parts.next() {
            return format!("crates/{name}");
        }
    }
    String::new()
}

/// Everything the semantic rules need about one source file.
#[derive(Debug)]
pub struct FileAnalysis {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Lexed tokens, comments stripped.
    pub tokens: Vec<Token>,
    /// `#[cfg(test)]` item spans over the token stream.
    pub test_spans: Vec<(usize, usize)>,
    /// Parsed items and pattern paths.
    pub parsed: ParsedFile,
    /// Local name → full imported path, from the file's `use` items.
    pub aliases: BTreeMap<String, Vec<String>>,
    /// The crate this file belongs to (see [`crate_key_of`]).
    pub crate_key: String,
}

impl FileAnalysis {
    /// Lexes and parses `src`, building the alias map.
    pub fn analyze(rel: &str, src: &str) -> FileAnalysis {
        let tokens = lexer::lex(src);
        let test_spans = lexer::test_spans(&tokens);
        let parsed = parse::parse(&tokens);
        let mut aliases = BTreeMap::new();
        for u in &parsed.uses {
            aliases.insert(u.local.clone(), u.path.clone());
        }
        FileAnalysis {
            rel: rel.to_owned(),
            crate_key: crate_key_of(rel),
            tokens,
            test_spans,
            parsed,
            aliases,
        }
    }

    /// `true` when token index `tok` falls inside a `#[cfg(test)]`
    /// item.
    pub fn in_test_span(&self, tok: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| tok >= s && tok < e)
    }

    /// Resolves an identifier through this file's `use` aliases to the
    /// last segment of its canonical path. Unknown identifiers resolve
    /// to themselves.
    pub fn resolve_last<'a>(&'a self, ident: &'a str) -> &'a str {
        self.aliases
            .get(ident)
            .and_then(|p| p.last())
            .map_or(ident, String::as_str)
    }

    /// The innermost function whose body contains token index `tok`.
    pub fn enclosing_fn(&self, tok: usize) -> Option<&str> {
        let mut best: Option<(usize, &str)> = None;
        for f in self.parsed.all_fns() {
            if let Some((s, e)) = f.body {
                if tok >= s && tok <= e {
                    let width = e - s;
                    if best.is_none_or(|(w, _)| width < w) {
                        best = Some((width, f.name.as_str()));
                    }
                }
            }
        }
        best.map(|(_, name)| name)
    }

    /// Pattern paths with `Self` resolved to the enclosing impl's type
    /// and the first segment resolved through `use` aliases. Yields
    /// `(resolved enum name, variant name, token index)` for every
    /// two-or-more-segment pattern path; only the last two segments
    /// matter for variant coverage.
    pub fn resolved_patterns(&self) -> Vec<(String, String, usize)> {
        let mut out = Vec::new();
        for p in &self.parsed.patterns {
            if p.segs.len() < 2 {
                continue;
            }
            let variant = p.segs[p.segs.len() - 1].clone();
            let owner_raw = &p.segs[p.segs.len() - 2];
            let owner = if owner_raw == "Self" {
                match self.parsed.impl_containing(p.tok) {
                    Some(i) => i.type_name.clone(),
                    None => continue,
                }
            } else {
                self.resolve_last(owner_raw).to_owned()
            };
            out.push((owner, variant, p.tok));
        }
        out
    }
}

/// The name-based call graph of one crate, seeded at Protocol-impl
/// handler methods.
#[derive(Debug, Default)]
pub struct CrateGraph {
    /// Names of all functions defined in the crate's non-test code.
    pub fns: BTreeSet<String>,
    /// Caller name → callee names (only callees defined in-crate).
    pub calls: BTreeMap<String, BTreeSet<String>>,
    /// Methods of non-test `impl Protocol for …` blocks.
    pub seeds: BTreeSet<String>,
    /// Function → example call path from a seed, rendered as
    /// `"on_message → dispatch → try_commit"`. Seeds map to their own
    /// name.
    pub reach: BTreeMap<String, String>,
}

impl CrateGraph {
    /// `true` when `fn_name` is a handler or reachable from one.
    pub fn handler_reaches(&self, fn_name: &str) -> bool {
        self.reach.contains_key(fn_name)
    }

    /// The example path for a reachable function, if any.
    pub fn example_path(&self, fn_name: &str) -> Option<&str> {
        self.reach.get(fn_name).map(String::as_str)
    }
}

/// Per-crate symbol tables for the whole workspace.
#[derive(Debug, Default)]
pub struct SymbolTable {
    graphs: BTreeMap<String, CrateGraph>,
}

impl SymbolTable {
    /// Builds call graphs and handler reachability for every crate
    /// represented in `files`. Test-span code contributes neither
    /// functions nor edges.
    pub fn build(files: &[FileAnalysis]) -> SymbolTable {
        let mut graphs: BTreeMap<String, CrateGraph> = BTreeMap::new();

        // Pass 1: every crate's function name set and handler seeds.
        for fa in files {
            let g = graphs.entry(fa.crate_key.clone()).or_default();
            for f in fa.parsed.all_fns() {
                if !fa.in_test_span(f.tok) {
                    g.fns.insert(f.name.clone());
                }
            }
            for imp in &fa.parsed.impls {
                if imp.trait_name.as_deref() == Some("Protocol") && !fa.in_test_span(imp.tok) {
                    for f in &imp.fns {
                        g.seeds.insert(f.name.clone());
                    }
                }
            }
        }

        // Pass 2: call edges — an in-crate function name followed by
        // `(` inside a function body.
        for fa in files {
            let Some(g) = graphs.get_mut(&fa.crate_key) else {
                continue;
            };
            let toks = &fa.tokens;
            for f in fa.parsed.all_fns() {
                let Some((s, e)) = f.body else { continue };
                if fa.in_test_span(f.tok) {
                    continue;
                }
                let mut callees = BTreeSet::new();
                for i in s..e {
                    let t = &toks[i];
                    if t.kind != TokenKind::Ident {
                        continue;
                    }
                    let next_is_open = toks
                        .get(i + 1)
                        .is_some_and(|n| n.kind == TokenKind::Punct && n.text == "(");
                    if next_is_open && g.fns.contains(&t.text) {
                        callees.insert(t.text.clone());
                    }
                }
                if !callees.is_empty() {
                    g.calls.entry(f.name.clone()).or_default().extend(callees);
                }
            }
        }

        // Pass 3: BFS from seeds with predecessor tracking.
        for g in graphs.values_mut() {
            let mut pred: BTreeMap<String, Option<String>> = BTreeMap::new();
            let mut queue = VecDeque::new();
            for seed in &g.seeds {
                pred.insert(seed.clone(), None);
                queue.push_back(seed.clone());
            }
            while let Some(name) = queue.pop_front() {
                if let Some(callees) = g.calls.get(&name) {
                    for callee in callees.clone() {
                        if !pred.contains_key(&callee) {
                            pred.insert(callee.clone(), Some(name.clone()));
                            queue.push_back(callee);
                        }
                    }
                }
            }
            for name in pred.keys() {
                let mut path = vec![name.clone()];
                let mut cur = name;
                while let Some(Some(p)) = pred.get(cur) {
                    path.push(p.clone());
                    cur = p;
                }
                path.reverse();
                g.reach.insert(name.clone(), path.join(" → "));
            }
        }

        SymbolTable { graphs }
    }

    /// The call graph of one crate, if any of its files were analyzed.
    pub fn graph(&self, crate_key: &str) -> Option<&CrateGraph> {
        self.graphs.get(crate_key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_keys_group_by_crate() {
        assert_eq!(
            crate_key_of("crates/avalanche/src/node.rs"),
            "crates/avalanche"
        );
        assert_eq!(crate_key_of("crates/sim/src/lib.rs"), "crates/sim");
        assert_eq!(crate_key_of("src/bin/runner.rs"), "");
    }

    #[test]
    fn aliases_resolve_to_last_segment() {
        let fa = FileAnalysis::analyze(
            "crates/x/src/lib.rs",
            "use std::collections::HashMap as FastMap;\nuse std::sync::Arc;\n",
        );
        assert_eq!(fa.resolve_last("FastMap"), "HashMap");
        assert_eq!(fa.resolve_last("Arc"), "Arc");
        assert_eq!(fa.resolve_last("Unknown"), "Unknown");
    }

    #[test]
    fn reachability_follows_calls_from_protocol_impls() {
        let fa = FileAnalysis::analyze(
            "crates/x/src/node.rs",
            "struct Node;\n\
             impl Protocol for Node {\n\
                 fn on_message(&mut self) { self.dispatch(); }\n\
             }\n\
             impl Node {\n\
                 fn dispatch(&mut self) { try_commit(); }\n\
                 fn unrelated(&self) { helper(); }\n\
             }\n\
             fn try_commit() {}\n\
             fn helper() {}\n",
        );
        let table = SymbolTable::build(&[fa]);
        let g = table.graph("crates/x").expect("graph built");
        assert!(g.handler_reaches("on_message"));
        assert!(g.handler_reaches("dispatch"));
        assert!(g.handler_reaches("try_commit"));
        assert!(!g.handler_reaches("unrelated"));
        assert!(!g.handler_reaches("helper"));
        assert_eq!(
            g.example_path("try_commit"),
            Some("on_message → dispatch → try_commit")
        );
    }

    #[test]
    fn test_span_fns_do_not_seed_reachability() {
        let fa = FileAnalysis::analyze(
            "crates/x/src/lib.rs",
            "#[cfg(test)]\nmod tests {\n\
                 struct T;\n\
                 impl Protocol for T { fn on_message(&mut self) { danger(); } }\n\
                 fn danger() {}\n\
             }\n",
        );
        let table = SymbolTable::build(&[fa]);
        let g = table.graph("crates/x").expect("graph built");
        assert!(g.seeds.is_empty());
        assert!(g.reach.is_empty());
    }

    #[test]
    fn self_patterns_resolve_via_enclosing_impl() {
        let fa = FileAnalysis::analyze(
            "crates/x/src/msg.rs",
            "enum Msg { A, B }\n\
             impl Msg {\n\
                 fn kind(&self) -> u8 {\n\
                     match self { Self::A => 0, Self::B => 1 }\n\
                 }\n\
             }\n",
        );
        let pats = fa.resolved_patterns();
        let names: Vec<(&str, &str)> = pats
            .iter()
            .map(|(o, v, _)| (o.as_str(), v.as_str()))
            .collect();
        assert!(names.contains(&("Msg", "A")), "{names:?}");
        assert!(names.contains(&("Msg", "B")), "{names:?}");
    }

    #[test]
    fn aliased_enum_patterns_resolve() {
        let fa = FileAnalysis::analyze(
            "crates/x/src/lib.rs",
            "use crate::msg::ChainMsg as M;\n\
             fn f(m: M) { match m { M::Ping => {}, M::Pong => {} } }\n",
        );
        let pats = fa.resolved_patterns();
        assert!(pats.iter().any(|(o, v, _)| o == "ChainMsg" && v == "Ping"));
        assert!(pats.iter().any(|(o, v, _)| o == "ChainMsg" && v == "Pong"));
    }
}
