//! Workspace walking, scope resolution, the two-pass semantic run,
//! certification and output.
//!
//! The v2 run has two passes. Pass 1 reads, lexes and parses every
//! file into a [`FileAnalysis`] and builds the per-crate
//! [`SymbolTable`] (call graphs, Protocol-handler reachability). Pass
//! 2 runs the per-file token rules with that context, then the
//! cross-file E-rules, sorts, and finally computes per-crate
//! shard-safety certifications from the P-rule findings.

use crate::config::Config;
use crate::rules::{scan_analysis, Diagnostic, FileScope};
use crate::rules_exhaustive;
use crate::symbols::{crate_key_of, FileAnalysis, SymbolTable};
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The engine: a root directory plus a [`Config`].
pub struct Engine {
    root: PathBuf,
    config: Config,
}

/// The shard-safety verdict for one `[shard]`-scoped crate: no ambient
/// shared state that would break byte-identical replay or a `Clone`
/// of the simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certification {
    /// Crate key (`crates/avalanche`).
    pub crate_key: String,
    /// P-rule findings — any of these voids the certificate.
    pub findings: usize,
    /// `true` when the crate is certified shard-safe.
    pub certified: bool,
}

/// Everything one lint run produced.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, col, rule). Every finding
    /// is an error.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Per-crate shard-safety verdicts, sorted by crate key.
    pub certifications: Vec<Certification>,
}

impl Report {
    /// `file:line:col: error [rule] message` lines, one per finding,
    /// then the certification verdicts and a summary line.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!(
                "{}:{}:{}: error [{}] {}\n    hint: {}\n",
                d.file, d.line, d.col, d.rule, d.message, d.hint
            ));
        }
        for c in &self.certifications {
            let verdict = if c.certified {
                "CERTIFIED shard-safe"
            } else {
                "NOT shard-safe"
            };
            out.push_str(&format!(
                "shard-safety: {} {} ({} findings)\n",
                c.crate_key, verdict, c.findings
            ));
        }
        out.push_str(&format!(
            "stabl-lint: {} files scanned, {} errors\n",
            self.files_scanned,
            self.diagnostics.len(),
        ));
        out
    }

    /// The full report as a JSON document (hand-emitted; the linter is
    /// dependency-free by design).
    pub fn json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"version\": 3,\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"errors\": {},\n", self.diagnostics.len()));
        out.push_str("  \"certifications\": [");
        for (i, c) in self.certifications.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"crate\": {}, ", json_str(&c.crate_key)));
            out.push_str(&format!("\"findings\": {}, ", c.findings));
            out.push_str(&format!("\"certified\": {}}}", c.certified));
        }
        out.push_str("\n  ],\n");
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"rule\": {}, ", json_str(d.rule)));
            out.push_str(&format!("\"file\": {}, ", json_str(&d.file)));
            out.push_str(&format!("\"line\": {}, ", d.line));
            out.push_str(&format!("\"col\": {}, ", d.col));
            out.push_str(&format!("\"message\": {}, ", json_str(&d.message)));
            out.push_str(&format!("\"hint\": {}}}", json_str(d.hint)));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Engine {
    /// Creates an engine for `root` with the given config.
    pub fn new(root: impl Into<PathBuf>, config: Config) -> Engine {
        Engine {
            root: root.into(),
            config,
        }
    }

    /// Creates an engine for `root`, loading `lint.toml` from it when
    /// present (falling back to [`Config::default`]).
    pub fn from_root(root: impl Into<PathBuf>) -> Result<Engine, String> {
        let root = root.into();
        let config = match fs::read_to_string(root.join("lint.toml")) {
            Ok(src) => Config::parse(&src).map_err(|e| e.to_string())?,
            Err(_) => Config::default(),
        };
        Ok(Engine::new(root, config))
    }

    /// Runs the two-pass lint over every `.rs` file under the root.
    pub fn run(&self) -> io::Result<Report> {
        let mut files = Vec::new();
        collect_rs_files(&self.root, &self.root, &self.config.skip, &mut files)?;
        files.sort();

        // Pass 1: lex + parse everything, then build per-crate symbol
        // tables (the P-rules need handler reachability, the E-rules
        // need every crate's pattern sets).
        let mut analyses = Vec::with_capacity(files.len());
        for rel in &files {
            let src = fs::read_to_string(self.root.join(rel))?;
            analyses.push(FileAnalysis::analyze(rel, &src));
        }
        let symbols = SymbolTable::build(&analyses);

        // Pass 2: per-file rules with symbol context, then the
        // cross-file exhaustiveness rules.
        let mut report = Report {
            files_scanned: analyses.len(),
            ..Report::default()
        };
        for fa in &analyses {
            let scope = self.scope_of(&fa.rel);
            report
                .diagnostics
                .extend(scan_analysis(fa, scope, symbols.graph(&fa.crate_key)));
        }
        rules_exhaustive::check(
            &analyses,
            &self.config.exhaustive,
            &self.config.covers,
            &mut report.diagnostics,
        );
        report.diagnostics.sort_by(|a, b| {
            (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule))
        });

        report.certifications = self.certify(&report.diagnostics);
        Ok(report)
    }

    /// Per-crate shard-safety verdicts: a crate is certified only when
    /// it has no P-rule finding.
    fn certify(&self, diags: &[Diagnostic]) -> Vec<Certification> {
        let keys: BTreeSet<String> = self
            .config
            .shard
            .iter()
            .map(|p| crate_key_of(p))
            .filter(|k| !k.is_empty())
            .collect();
        keys.into_iter()
            .map(|crate_key| {
                let prefix = format!("{crate_key}/");
                let findings = diags
                    .iter()
                    .filter(|d| d.rule.starts_with("P-") && d.file.starts_with(&prefix))
                    .count();
                Certification {
                    certified: findings == 0,
                    crate_key,
                    findings,
                }
            })
            .collect()
    }

    fn scope_of(&self, rel: &str) -> FileScope {
        let in_any = |prefixes: &[String]| prefixes.iter().any(|p| rel.starts_with(p.as_str()));
        let is_test_path = rel.contains("/tests/")
            || rel.starts_with("tests/")
            || rel.contains("/benches/")
            || rel.contains("/examples/")
            || rel.starts_with("examples/");
        if is_test_path {
            return FileScope::default();
        }
        FileScope {
            shard: in_any(&self.config.shard),
            numeric: in_any(&self.config.numeric),
        }
    }
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    skip: &[String],
    out: &mut Vec<String>,
) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let rel = match path.strip_prefix(root) {
            Ok(rel) => rel.to_string_lossy().replace('\\', "/"),
            Err(_) => continue,
        };
        if skip
            .iter()
            .any(|s| rel == *s || rel.starts_with(&format!("{s}/")))
        {
            continue;
        }
        if path.is_dir() {
            if path
                .file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with('.'))
            {
                continue;
            }
            collect_rs_files(root, &path, skip, out)?;
        } else if rel.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}
