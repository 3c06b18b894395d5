//! Workspace walking, scope resolution, the two-pass semantic run,
//! baseline ratcheting, certification and output.
//!
//! The v2 run has two passes. Pass 1 reads, lexes and parses every
//! file into a [`FileAnalysis`] and builds the per-crate
//! [`SymbolTable`] (call graphs, Protocol-handler reachability). Pass
//! 2 runs the per-file token rules with that context, then the
//! cross-file E-rules, applies leftover inline suppressions to
//! cross-file findings, sorts, applies the `lint-baseline.json`
//! ratchet, and finally computes per-crate shard-safety
//! certifications from the P-rule findings.

use crate::baseline::Baseline;
use crate::config::Config;
use crate::rules::{flush_pending, scan_analysis, Diagnostic, FileScope, Severity};
use crate::rules_exhaustive;
use crate::symbols::{crate_key_of, FileAnalysis, SymbolTable};
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The engine: a root directory plus a [`Config`] and an optional
/// baseline ratchet.
pub struct Engine {
    root: PathBuf,
    config: Config,
    baseline_path: Option<PathBuf>,
}

/// The shard-safety verdict for one `[shard]`-scoped crate: the
/// machine-checked precondition for ROADMAP item 2's logical-process
/// sharding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certification {
    /// Crate key (`crates/avalanche`).
    pub crate_key: String,
    /// Unsuppressed, unbaselined P-rule findings — any of these voids
    /// the certificate.
    pub findings: usize,
    /// P-rule findings tolerated by the baseline (still debt; also
    /// voids the certificate).
    pub baselined: usize,
    /// P-rule findings suppressed inline with a documented reason —
    /// the only accepted escape.
    pub suppressed: usize,
    /// `true` when the crate is certified shard-safe.
    pub certified: bool,
}

/// Everything one lint run produced.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, col, rule); suppressed
    /// findings are included and marked.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Per-crate shard-safety verdicts, sorted by crate key.
    pub certifications: Vec<Certification>,
}

impl Report {
    /// Unsuppressed, unbaselined error-severity findings — what fails
    /// the build.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.suppressed.is_none() && !d.baselined && d.severity == Severity::Error)
    }

    /// Unsuppressed warnings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.suppressed.is_none() && !d.baselined && d.severity == Severity::Warning)
    }

    /// Suppressed findings.
    pub fn suppressed(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.suppressed.is_some())
    }

    /// Findings tolerated by the committed baseline (known debt).
    pub fn baselined(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.suppressed.is_none() && d.baselined)
    }

    /// `file:line:col: severity [rule] message` lines, one per
    /// unsuppressed finding, plus a summary line.
    pub fn human(&self, show_suppressed: bool) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            match &d.suppressed {
                None if d.baselined => {
                    if show_suppressed {
                        out.push_str(&format!(
                            "{}:{}:{}: baselined [{}] {}\n",
                            d.file, d.line, d.col, d.rule, d.message
                        ));
                    }
                }
                None => {
                    out.push_str(&format!(
                        "{}:{}:{}: {} [{}] {}\n    hint: {}\n",
                        d.file,
                        d.line,
                        d.col,
                        d.severity.name(),
                        d.rule,
                        d.message,
                        d.hint
                    ));
                }
                Some(reason) if show_suppressed => {
                    out.push_str(&format!(
                        "{}:{}:{}: suppressed [{}] {} (reason: {})\n",
                        d.file, d.line, d.col, d.rule, d.message, reason
                    ));
                }
                Some(_) => {}
            }
        }
        for c in &self.certifications {
            let verdict = if c.certified {
                "CERTIFIED shard-safe"
            } else {
                "NOT shard-safe"
            };
            out.push_str(&format!(
                "shard-safety: {} {} ({} findings, {} baselined, {} suppressed)\n",
                c.crate_key, verdict, c.findings, c.baselined, c.suppressed
            ));
        }
        out.push_str(&format!(
            "stabl-lint: {} files scanned, {} errors, {} warnings, {} suppressed, {} baselined\n",
            self.files_scanned,
            self.errors().count(),
            self.warnings().count(),
            self.suppressed().count(),
            self.baselined().count(),
        ));
        out
    }

    /// The full report as a JSON document (hand-emitted; the linter is
    /// dependency-free by design).
    pub fn json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"version\": 2,\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"errors\": {},\n", self.errors().count()));
        out.push_str(&format!("  \"warnings\": {},\n", self.warnings().count()));
        out.push_str(&format!(
            "  \"suppressed\": {},\n",
            self.suppressed().count()
        ));
        out.push_str(&format!("  \"baselined\": {},\n", self.baselined().count()));
        out.push_str("  \"certifications\": [");
        for (i, c) in self.certifications.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"crate\": {}, ", json_str(&c.crate_key)));
            out.push_str(&format!("\"findings\": {}, ", c.findings));
            out.push_str(&format!("\"baselined\": {}, ", c.baselined));
            out.push_str(&format!("\"suppressed\": {}, ", c.suppressed));
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
            out.push_str(&format!("\"severity\": {}, ", json_str(d.severity.name())));
            out.push_str(&format!("\"file\": {}, ", json_str(&d.file)));
            out.push_str(&format!("\"line\": {}, ", d.line));
            out.push_str(&format!("\"col\": {}, ", d.col));
            out.push_str(&format!("\"message\": {}, ", json_str(&d.message)));
            out.push_str(&format!("\"hint\": {}, ", json_str(d.hint)));
            out.push_str(&format!("\"baselined\": {}, ", d.baselined));
            match &d.suppressed {
                Some(reason) => out.push_str(&format!("\"suppressed\": {}}}", json_str(reason))),
                None => out.push_str("\"suppressed\": null}"),
            }
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
    /// Creates an engine for `root` with the given config and no
    /// baseline ratchet.
    pub fn new(root: impl Into<PathBuf>, config: Config) -> Engine {
        Engine {
            root: root.into(),
            config,
            baseline_path: None,
        }
    }

    /// Creates an engine for `root`, loading `lint.toml` from it when
    /// present (falling back to [`Config::default`]) and picking up a
    /// committed `lint-baseline.json` when one exists.
    pub fn from_root(root: impl Into<PathBuf>) -> Result<Engine, String> {
        let root = root.into();
        let config_path = root.join("lint.toml");
        let config = match fs::read_to_string(&config_path) {
            Ok(src) => Config::parse(&src).map_err(|e| e.to_string())?,
            Err(_) => Config::default(),
        };
        let mut engine = Engine::new(root, config);
        let baseline = engine.root.join("lint-baseline.json");
        if baseline.is_file() {
            engine.baseline_path = Some(baseline);
        }
        Ok(engine)
    }

    /// Uses `path` as the baseline ratchet file.
    pub fn with_baseline(mut self, path: impl Into<PathBuf>) -> Engine {
        self.baseline_path = Some(path.into());
        self
    }

    /// Disables the baseline ratchet (every finding is a live error).
    pub fn without_baseline(mut self) -> Engine {
        self.baseline_path = None;
        self
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

        // Pass 2: per-file rules with symbol context. Unused inline
        // suppressions are held back per file so cross-file findings
        // anchored there can still consume them.
        let mut report = Report::default();
        let mut scans = Vec::with_capacity(analyses.len());
        for fa in &analyses {
            let scope = self.scope_of(&fa.rel);
            let scan = scan_analysis(fa, scope, symbols.graph(&fa.crate_key));
            report.files_scanned += 1;
            scans.push(scan);
        }

        // Cross-file rules: exhaustiveness drift.
        let mut cross: Vec<Diagnostic> = Vec::new();
        rules_exhaustive::check(
            &analyses,
            &self.config.exhaustive,
            &self.config.covers,
            &mut cross,
        );

        // Offer each file's leftover suppressions to cross-file
        // findings anchored in it, then flush what remains to X-002.
        for (fa, scan) in analyses.iter().zip(scans.iter_mut()) {
            for d in cross.iter_mut().filter(|d| d.file == fa.rel) {
                if d.suppressed.is_some() {
                    continue;
                }
                if let Some(pos) = scan.pending.iter().position(|p| p.covers(d)) {
                    let sup = scan.pending.remove(pos);
                    d.suppressed = Some(sup.reason);
                }
            }
            flush_pending(scan, &fa.rel);
        }
        for scan in scans {
            report.diagnostics.extend(scan.diagnostics);
        }
        report.diagnostics.extend(cross);
        report.diagnostics.sort_by(|a, b| {
            (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule))
        });

        // Baseline ratchet: tolerate committed debt, flag shrunk debt.
        if let Some(path) = &self.baseline_path {
            let src = fs::read_to_string(path)?;
            let baseline =
                Baseline::parse(&src).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            let rel = path
                .strip_prefix(&self.root)
                .map(|p| p.to_string_lossy().replace('\\', "/"))
                .unwrap_or_else(|_| path.to_string_lossy().into_owned());
            let stale = crate::baseline::apply(&baseline, &rel, &mut report.diagnostics);
            report.diagnostics.extend(stale);
            report.diagnostics.sort_by(|a, b| {
                (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule))
            });
        }

        report.certifications = self.certify(&report.diagnostics);
        Ok(report)
    }

    /// Per-crate shard-safety verdicts from the P-rule findings: a
    /// crate is certified only when every P finding in it is
    /// suppressed inline with a reason — baselined debt still voids
    /// the certificate.
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
                let mut findings = 0;
                let mut baselined = 0;
                let mut suppressed = 0;
                for d in diags {
                    if !d.rule.starts_with("P-") || !d.file.starts_with(&prefix) {
                        continue;
                    }
                    if d.suppressed.is_some() {
                        suppressed += 1;
                    } else if d.baselined {
                        baselined += 1;
                    } else {
                        findings += 1;
                    }
                }
                Certification {
                    certified: findings == 0 && baselined == 0,
                    crate_key,
                    findings,
                    baselined,
                    suppressed,
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
        let is_bin = self
            .config
            .bins
            .iter()
            .any(|b| rel.contains(&format!("/{b}/")) || rel.contains(&format!("{b}/")));
        if is_test_path {
            return FileScope::default();
        }
        FileScope {
            determinism: in_any(&self.config.determinism),
            robustness: in_any(&self.config.robustness) && !is_bin,
            exit_banned: !is_bin,
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
