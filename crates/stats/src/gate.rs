//! The paired regression gate: diffing a fresh replicated-campaign
//! artifact tree against a committed golden tree.
//!
//! For every `*_ci.json` artifact present in the golden tree the gate
//! parses both copies as [`ReplicatedCampaign`]s, pairs cells by
//! (chain, scenario) and classifies each metric's fresh point estimate
//! against the golden confidence interval:
//!
//! * **within-CI** — inside the golden 95 % interval (padded by
//!   [`GATE_EPSILON`] so exact replays never flag on rounding);
//! * **suspect** — outside the interval but inside the interval widened
//!   by the `slack` factor (default [`GATE_DEFAULT_SLACK`]) around its
//!   centre: worth a look, not a failure;
//! * **regression** — beyond even the widened band, or a structural
//!   change (liveness-loss count moved, artifact or cell missing).
//!
//! The gate is pure classification: it never exits the process itself.
//! The `stabl-stats` binary maps [`GateReport::worst`] to exit codes
//! (0 clean, 1 regression, 2 usage/IO error) so library code stays
//! free of `process::exit` (the workspace denies `clippy::exit`).

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::bootstrap::ConfidenceInterval;
use crate::replicate::{MetricCi, ReplicatedCampaign, ReplicatedCell};

/// Widening factor for the suspect band: a fresh point may drift up to
/// 3× the golden interval's half-width from its centre before the
/// shift is called a regression rather than a suspect.
pub const GATE_DEFAULT_SLACK: f64 = 3.0;

/// Absolute padding added to both interval endpoints so byte-identical
/// replays (and sub-ulp serialisation round-trips) always pass.
pub const GATE_EPSILON: f64 = 1e-9;

/// Verdict string: the fresh value sits inside the golden CI.
pub const VERDICT_WITHIN: &str = "within-ci";
/// Verdict string: outside the CI but inside the slack-widened band.
pub const VERDICT_SUSPECT: &str = "suspect";
/// Verdict string: beyond the widened band or structurally changed.
pub const VERDICT_REGRESSION: &str = "regression";

/// One metric-level comparison between golden and fresh.
///
/// `verdict` is one of the `VERDICT_*` strings (a string rather than an
/// enum so the artifact stays a plain named-field struct for the
/// vendored serde derive).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricVerdict {
    /// Artifact file the cell came from, relative to the tree root.
    pub file: String,
    /// The cell's chain.
    pub chain: String,
    /// The cell's scenario.
    pub scenario: String,
    /// The compared metric (`"score"`, `"commit_ratio"`,
    /// `"mean_latency"`, or `"liveness"` / `"artifact"` for structural
    /// checks).
    pub metric: String,
    /// Golden point estimate, if the golden CI existed.
    pub golden: Option<f64>,
    /// Fresh point estimate, if the fresh CI existed.
    pub fresh: Option<f64>,
    /// Golden interval lower endpoint.
    pub lo: Option<f64>,
    /// Golden interval upper endpoint.
    pub hi: Option<f64>,
    /// One of [`VERDICT_WITHIN`], [`VERDICT_SUSPECT`],
    /// [`VERDICT_REGRESSION`].
    pub verdict: String,
    /// Human-readable explanation of the classification.
    pub detail: String,
}

/// Worker-pool utilisation folded out of a `*_telemetry.json` artefact
/// (the wall-clock sidecar the replicated-campaign binaries write next
/// to their determinism-gated campaign JSON).
///
/// Purely informational: utilisation never moves a gate verdict — it
/// rides along in `BENCH_stats.json` so a bench-trajectory reader can
/// spot pool starvation or straggler cells next to the statistics.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct UtilizationSummary {
    /// Worker threads the batch used.
    pub workers: u64,
    /// Cells scheduled (cache probes included).
    pub cells: u64,
    /// Cells answered from the content-addressed cache.
    pub cache_hits: u64,
    /// Cells actually simulated.
    pub executed: u64,
    /// Wall-clock time of the whole batch, milliseconds.
    pub wall_ms: u64,
    /// Milliseconds workers spent busy, summed over all cells.
    pub busy_ms: u64,
    /// Fraction of pool capacity (`workers x wall_ms`) that was busy.
    pub utilization: f64,
    /// Label of the slowest executed cell, if any cell executed.
    pub slowest_cell: Option<String>,
    /// Worker-occupancy of that slowest cell, milliseconds.
    pub slowest_wall_ms: Option<u64>,
}

/// One cell of the telemetry sidecar (mirror of the bench crate's
/// `CellTelemetry`; a local mirror keeps the dependency arrow pointing
/// bench → stats).
#[derive(Clone, Debug, PartialEq, Deserialize)]
struct TelemetryCell {
    label: String,
    cached: bool,
    wall_ms: u64,
}

/// The telemetry sidecar itself (mirror of `EngineTelemetry`).
#[derive(Clone, Debug, PartialEq, Deserialize)]
struct TelemetryFile {
    cells: Vec<TelemetryCell>,
    cache_hits: u64,
    executed: u64,
    workers: u64,
    wall_ms: u64,
    utilization: f64,
}

/// Loads a `*_telemetry.json` sidecar and folds it into the
/// utilisation summary carried by [`GateReport`].
pub fn load_utilization(path: &Path) -> Result<UtilizationSummary, GateError> {
    let text = fs::read_to_string(path).map_err(|e| GateError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    })?;
    let telemetry: TelemetryFile = serde_json::from_str(&text).map_err(|e| GateError::Parse {
        path: path.to_path_buf(),
        message: e.to_string(),
    })?;
    let busy_ms = telemetry.cells.iter().map(|c| c.wall_ms).sum();
    // Slowest *executed* cell, ties broken by label so the summary is
    // deterministic for a fixed sidecar.
    let slowest = telemetry
        .cells
        .iter()
        .filter(|c| !c.cached)
        .max_by(|a, b| a.wall_ms.cmp(&b.wall_ms).then(b.label.cmp(&a.label)));
    Ok(UtilizationSummary {
        workers: telemetry.workers,
        cells: telemetry.cells.len() as u64,
        cache_hits: telemetry.cache_hits,
        executed: telemetry.executed,
        wall_ms: telemetry.wall_ms,
        busy_ms,
        utilization: telemetry.utilization,
        slowest_cell: slowest.map(|c| c.label.clone()),
        slowest_wall_ms: slowest.map(|c| c.wall_ms),
    })
}

/// The gate's aggregate result over two artifact trees.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GateReport {
    /// The slack factor the suspect band used.
    pub slack: f64,
    /// Artifact files compared.
    pub files: u64,
    /// Cells compared.
    pub cells: u64,
    /// Metric comparisons that were within-CI.
    pub within: u64,
    /// Metric comparisons classified suspect.
    pub suspect: u64,
    /// Metric comparisons classified regression.
    pub regressions: u64,
    /// Every metric-level verdict, in deterministic order.
    pub verdicts: Vec<MetricVerdict>,
    /// Worker-pool utilisation of the fresh run, when the caller passed
    /// a telemetry sidecar (`--telemetry`). Informational only: never
    /// contributes to the verdict counts above.
    pub utilization: Option<UtilizationSummary>,
}

impl GateReport {
    /// The worst verdict string present ([`VERDICT_WITHIN`] when the
    /// report is empty).
    pub fn worst(&self) -> &'static str {
        if self.regressions > 0 {
            VERDICT_REGRESSION
        } else if self.suspect > 0 {
            VERDICT_SUSPECT
        } else {
            VERDICT_WITHIN
        }
    }

    /// `true` if no comparison regressed.
    pub fn passed(&self) -> bool {
        self.regressions == 0
    }

    /// Renders the human report: a verdict table plus a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:<9} {:<13} {:<12} {:>10} {:>22} {}\n",
            "file", "chain", "scenario", "metric", "fresh", "golden 95% CI", "verdict"
        ));
        for v in &self.verdicts {
            let fresh = match v.fresh {
                Some(x) => format!("{x:.4}"),
                None => "-".to_owned(),
            };
            let interval = match (v.lo, v.hi) {
                (Some(lo), Some(hi)) => format!("[{lo:.4}, {hi:.4}]"),
                _ => "-".to_owned(),
            };
            let marker = match v.verdict.as_str() {
                VERDICT_WITHIN => "ok",
                VERDICT_SUSPECT => "SUSPECT",
                _ => "REGRESSION",
            };
            out.push_str(&format!(
                "{:<28} {:<9} {:<13} {:<12} {:>10} {:>22} {}\n",
                v.file, v.chain, v.scenario, v.metric, fresh, interval, marker
            ));
            if v.verdict != VERDICT_WITHIN {
                out.push_str(&format!("    ^ {}\n", v.detail));
            }
        }
        out.push_str(&format!(
            "gate: {} files, {} cells, {} within-CI, {} suspect, {} regressions => {}\n",
            self.files,
            self.cells,
            self.within,
            self.suspect,
            self.regressions,
            self.worst()
        ));
        if let Some(u) = &self.utilization {
            out.push_str(&format!(
                "pool: {} workers, {} cells ({} executed, {} cached), \
                 {} ms wall, utilization {:.1}%",
                u.workers,
                u.cells,
                u.executed,
                u.cache_hits,
                u.wall_ms,
                u.utilization * 100.0,
            ));
            if let (Some(label), Some(ms)) = (&u.slowest_cell, u.slowest_wall_ms) {
                out.push_str(&format!(", slowest cell {label} ({ms} ms)"));
            }
            out.push('\n');
        }
        out
    }

    fn count(&mut self, verdict: &str) {
        match verdict {
            VERDICT_WITHIN => self.within += 1,
            VERDICT_SUSPECT => self.suspect += 1,
            _ => self.regressions += 1,
        }
    }

    fn push(&mut self, verdict: MetricVerdict) {
        self.count(&verdict.verdict);
        self.verdicts.push(verdict);
    }
}

/// Errors the gate can hit while reading the two trees.
#[derive(Debug)]
pub enum GateError {
    /// A directory walk or file read failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error text.
        message: String,
    },
    /// An artifact file did not parse as a [`ReplicatedCampaign`].
    Parse {
        /// The path involved.
        path: PathBuf,
        /// The parser's error text.
        message: String,
    },
    /// The golden tree contained no `*_ci.json` artifacts at all.
    EmptyGolden {
        /// The golden tree root.
        path: PathBuf,
    },
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::Io { path, message } => {
                write!(f, "io error at {}: {message}", path.display())
            }
            GateError::Parse { path, message } => {
                write!(f, "cannot parse {}: {message}", path.display())
            }
            GateError::EmptyGolden { path } => {
                write!(f, "no *_ci.json artifacts under {}", path.display())
            }
        }
    }
}

impl std::error::Error for GateError {}

/// Classifies `fresh_point` against a golden interval.
fn classify(golden: &ConfidenceInterval, fresh_point: f64, slack: f64) -> &'static str {
    if fresh_point >= golden.lo - GATE_EPSILON && fresh_point <= golden.hi + GATE_EPSILON {
        return VERDICT_WITHIN;
    }
    let band = golden.widened(slack.max(1.0));
    if fresh_point >= band.lo - GATE_EPSILON && fresh_point <= band.hi + GATE_EPSILON {
        return VERDICT_SUSPECT;
    }
    VERDICT_REGRESSION
}

/// Compares one metric pair and appends the verdict to `report`.
fn compare_metric(
    report: &mut GateReport,
    file: &str,
    chain: &str,
    scenario: &str,
    golden: &MetricCi,
    fresh: &MetricCi,
    slack: f64,
) {
    let mut verdict = MetricVerdict {
        file: file.to_owned(),
        chain: chain.to_owned(),
        scenario: scenario.to_owned(),
        metric: golden.metric.clone(),
        golden: golden.ci.as_ref().map(|ci| ci.point),
        fresh: fresh.ci.as_ref().map(|ci| ci.point),
        lo: golden.ci.as_ref().map(|ci| ci.lo),
        hi: golden.ci.as_ref().map(|ci| ci.hi),
        verdict: VERDICT_WITHIN.to_owned(),
        detail: String::new(),
    };
    match (&golden.ci, &fresh.ci) {
        (None, None) => {
            verdict.detail = "metric absent in both trees (structurally infinite)".to_owned();
        }
        (Some(_), None) => {
            verdict.verdict = VERDICT_REGRESSION.to_owned();
            verdict.detail = "metric had a golden CI but no fresh samples".to_owned();
        }
        (None, Some(_)) => {
            verdict.verdict = VERDICT_SUSPECT.to_owned();
            verdict.detail =
                "metric gained fresh samples it lacked in golden (structure changed)".to_owned();
        }
        (Some(g), Some(f)) => {
            verdict.verdict = classify(g, f.point, slack).to_owned();
            if verdict.verdict != VERDICT_WITHIN {
                verdict.detail = format!(
                    "fresh point {:.6} outside golden 95% CI [{:.6}, {:.6}] (slack {slack})",
                    f.point, g.lo, g.hi
                );
            }
        }
    }
    report.push(verdict);
}

/// Compares one golden cell against its fresh counterpart, appending
/// metric verdicts (three CI metrics plus the liveness-count check).
pub fn compare_cells(
    report: &mut GateReport,
    file: &str,
    golden: &ReplicatedCell,
    fresh: &ReplicatedCell,
    slack: f64,
) {
    report.cells += 1;
    // Structural check first: the number of liveness-losing replicates
    // must match — a cell drifting between finite and infinite is a
    // behavioural change no interval can excuse.
    if golden.infinite != fresh.infinite {
        report.push(MetricVerdict {
            file: file.to_owned(),
            chain: golden.chain.clone(),
            scenario: golden.scenario.clone(),
            metric: "liveness".to_owned(),
            golden: Some(golden.infinite as f64),
            fresh: Some(fresh.infinite as f64),
            lo: None,
            hi: None,
            verdict: VERDICT_REGRESSION.to_owned(),
            detail: format!(
                "liveness-loss replicates moved: golden {} vs fresh {} (of {})",
                golden.infinite, fresh.infinite, golden.replicates
            ),
        });
    }
    compare_metric(
        report,
        file,
        &golden.chain,
        &golden.scenario,
        &golden.score,
        &fresh.score,
        slack,
    );
    compare_metric(
        report,
        file,
        &golden.chain,
        &golden.scenario,
        &golden.commit_ratio,
        &fresh.commit_ratio,
        slack,
    );
    compare_metric(
        report,
        file,
        &golden.chain,
        &golden.scenario,
        &golden.mean_latency,
        &fresh.mean_latency,
        slack,
    );
}

/// Compares two parsed campaigns, appending verdicts for every golden
/// cell (missing fresh cells regress).
pub fn compare_campaigns(
    report: &mut GateReport,
    file: &str,
    golden: &ReplicatedCampaign,
    fresh: &ReplicatedCampaign,
    slack: f64,
) {
    for golden_cell in &golden.cells {
        match fresh.cell(&golden_cell.chain, &golden_cell.scenario) {
            Some(fresh_cell) => compare_cells(report, file, golden_cell, fresh_cell, slack),
            None => {
                report.cells += 1;
                report.push(MetricVerdict {
                    file: file.to_owned(),
                    chain: golden_cell.chain.clone(),
                    scenario: golden_cell.scenario.clone(),
                    metric: "artifact".to_owned(),
                    golden: None,
                    fresh: None,
                    lo: None,
                    hi: None,
                    verdict: VERDICT_REGRESSION.to_owned(),
                    detail: "cell present in golden but missing from fresh artifact".to_owned(),
                });
            }
        }
    }
}

/// Recursively collects the relative paths of `*_ci.json` files under
/// `root`, sorted for deterministic report order.
fn collect_artifacts(root: &Path) -> Result<Vec<PathBuf>, GateError> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), GateError> {
        let entries = fs::read_dir(dir).map_err(|e| GateError::Io {
            path: dir.to_path_buf(),
            message: e.to_string(),
        })?;
        for entry in entries {
            let entry = entry.map_err(|e| GateError::Io {
                path: dir.to_path_buf(),
                message: e.to_string(),
            })?;
            let path = entry.path();
            if path.is_dir() {
                walk(root, &path, out)?;
            } else if path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with("_ci.json"))
            {
                if let Ok(rel) = path.strip_prefix(root) {
                    out.push(rel.to_path_buf());
                }
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn load_campaign(path: &Path) -> Result<ReplicatedCampaign, GateError> {
    let text = fs::read_to_string(path).map_err(|e| GateError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    })?;
    serde_json::from_str(&text).map_err(|e| GateError::Parse {
        path: path.to_path_buf(),
        message: e.to_string(),
    })
}

/// Diffs a fresh artifact tree against a golden tree.
///
/// Every `*_ci.json` under `golden_root` is compared against the file
/// at the same relative path under `fresh_root`; a missing fresh file
/// is a regression. Extra fresh artifacts are ignored (new figures are
/// not regressions).
pub fn compare_trees(
    golden_root: &Path,
    fresh_root: &Path,
    slack: f64,
) -> Result<GateReport, GateError> {
    let artifacts = collect_artifacts(golden_root)?;
    if artifacts.is_empty() {
        return Err(GateError::EmptyGolden {
            path: golden_root.to_path_buf(),
        });
    }
    let mut report = GateReport {
        slack,
        files: 0,
        cells: 0,
        within: 0,
        suspect: 0,
        regressions: 0,
        verdicts: Vec::new(),
        utilization: None,
    };
    for rel in artifacts {
        let rel_name = rel.display().to_string();
        report.files += 1;
        let fresh_path = fresh_root.join(&rel);
        if !fresh_path.exists() {
            report.push(MetricVerdict {
                file: rel_name.clone(),
                chain: String::new(),
                scenario: String::new(),
                metric: "artifact".to_owned(),
                golden: None,
                fresh: None,
                lo: None,
                hi: None,
                verdict: VERDICT_REGRESSION.to_owned(),
                detail: "artifact present in golden tree but missing from fresh tree".to_owned(),
            });
            continue;
        }
        let golden = load_campaign(&golden_root.join(&rel))?;
        let fresh = load_campaign(&fresh_path)?;
        compare_campaigns(&mut report, &rel_name, &golden, &fresh, slack);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replicate::CellObservation;

    fn cell(chain: &str, scenario: &str, scores: &[Option<f64>]) -> ReplicatedCell {
        let observations: Vec<CellObservation> = scores
            .iter()
            .enumerate()
            .map(|(i, s)| CellObservation {
                seed: i as u64,
                score: *s,
                improved: false,
                commit_ratio: if s.is_some() { 0.99 } else { 0.0 },
                mean_latency: s.map(|x| x * 0.1),
            })
            .collect();
        ReplicatedCell::from_observations(chain, scenario, &observations, 42)
    }

    fn fresh_report(slack: f64) -> GateReport {
        GateReport {
            slack,
            files: 0,
            cells: 0,
            within: 0,
            suspect: 0,
            regressions: 0,
            verdicts: Vec::new(),
            utilization: None,
        }
    }

    #[test]
    fn identical_cells_are_within_ci() {
        let golden = cell(
            "Redbelly",
            "crash",
            &[Some(1.0), Some(1.1), Some(0.9), Some(1.05)],
        );
        let mut report = fresh_report(GATE_DEFAULT_SLACK);
        compare_cells(
            &mut report,
            "f_ci.json",
            &golden,
            &golden,
            GATE_DEFAULT_SLACK,
        );
        assert_eq!(report.regressions, 0, "{}", report.render());
        assert_eq!(report.suspect, 0);
        assert_eq!(report.within, 3);
        assert_eq!(report.worst(), VERDICT_WITHIN);
        assert!(report.passed());
    }

    #[test]
    fn large_shift_regresses() {
        let golden = cell(
            "Redbelly",
            "crash",
            &[Some(1.0), Some(1.1), Some(0.9), Some(1.05)],
        );
        let fresh = cell(
            "Redbelly",
            "crash",
            &[Some(9.0), Some(9.1), Some(8.9), Some(9.05)],
        );
        let mut report = fresh_report(GATE_DEFAULT_SLACK);
        compare_cells(
            &mut report,
            "f_ci.json",
            &golden,
            &fresh,
            GATE_DEFAULT_SLACK,
        );
        assert!(report.regressions > 0, "{}", report.render());
        assert_eq!(report.worst(), VERDICT_REGRESSION);
        assert!(!report.passed());
    }

    #[test]
    fn small_shift_is_suspect_not_regression() {
        let golden = cell(
            "Redbelly",
            "crash",
            &[Some(1.0), Some(1.2), Some(0.8), Some(1.0)],
        );
        // Golden score CI is roughly [0.9, 1.1]; shift the mean just past
        // the boundary but well inside the 3x band.
        let fresh = cell(
            "Redbelly",
            "crash",
            &[Some(1.15), Some(1.35), Some(0.95), Some(1.15)],
        );
        let mut report = fresh_report(GATE_DEFAULT_SLACK);
        compare_cells(
            &mut report,
            "f_ci.json",
            &golden,
            &fresh,
            GATE_DEFAULT_SLACK,
        );
        let score = report
            .verdicts
            .iter()
            .find(|v| v.metric == "score")
            .expect("score verdict");
        assert_eq!(score.verdict, VERDICT_SUSPECT, "{}", report.render());
        assert_eq!(report.regressions, 0);
        assert!(report.passed(), "suspects alone do not fail the gate");
    }

    #[test]
    fn liveness_count_mismatch_regresses() {
        let golden = cell("Solana", "partition", &[Some(1.0), Some(1.1), None, None]);
        let fresh = cell(
            "Solana",
            "partition",
            &[Some(1.0), Some(1.1), Some(1.0), None],
        );
        let mut report = fresh_report(GATE_DEFAULT_SLACK);
        compare_cells(
            &mut report,
            "f_ci.json",
            &golden,
            &fresh,
            GATE_DEFAULT_SLACK,
        );
        let liveness = report
            .verdicts
            .iter()
            .find(|v| v.metric == "liveness")
            .expect("liveness verdict");
        assert_eq!(liveness.verdict, VERDICT_REGRESSION);
    }

    #[test]
    fn both_infinite_score_is_within() {
        let golden = cell("Aptos", "transient", &[None, None]);
        let mut report = fresh_report(GATE_DEFAULT_SLACK);
        compare_cells(
            &mut report,
            "f_ci.json",
            &golden,
            &golden,
            GATE_DEFAULT_SLACK,
        );
        assert_eq!(report.regressions, 0, "{}", report.render());
    }

    #[test]
    fn missing_fresh_cell_regresses() {
        let golden_campaign = ReplicatedCampaign {
            base_seed: 42,
            replicates: 4,
            horizon_secs: 20,
            cells: vec![cell("Redbelly", "crash", &[Some(1.0), Some(1.1)])],
        };
        let fresh_campaign = ReplicatedCampaign {
            base_seed: 42,
            replicates: 4,
            horizon_secs: 20,
            cells: Vec::new(),
        };
        let mut report = fresh_report(GATE_DEFAULT_SLACK);
        compare_campaigns(
            &mut report,
            "f_ci.json",
            &golden_campaign,
            &fresh_campaign,
            GATE_DEFAULT_SLACK,
        );
        assert!(report.regressions > 0);
    }

    #[test]
    fn utilization_summary_folds_telemetry_and_renders() {
        let dir = std::env::temp_dir().join(format!("stabl-gate-util-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("fig3_sensitivity_ci_telemetry.json");
        std::fs::write(
            &path,
            r#"{
                "cells": [
                    {"label": "Redbelly/crash", "cached": false, "wall_ms": 120},
                    {"label": "Solana/crash", "cached": false, "wall_ms": 340},
                    {"label": "Aptos/crash", "cached": true, "wall_ms": 1}
                ],
                "cache_hits": 1,
                "executed": 2,
                "workers": 4,
                "wall_ms": 400,
                "utilization": 0.288125
            }"#,
        )
        .expect("write telemetry");
        let summary = load_utilization(&path).expect("load telemetry");
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(summary.workers, 4);
        assert_eq!(summary.cells, 3);
        assert_eq!(summary.cache_hits, 1);
        assert_eq!(summary.executed, 2);
        assert_eq!(summary.busy_ms, 461);
        assert_eq!(summary.slowest_cell.as_deref(), Some("Solana/crash"));
        assert_eq!(summary.slowest_wall_ms, Some(340));

        let mut report = fresh_report(GATE_DEFAULT_SLACK);
        assert!(!report.render().contains("pool:"));
        report.utilization = Some(summary);
        let rendered = report.render();
        assert!(
            rendered.contains("pool: 4 workers, 3 cells (2 executed, 1 cached)"),
            "{rendered}"
        );
        assert!(
            rendered.contains("utilization 28.8%") && rendered.contains("Solana/crash (340 ms)"),
            "{rendered}"
        );

        // The summary survives the BENCH_stats.json round trip, and a
        // report written before the field existed still parses.
        let json = serde_json::to_string(&report).expect("serialise");
        let back: GateReport = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(report, back);
        let legacy: GateReport = serde_json::from_str(
            r#"{"slack": 3.0, "files": 0, "cells": 0, "within": 0,
                "suspect": 0, "regressions": 0, "verdicts": []}"#,
        )
        .expect("legacy report parses");
        assert_eq!(legacy.utilization, None);
    }

    #[test]
    fn classify_bands() {
        let ci = ConfidenceInterval {
            point: 1.0,
            lo: 0.9,
            hi: 1.1,
            n: 8,
        };
        assert_eq!(classify(&ci, 1.0, 3.0), VERDICT_WITHIN);
        assert_eq!(
            classify(&ci, 0.9, 3.0),
            VERDICT_WITHIN,
            "endpoints included"
        );
        assert_eq!(classify(&ci, 1.2, 3.0), VERDICT_SUSPECT);
        assert_eq!(classify(&ci, 2.0, 3.0), VERDICT_REGRESSION);
        // Zero-width interval (identical replicates): epsilon pad keeps
        // the exact replay within.
        let point = ConfidenceInterval {
            point: 3.0,
            lo: 3.0,
            hi: 3.0,
            n: 8,
        };
        assert_eq!(classify(&point, 3.0, 3.0), VERDICT_WITHIN);
        assert_eq!(classify(&point, 3.1, 3.0), VERDICT_REGRESSION);
    }
}
