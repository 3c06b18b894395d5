//! End-to-end fixture test for the regression gate: build two artifact
//! trees on disk, perturb one metric beyond its golden CI, and check
//! the gate classifies it as a regression (the acceptance criterion
//! behind the non-zero CI exit code).

#![expect(
    clippy::expect_used,
    reason = "fixture helpers outside #[test] fns fail the test by panicking"
)]

use std::fs;
use std::path::{Path, PathBuf};

use stabl_stats::gate::{compare_trees, GATE_DEFAULT_SLACK, VERDICT_REGRESSION};
use stabl_stats::{CellObservation, ReplicatedCampaign, ReplicatedCell};

/// A unique scratch directory per test, cleaned up on drop.
struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let root =
            std::env::temp_dir().join(format!("stabl-stats-gate-{}-{tag}", std::process::id()));
        // A stale tree from a crashed run would poison the fixture.
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("create scratch dir");
        Scratch { root }
    }

    fn path(&self) -> &Path {
        &self.root
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn observation(seed: u64, score: f64) -> CellObservation {
    CellObservation {
        seed,
        score: Some(score),
        improved: false,
        commit_ratio: 0.99,
        mean_latency: Some(score * 0.1),
    }
}

fn campaign(score_base: f64) -> ReplicatedCampaign {
    let cells = ["crash", "transient"]
        .iter()
        .map(|scenario| {
            let observations: Vec<CellObservation> = (0..8)
                .map(|i| observation(i, score_base + i as f64 * 0.01))
                .collect();
            ReplicatedCell::from_observations("Redbelly", scenario, &observations, 42)
        })
        .collect();
    ReplicatedCampaign {
        base_seed: 42,
        replicates: 8,
        horizon_secs: 20,
        cells,
    }
}

fn write_tree(root: &Path, campaign: &ReplicatedCampaign) {
    let dir = root.join("stats");
    fs::create_dir_all(&dir).expect("create artifact dir");
    let json = serde_json::to_string_pretty(campaign).expect("serialise campaign");
    fs::write(dir.join("fig3_sensitivity_ci.json"), json).expect("write artifact");
}

#[test]
fn identical_trees_pass_the_gate() {
    let golden = Scratch::new("identical-golden");
    let fresh = Scratch::new("identical-fresh");
    let c = campaign(1.0);
    write_tree(golden.path(), &c);
    write_tree(fresh.path(), &c);

    let report = compare_trees(golden.path(), fresh.path(), GATE_DEFAULT_SLACK).expect("gate runs");
    assert_eq!(report.regressions, 0, "{}", report.render());
    assert_eq!(report.suspect, 0);
    assert!(report.passed());
    assert_eq!(report.files, 1);
    assert_eq!(report.cells, 2);
}

#[test]
fn perturbed_metric_beyond_ci_regresses() {
    let golden = Scratch::new("perturbed-golden");
    let fresh = Scratch::new("perturbed-fresh");
    write_tree(golden.path(), &campaign(1.0));
    // The golden score CI spans a few hundredths around 1.035; a 5x
    // shift is far beyond even the slack-widened band.
    write_tree(fresh.path(), &campaign(5.0));

    let report = compare_trees(golden.path(), fresh.path(), GATE_DEFAULT_SLACK).expect("gate runs");
    assert!(report.regressions > 0, "{}", report.render());
    assert!(!report.passed(), "gate must fail → binary exits non-zero");
    let regressed: Vec<&str> = report
        .verdicts
        .iter()
        .filter(|v| v.verdict == VERDICT_REGRESSION)
        .map(|v| v.metric.as_str())
        .collect();
    assert!(regressed.contains(&"score"), "{regressed:?}");
}

#[test]
fn missing_fresh_artifact_regresses() {
    let golden = Scratch::new("missing-golden");
    let fresh = Scratch::new("missing-fresh");
    write_tree(golden.path(), &campaign(1.0));
    fs::create_dir_all(fresh.path().join("stats")).expect("create empty fresh tree");

    let report = compare_trees(golden.path(), fresh.path(), GATE_DEFAULT_SLACK).expect("gate runs");
    assert!(report.regressions > 0);
    assert!(report
        .verdicts
        .iter()
        .any(|v| v.metric == "artifact" && v.verdict == VERDICT_REGRESSION));
}

#[test]
fn empty_golden_tree_is_an_error() {
    let golden = Scratch::new("empty-golden");
    let fresh = Scratch::new("empty-fresh");
    fs::create_dir_all(fresh.path()).expect("fresh dir");

    let err = compare_trees(golden.path(), fresh.path(), GATE_DEFAULT_SLACK)
        .expect_err("no artifacts must be an error, not a silent pass");
    assert!(err.to_string().contains("no *_ci.json"), "{err}");
}
