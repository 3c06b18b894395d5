//! `stabl-stats` CLI: the statistical regression gate.
//!
//! ```text
//! stabl-stats gate --golden DIR --fresh DIR [--slack FACTOR] [--out FILE]
//!                  [--telemetry FILE]
//! ```
//!
//! Diffs every `*_ci.json` replicated-campaign artifact under the
//! golden tree against the file at the same relative path under the
//! fresh tree, prints the human verdict table, and (with `--out`)
//! writes the machine-readable `BENCH_stats.json` gate report.
//!
//! With `--telemetry` the fresh run's `*_telemetry.json` wall-clock
//! sidecar is folded into the report as a worker-pool utilisation
//! summary — informational only, it never moves the verdict.
//!
//! Exit codes: 0 clean (within-CI and suspects only), 1 at least one
//! regression, 2 usage or I/O error.

use std::path::PathBuf;
use std::process;

use stabl_stats::gate::{compare_trees, load_utilization, GATE_DEFAULT_SLACK};

struct Args {
    golden: PathBuf,
    fresh: PathBuf,
    slack: f64,
    out: Option<PathBuf>,
    telemetry: Option<PathBuf>,
}

const USAGE: &str = "stabl-stats gate --golden DIR --fresh DIR [--slack FACTOR] [--out FILE] \
                     [--telemetry FILE]";

/// Parses the command line; `Ok(None)` means `--help` was asked for.
fn parse_args() -> Result<Option<Args>, String> {
    let mut it = std::env::args().skip(1);
    match it.next().as_deref() {
        Some("gate") => {}
        Some("--help") | Some("-h") => return Ok(None),
        other => return Err(format!("expected the `gate` subcommand, got {other:?}")),
    }
    let mut golden = None;
    let mut fresh = None;
    let mut slack = GATE_DEFAULT_SLACK;
    let mut out = None;
    let mut telemetry = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--golden" => {
                golden = Some(PathBuf::from(
                    it.next().ok_or("--golden needs a directory")?,
                ))
            }
            "--fresh" => fresh = Some(PathBuf::from(it.next().ok_or("--fresh needs a directory")?)),
            "--slack" => {
                let raw = it.next().ok_or("--slack needs a factor")?;
                slack = raw
                    .parse::<f64>()
                    .map_err(|_| format!("--slack expects a number, got `{raw}`"))?;
                if !slack.is_finite() || slack < 1.0 {
                    return Err(format!("--slack must be a finite factor >= 1, got {slack}"));
                }
            }
            "--out" => out = Some(PathBuf::from(it.next().ok_or("--out needs a file")?)),
            "--telemetry" => {
                telemetry = Some(PathBuf::from(it.next().ok_or("--telemetry needs a file")?))
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(Args {
        golden: golden.ok_or("--golden is required")?,
        fresh: fresh.ok_or("--fresh is required")?,
        slack,
        out,
        telemetry,
    }))
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(msg) => {
            eprintln!("stabl-stats: {msg}");
            eprintln!("usage: {USAGE}");
            process::exit(2);
        }
    };

    let mut report = match compare_trees(&args.golden, &args.fresh, args.slack) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("stabl-stats: {e}");
            process::exit(2);
        }
    };

    if let Some(telemetry) = &args.telemetry {
        match load_utilization(telemetry) {
            Ok(summary) => report.utilization = Some(summary),
            Err(e) => {
                eprintln!("stabl-stats: {e}");
                process::exit(2);
            }
        }
    }

    print!("{}", report.render());

    if let Some(out) = &args.out {
        let json = match serde_json::to_string_pretty(&report) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("stabl-stats: cannot serialise gate report: {e}");
                process::exit(2);
            }
        };
        if let Err(e) = std::fs::write(out, json + "\n") {
            eprintln!("stabl-stats: cannot write {}: {e}", out.display());
            process::exit(2);
        }
        println!("wrote {}", out.display());
    }

    if !report.passed() {
        process::exit(1);
    }
}
