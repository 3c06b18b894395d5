//! # stabl-bench — the figure-regeneration harness
//!
//! One binary per figure of the paper:
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `fig1_aptos_ecdf` | Fig. 1 — Aptos latency eCDFs, baseline vs failures |
//! | `fig3_sensitivity` | Fig. 3a–d — sensitivity scores of the 5 chains per fault type |
//! | `fig3_sensitivity_ci` | Fig. 3 replicated over N seeds with 95 % bootstrap CIs |
//! | `fig4_throughput_crash` | Fig. 4 — throughput over time under `f = t` crashes |
//! | `fig5_throughput_transient` | Fig. 5 — throughput over time under transient failures |
//! | `fig6_throughput_partition` | Fig. 6 — throughput over time under a partition |
//! | `fig7_radar` | Fig. 7 — the radar synthesis of all sensitivities |
//!
//! Extension binaries (`ext_*`) go beyond the paper; notably
//! `ext_chaos` scores every chain under a *composed* adversity
//! schedule — message loss, a flapping asymmetric partition, a slow
//! node and an equivocating Byzantine node — with retrying clients,
//! and `ext_adversary` *searches* the fault-schedule space for each
//! chain's worst case (see the [`adversary`] bridge module) and
//! commits shrunk reproducers under `results/adversary/corpus/`.
//!
//! Every binary accepts:
//!
//! * `--quick <secs>` — scale the 400 s campaign down (useful: 100–150);
//! * `--seed <u64>` — change the master seed;
//! * `--out <dir>` — where JSON/CSV artefacts go (default `results/`);
//! * `--jobs <n>` — worker threads for the campaign [`engine`] (default:
//!   all hardware threads);
//! * `--no-cache` — recompute every cell instead of replaying the
//!   content-addressed cache under `<out>/.cache/`;
//! * `--replicates <n>` — seeds per cell for replicated campaigns (only
//!   the `*_ci` binaries read it; default 8).
//!
//! All runs go through the campaign [`engine`]: cells execute
//! concurrently and memoise their results, but artefacts are assembled
//! in deterministic chain/scenario order and are byte-identical
//! whatever the `--jobs`/cache settings.

pub mod adversary;
pub mod engine;
#[cfg(test)]
mod fingerprint;
pub mod replicate;
pub mod speed_bench;

use std::fs;
use std::path::{Path, PathBuf};

pub use adversary::{paper_worst, replicate_ci, EngineEval};
pub use engine::{
    run_campaign, run_campaign_with_telemetry, run_part, CampaignCell, CellTelemetry, Engine,
    EngineTelemetry, Job,
};
pub use replicate::{
    replication_table, run_replicated_campaign, run_replicated_campaign_with_telemetry,
    DEFAULT_REPLICATES,
};

use stabl::report::{RadarRow, ScenarioReport, SensitivityRecord};
use stabl::{Chain, PaperSetup, RunResult, ScenarioKind};

/// Command-line options shared by all figure binaries.
#[derive(Clone, Debug)]
pub struct BenchOpts {
    /// The experimental campaign parameters.
    pub setup: PaperSetup,
    /// Output directory for artefacts.
    pub out_dir: PathBuf,
    /// Worker threads for the campaign engine.
    pub jobs: usize,
    /// Skip the on-disk run cache and recompute every cell.
    pub no_cache: bool,
    /// Seeds per cell for replicated campaigns (`--replicates`); `None`
    /// leaves the binary's default in force.
    pub replicates: Option<usize>,
}

impl BenchOpts {
    /// Parses `std::env::args()`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn from_args() -> BenchOpts {
        let mut setup = PaperSetup::default();
        let mut out_dir = PathBuf::from("results");
        let mut args = std::env::args().skip(1);
        let mut quick: Option<u64> = None;
        let mut seed: Option<u64> = None;
        let mut jobs = Engine::default_workers();
        let mut no_cache = false;
        let mut replicates: Option<usize> = None;
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => {
                    let secs = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--quick takes seconds");
                    quick = Some(secs);
                }
                "--seed" => {
                    seed = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .expect("--seed takes a u64"),
                    );
                }
                "--out" => {
                    out_dir = PathBuf::from(args.next().expect("--out takes a directory"));
                }
                "--jobs" => {
                    jobs = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &usize| n > 0)
                        .expect("--jobs takes a positive thread count");
                }
                "--no-cache" => no_cache = true,
                "--replicates" => {
                    replicates = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n: &usize| n > 0)
                            .expect("--replicates takes a positive seed count"),
                    );
                }
                other => panic!(
                    "unknown argument {other}; known: --quick --seed --out --jobs \
                     --no-cache --replicates"
                ),
            }
        }
        if let Some(secs) = quick {
            setup = PaperSetup::quick(secs, seed.unwrap_or(setup.seed));
        } else if let Some(seed) = seed {
            setup.seed = seed;
        }
        BenchOpts {
            setup,
            out_dir,
            jobs,
            no_cache,
            replicates,
        }
    }

    /// The campaign engine these options describe: `--jobs` workers,
    /// memoising into `<out>/.cache/` unless `--no-cache` was given.
    pub fn engine(&self) -> Engine {
        let cache_dir = if self.no_cache {
            None
        } else {
            Some(self.out_dir.join(".cache"))
        };
        Engine::new(self.jobs, cache_dir)
    }

    /// Writes a serialisable artefact as pretty JSON under the output
    /// directory.
    ///
    /// # Panics
    ///
    /// Panics on I/O failure (benchmark binaries fail loudly).
    pub fn write_json<T: serde::Serialize>(&self, name: &str, value: &T) {
        fs::create_dir_all(&self.out_dir).expect("create output directory");
        let path = self.out_dir.join(name);
        let json = serde_json::to_string_pretty(value).expect("serialise artefact");
        fs::write(&path, json).expect("write artefact");
        eprintln!("wrote {}", path.display());
    }

    /// Writes raw text (CSV) under the output directory.
    ///
    /// # Panics
    ///
    /// Panics on I/O failure.
    pub fn write_text(&self, name: &str, contents: &str) {
        fs::create_dir_all(&self.out_dir).expect("create output directory");
        let path: &Path = &self.out_dir.join(name);
        fs::write(path, contents).expect("write artefact");
        eprintln!("wrote {}", path.display());
    }
}

/// Folds campaign reports into Fig. 7's radar rows.
pub fn radar_rows(reports: &[ScenarioReport]) -> Vec<RadarRow> {
    Chain::ALL
        .iter()
        .map(|&chain| {
            let pick = |kind: ScenarioKind| -> SensitivityRecord {
                reports
                    .iter()
                    .find(|r| r.chain == chain && r.kind == kind)
                    .map(|r| r.sensitivity.into())
                    .unwrap_or(SensitivityRecord {
                        score: None,
                        improved: false,
                    })
            };
            RadarRow {
                chain: chain.name().to_owned(),
                crash: pick(ScenarioKind::Crash),
                transient: pick(ScenarioKind::Transient),
                partition: pick(ScenarioKind::Partition),
                secure_client: pick(ScenarioKind::SecureClient),
            }
        })
        .collect()
}

/// Renders two throughput series as a CSV: `second,baseline,altered`.
pub fn throughput_csv(baseline: &RunResult, altered: &RunResult) -> String {
    let b = baseline.throughput();
    let a = altered.throughput();
    let mut out = String::from("second,baseline_tps,altered_tps\n");
    for (i, (bb, aa)) in b.bins().iter().zip(a.bins().iter()).enumerate() {
        out.push_str(&format!("{i},{bb},{aa}\n"));
    }
    out
}

/// Formats a sensitivity table (one part of Fig. 3) with ASCII bars.
pub fn sensitivity_table(title: &str, reports: &[ScenarioReport]) -> String {
    let mut out = format!("{title}\n{}\n", "─".repeat(title.chars().count()));
    let max = reports
        .iter()
        .filter_map(|r| r.sensitivity.score())
        .fold(0.0f64, f64::max)
        .max(1e-9);
    for report in reports {
        let record: SensitivityRecord = report.sensitivity.into();
        out.push_str(&format!(
            "{:<10} {}\n",
            report.chain.name(),
            stabl::report::ascii_bar(record, max, 40)
        ));
    }
    out
}
