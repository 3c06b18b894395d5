//! The benchmark's workloads as explicit cell lists, and the output
//! check every run applies to them.
//!
//! All three use `PaperSetup::quick(120, seed)`: 10 validators, LAN
//! latency, the fault at 40 s and recovery at 80 s.

use std::panic::{catch_unwind, AssertUnwindSafe};

use stabl::{
    report_from_runs, Chain, FaultAction, FaultSchedule, FaultWindow, LinkFault, PaperSetup,
    RetryPolicy, RunConfig, RunResult, ScenarioKind, TrafficModel, WorkloadSpec,
};
use stabl_bench::engine::campaign_cells;
use stabl_bench::Job;
use stabl_sim::{ByzantineBehavior, ByzantineSpec, NodeId, SimDuration};
use stabl_types::Sha256;

/// Simulated seconds per cell: the `PaperSetup::quick` horizon.
pub const HORIZON_SECS: u64 = 120;

/// The default seed, `PaperSetup`'s master seed.
pub const DEFAULT_SEED: u64 = 0xB10C_7357;

/// `<workload> <cell label> <sha256 of the serialised RunResult>` for
/// every cell at [`DEFAULT_SEED`], recorded with `--print-digests`.
const EXPECTED_DIGESTS: &str = include_str!("../expected_digests.txt");

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 30-cell fig. 3 campaign.
    Fig3,
    /// Baseline and crash under θ = 1.1, burst-16 production traffic.
    Contention,
    /// Baseline and the composed chaos schedule with retrying clients.
    Chaos,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Fig3, Workload::Contention, Workload::Chaos];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig3 => "fig3",
            Workload::Contention => "contention",
            Workload::Chaos => "chaos",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's cells for `setup`, in campaign order.
    pub fn cells(self, setup: &PaperSetup) -> Vec<Cell> {
        match self {
            Workload::Fig3 => fig3_cells(setup),
            Workload::Contention => contention_cells(setup),
            Workload::Chaos => chaos_cells(setup),
        }
    }
}

/// One campaign cell: a chain run the engine schedules as one job.
#[derive(Clone, Debug)]
pub struct Cell {
    /// The engine's display label, also the digest-table key.
    pub label: String,
    /// The evaluated chain.
    pub chain: Chain,
    /// The run's configuration.
    pub config: RunConfig,
    /// CPU-scaling factor (2.0 for the secure-client hardware).
    pub cores: f64,
    /// The scenario this cell is reported under.
    pub kind: ScenarioKind,
    /// Index of the baseline cell an altered cell is scored against;
    /// `None` for baselines.
    pub baseline: Option<usize>,
}

impl Cell {
    /// Runs the cell exactly as its engine job does.
    pub fn run(&self) -> RunResult {
        self.chain.run_with_cpu(&self.config, self.cores)
    }

    /// Runs the cell, returning `None` if it panicked.
    pub fn run_guarded(&self) -> Option<RunResult> {
        catch_unwind(AssertUnwindSafe(|| self.run())).ok()
    }

    /// The engine job a user's campaign schedules for this cell.
    pub fn job(&self) -> Job {
        Job::config_with_cpu(
            self.label.clone(),
            self.chain,
            self.config.clone(),
            self.cores,
        )
    }
}

/// The campaign set-up every workload shares.
pub fn paper_setup(seed: u64) -> PaperSetup {
    PaperSetup::quick(HORIZON_SECS, seed)
}

fn fig3_cells(setup: &PaperSetup) -> Vec<Cell> {
    let matrix = campaign_cells();
    let baseline_of = |chain: Chain, cores: f64| {
        matrix
            .iter()
            .position(|c| c.chain == chain && c.kind == ScenarioKind::Baseline && c.cores == cores)
            .expect("every chain has both baselines")
    };
    matrix
        .iter()
        .map(|c| Cell {
            label: c.job(setup).label().to_owned(),
            chain: c.chain,
            config: setup.run_config(c.chain, c.kind),
            cores: c.cores,
            kind: c.kind,
            baseline: (c.kind != ScenarioKind::Baseline).then(|| baseline_of(c.chain, c.cores)),
        })
        .collect()
}

/// Baseline then altered for every chain, under one shared config
/// transformation.
fn paired_cells(
    setup: &PaperSetup,
    tag: &str,
    altered_name: &str,
    altered_kind: ScenarioKind,
    mut adapt: impl FnMut(&mut RunConfig, bool),
) -> Vec<Cell> {
    let mut cells = Vec::new();
    for chain in Chain::ALL {
        let mut baseline = setup.run_config(chain, ScenarioKind::Baseline);
        adapt(&mut baseline, false);
        let mut altered = setup.run_config(chain, altered_kind);
        adapt(&mut altered, true);
        let base_index = cells.len();
        cells.push(Cell {
            label: format!("{}{tag}/baseline", chain.name()),
            chain,
            config: baseline,
            cores: 1.0,
            kind: ScenarioKind::Baseline,
            baseline: None,
        });
        cells.push(Cell {
            label: format!("{}{tag}/{altered_name}", chain.name()),
            chain,
            config: altered,
            cores: 1.0,
            // The chaos campaign reports under the crash kind, as
            // `ext_chaos` does.
            kind: ScenarioKind::Crash,
            baseline: Some(base_index),
        });
    }
    cells
}

/// The θ = 1.1, burst-16 corner of `ext_contention`: both cells of a
/// chain run the same production workload, the altered one crashes
/// `t_B` nodes.
fn contention_cells(setup: &PaperSetup) -> Vec<Cell> {
    let workload = WorkloadSpec::production(setup.submit_until, TrafficModel::production(1100, 16));
    let tag = "/theta1100/burst16";
    paired_cells(setup, tag, "crash", ScenarioKind::Crash, |config, _| {
        config.workload = workload.clone();
    })
}

/// The `ext_chaos` schedule rebuilt from the public API: 5 % loss,
/// duplication and reordering on every link, a flapping inbound cut on
/// node 8, +200 ms on node 7, node 9 equivocating, retrying clients.
fn chaos_cells(setup: &PaperSetup) -> Vec<Cell> {
    let window = FaultWindow::new(setup.fault_at, setup.recover_at);
    let (equivocator, flap_target, slow_node) = (NodeId::new(9), NodeId::new(8), NodeId::new(7));
    let degrade = LinkFault::all()
        .with_drop(0.05)
        .with_duplicate(0.05)
        .with_reorder(0.05, SimDuration::from_millis(30));
    let inbound_cut = LinkFault::from_parts(
        None,
        Some(vec![flap_target]),
        1.0,
        0.0,
        0.0,
        SimDuration::ZERO,
    );
    let (flap_early, flap_late) = (window.slice(1, 4), window.slice(3, 4));
    let schedule = FaultSchedule::link_degrade(degrade, window.at, window.until)
        .and(FaultAction::LinkDegrade {
            fault: inbound_cut.clone(),
            at: flap_early.at,
            until: flap_early.until,
        })
        .and(FaultAction::LinkDegrade {
            fault: inbound_cut,
            at: flap_late.at,
            until: flap_late.until,
        })
        .and(FaultAction::Slowdown {
            nodes: vec![slow_node],
            extra: SimDuration::from_millis(200),
            at: window.at,
            until: window.until,
        });
    let timeout = SimDuration::from_micros((setup.horizon.as_micros() / 40).max(1_000_000));
    let retry = RetryPolicy {
        timeout,
        max_retries: 3,
        backoff_base: timeout / 4,
        backoff_factor_permille: 2000,
        backoff_cap: timeout,
    };
    paired_cells(
        setup,
        "",
        "chaos",
        ScenarioKind::Baseline,
        |config, altered| {
            if altered {
                config.faults = schedule.clone();
                config.byzantine = ByzantineSpec::new([equivocator], ByzantineBehavior::Equivocate);
                config.retry = Some(retry);
            }
        },
    )
}

/// The workload's sensitivity reports, as the campaign binaries build
/// them from finished cells.
pub fn reports(cells: &[Cell], results: &[RunResult]) -> Vec<stabl::report::ScenarioReport> {
    cells
        .iter()
        .zip(results)
        .filter_map(|(cell, altered)| {
            let baseline = &results[cell.baseline?];
            Some(report_from_runs(cell.chain, cell.kind, baseline, altered))
        })
        .collect()
}

/// SHA-256 of a result's serialised form: the cell's output identity.
pub fn digest(result: &RunResult) -> String {
    let json = serde_json::to_string(result).expect("a RunResult always serialises");
    let mut hasher = Sha256::new();
    hasher.update(json.as_bytes());
    hasher.finalize().to_string()
}

/// The recorded digest of a cell at [`DEFAULT_SEED`].
fn expected_digest(workload: Workload, label: &str) -> Option<&'static str> {
    EXPECTED_DIGESTS.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        let matches = fields.next() == Some(workload.name()) && fields.next() == Some(label);
        matches.then(|| fields.next()).flatten()
    })
}

/// A cell's output as the check sees it: its digest, or `None` if the
/// cell panicked.
pub type Outcome = Option<String>;

/// Counts a campaign's cells whose output is wrong.
///
/// At [`DEFAULT_SEED`] every digest must match the recorded table. At
/// any other seed there is no table, so outputs must repeat: against
/// `reference` (an earlier campaign of the same run) when given, and
/// for one seed-chosen cell against a fresh re-run of it.
pub fn failed_cells(
    workload: Workload,
    seed: u64,
    cells: &[Cell],
    outcomes: &[Outcome],
    reference: Option<&[Outcome]>,
) -> u64 {
    let rerun = (seed != DEFAULT_SEED && reference.is_none()).then(|| {
        let index = (seed % cells.len() as u64) as usize;
        (index, cells[index].run_guarded().map(|r| digest(&r)))
    });
    cells
        .iter()
        .zip(outcomes)
        .enumerate()
        .filter(|(i, (cell, outcome))| {
            let Some(got) = outcome else { return true };
            let wrong = if seed == DEFAULT_SEED {
                expected_digest(workload, &cell.label) != Some(got.as_str())
            } else {
                reference.is_some_and(|r| r[*i].as_ref() != Some(got))
            };
            let unrepeatable = rerun
                .as_ref()
                .is_some_and(|(index, again)| index == i && again.as_ref() != Some(got));
            if wrong || unrepeatable {
                eprintln!("check: {}/{} output is wrong", workload.name(), cell.label);
            }
            wrong || unrepeatable
        })
        .count() as u64
}
