//! The traced run: per-layer metrics timed from outside, around calls
//! into each layer's public functions.
//!
//! * engine — `Engine::new`, a cold campaign, a cache-write pass and a
//!   warm-cache replay;
//! * workload — `WorkloadSpec::generate_seeded`;
//! * sim — an outside replay of every cell with `SimBuilder::build`,
//!   `FaultSchedule::schedule`, `schedule_request` and `run_until`
//!   sliced at the fault and recovery marks, plus the `Chatty` kernel
//!   floor;
//! * harness — `Chain::run_with_cpu`, whose self time is its run time
//!   minus the workload and replay time of the same cell;
//! * metrics — `report_from_runs`.
//!
//! The replay must reproduce the cell's `SimStats` exactly. Cells it
//! cannot rebuild (retrying clients) or does not reproduce are left out
//! of the sim/harness split rather than estimated.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use stabl::{Chain, RunResult, Submission};
use stabl_algorand::{AlgorandConfig, AlgorandNode};
use stabl_aptos::{AptosConfig, AptosNode};
use stabl_avalanche::{AvalancheConfig, AvalancheNode};
use stabl_bench::speed_bench::Chatty;
use stabl_bench::{Engine, Job};
use stabl_redbelly::{RedbellyConfig, RedbellyNode};
use stabl_sim::{
    ByzConfig, ByzantineWrapper, DetRng, Protocol, SimBuilder, SimStats, SimTime, Simulation,
};
use stabl_solana::{SolanaConfig, SolanaNode};
use stabl_types::{Transaction, TxId};

use crate::probe::count_allocs;
use crate::workloads::{self, Cell, Outcome, Workload};
use crate::{median, Metric, Report, WorkDir};

/// The seed the harness derives its client-link RNG from; the replay
/// must draw the same client delays.
const CLIENT_RNG_SALT: u64 = 0xC11E_17DE_1A75_0000;

/// What one cell cost in the harness (`Chain::run_with_cpu`).
struct HarnessCost {
    time: Duration,
    allocs: u64,
}

/// One cell's outside replay: set-up, then the run sliced at the fault
/// and recovery marks.
struct Replay {
    stats: SimStats,
    setup: Duration,
    phases: [Duration; 3],
    setup_allocs: u64,
    run_allocs: u64,
}

impl Replay {
    fn run_time(&self) -> Duration {
        self.phases.iter().sum()
    }
}

/// Per-cell measurements of the traced run.
struct CellCost {
    chain: Chain,
    harness: HarnessCost,
    committed: u64,
    generate: Duration,
    generate_allocs: u64,
    submissions: u64,
    /// `None` when the replay is unavailable or did not reproduce the
    /// cell's `SimStats`: the cell is then left out of the split.
    replay: Option<Replay>,
}

/// Runs the traced pass of `workload` and reports every per-layer
/// metric.
pub fn run(workload: Workload, seed: u64, work: &WorkDir) -> Report {
    let setup = workloads::paper_setup(seed);
    let cells = workload.cells(&setup);
    let mut metrics = Vec::new();

    // engine.new_ms: `Engine::new` resolves the code version with `git
    // describe`, once per campaign.
    let cold_dir = work.clear("cold");
    let new_samples: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            let engine = Engine::new(1, Some(cold_dir.clone()));
            let ms = ms(started.elapsed());
            drop(engine);
            ms
        })
        .collect();
    metrics.push(Metric::new("engine.new_ms", median(&new_samples), "ms"));

    // The cold campaign: the user's jobs, one worker, an empty cache.
    let engine = Engine::new(1, Some(cold_dir.clone()));
    let campaign = catch_unwind(AssertUnwindSafe(|| {
        engine.run_with_telemetry(cells.iter().map(Cell::job).collect())
    }));
    let Ok((results, telemetry)) = campaign else {
        // A panicking cell takes the campaign, and every layer's
        // numbers, down with it.
        return Report {
            correct: false,
            attempted: cells.len() as u64,
            failed: cells.len() as u64,
            metrics,
        };
    };
    let outcomes: Vec<Outcome> = results.iter().map(|r| Some(workloads::digest(r))).collect();
    let mut failed = workloads::failed_cells(workload, seed, &cells, &outcomes, None);

    let cell_ms: Vec<f64> = telemetry.cells.iter().map(|c| c.wall_ms as f64).collect();
    metrics.push(Metric::new("engine.cell_ms.p50", median(&cell_ms), "ms"));
    metrics.push(Metric::new(
        "engine.cell_ms.max",
        cell_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    ));

    // Per cell, back to back so all three see the same machine: the
    // harness run, the workload generated on its own, then the replay.
    let mut cell_costs = Vec::with_capacity(cells.len());
    let (mut unavailable, mut mismatches) = (0, 0);
    for ((cell, result), outcome) in cells.iter().zip(&results).zip(&outcomes) {
        let started = Instant::now();
        let (again, allocs) = count_allocs(|| cell.run());
        let harness = HarnessCost {
            time: started.elapsed(),
            allocs,
        };
        if outcome.as_deref() != Some(workloads::digest(&again).as_str()) {
            eprintln!("check: {} did not repeat its output", cell.label);
            failed += 1;
        }
        let started = Instant::now();
        let (submissions, generate_allocs) =
            count_allocs(|| cell.config.workload.generate_seeded(cell.config.seed));
        let generate = started.elapsed();
        let replay = if cell.config.retry.is_some() {
            unavailable += 1;
            None
        } else {
            let marks = [setup.fault_at, setup.recover_at, cell.config.horizon];
            let replay = replay(cell, &submissions, marks);
            let matches = replay.stats == result.stats;
            if !matches {
                eprintln!("replay: {} did not reproduce its SimStats", cell.label);
                mismatches += 1;
            }
            matches.then_some(replay)
        };
        cell_costs.push(CellCost {
            chain: cell.chain,
            harness,
            committed: result.latencies.len() as u64,
            generate,
            generate_allocs,
            submissions: submissions.len() as u64,
            replay,
        });
    }
    if unavailable > 0 {
        eprintln!("replay: sim/harness split unavailable for {unavailable} retrying cell(s)");
    }
    let split: Vec<(&CellCost, &Replay)> = cell_costs
        .iter()
        .filter_map(|cost| Some((cost, cost.replay.as_ref()?)))
        .collect();

    workload_metrics(&cell_costs, &mut metrics);
    sim_metrics(&split, &results, mismatches, &mut metrics);
    metrics.push(Metric::new(
        "kernel.ns_per_event",
        kernel_ns_per_event(seed),
        "ns/event",
    ));
    net_metrics(&results, &mut metrics);
    harness_metrics(&cell_costs, &split, &results, &mut metrics);

    // metrics: the sensitivity reports of the campaign.
    let started = Instant::now();
    let (reports, report_allocs) = count_allocs(|| workloads::reports(&cells, &results));
    metrics.push(Metric::new(
        "metrics.report_ms",
        ms(started.elapsed()),
        "ms",
    ));
    metrics.push(Metric::new("metrics.allocs", report_allocs as f64, "count"));
    drop(reports);

    // Cache write: hand the engine the finished results again, into a
    // fresh cache, so it only probes, clones and stores.
    let write_dir = work.clear("write");
    let store_jobs = cells
        .iter()
        .zip(&results)
        .map(|(cell, result)| {
            let result = result.clone();
            Job::new(
                cell.label.clone(),
                cell.job().material().to_owned(),
                move || result.clone(),
            )
        })
        .collect();
    let store_engine = Engine::new(1, Some(write_dir.clone()));
    let started = Instant::now();
    store_engine.run_with_telemetry(store_jobs);
    metrics.push(Metric::new(
        "engine.cache_write_ms",
        ms(started.elapsed()),
        "ms",
    ));
    metrics.push(Metric::new(
        "engine.cache_bytes",
        dir_bytes(&cold_dir) as f64,
        "bytes",
    ));

    // Warm-cache pass: the user's jobs replayed from the cold cache.
    let started = Instant::now();
    let (warm, warm_telemetry) = engine.run_with_telemetry(cells.iter().map(Cell::job).collect());
    metrics.push(Metric::new(
        "engine.cache_read_ms",
        ms(started.elapsed()),
        "ms",
    ));
    let warm_wrong = warm
        .iter()
        .zip(&outcomes)
        .filter(|(result, outcome)| outcome.as_deref() != Some(workloads::digest(result).as_str()))
        .count() as u64;
    if warm_telemetry.cache_hits != cells.len() as u64 || warm_wrong > 0 {
        eprintln!(
            "check: warm replay served {} of {} cells from the cache, {warm_wrong} changed",
            warm_telemetry.cache_hits,
            cells.len()
        );
        failed += warm_wrong.max(1);
    }

    metrics.sort_by(|a, b| a.name.cmp(&b.name));
    Report {
        correct: failed == 0,
        // Each cell is checked three times: cold, re-run and warm.
        attempted: 3 * cells.len() as u64,
        failed,
        metrics,
    }
}

fn workload_metrics(costs: &[CellCost], metrics: &mut Vec<Metric>) {
    let generate: Duration = costs.iter().map(|c| c.generate).sum();
    let submissions: u64 = costs.iter().map(|c| c.submissions).sum();
    let allocs: u64 = costs.iter().map(|c| c.generate_allocs).sum();
    metrics.push(Metric::new("workload.generate_ms", ms(generate), "ms"));
    metrics.push(Metric::new(
        "workload.submissions",
        submissions as f64,
        "count",
    ));
    metrics.push(Metric::new(
        "workload.allocs_per_submission",
        ratio(allocs as f64, submissions as f64),
        "allocs/sub",
    ));
}

fn sim_metrics(
    split: &[(&CellCost, &Replay)],
    results: &[RunResult],
    mismatches: usize,
    metrics: &mut Vec<Metric>,
) {
    let phase = |k: usize| ms(split.iter().map(|(_, r)| r.phases[k]).sum());
    let setup: Duration = split.iter().map(|(_, r)| r.setup).sum();
    metrics.push(Metric::new("sim.setup_ms", ms(setup), "ms"));
    metrics.push(Metric::new("sim.prefault_ms", phase(0), "ms"));
    metrics.push(Metric::new("sim.fault_ms", phase(1), "ms"));
    metrics.push(Metric::new("sim.postfault_ms", phase(2), "ms"));
    let run_ns: f64 = split
        .iter()
        .map(|(_, r)| r.run_time().as_nanos() as f64)
        .sum();
    let events: f64 = split
        .iter()
        .map(|(_, r)| r.stats.events_processed as f64)
        .sum();
    let run_allocs: f64 = split.iter().map(|(_, r)| r.run_allocs as f64).sum();
    metrics.push(Metric::new(
        "sim.ns_per_event",
        ratio(run_ns, events),
        "ns/event",
    ));
    metrics.push(Metric::new(
        "sim.allocs_per_event",
        ratio(run_allocs, events),
        "allocs/event",
    ));
    metrics.push(Metric::new(
        "sim.replay_mismatches",
        mismatches as f64,
        "count",
    ));
    for chain in Chain::ALL {
        let mine = || {
            split
                .iter()
                .filter(|(c, _)| c.chain == chain)
                .map(|(_, r)| r)
        };
        let name = chain.name().to_lowercase();
        let total: Duration = mine().map(|r| r.setup + r.run_time()).sum();
        let run_ns: f64 = mine().map(|r| r.run_time().as_nanos() as f64).sum();
        let events: f64 = mine().map(|r| r.stats.events_processed as f64).sum();
        metrics.push(Metric::new(format!("sim.{name}.run_ms"), ms(total), "ms"));
        metrics.push(Metric::new(
            format!("sim.{name}.ns_per_event"),
            ratio(run_ns, events),
            "ns/event",
        ));
    }

    // Work counts come from every cell's own statistics.
    let sum = |counter| total(results, counter);
    let committed: f64 = results.iter().map(|r| r.latencies.len() as f64).sum();
    metrics.push(Metric::new(
        "sim.events_per_committed_tx",
        ratio(sum(|s| s.events_processed), committed),
        "events/tx",
    ));
    metrics.push(Metric::new(
        "sim.messages_per_committed_tx",
        ratio(sum(|s| s.messages_sent), committed),
        "msgs/tx",
    ));
    let stale = sum(|s| s.timers_stale);
    metrics.push(Metric::new(
        "sim.timer_stale_ratio",
        ratio(stale, stale + sum(|s| s.timers_fired)),
        "ratio",
    ));
}

fn net_metrics(results: &[RunResult], metrics: &mut Vec<Metric>) {
    let mut push =
        |name, counter| metrics.push(Metric::new(name, total(results, counter), "count"));
    push("net.dropped_link", |s: &SimStats| s.messages_dropped_link);
    push("net.duplicated_link", |s| s.messages_duplicated_link);
    push("net.reordered_link", |s| s.messages_reordered_link);
    push("net.dropped_partition", |s| s.messages_dropped_partition);
    push("net.dropped_dead", |s| s.messages_dropped_dead);
}

/// One `SimStats` counter summed over every cell.
fn total(results: &[RunResult], counter: fn(&SimStats) -> u64) -> f64 {
    results.iter().map(|r| counter(&r.stats) as f64).sum()
}

fn harness_metrics(
    costs: &[CellCost],
    split: &[(&CellCost, &Replay)],
    results: &[RunResult],
    metrics: &mut Vec<Metric>,
) {
    let run: Duration = costs.iter().map(|c| c.harness.time).sum();
    let split_run: f64 = split.iter().map(|(c, _)| ms(c.harness.time)).sum();
    let self_ms: f64 = split
        .iter()
        .map(|(c, r)| ms(c.harness.time) - ms(c.generate + r.setup + r.run_time()))
        .sum();
    let self_allocs: u64 = split
        .iter()
        .map(|(c, r)| {
            c.harness
                .allocs
                .saturating_sub(c.generate_allocs + r.setup_allocs + r.run_allocs)
        })
        .sum();
    let committed: u64 = split.iter().map(|(c, _)| c.committed).sum();
    metrics.push(Metric::new("harness.run_ms", ms(run), "ms"));
    metrics.push(Metric::new("harness.self_ms", self_ms, "ms"));
    metrics.push(Metric::new(
        "harness.self_share",
        ratio(self_ms, split_run),
        "ratio",
    ));
    metrics.push(Metric::new(
        "harness.split_cells",
        split.len() as f64,
        "count",
    ));
    metrics.push(Metric::new(
        "harness.allocs_per_committed_tx",
        ratio(self_allocs as f64, committed as f64),
        "allocs/tx",
    ));
    let retries: u64 = results.iter().map(|r| r.retries).sum();
    let give_ups: u64 = results.iter().map(|r| r.give_ups).sum();
    metrics.push(Metric::new("harness.retries", retries as f64, "count"));
    metrics.push(Metric::new("harness.give_ups", give_ups as f64, "count"));
}

/// Replays `cell` from outside with the protocol configuration
/// `Chain::run_traced_with_cpu` builds for it.
fn replay(cell: &Cell, submissions: &[Submission], marks: [SimTime; 3]) -> Replay {
    let slow = 1.0 / cell.cores;
    let contention = cell.config.contention_active();
    match cell.chain {
        Chain::Algorand => {
            let mut c = AlgorandConfig::default();
            c.exec_per_tx = c.exec_per_tx.mul_f64(slow);
            c.exec_per_block = c.exec_per_block.mul_f64(slow);
            c.model_contention = contention;
            replay_as::<AlgorandNode>(cell, submissions, marks, c)
        }
        Chain::Aptos => {
            let mut c = AptosConfig::default();
            c.exec_per_tx = c.exec_per_tx.mul_f64(slow);
            c.exec_per_block = c.exec_per_block.mul_f64(slow);
            c.validation_cost = c.validation_cost.mul_f64(slow);
            c.stale_exec_cost = c.stale_exec_cost.mul_f64(slow);
            c.model_contention = contention;
            replay_as::<AptosNode>(cell, submissions, marks, c)
        }
        Chain::Avalanche => {
            let mut c = AvalancheConfig::default();
            c.cpu_quota *= cell.cores;
            c.model_contention = contention;
            replay_as::<AvalancheNode>(cell, submissions, marks, c)
        }
        Chain::Redbelly => {
            let mut c = RedbellyConfig::default();
            c.exec_per_tx = c.exec_per_tx.mul_f64(slow);
            c.exec_per_block = c.exec_per_block.mul_f64(slow);
            c.model_contention = contention;
            replay_as::<RedbellyNode>(cell, submissions, marks, c)
        }
        Chain::Solana => {
            let mut c = SolanaConfig::default();
            c.exec_per_tx = c.exec_per_tx.mul_f64(slow);
            c.model_contention = contention;
            replay_as::<SolanaNode>(cell, submissions, marks, c)
        }
    }
}

/// Wraps the protocol in its Byzantine shell when the cell names
/// Byzantine nodes, as the harness does.
fn replay_as<P>(
    cell: &Cell,
    submissions: &[Submission],
    marks: [SimTime; 3],
    config: P::Config,
) -> Replay
where
    P: Protocol<Request = Transaction, Commit = TxId>,
{
    let byzantine = &cell.config.byzantine;
    if byzantine.is_active() {
        let config = ByzConfig::new(config, byzantine.clone());
        replay_with::<ByzantineWrapper<P>>(cell, submissions, marks, config)
    } else {
        replay_with::<P>(cell, submissions, marks, config)
    }
}

fn replay_with<P>(
    cell: &Cell,
    submissions: &[Submission],
    marks: [SimTime; 3],
    protocol: P::Config,
) -> Replay
where
    P: Protocol<Request = Transaction, Commit = TxId>,
{
    let config = &cell.config;
    let started = Instant::now();
    let (mut sim, setup_allocs) = count_allocs(|| {
        let mut builder = SimBuilder::new(config.n, config.seed);
        builder.latency(config.latency);
        if let Some(topology) = config.topology.clone() {
            builder.topology(topology);
        }
        let mut sim: Simulation<P> = builder.build(protocol);
        config.faults.schedule(&mut sim);
        let front_nodes = config.workload.clients.min(config.n);
        let mut client_rng = DetRng::new(config.seed ^ CLIENT_RNG_SALT);
        for submission in submissions {
            for node in config.client_mode.nodes_for(submission.client, front_nodes) {
                let arrives = submission.at + config.latency.sample(&mut client_rng);
                sim.schedule_request(arrives, node, submission.transaction);
            }
        }
        sim
    });
    let setup = started.elapsed();
    let mut phases = [Duration::ZERO; 3];
    let mut run_allocs = 0;
    for (phase, mark) in phases.iter_mut().zip(marks) {
        let started = Instant::now();
        let ((), allocs) = count_allocs(|| sim.run_until(mark.min(config.horizon)));
        *phase = started.elapsed();
        run_allocs += allocs;
    }
    Replay {
        stats: sim.stats(),
        setup,
        phases,
        setup_allocs,
        run_allocs,
    }
}

/// The kernel floor: nanoseconds per event of the `Chatty` broadcast
/// protocol at n = 10, median of five 30-simulated-second runs.
fn kernel_ns_per_event(seed: u64) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let mut sim = Simulation::<Chatty>::new(10, seed, ());
            let started = Instant::now();
            sim.run_until(SimTime::from_secs(30));
            let ns = started.elapsed().as_nanos() as f64;
            ratio(ns, sim.stats().events_processed as f64)
        })
        .collect();
    median(&samples)
}

fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
