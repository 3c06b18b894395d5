//! Speed trajectory: measures kernel and per-chain simulation throughput
//! and writes `BENCH_speed.json`, the artifact CI tracks across PRs.
//!
//! The artifact mixes two kinds of fields:
//!
//! * **Deterministic fields** (event counts, committed transactions,
//!   configuration) — identical on every run of the same build and seed.
//!   CI runs this binary twice and byte-compares the artifact with every
//!   `wall_*` field stripped; any difference is a determinism regression.
//! * **Timing fields**, all named with a `wall_` prefix — wall-clock
//!   measurements that vary run to run. The reported number is the
//!   *minimum* over the configured repetitions: on shared, noisy
//!   machines interruptions only ever inflate a sample, so the minimum
//!   is the robust throughput estimator.
//!
//! Usage: `ext_speed [--out FILE] [--seed N] [--reps N] [--quick SECS]`
//! (`--quick` is accepted for CI-harness uniformity and lowers the
//! repetition count; the chain horizon stays fixed so the deterministic
//! fields never depend on it).

use std::time::Instant;

use serde_json::{json, Value};
use stabl::{Chain, RunConfig};
use stabl_bench::speed_bench::{agenda_round_trip, event_times, Chatty, Churny};
use stabl_sim::{SimTime, Simulation};

/// Schema identifier; bump when the artifact layout changes.
const SCHEMA: &str = "stabl-speed/v1";

/// Simulated horizon of the per-chain runs.
const CHAIN_HORIZON_SECS: u64 = 10;

struct Opts {
    out: std::path::PathBuf,
    seed: u64,
    reps: usize,
}

fn parse_args() -> Opts {
    let mut out = std::path::PathBuf::from("BENCH_speed.json");
    let mut seed = 42u64;
    let mut reps = 9usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = args.next().expect("--out takes a file path").into(),
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed takes a u64");
            }
            "--reps" => {
                reps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .expect("--reps takes a positive count");
            }
            // Harness-uniformity flag: fewer repetitions, same workload.
            "--quick" => {
                let _secs: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--quick takes seconds");
                reps = reps.min(3);
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    Opts { out, seed, reps }
}

/// Runs `workload` `reps` times; returns the deterministic result of the
/// first run (all runs must agree) and the minimum wall nanoseconds.
fn time_min<F: FnMut() -> u64>(reps: usize, mut workload: F) -> (u64, u128) {
    let mut result = None;
    let mut min_ns = u128::MAX;
    for _ in 0..reps {
        #[expect(
            clippy::disallowed_methods,
            reason = "the speed bench measures wall time; it lands only in `wall_` fields"
        )]
        let start = Instant::now();
        let r = workload();
        let elapsed = start.elapsed().as_nanos();
        min_ns = min_ns.min(elapsed);
        match result {
            None => result = Some(r),
            Some(prev) => assert_eq!(prev, r, "non-deterministic workload"),
        }
    }
    (result.unwrap_or(0), min_ns)
}

/// Events per wall second, from an event count and a wall time.
fn per_sec(count: u64, wall_ns: u128) -> f64 {
    if wall_ns == 0 {
        return 0.0;
    }
    count as f64 * 1e9 / wall_ns as f64
}

fn main() {
    let opts = parse_args();
    let mut kernel: Vec<(String, Value)> = Vec::new();

    // Headline kernel run: chatty protocol, 10 nodes, 1 simulated second.
    let (events, wall) = time_min(opts.reps, || {
        let mut sim = Simulation::<Chatty>::new(10, opts.seed, ());
        sim.run_until(SimTime::from_secs(1));
        sim.stats().events_processed
    });
    kernel.push((
        "chatty_10nodes_1s".into(),
        json!({
            "events_processed": events,
            "wall_ns_min": wall as u64,
            "wall_events_per_s": per_sec(events, wall),
        }),
    ));

    // Agenda round trips at the three horizon distributions.
    let near = event_times(10_000, 64_000, 7);
    let far = event_times(10_000, 10_000_000, 7);
    let burst: Vec<u64> = event_times(10_000, 32, 7)
        .into_iter()
        .map(|t| t * 1_000)
        .collect();
    for (name, times) in [
        ("agenda_near_10k", &near),
        ("agenda_far_10k", &far),
        ("agenda_burst_10k", &burst),
    ] {
        let (acc, wall) = time_min(opts.reps, || agenda_round_trip(times));
        kernel.push((
            name.into(),
            json!({
                "checksum": acc,
                "events": times.len() as u64,
                "wall_ns_min": wall as u64,
                "wall_events_per_s": per_sec(times.len() as u64, wall),
            }),
        ));
    }

    // Timer churn with heavy cancellation.
    let (stale, wall) = time_min(opts.reps, || {
        let mut sim = Simulation::<Churny>::new(10, opts.seed, ());
        sim.run_until(SimTime::from_secs(1));
        sim.stats().timers_stale
    });
    kernel.push((
        "timer_churn_10nodes_1s".into(),
        json!({
            "timers_stale": stale,
            "wall_ns_min": wall as u64,
        }),
    ));

    // Broadcast fanout as the cluster grows.
    for (n, millis) in [(10usize, 400u64), (50, 200), (100, 100)] {
        let (delivered, wall) = time_min(opts.reps, || {
            let mut sim = Simulation::<Chatty>::new(n, opts.seed, ());
            sim.run_until(SimTime::from_millis(millis));
            sim.stats().messages_delivered
        });
        kernel.push((
            format!("fanout_{n}nodes_{millis}ms"),
            json!({
                "messages_delivered": delivered,
                "wall_ns_min": wall as u64,
                "wall_msgs_per_s": per_sec(delivered, wall),
            }),
        ));
    }

    // End-to-end chain throughput: committed transactions per wall
    // second over a 10-simulated-second baseline run.
    let mut chains: Vec<(String, Value)> = Vec::new();
    for &chain in &Chain::ALL {
        let (committed, wall) = time_min(opts.reps.min(5), || {
            let mut config = RunConfig::quick(opts.seed);
            config.horizon = SimTime::from_secs(CHAIN_HORIZON_SECS);
            config.workload.end = SimTime::from_secs(CHAIN_HORIZON_SECS - 2);
            chain.run(&config).latencies.len() as u64
        });
        chains.push((
            chain.name().into(),
            json!({
                "horizon_s": CHAIN_HORIZON_SECS,
                "txs_committed": committed,
                "wall_ns_min": wall as u64,
                "wall_tx_per_s": per_sec(committed, wall),
                "wall_sim_s_per_wall_s": per_sec(CHAIN_HORIZON_SECS, wall),
            }),
        ));
    }

    let artifact = json!({
        "schema": SCHEMA,
        "seed": opts.seed,
        "kernel": Value::Map(kernel),
        "chains": Value::Map(chains),
    });
    let rendered = serde_json::to_string_pretty(&artifact).expect("render artifact");
    std::fs::write(&opts.out, rendered + "\n").expect("write artifact");
    println!("wrote {}", opts.out.display());
}
