//! The Stabl benchmark: campaigns timed end to end, and a traced run
//! that splits the same work across the engine, workload, sim, harness
//! and metrics layers.
//!
//! ```text
//! cargo run --release --manifest-path stablbench/Cargo.toml -- \
//!     --workload fig3|contention|chaos [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. The last line of standard output is a
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. See
//! `stablbench/README.md` for the workloads and metrics.

mod layers;
mod probe;
mod workloads;

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use stabl_bench::{Engine, Job};

use workloads::{Cell, Outcome, Workload, DEFAULT_SEED};

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// Campaigns every untraced run measures, however short `--seconds`.
const MIN_CAMPAIGNS: usize = 2;

/// The memory latency `wall_s` and `cpu_s` are stated at: a host whose
/// [`probe::LatencyProbe`] reads this many nanoseconds per load.
const REFERENCE_LOAD_NS: f64 = 150.0;

const USAGE: &str = "usage: stablbench --workload fig3|contention|chaos [--seed N] \
                     [--seconds S] [--trace 0|1] [--print-digests]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    print_digests: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 25;
        let mut trace = false;
        let mut print_digests = false;
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            if flag == "--print-digests" {
                print_digests = true;
                continue;
            }
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse()
                    .map_err(|_| format!("{flag}: not a number: {value}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
                }
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?,
                "--trace" => match value.as_str() {
                    "0" => trace = false,
                    "1" => trace = true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                },
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            print_digests,
        })
    }
}

/// One named measurement.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one benchmark run prints.
pub struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    /// Prints a readable table, then the result as the last line of
    /// standard output.
    fn print(&self) {
        for m in &self.metrics {
            println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
        }
        println!(
            "correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    r#""{}": {{"value": {}, "unit": "{}"}}"#,
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// The median of `values` (the mean of the middle two for an even
/// count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// This process's scratch directory under the working directory; cache
/// directories live here and are removed when the run ends.
pub struct WorkDir {
    root: PathBuf,
}

impl WorkDir {
    fn create() -> std::io::Result<WorkDir> {
        let root = PathBuf::from(".stablbench-work").join(std::process::id().to_string());
        fs::create_dir_all(&root)?;
        Ok(WorkDir { root })
    }

    /// The path `name` under the work directory, with anything an
    /// earlier use left there removed.
    fn clear(&self, name: &str) -> PathBuf {
        let dir = self.root.join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn remove(self) {
        let _ = fs::remove_dir_all(&self.root);
        // Leave nothing behind once no other run is using the parent.
        if let Some(parent) = self.root.parent() {
            let _ = fs::remove_dir(parent);
        }
    }
}

/// A campaign ready to run: the engine, with an empty cache, and the
/// cells a user's first run schedules into it.
struct Prepared {
    engine: Engine,
    cells: Vec<Cell>,
}

/// Set-up of one campaign: the cell list, the cache directory and the
/// engine (which resolves the code version with `git describe`).
fn prepare(workload: Workload, seed: u64, dir: PathBuf) -> Prepared {
    let cells = workload.cells(&workloads::paper_setup(seed));
    fs::create_dir_all(&dir).expect("the work directory is writable");
    Prepared {
        engine: Engine::new(1, Some(dir)),
        cells,
    }
}

/// What one run cost: a cell's, as its job measured it, or a whole
/// campaign's.
#[derive(Clone, Copy, Debug, Default)]
struct Times {
    /// Wall seconds.
    wall: f64,
    /// User plus system CPU seconds.
    cpu: f64,
    /// Most heap bytes held live at once beyond those live at the start.
    heap: f64,
}

impl Times {
    /// Runs `f`, returning its value and what it cost.
    fn measure<T>(f: impl FnOnce() -> T) -> (T, Times) {
        let (wall, cpu) = (Instant::now(), probe::cpu_time());
        let (value, heap) = probe::peak_heap(f);
        let spent = Times {
            wall: wall.elapsed().as_secs_f64(),
            cpu: (probe::cpu_time() - cpu).as_secs_f64(),
            heap: heap as f64,
        };
        (value, spent)
    }
}

/// What a job measured: its cell's run, and a set-up and the latency
/// probe taken just before it.
#[derive(Clone, Copy, Debug, Default)]
struct Sample {
    cell: Times,
    setup: Times,
    probe: Times,
    /// The probe's reading, in nanoseconds per load.
    load_ns: f64,
}

/// One measured campaign.
struct Campaign {
    /// Per-cell samples, in campaign order.
    cells: Vec<Sample>,
    /// The whole `Engine::run`: the cells, set-ups and latency probes
    /// plus the engine's cache probes, cache stores and worker start-up.
    total: Times,
}

/// The user's jobs for `cells`, each also timing one more set-up of
/// `workload` in `setup_dir`, probing the host's memory latency, and
/// then timing its own run into `samples`.
///
/// Set-ups run between cells rather than back to back because the
/// set-up time shifts by a quarter after some campaigns and not others
/// (mostly the `git describe` child of `Engine::new`): twenty-five in a
/// row all read about 0.75 ms or all about 1.0 ms.
fn timed_jobs(
    workload: Workload,
    seed: u64,
    setup_dir: PathBuf,
    cells: &[Cell],
    latency: &Arc<probe::LatencyProbe>,
    samples: &Arc<Mutex<Vec<Sample>>>,
) -> Vec<Job> {
    cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let job = cell.job();
            let (cell, setup_dir, latency, samples) = (
                cell.clone(),
                setup_dir.clone(),
                Arc::clone(latency),
                Arc::clone(samples),
            );
            Job::new(job.label(), job.material().to_owned(), move || {
                let _ = fs::remove_dir_all(&setup_dir);
                let ((), setup) =
                    Times::measure(|| drop(prepare(workload, seed, setup_dir.clone())));
                let (load_ns, probe) = Times::measure(|| latency.sample());
                let (result, cell) = Times::measure(|| cell.run());
                samples
                    .lock()
                    .expect("no job panics while holding the lock")[i] = Sample {
                    cell,
                    setup,
                    probe,
                    load_ns,
                };
                result
            })
        })
        .collect()
}

/// One campaign's time with every cell at its fastest over
/// `campaigns`, plus the smallest engine overhead around the cells.
///
/// On a shared 2-vCPU VM, neighbours on the host slow the guest by up to
/// half in spells of seconds to minutes. A cell's runs are a campaign
/// apart, so a spell of seconds rarely covers all of them, and the
/// fastest measures the code rather than the spell. Longer spells still
/// show as spread between runs.
fn fastest_campaign(campaigns: &[Campaign], pick: fn(&Times) -> f64) -> f64 {
    let fastest = |values: &mut dyn Iterator<Item = f64>| values.fold(f64::INFINITY, f64::min);
    let cells = campaigns.first().map_or(0, |c| c.cells.len());
    let per_cell: f64 = (0..cells)
        .map(|i| fastest(&mut campaigns.iter().map(|c| pick(&c.cells[i].cell))))
        .sum();
    let overhead = fastest(&mut campaigns.iter().map(|c| {
        let measured: f64 = c
            .cells
            .iter()
            .map(|s| pick(&s.cell) + pick(&s.setup) + pick(&s.probe))
            .sum();
        pick(&c.total) - measured
    }));
    per_cell + overhead
}

/// The factor that states a time at [`REFERENCE_LOAD_NS`]: the
/// reference latency over the median probe reading of the run.
///
/// A neighbour's spell slows every run it covers, by up to 1.5× on this
/// class of 2-vCPU VM, and spells last longer than a run, so the
/// fastest run of a cell cannot filter it. The probe readings of the
/// same run measure how slow the memory system was meanwhile. On eight
/// runs of one `contention` input, the spread of the fastest-cell sum
/// fell from 0.17 to 0.09 of the median when so scaled.
fn host_scale(campaigns: &[Campaign]) -> f64 {
    // Cells after a panic in their campaign never ran their probe.
    let loads: Vec<f64> = campaigns
        .iter()
        .flat_map(|c| c.cells.iter().map(|s| s.load_ns))
        .filter(|&ns| ns > 0.0)
        .collect();
    if loads.is_empty() {
        return 1.0;
    }
    REFERENCE_LOAD_NS / median(&loads)
}

/// The heap one cell needs: each cell's peak live heap (the same in
/// every campaign, since runs are deterministic), median over cells.
fn cell_heap_mib(campaigns: &[Campaign]) -> f64 {
    let heaps: Vec<f64> = campaigns
        .first()
        .map(|c| c.cells.iter().map(|s| s.cell.heap).collect())
        .unwrap_or_default();
    median(&heaps) / (1024.0 * 1024.0)
}

/// The untraced run: whole campaigns, each into a fresh cache with one
/// worker, at least [`MIN_CAMPAIGNS`] and more while another fits in
/// `seconds`.
fn end_to_end(workload: Workload, seed: u64, seconds: u64, work: &WorkDir) -> Report {
    let latency = Arc::new(probe::LatencyProbe::new());
    let started = Instant::now();
    let mut setups = Vec::new();
    let mut campaigns: Vec<Campaign> = Vec::new();
    let mut first_outcomes: Option<Vec<Outcome>> = None;
    let mut failed = 0;
    let mut attempted = 0;
    loop {
        let dir = work.clear("campaign");
        let setup_started = Instant::now();
        let prepared = prepare(workload, seed, dir.clone());
        setups.push(setup_started.elapsed().as_secs_f64());

        let samples = Arc::new(Mutex::new(vec![Sample::default(); prepared.cells.len()]));
        let jobs = timed_jobs(
            workload,
            seed,
            work.clear("setup"),
            &prepared.cells,
            &latency,
            &samples,
        );
        let (wall, cpu) = (Instant::now(), probe::cpu_time());
        let results = catch_unwind(AssertUnwindSafe(|| prepared.engine.run(jobs)));
        let total = Times {
            wall: wall.elapsed().as_secs_f64(),
            cpu: (probe::cpu_time() - cpu).as_secs_f64(),
            heap: 0.0,
        };
        let _ = fs::remove_dir_all(&dir);

        // A panicking cell takes its whole campaign down with it.
        let outcomes: Vec<Outcome> = match results {
            Ok(results) => results.iter().map(|r| Some(workloads::digest(r))).collect(),
            Err(_) => vec![None; prepared.cells.len()],
        };
        failed += workloads::failed_cells(
            workload,
            seed,
            &prepared.cells,
            &outcomes,
            first_outcomes.as_deref(),
        );
        attempted += prepared.cells.len() as u64;
        first_outcomes.get_or_insert(outcomes);
        let cells = std::mem::take(&mut *samples.lock().expect("the campaign has finished"));
        setups.extend(cells.iter().map(|s| s.setup.wall).filter(|&t| t > 0.0));
        campaigns.push(Campaign { cells, total });

        let mean = campaigns.iter().map(|c| c.total.wall).sum::<f64>() / campaigns.len() as f64;
        let elapsed = started.elapsed().as_secs_f64();
        if campaigns.len() >= MIN_CAMPAIGNS && elapsed + mean > seconds as f64 {
            break;
        }
    }
    let walls: Vec<f64> = campaigns.iter().map(|c| c.total.wall).collect();
    let scale = host_scale(&campaigns);
    eprintln!(
        "{}: campaign wall times {walls:.3?} s, fastest-cell sum {:.3} s, \
         memory latency {:.1} ns per load",
        workload.name(),
        fastest_campaign(&campaigns, |t| t.wall),
        REFERENCE_LOAD_NS / scale,
    );

    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            Metric::new(
                "wall_s",
                fastest_campaign(&campaigns, |t| t.wall) * scale,
                "s",
            ),
            Metric::new(
                "cpu_s",
                fastest_campaign(&campaigns, |t| t.cpu) * scale,
                "s",
            ),
            Metric::new("cell_heap_mb", cell_heap_mib(&campaigns), "MiB"),
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new(
                "cell_success_ratio",
                1.0 - failed as f64 / attempted as f64,
                "ratio",
            ),
        ],
    }
}

/// Prints `<workload> <label> <digest>` for every cell, the format of
/// `expected_digests.txt`.
fn print_digests(workload: Workload, seed: u64) {
    for cell in workload.cells(&workloads::paper_setup(seed)) {
        let digest = workloads::digest(&cell.run());
        println!("{} {} {digest}", workload.name(), cell.label);
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_digests {
        print_digests(args.workload, args.seed);
        return ExitCode::SUCCESS;
    }
    let work = match WorkDir::create() {
        Ok(work) => work,
        Err(e) => {
            eprintln!("cannot create the work directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = if args.trace {
        layers::run(args.workload, args.seed, &work)
    } else {
        end_to_end(args.workload, args.seed, args.seconds, &work)
    };
    work.remove();
    report.print();
    ExitCode::SUCCESS
}
