//! Causal diagnosis of a run: *why* did this chain slow down or stall?
//!
//! Three layers, all pure functions of the deterministic run artifacts
//! ([`RunConfig`], [`RunResult`], [`RunTrace`]) so every output is
//! byte-identical across reruns of the same seed:
//!
//! 1. **Metrics timeline** ([`MetricsTimeline`]) — the structured event
//!    stream bucketed into fixed-cadence frames. Each frame carries the
//!    window's event-count deltas ([`FrameCounts`]) and one
//!    [`GaugeSeries`] per `(metric, node)` pair sampled by
//!    [`Ctx::gauge`], summarised with the integer-exact
//!    [`QuantileSketch`] so frame merging is associative, commutative
//!    and bit-exact — the replication engine's fold invariant extends
//!    to the observability layer.
//! 2. **Latency blame** ([`BlameTable`]) — every committed transaction's
//!    `[submit, commit]` interval is intersected with the fault
//!    schedule, the client retry stream and node-restart events, and
//!    its latency is attributed to the concrete causes that overlapped
//!    it (crash, transient outage, partition, slowdown, link
//!    degradation, retry/backoff, recovery catch-up, Byzantine nodes —
//!    or `baseline` when nothing did).
//! 3. **Liveness post-mortem** ([`LivenessPostMortem`]) — for runs that
//!    stop committing, pinpoints the stall: the last commit instant,
//!    the phase span each node entered and never progressed out of,
//!    the nodes that were down, and the fault windows still active at
//!    (or after) the stall, condensed into a one-paragraph verdict.
//!
//! [`Ctx::gauge`]: stabl_sim::Ctx::gauge

use std::collections::BTreeMap;

use stabl_sim::{ByzantineSpec, SimDuration, SimEvent};
use stabl_stats::QuantileSketch;

use crate::faults::{FaultAction, FaultSchedule};
use crate::harness::{RunConfig, RunResult, RunTrace};

/// Default sampling cadence of the metrics timeline (one frame per
/// simulated second strikes the balance between resolution and artifact
/// size for the paper's 30–400 s horizons).
pub const DEFAULT_CADENCE: SimDuration = SimDuration::from_secs(1);

/// How many of the slowest commits keep a per-transaction blame row.
pub const SLOWEST_TXS: usize = 5;

/// Event-count deltas inside one timeline frame.
///
/// Every field is a plain additive `u64`, so [`FrameCounts::merge`] is
/// integer addition — associative, commutative, bit-exact.
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FrameCounts {
    /// `MessageSent` events (only populated at [`CaptureLevel::Full`]).
    ///
    /// [`CaptureLevel::Full`]: stabl_sim::CaptureLevel::Full
    pub sent: u64,
    /// `MessageDelivered` events (only populated at full capture).
    pub delivered: u64,
    /// `MessageDropped` events (only populated at full capture).
    pub dropped: u64,
    /// `TimerFired` events.
    pub timers_fired: u64,
    /// `TimerStale` events.
    pub timers_stale: u64,
    /// `RequestDelivered` events.
    pub requests_delivered: u64,
    /// `RequestDropped` events.
    pub requests_dropped: u64,
    /// `ClientSubmitted` events.
    pub submits: u64,
    /// `ClientRetried` events.
    pub retries: u64,
    /// `ClientGaveUp` events.
    pub give_ups: u64,
    /// `Committed` events.
    pub commits: u64,
    /// `NodeCrashed` events.
    pub crashes: u64,
    /// `NodeRestarted` events.
    pub restarts: u64,
    /// `NodePanicked` events.
    pub panics: u64,
    /// `Phase` marks.
    pub phase_marks: u64,
    /// `Gauge` samples.
    pub gauge_samples: u64,
}

impl FrameCounts {
    fn count(&mut self, event: &SimEvent) {
        match event {
            SimEvent::MessageSent { .. } => self.sent += 1,
            SimEvent::MessageDelivered { .. } => self.delivered += 1,
            SimEvent::MessageDropped { .. } => self.dropped += 1,
            SimEvent::TimerFired { .. } => self.timers_fired += 1,
            SimEvent::TimerStale { .. } => self.timers_stale += 1,
            SimEvent::RequestDelivered { .. } => self.requests_delivered += 1,
            SimEvent::RequestDropped { .. } => self.requests_dropped += 1,
            SimEvent::ClientSubmitted { .. } => self.submits += 1,
            SimEvent::ClientRetried { .. } => self.retries += 1,
            SimEvent::ClientGaveUp { .. } => self.give_ups += 1,
            SimEvent::Committed { .. } => self.commits += 1,
            SimEvent::NodeCrashed { .. } => self.crashes += 1,
            SimEvent::NodeRestarted { .. } => self.restarts += 1,
            SimEvent::NodePanicked { .. } => self.panics += 1,
            SimEvent::Phase { .. } => self.phase_marks += 1,
            SimEvent::Gauge { .. } => self.gauge_samples += 1,
            SimEvent::FaultActivated { .. } | SimEvent::FaultCleared { .. } => {}
            SimEvent::Log { .. } => {}
        }
    }

    /// Adds every count of `other` into `self`.
    pub fn merge(&mut self, other: &FrameCounts) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.timers_fired += other.timers_fired;
        self.timers_stale += other.timers_stale;
        self.requests_delivered += other.requests_delivered;
        self.requests_dropped += other.requests_dropped;
        self.submits += other.submits;
        self.retries += other.retries;
        self.give_ups += other.give_ups;
        self.commits += other.commits;
        self.crashes += other.crashes;
        self.restarts += other.restarts;
        self.panics += other.panics;
        self.phase_marks += other.phase_marks;
        self.gauge_samples += other.gauge_samples;
    }

    /// Total events counted in this frame.
    pub fn total(&self) -> u64 {
        self.sent
            + self.delivered
            + self.dropped
            + self.timers_fired
            + self.timers_stale
            + self.requests_delivered
            + self.requests_dropped
            + self.submits
            + self.retries
            + self.give_ups
            + self.commits
            + self.crashes
            + self.restarts
            + self.panics
            + self.phase_marks
            + self.gauge_samples
    }
}

/// The samples one `(metric, node)` pair contributed to one frame.
///
/// Values are summarised with [`QuantileSketch`] (integer bucket
/// counts), and the *latest* sample is kept separately — keyed by the
/// lexicographic maximum of `(time, sequence, value)` so that
/// [`GaugeSeries::merge`] stays associative and commutative even under
/// arbitrary merge orders.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct GaugeSeries {
    /// The metric label (e.g. `"mempool_depth"`, `"round"`).
    pub metric: String,
    /// The reporting node's dense index.
    pub node: u64,
    /// Distribution of the sampled values within the frame (the sketch
    /// treats each value as an integer "microsecond"; only the grid is
    /// borrowed, the unit is the metric's own).
    pub values: QuantileSketch,
    /// Simulated time of the latest sample, microseconds.
    pub last_t_us: u64,
    /// Recorder sequence number of the latest sample (tie-break).
    pub last_seq: u64,
    /// The latest sampled value (what a dashboard would show).
    pub last_value: u64,
}

impl GaugeSeries {
    fn record(&mut self, t_us: u64, seq: u64, value: u64) {
        self.values.record_micros(value);
        if (t_us, seq, value) >= (self.last_t_us, self.last_seq, self.last_value) {
            self.last_t_us = t_us;
            self.last_seq = seq;
            self.last_value = value;
        }
    }

    /// Folds `other` into `self`. Associative, commutative, bit-exact.
    pub fn merge(&mut self, other: &GaugeSeries) {
        self.values.merge(&other.values);
        let theirs = (other.last_t_us, other.last_seq, other.last_value);
        if theirs >= (self.last_t_us, self.last_seq, self.last_value) {
            self.last_t_us = other.last_t_us;
            self.last_seq = other.last_seq;
            self.last_value = other.last_value;
        }
    }
}

/// One fixed-cadence bucket of the metrics timeline.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MetricsFrame {
    /// The frame's position: covers `[index · cadence, (index+1) · cadence)`.
    pub index: u64,
    /// Frame start, microseconds (inclusive).
    pub start_us: u64,
    /// Frame end, microseconds (exclusive; the last frame is clamped to
    /// the horizon).
    pub end_us: u64,
    /// Event-count deltas inside the frame.
    pub counts: FrameCounts,
    /// Per-`(metric, node)` gauge summaries, sorted by `(metric, node)`.
    pub gauges: Vec<GaugeSeries>,
}

impl MetricsFrame {
    /// Folds `other` (same index) into `self`: counts add, gauge series
    /// merge-join on `(metric, node)`.
    pub fn merge(&mut self, other: &MetricsFrame) {
        self.counts.merge(&other.counts);
        self.end_us = self.end_us.max(other.end_us);
        let mut merged: Vec<GaugeSeries> =
            Vec::with_capacity(self.gauges.len() + other.gauges.len());
        let (mut a, mut b) = (
            self.gauges.iter().peekable(),
            other.gauges.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(sa), Some(sb)) => {
                    let ka = (&sa.metric, sa.node);
                    let kb = (&sb.metric, sb.node);
                    if ka == kb {
                        let mut s = (*sa).clone();
                        s.merge(sb);
                        merged.push(s);
                        a.next();
                        b.next();
                    } else if ka < kb {
                        merged.push((*sa).clone());
                        a.next();
                    } else {
                        merged.push((*sb).clone());
                        b.next();
                    }
                }
                (Some(sa), None) => {
                    merged.push((*sa).clone());
                    a.next();
                }
                (None, Some(sb)) => {
                    merged.push((*sb).clone());
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.gauges = merged;
    }
}

/// The sampled time series of one run: the structured event stream
/// bucketed into fixed-cadence [`MetricsFrame`]s.
///
/// Built by [`MetricsTimeline::from_trace`]; two timelines of the same
/// shape (cadence and node count) merge bit-exactly in any order or
/// grouping, so replicated runs can be folded like the stats sketches.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MetricsTimeline {
    /// The capture level the source trace recorded at (stable name).
    pub capture: String,
    /// Frame width, microseconds.
    pub cadence_us: u64,
    /// The run horizon, microseconds.
    pub horizon_us: u64,
    /// Validator count of the source run.
    pub n: u64,
    /// Events evicted from the recorder ring before the timeline saw
    /// them (non-zero means the oldest frames under-count).
    pub dropped_events: u64,
    /// The frames, one per cadence bucket covering `[0, horizon]`,
    /// sorted by index.
    pub frames: Vec<MetricsFrame>,
}

impl MetricsTimeline {
    /// Buckets `trace` into frames of width `cadence`.
    ///
    /// Every bucket covering `[0, horizon]` is emitted (empty ones
    /// included) so exporters can render a gap-free timeline.
    pub fn from_trace(trace: &RunTrace, cadence: SimDuration) -> MetricsTimeline {
        let cadence_us = cadence.as_micros().max(1);
        let horizon_us = trace.horizon.as_micros();
        let frame_count = (horizon_us / cadence_us) + 1;

        let mut frames: Vec<MetricsFrame> = (0..frame_count)
            .map(|index| MetricsFrame {
                index,
                start_us: index * cadence_us,
                end_us: ((index + 1) * cadence_us).min(horizon_us.max(index * cadence_us + 1)),
                counts: FrameCounts::default(),
                gauges: Vec::new(),
            })
            .collect();
        // Gauge series under construction, keyed for deterministic order.
        let mut gauges: BTreeMap<(u64, String, u64), GaugeSeries> = BTreeMap::new();

        for timed in &trace.events {
            let t_us = timed.time.as_micros();
            let index = (t_us / cadence_us).min(frame_count - 1);
            frames[index as usize].counts.count(&timed.event);
            if let SimEvent::Gauge {
                node,
                metric,
                value,
            } = &timed.event
            {
                let key = (index, (*metric).to_owned(), node.index() as u64);
                gauges
                    .entry(key)
                    .or_insert_with(|| GaugeSeries {
                        metric: (*metric).to_owned(),
                        node: node.index() as u64,
                        values: QuantileSketch::new(),
                        last_t_us: 0,
                        last_seq: 0,
                        last_value: 0,
                    })
                    .record(t_us, timed.seq, *value);
            }
        }
        for ((index, _, _), series) in gauges {
            frames[index as usize].gauges.push(series);
        }

        MetricsTimeline {
            capture: trace.capture.name().to_owned(),
            cadence_us,
            horizon_us,
            n: trace.n as u64,
            dropped_events: trace.dropped_events,
            frames,
        }
    }

    /// Folds `other` into `self`: frames merge-join on index, counts
    /// add, gauge sketches merge. Associative and order-insensitive
    /// bit-for-bit (the proptests in `crates/bench` assert both).
    ///
    /// The two timelines must share `cadence_us` and `n`; the horizon
    /// extends to the maximum of the two.
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch if the shapes differ.
    pub fn merge(&mut self, other: &MetricsTimeline) -> Result<(), String> {
        if self.cadence_us != other.cadence_us {
            return Err(format!(
                "cadence mismatch: {} vs {} µs",
                self.cadence_us, other.cadence_us
            ));
        }
        if self.n != other.n {
            return Err(format!("node-count mismatch: {} vs {}", self.n, other.n));
        }
        self.horizon_us = self.horizon_us.max(other.horizon_us);
        self.dropped_events += other.dropped_events;
        let mut merged: Vec<MetricsFrame> =
            Vec::with_capacity(self.frames.len().max(other.frames.len()));
        let (mut a, mut b) = (
            self.frames.iter().peekable(),
            other.frames.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(fa), Some(fb)) => {
                    if fa.index == fb.index {
                        let mut f = (*fa).clone();
                        f.merge(fb);
                        merged.push(f);
                        a.next();
                        b.next();
                    } else if fa.index < fb.index {
                        merged.push((*fa).clone());
                        a.next();
                    } else {
                        merged.push((*fb).clone());
                        b.next();
                    }
                }
                (Some(fa), None) => {
                    merged.push((*fa).clone());
                    a.next();
                }
                (None, Some(fb)) => {
                    merged.push((*fb).clone());
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.frames = merged;
        Ok(())
    }
}

/// One attributed latency cause, aggregated over every commit it
/// overlapped.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BlameCause {
    /// Cause category: `crash`, `transient`, `partition`, `slowdown`,
    /// `link_degrade`, `retry_backoff`, `recovery_catchup`,
    /// `byzantine` or `baseline`.
    pub category: String,
    /// The concrete cause (category plus victims and window, e.g.
    /// `"transient nodes=[5,6] 10.000s..20.000s"`).
    pub cause: String,
    /// Commits whose `[submit, commit]` interval overlapped the cause.
    pub commits: u64,
    /// Latency distribution of those commits (microsecond grid).
    pub latency: QuantileSketch,
}

/// Per-transaction blame for one of the slowest commits.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TxBlame {
    /// Position in [`RunResult::latencies`].
    pub index: u64,
    /// Submission instant, microseconds.
    pub submit_us: u64,
    /// Commit instant, microseconds.
    pub commit_us: u64,
    /// Client-observed latency, seconds.
    pub latency_secs: f64,
    /// The cause labels attributed to this transaction.
    pub causes: Vec<String>,
}

/// Mean seconds spent in each pipeline stage, from the always-on
/// [`StageLatencies`] decomposition.
///
/// [`StageLatencies`]: crate::metrics::StageLatencies
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StageSplit {
    /// Submission → first validator arrival.
    pub queueing_mean_secs: f64,
    /// First arrival → first commit.
    pub consensus_mean_secs: f64,
    /// First commit → client resolution.
    pub delivery_mean_secs: f64,
}

/// The causal latency attribution of a run that committed transactions.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BlameTable {
    /// Committed transactions analysed.
    pub commits: u64,
    /// Overall latency distribution (microsecond grid).
    pub overall: QuantileSketch,
    /// Mean stage decomposition of the committed transactions.
    pub stages: StageSplit,
    /// Every cause that overlapped at least one commit, sorted by
    /// `(category, cause)` for stable output.
    pub causes: Vec<BlameCause>,
    /// The [`SLOWEST_TXS`] slowest commits with per-transaction causes
    /// (slowest first; ties broken by submission order).
    pub slowest: Vec<TxBlame>,
}

/// A fault described for humans: kind, victims and active window.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FaultDescription {
    /// The action kind (`crash`, `transient`, `partition`, `slowdown`,
    /// `link_degrade`).
    pub kind: String,
    /// Whole-node victims (empty for link-level faults).
    pub nodes: Vec<u64>,
    /// Injection instant, microseconds.
    pub at_us: u64,
    /// Window end, microseconds — `None` for a permanent crash.
    pub until_us: Option<u64>,
}

impl FaultDescription {
    fn from_action(action: &FaultAction) -> FaultDescription {
        FaultDescription {
            kind: fault_kind(action).to_owned(),
            nodes: action.victims().iter().map(|n| n.index() as u64).collect(),
            at_us: action.start().as_micros(),
            until_us: action.window().map(|w| w.until.as_micros()),
        }
    }

    fn label(&self) -> String {
        let span = match self.until_us {
            Some(until) => format!(
                "{:.3}s..{:.3}s",
                self.at_us as f64 / 1e6,
                until as f64 / 1e6
            ),
            None => format!("@{:.3}s (permanent)", self.at_us as f64 / 1e6),
        };
        if self.nodes.is_empty() {
            format!("{} {span}", self.kind)
        } else {
            format!("{} nodes={:?} {span}", self.kind, self.nodes)
        }
    }
}

/// The last phase span a node entered (and, in a stalled run, never
/// progressed out of).
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StalledPhase {
    /// The node's dense index.
    pub node: u64,
    /// The phase label from [`Ctx::span`].
    ///
    /// [`Ctx::span`]: stabl_sim::Ctx::span
    pub phase: String,
    /// When the node entered it, microseconds.
    pub entered_us: u64,
}

/// Why a run stopped committing: the structured stall verdict.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LivenessPostMortem {
    /// The last commit instant, if anything ever committed.
    pub last_commit_us: Option<u64>,
    /// The stall instant the analysis anchors on (last commit, or 0 if
    /// nothing ever committed).
    pub stall_us: u64,
    /// Transactions still unresolved at the horizon.
    pub unresolved: u64,
    /// Clients that exhausted their retries.
    pub give_ups: u64,
    /// Per node, the last phase span entered — the span that never
    /// closed. Sorted by node. Empty when the trace recorded no phase
    /// marks (capture below `Events`).
    pub stalled_phases: Vec<StalledPhase>,
    /// Nodes down at the horizon: crashed and never restarted, or
    /// panicked. Sorted, deduplicated.
    pub affected_nodes: Vec<u64>,
    /// Fault windows still active at (or beginning after) the stall.
    pub active_faults: Vec<FaultDescription>,
    /// One-paragraph human-readable summary of the above.
    pub verdict: String,
}

/// The complete diagnosis of one run.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Diagnosis {
    /// The run label (typically `chain/scenario`).
    pub label: String,
    /// Capture level of the source trace.
    pub capture: String,
    /// The run horizon, microseconds.
    pub horizon_us: u64,
    /// Validator count.
    pub n: u64,
    /// Committed transaction count.
    pub committed: u64,
    /// Submitted transaction count.
    pub submitted: u64,
    /// `true` if the harness declared liveness lost.
    pub lost_liveness: bool,
    /// Events evicted from the recorder ring (under-counted timeline).
    pub dropped_events: u64,
    /// Free-text trace lines evicted from the kernel ring.
    pub dropped_trace_lines: u64,
    /// Speculative (Block-STM) transaction re-executions, stale plus
    /// conflict-driven. Zero under the paper's contention-free workload.
    pub speculative_reexecutions: u64,
    /// Within-block read-write conflicts the execution engine aborted
    /// and re-ran.
    pub conflict_aborts: u64,
    /// Transactions rejected because an admission pool was full.
    pub pool_evictions: u64,
    /// Transactions rejected by first-arrival-wins nonce-slot conflicts.
    pub pool_replacements: u64,
    /// Every fault the schedule injects (for timeline shading).
    pub faults: Vec<FaultDescription>,
    /// Latency attribution — present when at least one tx committed.
    pub blame: Option<BlameTable>,
    /// Stall analysis — present when the run lost liveness or never
    /// committed anything.
    pub post_mortem: Option<LivenessPostMortem>,
}

fn fault_kind(action: &FaultAction) -> &'static str {
    match action {
        FaultAction::Crash { .. } => "crash",
        FaultAction::Transient { .. } => "transient",
        FaultAction::Partition { .. } => "partition",
        FaultAction::Slowdown { .. } => "slowdown",
        FaultAction::LinkDegrade { .. } => "link_degrade",
    }
}

/// The `[at, until)` interval during which `action` can affect a run
/// (a crash stays active to the end of time).
fn active_interval(action: &FaultAction) -> (u64, u64) {
    match action.window() {
        Some(w) => (w.at.as_micros(), w.until.as_micros()),
        None => (action.start().as_micros(), u64::MAX),
    }
}

fn overlaps(interval: (u64, u64), submit_us: u64, commit_us: u64) -> bool {
    let (at, until) = interval;
    at <= commit_us && submit_us < until
}

/// Builds the latency blame table. Returns `None` when nothing
/// committed (the post-mortem takes over).
fn blame_table(config: &RunConfig, result: &RunResult, trace: &RunTrace) -> Option<BlameTable> {
    if result.latencies.is_empty() {
        return None;
    }

    // Event streams the per-tx attribution binary-searches into.
    let mut retry_times: Vec<u64> = Vec::new();
    let mut restart_times: Vec<u64> = Vec::new();
    for timed in &trace.events {
        match timed.event {
            SimEvent::ClientRetried { .. } => retry_times.push(timed.time.as_micros()),
            SimEvent::NodeRestarted { .. } => restart_times.push(timed.time.as_micros()),
            _ => {}
        }
    }
    retry_times.sort_unstable();
    restart_times.sort_unstable();
    let any_in = |times: &[u64], lo: u64, hi: u64| {
        let start = times.partition_point(|&t| t < lo);
        start < times.len() && times[start] <= hi
    };

    let faults: Vec<(FaultDescription, (u64, u64))> = config
        .faults
        .actions()
        .iter()
        .map(|a| (FaultDescription::from_action(a), active_interval(a)))
        .collect();
    let byzantine_label = byzantine_cause(&config.byzantine);

    let mut overall = QuantileSketch::new();
    let mut causes: BTreeMap<(String, String), (u64, QuantileSketch)> = BTreeMap::new();
    let mut txs: Vec<TxBlame> = Vec::with_capacity(result.latencies.len());

    for (i, (&latency, &commit)) in result
        .latencies
        .iter()
        .zip(result.commit_times.iter())
        .enumerate()
    {
        let commit_us = commit.as_micros();
        let latency_us = (latency * 1e6).round() as u64;
        let submit_us = commit_us.saturating_sub(latency_us);
        overall.record_secs(latency);

        let mut tx_causes: Vec<(String, String)> = Vec::new();
        for (description, interval) in &faults {
            if overlaps(*interval, submit_us, commit_us) {
                tx_causes.push((description.kind.clone(), description.label()));
            }
        }
        if any_in(&retry_times, submit_us, commit_us) {
            tx_causes.push((
                "retry_backoff".to_owned(),
                "client retries in flight".to_owned(),
            ));
        }
        if any_in(&restart_times, submit_us, commit_us) {
            tx_causes.push((
                "recovery_catchup".to_owned(),
                "restarted node catching up".to_owned(),
            ));
        }
        if let Some(label) = &byzantine_label {
            tx_causes.push(("byzantine".to_owned(), label.clone()));
        }
        if tx_causes.is_empty() {
            tx_causes.push(("baseline".to_owned(), "no adverse condition".to_owned()));
        }

        for key in &tx_causes {
            let slot = causes
                .entry(key.clone())
                .or_insert_with(|| (0, QuantileSketch::new()));
            slot.0 += 1;
            slot.1.record_secs(latency);
        }
        txs.push(TxBlame {
            index: i as u64,
            submit_us,
            commit_us,
            latency_secs: latency,
            causes: tx_causes.into_iter().map(|(_, label)| label).collect(),
        });
    }

    // Slowest first; ties resolve by submission order for stable bytes.
    txs.sort_by(|a, b| {
        b.latency_secs
            .total_cmp(&a.latency_secs)
            .then(a.index.cmp(&b.index))
    });
    txs.truncate(SLOWEST_TXS);

    let mean = crate::metrics::LatencyHistogram::mean_secs;
    Some(BlameTable {
        commits: result.latencies.len() as u64,
        overall,
        stages: StageSplit {
            queueing_mean_secs: mean(&result.stages.queueing),
            consensus_mean_secs: mean(&result.stages.consensus),
            delivery_mean_secs: mean(&result.stages.delivery),
        },
        causes: causes
            .into_iter()
            .map(|((category, cause), (commits, latency))| BlameCause {
                category,
                cause,
                commits,
                latency,
            })
            .collect(),
        slowest: txs,
    })
}

fn byzantine_cause(spec: &ByzantineSpec) -> Option<String> {
    if !spec.is_active() {
        return None;
    }
    let nodes: Vec<u64> = spec.nodes().iter().map(|n| n.index() as u64).collect();
    Some(format!("byzantine nodes={nodes:?} ({:?})", spec.behavior()))
}

/// Builds the stall post-mortem. Returns `None` for runs that kept
/// committing to the end.
fn post_mortem(
    config: &RunConfig,
    result: &RunResult,
    trace: &RunTrace,
) -> Option<LivenessPostMortem> {
    if !result.lost_liveness && !result.latencies.is_empty() {
        return None;
    }

    let last_commit_us = result.commit_times.iter().map(|t| t.as_micros()).max();
    let stall_us = last_commit_us.unwrap_or(0);

    // Last phase mark per node and crash/restart balance, one pass.
    let mut last_phase: BTreeMap<u64, (u64, String)> = BTreeMap::new();
    let mut down: BTreeMap<u64, bool> = BTreeMap::new(); // node -> currently down
    for timed in &trace.events {
        match &timed.event {
            SimEvent::Phase { node, phase } => {
                last_phase.insert(
                    node.index() as u64,
                    (timed.time.as_micros(), (*phase).to_owned()),
                );
            }
            SimEvent::NodeCrashed { node } => {
                down.insert(node.index() as u64, true);
            }
            SimEvent::NodeRestarted { node } => {
                down.insert(node.index() as u64, false);
            }
            SimEvent::NodePanicked { node } => {
                down.insert(node.index() as u64, true);
            }
            _ => {}
        }
    }
    // Panics are part of the deterministic result, so they survive even
    // capture-off runs.
    for panic in &result.panics {
        down.insert(panic.node.index() as u64, true);
    }

    let stalled_phases: Vec<StalledPhase> = last_phase
        .into_iter()
        .map(|(node, (entered_us, phase))| StalledPhase {
            node,
            phase,
            entered_us,
        })
        .collect();
    let affected_nodes: Vec<u64> = down
        .into_iter()
        .filter_map(|(node, is_down)| is_down.then_some(node))
        .collect();

    let active_faults: Vec<FaultDescription> = config
        .faults
        .actions()
        .iter()
        .filter(|a| active_interval(a).1 > stall_us)
        .map(FaultDescription::from_action)
        .collect();

    let verdict = render_verdict(
        result,
        last_commit_us,
        &stalled_phases,
        &affected_nodes,
        &active_faults,
        byzantine_cause(&config.byzantine),
        stall_us,
    );

    Some(LivenessPostMortem {
        last_commit_us,
        stall_us,
        unresolved: result.unresolved as u64,
        give_ups: result.give_ups,
        stalled_phases,
        affected_nodes,
        active_faults,
        verdict,
    })
}

fn render_verdict(
    result: &RunResult,
    last_commit_us: Option<u64>,
    stalled_phases: &[StalledPhase],
    affected_nodes: &[u64],
    active_faults: &[FaultDescription],
    byzantine: Option<String>,
    stall_us: u64,
) -> String {
    let mut out = match last_commit_us {
        Some(t) => format!(
            "liveness lost: last commit at {:.3}s, {} of {} submitted transactions unresolved.",
            t as f64 / 1e6,
            result.unresolved,
            result.submitted
        ),
        None => format!(
            "liveness lost: nothing ever committed ({} transactions submitted).",
            result.submitted
        ),
    };
    if !affected_nodes.is_empty() {
        out.push_str(&format!(" Nodes down at the horizon: {affected_nodes:?}."));
    }
    if !active_faults.is_empty() {
        let labels: Vec<String> = active_faults.iter().map(FaultDescription::label).collect();
        out.push_str(&format!(
            " Fault windows active at or after the stall: {}.",
            labels.join("; ")
        ));
    }
    if let Some(label) = byzantine {
        out.push_str(&format!(" {label} throughout the run."));
    }
    // The spinning phase: the span entered latest and never left.
    if let Some(spinning) = stalled_phases
        .iter()
        .filter(|p| p.entered_us >= stall_us)
        .max_by_key(|p| (p.entered_us, p.node))
    {
        out.push_str(&format!(
            " Node {} was last seen entering phase \"{}\" at {:.3}s without progressing to a commit.",
            spinning.node,
            spinning.phase,
            spinning.entered_us as f64 / 1e6
        ));
    }
    if result.give_ups > 0 {
        out.push_str(&format!(
            " {} client submissions exhausted their retries.",
            result.give_ups
        ));
    }
    out
}

/// One diagnosed run: the compact [`Diagnosis`] verdict artifact plus
/// the bulky [`MetricsTimeline`] (exported separately as JSONL so the
/// committed diagnosis JSON stays small).
#[derive(Clone, Debug, PartialEq)]
pub struct DiagnosedRun {
    /// Blame, post-mortem and run headline — the committed artifact.
    pub diagnosis: Diagnosis,
    /// The sampled metric frames.
    pub timeline: MetricsTimeline,
}

/// Diagnoses one run: metrics timeline, latency blame and (for stalled
/// runs) the liveness post-mortem.
///
/// Pure function of its inputs — same run artifacts, same bytes. The
/// blame and post-mortem layers degrade gracefully with the capture
/// level: below [`CaptureLevel::Events`] the event-derived signals
/// (retries, restarts, phase marks, gauges) are absent and attribution
/// falls back to the fault schedule alone.
///
/// [`CaptureLevel::Events`]: stabl_sim::CaptureLevel::Events
pub fn diagnose_run(
    label: &str,
    config: &RunConfig,
    result: &RunResult,
    trace: &RunTrace,
    cadence: SimDuration,
) -> DiagnosedRun {
    let diagnosis = Diagnosis {
        label: label.to_owned(),
        capture: trace.capture.name().to_owned(),
        horizon_us: trace.horizon.as_micros(),
        n: trace.n as u64,
        committed: result.latencies.len() as u64,
        submitted: result.submitted as u64,
        lost_liveness: result.lost_liveness,
        dropped_events: trace.dropped_events,
        dropped_trace_lines: result.stats.dropped_trace_lines,
        speculative_reexecutions: result.stats.speculative_reexecutions,
        conflict_aborts: result.stats.conflict_aborts,
        pool_evictions: result.stats.pool_evictions,
        pool_replacements: result.stats.pool_replacements,
        faults: config
            .faults
            .actions()
            .iter()
            .map(FaultDescription::from_action)
            .collect(),
        blame: blame_table(config, result, trace),
        post_mortem: post_mortem(config, result, trace),
    };
    DiagnosedRun {
        diagnosis,
        timeline: MetricsTimeline::from_trace(trace, cadence),
    }
}

/// Serialises the timeline as one frame per JSON line.
#[expect(
    clippy::expect_used,
    reason = "in-memory serialisation of a derived struct is infallible and a Result signature would push an impossible branch onto every exporter caller"
)]
pub fn timeline_jsonl(timeline: &MetricsTimeline) -> String {
    let mut out = String::new();
    for frame in &timeline.frames {
        out.push_str(&serde_json::to_string(frame).expect("frame serialisation cannot fail"));
        out.push('\n');
    }
    out
}

/// Serialises the whole diagnosis as pretty-printed JSON (newline
/// terminated).
#[expect(
    clippy::expect_used,
    reason = "in-memory serialisation of a derived struct is infallible and a Result signature would push an impossible branch onto every exporter caller"
)]
pub fn diagnosis_json(diagnosis: &Diagnosis) -> String {
    let mut out = serde_json::to_string_pretty(diagnosis).expect("serialisation cannot fail");
    out.push('\n');
    out
}

// ---------------------------------------------------------------------
// HTML timeline report
// ---------------------------------------------------------------------

const SVG_W: f64 = 860.0;
const SVG_H: f64 = 72.0;

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// One `<svg>` sparkline of a metric across the timeline: per frame the
/// maximum sample over all nodes, with fault windows shaded behind it.
fn sparkline(timeline: &MetricsTimeline, metric: &str, faults: &[FaultDescription]) -> String {
    let horizon = timeline.horizon_us.max(1) as f64;
    let x_of = |t_us: u64| (t_us as f64 / horizon * SVG_W).min(SVG_W);

    let mut points: Vec<(u64, u64)> = Vec::new(); // (mid_us, value)
    let mut peak = 0u64;
    for frame in &timeline.frames {
        let frame_max = frame
            .gauges
            .iter()
            .filter(|g| g.metric == metric)
            .map(|g| g.values.max_micros)
            .max();
        if let Some(v) = frame_max {
            points.push(((frame.start_us + frame.end_us) / 2, v));
            peak = peak.max(v);
        }
    }
    let y_of = |v: u64| {
        let scale = peak.max(1) as f64;
        SVG_H - 4.0 - (v as f64 / scale) * (SVG_H - 12.0)
    };

    let mut svg = format!(
        "<svg viewBox=\"0 0 {SVG_W} {SVG_H}\" width=\"{SVG_W}\" height=\"{SVG_H}\" \
         role=\"img\" aria-label=\"{}\">\n",
        esc(metric)
    );
    for fault in faults {
        let x0 = x_of(fault.at_us);
        let x1 = x_of(fault.until_us.unwrap_or(timeline.horizon_us));
        svg.push_str(&format!(
            "  <rect x=\"{x0:.1}\" y=\"0\" width=\"{:.1}\" height=\"{SVG_H}\" \
             class=\"fault fault-{}\"><title>{}</title></rect>\n",
            (x1 - x0).max(1.0),
            esc(&fault.kind),
            esc(&fault.label()),
        ));
    }
    if points.is_empty() {
        svg.push_str(&format!(
            "  <text x=\"8\" y=\"{:.1}\" class=\"empty\">no samples</text>\n",
            SVG_H / 2.0
        ));
    } else {
        let path: Vec<String> = points
            .iter()
            .map(|&(t, v)| format!("{:.1},{:.1}", x_of(t), y_of(v)))
            .collect();
        svg.push_str(&format!(
            "  <polyline fill=\"none\" class=\"series\" points=\"{}\"/>\n",
            path.join(" ")
        ));
    }
    svg.push_str(&format!(
        "  <text x=\"{:.1}\" y=\"12\" text-anchor=\"end\" class=\"peak\">peak {peak}</text>\n",
        SVG_W - 4.0
    ));
    svg.push_str("</svg>\n");
    svg
}

/// Renders the diagnosis as a self-contained HTML page: one sparkline
/// per gauge metric (fault windows shaded), the frame-level commit /
/// retry counts, the blame table and — for stalled runs — the
/// post-mortem verdict. No external assets, deterministic bytes.
pub fn html_report(run: &DiagnosedRun) -> String {
    let diagnosis = &run.diagnosis;
    let mut metrics: Vec<&str> = Vec::new();
    for frame in &run.timeline.frames {
        for gauge in &frame.gauges {
            if !metrics.contains(&gauge.metric.as_str()) {
                metrics.push(&gauge.metric);
            }
        }
    }
    metrics.sort_unstable();

    let mut html = String::new();
    html.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    html.push_str(&format!(
        "<title>stabl diagnosis — {}</title>\n",
        esc(&diagnosis.label)
    ));
    html.push_str(
        "<style>\n\
         body{font-family:system-ui,sans-serif;margin:2rem;max-width:60rem}\n\
         h1{font-size:1.4rem} h2{font-size:1.1rem;margin-top:2rem}\n\
         table{border-collapse:collapse;font-size:0.9rem}\n\
         td,th{border:1px solid #ccc;padding:0.25rem 0.6rem;text-align:left}\n\
         .series{stroke:#1f77b4;stroke-width:1.5}\n\
         .fault{opacity:0.18} .fault-crash{fill:#d62728} .fault-transient{fill:#ff7f0e}\n\
         .fault-partition{fill:#9467bd} .fault-slowdown{fill:#bcbd22}\n\
         .fault-link_degrade{fill:#8c564b}\n\
         .peak,.empty{font-size:10px;fill:#666}\n\
         .verdict{background:#fff3cd;border:1px solid #ffe69c;padding:0.8rem}\n\
         .warn{color:#b02a37;font-weight:600}\n\
         svg{display:block;background:#fafafa;border:1px solid #eee;margin:0.3rem 0 1rem}\n\
         </style>\n</head>\n<body>\n",
    );
    html.push_str(&format!(
        "<h1>stabl diagnosis — {}</h1>\n",
        esc(&diagnosis.label)
    ));
    html.push_str(&format!(
        "<p>{} nodes, horizon {:.1}s, capture <code>{}</code>: {} / {} submitted transactions \
         committed{}.</p>\n",
        diagnosis.n,
        diagnosis.horizon_us as f64 / 1e6,
        esc(&diagnosis.capture),
        diagnosis.committed,
        diagnosis.submitted,
        if diagnosis.lost_liveness {
            ", <strong class=\"warn\">liveness lost</strong>"
        } else {
            ""
        },
    ));
    if diagnosis.dropped_events > 0 {
        html.push_str(&format!(
            "<p class=\"warn\">warning: {} events were evicted from the recorder ring — the \
             earliest frames under-count.</p>\n",
            diagnosis.dropped_events
        ));
    }
    if diagnosis.dropped_trace_lines > 0 {
        html.push_str(&format!(
            "<p class=\"warn\">warning: {} free-text trace lines were dropped at the kernel \
             ring.</p>\n",
            diagnosis.dropped_trace_lines
        ));
    }
    let contention = diagnosis.speculative_reexecutions
        + diagnosis.conflict_aborts
        + diagnosis.pool_evictions
        + diagnosis.pool_replacements;
    if contention > 0 {
        html.push_str(&format!(
            "<h2>Contention</h2>\n<table>\n\
             <tr><th>counter</th><th>count</th></tr>\n\
             <tr><td>speculative re-executions</td><td>{}</td></tr>\n\
             <tr><td>conflict aborts</td><td>{}</td></tr>\n\
             <tr><td>pool evictions (full)</td><td>{}</td></tr>\n\
             <tr><td>pool replacements (nonce-slot conflicts)</td><td>{}</td></tr>\n\
             </table>\n",
            diagnosis.speculative_reexecutions,
            diagnosis.conflict_aborts,
            diagnosis.pool_evictions,
            diagnosis.pool_replacements,
        ));
    }

    if let Some(post_mortem) = &diagnosis.post_mortem {
        html.push_str("<h2>Liveness post-mortem</h2>\n");
        html.push_str(&format!(
            "<p class=\"verdict\">{}</p>\n",
            esc(&post_mortem.verdict)
        ));
        if !post_mortem.stalled_phases.is_empty() {
            html.push_str(
                "<table>\n<tr><th>node</th><th>last phase entered</th><th>at</th></tr>\n",
            );
            for phase in &post_mortem.stalled_phases {
                html.push_str(&format!(
                    "<tr><td>{}</td><td><code>{}</code></td><td>{:.3}s</td></tr>\n",
                    phase.node,
                    esc(&phase.phase),
                    phase.entered_us as f64 / 1e6
                ));
            }
            html.push_str("</table>\n");
        }
    }

    if let Some(blame) = &diagnosis.blame {
        html.push_str("<h2>Latency blame</h2>\n");
        html.push_str(&format!(
            "<p>{} commits; stage means: queueing {:.3}s, consensus {:.3}s, delivery \
             {:.3}s.</p>\n",
            blame.commits,
            blame.stages.queueing_mean_secs,
            blame.stages.consensus_mean_secs,
            blame.stages.delivery_mean_secs,
        ));
        html.push_str(
            "<table>\n<tr><th>cause</th><th>commits</th><th>p50</th><th>p99</th>\
             <th>max</th></tr>\n",
        );
        for cause in &blame.causes {
            html.push_str(&format!(
                "<tr><td>{}</td><td>{}</td><td>{:.3}s</td><td>{:.3}s</td><td>{:.3}s</td></tr>\n",
                esc(&cause.cause),
                cause.commits,
                cause.latency.quantile(0.5).unwrap_or(0.0),
                cause.latency.quantile(0.99).unwrap_or(0.0),
                cause.latency.max_secs().unwrap_or(0.0),
            ));
        }
        html.push_str("</table>\n");
        if !blame.slowest.is_empty() {
            html.push_str("<h2>Slowest transactions</h2>\n");
            html.push_str(
                "<table>\n<tr><th>#</th><th>submitted</th><th>committed</th>\
                 <th>latency</th><th>causes</th></tr>\n",
            );
            for tx in &blame.slowest {
                html.push_str(&format!(
                    "<tr><td>{}</td><td>{:.3}s</td><td>{:.3}s</td><td>{:.3}s</td>\
                     <td>{}</td></tr>\n",
                    tx.index,
                    tx.submit_us as f64 / 1e6,
                    tx.commit_us as f64 / 1e6,
                    tx.latency_secs,
                    esc(&tx.causes.join("; ")),
                ));
            }
            html.push_str("</table>\n");
        }
    }

    html.push_str("<h2>Gauge timelines</h2>\n");
    if metrics.is_empty() {
        html.push_str(
            "<p>No gauge samples were recorded (capture below <code>events</code>, \
                       or the protocol emits none).</p>\n",
        );
    }
    for metric in metrics {
        html.push_str(&format!("<h3><code>{}</code></h3>\n", esc(metric)));
        html.push_str(&sparkline(&run.timeline, metric, &diagnosis.faults));
    }

    // Commit / retry activity per frame as a final sparkline-style table.
    html.push_str("<h2>Frame activity</h2>\n");
    html.push_str(
        "<table>\n<tr><th>frame</th><th>commits</th><th>submits</th><th>retries</th>\
         <th>give-ups</th><th>crashes</th><th>restarts</th></tr>\n",
    );
    for frame in &run.timeline.frames {
        if frame.counts.total() == 0 {
            continue;
        }
        html.push_str(&format!(
            "<tr><td>{:.1}s–{:.1}s</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td>{}</td></tr>\n",
            frame.start_us as f64 / 1e6,
            frame.end_us as f64 / 1e6,
            frame.counts.commits,
            frame.counts.submits,
            frame.counts.retries,
            frame.counts.give_ups,
            frame.counts.crashes,
            frame.counts.restarts,
        ));
    }
    html.push_str("</table>\n</body>\n</html>\n");
    html
}

/// Convenience: diagnose a schedule of `FaultSchedule` description
/// labels without running anything (used by reports that only have the
/// config).
pub fn describe_schedule(schedule: &FaultSchedule) -> Vec<String> {
    schedule
        .actions()
        .iter()
        .map(|a| FaultDescription::from_action(a).label())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::RunTrace;
    use stabl_sim::{CaptureLevel, EventCounters, NodeId, SimTime, TimedEvent};

    fn gauge(t_ms: u64, seq: u64, node: u32, metric: &'static str, value: u64) -> TimedEvent {
        TimedEvent {
            time: SimTime::from_millis(t_ms),
            seq,
            event: SimEvent::Gauge {
                node: NodeId::new(node),
                metric,
                value,
            },
        }
    }

    fn timed(t_ms: u64, seq: u64, event: SimEvent) -> TimedEvent {
        TimedEvent {
            time: SimTime::from_millis(t_ms),
            seq,
            event,
        }
    }

    fn trace_with(events: Vec<TimedEvent>) -> RunTrace {
        RunTrace {
            capture: CaptureLevel::Events,
            n: 3,
            horizon: SimTime::from_secs(10),
            events,
            counters: EventCounters::default(),
            dropped_events: 0,
        }
    }

    #[test]
    fn timeline_buckets_events_by_cadence() {
        let trace = trace_with(vec![
            gauge(500, 0, 0, "mempool_depth", 4),
            gauge(1_500, 1, 0, "mempool_depth", 7),
            timed(
                1_600,
                2,
                SimEvent::Committed {
                    node: NodeId::new(1),
                },
            ),
        ]);
        let timeline = MetricsTimeline::from_trace(&trace, SimDuration::from_secs(1));
        assert_eq!(timeline.frames.len(), 11, "10 s horizon, 1 s cadence");
        assert_eq!(timeline.frames[0].counts.gauge_samples, 1);
        assert_eq!(timeline.frames[1].counts.gauge_samples, 1);
        assert_eq!(timeline.frames[1].counts.commits, 1);
        let series = &timeline.frames[1].gauges[0];
        assert_eq!(series.metric, "mempool_depth");
        assert_eq!(series.last_value, 7);
    }

    #[test]
    fn timeline_merge_is_associative_and_commutative() {
        let make = |seed: u64| {
            let events: Vec<TimedEvent> = (0..20)
                .map(|i| {
                    gauge(
                        (seed * 137 + i * 433) % 10_000,
                        i,
                        (i % 3) as u32,
                        if i % 2 == 0 { "round" } else { "mempool_depth" },
                        seed + i,
                    )
                })
                .collect();
            MetricsTimeline::from_trace(&trace_with(events), SimDuration::from_secs(1))
        };
        let (a, b, c) = (make(1), make(2), make(3));

        let mut ab_c = a.clone();
        ab_c.merge(&b).expect("shape");
        ab_c.merge(&c).expect("shape");
        let mut bc = b.clone();
        bc.merge(&c).expect("shape");
        let mut a_bc = a.clone();
        a_bc.merge(&bc).expect("shape");
        assert_eq!(ab_c, a_bc, "merge is associative");

        let mut ba = b.clone();
        ba.merge(&a).expect("shape");
        let mut ab = a.clone();
        ab.merge(&b).expect("shape");
        assert_eq!(ab, ba, "merge is commutative");
    }

    #[test]
    fn timeline_merge_rejects_shape_mismatch() {
        let a = MetricsTimeline::from_trace(&trace_with(vec![]), SimDuration::from_secs(1));
        let mut b = a.clone();
        b.cadence_us = 123;
        assert!(b.merge(&a).is_err());
    }

    fn stalled_result() -> RunResult {
        RunResult {
            latencies: vec![],
            commit_times: vec![],
            submitted: 40,
            unresolved: 40,
            lost_liveness: true,
            panics: vec![],
            stats: Default::default(),
            retries: 0,
            give_ups: 3,
            horizon: SimTime::from_secs(10),
            stages: Default::default(),
        }
    }

    #[test]
    fn post_mortem_names_phase_nodes_and_fault() {
        let mut config = RunConfig::quick(7);
        config.faults = FaultSchedule::new(vec![FaultAction::Crash {
            nodes: vec![NodeId::new(1), NodeId::new(2)],
            at: SimTime::from_secs(2),
        }]);
        let trace = trace_with(vec![
            timed(
                2_000,
                0,
                SimEvent::NodeCrashed {
                    node: NodeId::new(1),
                },
            ),
            timed(
                2_000,
                1,
                SimEvent::NodeCrashed {
                    node: NodeId::new(2),
                },
            ),
            timed(
                2_500,
                2,
                SimEvent::Phase {
                    node: NodeId::new(0),
                    phase: "ba-round",
                },
            ),
        ]);
        let run = diagnose_run(
            "test/crash",
            &config,
            &stalled_result(),
            &trace,
            DEFAULT_CADENCE,
        );
        let post_mortem = run.diagnosis.post_mortem.expect("stalled run");
        assert_eq!(post_mortem.affected_nodes, vec![1, 2]);
        assert_eq!(post_mortem.active_faults.len(), 1);
        assert_eq!(post_mortem.active_faults[0].kind, "crash");
        assert_eq!(post_mortem.stalled_phases.len(), 1);
        assert_eq!(post_mortem.stalled_phases[0].phase, "ba-round");
        assert!(post_mortem.verdict.contains("nothing ever committed"));
        assert!(post_mortem.verdict.contains("ba-round"));
        assert!(run.diagnosis.blame.is_none(), "no commits, no blame table");
    }

    #[test]
    fn blame_attributes_fault_overlap_and_baseline() {
        let mut config = RunConfig::quick(7);
        config.faults = FaultSchedule::new(vec![FaultAction::Partition {
            nodes: vec![NodeId::new(0)],
            at: SimTime::from_secs(4),
            heal_at: SimTime::from_secs(6),
        }]);
        let result = RunResult {
            // One tx entirely before the partition, one spanning it.
            latencies: vec![0.5, 3.0],
            commit_times: vec![SimTime::from_secs(1), SimTime::from_secs(7)],
            submitted: 2,
            unresolved: 0,
            lost_liveness: false,
            panics: vec![],
            stats: Default::default(),
            retries: 0,
            give_ups: 0,
            horizon: SimTime::from_secs(10),
            stages: Default::default(),
        };
        let trace = trace_with(vec![]);
        let run = diagnose_run("test/partition", &config, &result, &trace, DEFAULT_CADENCE);
        let blame = run.diagnosis.blame.expect("committed txs");
        assert!(
            run.diagnosis.post_mortem.is_none(),
            "live run, no post-mortem"
        );
        assert_eq!(blame.commits, 2);
        let categories: Vec<&str> = blame.causes.iter().map(|c| c.category.as_str()).collect();
        assert_eq!(categories, vec!["baseline", "partition"]);
        assert_eq!(blame.causes[0].commits, 1, "fast tx is baseline");
        assert_eq!(blame.causes[1].commits, 1, "slow tx blames the partition");
        assert_eq!(blame.slowest[0].latency_secs, 3.0, "slowest first");
        assert!(blame.slowest[0].causes[0].contains("partition"));
    }

    #[test]
    fn retry_events_become_a_blame_cause() {
        let config = RunConfig::quick(7);
        let result = RunResult {
            latencies: vec![2.0],
            commit_times: vec![SimTime::from_secs(3)],
            submitted: 1,
            unresolved: 0,
            lost_liveness: false,
            panics: vec![],
            stats: Default::default(),
            retries: 1,
            give_ups: 0,
            horizon: SimTime::from_secs(10),
            stages: Default::default(),
        };
        let trace = trace_with(vec![timed(
            2_000,
            0,
            SimEvent::ClientRetried {
                client: 0,
                node: NodeId::new(1),
            },
        )]);
        let blame = diagnose_run("test/retry", &config, &result, &trace, DEFAULT_CADENCE)
            .diagnosis
            .blame
            .expect("committed");
        assert_eq!(blame.causes.len(), 1);
        assert_eq!(blame.causes[0].category, "retry_backoff");
    }

    #[test]
    fn exporters_are_deterministic() {
        let mut config = RunConfig::quick(7);
        config.faults = FaultSchedule::new(vec![FaultAction::Transient {
            nodes: vec![NodeId::new(2)],
            at: SimTime::from_secs(3),
            recover_at: SimTime::from_secs(5),
        }]);
        let trace = trace_with(vec![
            gauge(500, 0, 0, "round", 1),
            gauge(4_500, 1, 0, "round", 3),
        ]);
        let run = diagnose_run(
            "test/deterministic",
            &config,
            &stalled_result(),
            &trace,
            DEFAULT_CADENCE,
        );
        assert_eq!(
            diagnosis_json(&run.diagnosis),
            diagnosis_json(&run.diagnosis)
        );
        let html = html_report(&run);
        assert_eq!(html, html_report(&run));
        assert!(html.contains("<svg"), "gauge sparkline rendered");
        assert!(html.contains("fault-transient"), "fault window shaded");
        assert!(html.contains("liveness lost"));
        let jsonl = timeline_jsonl(&run.timeline);
        assert_eq!(jsonl.lines().count(), run.timeline.frames.len());
    }

    #[test]
    fn diagnosis_roundtrips_through_serde() {
        let config = RunConfig::quick(7);
        let trace = trace_with(vec![gauge(500, 0, 1, "mempool_depth", 9)]);
        let run = diagnose_run(
            "test/serde",
            &config,
            &stalled_result(),
            &trace,
            DEFAULT_CADENCE,
        );
        let json = serde_json::to_string(&run.diagnosis).expect("serialise");
        let back: Diagnosis = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back, run.diagnosis);
        let json = serde_json::to_string(&run.timeline).expect("serialise timeline");
        let back: MetricsTimeline = serde_json::from_str(&json).expect("deserialise timeline");
        assert_eq!(back, run.timeline);
    }
}
