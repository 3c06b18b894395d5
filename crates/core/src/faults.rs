//! Composable fault schedules: what Stabl's observer processes inject
//! and when.
//!
//! Terminology follows the paper's Table 1:
//!
//! * **Crash** — a node is halted and never restarted during the
//!   experiment (the observer kills the blockchain process).
//! * **Transient failure** — a node is halted and later restarted with
//!   the same identity.
//! * **Partition** — a communication failure between subsets of nodes
//!   (the observer installs netfilter drop rules, later removed).
//!
//! A [`FaultSchedule`] is an ordered list of timed [`FaultAction`]s:
//! each named scenario is a one-action schedule
//! ([`FaultSchedule::crash`], [`FaultSchedule::transient`], …), and
//! message-level degradation ([`FaultAction::LinkDegrade`]), slowdowns
//! and whole-node faults compose in a single run — the combinations
//! real outages are made of. Validation returns a typed [`FaultError`]
//! (use [`FaultSchedule::apply`]); the panicking
//! [`FaultSchedule::schedule`] wrapper is for callers that treat an
//! invalid schedule as a bug.
//!
//! `f` denotes the number of failures injected; `t_B` the maximum number
//! of failures blockchain `B` claims to tolerate; `n` the network size.

use std::collections::BTreeSet;
use std::fmt;

use stabl_sim::{LinkFault, NodeId, PartitionRule, Protocol, SimDuration, SimTime, Simulation};

/// Why a fault schedule failed validation.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultError {
    /// A fault's end time precedes its start time. `what` is the
    /// human-readable description of the inversion.
    InvertedWindow {
        /// Which inversion (e.g. "recovery precedes the failure").
        what: &'static str,
        /// The window start.
        start: SimTime,
        /// The (inverted) window end.
        end: SimTime,
    },
    /// A victim node id does not exist in the simulated network.
    VictimOutOfRange {
        /// The offending node.
        node: NodeId,
        /// The network size.
        n: usize,
    },
    /// The same node is targeted by more than one action (or twice by
    /// one action) — ambiguous schedules are rejected rather than
    /// silently overlapped.
    DuplicateVictim {
        /// The node named more than once.
        node: NodeId,
    },
    /// A link-fault probability lies outside `[0, 1]`.
    InvalidProbability {
        /// Which probability ("drop", "duplicate" or "reorder").
        what: &'static str,
        /// The offending value.
        p: f64,
    },
    /// A fault's window has zero length: it starts and ends at the same
    /// instant, so it could never engage. Hand-written schedules never
    /// do this, but search-generated ones would silently waste
    /// evaluation budget on such no-ops, so they are rejected.
    EmptyWindow {
        /// Which window (e.g. "transient outage").
        what: &'static str,
        /// The degenerate instant.
        at: SimTime,
    },
    /// An action starts at or past the run horizon (or its window ends
    /// past it): it could never engage (or never lift) inside the run.
    /// Only [`FaultSchedule::validate_within`] checks this — plain
    /// [`FaultSchedule::validate`] has no horizon to check against.
    OutOfHorizon {
        /// Which mark (e.g. "crash", "partition heal").
        what: &'static str,
        /// The offending instant.
        at: SimTime,
        /// The run horizon.
        horizon: SimTime,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::InvertedWindow { what, start, end } => {
                write!(f, "{what} (window {start}..{end} is inverted)")
            }
            FaultError::VictimOutOfRange { node, n } => {
                write!(f, "victim {node} outside the {n}-node network")
            }
            FaultError::DuplicateVictim { node } => {
                write!(f, "victim {node} appears in more than one fault action")
            }
            FaultError::InvalidProbability { what, p } => {
                write!(f, "link-fault {what} probability {p} outside [0, 1]")
            }
            FaultError::EmptyWindow { what, at } => {
                write!(f, "{what} window at {at} has zero length")
            }
            FaultError::OutOfHorizon { what, at, horizon } => {
                write!(f, "{what} at {at} lies outside the {horizon} run horizon")
            }
        }
    }
}

/// A half-open time window `[at, until)` a fault is active in.
///
/// The one place window arithmetic lives: both the hand-written
/// composed schedules (`ext_chaos`) and the adversary search's genome
/// operators build their windows through this type instead of repeating
/// the `quarter = (until - at) / 4` integer arithmetic inline.
///
/// # Examples
///
/// ```
/// use stabl::FaultWindow;
/// use stabl_sim::SimTime;
///
/// let w = FaultWindow::new(SimTime::from_secs(10), SimTime::from_secs(30));
/// // The second quarter of the window:
/// let flap = w.slice(1, 4);
/// assert_eq!(flap.at, SimTime::from_secs(15));
/// assert_eq!(flap.until, SimTime::from_secs(20));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultWindow {
    /// Window start (inclusive).
    pub at: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
}

impl FaultWindow {
    /// A window spanning `[at, until)`. No validation happens here;
    /// degenerate windows are rejected by [`FaultSchedule::validate`].
    pub fn new(at: SimTime, until: SimTime) -> FaultWindow {
        FaultWindow { at, until }
    }

    /// The window length (zero if inverted).
    pub fn duration(&self) -> SimDuration {
        if self.until <= self.at {
            return SimDuration::ZERO;
        }
        self.until - self.at
    }

    /// `true` if the window selects no time at all (`until <= at`).
    pub fn is_degenerate(&self) -> bool {
        self.until <= self.at
    }

    /// Slice `i` of `k` equal parts (integer microseconds; the final
    /// slice absorbs the division remainder so `slice(k - 1, k)` always
    /// ends exactly at `until`).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or `i >= k`.
    pub fn slice(&self, i: usize, k: usize) -> FaultWindow {
        assert!(k > 0 && i < k, "slice {i} of {k} is out of range");
        let part = self.duration().as_micros() / k as u64;
        let start = self.at + SimDuration::from_micros(part * i as u64);
        let end = if i + 1 == k {
            self.until
        } else {
            self.at + SimDuration::from_micros(part * (i as u64 + 1))
        };
        FaultWindow::new(start, end)
    }
}

impl std::error::Error for FaultError {}

/// One timed fault injection inside a [`FaultSchedule`].
///
/// The first four variants are the whole-node faults of the paper's
/// scenarios plus slowdowns; `LinkDegrade` adds the message-level dimension (probabilistic loss, duplication, reordering
/// and asymmetric partitions — see [`LinkFault`]).
#[derive(Clone, Debug, PartialEq)]
pub enum FaultAction {
    /// Crash `nodes` permanently at `at`.
    Crash {
        /// The victims.
        nodes: Vec<NodeId>,
        /// Injection time.
        at: SimTime,
    },
    /// Halt `nodes` at `at` and restart them at `recover_at`.
    Transient {
        /// The victims.
        nodes: Vec<NodeId>,
        /// Injection time.
        at: SimTime,
        /// Restart time.
        recover_at: SimTime,
    },
    /// Disconnect `nodes` from the rest of the network between `at` and
    /// `heal_at`.
    Partition {
        /// The isolated group.
        nodes: Vec<NodeId>,
        /// Partition start.
        at: SimTime,
        /// Partition end.
        heal_at: SimTime,
    },
    /// Slow `nodes` down between `at` and `until`.
    Slowdown {
        /// The slowed nodes.
        nodes: Vec<NodeId>,
        /// Extra outbound delay while slowed.
        extra: SimDuration,
        /// Slowdown start.
        at: SimTime,
        /// Slowdown end.
        until: SimTime,
    },
    /// Install a message-level link fault between `at` and `until`.
    LinkDegrade {
        /// The drop/duplicate/reorder rule.
        fault: LinkFault,
        /// Installation time.
        at: SimTime,
        /// Removal time.
        until: SimTime,
    },
}

impl FaultAction {
    /// The whole-node victims of this action (empty for `LinkDegrade`,
    /// whose targets are directed links, not nodes).
    pub fn victims(&self) -> &[NodeId] {
        match self {
            FaultAction::Crash { nodes, .. }
            | FaultAction::Transient { nodes, .. }
            | FaultAction::Partition { nodes, .. }
            | FaultAction::Slowdown { nodes, .. } => nodes,
            FaultAction::LinkDegrade { .. } => &[],
        }
    }

    /// Every node id this action references (victims, plus the link
    /// groups of a `LinkDegrade`) — used for range validation.
    fn referenced_nodes(&self) -> Vec<NodeId> {
        match self {
            FaultAction::LinkDegrade { fault, .. } => fault
                .from_group()
                .into_iter()
                .chain(fault.to_group())
                .flatten()
                .copied()
                .collect(),
            _ => self.victims().to_vec(),
        }
    }

    /// The injection instant: when the action first touches the run.
    pub fn start(&self) -> SimTime {
        match self {
            FaultAction::Crash { at, .. }
            | FaultAction::Transient { at, .. }
            | FaultAction::Partition { at, .. }
            | FaultAction::Slowdown { at, .. }
            | FaultAction::LinkDegrade { at, .. } => *at,
        }
    }

    /// The action's active window, `None` for a `Crash` (which has an
    /// injection instant but no end).
    pub fn window(&self) -> Option<FaultWindow> {
        match self {
            FaultAction::Crash { .. } => None,
            FaultAction::Transient { at, recover_at, .. } => {
                Some(FaultWindow::new(*at, *recover_at))
            }
            FaultAction::Partition { at, heal_at, .. } => Some(FaultWindow::new(*at, *heal_at)),
            FaultAction::Slowdown { at, until, .. }
            | FaultAction::LinkDegrade { at, until, .. } => Some(FaultWindow::new(*at, *until)),
        }
    }

    /// The same action re-timed to `window` (a `Crash` keeps only the
    /// window start). The one mutation the adversary search's
    /// perturb/tighten operators need.
    #[must_use]
    pub fn with_window(mut self, window: FaultWindow) -> FaultAction {
        match &mut self {
            FaultAction::Crash { at, .. } => *at = window.at,
            FaultAction::Transient { at, recover_at, .. } => {
                *at = window.at;
                *recover_at = window.until;
            }
            FaultAction::Partition { at, heal_at, .. } => {
                *at = window.at;
                *heal_at = window.until;
            }
            FaultAction::Slowdown { at, until, .. }
            | FaultAction::LinkDegrade { at, until, .. } => {
                *at = window.at;
                *until = window.until;
            }
        }
        self
    }

    /// The `what` labels for this action's window errors.
    fn window_label(&self) -> (&'static str, &'static str) {
        match self {
            FaultAction::Crash { .. } => ("crash", "crash"),
            FaultAction::Transient { .. } => ("transient outage", "recovery precedes the failure"),
            FaultAction::Partition { .. } => ("partition", "heal precedes the partition"),
            FaultAction::Slowdown { .. } => ("slowdown", "slowdown ends before it starts"),
            FaultAction::LinkDegrade { .. } => ("link fault", "link fault lifts before it starts"),
        }
    }

    fn validate(&self, n: usize) -> Result<(), FaultError> {
        for node in self.referenced_nodes() {
            if node.index() >= n {
                return Err(FaultError::VictimOutOfRange { node, n });
            }
        }
        let (what, inverted_what) = self.window_label();
        if let Some(window) = self.window() {
            if window.at > window.until {
                return Err(FaultError::InvertedWindow {
                    what: inverted_what,
                    start: window.at,
                    end: window.until,
                });
            }
            if window.at == window.until {
                return Err(FaultError::EmptyWindow {
                    what,
                    at: window.at,
                });
            }
        }
        if let FaultAction::LinkDegrade { fault, .. } = self {
            for (what, p) in [
                ("drop", fault.drop_p()),
                ("duplicate", fault.dup_p()),
                ("reorder", fault.reorder_p()),
            ] {
                if !(0.0..=1.0).contains(&p) {
                    return Err(FaultError::InvalidProbability { what, p });
                }
            }
        }
        Ok(())
    }

    /// Checks the action's marks against a run horizon: every action
    /// must start strictly before the horizon, and windowed actions
    /// must end at or before it (a window that outlives the run could
    /// never lift, and a start past the horizon never engages).
    fn validate_horizon(&self, horizon: SimTime) -> Result<(), FaultError> {
        let (what, _) = self.window_label();
        if self.start() >= horizon {
            return Err(FaultError::OutOfHorizon {
                what,
                at: self.start(),
                horizon,
            });
        }
        if let Some(window) = self.window() {
            if window.until > horizon {
                return Err(FaultError::OutOfHorizon {
                    what,
                    at: window.until,
                    horizon,
                });
            }
        }
        Ok(())
    }

    fn schedule_on<P: Protocol>(&self, sim: &mut Simulation<P>) {
        let n = sim.n();
        match self {
            FaultAction::Crash { nodes, at } => {
                for node in nodes {
                    sim.schedule_crash(*at, *node);
                }
            }
            FaultAction::Transient {
                nodes,
                at,
                recover_at,
            } => {
                for node in nodes {
                    sim.schedule_crash(*at, *node);
                    sim.schedule_restart(*recover_at, *node);
                }
            }
            FaultAction::Partition { nodes, at, heal_at } => {
                let rule = PartitionRule::isolate(nodes.iter().copied(), n);
                sim.schedule_partition(*at, *heal_at, rule);
            }
            FaultAction::Slowdown {
                nodes,
                extra,
                at,
                until,
            } => {
                for node in nodes {
                    sim.schedule_slowdown(*at, *until, *node, *extra);
                }
            }
            FaultAction::LinkDegrade { fault, at, until } => {
                sim.schedule_link_fault(*at, *until, fault.clone());
            }
        }
    }
}

/// An ordered list of timed [`FaultAction`]s injected into one run.
///
/// Any number of whole-node, link-level and slowdown faults compose in
/// one schedule; each named scenario has its own constructor
/// ([`FaultSchedule::crash`], [`FaultSchedule::transient`], …).
///
/// # Examples
///
/// ```
/// use stabl::{FaultAction, FaultSchedule};
/// use stabl_sim::{LinkFault, NodeId, SimDuration, SimTime};
///
/// // 5 % loss all run long, plus a flapping one-way partition.
/// let schedule = FaultSchedule::link_degrade(
///     LinkFault::all().with_drop(0.05),
///     SimTime::ZERO,
///     SimTime::from_secs(60),
/// )
/// .and(FaultAction::LinkDegrade {
///     fault: LinkFault::sever([NodeId::new(9)], [NodeId::new(0)]),
///     at: SimTime::from_secs(20),
///     until: SimTime::from_secs(30),
/// });
/// assert_eq!(schedule.actions().len(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultSchedule {
    actions: Vec<FaultAction>,
}

impl FaultSchedule {
    /// The empty schedule (the baseline).
    pub fn none() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// A schedule made of `actions`, in injection order.
    pub fn new(actions: Vec<FaultAction>) -> FaultSchedule {
        FaultSchedule { actions }
    }

    /// Crash `nodes` permanently at `at`.
    pub fn crash(nodes: Vec<NodeId>, at: SimTime) -> FaultSchedule {
        FaultSchedule::new(vec![FaultAction::Crash { nodes, at }])
    }

    /// Halt `nodes` at `at`, restart at `recover_at`.
    pub fn transient(nodes: Vec<NodeId>, at: SimTime, recover_at: SimTime) -> FaultSchedule {
        FaultSchedule::new(vec![FaultAction::Transient {
            nodes,
            at,
            recover_at,
        }])
    }

    /// Isolate `nodes` between `at` and `heal_at`.
    pub fn partition(nodes: Vec<NodeId>, at: SimTime, heal_at: SimTime) -> FaultSchedule {
        FaultSchedule::new(vec![FaultAction::Partition { nodes, at, heal_at }])
    }

    /// Slow `nodes` down between `at` and `until`: every message they
    /// send gains `extra` delay. A slow-but-correct node — the paper's
    /// §4 discussion of how a single slow node affects leader-based
    /// chains but not leaderless DBFT.
    pub fn slowdown(
        nodes: Vec<NodeId>,
        extra: SimDuration,
        at: SimTime,
        until: SimTime,
    ) -> FaultSchedule {
        FaultSchedule::new(vec![FaultAction::Slowdown {
            nodes,
            extra,
            at,
            until,
        }])
    }

    /// Install a message-level link fault between `at` and `until`.
    pub fn link_degrade(fault: LinkFault, at: SimTime, until: SimTime) -> FaultSchedule {
        FaultSchedule::new(vec![FaultAction::LinkDegrade { fault, at, until }])
    }

    /// Appends `action`, builder-style.
    #[must_use]
    pub fn and(mut self, action: FaultAction) -> FaultSchedule {
        self.actions.push(action);
        self
    }

    /// Appends `action` in place.
    pub fn push(&mut self, action: FaultAction) {
        self.actions.push(action);
    }

    /// The scheduled actions, in injection order.
    pub fn actions(&self) -> &[FaultAction] {
        &self.actions
    }

    /// `true` if the schedule injects nothing (the baseline).
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Every whole-node victim across all actions, in action order.
    pub fn victims(&self) -> Vec<NodeId> {
        self.actions
            .iter()
            .flat_map(|a| a.victims().iter().copied())
            .collect()
    }

    /// Checks the schedule against an `n`-node network without
    /// scheduling anything.
    ///
    /// # Errors
    ///
    /// [`FaultError::VictimOutOfRange`] for node ids ≥ `n`,
    /// [`FaultError::InvertedWindow`] for end-before-start windows,
    /// [`FaultError::EmptyWindow`] for zero-length windows,
    /// [`FaultError::InvalidProbability`] for out-of-range link-fault
    /// probabilities and [`FaultError::DuplicateVictim`] if a node is
    /// targeted by more than one action.
    pub fn validate(&self, n: usize) -> Result<(), FaultError> {
        for action in &self.actions {
            action.validate(n)?;
        }
        let mut seen = BTreeSet::new();
        for action in &self.actions {
            for node in action.victims() {
                if !seen.insert(*node) {
                    return Err(FaultError::DuplicateVictim { node: *node });
                }
            }
        }
        Ok(())
    }

    /// [`FaultSchedule::validate`] plus horizon bounds: every action
    /// must start strictly before `horizon` and every window must end at
    /// or before it. The adversary search validates its genomes through
    /// this so no evaluation budget is spent on actions that could never
    /// engage (or never lift) inside the run.
    ///
    /// # Errors
    ///
    /// Everything [`FaultSchedule::validate`] reports, plus
    /// [`FaultError::OutOfHorizon`] for marks outside `[0, horizon]`.
    pub fn validate_within(&self, n: usize, horizon: SimTime) -> Result<(), FaultError> {
        self.validate(n)?;
        for action in &self.actions {
            action.validate_horizon(horizon)?;
        }
        Ok(())
    }

    /// Validates and schedules every action on the simulation.
    ///
    /// # Errors
    ///
    /// See [`FaultSchedule::validate`]; on error nothing is scheduled.
    pub fn apply<P: Protocol>(&self, sim: &mut Simulation<P>) -> Result<(), FaultError> {
        self.validate(sim.n())?;
        for action in &self.actions {
            action.schedule_on(sim);
        }
        Ok(())
    }

    /// Panicking wrapper around [`FaultSchedule::apply`] for callers
    /// that treat an invalid schedule as a programming error.
    ///
    /// # Panics
    ///
    /// Panics with the [`FaultError`] message on an invalid schedule.
    #[expect(
        clippy::panic,
        reason = "documented panicking wrapper for callers that treat an invalid schedule as a bug; apply() is the typed-error path"
    )]
    pub fn schedule<P: Protocol>(&self, sim: &mut Simulation<P>) {
        self.apply(sim).unwrap_or_else(|e| panic!("{e}"));
    }
}

mod serde_impls {
    //! JSON (de)serialisation so campaign cache keys and artifacts can
    //! carry the full adversity configuration.

    use serde::{Content, DeError, Deserialize, Serialize};

    use super::{FaultAction, FaultSchedule};

    impl Serialize for FaultAction {
        fn to_content(&self) -> Content {
            let mut map: Vec<(String, Content)> = Vec::new();
            let kind = match self {
                FaultAction::Crash { nodes, at } => {
                    map.push(("nodes".to_owned(), nodes.to_content()));
                    map.push(("at".to_owned(), at.to_content()));
                    "crash"
                }
                FaultAction::Transient {
                    nodes,
                    at,
                    recover_at,
                } => {
                    map.push(("nodes".to_owned(), nodes.to_content()));
                    map.push(("at".to_owned(), at.to_content()));
                    map.push(("recover_at".to_owned(), recover_at.to_content()));
                    "transient"
                }
                FaultAction::Partition { nodes, at, heal_at } => {
                    map.push(("nodes".to_owned(), nodes.to_content()));
                    map.push(("at".to_owned(), at.to_content()));
                    map.push(("heal_at".to_owned(), heal_at.to_content()));
                    "partition"
                }
                FaultAction::Slowdown {
                    nodes,
                    extra,
                    at,
                    until,
                } => {
                    map.push(("nodes".to_owned(), nodes.to_content()));
                    map.push(("extra".to_owned(), extra.to_content()));
                    map.push(("at".to_owned(), at.to_content()));
                    map.push(("until".to_owned(), until.to_content()));
                    "slowdown"
                }
                FaultAction::LinkDegrade { fault, at, until } => {
                    map.push(("fault".to_owned(), fault.to_content()));
                    map.push(("at".to_owned(), at.to_content()));
                    map.push(("until".to_owned(), until.to_content()));
                    "link-degrade"
                }
            };
            map.insert(0, ("kind".to_owned(), Content::Str(kind.to_owned())));
            Content::Map(map)
        }
    }

    impl Deserialize for FaultAction {
        fn from_content(content: &Content) -> Result<FaultAction, DeError> {
            let kind: String = serde::__private::field(content, "kind")?;
            match kind.as_str() {
                "crash" => Ok(FaultAction::Crash {
                    nodes: serde::__private::field(content, "nodes")?,
                    at: serde::__private::field(content, "at")?,
                }),
                "transient" => Ok(FaultAction::Transient {
                    nodes: serde::__private::field(content, "nodes")?,
                    at: serde::__private::field(content, "at")?,
                    recover_at: serde::__private::field(content, "recover_at")?,
                }),
                "partition" => Ok(FaultAction::Partition {
                    nodes: serde::__private::field(content, "nodes")?,
                    at: serde::__private::field(content, "at")?,
                    heal_at: serde::__private::field(content, "heal_at")?,
                }),
                "slowdown" => Ok(FaultAction::Slowdown {
                    nodes: serde::__private::field(content, "nodes")?,
                    extra: serde::__private::field(content, "extra")?,
                    at: serde::__private::field(content, "at")?,
                    until: serde::__private::field(content, "until")?,
                }),
                "link-degrade" => Ok(FaultAction::LinkDegrade {
                    fault: serde::__private::field(content, "fault")?,
                    at: serde::__private::field(content, "at")?,
                    until: serde::__private::field(content, "until")?,
                }),
                other => Err(DeError::custom(format!("unknown fault action {other:?}"))),
            }
        }
    }

    impl Serialize for FaultSchedule {
        fn to_content(&self) -> Content {
            self.actions.to_content()
        }
    }

    impl Deserialize for FaultSchedule {
        fn from_content(content: &Content) -> Result<FaultSchedule, DeError> {
            Vec::<FaultAction>::from_content(content).map(FaultSchedule::new)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stabl_sim::{Ctx, NodeStatus};

    /// Minimal protocol for exercising fault scheduling.
    struct Idle;
    impl Protocol for Idle {
        type Msg = ();
        type Request = ();
        type Commit = ();
        type Timer = ();
        type Config = ();
        fn new(_: NodeId, _: usize, _: &(), _: &mut Ctx<'_, Self>) -> Self {
            Idle
        }
        fn on_message(&mut self, _: NodeId, _: (), _: &mut Ctx<'_, Self>) {}
        fn on_timer(&mut self, _: (), _: &mut Ctx<'_, Self>) {}
        fn on_request(&mut self, _: (), _: &mut Ctx<'_, Self>) {}
        fn on_restart(&mut self, _: &mut Ctx<'_, Self>) {}
    }

    fn nodes(v: &[u32]) -> Vec<NodeId> {
        v.iter().copied().map(NodeId::new).collect()
    }

    #[test]
    fn crash_plan_halts_permanently() {
        let mut sim = Simulation::<Idle>::new(4, 1, ());
        FaultSchedule::crash(nodes(&[2, 3]), SimTime::from_secs(1)).schedule(&mut sim);
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.status(NodeId::new(2)), NodeStatus::Crashed);
        assert_eq!(sim.status(NodeId::new(3)), NodeStatus::Crashed);
        assert_eq!(sim.status(NodeId::new(0)), NodeStatus::Running);
    }

    #[test]
    fn transient_plan_restarts() {
        let mut sim = Simulation::<Idle>::new(3, 1, ());
        FaultSchedule::transient(nodes(&[1]), SimTime::from_secs(1), SimTime::from_secs(2))
            .schedule(&mut sim);
        sim.run_until(SimTime::from_millis(1500));
        assert_eq!(sim.status(NodeId::new(1)), NodeStatus::Crashed);
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(sim.status(NodeId::new(1)), NodeStatus::Running);
    }

    #[test]
    fn partition_plan_installs_and_heals() {
        let mut sim = Simulation::<Idle>::new(4, 1, ());
        FaultSchedule::partition(nodes(&[0]), SimTime::from_secs(1), SimTime::from_secs(2))
            .schedule(&mut sim);
        sim.run_until(SimTime::from_millis(1500));
        assert_eq!(sim.network().active_rules(), 1);
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(sim.network().active_rules(), 0);
    }

    #[test]
    fn slowdown_plan_installs_and_expires() {
        let mut sim = Simulation::<Idle>::new(3, 1, ());
        FaultSchedule::slowdown(
            nodes(&[1]),
            SimDuration::from_millis(200),
            SimTime::from_secs(1),
            SimTime::from_secs(2),
        )
        .schedule(&mut sim);
        sim.run_until(SimTime::from_millis(1500));
        assert_eq!(
            sim.network().slowdown(NodeId::new(1)),
            SimDuration::from_millis(200)
        );
        sim.run_until(SimTime::from_secs(3));
        assert!(sim.network().slowdown(NodeId::new(1)).is_zero());
    }

    #[test]
    #[should_panic(expected = "recovery precedes")]
    fn inverted_transient_rejected() {
        let mut sim = Simulation::<Idle>::new(2, 1, ());
        FaultSchedule::transient(nodes(&[1]), SimTime::from_secs(2), SimTime::from_secs(1))
            .schedule(&mut sim);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_victim_rejected() {
        let mut sim = Simulation::<Idle>::new(2, 1, ());
        FaultSchedule::crash(nodes(&[5]), SimTime::ZERO).schedule(&mut sim);
    }

    #[test]
    fn apply_returns_typed_errors() {
        let mut sim = Simulation::<Idle>::new(2, 1, ());
        let inverted =
            FaultSchedule::transient(nodes(&[1]), SimTime::from_secs(2), SimTime::from_secs(1))
                .apply(&mut sim);
        assert!(matches!(
            inverted,
            Err(FaultError::InvertedWindow {
                what: "recovery precedes the failure",
                ..
            })
        ));
        let out_of_range = FaultSchedule::crash(nodes(&[5]), SimTime::ZERO).apply(&mut sim);
        assert_eq!(
            out_of_range,
            Err(FaultError::VictimOutOfRange {
                node: NodeId::new(5),
                n: 2
            })
        );
    }

    #[test]
    fn schedule_composes_multiple_actions() {
        let mut sim = Simulation::<Idle>::new(6, 1, ());
        let schedule = FaultSchedule::crash(nodes(&[5]), SimTime::from_secs(1))
            .and(FaultAction::Slowdown {
                nodes: nodes(&[4]),
                extra: SimDuration::from_millis(100),
                at: SimTime::from_secs(1),
                until: SimTime::from_secs(3),
            })
            .and(FaultAction::LinkDegrade {
                fault: LinkFault::all().with_drop(0.1),
                at: SimTime::from_secs(1),
                until: SimTime::from_secs(3),
            });
        assert_eq!(schedule.victims(), nodes(&[5, 4]));
        schedule.apply(&mut sim).expect("valid schedule");
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.status(NodeId::new(5)), NodeStatus::Crashed);
        assert!(!sim.network().slowdown(NodeId::new(4)).is_zero());
        assert_eq!(sim.network().active_link_faults(), 1);
    }

    #[test]
    fn duplicate_victims_across_actions_rejected() {
        let mut sim = Simulation::<Idle>::new(4, 1, ());
        let schedule =
            FaultSchedule::crash(nodes(&[3]), SimTime::from_secs(1)).and(FaultAction::Slowdown {
                nodes: nodes(&[3]),
                extra: SimDuration::from_millis(100),
                at: SimTime::from_secs(2),
                until: SimTime::from_secs(3),
            });
        assert_eq!(
            schedule.apply(&mut sim),
            Err(FaultError::DuplicateVictim {
                node: NodeId::new(3)
            })
        );
        // Nothing was scheduled: the node stays up.
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.status(NodeId::new(3)), NodeStatus::Running);
    }

    #[test]
    fn duplicate_victims_within_one_action_rejected() {
        let schedule = FaultSchedule::crash(nodes(&[1, 1]), SimTime::ZERO);
        assert_eq!(
            schedule.validate(4),
            Err(FaultError::DuplicateVictim {
                node: NodeId::new(1)
            })
        );
    }

    #[test]
    fn invalid_probability_rejected() {
        let schedule = FaultSchedule::link_degrade(
            LinkFault::all().with_drop(1.5),
            SimTime::ZERO,
            SimTime::from_secs(1),
        );
        assert_eq!(
            schedule.validate(4),
            Err(FaultError::InvalidProbability {
                what: "drop",
                p: 1.5
            })
        );
    }

    #[test]
    fn link_degrade_group_out_of_range_rejected() {
        let schedule = FaultSchedule::link_degrade(
            LinkFault::sever([NodeId::new(9)], [NodeId::new(0)]),
            SimTime::ZERO,
            SimTime::from_secs(1),
        );
        assert_eq!(
            schedule.validate(4),
            Err(FaultError::VictimOutOfRange {
                node: NodeId::new(9),
                n: 4
            })
        );
    }

    #[test]
    fn scenario_constructors_build_one_action_schedules() {
        let schedule =
            FaultSchedule::partition(nodes(&[1, 2]), SimTime::from_secs(1), SimTime::from_secs(2));
        assert_eq!(schedule.actions().len(), 1);
        assert_eq!(schedule.victims(), nodes(&[1, 2]));
        assert!(FaultSchedule::none().is_empty());
    }

    #[test]
    fn error_messages_are_descriptive() {
        let err = FaultError::InvertedWindow {
            what: "heal precedes the partition",
            start: SimTime::from_secs(2),
            end: SimTime::from_secs(1),
        };
        assert!(err.to_string().contains("heal precedes the partition"));
        let err = FaultError::VictimOutOfRange {
            node: NodeId::new(7),
            n: 4,
        };
        assert!(err.to_string().contains("outside the 4-node network"));
    }

    #[test]
    fn empty_transient_window_rejected() {
        let schedule =
            FaultSchedule::transient(nodes(&[1]), SimTime::from_secs(2), SimTime::from_secs(2));
        assert_eq!(
            schedule.validate(4),
            Err(FaultError::EmptyWindow {
                what: "transient outage",
                at: SimTime::from_secs(2)
            })
        );
    }

    #[test]
    fn empty_partition_window_rejected() {
        let schedule =
            FaultSchedule::partition(nodes(&[1]), SimTime::from_secs(3), SimTime::from_secs(3));
        assert_eq!(
            schedule.validate(4),
            Err(FaultError::EmptyWindow {
                what: "partition",
                at: SimTime::from_secs(3)
            })
        );
    }

    #[test]
    fn empty_slowdown_window_rejected() {
        let schedule = FaultSchedule::slowdown(
            nodes(&[1]),
            SimDuration::from_millis(100),
            SimTime::from_secs(1),
            SimTime::from_secs(1),
        );
        assert_eq!(
            schedule.validate(4),
            Err(FaultError::EmptyWindow {
                what: "slowdown",
                at: SimTime::from_secs(1)
            })
        );
    }

    #[test]
    fn empty_link_degrade_window_rejected() {
        let schedule = FaultSchedule::link_degrade(
            LinkFault::all().with_drop(0.1),
            SimTime::from_secs(4),
            SimTime::from_secs(4),
        );
        assert_eq!(
            schedule.validate(4),
            Err(FaultError::EmptyWindow {
                what: "link fault",
                at: SimTime::from_secs(4)
            })
        );
    }

    #[test]
    fn crash_at_any_instant_still_valid() {
        // A crash has no window, so the zero-length rule never applies.
        let schedule = FaultSchedule::crash(nodes(&[1]), SimTime::ZERO);
        assert_eq!(schedule.validate(4), Ok(()));
    }

    #[test]
    fn crash_past_horizon_rejected() {
        let schedule = FaultSchedule::crash(nodes(&[1]), SimTime::from_secs(10));
        // Plain validate has no horizon to check against.
        assert_eq!(schedule.validate(4), Ok(()));
        assert_eq!(
            schedule.validate_within(4, SimTime::from_secs(10)),
            Err(FaultError::OutOfHorizon {
                what: "crash",
                at: SimTime::from_secs(10),
                horizon: SimTime::from_secs(10)
            })
        );
        assert_eq!(schedule.validate_within(4, SimTime::from_secs(11)), Ok(()));
    }

    #[test]
    fn window_end_past_horizon_rejected() {
        let schedule =
            FaultSchedule::partition(nodes(&[1]), SimTime::from_secs(5), SimTime::from_secs(12));
        assert_eq!(
            schedule.validate_within(4, SimTime::from_secs(10)),
            Err(FaultError::OutOfHorizon {
                what: "partition",
                at: SimTime::from_secs(12),
                horizon: SimTime::from_secs(10)
            })
        );
        // Ending exactly at the horizon is fine.
        assert_eq!(schedule.validate_within(4, SimTime::from_secs(12)), Ok(()));
    }

    #[test]
    fn out_of_horizon_message_names_the_horizon() {
        let err = FaultError::OutOfHorizon {
            what: "slowdown",
            at: SimTime::from_secs(40),
            horizon: SimTime::from_secs(30),
        };
        let msg = err.to_string();
        assert!(msg.contains("slowdown"), "{msg}");
        assert!(msg.contains("horizon"), "{msg}");
    }

    #[test]
    fn fault_window_slice_partitions_exactly() {
        let w = FaultWindow::new(SimTime::from_secs(10), SimTime::from_secs(30));
        assert_eq!(w.duration(), SimDuration::from_secs(20));
        assert!(!w.is_degenerate());
        // Slices tile the window: each starts where the previous ended,
        // and the last ends exactly at `until`.
        let mut cursor = w.at;
        for i in 0..4 {
            let s = w.slice(i, 4);
            assert_eq!(s.at, cursor);
            cursor = s.until;
        }
        assert_eq!(cursor, w.until);
        // Degenerate windows slice into degenerate windows, no panic.
        let d = FaultWindow::new(SimTime::from_secs(5), SimTime::from_secs(5));
        assert!(d.is_degenerate());
        assert_eq!(d.slice(0, 3).duration(), SimDuration::ZERO);
    }

    #[test]
    fn action_window_roundtrip() {
        let action = FaultAction::Transient {
            nodes: nodes(&[2]),
            at: SimTime::from_secs(1),
            recover_at: SimTime::from_secs(4),
        };
        let w = action.window().expect("transient has a window");
        assert_eq!(
            w,
            FaultWindow::new(SimTime::from_secs(1), SimTime::from_secs(4))
        );
        assert_eq!(action.start(), SimTime::from_secs(1));
        let moved = action.clone().with_window(FaultWindow::new(
            SimTime::from_secs(2),
            SimTime::from_secs(6),
        ));
        assert_eq!(
            moved.window(),
            Some(FaultWindow::new(
                SimTime::from_secs(2),
                SimTime::from_secs(6)
            ))
        );
        // Crash keeps only the start.
        let crash = FaultAction::Crash {
            nodes: nodes(&[0]),
            at: SimTime::ZERO,
        }
        .with_window(FaultWindow::new(
            SimTime::from_secs(3),
            SimTime::from_secs(9),
        ));
        assert_eq!(crash.start(), SimTime::from_secs(3));
        assert_eq!(crash.window(), None);
    }

    #[test]
    fn schedule_roundtrips_through_json() {
        let schedule =
            FaultSchedule::transient(nodes(&[1, 2]), SimTime::from_secs(1), SimTime::from_secs(2))
                .and(FaultAction::LinkDegrade {
                    fault: LinkFault::all()
                        .with_drop(0.25)
                        .with_reorder(0.5, SimDuration::from_millis(40)),
                    at: SimTime::from_secs(3),
                    until: SimTime::from_secs(4),
                });
        let json = serde_json::to_string(&schedule).expect("serialise");
        let back: FaultSchedule = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back, schedule);
    }
}
