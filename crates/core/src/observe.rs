//! Exporters for the structured event stream: JSON-Lines dumps and
//! Chrome-trace/Perfetto timelines.
//!
//! Two formats, two audiences:
//!
//! * [`events_jsonl`] — one self-describing JSON object per event,
//!   greppable and `jq`-able, lossless (every recorded event appears).
//! * [`chrome_trace_json`] — the Chrome trace-event format, loadable in
//!   Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`: one
//!   track per validator with consensus-phase spans ([`Ctx::span`]
//!   marks become duration slices) and instants for node lifecycle,
//!   fault windows, client activity and commits. Per-message hops and
//!   log lines are deliberately left to the JSONL dump — a 400 s run
//!   ships millions of hops, which would drown the timeline.
//!
//! Both exports are pure functions of the [`RunTrace`], so they inherit
//! its determinism: same seed, same bytes.
//!
//! [`Ctx::span`]: stabl_sim::Ctx::span

use stabl_sim::{SimEvent, SimStats, SimTime};

use crate::harness::RunTrace;

/// Serialises every recorded event as one JSON object per line
/// (`{"t_us":…,"seq":…,"kind":…,…}`), in timeline order.
#[expect(
    clippy::expect_used,
    reason = "in-memory serialisation of SimEvent is infallible and a Result signature would push an impossible branch onto every exporter caller"
)]
pub fn events_jsonl(trace: &RunTrace) -> String {
    let mut out = String::new();
    for event in &trace.events {
        out.push_str(&serde_json::to_string(event).expect("event serialisation cannot fail"));
        out.push('\n');
    }
    out
}

/// Serialises the run's aggregate kernel counters — traffic plus the
/// contention model's re-execution and pool-rejection counts — as one
/// JSON object (newline terminated). The stats companion to the event
/// exports: a trace bundle carries the aggregates without re-parsing
/// the JSONL stream.
#[expect(
    clippy::expect_used,
    reason = "in-memory serialisation of SimStats is infallible and a Result signature would push an impossible branch onto every exporter caller"
)]
pub fn stats_json(stats: &SimStats) -> String {
    let mut out = serde_json::to_string_pretty(stats).expect("stats serialisation cannot fail");
    out.push('\n');
    out
}

/// The pid all validator tracks live under in the Chrome trace.
const TRACE_PID: u64 = 1;
/// The tid of the run-scoped track (faults, client activity).
const RUN_TID: u64 = 0;

fn tid_of(node: stabl_sim::NodeId) -> u64 {
    u64::from(node.as_u32()) + 1
}

/// Renders the trace in the Chrome trace-event JSON format (see the
/// module docs for what is included).
///
/// `label` names the process track (typically the chain under test).
/// Events are emitted in non-decreasing `ts` order, which the CI smoke
/// job asserts.
#[expect(
    clippy::expect_used,
    reason = "in-memory serialisation of the Chrome trace value is infallible and a Result signature would push an impossible branch onto every exporter caller"
)]
pub fn chrome_trace_json(trace: &RunTrace, label: &str) -> String {
    let mut events: Vec<serde_json::Value> = Vec::new();

    // Track-naming metadata first (ts 0 keeps the stream monotonic).
    events.push(serde_json::json!({
        "name": "process_name", "ph": "M", "pid": TRACE_PID, "tid": RUN_TID, "ts": 0u64,
        "args": serde_json::json!({"name": label}),
    }));
    events.push(serde_json::json!({
        "name": "thread_name", "ph": "M", "pid": TRACE_PID, "tid": RUN_TID, "ts": 0u64,
        "args": serde_json::json!({"name": "run (faults, clients)"}),
    }));
    for node in 0..trace.n {
        events.push(serde_json::json!({
            "name": "thread_name", "ph": "M", "pid": TRACE_PID, "tid": node as u64 + 1, "ts": 0u64,
            "args": serde_json::json!({"name": format!("node {node}")}),
        }));
    }

    // Phase marks become duration slices: each span runs to the node's
    // next mark, or to the horizon for the last one.
    let mut phase_marks: Vec<Vec<(SimTime, &'static str)>> = vec![Vec::new(); trace.n];
    for timed in &trace.events {
        if let SimEvent::Phase { node, phase } = &timed.event {
            phase_marks[node.index()].push((timed.time, phase));
        }
    }
    for (node, marks) in phase_marks.iter().enumerate() {
        for (i, (start, phase)) in marks.iter().enumerate() {
            let end = marks
                .get(i + 1)
                .map(|(next, _)| *next)
                .unwrap_or(trace.horizon)
                .max(*start);
            events.push(serde_json::json!({
                "name": *phase, "ph": "X", "cat": "phase",
                "pid": TRACE_PID, "tid": node as u64 + 1,
                "ts": start.as_micros(), "dur": (end.saturating_since(*start)).as_micros(),
            }));
        }
    }

    for timed in &trace.events {
        let ts = timed.time.as_micros();
        let instant = |name: String, tid: u64, scope: &str| {
            serde_json::json!({
                "name": name, "ph": "i", "s": scope, "cat": "event",
                "pid": TRACE_PID, "tid": tid, "ts": ts,
            })
        };
        match &timed.event {
            SimEvent::NodeCrashed { node } => {
                events.push(instant("crashed".into(), tid_of(*node), "t"));
            }
            SimEvent::NodeRestarted { node } => {
                events.push(instant("restarted".into(), tid_of(*node), "t"));
            }
            SimEvent::NodePanicked { node } => {
                events.push(instant("panicked".into(), tid_of(*node), "t"));
            }
            SimEvent::FaultActivated { kind } => {
                events.push(instant(format!("fault on: {}", kind.name()), RUN_TID, "g"));
            }
            SimEvent::FaultCleared { kind } => {
                events.push(instant(format!("fault off: {}", kind.name()), RUN_TID, "g"));
            }
            SimEvent::ClientSubmitted { client, node } => {
                events.push(instant(
                    format!("submit c{client}→n{}", node.as_u32()),
                    RUN_TID,
                    "p",
                ));
            }
            SimEvent::ClientRetried { client, node } => {
                events.push(instant(
                    format!("retry c{client}→n{}", node.as_u32()),
                    RUN_TID,
                    "p",
                ));
            }
            SimEvent::ClientGaveUp { client } => {
                events.push(instant(format!("give up c{client}"), RUN_TID, "p"));
            }
            SimEvent::Committed { node } => {
                events.push(instant("commit".into(), tid_of(*node), "t"));
            }
            // Spans were rendered above; hops, logs and gauge samples
            // stay in JSONL (gauges get their own timeline in the
            // diagnose HTML report).
            SimEvent::Phase { .. }
            | SimEvent::MessageSent { .. }
            | SimEvent::MessageDelivered { .. }
            | SimEvent::MessageDropped { .. }
            | SimEvent::TimerFired { .. }
            | SimEvent::TimerStale { .. }
            | SimEvent::RequestDelivered { .. }
            | SimEvent::RequestDropped { .. }
            | SimEvent::Log { .. }
            | SimEvent::Gauge { .. } => {}
        }
    }

    // The viewer tolerates any order but the CI gate (and humans
    // reading the raw JSON) want a monotonic stream.
    events.sort_by_key(ts_of);
    serde_json::to_string(&serde_json::json!({
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }))
    .expect("trace serialisation cannot fail")
}

fn ts_of(event: &serde_json::Value) -> u64 {
    if let serde_json::Value::Map(entries) = event {
        for (key, value) in entries {
            if key == "ts" {
                if let serde_json::Value::U64(ts) = value {
                    return *ts;
                }
            }
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::RunTrace;
    use stabl_sim::{CaptureLevel, EventCounters, NodeId, TimedEvent};

    fn trace_with(events: Vec<TimedEvent>) -> RunTrace {
        RunTrace {
            capture: CaptureLevel::Events,
            n: 2,
            horizon: SimTime::from_secs(10),
            events,
            counters: EventCounters::default(),
            dropped_events: 0,
        }
    }

    fn timed(ms: u64, seq: u64, event: SimEvent) -> TimedEvent {
        TimedEvent {
            time: SimTime::from_millis(ms),
            seq,
            event,
        }
    }

    #[test]
    fn jsonl_is_one_event_per_line() {
        let trace = trace_with(vec![
            timed(
                5,
                0,
                SimEvent::Committed {
                    node: NodeId::new(0),
                },
            ),
            timed(
                7,
                1,
                SimEvent::NodeCrashed {
                    node: NodeId::new(1),
                },
            ),
        ]);
        let jsonl = events_jsonl(&trace);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"committed\""), "{}", lines[0]);
        assert!(lines[1].contains("\"t_us\":7000"), "{}", lines[1]);
    }

    #[test]
    fn chrome_trace_parses_and_is_monotonic() {
        let trace = trace_with(vec![
            timed(
                1,
                0,
                SimEvent::Phase {
                    node: NodeId::new(0),
                    phase: "round",
                },
            ),
            timed(
                2,
                1,
                SimEvent::Committed {
                    node: NodeId::new(0),
                },
            ),
            timed(
                3,
                2,
                SimEvent::Phase {
                    node: NodeId::new(0),
                    phase: "round",
                },
            ),
            timed(
                4,
                3,
                SimEvent::FaultActivated {
                    kind: stabl_sim::FaultKind::Partition,
                },
            ),
        ]);
        let json = chrome_trace_json(&trace, "testchain");
        let value: serde_json::Value = serde_json::from_str(&json).expect("parses");
        let serde_json::Value::Map(top) = &value else {
            panic!("expected object");
        };
        let events = top
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
            .expect("traceEvents present");
        let serde_json::Value::Seq(events) = events else {
            panic!("expected array");
        };
        assert!(events.len() >= 6, "metadata + phases + instants");
        let stamps: Vec<u64> = events.iter().map(ts_of).collect();
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "{stamps:?}");
        // The first phase slice runs until the next mark: 2 ms.
        assert!(json.contains("\"dur\":2000"), "phase duration rendered");
        // The last phase slice extends to the horizon.
        assert!(json.contains(&format!("\"dur\":{}", 10_000_000 - 3_000)));
        assert!(json.contains("testchain"));
    }

    #[test]
    fn stats_json_carries_the_contention_counters() {
        let stats = SimStats {
            messages_sent: 3,
            speculative_reexecutions: 7,
            conflict_aborts: 5,
            pool_evictions: 2,
            pool_replacements: 1,
            ..SimStats::default()
        };
        let json = stats_json(&stats);
        assert!(json.ends_with('\n'));
        for needle in [
            "\"messages_sent\": 3",
            "\"speculative_reexecutions\": 7",
            "\"conflict_aborts\": 5",
            "\"pool_evictions\": 2",
            "\"pool_replacements\": 1",
        ] {
            assert!(json.contains(needle), "{needle} missing from {json}");
        }
        let back: SimStats = serde_json::from_str(&json).expect("round-trips");
        assert_eq!(back, stats);
    }

    #[test]
    fn empty_trace_still_renders_valid_json() {
        let trace = trace_with(Vec::new());
        let json = chrome_trace_json(&trace, "idle");
        let value: serde_json::Value = serde_json::from_str(&json).expect("parses");
        assert!(matches!(value, serde_json::Value::Map(_)));
        assert_eq!(events_jsonl(&trace), "");
    }
}
