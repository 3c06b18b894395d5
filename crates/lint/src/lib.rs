//! # stabl-lint — workspace determinism & robustness linter
//!
//! The Stabl sensitivity metric compares a baseline run against an
//! altered run and attributes the whole difference to the injected
//! failure. That attribution is only sound if nothing *else* differs —
//! which is why the workspace carries runtime determinism gates
//! (byte-compared campaign artifacts, replay proptests, Full-vs-Off
//! trace identity). Those gates catch nondeterminism only after it
//! fires on a sampled seed. `stabl-lint` closes the remaining gap
//! statically, the way a race detector complements a stress test: it
//! bans the *sources* of nondeterminism (wall clocks, ambient RNG,
//! unordered-map iteration) from protocol code before they can bite.
//!
//! Rule families (full table in [`rules`]):
//!
//! * **D-rules** — determinism: no `Instant::now`, `SystemTime::now`,
//!   `thread_rng`, `rand::random`, `HashMap`/`HashSet` inside
//!   `crates/sim` and the five chain crates — alias-aware since v2,
//!   so `use std::collections::HashMap as Map` no longer hides one.
//! * **R-rules** — robustness: no `unwrap()`/`expect()`/`panic!`/
//!   `todo!` in non-test library code of `crates/core` and
//!   `crates/sim`; no `process::exit` outside `src/bin`.
//! * **P-rules** — shard-safety certification: no ambient shared
//!   mutable state (`static mut`, `thread_local!`, `Rc`/`Arc`, cells,
//!   locks, atomics) in the crates ROADMAP item 2 wants to shard,
//!   annotated with a handler → use call path ([`rules_shard`]).
//! * **E-rules** — exhaustiveness drift: every `Protocol::Msg` variant
//!   has a match arm in its chain crate; every `SimEvent` variant is
//!   covered by the observe/diagnose exporters ([`rules_exhaustive`]).
//! * **N-rules** — numeric determinism: float `==`, truncating casts
//!   on time/seed values, raw `as_micros()` arithmetic
//!   ([`rules_numeric`]).
//! * **B-001** — the `lint-baseline.json` ratchet ([`baseline`]): new
//!   findings fail CI, committed debt may only shrink.
//!
//! v2 runs on an item-level parser ([`parse`]) and per-crate symbol
//! tables ([`symbols`]) built over the same hand-rolled lexer
//! ([`lexer`]) — no `syn`, no dependencies — so the whole pass still
//! runs first in CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod config;
pub mod engine;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod rules_exhaustive;
pub mod rules_numeric;
pub mod rules_shard;
pub mod symbols;

pub use config::Config;
pub use engine::{Certification, Engine, Report};
pub use rules::{Diagnostic, FileScope, RuleInfo, Severity, RULES};
