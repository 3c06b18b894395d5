//! # stabl-lint — workspace semantic linter
//!
//! The Stabl sensitivity metric compares a baseline run against an
//! altered run and attributes the whole difference to the injected
//! failure. That attribution is only sound if nothing *else* differs —
//! which is why the workspace carries runtime determinism gates
//! (byte-compared campaign artifacts, replay proptests, Full-vs-Off
//! trace identity). Those gates catch nondeterminism only after it
//! fires on a sampled seed; static checks ban its sources up front.
//!
//! The simple bans are clippy's: `clippy.toml` disallows wall clocks,
//! `HashMap`/`HashSet` and `RandomState` (resolved by type, so aliases
//! do not hide them), and `[workspace.lints.clippy]` denies
//! `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!`/`process::exit`
//! and reasonless `#[allow]`/`#[expect]` attributes in library code.
//! `stabl-lint` keeps only the rules clippy cannot state (full table
//! in [`rules`]):
//!
//! * **P-rules** — shard-safety certification: no ambient shared
//!   mutable state (`static mut`, `thread_local!`, `Rc`/`Arc`, cells,
//!   locks, atomics) in the kernel, the chain crates and the workload
//!   generator. Such state breaks byte-identical replay and the
//!   `Clone`-based prefix forking of ROADMAP item 5. Findings carry a
//!   handler → use call path ([`rules_shard`]).
//! * **E-rules** — exhaustiveness drift: every `Protocol::Msg` variant
//!   has a match arm in its chain crate; every `SimEvent` variant is
//!   covered by the observe/diagnose exporters ([`rules_exhaustive`]).
//! * **N-rules** — numeric determinism: float `==`, truncating casts
//!   on time/seed values, raw `as_micros()` arithmetic
//!   ([`rules_numeric`]).
//!
//! v2 runs on an item-level parser ([`parse`]) and per-crate symbol
//! tables ([`symbols`]) built over the same hand-rolled lexer
//! ([`lexer`]) — no `syn`, no dependencies — so the whole pass still
//! runs first in CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

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
pub use rules::{Diagnostic, FileScope, RuleInfo, RULES};
