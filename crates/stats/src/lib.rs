//! # stabl-stats — replication statistics for the Stabl campaigns
//!
//! The paper reports each sensitivity score from a single run and its
//! §8 limitations concede the numbers carry no variance estimate. The
//! simulator makes replication cheap, so this crate supplies the three
//! statistical layers the campaigns were missing:
//!
//! 1. **Mergeable summary sketches** ([`MeanVar`], [`QuantileSketch`]):
//!    single-pass mean/variance (Welford) and a deterministic
//!    fixed-bucket quantile sketch whose `merge` is associative and
//!    order-insensitive, so per-seed summaries fold into campaign
//!    summaries without re-touching raw samples.
//! 2. **Replication statistics** ([`SeedSequence`], [`MetricCi`],
//!    [`ReplicatedCell`]): one audited seed-derivation path fans a cell
//!    out over N seeds, and percentile-bootstrap confidence intervals
//!    ([`percentile_ci`]) summarise the per-seed scores. All resampling
//!    is driven by [`stabl_sim::DetRng`], so two runs with the same
//!    seed produce byte-identical artifacts.
//! 3. **The regression gate** ([`gate`]): diffs two campaign artifact
//!    trees (a committed golden tree vs a fresh run), classifies every
//!    metric shift as within-CI / suspect / regression and emits both a
//!    human report and a machine `BENCH_stats.json`. The `stabl-stats`
//!    binary wires this into CI.
//!
//! The crate is in `stabl-lint`'s determinism, robustness and numeric
//! scopes: no wall clocks or ambient entropy (D-rules), no panics in
//! library code (R-rules) and no float equality or truncating casts of
//! time and seed values (N-rules).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bootstrap;
pub mod gate;
mod replicate;
mod seed;
mod sketch;

pub use bootstrap::{percentile_ci, ConfidenceInterval, BOOTSTRAP_RESAMPLES, CI_ALPHA};
pub use replicate::{
    CellObservation, MetricCi, ReplicateScore, ReplicatedCampaign, ReplicatedCell,
};
pub use seed::SeedSequence;
pub use sketch::{MeanVar, QuantileSketch, SKETCH_SUB_BUCKET_BITS};
