//! The simulator benchmark: four fixed workloads driven through the
//! public APIs of `ssq-core`, `ssq-sim`, `ssq-traffic`, `ssq-trace`,
//! `ssq-stats`, `ssq-check` and `ssq-net`, timed only at their public
//! call boundaries.
//!
//! * [`workload`] defines the workloads and builds their models.
//! * [`metrics`] holds the metric formulas (pooled percentile, GB
//!   shortfall, GL bound ratio, medians).
//! * [`gate`] is the per-operation correctness gate (engine agreement,
//!   conservation, guarantees).
//! * [`host`] fingerprints the host and refuses unfit timing builds.
//! * [`bench`] is the untraced run that produces the end-to-end numbers.
//! * [`traced`] is the separate traced run that produces the per-layer
//!   numbers.
//!
//! See `README.md` next to this crate for the workload rationale, the
//! metric tables and how to run it.

pub mod bench;
pub mod cli;
pub mod gate;
pub mod host;
pub mod metrics;
pub mod output;
pub mod traced;
pub mod workload;
