//! # ssq-prof
//!
//! Zero-overhead-when-off cycle-phase profiling and the perf-trajectory
//! record for swizzle-qos (DESIGN.md §11).
//!
//! Perf claims used to live as prose tables: phase shares were
//! measured by hand, and each PR's throughput snapshot was a one-off.
//! This crate turns both into tracked artifacts:
//!
//! * [`Profiler`] — a counter-sampled phase timer in the style of
//!   ssq-trace's zero-overhead contract. Instrumented code calls
//!   [`Profiler::begin_cycle`] once per cycle: disarmed it is a single
//!   predictable branch, armed it is one counter add plus a mask test,
//!   and only on sampled cycles do the [`Stopwatch`] reads run. The
//!   switch core compiles its hooks out entirely when its `prof` cargo
//!   feature is off, pinned by the `trace_overhead` microbench
//!   methodology.
//! * [`ProfReport`] — aggregated per-phase and per-output breakdowns
//!   (wall-clock and sample counts).
//! * [`trajectory`] — the schema-versioned `results/BENCH_<pr>.json`
//!   document model: a hand-rolled parser/renderer (the workspace is
//!   fully offline), a diff with configurable regression thresholds
//!   backing `cargo xtask bench --diff`, and the cross-PR trajectory
//!   table behind `ssq perf-report`.
//!
//! The crate itself is dependency-free except for `ssq-stats` (table
//! rendering) and is always compiled; the `prof` feature lives on the
//! crate that embeds the hooks (`ssq-core`), so this library
//! stays usable for parsing and reporting even in unprofiled builds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod profiler;
pub mod trajectory;

pub use profiler::{
    OutputLine, PhaseLine, ProfReport, Profiler, Stopwatch, KERNEL_PHASES, PHASE_ARBITRATE,
    PHASE_PREPARE,
};
pub use trajectory::{
    find_benches, trajectory_table, BenchCell, BenchDoc, BenchEngine, BenchPhase, DiffReport,
    QuickRecord,
};
