//! # ssq-lint — token-aware static analysis for the SSQ workspace
//!
//! A self-contained static-analysis engine (zero external
//! dependencies) replacing the old regex scanners in `xtask`:
//!
//! * [`lexer`] — a real Rust lexer: raw strings, nested block
//!   comments, lifetimes vs. char literals, raw identifiers. Rules see
//!   *tokens*, so nothing fires inside a string or comment.
//! * [`source`] — the per-file fact layer: cfg-gate line maps
//!   (test regions, feature grants), `ssq-lint: allow(...)` waivers
//!   (comment tokens only), and code-only line renders.
//! * [`parse`] — a lightweight item parser: functions with qualified
//!   names and bodies, call sites, types with attributes,
//!   feature-gated definitions.
//! * [`graph`] — the name-resolved call graph with reachability and
//!   explanatory paths; deliberately an over-approximation, the sound
//!   direction for the reachability lints. The workspace
//!   build adds module/crate aliases so cross-crate free-fn calls
//!   resolve instead of dead-ending at the crate boundary.
//! * [`rules`] — the eight ported textual rules plus the five semantic
//!   lints (`panic-freedom-reachability`, `mask-width-safety`,
//!   `unchecked-hot-arith`, `no-nondeterministic-order`,
//!   `feature-gate-hygiene`), and the panic-capable site enumerator
//!   ([`rules::sites`]) that exempts only what rustc or a declared type
//!   guarantees: literal shift amounts, float arithmetic, and division
//!   by a `NonZero*` name (DESIGN.md §12).
//! * [`diag`] / [`baseline`] — severities, stable fingerprints, the
//!   `--json` document (schema 3), and the checked-in baseline that
//!   keeps legacy findings from blocking CI while new ones still fail
//!   it.
//! * [`registry`] — rule metadata and the engine driver
//!   ([`registry::run_sources`] over in-memory files,
//!   [`registry::load_workspace`] for the real tree).
//!
//! The no-external-deps lexer is a deliberate design decision: the
//! build environment is offline, so the engine leans on a small
//! hand-rolled lexer instead of `syn`/`proc-macro2`, trading full
//! grammar fidelity for zero supply-chain surface and sub-second
//! whole-workspace runs. See DESIGN.md §10.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod diag;
pub mod graph;
pub mod lexer;
pub mod parse;
pub mod registry;
pub mod rules;
pub mod source;

pub use baseline::{Baseline, BASELINE_FILE};
pub use diag::{render_json, Diagnostic, Severity};
pub use registry::{
    load_workspace, rule_names, run_sources, EngineConfig, LintInfo, Report, LINTS,
};
pub use source::SourceFile;
