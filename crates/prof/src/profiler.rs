//! The counter-sampled phase profiler.
//!
//! A [`Profiler`] owns one wall-clock accumulator per named phase plus
//! optional per-output accumulators for the arbitrate phase. The
//! embedding loop drives it with three calls:
//!
//! 1. [`Profiler::begin_cycle`] once per simulated cycle — disarmed
//!    this is one branch; armed it is one counter add plus a mask test,
//!    and the return value says whether this cycle is sampled;
//! 2. on sampled cycles, [`Stopwatch`] laps around each phase feeding
//!    [`Profiler::record_phase`] (and, in detail mode,
//!    [`Profiler::record_output`] per output);
//! 3. [`Profiler::report`] at the end of the run.
//!
//! Sampling is counter-based (every 2^k-th cycle, `k` chosen from the
//! requested rate) so the armed-but-unsampled hot path never touches the
//! OS clock. Phase sets are named slices; the switch kernel uses
//! [`KERNEL_PHASES`] (`prepare`/`arbitrate`).

use std::time::Instant;

use ssq_stats::Table;

/// The stepping kernel's phase names, in cycle order: `prepare`
/// (clocks, injection, the blocked word) and `arbitrate` (the per-output
/// passes: flit transmission and the one arbitration of each idle
/// output).
pub const KERNEL_PHASES: &[&str] = &["prepare", "arbitrate"];

/// Index of the prepare phase in [`KERNEL_PHASES`].
pub const PHASE_PREPARE: usize = 0;
/// Index of the arbitrate phase in [`KERNEL_PHASES`].
pub const PHASE_ARBITRATE: usize = 1;

/// A monotonic nanosecond lap timer around one phase.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts the watch now.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Nanoseconds since the last start/lap, saturating at `u64::MAX`.
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Reads the elapsed nanoseconds and restarts the watch, so
    /// consecutive laps tile a cycle without gaps.
    pub fn lap_ns(&mut self) -> u64 {
        let now = Instant::now();
        let ns = u64::try_from(now.duration_since(self.0).as_nanos()).unwrap_or(u64::MAX);
        self.0 = now;
        ns
    }
}

/// One accumulator: total nanoseconds and how many laps produced them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Acc {
    ns: u64,
    samples: u64,
}

impl Acc {
    fn record(&mut self, ns: u64) {
        self.ns = self.ns.saturating_add(ns);
        self.samples = self.samples.saturating_add(1);
    }
}

/// Counter-sampled per-phase (and optionally per-output) wall-clock
/// accumulators. See the module docs for the driving protocol.
#[derive(Debug, Clone)]
pub struct Profiler {
    names: &'static [&'static str],
    armed: bool,
    detail: bool,
    /// Sample when `cycles & mask == 0` (mask is `2^k - 1`).
    mask: u64,
    cycles: u64,
    sampled: u64,
    sampling: bool,
    phases: Vec<Acc>,
    outputs: Vec<Acc>,
    visits: u64,
    settles: u64,
    skip_probes: u64,
    skip_hits: u64,
    skipped_transmitting: u64,
}

impl Profiler {
    /// A disarmed profiler over the given phase names.
    #[must_use]
    pub fn new(names: &'static [&'static str]) -> Self {
        Profiler {
            names,
            armed: false,
            detail: false,
            mask: 0,
            cycles: 0,
            sampled: 0,
            sampling: false,
            phases: vec![Acc::default(); names.len()],
            outputs: Vec::new(),
            visits: 0,
            settles: 0,
            skip_probes: 0,
            skip_hits: 0,
            skipped_transmitting: 0,
        }
    }

    /// A disarmed profiler over the stepping kernel's phases.
    #[must_use]
    pub fn kernel() -> Self {
        Profiler::new(KERNEL_PHASES)
    }

    /// Arms sampling at roughly one cycle in `sample_every` (rounded up
    /// to the next power of two; `0` and `1` both mean every cycle).
    pub fn arm(&mut self, sample_every: u64) {
        self.armed = true;
        self.mask = sample_every.max(1).next_power_of_two().saturating_sub(1);
    }

    /// Arms like [`Profiler::arm`] and additionally attributes the
    /// arbitrate phase per output (one accumulator each).
    pub fn arm_detailed(&mut self, sample_every: u64, outputs: usize) {
        self.arm(sample_every);
        self.detail = true;
        if self.outputs.len() < outputs {
            self.outputs.resize(outputs, Acc::default());
        }
    }

    /// Stops sampling; accumulated totals are kept.
    pub fn disarm(&mut self) {
        self.armed = false;
        self.sampling = false;
    }

    /// Clears the accumulated totals and cycle counts, keeping the armed
    /// state and sampling rate (a measurement-window boundary).
    pub fn reset(&mut self) {
        self.cycles = 0;
        self.sampled = 0;
        self.sampling = false;
        self.phases.fill(Acc::default());
        self.outputs.fill(Acc::default());
        self.visits = 0;
        self.settles = 0;
        self.skip_probes = 0;
        self.skip_hits = 0;
        self.skipped_transmitting = 0;
    }

    /// Whether the profiler is currently armed.
    #[must_use]
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// Whether per-output attribution is on.
    #[must_use]
    pub fn detailed(&self) -> bool {
        self.detail
    }

    /// Advances the cycle counter and decides whether this cycle is
    /// sampled. This is the only call on the armed-but-unsampled hot
    /// path: one add and one mask test.
    #[inline]
    pub fn begin_cycle(&mut self) -> bool {
        if !self.armed {
            return false;
        }
        let n = self.cycles;
        self.cycles = n.wrapping_add(1);
        self.sampling = n & self.mask == 0;
        if self.sampling {
            self.sampled = self.sampled.saturating_add(1);
        }
        self.sampling
    }

    /// Whether the current cycle is being sampled.
    #[must_use]
    pub fn sampling(&self) -> bool {
        self.sampling
    }

    /// Adds one lap to a phase accumulator. Unknown indices are ignored
    /// (the hot path must never panic on accounting).
    #[inline]
    pub fn record_phase(&mut self, phase: usize, ns: u64) {
        if let Some(acc) = self.phases.get_mut(phase) {
            acc.record(ns);
        }
    }

    /// Adds one arbitrate lap to an output's accumulator (detail mode;
    /// unknown outputs are ignored).
    #[inline]
    pub fn record_output(&mut self, output: usize, ns: u64) {
        if let Some(acc) = self.outputs.get_mut(output) {
            acc.record(ns);
        }
    }

    /// Adds one sampled cycle's activity counts: the outputs its pass
    /// visited and the clock settles it ran.
    #[inline]
    pub fn record_counts(&mut self, visits: u64, settles: u64) {
        self.visits = self.visits.saturating_add(visits);
        self.settles = self.settles.saturating_add(settles);
    }

    /// Counts one idle-skip probe while armed: a hit when it skipped
    /// `skipped > 0` cycles, and those cycles count as skipped while
    /// transmitting when a channel was busy at the probe.
    #[inline]
    pub fn record_skip(&mut self, skipped: u64, transmitting: bool) {
        if !self.armed {
            return;
        }
        self.skip_probes = self.skip_probes.saturating_add(1);
        if skipped > 0 {
            self.skip_hits = self.skip_hits.saturating_add(1);
            if transmitting {
                self.skipped_transmitting = self.skipped_transmitting.saturating_add(skipped);
            }
        }
    }

    /// Cycles seen while armed.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Cycles that were sampled.
    #[must_use]
    pub fn sampled_cycles(&self) -> u64 {
        self.sampled
    }

    /// Snapshots the accumulated totals.
    #[must_use]
    pub fn report(&self) -> ProfReport {
        ProfReport {
            cycles: self.cycles,
            sampled_cycles: self.sampled,
            output_visits: self.visits,
            clock_settles: self.settles,
            skip_probes: self.skip_probes,
            skip_hits: self.skip_hits,
            skipped_transmitting: self.skipped_transmitting,
            phases: self
                .names
                .iter()
                .zip(&self.phases)
                .map(|(name, acc)| PhaseLine {
                    name: (*name).to_string(),
                    ns: acc.ns,
                    samples: acc.samples,
                })
                .collect(),
            outputs: self
                .outputs
                .iter()
                .enumerate()
                .map(|(output, acc)| OutputLine {
                    output,
                    ns: acc.ns,
                    samples: acc.samples,
                })
                .collect(),
        }
    }
}

/// One phase's accumulated totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseLine {
    /// Phase name (`prepare` or `arbitrate`).
    pub name: String,
    /// Total sampled nanoseconds.
    pub ns: u64,
    /// Number of laps recorded.
    pub samples: u64,
}

/// One output's accumulated arbitrate totals (detail mode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputLine {
    /// Output index.
    pub output: usize,
    /// Total sampled nanoseconds.
    pub ns: u64,
    /// Number of laps recorded.
    pub samples: u64,
}

/// An immutable snapshot of a [`Profiler`]'s accumulators.
#[derive(Debug, Clone, Default)]
pub struct ProfReport {
    /// Cycles seen while armed.
    pub cycles: u64,
    /// Cycles whose phases were timed.
    pub sampled_cycles: u64,
    /// Per-phase totals, in phase order.
    pub phases: Vec<PhaseLine>,
    /// Per-output arbitrate totals (empty unless detail mode was armed).
    pub outputs: Vec<OutputLine>,
    /// Outputs the sampled cycles' passes visited (the active ones).
    pub output_visits: u64,
    /// Clock settles the sampled cycles ran.
    pub clock_settles: u64,
    /// Idle-skip probes made while armed.
    pub skip_probes: u64,
    /// Probes that skipped at least one cycle.
    pub skip_hits: u64,
    /// Cycles skipped while at least one channel was transmitting.
    pub skipped_transmitting: u64,
}

impl ProfReport {
    /// Whether nothing was sampled (feature off, disarmed, or an empty
    /// run).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sampled_cycles == 0
    }

    /// Total sampled nanoseconds across all phases.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.phases.iter().fold(0u64, |a, p| a.saturating_add(p.ns))
    }

    /// Mean outputs visited per sampled cycle, if anything was sampled.
    #[must_use]
    pub fn visits_per_cycle(&self) -> Option<f64> {
        (self.sampled_cycles > 0).then(|| self.output_visits as f64 / self.sampled_cycles as f64)
    }

    /// Mean clock settles per sampled cycle, if anything was sampled.
    #[must_use]
    pub fn settles_per_cycle(&self) -> Option<f64> {
        (self.sampled_cycles > 0).then(|| self.clock_settles as f64 / self.sampled_cycles as f64)
    }

    /// A named phase's share of total sampled time, if anything was
    /// sampled.
    #[must_use]
    pub fn fraction(&self, name: &str) -> Option<f64> {
        let total = self.total_ns();
        if total == 0 {
            return None;
        }
        self.phases
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.ns as f64 / total as f64)
    }

    /// A named phase's mean nanoseconds per sampled cycle.
    #[must_use]
    pub fn ns_per_cycle(&self, name: &str) -> Option<f64> {
        if self.sampled_cycles == 0 {
            return None;
        }
        self.phases
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.ns as f64 / self.sampled_cycles as f64)
    }

    /// The per-phase breakdown as a table (`phase`, `ns/cycle`,
    /// `fraction`, `samples`).
    #[must_use]
    pub fn phase_table(&self) -> Table {
        let mut t = Table::with_columns(&["phase", "ns/cycle", "fraction", "samples"]);
        t.numeric();
        for p in &self.phases {
            t.row(vec![
                p.name.clone(),
                self.ns_per_cycle(&p.name)
                    .map_or_else(|| String::from("-"), |v| format!("{v:.0}")),
                self.fraction(&p.name)
                    .map_or_else(|| String::from("-"), |v| format!("{:.1}%", v * 100.0)),
                p.samples.to_string(),
            ]);
        }
        t
    }

    /// The per-output arbitrate breakdown as a table (`output`,
    /// `ns/cycle`, `share`, `samples`); empty unless detail mode was
    /// armed.
    #[must_use]
    pub fn output_table(&self) -> Table {
        let mut t = Table::with_columns(&["output", "arbitrate ns/cycle", "share", "samples"]);
        t.numeric();
        let total: u64 = self
            .outputs
            .iter()
            .fold(0u64, |a, s| a.saturating_add(s.ns));
        for s in &self.outputs {
            let per_cycle = if self.sampled_cycles == 0 {
                String::from("-")
            } else {
                format!("{:.0}", s.ns as f64 / self.sampled_cycles as f64)
            };
            let share = if total == 0 {
                String::from("-")
            } else {
                format!("{:.1}%", s.ns as f64 / total as f64 * 100.0)
            };
            t.row(vec![
                s.output.to_string(),
                per_cycle,
                share,
                s.samples.to_string(),
            ]);
        }
        t
    }

    /// Renders the summary plus phase table as monospace text.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "profiled {} of {} cycles\n",
            self.sampled_cycles, self.cycles
        );
        if let (Some(visits), Some(settles)) = (self.visits_per_cycle(), self.settles_per_cycle()) {
            out.push_str(&format!(
                "outputs visited per cycle: {visits:.2}; clock settles per cycle: {settles:.4}\n"
            ));
        }
        if self.skip_probes > 0 {
            out.push_str(&format!(
                "skip probes: {}; hits: {}; cycles skipped while transmitting: {}\n",
                self.skip_probes, self.skip_hits, self.skipped_transmitting
            ));
        }
        out.push_str(&self.phase_table().to_text());
        if !self.outputs.is_empty() {
            out.push_str(&self.output_table().to_text());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activity_counts_average_over_sampled_cycles() {
        let mut p = Profiler::kernel();
        assert_eq!(p.report().visits_per_cycle(), None);
        p.arm(1);
        for k in 0..4 {
            assert!(p.begin_cycle());
            p.record_counts(k, u64::from(k == 3));
        }
        let r = p.report();
        assert_eq!((r.output_visits, r.clock_settles), (6, 1));
        assert_eq!(r.visits_per_cycle(), Some(1.5));
        assert_eq!(r.settles_per_cycle(), Some(0.25));
        assert!(r.render_text().contains("outputs visited per cycle: 1.50"));
        p.reset();
        assert_eq!(p.report().output_visits, 0);
    }

    #[test]
    fn skip_probes_count_hits_and_transmitting_cycles() {
        let mut p = Profiler::kernel();
        p.record_skip(9, true);
        assert_eq!(p.report().skip_probes, 0, "disarmed probes are not counted");
        p.arm(1);
        p.record_skip(0, true);
        p.record_skip(5, false);
        p.record_skip(7, true);
        let r = p.report();
        assert_eq!(
            (r.skip_probes, r.skip_hits, r.skipped_transmitting),
            (3, 2, 7)
        );
        assert!(r
            .render_text()
            .contains("skip probes: 3; hits: 2; cycles skipped while transmitting: 7"));
        p.reset();
        assert_eq!(p.report().skip_hits, 0);
    }

    #[test]
    fn disarmed_profiler_never_samples() {
        let mut p = Profiler::kernel();
        for _ in 0..100 {
            assert!(!p.begin_cycle());
        }
        assert!(p.report().is_empty());
        assert_eq!(p.cycles(), 0, "disarmed cycles are not even counted");
    }

    #[test]
    fn arm_one_samples_every_cycle() {
        let mut p = Profiler::kernel();
        p.arm(1);
        let mut sampled = 0;
        for _ in 0..64 {
            if p.begin_cycle() {
                sampled += 1;
                p.record_phase(PHASE_PREPARE, 20);
                p.record_phase(PHASE_ARBITRATE, 30);
            }
        }
        assert_eq!(sampled, 64);
        let r = p.report();
        assert_eq!(r.sampled_cycles, 64);
        assert_eq!(r.total_ns(), 64 * 50);
        assert!((r.fraction("arbitrate").unwrap() - 0.6).abs() < 1e-9);
        assert!((r.ns_per_cycle("prepare").unwrap() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_totals_but_stays_armed() {
        let mut p = Profiler::kernel();
        p.arm_detailed(1, 2);
        assert!(p.begin_cycle());
        p.record_phase(PHASE_PREPARE, 10);
        p.record_output(1, 10);
        p.reset();
        assert!(p.report().is_empty());
        assert_eq!(p.cycles(), 0);
        assert!(p.begin_cycle(), "still armed");
        assert_eq!(p.report().outputs.len(), 2);
    }

    #[test]
    fn sampling_rate_rounds_to_power_of_two() {
        let mut p = Profiler::kernel();
        p.arm(6); // rounds to 8
        let sampled = (0..80).filter(|_| p.begin_cycle()).count();
        assert_eq!(sampled, 10);
        assert_eq!(p.cycles(), 80);
        assert_eq!(p.sampled_cycles(), 10);
    }

    #[test]
    fn detail_mode_attributes_outputs() {
        let mut p = Profiler::kernel();
        p.arm_detailed(1, 4);
        assert!(p.begin_cycle());
        p.record_output(0, 5);
        p.record_output(3, 15);
        p.record_output(99, 1); // out of range: ignored, not a panic
        let r = p.report();
        assert_eq!(r.outputs.len(), 4);
        assert_eq!(r.outputs[0].ns, 5);
        assert_eq!(r.outputs[3].ns, 15);
        assert_eq!(r.outputs[1].ns, 0);
        let text = r.output_table().to_text();
        assert!(text.contains("75.0%"), "{text}");
    }

    #[test]
    fn stopwatch_laps_are_monotone() {
        let mut w = Stopwatch::start();
        let a = w.lap_ns();
        let b = w.elapsed_ns();
        // Both reads are valid nanosecond counts (no panic, no wrap).
        assert!(a < u64::MAX && b < u64::MAX);
    }

    #[test]
    fn empty_report_renders_without_percentages() {
        let r = Profiler::kernel().report();
        assert!(r.is_empty());
        assert!(r.fraction("arbitrate").is_none());
        assert!(r.render_text().contains("profiled 0 of 0 cycles"));
    }
}
