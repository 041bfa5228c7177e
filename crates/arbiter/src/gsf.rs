//! Globally-Synchronized Frames (Lee, Ng & Asanović, ISCA'08 — paper
//! ref [8]), adapted to a single-switch output.

use ssq_types::Cycle;

use crate::{Arbiter, Lrg, Request};

/// Frame-based QoS in the GSF style.
///
/// Time is divided into *frames* of `frame_cycles` cycles. Each flow
/// holds a per-frame budget of flits proportional to its reservation;
/// within a frame, flows that still have budget outrank flows that have
/// exhausted it (which are served best-effort), and LRG breaks ties in
/// each category. When the frame window elapses — or every budgeted,
/// backlogged flow has drained its quota — the frame advances and
/// budgets refill.
///
/// The original GSF controls *injection* at the sources and requires "a
/// global barrier network across all nodes, which adds overhead and can
/// be slow" (paper §2.2). In a single-stage switch the output arbiter
/// sees every flow directly, so the barrier degenerates to this local
/// frame counter — the adaptation preserves GSF's frame semantics while
/// making it comparable to the other output arbiters.
///
/// # Examples
///
/// ```
/// use ssq_arbiter::{Arbiter, Gsf, Request};
/// use ssq_types::Cycle;
///
/// // Two flows, 3:1 budgets over 16-cycle frames.
/// let mut gsf = Gsf::new(&[12, 4], 16);
/// let both = [Request::new(0, 4), Request::new(1, 4)];
/// let mut wins = [0u32; 2];
/// for c in 0..160u64 {
///     gsf.tick();
///     wins[gsf.arbitrate(Cycle::new(c), &both).unwrap()] += 1;
/// }
/// assert!(wins[0] > 2 * wins[1], "budget proportions lost: {wins:?}");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gsf {
    budgets: Vec<u64>,
    remaining: Vec<u64>,
    frame_cycles: u64,
    elapsed: u64,
    lrg: Lrg,
    frames_completed: u64,
}

impl Gsf {
    /// Creates a GSF arbiter with per-input flit budgets per frame of
    /// `frame_cycles` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `budgets` is empty, any budget is zero, or the frame is
    /// shorter than the total budget (an unfillable frame).
    #[must_use]
    pub fn new(budgets: &[u64], frame_cycles: u64) -> Self {
        assert!(!budgets.is_empty(), "need at least one input");
        assert!(budgets.iter().all(|&b| b > 0), "budgets must be positive");
        assert!(frame_cycles > 0, "frame must span at least one cycle");
        Gsf {
            budgets: budgets.to_vec(),
            remaining: budgets.to_vec(),
            frame_cycles,
            elapsed: 0,
            lrg: Lrg::new(budgets.len()),
            frames_completed: 0,
        }
    }

    /// Remaining budget (in flits) of `input` in the current frame.
    #[must_use]
    pub fn remaining_budget(&self, input: usize) -> u64 {
        self.remaining[input]
    }

    /// Number of frames completed so far.
    #[must_use]
    pub const fn frames_completed(&self) -> u64 {
        self.frames_completed
    }

    fn advance_frame(&mut self) {
        self.remaining.copy_from_slice(&self.budgets);
        self.elapsed = 0;
        self.frames_completed = self.frames_completed.saturating_add(1);
    }
}

impl Arbiter for Gsf {
    fn num_inputs(&self) -> usize {
        self.budgets.len()
    }

    fn arbitrate(&mut self, _now: Cycle, requests: &[Request]) -> Option<usize> {
        if requests.is_empty() {
            return None;
        }
        // Frame advances early if no requester has budget left — the
        // "synchronized" reclamation that keeps GSF work conserving here.
        let any_budgeted = requests.iter().any(|r| {
            assert!(
                r.input() < self.budgets.len(),
                "input {} out of range",
                r.input()
            );
            self.remaining[r.input()] >= r.len_flits()
        });
        if !any_budgeted && self.elapsed > 0 {
            self.advance_frame();
        }
        let budgeted: Vec<usize> = requests
            .iter()
            .filter(|r| self.remaining[r.input()] >= r.len_flits())
            .map(|r| r.input())
            .collect();
        let pool: Vec<usize> = if budgeted.is_empty() {
            requests.iter().map(|r| r.input()).collect()
        } else {
            budgeted
        };
        let winner = self.lrg.peek(&pool)?;
        self.lrg.grant(winner);
        // The LRG pool is built from `requests`; a miss (impossible by
        // construction) charges nothing rather than aborting the sweep.
        let len = requests
            .iter()
            .find(|r| r.input() == winner)
            .map_or(0, |r| r.len_flits());
        self.remaining[winner] = self.remaining[winner].saturating_sub(len);
        Some(winner)
    }

    fn tick(&mut self) {
        self.elapsed = self.elapsed.saturating_add(1);
        if self.elapsed >= self.frame_cycles {
            self.advance_frame();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reqs(inputs: &[usize], len: u64) -> Vec<Request> {
        inputs.iter().map(|&i| Request::new(i, len)).collect()
    }

    #[test]
    fn budgets_bound_per_frame_service() {
        let mut gsf = Gsf::new(&[2, 6], 8);
        let both = reqs(&[0, 1], 1);
        let mut wins = [0u64; 2];
        for c in 0..800u64 {
            gsf.tick();
            wins[gsf.arbitrate(Cycle::new(c), &both).unwrap()] += 1;
        }
        let ratio = wins[1] as f64 / wins[0] as f64;
        assert!((2.0..=4.0).contains(&ratio), "ratio {ratio}, wins {wins:?}");
    }

    #[test]
    fn exhausted_flows_fall_back_to_best_effort() {
        // Input 0 exhausts its budget; with input 1 idle it must still be
        // served (work conservation).
        let mut gsf = Gsf::new(&[1, 100], 1_000);
        let only0 = reqs(&[0], 1);
        for c in 0..10u64 {
            gsf.tick();
            assert_eq!(gsf.arbitrate(Cycle::new(c), &only0), Some(0));
        }
        assert_eq!(gsf.remaining_budget(0), 0);
    }

    #[test]
    fn budgeted_flows_outrank_exhausted_ones() {
        let mut gsf = Gsf::new(&[1, 8], 1_000);
        let both = reqs(&[0, 1], 1);
        let _ = gsf.arbitrate(Cycle::ZERO, &both); // input 0 wins (LRG) and exhausts
                                                   // Input 0 now has no budget; input 1 must win until its budget is
                                                   // gone, regardless of LRG.
        for c in 1..=8u64 {
            gsf.tick();
            assert_eq!(gsf.arbitrate(Cycle::new(c), &both), Some(1), "cycle {c}");
        }
    }

    #[test]
    fn frame_advances_on_window_expiry() {
        let mut gsf = Gsf::new(&[4, 4], 10);
        assert_eq!(gsf.frames_completed(), 0);
        for _ in 0..10 {
            gsf.tick();
        }
        assert_eq!(gsf.frames_completed(), 1);
        assert_eq!(gsf.remaining_budget(0), 4);
    }

    #[test]
    fn frame_advances_early_when_all_budgets_drain() {
        let mut gsf = Gsf::new(&[1, 1], 1_000_000);
        let both = reqs(&[0, 1], 1);
        gsf.tick();
        let _ = gsf.arbitrate(Cycle::ZERO, &both);
        let _ = gsf.arbitrate(Cycle::ZERO, &both);
        // Both exhausted; the next request triggers reclamation instead of
        // waiting out the huge frame.
        let _ = gsf.arbitrate(Cycle::ZERO, &both);
        assert_eq!(gsf.frames_completed(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_budget_rejected() {
        let _ = Gsf::new(&[0], 8);
    }
}
