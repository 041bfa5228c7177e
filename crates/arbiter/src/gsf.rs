//! Globally-Synchronized Frames (Lee, Ng & Asanović, ISCA'08 — paper
//! ref [8]), adapted to a single-switch output.

use ssq_types::{Cycle, PortSet};

use crate::{Arbiter, Lrg};

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
/// use ssq_arbiter::{Arbiter, Gsf};
/// use ssq_types::{Cycle, PortSet};
///
/// // Two flows, 3:1 budgets over 16-cycle frames, 4-flit packets.
/// let mut gsf = Gsf::new(&[12, 4], 16);
/// let both = PortSet::first_n(2);
/// let mut wins = [0u32; 2];
/// for c in 0..160u64 {
///     gsf.tick();
///     wins[gsf.arbitrate(Cycle::new(c), both, &|_| 4).unwrap()] += 1;
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

    /// The requesters whose remaining budget covers their head packet.
    //
    // Requester bits index the per-input budget Vec; an out-of-range
    // bit is the documented harness-bug panic of `Arbiter::arbitrate`.
    // ssq-lint: allow(panic-freedom-reachability)
    fn budgeted(&self, requesters: PortSet, len_of: &dyn Fn(usize) -> u64) -> PortSet {
        let mut budgeted = PortSet::EMPTY;
        for i in requesters {
            assert!(i < self.budgets.len(), "input {i} out of range");
            if self.remaining[i] >= len_of(i) {
                budgeted.insert(i);
            }
        }
        budgeted
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

    fn arbitrate(
        &mut self,
        _now: Cycle,
        requesters: PortSet,
        len_of: &dyn Fn(usize) -> u64,
    ) -> Option<usize> {
        if requesters.is_empty() {
            return None;
        }
        let mut budgeted = self.budgeted(requesters, len_of);
        // Frame advances early if no requester has budget left — the
        // "synchronized" reclamation that keeps GSF work conserving here.
        if budgeted.is_empty() && self.elapsed > 0 {
            self.advance_frame();
            budgeted = self.budgeted(requesters, len_of);
        }
        let pool = if budgeted.is_empty() {
            requesters
        } else {
            budgeted
        };
        let winner = self.lrg.peek_mask(pool.bits())?;
        self.lrg.grant(winner);
        let len = len_of(winner);
        if let Some(left) = self.remaining.get_mut(winner) {
            *left = left.saturating_sub(len);
        }
        Some(winner)
    }

    /// Advances the frame counter by `n` cycles, refilling the budgets
    /// at every frame boundary crossed.
    //
    // `frame_cycles > 0` is asserted in `new`, so the division and
    // remainder cannot trap; `frames >= 1` on this branch, so
    // `frames - 1` cannot underflow.
    // ssq-lint: allow(panic-freedom-reachability)
    fn tick_batch(&mut self, n: u64) {
        let total = self.elapsed.saturating_add(n);
        if total < self.frame_cycles {
            self.elapsed = total;
            return;
        }
        let frames = total / self.frame_cycles;
        self.advance_frame();
        self.frames_completed = self.frames_completed.saturating_add(frames - 1);
        self.elapsed = total % self.frame_cycles;
    }

    /// Cycles left to the frame boundary.
    fn ticks_to_effect(&self) -> Option<u64> {
        Some(self.frame_cycles.saturating_sub(self.elapsed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reqs(inputs: &[usize]) -> PortSet {
        inputs.iter().copied().collect()
    }

    fn arb(gsf: &mut Gsf, now: u64, set: PortSet) -> Option<usize> {
        gsf.arbitrate(Cycle::new(now), set, &|_| 1)
    }

    #[test]
    fn budgets_bound_per_frame_service() {
        let mut gsf = Gsf::new(&[2, 6], 8);
        let both = reqs(&[0, 1]);
        let mut wins = [0u64; 2];
        for c in 0..800u64 {
            gsf.tick();
            wins[arb(&mut gsf, c, both).unwrap()] += 1;
        }
        let ratio = wins[1] as f64 / wins[0] as f64;
        assert!((2.0..=4.0).contains(&ratio), "ratio {ratio}, wins {wins:?}");
    }

    #[test]
    fn exhausted_flows_fall_back_to_best_effort() {
        // Input 0 exhausts its budget; with input 1 idle it must still be
        // served (work conservation).
        let mut gsf = Gsf::new(&[1, 100], 1_000);
        let only0 = reqs(&[0]);
        for c in 0..10u64 {
            gsf.tick();
            assert_eq!(arb(&mut gsf, c, only0), Some(0));
        }
        assert_eq!(gsf.remaining_budget(0), 0);
    }

    #[test]
    fn budgeted_flows_outrank_exhausted_ones() {
        let mut gsf = Gsf::new(&[1, 8], 1_000);
        let both = reqs(&[0, 1]);
        let _ = arb(&mut gsf, 0, both); // input 0 wins (LRG) and exhausts
                                        // Input 0 now has no budget; input 1 must win until its budget is
                                        // gone, regardless of LRG.
        for c in 1..=8u64 {
            gsf.tick();
            assert_eq!(arb(&mut gsf, c, both), Some(1), "cycle {c}");
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
        let both = reqs(&[0, 1]);
        gsf.tick();
        let _ = arb(&mut gsf, 0, both);
        let _ = arb(&mut gsf, 0, both);
        // Both exhausted; the next request triggers reclamation instead of
        // waiting out the huge frame.
        let _ = arb(&mut gsf, 0, both);
        assert_eq!(gsf.frames_completed(), 1);
    }

    /// Settling the frame clock only at `ticks_to_effect` (and before
    /// each arbitration) matches ticking it every cycle, including the
    /// early frame advance that resets the boundary.
    #[test]
    fn settling_at_the_frame_boundary_equals_per_cycle_ticks() {
        use ssq_types::rng::Xoshiro256StarStar;
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let mut dense = Gsf::new(&[6, 3, 9], 40);
        let mut lazy = dense.clone();
        let mut owed = 0u64;
        let mut due = lazy.ticks_to_effect();
        let lens = |i: usize| 1 + (i as u64 * 3) % 4;
        for cycle in 0..5_000u64 {
            dense.tick();
            owed += 1;
            let set = PortSet::from_bits(rng.next_u64() & 0b111);
            let arbitrating = !set.is_empty() && rng.chance(0.3);
            if due == Some(owed) || arbitrating {
                lazy.tick_batch(owed);
                owed = 0;
                assert_eq!(lazy, dense, "cycle {cycle}");
            } else {
                assert_eq!(lazy.frames_completed(), dense.frames_completed());
            }
            if arbitrating {
                let now = Cycle::new(cycle);
                assert_eq!(
                    dense.arbitrate(now, set, &lens),
                    lazy.arbitrate(now, set, &lens)
                );
            }
            if owed == 0 {
                due = lazy.ticks_to_effect();
            }
        }
        lazy.tick_batch(owed);
        assert_eq!(lazy, dense);
    }

    #[test]
    fn tick_batch_crosses_several_frames() {
        let mut batched = Gsf::new(&[4, 4], 10);
        let mut dense = batched.clone();
        let _ = arb(&mut batched, 0, reqs(&[0]));
        let _ = arb(&mut dense, 0, reqs(&[0]));
        batched.tick_batch(37);
        for _ in 0..37 {
            dense.tick();
        }
        assert_eq!(batched, dense);
        assert_eq!(batched.frames_completed(), 3);
        assert_eq!(batched.ticks_to_effect(), Some(3));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_budget_rejected() {
        let _ = Gsf::new(&[0], 8);
    }
}
