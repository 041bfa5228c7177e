//! Weighted round-robin arbitration.

use ssq_types::{Cycle, PortSet};

use crate::Arbiter;

/// Weighted round robin: each input may win up to `weight` grants per
/// round; a new round starts when every *requesting* input has exhausted
/// its credit.
///
/// WRR provides strict bandwidth proportions under saturation but — as
/// the paper notes in §2.2 — it "lead\[s] to network underutilization as
/// [it does] not distribute leftover bandwidth equally to flows with
/// excess data", because credits are granted per round regardless of
/// demand and an idle flow's share is simply skipped rather than
/// reallocated in proportion. It accounts packets, not flits, so flows
/// with longer packets receive proportionally more bandwidth — one of the
/// rough edges Deficit WRR ([`Dwrr`](crate::Dwrr)) fixes.
///
/// # Examples
///
/// ```
/// use ssq_arbiter::{Arbiter, Wrr};
/// use ssq_types::{Cycle, PortSet};
///
/// let mut wrr = Wrr::new(&[3, 1]);
/// let both = PortSet::first_n(2);
/// let wins: Vec<_> = (0..8).map(|_| wrr.arbitrate(Cycle::ZERO, both, &|_| 1).unwrap()).collect();
/// // 3:1 split per round of 4 grants.
/// assert_eq!(wins.iter().filter(|&&w| w == 0).count(), 6);
/// assert_eq!(wins.iter().filter(|&&w| w == 1).count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wrr {
    weights: Vec<u64>,
    credits: Vec<u64>,
    cursor: usize,
}

impl Wrr {
    /// Creates a WRR arbiter with one weight per input.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or any weight is zero (a zero-weight
    /// input could never be served, violating work conservation).
    #[must_use]
    pub fn new(weights: &[u64]) -> Self {
        assert!(!weights.is_empty(), "need at least one input");
        assert!(weights.iter().all(|&w| w > 0), "weights must be positive");
        Wrr {
            weights: weights.to_vec(),
            credits: weights.to_vec(),
            cursor: 0,
        }
    }

    /// Remaining credit of `input` in the current round.
    #[must_use]
    pub fn credit(&self, input: usize) -> u64 {
        self.credits[input]
    }

    fn refill(&mut self) {
        self.credits.copy_from_slice(&self.weights);
    }
}

impl Arbiter for Wrr {
    fn num_inputs(&self) -> usize {
        self.weights.len()
    }

    //
    // Requester bits are asserted < n before they index the per-input
    // credits; the winner holds credit > 0, so the decrement cannot
    // underflow; `winner + 1` ≤ n and `% n` has n > 0 asserted in `new`.
    // ssq-lint: allow(panic-freedom-reachability)
    fn arbitrate(
        &mut self,
        _now: Cycle,
        requesters: PortSet,
        _len_of: &dyn Fn(usize) -> u64,
    ) -> Option<usize> {
        if requesters.is_empty() {
            return None;
        }
        let n = self.weights.len();
        let credited = |credits: &[u64]| {
            let mut set = PortSet::EMPTY;
            for i in requesters {
                assert!(i < n, "input {i} out of range");
                if credits[i] > 0 {
                    set.insert(i);
                }
            }
            set
        };
        let mut eligible = credited(&self.credits);
        // If every requester is out of credit, the round is over.
        if eligible.is_empty() {
            self.refill();
            eligible = credited(&self.credits);
        }
        // The first creditable requester at or after the cursor.
        let winner = eligible
            .first_from(self.cursor)
            .or_else(|| eligible.first_from(0))?;
        self.credits[winner] -= 1;
        // Stay on the winner until its credit is spent, then move on —
        // the classic WRR service pattern.
        self.cursor = if self.credits[winner] == 0 {
            (winner + 1) % n
        } else {
            winner
        };
        Some(winner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reqs(inputs: &[usize]) -> PortSet {
        inputs.iter().copied().collect()
    }

    #[test]
    fn respects_weight_proportions() {
        let mut wrr = Wrr::new(&[4, 2, 1, 1]);
        let all = reqs(&[0, 1, 2, 3]);
        let mut wins = [0u32; 4];
        for _ in 0..80 {
            wins[wrr.arbitrate(Cycle::ZERO, all, &|_| 1).unwrap()] += 1;
        }
        assert_eq!(wins, [40, 20, 10, 10]);
    }

    #[test]
    fn idle_inputs_do_not_block_the_round() {
        let mut wrr = Wrr::new(&[1, 1000]);
        // Only input 0 requests: it must be served every time even though
        // input 1 holds most of the round's credit.
        let only0 = reqs(&[0]);
        for _ in 0..10 {
            assert_eq!(wrr.arbitrate(Cycle::ZERO, only0, &|_| 1), Some(0));
        }
    }

    #[test]
    fn leftover_bandwidth_goes_to_whoever_requests() {
        // Work conservation: with input 1 idle, input 0 gets everything.
        let mut wrr = Wrr::new(&[1, 3]);
        let only0 = reqs(&[0]);
        let w: Vec<_> = (0..5)
            .map(|_| wrr.arbitrate(Cycle::ZERO, only0, &|_| 1).unwrap())
            .collect();
        assert_eq!(w, vec![0; 5]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        let _ = Wrr::new(&[1, 0]);
    }

    #[test]
    fn credits_observable() {
        let mut wrr = Wrr::new(&[2, 2]);
        let _ = wrr.arbitrate(Cycle::ZERO, reqs(&[0]), &|_| 1);
        assert_eq!(wrr.credit(0), 1);
        assert_eq!(wrr.credit(1), 2);
    }
}
