//! Weighted round-robin arbitration.

use ssq_types::Cycle;

use crate::{Arbiter, Request};

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
/// use ssq_arbiter::{Arbiter, Request, Wrr};
/// use ssq_types::Cycle;
///
/// let mut wrr = Wrr::new(&[3, 1]);
/// let both = [Request::new(0, 1), Request::new(1, 1)];
/// let wins: Vec<_> = (0..8).map(|_| wrr.arbitrate(Cycle::ZERO, &both).unwrap()).collect();
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

    fn arbitrate(&mut self, _now: Cycle, requests: &[Request]) -> Option<usize> {
        if requests.is_empty() {
            return None;
        }
        let n = self.weights.len();
        let mut requesting = vec![false; n];
        for r in requests {
            assert!(r.input() < n, "input {} out of range", r.input());
            requesting[r.input()] = true;
        }
        // If every requester is out of credit, the round is over.
        if (0..n).all(|i| !requesting[i] || self.credits[i] == 0) {
            self.refill();
        }
        for offset in 0..n {
            let candidate = (self.cursor + offset) % n;
            if requesting[candidate] && self.credits[candidate] > 0 {
                self.credits[candidate] -= 1;
                // Stay on the winner until its credit is spent, then move
                // on — the classic WRR service pattern.
                self.cursor = if self.credits[candidate] == 0 {
                    (candidate + 1) % n
                } else {
                    candidate
                };
                return Some(candidate);
            }
        }
        unreachable!("refill guarantees a creditable requester")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reqs(inputs: &[usize]) -> Vec<Request> {
        inputs.iter().map(|&i| Request::new(i, 1)).collect()
    }

    #[test]
    fn respects_weight_proportions() {
        let mut wrr = Wrr::new(&[4, 2, 1, 1]);
        let all = reqs(&[0, 1, 2, 3]);
        let mut wins = [0u32; 4];
        for _ in 0..80 {
            wins[wrr.arbitrate(Cycle::ZERO, &all).unwrap()] += 1;
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
            assert_eq!(wrr.arbitrate(Cycle::ZERO, &only0), Some(0));
        }
    }

    #[test]
    fn leftover_bandwidth_goes_to_whoever_requests() {
        // Work conservation: with input 1 idle, input 0 gets everything.
        let mut wrr = Wrr::new(&[1, 3]);
        let only0 = reqs(&[0]);
        let w: Vec<_> = (0..5)
            .map(|_| wrr.arbitrate(Cycle::ZERO, &only0).unwrap())
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
        let _ = wrr.arbitrate(Cycle::ZERO, &reqs(&[0]));
        assert_eq!(wrr.credit(0), 1);
        assert_eq!(wrr.credit(1), 2);
    }
}
