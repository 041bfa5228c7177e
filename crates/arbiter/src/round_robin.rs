//! Rotating-pointer round-robin arbitration.

use ssq_types::{Cycle, PortSet};

use crate::Arbiter;

/// Plain round-robin arbiter with a rotating pointer.
///
/// After a grant, the pointer moves just past the winner, so the search
/// for the next winner starts at `winner + 1`. Unlike [`Lrg`](crate::Lrg)
/// the full history is a single index, which is why simple routers use
/// it; it serves here as the simplest fair baseline.
///
/// # Examples
///
/// ```
/// use ssq_arbiter::{Arbiter, RoundRobin};
/// use ssq_types::{Cycle, PortSet};
///
/// let mut rr = RoundRobin::new(4);
/// let reqs = PortSet::from_bits(0b0101); // inputs 0 and 2
/// assert_eq!(rr.arbitrate(Cycle::ZERO, reqs, &|_| 1), Some(0));
/// assert_eq!(rr.arbitrate(Cycle::ZERO, reqs, &|_| 1), Some(2));
/// assert_eq!(rr.arbitrate(Cycle::ZERO, reqs, &|_| 1), Some(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRobin {
    n: usize,
    next: usize,
}

impl RoundRobin {
    /// Creates a round-robin arbiter over `n` inputs, starting at input 0.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "arbiter needs at least one input");
        RoundRobin { n, next: 0 }
    }

    /// The input the next search starts from.
    #[must_use]
    pub const fn pointer(&self) -> usize {
        self.next
    }
}

impl Arbiter for RoundRobin {
    fn num_inputs(&self) -> usize {
        self.n
    }

    //
    // The winner is asserted < n (the documented harness-bug panic);
    // `winner + 1` is at most n and `% n` has n > 0 asserted in `new`.
    // ssq-lint: allow(panic-freedom-reachability)
    fn arbitrate(
        &mut self,
        _now: Cycle,
        requesters: PortSet,
        _len_of: &dyn Fn(usize) -> u64,
    ) -> Option<usize> {
        // The first requester at or after the pointer, wrapping around.
        let winner = requesters
            .first_from(self.next)
            .or_else(|| requesters.first_from(0))?;
        assert!(winner < self.n, "input {winner} out of range");
        self.next = (winner + 1) % self.n;
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
    fn cycles_through_all_requesters() {
        let mut rr = RoundRobin::new(4);
        let all = reqs(&[0, 1, 2, 3]);
        let winners: Vec<_> = (0..8)
            .map(|_| rr.arbitrate(Cycle::ZERO, all, &|_| 1).unwrap())
            .collect();
        assert_eq!(winners, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn pointer_skips_idle_inputs() {
        let mut rr = RoundRobin::new(4);
        assert_eq!(rr.arbitrate(Cycle::ZERO, reqs(&[3]), &|_| 1), Some(3));
        assert_eq!(rr.pointer(), 0);
        assert_eq!(rr.arbitrate(Cycle::ZERO, reqs(&[2, 3]), &|_| 1), Some(2));
    }

    #[test]
    fn empty_requests_yield_none() {
        let mut rr = RoundRobin::new(2);
        assert_eq!(rr.arbitrate(Cycle::ZERO, PortSet::EMPTY, &|_| 1), None);
    }

    #[test]
    fn fairness_under_saturation() {
        let mut rr = RoundRobin::new(3);
        let all = reqs(&[0, 1, 2]);
        let mut wins = [0u32; 3];
        for _ in 0..99 {
            wins[rr.arbitrate(Cycle::ZERO, all, &|_| 1).unwrap()] += 1;
        }
        assert_eq!(wins, [33, 33, 33]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_input_index() {
        let mut rr = RoundRobin::new(2);
        let _ = rr.arbitrate(Cycle::ZERO, reqs(&[5]), &|_| 1);
    }
}
