//! Rotating-pointer round-robin arbitration.

use ssq_types::Cycle;

use crate::{Arbiter, Request};

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
/// use ssq_arbiter::{Arbiter, Request, RoundRobin};
/// use ssq_types::Cycle;
///
/// let mut rr = RoundRobin::new(4);
/// let reqs = [Request::new(0, 1), Request::new(2, 1)];
/// assert_eq!(rr.arbitrate(Cycle::ZERO, &reqs), Some(0));
/// assert_eq!(rr.arbitrate(Cycle::ZERO, &reqs), Some(2));
/// assert_eq!(rr.arbitrate(Cycle::ZERO, &reqs), Some(0));
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

    fn arbitrate(&mut self, _now: Cycle, requests: &[Request]) -> Option<usize> {
        if requests.is_empty() {
            return None;
        }
        let mut requesting = vec![false; self.n];
        for r in requests {
            assert!(r.input() < self.n, "input {} out of range", r.input());
            requesting[r.input()] = true;
        }
        for offset in 0..self.n {
            let candidate = (self.next + offset) % self.n;
            if requesting[candidate] {
                self.next = (candidate + 1) % self.n;
                return Some(candidate);
            }
        }
        unreachable!("non-empty request set always has a winner")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reqs(inputs: &[usize]) -> Vec<Request> {
        inputs.iter().map(|&i| Request::new(i, 1)).collect()
    }

    #[test]
    fn cycles_through_all_requesters() {
        let mut rr = RoundRobin::new(4);
        let all = reqs(&[0, 1, 2, 3]);
        let winners: Vec<_> = (0..8)
            .map(|_| rr.arbitrate(Cycle::ZERO, &all).unwrap())
            .collect();
        assert_eq!(winners, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn pointer_skips_idle_inputs() {
        let mut rr = RoundRobin::new(4);
        assert_eq!(rr.arbitrate(Cycle::ZERO, &reqs(&[3])), Some(3));
        assert_eq!(rr.pointer(), 0);
        assert_eq!(rr.arbitrate(Cycle::ZERO, &reqs(&[2, 3])), Some(2));
    }

    #[test]
    fn empty_requests_yield_none() {
        let mut rr = RoundRobin::new(2);
        assert_eq!(rr.arbitrate(Cycle::ZERO, &[]), None);
    }

    #[test]
    fn fairness_under_saturation() {
        let mut rr = RoundRobin::new(3);
        let all = reqs(&[0, 1, 2]);
        let mut wins = [0u32; 3];
        for _ in 0..99 {
            wins[rr.arbitrate(Cycle::ZERO, &all).unwrap()] += 1;
        }
        assert_eq!(wins, [33, 33, 33]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_input_index() {
        let mut rr = RoundRobin::new(2);
        let _ = rr.arbitrate(Cycle::ZERO, &reqs(&[5]));
    }
}
