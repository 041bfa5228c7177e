//! Static fixed-priority arbitration.

use ssq_types::Cycle;

use crate::{Arbiter, Request};

/// Fixed-priority arbiter: input 0 always outranks input 1, and so on.
///
/// Fixed priority is the scheme whose starvation behaviour motivates the
/// paper's critique of the earlier 4-level Swizzle Switch QoS (§2.2,
/// second difference: "the previous design used a fixed-priority QoS
/// mechanism … which could lead to starvation of messages in other
/// levels"). It exists here both as a baseline and as the across-level
/// rule inside [`FourLevel`](crate::FourLevel).
///
/// # Examples
///
/// ```
/// use ssq_arbiter::{Arbiter, FixedPriority, Request};
/// use ssq_types::Cycle;
///
/// let mut fp = FixedPriority::new(4);
/// let reqs = [Request::new(3, 1), Request::new(1, 1)];
/// // Input 1 wins every time; input 3 starves while 1 keeps requesting.
/// assert_eq!(fp.arbitrate(Cycle::ZERO, &reqs), Some(1));
/// assert_eq!(fp.arbitrate(Cycle::ZERO, &reqs), Some(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedPriority {
    n: usize,
}

impl FixedPriority {
    /// Creates a fixed-priority arbiter where lower input index = higher
    /// priority.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "arbiter needs at least one input");
        FixedPriority { n }
    }
}

impl Arbiter for FixedPriority {
    fn num_inputs(&self) -> usize {
        self.n
    }

    fn arbitrate(&mut self, _now: Cycle, requests: &[Request]) -> Option<usize> {
        requests
            .iter()
            .map(|r| {
                assert!(r.input() < self.n, "input {} out of range", r.input());
                r.input()
            })
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reqs(inputs: &[usize]) -> Vec<Request> {
        inputs.iter().map(|&i| Request::new(i, 1)).collect()
    }

    #[test]
    fn lowest_index_always_wins() {
        let mut fp = FixedPriority::new(8);
        assert_eq!(fp.arbitrate(Cycle::ZERO, &reqs(&[7, 2, 5])), Some(2));
    }

    #[test]
    fn starves_lower_priority_inputs() {
        let mut fp = FixedPriority::new(2);
        let both = reqs(&[0, 1]);
        for _ in 0..10 {
            assert_eq!(fp.arbitrate(Cycle::ZERO, &both), Some(0));
        }
    }

    #[test]
    fn empty_yields_none() {
        let mut fp = FixedPriority::new(2);
        assert_eq!(fp.arbitrate(Cycle::ZERO, &[]), None);
    }
}
