//! Static fixed-priority arbitration.

use ssq_types::{Cycle, PortSet};

use crate::Arbiter;

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
/// use ssq_arbiter::{Arbiter, FixedPriority};
/// use ssq_types::{Cycle, PortSet};
///
/// let mut fp = FixedPriority::new(4);
/// let reqs = PortSet::from_bits(0b1010); // inputs 1 and 3
/// // Input 1 wins every time; input 3 starves while 1 keeps requesting.
/// assert_eq!(fp.arbitrate(Cycle::ZERO, reqs, &|_| 1), Some(1));
/// assert_eq!(fp.arbitrate(Cycle::ZERO, reqs, &|_| 1), Some(1));
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

    fn arbitrate(
        &mut self,
        _now: Cycle,
        requesters: PortSet,
        _len_of: &dyn Fn(usize) -> u64,
    ) -> Option<usize> {
        let winner = requesters.first_from(0)?;
        assert!(winner < self.n, "input {winner} out of range");
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
    fn lowest_index_always_wins() {
        let mut fp = FixedPriority::new(8);
        assert_eq!(fp.arbitrate(Cycle::ZERO, reqs(&[7, 2, 5]), &|_| 1), Some(2));
    }

    #[test]
    fn starves_lower_priority_inputs() {
        let mut fp = FixedPriority::new(2);
        let both = reqs(&[0, 1]);
        for _ in 0..10 {
            assert_eq!(fp.arbitrate(Cycle::ZERO, both, &|_| 1), Some(0));
        }
    }

    #[test]
    fn empty_yields_none() {
        let mut fp = FixedPriority::new(2);
        assert_eq!(fp.arbitrate(Cycle::ZERO, PortSet::EMPTY, &|_| 1), None);
    }
}
