//! The prior 4-level message-based QoS arbitration (Satpathy et al.,
//! DAC'12 — paper ref [14]).

use ssq_types::{Cycle, PortSet};

use crate::{Arbiter, Lrg};

/// Number of message priority levels in the prior design.
pub const NUM_LEVELS: usize = 4;

/// The 4-level fixed-priority QoS scheme the paper improves upon (§2.2).
///
/// Inputs assign each message one of four priority levels; arbitration
/// serves the highest level present (fixed priority across levels) and
/// breaks ties within a level by LRG. The paper lists three shortcomings
/// that SSVC fixes:
///
/// 1. inputs "could not control how much bandwidth each priority level
///    receives" — there are no reserved rates;
/// 2. fixed priority "could lead to starvation of messages in other
///    levels";
/// 3. it "required two arbitration cycles", whereas SSVC arbitrates in
///    one. The extra cycle is modelled by
///    [`FourLevel::arbitration_cycles`], which the switch charges per
///    decision.
///
/// # Examples
///
/// ```
/// use ssq_arbiter::FourLevel;
/// use ssq_types::PortSet;
///
/// let mut fl = FourLevel::new(4);
/// // Input 0 requests at level 1, input 2 at level 3.
/// let levels = [PortSet::EMPTY, PortSet::single(0), PortSet::EMPTY, PortSet::single(2)];
/// // Level 3 beats level 1 regardless of history.
/// assert_eq!(fl.arbitrate_levels(levels), Some((2, 3)));
/// assert_eq!(fl.arbitration_cycles(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FourLevel {
    /// One LRG state per priority level, matching the replicated
    /// arbitration logic of the original design.
    per_level: Vec<Lrg>,
}

impl FourLevel {
    /// Creates a 4-level arbiter over `n` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "arbiter needs at least one input");
        FourLevel {
            per_level: (0..NUM_LEVELS).map(|_| Lrg::new(n)).collect(),
        }
    }

    /// Arbitrates one word per priority level (`levels[l]` holds the
    /// inputs whose message sits at level `l`; an input appears in at
    /// most one word): the highest non-empty level wins, LRG within
    /// it. Returns the winner and its level, or `None` when every word
    /// is empty.
    pub fn arbitrate_levels(&mut self, levels: [PortSet; NUM_LEVELS]) -> Option<(usize, usize)> {
        let (top, word) = levels
            .iter()
            .enumerate()
            .rev()
            .find(|(_, w)| !w.is_empty())?;
        let lrg = self.per_level.get_mut(top)?;
        let winner = lrg.peek_mask(word.bits())?;
        lrg.grant(winner);
        Some((winner, top))
    }

    /// Arbitration latency in cycles of the original two-phase design
    /// (level resolution, then LRG within the level).
    #[must_use]
    pub const fn arbitration_cycles(&self) -> u64 {
        2
    }
}

impl Arbiter for FourLevel {
    fn num_inputs(&self) -> usize {
        self.per_level[0].num_inputs()
    }

    /// Every requester at the lowest level: plain LRG.
    fn arbitrate(
        &mut self,
        _now: Cycle,
        requesters: PortSet,
        _len_of: &dyn Fn(usize) -> u64,
    ) -> Option<usize> {
        let levels = [requesters, PortSet::EMPTY, PortSet::EMPTY, PortSet::EMPTY];
        self.arbitrate_levels(levels).map(|(winner, _)| winner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Levels from `(input, level)` pairs.
    fn levels(reqs: &[(usize, usize)]) -> [PortSet; NUM_LEVELS] {
        let mut words = [PortSet::EMPTY; NUM_LEVELS];
        for &(i, l) in reqs {
            words[l].insert(i);
        }
        words
    }

    #[test]
    fn highest_level_always_wins() {
        let mut fl = FourLevel::new(3);
        let reqs = levels(&[(0, 0), (1, 2), (2, 1)]);
        for _ in 0..5 {
            assert_eq!(fl.arbitrate_levels(reqs), Some((1, 2)));
        }
    }

    #[test]
    fn starvation_of_lower_levels() {
        // The defect the paper calls out: persistent level-3 traffic
        // starves level 0 forever.
        let mut fl = FourLevel::new(2);
        let reqs = levels(&[(0, 3), (1, 0)]);
        for _ in 0..100 {
            assert_eq!(fl.arbitrate_levels(reqs), Some((0, 3)));
        }
    }

    #[test]
    fn lrg_within_a_level() {
        let mut fl = FourLevel::new(3);
        let reqs = levels(&[(0, 2), (1, 2), (2, 2)]);
        let wins: Vec<_> = (0..6)
            .map(|_| fl.arbitrate_levels(reqs).unwrap().0)
            .collect();
        assert_eq!(wins, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn levels_have_independent_lrg_state() {
        let mut fl = FourLevel::new(2);
        // Input 0 wins at level 3; that must not demote it at level 0.
        let _ = fl.arbitrate_levels(levels(&[(0, 3)]));
        assert_eq!(fl.arbitrate_levels(levels(&[(0, 0), (1, 0)])), Some((0, 0)));
    }

    #[test]
    fn trait_arbitration_is_level_zero_lrg() {
        let mut fl = FourLevel::new(3);
        let _ = fl.arbitrate_levels(levels(&[(0, 0)]));
        let all = PortSet::first_n(3);
        assert_eq!(fl.arbitrate(Cycle::ZERO, all, &|_| 1), Some(1));
        assert_eq!(fl.arbitrate_levels(levels(&[(0, 0), (1, 0)])), Some((0, 0)));
        assert_eq!(fl.arbitrate_levels([PortSet::EMPTY; NUM_LEVELS]), None);
    }

    #[test]
    fn two_cycle_arbitration_reported() {
        assert_eq!(FourLevel::new(2).arbitration_cycles(), 2);
    }
}
