//! The prior 4-level message-based QoS arbitration (Satpathy et al.,
//! DAC'12 — paper ref [14]).

use ssq_types::Cycle;

use crate::{Arbiter, Lrg, Request};

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
/// use ssq_arbiter::{Arbiter, FourLevel, Request};
/// use ssq_types::Cycle;
///
/// let mut fl = FourLevel::new(4);
/// let reqs = [
///     Request::new(0, 1).with_level(1),
///     Request::new(2, 1).with_level(3),
/// ];
/// // Level 3 beats level 1 regardless of history.
/// assert_eq!(fl.arbitrate(Cycle::ZERO, &reqs), Some(2));
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

    fn arbitrate(&mut self, _now: Cycle, requests: &[Request]) -> Option<usize> {
        let top = requests
            .iter()
            .map(|r| {
                assert!(
                    (r.level() as usize) < NUM_LEVELS,
                    "level {} exceeds {NUM_LEVELS} levels",
                    r.level()
                );
                r.level()
            })
            .max()?;
        let candidates: Vec<usize> = requests
            .iter()
            .filter(|r| r.level() == top)
            .map(|r| r.input())
            .collect();
        let lrg = &mut self.per_level[top as usize];
        let winner = lrg.peek(&candidates)?;
        lrg.grant(winner);
        Some(winner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_level_always_wins() {
        let mut fl = FourLevel::new(3);
        let reqs = [
            Request::new(0, 1).with_level(0),
            Request::new(1, 1).with_level(2),
            Request::new(2, 1).with_level(1),
        ];
        for _ in 0..5 {
            assert_eq!(fl.arbitrate(Cycle::ZERO, &reqs), Some(1));
        }
    }

    #[test]
    fn starvation_of_lower_levels() {
        // The defect the paper calls out: persistent level-3 traffic
        // starves level 0 forever.
        let mut fl = FourLevel::new(2);
        let reqs = [
            Request::new(0, 1).with_level(3),
            Request::new(1, 1).with_level(0),
        ];
        for _ in 0..100 {
            assert_eq!(fl.arbitrate(Cycle::ZERO, &reqs), Some(0));
        }
    }

    #[test]
    fn lrg_within_a_level() {
        let mut fl = FourLevel::new(3);
        let reqs: Vec<Request> = (0..3).map(|i| Request::new(i, 1).with_level(2)).collect();
        let wins: Vec<_> = (0..6)
            .map(|_| fl.arbitrate(Cycle::ZERO, &reqs).unwrap())
            .collect();
        assert_eq!(wins, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn levels_have_independent_lrg_state() {
        let mut fl = FourLevel::new(2);
        // Input 0 wins at level 3; that must not demote it at level 0.
        let _ = fl.arbitrate(Cycle::ZERO, &[Request::new(0, 1).with_level(3)]);
        let both_l0 = [
            Request::new(0, 1).with_level(0),
            Request::new(1, 1).with_level(0),
        ];
        assert_eq!(fl.arbitrate(Cycle::ZERO, &both_l0), Some(0));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn rejects_level_out_of_range() {
        let mut fl = FourLevel::new(2);
        let _ = fl.arbitrate(Cycle::ZERO, &[Request::new(0, 1).with_level(4)]);
    }

    #[test]
    fn two_cycle_arbitration_reported() {
        assert_eq!(FourLevel::new(2).arbitration_cycles(), 2);
    }
}
