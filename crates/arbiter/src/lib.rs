//! Switch arbitration policies for a single-stage high-radix switch.
//!
//! This crate implements both the paper's core mechanism and the
//! background/baseline schedulers its §2.2 surveys:
//!
//! | Policy | Type | Paper role |
//! |--------|------|-----------|
//! | [`Lrg`] | least recently granted (matrix arbiter) | Swizzle Switch default / BE class / SSVC tie-break |
//! | [`RoundRobin`] | rotating pointer | generic baseline |
//! | [`FixedPriority`] | static order | building block of the 4-level scheme |
//! | [`FourLevel`] | fixed priority across 4 levels, LRG within | prior Swizzle Switch QoS (Satpathy et al., DAC'12, ref \[14]) |
//! | [`Gsf`] | globally-synchronized frames (local adaptation) | frame-based baseline (Lee et al., ISCA'08, ref \[8]) |
//! | [`Wrr`] | weighted round robin | static-guarantee baseline (underutilizes leftover bandwidth) |
//! | [`Dwrr`] | deficit weighted round robin | static-guarantee baseline |
//! | [`Wfq`] | self-clocked fair queueing (WFQ family) | O(N) finish-time baseline |
//! | [`VirtualClock`] | exact Virtual Clock (Zhang, SIGCOMM'90) | the algorithm SSVC adapts; "Original Virtual Clock" curve of Fig. 5 |
//! | [`SsvcArbiter`] | coarse thermometer-coded Virtual Clock + LRG tie-break | **the paper's contribution** (§3.1) |
//!
//! All policies implement the [`Arbiter`] trait: given the requester
//! word of one output channel this cycle (a [`PortSet`], bit `i` ⇔
//! input `i` requests — the column of bitlines the hardware reads) and
//! a per-input head-packet length lookup, pick a winner and update
//! internal state. Arbitration is work-conserving — a winner is
//! returned whenever at least one input requests.
//!
//! # Examples
//!
//! ```
//! use ssq_arbiter::{Arbiter, Lrg};
//! use ssq_types::{Cycle, PortSet};
//!
//! let mut lrg = Lrg::new(4);
//! let reqs = PortSet::from_bits(0b1010); // inputs 1 and 3
//! let first = lrg.arbitrate(Cycle::ZERO, reqs, &|_| 8).expect("work conserving");
//! let second = lrg.arbitrate(Cycle::ZERO, reqs, &|_| 8).expect("work conserving");
//! // After winning, an input becomes least preferred: the other wins next.
//! assert_ne!(first, second);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dwrr;
mod fixed;
mod four_level;
mod gsf;
mod lrg;
mod round_robin;
mod ssvc;
mod virtual_clock;
mod wfq;
mod wrr;

pub use dwrr::Dwrr;
pub use fixed::FixedPriority;
pub use four_level::FourLevel;
pub use gsf::Gsf;
pub use lrg::Lrg;
pub use round_robin::RoundRobin;
pub use ssvc::{CounterPolicy, SsvcArbiter, SsvcConfig};
pub use virtual_clock::{vtick_for_rate, VirtualClock};
pub use wfq::Wfq;
pub use wrr::Wrr;

use ssq_types::{Cycle, PortSet};

/// A single-resource arbiter: chooses which of the requesting inputs is
/// granted one output channel for the next packet.
///
/// Implementations are *work conserving*: they return `Some` winner
/// whenever `requesters` is non-empty (the Virtual Clock family explicitly
/// redistributes idle slots rather than wasting them, unlike strict TDM —
/// paper §2.2).
///
/// The `now` argument carries the real-time clock for policies that
/// consult it (Virtual Clock's anti-banking `max(auxVC, real time)`
/// step); purely state-based policies ignore it.
///
/// Per-cycle clocks run through [`Arbiter::tick_batch`]: a caller may
/// owe an arbiter any number of ticks and settle them in one call, as
/// long as it settles before the next [`Arbiter::arbitrate`] and no
/// later than [`Arbiter::ticks_to_effect`] ticks after the previous
/// settle — the calendar contract that lets a switch pay for clocks
/// only on the cycles they change something.
pub trait Arbiter {
    /// Number of inputs this arbiter was sized for.
    fn num_inputs(&self) -> usize;

    /// Picks a winner among `requesters` and updates arbitration state.
    ///
    /// `len_of(i)` is the head-packet length in flits of requester `i`;
    /// only the policies that account flits (DWRR, WFQ, GSF) call it.
    /// Returns `None` only when `requesters` is empty.
    ///
    /// # Panics
    ///
    /// Implementations may panic if a requester bit is out of range —
    /// that is a harness bug, not a runtime condition.
    fn arbitrate(
        &mut self,
        now: Cycle,
        requesters: PortSet,
        len_of: &dyn Fn(usize) -> u64,
    ) -> Option<usize>;

    /// Advances the per-cycle internal clocks by `n` ticks at once,
    /// exactly as `n` consecutive [`Arbiter::tick`] calls would.
    ///
    /// The default does nothing: most policies have no clock.
    /// [`SsvcArbiter`] runs the real-time subcounter of its *subtract
    /// real clock* counter policy here, and [`Gsf`] its frame counter.
    fn tick_batch(&mut self, n: u64) {
        let _ = n;
    }

    /// Advances the per-cycle clocks by one tick.
    fn tick(&mut self) {
        self.tick_batch(1);
    }

    /// Ticks until the clock next changes anything arbitration can
    /// observe (the tick that does it included), or `None` if no
    /// number of ticks ever will — the default for clock-free policies.
    fn ticks_to_effect(&self) -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    fn all_policies(n: usize) -> Vec<Box<dyn Arbiter>> {
        vec![
            Box::new(Lrg::new(n)),
            Box::new(RoundRobin::new(n)),
            Box::new(FixedPriority::new(n)),
            Box::new(FourLevel::new(n)),
            Box::new(Gsf::new(&vec![4; n], 16 * n as u64)),
            Box::new(Wrr::new(&vec![1; n])),
            Box::new(Dwrr::new(&vec![4; n])),
            Box::new(Wfq::new(&vec![1.0; n])),
            Box::new(VirtualClock::new(&vec![8.0; n])),
            Box::new(SsvcArbiter::new(
                SsvcConfig::new(12, 3, CounterPolicy::SubtractRealClock),
                &vec![16; n],
            )),
        ]
    }

    /// Every policy must be usable as a trait object so the switch can be
    /// configured with a policy at runtime.
    #[test]
    fn arbiters_are_object_safe() {
        for mut a in all_policies(4) {
            assert_eq!(a.num_inputs(), 4);
            assert_eq!(a.arbitrate(Cycle::ZERO, PortSet::EMPTY, &|_| 1), None);
            let w = a.arbitrate(Cycle::ZERO, PortSet::single(2), &|_| 1);
            assert_eq!(w, Some(2));
        }
    }

    /// Work conservation: any non-empty request set yields a winner drawn
    /// from the request set, for every policy.
    #[test]
    fn arbiters_are_work_conserving() {
        let reqs = PortSet::from_bits(1 | 1 << 3 | 1 << 5 | 1 << 7);
        for mut a in all_policies(8) {
            for step in 0..32 {
                a.tick();
                let w = a
                    .arbitrate(Cycle::new(step), reqs, &|_| 4)
                    .expect("non-empty requests must produce a winner");
                assert!(reqs.contains(w), "winner not a requester");
            }
        }
    }

    /// Policies that ignore packet lengths never call the lookup.
    #[test]
    fn length_blind_policies_never_read_lengths() {
        let reqs = PortSet::from_bits(0b1011);
        let panics = |_: usize| -> u64 { panic!("length lookup called") };
        let mut blind: Vec<Box<dyn Arbiter>> = vec![
            Box::new(Lrg::new(4)),
            Box::new(RoundRobin::new(4)),
            Box::new(FixedPriority::new(4)),
            Box::new(FourLevel::new(4)),
            Box::new(Wrr::new(&[1; 4])),
            Box::new(VirtualClock::new(&[8.0; 4])),
            Box::new(SsvcArbiter::new(
                SsvcConfig::new(12, 3, CounterPolicy::Halve),
                &[16; 4],
            )),
        ];
        for a in &mut blind {
            for _ in 0..8 {
                assert!(a.arbitrate(Cycle::ZERO, reqs, &panics).is_some());
            }
        }
    }
}
