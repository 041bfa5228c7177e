//! Deficit weighted round-robin arbitration.

use ssq_types::{Cycle, PortSet};

use crate::Arbiter;

/// Deficit weighted round robin (Shreedhar & Varghese, SIGCOMM'95 —
/// paper ref \[17]).
///
/// Each input has a *quantum* of flits added to its deficit counter when
/// its turn comes around; it may transmit head packets as long as the
/// deficit covers their length. Accounting in flits makes DWRR fair for
/// variable packet sizes, unlike packet-counting
/// [`Wrr`](crate::Wrr). Like WRR, it cannot redistribute *reserved but
/// unused* bandwidth in proportion to reservations — the underutilization
/// the paper's §2.2 holds against static schemes and that Virtual Clock
/// repairs.
///
/// # Examples
///
/// ```
/// use ssq_arbiter::{Arbiter, Dwrr};
/// use ssq_types::{Cycle, PortSet};
///
/// // Input 0 reserves twice the bandwidth of input 1; both send 4-flit
/// // packets, so over one round input 0 sends 2 packets per 1 of input 1.
/// let mut dwrr = Dwrr::new(&[8, 4]);
/// let both = PortSet::first_n(2);
/// let wins: Vec<_> = (0..6).map(|_| dwrr.arbitrate(Cycle::ZERO, both, &|_| 4).unwrap()).collect();
/// assert_eq!(wins.iter().filter(|&&w| w == 0).count(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dwrr {
    quanta: Vec<u64>,
    deficit: Vec<u64>,
    cursor: usize,
    /// Whether the flow at `cursor` has already received its quantum for
    /// the current turn.
    turn_active: bool,
}

impl Dwrr {
    /// Creates a DWRR arbiter with a per-input quantum in flits.
    ///
    /// # Panics
    ///
    /// Panics if `quanta` is empty or any quantum is zero.
    #[must_use]
    pub fn new(quanta: &[u64]) -> Self {
        assert!(!quanta.is_empty(), "need at least one input");
        assert!(quanta.iter().all(|&q| q > 0), "quanta must be positive");
        Dwrr {
            quanta: quanta.to_vec(),
            deficit: vec![0; quanta.len()],
            cursor: 0,
            turn_active: false,
        }
    }

    /// Current deficit (in flits) of `input`.
    #[must_use]
    pub fn deficit(&self, input: usize) -> u64 {
        self.deficit[input]
    }
}

impl Arbiter for Dwrr {
    fn num_inputs(&self) -> usize {
        self.quanta.len()
    }

    //
    // Requester bits are asserted < n before they index the per-input
    // Vecs; the cursor stays below n by the `% n` (n > 0 asserted in
    // `new`); deficits grow by one quantum per lap for at most
    // `max_turns` laps, far inside u64; the `unreachable!` is the DRR
    // progress argument spelled out above it.
    // ssq-lint: allow(panic-freedom-reachability)
    fn arbitrate(
        &mut self,
        _now: Cycle,
        requesters: PortSet,
        len_of: &dyn Fn(usize) -> u64,
    ) -> Option<usize> {
        if requesters.is_empty() {
            return None;
        }
        let n = self.quanta.len();
        // In a router, a flow whose queue drains loses its deficit. Here a
        // non-requesting input's deficit is cleared, preventing idle flows
        // from banking service.
        for (i, deficit) in self.deficit.iter_mut().enumerate() {
            if !requesters.contains(i) {
                *deficit = 0;
            }
        }
        // Classic DRR service loop, one packet per call. Each flow's turn
        // begins with a single quantum top-up; the flow keeps the channel
        // while its deficit covers head packets, then its turn ends and the
        // leftover deficit carries to its next turn. The iteration bound
        // covers the worst case where every quantum is much smaller than
        // the packets: ceil(max_len / min_quantum) extra laps suffice for
        // some requester's deficit to cover its packet.
        let mut max_len = 1;
        for i in requesters {
            assert!(i < n, "input {i} out of range");
            max_len = max_len.max(len_of(i));
        }
        let min_quantum = self.quanta.iter().copied().min().unwrap_or(1);
        let max_turns = (n as u64) * (max_len / min_quantum + 2);
        for _ in 0..max_turns {
            let c = self.cursor;
            if !requesters.contains(c) {
                self.turn_active = false;
                self.cursor = (c + 1) % n;
                continue;
            }
            let len = len_of(c);
            if !self.turn_active {
                self.deficit[c] += self.quanta[c];
                self.turn_active = true;
            }
            if self.deficit[c] >= len {
                self.deficit[c] -= len;
                return Some(c);
            }
            self.turn_active = false;
            self.cursor = (c + 1) % n;
        }
        unreachable!("deficit growth guarantees a winner within max_turns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_accurate_proportions_with_mixed_packet_sizes() {
        // Input 0 sends 8-flit packets, input 1 sends 2-flit packets, with
        // equal quanta. Flit counts, not packet counts, should equalize.
        let mut dwrr = Dwrr::new(&[8, 8]);
        let both = PortSet::first_n(2);
        let lens = |i: usize| [8, 2][i];
        let mut flits = [0u64; 2];
        for _ in 0..100 {
            let w = dwrr.arbitrate(Cycle::ZERO, both, &lens).unwrap();
            flits[w] += lens(w);
        }
        let ratio = flits[0] as f64 / flits[1] as f64;
        assert!((0.8..=1.25).contains(&ratio), "flit ratio {ratio}");
    }

    #[test]
    fn quantum_proportions_hold() {
        let mut dwrr = Dwrr::new(&[12, 4]);
        let both = PortSet::first_n(2);
        let lens = |_| 4;
        let mut wins = [0u32; 2];
        for _ in 0..64 {
            wins[dwrr.arbitrate(Cycle::ZERO, both, &lens).unwrap()] += 1;
        }
        let ratio = wins[0] as f64 / wins[1] as f64;
        assert!((2.5..=3.5).contains(&ratio), "win ratio {ratio}");
    }

    #[test]
    fn idle_inputs_lose_their_deficit() {
        let mut dwrr = Dwrr::new(&[4, 4]);
        let _ = dwrr.arbitrate(Cycle::ZERO, PortSet::single(0), &|_| 2);
        // Input 1 never requested; its deficit must be zero.
        assert_eq!(dwrr.deficit(1), 0);
    }

    #[test]
    fn work_conserving_with_single_requester() {
        let mut dwrr = Dwrr::new(&[1, 1]);
        for _ in 0..10 {
            assert_eq!(
                dwrr.arbitrate(Cycle::ZERO, PortSet::single(1), &|_| 8),
                Some(1),
                "single requester must always win"
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_quantum_rejected() {
        let _ = Dwrr::new(&[0]);
    }
}
