//! Deficit weighted round-robin arbitration.

use ssq_types::Cycle;

use crate::{Arbiter, Request};

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
/// use ssq_arbiter::{Arbiter, Dwrr, Request};
/// use ssq_types::Cycle;
///
/// // Input 0 reserves twice the bandwidth of input 1; both send 4-flit
/// // packets, so over one round input 0 sends 2 packets per 1 of input 1.
/// let mut dwrr = Dwrr::new(&[8, 4]);
/// let both = [Request::new(0, 4), Request::new(1, 4)];
/// let wins: Vec<_> = (0..6).map(|_| dwrr.arbitrate(Cycle::ZERO, &both).unwrap()).collect();
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

    fn arbitrate(&mut self, _now: Cycle, requests: &[Request]) -> Option<usize> {
        if requests.is_empty() {
            return None;
        }
        let n = self.quanta.len();
        let mut head_len = vec![None; n];
        for r in requests {
            assert!(r.input() < n, "input {} out of range", r.input());
            head_len[r.input()] = Some(r.len_flits());
        }
        // In a router, a flow whose queue drains loses its deficit. Here a
        // non-requesting input's deficit is cleared, preventing idle flows
        // from banking service.
        for (i, len) in head_len.iter().enumerate() {
            if len.is_none() {
                self.deficit[i] = 0;
            }
        }
        // Classic DRR service loop, one packet per call. Each flow's turn
        // begins with a single quantum top-up; the flow keeps the channel
        // while its deficit covers head packets, then its turn ends and the
        // leftover deficit carries to its next turn. The iteration bound
        // covers the worst case where every quantum is much smaller than
        // the packets: ceil(max_len / min_quantum) extra laps suffice for
        // some requester's deficit to cover its packet.
        let max_len = head_len.iter().flatten().copied().max().unwrap_or(1);
        let min_quantum = self.quanta.iter().copied().min().unwrap_or(1);
        let max_turns = (n as u64) * (max_len / min_quantum + 2);
        for _ in 0..max_turns {
            let c = self.cursor;
            let Some(len) = head_len[c] else {
                self.turn_active = false;
                self.cursor = (c + 1) % n;
                continue;
            };
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
        let both = [Request::new(0, 8), Request::new(1, 2)];
        let mut flits = [0u64; 2];
        for _ in 0..100 {
            let w = dwrr.arbitrate(Cycle::ZERO, &both).unwrap();
            flits[w] += both[w].len_flits();
        }
        let ratio = flits[0] as f64 / flits[1] as f64;
        assert!((0.8..=1.25).contains(&ratio), "flit ratio {ratio}");
    }

    #[test]
    fn quantum_proportions_hold() {
        let mut dwrr = Dwrr::new(&[12, 4]);
        let both = [Request::new(0, 4), Request::new(1, 4)];
        let mut wins = [0u32; 2];
        for _ in 0..64 {
            wins[dwrr.arbitrate(Cycle::ZERO, &both).unwrap()] += 1;
        }
        let ratio = wins[0] as f64 / wins[1] as f64;
        assert!((2.5..=3.5).contains(&ratio), "win ratio {ratio}");
    }

    #[test]
    fn idle_inputs_lose_their_deficit() {
        let mut dwrr = Dwrr::new(&[4, 4]);
        let _ = dwrr.arbitrate(Cycle::ZERO, &[Request::new(0, 2)]);
        // Input 1 never requested; its deficit must be zero.
        assert_eq!(dwrr.deficit(1), 0);
    }

    #[test]
    fn work_conserving_with_single_requester() {
        let mut dwrr = Dwrr::new(&[1, 1]);
        for _ in 0..10 {
            assert_eq!(
                dwrr.arbitrate(Cycle::ZERO, &[Request::new(1, 8)]),
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
