//! Self-clocked weighted fair queueing.

use ssq_types::{Cycle, PortSet};

use crate::Arbiter;

/// Weighted fair queueing in its self-clocked (SCFQ) form.
///
/// WFQ emulates bit-by-bit weighted round robin by computing a virtual
/// *finish time* for each head packet and serving the smallest (paper
/// §2.2, refs [2, 5, 12]). True WFQ tracks the fluid system's virtual
/// time; the self-clocked variant (Golestani) approximates it with the
/// finish tag of the packet in service, which keeps per-decision cost
/// O(N) — exactly the complexity the paper cites as WFQ's drawback for
/// switch hardware, and the reason SSVC uses coarse counters instead.
///
/// A head packet's finish tag is computed once, when it first competes:
/// `F_i = max(F_last_served, F_i_prev) + len / weight_i`.
///
/// # Examples
///
/// ```
/// use ssq_arbiter::{Arbiter, Wfq};
/// use ssq_types::{Cycle, PortSet};
///
/// let mut wfq = Wfq::new(&[3.0, 1.0]);
/// let both = PortSet::first_n(2);
/// let wins: Vec<_> = (0..8).map(|_| wfq.arbitrate(Cycle::ZERO, both, &|_| 1).unwrap()).collect();
/// assert_eq!(wins.iter().filter(|&&w| w == 0).count(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Wfq {
    weights: Vec<f64>,
    /// Finish tag of the last packet each input completed.
    last_finish: Vec<f64>,
    /// Finish tag stamped on the current head packet, lazily assigned.
    head_tag: Vec<Option<(u64, f64)>>,
    /// Virtual time: finish tag of the most recently served packet.
    virtual_time: f64,
}

impl Wfq {
    /// Creates a WFQ arbiter with one positive weight per input.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or any weight is not strictly
    /// positive and finite.
    #[must_use]
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "need at least one input");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w > 0.0),
            "weights must be positive and finite"
        );
        Wfq {
            weights: weights.to_vec(),
            last_finish: vec![0.0; weights.len()],
            head_tag: vec![None; weights.len()],
            virtual_time: 0.0,
        }
    }

    /// The current virtual time (finish tag of the last served packet).
    #[must_use]
    pub fn virtual_time(&self) -> f64 {
        self.virtual_time
    }
}

impl Arbiter for Wfq {
    fn num_inputs(&self) -> usize {
        self.weights.len()
    }

    //
    // Requester bits are asserted < n before they index the per-input
    // Vecs (the documented harness-bug panic); the winner is one of
    // them; the tag arithmetic is f64 and cannot trap.
    // ssq-lint: allow(panic-freedom-reachability)
    fn arbitrate(
        &mut self,
        _now: Cycle,
        requesters: PortSet,
        len_of: &dyn Fn(usize) -> u64,
    ) -> Option<usize> {
        // Stamp any head packet that does not yet have a tag (or whose
        // length changed, meaning a new packet reached the head), and
        // serve the smallest tag, lowest input on ties.
        let mut best: Option<(usize, f64)> = None;
        for i in requesters {
            assert!(i < self.weights.len(), "input {i} out of range");
            let len = len_of(i);
            let tag = match self.head_tag[i] {
                Some((tagged_len, tag)) if tagged_len == len => tag,
                _ => {
                    let start = self.virtual_time.max(self.last_finish[i]);
                    let tag = start + len as f64 / self.weights[i];
                    self.head_tag[i] = Some((len, tag));
                    tag
                }
            };
            if best.map_or(true, |(_, b)| tag.total_cmp(&b).is_lt()) {
                best = Some((i, tag));
            }
        }
        let (winner, _) = best?;
        let (_, tag) = self.head_tag[winner].take()?;
        self.last_finish[winner] = tag;
        self.virtual_time = tag;
        Some(winner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_weights_alternate() {
        let mut wfq = Wfq::new(&[1.0, 1.0]);
        let both = PortSet::first_n(2);
        let lens = |_| 4;
        let wins: Vec<_> = (0..6)
            .map(|_| wfq.arbitrate(Cycle::ZERO, both, &lens).unwrap())
            .collect();
        assert_eq!(wins, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn weights_control_share() {
        let mut wfq = Wfq::new(&[4.0, 1.0]);
        let both = PortSet::first_n(2);
        let lens = |_| 1;
        let mut wins = [0u32; 2];
        for _ in 0..100 {
            wins[wfq.arbitrate(Cycle::ZERO, both, &lens).unwrap()] += 1;
        }
        assert_eq!(wins, [80, 20]);
    }

    #[test]
    fn packet_length_is_charged() {
        // Equal weights, but input 0 sends packets 4x longer: it should
        // win 1 packet per 4 of input 1 (equal flit share).
        let mut wfq = Wfq::new(&[1.0, 1.0]);
        let both = PortSet::first_n(2);
        let lens = |i: usize| [8, 2][i];
        let mut flits = [0u64; 2];
        for _ in 0..100 {
            let w = wfq.arbitrate(Cycle::ZERO, both, &lens).unwrap();
            flits[w] += lens(w);
        }
        let ratio = flits[0] as f64 / flits[1] as f64;
        assert!((0.9..=1.12).contains(&ratio), "flit ratio {ratio}");
    }

    #[test]
    fn idle_flows_cannot_bank_service() {
        let mut wfq = Wfq::new(&[1.0, 1.0]);
        // Input 0 is served alone for a while; virtual time advances.
        for _ in 0..50 {
            let _ = wfq.arbitrate(Cycle::ZERO, PortSet::single(0), &|_| 1);
        }
        // When input 1 wakes up it starts at current virtual time, so it
        // must not monopolize the channel to "catch up".
        let both = PortSet::first_n(2);
        let lens = |_| 1;
        let wins: Vec<_> = (0..8)
            .map(|_| wfq.arbitrate(Cycle::ZERO, both, &lens).unwrap())
            .collect();
        let ones = wins.iter().filter(|&&w| w == 1).count();
        assert!(ones <= 5, "woken flow monopolized: {wins:?}");
    }

    #[test]
    fn virtual_time_is_monotonic() {
        let mut wfq = Wfq::new(&[1.0, 2.0]);
        let both = PortSet::first_n(2);
        let lens = |i: usize| [3, 5][i];
        let mut prev = wfq.virtual_time();
        for _ in 0..20 {
            let _ = wfq.arbitrate(Cycle::ZERO, both, &lens);
            assert!(wfq.virtual_time() >= prev);
            prev = wfq.virtual_time();
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_weight() {
        let _ = Wfq::new(&[1.0, 0.0]);
    }
}
