//! Metric formulas. Everything here is a pure function of simulator
//! outputs, so each formula is unit-tested on hand-built inputs.

use ssq_stats::FlowMetrics;

/// The shortfall grace of the `radix64` campaign: a GB flow may run
/// this far (flits/cycle) below its guarantee before it counts as
/// starved.
pub const GB_GRACE: f64 = 0.005;

/// The service lag a rate guarantee tolerates on top of [`GB_GRACE`]:
/// two 8-flit packets (one finishing transmission, one waiting out its
/// arbitration slot). It keeps the gate meaningful over short runs,
/// where one packet is a large share of the delivered rate; over the
/// workloads' full schedules it adds less than 0.0001 flits/cycle.
pub const GB_LAG_FLITS: f64 = 16.0;

/// How far (flits/cycle) a GB flow may fall short of its guarantee over
/// `cycles` cycles before the gate fails it.
#[must_use]
pub fn gb_tolerance(cycles: u64) -> f64 {
    GB_GRACE + GB_LAG_FLITS / cycles.max(1) as f64
}

/// Median of `values` (mean of the two middle values for an even
/// count); `0.0` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A percentile of a pooled sample, with the pool's size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pooled {
    /// The percentile value (cycles, at the histograms' bin resolution).
    pub value: u64,
    /// Number of samples in the pool.
    pub samples: u64,
}

/// The `k`-th smallest latency (1-based) of one flow, as its histogram
/// resolves it: the upper edge of the bin holding that sample, or the
/// exact maximum for a sample past the binned range.
fn kth(flow: &FlowMetrics, k: u64) -> u64 {
    let n = flow.packets();
    // ceil((p / 100) * n) == k for p = 100 (k - 1/2) / n.
    let p = 100.0 * (k as f64 - 0.5) / n as f64;
    flow.latency_percentile(p).unwrap_or(0)
}

/// How many of `flow`'s samples resolve to a value `<= v`.
fn rank_le(flow: &FlowMetrics, v: u64) -> u64 {
    let (mut lo, mut hi) = (0, flow.packets());
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if kth(flow, mid) <= v {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

/// The `p`-th percentile (`0..=100`) over the union of every flow's
/// latency samples — what merging their histograms and asking for the
/// percentile would give — read through the public per-flow percentile
/// API only. `None` when no flow delivered a packet.
#[must_use]
pub fn pooled_percentile(flows: &[&FlowMetrics], p: f64) -> Option<Pooled> {
    let samples: u64 = flows.iter().map(|f| f.packets()).sum();
    if samples == 0 {
        return None;
    }
    let target = ((p / 100.0) * samples as f64).ceil().max(1.0) as u64;
    let live: Vec<&FlowMetrics> = flows.iter().copied().filter(|f| f.packets() > 0).collect();
    let (mut lo, mut hi) = (0u64, live.iter().map(|f| kth(f, f.packets())).max()?);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let below: u64 = live.iter().map(|f| rank_le(f, mid)).sum();
        if below >= target {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(Pooled { value: lo, samples })
}

/// A GB flow's shortfall over an interval of `cycles` cycles, in
/// flits/cycle: how far its delivered rate fell below the rate its
/// guarantee entitled it to (`guaranteed` flits over the interval),
/// floored at 0.
#[must_use]
pub fn shortfall(guaranteed: f64, delivered_flits: u64, cycles: u64) -> f64 {
    if cycles == 0 {
        return 0.0;
    }
    ((guaranteed - delivered_flits as f64) / cycles as f64).max(0.0)
}

/// The guarantee ledger of a run's GB flows: per flow, cumulative
/// offered flits, owed flits and delivered flits, sampled at window
/// boundaries of the measured phase.
///
/// * Over an interval, a flow's guaranteed rate is the smaller of its
///   offered rate and its reserved share
///   ([`GuaranteeLog::block_maxima`] takes the worst such shortfall per
///   block of windows).
/// * The *owed* count applies the same rule cycle by cycle: a
///   backlogged flow offers more than any share and an empty one offers
///   nothing, so each backlogged cycle adds the reserved share. Unlike
///   offered flits, it never counts packets a source dropped at its own
///   full staging queue, so it is what the correctness gate holds the
///   switch to ([`GuaranteeLog::whole_run`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GuaranteeLog {
    /// Each flow's reserved share in flits/cycle.
    pub reserved: Vec<f64>,
    offered: Vec<u64>,
    owed: Vec<f64>,
    snaps: Vec<Snapshot>,
}

/// One boundary sample of a [`GuaranteeLog`].
#[derive(Debug, Clone, PartialEq)]
struct Snapshot {
    cycle: u64,
    offered: Vec<u64>,
    owed: Vec<f64>,
    delivered: Vec<u64>,
}

impl GuaranteeLog {
    /// A log for flows with the given reserved shares (flits/cycle).
    #[must_use]
    pub fn new(reserved: Vec<f64>) -> Self {
        GuaranteeLog {
            offered: vec![0; reserved.len()],
            owed: vec![0.0; reserved.len()],
            reserved,
            snaps: Vec::new(),
        }
    }

    /// Flow `f` offered `flits` more flits.
    pub fn offer(&mut self, f: usize, flits: u64) {
        self.offered[f] += flits;
    }

    /// Sets flow `f`'s cumulative offered flits.
    pub fn set_offered(&mut self, f: usize, flits: u64) {
        self.offered[f] = flits;
    }

    /// Accounts one cycle of owed service: `backlogged(f)` says whether
    /// flow `f` had traffic waiting.
    pub fn cycle(&mut self, backlogged: impl Fn(usize) -> bool) {
        for (f, owed) in self.owed.iter_mut().enumerate() {
            if backlogged(f) {
                *owed += self.reserved[f];
            }
        }
    }

    /// Records a snapshot at `cycle` with each flow's cumulative
    /// delivered flits.
    pub fn snap(&mut self, cycle: u64, delivered: Vec<u64>) {
        self.snaps.push(Snapshot {
            cycle,
            offered: self.offered.clone(),
            owed: self.owed.clone(),
            delivered,
        });
    }

    /// The worst windowed shortfall of each block of `per_block`
    /// consecutive windows: over every window between consecutive
    /// snapshots, each flow's guaranteed rate is the smaller of its
    /// offered rate in that window and its reserved share, and a block's
    /// value is the largest shortfall of any flow in any of its windows
    /// — a service guarantee must hold over every interval, not only on
    /// average. A trailing partial block is dropped.
    #[must_use]
    pub fn block_maxima(&self, per_block: usize) -> Vec<f64> {
        let per_block = per_block.max(1);
        let windows: Vec<f64> = self
            .snaps
            .windows(2)
            .map(|w| {
                let (a, b) = (&w[0], &w[1]);
                let cycles = b.cycle - a.cycle;
                self.reserved
                    .iter()
                    .enumerate()
                    .map(|(f, &share)| {
                        let offered = (b.offered[f] - a.offered[f]) as f64;
                        let guaranteed = offered.min(share * cycles as f64);
                        shortfall(guaranteed, b.delivered[f] - a.delivered[f], cycles)
                    })
                    .fold(0.0, f64::max)
            })
            .collect();
        windows
            .chunks_exact(per_block)
            .map(|block| block.iter().copied().fold(0.0, f64::max))
            .collect()
    }

    /// Cycles from the first to the last snapshot.
    #[must_use]
    pub fn span(&self) -> u64 {
        match (self.snaps.first(), self.snaps.last()) {
            (Some(a), Some(b)) => b.cycle - a.cycle,
            _ => 0,
        }
    }

    /// The largest shortfall of any flow against its owed service over
    /// the whole measured phase (first to last snapshot) — what the
    /// correctness gate holds to [`gb_tolerance`].
    #[must_use]
    pub fn whole_run(&self) -> f64 {
        let (Some(a), Some(b)) = (self.snaps.first(), self.snaps.last()) else {
            return 0.0;
        };
        (0..self.reserved.len())
            .map(|f| {
                shortfall(
                    b.owed[f] - a.owed[f],
                    b.delivered[f] - a.delivered[f],
                    b.cycle - a.cycle,
                )
            })
            .fold(0.0, f64::max)
    }
}

/// `gl_wait_bound_ratio`: the worst observed GL wait over its bound.
#[must_use]
pub fn gl_wait_bound_ratio(worst_wait: u64, bound: u64) -> f64 {
    worst_wait as f64 / bound.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssq_types::{Cycles, FlowId, InputId, OutputId};

    fn flow(latencies: &[u64]) -> FlowMetrics {
        let mut m = FlowMetrics::new(FlowId::new(InputId::new(0), OutputId::new(0)));
        for &l in latencies {
            m.record_delivery(Cycles::new(l), 1);
        }
        m
    }

    /// The bin upper edge `Histogram::percentile` reports for `v`
    /// (bin width 4, 1024 bins).
    fn edge(v: u64) -> u64 {
        (v / 4 + 1) * 4 - 1
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn pooled_percentile_matches_a_merged_sort() {
        let a = flow(&[1, 5, 9, 13, 100, 2000]);
        let b = flow(&[2, 2, 2, 40, 41, 42, 43, 44, 45, 300]);
        let c = flow(&[]);
        let mut all: Vec<u64> = [1, 5, 9, 13, 100, 2000, 2, 2, 2, 40, 41, 42, 43, 44, 45, 300]
            .iter()
            .map(|&v| edge(v))
            .collect();
        all.sort_unstable();
        for p in [1.0, 10.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let got = pooled_percentile(&[&a, &b, &c], p).unwrap();
            let k = ((p / 100.0) * all.len() as f64).ceil().max(1.0) as usize;
            assert_eq!(got.value, all[k - 1], "p{p}");
            assert_eq!(got.samples, 16);
        }
    }

    #[test]
    fn pooled_percentile_of_one_flow_is_its_own_percentile() {
        let a = flow(&(0..1000).map(|i| (i * 7) % 911).collect::<Vec<_>>());
        for p in [0.5, 50.0, 99.0] {
            let got = pooled_percentile(&[&a], p).unwrap();
            assert_eq!(Some(got.value), a.latency_percentile(p));
            assert_eq!(got.samples, 1000);
        }
    }

    #[test]
    fn pooled_percentile_reports_overflow_as_the_maximum() {
        // 4096 cycles is past the 1024 x 4 binned range.
        let a = flow(&[10, 10, 10, 9000]);
        let got = pooled_percentile(&[&a], 99.0).unwrap();
        assert_eq!(got.value, 9000);
        assert_eq!(pooled_percentile(&[&flow(&[])], 99.0), None);
    }

    #[test]
    fn shortfall_is_guaranteed_minus_delivered_floored() {
        assert!((shortfall(250.0, 200, 1000) - 0.05).abs() < 1e-12);
        assert_eq!(shortfall(250.0, 300, 1000), 0.0);
        assert_eq!(shortfall(250.0, 0, 0), 0.0);
    }

    #[test]
    fn block_maxima_take_the_smaller_of_offered_and_reserved() {
        let mut log = GuaranteeLog::new(vec![0.5, 0.1]);
        log.snap(0, vec![0, 0]);
        // Window 1 (100 cycles): flow 0 offered 60 > its 50-flit share
        // and got 40 -> short 0.1; flow 1 offered 5 and got 5.
        log.offer(0, 60);
        log.offer(1, 5);
        log.snap(100, vec![40, 5]);
        // Window 2: flow 0 offered 10, got 10; flow 1 offered 8 (below
        // its 10-flit share) and got 6 -> short 0.02.
        log.offer(0, 10);
        log.offer(1, 8);
        log.snap(200, vec![50, 11]);
        assert_eq!(log.block_maxima(1).len(), 2);
        assert!((log.block_maxima(1)[0] - 0.1).abs() < 1e-12);
        assert!((log.block_maxima(1)[1] - 0.02).abs() < 1e-12);
        assert!((log.block_maxima(2)[0] - 0.1).abs() < 1e-12);
        assert!(log.block_maxima(3).is_empty());
        assert!(GuaranteeLog::new(vec![0.1]).block_maxima(1).is_empty());
    }

    #[test]
    fn whole_run_owes_the_share_only_while_backlogged() {
        let mut log = GuaranteeLog::new(vec![0.5, 0.1]);
        log.snap(0, vec![0, 0]);
        // Flow 0 backlogged 100 of 200 cycles: owed 50, got 40.
        // Flow 1 backlogged throughout: owed 20, got 20.
        for c in 0..200 {
            log.cycle(|f| f == 1 || c < 100);
        }
        // Offered flits (e.g. a burst the source's staging dropped) do
        // not change what is owed.
        log.offer(0, 500);
        log.snap(200, vec![40, 20]);
        assert!((log.whole_run() - 0.05).abs() < 1e-12);
        assert_eq!(log.span(), 200);
        assert_eq!(GuaranteeLog::new(vec![0.1]).whole_run(), 0.0);
    }

    #[test]
    fn tolerance_is_the_grace_plus_a_two_packet_lag() {
        assert!((gb_tolerance(1_000) - 0.021).abs() < 1e-12);
        assert!((gb_tolerance(400_000) - 0.00504).abs() < 1e-12);
    }

    #[test]
    fn gl_ratio_divides_by_the_bound() {
        assert!((gl_wait_bound_ratio(12, 16) - 0.75).abs() < 1e-12);
        assert_eq!(gl_wait_bound_ratio(3, 0), 3.0);
    }
}
