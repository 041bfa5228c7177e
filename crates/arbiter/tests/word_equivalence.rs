//! Word-API equivalence: every policy, driven through the requester
//! word and head-length lookup of [`Arbiter::arbitrate`], grants
//! exactly what a scalar reference built here grants — one that walks
//! the inputs one by one, keeps LRG as an explicit priority list rather
//! than a bit matrix, and ticks its clocks one cycle at a time.

use ssq_arbiter::{
    Arbiter, CounterPolicy, Dwrr, FixedPriority, FourLevel, Gsf, Lrg, RoundRobin, SsvcArbiter,
    SsvcConfig, VirtualClock, Wfq, Wrr,
};
use ssq_types::rng::Xoshiro256StarStar;
use ssq_types::{Cycle, PortSet};

/// One cycle's requests: `reqs[i]` is input `i`'s head length, if it
/// requests.
type Reqs = Vec<Option<u64>>;

fn word(reqs: &Reqs) -> PortSet {
    reqs.iter()
        .enumerate()
        .filter(|(_, r)| r.is_some())
        .map(|(i, _)| i)
        .collect()
}

/// The scalar reference of one policy.
trait Reference {
    fn arbitrate(&mut self, now: u64, reqs: &Reqs) -> Option<usize>;
    fn tick(&mut self) {}
}

/// LRG as a priority list, most preferred first.
#[derive(Clone)]
struct RefLrg(Vec<usize>);

impl RefLrg {
    fn new(n: usize) -> Self {
        RefLrg((0..n).collect())
    }
    fn peek(&self, eligible: impl Fn(usize) -> bool) -> Option<usize> {
        self.0.iter().copied().find(|&i| eligible(i))
    }
    fn grant(&mut self, w: usize) {
        self.0.retain(|&i| i != w);
        self.0.push(w);
    }
}

impl Reference for RefLrg {
    fn arbitrate(&mut self, _now: u64, reqs: &Reqs) -> Option<usize> {
        let w = self.peek(|i| reqs[i].is_some())?;
        self.grant(w);
        Some(w)
    }
}

struct RefRoundRobin {
    next: usize,
}

impl Reference for RefRoundRobin {
    fn arbitrate(&mut self, _now: u64, reqs: &Reqs) -> Option<usize> {
        let n = reqs.len();
        let w = (0..n)
            .map(|k| (self.next + k) % n)
            .find(|&i| reqs[i].is_some())?;
        self.next = (w + 1) % n;
        Some(w)
    }
}

struct RefFixed;

impl Reference for RefFixed {
    fn arbitrate(&mut self, _now: u64, reqs: &Reqs) -> Option<usize> {
        (0..reqs.len()).find(|&i| reqs[i].is_some())
    }
}

struct RefWrr {
    weights: Vec<u64>,
    credits: Vec<u64>,
    cursor: usize,
}

impl Reference for RefWrr {
    fn arbitrate(&mut self, _now: u64, reqs: &Reqs) -> Option<usize> {
        let n = reqs.len();
        if (0..n).all(|i| reqs[i].is_none()) {
            return None;
        }
        if (0..n).all(|i| reqs[i].is_none() || self.credits[i] == 0) {
            self.credits.clone_from(&self.weights);
        }
        let w = (0..n)
            .map(|k| (self.cursor + k) % n)
            .find(|&i| reqs[i].is_some() && self.credits[i] > 0)?;
        self.credits[w] -= 1;
        self.cursor = if self.credits[w] == 0 { (w + 1) % n } else { w };
        Some(w)
    }
}

struct RefDwrr {
    quanta: Vec<u64>,
    deficit: Vec<u64>,
    cursor: usize,
    active: bool,
}

impl Reference for RefDwrr {
    fn arbitrate(&mut self, _now: u64, reqs: &Reqs) -> Option<usize> {
        let n = reqs.len();
        if reqs.iter().all(Option::is_none) {
            return None;
        }
        for i in 0..n {
            if reqs[i].is_none() {
                self.deficit[i] = 0;
            }
        }
        loop {
            let c = self.cursor;
            let Some(len) = reqs[c] else {
                self.active = false;
                self.cursor = (c + 1) % n;
                continue;
            };
            if !self.active {
                self.deficit[c] += self.quanta[c];
                self.active = true;
            }
            if self.deficit[c] >= len {
                self.deficit[c] -= len;
                return Some(c);
            }
            self.active = false;
            self.cursor = (c + 1) % n;
        }
    }
}

struct RefWfq {
    weights: Vec<f64>,
    last_finish: Vec<f64>,
    head_tag: Vec<Option<(u64, f64)>>,
    virtual_time: f64,
}

impl Reference for RefWfq {
    fn arbitrate(&mut self, _now: u64, reqs: &Reqs) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, r) in reqs.iter().enumerate() {
            let Some(len) = *r else { continue };
            if self.head_tag[i].map_or(true, |(l, _)| l != len) {
                let start = self.virtual_time.max(self.last_finish[i]);
                self.head_tag[i] = Some((len, start + len as f64 / self.weights[i]));
            }
        }
        for (i, r) in reqs.iter().enumerate() {
            if r.is_none() {
                continue;
            }
            let (_, tag) = self.head_tag[i]?;
            if best.map_or(true, |(_, b)| tag < b) {
                best = Some((i, tag));
            }
        }
        let (w, tag) = best?;
        self.head_tag[w] = None;
        self.last_finish[w] = tag;
        self.virtual_time = tag;
        Some(w)
    }
}

struct RefVirtualClock {
    vticks: Vec<f64>,
    aux: Vec<f64>,
    /// The stamp of each input's queued head, if stamped.
    queued: Vec<Option<f64>>,
}

impl Reference for RefVirtualClock {
    fn arbitrate(&mut self, now: u64, reqs: &Reqs) -> Option<usize> {
        // Driven through the arbiter interface alone, a head is stamped
        // when it first competes and keeps that stamp until served.
        let mut best: Option<(usize, f64)> = None;
        for (i, r) in reqs.iter().enumerate() {
            if r.is_none() {
                continue;
            }
            let stamp = match self.queued[i] {
                Some(stamp) => stamp,
                None => {
                    self.aux[i] = self.aux[i].max(now as f64) + self.vticks[i];
                    self.queued[i] = Some(self.aux[i]);
                    self.aux[i]
                }
            };
            if best.map_or(true, |(_, b)| stamp < b) {
                best = Some((i, stamp));
            }
        }
        let (w, _) = best?;
        self.queued[w] = None;
        Some(w)
    }
}

struct RefGsf {
    budgets: Vec<u64>,
    remaining: Vec<u64>,
    frame: u64,
    elapsed: u64,
    lrg: RefLrg,
}

impl Reference for RefGsf {
    fn arbitrate(&mut self, _now: u64, reqs: &Reqs) -> Option<usize> {
        let n = reqs.len();
        if reqs.iter().all(Option::is_none) {
            return None;
        }
        let budgeted = |rem: &[u64], i: usize| reqs[i].is_some_and(|l| rem[i] >= l);
        if !(0..n).any(|i| budgeted(&self.remaining, i)) && self.elapsed > 0 {
            self.remaining.clone_from(&self.budgets);
            self.elapsed = 0;
        }
        let any = (0..n).any(|i| budgeted(&self.remaining, i));
        let rem = self.remaining.clone();
        let w = self.lrg.peek(|i| {
            if any {
                budgeted(&rem, i)
            } else {
                reqs[i].is_some()
            }
        })?;
        self.lrg.grant(w);
        self.remaining[w] = self.remaining[w].saturating_sub(reqs[w].unwrap_or(0));
        Some(w)
    }

    fn tick(&mut self) {
        self.elapsed += 1;
        if self.elapsed >= self.frame {
            self.remaining.clone_from(&self.budgets);
            self.elapsed = 0;
        }
    }
}

struct RefSsvc {
    cfg: SsvcConfig,
    vticks: Vec<u64>,
    aux: Vec<u64>,
    lrg: RefLrg,
    real_lsb: u64,
}

impl Reference for RefSsvc {
    fn arbitrate(&mut self, _now: u64, reqs: &Reqs) -> Option<usize> {
        let msb = |a: u64| a >> self.cfg.lsb_bits();
        let min = (0..reqs.len())
            .filter(|&i| reqs[i].is_some())
            .map(|i| msb(self.aux[i]))
            .min()?;
        let aux = self.aux.clone();
        let w = self.lrg.peek(|i| reqs[i].is_some() && msb(aux[i]) == min)?;
        self.lrg.grant(w);
        let cap = self.cfg.saturation_cap();
        self.aux[w] = (self.aux[w] + self.vticks[w]).min(cap);
        if self.aux[w] == cap {
            match self.cfg.policy() {
                CounterPolicy::SubtractRealClock => {}
                CounterPolicy::Halve => self.aux.iter_mut().for_each(|a| *a >>= 1),
                CounterPolicy::Reset => self.aux.fill(0),
            }
        }
        Some(w)
    }

    fn tick(&mut self) {
        if self.cfg.policy() != CounterPolicy::SubtractRealClock {
            return;
        }
        self.real_lsb += 1;
        if self.real_lsb == self.cfg.msb_step() {
            self.real_lsb = 0;
            let step = self.cfg.msb_step();
            self.aux
                .iter_mut()
                .for_each(|a| *a = a.saturating_sub(step));
        }
    }
}

/// Random requests: each input requests with probability `p`, with a
/// head length from a per-input palette (lengths change over time, as
/// new packets reach the head).
fn random_reqs(rng: &mut Xoshiro256StarStar, n: usize, p: f64) -> Reqs {
    (0..n)
        .map(|_| rng.chance(p).then(|| 1 + rng.below(12)))
        .collect()
}

/// Runs `word_arb` and `reference` side by side over random request
/// streams, with random idle gaps ticked through `tick_batch` on the
/// word side and tick by tick on the reference side.
fn check(name: &str, n: usize, mut word_arb: Box<dyn Arbiter>, mut reference: Box<dyn Reference>) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x5eed ^ n as u64 ^ name.len() as u64);
    let mut now = 0u64;
    for step in 0..3_000 {
        let gap = rng.below(4);
        word_arb.tick_batch(gap);
        for _ in 0..gap {
            reference.tick();
        }
        now += gap;
        let p = [0.1, 0.5, 0.9][step % 3];
        let reqs = random_reqs(&mut rng, n, p);
        let lens = |i: usize| reqs[i].expect("only requesters are looked up");
        let got = word_arb.arbitrate(Cycle::new(now), word(&reqs), &lens);
        let want = reference.arbitrate(now, &reqs);
        assert_eq!(
            got, want,
            "{name} (n={n}) diverged at step {step}: {reqs:?}"
        );
    }
}

const RADICES: [usize; 4] = [1, 5, 8, 64];

#[test]
fn lrg_round_robin_and_fixed_priority_match_their_scalar_references() {
    for n in RADICES {
        check("lrg", n, Box::new(Lrg::new(n)), Box::new(RefLrg::new(n)));
        check(
            "round-robin",
            n,
            Box::new(RoundRobin::new(n)),
            Box::new(RefRoundRobin { next: 0 }),
        );
        check(
            "fixed",
            n,
            Box::new(FixedPriority::new(n)),
            Box::new(RefFixed),
        );
    }
}

#[test]
fn weighted_round_robins_match_their_scalar_references() {
    for n in RADICES {
        let weights: Vec<u64> = (0..n as u64).map(|i| 1 + i % 4).collect();
        check(
            "wrr",
            n,
            Box::new(Wrr::new(&weights)),
            Box::new(RefWrr {
                weights: weights.clone(),
                credits: weights.clone(),
                cursor: 0,
            }),
        );
        let quanta: Vec<u64> = (0..n as u64).map(|i| 3 + i % 7).collect();
        check(
            "dwrr",
            n,
            Box::new(Dwrr::new(&quanta)),
            Box::new(RefDwrr {
                quanta: quanta.clone(),
                deficit: vec![0; n],
                cursor: 0,
                active: false,
            }),
        );
    }
}

#[test]
fn fair_queueing_matches_its_scalar_reference() {
    for n in RADICES {
        let weights: Vec<f64> = (0..n).map(|i| 0.5 + (i % 3) as f64).collect();
        check(
            "wfq",
            n,
            Box::new(Wfq::new(&weights)),
            Box::new(RefWfq {
                weights,
                last_finish: vec![0.0; n],
                head_tag: vec![None; n],
                virtual_time: 0.0,
            }),
        );
    }
}

#[test]
fn gsf_matches_its_scalar_reference() {
    for n in RADICES {
        let budgets: Vec<u64> = (0..n as u64).map(|i| 4 + 3 * (i % 5)).collect();
        check(
            "gsf",
            n,
            Box::new(Gsf::new(&budgets, 37)),
            Box::new(RefGsf {
                budgets: budgets.clone(),
                remaining: budgets,
                frame: 37,
                elapsed: 0,
                lrg: RefLrg::new(n),
            }),
        );
    }
}

#[test]
fn ssvc_matches_its_scalar_reference_under_every_counter_policy() {
    for policy in [
        CounterPolicy::SubtractRealClock,
        CounterPolicy::Halve,
        CounterPolicy::Reset,
    ] {
        for n in RADICES {
            let cfg = SsvcConfig::new(10, 3, policy);
            let vticks: Vec<u64> = (0..n as u64).map(|i| 20 + 37 * (i % 9)).collect();
            check(
                &format!("ssvc-{policy}"),
                n,
                Box::new(SsvcArbiter::new(cfg, &vticks)),
                Box::new(RefSsvc {
                    cfg,
                    vticks,
                    aux: vec![0; n],
                    lrg: RefLrg::new(n),
                    real_lsb: 0,
                }),
            );
        }
    }
}

#[test]
fn virtual_clock_matches_its_scalar_reference() {
    for n in RADICES {
        let vticks: Vec<f64> = (0..n).map(|i| 4.0 + (i % 5) as f64).collect();
        check(
            "virtual-clock",
            n,
            Box::new(VirtualClock::new(&vticks)),
            Box::new(RefVirtualClock {
                vticks,
                aux: vec![0.0; n],
                queued: vec![None; n],
            }),
        );
    }
}

/// The 4-level scheme: one word per level against a scalar reference
/// that scans inputs for the highest level, LRG within it.
#[test]
fn four_level_words_match_their_scalar_reference() {
    for n in RADICES {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x41 + n as u64);
        let mut word_arb = FourLevel::new(n);
        let mut per_level: Vec<RefLrg> = (0..4).map(|_| RefLrg::new(n)).collect();
        for step in 0..3_000 {
            let levels: Vec<Option<usize>> = (0..n)
                .map(|_| rng.chance(0.4).then(|| rng.index(4)))
                .collect();
            let mut words = [PortSet::EMPTY; 4];
            for (i, l) in levels.iter().enumerate() {
                if let Some(l) = *l {
                    words[l].insert(i);
                }
            }
            let want = levels.iter().flatten().copied().max().and_then(|top| {
                let lrg = &mut per_level[top];
                let w = lrg.peek(|i| levels[i] == Some(top))?;
                lrg.grant(w);
                Some((w, top))
            });
            assert_eq!(
                word_arb.arbitrate_levels(words),
                want,
                "four-level (n={n}) diverged at step {step}"
            );
        }
    }
}
