//! Quantifies the **deliberate approximation** at SSVC's heart: how often
//! the coarse significant-bit comparison decides differently from a true
//! full-resolution `auxVC` comparison (the reference the paper verified
//! against in §4.1), as a function of the number of significant bits.
//!
//! Divergence is not error — it is the mechanism: where the coarse
//! comparison cannot distinguish counters, LRG takes over and injects the
//! fairness that flattens Fig. 5. This experiment shows the dial:
//! fewer significant bits ⇒ more LRG-decided grants ⇒ more latency
//! fairness, at a (small) cost in instantaneous rate precision.

use ssq_arbiter::{Arbiter, CounterPolicy, SsvcArbiter, SsvcConfig};
use ssq_bench::{emit, FIG4_RATES};
use ssq_sim::sweep;
use ssq_stats::Table;
use ssq_types::{Cycle, PortSet};

const ROUNDS: u64 = 200_000;
const SLOT: u64 = 9; // 8-flit packets + 1 arbitration cycle

/// Runs the coarse arbiter and, before each grant, also evaluates the
/// decision a true full-resolution comparison of the *same* counters
/// would make ("true (non-coarse grained) auxVC value comparison",
/// §4.1) — the only difference between the two readings is resolution.
fn divergence(lsb_bits: u32) -> (f64, f64) {
    let vticks: Vec<u64> = FIG4_RATES
        .iter()
        .map(|&r| SsvcArbiter::slot_vtick(r, SLOT))
        .collect();
    // 4 significant (lane) bits throughout; the sweep changes how much
    // counter value one lane step hides: the 2^lsb_bits quantum.
    let cfg = SsvcConfig::new(4 + lsb_bits, 4, CounterPolicy::SubtractRealClock);
    let mut coarse = SsvcArbiter::new(cfg, &vticks);

    let mut diverged = 0u64;
    let mut wins = [0u64; 8];
    let all = PortSet::first_n(8);
    let mut now = Cycle::ZERO;
    for _ in 0..ROUNDS {
        for _ in 0..SLOT {
            coarse.tick();
            now = now.next();
        }
        // Exact decision over the same counters: smallest full-precision
        // auxVC, exact ties by the shared LRG.
        let min = (0..8).map(|i| coarse.aux_vc(i)).min().expect("non-empty");
        let tied: Vec<usize> = (0..8).filter(|&i| coarse.aux_vc(i) == min).collect();
        let exact_winner = coarse.lrg().peek(&tied).expect("non-empty");

        let coarse_winner = coarse.arbitrate(now, all, &|_| 8).expect("work conserving");
        if coarse_winner != exact_winner {
            diverged += 1;
        }
        wins[coarse_winner] += 1;
    }

    let total: u64 = wins.iter().sum();
    let worst_rate_err = FIG4_RATES
        .iter()
        .enumerate()
        .map(|(i, &r)| (wins[i] as f64 / total as f64 - r).abs())
        .fold(0.0f64, f64::max);
    (diverged as f64 / ROUNDS as f64, worst_rate_err)
}

fn main() {
    let lsbs: Vec<u32> = (1..=11).step_by(2).collect();
    let rows = sweep(&lsbs, |&l| divergence(l));

    let mut t = Table::with_columns(&[
        "LSB bits (hidden)",
        "comparison quantum (counts)",
        "decisions diverging from exact comparison",
        "worst long-run rate error",
    ]);
    t.numeric();
    for (&l, &(div, err)) in lsbs.iter().zip(&rows) {
        t.row(vec![
            l.to_string(),
            (1u64 << l).to_string(),
            format!("{:.1}%", div * 100.0),
            format!("{err:.4}"),
        ]);
    }
    emit(
        "SSVC approximation dial: coarse-vs-exact divergence per decision vs counter quantum (Fig. 4 reservations, saturated; Vticks 22..180 counts)",
        &t,
    );
    println!("Reading the dial: at tiny quanta the whole counter is too narrow to hold");
    println!("the largest Vtick (180 counts), so it saturates and rates collapse toward");
    println!("equal shares — the left edge is a range failure, not a precision win. Once");
    println!("the counter holds its Vticks, hiding more low bits makes over half the");
    println!("grants LRG-decided while the long-run rate error stays under 1% — the");
    println!("paper's claim quantified: coarseness buys latency fairness without losing");
    println!("the bandwidth guarantee.");
}
