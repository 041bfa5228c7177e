//! Static/dynamic agreement: the counter-overflow predictions of
//! `ssq_check::overflow` must match what a real [`SsvcArbiter`] does —
//! the same behaviours the arbiter's own saturation tests
//! (`halve_policy_triggers_on_saturation`,
//! `subtract_epoch_boundary_is_exact`) pin down.

use ssq_arbiter::{Arbiter, CounterPolicy, SsvcArbiter, SsvcConfig};
use ssq_check::overflow::predict;
use ssq_types::{Cycle, PortSet, Rate};

fn rate(v: f64) -> Rate {
    Rate::new(v).expect("valid rate")
}

/// Drives `arb` until input 0's counter saturates (no real-time decay),
/// returning the number of wins it took.
fn wins_until_saturation(config: SsvcConfig, vtick: u64) -> u64 {
    let mut arb = SsvcArbiter::new(config, &[vtick]);
    let mut wins = 0;
    while arb.aux_vc(0) < config.saturation_cap() {
        let winner = arb.arbitrate(Cycle::ZERO, PortSet::single(0), &|_| 8);
        assert_eq!(winner, Some(0));
        wins += 1;
        assert!(wins <= config.saturation_cap(), "never saturated");
    }
    wins
}

#[test]
fn wins_to_saturation_matches_the_arbiter() {
    let config = SsvcConfig::new(12, 3, CounterPolicy::SubtractRealClock);
    for (rate_v, slot) in [(0.5, 9), (0.25, 9), (0.1, 5), (0.9, 2), (1.0, 1)] {
        let p = predict(config, rate(rate_v), slot);
        assert_eq!(
            wins_until_saturation(config, p.vtick),
            p.wins_to_saturation,
            "rate {rate_v}, slot {slot}, vtick {}",
            p.vtick
        );
    }
}

#[test]
fn cap_sized_vtick_halves_on_the_first_win() {
    // Mirrors ssvc.rs's halve_policy_triggers_on_saturation: with a
    // Vtick equal to the 12-bit cap, the prediction says one win
    // saturates — and the arbiter's halve policy indeed fires on win #1.
    let config = SsvcConfig::new(12, 3, CounterPolicy::Halve);
    let gl_rate = rate(9.0 / 4095.0);
    let p = predict(config, gl_rate, 9);
    assert_eq!(p.vtick, 4095);
    assert_eq!(p.wins_to_saturation, 1);

    let mut arb = SsvcArbiter::new(config, &[p.vtick, 10]);
    arb.set_aux_vc(1, 3000);
    let _ = arb.arbitrate(Cycle::ZERO, PortSet::single(0), &|_| 8);
    // Saturation at the first win triggered the halving of everyone.
    assert_eq!(arb.aux_vc(0), 4095 >> 1);
    assert_eq!(arb.aux_vc(1), 1500);
}

#[test]
fn decay_epoch_matches_the_real_time_clock() {
    // The analyzer reports the subtract-real-clock decay epoch as one
    // MSB step (mirrors subtract_epoch_boundary_is_exact): the arbiter
    // must decay exactly at that boundary, not one tick early.
    let config = SsvcConfig::new(12, 3, CounterPolicy::SubtractRealClock);
    let epoch = config.msb_step();
    let mut arb = SsvcArbiter::new(config, &[1]);
    arb.set_aux_vc(0, 1000);
    for _ in 0..epoch - 1 {
        arb.tick();
    }
    assert_eq!(arb.aux_vc(0), 1000, "decayed before the predicted epoch");
    arb.tick();
    assert_eq!(
        arb.aux_vc(0),
        1000 - epoch,
        "decay missed the predicted epoch"
    );
}

#[test]
fn lanes_per_win_matches_the_thermometer_movement() {
    let config = SsvcConfig::new(12, 3, CounterPolicy::SubtractRealClock);
    for (rate_v, slot) in [(0.5, 9), (0.01, 9), (0.002, 8)] {
        let p = predict(config, rate(rate_v), slot);
        if p.vtick > config.saturation_cap() {
            continue; // SSQ005 territory, no meaningful lane delta
        }
        let mut arb = SsvcArbiter::new(config, &[p.vtick]);
        let before = arb.aux_vc(0) >> config.lsb_bits();
        let _ = arb.arbitrate(Cycle::ZERO, PortSet::single(0), &|_| 8);
        let after = arb.aux_vc(0) >> config.lsb_bits();
        // One win moves the thermometer by floor(vtick / step) or one
        // more (carry from the low bits); the prediction is the ceiling.
        let moved = after - before;
        assert!(
            moved == p.lanes_per_win || moved + 1 == p.lanes_per_win,
            "rate {rate_v}: moved {moved} lanes, predicted {}",
            p.lanes_per_win
        );
    }
}
