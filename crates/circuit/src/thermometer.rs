//! The thermometer-code shift register of Fig. 2.
//!
//! In silicon, the thermometer code is not recomputed from the `auxVC`
//! counter each cycle — it is a shift register that tracks the counter's
//! significant bits incrementally: "The thermometer code vector is
//! updated by shifting it up by 1 each time the most significant bits of
//! auxVC change" (§3.1), shifted *down* one position when the real-time
//! subcounter saturates (subtract policy), halved by copying "the top
//! half of the thermometer code … to the bottom half" (§3.1, halving
//! method), or cleared outright (reset method).
//!
//! [`ThermometerRegister`] models that register, and the tests drive it
//! in lockstep with a behavioural [`ssq_arbiter::SsvcArbiter`] to show
//! the incremental updates always agree with the recomputed code.

use std::fmt;

/// A `lanes`-bit unary (thermometer) shift register.
///
/// The register holds `value + 1` low-order ones for a thermometer value
/// in `0..lanes`; the encoded value selects which lane the crosspoint's
/// sense amp listens to.
///
/// # Examples
///
/// ```
/// use ssq_circuit::ThermometerRegister;
///
/// let mut reg = ThermometerRegister::new(8);
/// assert_eq!(reg.value(), 0);
/// reg.shift_up();
/// reg.shift_up();
/// assert_eq!(reg.value(), 2);
/// assert_eq!(reg.code(), 0b111);
/// reg.shift_down();
/// assert_eq!(reg.value(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThermometerRegister {
    code: u64,
    lanes: u32,
}

impl ThermometerRegister {
    /// Creates a register over `lanes` lanes, initialized to value 0
    /// (one low bit set).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= lanes <= 63`.
    #[must_use]
    pub fn new(lanes: u32) -> Self {
        assert!((1..=63).contains(&lanes), "lanes {lanes} outside 1..=63");
        ThermometerRegister { code: 1, lanes }
    }

    /// Number of lanes the register spans.
    #[must_use]
    pub const fn lanes(&self) -> u32 {
        self.lanes
    }

    /// The register's raw unary code (bit `j` set iff `j <= value`).
    #[must_use]
    pub const fn code(&self) -> u64 {
        self.code
    }

    /// The encoded thermometer value: the sense lane.
    #[must_use]
    pub fn value(&self) -> u64 {
        u64::from(self.code.count_ones()).saturating_sub(1)
    }

    /// Shift up one position — the counter's significant bits increased.
    /// Saturates at the top lane (the counter itself saturates there).
    pub fn shift_up(&mut self) {
        if self.value() + 1 < u64::from(self.lanes) {
            self.code = (self.code << 1) | 1;
        }
    }

    /// Shift down one position — the real-time subcounter wrapped
    /// (subtract-real-clock policy: "shift down all thermometer codes by
    /// 1 position"). Floors at value 0.
    pub fn shift_down(&mut self) {
        if self.code > 1 {
            self.code >>= 1;
        }
    }

    /// Halve the encoded value — "the auxVC register is shifted down by 1
    /// position and the top half of the thermometer code is copied to the
    /// bottom half and then reset" (§3.1).
    pub fn halve(&mut self) {
        let v = self.value() / 2;
        self.set_value(v);
    }

    /// Clear to value 0 — the reset method ("all thermometer codes are
    /// also reset to zero").
    pub fn reset(&mut self) {
        self.code = 1;
    }

    /// Loads an arbitrary value (used when initializing from a counter
    /// snapshot).
    ///
    /// # Panics
    ///
    /// Panics if `value >= lanes`.
    pub fn set_value(&mut self, value: u64) {
        assert!(
            value < u64::from(self.lanes),
            "value {value} >= lanes {}",
            self.lanes
        );
        self.code = (1u64 << (value + 1)) - 1;
    }

    /// Whether the register still holds a legal thermometer code:
    /// non-empty, contiguous low-order ones, encoding a lane inside the
    /// register. A corrupted register (see
    /// [`ThermometerRegister::fault_corrupt_code`]) fails this check —
    /// it is the runtime detection predicate the fault layer promotes
    /// from the test-only `c & (c + 1) == 0` idiom.
    #[must_use]
    pub fn is_well_formed(&self) -> bool {
        self.code != 0
            && self.code & (self.code + 1) == 0
            && u64::from(self.code.count_ones()) <= u64::from(self.lanes)
    }

    /// Even parity over the register bits. A single-bit upset flips the
    /// parity, so a crosspoint that latches the parity of its last legal
    /// code can detect one-bit corruption even when the damaged code
    /// happens to still be contiguous (e.g. the top 1 dropping off).
    #[must_use]
    pub const fn parity(&self) -> bool {
        self.code.count_ones() % 2 == 1
    }

    /// Overwrites the raw code, bypassing every well-formedness check —
    /// the thermometer-lane corruption fault model. Healthy update logic
    /// must never call this; use [`ThermometerRegister::set_value`].
    pub fn fault_corrupt_code(&mut self, raw: u64) {
        self.code = raw;
    }
}

impl fmt::Display for ThermometerRegister {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:0width$b} (lane {})",
            self.code,
            self.value(),
            width = self.lanes as usize
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssq_arbiter::{Arbiter, CounterPolicy, SsvcArbiter, SsvcConfig};
    use ssq_types::{Cycle, PortSet};

    #[test]
    fn unary_encoding_invariant() {
        let mut reg = ThermometerRegister::new(8);
        for v in 0..8 {
            reg.set_value(v);
            assert_eq!(reg.value(), v);
            // Code is contiguous low-order ones.
            let c = reg.code();
            assert_eq!(c & (c + 1), 0, "non-contiguous code {c:b}");
        }
    }

    #[test]
    fn shift_up_saturates_at_top_lane() {
        let mut reg = ThermometerRegister::new(4);
        for _ in 0..10 {
            reg.shift_up();
        }
        assert_eq!(reg.value(), 3);
    }

    #[test]
    fn shift_down_floors_at_zero() {
        let mut reg = ThermometerRegister::new(4);
        reg.set_value(2);
        for _ in 0..10 {
            reg.shift_down();
        }
        assert_eq!(reg.value(), 0);
        assert_eq!(reg.code(), 1);
    }

    #[test]
    fn halve_matches_integer_division() {
        let mut reg = ThermometerRegister::new(16);
        for v in 0..16 {
            reg.set_value(v);
            reg.halve();
            assert_eq!(reg.value(), v / 2, "halving lane {v}");
        }
    }

    #[test]
    fn reset_clears() {
        let mut reg = ThermometerRegister::new(8);
        reg.set_value(7);
        reg.reset();
        assert_eq!(reg.value(), 0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_oversized_register() {
        let _ = ThermometerRegister::new(64);
    }

    #[test]
    fn every_legal_code_is_well_formed() {
        let mut reg = ThermometerRegister::new(8);
        for v in 0..8 {
            reg.set_value(v);
            assert!(reg.is_well_formed(), "value {v}");
        }
    }

    #[test]
    fn corruption_is_detected_by_well_formedness_or_parity() {
        let mut reg = ThermometerRegister::new(8);
        reg.set_value(4);
        let healthy_parity = reg.parity();
        // A hole in the middle breaks contiguity.
        reg.fault_corrupt_code(0b10111);
        assert!(!reg.is_well_formed());
        // All-zeros (a cleared latch) is illegal too.
        reg.fault_corrupt_code(0);
        assert!(!reg.is_well_formed());
        // The top 1 dropping off leaves a *contiguous* code — well-formed
        // in isolation, but the parity latched from the legal code flips.
        reg.set_value(4);
        reg.fault_corrupt_code(reg.code() >> 1);
        assert!(reg.is_well_formed());
        assert_ne!(reg.parity(), healthy_parity);
    }

    #[test]
    fn parity_tracks_bit_count() {
        let mut reg = ThermometerRegister::new(8);
        reg.set_value(0); // one bit
        assert!(reg.parity());
        reg.set_value(1); // two bits
        assert!(!reg.parity());
    }

    /// Lockstep with the behavioural arbiter: applying shift operations
    /// whenever the counter's significant bits move reproduces exactly
    /// the code recomputed from the counter — for every counter policy.
    #[test]
    fn register_tracks_counter_under_all_policies() {
        for policy in [
            CounterPolicy::SubtractRealClock,
            CounterPolicy::Halve,
            CounterPolicy::Reset,
        ] {
            let cfg = SsvcConfig::new(12, 3, policy);
            let mut ssvc = SsvcArbiter::new(cfg, &[20, 45, 90, 180, 360, 700, 1400, 2800]);
            let mut regs: Vec<ThermometerRegister> =
                (0..8).map(|_| ThermometerRegister::new(8)).collect();
            for step in 0..5_000u64 {
                ssvc.tick();
                let reqs: PortSet = (0..8usize)
                    .filter(|&i| (step + i as u64) % 3 != 0)
                    .collect();
                let _ = ssvc.arbitrate(Cycle::new(step), reqs, &|_| 8);
                // Reconcile: apply the incremental ops the hardware would.
                for (i, reg) in regs.iter_mut().enumerate() {
                    let target = ssvc.msb_value(i);
                    while reg.value() < target {
                        reg.shift_up();
                    }
                    while reg.value() > target {
                        reg.shift_down();
                    }
                    assert_eq!(
                        reg.code(),
                        ssvc.thermometer_code(i),
                        "policy {policy:?}, step {step}, input {i}"
                    );
                }
            }
        }
    }
}
