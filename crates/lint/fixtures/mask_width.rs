// Fixture: mask-width-safety. Mounted at crates/core/src/switch.rs so
// `step` is the panic-freedom/mask-width root. `shift_unbounded` shifts
// by a raw parameter and fires; `shift_proven` bounds the amount with an
// assert, which is no type, so it fires too; `shift_waived` carries an
// in-source waiver. `step` also calls into the arbitration-pass fixture
// (`hot_decide`) and, through it, a second crate — exercising the
// unified workspace graph.

pub struct MaskKernel;

impl MaskKernel {
    pub fn step(&mut self, amt: u64, bits: u64) -> u64 {
        let lanes = [0u64; 4];
        self.shift_unbounded(amt)
            ^ self.shift_proven(bits)
            ^ self.shift_waived(amt)
            ^ hot_decide(amt, bits, &lanes)
    }

    fn shift_unbounded(&self, amt: u64) -> u64 {
        1u64 << amt
    }

    fn shift_proven(&self, bits: u64) -> u64 {
        assert!(bits < 64, "lane count fits the u64 port mask");
        1u64 << bits
    }

    fn shift_waived(&self, amt: u64) -> u64 {
        // ssq-lint: allow(mask-width-safety) — amt is pre-masked by the crossbar setup
        1u64 << amt
    }
}
