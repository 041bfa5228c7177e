// Fixture: the site enumerator's three rules. Mounted at
// crates/core/src/switch.rs so `step` is the root. Accepted forms hold no
// site: shifts by an integer literal (a), arithmetic on a float literal,
// an `as f64` cast, a declared f64 parameter, field or let (b), and `/` or
// `%` by a declared NonZeroU64 field (c). The raw shift, the integer
// division by a plain u64 field, and the float name rebound without a
// type must still fire.

use std::num::NonZeroU64;

pub struct QosSwitch {
    rate: f64,
    period: NonZeroU64,
    plain: u64,
}

impl QosSwitch {
    pub fn step(&mut self, x: u64, amt: u32, w: f64) -> u64 {
        self.literal_shifts(x)
            ^ self.float_ops(x, w)
            ^ self.nonzero_div(x)
            ^ self.raw_shift(x, amt)
            ^ self.plain_div(x)
            ^ self.rebound(w)
    }

    fn literal_shifts(&self, x: u64) -> u64 {
        (x << 17) ^ (x >> 0x3F) ^ (1u64 << 63)
    }

    fn float_ops(&self, x: u64, w: f64) -> u64 {
        let scale: f64 = 0.5;
        (x as f64 * 2.0 + self.rate / w - scale) as u64
    }

    fn nonzero_div(&self, x: u64) -> u64 {
        (x / self.period) ^ (x % self.period)
    }

    fn raw_shift(&self, x: u64, amt: u32) -> u64 {
        x << amt
    }

    fn plain_div(&self, x: u64) -> u64 {
        x / self.plain
    }

    fn rebound(&self, w: f64) -> u64 {
        let w = w as u64;
        w / 2
    }
}
