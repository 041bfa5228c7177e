//! Bit positions inside one `u64` word, in range by construction.
//!
//! The switch shifts by three kinds of amount: port indices (carried
//! by [`PortSet`](crate::PortSet)), the `auxVC` low-bit width of the
//! SSVC counters, and a few widths derived from the geometry (GB lane
//! counts, the shuffle rotation). The paper bounds all of them: a port
//! set is one word at radix ≤ 64 and an `auxVC` counter is at most 32
//! bits wide. A [`BitIndex`] carries that bound in the type, so the
//! shift sites that use one need no proof of their own.

/// A bit position `0..64` in a `u64` word.
///
/// Every constructor either checks the bound ([`BitIndex::new`],
/// [`BitIndex::checked`]) or derives the position from a word
/// operation that cannot exceed 63 ([`BitIndex::highest_set`]). The
/// shift methods are therefore total, and they are the only places
/// outside [`PortSet`](crate::PortSet) where the workspace shifts by a
/// non-literal amount.
///
/// ```
/// use ssq_types::BitIndex;
///
/// let lsb = BitIndex::new(8);
/// assert_eq!(lsb.bit(), 256);
/// assert_eq!(lsb.shr(0xABCD), 0xAB);
/// assert_eq!(BitIndex::new(3).through(), 0b1111);
/// assert_eq!(BitIndex::highest_set(12).map(BitIndex::get), Some(3));
/// assert_eq!(BitIndex::checked(64), None);
/// ```
///
/// Shifts by a *literal* need no such type: rustc's deny-by-default
/// `arithmetic_overflow` lint rejects an amount at or past the width.
///
/// ```compile_fail
/// let x: u64 = 1;
/// let _ = x << 64;
/// ```
///
/// Likewise a literal index past the end of a fixed-size array is a
/// compile error (`unconditional_panic`), which is why destructuring a
/// `[u64; 4]` state leaves no index to check:
///
/// ```compile_fail
/// let a = [0u64; 4];
/// let _ = a[4];
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BitIndex(u32);

impl BitIndex {
    /// Bit position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64`.
    #[inline]
    #[must_use]
    pub const fn new(i: u32) -> Self {
        assert!(i < 64, "bit index outside the u64 word");
        BitIndex(i)
    }

    /// Bit position `i`, or `None` if `i >= 64`.
    #[inline]
    #[must_use]
    pub const fn checked(i: u64) -> Option<Self> {
        if i < 64 {
            Some(BitIndex(i as u32))
        } else {
            None
        }
    }

    /// The position of the highest set bit of `word` (`None` for zero):
    /// `ilog2` of a `u64` is at most 63.
    #[inline]
    #[must_use]
    pub const fn highest_set(word: u64) -> Option<Self> {
        match word.checked_ilog2() {
            Some(b) => Some(BitIndex(b)),
            None => None,
        }
    }

    /// The position as a plain integer.
    #[inline]
    #[must_use]
    pub const fn get(self) -> u32 {
        self.0
    }

    /// The word with only this bit set: `1 << self`.
    #[inline]
    #[must_use]
    // ssq-lint: allow(panic-freedom-reachability)
    pub const fn bit(self) -> u64 {
        1u64 << self.0 // ssq-lint: allow(mask-width-safety) — `self.0 < 64` by construction
    }

    /// The word with bits `0..=self` set: a thermometer code whose top
    /// lane is `self`.
    #[inline]
    #[must_use]
    // ssq-lint: allow(panic-freedom-reachability)
    pub const fn through(self) -> u64 {
        !((u64::MAX << 1) << self.0) // ssq-lint: allow(mask-width-safety) — `self.0 < 64` by construction
    }

    /// `word >> self`.
    #[inline]
    #[must_use]
    pub const fn shr(self, word: u64) -> u64 {
        word >> self.0 // ssq-lint: allow(mask-width-safety) — `self.0 < 64` by construction
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "bit index outside the u64 word")]
    fn new_rejects_64() {
        let _ = BitIndex::new(64);
    }

    #[test]
    fn every_position_matches_the_raw_shifts() {
        for i in 0..64u32 {
            let b = BitIndex::new(i);
            assert_eq!(BitIndex::checked(u64::from(i)), Some(b));
            assert_eq!(b.bit(), 1u64 << i);
            assert_eq!(b.shr(u64::MAX), u64::MAX >> i);
            let through = if i == 63 {
                u64::MAX
            } else {
                (1u64 << (i + 1)) - 1
            };
            assert_eq!(b.through(), through);
            assert_eq!(BitIndex::highest_set(b.bit()), Some(b));
            assert_eq!(BitIndex::highest_set(through), Some(b));
        }
        assert_eq!(BitIndex::checked(64), None);
        assert_eq!(BitIndex::highest_set(0), None);
    }
}
