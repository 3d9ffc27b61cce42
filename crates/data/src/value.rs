//! Domain elements.
//!
//! The paper works over a countable set of domain elements `A = {a_i : i ∈ ω}`.
//! A [`Const`] is simply an index into that set.  Human-readable names (for
//! examples such as the flight database of Example 1.2) are kept outside the
//! value itself, in a [`crate::Vocabulary`], so that values stay `Copy` and
//! comparisons stay cheap.

use std::fmt;

/// A domain element `a_i`.
///
/// Constants are plain indices; two constants are equal iff their indices are
/// equal.  Use [`crate::Vocabulary::constant`] to obtain stable, named
/// constants when building databases by hand.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Const(pub u32);

impl Const {
    /// Creates the constant `a_i`.
    pub const fn new(i: u32) -> Self {
        Const(i)
    }

    /// The index `i` of this constant within the domain.
    pub const fn index(self) -> u32 {
        self.0
    }

    /// How many constants one packed `u64` key holds (see
    /// [`Self::pack_onto`]).
    pub const PACK_MAX: usize = 2;

    /// `key` with this constant appended as its low 32 bits:
    /// `key << 32 | index`.  This is the one packing rule for up to two
    /// constants — fed `c0`, then `c1`, a key is `c0 << 32 | c1`.  Because a
    /// constant is a `u32`, keys packed from rows of one width ≤ 2 are
    /// injective and compare exactly like the rows do lexicographically.
    #[inline]
    pub const fn pack_onto(self, key: u64) -> u64 {
        key << 32 | self.0 as u64
    }

    /// The inverse of [`Self::pack_onto`]: the constant in the low 32 bits
    /// of `key`, and the key it was appended to.
    #[inline]
    pub const fn unpack_from(key: u64) -> (Const, u64) {
        (Const(key as u32), key >> 32)
    }
}

impl fmt::Debug for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

impl From<u32> for Const {
    fn from(i: u32) -> Self {
        Const(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_compare_by_index() {
        assert!(Const::new(1) < Const::new(2));
        assert_eq!(Const::new(7), Const::from(7));
        assert_eq!(Const::new(7).index(), 7);
    }

    #[test]
    fn packing_round_trips_and_orders_like_rows() {
        let pack = |a: u32, b: u32| Const::new(b).pack_onto(Const::new(a).pack_onto(0));
        assert_eq!(pack(1, 2), 1 << 32 | 2);
        assert!(pack(0, u32::MAX) < pack(1, 0));
        assert!(pack(u32::MAX, 0) < pack(u32::MAX, u32::MAX));
        let (c1, rest) = Const::unpack_from(pack(u32::MAX, 7));
        let (c0, rest) = Const::unpack_from(rest);
        assert_eq!((c0, c1, rest), (Const::new(u32::MAX), Const::new(7), 0));
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(Const::new(3).to_string(), "a3");
        assert_eq!(format!("{:?}", Const::new(0)), "a0");
    }
}
