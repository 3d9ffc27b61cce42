//! Hashing for the flat fact storage: a vendored FxHash-style mixer and the
//! packed/hashed row-key scheme used by [`crate::index::IndexedRelation`].
//!
//! # Key scheme
//!
//! Join probes and membership checks key their hash maps on a single `u64`
//! derived from the bound column values, so the inner loops never build a
//! boxed key:
//!
//! * **≤ 2 key columns** — the `u32` constants are *packed* exactly by
//!   [`Const::pack_onto`] (`c0 << 32 | c1`, one column is just its index,
//!   zero columns is `0`), the rule `kbt-data`'s canonicalising sort packs
//!   rows by too, so the key is injective and bucket hits need no further
//!   verification;
//! * **≥ 3 key columns** — the constants are folded through the FxHash
//!   mixer; collisions are possible, so bucket candidates are verified
//!   against the stored rows before they count as matches.
//!
//! Every map is keyed consistently (the column count is fixed per binding
//! mask), so packed and hashed keys never mix within one map.
//!
//! # Placement
//!
//! A map places a key by the low bits of [`FxHasher::finish`].  One mixing
//! step is a multiply, whose low bits depend only on the low bits of the
//! word — for a packed key `c0 << 32 | c1`, on `c1` alone, so every row of
//! `isa(x, cls)` with the same class would start probing at the same slot.
//! `finish` therefore rotates the high half down (as rustc-hash 2 does).
//! Only placement changes: keys, bucket contents and walk order do not.

use std::hash::{BuildHasherDefault, Hasher};

use kbt_data::Const;

/// The multiplier of the FxHash mixing step (the same constant rustc's
/// `FxHasher` uses; vendored because the container has no crates.io access).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[inline]
fn mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED)
}

/// A fast, non-cryptographic word-at-a-time hasher for the engine's internal
/// maps (keys are trusted `u64`s / dense ids, never attacker-controlled).
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl Hasher for FxHasher {
    /// The hash with its high half rotated into the low bits the map
    /// places by (see the module docs).
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = mix(self.hash, u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.hash = mix(self.hash, u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.hash = mix(self.hash, n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.hash = mix(self.hash, n as u64);
    }
}

/// `BuildHasher` plugging [`FxHasher`] into `HashMap`.
pub type FxBuild = BuildHasherDefault<FxHasher>;

/// Maximum number of key columns packed exactly into the `u64`; keys over
/// more columns fall back to hash-with-verify.
pub const PACK_MAX: usize = Const::PACK_MAX;

/// Whether a key over `cols` columns is exact (packed, collision-free) —
/// `true` means bucket candidates need no row verification.
#[inline]
pub const fn key_is_exact(cols: usize) -> bool {
    cols <= PACK_MAX
}

/// Incremental accumulator for a row key: feed the key column values in
/// ascending column order, then [`KeyAcc::finish`].  Packs exactly for
/// ≤ [`PACK_MAX`] columns, hashes beyond (see the module docs).
#[derive(Clone, Copy, Debug)]
pub struct KeyAcc {
    exact: bool,
    key: u64,
}

impl KeyAcc {
    /// Starts a key over `cols` columns.
    #[inline]
    pub fn new(cols: usize) -> Self {
        KeyAcc {
            exact: key_is_exact(cols),
            key: 0,
        }
    }

    /// Feeds the next key column value.
    #[inline]
    pub fn push(&mut self, c: Const) {
        self.key = if self.exact {
            c.pack_onto(self.key)
        } else {
            mix(self.key, u64::from(c.index()))
        };
    }

    /// The finished `u64` key.
    #[inline]
    pub fn finish(self) -> u64 {
        self.key
    }
}

/// One-shot key over a full row (ascending column order).
#[inline]
pub fn row_key(row: &[Const]) -> u64 {
    let mut acc = KeyAcc::new(row.len());
    for &c in row {
        acc.push(c);
    }
    acc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_keys_are_injective() {
        let k = |a: u32, b: u32| row_key(&[Const::new(a), Const::new(b)]);
        assert_ne!(k(1, 2), k(2, 1));
        assert_ne!(k(0, 1), k(1, 0));
        assert_eq!(k(3, 4), row_key(&[Const::new(3), Const::new(4)]));
        assert_eq!(row_key(&[]), 0);
        assert_eq!(row_key(&[Const::new(7)]), 7);
    }

    #[test]
    fn wide_keys_hash_consistently() {
        let row = [Const::new(1), Const::new(2), Const::new(3)];
        assert!(!key_is_exact(row.len()));
        assert_eq!(row_key(&row), row_key(&row));
        let mut acc = KeyAcc::new(3);
        for &c in &row {
            acc.push(c);
        }
        assert_eq!(acc.finish(), row_key(&row));
    }

    #[test]
    fn hasher_mixes_words() {
        use std::hash::Hasher as _;
        let mut a = FxHasher::default();
        a.write_u64(42);
        let mut b = FxHasher::default();
        b.write_u64(43);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn packed_keys_are_placed_by_both_columns() {
        use std::hash::BuildHasher as _;
        // 1 024 rows `(c0, 7)`: the low ten bits the map places by must
        // tell most of them apart, not send them all to one slot
        let slots: std::collections::BTreeSet<u64> = (0..1024u32)
            .map(|c0| FxBuild::default().hash_one(row_key(&[Const::new(c0), Const::new(7)])) & 1023)
            .collect();
        assert!(slots.len() >= 512, "{} distinct slots", slots.len());
    }
}
