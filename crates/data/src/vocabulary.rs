//! Named vocabularies: a bridge between human-readable names and the interned
//! [`Const`] / [`RelId`] indices used everywhere else.
//!
//! Databases, formulas and transformations only carry indices; a
//! [`Vocabulary`] maps names such as `"Toronto"` or `"flight"` to those
//! indices, and back again for pretty-printing.  The parser in `kbt-logic`
//! and the example applications all share this type.
//!
//! # A handle on shared names
//!
//! A [`Vocabulary`] is a handle: its names live in one private `Names`
//! behind an [`Arc`], and cloning a vocabulary bumps that reference count
//! and allocates nothing.  A handle is never changed by interning through
//! another one, which is what lets a service parse every command against a
//! clone of the committed vocabulary and throw the clone away when the
//! command is rejected — the isolation is this type's, not a copy's.
//! [`Vocabulary::shares_names`] says whether two handles still read the
//! same names: one is a clone of the other and neither has *added* a name
//! since (re-interning a known name is a lookup and copies nothing).
//!
//! # Constant names: chunks and levels
//!
//! `Names` is itself made of shared pieces, so that adding a name to a
//! handle that shares them costs the pieces it writes, not the names
//! already there:
//!
//! * **Chunks.**  Constant `i` lives in chunk `i / 1024`, at slot
//!   `i % 1024`.  A chunk is one byte arena holding its names back to back
//!   plus their end offsets, behind an `Arc`.  Only the last chunk is ever
//!   written, and a full chunk is never written again, so handles share
//!   every full chunk for good; the open one is copied (at most 1 024
//!   names) by the first handle that appends to it while it is shared.
//! * **Levels.**  The name → id index is a stack of open-addressing hash
//!   levels keyed by a 64-bit hash of the name, each holding `(hash, id)`
//!   at a load of at most one half, each behind an `Arc`.  Only the last
//!   level — the *open* one, at most 64 entries — is written, copied first
//!   while shared.  When it fills, it is merged with the levels before it
//!   like a binary counter: while the last two levels hold equally many
//!   entries, they are replaced by one level holding both.  So levels hold
//!   64 · 2^k entries in strictly decreasing order, there are at most
//!   log₂(n / 64) + 2 of them, and an entry is rewritten O(log n) times in
//!   all.
//!
//! What each operation costs, for a vocabulary of *n* constants:
//!
//! * **clone** — one reference count; the first name a clone adds also
//!   copies the list of chunk and level pointers (*n* / 1 024 + log n).
//! * **lookup** — one hash of the name, then one probe per level, largest
//!   level first, comparing a name only where a full hash matches.  A name
//!   present costs about one level on average; an absent one, all of them.
//! * **render** ([`Vocabulary::constant_name`]) — O(1): a chunk, two
//!   offsets, and a slice of its arena.
//! * **intern** — the lookup, an append to the open chunk and the open
//!   level (each copied first if another handle shares it: at most 1 024
//!   and 64 names), and the merges the binary counter calls for: O(log n)
//!   amortised, though the one append that completes 64 · 2^k entries
//!   rewrites all of them.
//!
//! Every name written into a fresh chunk or level — by copy-on-write or by
//! a merge — is counted in `kbt_data_names_copied_total`
//! ([`mod@crate::metrics`]).  Ids are dense in append order and are
//! assigned in exactly one place, `Names::push_constant`, which only
//! [`Vocabulary::constant`] calls.
//!
//! Relation names are few: they keep plain tables (a name list, an arity
//! list, an ordered index) behind one `Arc` of their own, copied whole by
//! the first relation a sharing handle adds.

use std::collections::BTreeMap;
use std::hash::{BuildHasher, RandomState};
use std::sync::Arc;

use crate::error::DataError;
use crate::metrics::metrics;
use crate::schema::RelId;
use crate::value::Const;
use crate::Result;

/// Constant names per chunk.
const CHUNK: usize = 1024;
/// Entries of the open level, and of the smallest level a merge writes.
const OPEN_LEVEL: usize = 64;

/// Up to [`CHUNK`] constant names, back to back in one arena.
#[derive(Clone, Debug, Default)]
struct Chunk {
    bytes: String,
    /// `ends[j]`: where name `j` ends in `bytes` (it starts where name
    /// `j - 1` ends).
    ends: Vec<u32>,
}

impl Chunk {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn get(&self, j: usize) -> Option<&str> {
        let end = *self.ends.get(j)? as usize;
        let start = if j == 0 { 0 } else { self.ends[j - 1] as usize };
        Some(&self.bytes[start..end])
    }

    fn push(&mut self, name: &str) {
        self.bytes.push_str(name);
        let end = u32::try_from(self.bytes.len()).expect("a chunk of names holds under 4 GiB");
        self.ends.push(end);
    }
}

/// One entry of a [`Level`]; `id == EMPTY` marks a free slot.
#[derive(Clone, Copy, Debug)]
struct Slot {
    hash: u64,
    id: u32,
}

const EMPTY: u32 = u32::MAX;

/// An open-addressing table of `(hash, id)` with linear probing, sized to a
/// load of at most one half.
#[derive(Clone, Debug)]
struct Level {
    slots: Box<[Slot]>,
    len: usize,
}

impl Level {
    /// An empty level with room for `entries` (a power of two).
    fn with_room(entries: usize) -> Level {
        let free = Slot { hash: 0, id: EMPTY };
        Level {
            slots: vec![free; 2 * entries].into_boxed_slice(),
            len: 0,
        }
    }

    fn insert(&mut self, hash: u64, id: u32) {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        while self.slots[i].id != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = Slot { hash, id };
        self.len += 1;
    }

    /// The first id under `hash` that `is_name` accepts.
    #[inline]
    fn find(&self, hash: u64, is_name: impl Fn(u32) -> bool) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.id == EMPTY {
                return None;
            }
            if slot.hash == hash && is_name(slot.id) {
                return Some(slot.id);
            }
            i = (i + 1) & mask;
        }
    }

    /// One level holding every entry of `a` and `b`, equal hashes included.
    fn merge(a: &Level, b: &Level) -> Level {
        let mut out = Level::with_room(a.len + b.len);
        for slot in a.slots.iter().chain(b.slots.iter()) {
            if slot.id != EMPTY {
                out.insert(slot.hash, slot.id);
            }
        }
        out
    }
}

/// Relation names, arities and their index.
#[derive(Clone, Debug, Default)]
struct Relations {
    names: Vec<String>,
    arities: Vec<usize>,
    index: BTreeMap<String, RelId>,
}

/// The names a [`Vocabulary`] handle reads: immutable while shared.
#[derive(Clone, Debug, Default)]
struct Names {
    /// Keys the name hash; clones share it, so their levels agree.
    hasher: RandomState,
    /// Every chunk but the last is full.
    chunks: Vec<Arc<Chunk>>,
    /// Strictly decreasing sizes; the last is open while under
    /// [`OPEN_LEVEL`] entries.
    levels: Vec<Arc<Level>>,
    relations: Arc<Relations>,
}

/// `arc`'s contents for writing, copied first if another handle shares
/// them; a copy counts its `names` in `kbt_data_names_copied_total`.
fn unshare<T: Clone>(arc: &mut Arc<T>, names: impl Fn(&T) -> usize) -> &mut T {
    if Arc::get_mut(arc).is_none() {
        metrics().names_copied_total.add(names(arc) as u64);
    }
    Arc::make_mut(arc)
}

impl Names {
    fn constant_count(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |open| (self.chunks.len() - 1) * CHUNK + open.len())
    }

    fn constant_name(&self, i: usize) -> Option<&str> {
        self.chunks.get(i / CHUNK)?.get(i % CHUNK)
    }

    /// Probes every level, largest first, with the name's one hash.
    fn find_constant(&self, name: &str, hash: u64) -> Option<Const> {
        let is_name = |id: u32| self.constant_name(id as usize) == Some(name);
        self.levels
            .iter()
            .find_map(|level| level.find(hash, is_name))
            .map(Const::new)
    }

    /// Appends a name known to be absent.
    fn push_constant(&mut self, name: &str, hash: u64) -> Const {
        let id = u32::try_from(self.constant_count())
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("constant ids fit below u32::MAX");
        if self.chunks.last().is_none_or(|open| open.len() == CHUNK) {
            self.chunks.push(Arc::new(Chunk::default()));
        }
        let open = self.chunks.last_mut().expect("pushed above");
        unshare(open, Chunk::len).push(name);

        if self.levels.last().is_none_or(|open| open.len >= OPEN_LEVEL) {
            self.levels.push(Arc::new(Level::with_room(OPEN_LEVEL)));
        }
        let open = self.levels.last_mut().expect("pushed above");
        unshare(open, |level| level.len).insert(hash, id);
        // the binary counter's carries
        while let [.., a, b] = &self.levels[..] {
            if a.len != b.len {
                break;
            }
            let merged = Level::merge(a, b);
            metrics().names_copied_total.add(merged.len as u64);
            self.levels.truncate(self.levels.len() - 2);
            self.levels.push(Arc::new(merged));
        }
        Const::new(id)
    }
}

/// A mutable registry of constant names and relation names (with arities).
///
/// Cheap to clone (see the module docs): clones share their names, and a
/// clone that adds one copies only what it writes.
#[derive(Clone, Debug, Default)]
pub struct Vocabulary {
    names: Arc<Names>,
}

impl Vocabulary {
    /// An empty vocabulary.
    pub fn new() -> Self {
        Vocabulary::default()
    }

    /// Interns a constant name, returning the same [`Const`] on repeated
    /// calls with the same name.
    pub fn constant(&mut self, name: &str) -> Const {
        let hash = self.names.hasher.hash_one(name);
        if let Some(c) = self.names.find_constant(name, hash) {
            return c;
        }
        Arc::make_mut(&mut self.names).push_constant(name, hash)
    }

    /// Interns a relation name with its arity.
    ///
    /// Fails if the name was already registered with a different arity.
    pub fn relation(&mut self, name: &str, arity: usize) -> Result<RelId> {
        if let Some((r, known)) = self.lookup_relation(name) {
            if known != arity {
                return Err(DataError::NameConflict {
                    name: name.to_string(),
                });
            }
            return Ok(r);
        }
        let names = Arc::make_mut(&mut self.names);
        let relations = Arc::make_mut(&mut names.relations);
        let r = RelId::new(relations.names.len() as u32);
        relations.names.push(name.to_string());
        relations.arities.push(arity);
        relations.index.insert(name.to_string(), r);
        Ok(r)
    }

    /// Whether `self` and `other` read the very same shared names: one is a
    /// clone of the other (or both of a third) and neither has interned a
    /// new name since.  Pointer identity, so `false` for two vocabularies
    /// built separately, equal content or not.
    pub fn shares_names(&self, other: &Vocabulary) -> bool {
        Arc::ptr_eq(&self.names, &other.names)
    }

    /// Looks up an already-registered constant by name.
    pub fn lookup_constant(&self, name: &str) -> Option<Const> {
        self.names
            .find_constant(name, self.names.hasher.hash_one(name))
    }

    /// Looks up an already-registered relation by name.
    pub fn lookup_relation(&self, name: &str) -> Option<(RelId, usize)> {
        let relations = &self.names.relations;
        relations
            .index
            .get(name)
            .map(|&r| (r, relations.arities[r.index() as usize]))
    }

    /// The name of a constant, if it was registered through this vocabulary.
    pub fn constant_name(&self, c: Const) -> Option<&str> {
        self.names.constant_name(c.index() as usize)
    }

    /// The name of a relation, if it was registered through this vocabulary.
    pub fn relation_name(&self, r: RelId) -> Option<&str> {
        self.names
            .relations
            .names
            .get(r.index() as usize)
            .map(String::as_str)
    }

    /// The arity of a registered relation.
    pub fn relation_arity(&self, r: RelId) -> Option<usize> {
        self.names
            .relations
            .arities
            .get(r.index() as usize)
            .copied()
    }

    /// Number of registered constants.
    pub fn constant_count(&self) -> usize {
        self.names.constant_count()
    }

    /// Number of registered relations.
    pub fn relation_count(&self) -> usize {
        self.names.relations.names.len()
    }

    /// Renders a constant: its registered name, or the `a_i` fallback.
    pub fn render_constant(&self, c: Const) -> String {
        self.constant_name(c)
            .map(str::to_string)
            .unwrap_or_else(|| c.to_string())
    }

    /// Renders a relation symbol: its registered name, or the `R_i` fallback.
    pub fn render_relation(&self, r: RelId) -> String {
        self.relation_name(r)
            .map(str::to_string)
            .unwrap_or_else(|| r.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_interned() {
        let mut v = Vocabulary::new();
        let toronto = v.constant("Toronto");
        let ottawa = v.constant("Ottawa");
        assert_ne!(toronto, ottawa);
        assert_eq!(v.constant("Toronto"), toronto);
        assert_eq!(v.constant_name(toronto), Some("Toronto"));
        assert_eq!(v.lookup_constant("Ottawa"), Some(ottawa));
        assert_eq!(v.constant_count(), 2);
    }

    #[test]
    fn relations_carry_arities() {
        let mut v = Vocabulary::new();
        let flight = v.relation("flight", 2).unwrap();
        assert_eq!(v.relation("flight", 2).unwrap(), flight);
        assert!(v.relation("flight", 3).is_err());
        assert_eq!(v.relation_arity(flight), Some(2));
        assert_eq!(v.lookup_relation("flight"), Some((flight, 2)));
        assert_eq!(v.relation_name(flight), Some("flight"));
    }

    #[test]
    fn rendering_falls_back_to_indices() {
        let v = Vocabulary::new();
        assert_eq!(v.render_constant(Const::new(7)), "a7");
        assert_eq!(v.render_relation(RelId::new(3)), "R3");
    }

    /// Equal 64-bit hashes are told apart by name, in the open level and
    /// through every merge.  A real hash collision is out of reach of a
    /// test, so the levels are filled with one hash for every name.
    #[test]
    fn names_under_one_hash_survive_merges() {
        let mut names = Names::default();
        let count = 4 * OPEN_LEVEL + 3;
        for i in 0..count {
            names.push_constant(&format!("n{i}"), 42);
        }
        let sizes: Vec<usize> = names.levels.iter().map(|l| l.len).collect();
        assert_eq!(sizes, [4 * OPEN_LEVEL, 3]);
        for i in 0..count {
            let found = names.find_constant(&format!("n{i}"), 42);
            assert_eq!(found, Some(Const::new(i as u32)), "n{i}");
        }
        assert_eq!(names.find_constant("n", 42), None);

        let (mut a, mut b) = (Level::with_room(2), Level::with_room(2));
        a.insert(7, 0);
        a.insert(7, 1);
        b.insert(7, 2);
        b.insert(9, 3);
        let merged = Level::merge(&a, &b);
        assert_eq!(merged.len, 4);
        for id in 0..3 {
            assert_eq!(merged.find(7, |x| x == id), Some(id));
        }
        assert_eq!(merged.find(9, |_| true), Some(3));
    }

    /// The binary counter: levels of 64 · 2^k in decreasing order, one
    /// open level below 64, and the chunks full but the last.
    #[test]
    fn levels_and_chunks_keep_their_shape() {
        let mut v = Vocabulary::new();
        for i in 0..(3 * CHUNK + 5 * OPEN_LEVEL + 17) {
            v.constant(&format!("c{i}"));
        }
        let names = &v.names;
        let sizes: Vec<usize> = names.levels.iter().map(|l| l.len).collect();
        // 3 * 1024 + 5 * 64 = 53 units of 64 = 32 + 16 + 4 + 1
        let units = [32, 16, 4, 1].map(|u| u * OPEN_LEVEL);
        assert_eq!(sizes[..4], units);
        assert_eq!(sizes[4], 17);
        let chunk_sizes: Vec<usize> = names.chunks.iter().map(|c| c.len()).collect();
        assert_eq!(chunk_sizes, [CHUNK, CHUNK, CHUNK, 5 * OPEN_LEVEL + 17]);
        for (i, c) in [0, CHUNK - 1, CHUNK, 2 * CHUNK + 1, 3 * CHUNK + 336]
            .iter()
            .enumerate()
        {
            let name = format!("c{c}");
            assert_eq!(v.lookup_constant(&name), Some(Const::new(*c as u32)), "{i}");
            assert_eq!(v.constant_name(Const::new(*c as u32)), Some(name.as_str()));
        }
    }
}
