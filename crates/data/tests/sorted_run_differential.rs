//! Differential proptest for the flat sorted-run [`Relation`]: random
//! interleavings of point mutations (`insert` / `remove`), bulk set algebra
//! (`union` / `intersection` / `difference` / `symmetric_difference`) and
//! copy-on-write snapshots are replayed against a `BTreeSet<Tuple>` as the
//! reference model, and the run must stay **byte-identical** to the model
//! after every step: same length, same rows in the same (lexicographic)
//! order, same membership answers.
//!
//! `Tuple`'s derived `Ord` is the lexicographic order the old boxed-tuple
//! `BTreeSet` storage iterated in, so "iterates like the model" is exactly
//! the representation-change invariant of the flat-storage refactor.  The
//! snapshots held across later mutations pin the copy-on-write contract: a
//! clone is frozen at its contents, however the original is mutated
//! afterwards.  Zero-arity relations (the paper's boolean "flag"
//! relations) get their own script, modelled by a plain `bool`.

use std::collections::BTreeSet;

use kbt_data::{tuple, Const, Relation, Tuple};
use proptest::prelude::*;

/// One scripted operation against both stores (arity 2).
#[derive(Clone, Debug)]
enum Op {
    Insert(u32, u32),
    Remove(u32, u32),
    Union(Vec<(u32, u32)>),
    Intersection(Vec<(u32, u32)>),
    Difference(Vec<(u32, u32)>),
    SymmetricDifference(Vec<(u32, u32)>),
    /// Take (and hold) a snapshot here, so later mutations run against an
    /// outstanding copy-on-write reader.
    Snapshot,
}

fn decode(code: (u8, u32, u32, Vec<(u32, u32)>)) -> Op {
    let (op, a, b, rows) = code;
    match op {
        // insert-biased so relations actually grow
        0..=2 => Op::Insert(a, b),
        3..=4 => Op::Remove(a, b),
        5 => Op::Union(rows),
        6 => Op::Intersection(rows),
        7 => Op::Difference(rows),
        8 => Op::SymmetricDifference(rows),
        _ => Op::Snapshot,
    }
}

fn arb_script() -> impl Strategy<Value = Vec<Op>> {
    // constants in 0..6 so removes and intersections genuinely hit
    // existing tuples instead of missing a sparse domain
    let rows = proptest::collection::vec((0u32..6, 0u32..6), 0..8);
    proptest::collection::vec((0u8..10, 0u32..6, 0u32..6, rows), 1..80)
        .prop_map(|codes| codes.into_iter().map(decode).collect())
}

fn other_relation(rows: &[(u32, u32)]) -> (Relation, BTreeSet<Tuple>) {
    let tuples: BTreeSet<Tuple> = rows.iter().map(|&(a, b)| tuple![a, b]).collect();
    let rel = Relation::from_tuples(2, tuples.iter().cloned()).unwrap();
    (rel, tuples)
}

/// The byte-identity check: the run iterates exactly the model's tuples in
/// the model's (lexicographic) order, and row-level accessors agree.
fn assert_identical(rel: &Relation, model: &BTreeSet<Tuple>) {
    prop_assert_eq!(rel.len(), model.len());
    prop_assert_eq!(rel.is_empty(), model.is_empty());
    let mut flat: Vec<Const> = Vec::new();
    for (i, (row, t)) in rel.iter().zip(model.iter()).enumerate() {
        prop_assert_eq!(row, t.components());
        prop_assert_eq!(row, rel.row(i));
        prop_assert!(rel.contains_row(row));
        prop_assert!(rel.contains(t));
        flat.extend_from_slice(row);
    }
    // the raw run is the rows' concatenation, nothing more
    prop_assert_eq!(rel.as_rows(), flat.as_slice());
    // and the owned-tuple boundary iterator agrees with the model verbatim
    prop_assert_eq!(rel.tuples().collect::<BTreeSet<_>>(), model.clone());
}

/// Few enough constants that rows repeat, including both ends of the
/// `u32` range and both sides of its sign bit.
const EDGE_CONSTANTS: [u32; 7] = [0, 1, 2, i32::MAX as u32, 1 << 31, u32::MAX - 1, u32::MAX];

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn sorted_run_tracks_a_btreeset_model(script in arb_script()) {
        let mut rel = Relation::empty(2);
        let mut model: BTreeSet<Tuple> = BTreeSet::new();
        let mut held: Vec<(Relation, BTreeSet<Tuple>)> = Vec::new();

        for op in script {
            match op {
                Op::Insert(a, b) => {
                    let added = rel.insert(tuple![a, b]).unwrap();
                    prop_assert_eq!(added, model.insert(tuple![a, b]));
                }
                Op::Remove(a, b) => {
                    let removed = rel.remove(&tuple![a, b]);
                    prop_assert_eq!(removed, model.remove(&tuple![a, b]));
                }
                Op::Union(rows) => {
                    let (other, other_model) = other_relation(&rows);
                    rel = rel.union(&other).unwrap();
                    model = model.union(&other_model).cloned().collect();
                }
                Op::Intersection(rows) => {
                    let (other, other_model) = other_relation(&rows);
                    rel = rel.intersection(&other).unwrap();
                    model = model.intersection(&other_model).cloned().collect();
                }
                Op::Difference(rows) => {
                    let (other, other_model) = other_relation(&rows);
                    rel = rel.difference(&other).unwrap();
                    model = model.difference(&other_model).cloned().collect();
                }
                Op::SymmetricDifference(rows) => {
                    let (other, other_model) = other_relation(&rows);
                    rel = rel.symmetric_difference(&other).unwrap();
                    model = model.symmetric_difference(&other_model).cloned().collect();
                }
                Op::Snapshot => {
                    held.push((rel.clone(), model.clone()));
                }
            }
            assert_identical(&rel, &model);
            // content equality is representation-independent: rebuilding
            // from the model's tuples yields an equal relation
            prop_assert_eq!(&rel, &Relation::from_tuples(2, model.iter().cloned()).unwrap());
        }

        // outstanding snapshots were frozen, not disturbed, by the
        // mutations that followed them (copy-on-write isolation)
        for (snap, expected) in held {
            assert_identical(&snap, &expected);
        }
    }

    /// `Relation::from_rows` canonicalises like a `BTreeSet` of rows at
    /// arity 1 and 2 (packed `u64` sort) and 3 (row sort), from shuffled,
    /// already sorted and reversed input, with heavy duplicates and
    /// constants at both ends of the `u32` range — so a packing with its
    /// columns swapped, or one that sign-extends a constant, fails here.
    #[test]
    fn from_rows_sorts_like_a_btreeset(
        arity in 1usize..4,
        picks in proptest::collection::vec(0usize..EDGE_CONSTANTS.len(), 0..90),
        order in 0u8..3,
    ) {
        let mut rows: Vec<Vec<u32>> =
            picks.chunks_exact(arity).map(|row| row.iter().map(|&i| EDGE_CONSTANTS[i]).collect()).collect();
        match order {
            0 => {}
            1 => rows.sort(),
            _ => rows.sort_by(|a, b| b.cmp(a)),
        }
        let model: BTreeSet<Vec<u32>> = rows.iter().cloned().collect();
        let flat: Vec<Const> = rows.iter().flatten().copied().map(Const::new).collect();
        let rel = Relation::from_rows(arity, flat, rows.len()).unwrap();
        let got: Vec<Vec<u32>> = rel.iter().map(|row| row.iter().map(|c| c.index()).collect()).collect();
        prop_assert_eq!(got, model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn zero_arity_flags_track_a_boolean_model(script in proptest::collection::vec((0u8..6, 0u8..2), 1..60)) {
        let mut rel = Relation::empty(0);
        let mut model = false;
        let mut held: Vec<(Relation, bool)> = Vec::new();

        for (op, flag) in script {
            let other = if flag == 1 {
                Relation::from_tuples(0, [Tuple::empty()]).unwrap()
            } else {
                Relation::empty(0)
            };
            let other_model = flag == 1;
            match op {
                0 => {
                    let added = rel.insert(Tuple::empty()).unwrap();
                    prop_assert_eq!(added, !model);
                    model = true;
                }
                1 => {
                    let removed = rel.remove(&Tuple::empty());
                    prop_assert_eq!(removed, model);
                    model = false;
                }
                2 => {
                    rel = rel.union(&other).unwrap();
                    model |= other_model;
                }
                3 => {
                    rel = rel.intersection(&other).unwrap();
                    model &= other_model;
                }
                4 => {
                    rel = rel.difference(&other).unwrap();
                    model &= !other_model;
                }
                _ => {
                    held.push((rel.clone(), model));
                }
            }
            prop_assert_eq!(rel.len(), usize::from(model));
            prop_assert_eq!(rel.contains(&Tuple::empty()), model);
            // zero-arity rows carry no data: the run stays empty and the
            // iterator yields `len()` empty slices
            prop_assert_eq!(rel.as_rows(), &[] as &[Const]);
            prop_assert_eq!(rel.iter().count(), usize::from(model));
            prop_assert!(rel.iter().all(|row| row.is_empty()));
        }

        for (snap, expected) in held {
            prop_assert_eq!(snap.len(), usize::from(expected));
            prop_assert_eq!(snap.contains(&Tuple::empty()), expected);
        }
    }
}
