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

// ---------------------------------------------------------------------
// Layered relations: a shared base run plus a small sorted delta
// ---------------------------------------------------------------------

/// How many relations a layered script drives at once.
const HANDLES: usize = 3;
/// Constants per column of the layered scripts' grid: a base of several
/// hundred rows, so a delta of a few rows stays below the fold rule
/// (1/64 of the base) and a few dozen writes pass it.
const SIDE: u32 = 40;
/// Constants per column of the corner the scripts write to.
const HOT: u32 = 8;

/// One step of a layered script, on relations that start as clones of one
/// base.
#[derive(Clone, Debug)]
enum Layered {
    Insert(usize, (u32, u32)),
    Remove(usize, (u32, u32)),
    /// One `merge_rows` batch: the rows alternately added and deleted.
    Merge(usize, Vec<(u32, u32)>),
    /// Fold the relation into one flat run.
    Fold(usize),
    /// Back to a clone of the original base.
    Reset(usize),
    /// Clone the second relation over the first: both then hold the same
    /// base under the same delta.
    Fork(usize, usize),
    /// Replace the first relation by a set operation (0..4: union,
    /// intersection, difference, symmetric difference) with the second.
    SetOp(u8, usize, usize),
}

/// A layered step's code: the op, two relations, a row and a batch.
type LayeredCode = (u8, usize, usize, (u32, u32), Vec<(u32, u32)>);

fn decode_layered(code: LayeredCode) -> Layered {
    let (op, a, b, row, rows) = code;
    match op {
        0..=3 => Layered::Insert(a, row),
        4..=6 => Layered::Remove(a, row),
        7..=8 => Layered::Merge(a, rows),
        9 => Layered::Fold(a),
        10 => Layered::Reset(a),
        11 => Layered::Fork(a, b),
        _ => Layered::SetOp(op % 4, a, b),
    }
}

fn arb_layered_script(steps: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Layered>> {
    // writes land in one corner of the grid, so they keep meeting each
    // other: a row deleted from the base is added back, an added one
    // removed again
    let cell = (0..HOT, 0..HOT);
    let code = (
        0u8..16,
        0..HANDLES,
        0..HANDLES,
        cell.clone(),
        proptest::collection::vec(cell, 0..7),
    );
    proptest::collection::vec(code, steps)
        .prop_map(|codes| codes.into_iter().map(decode_layered).collect())
}

fn arb_layered_base() -> impl Strategy<Value = BTreeSet<(u32, u32)>> {
    proptest::collection::btree_set((0..SIDE, 0..SIDE), 1400..2000)
}

type Model = BTreeSet<(u32, u32)>;

fn rows_of(model: &Model) -> Relation {
    Relation::from_tuples(2, model.iter().map(|&(a, b)| tuple![a, b])).unwrap()
}

fn hash_of(rel: &Relation) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    rel.hash(&mut hasher);
    hasher.finish()
}

/// `rel` holds exactly the model's rows, in order, and its base and delta
/// keep their invariants: the adds are outside the base, the dels inside
/// it, and together they stay within the fold rule.
fn assert_layered(rel: &Relation, model: &Model) {
    let rows: Vec<(u32, u32)> = rel.iter().map(|r| (r[0].index(), r[1].index())).collect();
    assert_eq!(rows, model.iter().copied().collect::<Vec<_>>());
    assert_eq!(rel.len(), model.len());
    assert_eq!(rel.iter().len(), model.len());
    for a in (0..SIDE).step_by(5) {
        for b in (0..SIDE).step_by(3) {
            assert_eq!(rel.contains(&tuple![a, b]), model.contains(&(a, b)));
        }
    }
    let base = rel.base();
    assert!(base.is_flat());
    let (adds, dels) = rel.delta();
    assert_eq!(rel.is_flat(), adds.is_empty() && dels.is_empty());
    assert!(adds.chunks_exact(2).all(|row| !base.contains_row(row)));
    assert!(dels.chunks_exact(2).all(|row| base.contains_row(row)));
    assert!((adds.len() + dels.len()) / 2 <= base.len() / 64);
    assert_eq!(base.len() + adds.len() / 2 - dels.len() / 2, rel.len());
    // equal rows are equal, ordered and hashed alike, layered or flat
    let flat = rows_of(model);
    assert_eq!(rel, &flat);
    assert_eq!(rel.cmp(&flat), std::cmp::Ordering::Equal);
    assert_eq!(hash_of(rel), hash_of(&flat));
    assert_eq!(&rel.folded(), &flat);
}

/// Every set operation of `a` with `b`, and inclusion and ordering both
/// ways, against the models.
fn assert_algebra(a: &Relation, b: &Relation, ma: &Model, mb: &Model) {
    assert_layered(&a.union(b).unwrap(), &ma.union(mb).copied().collect());
    assert_layered(
        &a.intersection(b).unwrap(),
        &ma.intersection(mb).copied().collect(),
    );
    assert_layered(
        &a.difference(b).unwrap(),
        &ma.difference(mb).copied().collect(),
    );
    assert_layered(
        &a.symmetric_difference(b).unwrap(),
        &ma.symmetric_difference(mb).copied().collect(),
    );
    assert_eq!(a.is_subset(b), ma.is_subset(mb));
    assert_eq!(
        a.is_proper_subset(b),
        ma.len() < mb.len() && ma.is_subset(mb)
    );
    assert_eq!(a == b, ma == mb);
    let ta: BTreeSet<Tuple> = ma.iter().map(|&(x, y)| tuple![x, y]).collect();
    let tb: BTreeSet<Tuple> = mb.iter().map(|&(x, y)| tuple![x, y]).collect();
    assert_eq!(a.cmp(b), ta.cmp(&tb));
}

/// Replays a layered script on [`HANDLES`] relations that start as clones
/// of one base, each against its own `BTreeSet` model, checking the
/// relation touched — and every set operation between it and the others —
/// after every step.  The relations the step did not touch are checked too:
/// a write to one of several relations sharing a base or a delta must
/// leave the others as they were.
fn check_layered(base: &Model, script: &[Layered]) {
    let stored = rows_of(base);
    let mut rels: Vec<Relation> = vec![stored.clone(); HANDLES];
    let mut models: Vec<Model> = vec![base.clone(); HANDLES];
    for step in script {
        let touched = match step.clone() {
            Layered::Insert(h, (a, b)) => {
                assert_eq!(
                    rels[h].insert(tuple![a, b]).unwrap(),
                    models[h].insert((a, b))
                );
                h
            }
            Layered::Remove(h, (a, b)) => {
                assert_eq!(rels[h].remove(&tuple![a, b]), models[h].remove(&(a, b)));
                h
            }
            Layered::Merge(h, rows) => {
                // the batch's adds and dels are disjoint, as merge_rows asks
                let adds: Model = rows.iter().step_by(2).copied().collect();
                let dels: Model = (rows.iter().skip(1).step_by(2))
                    .filter(|row| !adds.contains(row))
                    .copied()
                    .collect();
                let flat = |m: &Model| -> Vec<Const> {
                    m.iter()
                        .flat_map(|&(a, b)| [Const::new(a), Const::new(b)])
                        .collect()
                };
                rels[h] = rels[h].merge_rows(&flat(&adds), &flat(&dels)).unwrap();
                models[h].retain(|row| !dels.contains(row));
                models[h].extend(adds);
                h
            }
            Layered::Fold(h) => {
                rels[h] = rels[h].folded();
                assert!(rels[h].is_flat());
                h
            }
            Layered::Reset(h) => {
                rels[h] = stored.clone();
                models[h] = base.clone();
                h
            }
            Layered::Fork(h, from) => {
                rels[h] = rels[from].clone();
                models[h] = models[from].clone();
                assert!(rels[h].shares_rows(&rels[from]));
                h
            }
            Layered::SetOp(op, h, with) => {
                let (other, mo) = (rels[with].clone(), models[with].clone());
                let (r, m) = (&rels[h], &models[h]);
                let (rel, model): (Relation, Model) = match op {
                    0 => (r.union(&other).unwrap(), m.union(&mo).copied().collect()),
                    1 => (
                        r.intersection(&other).unwrap(),
                        m.intersection(&mo).copied().collect(),
                    ),
                    2 => (
                        r.difference(&other).unwrap(),
                        m.difference(&mo).copied().collect(),
                    ),
                    _ => (
                        r.symmetric_difference(&other).unwrap(),
                        m.symmetric_difference(&mo).copied().collect(),
                    ),
                };
                rels[h] = rel;
                models[h] = model;
                h
            }
        };
        for (rel, model) in rels.iter().zip(&models) {
            assert_layered(rel, model);
        }
        for other in 0..HANDLES {
            if other != touched {
                let (a, b) = (&rels[touched], &rels[other]);
                assert_algebra(a, b, &models[touched], &models[other]);
                assert_algebra(b, a, &models[other], &models[touched]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Random inserts, removes, batch merges, folds and set operations over
    /// relations that share a base run: each tracks a `BTreeSet`, and
    /// every set operation, `len`, `iter`, `contains`, `is_subset`, `Eq`,
    /// `Ord` and `Hash` agree with the model — layered or flat.
    #[test]
    fn layered_relations_track_a_btreeset_model(
        base in arb_layered_base(),
        script in arb_layered_script(1..40),
    ) {
        check_layered(&base, &script);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    #[ignore = "a longer variant; CI runs it in release"]
    fn layered_relations_track_a_btreeset_model_at_length(
        base in arb_layered_base(),
        script in arb_layered_script(40..160),
    ) {
        check_layered(&base, &script);
    }
}
