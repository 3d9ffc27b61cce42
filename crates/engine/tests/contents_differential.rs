//! Differential proptests for the one way [`IndexedRelation`] knows its own
//! contents in order — the last canonical run it handed out (or was loaded
//! from) plus what it records since: the runs appended above the
//! watermark and the ids tombstoned below it — and for the membership table
//! a load defers.
//!
//! Random interleavings of load / bulk append / `insert` / `remove` /
//! `snapshot` (with automatic compaction kicking in on
//! delete-heavy prefixes) are replayed against a `BTreeSet` of rows, which
//! shares no code with either relation type, and every view of the indexed
//! relation must agree with it after every step.  Any bookkeeping bug — a
//! run boundary lost, a death below the watermark not recorded, a base row
//! that died and came back counted twice or not at all, a membership table
//! built late, a compaction that forgets to move the base — shows
//! up as a mismatch, or trips the debug assertion that the materialised
//! length equals the live count.

use std::collections::BTreeSet;

use kbt_data::{Const, Relation, Tuple};
use kbt_engine::{IndexedRelation, KeyAcc};
use proptest::prelude::*;

type Rows = BTreeSet<Vec<u32>>;

/// The oracle's rows as the canonical relation they should materialise to.
fn relation_of(arity: usize, rows: &Rows) -> Relation {
    Relation::from_tuples(arity, rows.iter().map(|row| Tuple::from_row(&consts(row)))).unwrap()
}

fn consts(row: &[u32]) -> Vec<Const> {
    row.iter().copied().map(Const::new).collect()
}

fn rows_of(relation: &Relation) -> Vec<Vec<u32>> {
    relation
        .iter()
        .map(|row| row.iter().map(|c| c.index()).collect())
        .collect()
}

/// One scripted operation against both stores.
#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(u32, u32),
    Remove(u32, u32),
    /// Take (and hold) a snapshot here, so later mutations run against an
    /// outstanding reader — and against a base and watermark moved up to
    /// this point.
    Snapshot,
    /// Replace the relation by a bulk load of its own current contents: the
    /// same rows, but pristine again — deferred membership table, the load
    /// as the base, nothing recorded.  (A load of the empty relation when
    /// the script opens with one or its removals emptied the relation.)
    Load,
    /// Bulk-append the run of those rows of a cross through `(a, b)` that
    /// are not present: canonical and disjoint, as the commit's are.
    Append(u32, u32),
}

fn decode(code: (u8, u32, u32)) -> Op {
    let (op, a, b) = code;
    match op {
        // insert-biased so relations actually grow
        0..=3 => Op::Insert(a, b),
        4..=6 => Op::Remove(a, b),
        7..=8 => Op::Snapshot,
        9..=10 => Op::Load,
        _ => Op::Append(a, b),
    }
}

fn arb_script() -> impl Strategy<Value = Vec<Op>> {
    // constants in 0..5 so removes genuinely hit existing tuples and
    // delete-heavy stretches push past the tombstone threshold (automatic
    // compaction), which renumbers the slots everything is recorded against.
    proptest::collection::vec((0u8..14, 0u32..5, 0u32..5), 1..120)
        .prop_map(|codes| codes.into_iter().map(decode).collect())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn every_view_tracks_a_btreeset_oracle(script in arb_script()) {
        let mut indexed = IndexedRelation::new(2);
        // demand an index so maintenance paths touch index buckets too
        indexed.ensure_index(0b01);
        let mut oracle = Rows::new();
        let mut held: Vec<(Relation, Rows)> = Vec::new();

        for op in script {
            match op {
                Op::Insert(a, b) => {
                    let added = indexed.insert_row(&consts(&[a, b]));
                    prop_assert_eq!(added, oracle.insert(vec![a, b]));
                }
                Op::Remove(a, b) => {
                    let removed = indexed.remove_row(&consts(&[a, b]));
                    prop_assert_eq!(removed, oracle.remove(&vec![a, b]));
                }
                Op::Snapshot => {
                    held.push((indexed.snapshot(), oracle.clone()));
                }
                Op::Load => {
                    indexed = IndexedRelation::from_relation(&relation_of(2, &oracle));
                    prop_assert!(!indexed.has_membership());
                    indexed.ensure_index(0b01);
                }
                Op::Append(a, b) => {
                    let fresh: Rows = (0..5)
                        .flat_map(|j| [vec![a, j], vec![j, b]])
                        .filter(|row| !oracle.contains(row))
                        .collect();
                    indexed.append_run(&relation_of(2, &fresh));
                    oracle.extend(fresh);
                }
            }
            // every view agrees with the oracle at every step: the count,
            // the materialised run (`to_relation` takes `&self`, so it
            // merges what was recorded since the base without moving the
            // base), membership of every row of the domain, and the index
            prop_assert_eq!(indexed.len(), oracle.len());
            let expected: Vec<Vec<u32>> = oracle.iter().cloned().collect();
            prop_assert_eq!(rows_of(&indexed.to_relation()), expected);
            for a in 0..5u32 {
                let mut probed: Vec<Vec<u32>> = indexed
                    .probe(0b01, &[Const::new(a)])
                    .into_iter()
                    .map(|id| indexed.row(id).iter().map(|c| c.index()).collect())
                    .collect();
                probed.sort();
                let group: Vec<Vec<u32>> =
                    oracle.iter().filter(|row| row[0] == a).cloned().collect();
                prop_assert_eq!(probed, group);
                for b in 0..5u32 {
                    prop_assert_eq!(
                        indexed.contains_row(&consts(&[a, b])),
                        oracle.contains(&vec![a, b])
                    );
                }
            }
        }

        // a final snapshot agrees too …
        let expected: Vec<Vec<u32>> = oracle.iter().cloned().collect();
        prop_assert_eq!(rows_of(&indexed.snapshot()), expected);
        // … and outstanding snapshots were frozen, not disturbed, by the
        // mutations that followed them.
        for (snap, rows) in held {
            let expected: Vec<Vec<u32>> = rows.into_iter().collect();
            prop_assert_eq!(rows_of(&snap), expected);
        }
    }

    /// `to_relation` after *k* bulk appends is `Relation::from_rows` over
    /// the same rows — at arity 0 (no row data, only slots), 1 and 2 (packed, exact membership keys) and 4
    /// (hashed keys: membership verifies rows), from a relation that starts
    /// empty and from one loaded from the first batch (an empty first batch
    /// leaves an empty first run behind).
    #[test]
    fn merged_runs_equal_one_sort(
        arity_pick in 0usize..4,
        batches in proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec(0u32..4, 4..5), 0..12),
            0..7,
        ),
        loaded in any::<bool>(),
    ) {
        let arity = [0usize, 1, 2, 4][arity_pick];
        // each batch's rows cut to the arity, minus everything seen before
        let mut seen = Rows::new();
        let runs: Vec<Rows> = batches
            .iter()
            .map(|batch| {
                let fresh: Rows = batch
                    .iter()
                    .map(|row| row[..arity].to_vec())
                    .filter(|row| !seen.contains(row))
                    .collect();
                seen.extend(fresh.iter().cloned());
                fresh
            })
            .collect();

        let (mut indexed, appended) = match runs.split_first() {
            Some((first, rest)) if loaded => {
                (IndexedRelation::from_relation(&relation_of(arity, first)), rest)
            }
            _ => (IndexedRelation::new(arity), &runs[..]),
        };
        for run in appended {
            indexed.append_run(&relation_of(arity, run));
        }

        let flat: Vec<Const> = seen.iter().flat_map(|row| consts(row)).collect();
        let expected = Relation::from_rows(arity, flat, seen.len()).unwrap();
        prop_assert_eq!(indexed.len(), seen.len());
        prop_assert_eq!(&indexed.to_relation(), &expected);
        prop_assert_eq!(&indexed.snapshot(), &expected);
        for row in &seen {
            prop_assert!(indexed.contains_row(&consts(row)));
        }
    }

    /// Every index bucket and every membership bucket walks its live ids in
    /// ascending slot order — the order the rows were stored in, not
    /// re-sorted — through removals, re-insertions and the compactions
    /// they trigger: masks `0b01` and `0b10` at arity 2 (packed keys),
    /// and at arity 4 a hashed three-column index and a one-column one.
    /// The expected walk is read off the slots one by one; the rows it
    /// names are checked against a `BTreeSet` oracle.  A bucket that walks
    /// last-pushed first, or a membership unlink that loses or keeps the
    /// wrong ids, fails here.
    #[test]
    fn buckets_walk_live_ids_in_slot_order(
        wide in any::<bool>(),
        script in proptest::collection::vec(
            (0u8..10, proptest::collection::vec(0u32..3, 4..5),
             proptest::collection::vec(proptest::collection::vec(0u32..3, 4..5), 0..6)),
            1..100,
        ),
    ) {
        let (arity, masks): (usize, [u32; 2]) = if wide { (4, [0b1011, 0b0100]) } else { (2, [0b01, 0b10]) };
        let mut indexed = IndexedRelation::new(arity);
        for mask in masks {
            indexed.ensure_index(mask);
        }
        let mut oracle = Rows::new();
        for (op, row, rows) in script {
            let row = &row[..arity];
            match op {
                0..=3 => {
                    prop_assert_eq!(indexed.insert_row(&consts(row)), oracle.insert(row.to_vec()));
                }
                4..=7 => {
                    prop_assert_eq!(indexed.remove_row(&consts(row)), oracle.remove(row));
                }
                8 => {
                    let fresh: Rows = rows
                        .iter()
                        .map(|r| r[..arity].to_vec())
                        .filter(|r| !oracle.contains(r))
                        .collect();
                    indexed.append_run(&relation_of(arity, &fresh));
                    oracle.extend(fresh);
                }
                _ => {
                    indexed.snapshot();
                }
            }
            let live: Vec<u32> = (0..indexed.slot_count()).filter(|&id| indexed.is_live(id)).collect();
            let stored: Rows = live
                .iter()
                .map(|&id| indexed.row(id).iter().map(|c| c.index()).collect())
                .collect();
            prop_assert_eq!(&stored, &oracle);
            let project = |id: u32, mask: u32| -> Vec<Const> {
                (0..arity).filter(|col| mask & 1 << col != 0).map(|col| indexed.row(id)[col]).collect()
            };
            for mask in masks {
                let mut keys: Vec<Vec<Const>> = live.iter().map(|&id| project(id, mask)).collect();
                keys.push(vec![Const::new(9); mask.count_ones() as usize]);
                for key in keys {
                    let expected: Vec<u32> =
                        live.iter().copied().filter(|&id| project(id, mask) == key).collect();
                    prop_assert_eq!(indexed.probe(mask, &key), expected);
                }
            }
            let full_key = |row: &[Const]| {
                let mut acc = KeyAcc::new(arity);
                row.iter().for_each(|&c| acc.push(c));
                acc.finish()
            };
            // a tail only bulk-appended to keeps sorted levels: the
            // membership table is demanded before its buckets are walked
            indexed.ensure_membership();
            for probe in oracle.iter().chain([&vec![9; arity]]) {
                let key = full_key(&consts(probe));
                let expected: Vec<u32> =
                    live.iter().copied().filter(|&id| full_key(indexed.row(id)) == key).collect();
                prop_assert_eq!(indexed.member_bucket(key).collect::<Vec<u32>>(), expected);
            }
        }
    }

    /// A pristine load answers `contains_row` the same with its membership
    /// table deferred (binary search on the source) and built (hash probe,
    /// verified for wide rows).
    #[test]
    fn deferred_and_built_membership_agree(
        wide in any::<bool>(),
        stored in proptest::collection::vec(proptest::collection::vec(0u32..4, 4..5), 0..40),
        probes in proptest::collection::vec(proptest::collection::vec(0u32..4, 4..5), 1..40),
    ) {
        let arity = if wide { 4 } else { 2 };
        let rows: Rows = stored.iter().map(|row| row[..arity].to_vec()).collect();
        let deferred = IndexedRelation::from_relation(&relation_of(arity, &rows));
        let mut built = deferred.clone();
        built.ensure_membership();
        prop_assert!(!deferred.has_membership());
        prop_assert!(built.has_membership());
        for probe in probes.iter().chain(&stored) {
            let probe = &probe[..arity];
            let expected = rows.contains(probe);
            prop_assert_eq!(deferred.contains_row(&consts(probe)), expected);
            prop_assert_eq!(built.contains_row(&consts(probe)), expected);
        }
    }
}
