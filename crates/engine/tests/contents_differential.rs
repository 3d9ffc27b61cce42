//! Differential proptests for the one way [`IndexedRelation`] knows its own
//! contents in order — the relation it was last seated on (loaded from, or
//! handed out as a snapshot that landed on a new base run) plus what it
//! records since: that relation's base run is the first segment, its
//! delta's adds and every run appended since are the tail, and its delta's
//! dels and every removal since are tombstones — and for the membership
//! table a load defers.
//!
//! Random interleavings of load / bulk append / `insert` / `remove` /
//! `snapshot` (with automatic compaction kicking in on delete-heavy
//! prefixes) are replayed against a `BTreeSet` of rows, which shares no
//! code with either relation type, and every view of the indexed relation
//! must agree with it after every step.  The first properties keep their
//! relations under 25 rows, where every merge folds into a fresh run; the
//! layered ones start from bases of 64 rows and more, so a materialisation
//! composes a delta over the shared base run, a load takes a held layered
//! snapshot apart into segment, tail and tombstones, and scripts cross the
//! data crate's 1/64 fold rule and the compaction threshold, both of which
//! re-seat the relation.  Any bookkeeping bug — a run boundary lost, a
//! tombstone missed among the deletions, a segment row that died and came
//! back counted twice or not at all, a membership table built late, a
//! re-seat that forgets a table or a delta row — shows up as a mismatch,
//! or trips the debug assertion that the materialised length equals the
//! live count.

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
    /// outstanding reader — and, where it landed on a new run, against a
    /// relation re-seated on it.
    Snapshot,
    /// Replace the relation by a bulk load of its own current contents: the
    /// same rows, but pristine again — deferred membership table, seated on
    /// the load, nothing recorded.  (A load of the empty relation when
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
            // merges what was recorded since the seat without re-seating),
            // membership of every row of the domain, and the index
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

/// The side of the square the layered properties draw rows from: 256
/// rows, so a base of 64 or more has room for a delta (a relation under 64
/// rows folds every write at once).
const SIDE: u32 = 16;

/// One scripted operation of the layered properties.
#[derive(Clone, Copy, Debug)]
enum Layered {
    Insert(u32, u32),
    /// Remove the `n`-th present row (modulo the count), so that removals
    /// hit.
    RemoveNth(usize),
    /// Remove `k` present rows from the `n`-th on: a burst that crosses the
    /// compaction threshold.
    Purge(usize, usize),
    /// Take and hold a snapshot.
    Snapshot,
    /// Replace the relation by a load of the `n`-th held snapshot — a
    /// layered one, as often as not: its base run the first segment, its
    /// adds the tail and its dels tombstones.
    LoadHeld(usize),
    /// Bulk-append the absent rows of the line through `a` (`a` in either
    /// column): canonical and disjoint, as the commit's are.
    Append(u32),
}

fn arb_layered_script(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Layered>> {
    proptest::collection::vec((0u8..16, 0u32..SIDE, 0u32..SIDE, 0usize..64), len).prop_map(
        |codes| {
            codes
                .into_iter()
                .map(|(op, a, b, n)| match op {
                    0..=4 => Layered::Insert(a, b),
                    5..=7 => Layered::RemoveNth(n),
                    8 => Layered::Purge(n, 1 + 3 * b as usize),
                    9 | 10 => Layered::Snapshot,
                    11 | 12 => Layered::LoadHeld(n),
                    _ => Layered::Append(a),
                })
                .collect()
        },
    )
}

fn arb_layered_base() -> impl Strategy<Value = Rows> {
    proptest::collection::btree_set((0u32..SIDE, 0u32..SIDE), 64..160)
        .prop_map(|rows| rows.into_iter().map(|(a, b)| vec![a, b]).collect())
}

/// A load of `relation` with the two probe indexes demanded.
fn load_indexed(relation: &Relation) -> IndexedRelation {
    let mut indexed = IndexedRelation::from_relation(relation);
    assert!(!indexed.has_membership());
    indexed.ensure_index(0b01);
    indexed.ensure_index(0b10);
    indexed
}

/// Every view of `indexed` against `oracle`: the count, the materialised
/// run, membership of every row of the square, and both indexes.
fn assert_tracks(indexed: &IndexedRelation, oracle: &Rows) {
    assert_eq!(indexed.len(), oracle.len());
    let expected: Vec<Vec<u32>> = oracle.iter().cloned().collect();
    assert_eq!(rows_of(&indexed.to_relation()), expected);
    for a in 0..SIDE {
        for (mask, col) in [(0b01, 0), (0b10, 1)] {
            let mut probed: Vec<Vec<u32>> = (indexed.probe(mask, &[Const::new(a)]).into_iter())
                .map(|id| indexed.row(id).iter().map(|c| c.index()).collect())
                .collect();
            probed.sort();
            let line: Vec<Vec<u32>> = oracle.iter().filter(|row| row[col] == a).cloned().collect();
            assert_eq!(probed, line, "mask {mask:#b}, value {a}");
        }
        for b in 0..SIDE {
            assert_eq!(
                indexed.contains_row(&consts(&[a, b])),
                oracle.contains(&vec![a, b])
            );
        }
    }
}

/// Replays a layered script on a load of `base`, checking every view after
/// every step and every held snapshot at the end.
fn check_layered(base: &Rows, script: &[Layered]) {
    let stored = relation_of(2, base);
    let mut indexed = load_indexed(&stored);
    let mut oracle = base.clone();
    let mut held: Vec<(Relation, Rows)> = vec![(stored, base.clone())];
    for &op in script {
        let nth = |oracle: &Rows, n: usize| oracle.iter().nth(n % oracle.len().max(1)).cloned();
        match op {
            Layered::Insert(a, b) => {
                let added = indexed.insert_row(&consts(&[a, b]));
                assert_eq!(added, oracle.insert(vec![a, b]));
            }
            Layered::RemoveNth(n) => {
                if let Some(row) = nth(&oracle, n) {
                    assert!(indexed.remove_row(&consts(&row)));
                    oracle.remove(&row);
                }
            }
            Layered::Purge(n, k) => {
                for _ in 0..k {
                    let Some(row) = nth(&oracle, n) else { break };
                    assert!(indexed.remove_row(&consts(&row)));
                    oracle.remove(&row);
                }
            }
            Layered::Snapshot => held.push((indexed.snapshot(), oracle.clone())),
            Layered::LoadHeld(n) => {
                let (relation, rows) = &held[n % held.len()];
                indexed = load_indexed(relation);
                oracle = rows.clone();
            }
            Layered::Append(a) => {
                let fresh: Rows = (0..SIDE)
                    .flat_map(|j| [vec![a, j], vec![j, a]])
                    .filter(|row| !oracle.contains(row))
                    .collect();
                indexed.append_run(&relation_of(2, &fresh));
                oracle.extend(fresh);
            }
        }
        assert_tracks(&indexed, &oracle);
    }
    let expected: Vec<Vec<u32>> = oracle.iter().cloned().collect();
    assert_eq!(rows_of(&indexed.snapshot()), expected);
    for (snap, rows) in held {
        let expected: Vec<Vec<u32>> = rows.into_iter().collect();
        assert_eq!(rows_of(&snap), expected, "a held snapshot was disturbed");
    }
}

/// The layered scripts' thresholds, crossed on purpose: over a base of
/// 128 rows a one-row write materialises as a delta over the shared base
/// run, a load of that layered snapshot reads the same, two more rows pass
/// the 1/64 fold rule and re-seat the relation on a fresh run, and
/// removing most rows crosses the compaction threshold.
#[test]
fn a_layered_relation_crosses_the_fold_and_the_compaction() {
    let base: Rows = (0..SIDE)
        .flat_map(|a| (0..8).map(move |b| vec![a, 2 * b]))
        .collect();
    let stored = relation_of(2, &base);
    let mut indexed = load_indexed(&stored);
    let mut oracle = base.clone();
    indexed.insert_row(&consts(&[0, 1]));
    oracle.insert(vec![0, 1]);
    let layered = indexed.snapshot();
    assert!(!layered.is_flat(), "one row over 128 composes a delta");
    assert!(layered.base().shares_rows(&stored));
    let reloaded = load_indexed(&layered);
    assert_eq!(reloaded.slot_count(), 129, "the base run and a tail of one");
    assert_tracks(&reloaded, &oracle);
    for b in [3, 5] {
        indexed.insert_row(&consts(&[0, b]));
        oracle.insert(vec![0, b]);
    }
    let folded = indexed.snapshot();
    assert!(folded.is_flat(), "three rows over 128 fold");
    assert_eq!(indexed.slot_count(), 131, "re-seated on the fold: no tail");
    assert_tracks(&indexed, &oracle);
    for row in base.iter().take(70) {
        assert!(indexed.remove_row(&consts(row)));
        oracle.remove(row);
        assert_tracks(&indexed, &oracle);
    }
    assert!(indexed.slot_count() < 131, "more than half dead: compacted");
    assert_eq!(
        rows_of(&layered).len(),
        129,
        "the held snapshots are frozen"
    );
    assert_eq!(rows_of(&folded).len(), 131);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Random layered scripts over bases of 64 to 160 rows: every view
    /// tracks a `BTreeSet` after every step, through deltas composed by
    /// materialisation, loads of held layered snapshots, folds and
    /// compactions.
    #[test]
    fn layered_contents_track_a_btreeset_oracle(
        base in arb_layered_base(),
        script in arb_layered_script(1..80),
    ) {
        check_layered(&base, &script);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    #[ignore = "a longer variant; CI runs it in release"]
    fn layered_contents_track_a_btreeset_oracle_at_length(
        base in arb_layered_base(),
        script in arb_layered_script(80..320),
    ) {
        check_layered(&base, &script);
    }
}
