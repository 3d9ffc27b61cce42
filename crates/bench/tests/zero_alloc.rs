//! Allocation-budget assertions for the engine's probe inner loop.
//!
//! The flat-arena redesign of `IndexedRelation` promises that a join probe
//! against a ≤ [`PACK_MAX`]-column key performs **zero heap allocations**:
//! the key packs into a `u64` on the stack, the bucket lookup returns a
//! borrowed walk along the bucket's id chain (no key owns a heap `Vec`),
//! and row verification reads `&[Const]` slices straight out of the arena.  This binary installs the counting allocator from
//! `kbt_bench::alloc_counter` as its global allocator and holds the loop to
//! that budget — if a future change boxes keys, clones tuples per
//! candidate, or materialises probe results, the count goes non-zero and
//! this test names the exact loop that regressed.
//!
//! The binary contains exactly one `#[test]` on purpose: the counters are
//! process-global, so a concurrently running sibling test would bill its
//! allocations to the measured window.

use kbt_bench::alloc_counter;
use kbt_data::Const;
use kbt_engine::{IndexedRelation, KeyAcc};

#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

fn c(i: u32) -> Const {
    Const::new(i)
}

#[test]
fn probe_inner_loop_allocates_nothing() {
    // A 2-ary relation shaped like a join input: 50 groups of 20 rows.
    let mut rel = IndexedRelation::new(2);
    for i in 0..1_000u32 {
        rel.insert_row(&[c(i % 50), c(i)]);
    }
    // Demand the two packed-key binding patterns a transitive-closure body
    // uses: first column bound (the probe side) and both columns bound
    // (the membership/negation side).
    rel.ensure_index(0b01);

    // Warm-up pass: any lazily grown state must not be billed to the
    // measured loop.
    let mut warm = 0u64;
    for g in 0..50u32 {
        let mut acc = KeyAcc::new(1);
        acc.push(c(g));
        warm += rel.probe_bucket(0b01, acc.finish()).count() as u64;
    }
    assert_eq!(warm, 1_000, "every row is reachable through its group");

    // The measured loop mirrors `eval::run_steps`' probe step: pack the
    // bound column into a key, look up the bucket, and verify candidates
    // against arena row slices.
    alloc_counter::reset();
    let mut hits = 0u64;
    for i in 0..10_000u32 {
        let group = c(i % 50);
        let mut acc = KeyAcc::new(1);
        acc.push(group);
        for id in rel.probe_bucket(0b01, acc.finish()) {
            if rel.is_live(id) {
                let row = rel.row(id);
                debug_assert_eq!(row[0], group);
                if row[1].index().is_multiple_of(2) {
                    hits += 1;
                }
            }
        }
        // the fully bound pattern goes through the packed member bucket
        let mut acc = KeyAcc::new(2);
        acc.push(group);
        acc.push(c(i % 1_000));
        if rel.member_bucket(acc.finish()).next().is_some() {
            hits += 1;
        }
    }
    let (allocs, bytes) = alloc_counter::snapshot();
    assert!(hits > 0, "the probes must really run");
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "probe inner loop must not touch the heap"
    );
}
