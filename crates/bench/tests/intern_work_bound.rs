//! An upper bound on the names interning copies.
//!
//! `abox_read`'s set-up shape, through `Service::execute`: 40 `ASSERT`s of
//! 500 new named individuals each, then 50 `ASSERT`s over the known ones
//! that intern 0, 1 or 2 stray names each.  Every write command parses
//! against a handle on the committed vocabulary, so each one that interns
//! unshares what it appends to.
//!
//! The work is read off `kbt_data_names_copied_total`: names written into
//! a fresh chunk or index level, by copy-on-write or by a level merge.  It
//! is a function of the command sequence alone, so the test holds it to
//! 10 % over `MEASURED_TOTAL` for the whole run and over `MEASURED_LATE`
//! for the most any one command past 19 500 names copied — ROADMAP item 1's
//! "an interning `ASSERT` of 500 names at 20 000 names costs within 1.5× of
//! one into an empty vocabulary", as a count instead of a time.
//!
//! When a vocabulary was five owned collections, the first name a command
//! interned — constant or relation — deep-copied every constant name already
//! there: 500 · k for the k-th load batch (390 000 over the 40), 19 500 for
//! the last of them, and 20 000 or more for each of the 34 late commands that
//! intern a name (33 stray batches, and the first `rel` fact's relation
//! name): 1 070 784 names in all, and 20 048 for the costliest late command.
//! Now a command copies the open chunk (at most 1 024 names) and the open
//! level (at most 64) it appends to, plus the merges its appends complete —
//! 188 352 names in all, every name rewritten about log₂(n / 64) times by the
//! merges, and at most 1 624 for one late command.  The figures are printed
//! with `-- --nocapture`.
//!
//! Like `read_alloc_bound.rs`, this binary holds exactly one `#[test]`: the
//! counter is process-global.

use kbt_service::{Service, ServiceConfig};

/// Names the whole run copied when the bound was set.
const MEASURED_TOTAL: u64 = 188_352;
/// The most names one command past 19 500 names copied when the bound was
/// set.
const MEASURED_LATE: u64 = 1_624;

fn copied() -> u64 {
    kbt_data::metrics().names_copied_total.get()
}

#[test]
fn interning_copies_within_its_bound() {
    let service = Service::new(ServiceConfig::builder().threads(1).build());
    let start = copied();
    let mut late = Vec::new();
    let mut run = |command: String, late_batch: bool| {
        let before = copied();
        service.execute(&command).unwrap();
        if late_batch {
            late.push(copied() - before);
        }
    };
    for batch in 0..40 {
        let facts: Vec<String> = (batch * 500..(batch + 1) * 500)
            .map(|k| format!("ind('ind{k}')"))
            .collect();
        run(format!("ASSERT {}", facts.join(", ")), batch == 39);
    }
    for batch in 0..50 {
        let mut facts: Vec<String> = (0..20)
            .map(|i| {
                format!(
                    "rel('ind{}', 'ind{}')",
                    batch * 397 + i,
                    batch * 211 + 7 * i
                )
            })
            .collect();
        facts.extend((0..batch % 3).map(|i| format!("rel('ind{batch}', 'stray{batch}_{i}')")));
        run(format!("ASSERT {}", facts.join(", ")), true);
    }
    let snap = service.snapshot();
    // 50 batches add 0 + 1 + 2 + 0 + … = 49 stray names
    assert_eq!(snap.vocab().constant_count(), 20_049);

    let total = copied() - start;
    let most_late = late.iter().copied().max().unwrap_or(0);
    println!("names copied: {total} in all, at most {most_late} by one command past 19 500 names");
    assert!(
        total <= MEASURED_TOTAL + MEASURED_TOTAL / 10,
        "interning copied {total} names; the bound is 10 % over {MEASURED_TOTAL}"
    );
    assert!(
        most_late <= MEASURED_LATE + MEASURED_LATE / 10,
        "one late command copied {most_late} names; the bound is 10 % over {MEASURED_LATE}"
    );
}
