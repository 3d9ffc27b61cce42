//! Differential test for stored fixpoints: a hypothetical read over a
//! snapshot whose catalogue says a relation already *is* a least fixpoint
//! takes that relation from the snapshot and evaluates only the rules it
//! does not cover — and must answer exactly what evaluating from scratch
//! answers.
//!
//! Random command streams over a small graph mix `ASSERT` / `RETRACT` on
//! the closures' input (`edge`) *and* on their heads (`reach`, `sg`),
//! `DEFINE` and re-`DEFINE` (a name that later applies another program
//! into the same head), `APPLY` of transforms with and without a leading
//! `project`, and a non-Horn `APPLY` that splits the knowledgebase into two
//! worlds (and a `lub` that merges them again).  A durable run also
//! restarts through its data directory, with and without a checkpoint
//! first.  After every command, each read of a fixed corpus — reads whose
//! Horn insertion holds a stored closure's rules (renamed and reordered
//! too) plus a rule reading it, reads that only partly match, reads that
//! change or drop a stored input first, and reads where another rule
//! writes into the stored head — must render byte-identically to
//! `Transformer::apply` over the same snapshot, the oracle, both through
//! `QUERY` and through the typed `Service::query_on`.
//! `PROFILE` and `EXPLAIN` of each must succeed, and a run fails unless
//! some reads took a stored head and some did not.
//!
//! The count test pins the saving on a `closure_scan`-shaped service: its
//! three reads derive only their own rows, and once a commit changes
//! `edge` the same read derives the whole closure again.

use std::path::{Path, PathBuf};

use kbt::core::Transformer;
use kbt::data::{Knowledgebase, Vocabulary};
use kbt::service::command::render_fact;
use kbt::service::{
    parse_transform, DurabilityConfig, FsyncPolicy, Response, Service, ServiceConfig,
};
use proptest::prelude::*;
use rand::prelude::*;

const LIN: &str = "(forall x0 x1. edge(x0, x1) -> reach(x0, x1)) & \
                   (forall x0 x1 x2. reach(x0, x1) & edge(x1, x2) -> reach(x0, x2))";
const NONLIN: &str = "(forall x0 x1. edge(x0, x1) -> reach(x0, x1)) & \
                      (forall x0 x1 x2. reach(x0, x1) & reach(x1, x2) -> reach(x0, x2))";
const SG: &str = "(forall x0 x1 x2. edge(x0, x1) & edge(x0, x2) -> sg(x1, x2)) & \
                  (forall x0 x1 x2 x3. edge(x0, x1) & sg(x0, x2) & edge(x2, x3) -> sg(x1, x3))";
/// `LIN` with other variable names and its rules in the other order.
const LIN_RENAMED: &str = "(forall a b c. reach(a, b) & edge(b, c) -> reach(a, c)) & \
                           (forall u v. edge(u, v) -> reach(u, v))";
/// One step of `edge` into `reach`: another fixpoint into the same head.
const HOP: &str = "forall x0 x1. edge(x0, x1) -> reach(x0, x1)";

/// The graph's nodes are `1..=NODES`.
const NODES: u32 = 5;

/// The registrations a stream starts from, and what re-`DEFINE`s pick.
fn definitions() -> Vec<(&'static str, String)> {
    vec![
        ("lin", format!("project[edge]; tau[{LIN}]")),
        ("nonlin", format!("project[edge]; tau[{NONLIN}]")),
        ("samegen", format!("tau[{SG}]")),
        ("hop", format!("project[edge]; tau[{HOP}]")),
        ("split", "tau[mark(1) | mark(2)]".to_string()),
        ("merge", "lub".to_string()),
    ]
}

/// The reads checked after every command.
fn reads(k: u32) -> Vec<String> {
    vec![
        format!(
            "project[edge]; tau[{LIN} & (forall x0. reach(x0, x0) -> oncycle(x0))]; \
             project[oncycle]"
        ),
        format!(
            "project[edge]; tau[{NONLIN} & (forall x0. reach(x0, {k}) -> hits(x0))]; \
             project[hits]"
        ),
        format!("project[edge]; tau[{SG} & (forall x0. sg({k}, x0) -> twin(x0))]; project[twin]"),
        format!("project[edge]; tau[{LIN}]"),
        format!("project[edge]; tau[{LIN}]; project[reach]"),
        format!(
            "project[edge]; tau[{LIN_RENAMED} & (forall y. reach(y, {k}) -> hits(y))]; \
             project[hits, reach]"
        ),
        // both closures' rules: two entries into one head
        format!("project[edge]; tau[{LIN} & {NONLIN}]; project[reach]"),
        // a stored input besides `edge`, read by the remaining rule
        format!(
            "project[edge, sg]; tau[{LIN} & \
             (forall x0 x1. sg(x0, x1) & reach(x1, x0) -> loop(x0, x1))]; project[loop]"
        ),
        // a remaining rule writes into the stored head: nothing is taken
        format!(
            "project[edge, sg]; tau[{LIN} & (forall x0 x1. sg(x0, x1) -> reach(x0, x1))]; \
             project[reach]"
        ),
        // an input the read itself changed first: nothing is taken
        format!(
            "tau[edge({k}, 1)]; project[edge]; \
             tau[{LIN} & (forall x0. reach(x0, x0) -> oncycle(x0))]; project[oncycle]"
        ),
        // an input the read dropped: nothing is taken
        format!("project[sg]; tau[{LIN}]; project[reach]"),
        // only part of a stored program: nothing is taken
        format!("project[edge]; tau[{HOP} & (forall x0. reach(x0, {k}) -> hits(x0))]"),
        // a head in the world already: not the fast path at all
        format!("tau[{HOP}]; lub"),
    ]
}

/// One random write command (or `None` for a restart, which only a
/// durable run takes).
fn random_command(rng: &mut StdRng) -> Option<String> {
    let node = |rng: &mut StdRng| rng.random_range(1..NODES + 1);
    let pair = |rng: &mut StdRng| (node(rng), node(rng));
    let names = definitions();
    Some(match rng.random_range(0..20u32) {
        0..=3 => {
            let (a, b) = pair(rng);
            format!("ASSERT edge({a}, {b})")
        }
        4..=5 => {
            let (a, b) = pair(rng);
            format!("RETRACT edge({a}, {b})")
        }
        6 => {
            let (a, b) = pair(rng);
            let rel = if rng.random_bool(0.5) { "reach" } else { "sg" };
            format!("ASSERT {rel}({a}, {b})")
        }
        7 => {
            let (a, b) = pair(rng);
            let rel = if rng.random_bool(0.5) { "reach" } else { "sg" };
            format!("RETRACT {rel}({a}, {b})")
        }
        8 => {
            // re-register a closure's name as another program
            let name = ["lin", "nonlin", "hop"][rng.random_range(0..3usize)];
            let (_, text) = &names[rng.random_range(0..4usize)];
            format!("DEFINE {name} := {text}")
        }
        9 => "RETRACT mark(1), mark(2)".to_string(),
        10..=17 => {
            let (name, _) = names[rng.random_range(0..names.len())];
            format!("APPLY {name}")
        }
        _ => return None,
    })
}

/// Every world of `kb`, rendered as the wire renders it.
fn render(kb: &Knowledgebase, vocab: &Vocabulary) -> Vec<Vec<String>> {
    kb.iter()
        .map(|db| {
            db.iter()
                .flat_map(|(rel, facts)| facts.iter().map(move |row| render_fact(rel, row, vocab)))
                .collect()
        })
        .collect()
}

/// Reads taken and reads that took a stored head.
#[derive(Debug, Default)]
struct Tally {
    reads: u64,
    stored: u64,
}

/// Every read of the corpus against the service's current snapshot,
/// checked against the oracle.
fn check_reads(service: &Service, k: u32, context: &str, tally: &mut Tally) {
    let snap = service.snapshot();
    let oracle_transformer = Transformer::new();
    for read in reads(k) {
        let mut vocab = snap.vocab().clone();
        let transform = parse_transform(&read, &mut vocab).expect("the corpus parses");
        let oracle = oracle_transformer
            .apply(&transform, snap.kb())
            .unwrap_or_else(|e| panic!("{context}: oracle of {read}: {e}"));
        let before = service.metrics().stored_fixpoint_reads_total.get();
        let Response::Worlds { epoch, worlds } = service.execute(&format!("QUERY {read}")).unwrap()
        else {
            panic!("{context}: QUERY {read} is not a world list");
        };
        assert_eq!(epoch, snap.epoch(), "{context}: a read saw another epoch");
        assert_eq!(
            worlds.render(),
            render(&oracle.kb, &vocab),
            "{context}: QUERY {read}"
        );
        tally.reads += 1;
        tally.stored += service.metrics().stored_fixpoint_reads_total.get() - before;
        let typed = service.query_on(&snap, &transform).unwrap();
        assert!(typed.kb == oracle.kb, "{context}: typed {read}");
        for verb in ["PROFILE", "EXPLAIN"] {
            service
                .execute(&format!("{verb} {read}"))
                .unwrap_or_else(|e| panic!("{context}: {verb} {read}: {e}"));
        }
    }
}

fn scratch_dir(seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "kbt-stored-fixpoint-diff-{seed}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_config(dir: &Path) -> ServiceConfig {
    ServiceConfig::builder()
        .threads(1)
        .durability(Some(DurabilityConfig {
            data_dir: dir.to_path_buf(),
            fsync_policy: FsyncPolicy::Never,
            checkpoint_every_n_commits: 0,
        }))
        .build()
}

/// One random stream of `commands` commands from `seed`, in memory or
/// through a durable data directory (which then also restarts).
fn run(seed: u64, commands: usize, durable: bool) -> Tally {
    let mut rng = StdRng::seed_from_u64(seed);
    let dir = scratch_dir(seed);
    let open = || {
        if durable {
            Service::open(durable_config(&dir)).expect("the data directory opens")
        } else {
            Service::new(ServiceConfig::builder().threads(1).build())
        }
    };
    let mut service = open();
    service.execute("ASSERT edge(1, 2), mark(9)").unwrap();
    for (name, text) in definitions() {
        service
            .execute(&format!("DEFINE {name} := {text}"))
            .unwrap();
    }
    let mut tally = Tally::default();
    for step in 0..commands {
        let k = rng.random_range(1..NODES + 1);
        match random_command(&mut rng) {
            Some(command) => {
                // an APPLY may fail (a transform whose last step no longer
                // takes the fast path can still be refused); a failed
                // commit publishes nothing, so reads go on regardless
                let _ = service.execute(&command);
                check_reads(
                    &service,
                    k,
                    &format!("seed {seed} step {step}: {command}"),
                    &mut tally,
                );
            }
            None if durable => {
                let checkpoint = rng.random_bool(0.5);
                if checkpoint {
                    service.execute("CHECKPOINT").unwrap();
                }
                let (epoch, kb) = (service.epoch(), service.snapshot().kb().clone());
                drop(service);
                service = open();
                assert_eq!(
                    service.epoch(),
                    epoch,
                    "seed {seed}: the restart lost a commit"
                );
                assert!(
                    service.snapshot().kb() == &kb,
                    "seed {seed}: the restart changed the state"
                );
                let context = format!("seed {seed} step {step}: restart (checkpoint {checkpoint})");
                check_reads(&service, k, &context, &mut tally);
            }
            None => {}
        }
    }
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
    tally
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

    #[test]
    fn stored_reads_answer_what_evaluation_answers(seed in any::<u64>()) {
        let memory = run(seed, 16, false);
        let durable = run(seed.wrapping_add(1), 16, true);
        prop_assert!(memory.reads > 0 && durable.reads > 0);
    }
}

#[test]
fn fixed_streams_take_stored_heads_and_match_the_oracle() {
    let mut tally = Tally::default();
    for seed in 0..2 {
        for durable in [false, true] {
            let t = run(seed, 24, durable);
            tally.reads += t.reads;
            tally.stored += t.stored;
        }
    }
    assert!(
        tally.stored > 0 && tally.stored < tally.reads,
        "some reads must take a stored head and some must not: {tally:?}"
    );
}

#[test]
#[ignore = "a longer variant; CI runs it in release"]
fn stored_reads_answer_what_evaluation_answers_at_length() {
    let mut tally = Tally::default();
    for seed in 0..24 {
        let t = run(seed, 48, seed % 2 == 0);
        tally.reads += t.reads;
        tally.stored += t.stored;
    }
    assert!(tally.stored > 0 && tally.stored < tally.reads, "{tally:?}");
}

// ---------------------------------------------------------------------
// The count test
// ---------------------------------------------------------------------

/// `closure_scan`'s braid in miniature: `units` units of two five-edge
/// strands from a root, every tenth closed into a cycle.
fn braid(units: u32) -> String {
    let mut edges = Vec::new();
    for u in 0..units {
        let r = u * 16;
        edges.push((r, r + 1));
        edges.push((r, r + 6));
        for i in 1..5 {
            edges.push((r + i, r + i + 1));
            edges.push((r + 5 + i, r + 6 + i));
        }
        if u % 10 == 3 {
            edges.push((r + 5, r));
        }
    }
    let facts: Vec<String> = edges
        .iter()
        .map(|(a, b)| format!("edge({a}, {b})"))
        .collect();
    format!("ASSERT {}", facts.join(", "))
}

/// The `derived=` counts of a `PROFILE`'s rule rows, summed, whether a
/// `stored …` row was among them, and the answer's row count (`QUERY`).
fn profile(service: &Service, read: &str) -> (u64, bool, usize) {
    let Response::Profile { rows, .. } = service.execute(&format!("PROFILE {read}")).unwrap()
    else {
        panic!("expected a profile of {read}");
    };
    let derived = (rows.iter())
        .map(|row| {
            let tail = &row[row.find(" derived=").expect("a rule row") + " derived=".len()..];
            tail.split(' ').next().unwrap().parse::<u64>().unwrap()
        })
        .sum();
    let stored = rows.iter().any(|row| row.starts_with("stored "));
    let Response::Worlds { worlds, .. } = service.execute(&format!("QUERY {read}")).unwrap() else {
        panic!("expected worlds of {read}");
    };
    let answers = worlds.render().iter().map(Vec::len).sum();
    (derived, stored, answers)
}

#[test]
fn closure_reads_derive_only_their_own_rows_until_edge_changes() {
    let service = Service::new(ServiceConfig::builder().threads(1).build());
    service.execute(&braid(40)).unwrap();
    for (name, text) in [
        ("lin", format!("project[edge]; tau[{LIN}]")),
        ("nonlin", format!("project[edge]; tau[{NONLIN}]")),
        ("samegen", format!("tau[{SG}]")),
    ] {
        service
            .execute(&format!("DEFINE {name} := {text}"))
            .unwrap();
        service.execute(&format!("APPLY {name}")).unwrap();
    }
    let text = service.metrics_text();
    assert!(text.contains("kbt_service_stored_fixpoints 3\n"), "{text}");

    let oncycle = format!(
        "project[edge]; tau[{LIN} & (forall x0. reach(x0, x0) -> oncycle(x0))]; project[oncycle]"
    );
    let hits = format!(
        "project[edge]; tau[{NONLIN} & (forall x0. reach(x0, 358) -> hits(x0))]; project[hits]"
    );
    let twin =
        format!("project[edge]; tau[{SG} & (forall x0. sg(49, x0) -> twin(x0))]; project[twin]");
    for read in [&oncycle, &hits, &twin] {
        let (derived, stored, answers) = profile(&service, read);
        assert!(stored, "{read} must read its stored closure");
        assert!(answers > 0, "{read} must answer something");
        assert_eq!(
            derived, answers as u64,
            "{read} must derive its answers only"
        );
    }
    assert_eq!(
        service.metrics().stored_fixpoint_reads_total.get(),
        6,
        "three PROFILEs and three QUERYs took a stored head"
    );

    // a commit that changes `edge` voids every entry: the read derives the
    // whole linear closure again
    let closure = {
        let Response::Worlds { worlds, .. } = service
            .execute(&format!("QUERY project[edge]; tau[{LIN}]; project[reach]"))
            .unwrap()
        else {
            panic!("expected worlds");
        };
        worlds.render()[0].len()
    };
    let reads = service.metrics().stored_fixpoint_reads_total.get();
    service.execute("ASSERT edge(1000, 1001)").unwrap();
    let text = service.metrics_text();
    assert!(text.contains("kbt_service_stored_fixpoints 0\n"), "{text}");
    let (derived, stored, answers) = profile(&service, &oncycle);
    assert!(!stored);
    assert!(
        derived as usize > closure + answers,
        "the voided read must derive the closure ({closure} rows) again, derived {derived}"
    );
    assert_eq!(service.metrics().stored_fixpoint_reads_total.get(), reads);
}
