//! Crash-recovery differential for the durable service: a randomized
//! command stream is committed against a durable service, the process
//! "crashes" (the service is dropped without any shutdown step — with the
//! `Never` fsync policy nothing special has been flushed, exactly like a
//! SIGKILL after the OS absorbed the writes), and recovery must rebuild
//! **exactly** the state an in-memory oracle reaches by replaying the same
//! command prefix: same epoch, same knowledgebase, same commit counters.
//!
//! Three crash shapes are exercised, at evaluation widths 1 and 4:
//!
//! * a drop at a random **commit boundary** (the WAL ends on a record
//!   boundary; recovery replays everything),
//! * a **torn final record** injected by truncating the log mid-record
//!   (recovery truncates the tear and recovers the previous commit),
//! * a corrupt **interior** record (a flipped body byte with valid records
//!   following), which recovery must refuse with the typed
//!   `WalCorrupt` error rather than serve a silently wrong state.
//!
//! A damaged newest checkpoint (a flipped byte, or a file cut short) is
//! likewise refused with `CheckpointCorrupt`, never skipped for the older
//! one beside it.
//!
//! Everything the paper's semantics speaks about — the knowledgebase, the
//! vocabulary, the registry, the epoch — must be identical after every
//! recovery.  Evaluator statistics are left out of that comparison,
//! because a recovery may still rebuild a chain session that the oracle
//! keeps warm.  A restart resumes the chain session of the `APPLY` whose
//! epoch its newest checkpoint holds, when `kbt_core::Transformer::
//! resume_chain` accepts that state (`kbt_service::recover`'s module docs
//! list the conditions).  So when the checkpoint was taken right after
//! `APPLY refresh` and nothing else is registered, the recovered
//! `reused_facts` and `rederived_facts` equal the oracle's, and so does
//! the next `APPLY`'s `reused=`; `a_restart_resumes_the_chain_its_checkpoint_applied`
//! holds them equal.  They may still differ:
//!
//! * when the checkpoint's epoch was committed by anything but an
//!   accepted `APPLY` — an `ASSERT`, a `RETRACT`, a `DEFINE`, an `APPLY`
//!   of an expression not ending in `project[R]; τ_φ`, one over several
//!   worlds, one whose heads `R` keeps, or one under a strategy without the
//!   Datalog fast path — or the log no longer holds that epoch's record:
//!   the tail's first `APPLY` then evaluates in full where the oracle's
//!   chain advanced by its delta;
//! * for every other registered transformation, whose chain session no
//!   checkpoint carries, at its first `APPLY` in the tail.
//!
//! `index_probes` and `tuples_scanned` may differ even where the rest
//! agrees: a join plan breaks ties by the cardinalities at planning time,
//! and a resumed session plans against the checkpoint's input, the
//! oracle's against the input of the `APPLY` that started it.

use std::fs::OpenOptions;
use std::path::{Path, PathBuf};

use rand::prelude::*;

use kbt::core::{EvalOptions, Strategy};
use kbt::service::checkpoint::KEEP_CHECKPOINTS;
use kbt::service::wal::{Wal, WAL_FILE};
use kbt::service::{DurabilityConfig, FsyncPolicy, Response, Service, ServiceConfig, ServiceError};

const DEFINE: &str = "DEFINE refresh := project[edge]; \
     tau[(forall x0 x1. edge(x0, x1) -> reach(x0, x1)) & \
         (forall x0 x1 x2. reach(x0, x1) & edge(x1, x2) -> reach(x0, x2))]";

/// A deterministic pseudo-random commit stream: inserts, retractions of
/// *previously asserted* edges (a retract may not introduce names), and
/// incremental `APPLY`s of the registered closure refresh.
fn command_stream(seed: u64, len: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = vec![format!("ASSERT edge(0, 1)"), DEFINE.to_string()];
    let mut asserted: Vec<(u32, u32)> = vec![(0, 1)];
    while ops.len() < len {
        match rng.random_range(0..6u32) {
            0..=2 => {
                let a = rng.random_range(0..8u32);
                let b = rng.random_range(0..8u32);
                asserted.push((a, b));
                ops.push(format!("ASSERT edge({a}, {b})"));
            }
            3 => {
                let (a, b) = asserted[rng.random_range(0..asserted.len())];
                ops.push(format!("RETRACT edge({a}, {b})"));
            }
            _ => ops.push("APPLY refresh".to_string()),
        }
    }
    ops
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("kbt-durability-diff-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_config(dir: &Path, threads: usize, checkpoint_every: u64) -> ServiceConfig {
    ServiceConfig::builder()
        .threads(threads)
        .durability(Some(DurabilityConfig {
            data_dir: dir.to_path_buf(),
            // Never: drop-without-flush is then exactly what a SIGKILL
            // leaves behind once the OS has absorbed the writes
            fsync_policy: FsyncPolicy::Never,
            checkpoint_every_n_commits: checkpoint_every,
        }))
        .build()
}

/// The in-memory oracle: the same prefix replayed on a fresh service.
fn oracle(prefix: &[String], threads: usize) -> Service {
    let service = Service::new(ServiceConfig::builder().threads(threads).build());
    for op in prefix {
        service.execute(op).expect("oracle replay");
    }
    service
}

/// The differential assertion: everything semantics-bearing must match
/// (evaluator statistics excluded — see module docs).
fn assert_equivalent(recovered: &Service, oracle: &Service, context: &str) {
    assert_eq!(recovered.epoch(), oracle.epoch(), "{context}: epoch");
    let r = recovered.snapshot();
    let o = oracle.snapshot();
    assert_eq!(r.kb(), o.kb(), "{context}: knowledgebase");
    assert_eq!(
        r.stats().commits,
        o.stats().commits,
        "{context}: commit count"
    );
    assert_eq!(r.stats().applies, o.stats().applies, "{context}: applies");
    assert_eq!(r.stats().defines, o.stats().defines, "{context}: defines");
    assert_eq!(
        r.transforms().keys().collect::<Vec<_>>(),
        o.transforms().keys().collect::<Vec<_>>(),
        "{context}: registry"
    );
    // the queryable surface agrees too (certain folds across worlds)
    if let Some((rel, _)) = r.vocab().lookup_relation("reach") {
        let (orel, _) = o.vocab().lookup_relation("reach").expect("same vocab");
        assert_eq!(
            recovered.certain(&r, rel),
            oracle.certain(&o, orel),
            "{context}: certain(reach)"
        );
    }
}

#[test]
fn crashes_at_commit_boundaries_recover_the_oracle_state() {
    for threads in [1usize, 4] {
        for (trial, checkpoint_every) in [(0u64, 0u64), (1, 5), (2, 0), (3, 3)] {
            let seed = 0xD1FF + trial + threads as u64 * 101;
            let ops = command_stream(seed, 30);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
            let cut = rng.random_range(2..ops.len() + 1);
            let dir = scratch_dir(&format!("boundary-{threads}-{trial}"));
            let context = format!("threads={threads} trial={trial} cut={cut}");

            {
                let s = Service::open(durable_config(&dir, threads, checkpoint_every)).unwrap();
                for op in &ops[..cut] {
                    let r = s.execute(op).expect(&context);
                    // Never policy: committed but explicitly not flushed
                    match r {
                        Response::Committed { durable, .. }
                        | Response::Defined { durable, .. }
                        | Response::Applied { durable, .. } => {
                            assert_eq!(durable, Some(false), "{context}");
                        }
                        other => panic!("{context}: unexpected {other:?}"),
                    }
                }
                // crash: dropped without checkpoint or shutdown
            }
            if checkpoint_every > 0 {
                let checkpoints = std::fs::read_dir(&dir)
                    .unwrap()
                    .filter_map(|e| e.ok())
                    .filter(|e| e.file_name().to_string_lossy().starts_with("checkpoint-"))
                    .count();
                assert!(checkpoints >= 1, "{context}: a checkpoint must exist");
                assert!(checkpoints <= KEEP_CHECKPOINTS, "{context}: pruned");
            }

            let recovered = Service::open(durable_config(&dir, threads, checkpoint_every))
                .unwrap_or_else(|e| panic!("{context}: recovery failed: {e}"));
            assert_equivalent(&recovered, &oracle(&ops[..cut], threads), &context);

            // and the recovered service keeps committing durably
            recovered.execute("ASSERT edge(6, 7)").expect(&context);
            assert_eq!(recovered.epoch().get(), cut as u64 + 1, "{context}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn torn_final_records_recover_to_the_previous_commit() {
    for threads in [1usize, 4] {
        for trial in 0..3u64 {
            let seed = 0x70A2 + trial * 7 + threads as u64;
            let ops = command_stream(seed, 20);
            let dir = scratch_dir(&format!("torn-{threads}-{trial}"));
            let context = format!("threads={threads} trial={trial}");

            {
                let s = Service::open(durable_config(&dir, threads, 0)).unwrap();
                for op in &ops {
                    s.execute(op).expect(&context);
                }
            }
            // tear the final record: cut the log mid-record, at a random
            // byte strictly inside the last frame
            let wal_path = dir.join(WAL_FILE);
            let scan = Wal::scan(&wal_path).unwrap();
            assert!(!scan.torn_tail, "{context}: clean log before injection");
            let last = scan.records.last().expect("non-empty stream");
            let frame_len = (16 + last.command.len()) as u64;
            let last_start = scan.valid_len - frame_len;
            let mut rng = StdRng::seed_from_u64(seed ^ 0x7EA2);
            let cut = last_start + rng.random_range(1..frame_len);
            OpenOptions::new()
                .write(true)
                .open(&wal_path)
                .unwrap()
                .set_len(cut)
                .unwrap();

            let recovered = Service::open(durable_config(&dir, threads, 0))
                .unwrap_or_else(|e| panic!("{context}: torn tail must recover: {e}"));
            assert_equivalent(
                &recovered,
                &oracle(&ops[..ops.len() - 1], threads),
                &context,
            );
            // the tear is gone from disk: a second recovery sees a clean log
            let rescan = Wal::scan(&wal_path).unwrap();
            assert!(!rescan.torn_tail, "{context}: tear truncated on open");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn interior_corruption_is_refused_with_the_typed_error() {
    let ops = command_stream(0x1B7E, 12);
    let dir = scratch_dir("interior");
    {
        let s = Service::open(durable_config(&dir, 1, 0)).unwrap();
        for op in &ops {
            s.execute(op).unwrap();
        }
    }
    // flip one byte inside the *first* record's body — valid records
    // follow, so this is damage, not crash debris
    let wal_path = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    bytes[20] ^= 0xFF;
    std::fs::write(&wal_path, &bytes).unwrap();
    match Service::open(durable_config(&dir, 1, 0)) {
        Err(ServiceError::WalCorrupt { offset: 0, .. }) => {}
        Err(other) => panic!("expected WalCorrupt at offset 0, got {other}"),
        Ok(_) => panic!("corrupt interior record must refuse to open"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_checkpoint_alone_recovers_when_the_wal_tail_is_empty() {
    // checkpoint at the final epoch, then lose the whole WAL: recovery
    // must come back from the checkpoint with nothing to replay
    let ops = command_stream(0xCE0, 15);
    let dir = scratch_dir("checkpoint-only");
    {
        let s = Service::open(durable_config(&dir, 1, 0)).unwrap();
        for op in &ops {
            s.execute(op).unwrap();
        }
        s.execute("CHECKPOINT").unwrap();
    }
    std::fs::remove_file(dir.join(WAL_FILE)).unwrap();
    let recovered = Service::open(durable_config(&dir, 1, 0)).unwrap();
    assert_equivalent(&recovered, &oracle(&ops, 1), "checkpoint-only");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_damaged_newest_checkpoint_is_refused_not_skipped() {
    // two checkpoints on disk; the newest is damaged by a flipped byte in
    // one trial and cut short in the other.  Recovery names the damage
    // with the typed error rather than fall back to the older file, whose
    // replay would rest on a log it never checked against the newer one.
    let ops = command_stream(0xDA3A, 16);
    for (trial, damage) in ["flip", "truncate"].into_iter().enumerate() {
        let dir = scratch_dir(&format!("damaged-checkpoint-{trial}"));
        {
            let s = Service::open(durable_config(&dir, 1, 0)).unwrap();
            for (i, op) in ops.iter().enumerate() {
                s.execute(op).unwrap();
                if i == 7 || i == ops.len() - 1 {
                    s.execute("CHECKPOINT").unwrap();
                }
            }
        }
        let mut checkpoints: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                p.file_name()
                    .unwrap()
                    .to_string_lossy()
                    .starts_with("checkpoint-")
            })
            .collect();
        checkpoints.sort();
        assert_eq!(
            checkpoints.len(),
            2,
            "{damage}: an older and a newest checkpoint"
        );
        let newest = checkpoints.pop().unwrap();
        let mut bytes = std::fs::read(&newest).unwrap();
        let mut rng = StdRng::seed_from_u64(0xB17 + trial as u64);
        match damage {
            "flip" => {
                let at = rng.random_range(0..bytes.len());
                bytes[at] ^= 1 << rng.random_range(0..8u32);
            }
            _ => bytes.truncate(rng.random_range(0..bytes.len())),
        }
        std::fs::write(&newest, &bytes).unwrap();
        match Service::open(durable_config(&dir, 1, 0)) {
            Err(e @ ServiceError::CheckpointCorrupt { .. }) => {
                assert_eq!(e.code(), "checkpoint-corrupt");
                let newest_name = newest.file_name().unwrap().to_string_lossy();
                assert!(e.to_string().contains(&*newest_name), "{damage}: {e}");
            }
            Err(other) => panic!("{damage}: expected checkpoint-corrupt, got {other}"),
            Ok(_) => panic!("{damage}: a damaged checkpoint must refuse to open"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The `eval:` row of a `STATS` reply, as the wire renders it.
fn eval_row(service: &Service) -> String {
    let mut out = Vec::new();
    let stats = service.execute("STATS").unwrap();
    kbt::service::net::proto::write_response(&mut out, &stats, None).unwrap();
    let text = String::from_utf8(out).unwrap();
    text.lines()
        .find(|line| line.starts_with("= eval:"))
        .expect("STATS has an eval row")
        .to_string()
}

#[test]
fn grouped_commits_recover_the_same_eval_counters() {
    // Four worlds that share e, then non-Horn cover probes over them: each
    // APPLY is one µ evaluation, whether it runs live, is replayed from the
    // WAL tail, or was folded into the checkpoint before it.
    let mut ops = vec![
        "ASSERT e(1, 2), e(2, 3), e(3, 1), e(3, 4)".to_string(),
        "DEFINE split := tau[(marked(1) | marked(2)) & (marked(3) | marked(4))]".to_string(),
        "APPLY split".to_string(),
        "DEFINE probe := tau[forall x y. e(x, y) -> (c(x) | c(y))]; project[e, marked]".to_string(),
    ];
    ops.extend(std::iter::repeat_n("APPLY probe".to_string(), 3));
    let dir = scratch_dir("grouped-eval");
    let (live_row, live_eval) = {
        let s = Service::open(durable_config(&dir, 1, 0)).unwrap();
        for op in &ops {
            s.execute(op).unwrap();
        }
        s.execute("CHECKPOINT").unwrap();
        for _ in 0..2 {
            s.execute("APPLY probe").unwrap();
        }
        (eval_row(&s), s.snapshot().stats().eval)
    };
    // the split is one update, each of the five probes one more
    assert_eq!(live_eval.updates, 6, "{live_row}");
    assert!(live_row.starts_with("= eval: 6 update(s),"), "{live_row}");

    let recovered = Service::open(durable_config(&dir, 1, 0)).unwrap();
    assert_eq!(recovered.snapshot().kb().len(), 4);
    assert_eq!(recovered.snapshot().stats().eval, live_eval);
    assert_eq!(eval_row(&recovered), live_row);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `prefix`, a `CHECKPOINT` and `tail` on a durable service over
/// `config`, then drops it without any shutdown step (a crash).
fn checkpoint_then_crash(config: ServiceConfig, prefix: &[String], tail: &[String]) {
    let s = Service::open(config).unwrap();
    for op in prefix {
        s.execute(op).unwrap();
    }
    s.execute("CHECKPOINT").unwrap();
    for op in tail {
        s.execute(op).unwrap();
    }
}

/// `reused_facts` of an `APPLY` response.
fn reused(response: Response) -> usize {
    match response {
        Response::Applied { reused_facts, .. } => reused_facts,
        other => panic!("expected Applied, got {other:?}"),
    }
}

fn seeded_chains(service: &Service) -> u64 {
    service.metrics().recovery_chains_seeded_total.get()
}

fn ops(lines: &[&str]) -> Vec<String> {
    lines.iter().map(|line| line.to_string()).collect()
}

#[test]
fn a_restart_resumes_the_chain_its_checkpoint_applied() {
    for threads in [1usize, 4] {
        for trial in 0..3u64 {
            let seed = 0x5EED + trial * 13 + threads as u64;
            let mut prefix = command_stream(seed, 24);
            prefix.push("APPLY refresh".to_string());
            // a tail that grows the closure, then retracts through DRed:
            // edge(2, 3) may be the only support of some reach facts, or
            // one of several
            let tail = ops(&[
                "ASSERT edge(2, 3), edge(3, 9)",
                "APPLY refresh",
                "RETRACT edge(2, 3)",
                "APPLY refresh",
            ]);
            let dir = scratch_dir(&format!("seeded-{threads}-{trial}"));
            let context = format!("threads={threads} trial={trial}");
            checkpoint_then_crash(durable_config(&dir, threads, 0), &prefix, &tail);

            let recovered = Service::open(durable_config(&dir, threads, 0)).unwrap();
            assert_eq!(seeded_chains(&recovered), 1, "{context}");
            assert_eq!(
                recovered.metrics().recovery_replayed_total.get(),
                tail.len() as u64,
                "{context}"
            );
            let everything: Vec<String> = prefix.iter().chain(&tail).cloned().collect();
            let oracle = oracle(&everything, threads);
            assert_equivalent(&recovered, &oracle, &context);
            let (r, o) = (recovered.snapshot(), oracle.snapshot());
            assert!(
                o.stats().eval.reused_facts > 0,
                "{context}: the oracle chains"
            );
            assert_eq!(
                r.stats().eval.reused_facts,
                o.stats().eval.reused_facts,
                "{context}: reused_facts"
            );
            assert_eq!(
                r.stats().eval.rederived_facts,
                o.stats().eval.rederived_facts,
                "{context}: rederived_facts"
            );
            // and the next APPLY advances the same chain on both sides
            for service in [&recovered, &oracle] {
                service.execute("ASSERT edge(9, 4)").unwrap();
            }
            let got = reused(recovered.execute("APPLY refresh").unwrap());
            assert_eq!(
                got,
                reused(oracle.execute("APPLY refresh").unwrap()),
                "{context}"
            );
            assert!(got > 0, "{context}");
            assert_equivalent(&recovered, &oracle, &context);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn a_restart_resumes_nothing_it_cannot_stand_for() {
    // each case checkpoints right after its last command and crashes with
    // an empty tail: the restart recovers the oracle's state, resumes no
    // chain, and its next APPLY evaluates in full
    let edges = "ASSERT edge(0, 1), edge(1, 2), edge(2, 3), edge(1, 3)";
    let tau = "tau[(forall x0 x1. edge(x0, x1) -> reach(x0, x1)) & \
               (forall x0 x1 x2. reach(x0, x1) & edge(x1, x2) -> reach(x0, x2))]";
    let chained = format!("DEFINE refresh := project[edge]; {tau}");
    let grounding = EvalOptions::with_strategy(Strategy::Grounding);
    let cases: Vec<(&str, Vec<String>, EvalOptions, bool)> = vec![
        (
            "the last step is not tau",
            vec![
                edges.to_string(),
                format!("DEFINE refresh := project[edge]; {tau}; project[edge, reach]"),
                "APPLY refresh".to_string(),
            ],
            EvalOptions::default(),
            false,
        ),
        (
            "the projection keeps a head",
            vec![
                edges.to_string(),
                format!("DEFINE refresh := project[edge, reach]; {tau}"),
                "APPLY refresh".to_string(),
            ],
            EvalOptions::default(),
            false,
        ),
        (
            "two worlds",
            vec![
                edges.to_string(),
                "DEFINE split := tau[marked(1) | marked(2)]".to_string(),
                "APPLY split".to_string(),
                format!("DEFINE refresh := project[edge, marked]; {tau}"),
                "APPLY refresh".to_string(),
            ],
            EvalOptions::default(),
            false,
        ),
        (
            "the grounding strategy",
            vec![
                edges.to_string(),
                chained.clone(),
                "APPLY refresh".to_string(),
            ],
            grounding,
            false,
        ),
        (
            "a checkpoint at an ASSERT epoch",
            vec![
                edges.to_string(),
                chained.clone(),
                "APPLY refresh".to_string(),
                "ASSERT edge(3, 4)".to_string(),
            ],
            EvalOptions::default(),
            false,
        ),
        (
            "a deleted WAL",
            vec![
                edges.to_string(),
                chained.clone(),
                "APPLY refresh".to_string(),
            ],
            EvalOptions::default(),
            true,
        ),
    ];
    for (trial, (case, prefix, options, delete_wal)) in cases.into_iter().enumerate() {
        let dir = scratch_dir(&format!("refused-{trial}"));
        let config = |dir: &Path| {
            ServiceConfig::builder()
                .threads(1)
                .options(options)
                .durable(dir)
                .fsync_policy(FsyncPolicy::Never)
                .checkpoint_every_n_commits(0)
                .build()
        };
        checkpoint_then_crash(config(&dir), &prefix, &[]);
        if delete_wal {
            std::fs::remove_file(dir.join(WAL_FILE)).unwrap();
        }
        let recovered = Service::open(config(&dir)).unwrap();
        assert_eq!(seeded_chains(&recovered), 0, "{case}");
        let oracle = {
            let service =
                Service::new(ServiceConfig::builder().threads(1).options(options).build());
            for op in &prefix {
                service.execute(op).unwrap();
            }
            service
        };
        assert_equivalent(&recovered, &oracle, case);
        recovered.execute("ASSERT edge(3, 5)").unwrap();
        oracle.execute("ASSERT edge(3, 5)").unwrap();
        let response = recovered.execute("APPLY refresh").unwrap();
        assert_eq!(reused(response), 0, "{case}: evaluated in full");
        oracle.execute("APPLY refresh").unwrap();
        assert_equivalent(&recovered, &oracle, case);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_retraction_right_after_a_resumed_restart_retracts_the_derived_facts() {
    // the resumed session's reach facts are derived, not stored: DRed must
    // take out everything edge(1, 2) supported, as the oracle's does
    let prefix = ops(&[
        "ASSERT edge(0, 1), edge(1, 2), edge(2, 3), edge(3, 4)",
        DEFINE,
        "APPLY refresh",
    ]);
    let dir = scratch_dir("dred-trap");
    checkpoint_then_crash(durable_config(&dir, 1, 0), &prefix, &[]);
    let recovered = Service::open(durable_config(&dir, 1, 0)).unwrap();
    assert_eq!(seeded_chains(&recovered), 1);
    let oracle = oracle(&prefix, 1);
    for service in [&recovered, &oracle] {
        service.execute("RETRACT edge(1, 2)").unwrap();
    }
    let got = reused(recovered.execute("APPLY refresh").unwrap());
    assert_eq!(got, reused(oracle.execute("APPLY refresh").unwrap()));
    assert_equivalent(&recovered, &oracle, "dred-trap");
    let snap = recovered.snapshot();
    let (reach, _) = snap.vocab().lookup_relation("reach").unwrap();
    // 0→1 and the three pairs of 2→3→4 are all that is left
    assert_eq!(recovered.certain(&snap, reach).len(), 4);
    let _ = std::fs::remove_dir_all(&dir);
}
