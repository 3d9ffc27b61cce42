//! Profiling must be invisible to evaluation: a service driven through an
//! identical workload answers byte-identically whether its hypothetical
//! reads go through `QUERY` or `PROFILE`, at evaluation widths 1 and 4 —
//! published epochs, knowledgebases and `ServiceStats` included.  At the
//! core layer, [`Transformer::apply_viewed`] under a profiling view must
//! reproduce [`Transformer::apply`] exactly.  `QUERY`, `EXPLAIN` and
//! `PROFILE` are three views of one evaluation path, so over a goal corpus
//! they must name the same strategy and count the same facts.  The golden
//! `EXPLAIN` rendering of the Section 3 transitive-closure example is
//! pinned here too.

use kbt::core::{EvalOptions, Transform, Transformer, View};
use kbt::data::{DatabaseBuilder, Knowledgebase, RelId};
use kbt::logic::builder::{and, atom, forall, implies, var};
use kbt::logic::Sentence;
use kbt::service::net::proto::encode_response;
use kbt::service::{Response, Service, ServiceConfig};

/// The Section 3 Example 1 closure, as the service's transform syntax.
const TC: &str = "tau[(forall x0 x1. edge(x0, x1) -> path(x0, x1)) & \
                  (forall x0 x1 x2. path(x0, x1) & edge(x1, x2) -> path(x0, x2))]";

/// The hypothetical read both runs issue after every write: the refresh
/// idiom (`project[edge]` drops the stale closure first, keeping the
/// insertion on the datalog fast path).
const READ: &str = "project[edge]; \
                    tau[(forall x0 x1. edge(x0, x1) -> path(x0, x1)) & \
                    (forall x0 x1 x2. path(x0, x1) & edge(x1, x2) -> path(x0, x2))]; lub";

/// The same closure as a core-layer sentence (edge = R1, path = R2).
fn tc_sentence() -> Sentence {
    Sentence::new(and(
        forall(
            [1, 2],
            implies(atom(1, [var(1), var(2)]), atom(2, [var(1), var(2)])),
        ),
        forall(
            [1, 2, 3],
            implies(
                and(atom(2, [var(1), var(2)]), atom(1, [var(2), var(3)])),
                atom(2, [var(1), var(3)]),
            ),
        ),
    ))
    .unwrap()
}

fn namer(rel: RelId) -> String {
    match rel.index() {
        1 => "edge".to_string(),
        2 => "path".to_string(),
        i => format!("R{i}"),
    }
}

/// Blanks the only nondeterministic field of a `PROFILE` data row so rows
/// can be compared across runs and widths.
fn strip_elapsed(row: &str) -> String {
    let Some(start) = row.find(" elapsed_ns=") else {
        return row.to_string();
    };
    let tail = &row[start + " elapsed_ns=".len()..];
    let end = tail
        .find(' ')
        .map_or(row.len(), |i| start + " elapsed_ns=".len() + i);
    format!("{} elapsed_ns=_{}", &row[..start], &row[end..])
}

/// The deterministic write stream both services replay identically.
fn write_ops() -> Vec<String> {
    let mut ops = Vec::new();
    ops.push("ASSERT edge(1, 2), edge(2, 3), edge(3, 1), edge(3, 4)".to_string());
    ops.push(format!("DEFINE tc := project[edge]; {TC}"));
    ops.push("APPLY tc".to_string());
    for i in 0..6u32 {
        ops.push(format!("ASSERT edge({}, {})", 4 + i, 5 + i));
        if i % 2 == 1 {
            ops.push("APPLY tc".to_string());
        }
        if i == 3 {
            ops.push("RETRACT edge(3, 4)".to_string());
            ops.push("APPLY tc".to_string());
        }
    }
    ops
}

/// One full run at the given width: replays the write stream, issuing the
/// hypothetical closure read through `QUERY` or `PROFILE` after every
/// write.  Returns everything an observer could compare: the (epoch,
/// world-count) pair of every read, the profile rows (elapsed blanked;
/// empty for the `QUERY` run), and the terminal service state.
#[allow(clippy::type_complexity)]
fn run(
    threads: usize,
    profile: bool,
) -> (
    Vec<(u64, usize)>,
    Vec<Vec<String>>,
    u64,
    Knowledgebase,
    kbt::service::ServiceStats,
    (Vec<String>, String),
    (Vec<String>, String),
) {
    let service = Service::new(ServiceConfig::builder().threads(threads).build());
    let read = if profile {
        format!("PROFILE {READ}")
    } else {
        format!("QUERY {READ}")
    };
    let mut reads = Vec::new();
    let mut rows = Vec::new();
    for op in write_ops() {
        service.execute(&op).unwrap();
        match service.execute(&read).unwrap() {
            Response::Worlds { epoch, worlds } => reads.push((epoch.get(), worlds.len())),
            Response::Profile {
                epoch,
                worlds,
                rows: r,
            } => {
                reads.push((epoch.get(), worlds));
                rows.push(r.iter().map(|row| strip_elapsed(row)).collect());
            }
            other => panic!("unexpected read response: {other:?}"),
        }
    }
    let snap = service.snapshot();
    let certain = encode_response(&service.execute("QUERY CERTAIN path").unwrap(), None);
    let stats = encode_response(&service.execute("STATS").unwrap(), None);
    (
        reads,
        rows,
        snap.epoch().get(),
        snap.kb().clone(),
        *snap.stats(),
        certain,
        stats,
    )
}

#[test]
fn service_profiling_on_and_off_are_observationally_identical() {
    let q1 = run(1, false);
    let p1 = run(1, true);
    let q4 = run(4, false);
    let p4 = run(4, true);

    // PROFILE never commits and speaks for the same epoch / world count as
    // the equivalent QUERY, at both widths.
    assert_eq!(q1.0, p1.0, "width 1 reads diverge when profiling");
    assert_eq!(q4.0, p4.0, "width 4 reads diverge when profiling");

    // Published epochs, knowledgebases and writer statistics are
    // byte-identical across the QUERY/PROFILE toggle …
    for (q, p, width) in [(&q1, &p1, 1), (&q4, &p4, 4)] {
        assert_eq!(q.2, p.2, "width {width}: epochs diverge");
        assert!(q.3 == p.3, "width {width}: knowledgebases diverge");
        assert_eq!(q.4, p.4, "width {width}: ServiceStats diverge");
        assert_eq!(q.5, p.5, "width {width}: certain answers diverge");
        assert_eq!(q.6, p.6, "width {width}: STATS reports diverge");
    }

    // … and across widths within each mode.
    assert!(q1.3 == q4.3 && p1.3 == p4.3);
    assert_eq!(q1.4, q4.4, "stats diverge across widths (QUERY)");
    assert_eq!(p1.4, p4.4, "stats diverge across widths (PROFILE)");

    // The profile rows themselves (elapsed blanked) are deterministic
    // across widths: per-rule derived/probe/scan counts don't depend on
    // the evaluation width.
    assert_eq!(p1.1, p4.1, "profile rows diverge across widths");
    let last = p1.1.last().unwrap();
    assert!(!last.is_empty());
    for row in last {
        assert!(row.contains(" elapsed_ns=_ :: "), "unstripped row: {row}");
    }
}

#[test]
fn core_apply_profiled_is_invisible_at_widths_1_and_4() {
    let kb = Knowledgebase::from_databases([
        DatabaseBuilder::new()
            .fact(RelId::new(1), [1u32, 2])
            .fact(RelId::new(1), [2u32, 3])
            .fact(RelId::new(1), [3u32, 1])
            .build()
            .unwrap(),
        DatabaseBuilder::new()
            .fact(RelId::new(1), [1u32, 2])
            .fact(RelId::new(1), [2u32, 3])
            .build()
            .unwrap(),
    ])
    .unwrap();
    let expr = Transform::insert(tc_sentence());

    let mut seen = Vec::new();
    for threads in [1usize, 4] {
        let t = Transformer::with_options(EvalOptions::with_threads(threads));
        let plain = t.apply(&expr, &kb).unwrap();
        let mut view = View::profile(&namer);
        let prof = t.apply_viewed(&expr, &kb, Some(&mut view)).unwrap();
        assert!(plain.kb == prof.kb, "width {threads}: fixpoints diverge");
        assert_eq!(plain.stats, prof.stats, "width {threads}: stats diverge");
        let stripped: Vec<String> = view
            .rows
            .iter()
            .map(|p| {
                format!(
                    "s{} {} rounds={} derived={} probes={} scanned={} :: {}",
                    p.stratum, p.rule, p.rounds, p.derived, p.probes, p.scanned, p.plan
                )
            })
            .collect();
        assert!(!stripped.is_empty());
        seen.push((plain.kb, plain.stats, stripped));
    }
    let (kb1, stats1, rows1) = &seen[0];
    let (kb4, stats4, rows4) = &seen[1];
    assert!(kb1 == kb4, "fixpoints diverge across widths");
    assert_eq!(stats1, stats4, "stats diverge across widths");
    assert_eq!(rows1, rows4, "profiles diverge across widths");
}

/// The value of `key=` in a rendered row (up to the next space or colon).
fn field<'a>(row: &'a str, key: &str) -> &'a str {
    let tail = &row[row.find(key).unwrap_or_else(|| panic!("no {key} in {row}")) + key.len()..];
    tail.split([' ', ':']).next().unwrap()
}

#[test]
fn query_explain_and_profile_agree_on_strategy_and_count() {
    // (registered rules?, goal): bare, bound Horn, a goal on a relation
    // only a negating — hence non-Horn, rule-less — `tau` defines, no
    // rulebase at all, repeated variable.  (A rewrite that *refuses* needs
    // negation inside the rulebase, which no `tau` registered over the wire
    // can contribute; `read::tests` injects one.)
    let corpus = [
        (true, "CERTAIN edge", None),
        (true, "CERTAIN path(1, x)", Some("magic")),
        (true, "POSSIBLE apart(1, x)", Some("magic")),
        (false, "POSSIBLE edge(1, x)", Some("materialize")),
        (true, "CERTAIN path(x, x)", Some("magic")),
    ];
    for (rules, goal, expected) in corpus {
        let s = Service::new(ServiceConfig::builder().threads(1).build());
        s.execute("ASSERT edge(1, 2), edge(2, 3), edge(3, 1), edge(3, 4), apart(1, 4)")
            .unwrap();
        if rules {
            s.execute(&format!("DEFINE tc := {TC}")).unwrap();
            s.execute(
                "DEFINE far := tau[forall x0 x1. edge(x0, x1) & ~path(x1, x0) -> apart(x0, x1)]",
            )
            .unwrap();
        }
        // EXPLAIN and PROFILE first: neither may warm the answer table
        let Response::Explain { rows: plan, .. } = s.execute(&format!("EXPLAIN {goal}")).unwrap()
        else {
            panic!("{goal}: expected Explain");
        };
        let Response::Profile { rows: profile, .. } =
            s.execute(&format!("PROFILE {goal}")).unwrap()
        else {
            panic!("{goal}: expected Profile");
        };
        let Response::Facts {
            facts, strategy, ..
        } = s.execute(&format!("QUERY {goal}")).unwrap()
        else {
            panic!("{goal}: expected Facts");
        };
        assert!(
            !facts.is_empty(),
            "{goal}: the corpus goals all have answers"
        );
        assert_eq!(strategy, expected, "{goal}");
        assert_eq!(
            field(&profile[0], "facts="),
            facts.len().to_string(),
            "{goal}"
        );
        let explained = if plan[0].contains(": magic plan, ") {
            Some("magic")
        } else if plan[0].contains("no rulebase, stored facts filtered") {
            Some("materialize")
        } else {
            assert!(
                plan[0].ends_with("across worlds (no rule plan)"),
                "{plan:?}"
            );
            None
        };
        assert_eq!(strategy, explained, "{goal}: QUERY vs EXPLAIN {plan:?}");
        let profiled = profile[0]
            .contains(" strategy=")
            .then(|| field(&profile[0], "strategy="));
        assert_eq!(strategy, profiled, "{goal}: QUERY vs PROFILE {profile:?}");
    }
}

#[test]
fn explain_renders_the_section3_closure_golden() {
    let s = Service::new(ServiceConfig::builder().threads(1).build());
    s.execute("ASSERT edge(1, 2), edge(2, 3), edge(3, 1), edge(3, 4)")
        .unwrap();
    let r = s.execute(&format!("EXPLAIN {TC}; lub")).unwrap();
    let Response::Explain { epoch, rows } = r else {
        panic!("EXPLAIN must yield Response::Explain, got {r:?}");
    };
    assert_eq!(epoch.get(), 1);
    assert_eq!(
        rows,
        [
            "s0 path(x0, x1) :- edge(x0, x1). :: path(s0, s1) <- scan edge(s0, s1)",
            "s0 path(x0, x2) :- path(x0, x1), edge(x1, x2). :: \
             path(s0, s2) <- scan path(s0, s1); probe edge mask=0b01 key=(s1) \
             | dpath: scan path#delta(s0, s1); probe edge mask=0b01 key=(s1)",
            "s0 lub :: strategy: lattice (no rule plan)",
        ]
    );
}
