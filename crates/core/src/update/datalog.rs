//! The Datalog fast path — Theorem 4.8.
//!
//! When the inserted sentence is a conjunction of function-free Horn clauses
//! whose head relations are *fresh* (not part of the input database's
//! schema), the Winslett-minimal update is unique: the input relations stay
//! untouched (an empty symmetric difference is feasible, so stage one of the
//! order forces it) and the fresh relations take the least values satisfying
//! the clauses — i.e. the least fixpoint of the corresponding Datalog
//! program, computable in polynomial time by semi-naive evaluation.
//!
//! [`ChainSession`] adds the incremental variant used for `τ_φ` *chains*: a
//! `Seq` applying the same Horn sentence to a series of closely related
//! singleton knowledgebases keeps one engine session alive and feeds it the
//! diff between consecutive databases instead of re-deriving every fixpoint
//! from scratch.

use std::collections::BTreeSet;

use kbt_data::{Const, Database, RelId, Relation, Schema, Tuple};
use kbt_datalog::{
    demand_rewrite, program_from_sentence, semi_naive_eval_viewed, EvalStats, IncrementalEval, View,
};
use kbt_logic::{horn_clauses, Sentence};

use crate::error::CoreError;
use crate::options::EvalOptions;
use crate::update::{operator_row, UpdateOutcome};
use crate::Result;

/// Whether the Datalog fast path applies to `φ` and `db`: the sentence is a
/// conjunction of range-restricted Horn clauses, and every head relation is
/// absent from `σ(db)`.
pub fn applicable(phi: &Sentence, db: &Database) -> bool {
    let Some(clauses) = horn_clauses(phi) else {
        return false;
    };
    if clauses
        .iter()
        .any(|c| db.relation(c.head_relation()).is_some())
    {
        return false;
    }
    // range-restriction (safety) is re-checked by Program construction
    kbt_datalog::program_from_horn(&clauses).is_ok()
}

/// Computes `µ(φ, db)` for a Horn sentence defining fresh relations,
/// optionally observed through `view` (see [`kbt_engine::profile`]): a
/// profiling view leaves the outcome byte-identical and records the
/// per-rule breakdown; a plan-only view records the join plans and
/// evaluates nothing (the outcome's database is then `db` over the result
/// schema, the fresh relations empty).
pub fn datalog_update(
    phi: &Sentence,
    db: &Database,
    options: &EvalOptions,
    view: Option<&mut View<'_>>,
) -> Result<UpdateOutcome> {
    if !applicable(phi, db) {
        return Err(CoreError::StrategyNotApplicable {
            strategy: "Datalog",
            reason:
                "the sentence is not a conjunction of safe Horn clauses over fresh head relations"
                    .to_string(),
        });
    }
    // No candidate universe is materialised here: the result schema is just
    // σ(db) ∪ σ(φ) and the fixpoint engine works directly on the database,
    // which is what makes this path polynomial (Theorem 4.8).
    let program = program_from_sentence(phi)?;
    let schema = db.schema().union(&phi.schema())?;
    let lifted = db.extend_schema(&schema)?;
    let (fixpoint, stats) = semi_naive_eval_viewed(&program, &lifted, options.threads, view, None)?;
    Ok(UpdateOutcome {
        databases: vec![fixpoint],
        candidate_atoms: 0,
        fixpoint: Some(stats),
    })
}

/// `µ(φ, db)` projected onto `keep`, for a sentence [`applicable`] to `db`,
/// deriving only what the projection keeps: φ's program goes through
/// [`demand_rewrite`] with its heads in `keep` as all-free goals, and the
/// engine materialises only the kept relations.  The outcome's database is
/// byte-identical to [`datalog_update`]'s projected onto `keep`; its
/// statistics count the rewritten fixpoint.  Under a view, the invented
/// predicates render as `reach_fb` / `m_reach_fb`, and every seed fact gets
/// a row of its own.
pub fn pushdown_update(
    phi: &Sentence,
    db: &Database,
    keep: &[RelId],
    options: &EvalOptions,
    view: Option<&mut View<'_>>,
) -> Result<UpdateOutcome> {
    let program = program_from_sentence(phi)?;
    let schema = db.schema().union(&phi.schema())?;
    // invented predicates must collide with no relation of the input, of φ,
    // or of the projection
    let first_free = (schema.relations().chain(keep.iter().copied()))
        .map(|rel| rel.index() + 1)
        .max()
        .unwrap_or(0);
    let plan = demand_rewrite(&program, keep, first_free)?;
    let mut edb = db.extend_schema(&schema)?;
    for (rel, consts) in &plan.seeds {
        edb.insert_fact(*rel, Tuple::new(consts.clone()))?;
    }
    let threads = options.threads;
    let (fixpoint, stats) = match view {
        None => semi_naive_eval_viewed(&plan.program, &edb, threads, None, Some(keep))?,
        Some(view) => {
            let base = view.namer;
            let namer = |rel| plan.render_relation(rel, base);
            let mut renamed = view.renamed(&namer);
            for (rel, consts) in &plan.seeds {
                let args: Vec<String> = consts.iter().map(Const::to_string).collect();
                let seed = format!("seed {}({})", namer(*rel), args.join(", "));
                renamed.rows.push(operator_row(seed, "magic"));
            }
            let out = semi_naive_eval_viewed(
                &plan.program,
                &edb,
                threads,
                Some(&mut renamed),
                Some(keep),
            )?;
            view.rows.append(&mut renamed.rows);
            out
        }
    };
    Ok(UpdateOutcome {
        databases: vec![fixpoint],
        candidate_atoms: 0,
        fixpoint: Some(stats),
    })
}

/// A persistent incremental evaluation of one Horn sentence across a chain
/// of closely related databases.
///
/// The transformer keeps at most one of these per `Seq` walk: the first
/// applicable `τ_φ` step builds it (paying one full fixpoint), and every
/// later `τ_φ` step with the *same* sentence advances it by diffing the new
/// input database against the one the session last saw.  The produced
/// outcome is byte-identical to [`datalog_update`]; if the engine rejects a
/// delta (e.g. a relation reappeared with a different arity), the session
/// transparently rebuilds itself from scratch.
#[derive(Clone, Debug)]
pub struct ChainSession {
    phi: Sentence,
    /// The schema of `φ`, cached (the per-step result assembly needs it).
    phi_schema: Schema,
    /// The input database the session is currently synced to.
    base: Database,
    /// Engine evaluation width, kept so transparent rebuilds preserve it.
    threads: usize,
    eval: IncrementalEval,
}

impl ChainSession {
    /// Builds a session for `φ` over `db` (the caller must have checked
    /// [`applicable`]) at the given engine evaluation width (`0` = process
    /// default), and returns the first update outcome.
    pub fn start(phi: &Sentence, db: &Database, threads: usize) -> Result<(Self, UpdateOutcome)> {
        let program = program_from_sentence(phi)?;
        let phi_schema = phi.schema();
        let schema = db.schema().union(&phi_schema)?;
        let lifted = db.extend_schema(&schema)?;
        let eval = IncrementalEval::with_threads(&program, &lifted, threads)?;
        let stats = eval.total_stats();
        let mut session = ChainSession {
            phi: phi.clone(),
            phi_schema,
            base: db.clone(),
            threads,
            eval,
        };
        let outcome = session.outcome(db, stats);
        Ok((session, outcome))
    }

    /// Whether the session evaluates this sentence.
    pub fn matches(&self, phi: &Sentence) -> bool {
        self.phi == *phi
    }

    /// Advances the session to `db` (the caller must have checked
    /// [`applicable`] for `db`): the diff against the previously seen
    /// database is fed to the engine as a delta, and the maintained fixpoint
    /// is returned restricted to the schema `σ(db) ∪ σ(φ)` — exactly what
    /// [`datalog_update`] would produce from scratch.
    pub fn advance(&mut self, db: &Database) -> Result<UpdateOutcome> {
        // The from-scratch path fails here on a σ(db)/σ(φ) arity conflict;
        // the incremental path must fail identically (a tuple-level diff
        // alone would miss conflicts on *empty* relations).
        db.schema().union(&self.phi_schema)?;
        let metrics = crate::metrics();
        let (insertions, deletions) = {
            let _diff = metrics.chain_diff_ns.span();
            diff(db, &self.base)
        };
        let stats = match self.eval.apply_delta(&insertions, &deletions) {
            Ok(stats) => stats,
            Err(_) => {
                // e.g. a relation came back with a different arity: fall
                // back to rebuilding the whole session on the new input.
                let (rebuilt, outcome) = ChainSession::start(&self.phi, db, self.threads)?;
                *self = rebuilt;
                return Ok(outcome);
            }
        };
        self.base = db.clone();
        Ok(self.outcome(db, stats))
    }

    /// The outcome of a step over `db`, assembled the way the from-scratch
    /// path would have: the input database's relations verbatim (the
    /// engine mirrors them, but `db` already holds them materialised), plus
    /// the relations of σ(φ) absent from σ(db) — the fresh head relations
    /// at their maintained fixpoint and φ's body-only relations (empty).
    /// This copies only the intensional output instead of the whole engine
    /// storage, and implicitly drops relations earlier chain inputs left
    /// behind in the engine.  The engine hands the intensional relations
    /// out as copy-on-write snapshots and remembers them, so a step pays
    /// for the tuples its delta changed, not for re-collecting the whole
    /// (large) fixpoint relation — the first step included, whose snapshot
    /// the next one merges into.
    fn outcome(&mut self, db: &Database, stats: EvalStats) -> UpdateOutcome {
        let _assemble = crate::metrics().chain_assemble_ns.span();
        let mut result = db.clone();
        for (rel, arity) in self.phi_schema.iter() {
            if result.relation(rel).is_none() {
                let relation = self
                    .eval
                    .relation(rel)
                    .unwrap_or_else(|| Relation::empty(arity));
                result.set_relation(rel, relation);
            }
        }
        UpdateOutcome {
            databases: vec![result],
            candidate_atoms: 0,
            fixpoint: Some(stats),
        }
    }
}

/// A list of facts, as the engine's delta entry points accept them.
type FactList = Vec<(RelId, Tuple)>;

/// The componentwise diff `new − old` / `old − new` over both schemas,
/// grouped as insertion and deletion fact lists for the engine, each
/// relation's rows in order.
fn diff(new: &Database, old: &Database) -> (FactList, FactList) {
    let rels: BTreeSet<RelId> = new
        .schema()
        .relations()
        .chain(old.schema().relations())
        .collect();
    let mut insertions = Vec::new();
    let mut deletions = Vec::new();
    for rel in rels {
        let (added, removed) = match (new.relation(rel), old.relation(rel)) {
            // Copy-on-write fast path: a chain step leaves most relations
            // on the very Arc the previous step produced, so the common
            // case is a pointer check instead of a scan.
            (Some(n), Some(o)) if n.shares_rows(o) => continue,
            (Some(n), Some(o)) => match (n.difference(o), o.difference(n)) {
                (Ok(added), Ok(removed)) => (Some(added), Some(removed)),
                // an arity conflict: every new row in, every old row out
                _ => (Some(n.clone()), Some(o.clone())),
            },
            // a one-sided relation
            (n, o) => (n.cloned(), o.cloned()),
        };
        insertions.extend(added.iter().flat_map(Relation::tuples).map(|t| (rel, t)));
        deletions.extend(removed.iter().flat_map(Relation::tuples).map(|t| (rel, t)));
    }
    (insertions, deletions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::exhaustive::exhaustive_update;
    use crate::update::grounding::grounding_update;
    use kbt_data::{DatabaseBuilder, RelId};
    use kbt_logic::builder::*;

    fn r(i: u32) -> RelId {
        RelId::new(i)
    }

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

    #[test]
    fn applicability_requires_fresh_heads() {
        let db = DatabaseBuilder::new()
            .fact(r(1), [1u32, 2])
            .build()
            .unwrap();
        assert!(applicable(&tc_sentence(), &db));

        // if R2 is already stored, the least-fixpoint shortcut is unsound
        let db_with_r2 = DatabaseBuilder::new()
            .fact(r(1), [1u32, 2])
            .relation(r(2), 2)
            .build()
            .unwrap();
        assert!(!applicable(&tc_sentence(), &db_with_r2));

        // non-Horn sentences never qualify
        let non_horn = Sentence::new(forall(
            [1, 2],
            iff(atom(1, [var(1), var(2)]), atom(2, [var(1), var(2)])),
        ))
        .unwrap();
        assert!(!applicable(&non_horn, &db));
    }

    #[test]
    fn computes_the_transitive_closure_least_fixpoint() {
        let db = DatabaseBuilder::new()
            .fact(r(1), [1u32, 2])
            .fact(r(1), [2u32, 3])
            .fact(r(1), [3u32, 4])
            .fact(r(1), [4u32, 5])
            .build()
            .unwrap();
        let out = datalog_update(&tc_sentence(), &db, &EvalOptions::default(), None).unwrap();
        assert_eq!(out.databases.len(), 1);
        let result = &out.databases[0];
        assert_eq!(result.relation(r(1)).unwrap().len(), 4);
        assert_eq!(result.relation(r(2)).unwrap().len(), 10);
        assert!(result.holds(r(2), &kbt_data::tuple![1, 5]));
    }

    #[test]
    fn agrees_with_grounding_and_exhaustive_on_small_inputs() {
        let db = DatabaseBuilder::new()
            .fact(r(1), [1u32, 2])
            .fact(r(1), [2u32, 1])
            .build()
            .unwrap();
        let phi = Sentence::new(forall(
            [1, 2],
            implies(atom(1, [var(1), var(2)]), atom(2, [var(1)])),
        ))
        .unwrap();
        let opts = EvalOptions::default();
        let mut a = datalog_update(&phi, &db, &opts, None).unwrap().databases;
        let mut b = grounding_update(&phi, &db, &opts).unwrap().databases;
        let mut c = exhaustive_update(&phi, &db, &opts).unwrap().databases;
        a.sort();
        b.sort();
        c.sort();
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn chain_session_tracks_datalog_update_across_diffs() {
        let phi = tc_sentence();
        let mut db = DatabaseBuilder::new()
            .fact(r(1), [1u32, 2])
            .fact(r(1), [2u32, 3])
            .build()
            .unwrap();
        let opts = EvalOptions::default();
        let (mut session, first) = ChainSession::start(&phi, &db, 0).unwrap();
        assert_eq!(first, datalog_update(&phi, &db, &opts, None).unwrap());
        assert!(session.matches(&phi));

        // grow the chain, shrink it, and then change an unrelated relation
        let edits: Vec<(bool, (u32, u32))> = vec![
            (true, (3, 4)),
            (true, (4, 5)),
            (false, (2, 3)),
            (true, (2, 3)),
        ];
        for (insert, (x, y)) in edits {
            if insert {
                db.insert_fact(r(1), kbt_data::tuple![x, y]).unwrap();
            } else {
                db.remove_fact(r(1), &kbt_data::tuple![x, y]);
            }
            let got = session.advance(&db).unwrap();
            let want = datalog_update(&phi, &db, &opts, None).unwrap();
            assert_eq!(got.databases, want.databases);
        }
    }

    #[test]
    fn chain_session_restricts_to_the_current_schema() {
        // the second input drops relation R3 entirely; the session result
        // must not leak it back in.
        let phi = tc_sentence();
        let db1 = DatabaseBuilder::new()
            .fact(r(1), [1u32, 2])
            .fact(r(3), [7u32])
            .build()
            .unwrap();
        let db2 = DatabaseBuilder::new()
            .fact(r(1), [1u32, 2])
            .fact(r(1), [2u32, 3])
            .build()
            .unwrap();
        let (mut session, _) = ChainSession::start(&phi, &db1, 0).unwrap();
        let got = session.advance(&db2).unwrap();
        let want = datalog_update(&phi, &db2, &EvalOptions::default(), None).unwrap();
        assert_eq!(got.databases, want.databases);
        assert!(got.databases[0].relation(r(3)).is_none());
    }

    #[test]
    fn chain_session_rebuilds_on_arity_conflicts() {
        // R3 disappears and returns with a different arity: the in-place
        // delta is impossible, so the session must rebuild transparently.
        let phi = tc_sentence();
        let db1 = DatabaseBuilder::new()
            .fact(r(1), [1u32, 2])
            .fact(r(3), [7u32])
            .build()
            .unwrap();
        let db2 = DatabaseBuilder::new()
            .fact(r(1), [1u32, 2])
            .fact(r(3), [7u32, 8])
            .build()
            .unwrap();
        let (mut session, _) = ChainSession::start(&phi, &db1, 0).unwrap();
        let got = session.advance(&db2).unwrap();
        let want = datalog_update(&phi, &db2, &EvalOptions::default(), None).unwrap();
        assert_eq!(got.databases, want.databases);
        // and the rebuilt session keeps advancing correctly
        let mut db3 = db2.clone();
        db3.insert_fact(r(1), kbt_data::tuple![2, 3]).unwrap();
        let got = session.advance(&db3).unwrap();
        let want = datalog_update(&phi, &db3, &EvalOptions::default(), None).unwrap();
        assert_eq!(got.databases, want.databases);
    }

    #[test]
    fn chain_session_rejects_schema_conflicts_with_phi() {
        // R1 returns empty with arity 3: the tuple-level diff is deletions
        // only, but σ(db) ∪ σ(φ) is contradictory — advance must fail just
        // like the from-scratch path does.
        let phi = tc_sentence();
        let db1 = DatabaseBuilder::new()
            .fact(r(1), [1u32, 2])
            .build()
            .unwrap();
        let db2 = DatabaseBuilder::new().relation(r(1), 3).build().unwrap();
        let (mut session, _) = ChainSession::start(&phi, &db1, 0).unwrap();
        assert!(session.advance(&db2).is_err());
        assert!(datalog_update(&phi, &db2, &EvalOptions::default(), None).is_err());
    }

    #[test]
    fn rejects_when_not_applicable() {
        let db = DatabaseBuilder::new()
            .fact(r(1), [1u32, 2])
            .relation(r(2), 2)
            .build()
            .unwrap();
        assert!(matches!(
            datalog_update(&tc_sentence(), &db, &EvalOptions::default(), None),
            Err(CoreError::StrategyNotApplicable { .. })
        ));
    }
}
