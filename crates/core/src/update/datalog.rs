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
//!
//! [`StoredFixpoint`] records what such a step leaves behind: in the world
//! it returns, its head relations *are* the least fixpoint of its rules
//! over its input relations.  `stored_update` reads those heads back
//! instead of deriving them again, for a later step whose sentence holds
//! the same rules (see the `transformer` module docs).

use std::collections::BTreeSet;
use std::time::Instant;

use kbt_data::{Const, Database, Knowledgebase, RelId, Relation, Schema, Tuple};
use kbt_datalog::{demand_rewrite, Program};
use kbt_engine::{EngineError, EngineStats, IncrementalSession, View};
use kbt_logic::{horn_clauses, Atom, Rule, Sentence, Term, Var};

use crate::error::CoreError;
use crate::options::EvalOptions;
use crate::update::{operator_row, UpdateOutcome};
use crate::Result;

/// A `τ_φ` step the Datalog fast path evaluates: φ's checked program and
/// the result schema `σ(db) ∪ σ(φ)` for the database [`horn_step`]
/// recognised it on.  Only [`horn_step`] makes one, so [`datalog_update`],
/// [`pushdown_update`] and [`ChainSession`] cannot be handed a sentence
/// the fast path does not apply to, and each step checks its sentence once.
#[derive(Clone, Debug)]
pub struct HornStep {
    program: Program,
    schema: Schema,
}

/// Recognises `τ_φ` on `db` as a Datalog-fast-path step: `None` unless the
/// sentence is a conjunction of range-restricted Horn clauses and every
/// head relation is absent from `σ(db)`.
///
/// A program with a relation wider than the engine's
/// [`MAX_ARITY`](kbt_engine::MAX_ARITY) still takes this path, as the
/// engine's error, so that the step is refused instead of handed to
/// grounding; so does a relation to which `db` and φ give two arities, as
/// the data layer's error.
pub fn horn_step(phi: &Sentence, db: &Database) -> Option<Result<HornStep>> {
    let rules = horn_clauses(phi)?;
    if rules
        .iter()
        .any(|rule| db.relation(rule.head.rel).is_some())
    {
        return None;
    }
    let program = match Program::new(rules) {
        Ok(program) => program,
        Err(e @ EngineError::ArityTooLarge { .. }) => return Some(Err(e.into())),
        Err(_) => return None,
    };
    Some(match db.schema().union(&phi.schema()) {
        Ok(schema) => Ok(HornStep { program, schema }),
        Err(e) => Err(e.into()),
    })
}

/// Whether the Datalog fast path applies to `φ` and `db` ([`horn_step`]).
pub fn applicable(phi: &Sentence, db: &Database) -> bool {
    horn_step(phi, db).is_some()
}

/// Computes `µ(φ, db)` for the step [`horn_step`] recognised on `db`,
/// optionally observed through `view` (see [`kbt_engine::profile`]): a
/// profiling view leaves the outcome byte-identical and records the
/// per-rule breakdown; a plan-only view records the join plans and
/// evaluates nothing (the outcome's database is then `db` over the result
/// schema, the fresh relations empty).
pub fn datalog_update(
    step: &HornStep,
    db: &Database,
    options: &EvalOptions,
    view: Option<&mut View<'_>>,
) -> Result<UpdateOutcome> {
    // No candidate universe is materialised here: the result schema is just
    // σ(db) ∪ σ(φ) and the fixpoint engine works directly on the database,
    // which is what makes this path polynomial (Theorem 4.8).
    let lifted = db.extend_schema(&step.schema)?;
    let (fixpoint, stats) =
        kbt_engine::evaluate(&step.program, &lifted, options.threads, view, None)?;
    Ok(UpdateOutcome {
        databases: vec![fixpoint],
        candidate_atoms: 0,
        fixpoint: Some(stats),
    })
}

/// `µ(φ, db)` projected onto `keep`, for the step [`horn_step`] recognised
/// on `db`, deriving only what the projection keeps: φ's program goes
/// through [`demand_rewrite`] with its heads in `keep` as all-free goals,
/// and the engine materialises only the kept relations.  The outcome's
/// database is byte-identical to [`datalog_update`]'s projected onto
/// `keep`; its statistics count the rewritten fixpoint.  Under a view, the
/// invented predicates render as `reach_fb` / `m_reach_fb`, and every seed
/// fact gets a row of its own.
pub fn pushdown_update(
    step: &HornStep,
    db: &Database,
    keep: &[RelId],
    options: &EvalOptions,
    view: Option<&mut View<'_>>,
) -> Result<UpdateOutcome> {
    // invented predicates must collide with no relation of the input, of φ,
    // or of the projection
    let first_free = (step.schema.relations().chain(keep.iter().copied()))
        .map(|rel| rel.index() + 1)
        .max()
        .unwrap_or(0);
    let plan = demand_rewrite(&step.program, keep, first_free)?;
    let mut edb = db.extend_schema(&step.schema)?;
    for (rel, consts) in &plan.seeds {
        edb.insert_fact(*rel, Tuple::new(consts.clone()))?;
    }
    let threads = options.threads;
    let (fixpoint, stats) = match view {
        None => kbt_engine::evaluate(&plan.program, &edb, threads, None, Some(keep))?,
        Some(view) => {
            let base = view.namer;
            let namer = |rel| plan.render_relation(rel, base);
            let mut renamed = view.renamed(&namer);
            for (rel, consts) in &plan.seeds {
                let args: Vec<String> = consts.iter().map(Const::to_string).collect();
                let seed = format!("seed {}({})", namer(*rel), args.join(", "));
                renamed.rows.push(operator_row(seed, "magic"));
            }
            let out =
                kbt_engine::evaluate(&plan.program, &edb, threads, Some(&mut renamed), Some(keep))?;
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
/// fast-path `τ_φ` step builds it (paying one full fixpoint), and every
/// later `τ_φ` step with the *same* sentence advances it by diffing the new
/// input database against the one the session last saw.  The produced
/// outcome is byte-identical to [`datalog_update`]; if the engine rejects a
/// delta (e.g. a relation reappeared with a different arity), the session
/// transparently rebuilds itself from scratch.
#[derive(Clone, Debug)]
pub struct ChainSession {
    phi: Sentence,
    /// The input database the session is currently synced to.
    base: Database,
    /// Engine evaluation width, kept so transparent rebuilds preserve it.
    threads: usize,
    session: IncrementalSession,
}

impl ChainSession {
    /// Builds a session for `φ` over `db`, whose step [`horn_step`]
    /// recognised, at the given engine evaluation width (`0` = process
    /// default), and returns the first update outcome.
    pub fn start(
        phi: &Sentence,
        step: &HornStep,
        db: &Database,
        threads: usize,
    ) -> Result<(Self, UpdateOutcome)> {
        let lifted = db.extend_schema(&step.schema)?;
        let session = IncrementalSession::with_threads(&step.program, &lifted, threads)?;
        let stats = *session.stats();
        let mut chain = ChainSession {
            phi: phi.clone(),
            base: db.clone(),
            threads,
            session,
        };
        let outcome = chain.outcome(step, db, stats);
        Ok((chain, outcome))
    }

    /// A session for `φ` synced to `db`, whose step [`horn_step`]
    /// recognised and already produced `result` — the one database
    /// [`datalog_update`] returns over `db` — rebuilt without evaluating
    /// anything: the engine plans against `db` and adopts `result`'s head
    /// relations as its fixpoint ([`IncrementalSession::from_fixpoint`]).
    /// The next [`Self::advance`] then returns what it would have returned
    /// on the session that produced `result`, except for the
    /// plan-dependent counters (`index_probes`, `tuples_scanned`) where
    /// that session was planned against another input.  The caller vouches
    /// for `result`; a head relation of φ missing from `result` is refused.
    pub fn resume(
        phi: &Sentence,
        step: &HornStep,
        db: &Database,
        result: &Database,
        threads: usize,
    ) -> Result<Self> {
        let mut fixpoint = db.extend_schema(&step.schema)?;
        for rel in step.program.idb_relations() {
            let derived = result
                .relation(rel)
                .filter(|derived| step.schema.arity(rel) == Some(derived.arity()));
            let Some(derived) = derived else {
                return Err(CoreError::StrategyNotApplicable {
                    strategy: "Datalog",
                    reason: format!("the step's result holds no {rel} of φ's arity to resume"),
                });
            };
            fixpoint.set_relation(rel, derived.clone());
        }
        Ok(ChainSession {
            session: IncrementalSession::from_fixpoint(&step.program, &fixpoint, threads)?,
            phi: phi.clone(),
            base: db.clone(),
            threads,
        })
    }

    /// Whether the session evaluates this sentence.
    pub fn matches(&self, phi: &Sentence) -> bool {
        self.phi == *phi
    }

    /// Advances the session to `db`, on which [`horn_step`] recognised
    /// `step` for the session's sentence: the diff against the previously
    /// seen database is fed to the engine as a delta, and the maintained
    /// fixpoint is returned restricted to the schema `σ(db) ∪ σ(φ)` —
    /// exactly what [`datalog_update`] would produce from scratch.  (A
    /// `σ(db)`/`σ(φ)` arity conflict, which a tuple-level diff alone would
    /// miss on an *empty* relation, never reaches here: [`horn_step`]
    /// refuses it, as the from-scratch path does.)
    pub fn advance(&mut self, step: &HornStep, db: &Database) -> Result<UpdateOutcome> {
        let metrics = crate::metrics();
        let (insertions, deletions) = {
            let _diff = metrics.chain_diff_ns.span();
            diff(db, &self.base)
        };
        let stats = match self.session.apply_delta(&insertions, &deletions) {
            Ok(stats) => stats,
            Err(_) => {
                // e.g. a relation came back with a different arity: fall
                // back to rebuilding the whole session on the new input.
                let (rebuilt, outcome) = ChainSession::start(&self.phi, step, db, self.threads)?;
                *self = rebuilt;
                return Ok(outcome);
            }
        };
        self.base = db.clone();
        Ok(self.outcome(step, db, stats))
    }

    /// The outcome of a step over `db`, assembled the way the from-scratch
    /// path would have: the input database's relations verbatim (the
    /// engine mirrors them, but `db` already holds them materialised), plus
    /// the relations of the result schema absent from σ(db) — the fresh
    /// head relations at their maintained fixpoint and φ's body-only
    /// relations (empty).  This copies only the intensional output instead
    /// of the whole engine storage, and implicitly drops relations earlier
    /// chain inputs left behind in the engine.  The engine hands the
    /// intensional relations out as copy-on-write snapshots and remembers
    /// them, so a step pays for the tuples its delta changed, not for
    /// re-collecting the whole (large) fixpoint relation — the first step
    /// included, whose snapshot the next one merges into.
    fn outcome(&mut self, step: &HornStep, db: &Database, stats: EngineStats) -> UpdateOutcome {
        let _assemble = crate::metrics().chain_assemble_ns.span();
        let mut result = db.clone();
        for (rel, arity) in step.schema.iter() {
            if result.relation(rel).is_none() {
                let relation = self
                    .session
                    .snapshot_relation(rel)
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

/// One stored fixpoint of a single-world knowledgebase: the claim that its
/// head relations are the least fixpoint of its rules over its inputs —
/// the rules' body relations that are not heads — which Theorem 4.8 makes
/// of the world a fast-path step returns.
///
/// The rules are kept in canonical form: each rule's variables renamed in
/// order of first occurrence, the rules sorted and deduplicated.  So a
/// later sentence that writes the same rules with other variable names or
/// in another order matches them exactly; nothing weaker is tried, since
/// program equivalence is undecidable.  An entry names relations by id and
/// holds none of them: the knowledgebase it describes holds the rows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoredFixpoint {
    rules: Vec<Rule>,
    inputs: Vec<RelId>,
    heads: Vec<RelId>,
}

impl StoredFixpoint {
    /// What the world `step` returns stores: its rules, its heads and the
    /// rest of its body relations.
    pub(crate) fn of(step: &HornStep) -> Self {
        let mut rules: Vec<Rule> = step.program.rules().iter().map(canonical).collect();
        rules.sort_unstable();
        rules.dedup();
        let heads: BTreeSet<RelId> = step.program.idb_relations();
        let inputs: BTreeSet<RelId> = (rules.iter().flat_map(|rule| &rule.body))
            .map(|atom| atom.rel)
            .filter(|rel| !heads.contains(rel))
            .collect();
        StoredFixpoint {
            rules,
            inputs: inputs.into_iter().collect(),
            heads: heads.into_iter().collect(),
        }
    }

    /// Every relation the claim is about.
    fn relations(&self) -> impl Iterator<Item = RelId> + '_ {
        self.inputs.iter().chain(&self.heads).copied()
    }

    /// Whether the entry covers part of the step that reads `db`, whose
    /// rules in canonical form are `rules` (sorted): every rule of the
    /// entry is among them, every input is in `db` on the very rows of
    /// `world`'s (the world the entry describes), and every head is absent
    /// from `db` and stored in `world` at the step's arity.
    fn covers(
        &self,
        rules: &[(Rule, usize)],
        schema: &Schema,
        db: &Database,
        world: &Database,
    ) -> bool {
        let ruled = |rule: &Rule| rules.binary_search_by(|(r, _)| r.cmp(rule)).is_ok();
        let shared = |rel: RelId| match (db.relation(rel), world.relation(rel)) {
            (Some(read), Some(stored)) => read.shares_rows(stored),
            _ => false,
        };
        let stored = |rel: RelId| {
            db.relation(rel).is_none()
                && world.relation(rel).map(Relation::arity) == schema.arity(rel)
        };
        self.rules.iter().all(ruled)
            && self.inputs.iter().all(|&rel| shared(rel))
            && self.heads.iter().all(|&rel| stored(rel))
    }
}

/// `rule` with its variables renamed `x0, x1, …` in order of first
/// occurrence, head first.
fn canonical(rule: &Rule) -> Rule {
    let mut seen: Vec<Var> = Vec::new();
    let mut rename = |atom: &Atom| Atom {
        rel: atom.rel,
        terms: (atom.terms.iter())
            .map(|term| match *term {
                Term::Var(var) => {
                    let at = seen.iter().position(|&v| v == var).unwrap_or_else(|| {
                        seen.push(var);
                        seen.len() - 1
                    });
                    Term::Var(Var::new(at as u32))
                }
                constant => constant,
            })
            .collect(),
    };
    let head = rename(&rule.head);
    Rule::new(head, rule.body.iter().map(rename).collect::<Vec<_>>())
}

/// The stored fixpoints of one single-world knowledgebase — what a host
/// publishes next to the knowledgebase, so that its reads take covered
/// heads from it ([`crate::Transformer::apply_stored`]).  Empty for a
/// knowledgebase of several worlds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoredFixpoints {
    entries: Vec<StoredFixpoint>,
}

impl StoredFixpoints {
    /// Whether there is no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The catalogue of `new`, which a commit made of `old` (the
    /// knowledgebase this catalogue describes), with `recorded` — what the
    /// commit's own last step stored — added: an entry is kept when every
    /// one of its inputs and heads is equal in both, and none is once
    /// `new` is not one world.  Relations a commit left on their run
    /// compare in `O(1)`, and ones that share a base in `O(delta)`
    /// ([`Relation`]'s `Eq`).  `None` when that is this catalogue again.
    pub fn carried(
        &self,
        old: &Knowledgebase,
        new: &Knowledgebase,
        recorded: Option<StoredFixpoint>,
    ) -> Option<StoredFixpoints> {
        let mut entries: Vec<StoredFixpoint> = match (old.as_singleton(), new.as_singleton()) {
            (Some(old), Some(new)) => (self.entries.iter())
                .filter(|entry| {
                    entry
                        .relations()
                        .all(|rel| old.relation(rel) == new.relation(rel))
                })
                .cloned()
                .collect(),
            _ => Vec::new(),
        };
        if let Some(entry) = recorded.filter(|entry| !entries.contains(entry)) {
            entries.push(entry);
        }
        (entries != self.entries).then_some(StoredFixpoints { entries })
    }
}

/// The catalogue of a knowledgebase that stores one fixpoint.
impl From<StoredFixpoint> for StoredFixpoints {
    fn from(entry: StoredFixpoint) -> Self {
        StoredFixpoints {
            entries: vec![entry],
        }
    }
}

/// `µ(φ, db)` — projected onto `keep` when one is given, as
/// [`pushdown_update`] projects it — for the step [`horn_step`] recognised
/// on `db`, taking from `world` the heads of every entry of `stored` that
/// covers part of the step, instead of deriving them.  `stored` describes
/// `world`; `db` is what the step reads.  Only φ's other rules are
/// evaluated, over `db` plus those heads, or none at all when the entries
/// cover every rule.  An entry covers part of the step when its rules are
/// some of φ's (in canonical form), its inputs are in `db` on `world`'s
/// very rows, its heads are absent from `db`, and no rule left to evaluate
/// derives into one of its heads or inputs.  Then φ's least fixpoint over
/// `db` holds the entry's heads exactly as `world` holds them (Theorem 4.8,
/// and the argument in the `transformer` module docs), so the outcome is
/// byte-identical to [`datalog_update`]'s (projected onto `keep`).
///
/// `None` when no entry covers any part.  Otherwise the outcome and the
/// number of entries read; under a view, each of them gets one row
/// (`stored reach (2 rules)`) ahead of the remaining rules' rows, timed
/// under a profiling view.
pub(crate) fn stored_update(
    step: &HornStep,
    db: &Database,
    stored: &StoredFixpoints,
    world: &Database,
    keep: Option<&[RelId]>,
    options: &EvalOptions,
    mut view: Option<&mut View<'_>>,
) -> Result<Option<(UpdateOutcome, usize)>> {
    let start = Instant::now();
    let source = step.program.rules();
    let mut rules: Vec<(Rule, usize)> = source.iter().map(canonical).zip(0..).collect();
    rules.sort_unstable();
    let mut chosen: Vec<&StoredFixpoint> = (stored.entries.iter())
        .filter(|entry| entry.covers(&rules, &step.schema, db, world))
        .collect();
    // dropping an entry hands its rules back to the evaluation, which may
    // then derive into another entry's relations: repeat until none does
    let remaining = loop {
        let covered: BTreeSet<&Rule> = chosen.iter().flat_map(|entry| &entry.rules).collect();
        let remaining: Vec<usize> = (rules.iter())
            .filter(|(rule, _)| !covered.contains(rule))
            .map(|&(_, at)| at)
            .collect();
        let derived: BTreeSet<RelId> = remaining.iter().map(|&at| source[at].head.rel).collect();
        let before = chosen.len();
        chosen.retain(|entry| entry.relations().all(|rel| !derived.contains(&rel)));
        if chosen.len() == before {
            break remaining;
        }
    };
    if chosen.is_empty() {
        return Ok(None);
    }
    let mut seated = db.clone();
    for &rel in chosen.iter().flat_map(|entry| &entry.heads) {
        let relation = world.relation(rel).expect("covers checked every head");
        seated.set_relation(rel, relation.clone());
    }
    if let Some(view) = view.as_deref_mut() {
        let elapsed_ns = if view.runs() {
            start.elapsed().as_nanos() as u64
        } else {
            0
        };
        for entry in &chosen {
            let names: Vec<String> = entry.heads.iter().map(|&rel| (view.namer)(rel)).collect();
            let count = entry.rules.len();
            let noun = if count == 1 { "rule" } else { "rules" };
            let rule = format!("stored {} ({count} {noun})", names.join(", "));
            let mut row = operator_row(rule, "stored fixpoint");
            row.elapsed_ns = elapsed_ns;
            view.rows.push(row);
        }
    }
    let taken = chosen.len();
    if remaining.is_empty() {
        let outcome = UpdateOutcome {
            databases: vec![seated.extend_schema(&step.schema)?],
            candidate_atoms: 0,
            fixpoint: None,
        };
        return Ok(Some((outcome, taken)));
    }
    let rest = HornStep {
        program: Program::new(
            remaining
                .iter()
                .map(|&at| source[at].clone())
                .collect::<Vec<_>>(),
        )?,
        schema: step.schema.clone(),
    };
    let outcome = match keep {
        Some(keep) => pushdown_update(&rest, &seated, keep, options, view)?,
        None => datalog_update(&rest, &seated, options, view)?,
    };
    Ok(Some((outcome, taken)))
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

    /// The fast-path step of `phi` on `db`, which the test expects to apply.
    fn step(phi: &Sentence, db: &Database) -> HornStep {
        horn_step(phi, db)
            .expect("a Horn step")
            .expect("a checked program")
    }

    /// `µ(φ, db)` from scratch, through [`horn_step`] as every caller goes.
    fn from_scratch(phi: &Sentence, db: &Database) -> Result<UpdateOutcome> {
        let step = horn_step(phi, db).expect("a Horn step")?;
        datalog_update(&step, db, &EvalOptions::default(), None)
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
        let out = from_scratch(&tc_sentence(), &db).unwrap();
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
        let mut a = from_scratch(&phi, &db).unwrap().databases;
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
        let (mut session, first) = ChainSession::start(&phi, &step(&phi, &db), &db, 0).unwrap();
        assert_eq!(first, from_scratch(&phi, &db).unwrap());
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
            let got = session.advance(&step(&phi, &db), &db).unwrap();
            let want = from_scratch(&phi, &db).unwrap();
            assert_eq!(got.databases, want.databases);
        }
    }

    #[test]
    fn a_resumed_session_advances_like_the_one_that_produced_its_result() {
        let phi = tc_sentence();
        let mut db = DatabaseBuilder::new()
            .fact(r(1), [1u32, 2])
            .fact(r(1), [2u32, 3])
            .fact(r(3), [9u32])
            .build()
            .unwrap();
        let (mut live, first) = ChainSession::start(&phi, &step(&phi, &db), &db, 1).unwrap();
        let resumed = ChainSession::resume(&phi, &step(&phi, &db), &db, &first.databases[0], 1);
        let mut resumed = resumed.unwrap();
        assert!(resumed.matches(&phi));
        let edits: Vec<(bool, (u32, u32))> = vec![(true, (3, 4)), (false, (1, 2)), (true, (1, 2))];
        for (insert, (x, y)) in edits {
            if insert {
                db.insert_fact(r(1), kbt_data::tuple![x, y]).unwrap();
            } else {
                db.remove_fact(r(1), &kbt_data::tuple![x, y]);
            }
            let step = step(&phi, &db);
            let got = resumed.advance(&step, &db).unwrap();
            assert_eq!(
                got,
                live.advance(&step, &db).unwrap(),
                "outcome and statistics"
            );
            assert!(got.fixpoint.unwrap().reused_facts > 0);
        }
    }

    #[test]
    fn a_result_without_the_heads_resumes_nothing() {
        let db = DatabaseBuilder::new()
            .fact(r(1), [1u32, 2])
            .build()
            .unwrap();
        let phi = tc_sentence();
        assert!(matches!(
            ChainSession::resume(&phi, &step(&phi, &db), &db, &db, 1),
            Err(CoreError::StrategyNotApplicable { .. })
        ));
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
        let (mut session, _) = ChainSession::start(&phi, &step(&phi, &db1), &db1, 0).unwrap();
        let got = session.advance(&step(&phi, &db2), &db2).unwrap();
        let want = from_scratch(&phi, &db2).unwrap();
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
        let (mut session, _) = ChainSession::start(&phi, &step(&phi, &db1), &db1, 0).unwrap();
        let got = session.advance(&step(&phi, &db2), &db2).unwrap();
        let want = from_scratch(&phi, &db2).unwrap();
        assert_eq!(got.databases, want.databases);
        // and the rebuilt session keeps advancing correctly
        let mut db3 = db2.clone();
        db3.insert_fact(r(1), kbt_data::tuple![2, 3]).unwrap();
        let got = session.advance(&step(&phi, &db3), &db3).unwrap();
        let want = from_scratch(&phi, &db3).unwrap();
        assert_eq!(got.databases, want.databases);
    }

    #[test]
    fn schema_conflicts_with_phi_are_refused_not_skipped() {
        // R1 returns empty with arity 3: a chain's tuple-level diff would be
        // deletions only, but σ(db) ∪ σ(φ) is contradictory — the step
        // applies, and is refused before any session or evaluation sees it.
        let phi = tc_sentence();
        let db = DatabaseBuilder::new().relation(r(1), 3).build().unwrap();
        assert!(applicable(&phi, &db));
        assert!(matches!(
            horn_step(&phi, &db),
            Some(Err(CoreError::Data(_)))
        ));
    }

    #[test]
    fn a_relation_wider_than_the_engine_is_refused_not_skipped() {
        let wide = Sentence::new(forall(
            [1],
            implies(atom(1, [var(1)]), atom(2, vec![var(1); 33])),
        ))
        .unwrap();
        let db = DatabaseBuilder::new().fact(r(1), [1u32]).build().unwrap();
        assert!(matches!(
            horn_step(&wide, &db),
            Some(Err(CoreError::Engine(EngineError::ArityTooLarge { .. })))
        ));
    }
}
