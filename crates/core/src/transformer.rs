//! The transformation evaluator: applying expressions to knowledgebases.
//!
//! Definition (10): `τ_φ(kb) = ⋃_{db ∈ kb} µ(φ, db)`.  The other operators
//! are the glb/lub/projection functions of `kbt-data`.  The evaluator walks a
//! [`Transform`] expression step by step, carrying statistics and enforcing
//! the resource limits of [`EvalOptions`].
//!
//! `µ(φ, db)` depends only on the domain `db.constants() ∪ φ.constants()`
//! and on `db`'s relations among `σ(φ)`: every other fact carries over
//! unchanged into each minimal model, by the argument in the
//! [`universe`](crate::update::universe) module docs.  So a multi-world
//! `τ_φ` step solves `µ` once per group of worlds that agree on those two
//! things, on the group's first world, and replays each answer's `σ(φ)`
//! relations onto the group's other worlds.  Worlds are visited in order
//! and each group is solved at its first world, so errors and the
//! `max_worlds` check fire exactly as a world-by-world fold would fire
//! them.  Single-world knowledgebases build no key.  A world's key costs
//! its active domain and a projection: `φ`'s constants are read once per
//! step, the domain is one sorted pass over the world's rows
//! ([`Database::constants`]), and the group's domain is handed to the
//! grounding of its first world instead of being computed again; the
//! worlds the step collects are checked for one schema without building
//! any ([`Knowledgebase::insert`]).  So a four-world read whose worlds
//! agree costs one solve; each further world costs its domain pass, the
//! projection onto `σ(φ)` and the replay of the answers' `σ(φ)` relations.
//!
//! A caller-owned chain slot ([`Transformer::apply_with_chain`], the commit
//! pipeline's) gets the *incremental chain* optimisation: the slot keeps at
//! most one live [`ChainSession`] — a persistent engine fixpoint for the
//! most recent Datalog-fast-path sentence.  A later `τ_φ` step with the
//! same Horn sentence applied to a singleton knowledgebase, later in the
//! walk or in a later call, is then evaluated by feeding the diff of the
//! two input databases into the session instead of re-deriving the
//! fixpoint from scratch.  Results are byte-identical;
//! `EvalStats::reused_facts` shows the saving.  A host that restarts from
//! the knowledgebase a `project[R]; τ_φ` application produced rebuilds the
//! slot that application left ([`Transformer::resume_chain`]) instead of
//! paying the fixpoint again at its next application.
//!
//! ## The projection push-down
//!
//! The hypothetical query of the paper inserts a Horn `φ` and projects onto
//! the answer: `tau[φ]; project[K]`.  When a Datalog-fast-path `τ_φ` step
//! on a one-world knowledgebase is followed by `project[K]`, the step
//! derives only what `K` keeps: φ's program is rewritten with magic sets
//! around every head of φ in `K` as an all-free goal
//! ([`kbt_datalog::demand_rewrite`]), so a head that reads `reach(x, k)`
//! demands one slice of `reach` instead of the closure, and the engine
//! materialises only the relations of `K`.  The result is byte-identical to
//! `project(µ(φ, db), K)`; the projection step still runs on it, as a
//! no-op.  The views name the invented predicates (`reach_fb`,
//! `m_reach_fb`).
//!
//! The push-down and the chain never compete within one walk.  A walk
//! with a caller-owned slot chains every fast-path insertion, since its
//! session pays off on the next call, and so never pushes down; it must
//! derive the whole fixpoint to be advanced later.  Every other walk
//! (`QUERY`, `EXPLAIN`, `PROFILE`) evaluates each insertion on its own and
//! pushes down whenever a projection follows, so all three make the same
//! choice.
//!
//! The push-down covers one-world knowledgebases only.  A multi-world step
//! solves `µ` once per group of worlds and replays each answer's whole
//! `σ(φ)` part onto the group's other worlds, which a projected answer no
//! longer carries; and projecting while the step collects its worlds would
//! merge worlds that differ only in dropped relations, so `max_worlds`
//! would count fewer worlds than it counts today.

use std::collections::BTreeSet;

use kbt_data::{Const, Database, Knowledgebase, RelId};
use kbt_datalog::View;

use crate::error::CoreError;
use crate::options::{EvalOptions, EvalStats, Strategy};
use crate::transform::Transform;
use crate::update::datalog::{self, ChainSession};
use crate::update::universe::domain_of;
use crate::update::{minimal_update, minimal_update_over, operator_row, UpdateOutcome};
use crate::Result;

/// The result of applying a transformation expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransformResult {
    /// The resulting knowledgebase.
    pub kb: Knowledgebase,
    /// Statistics about the evaluation.
    pub stats: EvalStats,
}

/// Evaluates transformation expressions under a fixed set of options.
#[derive(Clone, Debug, Default)]
pub struct Transformer {
    options: EvalOptions,
}

impl Transformer {
    /// A transformer with default options (automatic strategy selection).
    pub fn new() -> Self {
        Transformer::default()
    }

    /// A transformer with explicit options.
    pub fn with_options(options: EvalOptions) -> Self {
        Transformer { options }
    }

    /// The options in use.
    pub fn options(&self) -> &EvalOptions {
        &self.options
    }

    /// Applies a transformation expression to a knowledgebase.
    pub fn apply(&self, transform: &Transform, kb: &Knowledgebase) -> Result<TransformResult> {
        self.apply_viewed(transform, kb, None)
    }

    /// Like [`Self::apply`], but with a caller-owned chain-session slot that
    /// survives between calls: a long-lived host (the `kbt-service` commit
    /// pipeline) registers an expression once and re-applies it per commit,
    /// and the persistent [`ChainSession`] then feeds only the *diff* of the
    /// successive input databases into the live engine fixpoint instead of
    /// re-deriving it from scratch each time.
    ///
    /// Results are byte-identical to [`Self::apply`]; the slot is purely a
    /// performance carrier.  Only the most recent Horn `τ_φ` sentence is
    /// retained in the slot (a later step with a different sentence replaces
    /// it), so expressions whose *last* insertion is the expensive recursive
    /// one — the common shape — benefit the most.  Callers may clear the
    /// slot to `None` at any time.
    pub fn apply_with_chain(
        &self,
        transform: &Transform,
        kb: &Knowledgebase,
        chain: &mut Option<ChainSession>,
    ) -> Result<TransformResult> {
        let mut stats = EvalStats::default();
        let kb = self.walk(transform, kb.clone(), &mut stats, Some(chain), None)?;
        Ok(TransformResult { kb, stats })
    }

    /// The chain slot [`Self::apply_with_chain`] leaves behind when
    /// `transform` produces `kb`, rebuilt from `kb` without evaluating:
    /// what a restarted host holding only the committed `kb` installs in
    /// the slot (`kbt-service` at recovery).  Theorem 4.8 puts the session
    /// in `kb` already: a Horn `τ_φ` over fresh heads returns its input
    /// plus the least fixpoint, so when `transform`'s steps end in
    /// `project[R]; τ_φ`, the session's input is `project[R](kb)` and its
    /// fixpoint is `kb`'s head relations ([`ChainSession::resume`]).
    ///
    /// `None` — nothing to resume, and the next application evaluates in
    /// full — unless all of these hold: the steps end in `Project(R)`,
    /// `Insert(φ)`; `kb` is a singleton; and φ takes the same Datalog fast
    /// path [`Self::apply_with_chain`] chains, under the same strategy, on
    /// `project[R](kb)`, whose σ must not hold a head of φ (so no head is
    /// in `R`: `kb` holds every head).  The caller vouches that the last
    /// application of `transform` produced `kb`.
    pub fn resume_chain(&self, transform: &Transform, kb: &Knowledgebase) -> Option<ChainSession> {
        let steps = transform.steps();
        let [.., Transform::Project(keep), Transform::Insert(phi)] = steps.as_slice() else {
            return None;
        };
        let result = kb.as_singleton()?;
        let db = result.project(keep);
        if !self.fast_path(phi, &db) {
            return None;
        }
        // an error means `kb` is not what this step returns, so nothing is
        // resumed and the next application finds out for itself
        ChainSession::resume(phi, &db, result, self.options.threads).ok()
    }

    /// Convenience: apply a single insertion `τ_φ`.
    pub fn insert(&self, phi: &kbt_logic::Sentence, kb: &Knowledgebase) -> Result<TransformResult> {
        self.apply(&Transform::Insert(phi.clone()), kb)
    }

    /// [`Self::apply`] observed through `view` (`None` *is* [`Self::apply`];
    /// `view`'s namer renders relation identifiers in rule and plan text).
    ///
    /// Under a **profiling** view every Datalog-fast-path insertion step
    /// records one [`kbt_datalog::RuleProfile`] per rule per group
    /// of worlds (see the module docs).  The resulting knowledgebase and
    /// the statistics are [`Self::apply`]'s.
    ///
    /// Under a **plan-only** view nothing is evaluated: Datalog-fast-path
    /// insertions record their join plans, every other operator records a
    /// single descriptive row (lattice operators and non-Horn insertions
    /// have no rule plans), and every step is planned against the *input*
    /// knowledgebase's first world — earlier steps never ran, so index
    /// choices shown for deep pipelines are representative, not exact.  The
    /// returned knowledgebase is that one world, the statistics are zero.
    pub fn apply_viewed(
        &self,
        transform: &Transform,
        kb: &Knowledgebase,
        view: Option<&mut View<'_>>,
    ) -> Result<TransformResult> {
        let start = match &view {
            Some(v) if !v.runs() => {
                Knowledgebase::singleton(kb.iter().next().cloned().unwrap_or_else(Database::new))
            }
            _ => kb.clone(),
        };
        let mut stats = EvalStats::default();
        let kb = self.walk(transform, start, &mut stats, None, view)?;
        Ok(TransformResult { kb, stats })
    }

    /// Walks the flattened steps of `transform`.  With a caller-owned slot
    /// ([`Self::apply_with_chain`]) every fast-path insertion goes through
    /// its chain session; without one, an insertion followed by a
    /// projection pushes the projection down (see the module docs).
    fn walk(
        &self,
        transform: &Transform,
        kb: Knowledgebase,
        stats: &mut EvalStats,
        mut chain: Option<&mut Option<ChainSession>>,
        mut view: Option<&mut View<'_>>,
    ) -> Result<Knowledgebase> {
        let steps = transform.steps();
        let mut current = kb;
        for (i, step) in steps.iter().enumerate() {
            let keep = match steps.get(i + 1) {
                Some(Transform::Project(keep)) => Some(keep.as_slice()),
                _ => None,
            };
            current = match view.as_deref_mut() {
                Some(view) if !view.runs() => {
                    self.plan_step(step, keep, &current, view)?;
                    current
                }
                view => self.apply_step(step, keep, current, stats, chain.as_deref_mut(), view)?,
            };
        }
        Ok(current)
    }

    /// The plan-only view of one step against the (never advancing) input;
    /// `keep` is the projection to push down, as in [`Self::apply_step`].
    fn plan_step(
        &self,
        step: &Transform,
        keep: Option<&[RelId]>,
        kb: &Knowledgebase,
        view: &mut View<'_>,
    ) -> Result<()> {
        match step {
            Transform::Identity | Transform::Seq(_) => {}
            Transform::Insert(phi) => match (keep, kb.as_singleton()) {
                (Some(keep), Some(db)) if self.fast_path(phi, db) => {
                    datalog::pushdown_update(phi, db, keep, &self.options, Some(view))?;
                }
                _ => {
                    for db in kb.iter() {
                        minimal_update(phi, db, &self.options, Some(&mut *view))?;
                    }
                }
            },
            Transform::Glb => view.rows.push(operator_row("glb".to_string(), "lattice")),
            Transform::Lub => view.rows.push(operator_row("lub".to_string(), "lattice")),
            Transform::Project(rels) => {
                let names: Vec<String> = rels.iter().map(|r| (view.namer)(*r)).collect();
                view.rows.push(operator_row(
                    format!("project({})", names.join(", ")),
                    "lattice",
                ));
            }
        }
        Ok(())
    }

    /// Applies one primitive operator (`steps()` has flattened away `Seq`
    /// and `Identity`).  `keep` is the projection the next step makes, when
    /// an insertion may push it down (see the module docs).  `chain` is the
    /// caller-owned session slot of [`Self::apply_with_chain`]; every other
    /// walk passes `None` and evaluates each insertion on its own.
    fn apply_step(
        &self,
        step: &Transform,
        keep: Option<&[RelId]>,
        kb: Knowledgebase,
        stats: &mut EvalStats,
        chain: Option<&mut Option<ChainSession>>,
        mut view: Option<&mut View<'_>>,
    ) -> Result<Knowledgebase> {
        match step {
            Transform::Identity | Transform::Seq(_) => {
                unreachable!("Transform::steps flattens sequences and drops identities")
            }
            Transform::Insert(phi) => {
                stats.operators += 1;
                let mut out = Knowledgebase::empty();
                if let Some(db) = kb.as_singleton() {
                    let chained = match chain {
                        Some(chain) => self.chain_update(phi, db, chain)?,
                        None => None,
                    };
                    let outcome = match chained {
                        Some(outcome) => outcome,
                        None => match keep.filter(|_| self.fast_path(phi, db)) {
                            Some(keep) => {
                                datalog::pushdown_update(phi, db, keep, &self.options, view)?
                            }
                            None => minimal_update(phi, db, &self.options, view)?,
                        },
                    };
                    self.absorb_outcome(&outcome, stats);
                    self.collect_worlds(outcome.databases, &mut out)?;
                    return Ok(out);
                }
                // One `µ` per group of worlds that agree on the domain and on
                // φ's relations; each answer's σ(φ) part is kept to be
                // replayed onto the group's later worlds.
                let mentioned: Vec<RelId> = phi.schema().relations().collect();
                let phi_constants = phi.constants();
                let mut groups: Vec<(WorldKey, Vec<Database>)> = Vec::new();
                for db in kb.iter() {
                    let key = (domain_of(db, &phi_constants), db.project(&mentioned));
                    let worlds = match groups.iter().find(|(k, _)| *k == key) {
                        Some((_, answers)) => answers.iter().map(|a| replay(db, a)).collect(),
                        None => {
                            let domain = Some(key.0.clone());
                            let view = view.as_deref_mut();
                            let outcome =
                                minimal_update_over(phi, db, domain, &self.options, view)?;
                            self.absorb_outcome(&outcome, stats);
                            let answers = outcome.databases.iter();
                            groups.push((key, answers.map(|a| a.project(&mentioned)).collect()));
                            outcome.databases
                        }
                    };
                    self.collect_worlds(worlds, &mut out)?;
                }
                Ok(out)
            }
            Transform::Glb => {
                stats.operators += 1;
                Ok(kb.glb()?)
            }
            Transform::Lub => {
                stats.operators += 1;
                Ok(kb.lub()?)
            }
            Transform::Project(rels) => {
                stats.operators += 1;
                Ok(kb.project(rels))
            }
        }
    }

    /// Tries the incremental chain path for `τ_φ` on a singleton
    /// knowledgebase's one world: engaged under the `Auto`/`Datalog`
    /// strategies when the Datalog fast path applies.  Returns `None` when
    /// the regular path should run instead.
    fn chain_update(
        &self,
        phi: &kbt_logic::Sentence,
        db: &Database,
        chain: &mut Option<ChainSession>,
    ) -> Result<Option<UpdateOutcome>> {
        if !self.fast_path(phi, db) {
            return Ok(None);
        }
        if let Some(session) = chain.as_mut() {
            if session.matches(phi) {
                return session.advance(db).map(Some);
            }
        }
        let (session, outcome) = ChainSession::start(phi, db, self.options.threads)?;
        *chain = Some(session);
        Ok(Some(outcome))
    }

    /// Whether the Datalog fast path evaluates `τ_φ` on `db` under the
    /// selected strategy: the condition for a chain session and for a
    /// push-down alike.
    fn fast_path(&self, phi: &kbt_logic::Sentence, db: &Database) -> bool {
        matches!(self.options.strategy, Strategy::Auto | Strategy::Datalog)
            && datalog::applicable(phi, db)
    }

    /// Folds one `µ` outcome's counters into the running statistics.
    fn absorb_outcome(&self, outcome: &UpdateOutcome, stats: &mut EvalStats) {
        stats.updates += 1;
        stats.candidate_atoms += outcome.candidate_atoms;
        stats.minimal_models += outcome.databases.len();
        if let Some(fixpoint) = &outcome.fixpoint {
            stats.absorb_fixpoint(fixpoint);
        }
    }

    /// Adds result databases to the output knowledgebase, enforcing the
    /// world limit.
    fn collect_worlds(&self, worlds: Vec<Database>, out: &mut Knowledgebase) -> Result<()> {
        for result in worlds {
            out.insert(result)?;
            if out.len() > self.options.max_worlds {
                return Err(CoreError::TooManyWorlds {
                    worlds: out.len(),
                    limit: self.options.max_worlds,
                });
            }
        }
        Ok(())
    }
}

/// What `µ(φ, db)` depends on: the domain `B` and `db`'s relations among
/// `σ(φ)` (presence, arity and contents).
type WorldKey = (BTreeSet<Const>, Database);

/// `db` with its `σ(φ)` relations replaced by those of `answer` (an answer
/// of the group's first world, projected onto `σ(φ)`).
fn replay(db: &Database, answer: &Database) -> Database {
    let mut world = db.clone();
    for (rel, relation) in answer.iter() {
        world.set_relation(rel, relation.clone());
    }
    world
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbt_data::{DatabaseBuilder, RelId};
    use kbt_logic::builder::*;
    use kbt_logic::Sentence;

    fn r(i: u32) -> RelId {
        RelId::new(i)
    }

    /// The step-by-step oracle: each of `expr`'s steps through its own
    /// [`Transformer::apply`], which can neither chain nor push down.
    fn fold(expr: &Transform, kb: &Knowledgebase) -> TransformResult {
        let mut folded = TransformResult {
            kb: kb.clone(),
            stats: EvalStats::default(),
        };
        for step in expr.steps() {
            let result = Transformer::new().apply(step, &folded.kb).unwrap();
            folded.kb = result.kb;
            folded.stats.absorb(&result.stats);
        }
        folded
    }

    fn space_kb() -> Knowledgebase {
        // kb = {({v}), ({w})} with v = a1, w = a2, over schema R1 (unary).
        let db_v = DatabaseBuilder::new().fact(r(1), [1u32]).build().unwrap();
        let db_w = DatabaseBuilder::new().fact(r(1), [2u32]).build().unwrap();
        Knowledgebase::from_databases([db_v, db_w]).unwrap()
    }

    #[test]
    fn insertion_unions_the_per_database_results() {
        // Section 2: τ_{R1(v)}(kb) = {({v}), ({v, w})}.
        let t = Transformer::new();
        let phi = Sentence::new(atom(1, [cst(1)])).unwrap();
        let result = t.insert(&phi, &space_kb()).unwrap();
        assert_eq!(result.kb.len(), 2);
        assert_eq!(result.stats.updates, 2);
        assert_eq!(result.stats.minimal_models, 2);
        let both = DatabaseBuilder::new()
            .fact(r(1), [1u32])
            .fact(r(1), [2u32])
            .build()
            .unwrap();
        assert!(result.kb.contains(&both));
    }

    #[test]
    fn glb_lub_and_projection_operators() {
        let t = Transformer::new();
        let kb = space_kb();
        let glb = t.apply(&Transform::Glb, &kb).unwrap().kb;
        assert!(glb
            .as_singleton()
            .unwrap()
            .relation(r(1))
            .unwrap()
            .is_empty());
        let lub = t.apply(&Transform::Lub, &kb).unwrap().kb;
        assert_eq!(lub.as_singleton().unwrap().fact_count(), 2);

        let phi =
            Sentence::new(forall([1], implies(atom(1, [var(1)]), atom(2, [var(1)])))).unwrap();
        let proj = t
            .apply(
                &Transform::insert(phi).then(Transform::project([r(2)])),
                &kb,
            )
            .unwrap()
            .kb;
        for db in proj.iter() {
            assert!(db.relation(r(1)).is_none());
            assert_eq!(db.relation(r(2)).unwrap().len(), 1);
        }
    }

    #[test]
    fn composition_applies_left_to_right() {
        // first copy R1 into R2, then ask for the glb — not the same as the
        // other order (Lemma 2.1 explores this in depth).
        let t = Transformer::new();
        let phi =
            Sentence::new(forall([1], implies(atom(1, [var(1)]), atom(2, [var(1)])))).unwrap();
        let expr = Transform::insert(phi).then(Transform::Glb);
        let result = t.apply(&expr, &space_kb()).unwrap();
        assert!(result.kb.is_singleton());
        assert_eq!(result.stats.operators, 2);
        assert_eq!(result.stats.updates, 2);
    }

    #[test]
    fn identity_returns_the_input() {
        let t = Transformer::new();
        let kb = space_kb();
        assert_eq!(t.apply(&Transform::Identity, &kb).unwrap().kb, kb);
    }

    #[test]
    fn world_limit_is_enforced() {
        let opts = EvalOptions {
            max_worlds: 1,
            ..EvalOptions::default()
        };
        let t = Transformer::with_options(opts);
        // inserting a disjunction into a singleton creates two worlds > limit
        let db = DatabaseBuilder::new().fact(r(1), [1u32]).build().unwrap();
        let kb = Knowledgebase::singleton(db);
        let phi = Sentence::new(or(atom(1, [cst(2)]), atom(1, [cst(3)]))).unwrap();
        assert!(matches!(
            t.insert(&phi, &kb),
            Err(CoreError::TooManyWorlds { .. })
        ));
    }

    #[test]
    fn incremental_chain_matches_from_scratch_and_reuses_facts() {
        // TC sentence into R2, interleaved with ground edge insertions and
        // projections back onto R1 — the ST-style chain shape the
        // incremental session exists for.
        let tc = Sentence::new(and(
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
        .unwrap();
        let mut expr = Transform::Identity;
        for i in 0..5u32 {
            let grow = Sentence::new(atom(1, [cst(10 + i), cst(11 + i)])).unwrap();
            expr = expr
                .then(Transform::insert(grow))
                .then(Transform::insert(tc.clone()))
                .then(Transform::project([r(1)]));
        }
        let kb = Knowledgebase::singleton(
            DatabaseBuilder::new()
                .fact(r(1), [1u32, 2])
                .fact(r(1), [2u32, 3])
                .build()
                .unwrap(),
        );

        let incremental = Transformer::new()
            .apply_with_chain(&expr, &kb, &mut None)
            .unwrap();
        let from_scratch = fold(&expr, &kb);

        assert_eq!(incremental.kb, from_scratch.kb);
        assert_eq!(incremental.stats.updates, from_scratch.stats.updates);
        assert!(
            incremental.stats.reused_facts > 0,
            "the chain must reuse engine facts, stats: {:?}",
            incremental.stats
        );
        assert_eq!(from_scratch.stats.reused_facts, 0);
        assert!(
            incremental.stats.tuples_scanned < from_scratch.stats.tuples_scanned,
            "incremental ({}) must scan fewer tuples than from-scratch ({})",
            incremental.stats.tuples_scanned,
            from_scratch.stats.tuples_scanned
        );
    }

    #[test]
    fn external_chain_slot_reuses_engine_state_across_apply_calls() {
        // The service commit pipeline shape: one registered expression,
        // re-applied to a slowly growing knowledgebase, with a caller-owned
        // chain slot.  The second application must reuse the first one's
        // fixpoint (reused_facts > 0) and stay byte-identical to the
        // from-scratch evaluation.
        let tc = Sentence::new(and(
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
        .unwrap();
        let expr = Transform::insert(tc).then(Transform::project([r(1), r(2)]));
        let t = Transformer::new();
        let mut chain = None;

        let mut db = DatabaseBuilder::new()
            .fact(r(1), [1u32, 2])
            .fact(r(1), [2u32, 3])
            .build()
            .unwrap();
        let kb1 = Knowledgebase::singleton(db.clone());
        let first = t.apply_with_chain(&expr, &kb1, &mut chain).unwrap();
        assert_eq!(first.kb, t.apply(&expr, &kb1).unwrap().kb);
        assert!(chain.is_some(), "the slot must persist the session");

        // commit a delta, re-apply: the chain session advances by the diff
        db.insert_fact(r(1), kbt_data::tuple![3, 4]).unwrap();
        let kb2 = Knowledgebase::singleton(db);
        let second = t.apply_with_chain(&expr, &kb2, &mut chain).unwrap();
        assert_eq!(second.kb, t.apply(&expr, &kb2).unwrap().kb);
        assert!(
            second.stats.reused_facts > 0,
            "the second apply must reuse the persisted fixpoint, stats: {:?}",
            second.stats
        );
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

    fn edges(pairs: &[(u32, u32)]) -> Database {
        let mut b = DatabaseBuilder::new().relation(r(1), 2);
        for &(x, y) in pairs {
            b = b.fact(r(1), [x, y]);
        }
        b.build().unwrap()
    }

    #[test]
    fn a_resumed_slot_continues_the_chain_it_stands_for() {
        let expr = Transform::project([r(1)]).then(Transform::insert(tc_sentence()));
        let t = Transformer::new();
        let mut live = None;
        let kb = Knowledgebase::singleton(edges(&[(1, 2), (2, 3), (3, 4)]));
        let applied = t.apply_with_chain(&expr, &kb, &mut live).unwrap().kb;
        let mut resumed = t.resume_chain(&expr, &applied);
        assert!(resumed.is_some());

        let mut next = applied.as_singleton().unwrap().clone();
        next.insert_fact(r(1), kbt_data::tuple![4, 5]).unwrap();
        next.remove_fact(r(1), &kbt_data::tuple![1, 2]);
        let next = Knowledgebase::singleton(next);
        let want = t.apply_with_chain(&expr, &next, &mut live).unwrap();
        let got = t.apply_with_chain(&expr, &next, &mut resumed).unwrap();
        assert_eq!(got, want, "knowledgebase and statistics");
        assert!(got.stats.reused_facts > 0, "{:?}", got.stats);
    }

    #[test]
    fn resume_chain_refuses_what_it_cannot_stand_for() {
        let tc = || Transform::insert(tc_sentence());
        let kb = Knowledgebase::singleton(edges(&[(1, 2), (2, 3)]));
        let resumable = |t: &Transformer, expr: &Transform, kb: &Knowledgebase| {
            let applied = t.apply_with_chain(expr, kb, &mut None).unwrap().kb;
            t.resume_chain(expr, &applied).is_some()
        };
        let auto = Transformer::new();
        let chained = Transform::project([r(1)]).then(tc());
        assert!(resumable(&auto, &chained, &kb));
        // a projection after the insertion
        let projected = chained.clone().then(Transform::project([r(1), r(2)]));
        assert!(!resumable(&auto, &projected, &kb));
        // a head the projection keeps
        let keeps_head = Transform::project([r(1), r(2)]).then(tc());
        assert!(!resumable(&auto, &keeps_head, &kb));
        // two worlds
        let two = Knowledgebase::from_databases([edges(&[(1, 2)]), edges(&[(2, 3)])]).unwrap();
        assert!(!resumable(&auto, &chained, &two));
        // a strategy that never takes the fast path
        let grounding = Transformer::with_options(EvalOptions::with_strategy(Strategy::Grounding));
        assert!(!resumable(&grounding, &chained, &kb));
        // a knowledgebase the insertion did not produce: no head to seat
        assert!(auto.resume_chain(&chained, &kb).is_none());
    }

    fn namer(rel: RelId) -> String {
        match rel.index() {
            1 => "edge".to_string(),
            2 => "path".to_string(),
            i => format!("R{i}"),
        }
    }

    #[test]
    fn profiled_apply_matches_plain_apply_and_collects_profiles() {
        let expr = Transform::insert(tc_sentence()).then(Transform::project([r(1), r(2)]));
        let kb = Knowledgebase::singleton(
            DatabaseBuilder::new()
                .fact(r(1), [1u32, 2])
                .fact(r(1), [2u32, 3])
                .fact(r(1), [3u32, 4])
                .build()
                .unwrap(),
        );
        let plain = Transformer::new().apply(&expr, &kb).unwrap();
        let mut view = View::profile(&namer);
        let profiled = Transformer::new()
            .apply_viewed(&expr, &kb, Some(&mut view))
            .unwrap();
        let profiles = view.rows;
        assert_eq!(profiled.kb, plain.kb);
        assert_eq!(profiled.stats, plain.stats);
        assert_eq!(profiles.len(), 2, "one profile per TC rule");
        assert!(profiles[0].rule.contains("path"));
        assert!(profiles.iter().any(|p| p.rounds > 1), "TC must iterate");
        let probes: usize = profiles.iter().map(|p| p.probes).sum();
        assert_eq!(probes, plain.stats.index_probes);
        let scanned: usize = profiles.iter().map(|p| p.scanned).sum();
        assert_eq!(scanned, plain.stats.tuples_scanned);
    }

    #[test]
    fn profiled_apply_matches_apply_and_the_chained_walk() {
        // the chain-shaped expression of the incremental test: profiled
        // results and statistics match `apply`'s, whose knowledgebase is the
        // chained walk's and the step-by-step fold's.
        let tc = tc_sentence();
        let mut expr = Transform::Identity;
        for i in 0..3u32 {
            let grow = Sentence::new(atom(1, [cst(10 + i), cst(11 + i)])).unwrap();
            expr = expr
                .then(Transform::insert(grow))
                .then(Transform::insert(tc.clone()))
                .then(Transform::project([r(1)]));
        }
        let kb = Knowledgebase::singleton(
            DatabaseBuilder::new()
                .fact(r(1), [1u32, 2])
                .build()
                .unwrap(),
        );
        let plain = Transformer::new().apply(&expr, &kb).unwrap();
        let chained = Transformer::new()
            .apply_with_chain(&expr, &kb, &mut None)
            .unwrap();
        let mut view = View::profile(&namer);
        let profiled = Transformer::new()
            .apply_viewed(&expr, &kb, Some(&mut view))
            .unwrap();
        assert_eq!(profiled, plain);
        assert_eq!(plain.kb, chained.kb);
        assert_eq!(plain.kb, fold(&expr, &kb).kb);
        assert!(chained.stats.reused_facts > 0, "{:?}", chained.stats);
        // π[R1] keeps no head of TC, so each pushed-down insertion runs no
        // rule at all
        assert!(view.rows.is_empty(), "{:?}", view.rows);
    }

    #[test]
    fn every_walk_but_a_chained_one_pushes_down() {
        // the closure of R1 into R2, read through R4(x) <- R2(x, 3)
        let phi = Sentence::new(and(
            and(
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
            ),
            forall([1], implies(atom(2, [var(1), cst(3)]), atom(4, [var(1)]))),
        ))
        .unwrap();
        let copy = Sentence::new(forall(
            [1, 2],
            implies(atom(1, [var(1), var(2)]), atom(5, [var(1), var(2)])),
        ))
        .unwrap();
        let mut b = DatabaseBuilder::new();
        for i in 1..8u32 {
            b = b.fact(r(1), [i, i + 1]);
        }
        let kb = Knowledgebase::singleton(b.build().unwrap());
        let profile = |expr: &Transform| {
            let mut view = View::profile(&namer);
            let result = Transformer::new()
                .apply_viewed(expr, &kb, Some(&mut view))
                .unwrap();
            let seeded = view.rows.iter().any(|p| p.rule.starts_with("seed "));
            (result, seeded)
        };

        // inserted once, after another Horn insertion: QUERY and PROFILE
        // both derive R2's demanded slice only
        let once = Transform::insert(copy)
            .then(Transform::insert(phi.clone()))
            .then(Transform::project([r(4)]));
        let queried = Transformer::new().apply(&once, &kb).unwrap();
        let (profiled, seeded) = profile(&once);
        assert_eq!(profiled, queried);
        assert!(seeded, "the profile must show the pushed-down plan");
        let full = Transformer::new().insert(&phi, &kb).unwrap();
        assert!(queried.stats.tuples_scanned < full.stats.tuples_scanned);

        // inserted twice: QUERY and PROFILE push both projections down, a
        // caller-owned slot chains the second insertion onto the first
        let twice = Transform::insert(phi.clone())
            .then(Transform::project([r(1)]))
            .then(Transform::insert(phi))
            .then(Transform::project([r(4)]));
        let queried = Transformer::new().apply(&twice, &kb).unwrap();
        let (profiled, seeded) = profile(&twice);
        assert_eq!(profiled, queried);
        assert!(seeded, "a repeated insertion is pushed down too");
        let chained = Transformer::new()
            .apply_with_chain(&twice, &kb, &mut None)
            .unwrap();
        assert_eq!(chained.kb, queried.kb);
        assert_eq!(chained.kb, fold(&twice, &kb).kb);
        assert!(chained.stats.reused_facts > 0, "{:?}", chained.stats);
    }

    #[test]
    fn explain_renders_plans_without_evaluating() {
        let expr = Transform::insert(tc_sentence())
            .then(Transform::Lub)
            .then(Transform::project([r(2)]));
        let kb = Knowledgebase::singleton(
            DatabaseBuilder::new()
                .fact(r(1), [1u32, 2])
                .build()
                .unwrap(),
        );
        let mut view = View::explain(&namer);
        let result = Transformer::new()
            .apply_viewed(&expr, &kb, Some(&mut view))
            .unwrap();
        assert_eq!((result.kb, result.stats), (kb, EvalStats::default()));
        let rows = view.rows;
        assert_eq!(rows.len(), 4, "two TC rules, lub, project");
        assert!(rows[0].plan.contains("scan"), "plan: {}", rows[0].plan);
        assert!(rows.iter().all(|p| p.elapsed_ns == 0 && p.derived == 0));
        assert_eq!(rows[2].rule, "lub");
        assert_eq!(rows[3].rule, "project(path)");
        assert_eq!(rows[3].plan, "strategy: lattice (no rule plan)");
    }

    #[test]
    fn empty_knowledgebase_stays_empty_under_insertion() {
        let t = Transformer::new();
        let phi = Sentence::new(atom(1, [cst(1)])).unwrap();
        let result = t.insert(&phi, &Knowledgebase::empty()).unwrap();
        assert!(result.kb.is_empty());
    }
}
