//! The `µ` function — definition (9) of the paper.
//!
//! `µ(φ, db)` is the set of databases over the schema `s = σ(db) ∪ σ(φ)`,
//! with values restricted to the constants `B` appearing in `db` or `φ`, that
//! satisfy `φ` and are minimal in the Winslett order `≤_db`.
//!
//! Four interchangeable evaluators are provided (selected by
//! [`crate::Strategy`]); they are cross-checked against one another in the
//! test suites:
//!
//! * [`exhaustive`] — literal enumeration of the candidate space,
//! * [`grounding`] — SAT-based two-stage minimal-model enumeration,
//! * [`quantifier_free`] — the PTIME algorithm of Theorem 4.7,
//! * [`datalog`] — the PTIME least-fixpoint algorithm of Theorem 4.8.

pub mod datalog;
pub mod exhaustive;
pub mod grounding;
pub mod quantifier_free;
pub mod universe;

use std::collections::BTreeSet;

use kbt_data::{Const, Database};
use kbt_engine::{EngineStats, RuleProfile, View};
use kbt_logic::Sentence;

use crate::error::CoreError;
use crate::options::{EvalOptions, Strategy};
use crate::Result;

pub use universe::UpdateContext;

/// The result of one `µ(φ, db)` evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// The Winslett-minimal models of `φ` closest to the input database.
    pub databases: Vec<Database>,
    /// Size of the candidate-fact universe that was considered (0 when a
    /// fast path avoided materialising it).
    pub candidate_atoms: usize,
    /// Engine statistics of the least-fixpoint computation, when the Datalog
    /// fast path ran.
    pub fixpoint: Option<EngineStats>,
}

/// Computes `µ(φ, db)` with the strategy selected in `options`, optionally
/// observed through `view`.
///
/// Only the Datalog fast path has rule plans to record (see
/// [`datalog::datalog_update`]); under a profiling view every other
/// strategy runs unchanged and records nothing, and under a plan-only view
/// it records one descriptive row and evaluates nothing (the outcome is
/// then empty).  The outcome of an evaluating call never depends on the
/// view.
pub fn minimal_update(
    phi: &Sentence,
    db: &Database,
    options: &EvalOptions,
    view: Option<&mut View<'_>>,
) -> Result<UpdateOutcome> {
    minimal_update_over(phi, db, None, options, view)
}

/// [`minimal_update`], handed the domain `db.constants() ∪ φ.constants()`
/// when the caller has already computed it (a multi-world step groups its
/// worlds by it); the grounding strategy then grounds over it instead of
/// computing it again.
pub(crate) fn minimal_update_over(
    phi: &Sentence,
    db: &Database,
    domain: Option<BTreeSet<Const>>,
    options: &EvalOptions,
    view: Option<&mut View<'_>>,
) -> Result<UpdateOutcome> {
    if let Some(step) = fast_path(phi, db, options) {
        return datalog::datalog_update(&step?, db, options, view);
    }
    let strategy = match options.strategy {
        Strategy::Datalog => {
            return Err(CoreError::StrategyNotApplicable {
                strategy: "Datalog",
                reason: "the sentence is not a conjunction of safe Horn clauses over fresh head \
                         relations"
                    .to_string(),
            })
        }
        Strategy::Auto if kbt_logic::is_ground(phi.formula()) => Strategy::QuantifierFree,
        Strategy::Auto => Strategy::Grounding,
        chosen => chosen,
    };
    let name = match strategy {
        Strategy::Exhaustive => "exhaustive",
        Strategy::QuantifierFree => "quantifier-free",
        _ => "grounding",
    };
    if let Some(view) = view.filter(|v| !v.runs()) {
        view.rows.push(operator_row(format!("insert {phi}"), name));
        return Ok(UpdateOutcome {
            databases: Vec::new(),
            candidate_atoms: 0,
            fixpoint: None,
        });
    }
    match strategy {
        Strategy::Exhaustive => exhaustive::exhaustive_update(phi, db, options),
        Strategy::QuantifierFree => quantifier_free::quantifier_free_update(phi, db, options),
        _ => {
            let domain = domain.unwrap_or_else(|| universe::domain_of(db, &phi.constants()));
            grounding::grounding_update_over(phi, db, domain, options)
        }
    }
}

/// φ's step on `db` when the strategy `options` select evaluates `τ_φ`
/// there on the Datalog fast path ([`datalog::horn_step`]).
pub(crate) fn fast_path(
    phi: &Sentence,
    db: &Database,
    options: &EvalOptions,
) -> Option<Result<datalog::HornStep>> {
    match options.strategy {
        Strategy::Auto | Strategy::Datalog => datalog::horn_step(phi, db),
        _ => None,
    }
}

/// A descriptive plan row for an operator that has no Datalog rule plan.
pub(crate) fn operator_row(rule: String, strategy: &str) -> RuleProfile {
    RuleProfile {
        rule,
        plan: format!("strategy: {strategy} (no rule plan)"),
        rounds: 0,
        derived: 0,
        probes: 0,
        scanned: 0,
        elapsed_ns: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbt_data::{DatabaseBuilder, RelId};
    use kbt_logic::builder::*;

    fn r(i: u32) -> RelId {
        RelId::new(i)
    }

    /// Cross-check every strategy on instances small enough for the
    /// exhaustive reference evaluator.
    #[test]
    fn all_strategies_agree_on_small_instances() {
        // db over R1 = {(1,2)}; φ inserts a fresh unary relation R2 that must
        // contain every endpoint of R1: ∀x,y (R1(x,y) → R2(x) ∧ R2(y)).
        let db = DatabaseBuilder::new()
            .fact(r(1), [1u32, 2])
            .build()
            .unwrap();
        let phi = Sentence::new(forall(
            [1, 2],
            implies(
                atom(1, [var(1), var(2)]),
                and(atom(2, [var(1)]), atom(2, [var(2)])),
            ),
        ))
        .unwrap();

        let reference = exhaustive::exhaustive_update(&phi, &db, &EvalOptions::default())
            .unwrap()
            .databases;
        // (the conjunctive-head sentence is not Horn, so the Datalog strategy
        // is exercised separately in `update::datalog::tests`)
        for strategy in [Strategy::Grounding, Strategy::Auto] {
            let got = minimal_update(&phi, &db, &EvalOptions::with_strategy(strategy), None)
                .unwrap()
                .databases;
            let mut a = reference.clone();
            let mut b = got;
            a.sort();
            b.sort();
            assert_eq!(a, b, "strategy {:?} disagrees", strategy);
        }
    }

    #[test]
    fn the_datalog_strategy_refuses_what_is_not_a_horn_step() {
        // R2 is stored already, so the least fixpoint is not the update
        let db = DatabaseBuilder::new()
            .fact(r(1), [1u32])
            .relation(r(2), 1)
            .build()
            .unwrap();
        let phi =
            Sentence::new(forall([1], implies(atom(1, [var(1)]), atom(2, [var(1)])))).unwrap();
        let options = EvalOptions::with_strategy(Strategy::Datalog);
        assert!(matches!(
            minimal_update(&phi, &db, &options, None),
            Err(CoreError::StrategyNotApplicable {
                strategy: "Datalog",
                ..
            })
        ));
    }

    #[test]
    fn auto_uses_quantifier_free_for_ground_sentences() {
        let db = DatabaseBuilder::new().fact(r(1), [1u32]).build().unwrap();
        let phi = Sentence::new(or(atom(1, [cst(2)]), atom(1, [cst(3)]))).unwrap();
        let out = minimal_update(&phi, &db, &EvalOptions::default(), None).unwrap();
        // two incomparable minimal ways to satisfy the disjunction
        assert_eq!(out.databases.len(), 2);
    }
}
