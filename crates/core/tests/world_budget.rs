//! The world budget bounds the work, not just the answer.
//!
//! `∀x. n(x) → (r(x) ∨ g(x) ∨ b(x))` over eight nodes has 3⁸ = 6 561
//! Winslett-minimal models: every node takes exactly one colour.  Under
//! `max_worlds: 2` the update must be refused — and refused after three of
//! them, not after all 6 561 have been enumerated, shrunk and blocked,
//! which is what comparing against the budget only *afterwards* costs (the
//! enumeration is exponential, the budget is there to stop it).  The work
//! is read off `kbt_solver::metrics()`.
//!
//! This binary holds exactly one `#[test]`: the solver's counters are
//! process-global, and a neighbour solving in parallel would be counted.

use kbt_core::update::grounding::grounding_update;
use kbt_core::{CoreError, EvalOptions};
use kbt_data::{Database, DatabaseBuilder, RelId};
use kbt_logic::builder::*;
use kbt_logic::Sentence;

const NODES: u32 = 8;
const BUDGET: usize = 2;

/// `n` = R1 holds the nodes; the colours are R2, R3, R4.
fn every_node_takes_a_colour() -> Sentence {
    let colours = or_all((2..=4).map(|c| atom(c, [var(1)])));
    Sentence::new(forall([1], implies(atom(1, [var(1)]), colours))).unwrap()
}

/// Runs the update under the budget and returns how many minimal sets the
/// solver enumerated for it.
fn minimal_models_enumerated(db: &Database) -> u64 {
    let options = EvalOptions {
        max_worlds: BUDGET,
        ..EvalOptions::default()
    };
    let enumerated = &kbt_solver::metrics().minimal_models_total;
    let before = enumerated.get();
    match grounding_update(&every_node_takes_a_colour(), db, &options) {
        Err(CoreError::TooManyWorlds { worlds, limit }) => {
            assert_eq!((worlds, limit), (BUDGET + 1, BUDGET));
        }
        other => panic!("expected TooManyWorlds, got {other:?}"),
    }
    enumerated.get() - before
}

#[test]
fn a_small_world_budget_stops_an_exponential_enumeration() {
    let nodes = DatabaseBuilder::new().facts(RelId::new(1), (1..=NODES).map(|i| [i]));

    // fresh colours: nothing stored needs to change (one flip-set, ∅), and
    // the 6 561 colourings are its new-parts — three are asked for
    let fresh = nodes.clone().build().unwrap();
    assert_eq!(minimal_models_enumerated(&fresh), 1 + 3);

    // stored (empty) colours: the colourings are 6 561 flip-sets — three
    // are asked for, and each has its one (empty) new-part
    let mut stored = nodes;
    for colour in 2..=4 {
        stored = stored.relation(RelId::new(colour), 1);
    }
    assert_eq!(minimal_models_enumerated(&stored.build().unwrap()), 3 + 3);
}
