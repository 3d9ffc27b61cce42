//! # kbt-solver — the propositional SAT substrate
//!
//! The update operator `τ_φ` of *Knowledgebase Transformations* asks for the
//! models of a sentence that are *closest* to a given database under the
//! Winslett order.  After grounding (see `kbt-logic::ground`) this becomes a
//! propositional problem: enumerate the truth assignments that satisfy a
//! Boolean formula and are subset-minimal over a designated set of variables.
//! This crate provides everything needed for that, built from scratch:
//!
//! * [`Lit`], [`Clause`], [`Cnf`] — CNF representation,
//! * [`circuit::Bool`] — Boolean circuits (the shape produced by grounding),
//! * [`tseitin`] — the Tseitin transformation from circuits to CNF,
//! * [`Solver`] — a clause database and the DPLL search over it: one trail,
//!   two watched literals per clause, assumptions ([`dpll`] lists what the
//!   search state keeps true),
//! * [`minimal`] — enumeration of subset-minimal models projected onto a
//!   chosen set of variables (the engine behind the two-stage minimisation of
//!   the Winslett order), run as levels pushed on and popped off that one
//!   trail,
//! * [`mod@metrics`] — counts of the work done (searches, decisions,
//!   propagations, conflicts, minimal models) on the process-wide registry.
//!
//! This loop *is* the paper's general case: every update outside the two
//! polynomial fragments (Theorems 4.7 and 4.8) is answered here.  The search
//! has no clause learning and no restarts — the grounded instances of
//! realistic active domains are a few hundred clauses — but it does not
//! re-read them: a step of the search costs the watch lists of the literals
//! it falsifies, and a step of the enumeration costs the propagation it
//! causes.  Two cheaper-looking searches were measured and rejected; [`dpll`]
//! (branching order) and [`minimal`] (model-then-shrink) record the numbers.
//! The solver also serves as the *independent baseline* for the Theorem 4.2
//! experiment (3CNF satisfiability via a transformation expression versus
//! direct DPLL).

pub mod circuit;
pub mod cnf;
pub mod dpll;
pub mod metrics;
pub mod minimal;
pub mod tseitin;

pub use circuit::Bool;
pub use cnf::{BoolVar, Clause, Cnf, Lit};
pub use dpll::{Model, SolveResult, Solver};
pub use metrics::{metrics, SolverMetrics};
pub use minimal::enumerate_minimal_models;
pub use tseitin::encode_circuit;
