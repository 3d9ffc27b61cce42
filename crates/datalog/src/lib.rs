//! # kbt-datalog — the Datalog substrate
//!
//! *Knowledgebase Transformations* leans on Datalog in two places:
//!
//! * **Theorem 4.8** — transformation expressions whose sentences are
//!   conjunctions of function-free Horn clauses ("Datalog-restricted"
//!   transformations) have PTIME data complexity, because inserting a Datalog
//!   program into an extensional database produces its unique least fixpoint;
//! * **Section 5 / Section 2.1** — every fixpoint query is expressible in the
//!   transformation language, and the iterative fixpoint of a *stratified*
//!   program is obtained by sequentially updating the database with the
//!   strata of the program.
//!
//! This crate implements that substrate from scratch: a rule/program
//! representation, safety (range-restriction) checking, stratification, and
//! bottom-up least-fixpoint evaluation over the relational substrate of
//! `kbt-data`.
//!
//! Evaluation is delegated to `kbt-engine` ([`lower`] maps the AST onto the
//! engine's slot-based IR).  The evaluator inventory is short on purpose:
//! [`semi_naive_eval_threads`] (delta-indexed semi-naive rounds over
//! hash-indexed storage; [`semi_naive_eval_viewed`] is the same run observed
//! as an `EXPLAIN` or a `PROFILE`) and the delta-driven [`IncrementalEval`]
//! session are the engine; the original nested-loop
//! [`reference_naive_eval`] / [`reference_semi_naive_eval`] survive
//! unchanged in [`reference`](mod@reference) as the independent oracles the
//! differential tests hold the engine to.

pub mod adorn;
pub mod ast;
pub mod error;
pub mod eval;
pub mod from_logic;
pub mod lower;
pub mod magic;
pub mod metrics;
pub mod reference;
pub mod stratify;

pub use adorn::{adorn_program, AdornedPred, AdornedProgram, Adornment};
pub use ast::{DlAtom, Literal, Program, Rule};
pub use error::DatalogError;
pub use eval::{
    idb_only, semi_naive_eval, semi_naive_eval_threads, semi_naive_eval_viewed, EvalStats,
    IncrementalEval,
};
pub use from_logic::{program_from_horn, program_from_sentence};
pub use kbt_engine::{RuleProfile, View};
pub use lower::{lower_program, lower_rule, lower_strata, render_rule};
pub use magic::{demand_rewrite, magic_rewrite, DemandPlan, MagicName, MagicPlan};
pub use metrics::{metrics, DatalogMetrics};
pub use reference::{reference_naive_eval, reference_semi_naive_eval};
pub use stratify::stratify;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, DatalogError>;
