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
//! This crate implements that substrate: conversion of Horn sentences into
//! programs, goal-directed rewriting (adornment and magic sets), and
//! bottom-up least-fixpoint evaluation over the relational substrate of
//! `kbt-data`.  It writes no rule type of its own: a rule is `kbt-logic`'s
//! [`Rule`] (its atom re-exported here as [`DlAtom`]), and a program is
//! `kbt-engine`'s checked [`Program`], the one place range restriction,
//! arities and the engine's width ceiling are checked.
//!
//! The rules are **positive Datalog**: a rule body is a list of atoms
//! ([`Rule::body`]), so a negated literal cannot be written and every
//! program is one stratum.  That is exactly the fragment of Theorem 4.8,
//! and every program the product evaluates comes from a Horn sentence
//! ([`program_from_sentence`]).  A stratified program is expressed in the
//! transformation language as a sequence of `τ` steps, one per stratum
//! (Section 2.1's remark); a step that negates is not Horn, so it goes
//! through grounding, not this crate.
//!
//! Evaluation is `kbt-engine`'s, called directly: the one-shot
//! [`kbt_engine::evaluate`] (optionally observed as an `EXPLAIN` or a
//! `PROFILE` through a [`kbt_engine::View`]) and the delta-driven
//! [`kbt_engine::IncrementalSession`]; an engine refusal is a
//! [`kbt_engine::EngineError`].  This crate keeps
//! [`semi_naive_eval_threads`], `evaluate` with nothing observed, under the
//! name the benchmarks call, and the original nested-loop
//! [`reference_naive_eval`] / [`reference_semi_naive_eval`] unchanged in
//! [`reference`](mod@reference) as the independent oracles the
//! differential tests hold the engine to.  Its one error of its own,
//! [`DatalogError::NotHorn`], says a sentence has no program.

pub mod adorn;
pub mod error;
pub mod eval;
pub mod from_logic;
pub mod magic;
pub mod metrics;
pub mod reference;
pub mod stratify;

pub use adorn::{adorn_program, AdornedPred, AdornedProgram, Adornment};
pub use error::DatalogError;
pub use eval::semi_naive_eval_threads;
pub use from_logic::program_from_sentence;
pub use kbt_engine::Program;
/// A rule's atom: [`kbt_logic::Atom`], under the name this crate's callers
/// use for it.
pub use kbt_logic::Atom as DlAtom;
pub use kbt_logic::Rule;
pub use magic::{demand_rewrite, magic_rewrite, DemandPlan, MagicName, MagicPlan};
pub use metrics::{metrics, DatalogMetrics};
pub use reference::{reference_naive_eval, reference_semi_naive_eval};
pub use stratify::stratify;
