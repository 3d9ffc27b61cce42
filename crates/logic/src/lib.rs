//! # kbt-logic — the first-order logic substrate
//!
//! Function-free first-order logic with equality, as defined in Section 2 of
//! *Knowledgebase Transformations*: the language `L` built from domain
//! elements, variables, relation symbols, `∧`, `¬`, `∃` and `=`.  On top of
//! the paper's minimal syntax this crate provides the usual derived
//! connectives (`∨`, `→`, `↔`, `∀`), a text parser, pretty-printing, and the
//! machinery needed by the transformation language:
//!
//! * [`eval`] — active-domain model checking, definitions (4)–(8) of the
//!   paper,
//! * [`ground`] — grounding of a sentence over a finite domain into a
//!   propositional formula over ground atoms (used by the SAT-based update
//!   evaluator and by the complexity experiments),
//! * [`classify`] — syntactic classification: ground / quantifier-free /
//!   existential / universal-Horn (the PTIME fragments of Theorems 4.7
//!   and 4.8),
//! * [`horn`] — Horn clauses as Datalog rules ([`Rule`], the one rule type
//!   of the workspace) and their extraction from sentences,
//! * [`nnf`] — negation normal form,
//! * [`parser`] — a small recursive-descent parser for a readable surface
//!   syntax.

pub mod builder;
pub mod classify;
pub mod error;
pub mod eval;
pub mod formula;
pub mod ground;
pub mod horn;
pub mod nnf;
pub mod parser;
pub mod pretty;
pub mod sentence;
pub mod term;
pub mod vars;

pub use builder::*;
pub use classify::{is_existential, is_ground, is_quantifier_free, FormulaClass};
pub use error::LogicError;
pub use eval::{satisfies, satisfies_with_domain, Interpretation};
pub use formula::Formula;
pub use ground::{ground_sentence, GroundAtom, GroundFormula};
pub use horn::{horn_clauses, Atom, Rule};
pub use parser::parse_formula;
pub use pretty::render;
pub use sentence::Sentence;
pub use term::{Term, Var};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LogicError>;
