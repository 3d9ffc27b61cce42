//! # kbt-core — the knowledgebase transformation language
//!
//! This crate is the primary contribution of the reproduced paper,
//! *Knowledgebase Transformations* (Grahne, Mendelzon, Revesz; PODS 1992 /
//! JCSS 1997): a language in which queries and updates on knowledgebases are
//! expressed uniformly as *transformations* `KB → KB`.
//!
//! The language has four operators (Section 2 of the paper):
//!
//! * [`Transform::Insert`] — `τ_φ`, "insert" an arbitrary first-order
//!   sentence `φ`.  For each database of the knowledgebase, keep the models
//!   of `φ` (over the active domain, on the schema `σ(db) ∪ σ(φ)`) that are
//!   closest to it in Winslett's possible-models order; the result is the
//!   union of those minimal models over all databases (definitions (9) and
//!   (10)).
//! * [`Transform::Glb`] — `⊓`, componentwise intersection of all databases.
//! * [`Transform::Lub`] — `⊔`, componentwise union of all databases.
//! * [`Transform::Project`] — `π`, projection of every database onto a set
//!   of relation symbols.
//!
//! Composition of these operators gives the transformation expressions `Θ`
//! whose complexity and expressive power Sections 4 and 5 analyse.
//!
//! ## Evaluation strategies
//!
//! [`Strategy`] selects how `τ_φ` is computed:
//!
//! * `Exhaustive` — enumerate every candidate database over the active
//!   domain; the executable form of definition (9), used as the ground truth
//!   in tests.
//! * `Grounding` — ground `φ`, encode to CNF, and enumerate subset-minimal
//!   models with the SAT substrate in two stages mirroring the Winslett
//!   order (first the changes to the stored relations, then the content of
//!   the new relations).  This is the default general-purpose evaluator.
//! * `QuantifierFree` — the PTIME algorithm of Theorem 4.7 for ground
//!   sentences.
//! * `Datalog` — the PTIME least-fixpoint algorithm of Theorem 4.8 for
//!   conjunctions of Horn clauses defining fresh relations.
//! * `Auto` — pick the cheapest applicable strategy.
//!
//! ## Paper artifacts
//!
//! * [`postulates`] — checkers for the eight Katsuno–Mendelzon update
//!   postulates of Theorem 2.1,
//! * [`examples`] — executable versions of the seven worked transformations
//!   of Section 3, the Lemma 2.1 counterexamples, and the "robot vehicles"
//!   scenario of the introduction,
//! * [`hypothetical`] — counterfactual (subjunctive) queries `A > B`
//!   expressed through nested updates, as in Example 4.

pub mod error;
pub mod examples;
pub mod hypothetical;
pub mod options;
pub mod postulates;
pub mod transform;
pub mod transformer;
pub mod update;

pub use error::CoreError;
pub use kbt_datalog::{RuleProfile, View};
pub use options::{EvalOptions, EvalStats, Strategy};
pub use transform::Transform;
pub use transformer::{TransformResult, Transformer};
pub use update::datalog::ChainSession;
pub use update::{minimal_update, UpdateOutcome};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CoreError>;
