//! # kbt-data — the relational substrate for knowledgebase transformations
//!
//! This crate implements the data model of Section 2 of *Knowledgebase
//! Transformations* (Grahne, Mendelzon, Revesz; PODS 1992 / JCSS 1997):
//!
//! * [`Const`] — domain elements `a_i` (interned, optionally named through a
//!   [`Vocabulary`]),
//! * [`Tuple`] — `k`-ary tuples of constants,
//! * [`Relation`] — finite sets of tuples of a fixed arity,
//! * [`Database`] — a finite relational structure: a mapping from relation
//!   symbols ([`RelId`]) to relations, interpreted under the closed world
//!   assumption,
//! * [`Knowledgebase`] — a finite set of databases over one [`Schema`],
//! * [`delta`] / [`order`] — componentwise symmetric differences and the
//!   Winslett possible-models partial order `≤_db` of Definition 2.1, which
//!   drives the minimal-change semantics of the update operator `τ_φ`.
//!
//! Everything is ordered deterministically so that databases and
//! knowledgebases have a canonical form, can be compared, hashed and printed
//! reproducibly, and so that set-of-databases semantics is exact.
//!
//! ## Storage layout
//!
//! Constants are interned `u32` ids ([`Const`]), and a [`Relation`] of arity
//! `k` stores its tuples as **one flat, arity-strided sorted run**: a single
//! `Vec<Const>` behind an `Arc`, in which row `i` occupies `rows[i*k .. (i+1)*k]`, rows
//! sorted lexicographically and deduplicated.  There is no per-tuple
//! allocation and no pointer tree — scans are linear walks over one
//! contiguous buffer, membership is a binary search over fixed-width row
//! chunks, and the set algebra runs as linear merges of sorted runs.
//! Cloning bumps the `Arc` (copy-on-write, O(1)); mutations unshare lazily
//! and no-op mutations never copy.  Zero-arity "flag" relations keep the
//! run empty and track presence in a separate length field.  A run also
//! carries what other layers build over its rows once it is shared (the
//! engine's hash indexes, [`Relation::cached`]), for exactly as long as
//! some clone holds it.
//!
//! [`Tuple`] survives as the boundary type — parsing, rendering, and the
//! public fact APIs speak owned tuples — while hot paths (the engine's
//! joins, diffs, and deltas) consume borrowed `&[Const]` row slices
//! straight out of the run via [`Relation::iter`] / [`Relation::as_rows`].
//! See the [`relation`] module docs for the full layout and
//! copy-on-write/unsharing rules.

pub mod builder;
pub mod database;
pub mod delta;
pub mod epoch;
pub mod error;
pub mod knowledgebase;
pub mod order;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod value;
pub mod vocabulary;

pub use builder::{DatabaseBuilder, KnowledgebaseBuilder};
pub use database::Database;
pub use delta::DatabaseDelta;
pub use epoch::{EpochCell, EpochId, Versioned};
pub use error::DataError;
pub use knowledgebase::Knowledgebase;
pub use order::{is_minimal, minimal_elements, winslett_leq, winslett_lt};
pub use relation::Relation;
pub use schema::{RelId, Schema};
pub use tuple::Tuple;
pub use value::Const;
pub use vocabulary::Vocabulary;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, DataError>;
