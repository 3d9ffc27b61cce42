//! # kbt-engine — indexed relation storage and join-planned fixpoint evaluation
//!
//! The PTIME results of *Knowledgebase Transformations* (Theorem 4.7 /
//! Theorem 4.8) hinge on least-fixpoint evaluation being cheap.  The naive
//! nested-loop evaluator in `kbt-datalog` is asymptotically polynomial but
//! scans whole relations per body atom; this crate supplies the substrate
//! that makes the fast path actually fast:
//!
//! * [`index::IndexedRelation`] / [`storage::IndexStorage`] — flat row
//!   storage: every relation keeps its tuples as arity-strided row slices
//!   (slot = row id) in two segments — the stored sorted run it was loaded
//!   from, shared and never copied, then a private `Vec<Const>` tail that
//!   evaluation appends to — with indexes keyed by *bound-column masks*,
//!   built lazily for exactly the `(relation, binding pattern)` pairs a
//!   rule body demands.  A stored run's indexes are cached on the run
//!   itself, so they are built once per run, not once per read; where its
//!   first column is dense, the sorted run is its own index for probes on
//!   its first one or two columns and for membership at arity ≤ 2, through
//!   one array of first-column offsets, and every other table is a chained
//!   hash table.  Keys over ≤ [`PACK_MAX`] bound columns pack injectively
//!   into a `u64` ([`fx::KeyAcc`]); wider patterns hash with verification.
//!   A probe is therefore allocation-free: pack the key on the stack, walk
//!   the bucket's slot range and borrowed id chains, verify candidates
//!   against `&[Const]` row slices straight out of storage.  Storage is
//!   **written in bulk and read back by merging**: one-shot evaluation
//!   loads only the relations its rules name (an `Arc` clone each — the
//!   membership table of a loaded relation is deferred until a plan or a
//!   write needs it; everything else in the database passes through as the
//!   `Arc` it is), each fixpoint round appends one sorted run per relation
//!   that is by construction disjoint from what is stored, the tail
//!   records the run boundaries, and the result is a k-way merge of them.
//!   Each derived fact is written once into its round's run and once into
//!   the tail.  A relation knows its contents in order one way — the last
//!   canonical run it handed out (a load is one) plus what the tail
//!   records since — so a snapshot costs one merge of what changed since
//!   the previous one.  Single-row writes and tombstoned removals with
//!   amortised compaction exist for the incremental session, which is the
//!   only caller that needs them;
//! * [`plan`] — a join planner that orders body atoms by bound-variable
//!   count and compiles every rule into a sequence of index probes instead
//!   of full scans, each step carrying its binding schedule — which columns
//!   bind which slots and which are checked — so the evaluator's registers
//!   are plain constants with no run-time "bound yet?" state;
//! * [`eval`] — a delta-aware semi-naive driver whose one `commit` runs a
//!   round, appends what it derived and hands the very same runs on as the
//!   next round's delta;
//! * [`EngineStats`] — iterations, derived facts, index probes and tuples
//!   scanned, so callers and benchmarks can see the work performed.
//!
//! There are exactly two evaluators here, and they are the product's only
//! evaluator API: the one-shot [`evaluate`] — one entry, one plan-and-run,
//! optionally observed through a [`View`] that turns the same run into an
//! `EXPLAIN` or a `PROFILE` (see [`profile`]) — and the delta-driven
//! [`IncrementalSession`] built on the same round driver.  `kbt-core`'s
//! fast path and chain sessions and `kbt-service`'s goal reads call them
//! directly, and an engine refusal reaches them as the [`EngineError`] it
//! is; `kbt-datalog` turns sentences into programs and rewrites them, and
//! evaluates nothing of its own.  The independent oracles the two are
//! tested against (naive and semi-naive nested-loop evaluators) live in
//! `kbt_datalog::reference`.
//!
//! Rounds can run **in parallel**: a width above 1 (see [`evaluate`]) fans
//! the independent (rule, plan) derivations of a round — chunked over each
//! plan's driving scan — out through `kbt-par`'s ordered
//! `map`.  Each task derives into a private buffer merged in task order, so
//! fixpoints *and statistics* are byte-identical at every width; `threads =
//! 1` runs the same tasks inline on the calling thread.  See the [`eval`]
//! module docs for the determinism argument.
//!
//! Rules are written one way: `kbt-logic`'s [`kbt_logic::Rule`], a head
//! atom and body atoms over variables and constants — what
//! [`kbt_logic::horn_clauses`] extracts from a sentence and what
//! `kbt-datalog`'s magic rewrite transforms.  [`Program::new`] checks a set
//! of them once (range restriction, one arity per relation, arity at most
//! [`MAX_ARITY`]), and a checked [`Program`] is the engine's only rule
//! input; the planner numbers each rule's variables into register slots
//! itself, and a slot exists only inside a compiled [`plan::Step`].  The
//! dependencies run one way: `kbt-datalog` depends on this crate, which
//! depends on `kbt-logic`.
//!
//! Rules are **positive Datalog**: a rule body is a list of atoms, so a
//! program is one stratum and [`evaluate`] and [`IncrementalSession`] each
//! take one [`Program`].  That is the paper's PTIME fragment
//! (Theorem 4.8: conjunctions of Horn clauses, whose bodies are positive),
//! and every program the product evaluates comes from such a sentence.  A
//! stratified program is expressed in the transformation language as a
//! sequence of `τ` steps (the remark in Section 2.1); a step that negates
//! is not Horn, so it goes through grounding, not this engine.

//! ## Incremental evaluation
//!
//! [`IncrementalSession`] keeps the indexed storage (tuples *and* built
//! indexes) alive across a chain of closely related databases and accepts
//! fact deltas instead of re-deriving every fixpoint from scratch:
//! insertions continue semi-naive propagation, deletions run DRed-style
//! overdeletion/rederivation — rederivation being one more plan per rule
//! (the body with the head's slots bound on entry), run by the same step
//! interpreter as every other plan.  Lifecycle:
//!
//! 1. [`IncrementalSession::new`] evaluates the program once and
//!    becomes the owner of the fixpoint ([`IncrementalSession::stats`]
//!    reports that initial evaluation).  Or
//!    [`IncrementalSession::from_fixpoint`] adopts a fixpoint derived
//!    before — a restarted service's, read back from its checkpoint —
//!    without evaluating: it loads and plans against the EDB (the
//!    fixpoint's relations other than the heads, which the EDB must not
//!    store) exactly as `new` does, demands what the plans look up, and
//!    seats each head on its derived run, so every later delta reports
//!    what it reports on a session `new` built over the same EDB.  The
//!    seeded heads are derived facts, not protected ones: DRed retracts
//!    them like any other.  The caller vouches that the database *is* the
//!    least fixpoint; the session cannot check it without the evaluation
//!    it exists to skip.
//! 2. Each [`IncrementalSession::insert_facts`] /
//!    [`IncrementalSession::remove_facts`] /
//!    [`IncrementalSession::apply_delta`] call mutates the *extensional*
//!    relations and restores the least fixpoint, returning per-call
//!    statistics (`reused_facts` / `rederived_facts` make the saved work
//!    observable).
//! 3. [`IncrementalSession::current`] materialises the maintained fixpoint;
//!    it is guaranteed byte-identical to a from-scratch [`evaluate`] over
//!    the mutated extensional database.
//!
//! Deltas may only touch extensional relations; mutating a derived relation
//! returns [`EngineError::IntensionalUpdate`].  A delta is checked whole
//! before any of it is applied: on error the session is unchanged.

pub mod error;
pub mod eval;
pub mod fx;
pub mod incremental;
pub mod index;
pub mod metrics;
pub mod plan;
pub mod profile;
pub mod program;
pub mod stats;
pub mod storage;
pub mod table;

pub use error::EngineError;
pub use eval::evaluate;
pub use fx::{FxBuild, FxHasher, KeyAcc, PACK_MAX};
pub use incremental::IncrementalSession;
pub use index::{IndexedRelation, Mask};
pub use metrics::{metrics, EngineMetrics};
pub use profile::{RuleProfile, View};
pub use program::{Program, MAX_ARITY};
pub use stats::EngineStats;
pub use storage::IndexStorage;
pub use table::SubsumptiveTable;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, EngineError>;
