//! # kbt — Knowledgebase Transformations
//!
//! A faithful, executable reproduction of *Knowledgebase Transformations*
//! (Grahne, Mendelzon, Revesz; PODS 1992 / JCSS 54(1), 1997): a uniform
//! first-order query/update language over knowledgebases — finite sets of
//! relational databases — whose insertion operator `τ_φ` follows Winslett's
//! possible-models minimal-change semantics and satisfies the
//! Katsuno–Mendelzon update postulates.
//!
//! This facade crate re-exports the public API of the workspace crates:
//!
//! * [`data`] — constants, relations, databases, knowledgebases, the Winslett
//!   order (crate `kbt-data`),
//! * [`logic`] — function-free first-order logic with a parser, model
//!   checking and grounding (crate `kbt-logic`),
//! * [`solver`] — the propositional SAT substrate used for minimal-model
//!   enumeration (crate `kbt-solver`),
//! * [`engine`] — the fast-evaluation substrate: indexed relation storage
//!   (hash indexes per bound-column mask, built lazily), a join planner that
//!   compiles rule bodies into index-probe sequences, and a delta-aware
//!   semi-naive fixpoint driver with work counters (crate `kbt-engine`),
//! * [`datalog`] — the Datalog substrate used by the PTIME fast path and the
//!   fixpoint expressiveness results: Horn sentences to programs and the
//!   magic-sets rewrite; programs are evaluated by the engine, called
//!   directly, with the original nested-loop evaluators preserved as a
//!   cross-check oracle in `datalog::reference` (crate `kbt-datalog`),
//! * [`core`] — the transformation language itself: `τ`, `⊓`, `⊔`, `π`,
//!   transformation expressions, evaluation strategies, the KM postulates,
//!   and the paper's seven worked examples (crate `kbt-core`),
//! * [`reductions`] — executable versions of the paper's complexity
//!   reductions and expressiveness encodings (crate `kbt-reductions`).
//!
//! ## Quickstart
//!
//! The "robot vehicles orbiting Venus" example (Example 1.1 / Example 4 of
//! the paper): see `examples/quickstart.rs`, or the
//! [`core::examples`] module.
//!
//! ## Performance
//!
//! The Theorem 4.8 fast path (`Strategy::Datalog`, picked automatically for
//! Horn sentences over fresh head relations) runs on `kbt-engine`: the
//! least fixpoint is computed by semi-naive rounds whose joins are hash
//! index probes keyed by the binding patterns each rule body demands.  The
//! end-to-end benchmark (`bench/stackbench`, described in `bench/README.md`)
//! times it on its `closure_scan` workload (`engine.eval_ns`);
//! [`core::EvalStats`] and
//! [`engine::EngineStats`] expose iterations, index
//! probes and tuples scanned so regressions are observable.
//!
//! Composition chains get a second layer: repeated Horn `τ_φ` steps
//! applied through a caller-owned slot
//! ([`core::Transformer::apply_with_chain`], the service's `APPLY`) share a
//! persistent [`engine::IncrementalSession`] — the
//! diff between consecutive databases is fed into the live fixpoint
//! (semi-naive propagation for insertions, DRed overdelete/rederive for
//! deletions) instead of re-deriving it from scratch.  `stackbench`'s
//! `commit_stream` workload measures the win (`engine.delta_ns`);
//! `reused_facts` /
//! `rederived_facts` in the stats records make it observable per run.
//!
//! ## Serving
//!
//! [`service`] turns the library into a concurrent,
//! multi-session server: readers take `O(1)` MVCC snapshots of the
//! committed knowledgebase (the copy-on-write relations make this free)
//! and evaluate queries without ever blocking writers, while all mutation
//! serializes through a commit pipeline that publishes epochs atomically
//! and advances persistent incremental chain sessions per `APPLY`.  A
//! textual command language (`LOAD`, `ASSERT`, `RETRACT`, `DEFINE`,
//! `APPLY`, `QUERY`, `STATS`) fronts it, driven by the `kbt-shell` REPL /
//! batch runner; `stackbench`'s `commit_stream` workload measures reads
//! interleaved with commits (`service.read_typed_ns`,
//! `service.commit_apply_ns`, `service.commit_publish_ns`).
//!
//! The same language travels over TCP: `kbt-serve` is a std-only network
//! front (one thread per session, at most `--max-sessions` of them, with
//! explicit rejection at capacity, idle timeouts, graceful signal
//! shutdown) and `kbt-shell --connect host:port` runs the same scripts
//! remotely.  See the wire-protocol section of the
//! [`service`] crate docs for the framing and response
//! grammar; every `stackbench` workload drives a live `kbt-serve` over
//! loopback (`abox_read`: `read_p50_us`, `net.encode_ns_per_op`), and CI's
//! `e2e-net` job replays a golden session over a live socket.
//!
//! The engine's fixpoint rounds can also run **in parallel**:
//! [`core::EvalOptions::threads`] sets the
//! evaluation width (`0` = the process default — `KBT_THREADS` or the
//! machine's available parallelism; `1` = every round on the calling
//! thread).  The rounds fan out through the vendored `kbt-par` pool's
//! ordered `map`, with private per-task buffers merged in task order, so fixpoints *and*
//! statistics are byte-identical at every width — `stackbench` reports
//! width 2 against width 1 as `engine.eval_width2_ratio` (`closure_scan`).
//!
//! ## Observability
//!
//! [`obs`] is a std-only metrics layer: a registry of named
//! counters, gauges and log-scale latency histograms with mergeable
//! snapshots, a drop-timed span API, and structured text/JSON log sinks.
//! The engine, the `kbt-par` pool and the service layer are instrumented
//! with it; a running `kbt-serve` exposes everything through the
//! `METRICS` wire command as Prometheus-style text exposition, and
//! `kbt-serve --log-format {text,json} --slow-query-ms N` turns on
//! structured logging with a slow-query log.  The "Observability" section
//! of the [`service`] crate docs catalogues every metric
//! name.  Instrumentation never feeds back into evaluation: fixpoints and
//! `EngineStats` stay byte-identical at every width with metrics on or
//! off.

pub use kbt_core as core;
pub use kbt_data as data;
pub use kbt_datalog as datalog;
pub use kbt_engine as engine;
pub use kbt_logic as logic;
pub use kbt_obs as obs;
pub use kbt_par as par;
pub use kbt_reductions as reductions;
pub use kbt_service as service;
pub use kbt_solver as solver;

/// The most commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use kbt_core::{EvalOptions, Strategy, Transform, TransformResult, Transformer};
    pub use kbt_data::{
        Const, Database, DatabaseBuilder, Knowledgebase, KnowledgebaseBuilder, RelId, Relation,
        Schema, Tuple, Vocabulary,
    };
    pub use kbt_engine::EngineStats;
    pub use kbt_logic::{Formula, Sentence, Term, Var};
}
