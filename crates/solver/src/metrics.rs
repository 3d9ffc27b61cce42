//! Solver metrics on the process-wide [`kbt_obs::Registry`].
//!
//! Counts of work, not of time: a search tallies them in plain fields of
//! its own state (`Counters`) and the public entry points —
//! [`crate::Solver::solve`], [`crate::enumerate_minimal_models`] — add the
//! tally to the registry once per call, so the search loops touch no atomic.
//! Nothing here is read back by the solver.  The counts are a function of
//! the clauses and the question alone, so they repeat exactly from call to
//! call and can be held to a bound (`crates/bench/tests/solver_work_bound.rs`).

use std::sync::OnceLock;

use kbt_obs::{Counter, Registry};

/// Handles onto the solver's series in [`Registry::global`].
pub struct SolverMetrics {
    /// `kbt_solver_solves_total` — searches run: one per
    /// [`crate::Solver::solve`], and inside an enumeration one per minimal
    /// model looked for: one per set found, and one that finds none unless
    /// the last blocking clause already left nothing satisfiable.
    pub solves_total: Counter,
    /// `kbt_solver_decisions_total` — branching decisions taken.
    pub decisions_total: Counter,
    /// `kbt_solver_propagations_total` — assigned literals whose watch
    /// lists were walked.
    pub propagations_total: Counter,
    /// `kbt_solver_conflicts_total` — propagations that falsified a clause.
    pub conflicts_total: Counter,
    /// `kbt_solver_learned_clauses_total` — clauses learned from conflicts
    /// (one per conflict above the root, unit ones included).
    pub learned_clauses_total: Counter,
    /// `kbt_solver_minimal_models_total` — minimal sets returned by
    /// enumerations.
    pub minimal_models_total: Counter,
}

/// What one search has done so far; see the module docs.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Counters {
    pub(crate) solves: u64,
    pub(crate) decisions: u64,
    pub(crate) propagations: u64,
    pub(crate) conflicts: u64,
    pub(crate) learned_clauses: u64,
    pub(crate) minimal_models: u64,
}

impl SolverMetrics {
    /// Adds one finished public call's tally to the registry.
    pub(crate) fn absorb(&self, c: &Counters) {
        self.solves_total.add(c.solves);
        self.decisions_total.add(c.decisions);
        self.propagations_total.add(c.propagations);
        self.conflicts_total.add(c.conflicts);
        self.learned_clauses_total.add(c.learned_clauses);
        self.minimal_models_total.add(c.minimal_models);
    }
}

/// The solver's metric handles, registered once per process.  Calling this
/// eagerly (e.g. at service startup) makes every solver series visible to
/// scrapes before any update has been solved.
pub fn metrics() -> &'static SolverMetrics {
    static METRICS: OnceLock<SolverMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = Registry::global();
        for (name, help) in [
            (
                "kbt_solver_solves_total",
                "Searches run: satisfiability calls and minimal models looked for.",
            ),
            ("kbt_solver_decisions_total", "Branching decisions taken."),
            (
                "kbt_solver_propagations_total",
                "Assigned literals whose watch lists were walked.",
            ),
            (
                "kbt_solver_conflicts_total",
                "Propagations that falsified a clause.",
            ),
            (
                "kbt_solver_learned_clauses_total",
                "Clauses learned from conflicts.",
            ),
            (
                "kbt_solver_minimal_models_total",
                "Minimal sets returned by minimal-model enumerations.",
            ),
        ] {
            r.describe(name, help);
        }
        SolverMetrics {
            solves_total: r.counter("kbt_solver_solves_total"),
            decisions_total: r.counter("kbt_solver_decisions_total"),
            propagations_total: r.counter("kbt_solver_propagations_total"),
            conflicts_total: r.counter("kbt_solver_conflicts_total"),
            learned_clauses_total: r.counter("kbt_solver_learned_clauses_total"),
            minimal_models_total: r.counter("kbt_solver_minimal_models_total"),
        }
    })
}
