//! Evaluation options, strategies and statistics.

/// How the insertion operator `τ_φ` is evaluated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Pick the cheapest applicable strategy per sentence: `Datalog` when the
    /// sentence is a conjunction of Horn clauses over fresh head relations,
    /// `QuantifierFree` when it is ground, `Grounding` otherwise.
    #[default]
    Auto,
    /// Enumerate every candidate database over the active domain and keep the
    /// Winslett-minimal models (the literal form of definition (9)).
    /// Exponential in the number of candidate facts; used as ground truth in
    /// tests.
    Exhaustive,
    /// Ground the sentence, encode to CNF and enumerate subset-minimal models
    /// with the SAT substrate, in two stages mirroring the Winslett order.
    Grounding,
    /// The PTIME algorithm of Theorem 4.7: only the ground atoms mentioned in
    /// the sentence may change.
    QuantifierFree,
    /// The PTIME least-fixpoint algorithm of Theorem 4.8 for Horn sentences
    /// defining fresh relations.
    Datalog,
}

impl Strategy {
    /// A short human-readable name (used in error messages and benchmarks).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Auto => "Auto",
            Strategy::Exhaustive => "Exhaustive",
            Strategy::Grounding => "Grounding",
            Strategy::QuantifierFree => "QuantifierFree",
            Strategy::Datalog => "Datalog",
        }
    }
}

/// Options controlling transformation evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvalOptions {
    /// Strategy used for `τ_φ`.
    pub strategy: Strategy,
    /// Ceiling on the number of candidate ground atoms an update may need
    /// (relations of the result schema × tuples over the active domain).
    pub max_ground_atoms: usize,
    /// Ceiling on the number of possible worlds a knowledgebase may grow to.
    pub max_worlds: usize,
    /// Evaluation width of the Datalog fast path's fixpoint engine: `0`
    /// (the default) uses the process default — the `KBT_THREADS`
    /// environment variable when set, else the machine's available
    /// parallelism; `1` runs every round on the calling thread; larger values fan the
    /// engine's semi-naive rounds out over that many threads.  Fixpoints
    /// and statistics are byte-identical at every width (the engine merges
    /// private worker buffers deterministically), so this is purely a
    /// performance knob.
    pub threads: usize,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            strategy: Strategy::Auto,
            max_ground_atoms: 200_000,
            max_worlds: 100_000,
            threads: 0,
        }
    }
}

impl EvalOptions {
    /// Options with the given strategy and default limits.
    pub fn with_strategy(strategy: Strategy) -> Self {
        EvalOptions {
            strategy,
            ..EvalOptions::default()
        }
    }

    /// Options with the given evaluation width and defaults otherwise.
    pub fn with_threads(threads: usize) -> Self {
        EvalOptions {
            threads,
            ..EvalOptions::default()
        }
    }
}

/// Statistics accumulated while evaluating a transformation expression.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of `µ` evaluations actually run.  A `τ_φ` step on a
    /// multi-world knowledgebase runs one per group of worlds that agree on
    /// the domain and on `σ(φ)` (see [`crate::transformer`]), so this can be
    /// smaller than the number of worlds.
    pub updates: usize,
    /// Total number of candidate ground atoms considered across the `µ`
    /// evaluations counted in `updates`.
    pub candidate_atoms: usize,
    /// Total number of minimal models those `µ` evaluations produced (the
    /// answers replayed onto a group's other worlds are not counted again).
    pub minimal_models: usize,
    /// Number of operator applications (τ, ⊓, ⊔, π) evaluated.
    pub operators: usize,
    /// Fixpoint rounds performed by the Datalog fast path (all µ calls).
    pub fixpoint_iterations: usize,
    /// Hash-index probes performed by the evaluation engine.
    pub index_probes: usize,
    /// Tuples inspected by the evaluation engine's scans and probes.
    pub tuples_scanned: usize,
    /// Facts the incremental chain sessions carried over between `τ_φ`
    /// steps without recomputation (zero when evaluation ran from scratch).
    pub reused_facts: usize,
    /// Facts the incremental chain sessions restored through DRed
    /// rederivation.
    pub rederived_facts: usize,
}

impl EvalStats {
    /// Merges another statistics record into this one.
    pub fn absorb(&mut self, other: &EvalStats) {
        self.updates += other.updates;
        self.candidate_atoms += other.candidate_atoms;
        self.minimal_models += other.minimal_models;
        self.operators += other.operators;
        self.fixpoint_iterations += other.fixpoint_iterations;
        self.index_probes += other.index_probes;
        self.tuples_scanned += other.tuples_scanned;
        self.reused_facts += other.reused_facts;
        self.rederived_facts += other.rederived_facts;
    }

    /// Folds the engine statistics of one `µ` evaluation into this record.
    pub fn absorb_fixpoint(&mut self, fixpoint: &kbt_datalog::EvalStats) {
        self.fixpoint_iterations += fixpoint.iterations;
        self.index_probes += fixpoint.index_probes;
        self.tuples_scanned += fixpoint.tuples_scanned;
        self.reused_facts += fixpoint.reused_facts;
        self.rederived_facts += fixpoint.rederived_facts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let o = EvalOptions::default();
        assert_eq!(o.strategy, Strategy::Auto);
        assert!(o.max_ground_atoms > 0);
        assert!(o.max_worlds > 0);
        assert_eq!(Strategy::default(), Strategy::Auto);
    }

    #[test]
    fn stats_absorb_adds_fields() {
        let mut a = EvalStats {
            updates: 1,
            candidate_atoms: 10,
            minimal_models: 2,
            operators: 3,
            ..EvalStats::default()
        };
        let b = EvalStats {
            updates: 2,
            candidate_atoms: 5,
            minimal_models: 1,
            operators: 1,
            ..EvalStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.updates, 3);
        assert_eq!(a.candidate_atoms, 15);
        assert_eq!(a.minimal_models, 3);
        assert_eq!(a.operators, 4);
    }

    #[test]
    fn stats_absorb_fixpoint_maps_engine_counters() {
        let mut a = EvalStats::default();
        a.absorb_fixpoint(&kbt_datalog::EvalStats {
            iterations: 5,
            derived_facts: 100,
            strata: 1,
            index_probes: 42,
            tuples_scanned: 77,
            reused_facts: 9,
            rederived_facts: 2,
        });
        assert_eq!(a.fixpoint_iterations, 5);
        assert_eq!(a.index_probes, 42);
        assert_eq!(a.tuples_scanned, 77);
        assert_eq!(a.reused_facts, 9);
        assert_eq!(a.rederived_facts, 2);
    }

    #[test]
    fn strategy_names() {
        assert_eq!(Strategy::Grounding.name(), "Grounding");
        assert_eq!(Strategy::Auto.name(), "Auto");
    }
}
