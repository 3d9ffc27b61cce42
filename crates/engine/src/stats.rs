//! Work counters reported by the engine.

/// Statistics accumulated over one [`crate::eval::evaluate`] call or one
/// delta application of an [`crate::IncrementalSession`].
///
/// The counters make the asymptotic claims of the paper observable: a
/// well-indexed semi-naive run touches a number of tuples proportional to
/// the output, while the naive oracle rescans whole relations each round.
/// For incremental runs, `reused_facts` vs `derived_facts + rederived_facts`
/// shows how much of the previous fixpoint survived a delta untouched.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Number of fixpoint rounds, summed over all strata (each stratum
    /// contributes at least one round, including the final empty one).
    pub iterations: usize,
    /// Number of facts newly derived for intensional relations.
    pub derived_facts: usize,
    /// Number of index probes (including full-tuple membership checks and
    /// negated-literal lookups).
    pub index_probes: usize,
    /// Number of candidate tuples iterated by scans and probe buckets.
    pub tuples_scanned: usize,
    /// Number of strata evaluated.
    pub strata: usize,
    /// Incremental only: facts of the previous fixpoint carried over into
    /// the new one without being touched by the delta application (neither
    /// removed nor overdeleted).
    pub reused_facts: usize,
    /// Incremental only: overdeleted facts restored by the DRed
    /// rederivation phase.
    pub rederived_facts: usize,
}

impl EngineStats {
    /// Adds another record's counters into this one (used by the
    /// incremental session to maintain lifetime totals next to per-delta
    /// figures).
    pub fn absorb(&mut self, other: &EngineStats) {
        self.iterations += other.iterations;
        self.derived_facts += other.derived_facts;
        self.index_probes += other.index_probes;
        self.tuples_scanned += other.tuples_scanned;
        self.strata += other.strata;
        self.reused_facts += other.reused_facts;
        self.rederived_facts += other.rederived_facts;
    }
}
