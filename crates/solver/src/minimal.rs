//! Enumeration of subset-minimal models.
//!
//! The Winslett order minimises, per relation, the set of facts on which a
//! candidate database differs from the original database — i.e. a *set of
//! propositional variables* once the update has been grounded.
//! [`enumerate_minimal_models`] lists every ⊆-minimal projection of the
//! models onto such a set by the classical loop: find any model, *shrink* it
//! to a minimal one, *block* it (the clause `⋁_{v ∈ M} ¬v` removes exactly
//! the models whose projection contains `M`, hence no other minimal set),
//! repeat until nothing is left.
//!
//! The whole loop runs on one `Search`: the caller's assumptions are its
//! root level, every shrink step is a level pushed on and popped off the
//! same trail, and a blocking clause is attached in place.  Nothing is
//! cloned or rebuilt between steps, so a step costs the propagation it
//! causes and not a pass over the clause database.
//!
//! # Shrinking tests each candidate once
//!
//! A shrink step asks whether some model keeps everything outside the
//! current set `S` false and makes one more member `c` false.  If so, `S`
//! becomes that model's projection.  If not, `c` is *necessary* — and it
//! stays necessary however much further `S` shrinks, because a model that
//! has `c` false and everything outside a smaller `S' ⊆ S` false also has
//! everything outside `S` false, and there is none.  So a refuted candidate
//! is recorded, asserted true for the remaining steps (it is implied, and
//! propagates) and never tried again, and the loop ends after one test per
//! member of the first model's projection.  The literals outside `S` only
//! accumulate, so they live on one level that the steps extend rather than
//! re-assert.
//!
//! # What a root-level blocking clause may drop
//!
//! The enumeration returns to the root — clause units and the caller's
//! assumptions, never undone — before it blocks.  A literal `¬v` that is
//! false there is false for the rest of the call and is left out; what
//! remains is watched like any clause, or asserted if it is one literal, or
//! ends the enumeration if it is none (every remaining model would contain
//! the set just found).
//!
//! # Why model-then-shrink, and not a search that lands on a minimal model
//!
//! Deciding the minimised variables before all others, false first, makes
//! the first model of a complete chronological search lexicographically —
//! hence ⊆- — minimal, with no shrink at all; on the prototype of this
//! rewrite that was another 2× on the nine-node cover update (stage one
//! 55 → 28 µs).  It is not taken: the search must then refute what remains
//! of the formula under a *partial* assignment to the prefix, and without
//! clause learning it cannot do that for the pigeonhole-shaped remainder of
//! Example 7 — `examples::max_clique` was stopped after five minutes,
//! against 5.6 s before this module was rewritten and 0.3 s after.  The
//! shrink only ever asks questions under a *total* assignment to everything
//! outside `S`.

use std::collections::BTreeSet;

use crate::cnf::{BoolVar, Lit};
use crate::dpll::{Search, Solver};

/// Enumerates every subset-minimal projection of the models of
/// `solver ∧ assumptions` onto `minimize_vars`.
///
/// The caller's solver is left untouched (blocking clauses live in the
/// enumeration's own search state).  `limit` bounds the number of minimal
/// sets returned (`None` for all of them) and the work with it: the
/// enumeration stops after the `limit`-th set, it does not look for a
/// further one.
pub fn enumerate_minimal_models(
    solver: &Solver,
    minimize_vars: &[BoolVar],
    assumptions: &[Lit],
    limit: Option<usize>,
) -> Vec<BTreeSet<BoolVar>> {
    let mut results: Vec<BTreeSet<BoolVar>> = Vec::new();
    if limit == Some(0) {
        return results;
    }
    let named = minimize_vars
        .iter()
        .copied()
        .chain(assumptions.iter().map(|a| a.var));
    let mut search = Search::new(solver, named);
    // members of the current set not yet tested / just found false
    let mut untested: Vec<BoolVar> = Vec::with_capacity(minimize_vars.len());
    let mut dropped: Vec<BoolVar> = Vec::with_capacity(minimize_vars.len());

    let mut more = search.assume(assumptions.iter().copied());
    while more && search.search() {
        // any model; split the projection set by it
        untested.clear();
        dropped.clear();
        for &v in minimize_vars {
            if search.is_true(v) {
                untested.push(v);
            } else {
                dropped.push(v);
            }
        }
        search.backtrack(0);

        // the shrink level: everything outside the current set false,
        // every member found necessary true
        let shrink_level = search.push_level();
        let mut minimal = BTreeSet::new();
        let consistent = search.assume(dropped.iter().map(|v| v.negative()));
        debug_assert!(consistent, "the model just found has them false");
        while let Some(candidate) = untested.pop() {
            search.push_level();
            if search.assume([candidate.negative()]) && search.search() {
                // a smaller model: what it makes false leaves with the candidate
                dropped.clear();
                dropped.push(candidate);
                untested.retain(|&v| {
                    let stays = search.is_true(v);
                    if !stays {
                        dropped.push(v);
                    }
                    stays
                });
                search.backtrack(shrink_level);
                let consistent = search.assume(dropped.iter().map(|v| v.negative()));
                debug_assert!(consistent, "the model just found has them false");
            } else {
                search.backtrack(shrink_level);
                minimal.insert(candidate);
                let consistent = search.assume([candidate.positive()]);
                debug_assert!(consistent, "every model left has it true");
            }
        }
        search.backtrack(0);

        more = search.add_root_clause(minimal.iter().map(|v| v.negative()))
            && limit.is_none_or(|l| results.len() + 1 < l);
        results.push(minimal);
    }
    search.counters.minimal_models = results.len() as u64;
    crate::metrics::metrics().absorb(&search.counters);
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> BoolVar {
        BoolVar::new(i)
    }

    fn set(vars: &[u32]) -> BTreeSet<BoolVar> {
        vars.iter().map(|&i| v(i)).collect()
    }

    #[test]
    fn single_minimal_model_of_a_positive_clause_set() {
        // (a) ∧ (¬a ∨ b): unique minimal model over {a,b} is {a,b}.
        let mut s = Solver::new(2);
        s.add_clause(&[v(0).positive()]);
        s.add_clause(&[v(0).negative(), v(1).positive()]);
        let minimal = enumerate_minimal_models(&s, &[v(0), v(1)], &[], None);
        assert_eq!(minimal, vec![set(&[0, 1])]);
    }

    #[test]
    fn disjunction_yields_two_incomparable_minimal_models() {
        // (a ∨ b): minimal models over {a,b} are {a} and {b}.
        let mut s = Solver::new(2);
        s.add_clause(&[v(0).positive(), v(1).positive()]);
        let mut minimal = enumerate_minimal_models(&s, &[v(0), v(1)], &[], None);
        minimal.sort();
        assert_eq!(minimal, vec![set(&[0]), set(&[1])]);
    }

    #[test]
    fn empty_set_is_the_unique_minimal_model_when_feasible() {
        // (a ∨ ¬b): the all-false assignment works, so {} is the only minimal set.
        let mut s = Solver::new(2);
        s.add_clause(&[v(0).positive(), v(1).negative()]);
        let minimal = enumerate_minimal_models(&s, &[v(0), v(1)], &[], None);
        assert_eq!(minimal, vec![set(&[])]);
    }

    #[test]
    fn minimisation_is_projected_other_variables_are_existential() {
        // (a ∨ x) ∧ (¬x ∨ b) with minimisation over {a, b} only.
        // Models: x=true requires b; x=false requires a.  Minimal projections
        // over {a,b}: {} is impossible (x true forces b, x false forces a);
        // {a} (x=false) and {b} (x=true) are both minimal.
        let mut s = Solver::new(3);
        let (a, b, x) = (v(0), v(1), v(2));
        s.add_clause(&[a.positive(), x.positive()]);
        s.add_clause(&[x.negative(), b.positive()]);
        let mut minimal = enumerate_minimal_models(&s, &[a, b], &[], None);
        minimal.sort();
        assert_eq!(minimal, vec![set(&[0]), set(&[1])]);
    }

    #[test]
    fn assumptions_are_respected() {
        // (a ∨ b), assuming ¬a: only minimal model is {b}.
        let mut s = Solver::new(2);
        s.add_clause(&[v(0).positive(), v(1).positive()]);
        let minimal = enumerate_minimal_models(&s, &[v(0), v(1)], &[v(0).negative()], None);
        assert_eq!(minimal, vec![set(&[1])]);
    }

    #[test]
    fn unsatisfiable_formula_has_no_minimal_models() {
        let mut s = Solver::new(1);
        s.add_clause(&[v(0).positive()]);
        s.add_clause(&[v(0).negative()]);
        assert!(enumerate_minimal_models(&s, &[v(0)], &[], None).is_empty());
    }

    #[test]
    fn limit_truncates_enumeration() {
        // (a ∨ b ∨ c) has three minimal models; ask for at most two.
        let mut s = Solver::new(3);
        s.add_clause(&[v(0).positive(), v(1).positive(), v(2).positive()]);
        let minimal = enumerate_minimal_models(&s, &[v(0), v(1), v(2)], &[], Some(2));
        assert_eq!(minimal.len(), 2);
    }

    #[test]
    fn agrees_with_brute_force_on_random_instances() {
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..20 {
            let num_vars = 5usize;
            let mut s = Solver::new(num_vars);
            let mut clauses = Vec::new();
            for _ in 0..8 {
                let mut lits = Vec::new();
                for _ in 0..3 {
                    let var = (next() % num_vars as u64) as u32;
                    let pos = next() % 2 == 0;
                    lits.push(Lit::new(BoolVar::new(var), pos));
                }
                clauses.push(lits.clone());
                s.add_clause(&lits);
            }
            let all_vars: Vec<BoolVar> = (0..num_vars as u32).map(BoolVar::new).collect();

            // brute force: all models, then filter the subset-minimal ones
            let models: Vec<BTreeSet<BoolVar>> = (0..(1u32 << num_vars))
                .filter(|bits| {
                    clauses.iter().all(|c| {
                        c.iter()
                            .any(|l| l.satisfied_by(bits & (1 << l.var.index()) != 0))
                    })
                })
                .map(|bits| {
                    (0..num_vars as u32)
                        .filter(|i| bits & (1 << i) != 0)
                        .map(BoolVar::new)
                        .collect::<BTreeSet<_>>()
                })
                .collect();
            let mut expected: Vec<BTreeSet<BoolVar>> = models
                .iter()
                .filter(|m| !models.iter().any(|o| o != *m && o.is_subset(m)))
                .cloned()
                .collect();
            expected.sort();
            expected.dedup();

            let mut found = enumerate_minimal_models(&s, &all_vars, &[], None);
            found.sort();
            assert_eq!(found, expected);
        }
    }
}
