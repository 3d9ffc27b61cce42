//! Enumeration of subset-minimal models.
//!
//! The Winslett order minimises, per relation, the set of facts on which a
//! candidate database differs from the original database — i.e. a *set of
//! propositional variables* once the update has been grounded.
//! [`enumerate_minimal_models`] lists every ⊆-minimal projection of the
//! models onto such a set by one search that lands on minimal models: find
//! the next model — its projection is minimal — *block* it (the clause
//! `⋁_{v ∈ M} ¬v` removes exactly the models whose projection contains `M`,
//! hence no other minimal set), repeat until nothing is left.
//!
//! The whole loop runs on one `Search`: the caller's assumptions are its
//! root level, each model is one search from the root, and a blocking
//! clause is attached in place.  Nothing is cloned or rebuilt between
//! models, and nothing is tested twice: there is no shrink step.
//!
//! # Why the model found is minimal
//!
//! The search decides the minimised variables `v₁ < v₂ < …` before any
//! other, in index order, false first ([`crate::dpll`]).  So a minimised
//! variable that ends up true was never decided: it was implied — by the
//! clauses, the root and the decisions before it on the trail, which are
//! all `¬vⱼ` with `j < i` (a decision takes the first open one).  Any model
//! that agrees with the one found on `v₁ … vᵢ₋₁` therefore has `vᵢ` true
//! too: the projection found is the *lexicographically least* one, reading
//! false before true in index order.  A lexicographically least set is
//! ⊆-minimal — a proper subset is lexicographically smaller, being false
//! at the first variable where the two differ and equal before it.
//!
//! Two things could break that argument, and neither does.  *Blocking
//! clauses* shrink the set of models, but only by models whose projection
//! contains a set already returned; a minimal set not yet returned contains
//! none (distinct minimal sets are incomparable), so the least model left
//! is still minimal among all models.  *Learned clauses* are resolved from
//! the clauses, the root and the blocking clauses present, so every model
//! left satisfies them: a learned clause cuts no model, however many levels
//! the search has jumped over since, and it stays for the rest of the call.
//!
//! The order needs clause learning: deciding a prefix false leaves the
//! search to refute the rest under a *partial* assignment, and on the
//! pigeonhole-shaped remainder of Example 7 (`examples::max_clique`) a
//! chronological search without learning did not come back in five
//! minutes.  With 1UIP learning its two tests take 0.14–0.17 s in a release
//! build, and each minimal model costs one search.
//!
//! # What a root-level blocking clause may drop
//!
//! The enumeration returns to the root — clause units, the caller's
//! assumptions and learned units, never undone — before it blocks.  A
//! literal `¬v` that is false there is false for the rest of the call and is
//! left out; what remains is watched like any clause, or asserted if it is
//! one literal, or ends the enumeration if it is none (every remaining model
//! would contain the set just found).

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
    let mut search = Search::new(solver, minimize_vars, assumptions.iter().map(|a| a.var));
    let mut more = search.assume(assumptions.iter().copied());
    while more && search.search() {
        // the lexicographically least model left: its projection is minimal
        let mut minimal: BTreeSet<BoolVar> = BTreeSet::new();
        minimal.extend(minimize_vars.iter().filter(|&&v| search.is_true(v)));
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
