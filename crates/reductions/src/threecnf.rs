//! Theorem 4.2 — 3CNF satisfiability as a transformation expression.
//!
//! The paper reduces 3CNF satisfiability to the membership problem
//! `db ∈ π_3(τ_ψ(kb))`: the knowledgebase stores the clauses, the inserted
//! sentence forces a fresh relation `R2` to pick a truth value for every
//! variable and a fresh zero-ary flag `R3` to record whether some clause is
//! left unsatisfied; the minimality of `µ` makes the possible worlds range
//! over exactly the truth assignments, so the formula is satisfiable iff some
//! world ends with `R3` empty.
//!
//! **Encoding note.**  The paper stores each clause as a single 7-ary tuple
//! `(i, v1, s1, v2, s2, v3, s3)`; grounding the accompanying sentence then
//! instantiates a 10-variable quantifier block, which is far outside what a
//! general-purpose evaluator can materialise even for toy inputs.  We use the
//! equivalent *literal-table* encoding — a unary `Cl(c)` relation for clause
//! identifiers and a ternary `Lit(c, v, s)` relation with one row per literal
//! — which preserves the construction (assignment relation, violation flag,
//! one possible world per assignment, satisfiability read off the flag) while
//! keeping the largest quantifier block at three variables.  DESIGN.md
//! records this substitution.

use kbt_core::{Transform, Transformer};
use kbt_data::{Database, Knowledgebase, RelId};
use kbt_logic::builder::*;
use kbt_logic::Sentence;
use kbt_solver::{BoolVar, Lit, Solver};
use rand::prelude::IndexedRandom;
use rand::{Rng, RngExt};

/// The clause-identifier relation `Cl` (unary).
pub const CL: RelId = RelId::new(1);
/// The literal table `Lit(clause, variable, sign)` (ternary).
pub const LIT: RelId = RelId::new(2);
/// The assignment relation `R2(variable, value)` introduced by the update.
pub const ASSIGN: RelId = RelId::new(3);
/// The zero-ary violation flag `R3`.
pub const VIOLATED: RelId = RelId::new(4);

/// Constant used for the truth value "false".
pub const FALSE_VALUE: u32 = 1;
/// Constant used for the truth value "true".
pub const TRUE_VALUE: u32 = 2;

/// A single 3CNF clause: three literals `(variable, positive?)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Clause3 {
    /// The three literals of the clause.
    pub literals: [(u32, bool); 3],
}

/// A 3CNF formula.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreeCnf {
    /// Number of propositional variables (numbered `1..=num_vars`).
    pub num_vars: u32,
    /// The clauses.
    pub clauses: Vec<Clause3>,
}

impl ThreeCnf {
    /// Generates a random 3CNF instance with the given number of variables
    /// and clauses (the classic fixed-clause-length random model).
    pub fn random(num_vars: u32, num_clauses: usize, rng: &mut impl Rng) -> Self {
        assert!(num_vars >= 3, "need at least three variables");
        let vars: Vec<u32> = (1..=num_vars).collect();
        let clauses = (0..num_clauses)
            .map(|_| {
                let mut picked: Vec<u32> = Vec::new();
                while picked.len() < 3 {
                    let v = *vars.choose(rng).expect("non-empty");
                    if !picked.contains(&v) {
                        picked.push(v);
                    }
                }
                Clause3 {
                    literals: [
                        (picked[0], rng.random_bool(0.5)),
                        (picked[1], rng.random_bool(0.5)),
                        (picked[2], rng.random_bool(0.5)),
                    ],
                }
            })
            .collect();
        ThreeCnf { num_vars, clauses }
    }

    /// Evaluates the formula under an assignment (`assignment[v]` is the
    /// value of variable `v`; index 0 unused).
    pub fn evaluate(&self, assignment: &[bool]) -> bool {
        self.clauses.iter().all(|c| {
            c.literals
                .iter()
                .any(|&(v, positive)| assignment[v as usize] == positive)
        })
    }

    /// Brute-force satisfiability (for cross-checking small instances).
    pub fn brute_force_satisfiable(&self) -> bool {
        let n = self.num_vars as usize;
        (0..(1u64 << n)).any(|bits| {
            let assignment: Vec<bool> = std::iter::once(false)
                .chain((0..n).map(|i| bits & (1 << i) != 0))
                .collect();
            self.evaluate(&assignment)
        })
    }
}

/// Encodes a clause variable identifier as a domain constant (shifted past
/// the truth-value constants).
fn var_const(v: u32) -> u32 {
    2 + v
}

/// Encodes a clause identifier as a domain constant (shifted past the
/// truth-value and variable constants).
fn clause_const(cnf: &ThreeCnf, c: usize) -> u32 {
    2 + cnf.num_vars + 1 + c as u32
}

/// Builds the knowledgebase `kb = [(Cl, Lit)]` holding the clauses.
pub fn clause_database(cnf: &ThreeCnf) -> Database {
    let mut db = Database::new();
    db.ensure_relation(CL, 1).expect("fresh");
    db.ensure_relation(LIT, 3).expect("fresh");
    for (c, clause) in cnf.clauses.iter().enumerate() {
        let cc = clause_const(cnf, c);
        db.insert_fact(CL, kbt_data::tuple![cc]).expect("arity 1");
        for &(v, positive) in &clause.literals {
            let sign = if positive { TRUE_VALUE } else { FALSE_VALUE };
            db.insert_fact(LIT, kbt_data::tuple![cc, var_const(v), sign])
                .expect("arity 3");
        }
    }
    db
}

/// The sentence `ψ` of the reduction (adapted to the literal-table
/// encoding): every variable mentioned in some literal receives at least one
/// truth value, and every clause with no satisfied literal raises the flag.
pub fn reduction_sentence() -> Sentence {
    let assign_something = forall(
        [1, 2, 3],
        implies(
            atom(LIT.index(), [var(1), var(2), var(3)]),
            or(
                atom(ASSIGN.index(), [var(2), cst(FALSE_VALUE)]),
                atom(ASSIGN.index(), [var(2), cst(TRUE_VALUE)]),
            ),
        ),
    );
    // Without this conjunct a variable may receive *both* truth values,
    // which "satisfies" every clause mentioning it and lets unsatisfiable
    // instances end with the violation flag empty — the possible worlds must
    // range over genuine assignments, not over multivalued ones.
    let assign_functionally = forall(
        [1],
        not(and(
            atom(ASSIGN.index(), [var(1), cst(FALSE_VALUE)]),
            atom(ASSIGN.index(), [var(1), cst(TRUE_VALUE)]),
        )),
    );
    let flag_unsatisfied = forall(
        [1],
        implies(
            and(
                atom(CL.index(), [var(1)]),
                not(exists(
                    [2, 3],
                    and(
                        atom(LIT.index(), [var(1), var(2), var(3)]),
                        atom(ASSIGN.index(), [var(2), var(3)]),
                    ),
                )),
            ),
            atom(VIOLATED.index(), []),
        ),
    );
    Sentence::new(and_all([
        assign_something,
        assign_functionally,
        flag_unsatisfied,
    ]))
    .expect("closed")
}

/// The transformation expression `π_{R3} ∘ τ_ψ` of Theorem 4.2.
pub fn reduction_transform() -> Transform {
    Transform::insert(reduction_sentence()).then(Transform::project(vec![VIOLATED]))
}

/// Decides satisfiability of a 3CNF instance by evaluating the reduction
/// transformation: the instance is satisfiable iff some possible world of
/// the result leaves the violation flag empty.
pub fn satisfiable_via_transformation(t: &Transformer, cnf: &ThreeCnf) -> kbt_core::Result<bool> {
    let kb = Knowledgebase::singleton(clause_database(cnf));
    let result = t.apply(&reduction_transform(), &kb)?.kb;
    let sat = result
        .iter()
        .any(|db| db.relation(VIOLATED).is_none_or(|r| r.is_empty()));
    Ok(sat)
}

/// The independent baseline of the Theorem 4.2 experiment: DPLL over the
/// obvious CNF encoding, using the `kbt-solver` substrate.
pub fn satisfiable_via_dpll(cnf: &ThreeCnf) -> bool {
    let mut solver = Solver::new(cnf.num_vars as usize + 1);
    for clause in &cnf.clauses {
        let lits: Vec<Lit> = clause
            .literals
            .iter()
            .map(|&(v, positive)| Lit::new(BoolVar::new(v), positive))
            .collect();
        solver.add_clause(&lits);
    }
    solver.is_satisfiable()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cnf(clauses: &[[(u32, bool); 3]], num_vars: u32) -> ThreeCnf {
        ThreeCnf {
            num_vars,
            clauses: clauses
                .iter()
                .map(|&literals| Clause3 { literals })
                .collect(),
        }
    }

    #[test]
    fn dpll_baseline_matches_brute_force_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let instance = ThreeCnf::random(5, 21, &mut rng);
            assert_eq!(
                satisfiable_via_dpll(&instance),
                instance.brute_force_satisfiable()
            );
        }
    }

    #[test]
    fn transformation_decides_satisfiable_instances() {
        // (x1 ∨ x2 ∨ x3) ∧ (¬x1 ∨ ¬x2 ∨ x3)
        let instance = cnf(
            &[
                [(1, true), (2, true), (3, true)],
                [(1, false), (2, false), (3, true)],
            ],
            3,
        );
        assert!(instance.brute_force_satisfiable());
        let t = Transformer::new();
        assert!(satisfiable_via_transformation(&t, &instance).unwrap());
    }

    #[test]
    fn transformation_decides_unsatisfiable_instances() {
        // all eight sign patterns over three variables: unsatisfiable.
        let mut clauses = Vec::new();
        for bits in 0..8u32 {
            clauses.push([(1, bits & 1 != 0), (2, bits & 2 != 0), (3, bits & 4 != 0)]);
        }
        let instance = cnf(&clauses, 3);
        assert!(!instance.brute_force_satisfiable());
        let t = Transformer::new();
        assert!(!satisfiable_via_transformation(&t, &instance).unwrap());
    }

    #[test]
    fn transformation_and_dpll_agree_on_small_random_instances() {
        let mut rng = StdRng::seed_from_u64(99);
        let t = Transformer::new();
        let mut instances: Vec<ThreeCnf> =
            (0..3).map(|_| ThreeCnf::random(3, 6, &mut rng)).collect();
        // and three variables under two and three clauses
        let mut rng = StdRng::seed_from_u64(2024);
        instances.extend([2, 3].map(|clauses| ThreeCnf::random(3, clauses, &mut rng)));
        for instance in instances {
            assert_eq!(
                satisfiable_via_transformation(&t, &instance).unwrap(),
                satisfiable_via_dpll(&instance),
                "disagreement on {instance:?}"
            );
        }
    }

    #[test]
    fn clause_database_shape() {
        let instance = cnf(&[[(1, true), (2, false), (3, true)]], 3);
        let db = clause_database(&instance);
        assert_eq!(db.relation(CL).unwrap().len(), 1);
        assert_eq!(db.relation(LIT).unwrap().len(), 3);
    }
}
