//! The reference (oracle) evaluators: substitution-based nested-loop joins.
//!
//! These are the original naive and semi-naive evaluators of this crate,
//! kept as a cross-check oracle for the indexed engine: they share
//! no code with `kbt-engine`, so agreement between the two is strong
//! evidence of correctness.  The differential tests call them; production
//! paths go through [`crate::eval`].

use std::collections::{BTreeMap, BTreeSet};

use kbt_data::{Const, Database, Tuple};
use kbt_logic::{Atom, Rule, Term, Var};

use crate::eval::EvalStats;
use crate::{Program, Result};

type Subst = BTreeMap<Var, Const>;

/// Computes the least fixpoint of `program` over `edb` by naive nested-loop
/// evaluation (recompute everything each round).
pub fn reference_naive_eval(program: &Program, edb: &Database) -> Result<(Database, EvalStats)> {
    eval_with(program, edb, false)
}

/// Computes the least fixpoint of `program` over `edb` by semi-naive
/// nested-loop evaluation (only facts new in the previous round re-join),
/// without any indexing.
pub fn reference_semi_naive_eval(
    program: &Program,
    edb: &Database,
) -> Result<(Database, EvalStats)> {
    eval_with(program, edb, true)
}

fn eval_with(program: &Program, edb: &Database, semi_naive: bool) -> Result<(Database, EvalStats)> {
    let mut db = edb.clone();
    // make sure every relation of the program exists in the working database
    for (rel, arity) in program.schema().iter() {
        db.ensure_relation(rel, arity)
            .map_err(crate::DatalogError::Data)?;
    }
    let mut stats = EvalStats::default();
    // a program with no rules runs no round
    if !program.is_empty() {
        if semi_naive {
            semi_naive_rounds(program, &mut db, &mut stats);
        } else {
            naive_rounds(program, &mut db, &mut stats);
        }
    }
    Ok((db, stats))
}

fn naive_rounds(program: &Program, db: &mut Database, stats: &mut EvalStats) {
    loop {
        stats.iterations += 1;
        let mut new_facts: Vec<(kbt_data::RelId, Tuple)> = Vec::new();
        for rule in program.rules() {
            for fact in derive(rule, db, None, stats) {
                if !db.holds(rule.head.rel, &fact) {
                    new_facts.push((rule.head.rel, fact));
                }
            }
        }
        if new_facts.is_empty() {
            break;
        }
        for (rel, fact) in new_facts {
            if db.insert_fact(rel, fact).expect("arity checked by Program") {
                stats.derived_facts += 1;
            }
        }
    }
}

fn semi_naive_rounds(program: &Program, db: &mut Database, stats: &mut EvalStats) {
    // round 0: plain naive round to seed the deltas
    let mut delta: BTreeMap<kbt_data::RelId, BTreeSet<Tuple>> = BTreeMap::new();
    stats.iterations += 1;
    for rule in program.rules() {
        for fact in derive(rule, db, None, stats) {
            if !db.holds(rule.head.rel, &fact) {
                delta.entry(rule.head.rel).or_default().insert(fact);
            }
        }
    }
    commit(db, &delta, stats);

    let idb = program.idb_relations();
    while !delta.is_empty() {
        stats.iterations += 1;
        let mut next_delta: BTreeMap<kbt_data::RelId, BTreeSet<Tuple>> = BTreeMap::new();
        for rule in program.rules() {
            // for each body position holding an IDB relation with a delta,
            // evaluate the rule with that position restricted to the delta.
            for (pos, atom) in rule.body.iter().enumerate() {
                if !idb.contains(&atom.rel) {
                    continue;
                }
                let Some(d) = delta.get(&atom.rel) else {
                    continue;
                };
                if d.is_empty() {
                    continue;
                }
                for fact in derive(rule, db, Some((pos, d)), stats) {
                    if !db.holds(rule.head.rel, &fact) {
                        next_delta.entry(rule.head.rel).or_default().insert(fact);
                    }
                }
            }
        }
        commit(db, &next_delta, stats);
        delta = next_delta;
    }
}

fn commit(
    db: &mut Database,
    delta: &BTreeMap<kbt_data::RelId, BTreeSet<Tuple>>,
    stats: &mut EvalStats,
) {
    for (&rel, facts) in delta {
        for fact in facts {
            if db
                .insert_fact(rel, fact.clone())
                .expect("arity checked by Program")
            {
                stats.derived_facts += 1;
            }
        }
    }
}

/// Derives all head facts of `rule` against `db`.  When `delta_pos` is given,
/// the body literal at that position only ranges over the supplied delta
/// tuples (semi-naive evaluation).
fn derive(
    rule: &Rule,
    db: &Database,
    delta_pos: Option<(usize, &BTreeSet<Tuple>)>,
    stats: &mut EvalStats,
) -> BTreeSet<Tuple> {
    let mut out = BTreeSet::new();
    let mut subst = Subst::new();
    search(rule, db, delta_pos, 0, &mut subst, &mut out, stats);
    out
}

/// Joins the body atoms from position `depth` on, in textual order.
fn search(
    rule: &Rule,
    db: &Database,
    delta_pos: Option<(usize, &BTreeSet<Tuple>)>,
    depth: usize,
    subst: &mut Subst,
    out: &mut BTreeSet<Tuple>,
    stats: &mut EvalStats,
) {
    let Some(atom) = rule.body.get(depth) else {
        if let Some(fact) = instantiate(&rule.head, subst) {
            out.insert(fact);
        }
        return;
    };
    // candidate tuples: either the delta (for the designated position) or
    // the full relation.
    let iter: Box<dyn Iterator<Item = &[Const]>> = match delta_pos {
        Some((p, d)) if p == depth => Box::new(d.iter().map(Tuple::components)),
        _ => match db.relation(atom.rel) {
            Some(rel) => Box::new(rel.iter()),
            None => return,
        },
    };
    for row in iter {
        stats.tuples_scanned += 1;
        let mut bound: Vec<Var> = Vec::new();
        if unify(atom, row, subst, &mut bound) {
            search(rule, db, delta_pos, depth + 1, subst, out, stats);
        }
        for v in bound {
            subst.remove(&v);
        }
    }
}

/// Extends `subst` so that `atom` matches the row; records newly bound
/// variables in `bound`.  Returns `false` (and leaves `subst` extended with
/// whatever was bound so far — caller unbinds) on mismatch.
fn unify(atom: &Atom, row: &[Const], subst: &mut Subst, bound: &mut Vec<Var>) -> bool {
    if atom.arity() != row.len() {
        return false;
    }
    for (term, &value) in atom.terms.iter().zip(row) {
        match term {
            Term::Const(c) => {
                if *c != value {
                    return false;
                }
            }
            Term::Var(v) => match subst.get(v) {
                Some(&existing) => {
                    if existing != value {
                        return false;
                    }
                }
                None => {
                    subst.insert(*v, value);
                    bound.push(*v);
                }
            },
        }
    }
    true
}

fn instantiate(atom: &Atom, subst: &Subst) -> Option<Tuple> {
    let mut values = Vec::with_capacity(atom.arity());
    for term in &atom.terms {
        match term {
            Term::Const(c) => values.push(*c),
            Term::Var(v) => values.push(*subst.get(v)?),
        }
    }
    Some(Tuple::new(values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbt_data::{DatabaseBuilder, RelId};
    use kbt_logic::builder::var;

    fn r(i: u32) -> RelId {
        RelId::new(i)
    }

    fn tc_program() -> Program {
        let edge = |a, b| Atom::new(r(1), vec![a, b]);
        let path = |a, b| Atom::new(r(2), vec![a, b]);
        Program::new(vec![
            Rule::new(path(var(1), var(2)), vec![edge(var(1), var(2))]),
            Rule::new(
                path(var(1), var(3)),
                vec![path(var(1), var(2)), edge(var(2), var(3))],
            ),
        ])
        .unwrap()
    }

    fn chain_db(n: u32) -> Database {
        let mut b = DatabaseBuilder::new().relation(r(1), 2);
        for i in 1..n {
            b = b.fact(r(1), [i, i + 1]);
        }
        b.build().unwrap()
    }

    #[test]
    fn reference_evaluators_agree_with_each_other() {
        for n in 2..7 {
            let edb = chain_db(n);
            let (naive, _) = reference_naive_eval(&tc_program(), &edb).unwrap();
            let (semi, _) = reference_semi_naive_eval(&tc_program(), &edb).unwrap();
            assert_eq!(naive, semi, "disagreement on chain of length {n}");
        }
    }

    #[test]
    fn reference_counts_scanned_tuples() {
        let edb = chain_db(8);
        let (_, naive_stats) = reference_naive_eval(&tc_program(), &edb).unwrap();
        let (_, semi_stats) = reference_semi_naive_eval(&tc_program(), &edb).unwrap();
        assert!(naive_stats.tuples_scanned > 0);
        assert!(semi_stats.tuples_scanned > 0);
        assert!(
            semi_stats.tuples_scanned < naive_stats.tuples_scanned,
            "semi-naive must re-join less than naive"
        );
        // the reference evaluator performs no index probes by construction
        assert_eq!(naive_stats.index_probes, 0);
        assert_eq!(semi_stats.index_probes, 0);
    }
}
