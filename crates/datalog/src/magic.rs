//! The magic-sets program rewrite: goal-directed bottom-up evaluation.
//!
//! Given a query `reach('a', x)` over a positive program, the rewrite of
//! Bancilhon et al. produces a new program whose fixpoint derives **only**
//! the tuples demanded by the query, while remaining evaluable by the same
//! semi-naive bottom-up engine:
//!
//! * every reachable adorned predicate `p^a` with at least one bound
//!   position gets an **answer predicate** `p_a` and a **magic predicate**
//!   `m_p_a` holding the bound-argument combinations actually demanded;
//! * every adorned rule is **guarded**: `p_a(t̄) :- m_p_a(t̄|_b), body'`,
//!   where `body'` renames intensional subgoals to their adorned answer
//!   predicates;
//! * **magic rules** push demand sideways: for each intensional subgoal,
//!   the bound arguments it will be called with are derivable from the
//!   head's magic predicate plus the preceding body atoms;
//! * a **base-import rule** `p_a(x̄) :- m_p_a(x̄|_b), p(x̄)` lets stored
//!   facts of an intensional relation (the engine treats intensional
//!   relations with stored tuples as extra base facts) flow into the
//!   demanded slice;
//! * the query itself becomes one **seed fact** `m_q_a(c̄)`.
//!
//! [`magic_rewrite`] rewrites around one goal; [`demand_rewrite`] around
//! every relation a projection keeps, as all-free goals in one worklist —
//! the hypothetical read `tau[φ]; project[K]`, whose kept heads call the
//! rest of φ with whatever bindings their bodies carry.
//!
//! The rewritten program is positive like its input, so it evaluates as one
//! program, through the same engine call as any other.

use std::collections::{BTreeMap, BTreeSet};

use kbt_data::{Const, RelId};
use kbt_engine::EngineError;
use kbt_logic::{Atom, Rule, Term, Var};

use crate::adorn::{adorn_program, AdornedPred, AdornedProgram, Adornment};
use crate::Program;

/// Rendering metadata for one predicate invented by the rewrite.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MagicName {
    /// The original relation the predicate derives from.
    pub base: RelId,
    /// The adornment string (`"bf"`, …).
    pub adornment: String,
    /// `true` for the magic (demand) predicate, `false` for the answer
    /// predicate.
    pub magic: bool,
}

/// The output of [`magic_rewrite`]: a rewritten program plus everything the
/// caller needs to seed, evaluate, and read it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MagicPlan {
    /// The rewritten program.
    pub program: Program,
    /// The relation holding the query's answers in the rewritten fixpoint
    /// (filter it by the query's bound constants to obtain the answer set).
    pub answer: RelId,
    /// Seed facts to add to the extensional database before evaluating:
    /// the query's magic seed plus any constant-only demand facts.
    pub seeds: Vec<(RelId, Vec<Const>)>,
    /// Names for the invented predicates, for rendering plans and profiles.
    pub names: Vec<(RelId, MagicName)>,
    /// The query's binding pattern.
    pub pattern: Adornment,
}

impl MagicPlan {
    /// Renders an invented predicate through `base_namer`, falling back to
    /// `base_namer` directly for original relations: `reach_bf` for the
    /// answer predicate, `m_reach_bf` for the magic predicate.
    pub fn render_relation(&self, rel: RelId, base_namer: &dyn Fn(RelId) -> String) -> String {
        render(&self.names, rel, base_namer)
    }
}

/// The output of [`demand_rewrite`]: a rewritten program and its seeds.  It
/// has no single answer relation — each kept relation answers for itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DemandPlan {
    /// The rewritten program.
    pub program: Program,
    /// Seed facts to add to the extensional database before evaluating.
    pub seeds: Vec<(RelId, Vec<Const>)>,
    /// Names for the invented predicates, for rendering plans and profiles.
    pub names: Vec<(RelId, MagicName)>,
}

impl DemandPlan {
    /// Renders a relation of the plan, as [`MagicPlan::render_relation`].
    pub fn render_relation(&self, rel: RelId, base_namer: &dyn Fn(RelId) -> String) -> String {
        render(&self.names, rel, base_namer)
    }
}

fn render(
    names: &[(RelId, MagicName)],
    rel: RelId,
    base_namer: &dyn Fn(RelId) -> String,
) -> String {
    match names.iter().find(|(id, _)| *id == rel) {
        Some((_, name)) => {
            let base = base_namer(name.base);
            if name.magic {
                format!("m_{}_{}", base, name.adornment)
            } else {
                format!("{}_{}", base, name.adornment)
            }
        }
        None => base_namer(rel),
    }
}

/// Rewrites `program` around the query `rel(terms)` using magic sets.
///
/// `first_free` is the first relation index guaranteed unused by the caller
/// (typically the vocabulary's relation count); invented predicates are
/// allocated from `max(first_free, max index in program + 1)` upward.
///
/// With an all-free pattern the result is simply the reachable slice of the
/// original program (no magic predicates, `answer = rel`, no seeds).
pub fn magic_rewrite(
    program: &Program,
    rel: RelId,
    terms: &[Term],
    first_free: u32,
) -> Result<MagicPlan, EngineError> {
    let goal = AdornedPred {
        rel,
        adornment: Adornment::from_terms(terms),
    };
    let adorned = adorn_program(program, std::slice::from_ref(&goal));
    let consts: Vec<Const> = terms.iter().filter_map(|t| t.as_const()).collect();
    let (plan, answers) = rewrite(program, &adorned, &[(goal.clone(), consts)], first_free)?;
    Ok(MagicPlan {
        program: plan.program,
        answer: answers[0],
        seeds: plan.seeds,
        names: plan.names,
        pattern: goal.adornment,
    })
}

/// The push-down rewrite behind a hypothetical `tau[φ]; project[keep]`:
/// one rewrite of `program` with every relation of `keep` it defines as an
/// all-free goal, so the fixpoint derives only what those relations need —
/// bound calls they make further down are guarded and seeded as usual.
/// With no such goal the program is empty.
///
/// When some predicate is reached both all-free and bound, the guarded copy
/// would re-derive a slice of what the free copy derives in full — the
/// non-linear closure asked `reach(x0, x1)` and `reach(x, k)` at once does
/// both, 164–227 ms against 36–66 ms for no rewrite — so the plan is then
/// the plain reachable slice: the source rules of every reached relation.
pub fn demand_rewrite(
    program: &Program,
    keep: &[RelId],
    first_free: u32,
) -> Result<DemandPlan, EngineError> {
    let metrics = crate::metrics::metrics();
    let _span = metrics.demand_rewrite_ns.span();
    metrics.demand_rewrites_total.inc();
    let schema = program.schema();
    let idb = program.idb_relations();
    let goals: Vec<(AdornedPred, Vec<Const>)> = (keep.iter().filter(|r| idb.contains(r)))
        .map(|&rel| {
            let arity = schema.arity(rel).expect("a head of the program");
            let adornment = Adornment::new(vec![false; arity]);
            (AdornedPred { rel, adornment }, Vec::new())
        })
        .collect();
    let preds: Vec<AdornedPred> = goals.iter().map(|(goal, _)| goal.clone()).collect();
    let adorned = adorn_program(program, &preds);
    let free: BTreeSet<RelId> = (adorned.preds.iter())
        .filter(|p| p.adornment.is_all_free())
        .map(|p| p.rel)
        .collect();
    if (adorned.preds.iter()).any(|p| !p.adornment.is_all_free() && free.contains(&p.rel)) {
        let reached: BTreeSet<RelId> = adorned.preds.iter().map(|p| p.rel).collect();
        let slice = (program.rules().iter()).filter(|r| reached.contains(&r.head.rel));
        return Ok(DemandPlan {
            program: Program::new(slice.cloned().collect::<Vec<_>>())?,
            seeds: Vec::new(),
            names: Vec::new(),
        });
    }
    Ok(rewrite(program, &adorned, &goals, first_free)?.0)
}

/// The rewrite of `program`'s adorned slice around `goals`, each with the
/// constants at its bound positions (its seed), and the relation holding
/// each goal's answers.
fn rewrite(
    program: &Program,
    adorned: &AdornedProgram,
    goals: &[(AdornedPred, Vec<Const>)],
    first_free: u32,
) -> Result<(DemandPlan, Vec<RelId>), EngineError> {
    // Allocate answer/magic predicate ids for every bound adorned predicate.
    let mut next = first_free;
    for r in program.rules() {
        next = next.max(r.head.rel.index() + 1);
        for atom in &r.body {
            next = next.max(atom.rel.index() + 1);
        }
    }
    let mut ids: BTreeMap<AdornedPred, (RelId, RelId)> = BTreeMap::new();
    let mut names = Vec::new();
    for pred in &adorned.preds {
        if pred.adornment.is_all_free() {
            continue;
        }
        let ans = RelId::new(next);
        let magic = RelId::new(next + 1);
        next += 2;
        ids.insert(pred.clone(), (ans, magic));
        names.push((
            ans,
            MagicName {
                base: pred.rel,
                adornment: pred.adornment.to_string(),
                magic: false,
            },
        ));
        names.push((
            magic,
            MagicName {
                base: pred.rel,
                adornment: pred.adornment.to_string(),
                magic: true,
            },
        ));
    }

    // Renames an intensional subgoal to its answer predicate.
    let rename = |atom: &Atom, call: &Option<Adornment>| -> Atom {
        match call {
            Some(a) if !a.is_all_free() => {
                let pred = AdornedPred {
                    rel: atom.rel,
                    adornment: a.clone(),
                };
                Atom::new(ids[&pred].0, atom.terms.clone())
            }
            _ => atom.clone(),
        }
    };
    // The magic guard for a bound adorned head/subgoal: the atom's terms at
    // the adornment's bound positions.
    let magic_atom = |atom: &Atom, adornment: &Adornment, magic_rel: RelId| -> Atom {
        let bound_terms: Vec<Term> = atom
            .terms
            .iter()
            .enumerate()
            .filter(|(i, _)| adornment.is_bound(*i))
            .map(|(_, t)| *t)
            .collect();
        Atom::new(magic_rel, bound_terms)
    };

    let mut rules: Vec<Rule> = Vec::new();
    let mut seeds: Vec<(RelId, Vec<Const>)> = Vec::new();
    let mut seen_magic: BTreeSet<Rule> = BTreeSet::new();

    // Base-import rules: stored facts of each bound adorned predicate flow
    // into its demanded slice.
    for pred in &adorned.preds {
        if let Some((ans, magic)) = ids.get(pred) {
            let arity = pred.adornment.len();
            let fresh: Vec<Term> = (0..arity).map(|i| Term::Var(Var::new(i as u32))).collect();
            let head = Atom::new(*ans, fresh.clone());
            let guard = magic_atom(&head, &pred.adornment, *magic);
            rules.push(Rule::new(head, vec![guard, Atom::new(pred.rel, fresh)]));
        }
    }

    for ar in &adorned.rules {
        // Guarded adorned rule.
        let head_ids = ids.get(&ar.head);
        let head = match head_ids {
            Some((ans, _)) => Atom::new(*ans, ar.rule.head.terms.clone()),
            None => ar.rule.head.clone(),
        };
        let mut body = Vec::with_capacity(ar.body.len() + 1);
        if let Some((_, magic)) = head_ids {
            body.push(magic_atom(&ar.rule.head, &ar.head.adornment, *magic));
        }
        body.extend(ar.body.iter().map(|sub| rename(&sub.atom, &sub.call)));
        rules.push(Rule::new(head, body));

        // Magic (demand) rules: one per bound intensional subgoal, seeded
        // from the head's magic guard plus the preceding body atoms.
        for (j, sub) in ar.body.iter().enumerate() {
            let Some(call) = &sub.call else { continue };
            if call.is_all_free() {
                continue;
            }
            let callee = AdornedPred {
                rel: sub.atom.rel,
                adornment: call.clone(),
            };
            let m_head = magic_atom(&sub.atom, call, ids[&callee].1);
            let mut m_body = Vec::new();
            if let Some((_, magic)) = head_ids {
                m_body.push(magic_atom(&ar.rule.head, &ar.head.adornment, *magic));
            }
            m_body.extend(
                ar.body[..j]
                    .iter()
                    .map(|prev| rename(&prev.atom, &prev.call)),
            );
            if m_body.is_empty() {
                // No guard and no prefix: the demand is a ground fact.
                let consts: Vec<Const> = m_head.terms.iter().filter_map(|t| t.as_const()).collect();
                debug_assert_eq!(consts.len(), m_head.arity());
                seeds.push((m_head.rel, consts));
                continue;
            }
            // Skip the trivial self-demand m(x̄) :- m(x̄).
            if m_body.len() == 1 && m_body[0] == m_head {
                continue;
            }
            let m_rule = Rule::new(m_head, m_body);
            if seen_magic.insert(m_rule.clone()) {
                rules.push(m_rule);
            }
        }
    }

    // Seed each goal's own demand.
    let mut answers = Vec::with_capacity(goals.len());
    for (goal, consts) in goals {
        match ids.get(goal) {
            Some((ans, magic)) => {
                seeds.push((*magic, consts.clone()));
                answers.push(*ans);
            }
            None => answers.push(goal.rel),
        }
    }

    let plan = DemandPlan {
        program: Program::new(rules)?,
        seeds,
        names,
    };
    Ok((plan, answers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbt_data::{Database, Relation};
    use kbt_logic::builder::{cst, var};

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

    fn chain_edb(n: u32) -> Database {
        let mut edges = Relation::empty(2);
        for i in 0..n {
            edges.insert_row(&[Const::new(i), Const::new(i + 1)]);
        }
        let mut db = Database::new();
        db.set_relation(r(1), edges);
        db
    }

    /// Evaluates a magic plan over `edb` and reads the filtered answer.
    fn run_plan(plan: &MagicPlan, edb: &Database, terms: &[Term]) -> Relation {
        let mut db = edb.clone();
        for (rel, consts) in &plan.seeds {
            db.ensure_relation(*rel, consts.len()).unwrap();
            db.insert_fact(*rel, consts.clone().into()).unwrap();
        }
        let (fix, _) = kbt_engine::evaluate(&plan.program, &db, 1, None, None).unwrap();
        let arity = terms.len();
        let full = fix
            .relation(plan.answer)
            .cloned()
            .unwrap_or_else(|| Relation::empty(arity));
        let mut out = Relation::empty(arity);
        for row in full.iter() {
            let ok = terms
                .iter()
                .zip(row.iter())
                .all(|(t, c)| t.as_const().map(|q| q == *c).unwrap_or(true));
            if ok {
                out.insert_row(row);
            }
        }
        out
    }

    /// The materializing oracle: full fixpoint, then filter.
    fn oracle(program: &Program, edb: &Database, rel: RelId, terms: &[Term]) -> Relation {
        let (fix, _) = kbt_engine::evaluate(program, edb, 1, None, None).unwrap();
        let arity = terms.len();
        let full = fix
            .relation(rel)
            .cloned()
            .unwrap_or_else(|| Relation::empty(arity));
        let mut out = Relation::empty(arity);
        for row in full.iter() {
            let ok = terms
                .iter()
                .zip(row.iter())
                .all(|(t, c)| t.as_const().map(|q| q == *c).unwrap_or(true));
            if ok {
                out.insert_row(row);
            }
        }
        out
    }

    #[test]
    fn tc_point_query_matches_oracle_and_prunes() {
        let prog = tc_program();
        let edb = chain_edb(50);
        let terms = vec![cst(0), var(1)];
        let plan = magic_rewrite(&prog, r(2), &terms, 100).unwrap();
        assert_eq!(plan.pattern.to_string(), "bf");
        assert_eq!(plan.seeds.len(), 1);
        let got = run_plan(&plan, &edb, &terms);
        let want = oracle(&prog, &edb, r(2), &terms);
        assert_eq!(got, want);
        assert_eq!(got.len(), 50);

        // Demand-driven: querying the *last* node derives one suffix, not
        // the full quadratic closure.
        let terms = vec![cst(49), var(1)];
        let plan = magic_rewrite(&prog, r(2), &terms, 100).unwrap();
        let mut db = edb.clone();
        for (rel, consts) in &plan.seeds {
            db.ensure_relation(*rel, consts.len()).unwrap();
            db.insert_fact(*rel, consts.clone().into()).unwrap();
        }
        let (fix, _) = kbt_engine::evaluate(&plan.program, &db, 1, None, None).unwrap();
        let derived: usize = fix
            .relation(plan.answer)
            .map(|rl| rl.len())
            .unwrap_or_default();
        assert_eq!(derived, 1, "only the demanded suffix is derived");
    }

    #[test]
    fn bound_second_argument_works_too() {
        let prog = tc_program();
        let edb = chain_edb(30);
        let terms = vec![var(1), cst(30)];
        let plan = magic_rewrite(&prog, r(2), &terms, 100).unwrap();
        assert_eq!(plan.pattern.to_string(), "fb");
        let got = run_plan(&plan, &edb, &terms);
        let want = oracle(&prog, &edb, r(2), &terms);
        assert_eq!(got, want);
        assert_eq!(got.len(), 30);
    }

    #[test]
    fn fully_bound_membership_query() {
        let prog = tc_program();
        let edb = chain_edb(20);
        let terms = vec![cst(3), cst(17)];
        let plan = magic_rewrite(&prog, r(2), &terms, 100).unwrap();
        let got = run_plan(&plan, &edb, &terms);
        assert_eq!(got.len(), 1);
        let terms = vec![cst(17), cst(3)];
        let plan = magic_rewrite(&prog, r(2), &terms, 100).unwrap();
        let got = run_plan(&plan, &edb, &terms);
        assert_eq!(got.len(), 0);
    }

    #[test]
    fn all_free_pattern_is_the_program_slice() {
        let prog = tc_program();
        let terms = vec![var(1), var(2)];
        let plan = magic_rewrite(&prog, r(2), &terms, 100).unwrap();
        assert_eq!(plan.answer, r(2));
        assert!(plan.seeds.is_empty());
        assert_eq!(plan.program, prog);
    }

    #[test]
    fn stored_idb_facts_are_imported_under_the_guard() {
        // path has stored tuples besides its rules.
        let prog = tc_program();
        let mut edb = chain_edb(5);
        edb.ensure_relation(r(2), 2).unwrap();
        edb.insert_fact(r(2), vec![Const::new(100), Const::new(101)].into())
            .unwrap();
        edb.insert_fact(r(2), vec![Const::new(0), Const::new(100)].into())
            .unwrap();
        let terms = vec![cst(0), var(1)];
        let plan = magic_rewrite(&prog, r(2), &terms, 200).unwrap();
        let got = run_plan(&plan, &edb, &terms);
        let want = oracle(&prog, &edb, r(2), &terms);
        assert_eq!(got, want);
        // 0→1..5 via edges plus the stored 0→100 (the stored 100→101 path
        // fact cannot extend it: the recursive rule appends *edges*).
        assert_eq!(got.len(), 6);
    }

    #[test]
    fn extensional_query_rel_becomes_a_guarded_import() {
        let prog = tc_program();
        let edb = chain_edb(5);
        let terms = vec![cst(2), var(1)];
        let plan = magic_rewrite(&prog, r(1), &terms, 100).unwrap();
        let got = run_plan(&plan, &edb, &terms);
        assert_eq!(got.len(), 1);
        assert_eq!(got.row(0), &[Const::new(2), Const::new(3)]);
    }

    #[test]
    fn invented_predicates_render_stably() {
        let prog = tc_program();
        let terms = vec![cst(0), var(1)];
        let plan = magic_rewrite(&prog, r(2), &terms, 100).unwrap();
        let namer = |rel: RelId| {
            if rel == r(1) {
                "edge".to_string()
            } else if rel == r(2) {
                "path".to_string()
            } else {
                format!("R{}", rel.index())
            }
        };
        assert_eq!(plan.render_relation(plan.answer, &namer), "path_bf");
        let magic = plan.seeds[0].0;
        assert_eq!(plan.render_relation(magic, &namer), "m_path_bf");
        assert_eq!(plan.render_relation(r(1), &namer), "edge");
    }
}
