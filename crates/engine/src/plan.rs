//! The join planner: compiles rule bodies into sequences of index probes.
//!
//! For each rule the planner orders the body greedily — at every step it
//! picks the positive atom with the most bound argument positions (constants
//! count as bound), breaking ties by preferring the relation with the
//! smallest cardinality at planning time (when the caller supplies sizes via
//! [`PlannedRule::plan_sized`]), interleaving negated literals as soon as
//! all their slots are bound so they prune as early as possible.  Each
//! chosen atom becomes one [`Step`]:
//!
//! * every position bound at that point contributes to the atom's *binding
//!   mask*, and the step becomes an index [`Step::Probe`] keyed by the bound
//!   columns;
//! * a fully bound atom degenerates to a membership test ([`Step::Member`]);
//! * an atom with no bound positions is a [`Step::Scan`] (this only happens
//!   for the first atom of a plan, or for genuinely cross-product rules).
//!
//! For semi-naive evaluation the planner additionally produces one *delta
//! variant* per positive occurrence of an intensional relation: that
//! occurrence is forced to the front as a scan of the delta relation, and
//! the rest of the body is re-planned greedily around the slots it binds.
//!
//! The same greedy order, started with the head's slots already bound, is a
//! *rederivation plan* ([`JoinPlan::head_bound`]): the incremental session
//! asks it whether one given head fact still has a derivation.
//!
//! Because the order is fixed, so is what every step does with its slots:
//! the planner knows which ones are bound before each atom, and compiles
//! that knowledge into the step ([`Schedule`]) — the evaluator never asks
//! at run time whether a slot is bound yet.

use std::collections::{BTreeMap, BTreeSet};

use kbt_data::RelId;

use crate::index::Mask;
use crate::ir::{Atom, Rule, Term};

/// Where a scan step reads its tuples from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// The full relation.
    Full,
    /// The delta of the current semi-naive round.
    Delta,
}

/// What a scan or probe does with each row it hands out, fixed at planning
/// time from the slots bound before its atom: the first occurrence of every
/// unbound slot *binds* it, and every other column is *checked* — against
/// its constant, or against a slot bound by an earlier step or earlier in
/// this atom (`reach#delta(s0, s0)` binds `s0` from column 0 and checks
/// column 1 against it).  Binds run before checks, so a check never reads a
/// slot that is not bound.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule {
    /// `(column, slot)`: the column's value goes into the slot.
    pub binds: Vec<(usize, usize)>,
    /// `(column, term)`: the column must equal the term's value.
    pub checks: Vec<(usize, Term)>,
}

impl Schedule {
    /// The schedule of `columns` with the slots in `bound` already bound.
    fn of(columns: impl IntoIterator<Item = (usize, Term)>, bound: &[bool]) -> Self {
        let mut schedule = Schedule::default();
        for (col, term) in columns {
            match term {
                Term::Slot(s) if !bound[s] && schedule.binds.iter().all(|&(_, b)| b != s) => {
                    schedule.binds.push((col, s))
                }
                _ => schedule.checks.push((col, term)),
            }
        }
        schedule
    }

    /// The number of columns the schedule covers.
    pub fn width(&self) -> usize {
        self.binds.len() + self.checks.len()
    }

    /// The `(column, term)` pairs the schedule was made from, in column
    /// order.
    pub fn columns(&self) -> Vec<(usize, Term)> {
        let binds = self.binds.iter().map(|&(col, s)| (col, Term::Slot(s)));
        let mut cols: Vec<(usize, Term)> = binds.chain(self.checks.iter().copied()).collect();
        cols.sort_by_key(|&(col, _)| col);
        cols
    }
}

/// One compiled join step.  Which slots a step binds, and which it only
/// reads, is fixed when it is planned: a probe's key and a membership
/// check's terms read slots bound before the step, and a scan or probe
/// binds and checks each row's remaining columns per its [`Schedule`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Iterate over every tuple of `rel` (from `source`), binding and
    /// checking each one's columns per `schedule` (a delta driver's
    /// constants and repeated slots are checks).
    Scan {
        /// The scanned relation.
        rel: RelId,
        /// Full relation or current delta.
        source: Source,
        /// What each row binds and checks, over every column.
        schedule: Schedule,
    },
    /// Probe the hash index of `rel` for `mask` with a key assembled from
    /// `key`, then bind and check the remaining columns per `schedule`.
    Probe {
        /// The probed relation.
        rel: RelId,
        /// The binding pattern of the probe.
        mask: Mask,
        /// Key parts in ascending column order (slots are bound).
        key: Vec<Term>,
        /// What each row binds and checks over the unbound columns: every
        /// check there is a slot this same atom repeats, since bound terms
        /// are part of the key.
        schedule: Schedule,
    },
    /// All columns bound: a single membership check.
    Member {
        /// The checked relation.
        rel: RelId,
        /// The fully bound argument terms.
        terms: Vec<Term>,
    },
    /// A negated literal with all slots bound: succeed iff absent.
    NegCheck {
        /// The negated relation.
        rel: RelId,
        /// The fully bound argument terms.
        terms: Vec<Term>,
    },
}

/// A fully ordered compilation of one rule body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinPlan {
    /// For delta variants, the body position driven by the delta.
    pub delta_pos: Option<usize>,
    /// How a head-bound plan ([`Self::head_bound`]) unifies the rule's head
    /// with the fact it is asked about — the slots its steps find bound on
    /// entry; empty for every other plan.
    pub entry: Schedule,
    /// The steps, in execution order.
    pub steps: Vec<Step>,
}

impl JoinPlan {
    /// The leading scan step and the remaining steps, when this plan is
    /// driven by a scan.  This is the decomposition the parallel evaluator
    /// chunks: the driving scan's tuple range is split across workers and
    /// the remaining steps run per worker.  Plans not led by a scan (first
    /// atom constant-bound, or a fact rule with no body) return `None` and
    /// run as a single unit of work.
    pub fn split_driving_scan(&self) -> Option<(&Step, &[Step])> {
        match self.steps.split_first() {
            Some((step @ Step::Scan { .. }, rest)) => Some((step, rest)),
            _ => None,
        }
    }
}

/// A rule with its full plan and one delta variant per IDB occurrence.
#[derive(Clone, Debug)]
pub struct PlannedRule {
    /// The head atom (slots are bound by the body plans).
    pub head: Atom,
    /// Number of register slots.
    pub slots: usize,
    /// The plan used by naive rounds and the semi-naive seeding round.
    pub full: JoinPlan,
    /// One variant per positive body occurrence of an IDB relation, with
    /// that occurrence scanning the delta.
    pub deltas: Vec<(RelId, JoinPlan)>,
    /// Provenance carried from [`Rule::name`]: the rule's source text in
    /// the caller's vocabulary, for plans and profiles.
    pub name: Option<String>,
}

impl PlannedRule {
    /// Plans `rule`, producing delta variants for positive occurrences of
    /// the relations in `idb`.
    pub fn plan(rule: &Rule, idb: &BTreeSet<RelId>) -> Self {
        PlannedRule::plan_sized(rule, idb, &BTreeMap::new())
    }

    /// Like [`Self::plan`], but with relation cardinalities known at
    /// planning time: ties on bound-position counts are broken towards the
    /// smaller relation (relations absent from `sizes` count as empty).
    pub fn plan_sized(rule: &Rule, idb: &BTreeSet<RelId>, sizes: &BTreeMap<RelId, usize>) -> Self {
        let unbound = BTreeSet::new();
        let full = plan_body(rule, &unbound, None, sizes);
        let deltas = rule
            .positive_atoms()
            .filter(|(_, atom)| idb.contains(&atom.rel))
            .map(|(pos, atom)| (atom.rel, plan_body(rule, &unbound, Some(pos), sizes)))
            .collect();
        PlannedRule {
            head: rule.head.clone(),
            slots: rule.slots,
            full,
            deltas,
            name: rule.name.clone(),
        }
    }

    /// Stable one-line rendering of the rule's plans: the head, the full
    /// plan, then one `Δrel:` section per delta variant.  `namer` maps
    /// relation ids into the caller's vocabulary (e.g. the service's
    /// relation names); the output is deterministic for a given plan, so
    /// it is safe to pin in golden tests and ship over the wire.
    pub fn render(&self, namer: &dyn Fn(RelId) -> String) -> String {
        let mut out = format!(
            "{} <- {}",
            render_app(&namer(self.head.rel), &self.head.terms),
            self.full.render(namer)
        );
        for (rel, plan) in &self.deltas {
            out.push_str(" | d");
            out.push_str(&namer(*rel));
            out.push_str(": ");
            out.push_str(&plan.render(namer));
        }
        out
    }

    /// Every step of every plan: the full plan, then each delta variant.
    /// What running them looks up — the index of a `Probe`, the membership
    /// table of a `Member` / `NegCheck` target — is demanded from these.
    pub(crate) fn steps(&self) -> impl Iterator<Item = &Step> {
        std::iter::once(&self.full)
            .chain(self.deltas.iter().map(|(_, p)| p))
            .flat_map(|plan| &plan.steps)
    }
}

/// Renders `name(t0, t1, …)` with the ir term syntax (`s0`, constants).
fn render_app(name: &str, terms: &[Term]) -> String {
    let args: Vec<String> = terms.iter().map(Term::to_string).collect();
    format!("{name}({})", args.join(", "))
}

impl JoinPlan {
    /// Plans `rule`'s body with **the head's slots bound on entry** — the
    /// rederivation plan.  Run with the head unified against a fact, it
    /// enumerates that fact's derivations (DRed's `rederive_p(x̄) :-
    /// overdel_p(x̄), body` with the overdeleted atom pre-bound), so atoms
    /// the head determines compile to probes and membership checks where
    /// the full plan scans.  `sizes` breaks greedy ties as in
    /// [`PlannedRule::plan_sized`].
    pub fn head_bound(rule: &Rule, sizes: &BTreeMap<RelId, usize>) -> Self {
        let entry = Schedule::of(
            rule.head.terms.iter().copied().enumerate(),
            &vec![false; rule.slots],
        );
        JoinPlan {
            entry,
            ..plan_body(rule, &rule.head.slots(), None, sizes)
        }
    }

    /// Stable one-line rendering of the steps in execution order, joined
    /// with `; `: `scan` (the driving scan, `#delta` for delta drivers),
    /// `probe` with its bound-column mask and key, `member`, and `absent`
    /// (negation).  Fact rules with no body render as `emit`.
    pub fn render(&self, namer: &dyn Fn(RelId) -> String) -> String {
        if self.steps.is_empty() {
            return "emit".to_string();
        }
        let steps: Vec<String> = self
            .steps
            .iter()
            .map(|step| match step {
                Step::Scan {
                    rel,
                    source,
                    schedule,
                } => {
                    let suffix = match source {
                        Source::Delta => "#delta",
                        Source::Full => "",
                    };
                    let terms: Vec<Term> = schedule.columns().into_iter().map(|(_, t)| t).collect();
                    format!("scan {}{suffix}{}", namer(*rel), render_app("", &terms))
                }
                Step::Probe {
                    rel,
                    mask,
                    key,
                    schedule,
                } => {
                    let width = key.len() + schedule.width();
                    let keys: Vec<String> = key.iter().map(Term::to_string).collect();
                    format!(
                        "probe {} mask=0b{mask:0width$b} key=({})",
                        namer(*rel),
                        keys.join(", ")
                    )
                }
                Step::Member { rel, terms } => {
                    format!("member {}{}", namer(*rel), render_app("", terms))
                }
                Step::NegCheck { rel, terms } => {
                    format!("absent {}{}", namer(*rel), render_app("", terms))
                }
            })
            .collect();
        steps.join("; ")
    }
}

/// Compiles one atom into a step given the currently bound slots.
fn compile_atom(atom: &Atom, bound: &[bool], source: Source) -> Step {
    let columns = || atom.terms.iter().copied().enumerate();
    if source == Source::Delta {
        // Delta drivers are always scans of the (small) delta relation;
        // constants and already-bound slots are checked per tuple.
        return Step::Scan {
            rel: atom.rel,
            source,
            schedule: Schedule::of(columns(), bound),
        };
    }
    let mut mask: Mask = 0;
    for (i, term) in atom.terms.iter().enumerate() {
        let is_bound = match term {
            Term::Const(_) => true,
            Term::Slot(s) => bound[*s],
        };
        if is_bound {
            mask |= 1 << i;
        }
    }
    let arity = atom.arity();
    if arity > 0 && mask == (Mask::MAX >> (Mask::BITS - arity as u32)) {
        return Step::Member {
            rel: atom.rel,
            terms: atom.terms.clone(),
        };
    }
    if arity == 0 {
        return Step::Member {
            rel: atom.rel,
            terms: Vec::new(),
        };
    }
    if mask == 0 {
        return Step::Scan {
            rel: atom.rel,
            source: Source::Full,
            schedule: Schedule::of(columns(), bound),
        };
    }
    let key = columns()
        .filter(|&(i, _)| mask >> i & 1 == 1)
        .map(|(_, t)| t)
        .collect();
    // constants are always in the key, so what is left are slots
    let unbound = columns().filter(|&(i, _)| mask >> i & 1 == 0);
    Step::Probe {
        rel: atom.rel,
        mask,
        key,
        schedule: Schedule::of(unbound, bound),
    }
}

/// Number of bound argument positions of `atom` under `bound`.
fn bound_positions(atom: &Atom, bound: &[bool]) -> usize {
    atom.terms
        .iter()
        .filter(|t| match t {
            Term::Const(_) => true,
            Term::Slot(s) => bound[*s],
        })
        .count()
}

fn mark_bound(atom: &Atom, bound: &mut [bool]) {
    for s in atom.slots() {
        bound[s] = true;
    }
}

/// Plans the body of `rule`; `entry` names the slots bound before the first
/// step runs (none, or the head's); `forced_first` names a body position
/// scanned from the delta and moved to the front; `sizes` supplies the
/// relation cardinalities used to break greedy ties.
fn plan_body(
    rule: &Rule,
    entry: &BTreeSet<usize>,
    forced_first: Option<usize>,
    sizes: &BTreeMap<RelId, usize>,
) -> JoinPlan {
    let mut bound: Vec<bool> = (0..rule.slots).map(|s| entry.contains(&s)).collect();
    let mut steps = Vec::with_capacity(rule.body.len());
    let mut scheduled = vec![false; rule.body.len()];

    if let Some(pos) = forced_first {
        let atom = &rule.body[pos].atom;
        debug_assert!(rule.body[pos].positive, "delta drivers are positive");
        steps.push(compile_atom(atom, &bound, Source::Delta));
        mark_bound(atom, &mut bound);
        scheduled[pos] = true;
    }

    loop {
        // Negated literals prune as soon as they are fully bound.
        let ready_negative = rule.body.iter().enumerate().position(|(i, l)| {
            !scheduled[i] && !l.positive && l.atom.slots().iter().all(|&s| bound[s])
        });
        if let Some(i) = ready_negative {
            steps.push(Step::NegCheck {
                rel: rule.body[i].atom.rel,
                terms: rule.body[i].atom.terms.clone(),
            });
            scheduled[i] = true;
            continue;
        }
        // Greedy: the positive atom with the most bound positions next;
        // ties go to the smallest relation (ROADMAP "join-order
        // statistics" — probing into fewer tuples first shrinks every
        // intermediate binding set downstream).
        let best = rule
            .body
            .iter()
            .enumerate()
            .filter(|(i, l)| !scheduled[*i] && l.positive)
            .max_by_key(|(i, l)| {
                (
                    bound_positions(&l.atom, &bound),
                    std::cmp::Reverse(sizes.get(&l.atom.rel).copied().unwrap_or(0)),
                    std::cmp::Reverse(l.atom.arity()),
                    std::cmp::Reverse(*i),
                )
            });
        let Some((i, lit)) = best else {
            break;
        };
        steps.push(compile_atom(&lit.atom, &bound, Source::Full));
        mark_bound(&lit.atom, &mut bound);
        scheduled[i] = true;
    }

    debug_assert!(
        scheduled.iter().all(|&s| s),
        "range restriction guarantees every literal is schedulable"
    );
    JoinPlan {
        delta_pos: forced_first,
        entry: Schedule::default(),
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Literal, Rule};
    use kbt_data::Const;

    fn r(i: u32) -> RelId {
        RelId::new(i)
    }

    fn s(i: usize) -> Term {
        Term::Slot(i)
    }

    /// path(x,z) :- path(x,y), edge(y,z).
    fn tc_recursive_rule() -> Rule {
        Rule::new(
            Atom::new(r(2), vec![s(0), s(2)]),
            vec![
                Literal::positive(Atom::new(r(2), vec![s(0), s(1)])),
                Literal::positive(Atom::new(r(1), vec![s(1), s(2)])),
            ],
        )
        .unwrap()
    }

    #[test]
    fn full_plan_scans_once_then_probes() {
        let idb = [r(2)].into_iter().collect();
        let planned = PlannedRule::plan(&tc_recursive_rule(), &idb);
        assert_eq!(planned.full.steps.len(), 2);
        assert!(matches!(
            planned.full.steps[0],
            Step::Scan {
                source: Source::Full,
                ..
            }
        ));
        // The second atom has its first column bound → probe with mask 0b01.
        assert!(matches!(
            planned.full.steps[1],
            Step::Probe { mask: 0b01, .. }
        ));
    }

    #[test]
    fn one_delta_variant_per_idb_occurrence() {
        let idb = [r(2)].into_iter().collect();
        let planned = PlannedRule::plan(&tc_recursive_rule(), &idb);
        assert_eq!(planned.deltas.len(), 1);
        let (drel, dplan) = &planned.deltas[0];
        assert_eq!(*drel, r(2));
        assert_eq!(dplan.delta_pos, Some(0));
        assert!(matches!(
            dplan.steps[0],
            Step::Scan {
                source: Source::Delta,
                ..
            }
        ));
        assert!(matches!(dplan.steps[1], Step::Probe { mask: 0b01, .. }));
    }

    #[test]
    fn plans_render_stably_with_names() {
        let idb = [r(2)].into_iter().collect();
        let planned = PlannedRule::plan(&tc_recursive_rule(), &idb);
        let namer = |rel: RelId| if rel == r(1) { "edge" } else { "path" }.to_string();
        assert_eq!(
            planned.render(&namer),
            "path(s0, s2) <- scan path(s0, s1); probe edge mask=0b01 key=(s1) \
             | dpath: scan path#delta(s0, s1); probe edge mask=0b01 key=(s1)"
        );
        // Without a vocabulary the raw relation ids appear.
        assert!(planned
            .render(&|rel: RelId| rel.to_string())
            .starts_with("R2(s0, s2) <- scan R2(s0, s1)"));
    }

    #[test]
    fn constants_are_bound_positions() {
        // p(x) :- edge(1, x): the constant makes column 0 bound → probe.
        let rule = Rule::new(
            Atom::new(r(3), vec![s(0)]),
            vec![Literal::positive(Atom::new(
                r(1),
                vec![Term::Const(Const::new(1)), s(0)],
            ))],
        )
        .unwrap();
        let planned = PlannedRule::plan(&rule, &BTreeSet::new());
        assert!(matches!(
            planned.full.steps[0],
            Step::Probe { mask: 0b01, .. }
        ));
    }

    #[test]
    fn fully_bound_atoms_become_membership_checks() {
        // triangle(x,y,z) :- e(x,y), e(y,z), e(z,x): the closing edge is a
        // membership test, not a scan.
        let e = |a, b| Atom::new(r(1), vec![a, b]);
        let rule = Rule::new(
            Atom::new(r(2), vec![s(0), s(1), s(2)]),
            vec![
                Literal::positive(e(s(0), s(1))),
                Literal::positive(e(s(1), s(2))),
                Literal::positive(e(s(2), s(0))),
            ],
        )
        .unwrap();
        let planned = PlannedRule::plan(&rule, &BTreeSet::new());
        assert!(matches!(planned.full.steps[0], Step::Scan { .. }));
        assert!(matches!(planned.full.steps[1], Step::Probe { .. }));
        assert!(matches!(planned.full.steps[2], Step::Member { .. }));
    }

    #[test]
    fn negations_run_as_soon_as_bound() {
        // unreach(x,y) :- node(x), node(y), ~reach(x,y): the negation must
        // be scheduled after both nodes but before nothing else.
        let rule = Rule::new(
            Atom::new(r(4), vec![s(0), s(1)]),
            vec![
                Literal::positive(Atom::new(r(3), vec![s(0)])),
                Literal::positive(Atom::new(r(3), vec![s(1)])),
                Literal::negative(Atom::new(r(2), vec![s(0), s(1)])),
            ],
        )
        .unwrap();
        let planned = PlannedRule::plan(&rule, &BTreeSet::new());
        assert_eq!(planned.full.steps.len(), 3);
        assert!(matches!(planned.full.steps[2], Step::NegCheck { .. }));
    }

    #[test]
    fn steps_cover_all_variants() {
        let idb = [r(2)].into_iter().collect();
        let planned = PlannedRule::plan(&tc_recursive_rule(), &idb);
        // full plan and delta variant: a scan and a probe of edge each
        assert_eq!(planned.steps().count(), 4);
        let probes = planned
            .steps()
            .filter(|s| matches!(s, Step::Probe { rel, mask: 0b01, .. } if *rel == r(1)));
        assert_eq!(probes.count(), 2);
    }

    #[test]
    fn head_bound_plans_probe_and_check_where_full_plans_scan() {
        // path(x,z) :- path(x,y), edge(y,z) with x and z bound: both atoms
        // have one bound position, so the tie goes to the smaller relation —
        // probe edge on z, then path(x,y) is a membership check.
        let rule = tc_recursive_rule();
        let sizes: BTreeMap<RelId, usize> = [(r(1), 10), (r(2), 100)].into_iter().collect();
        let plan = JoinPlan::head_bound(&rule, &sizes);
        assert_eq!(plan.delta_pos, None);
        assert!(
            matches!(plan.steps[0], Step::Probe { rel, mask: 0b10, .. } if rel == r(1)),
            "got {:?}",
            plan.steps[0]
        );
        assert!(matches!(plan.steps[1], Step::Member { rel, .. } if rel == r(2)));
        // the full plan of the same rule is untouched by the new entry
        let full = PlannedRule::plan_sized(&rule, &BTreeSet::new(), &sizes).full;
        assert!(matches!(full.steps[0], Step::Scan { .. }));

        // path(x,y) :- edge(x,y): the head determines the whole atom
        let base = Rule::new(
            Atom::new(r(2), vec![s(0), s(1)]),
            vec![Literal::positive(Atom::new(r(1), vec![s(0), s(1)]))],
        )
        .unwrap();
        let plan = JoinPlan::head_bound(&base, &sizes);
        assert!(matches!(plan.steps[..], [Step::Member { rel, .. }] if rel == r(1)));

        // a negation the head determines runs first, and what the probe
        // binds turns the atom the head says nothing about into a check
        let rule = Rule::new(
            Atom::new(r(4), vec![s(0)]),
            vec![
                Literal::positive(Atom::new(r(3), vec![s(1)])),
                Literal::positive(Atom::new(r(1), vec![s(0), s(1)])),
                Literal::negative(Atom::new(r(2), vec![s(0), s(0)])),
            ],
        )
        .unwrap();
        let plan = JoinPlan::head_bound(&rule, &BTreeMap::new());
        assert!(matches!(plan.steps[0], Step::NegCheck { .. }));
        assert!(matches!(plan.steps[1], Step::Probe { rel, mask: 0b01, .. } if rel == r(1)));
        assert!(matches!(plan.steps[2], Step::Member { rel, .. } if rel == r(3)));
    }

    #[test]
    fn cardinality_breaks_greedy_ties_towards_the_smaller_relation() {
        // both(x,y,z) :- big(x,y), small(y,z): neither atom has a bound
        // position at the start, so the planner's bound-position greedy is
        // tied — the cardinality tie-break must scan the smaller relation
        // first and probe the bigger one.
        let rule = Rule::new(
            Atom::new(r(3), vec![s(0), s(1), s(2)]),
            vec![
                Literal::positive(Atom::new(r(1), vec![s(0), s(1)])),
                Literal::positive(Atom::new(r(2), vec![s(1), s(2)])),
            ],
        )
        .unwrap();
        let sizes: BTreeMap<RelId, usize> = [(r(1), 10_000), (r(2), 3)].into_iter().collect();
        let planned = PlannedRule::plan_sized(&rule, &BTreeSet::new(), &sizes);
        assert!(
            matches!(planned.full.steps[0], Step::Scan { rel, .. } if rel == r(2)),
            "the small relation must be scanned first, got {:?}",
            planned.full.steps[0]
        );
        assert!(
            matches!(planned.full.steps[1], Step::Probe { rel, mask: 0b10, .. } if rel == r(1)),
            "the big relation must be probed on the shared column, got {:?}",
            planned.full.steps[1]
        );

        // with the sizes swapped, the order flips
        let sizes: BTreeMap<RelId, usize> = [(r(1), 3), (r(2), 10_000)].into_iter().collect();
        let planned = PlannedRule::plan_sized(&rule, &BTreeSet::new(), &sizes);
        assert!(matches!(planned.full.steps[0], Step::Scan { rel, .. } if rel == r(1)));

        // without sizes the old positional tie-break is preserved
        let planned = PlannedRule::plan(&rule, &BTreeSet::new());
        assert!(matches!(planned.full.steps[0], Step::Scan { rel, .. } if rel == r(1)));
    }

    #[test]
    fn schedules_bind_first_occurrences_and_check_the_rest() {
        // oncycle(x) :- reach(x, x): the delta driver binds s0 from column
        // 0 and checks column 1 against it
        let rule = Rule::new(
            Atom::new(r(3), vec![s(0)]),
            vec![Literal::positive(Atom::new(r(2), vec![s(0), s(0)]))],
        )
        .unwrap();
        let planned = PlannedRule::plan(&rule, &[r(2)].into_iter().collect());
        let repeat = Schedule {
            binds: vec![(0, 0)],
            checks: vec![(1, s(0))],
        };
        for plan in [&planned.full, &planned.deltas[0].1] {
            assert!(
                matches!(&plan.steps[..], [Step::Scan { schedule, .. }] if *schedule == repeat)
            );
            assert_eq!(plan.entry, Schedule::default());
        }

        // w(x) :- e3(x, y, 7), f(x, z, z): e3 is probed on its constant
        // and binds x and y; f is probed on x, binds z and checks the repeat
        let rule = Rule::new(
            Atom::new(r(4), vec![s(0)]),
            vec![
                Literal::positive(Atom::new(
                    r(1),
                    vec![s(0), s(1), Term::Const(Const::new(7))],
                )),
                Literal::positive(Atom::new(r(2), vec![s(0), s(2), s(2)])),
            ],
        )
        .unwrap();
        let full = PlannedRule::plan(&rule, &BTreeSet::new()).full;
        let schedules: Vec<(&[Term], &Schedule)> = (full.steps.iter())
            .filter_map(|step| match step {
                Step::Probe { key, schedule, .. } => Some((&key[..], schedule)),
                _ => None,
            })
            .collect();
        let bind_both = Schedule {
            binds: vec![(0, 0), (1, 1)],
            checks: vec![],
        };
        let bind_and_check = Schedule {
            binds: vec![(1, 2)],
            checks: vec![(2, s(2))],
        };
        assert_eq!(
            schedules,
            [
                (&[Term::Const(Const::new(7))][..], &bind_both),
                (&[s(0)][..], &bind_and_check)
            ]
        );

        // a head-bound plan of p(x, x, 5) :- q(x) unifies the head on entry
        let rule = Rule::new(
            Atom::new(r(5), vec![s(0), s(0), Term::Const(Const::new(5))]),
            vec![Literal::positive(Atom::new(r(1), vec![s(0)]))],
        )
        .unwrap();
        let plan = JoinPlan::head_bound(&rule, &BTreeMap::new());
        assert_eq!(plan.entry.binds, vec![(0, 0)]);
        assert_eq!(
            plan.entry.checks,
            vec![(1, s(0)), (2, Term::Const(Const::new(5)))]
        );
        assert!(matches!(plan.steps[..], [Step::Member { .. }]));
    }

    #[test]
    fn zero_ary_atoms_are_membership_checks() {
        let rule = Rule::new(
            Atom::new(r(2), vec![]),
            vec![Literal::positive(Atom::new(r(1), vec![]))],
        )
        .unwrap();
        let planned = PlannedRule::plan(&rule, &BTreeSet::new());
        assert!(matches!(planned.full.steps[0], Step::Member { .. }));
    }
}
