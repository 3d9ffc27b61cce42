//! The join planner: compiles rule bodies into sequences of index probes.
//!
//! For each rule the planner orders the body greedily — at every step it
//! picks the atom with the most bound argument positions (constants count
//! as bound), breaking ties by preferring the relation with the smallest
//! cardinality at planning time (when the caller supplies sizes via
//! [`PlannedRule::plan_sized`]).  Each chosen atom becomes one [`Step`]:
//!
//! * every position bound at that point contributes to the atom's *binding
//!   mask*, and the step becomes an index [`Step::Probe`] keyed by the bound
//!   columns;
//! * a fully bound atom degenerates to a membership test ([`Step::Member`]);
//! * an atom with no bound positions is a [`Step::Scan`] (this only happens
//!   for the first atom of a plan, or for genuinely cross-product rules).
//!
//! For semi-naive evaluation the planner additionally produces one *delta
//! variant* per body occurrence of an intensional relation: that
//! occurrence is forced to the front as a scan of the delta relation, and
//! the rest of the body is re-planned greedily around the slots it binds.
//!
//! The same greedy order, started with the head's slots already bound, is a
//! *rederivation plan* ([`JoinPlan::head_bound`]): the incremental session
//! asks it whether one given head fact still has a derivation.
//!
//! The planner takes `kbt-logic`'s rules as written and numbers each rule's
//! variables into register slots: the body atoms' variables in
//! order of first occurrence, then the head's (none new, since the program
//! checked range restriction).  A slot is an [`Arg`] of a compiled step,
//! and nowhere else.
//!
//! Because the order is fixed, so is what every step does with its slots:
//! the planner knows which ones are bound before each atom, and compiles
//! that knowledge into the step ([`Schedule`]) — the evaluator never asks
//! at run time whether a slot is bound yet.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use kbt_data::{Const, RelId};
use kbt_logic::{Atom, Rule, Term, Var};

use crate::index::Mask;

/// One argument of a compiled step: a register slot or a constant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Arg {
    /// A register slot (a rule-local variable).
    Slot(usize),
    /// A constant.
    Const(Const),
}

impl fmt::Display for Arg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Arg::Slot(s) => write!(f, "s{s}"),
            Arg::Const(c) => write!(f, "{c}"),
        }
    }
}

/// A rule's variables numbered into register slots: the body atoms'
/// variables in order of first occurrence, then the head's.  Range
/// restriction ([`crate::Program::new`]) leaves the head nothing new, so
/// the body binds every slot.
struct Slots(Vec<Var>);

impl Slots {
    /// Numbers `rule`'s variables.
    fn of(rule: &Rule) -> Self {
        let mut vars = Vec::new();
        let terms = (rule.body.iter())
            .chain(std::iter::once(&rule.head))
            .flat_map(|atom| &atom.terms);
        for v in terms.filter_map(|t| t.as_var()) {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        Slots(vars)
    }

    /// The number of slots.
    fn len(&self) -> usize {
        self.0.len()
    }

    /// `term` as a step argument.
    fn arg(&self, term: Term) -> Arg {
        match term {
            Term::Const(c) => Arg::Const(c),
            Term::Var(v) => Arg::Slot(
                (self.0.iter().position(|&w| w == v))
                    .expect("every variable of the rule has a slot"),
            ),
        }
    }

    /// The arguments of `atom`, column by column.
    fn columns<'a>(&'a self, atom: &'a Atom) -> impl Iterator<Item = (usize, Arg)> + 'a {
        atom.terms.iter().map(|&t| self.arg(t)).enumerate()
    }
}

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
    pub checks: Vec<(usize, Arg)>,
}

impl Schedule {
    /// The schedule of `columns` with the slots in `bound` already bound.
    fn of(columns: impl IntoIterator<Item = (usize, Arg)>, bound: &[bool]) -> Self {
        let mut schedule = Schedule::default();
        for (col, term) in columns {
            match term {
                Arg::Slot(s) if !bound[s] && schedule.binds.iter().all(|&(_, b)| b != s) => {
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
    pub fn columns(&self) -> Vec<(usize, Arg)> {
        let binds = self.binds.iter().map(|&(col, s)| (col, Arg::Slot(s)));
        let mut cols: Vec<(usize, Arg)> = binds.chain(self.checks.iter().copied()).collect();
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
        key: Vec<Arg>,
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
        terms: Vec<Arg>,
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
    /// The head relation.
    pub head: RelId,
    /// The head's arguments (slots are bound by the body plans).
    pub head_args: Vec<Arg>,
    /// Number of register slots.
    pub slots: usize,
    /// The plan used by naive rounds and the semi-naive seeding round.
    pub full: JoinPlan,
    /// One variant per body occurrence of an IDB relation, with that
    /// occurrence scanning the delta.
    pub deltas: Vec<(RelId, JoinPlan)>,
}

impl PlannedRule {
    /// Plans `rule`, producing delta variants for the body occurrences of
    /// the relations in `idb`.
    pub fn plan(rule: &Rule, idb: &BTreeSet<RelId>) -> Self {
        PlannedRule::plan_sized(rule, idb, &BTreeMap::new())
    }

    /// Like [`Self::plan`], but with relation cardinalities known at
    /// planning time: ties on bound-position counts are broken towards the
    /// smaller relation (relations absent from `sizes` count as empty).
    pub fn plan_sized(rule: &Rule, idb: &BTreeSet<RelId>, sizes: &BTreeMap<RelId, usize>) -> Self {
        let slots = Slots::of(rule);
        let unbound = vec![false; slots.len()];
        let full = plan_body(rule, &slots, &unbound, None, sizes);
        let deltas = (rule.body.iter().enumerate())
            .filter(|(_, atom)| idb.contains(&atom.rel))
            .map(|(pos, atom)| {
                (
                    atom.rel,
                    plan_body(rule, &slots, &unbound, Some(pos), sizes),
                )
            })
            .collect();
        PlannedRule {
            head: rule.head.rel,
            head_args: rule.head.terms.iter().map(|&t| slots.arg(t)).collect(),
            slots: slots.len(),
            full,
            deltas,
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
            render_app(&namer(self.head), &self.head_args),
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
    /// table of a `Member` target — is demanded from these.
    pub(crate) fn steps(&self) -> impl Iterator<Item = &Step> {
        std::iter::once(&self.full)
            .chain(self.deltas.iter().map(|(_, p)| p))
            .flat_map(|plan| &plan.steps)
    }
}

/// Renders `name(t0, t1, …)` with the step argument syntax (`s0`,
/// constants).
fn render_app(name: &str, terms: &[Arg]) -> String {
    let args: Vec<String> = terms.iter().map(Arg::to_string).collect();
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
        let slots = Slots::of(rule);
        let mut bound = vec![false; slots.len()];
        let entry = Schedule::of(slots.columns(&rule.head), &bound);
        mark_bound(&rule.head, &slots, &mut bound);
        JoinPlan {
            entry,
            ..plan_body(rule, &slots, &bound, None, sizes)
        }
    }

    /// Stable one-line rendering of the steps in execution order, joined
    /// with `; `: `scan` (the driving scan, `#delta` for delta drivers),
    /// `probe` with its bound-column mask and key, and `member`.  Fact
    /// rules with no body render as `emit`.
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
                    let terms: Vec<Arg> = schedule.columns().into_iter().map(|(_, t)| t).collect();
                    format!("scan {}{suffix}{}", namer(*rel), render_app("", &terms))
                }
                Step::Probe {
                    rel,
                    mask,
                    key,
                    schedule,
                } => {
                    let width = key.len() + schedule.width();
                    let keys: Vec<String> = key.iter().map(Arg::to_string).collect();
                    format!(
                        "probe {} mask=0b{mask:0width$b} key=({})",
                        namer(*rel),
                        keys.join(", ")
                    )
                }
                Step::Member { rel, terms } => {
                    format!("member {}{}", namer(*rel), render_app("", terms))
                }
            })
            .collect();
        steps.join("; ")
    }
}

/// Compiles one atom into a step given the currently bound slots.
fn compile_atom(atom: &Atom, slots: &Slots, bound: &[bool], source: Source) -> Step {
    let columns = || slots.columns(atom);
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
    for (i, arg) in columns() {
        if is_bound(arg, bound) {
            mask |= 1 << i;
        }
    }
    let arity = atom.arity();
    if arity > 0 && mask == (Mask::MAX >> (Mask::BITS - arity as u32)) {
        return Step::Member {
            rel: atom.rel,
            terms: columns().map(|(_, arg)| arg).collect(),
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

/// Whether `arg` has a value before the step that reads it runs.
fn is_bound(arg: Arg, bound: &[bool]) -> bool {
    match arg {
        Arg::Const(_) => true,
        Arg::Slot(s) => bound[s],
    }
}

/// Number of bound argument positions of `atom` under `bound`.
fn bound_positions(atom: &Atom, slots: &Slots, bound: &[bool]) -> usize {
    (slots.columns(atom))
        .filter(|&(_, arg)| is_bound(arg, bound))
        .count()
}

fn mark_bound(atom: &Atom, slots: &Slots, bound: &mut [bool]) {
    for (_, arg) in slots.columns(atom) {
        if let Arg::Slot(s) = arg {
            bound[s] = true;
        }
    }
}

/// Plans the body of `rule` over its `slots`; `entry` says which slots are
/// bound before the first step runs (none, or the head's); `forced_first`
/// names a body position scanned from the delta and moved to the front;
/// `sizes` supplies the relation cardinalities used to break greedy ties.
fn plan_body(
    rule: &Rule,
    slots: &Slots,
    entry: &[bool],
    forced_first: Option<usize>,
    sizes: &BTreeMap<RelId, usize>,
) -> JoinPlan {
    let mut bound = entry.to_vec();
    let mut steps = Vec::with_capacity(rule.body.len());
    let mut scheduled = vec![false; rule.body.len()];

    if let Some(pos) = forced_first {
        let atom = &rule.body[pos];
        steps.push(compile_atom(atom, slots, &bound, Source::Delta));
        mark_bound(atom, slots, &mut bound);
        scheduled[pos] = true;
    }

    // Greedy: the atom with the most bound positions next; ties go to the
    // smallest relation (ROADMAP "join-order statistics" — probing into
    // fewer tuples first shrinks every intermediate binding set
    // downstream).
    while let Some((i, atom)) = (rule.body.iter().enumerate())
        .filter(|(i, _)| !scheduled[*i])
        .max_by_key(|(i, atom)| {
            (
                bound_positions(atom, slots, &bound),
                std::cmp::Reverse(sizes.get(&atom.rel).copied().unwrap_or(0)),
                std::cmp::Reverse(atom.arity()),
                std::cmp::Reverse(*i),
            )
        })
    {
        steps.push(compile_atom(atom, slots, &bound, Source::Full));
        mark_bound(atom, slots, &mut bound);
        scheduled[i] = true;
    }

    JoinPlan {
        delta_pos: forced_first,
        entry: Schedule::default(),
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbt_logic::Var;

    fn r(i: u32) -> RelId {
        RelId::new(i)
    }

    /// The variable `x_i`: where a body meets its variables in index
    /// order, `x_i` takes slot `i`.
    fn x(i: u32) -> Term {
        Term::Var(Var::new(i))
    }

    fn s(i: usize) -> Arg {
        Arg::Slot(i)
    }

    fn c(i: u32) -> Term {
        Term::Const(Const::new(i))
    }

    /// path(x,z) :- path(x,y), edge(y,z).
    fn tc_recursive_rule() -> Rule {
        Rule::new(
            Atom::new(r(2), vec![x(0), x(2)]),
            vec![
                Atom::new(r(2), vec![x(0), x(1)]),
                Atom::new(r(1), vec![x(1), x(2)]),
            ],
        )
    }

    #[test]
    fn variables_become_slots_body_first_in_order_of_first_occurrence() {
        // path(x7, x3) :- path(x7, x5), edge(x5, x3): x7, x5, x3 are s0, s1, s2
        let rule = Rule::new(
            Atom::new(r(2), vec![x(7), x(3)]),
            vec![
                Atom::new(r(2), vec![x(7), x(5)]),
                Atom::new(r(1), vec![x(5), x(3)]),
            ],
        );
        let planned = PlannedRule::plan(&rule, &BTreeSet::new());
        assert_eq!(planned.slots, 3);
        assert_eq!(planned.head_args, [s(0), s(2)]);
        let namer = |rel: RelId| rel.to_string();
        assert_eq!(
            planned.render(&namer),
            "R2(s0, s2) <- scan R2(s0, s1); probe R1 mask=0b01 key=(s1)"
        );
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
    fn plans_render_stably_in_the_callers_vocabulary() {
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
            Atom::new(r(3), vec![x(0)]),
            vec![Atom::new(r(1), vec![c(1), x(0)])],
        );
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
            Atom::new(r(2), vec![x(0), x(1), x(2)]),
            vec![e(x(0), x(1)), e(x(1), x(2)), e(x(2), x(0))],
        );
        let planned = PlannedRule::plan(&rule, &BTreeSet::new());
        assert!(matches!(planned.full.steps[0], Step::Scan { .. }));
        assert!(matches!(planned.full.steps[1], Step::Probe { .. }));
        assert!(matches!(planned.full.steps[2], Step::Member { .. }));
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
            Atom::new(r(2), vec![x(0), x(1)]),
            vec![Atom::new(r(1), vec![x(0), x(1)])],
        );
        let plan = JoinPlan::head_bound(&base, &sizes);
        assert!(matches!(plan.steps[..], [Step::Member { rel, .. }] if rel == r(1)));

        // what the probe binds turns the atom the head says nothing about
        // into a check
        let rule = Rule::new(
            Atom::new(r(4), vec![x(0)]),
            vec![
                Atom::new(r(3), vec![x(1)]),
                Atom::new(r(1), vec![x(0), x(1)]),
            ],
        );
        let plan = JoinPlan::head_bound(&rule, &BTreeMap::new());
        assert!(matches!(plan.steps[0], Step::Probe { rel, mask: 0b01, .. } if rel == r(1)));
        assert!(matches!(plan.steps[1], Step::Member { rel, .. } if rel == r(3)));
    }

    #[test]
    fn cardinality_breaks_greedy_ties_towards_the_smaller_relation() {
        // both(x,y,z) :- big(x,y), small(y,z): neither atom has a bound
        // position at the start, so the planner's bound-position greedy is
        // tied — the cardinality tie-break must scan the smaller relation
        // first and probe the bigger one.
        let rule = Rule::new(
            Atom::new(r(3), vec![x(0), x(1), x(2)]),
            vec![
                Atom::new(r(1), vec![x(0), x(1)]),
                Atom::new(r(2), vec![x(1), x(2)]),
            ],
        );
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
            Atom::new(r(3), vec![x(0)]),
            vec![Atom::new(r(2), vec![x(0), x(0)])],
        );
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
            Atom::new(r(4), vec![x(0)]),
            vec![
                Atom::new(r(1), vec![x(0), x(1), c(7)]),
                Atom::new(r(2), vec![x(0), x(2), x(2)]),
            ],
        );
        let full = PlannedRule::plan(&rule, &BTreeSet::new()).full;
        let schedules: Vec<(&[Arg], &Schedule)> = (full.steps.iter())
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
                (&[Arg::Const(Const::new(7))][..], &bind_both),
                (&[s(0)][..], &bind_and_check)
            ]
        );

        // a head-bound plan of p(x, x, 5) :- q(x) unifies the head on entry
        let rule = Rule::new(
            Atom::new(r(5), vec![x(0), x(0), c(5)]),
            vec![Atom::new(r(1), vec![x(0)])],
        );
        let plan = JoinPlan::head_bound(&rule, &BTreeMap::new());
        assert_eq!(plan.entry.binds, vec![(0, 0)]);
        assert_eq!(
            plan.entry.checks,
            vec![(1, s(0)), (2, Arg::Const(Const::new(5)))]
        );
        assert!(matches!(plan.steps[..], [Step::Member { .. }]));
    }

    #[test]
    fn zero_ary_atoms_are_membership_checks() {
        let rule = Rule::new(Atom::new(r(2), vec![]), vec![Atom::new(r(1), vec![])]);
        let planned = PlannedRule::plan(&rule, &BTreeSet::new());
        assert!(matches!(planned.full.steps[0], Step::Member { .. }));
    }
}
