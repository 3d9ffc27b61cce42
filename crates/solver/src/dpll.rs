//! A conflict-driven satisfiability search: one trail, two watched literals
//! per clause, 1UIP clause learning and non-chronological backjumps.
//!
//! [`Solver`] is the clause database the callers build; every question asked
//! of it — [`Solver::solve`] here, the minimal-model enumeration in
//! [`crate::minimal`] — is answered by one `Search`, built once per public
//! call and run by one `propagate` and one decision loop.  Conflict
//! analysis is MiniSat's (Eén & Sörensson, SAT 2003) without its
//! heuristics: no activity scores, no restarts, no clause deletion — the
//! grounded updates this solver serves are a few hundred clauses, and the
//! branching rule below is the measured one.
//!
//! # The search state and what it keeps true
//!
//! * **Arena.**  Every clause's literals lie end to end in one `Vec<u32>`
//!   (a literal is `2·var`, or `2·var + 1` when negated, so `lit ^ 1` is its
//!   complement); clause `c` is `lits[bounds[c]..bounds[c + 1]]`.  The
//!   solver's own clauses come first, sorted, duplicate-free and never
//!   tautological; learned clauses and an enumeration's blocking clauses are
//!   appended after them, duplicate-free too.  Unit clauses are asserted at
//!   the root and have no watches.
//! * **Trail, levels and reasons.**  The assigned literals in the order
//!   they became true; `trail[..qhead]` have had their consequences drawn.
//!   Each assigned variable records its *level* — the number of decisions
//!   on the trail before it; the root, level 0, holds the unit clauses and
//!   the caller's assumptions — and its *reason*, the clause that became
//!   unit on it (none for a decision or a root literal).  Every level above
//!   the root starts with its decision, a literal made false by choice.
//! * **Watches.**  A clause of two or more literals watches the two at its
//!   first two positions, and is threaded on the watch list of each (`head`
//!   per literal, `next` per clause and position: linked lists, so attaching
//!   a clause or moving a watch never allocates).  When `propagate` has run
//!   to completion without a conflict, a clause with a false watched literal
//!   has its other watch true, at a level no higher — so undoing levels
//!   un-assigns the false one first, and the property survives any backjump
//!   untouched.  A literal becoming false therefore concerns only the
//!   clauses on its list: each either has its other watch true, or finds a
//!   non-false literal to watch instead (and moves to that list), or is unit
//!   on its other watch — which it then implies, as its reason — or is the
//!   conflict.
//! * **Learned clauses.**  A conflict is resolved against the reasons of
//!   its current-level literals, latest first, until one current-level
//!   literal is left: the first unique implication point.  The clause
//!   learned is its negation together with the lower-level literals met on
//!   the way (root literals are left out: they hold for the whole call).
//!   It is stored with that negation at position 0 and a literal of the
//!   highest remaining level at position 1, the search jumps back to that
//!   level — where the clause is unit — and the negation is asserted there
//!   with the clause as its reason.  A learned clause is resolved from
//!   clauses of the arena and the root, so it is implied by them and by
//!   anything later added at the root: it stays for the rest of the call.
//! * **Frames and the two cursors.**  A frame records, for one level, the
//!   trail length and both cursors from just before its decision.  Every
//!   one of the solver's own clauses before `cursor` is satisfied by the
//!   current assignment, and every variable of `first` before `first_cursor`
//!   is assigned; both stay true for as long as the frame lives, because
//!   the assignment below a frame only grows — a backjump's asserted literal
//!   included.  So a backjump restores the cursors of the first frame it
//!   removes, and the scans for the next decision resume where they stopped
//!   instead of starting over at every decision.
//!
//! # Branching: minimised variables first, then clause order — false first
//!
//! An enumeration names the variables it minimises (`first`); they are
//! decided before any other, in index order, false first — which is what
//! makes each model it finds ⊆-minimal ([`crate::minimal`] has the
//! argument).  After them, or for [`Solver::solve`], the decision rule is
//! the one this solver has always had: *the first of the solver's own
//! clauses not yet satisfied, its open variable of smallest index, false*.
//! It walks the Tseitin encoding gate by gate in the order grounding
//! produced it, which keeps related variables together.  Branching in plain
//! variable-index order instead looked equivalent and is not: on Example 7
//! (`examples::max_clique`) what is left after the clique is guessed is
//! pigeonhole-shaped, and without learning that search had not finished
//! after two minutes where this rule took 0.3 s.  The scan stops at the
//! solver's own clauses: learned clauses are implied by them, and a
//! blocking clause names only minimised variables, which are all assigned
//! before the scan starts — so an assignment that satisfies the solver's
//! clauses, its open variables read as false, is a model of everything.
//! `tests/solver_differential.rs` keeps the pigeonhole instances and
//! Example 7, each with the conflicts it took.

use crate::cnf::{BoolVar, Clause, Cnf, Lit};
use crate::metrics::Counters;

/// A total assignment: `model[v.index()]` is the value of variable `v`.
pub type Model = Vec<bool>;

/// Outcome of a satisfiability call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveResult {
    /// Satisfiable, with a witnessing total assignment.
    Sat(Model),
    /// Unsatisfiable under the given assumptions.
    Unsat,
}

impl SolveResult {
    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SolveResult::Sat(m) => Some(m),
            SolveResult::Unsat => None,
        }
    }

    /// Whether the result is satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat(_))
    }
}

/// A literal as one word: `2·var`, plus one when negated.
fn code(l: Lit) -> u32 {
    debug_assert!(l.var.0 <= u32::MAX >> 1);
    l.var.0 << 1 | u32::from(!l.positive)
}

/// An incremental clause database with a DPLL search over it.
#[derive(Clone, Debug)]
pub struct Solver {
    num_vars: usize,
    /// The literals of every clause, end to end (see the module docs).
    lits: Vec<u32>,
    /// Clause `c` is `lits[bounds[c]..bounds[c + 1]]`; starts as `[0]`.
    bounds: Vec<u32>,
    has_empty_clause: bool,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new(0)
    }
}

impl Solver {
    /// A solver over `num_vars` variables with no clauses.
    pub fn new(num_vars: usize) -> Self {
        Solver {
            num_vars,
            lits: Vec::new(),
            bounds: vec![0],
            has_empty_clause: false,
        }
    }

    /// Builds a solver from a CNF formula.
    pub fn from_cnf(cnf: &Cnf) -> Self {
        let mut s = Solver::new(cnf.num_vars() as usize);
        for c in cnf.clauses() {
            s.add_clause_from(c);
        }
        s
    }

    /// Number of variables currently known to the solver.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> BoolVar {
        let v = BoolVar::new(self.num_vars as u32);
        self.num_vars += 1;
        v
    }

    /// Adds a clause given as a slice of literals.  Tautological clauses are
    /// dropped; the empty clause marks the solver permanently unsatisfiable.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        let start = self.lits.len();
        self.lits.extend(lits.iter().map(|&l| code(l)));
        self.lits[start..].sort_unstable();
        // drop repeated literals, in place
        let mut end = start;
        for i in start..self.lits.len() {
            if end == start || self.lits[end - 1] != self.lits[i] {
                self.lits[end] = self.lits[i];
                end += 1;
            }
        }
        // sorted, so a literal and its complement are neighbours
        let tautology = self.lits[start..end].windows(2).any(|w| w[0] ^ 1 == w[1]);
        if tautology || end == start {
            self.has_empty_clause |= lits.is_empty();
            self.lits.truncate(start);
            return;
        }
        self.lits.truncate(end);
        let top_var = (self.lits[end - 1] >> 1) as usize;
        self.num_vars = self.num_vars.max(top_var + 1);
        self.bounds.push(end as u32);
    }

    /// Adds an existing [`Clause`].
    pub fn add_clause_from(&mut self, clause: &Clause) {
        self.add_clause(clause.literals());
    }

    /// Decides satisfiability under the given assumptions (literals forced
    /// true before the search starts).
    pub fn solve(&self, assumptions: &[Lit]) -> SolveResult {
        let mut search = Search::new(self, &[], assumptions.iter().map(|a| a.var));
        let sat = search.assume(assumptions.iter().copied()) && search.search();
        crate::metrics::metrics().absorb(&search.counters);
        if sat {
            SolveResult::Sat(search.assign.iter().map(|&a| a == TRUE).collect())
        } else {
            SolveResult::Unsat
        }
    }

    /// Convenience wrapper: satisfiability with no assumptions.
    pub fn is_satisfiable(&self) -> bool {
        self.solve(&[]).is_sat()
    }
}

/// The value of a variable, or of a literal: a literal's is its variable's
/// with the low bit flipped when the literal is negated, so anything with
/// the `OPEN` bit set is unassigned.
const TRUE: u8 = 0;
const FALSE: u8 = 1;
const OPEN: u8 = 2;

/// End of a watch list; also the reason of a literal nothing implied.
const NIL: u32 = u32::MAX;

/// Where one decision level starts; see the module docs.
#[derive(Clone, Copy)]
struct Frame {
    /// Trail length just before the level's decision.
    trail_len: usize,
    /// The clause cursor just before the level's decision.
    cursor: usize,
    /// The minimised-variable cursor just before the level's decision.
    first_cursor: usize,
}

/// The search state over one [`Solver`]'s clauses: built once per public
/// call, then asked any number of questions, each a [`Self::search`] from
/// the root.  The module docs list what it keeps true.
pub(crate) struct Search {
    lits: Vec<u32>,
    bounds: Vec<u32>,
    /// Per literal, the first clause watching it (or [`NIL`]).
    head: Vec<u32>,
    /// Per clause and watch position, the next clause on the same list.
    next: Vec<[u32; 2]>,
    /// Per variable: [`TRUE`], [`FALSE`] or [`OPEN`].
    assign: Vec<u8>,
    /// Per assigned variable: the decision level it was assigned at.
    level: Vec<u32>,
    /// Per assigned variable: the clause that implied it, or [`NIL`] for a
    /// decision and for the root.
    reason: Vec<u32>,
    trail: Vec<u32>,
    qhead: usize,
    /// One frame per decision level above the root.
    frames: Vec<Frame>,
    /// The branching scan over the solver's own clauses (`..originals`).
    cursor: usize,
    originals: usize,
    /// The variables decided before any other, in index order.
    first: Vec<u32>,
    /// Every variable of `first[..first_cursor]` is assigned.
    first_cursor: usize,
    /// Conflict analysis: the variables already on the clause being learned
    /// (all unmarked between conflicts), and the clause itself, asserting
    /// literal first.
    seen: Vec<bool>,
    learnt: Vec<u32>,
    /// Whether the root level is contradictory: nothing is satisfiable.
    root_conflict: bool,
    /// Work done so far, for [`crate::metrics`]; the public entry points
    /// add it to the registry once, when they are finished with the search.
    pub(crate) counters: Counters,
}

impl Search {
    /// Copies `solver`'s clauses, watches them and asserts its unit clauses.
    /// `first` are decided before any other variable, in index order, false
    /// first (see [`crate::minimal`]).  The state covers the solver's
    /// variables, `first` and `also` (assumptions may name variables no
    /// clause does).
    pub(crate) fn new(
        solver: &Solver,
        first: &[BoolVar],
        also: impl Iterator<Item = BoolVar>,
    ) -> Search {
        let mut first: Vec<u32> = first.iter().map(|v| v.0).collect();
        first.sort_unstable();
        first.dedup();
        let num_vars = also.fold(solver.num_vars, |n, v| n.max(v.index() + 1));
        let num_vars = first
            .last()
            .map_or(num_vars, |&v| num_vars.max(v as usize + 1));
        let num_clauses = solver.num_clauses();
        let mut search = Search {
            lits: solver.lits.clone(),
            bounds: solver.bounds.clone(),
            head: vec![NIL; 2 * num_vars],
            next: vec![[NIL; 2]; num_clauses],
            assign: vec![OPEN; num_vars],
            level: vec![0; num_vars],
            reason: vec![NIL; num_vars],
            trail: Vec::with_capacity(num_vars),
            qhead: 0,
            frames: Vec::new(),
            cursor: 0,
            originals: num_clauses,
            first,
            first_cursor: 0,
            seen: vec![false; num_vars],
            learnt: Vec::new(),
            root_conflict: solver.has_empty_clause,
            counters: Counters::default(),
        };
        for clause in 0..num_clauses {
            let start = search.bounds[clause] as usize;
            if search.bounds[clause + 1] as usize - start == 1 {
                let unit = search.lits[start];
                search.root_conflict |= !search.enqueue(unit, NIL);
            } else {
                search.watch(clause as u32, 0);
                search.watch(clause as u32, 1);
            }
        }
        search
    }

    fn value(&self, lit: u32) -> u8 {
        self.assign[(lit >> 1) as usize] ^ (lit & 1) as u8
    }

    /// Whether `v` is true in the current assignment (open counts as false,
    /// which is how a model reads the variables no clause needed).
    pub(crate) fn is_true(&self, v: BoolVar) -> bool {
        self.assign[v.index()] == TRUE
    }

    /// Threads `clause` on the watch list of the literal at its position
    /// `slot` (0 or 1).
    fn watch(&mut self, clause: u32, slot: usize) {
        let lit = self.lits[self.bounds[clause as usize] as usize + slot] as usize;
        self.next[clause as usize][slot] = self.head[lit];
        self.head[lit] = clause;
    }

    /// Appends a clause of two or more literals to the arena and watches
    /// its first two; returns its index.
    fn attach(&mut self) -> u32 {
        let clause = self.next.len() as u32;
        self.bounds.push(self.lits.len() as u32);
        self.next.push([NIL; 2]);
        self.watch(clause, 0);
        self.watch(clause, 1);
        clause
    }

    /// Makes `lit` true at the current level, implied by `reason`; `false`
    /// if it is already false.
    fn enqueue(&mut self, lit: u32, reason: u32) -> bool {
        match self.value(lit) {
            TRUE => true,
            FALSE => false,
            _ => {
                let var = (lit >> 1) as usize;
                self.assign[var] = (lit & 1) as u8;
                self.level[var] = self.frames.len() as u32;
                self.reason[var] = reason;
                self.trail.push(lit);
                true
            }
        }
    }

    /// Draws the consequences of every literal on the trail that has not had
    /// them drawn.  Returns the clause it falsified, if any; the caller then
    /// undoes the level (which also discards the unprocessed rest of the
    /// queue).
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let falsified = self.trail[self.qhead] ^ 1;
            self.qhead += 1;
            self.counters.propagations += 1;
            // where the link to `clause` lives: the list head, or the
            // previous clause's slot
            let mut link: Option<(usize, usize)> = None;
            let mut clause = self.head[falsified as usize];
            while clause != NIL {
                let c = clause as usize;
                let (start, end) = (self.bounds[c] as usize, self.bounds[c + 1] as usize);
                let slot = usize::from(self.lits[start] != falsified);
                debug_assert_eq!(self.lits[start + slot], falsified);
                let next = self.next[c][slot];
                let other = self.lits[start + 1 - slot];
                let other_value = self.value(other);
                if other_value != TRUE {
                    if let Some(k) = (start + 2..end).find(|&k| self.value(self.lits[k]) != FALSE) {
                        // watch lits[k] instead: off this list, onto that one
                        self.lits.swap(start + slot, k);
                        match link {
                            None => self.head[falsified as usize] = next,
                            Some((prev, prev_slot)) => self.next[prev][prev_slot] = next,
                        }
                        self.watch(clause, slot);
                        clause = next;
                        continue;
                    }
                    if other_value == FALSE {
                        return Some(clause);
                    }
                    self.enqueue(other, clause);
                }
                link = Some((c, slot));
                clause = next;
            }
        }
        None
    }

    /// Undoes every level above the first `depth` (the root is level 0).
    pub(crate) fn backtrack(&mut self, depth: usize) {
        if let Some(&frame) = self.frames.get(depth) {
            self.frames.truncate(depth);
            for &lit in &self.trail[frame.trail_len..] {
                self.assign[(lit >> 1) as usize] = OPEN;
            }
            self.trail.truncate(frame.trail_len);
            self.qhead = frame.trail_len;
            self.cursor = frame.cursor;
            self.first_cursor = frame.first_cursor;
        }
    }

    /// Asserts `lits` at the root and propagates.  `false` if that is
    /// contradictory — then nothing is satisfiable any more.
    pub(crate) fn assume(&mut self, lits: impl IntoIterator<Item = Lit>) -> bool {
        debug_assert!(self.frames.is_empty());
        self.root_conflict = self.root_conflict
            || !lits.into_iter().all(|l| self.enqueue(code(l), NIL))
            || self.propagate().is_some();
        !self.root_conflict
    }

    /// The literal to decide: the first open variable of `first`, else the
    /// open variable of smallest index in the first of the solver's clauses
    /// the assignment does not satisfy — false, either way — or `None` when
    /// the assignment satisfies them all.  Advances both cursors over what
    /// they have passed.
    fn pick_branch(&mut self) -> Option<u32> {
        while let Some(&var) = self.first.get(self.first_cursor) {
            if self.assign[var as usize] == OPEN {
                return Some(var << 1 | 1);
            }
            self.first_cursor += 1;
        }
        while self.cursor < self.originals {
            let (start, end) = (self.bounds[self.cursor], self.bounds[self.cursor + 1]);
            let mut open: Option<u32> = None;
            let mut satisfied = false;
            for &lit in &self.lits[start as usize..end as usize] {
                match self.value(lit) {
                    TRUE => {
                        satisfied = true;
                        break;
                    }
                    FALSE => {}
                    _ => open = Some(open.map_or(lit >> 1, |v| v.min(lit >> 1))),
                }
            }
            if !satisfied {
                debug_assert!(open.is_some(), "propagation leaves no clause falsified");
                return open.map(|var| var << 1 | 1);
            }
            self.cursor += 1;
        }
        None
    }

    /// Resolves the clause `conflict` falsified back to its first unique
    /// implication point at the current level, leaving the learned clause
    /// in `learnt` — the negated point first, then a literal of the highest
    /// level among the rest — and returns the level to jump back to: the
    /// one where the clause becomes unit.
    fn analyze(&mut self, conflict: u32) -> usize {
        let current = self.frames.len() as u32;
        self.learnt.clear();
        self.learnt.push(NIL);
        // literals of the current level seen but not yet resolved away
        let mut pending = 0usize;
        let mut clause = conflict as usize;
        let mut pivot = NIL;
        let mut index = self.trail.len();
        loop {
            let (start, end) = (
                self.bounds[clause] as usize,
                self.bounds[clause + 1] as usize,
            );
            for k in start..end {
                let lit = self.lits[k];
                let var = lit >> 1;
                let v = var as usize;
                if var == pivot || self.seen[v] || self.level[v] == 0 {
                    continue;
                }
                self.seen[v] = true;
                if self.level[v] == current {
                    pending += 1;
                } else {
                    self.learnt.push(lit);
                }
            }
            // the latest literal on the trail the clause so far contains
            index -= 1;
            while !self.seen[(self.trail[index] >> 1) as usize] {
                index -= 1;
            }
            let implied = self.trail[index];
            pivot = implied >> 1;
            self.seen[pivot as usize] = false;
            pending -= 1;
            if pending == 0 {
                self.learnt[0] = implied ^ 1;
                break;
            }
            clause = self.reason[pivot as usize] as usize;
        }
        let mut deepest = 1;
        for i in 1..self.learnt.len() {
            let v = (self.learnt[i] >> 1) as usize;
            self.seen[v] = false;
            if self.level[v] > self.level[(self.learnt[deepest] >> 1) as usize] {
                deepest = i;
            }
        }
        if self.learnt.len() == 1 {
            return 0;
        }
        self.learnt.swap(1, deepest);
        self.level[(self.learnt[1] >> 1) as usize] as usize
    }

    /// Adds the clause [`Self::analyze`] left in `learnt` — after the
    /// backjump, where it is unit — and asserts its first literal.
    fn learn(&mut self) {
        self.counters.learned_clauses += 1;
        let asserting = self.learnt[0];
        let reason = if self.learnt.len() == 1 {
            NIL
        } else {
            self.lits.extend_from_slice(&self.learnt);
            self.attach()
        };
        let consistent = self.enqueue(asserting, reason);
        debug_assert!(consistent, "a learned clause is unit after its backjump");
    }

    /// Extends the root assignment — propagated, without conflict — to one
    /// satisfying every clause.  `true` leaves the model on the trail (the
    /// caller reads it, then backtracks to the root); `false` means there is
    /// none, and the root is contradictory from then on.
    pub(crate) fn search(&mut self) -> bool {
        self.counters.solves += 1;
        loop {
            if let Some(conflict) = self.propagate() {
                self.counters.conflicts += 1;
                if self.frames.is_empty() {
                    self.root_conflict = true;
                    return false;
                }
                let depth = self.analyze(conflict);
                self.backtrack(depth);
                self.learn();
            } else if let Some(lit) = self.pick_branch() {
                self.counters.decisions += 1;
                self.frames.push(Frame {
                    trail_len: self.trail.len(),
                    cursor: self.cursor,
                    first_cursor: self.first_cursor,
                });
                self.enqueue(lit, NIL);
            } else {
                return true;
            }
        }
    }

    /// Adds a clause over distinct variables for good.  Only at the root,
    /// where a false literal stays false and can be left out, a true one
    /// makes the clause redundant, one literal left is a fact and none left
    /// is the end: `false` when nothing is satisfiable any more.
    pub(crate) fn add_root_clause(&mut self, lits: impl IntoIterator<Item = Lit>) -> bool {
        debug_assert!(self.frames.is_empty());
        let start = self.lits.len();
        for l in lits {
            match self.value(code(l)) {
                TRUE => {
                    self.lits.truncate(start);
                    return true;
                }
                FALSE => {}
                _ => self.lits.push(code(l)),
            }
        }
        match self.lits.len() - start {
            0 => false,
            1 => {
                let unit = self.lits.pop().expect("one literal");
                self.enqueue(unit, NIL);
                self.root_conflict = self.propagate().is_some();
                !self.root_conflict
            }
            _ => {
                self.attach();
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> BoolVar {
        BoolVar::new(i)
    }

    #[test]
    fn trivial_cases() {
        let s = Solver::new(0);
        assert!(s.is_satisfiable());
        let mut s = Solver::new(1);
        s.add_clause(&[]);
        assert!(!s.is_satisfiable());
    }

    #[test]
    fn simple_sat_and_unsat() {
        // (a ∨ b) ∧ (¬a ∨ b) ∧ (a ∨ ¬b) is satisfied only by a=b=true
        let mut s = Solver::new(2);
        s.add_clause(&[v(0).positive(), v(1).positive()]);
        s.add_clause(&[v(0).negative(), v(1).positive()]);
        s.add_clause(&[v(0).positive(), v(1).negative()]);
        match s.solve(&[]) {
            SolveResult::Sat(m) => assert_eq!(m, vec![true, true]),
            SolveResult::Unsat => panic!("expected SAT"),
        }
        // adding (¬a ∨ ¬b) makes it unsatisfiable
        s.add_clause(&[v(0).negative(), v(1).negative()]);
        assert!(!s.is_satisfiable());
    }

    #[test]
    fn assumptions_restrict_the_search() {
        let mut s = Solver::new(2);
        s.add_clause(&[v(0).positive(), v(1).positive()]);
        assert!(s.solve(&[v(0).negative()]).is_sat());
        assert!(s.solve(&[v(0).negative(), v(1).negative()]) == SolveResult::Unsat);
        // contradictory assumptions
        assert!(s.solve(&[v(0).positive(), v(0).negative()]) == SolveResult::Unsat);
    }

    #[test]
    fn models_satisfy_all_clauses() {
        // pigeonhole-ish satisfiable instance
        let mut s = Solver::new(6);
        let clauses: Vec<Vec<Lit>> = vec![
            vec![v(0).positive(), v(1).positive(), v(2).positive()],
            vec![v(3).positive(), v(4).positive(), v(5).positive()],
            vec![v(0).negative(), v(3).negative()],
            vec![v(1).negative(), v(4).negative()],
            vec![v(2).negative(), v(5).negative()],
            vec![v(0).negative(), v(1).negative()],
        ];
        for c in &clauses {
            s.add_clause(c);
        }
        match s.solve(&[]) {
            SolveResult::Sat(m) => {
                for c in &clauses {
                    assert!(c.iter().any(|l| l.satisfied_by(m[l.var.index()])));
                }
            }
            SolveResult::Unsat => panic!("expected SAT"),
        }
    }

    #[test]
    fn unsatisfiable_pigeonhole_three_pigeons_two_holes() {
        // p_{i,j}: pigeon i in hole j; i ∈ {0,1,2}, j ∈ {0,1}
        let var = |i: u32, j: u32| BoolVar::new(i * 2 + j);
        let mut s = Solver::new(6);
        for i in 0..3 {
            s.add_clause(&[var(i, 0).positive(), var(i, 1).positive()]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause(&[var(i1, j).negative(), var(i2, j).negative()]);
                }
            }
        }
        assert!(!s.is_satisfiable());
    }

    #[test]
    fn tautological_clauses_are_ignored() {
        let mut s = Solver::new(1);
        s.add_clause(&[v(0).positive(), v(0).negative()]);
        assert_eq!(s.num_clauses(), 0);
        assert!(s.is_satisfiable());
    }

    #[test]
    fn exhaustive_cross_check_on_random_3cnf() {
        // Deterministic pseudo-random small instances, checked against brute force.
        let mut seed = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..30 {
            let num_vars = 6;
            let num_clauses = 20;
            let mut s = Solver::new(num_vars);
            let mut clauses = Vec::new();
            for _ in 0..num_clauses {
                let mut lits = Vec::new();
                for _ in 0..3 {
                    let var = (next() % num_vars as u64) as u32;
                    let pos = next() % 2 == 0;
                    lits.push(Lit::new(BoolVar::new(var), pos));
                }
                clauses.push(lits.clone());
                s.add_clause(&lits);
            }
            let brute = (0..(1u32 << num_vars)).any(|bits| {
                clauses.iter().all(|c| {
                    c.iter()
                        .any(|l| l.satisfied_by(bits & (1 << l.var.index()) != 0))
                })
            });
            assert_eq!(s.is_satisfiable(), brute);
        }
    }
}
