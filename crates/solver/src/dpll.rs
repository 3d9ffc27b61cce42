//! A DPLL satisfiability solver: one trail, two watched literals per clause,
//! chronological backtracking.
//!
//! [`Solver`] is the clause database the callers build; every question asked
//! of it — [`Solver::solve`] here, the minimal-model enumeration in
//! [`crate::minimal`] — is answered by one `Search`, built once per public
//! call and run by one `propagate` and one decision loop.  No clause
//! learning and no restarts: grounded updates over realistic active domains
//! are a few hundred clauses, and what made them slow was not the size of
//! the search tree but re-reading the whole clause list at every step of it.
//!
//! # The search state and what it keeps true
//!
//! * **Arena.**  Every clause's literals lie end to end in one `Vec<u32>`
//!   (a literal is `2·var`, or `2·var + 1` when negated, so `lit ^ 1` is its
//!   complement); clause `c` is `lits[bounds[c]..bounds[c + 1]]`.  Clauses
//!   are sorted, duplicate-free and never tautological, so a variable occurs
//!   at most once in a clause.  Unit clauses are asserted at the root and
//!   have no watches.
//! * **Trail.**  The assigned literals in the order they became true.
//!   `trail[..qhead]` have had their consequences drawn; a level is undone by
//!   truncating the trail to the length its frame recorded and clearing
//!   those variables — nothing else is touched, watches included.
//! * **Watches.**  A clause of two or more literals watches the two at its
//!   first two positions, and is threaded on the watch list of each (`head`
//!   per literal, `next` per clause and position: linked lists, so attaching
//!   a clause or moving a watch never allocates).  When `propagate` has run
//!   to completion without a conflict, a clause with a false watched literal
//!   has its other watch true — and that one was assigned no later, so
//!   truncating the trail un-assigns the false one first and the property
//!   survives backtracking untouched.  A literal becoming false therefore
//!   concerns only the clauses on its list: each either has its other watch
//!   true, or finds a non-false literal to watch instead (and moves to that
//!   list), or is unit on its other watch, or is the conflict.
//! * **Frames and the clause cursor.**  Every clause before `cursor` is
//!   satisfied by the current assignment.  A frame records the trail length
//!   and the cursor from just before its level's first literal; a clause
//!   satisfied then stays satisfied for as long as the frame lives, because
//!   the assignment below a frame only grows.  So undoing a level restores
//!   its frame's cursor, and the scan for the next clause to branch on
//!   resumes where it stopped instead of starting from clause 0 at every
//!   decision.  A frame is either a decision that still has its second value
//!   to try, or *closed*: a decision on its second value, or a level of
//!   assumptions, with nothing to try when it is refuted.
//!
//! # Branching: clause order, false first — measured, not assumed
//!
//! The decision rule is the one this solver has always had: *the first
//! clause not yet satisfied, its open variable of smallest index, false
//! before true*.  It walks the Tseitin encoding gate by gate in the order
//! grounding produced it, which keeps related variables together.  Branching
//! in plain variable-index order instead looked equivalent and is not: on
//! Example 7 (`examples::max_clique`) what is left after the clique is
//! guessed is pigeonhole-shaped, a solver without learning refutes it only
//! by exhausting it, and that module's two tests — 0.3 s in a release build
//! with the rule above, 5.6 s before the search had watches — had not
//! finished after two minutes (five, on the prototype of this rewrite).
//! `tests/solver_differential.rs` keeps both instances.

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
        let mut search = Search::new(self, assumptions.iter().map(|a| a.var));
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

/// End of a watch list.
const NIL: u32 = u32::MAX;

/// One level of the trail; see the module docs.
#[derive(Clone, Copy)]
struct Frame {
    /// Trail length just before the level's first literal.
    trail_len: usize,
    /// The clause cursor just before the level's first literal.
    cursor: usize,
    /// The literal to assert when this level is refuted — a decision's
    /// second value — or `None` for a closed frame.
    flip: Option<u32>,
}

/// The search state over one [`Solver`]'s clauses: built once per public
/// call, then asked any number of questions by pushing and popping levels.
/// The module docs list what it keeps true.
pub(crate) struct Search {
    lits: Vec<u32>,
    bounds: Vec<u32>,
    /// Per literal, the first clause watching it (or [`NIL`]).
    head: Vec<u32>,
    /// Per clause and watch position, the next clause on the same list.
    next: Vec<[u32; 2]>,
    /// Per variable: [`TRUE`], [`FALSE`] or [`OPEN`].
    assign: Vec<u8>,
    trail: Vec<u32>,
    qhead: usize,
    frames: Vec<Frame>,
    cursor: usize,
    /// Whether the clauses alone are already contradictory.
    root_conflict: bool,
    /// Work done so far, for [`crate::metrics`]; the public entry points
    /// add it to the registry once, when they are finished with the search.
    pub(crate) counters: Counters,
}

impl Search {
    /// Copies `solver`'s clauses, watches them and asserts its unit clauses.
    /// The state covers the solver's variables and `also` (assumptions and
    /// projection sets may name variables no clause does).
    pub(crate) fn new(solver: &Solver, also: impl Iterator<Item = BoolVar>) -> Search {
        let num_vars = also.fold(solver.num_vars, |n, v| n.max(v.index() + 1));
        let num_clauses = solver.num_clauses();
        let mut search = Search {
            lits: solver.lits.clone(),
            bounds: solver.bounds.clone(),
            head: vec![NIL; 2 * num_vars],
            next: vec![[NIL; 2]; num_clauses],
            assign: vec![OPEN; num_vars],
            trail: Vec::with_capacity(num_vars),
            qhead: 0,
            frames: Vec::new(),
            cursor: 0,
            root_conflict: solver.has_empty_clause,
            counters: Counters::default(),
        };
        for clause in 0..num_clauses {
            let start = search.bounds[clause] as usize;
            if search.bounds[clause + 1] as usize - start == 1 {
                let unit = search.lits[start];
                search.root_conflict |= !search.enqueue(unit);
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

    /// Makes `lit` true at the current level; `false` if it is already false.
    fn enqueue(&mut self, lit: u32) -> bool {
        match self.value(lit) {
            TRUE => true,
            FALSE => false,
            _ => {
                self.assign[(lit >> 1) as usize] = (lit & 1) as u8;
                self.trail.push(lit);
                true
            }
        }
    }

    /// Draws the consequences of every literal on the trail that has not had
    /// them drawn.  `false` on a conflict; the caller then undoes the level
    /// (which also discards the unprocessed rest of the queue).
    fn propagate(&mut self) -> bool {
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
                        return false;
                    }
                    self.enqueue(other);
                }
                link = Some((c, slot));
                clause = next;
            }
        }
        true
    }

    /// Opens a closed level and returns its depth (the root is 0): what is
    /// assumed next holds until [`Self::backtrack`] goes below that depth.
    pub(crate) fn push_level(&mut self) -> usize {
        self.frames.push(Frame {
            trail_len: self.trail.len(),
            cursor: self.cursor,
            flip: None,
        });
        self.frames.len()
    }

    /// Undoes every level above the first `depth`.
    pub(crate) fn backtrack(&mut self, depth: usize) {
        if let Some(&frame) = self.frames.get(depth) {
            self.frames.truncate(depth);
            self.undo(&frame);
        }
    }

    /// Restores the trail and the cursor to what `frame` recorded.
    fn undo(&mut self, frame: &Frame) {
        for &lit in &self.trail[frame.trail_len..] {
            self.assign[(lit >> 1) as usize] = OPEN;
        }
        self.trail.truncate(frame.trail_len);
        self.qhead = frame.trail_len;
        self.cursor = frame.cursor;
    }

    /// Asserts `lits` at the current level and propagates.  `false` if that
    /// is contradictory — then the level must be popped, and at the root
    /// nothing is satisfiable any more.
    pub(crate) fn assume(&mut self, lits: impl IntoIterator<Item = Lit>) -> bool {
        !self.root_conflict && lits.into_iter().all(|l| self.enqueue(code(l))) && self.propagate()
    }

    /// The variable to branch on: the open variable of smallest index in
    /// the first clause the assignment does not satisfy, or `None` when it
    /// satisfies them all.  Advances the cursor over the satisfied ones.
    fn pick_branch(&mut self) -> Option<u32> {
        while self.cursor + 1 < self.bounds.len() {
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
                return open;
            }
            self.cursor += 1;
        }
        None
    }

    /// Extends the current assignment — propagated, without conflict — to
    /// one satisfying every clause, by decisions on top of the levels
    /// present.  `true` leaves the model on the trail (the caller reads it,
    /// then backtracks); `false` leaves the levels present as they were.
    pub(crate) fn search(&mut self) -> bool {
        self.counters.solves += 1;
        let base = self.frames.len();
        while let Some(var) = self.pick_branch() {
            self.counters.decisions += 1;
            self.frames.push(Frame {
                trail_len: self.trail.len(),
                cursor: self.cursor,
                flip: Some(var << 1),
            });
            self.enqueue(var << 1 | 1);
            while !self.propagate() {
                self.counters.conflicts += 1;
                // the deepest decision with a value left takes it; the
                // exhausted ones above it go
                loop {
                    if self.frames.len() == base {
                        return false;
                    }
                    let mut frame = self.frames.pop().expect("deeper than base");
                    self.undo(&frame);
                    if let Some(second) = frame.flip.take() {
                        self.frames.push(frame);
                        self.enqueue(second);
                        break;
                    }
                }
            }
        }
        true
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
                self.enqueue(unit) && self.propagate()
            }
            _ => {
                let clause = self.next.len() as u32;
                self.bounds.push(self.lits.len() as u32);
                self.next.push([NIL; 2]);
                self.watch(clause, 0);
                self.watch(clause, 1);
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
