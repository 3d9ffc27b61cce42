//! Conversion from first-order Horn sentences to Datalog programs.
//!
//! Theorem 4.8 considers transformations whose sentences are conjunctions of
//! function-free Horn clauses.  `kbt-logic::horn` recognises that shape and
//! returns its clauses as rules; this module checks them into a [`Program`].

use kbt_logic::{horn_clauses, Sentence};

use crate::error::DatalogError;
use crate::{Program, Result};

/// Converts a sentence into a Datalog program, if the sentence is a
/// conjunction of function-free Horn clauses; fails with
/// [`DatalogError::NotHorn`] otherwise, and with [`Program::new`]'s refusal
/// when the clauses do not make a program.
pub fn program_from_sentence(sentence: &Sentence) -> Result<Program> {
    let rules = horn_clauses(sentence).ok_or(DatalogError::NotHorn)?;
    Ok(Program::new(rules)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::semi_naive_eval;
    use kbt_data::{DatabaseBuilder, RelId};
    use kbt_logic::builder::*;

    fn r(i: u32) -> RelId {
        RelId::new(i)
    }

    #[test]
    fn example_1_sentence_becomes_the_tc_program() {
        // Example 1 of the paper, rewritten as two Horn clauses:
        // ∀x,y (R1(x,y) → R2(x,y)) ∧ ∀x,y,z (R2(x,y) ∧ R1(y,z) → R2(x,z))
        let phi = Sentence::new(and(
            forall(
                [1, 2],
                implies(atom(1, [var(1), var(2)]), atom(2, [var(1), var(2)])),
            ),
            forall(
                [1, 2, 3],
                implies(
                    and(atom(2, [var(1), var(2)]), atom(1, [var(2), var(3)])),
                    atom(2, [var(1), var(3)]),
                ),
            ),
        ))
        .unwrap();
        let program = program_from_sentence(&phi).unwrap();
        assert_eq!(program.len(), 2);

        let edb = DatabaseBuilder::new()
            .fact(r(1), [1u32, 2])
            .fact(r(1), [2u32, 3])
            .fact(r(1), [3u32, 4])
            .build()
            .unwrap();
        let (fix, _) = semi_naive_eval(&program, &edb).unwrap();
        assert_eq!(fix.relation(r(2)).unwrap().len(), 6);
        assert!(fix.holds(r(2), &kbt_data::tuple![1, 4]));
    }

    #[test]
    fn non_horn_sentences_are_rejected() {
        let phi = Sentence::new(forall(
            [1, 2],
            iff(atom(1, [var(1), var(2)]), atom(2, [var(1), var(2)])),
        ))
        .unwrap();
        assert!(matches!(
            program_from_sentence(&phi),
            Err(DatalogError::NotHorn)
        ));
    }

    #[test]
    fn unsafe_horn_clauses_are_rejected_at_program_construction() {
        // ∀x,y (R1(x,x) → R2(x,y)) is Horn but not range-restricted.
        let phi = Sentence::new(forall(
            [1, 2],
            implies(atom(1, [var(1), var(1)]), atom(2, [var(1), var(2)])),
        ))
        .unwrap();
        assert!(matches!(
            program_from_sentence(&phi),
            Err(DatalogError::UnsafeRule { .. })
        ));
    }
}
