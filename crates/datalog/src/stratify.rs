//! Stratification, which positive Datalog makes trivial.

use crate::{Program, Result};

/// Splits `program` into strata.  A rule body is a list of atoms, so a
/// non-empty program is its one stratum and an empty program has none.
///
/// Evaluation never calls this: the end-to-end benchmark's
/// `datalog.stratify` shadow span (`bench/stackbench`) is its only caller.
pub fn stratify(program: &Program) -> Result<Vec<Program>> {
    if program.is_empty() {
        Ok(Vec::new())
    } else {
        Ok(vec![program.clone()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbt_data::RelId;
    use kbt_logic::builder::var;
    use kbt_logic::{Atom, Rule};

    fn r(i: u32) -> RelId {
        RelId::new(i)
    }

    #[test]
    fn a_program_is_its_one_stratum() {
        let p = Program::new(vec![
            Rule::new(
                Atom::new(r(2), vec![var(1), var(2)]),
                vec![Atom::new(r(1), vec![var(1), var(2)])],
            ),
            Rule::new(
                Atom::new(r(2), vec![var(1), var(3)]),
                vec![
                    Atom::new(r(2), vec![var(1), var(2)]),
                    Atom::new(r(1), vec![var(2), var(3)]),
                ],
            ),
        ])
        .unwrap();
        assert_eq!(stratify(&p).unwrap(), vec![p]);
        assert!(stratify(&Program::default()).unwrap().is_empty());
    }
}
