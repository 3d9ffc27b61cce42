//! The one refusal this crate adds to the engine's: a sentence that is not
//! Horn.

use std::fmt;

use kbt_engine::EngineError;

/// Why [`crate::program_from_sentence`] makes no program of a sentence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DatalogError {
    /// The sentence is not a conjunction of function-free Horn clauses.
    NotHorn,
    /// The clauses do not make a program: [`crate::Program::new`]'s
    /// refusal, as the engine wrote it.
    Engine(EngineError),
}

impl fmt::Display for DatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatalogError::NotHorn => {
                write!(
                    f,
                    "sentence is not a conjunction of function-free Horn clauses"
                )
            }
            DatalogError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DatalogError {}

impl From<EngineError> for DatalogError {
    fn from(e: EngineError) -> Self {
        DatalogError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = DatalogError::from(EngineError::UnsafeRule {
            rule: "R2(x1) :- R1(x2).".into(),
        });
        assert_eq!(
            e.to_string(),
            "rule is not range-restricted: R2(x1) :- R1(x2)."
        );
        assert!(DatalogError::NotHorn.to_string().contains("Horn"));
    }
}
