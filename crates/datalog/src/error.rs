//! Error types for the Datalog substrate.

use std::fmt;

/// Errors produced while building or evaluating Datalog programs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DatalogError {
    /// A rule is not range-restricted.
    UnsafeRule {
        /// Display form of the offending rule.
        rule: String,
    },
    /// The program uses negation through recursion and cannot be stratified.
    NotStratifiable {
        /// Display form of a relation on the offending cycle.
        relation: String,
    },
    /// The sentence handed to [`crate::program_from_sentence`] is not a
    /// conjunction of function-free Horn clauses.
    NotHorn,
    /// An error bubbled up from the relational substrate.
    Data(kbt_data::DataError),
    /// A limit of the evaluation engine was exceeded (e.g. a relation wider
    /// than a binding mask can express).
    Engine {
        /// Human-readable description of the limit.
        message: String,
    },
    /// An incremental session was asked to maintain a program with a
    /// negated literal; sessions serve positive programs only.
    NegationInSession {
        /// Display form of the first lowered rule with a negated literal.
        rule: String,
    },
    /// The goal-directed (magic-set) rewrite does not cover this program
    /// shape; callers fall back to full materialization.
    GoalDirected {
        /// Why the rewrite refused.
        reason: String,
    },
}

impl fmt::Display for DatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatalogError::UnsafeRule { rule } => {
                write!(f, "rule is not range-restricted: {rule}")
            }
            DatalogError::NotStratifiable { relation } => write!(
                f,
                "program recurses through negation (e.g. via {relation}) and cannot be stratified"
            ),
            DatalogError::NotHorn => {
                write!(
                    f,
                    "sentence is not a conjunction of function-free Horn clauses"
                )
            }
            DatalogError::Data(e) => write!(f, "{e}"),
            DatalogError::Engine { message } => write!(f, "engine limit: {message}"),
            DatalogError::NegationInSession { rule } => {
                write!(
                    f,
                    "incremental sessions maintain positive programs only: {rule}"
                )
            }
            DatalogError::GoalDirected { reason } => {
                write!(f, "goal-directed rewrite unavailable: {reason}")
            }
        }
    }
}

impl std::error::Error for DatalogError {}

impl From<kbt_data::DataError> for DatalogError {
    fn from(e: kbt_data::DataError) -> Self {
        DatalogError::Data(e)
    }
}

impl From<kbt_engine::EngineError> for DatalogError {
    fn from(e: kbt_engine::EngineError) -> Self {
        match e {
            kbt_engine::EngineError::UnsafeRule { rule } => DatalogError::UnsafeRule { rule },
            kbt_engine::EngineError::Data(e) => DatalogError::Data(e),
            kbt_engine::EngineError::NegationInSession { rule } => {
                DatalogError::NegationInSession { rule }
            }
            other => DatalogError::Engine {
                message: other.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = DatalogError::UnsafeRule {
            rule: "R2(x1) :- R1(x2).".into(),
        };
        assert!(e.to_string().contains("range-restricted"));
        assert!(DatalogError::NotHorn.to_string().contains("Horn"));
    }
}
