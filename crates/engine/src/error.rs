//! Engine error type.

use std::fmt;

use kbt_data::DataError;

/// Errors raised by the evaluation engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// A rule is not range-restricted: a head or negated-literal slot does
    /// not occur in any positive body literal.
    UnsafeRule {
        /// Display form of the offending rule.
        rule: String,
    },
    /// A relation is wider than the 32 columns a binding mask can express.
    ArityTooLarge {
        /// The offending relation.
        rel: kbt_data::RelId,
        /// Its arity.
        arity: usize,
    },
    /// An incremental delta tried to insert or remove facts of a relation
    /// that some stratum derives; the session only accepts extensional
    /// mutations (intensional relations are maintained by the fixpoint).
    IntensionalUpdate {
        /// The offending relation.
        rel: kbt_data::RelId,
    },
    /// An incremental session was asked to maintain a program with a
    /// negated literal; sessions serve positive programs only.
    NegationInSession {
        /// Display form of the first rule with a negated literal.
        rule: String,
    },
    /// An error from the relational substrate (arity mismatches, …).
    Data(DataError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnsafeRule { rule } => {
                write!(f, "unsafe rule (not range-restricted): {rule}")
            }
            EngineError::ArityTooLarge { rel, arity } => {
                write!(
                    f,
                    "relation {rel} has arity {arity}, above the engine maximum of 32"
                )
            }
            EngineError::IntensionalUpdate { rel } => {
                write!(
                    f,
                    "relation {rel} is intensional: incremental deltas may only touch \
                     extensional relations"
                )
            }
            EngineError::NegationInSession { rule } => {
                write!(
                    f,
                    "incremental sessions maintain positive programs only: {rule}"
                )
            }
            EngineError::Data(e) => write!(f, "data error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<DataError> for EngineError {
    fn from(e: DataError) -> Self {
        EngineError::Data(e)
    }
}
