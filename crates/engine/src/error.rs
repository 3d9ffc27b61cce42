//! Engine error type.
//!
//! An engine refusal reaches a client as it is (`ERR eval` on the wire), so
//! each message is written for that reader: a rule that is not
//! range-restricted, a limit of the engine, or the data layer's own message.

use std::fmt;

use kbt_data::DataError;

/// Errors raised by the evaluation engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// A rule is not range-restricted: a head slot does not occur in the
    /// body.
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
    /// that the program derives; the session only accepts extensional
    /// mutations (intensional relations are maintained by the fixpoint).
    IntensionalUpdate {
        /// The offending relation.
        rel: kbt_data::RelId,
    },
    /// An error from the relational substrate (arity mismatches, …).
    Data(DataError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnsafeRule { rule } => {
                write!(f, "rule is not range-restricted: {rule}")
            }
            EngineError::ArityTooLarge { rel, arity } => {
                write!(
                    f,
                    "engine limit: relation {rel} has arity {arity}, above the engine maximum of 32"
                )
            }
            EngineError::IntensionalUpdate { rel } => {
                write!(
                    f,
                    "engine limit: relation {rel} is intensional: incremental deltas may only touch \
                     extensional relations"
                )
            }
            EngineError::Data(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<DataError> for EngineError {
    fn from(e: DataError) -> Self {
        EngineError::Data(e)
    }
}
