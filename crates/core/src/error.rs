//! Error types for the transformation language.

use std::fmt;

/// Errors produced while evaluating transformations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoreError {
    /// The candidate universe of an update exceeds the configured limit.
    UniverseTooLarge {
        /// Number of candidate ground atoms required.
        atoms: usize,
        /// The configured ceiling.
        limit: usize,
    },
    /// The knowledgebase produced by an update exceeds the configured limit.
    TooManyWorlds {
        /// Number of possible worlds produced so far.
        worlds: usize,
        /// The configured ceiling.
        limit: usize,
    },
    /// The requested strategy cannot handle the given sentence.
    StrategyNotApplicable {
        /// Name of the strategy.
        strategy: &'static str,
        /// Why it does not apply.
        reason: String,
    },
    /// An error bubbled up from the relational substrate.
    Data(kbt_data::DataError),
    /// An error bubbled up from the logic substrate.
    Logic(kbt_logic::LogicError),
    /// The evaluation engine refused a program or a delta (a relation
    /// wider than it can index, say).
    Engine(kbt_engine::EngineError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UniverseTooLarge { atoms, limit } => write!(
                f,
                "the update needs {atoms} candidate ground atoms, above the configured limit of {limit}"
            ),
            CoreError::TooManyWorlds { worlds, limit } => write!(
                f,
                "the update produced {worlds} possible worlds, above the configured limit of {limit}"
            ),
            CoreError::StrategyNotApplicable { strategy, reason } => {
                write!(f, "strategy {strategy} is not applicable: {reason}")
            }
            CoreError::Data(e) => write!(f, "{e}"),
            CoreError::Logic(e) => write!(f, "{e}"),
            CoreError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<kbt_data::DataError> for CoreError {
    fn from(e: kbt_data::DataError) -> Self {
        CoreError::Data(e)
    }
}

impl From<kbt_logic::LogicError> for CoreError {
    fn from(e: kbt_logic::LogicError) -> Self {
        CoreError::Logic(e)
    }
}

impl From<kbt_engine::EngineError> for CoreError {
    fn from(e: kbt_engine::EngineError) -> Self {
        CoreError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_carry_limits() {
        let e = CoreError::UniverseTooLarge {
            atoms: 1_000_000,
            limit: 100_000,
        };
        assert!(e.to_string().contains("1000000"));
        let e = CoreError::StrategyNotApplicable {
            strategy: "Datalog",
            reason: "sentence is not Horn".into(),
        };
        assert!(e.to_string().contains("Horn"));
    }
}
