//! Service-level errors: command parsing, name resolution, durability, and
//! everything the underlying layers can report.
//!
//! Every error carries a stable machine-readable code ([`ServiceError::code`])
//! — the `<code>` of an `ERR <code> <message>` wire response.  The full
//! code table, net-level codes included, is [`CODE_TABLE`]; a unit test
//! holds it exhaustive against the enum.

use std::fmt;
use std::io;

/// Any error a service operation can produce.
#[derive(Debug)]
pub enum ServiceError {
    /// A command line could not be parsed.
    Parse {
        /// What went wrong (with enough context to fix the input).
        message: String,
    },
    /// `APPLY` named a transformation that was never `DEFINE`d.
    UnknownTransform(String),
    /// A command referenced a relation name the vocabulary does not know.
    UnknownRelation(String),
    /// A `RETRACT` referenced a constant name never seen before (a typo:
    /// retracting a fact over a brand-new name is always a no-op).
    UnknownConstant(String),
    /// A bound query named a known relation with the wrong argument count.
    ArityMismatch {
        /// The relation's surface name.
        relation: String,
        /// The arity the vocabulary records for it.
        expected: usize,
        /// The number of arguments the query supplied.
        found: usize,
    },
    /// Script execution nested `LOAD`s too deeply (a cycle, most likely).
    ScriptDepth(usize),
    /// A `CHECKPOINT`/`WALSTAT` command reached a service configured
    /// without durability.
    DurabilityDisabled,
    /// A commit panicked while it held the writer lock, so the writer's
    /// state may be half-mutated.  Every later commit is refused with this
    /// error; reads keep serving the last published epoch.
    WriterPoisoned,
    /// A WAL record *before* the final one failed its length or checksum
    /// frame: the log is corrupt in the middle and replaying past the
    /// damage could serve silently wrong state, so recovery refuses.
    /// (A torn **final** record is normal crash debris and is truncated
    /// instead — see the crate-level *Durability* section.)
    WalCorrupt {
        /// Byte offset of the bad record.
        offset: u64,
        /// What failed (frame, checksum, payload).
        detail: String,
    },
    /// A checkpoint file failed its header, format, or checksum check.
    CheckpointCorrupt {
        /// The file that failed.
        path: String,
        /// What failed.
        detail: String,
    },
    /// The WAL and checkpoint disagree about epoch numbering (a gap,
    /// regression, or a replayed command committing a different epoch
    /// than its record claims).  Serving would mean serving state that
    /// never existed, so recovery refuses.
    EpochMismatch {
        /// The epoch recovery expected next.
        expected: u64,
        /// The epoch actually found.
        found: u64,
    },
    /// An error from the data layer (arities, schemas).
    Data(kbt_data::DataError),
    /// An error from the logic layer (sentence parsing).
    Logic(kbt_logic::LogicError),
    /// An error from the evaluator (strategy limits, world limits).
    Core(kbt_core::CoreError),
    /// A script file could not be read, or a WAL/checkpoint write failed.
    Io(io::Error),
}

/// Every stable wire code, service- and net-level, with a one-line
/// description — the single documented table the crate docs reproduce.
/// Codes above the `line-too-long` entry are [`ServiceError::code`] values;
/// the rest are net-level conditions defined in [`crate::net::proto`].
pub const CODE_TABLE: &[(&str, &str)] = &[
    ("parse", "command line could not be parsed"),
    (
        "unknown-transform",
        "APPLY named an undefined transformation",
    ),
    ("unknown-relation", "relation name not in the vocabulary"),
    ("unknown-constant", "RETRACT named a never-seen constant"),
    (
        "arity-mismatch",
        "bound query with the wrong argument count",
    ),
    ("script-depth", "LOAD nesting exceeded the limit"),
    (
        "durability-disabled",
        "CHECKPOINT/WALSTAT without a configured data dir",
    ),
    (
        "writer-poisoned",
        "an earlier commit panicked; commits are refused",
    ),
    ("wal-corrupt", "corrupt interior WAL record at recovery"),
    (
        "checkpoint-corrupt",
        "checkpoint failed its format/checksum check",
    ),
    ("epoch-mismatch", "WAL/checkpoint epoch numbering disagrees"),
    ("data", "data-layer error (arities, schemas)"),
    ("logic", "logic-layer error (sentence parsing)"),
    ("eval", "evaluator error (strategy/world limits)"),
    ("io", "file or WAL/checkpoint I/O failed"),
    ("line-too-long", "net: command line exceeded the length cap"),
    ("invalid-utf8", "net: command line was not valid UTF-8"),
    ("idle-timeout", "net: session idle past the timeout"),
    ("unavailable", "net: max_sessions sessions already active"),
    ("shutting-down", "net: server is shutting down"),
];

impl ServiceError {
    /// The stable machine-readable code this error carries on the wire
    /// (the `<code>` of an `ERR <code> <message>` response).  Every code,
    /// including the net-level ones that never pass through a
    /// `ServiceError`, is listed in [`CODE_TABLE`].
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::Parse { .. } => "parse",
            ServiceError::UnknownTransform(_) => "unknown-transform",
            ServiceError::UnknownRelation(_) => "unknown-relation",
            ServiceError::UnknownConstant(_) => "unknown-constant",
            ServiceError::ArityMismatch { .. } => "arity-mismatch",
            ServiceError::ScriptDepth(_) => "script-depth",
            ServiceError::DurabilityDisabled => "durability-disabled",
            ServiceError::WriterPoisoned => "writer-poisoned",
            ServiceError::WalCorrupt { .. } => "wal-corrupt",
            ServiceError::CheckpointCorrupt { .. } => "checkpoint-corrupt",
            ServiceError::EpochMismatch { .. } => "epoch-mismatch",
            ServiceError::Data(_) => "data",
            ServiceError::Logic(_) => "logic",
            ServiceError::Core(_) => "eval",
            ServiceError::Io(_) => "io",
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Parse { message } => write!(f, "parse error: {message}"),
            ServiceError::UnknownTransform(name) => {
                write!(f, "unknown transformation {name:?} (DEFINE it first)")
            }
            ServiceError::UnknownRelation(name) => write!(f, "unknown relation {name:?}"),
            ServiceError::UnknownConstant(name) => write!(f, "unknown constant {name:?}"),
            ServiceError::ArityMismatch {
                relation,
                expected,
                found,
            } => write!(
                f,
                "relation {relation:?} has arity {expected}, query supplied {found} arguments"
            ),
            ServiceError::ScriptDepth(depth) => {
                write!(f, "LOAD nesting exceeds {depth} levels (cycle?)")
            }
            ServiceError::DurabilityDisabled => {
                write!(f, "durability is not configured (start with a data dir)")
            }
            ServiceError::WriterPoisoned => write!(
                f,
                "an earlier commit panicked: commits are refused, reads serve the last published epoch"
            ),
            ServiceError::WalCorrupt { offset, detail } => {
                write!(f, "corrupt WAL record at byte {offset}: {detail}")
            }
            ServiceError::CheckpointCorrupt { path, detail } => {
                write!(f, "corrupt checkpoint {path}: {detail}")
            }
            ServiceError::EpochMismatch { expected, found } => {
                write!(
                    f,
                    "epoch mismatch during recovery: expected e{expected}, found e{found}"
                )
            }
            ServiceError::Data(e) => write!(f, "data error: {e}"),
            ServiceError::Logic(e) => write!(f, "logic error: {e}"),
            ServiceError::Core(e) => write!(f, "evaluation error: {e}"),
            ServiceError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<kbt_data::DataError> for ServiceError {
    fn from(e: kbt_data::DataError) -> Self {
        ServiceError::Data(e)
    }
}

impl From<kbt_logic::LogicError> for ServiceError {
    fn from(e: kbt_logic::LogicError) -> Self {
        ServiceError::Logic(e)
    }
}

impl From<kbt_core::CoreError> for ServiceError {
    fn from(e: kbt_core::CoreError) -> Self {
        ServiceError::Core(e)
    }
}

impl From<io::Error> for ServiceError {
    fn from(e: io::Error) -> Self {
        ServiceError::Io(e)
    }
}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ServiceError>;

#[cfg(test)]
mod tests {
    use super::*;

    /// One exemplar per variant.  A new variant fails the exhaustive match
    /// in `every_code_is_documented` at compile time until it is added
    /// both here and to [`CODE_TABLE`].
    fn exemplars() -> Vec<ServiceError> {
        vec![
            ServiceError::Parse {
                message: String::new(),
            },
            ServiceError::UnknownTransform(String::new()),
            ServiceError::UnknownRelation(String::new()),
            ServiceError::UnknownConstant(String::new()),
            ServiceError::ArityMismatch {
                relation: String::new(),
                expected: 0,
                found: 0,
            },
            ServiceError::ScriptDepth(0),
            ServiceError::DurabilityDisabled,
            ServiceError::WriterPoisoned,
            ServiceError::WalCorrupt {
                offset: 0,
                detail: String::new(),
            },
            ServiceError::CheckpointCorrupt {
                path: String::new(),
                detail: String::new(),
            },
            ServiceError::EpochMismatch {
                expected: 0,
                found: 0,
            },
            ServiceError::Data(kbt_data::DataError::ArityMismatch {
                rel: kbt_data::RelId::new(0),
                expected: 0,
                found: 0,
            }),
            ServiceError::Logic(kbt_logic::LogicError::Parse {
                message: String::new(),
                offset: 0,
            }),
            ServiceError::Core(kbt_core::CoreError::TooManyWorlds {
                worlds: 0,
                limit: 0,
            }),
            ServiceError::Io(io::Error::other("x")),
        ]
    }

    #[test]
    fn every_code_is_documented_and_every_variant_covered() {
        let exemplars = exemplars();
        // Compile-time exhaustiveness: this match has no wildcard arm, so
        // adding a ServiceError variant forces an update here (and the
        // exemplar list above panics the count check until extended).
        let mut seen = 0usize;
        for e in &exemplars {
            match e {
                ServiceError::Parse { .. }
                | ServiceError::UnknownTransform(_)
                | ServiceError::UnknownRelation(_)
                | ServiceError::UnknownConstant(_)
                | ServiceError::ArityMismatch { .. }
                | ServiceError::ScriptDepth(_)
                | ServiceError::DurabilityDisabled
                | ServiceError::WriterPoisoned
                | ServiceError::WalCorrupt { .. }
                | ServiceError::CheckpointCorrupt { .. }
                | ServiceError::EpochMismatch { .. }
                | ServiceError::Data(_)
                | ServiceError::Logic(_)
                | ServiceError::Core(_)
                | ServiceError::Io(_) => seen += 1,
            }
            assert!(
                CODE_TABLE.iter().any(|(code, _)| *code == e.code()),
                "code {:?} missing from CODE_TABLE",
                e.code()
            );
        }
        assert_eq!(seen, exemplars.len());
        // every service-level code in the table is produced by a variant …
        let net_codes = [
            "line-too-long",
            "invalid-utf8",
            "idle-timeout",
            "unavailable",
            "shutting-down",
        ];
        for (code, _) in CODE_TABLE {
            let produced = exemplars.iter().any(|e| e.code() == *code);
            let net = net_codes.contains(code);
            assert!(
                produced || net,
                "table code {code:?} is neither a ServiceError code nor a net code"
            );
        }
        // … and the net-level tail matches the proto constants exactly.
        use crate::net::proto;
        for code in [
            proto::CODE_LINE_TOO_LONG,
            proto::CODE_INVALID_UTF8,
            proto::CODE_IDLE_TIMEOUT,
            proto::CODE_UNAVAILABLE,
            proto::CODE_SHUTTING_DOWN,
        ] {
            assert!(
                CODE_TABLE.iter().any(|(c, _)| *c == code),
                "net code {code:?} missing from CODE_TABLE"
            );
        }
        // codes are unique
        for (i, (a, _)) in CODE_TABLE.iter().enumerate() {
            assert!(
                CODE_TABLE.iter().skip(i + 1).all(|(b, _)| a != b),
                "duplicate code {a:?}"
            );
        }
    }
}
