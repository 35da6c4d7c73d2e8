//! Error type for the QFE core.

use std::fmt;

use qfe_qbo::QboError;
use qfe_query::QueryError;
use qfe_relation::RelationError;

/// Errors raised while running QFE.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum QfeError {
    /// The relational substrate reported an error.
    Relation(RelationError),
    /// Query evaluation reported an error.
    Query(QueryError),
    /// Candidate-query generation reported an error.
    Qbo(QboError),
    /// The candidate set is empty.
    NoCandidates,
    /// The remaining candidate queries cannot be distinguished by any valid
    /// database modification (they are equivalent over every database the
    /// generator can reach). The surviving queries are reported.
    NoDistinguishingDatabase { remaining: Vec<String> },
    /// The user reported that none of the presented results matches the
    /// intended query: the target query is not in the candidate set.
    TargetNotInCandidates,
    /// Candidate queries use different join schemas; run QFE per join group
    /// (Section 6.2) or enable the grouped driver.
    MixedJoinSchemas,
    /// The feedback loop exceeded its iteration safety cap without narrowing
    /// the candidates to one query.
    IterationLimitExceeded { limit: usize },
    /// The caller answered a feedback round with a choice index outside the
    /// presented results.
    InvalidChoice { chosen: usize, available: usize },
    /// `answer` / `reject` was called while no feedback round was pending
    /// (the engine was never stepped, or the round was already answered).
    NoPendingRound,
    /// A session host operation referenced a session id that is not (or no
    /// longer) hosted.
    UnknownSession { id: u64 },
    /// A session snapshot could not be serialized or deserialized.
    Snapshot { message: String },
    /// A snapshot store operation failed (I/O error, corrupt record, missing
    /// content-addressed workload). `context` names the operation and key so
    /// an operator can locate the damage; the failure surfaces to the caller
    /// instead of panicking inside the session host.
    Store { context: String, message: String },
    /// An HTTP request or response could not be parsed or transported.
    /// `context` names the endpoint or protocol stage.
    Http { context: String, message: String },
    /// An internal invariant was violated (a bug in the caller or in QFE).
    Internal { message: String },
}

impl fmt::Display for QfeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QfeError::Relation(e) => write!(f, "{e}"),
            QfeError::Query(e) => write!(f, "{e}"),
            QfeError::Qbo(e) => write!(f, "{e}"),
            QfeError::NoCandidates => write!(f, "the candidate query set is empty"),
            QfeError::NoDistinguishingDatabase { remaining } => write!(
                f,
                "no valid database modification distinguishes the {} remaining candidate queries",
                remaining.len()
            ),
            QfeError::TargetNotInCandidates => write!(
                f,
                "none of the presented results matches the target query; it is not in the candidate set"
            ),
            QfeError::MixedJoinSchemas => write!(
                f,
                "candidate queries use different join schemas; use the grouped driver (Section 6.2)"
            ),
            QfeError::IterationLimitExceeded { limit } => write!(
                f,
                "exceeded the maximum of {limit} feedback iterations"
            ),
            QfeError::InvalidChoice { chosen, available } => write!(
                f,
                "choice {chosen} is out of range: the round presents {available} results"
            ),
            QfeError::NoPendingRound => write!(
                f,
                "no feedback round is pending; step the engine before answering"
            ),
            QfeError::UnknownSession { id } => write!(f, "unknown session id {id}"),
            QfeError::Snapshot { message } => write!(f, "session snapshot error: {message}"),
            QfeError::Store { context, message } => {
                write!(f, "snapshot store error ({context}): {message}")
            }
            QfeError::Http { context, message } => {
                write!(f, "http error ({context}): {message}")
            }
            QfeError::Internal { message } => write!(f, "internal QFE error: {message}"),
        }
    }
}

impl std::error::Error for QfeError {}

impl From<RelationError> for QfeError {
    fn from(e: RelationError) -> Self {
        QfeError::Relation(e)
    }
}

impl From<QueryError> for QfeError {
    fn from(e: QueryError) -> Self {
        QfeError::Query(e)
    }
}

impl From<QboError> for QfeError {
    fn from(e: QboError) -> Self {
        QfeError::Qbo(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, QfeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_api_error_messages() {
        let e = QfeError::IterationLimitExceeded { limit: 64 };
        assert!(e.to_string().contains("64"));
        let e = QfeError::InvalidChoice {
            chosen: 5,
            available: 3,
        };
        assert!(e.to_string().contains('5'));
        assert!(e.to_string().contains('3'));
        assert!(QfeError::NoPendingRound.to_string().contains("pending"));
        assert!(QfeError::UnknownSession { id: 9 }.to_string().contains('9'));
        let e = QfeError::Snapshot {
            message: "bad json".into(),
        };
        assert!(e.to_string().contains("bad json"));
        let e = QfeError::Store {
            context: "get_session s7".into(),
            message: "record truncated".into(),
        };
        assert!(e.to_string().contains("get_session s7"));
        assert!(e.to_string().contains("record truncated"));
        let e = QfeError::Http {
            context: "POST /sessions".into(),
            message: "connection reset".into(),
        };
        assert!(e.to_string().contains("POST /sessions"));
        assert!(e.to_string().contains("connection reset"));
    }

    #[test]
    fn display_messages() {
        assert!(QfeError::NoCandidates.to_string().contains("empty"));
        assert!(QfeError::TargetNotInCandidates
            .to_string()
            .contains("not in the candidate set"));
        assert!(QfeError::MixedJoinSchemas
            .to_string()
            .contains("join schemas"));
        let e = QfeError::NoDistinguishingDatabase {
            remaining: vec!["Q1".into(), "Q2".into()],
        };
        assert!(e.to_string().contains("2 remaining"));
        let e = QfeError::Internal {
            message: "oops".into(),
        };
        assert!(e.to_string().contains("oops"));
    }

    #[test]
    fn conversions() {
        let e: QfeError = RelationError::UnknownTable { table: "T".into() }.into();
        assert!(matches!(e, QfeError::Relation(_)));
        let e: QfeError = QueryError::NoTables.into();
        assert!(matches!(e, QfeError::Query(_)));
        let e: QfeError = QboError::EmptyResult.into();
        assert!(matches!(e, QfeError::Qbo(_)));
    }
}
