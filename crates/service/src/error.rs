use privshape_protocol::Error as ProtocolError;
use std::fmt;

/// Convenience alias for this crate.
pub type Result<T> = std::result::Result<T, ServiceError>;

/// Errors produced by the aggregation service layer.
#[derive(Debug)]
pub enum ServiceError {
    /// The registry is at capacity; the session was not admitted.
    AdmissionDenied {
        /// Sessions currently resident.
        active: usize,
        /// Configured maximum.
        capacity: usize,
    },
    /// The routed frame addressed a session that has no round open, so
    /// there is no pipeline to deliver it to. Distinct from
    /// [`ProtocolError::StaleGeneration`]: the session exists but is
    /// between rounds (or already complete).
    NoOpenRound {
        /// The addressed session.
        session_id: u64,
    },
    /// A session id that is required to be fresh (snapshot restore under
    /// an id that is still resident).
    SessionCollision {
        /// The contested id.
        session_id: u64,
    },
    /// A propagated protocol-layer error (including the typed routing
    /// rejections [`ProtocolError::UnknownSession`],
    /// [`ProtocolError::StaleGeneration`], and
    /// [`ProtocolError::UnsupportedVersion`]).
    Session(ProtocolError),
    /// The session exhausted its recovery budget (repeated round failures
    /// past the [`crate::RetryPolicy`] limits of a
    /// [supervised](crate::ServiceRegistry::supervised) registry) and was
    /// removed from service. Terminal for the session — every later call for its id
    /// gets this same error — but invisible to every other session:
    /// quarantine is the graceful-degradation boundary, not a service
    /// failure.
    Quarantined {
        /// The quarantined session.
        session_id: u64,
        /// Recovery attempts consumed before giving up.
        attempts: u32,
        /// Rendering of the failure that exhausted the budget.
        cause: String,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::AdmissionDenied { active, capacity } => {
                write!(
                    f,
                    "admission denied: {active} sessions resident, capacity {capacity}"
                )
            }
            ServiceError::NoOpenRound { session_id } => {
                write!(f, "session {session_id} has no open round")
            }
            ServiceError::SessionCollision { session_id } => {
                write!(f, "session id {session_id} is still resident")
            }
            ServiceError::Session(e) => write!(f, "session error: {e}"),
            ServiceError::Quarantined {
                session_id,
                attempts,
                cause,
            } => write!(
                f,
                "session {session_id} quarantined after {attempts} recovery attempts: {cause}"
            ),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Session(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProtocolError> for ServiceError {
    fn from(e: ProtocolError) -> Self {
        ServiceError::Session(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        assert!(ServiceError::AdmissionDenied {
            active: 4,
            capacity: 4
        }
        .to_string()
        .contains("capacity 4"));
        assert!(ServiceError::NoOpenRound { session_id: 3 }
            .to_string()
            .contains("session 3"));
        assert!(ServiceError::SessionCollision { session_id: 8 }
            .to_string()
            .contains("id 8"));
        let e: ServiceError = ProtocolError::UnknownSession { session_id: 9 }.into();
        assert!(e.to_string().contains("unknown session id 9"));
        let q = ServiceError::Quarantined {
            session_id: 5,
            attempts: 3,
            cause: "worker panicked".into(),
        }
        .to_string();
        assert!(q.contains("session 5") && q.contains("3 recovery") && q.contains("panicked"));
        use std::error::Error as _;
        assert!(e.source().is_some());
        assert!(ServiceError::NoOpenRound { session_id: 1 }
            .source()
            .is_none());
    }
}
