//! The session-serving abstraction a service frontend routes onto.
//!
//! [`SessionBackend`] is the full session lifecycle — create, step, answer,
//! reject, park, resume, delete — plus the operational surface (occupancy
//! counts, store audit, shutdown drain), expressed as a trait so a frontend
//! does not care whether it is talking to one [`SessionHost`] or to a
//! sharded cluster of them. `qfe-server` serves an `Arc<dyn
//! SessionBackend>`; `qfe-cluster`'s router implements the same trait over
//! N shards. A program that only hosts sessions in-process needs neither:
//! it embeds a [`SessionHost`] over a [`MemoryStore`](crate::MemoryStore)
//! directly.

use std::time::Duration;

use qfe_core::{QfeSession, Result, SessionId, SessionSnapshot, Step};

use crate::fsck::FsckReport;
use crate::host::{ParkAllReport, SessionHost};
use crate::park::ParkReceipt;
use crate::store::StoreError;

/// Everything a service frontend needs from whatever hosts its sessions.
///
/// Single-host and clustered deployments implement the same contract, with
/// the same error vocabulary: unknown ids are
/// [`QfeError::UnknownSession`](qfe_core::QfeError), store trouble is
/// [`QfeError::Store`](qfe_core::QfeError), and every call is safe from many
/// threads at once.
pub trait SessionBackend: Send + Sync + std::fmt::Debug {
    /// Starts hosting a new session.
    fn create(&self, session: &QfeSession) -> Result<SessionId>;
    /// Restores a session from a snapshot under a fresh id.
    fn restore(&self, snapshot: SessionSnapshot) -> Result<SessionId>;
    /// Advances a session, rehydrating it first if parked.
    fn step(&self, id: SessionId) -> Result<Step>;
    /// Answers a session's pending round.
    fn answer(&self, id: SessionId, choice_idx: usize) -> Result<()>;
    /// Answers with the user's reported deliberation time.
    fn answer_timed(&self, id: SessionId, choice_idx: usize, user_time: Duration) -> Result<()>;
    /// Rejects every presented result of the pending round.
    fn reject(&self, id: SessionId) -> Result<()>;
    /// Snapshots a session to the store and evicts the engine.
    fn park(&self, id: SessionId) -> Result<ParkReceipt>;
    /// Ensures a session is resident; `true` when this call rehydrated it.
    fn resume(&self, id: SessionId) -> Result<bool>;
    /// Stops hosting a session entirely (engine and stored record).
    fn evict(&self, id: SessionId) -> Result<bool>;
    /// Every hosted session id — resident and parked — ascending.
    fn session_ids(&self) -> Result<Vec<SessionId>>;
    /// Engines currently on the heap (across all shards, if sharded).
    fn resident_count(&self) -> usize;
    /// Sessions parked in the store and not resident anywhere.
    fn parked_count(&self) -> Result<usize>;
    /// Short name of the backing store (`"mem"`, `"log"`, …).
    fn store_backend_name(&self) -> &'static str;
    /// Audits the backing store (see [`crate::SnapshotStore::fsck`]).
    fn fsck(&self) -> std::result::Result<FsckReport, StoreError>;
    /// Parks every resident session under an optional deadline — the
    /// graceful-shutdown sweep.
    fn park_all(&self, deadline: Option<Duration>) -> ParkAllReport;
}

impl SessionBackend for SessionHost {
    fn create(&self, session: &QfeSession) -> Result<SessionId> {
        SessionHost::create(self, session)
    }

    fn restore(&self, snapshot: SessionSnapshot) -> Result<SessionId> {
        SessionHost::restore(self, snapshot)
    }

    fn step(&self, id: SessionId) -> Result<Step> {
        SessionHost::step(self, id)
    }

    fn answer(&self, id: SessionId, choice_idx: usize) -> Result<()> {
        SessionHost::answer(self, id, choice_idx)
    }

    fn answer_timed(&self, id: SessionId, choice_idx: usize, user_time: Duration) -> Result<()> {
        SessionHost::answer_timed(self, id, choice_idx, user_time)
    }

    fn reject(&self, id: SessionId) -> Result<()> {
        SessionHost::reject(self, id)
    }

    fn park(&self, id: SessionId) -> Result<ParkReceipt> {
        SessionHost::park(self, id)
    }

    fn resume(&self, id: SessionId) -> Result<bool> {
        SessionHost::resume(self, id)
    }

    fn evict(&self, id: SessionId) -> Result<bool> {
        SessionHost::evict(self, id)
    }

    fn session_ids(&self) -> Result<Vec<SessionId>> {
        SessionHost::session_ids(self)
    }

    fn resident_count(&self) -> usize {
        SessionHost::resident_count(self)
    }

    fn parked_count(&self) -> Result<usize> {
        SessionHost::parked_count(self)
    }

    fn store_backend_name(&self) -> &'static str {
        self.store().backend_name()
    }

    fn fsck(&self) -> std::result::Result<FsckReport, StoreError> {
        self.store().fsck()
    }

    fn park_all(&self, deadline: Option<Duration>) -> ParkAllReport {
        SessionHost::park_all(self, deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostConfig;
    use crate::store::MemoryStore;
    use std::sync::Arc;

    #[test]
    fn session_host_serves_the_backend_contract() {
        let host = SessionHost::open(Arc::new(MemoryStore::new()), HostConfig::default()).unwrap();
        let backend: Arc<dyn SessionBackend> = Arc::new(host);
        let (db, result, candidates, _) = qfe_datasets::example_1_1();
        let session = qfe_core::QfeSession::builder(db, result)
            .with_candidates(candidates)
            .build()
            .unwrap();
        let id = backend.create(&session).unwrap();
        assert!(matches!(backend.step(id), Ok(Step::AwaitFeedback(_))));
        backend.park(id).unwrap();
        assert_eq!(backend.resident_count(), 0);
        assert_eq!(backend.parked_count().unwrap(), 1);
        assert!(backend.resume(id).unwrap());
        assert_eq!(backend.store_backend_name(), "mem");
        let report = backend.fsck().unwrap();
        assert!(report.is_clean());
        let sweep = backend.park_all(None);
        assert_eq!(sweep.parked, 1);
        assert!(sweep.is_complete());
        assert!(backend.evict(id).unwrap());
        assert_eq!(backend.session_ids().unwrap(), Vec::new());
    }
}
