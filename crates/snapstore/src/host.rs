//! The in-process session table, with a durable store and a
//! memory-pressure watermark behind it: the service-facing session host.
//!
//! [`SessionHost`] owns many concurrent [`QfeEngine`]s keyed by
//! [`SessionId`] and exposes the engine operations — step, answer, reject,
//! snapshot — through the handle. It is the embedding point for a server
//! frontend: a request handler resolves the session id, steps or answers,
//! and returns; no thread ever blocks waiting for a user. Over a
//! [`MemoryStore`](crate::MemoryStore) it is a plain in-process table.
//!
//! The host transparently rehydrates a parked session from the store on
//! its next request, and parks the longest-idle sessions whenever the
//! resident count exceeds the configured watermark. A parked session costs
//! no heap beyond the store's index entry — the PIMDAL framing: keep cold
//! state off the memory bus entirely.
//!
//! Concurrency: the host is `Sync`. The session table is behind a
//! read-write lock held only for lookup and insertion, and each session's
//! verbs, parks and checkpoints run under that session's lock, so sessions
//! progress independently, a watermark park never snapshots an engine
//! mid-verb and never evicts one a request is using.
//!
//! Durability: parking writes the session through [`SessionHost::park`];
//! rehydration leaves the stored copy in place, so a crash after resume
//! falls back to the last parked state instead of losing the session.
//! The copy is replaced on the next park.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use qfe_core::{QfeEngine, QfeError, QfeSession, Result, SessionId, SessionSnapshot, Step};

use crate::park::{load_snapshot, park_snapshot, ParkReceipt, WorkloadCache};
use crate::store::{SnapshotStore, StoreError};

/// Converts a store failure into the core error vocabulary.
fn store_qfe(e: StoreError) -> QfeError {
    QfeError::Store {
        context: e.context,
        message: e.message,
    }
}

/// One lock per session id: a session's verbs run under its lock, and so
/// does anything else that snapshots or moves it. Only held ids take room.
#[derive(Debug, Default)]
pub struct SessionLocks {
    held: Mutex<HashSet<SessionId>>,
    released: Condvar,
}

/// A held [`SessionLocks`] entry; dropping it releases the session.
#[derive(Debug)]
pub struct SessionGuard<'a> {
    locks: &'a SessionLocks,
    id: SessionId,
}

impl SessionLocks {
    fn held(&self) -> std::sync::MutexGuard<'_, HashSet<SessionId>> {
        self.held.lock().expect("session lock table poisoned")
    }

    /// Blocks until no one else holds the session, then holds it.
    pub fn lock(&self, id: SessionId) -> SessionGuard<'_> {
        let mut held = self.held();
        while !held.insert(id) {
            held = self
                .released
                .wait(held)
                .expect("session lock table poisoned");
        }
        SessionGuard { locks: self, id }
    }

    /// Holds the session if no one else does.
    pub fn try_lock(&self, id: SessionId) -> Option<SessionGuard<'_>> {
        // A guard is built only on success: dropping one releases `id`.
        if self.held().insert(id) {
            Some(SessionGuard { locks: self, id })
        } else {
            None
        }
    }
}

impl Drop for SessionGuard<'_> {
    fn drop(&mut self) {
        self.locks.held().remove(&self.id);
        self.locks.released.notify_all();
    }
}

/// Tuning for a [`SessionHost`].
#[derive(Debug, Clone, Default)]
pub struct HostConfig {
    /// Resident-engine watermark: after any request, the longest-idle
    /// sessions are parked until at most this many engines stay on the
    /// heap. `None` disables pressure-driven parking (explicit `park`
    /// still works).
    pub max_resident: Option<usize>,
}

impl HostConfig {
    /// Config with the given resident watermark.
    pub fn with_max_resident(max_resident: usize) -> HostConfig {
        HostConfig {
            max_resident: Some(max_resident),
        }
    }
}

/// What a [`SessionHost::park_all`] sweep achieved before it finished or
/// hit its deadline — the shared shutdown/drain primitive: single-node
/// shutdown and cluster shard drain both run exactly this loop.
#[derive(Debug, Default)]
pub struct ParkAllReport {
    /// Sessions parked durably by this sweep.
    pub parked: usize,
    /// Sessions whose park failed (store error); they stay resident.
    pub failed: usize,
    /// Sessions left resident because the deadline expired first.
    pub remaining: usize,
    /// True when the sweep stopped on its deadline rather than completing.
    pub timed_out: bool,
    /// The first park failure, for the caller's error report.
    pub first_error: Option<QfeError>,
}

impl ParkAllReport {
    /// True when every resident session was parked durably.
    pub fn is_complete(&self) -> bool {
        self.failed == 0 && self.remaining == 0
    }
}

/// A resident engine plus its idle clock: `last_touch` is reset by every
/// step, answer and reject (snapshots, checkpoints and parks leave it
/// alone), so the watermark parks the longest-idle session first.
#[derive(Debug)]
struct Resident {
    engine: QfeEngine,
    last_touch: Instant,
}

impl Resident {
    fn new(engine: QfeEngine) -> Arc<Mutex<Resident>> {
        Arc::new(Mutex::new(Resident {
            engine,
            last_touch: Instant::now(),
        }))
    }

    /// The engine, with the idle clock reset: the access a step, answer or
    /// reject makes.
    fn touch(&mut self) -> &mut QfeEngine {
        self.last_touch = Instant::now();
        &mut self.engine
    }
}

type SessionTable = HashMap<SessionId, Arc<Mutex<Resident>>>;

fn lock_resident(resident: &Mutex<Resident>) -> MutexGuard<'_, Resident> {
    resident.lock().expect("engine lock poisoned")
}

/// Hosts many concurrent [`QfeEngine`]s behind [`SessionId`] handles, with
/// a durable snapshot store behind them.
#[derive(Debug)]
pub struct SessionHost {
    sessions: RwLock<SessionTable>,
    next_id: AtomicU64,
    store: Arc<dyn SnapshotStore>,
    config: HostConfig,
    workloads: WorkloadCache,
    locks: SessionLocks,
}

/// The store key a session parks under — shared vocabulary between the
/// host and the cluster router, which addresses the store directly when a
/// session's shard is dead.
pub fn session_store_key(id: SessionId) -> String {
    format!("s{}", id.as_u64())
}

/// Inverse of [`session_store_key`]; `None` for non-session keys (e.g. the
/// cluster supervisor's heartbeat probes).
pub fn parse_session_store_key(key: &str) -> Option<SessionId> {
    key.strip_prefix('s')?.parse().ok().map(SessionId::from_u64)
}

impl SessionHost {
    /// Opens a host over `store`. Session ids found parked in the store are
    /// reserved, so ids created by this process generation never collide
    /// with sessions parked by a previous one.
    pub fn open(store: Arc<dyn SnapshotStore>, config: HostConfig) -> Result<SessionHost> {
        let keys = store.session_keys().map_err(store_qfe)?;
        let next_id = keys
            .iter()
            .filter_map(|k| parse_session_store_key(k))
            .map(|id| id.as_u64().saturating_add(1))
            .max()
            .unwrap_or(0);
        Ok(SessionHost {
            sessions: RwLock::default(),
            next_id: AtomicU64::new(next_id),
            store,
            config,
            workloads: WorkloadCache::default(),
            locks: SessionLocks::default(),
        })
    }

    /// The backing store.
    pub fn store(&self) -> &Arc<dyn SnapshotStore> {
        &self.store
    }

    /// Starts hosting a new session. May immediately park other sessions
    /// (or this one) if the resident watermark is exceeded.
    pub fn create(&self, session: &QfeSession) -> Result<SessionId> {
        self.adopt(session.start())
    }

    /// Starts hosting an existing engine (e.g. adopted from a snapshot sent
    /// over the wire).
    pub fn adopt(&self, engine: QfeEngine) -> Result<SessionId> {
        let id = SessionId::from_u64(self.next_id.fetch_add(1, Ordering::Relaxed));
        self.table_mut().insert(id, Resident::new(engine));
        self.enforce_watermark();
        Ok(id)
    }

    /// Starts hosting an engine under a caller-chosen id — the cluster
    /// placement path, where ids are allocated by the router rather than by
    /// any one shard. Fails when the id is already resident. The id counter
    /// is advanced past `id`, so freshly created sessions never collide
    /// with adopted ones.
    pub fn adopt_as(&self, id: SessionId, engine: QfeEngine) -> Result<()> {
        self.host_as(id, engine)?;
        self.enforce_watermark();
        Ok(())
    }

    /// Restores a session from a snapshot under a fresh id.
    pub fn restore(&self, snapshot: SessionSnapshot) -> Result<SessionId> {
        self.adopt(QfeEngine::resume(snapshot)?)
    }

    /// Runs `verb` under the session's lock with the session resident
    /// (rehydrated first if parked), then enforces the watermark.
    fn serve<T>(&self, id: SessionId, verb: impl FnOnce(&mut Resident) -> Result<T>) -> Result<T> {
        let result = {
            let _guard = self.locks.lock(id);
            self.ensure_resident(id)
                .and_then(|resident| verb(&mut lock_resident(&resident)))
        };
        self.enforce_watermark();
        result
    }

    /// Advances a session, rehydrating it from the store first if parked.
    pub fn step(&self, id: SessionId) -> Result<Step> {
        self.serve(id, |resident| resident.touch().step())
    }

    /// Answers a session's pending round, rehydrating first if parked.
    pub fn answer(&self, id: SessionId, choice_idx: usize) -> Result<()> {
        self.serve(id, |resident| resident.touch().answer(choice_idx))
    }

    /// [`QfeEngine::answer_timed`] with transparent rehydration.
    pub fn answer_timed(
        &self,
        id: SessionId,
        choice_idx: usize,
        user_time: Duration,
    ) -> Result<()> {
        self.serve(id, |resident| {
            resident.touch().answer_timed(choice_idx, user_time)
        })
    }

    /// Rejects a session's pending round, rehydrating first if parked.
    pub fn reject(&self, id: SessionId) -> Result<()> {
        self.serve(id, |resident| resident.touch().reject())
    }

    /// Externalizes a session's state ([`QfeEngine::snapshot`]),
    /// rehydrating it first if parked. The session keeps running; pair with
    /// [`SessionHost::evict`] to move it away. Snapshotting does not reset
    /// the idle clock.
    pub fn snapshot(&self, id: SessionId) -> Result<SessionSnapshot> {
        self.serve(id, |resident| Ok(resident.engine.snapshot()))
    }

    /// Parks a session: snapshots it to the store (workload payload stored
    /// once, content-addressed) and evicts the engine from memory. Parking
    /// an already-parked session is a no-op that reports the stored record.
    pub fn park(&self, id: SessionId) -> Result<ParkReceipt> {
        let _guard = self.locks.lock(id);
        self.park_held(id)
    }

    /// [`SessionHost::park`] for a caller holding the session's lock.
    fn park_held(&self, id: SessionId) -> Result<ParkReceipt> {
        let key = session_store_key(id);
        let Some(resident) = self.resident(id) else {
            return self
                .parked_receipt(&key)?
                .ok_or(QfeError::UnknownSession { id: id.as_u64() });
        };
        let snapshot = lock_resident(&resident).engine.snapshot();
        let receipt = park_snapshot(self.store.as_ref(), &self.workloads, &key, &snapshot)
            .map_err(store_qfe)?;
        self.discard(id);
        Ok(receipt)
    }

    /// Writes the session's current state to the store **without** evicting
    /// the engine — the cluster's write-through path. After a checkpoint, a
    /// crash that loses the resident engine rolls the session back only to
    /// this verb boundary instead of to its last explicit park.
    pub fn checkpoint(&self, id: SessionId) -> Result<ParkReceipt> {
        let _guard = self.locks.lock(id);
        let resident = self
            .resident(id)
            .ok_or(QfeError::UnknownSession { id: id.as_u64() })?;
        let snapshot = lock_resident(&resident).engine.snapshot();
        park_snapshot(
            self.store.as_ref(),
            &self.workloads,
            &session_store_key(id),
            &snapshot,
        )
        .map_err(store_qfe)
    }

    /// Ensures a session is resident, rehydrating it if parked. Returns
    /// `true` when this call brought it back from the store.
    pub fn resume(&self, id: SessionId) -> Result<bool> {
        if self.is_resident(id) {
            return Ok(false);
        }
        self.serve(id, |_| Ok(()))?;
        Ok(true)
    }

    /// Parks every resident session, stopping early when `deadline` expires
    /// — the one drain loop shared by single-node shutdown (`qfe-server`'s
    /// exit path) and cluster shard drain. Sessions that vanish mid-sweep
    /// (a concurrent park or delete) are not failures; store errors are
    /// tallied and the sweep keeps going so one bad record cannot strand
    /// every other session in memory.
    pub fn park_all(&self, deadline: Option<Duration>) -> ParkAllReport {
        let start = Instant::now();
        let mut report = ParkAllReport::default();
        let ids = self.resident_ids();
        for (index, &id) in ids.iter().enumerate() {
            if let Some(deadline) = deadline {
                if start.elapsed() >= deadline {
                    report.timed_out = true;
                    report.remaining = ids.len() - index;
                    break;
                }
            }
            match self.park(id) {
                Ok(_) => report.parked += 1,
                // A concurrent request already parked or deleted it.
                Err(QfeError::UnknownSession { .. }) => {}
                Err(e) => {
                    report.failed += 1;
                    report.first_error.get_or_insert(e);
                }
            }
        }
        report
    }

    /// Parks the longest-idle sessions until at most `max` engines stay on
    /// the heap — the watermark policy, run after every request by the host
    /// itself and by a cluster over its shards. A session is parked only
    /// under its lock, and only when `claim` also yields a guard for it (a
    /// cluster passes its own session lock); a session whose lock or claim
    /// is taken is in use and is skipped this time. A refused park leaves
    /// the session resident: it never fails the request that triggered the
    /// sweep, whose own effect is already committed. Returns the number
    /// parked.
    pub fn park_excess<G>(&self, max: usize, claim: impl Fn(SessionId) -> Option<G>) -> usize {
        let idle = self.idle_sessions();
        let excess = idle.len().saturating_sub(max);
        let mut parked = 0;
        for &(id, _) in &idle[..excess] {
            let Some(_claim) = claim(id) else { continue };
            let Some(_guard) = self.locks.try_lock(id) else {
                continue;
            };
            if self.is_resident(id) && self.park_held(id).is_ok() {
                parked += 1;
            }
        }
        parked
    }

    /// True when the session is resident or parked.
    pub fn contains(&self, id: SessionId) -> Result<bool> {
        if self.is_resident(id) {
            return Ok(true);
        }
        Ok(self
            .store
            .get_session(&session_store_key(id))
            .map_err(store_qfe)?
            .is_some())
    }

    /// True when the session's engine is on the heap (the store is not
    /// consulted).
    pub fn is_resident(&self, id: SessionId) -> bool {
        self.table().contains_key(&id)
    }

    /// The ids of the engines on the heap, in ascending order.
    pub fn resident_ids(&self) -> Vec<SessionId> {
        let mut ids: Vec<SessionId> = self.table().keys().copied().collect();
        ids.sort();
        ids
    }

    /// Number of engines currently on the heap.
    pub fn resident_count(&self) -> usize {
        self.table().len()
    }

    /// Number of sessions parked in the store and not resident.
    pub fn parked_count(&self) -> Result<usize> {
        Ok(self.parked_ids()?.len())
    }

    /// Every hosted session id — resident and parked — in ascending order.
    pub fn session_ids(&self) -> Result<Vec<SessionId>> {
        let mut ids = self.resident_ids();
        ids.extend(self.parked_ids()?);
        ids.sort();
        ids.dedup();
        Ok(ids)
    }

    /// Stops hosting a session entirely: evicts the engine and deletes any
    /// parked record. Returns `false` when the id was unknown everywhere.
    pub fn evict(&self, id: SessionId) -> Result<bool> {
        let _guard = self.locks.lock(id);
        let resident = self.discard(id);
        let parked = self
            .store
            .remove_session(&session_store_key(id))
            .map_err(store_qfe)?;
        Ok(resident || parked)
    }

    /// Drops the session's resident engine without writing anything and
    /// without touching its stored record — what a crash does, and how a
    /// cluster rolls back a placement. Returns `false` when it was not
    /// resident.
    pub fn discard(&self, id: SessionId) -> bool {
        self.table_mut().remove(&id).is_some()
    }

    fn table(&self) -> RwLockReadGuard<'_, SessionTable> {
        self.sessions.read().expect("session table lock poisoned")
    }

    fn table_mut(&self) -> RwLockWriteGuard<'_, SessionTable> {
        self.sessions.write().expect("session table lock poisoned")
    }

    fn resident(&self, id: SessionId) -> Option<Arc<Mutex<Resident>>> {
        self.table().get(&id).cloned()
    }

    /// Inserts `engine` under `id` unless that id is resident, and reserves
    /// every id up to `id` against fresh allocation.
    fn host_as(&self, id: SessionId, engine: QfeEngine) -> Result<Arc<Mutex<Resident>>> {
        self.next_id
            .fetch_max(id.as_u64().saturating_add(1), Ordering::Relaxed);
        let mut sessions = self.table_mut();
        if sessions.contains_key(&id) {
            return Err(QfeError::Store {
                context: format!("adopt_as {id}"),
                message: "session id is already resident".into(),
            });
        }
        let resident = Resident::new(engine);
        sessions.insert(id, Arc::clone(&resident));
        Ok(resident)
    }

    /// `(id, idle duration)` for every resident session, most idle first
    /// (ties broken by ascending id) — the order the watermark parks in.
    /// One pass under the table read lock; a session whose engine a verb
    /// holds right now counts as not idle at all.
    fn idle_sessions(&self) -> Vec<(SessionId, Duration)> {
        let now = Instant::now();
        let mut idle: Vec<(SessionId, Duration)> = self
            .table()
            .iter()
            .map(|(&id, resident)| {
                let idle = match resident.try_lock() {
                    Ok(resident) => now.saturating_duration_since(resident.last_touch),
                    Err(_) => Duration::ZERO,
                };
                (id, idle)
            })
            .collect();
        idle.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        idle
    }

    fn parked_ids(&self) -> Result<Vec<SessionId>> {
        Ok(self
            .store
            .session_keys()
            .map_err(store_qfe)?
            .iter()
            .filter_map(|k| parse_session_store_key(k))
            .filter(|&id| !self.is_resident(id))
            .collect())
    }

    /// Reconstructs a receipt for an already-parked session from the store.
    fn parked_receipt(&self, key: &str) -> Result<Option<ParkReceipt>> {
        let Some(record) = self.store.get_session(key).map_err(store_qfe)? else {
            return Ok(None);
        };
        let state_bytes = record.len();
        let hash = qfe_wire::Json::parse(&record)
            .ok()
            .and_then(|j| {
                j.field("workload")
                    .ok()
                    .and_then(|h| h.as_str().ok().map(String::from))
            })
            .unwrap_or_default();
        let workload_bytes = self
            .store
            .get_workload(&hash)
            .map_err(store_qfe)?
            .map(|w| w.len())
            .unwrap_or(0);
        Ok(Some(ParkReceipt {
            workload_hash: hash,
            state_bytes,
            workload_bytes,
            workload_was_shared: true,
        }))
    }

    /// The session's resident entry, rehydrated from the store if parked.
    /// Caller holds the session's lock, so no one else can rehydrate it
    /// concurrently.
    fn ensure_resident(&self, id: SessionId) -> Result<Arc<Mutex<Resident>>> {
        if let Some(resident) = self.resident(id) {
            return Ok(resident);
        }
        let snapshot = load_snapshot(self.store.as_ref(), &self.workloads, &session_store_key(id))
            .map_err(store_qfe)?
            .ok_or(QfeError::UnknownSession { id: id.as_u64() })?;
        self.host_as(id, QfeEngine::resume(snapshot)?)
    }

    fn enforce_watermark(&self) {
        if let Some(max) = self.config.max_resident {
            self.park_excess(max, |_| Some(()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemoryStore;
    use qfe_core::{FeedbackUser, OracleUser};
    use qfe_datasets::example_1_1;
    use qfe_query::SpjQuery;

    fn session_and_target(idx: usize) -> (QfeSession, SpjQuery) {
        let (db, result, candidates, _) = example_1_1();
        let target = candidates[idx].clone();
        let session = QfeSession::builder(db, result)
            .with_candidates(candidates)
            .build()
            .unwrap();
        (session, target)
    }

    fn drive(host: &SessionHost, id: SessionId, target: &SpjQuery) -> String {
        let oracle = OracleUser::new(target.clone());
        loop {
            match host.step(id).unwrap() {
                Step::Done(outcome) => break outcome.query.label.clone().unwrap_or_default(),
                Step::AwaitFeedback(round) => {
                    host.answer(id, oracle.choose(&round).unwrap()).unwrap()
                }
            }
        }
    }

    fn memory_host() -> SessionHost {
        SessionHost::open(Arc::new(MemoryStore::new()), HostConfig::default()).unwrap()
    }

    #[test]
    fn create_step_answer_evict_lifecycle() {
        let host = memory_host();
        assert_eq!(host.resident_count(), 0);
        let (session, target) = session_and_target(1);
        let id = host.create(&session).unwrap();
        assert!(host.is_resident(id));
        assert_eq!(host.resident_count(), 1);
        assert_eq!(host.resident_ids(), vec![id]);
        assert_eq!(id.to_string(), format!("session-{}", id.as_u64()));

        assert_eq!(drive(&host, id, &target), target.label.clone().unwrap());
        assert!(host.evict(id).unwrap());
        assert!(!host.evict(id).unwrap());
        assert!(matches!(
            host.step(id),
            Err(QfeError::UnknownSession { .. })
        ));
    }

    #[test]
    fn snapshot_restore_continues_under_a_new_id() {
        let host = memory_host();
        let (session, target) = session_and_target(2);
        let id = host.create(&session).unwrap();
        // Generate a round, snapshot mid-round, evict the original.
        let round = match host.step(id).unwrap() {
            Step::AwaitFeedback(round) => round,
            Step::Done(_) => panic!("three candidates cannot finish immediately"),
        };
        let snapshot = host.snapshot(id).unwrap();
        assert!(host.evict(id).unwrap());

        let restored = host.restore(snapshot).unwrap();
        assert_ne!(restored, id);
        let oracle = OracleUser::new(target.clone());
        // The restored session re-presents the cached round.
        let outcome = loop {
            match host.step(restored).unwrap() {
                Step::Done(outcome) => break outcome,
                Step::AwaitFeedback(r) => {
                    if r.iteration == round.iteration {
                        assert_eq!(r, round, "cached round must be re-presented");
                    }
                    host.answer(restored, oracle.choose(&r).unwrap()).unwrap();
                }
            }
        };
        assert_eq!(outcome.query.label, target.label);
    }

    #[test]
    fn unknown_ids_are_reported() {
        let host = memory_host();
        let ghost = SessionId::from_u64(999);
        assert!(!host.is_resident(ghost));
        assert!(!host.contains(ghost).unwrap());
        assert!(!host.discard(ghost));
        assert!(matches!(
            host.answer(ghost, 0),
            Err(QfeError::UnknownSession { id: 999 })
        ));
        assert!(matches!(
            host.snapshot(ghost),
            Err(QfeError::UnknownSession { .. })
        ));
        assert!(matches!(
            host.reject(ghost),
            Err(QfeError::UnknownSession { .. })
        ));
        assert!(matches!(
            host.answer_timed(ghost, 0, Duration::ZERO),
            Err(QfeError::UnknownSession { .. })
        ));
    }

    /// How long the resident session has been idle; `None` when it is not
    /// resident.
    fn idle_since(host: &SessionHost, id: SessionId) -> Option<Duration> {
        host.idle_sessions()
            .into_iter()
            .find_map(|(resident, idle)| (resident == id).then_some(idle))
    }

    #[test]
    fn idle_clock_resets_on_step_and_answer() {
        let host = memory_host();
        let (session, _) = session_and_target(1);
        let id = host.create(&session).unwrap();
        assert!(idle_since(&host, id).unwrap() < Duration::from_secs(5));
        std::thread::sleep(Duration::from_millis(15));
        let idled = idle_since(&host, id).unwrap();
        assert!(idled >= Duration::from_millis(15));
        // Snapshotting and checkpointing leave the clock alone.
        let _ = host.snapshot(id).unwrap();
        host.checkpoint(id).unwrap();
        assert!(idle_since(&host, id).unwrap() >= idled);
        // Stepping resets the clock.
        let _ = host.step(id).unwrap();
        assert!(idle_since(&host, id).unwrap() < idled);
        std::thread::sleep(Duration::from_millis(15));
        // Answering resets it again.
        host.answer(id, 0).unwrap();
        assert!(idle_since(&host, id).unwrap() < Duration::from_millis(15));
        assert!(idle_since(&host, SessionId::from_u64(404)).is_none());
    }

    #[test]
    fn idle_sessions_order_most_idle_first() {
        let host = memory_host();
        let a = host.create(&session_and_target(1).0).unwrap();
        let b = host.create(&session_and_target(2).0).unwrap();
        let order = |host: &SessionHost| -> Vec<SessionId> {
            host.idle_sessions().iter().map(|(id, _)| *id).collect()
        };
        std::thread::sleep(Duration::from_millis(10));
        let _ = host.step(b).unwrap(); // b is now the freshest
        assert_eq!(order(&host), vec![a, b]);
        let _ = host.step(a).unwrap();
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(order(&host), vec![b, a]);
    }

    #[test]
    fn adopt_as_rehosts_under_the_original_id_and_reserves_ids() {
        let host = memory_host();
        let (session, target) = session_and_target(2);
        let id = host.create(&session).unwrap();
        let _ = host.step(id).unwrap();
        let snapshot = host.snapshot(id).unwrap();
        assert!(host.discard(id));

        // A fresh host (a "restarted process") rehosts under the same id.
        let fresh = memory_host();
        fresh
            .adopt_as(id, QfeEngine::resume(snapshot.clone()).unwrap())
            .unwrap();
        assert!(fresh.is_resident(id));
        // Ids handed out afterwards never collide with the rehydrated one.
        let (other, _) = session_and_target(1);
        let new_id = fresh.create(&other).unwrap();
        assert!(new_id.as_u64() > id.as_u64());

        // Rehosting over a resident id is a store error, not a panic.
        assert!(matches!(
            fresh.adopt_as(id, QfeEngine::resume(snapshot).unwrap()),
            Err(QfeError::Store { .. })
        ));

        // The rehydrated session still finishes.
        assert_eq!(drive(&fresh, id, &target), target.label.clone().unwrap());
    }

    #[test]
    fn sessions_are_isolated() {
        let host = memory_host();
        let (s1, t1) = session_and_target(1);
        let (s2, t2) = session_and_target(2);
        let a = host.create(&s1).unwrap();
        let b = host.create(&s2).unwrap();
        // Alternate single steps first to prove interleaving is safe.
        let _ = host.step(a).unwrap();
        let _ = host.step(b).unwrap();
        assert_eq!(drive(&host, a, &t1), t1.label.clone().unwrap());
        assert_eq!(drive(&host, b, &t2), t2.label.clone().unwrap());
    }

    #[test]
    fn park_resume_preserves_the_session() {
        let host = SessionHost::open(Arc::new(MemoryStore::new()), HostConfig::default()).unwrap();
        let (session, target) = session_and_target(1);
        let id = host.create(&session).unwrap();
        let round = match host.step(id).unwrap() {
            Step::AwaitFeedback(round) => round,
            Step::Done(_) => panic!("round expected"),
        };

        let receipt = host.park(id).unwrap();
        assert!(!receipt.workload_was_shared);
        assert_eq!(host.resident_count(), 0);
        assert_eq!(host.parked_count().unwrap(), 1);
        assert!(host.contains(id).unwrap());
        // Parking twice is an idempotent no-op reporting the stored record.
        let again = host.park(id).unwrap();
        assert!(again.workload_was_shared);
        assert_eq!(again.workload_hash, receipt.workload_hash);
        assert_eq!(again.state_bytes, receipt.state_bytes);

        // The next request transparently rehydrates under the same id and
        // re-presents the cached round.
        match host.step(id).unwrap() {
            Step::AwaitFeedback(r) => assert_eq!(r, round),
            Step::Done(_) => panic!("pending round must survive the park"),
        }
        assert_eq!(host.resident_count(), 1);
        assert_eq!(drive(&host, id, &target), target.label.clone().unwrap());
    }

    #[test]
    fn watermark_parks_longest_idle_first() {
        let host = SessionHost::open(
            Arc::new(MemoryStore::new()),
            HostConfig::with_max_resident(2),
        )
        .unwrap();
        let ids: Vec<SessionId> = (0..3)
            .map(|i| host.create(&session_and_target(i % 3).0).unwrap())
            .collect();
        // Three created, watermark two: the longest-idle (first-created,
        // never touched) session was parked.
        assert_eq!(host.resident_count(), 2);
        assert_eq!(host.parked_count().unwrap(), 1);
        assert!(!host.is_resident(ids[0]));
        // All three are still addressable.
        let all = host.session_ids().unwrap();
        assert_eq!(all, ids);
        // Touching the parked one rehydrates it and parks another instead.
        let _ = host.step(ids[0]).unwrap();
        assert!(host.is_resident(ids[0]));
        assert_eq!(host.resident_count(), 2);
    }

    #[test]
    fn zero_watermark_keeps_every_session_off_heap() {
        let host = SessionHost::open(
            Arc::new(MemoryStore::new()),
            HostConfig::with_max_resident(0),
        )
        .unwrap();
        let (session, target) = session_and_target(2);
        let id = host.create(&session).unwrap();
        assert_eq!(host.resident_count(), 0, "parked immediately");
        // Every request rehydrates, works, and parks again.
        assert_eq!(drive(&host, id, &target), target.label.clone().unwrap());
        assert_eq!(host.resident_count(), 0);
    }

    #[test]
    fn unknown_and_corrupt_sessions_error_cleanly() {
        let store = Arc::new(MemoryStore::new());
        let host = SessionHost::open(
            Arc::clone(&store) as Arc<dyn SnapshotStore>,
            HostConfig::default(),
        )
        .unwrap();
        let ghost = SessionId::from_u64(99);
        assert!(matches!(
            host.step(ghost),
            Err(QfeError::UnknownSession { id: 99 })
        ));
        // A corrupt parked record surfaces as a Store error for that id…
        store.put_session("s7", "{corrupt").unwrap();
        let err = host.step(SessionId::from_u64(7)).unwrap_err();
        assert!(matches!(err, QfeError::Store { .. }));
        assert!(err.to_string().contains("s7"));
        // …and the host keeps serving other sessions afterwards.
        let (session, target) = session_and_target(1);
        let id = host.create(&session).unwrap();
        assert_eq!(drive(&host, id, &target), target.label.clone().unwrap());
    }

    #[test]
    fn checkpoint_writes_through_without_evicting() {
        let store = Arc::new(MemoryStore::new());
        let host = SessionHost::open(
            Arc::clone(&store) as Arc<dyn SnapshotStore>,
            HostConfig::default(),
        )
        .unwrap();
        let (session, target) = session_and_target(1);
        let id = host.create(&session).unwrap();
        let _ = host.step(id).unwrap();

        let receipt = host.checkpoint(id).unwrap();
        assert!(receipt.state_bytes > 0);
        // The engine stays resident…
        assert_eq!(host.resident_count(), 1);
        // …and the stored copy is a full park: a fresh host over the same
        // store (the crash-recovery path) resumes from the checkpoint.
        let recovered = SessionHost::open(
            Arc::clone(&store) as Arc<dyn SnapshotStore>,
            HostConfig::default(),
        )
        .unwrap();
        assert_eq!(
            drive(&recovered, id, &target),
            target.label.clone().unwrap()
        );
        // Checkpointing a parked session is UnknownSession (state already
        // durable), not a panic.
        host.park(id).unwrap();
        assert!(matches!(
            host.checkpoint(id),
            Err(QfeError::UnknownSession { .. })
        ));
    }

    #[test]
    fn adopt_as_hosts_under_the_callers_id() {
        let host = SessionHost::open(Arc::new(MemoryStore::new()), HostConfig::default()).unwrap();
        let (session, target) = session_and_target(2);
        let id = SessionId::from_u64(17);
        host.adopt_as(id, session.start()).unwrap();
        assert!(host.is_resident(id));
        // The id space advanced past the adopted id.
        let (other, _) = session_and_target(0);
        assert!(host.create(&other).unwrap().as_u64() > 17);
        assert_eq!(drive(&host, id, &target), target.label.clone().unwrap());
    }

    #[test]
    fn park_all_reports_progress_and_honors_the_deadline() {
        let host = SessionHost::open(Arc::new(MemoryStore::new()), HostConfig::default()).unwrap();
        let ids: Vec<SessionId> = (0..3)
            .map(|i| host.create(&session_and_target(i % 3).0).unwrap())
            .collect();
        // An expired deadline parks nothing and reports every session left.
        let stopped = host.park_all(Some(Duration::ZERO));
        assert!(stopped.timed_out);
        assert_eq!(stopped.parked, 0);
        assert_eq!(stopped.remaining, ids.len());
        assert!(!stopped.is_complete());
        // A generous deadline parks everything.
        let swept = host.park_all(Some(Duration::from_secs(30)));
        assert_eq!(swept.parked, 3);
        assert!(swept.is_complete() && !swept.timed_out);
        assert!(swept.first_error.is_none());
        assert_eq!(host.resident_count(), 0);
        assert_eq!(host.parked_count().unwrap(), 3);
        // Sweeping an empty host is a complete no-op.
        assert!(host.park_all(None).is_complete());
    }

    #[test]
    fn open_reserves_parked_ids_and_drain_parks_everything() {
        let store: Arc<dyn SnapshotStore> = Arc::new(MemoryStore::new());
        let first = SessionHost::open(Arc::clone(&store), HostConfig::default()).unwrap();
        let (session, _) = session_and_target(0);
        let id = first.create(&session).unwrap();
        let _ = first.step(id).unwrap();
        let report = first.park_all(None);
        assert_eq!(report.parked, 1);
        assert!(report.is_complete() && report.first_error.is_none());
        assert_eq!(first.resident_count(), 0);

        // A second host generation over the same store: new ids never
        // collide with the parked one.
        let second = SessionHost::open(Arc::clone(&store), HostConfig::default()).unwrap();
        let (other, _) = session_and_target(1);
        let new_id = second.create(&other).unwrap();
        assert!(new_id.as_u64() > id.as_u64());
        assert!(second.contains(id).unwrap());
        // Evicting removes both the resident engine and the parked record.
        assert!(second.evict(id).unwrap());
        assert!(!second.contains(id).unwrap());
        assert!(!second.evict(id).unwrap());
    }

    fn round_of(step: Step) -> qfe_core::FeedbackRound {
        match step {
            Step::AwaitFeedback(round) => round,
            Step::Done(_) => panic!("a feedback round was expected"),
        }
    }

    #[test]
    fn the_watermark_never_parks_a_session_whose_lock_is_held() {
        let host = SessionHost::open(
            Arc::new(MemoryStore::new()),
            HostConfig::with_max_resident(1),
        )
        .unwrap();
        let (session, target) = session_and_target(1);
        let x = host.create(&session).unwrap();
        let y = host.create(&session_and_target(2).0).unwrap();
        // Creating y parked x; stepping x parks y.
        round_of(host.step(x).unwrap());
        assert!(!host.is_resident(y));
        // While a request holds x, x is off limits to the sweep that follows
        // y's verb, even though x is the longest idle.
        {
            let _in_flight = host.locks.lock(x);
            round_of(host.step(y).unwrap());
            assert!(host.is_resident(x));
            assert_eq!(host.resident_count(), 2);
        }
        // Once x is free the next sweep restores the watermark.
        round_of(host.step(x).unwrap());
        assert_eq!(host.resident_count(), 1);
        assert_eq!(drive(&host, x, &target), target.label.clone().unwrap());
    }

    #[test]
    fn a_refused_watermark_park_does_not_fail_the_verb_that_swept() {
        // The first put_session under "s1" is the park of y that the sweep
        // after x's answer attempts.
        let plan = crate::FaultPlan::new().with_rule(crate::FaultRule {
            op: "put_session".to_string(),
            key_contains: Some("s1".to_string()),
            trigger: crate::FaultTrigger::Nth(1),
            action: crate::FaultAction::Error,
            limit: None,
        });
        let store = crate::FaultyStore::new(Arc::new(MemoryStore::new()), plan);
        let host = SessionHost::open(Arc::new(store), HostConfig::with_max_resident(1)).unwrap();
        let (session, target) = session_and_target(1);
        let x = host.create(&session).unwrap();
        let round = round_of(host.step(x).unwrap());
        let y = host.create(&session_and_target(2).0).unwrap();
        assert!(!host.is_resident(x), "y's birth parked x");
        // The answer rehydrates x and commits; its sweep fails to park y.
        // The answer still succeeds, and exactly once.
        let choice = OracleUser::new(target.clone()).choose(&round).unwrap();
        host.answer(x, choice).unwrap();
        assert!(host.is_resident(y), "y stays resident");
        assert!(host.answer(x, choice).is_err(), "the round was consumed");
        assert_eq!(drive(&host, x, &target), target.label.clone().unwrap());
        let (_, y_target) = session_and_target(2);
        assert_eq!(drive(&host, y, &y_target), y_target.label.clone().unwrap());
    }

    fn parked_session(store: &Arc<dyn SnapshotStore>, idx: usize) -> (SessionId, SpjQuery) {
        let host = SessionHost::open(Arc::clone(store), HostConfig::default()).unwrap();
        let (session, target) = session_and_target(idx);
        let id = host.create(&session).unwrap();
        let _ = host.step(id).unwrap();
        host.park(id).unwrap();
        (id, target)
    }

    fn snapshot_of(host: &SessionHost, id: SessionId) -> SessionSnapshot {
        host.snapshot(id).unwrap()
    }

    #[test]
    fn rehydrated_sessions_share_one_decoded_workload() {
        let store: Arc<dyn SnapshotStore> = Arc::new(MemoryStore::new());
        let (a, target) = parked_session(&store, 1);
        let (b, _) = parked_session(&store, 2);
        // A cold host decodes the workload once; both sessions point at it.
        let host = SessionHost::open(Arc::clone(&store), HostConfig::default()).unwrap();
        host.resume(a).unwrap();
        host.resume(b).unwrap();
        let (sa, sb) = (snapshot_of(&host, a), snapshot_of(&host, b));
        assert!(Arc::ptr_eq(&sa.database, &sb.database));
        assert!(Arc::ptr_eq(&sa.result, &sb.result));
        // Re-parking reports the same receipt a fresh render would.
        let receipt = host.park(a).unwrap();
        let (workload, _) = sa.split();
        let text = workload.canonical_text();
        assert_eq!(receipt.workload_hash, qfe_wire::content_hash(&text));
        assert_eq!(receipt.workload_bytes, text.len());
        assert!(receipt.workload_was_shared);
        assert_eq!(drive(&host, a, &target), target.label.clone().unwrap());
    }

    #[test]
    fn a_workload_that_does_not_match_its_hash_fails_only_its_session() {
        let store: Arc<dyn SnapshotStore> = Arc::new(MemoryStore::new());
        // Plant a different, well-formed workload under the address of the
        // real one before any session parks: parks then see it as shared.
        let (session, _) = session_and_target(0);
        let (workload, _) = session.start().snapshot().split();
        let hash = qfe_wire::content_hash(&workload.canonical_text());
        // Same D, but R emptied: well-formed, and not what the hash names.
        let planted = qfe_core::WorkloadPayload {
            database: Arc::clone(&workload.database),
            result: Arc::new(qfe_query::QueryResult::empty(
                workload.result.columns().to_vec(),
            )),
        };
        store
            .put_workload(&hash, &planted.canonical_text())
            .unwrap();
        let (bad, _) = parked_session(&store, 1);

        let host = SessionHost::open(Arc::clone(&store), HostConfig::default()).unwrap();
        for _ in 0..2 {
            // Not cached: the second attempt re-checks and fails again.
            let err = host.step(bad).unwrap_err();
            assert!(matches!(err, QfeError::Store { .. }), "{err}");
            assert!(err.to_string().contains("does not match its content hash"));
            assert!(err.to_string().contains(&format!("s{}", bad.as_u64())));
        }
        // Other sessions on the host are unaffected.
        let (session, target) = session_and_target(2);
        let id = host.create(&session).unwrap();
        assert_eq!(drive(&host, id, &target), target.label.clone().unwrap());
    }

    #[test]
    fn a_workload_lost_from_the_store_is_rewritten_on_the_next_park() {
        let dir = std::env::temp_dir().join(format!("qfe-host-lost-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("sessions.log");
        let store: Arc<dyn SnapshotStore> = Arc::new(crate::LogStore::open(&path).unwrap());
        let host = SessionHost::open(Arc::clone(&store), HostConfig::default()).unwrap();
        let (session, target) = session_and_target(1);
        let id = host.create(&session).unwrap();
        let _ = host.step(id).unwrap();
        let first = host.park(id).unwrap();
        assert!(!first.workload_was_shared);
        // Rehydrate (the cache now holds the workload), then rot the log's
        // workload record: fsck quarantines it, so the store has lost it.
        host.resume(id).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let text = String::from_utf8(bytes.clone()).unwrap();
        let record = text
            .find(&format!("w\t{}\t", first.workload_hash))
            .expect("the workload record is in the log");
        let last = record + text[record..].find('\n').unwrap() - 1;
        bytes[last] ^= 0x20;
        std::fs::write(&path, bytes).unwrap();
        let report = store.fsck().unwrap();
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].namespace, "workloads");
        assert!(!store.has_workload(&first.workload_hash).unwrap());

        let again = host.park(id).unwrap();
        assert!(!again.workload_was_shared, "the lost workload is re-put");
        assert_eq!(again.workload_hash, first.workload_hash);
        assert_eq!(again.workload_bytes, first.workload_bytes);
        assert!(store.has_workload(&first.workload_hash).unwrap());
        // A cold host resumes it from the rewritten copy.
        let cold = SessionHost::open(Arc::clone(&store), HostConfig::default()).unwrap();
        assert_eq!(drive(&cold, id, &target), target.label.clone().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
