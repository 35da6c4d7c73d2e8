//! Parking and rehydrating snapshots through a store, with the workload
//! payload stored once under its content hash and decoded once per host.
//!
//! A parked session is a small state document:
//!
//! ```json
//! {"version":1,"workload":"<content hash>","state":{ ...session state... }}
//! ```
//!
//! The bulk example pair `(D, R)` lives separately under
//! `workloads/<hash>`; every session on the same workload references the
//! same hash, so the pair is stored once no matter how many sessions park.
//! Each host also keeps the last workload it decoded in a [`WorkloadCache`],
//! so while it serves sessions on one workload it fetches and decodes the
//! pair once, not once per rehydrate, and re-parking a session it
//! rehydrated neither renders nor hashes the pair again.

use std::sync::{Arc, Mutex};

use qfe_core::{SessionSnapshot, WorkloadPayload};
use qfe_wire::{content_hash, FromJson, Json};

use crate::store::{SnapshotStore, StoreError, StoreResult};

/// Version tag of the parked-session document format.
const PARKED_VERSION: i64 = 1;

/// A decoded workload with the address and size of its canonical text.
#[derive(Debug)]
struct CachedWorkload {
    hash: String,
    payload: WorkloadPayload,
    bytes: usize,
}

/// The last workload a host decoded or parked.
///
/// A workload is immutable and content-addressed, so a host serving
/// sessions on one workload needs to fetch, verify and decode it only once:
/// every session it rehydrates shares the same `Arc`s, and parking any of
/// them again finds the address by pointer instead of re-rendering and
/// re-hashing the payload. The cache holds a single workload, so it keeps
/// at most one decoded pair alive beyond the host's resident sessions; a
/// host that alternates between workloads decodes on every switch, as it
/// would with no cache. One cache belongs to one
/// [`SessionHost`](crate::SessionHost).
#[derive(Debug, Default)]
pub(crate) struct WorkloadCache {
    last: Mutex<Option<CachedWorkload>>,
}

impl WorkloadCache {
    fn last(&self) -> std::sync::MutexGuard<'_, Option<CachedWorkload>> {
        self.last.lock().expect("workload cache lock poisoned")
    }

    /// The hash and text size of the cached workload, if it holds these
    /// very `Arc`s.
    fn address_of(&self, workload: &WorkloadPayload) -> Option<(String, usize)> {
        self.last()
            .as_ref()
            .filter(|e| {
                Arc::ptr_eq(&e.payload.database, &workload.database)
                    && Arc::ptr_eq(&e.payload.result, &workload.result)
            })
            .map(|e| (e.hash.clone(), e.bytes))
    }

    /// The decoded payload stored under `hash`, if cached.
    fn get(&self, hash: &str) -> Option<WorkloadPayload> {
        self.last()
            .as_ref()
            .filter(|e| e.hash == hash)
            .map(|e| e.payload.clone())
    }

    /// Caches `payload` under `hash` and returns the cached payload. When
    /// the hash is already cached (another thread decoded it first), the
    /// cached payload wins, so every session keeps sharing one copy.
    fn insert(&self, hash: &str, payload: WorkloadPayload, bytes: usize) -> WorkloadPayload {
        let mut last = self.last();
        match last.as_ref() {
            Some(e) if e.hash == hash => e.payload.clone(),
            _ => {
                *last = Some(CachedWorkload {
                    hash: hash.to_string(),
                    payload: payload.clone(),
                    bytes,
                });
                payload
            }
        }
    }
}

/// What a park wrote — the numbers behind the content-addressing
/// win reported by the service bench.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParkReceipt {
    /// Content hash of the workload payload this session references.
    pub workload_hash: String,
    /// Bytes of the per-session state document written for this park.
    pub state_bytes: usize,
    /// Bytes of the serialized workload payload (stored once per workload).
    pub workload_bytes: usize,
    /// True when the workload was already in the store — this park wrote
    /// only the state document.
    pub workload_was_shared: bool,
}

/// Parks a snapshot under `key`: writes the workload payload (if not already
/// stored) under its content hash, and the session state referencing it.
///
/// A workload found in `cache` by pointer is neither rendered nor hashed
/// again; it is still re-written if the store has lost it.
pub(crate) fn park_snapshot(
    store: &dyn SnapshotStore,
    cache: &WorkloadCache,
    key: &str,
    snapshot: &SessionSnapshot,
) -> StoreResult<ParkReceipt> {
    let (workload, state) = snapshot.split();
    let mut rendered = None;
    let (hash, workload_bytes) = match cache.address_of(&workload) {
        Some(address) => address,
        None => {
            let text = workload.canonical_text();
            let hash = content_hash(&text);
            let bytes = text.len();
            cache.insert(&hash, workload.clone(), bytes);
            rendered = Some(text);
            (hash, bytes)
        }
    };
    let workload_was_shared = store.has_workload(&hash)?;
    if !workload_was_shared {
        let text = rendered.unwrap_or_else(|| workload.canonical_text());
        store.put_workload(&hash, &text)?;
    }
    let record = Json::object([
        ("version", Json::Int(PARKED_VERSION)),
        ("workload", Json::Str(hash.clone())),
        ("state", state),
    ])
    .render();
    store.put_session(key, &record)?;
    Ok(ParkReceipt {
        workload_hash: hash,
        state_bytes: record.len(),
        workload_bytes,
        workload_was_shared,
    })
}

/// Loads the session parked under `key`, resolving its workload reference
/// through `cache` first and the store second. `Ok(None)` when no session is
/// parked under the key; a corrupt state document, a dangling workload
/// reference or a stored workload whose text does not match its hash is a
/// [`StoreError`] naming the key, so one damaged record fails one request —
/// it never takes the host down, and a bad workload is never cached.
pub(crate) fn load_snapshot(
    store: &dyn SnapshotStore,
    cache: &WorkloadCache,
    key: &str,
) -> StoreResult<Option<SessionSnapshot>> {
    let context = format!("load_snapshot {key}");
    let Some(record) = store.get_session(key)? else {
        return Ok(None);
    };
    let record = Json::parse(&record).map_err(|e| StoreError::new(context.clone(), e))?;
    let version = record
        .field("version")
        .and_then(|v| v.as_i64())
        .map_err(|e| StoreError::new(context.clone(), e))?;
    if version != PARKED_VERSION {
        return Err(StoreError::new(
            context,
            format!("unsupported parked-session version {version}"),
        ));
    }
    let hash = record
        .field("workload")
        .and_then(|v| v.as_str())
        .map_err(|e| StoreError::new(context.clone(), e))?;
    let workload = match cache.get(hash) {
        Some(workload) => workload,
        None => {
            let Some(text) = store.get_workload(hash)? else {
                return Err(StoreError::new(
                    context,
                    format!("workload {hash} referenced by the session is not in the store"),
                ));
            };
            let workload_context = format!("{context} (workload {hash})");
            if content_hash(&text) != hash {
                return Err(StoreError::new(
                    workload_context,
                    "stored workload text does not match its content hash",
                ));
            }
            let workload = WorkloadPayload::from_json_str(&text)
                .map_err(|e| StoreError::new(workload_context, e))?;
            cache.insert(hash, workload, text.len())
        }
    };
    let state = record
        .field("state")
        .map_err(|e| StoreError::new(context.clone(), e))?;
    let snapshot =
        SessionSnapshot::from_parts(workload, state).map_err(|e| StoreError::new(context, e))?;
    Ok(Some(snapshot))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemoryStore;
    use qfe_core::QfeSession;
    use qfe_datasets::example_1_1;

    fn snapshot_mid_round() -> SessionSnapshot {
        let (db, result, candidates, _) = example_1_1();
        let session = QfeSession::builder(db, result)
            .with_candidates(candidates)
            .build()
            .unwrap();
        let mut engine = session.start();
        let _ = engine.step().unwrap();
        engine.snapshot()
    }

    #[test]
    fn park_and_load_roundtrip_with_sharing() {
        let store = MemoryStore::new();
        let cache = WorkloadCache::default();
        let snapshot = snapshot_mid_round();

        let first = park_snapshot(&store, &cache, "s1", &snapshot).unwrap();
        assert!(!first.workload_was_shared, "first park stores the workload");
        assert!(first.workload_bytes > 0);

        // A second session on the same workload shares the stored pair.
        let second = park_snapshot(&store, &cache, "s2", &snapshot).unwrap();
        assert!(second.workload_was_shared);
        assert_eq!(second.workload_hash, first.workload_hash);
        assert_eq!(store.workload_hashes().unwrap().len(), 1);

        // The state document omits the workload bytes — that is the saving
        // every additional session on the workload banks.
        let full = snapshot.serialize().len();
        assert!(
            second.state_bytes < full && full - second.state_bytes > second.workload_bytes / 2,
            "state {} bytes should be under the full snapshot {} bytes by \
             most of the workload's {} bytes",
            second.state_bytes,
            full,
            second.workload_bytes
        );

        let back = load_snapshot(&store, &cache, "s1").unwrap().unwrap();
        assert_eq!(back, snapshot);
        assert!(load_snapshot(&store, &cache, "missing").unwrap().is_none());
    }

    #[test]
    fn workload_cache_holds_the_last_workload() {
        let cache = WorkloadCache::default();
        let (workload, _) = snapshot_mid_round().split();
        let fresh = || WorkloadPayload {
            database: Arc::new((*workload.database).clone()),
            result: Arc::clone(&workload.result),
        };
        let first = fresh();
        cache.insert("h0", first.clone(), 10);
        // A second payload under the cached hash yields the first one.
        let shared = cache.insert("h0", fresh(), 10);
        assert!(Arc::ptr_eq(&shared.database, &first.database));
        assert_eq!(cache.address_of(&first), Some(("h0".to_string(), 10)));
        assert!(
            cache.address_of(&fresh()).is_none(),
            "found by pointer only"
        );
        // Another workload replaces it.
        let second = fresh();
        cache.insert("h1", second.clone(), 11);
        assert!(cache.get("h0").is_none() && cache.address_of(&first).is_none());
        let got = cache.get("h1").unwrap();
        assert!(Arc::ptr_eq(&got.database, &second.database));
    }

    #[test]
    fn corrupt_records_error_cleanly() {
        let store = MemoryStore::new();
        let cache = WorkloadCache::default();
        store.put_session("bad", "{not json").unwrap();
        let err = load_snapshot(&store, &cache, "bad").unwrap_err();
        assert!(err.to_string().contains("load_snapshot bad"));

        store
            .put_session("vers", "{\"version\":9,\"workload\":\"x\",\"state\":{}}")
            .unwrap();
        let err = load_snapshot(&store, &cache, "vers").unwrap_err();
        assert!(err.to_string().contains("version 9"));

        store
            .put_session(
                "dangling",
                "{\"version\":1,\"workload\":\"feed\",\"state\":{}}",
            )
            .unwrap();
        let err = load_snapshot(&store, &cache, "dangling").unwrap_err();
        assert!(err.to_string().contains("workload feed"));
    }
}
