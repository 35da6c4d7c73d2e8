//! Durability contract of the snapshot stores: a session parked by one
//! process generation resumes in a fresh one (new store handle on the same
//! path, new `SessionHost`) with byte-identical subsequent rounds —
//! including sessions parked mid-round, with a feedback round pending.

use std::path::PathBuf;
use std::sync::Arc;

use qfe::prelude::*;
use qfe::snapstore::{LogStore, MemoryStore};
use qfe_wire::ToJson;

fn temp_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "qfe-service-store-test-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn example_session() -> (QfeSession, SpjQuery) {
    let (db, result, candidates, _) = qfe::datasets::example_1_1();
    let target = candidates[1].clone();
    let session = QfeSession::builder(db, result)
        .with_candidates(candidates)
        .build()
        .unwrap();
    (session, target)
}

fn round_text(step: &Step) -> String {
    match step {
        Step::AwaitFeedback(round) => round.to_json().render(),
        Step::Done(outcome) => format!("done:{:?}", outcome.query.label),
    }
}

/// Parks a mid-round session through a store, "restarts the process" (drops
/// the host, opens a fresh store handle via `reopen`), and checks every
/// subsequent round is byte-identical to an uninterrupted control engine.
fn park_restart_resume_is_byte_identical(
    store: Arc<dyn SnapshotStore>,
    reopen: impl FnOnce() -> Arc<dyn SnapshotStore>,
) {
    let (session, target) = example_session();
    let oracle = OracleUser::new(target.clone());

    // The uninterrupted control: same session, never parked.
    let mut control = session.start();

    let host = SessionHost::open(store, HostConfig::default()).unwrap();
    let id = host.create(&session).unwrap();

    // Answer one full round on both, so the park happens mid-session…
    let control_round = control.step().unwrap();
    let hosted_round = host.step(id).unwrap();
    assert_eq!(round_text(&control_round), round_text(&hosted_round));
    let choice = oracle.choose(match &hosted_round {
        Step::AwaitFeedback(round) => round,
        Step::Done(_) => panic!("example needs at least one round"),
    });
    control.answer(choice.unwrap()).unwrap();
    host.answer(id, choice.unwrap()).unwrap();

    // …and step again so a pending round is live when the park happens.
    let control_pending = round_text(&control.step().unwrap());
    let hosted_pending = round_text(&host.step(id).unwrap());
    assert_eq!(control_pending, hosted_pending);

    let receipt = host.park(id).unwrap();
    assert!(!receipt.workload_hash.is_empty());
    drop(host);

    // Process restart: fresh store handle, fresh host over it.
    let next = SessionHost::open(reopen(), HostConfig::default()).unwrap();
    assert!(next.resume(id).unwrap(), "session came back from the store");

    // The pending round is re-presented byte for byte…
    assert_eq!(control_pending, round_text(&next.step(id).unwrap()));

    // …and the rest of the session tracks the control exactly.
    loop {
        let control_step = control.step().unwrap();
        let hosted_step = next.step(id).unwrap();
        assert_eq!(round_text(&control_step), round_text(&hosted_step));
        match control_step {
            Step::Done(outcome) => {
                assert_eq!(outcome.query.label, target.label);
                break;
            }
            Step::AwaitFeedback(round) => {
                let choice = oracle.choose(&round).unwrap();
                control.answer(choice).unwrap();
                next.answer(id, choice).unwrap();
            }
        }
    }
}

#[test]
fn memory_store_roundtrip_across_hosts() {
    // The in-memory store cannot survive a real restart; the same store
    // outliving two hosts is its strongest durability claim.
    let store: Arc<dyn SnapshotStore> = Arc::new(MemoryStore::new());
    let again = Arc::clone(&store);
    park_restart_resume_is_byte_identical(store, move || again);
}

#[test]
fn log_store_roundtrip_across_process_restart() {
    let path = temp_root("log").join("sessions.log");
    let reopen_path = path.clone();
    park_restart_resume_is_byte_identical(Arc::new(LogStore::open(&path).unwrap()), move || {
        Arc::new(LogStore::open(&reopen_path).unwrap())
    });
}

#[test]
fn sessions_on_one_workload_share_one_stored_payload() {
    let path = temp_root("sharing").join("sessions.log");
    let store = Arc::new(LogStore::open(&path).unwrap());
    let host = SessionHost::open(
        Arc::clone(&store) as Arc<dyn SnapshotStore>,
        HostConfig::default(),
    )
    .unwrap();

    let (session, _) = example_session();
    let mut shared_parks = 0usize;
    for i in 0..5 {
        let id = host.create(&session).unwrap();
        let _ = host.step(id).unwrap();
        let receipt = host.park(id).unwrap();
        if i > 0 {
            assert!(receipt.workload_was_shared, "park {i} reuses the workload");
        }
        shared_parks += receipt.workload_was_shared as usize;
    }
    assert_eq!(shared_parks, 4);
    assert_eq!(host.parked_count().unwrap(), 5);
    // Five parked sessions, one content-addressed workload payload.
    assert_eq!(store.workload_hashes().unwrap().len(), 1);
    assert_eq!(store.session_keys().unwrap().len(), 5);
}

#[test]
fn corrupt_records_fail_one_session_not_the_host() {
    let store = Arc::new(MemoryStore::new());
    let host = SessionHost::open(
        Arc::clone(&store) as Arc<dyn SnapshotStore>,
        HostConfig::default(),
    )
    .unwrap();

    // A parked session whose stored record has been damaged.
    let (session, target) = example_session();
    let id = host.create(&session).unwrap();
    let _ = host.step(id).unwrap();
    host.park(id).unwrap();
    store
        .put_session(&format!("s{}", id.as_u64()), "{\"version\":1,")
        .unwrap();

    let err = host.step(id).unwrap_err();
    assert!(matches!(err, QfeError::Store { .. }), "got {err:?}");
    assert!(err.to_string().contains(&format!("s{}", id.as_u64())));

    // A session that was never parked anywhere is UnknownSession, not Store.
    let ghost = host.step(qfe::core::SessionId::from_u64(4096)).unwrap_err();
    assert!(matches!(ghost, QfeError::UnknownSession { .. }));

    // The host (and its manager lock) survived both failures.
    let oracle = OracleUser::new(target.clone());
    let healthy = host.create(&session).unwrap();
    loop {
        match host.step(healthy).unwrap() {
            Step::Done(outcome) => {
                assert_eq!(outcome.query.label, target.label);
                break;
            }
            Step::AwaitFeedback(round) => {
                host.answer(healthy, oracle.choose(&round).unwrap())
                    .unwrap();
            }
        }
    }
}
