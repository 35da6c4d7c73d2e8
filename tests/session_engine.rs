//! Integration tests for the sans-IO session engine and the session host:
//! behavioral parity between `QfeSession::run` and a hand-driven
//! `QfeEngine`, snapshot/resume across (simulated) process boundaries, and
//! many interleaved concurrent sessions.

use std::sync::Arc;
use std::time::Duration;

use qfe::prelude::*;
use qfe_query::{evaluate, Term};

/// Drives an engine with a `FeedbackUser`, mirroring what `run()` does, but
/// through the public step API.
fn drive(engine: &mut QfeEngine, user: &dyn FeedbackUser) -> Result<QfeOutcome, QfeError> {
    loop {
        match engine.step()? {
            Step::Done(outcome) => return Ok(outcome),
            Step::AwaitFeedback(round) => {
                let chosen = user.choose(&round);
                let user_time = user.response_time(&round, chosen);
                match chosen {
                    Some(idx) => engine.answer_timed(idx, user_time)?,
                    None => engine.reject_timed(user_time)?,
                }
            }
        }
    }
}

/// Compares everything about two outcomes that is deterministic across runs
/// (wall-clock timings are not).
fn assert_outcomes_match(a: &QfeOutcome, b: &QfeOutcome) {
    assert_eq!(a.query, b.query, "identified queries differ");
    assert_eq!(
        a.indistinguishable, b.indistinguishable,
        "equivalence classes differ"
    );
    assert_eq!(
        a.report.iterations(),
        b.report.iterations(),
        "iteration counts differ"
    );
    assert_eq!(a.report.initial_candidates, b.report.initial_candidates);
    for (x, y) in a.report.iterations.iter().zip(&b.report.iterations) {
        assert_eq!(x.iteration, y.iteration);
        assert_eq!(x.candidate_count, y.candidate_count);
        assert_eq!(x.group_count, y.group_count);
        assert_eq!(x.db_cost, y.db_cost);
        assert_eq!(x.result_cost, y.result_cost);
        assert_eq!(x.modified_relations, y.modified_relations);
        assert_eq!(x.modified_tuples, y.modified_tuples);
    }
}

// ---------------------------------------------------------------------------
// run() / engine parity
// ---------------------------------------------------------------------------

#[test]
fn engine_matches_run_on_example_1_1() {
    let (db, result, candidates, _) = qfe::datasets::example_1_1();
    for target in &candidates {
        let session = QfeSession::builder(db.clone(), result.clone())
            .with_candidates(candidates.clone())
            .build()
            .unwrap();

        let oracle = OracleUser::new(target.clone());
        let from_run = session.run(&oracle).unwrap();
        let from_engine = drive(&mut session.start(), &oracle).unwrap();
        assert_outcomes_match(&from_run, &from_engine);
        assert_eq!(from_run.query.label, target.label);
        assert!(
            from_run.report.iterations() <= 2,
            "Example 1.1 takes ≤ 2 rounds"
        );
    }

    // Worst-case feedback: same parity, target-independent.
    let session = QfeSession::builder(db, result)
        .with_candidates(candidates)
        .build()
        .unwrap();
    let from_run = session.run(&WorstCaseUser).unwrap();
    let from_engine = drive(&mut session.start(), &WorstCaseUser).unwrap();
    assert_outcomes_match(&from_run, &from_engine);
}

#[test]
fn engine_matches_run_on_the_adult_workload() {
    // The adult workload with a compact explicit candidate set around its U1
    // target. Parity requires a deterministic generator, so the skyline
    // budget is generous enough that enumeration always completes (a budget
    // expiring mid-enumeration cuts off at a timing-dependent point — the
    // trade the paper's δ threshold makes); the candidates keep the
    // tuple-class space small enough for that to stay cheap.
    let workload = qfe::datasets::adult_small(5);
    let target = workload.query("U1").unwrap().clone();
    let result = workload.example_result("U1").unwrap();
    assert!(
        !result.is_empty(),
        "U1 must have matching rows at this seed"
    );
    let shape = |p| SpjQuery::new(vec!["Adult"], vec!["id", "age", "occupation"], p);
    let candidates = vec![
        target.clone(),
        shape(DnfPredicate::conjunction(vec![
            Term::compare("age", ComparisonOp::Gt, 75i64),
            Term::eq("education", "Doctorate"),
        ]))
        .with_label("V1"),
        shape(DnfPredicate::single(Term::eq("education", "Doctorate"))).with_label("V2"),
        shape(DnfPredicate::conjunction(vec![
            Term::compare("age", ComparisonOp::Gt, 80i64),
            Term::eq("occupation", "Exec-managerial"),
        ]))
        .with_label("V3"),
    ];
    let session = QfeSession::builder(workload.database.clone(), result.clone())
        .with_candidates(candidates)
        .with_params(CostParams::default().with_skyline_budget(Duration::from_secs(120)))
        .build()
        .unwrap();

    let oracle = OracleUser::new(target.clone());
    let from_run = session.run(&oracle).unwrap();
    let from_engine = drive(&mut session.start(), &oracle).unwrap();
    assert_outcomes_match(&from_run, &from_engine);
    assert_eq!(from_run.query.label, target.label);
    // The identified query reproduces the example result.
    assert!(evaluate(&from_engine.query, &workload.database)
        .unwrap()
        .bag_equal(&result));

    let from_run = session.run(&WorstCaseUser).unwrap();
    let from_engine = drive(&mut session.start(), &WorstCaseUser).unwrap();
    assert_outcomes_match(&from_run, &from_engine);
}

// ---------------------------------------------------------------------------
// Snapshot / resume
// ---------------------------------------------------------------------------

/// Runs one oracle session twice in lock step: `resident` stays in memory
/// and builds every round on the session join it built first; `resumed` is
/// serialized, deserialized and resumed before every step, so it builds
/// every round cold. Both must show identical rounds (edits, choices' query
/// indices and results) and reach the same outcome. Returns the rounds
/// shown.
fn assert_resident_matches_resumed(session: &QfeSession, target: &SpjQuery) -> usize {
    let oracle = OracleUser::new(target.clone());
    let mut resident = session.start();
    let mut resumed = session.start();
    let mut rounds = 0;
    loop {
        let parked = resumed.snapshot().serialize();
        resumed = QfeEngine::resume(SessionSnapshot::deserialize(&parked).unwrap()).unwrap();
        match (resident.step().unwrap(), resumed.step().unwrap()) {
            (Step::AwaitFeedback(a), Step::AwaitFeedback(b)) => {
                assert_eq!(a.database_delta, b.database_delta, "round {rounds} edits");
                assert_eq!(a.choices.len(), b.choices.len());
                for (x, y) in a.choices.iter().zip(&b.choices) {
                    assert_eq!(x.query_indices, y.query_indices, "round {rounds} choices");
                    assert!(x.result.bag_equal(&y.result), "round {rounds} results");
                }
                assert_eq!(a, b);
                let choice = oracle.choose(&a).expect("the oracle finds its result");
                resident.answer(choice).unwrap();
                resumed.answer(choice).unwrap();
                rounds += 1;
            }
            (Step::Done(a), Step::Done(b)) => {
                assert_eq!(a.query, b.query);
                assert_eq!(a.indistinguishable, b.indistinguishable);
                assert_eq!(a.report.iterations(), rounds);
                assert_eq!(b.report.iterations(), rounds);
                assert!(a.query.label == target.label || a.indistinguishable.contains(target));
                return rounds;
            }
            _ => panic!("round {rounds}: one engine finished and the other did not"),
        }
    }
}

#[test]
fn resident_and_resumed_engines_agree_on_small_workloads() {
    // The benchmarks' Small scientific, baseball and adult workloads, each
    // with a candidate set around its target kept small enough that the δ
    // below is never reached (a skyline cut at δ would make the rounds
    // timing-dependent): QBO's candidates trimmed to the target plus the
    // first few others, or, for scientific (whose QBO candidates span a
    // class space too large to enumerate), the target with mutated
    // constants.
    let scientific = qfe::datasets::scientific_scaled(42, 400, 80, 6);
    let baseball = qfe::datasets::baseball_scaled(11, 40, 48, 900);
    let adult = qfe::datasets::adult_scaled(5, 600);
    let cases = [
        (&scientific, "Q2", None, 8),
        (&baseball, "Q3", Some(5), 0),
        (&adult, "U1", Some(5), 0),
        (&adult, "U2", Some(7), 0),
    ];
    let mut rounds = 0;
    for (workload, label, qbo_others, grown) in cases {
        let target = workload.query(label).unwrap().clone();
        let result = workload.example_result(label).unwrap();
        let db = &workload.database;
        let candidates = match qbo_others {
            Some(others) => {
                let generated = QfeSession::builder(db.clone(), result.clone())
                    .ensure_candidate(target.clone())
                    .build()
                    .unwrap();
                let mut candidates = vec![target.clone()];
                candidates.extend(
                    generated
                        .candidates()
                        .iter()
                        .filter(|q| **q != target)
                        .take(others)
                        .cloned(),
                );
                candidates
            }
            None => {
                qfe_qbo::grow_candidates(db, &result, std::slice::from_ref(&target), grown).unwrap()
            }
        };
        let session = QfeSession::builder(db.clone(), result)
            .with_candidates(candidates)
            .with_params(CostParams::default().with_skyline_budget(Duration::from_secs(120)))
            .build()
            .unwrap();
        let shown = assert_resident_matches_resumed(&session, &target);
        assert!(shown >= 2, "{label}: {shown} rounds");
        rounds += shown;
    }
    assert!(rounds >= 9, "{rounds} rounds");
}

#[test]
fn snapshot_mid_round_resumes_in_a_fresh_engine_to_the_same_outcome() {
    let workload = qfe::datasets::adult_small(5);
    let target = workload.query("U1").unwrap().clone();
    let result = workload.example_result("U1").unwrap();
    let shape = |p| SpjQuery::new(vec!["Adult"], vec!["id", "age", "occupation"], p);
    let candidates = vec![
        target.clone(),
        shape(DnfPredicate::single(Term::eq("education", "Doctorate"))).with_label("V2"),
        shape(DnfPredicate::conjunction(vec![
            Term::compare("age", ComparisonOp::Gt, 80i64),
            Term::eq("occupation", "Exec-managerial"),
        ]))
        .with_label("V3"),
    ];
    let session = QfeSession::builder(workload.database.clone(), result)
        .with_candidates(candidates)
        .with_params(CostParams::default().with_skyline_budget(Duration::from_secs(120)))
        .build()
        .unwrap();
    let oracle = OracleUser::new(target.clone());

    // Reference outcome, no interruption.
    let reference = session.run(&oracle).unwrap();

    // Interrupted run: snapshot mid-round after every step, ship the JSON
    // text through a "process boundary" (plain String), resume fresh.
    let mut engine = session.start();
    let outcome = loop {
        match engine.step().unwrap() {
            Step::Done(outcome) => break outcome,
            Step::AwaitFeedback(round) => {
                let text = engine.snapshot().serialize();
                drop(engine); // nothing survives but the serialized text
                let snapshot = SessionSnapshot::deserialize(&text).unwrap();
                engine = QfeEngine::resume(snapshot).unwrap();
                // The resumed engine re-presents the identical cached round.
                match engine.step().unwrap() {
                    Step::AwaitFeedback(r) => assert_eq!(r, round),
                    Step::Done(_) => panic!("pending round lost in the snapshot"),
                }
                let choice = oracle
                    .choose(&round)
                    .expect("oracle always finds its result");
                engine.answer(choice).unwrap();
            }
        }
    };
    assert_outcomes_match(&reference, &outcome);
}

#[test]
fn snapshots_serialize_the_full_session_state() {
    let (db, result, candidates, _) = qfe::datasets::example_1_1();
    let session = QfeSession::builder(db, result)
        .with_candidates(candidates)
        .build()
        .unwrap();
    let mut engine = session.start();
    let _ = engine.step().unwrap();
    engine.answer(0).unwrap();

    let snapshot = engine.snapshot();
    let text = snapshot.serialize();
    let back = SessionSnapshot::deserialize(&text).unwrap();
    assert_eq!(back, snapshot);
    // Answered iterations and the example pair survive the round trip.
    assert_eq!(back.iterations.len(), 1);
    assert_eq!(back.candidates.len(), 3);
    assert!(back.database.has_table("Employee"));
}

// ---------------------------------------------------------------------------
// Session host at scale
// ---------------------------------------------------------------------------

/// An in-process session host: no watermark, nothing outlives the process.
fn memory_host() -> SessionHost {
    SessionHost::open(Arc::new(MemoryStore::new()), HostConfig::default()).unwrap()
}

/// Drives ≥100 interleaved sessions through one host — round-robin, one
/// step or answer per visit, nothing finishing early — and checks every
/// session identifies its own target (no cross-session interference).
#[test]
fn manager_drives_120_interleaved_sessions_without_interference() {
    let (db, result, candidates, _) = qfe::datasets::example_1_1();
    let host = memory_host();
    let n = 120;

    let mut expectations = Vec::new();
    for i in 0..n {
        let target = candidates[i % candidates.len()].clone();
        let session = QfeSession::builder(db.clone(), result.clone())
            .with_candidates(candidates.clone())
            .build()
            .unwrap();
        let id = host.create(&session).unwrap();
        expectations.push((id, target));
    }
    assert_eq!(host.resident_count(), n);

    // Round-robin: each pass gives every unfinished session exactly one
    // step()+answer() interaction, so all sessions are mid-flight together.
    let mut outcomes = vec![None; n];
    while outcomes.iter().any(Option::is_none) {
        for (i, (id, target)) in expectations.iter().enumerate() {
            if outcomes[i].is_some() {
                continue;
            }
            match host.step(*id).unwrap() {
                Step::Done(outcome) => outcomes[i] = Some(outcome),
                Step::AwaitFeedback(round) => {
                    let oracle = OracleUser::new(target.clone());
                    let choice = oracle.choose(&round).expect("oracle finds its target");
                    host.answer(*id, choice).unwrap();
                }
            }
        }
    }
    for ((_, target), outcome) in expectations.iter().zip(&outcomes) {
        assert_eq!(outcome.as_ref().unwrap().query.label, target.label);
    }

    // Evict everything; the host ends empty.
    for (id, _) in &expectations {
        assert!(host.evict(*id).unwrap());
    }
    assert_eq!(host.resident_count(), 0);
}

/// The same scale from many threads at once: sessions progress independently
/// under concurrent access to the shared host.
#[test]
fn manager_serves_concurrent_threads() {
    let (db, result, candidates, _) = qfe::datasets::example_1_1();
    let host = Arc::new(memory_host());
    let threads = 8;
    let per_thread = 16;

    let mut ids = Vec::new();
    for i in 0..threads * per_thread {
        let target = candidates[i % candidates.len()].clone();
        let session = QfeSession::builder(db.clone(), result.clone())
            .with_candidates(candidates.clone())
            .build()
            .unwrap();
        ids.push((host.create(&session).unwrap(), target));
    }

    let handles: Vec<_> = ids
        .chunks(per_thread)
        .map(|chunk| {
            let host = Arc::clone(&host);
            let chunk = chunk.to_vec();
            std::thread::spawn(move || {
                for (id, target) in chunk {
                    let oracle = OracleUser::new(target.clone());
                    let outcome = loop {
                        match host.step(id).unwrap() {
                            Step::Done(outcome) => break outcome,
                            Step::AwaitFeedback(round) => {
                                let choice =
                                    oracle.choose(&round).expect("oracle finds its target");
                                host.answer(id, choice).unwrap();
                            }
                        }
                    };
                    assert_eq!(outcome.query.label, target.label);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(host.resident_count(), threads * per_thread);
}
