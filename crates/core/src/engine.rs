//! The sans-IO session engine: Algorithm 1 as a resumable state machine.
//!
//! [`QfeSession::run`](crate::QfeSession::run) drives the feedback loop
//! against a callback, which cannot suspend while a real user thinks, cannot
//! survive a process restart and cannot serve many concurrent users.
//! [`QfeEngine`] inverts the control flow: the caller *pulls* each feedback
//! round out of the engine with [`QfeEngine::step`] and *pushes* the user's
//! selection back in with [`QfeEngine::answer`] — the engine performs no IO
//! and never blocks on a user.
//!
//! ```text
//! loop {
//!     match engine.step()? {
//!         Step::AwaitFeedback(round) => engine.answer(choice_for(&round))?,
//!         Step::Done(outcome) => break outcome,
//!     }
//! }
//! ```
//!
//! All loop state lives in the engine's [`SessionSnapshot`]: the surviving
//! candidate indices, the per-iteration statistics, and the
//! generated-but-unanswered round (cached, so repeated `step` calls
//! re-present the same round without re-running Algorithms 2–4).
//! [`QfeEngine::snapshot`] hands out a copy and [`QfeEngine::resume`] wraps
//! one again, so a session can be persisted mid-round, shipped across
//! processes, and continued elsewhere.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qfe_query::{QueryResult, SpjQuery};
use qfe_relation::Database;

use crate::context::{GenerationContext, SessionJoin};
use crate::cost::CostParams;
use crate::dbgen::{generate_round, PendingRound};
use crate::driver::QfeOutcome;
use crate::error::{QfeError, Result};
use crate::feedback::FeedbackRound;
use crate::stats::{IterationStats, SessionReport};

/// What the engine needs next.
#[derive(Debug, Clone)]
pub enum Step {
    /// A feedback round awaits the user: present it, then call
    /// [`QfeEngine::answer`] (or [`QfeEngine::reject`]).
    AwaitFeedback(FeedbackRound),
    /// The session is finished.
    Done(QfeOutcome),
}

/// Opaque handle to a hosted session: the id a server frontend
/// (`qfe_snapstore::SessionHost`, or a cluster of them) hands its clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

impl SessionId {
    /// The raw numeric id (for logging and wire protocols).
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Rebuilds a handle from its raw numeric id (the inverse of
    /// [`SessionId::as_u64`], for wire protocols and durable stores). The id
    /// is not checked against any host; operations on an unhosted id fail
    /// with [`QfeError::UnknownSession`] as usual.
    pub fn from_u64(id: u64) -> SessionId {
        SessionId(id)
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// The resumable state machine behind a QFE session (Algorithm 1, sans-IO).
///
/// Obtained from [`QfeSession::start`](crate::QfeSession::start) or
/// [`QfeEngine::resume`].
#[derive(Debug, Clone)]
pub struct QfeEngine {
    /// The whole session state; [`QfeEngine::snapshot`] hands out a copy.
    state: SessionSnapshot,
    /// The session join every round is built on, once the first round has
    /// built it. Purely a cache: never serialized, rebuilt after a resume.
    session_join: Option<Arc<SessionJoin>>,
}

impl QfeEngine {
    /// Wraps a state already known to be consistent.
    pub(crate) fn from_state(state: SessionSnapshot) -> QfeEngine {
        QfeEngine {
            state,
            session_join: None,
        }
    }

    /// Advances the state machine: returns the feedback round awaiting an
    /// answer, or the session's outcome when one query (or one equivalence
    /// class of indistinguishable queries) remains.
    ///
    /// Stepping is idempotent while a round is pending: the cached round is
    /// re-presented without re-running Algorithms 2–4, so a front end may
    /// re-render freely.
    pub fn step(&mut self) -> Result<Step> {
        let state = &self.state;
        if state.rejected {
            return Err(QfeError::TargetNotInCandidates);
        }
        if let Some(pending) = &state.pending {
            return Ok(Step::AwaitFeedback(pending.round.clone()));
        }
        if state.remaining.is_empty() {
            return Err(QfeError::NoCandidates);
        }
        if state.remaining.len() == 1 || state.indistinguishable {
            return Ok(Step::Done(self.outcome()));
        }

        let iteration = state.iterations.len() + 1;
        if iteration > state.max_iterations {
            return Err(QfeError::IterationLimitExceeded {
                limit: state.max_iterations,
            });
        }

        let round_start = Instant::now();
        let mut pending = match self.next_round() {
            Ok(pending) => pending,
            // No valid modification separates the survivors: they are
            // equivalent over every database the generator can reach, so
            // showing the user more rounds cannot help. Terminate with the
            // whole equivalence class reported in the outcome.
            Err(QfeError::NoDistinguishingDatabase { .. }) => {
                self.state.indistinguishable = true;
                return Ok(Step::Done(self.outcome()));
            }
            Err(e) => return Err(e),
        };
        pending.round.iteration = iteration;
        pending.stats.iteration = iteration;
        // The round's machine time includes building its context, and the
        // paper folds the candidate-generation time into the first
        // iteration's.
        pending.stats.execution_time = round_start.elapsed()
            + if iteration == 1 {
                self.state.query_generation_time
            } else {
                Duration::ZERO
            };
        let round = pending.round.clone();
        self.state.pending = Some(pending);
        Ok(Step::AwaitFeedback(round))
    }

    /// Runs Algorithm 2 for the current survivors on a round context built
    /// from the session join (`D` and `R` never change within a session, so
    /// the join and its join index are built once, by the first round after
    /// the engine starts or resumes).
    fn next_round(&mut self) -> Result<PendingRound> {
        let state = &self.state;
        let queries: Vec<SpjQuery> = state
            .remaining
            .iter()
            .map(|&i| state.candidates[i].clone())
            .collect();
        let ctx = match &self.session_join {
            Some(join) => GenerationContext::for_round(Arc::clone(join), queries)?,
            None => GenerationContext::new_shared(
                Arc::clone(&state.database),
                Arc::clone(&state.result),
                queries,
            )?,
        };
        self.session_join = Some(Arc::clone(ctx.session_join()));
        generate_round(&ctx, &state.params)
    }

    /// Answers the pending round: keeps the candidate queries behind choice
    /// `choice_idx` and discards the rest.
    ///
    /// Fails with [`QfeError::NoPendingRound`] when no round awaits an answer
    /// and with [`QfeError::InvalidChoice`] when the index is out of range —
    /// in both cases the engine state is unchanged, so an interactive front
    /// end can simply re-prompt.
    pub fn answer(&mut self, choice_idx: usize) -> Result<()> {
        self.answer_timed(choice_idx, Duration::ZERO)
    }

    /// [`QfeEngine::answer`] with the user's measured (or simulated) response
    /// time recorded in the iteration statistics.
    pub fn answer_timed(&mut self, choice_idx: usize, user_time: Duration) -> Result<()> {
        let state = &mut self.state;
        let available = match &state.pending {
            None => return Err(QfeError::NoPendingRound),
            Some(p) => p.round.choices.len(),
        };
        if choice_idx >= available {
            return Err(QfeError::InvalidChoice {
                chosen: choice_idx,
                available,
            });
        }
        let mut pending = state.pending.take().expect("pending round checked above");
        pending.stats.user_time = user_time;
        state.iterations.push(pending.stats);
        let kept = &pending.round.choices[choice_idx];
        state.remaining = kept
            .query_indices
            .iter()
            .map(|&i| state.remaining[i])
            .collect();
        Ok(())
    }

    /// Records that none of the presented results matches the user's intended
    /// query: the target is not among the candidates. The round's statistics
    /// are kept and the engine enters a terminal state in which every further
    /// [`QfeEngine::step`] reports [`QfeError::TargetNotInCandidates`].
    pub fn reject(&mut self) -> Result<()> {
        self.reject_timed(Duration::ZERO)
    }

    /// [`QfeEngine::reject`] with the user's response time recorded.
    pub fn reject_timed(&mut self, user_time: Duration) -> Result<()> {
        let state = &mut self.state;
        let mut pending = state.pending.take().ok_or(QfeError::NoPendingRound)?;
        pending.stats.user_time = user_time;
        state.iterations.push(pending.stats);
        state.rejected = true;
        Ok(())
    }

    fn outcome(&self) -> QfeOutcome {
        let state = &self.state;
        // With several indistinguishable survivors the choice among them is
        // immaterial (they agree on every reachable database); pick the
        // simplest deterministically so reports are stable.
        let best = state
            .remaining
            .iter()
            .copied()
            .min_by_key(|&i| {
                (
                    state.candidates[i].complexity(),
                    state.candidates[i].to_string(),
                )
            })
            .expect("outcome requires at least one remaining candidate");
        let indistinguishable = if state.remaining.len() > 1 {
            state
                .remaining
                .iter()
                .map(|&i| state.candidates[i].clone())
                .collect()
        } else {
            Vec::new()
        };
        QfeOutcome {
            query: state.candidates[best].clone(),
            indistinguishable,
            report: self.report(),
        }
    }

    /// The session record so far (also available before the session ends).
    pub fn report(&self) -> SessionReport {
        SessionReport {
            query_generation_time: self.state.query_generation_time,
            initial_candidates: self.state.candidates.len(),
            iterations: self.state.iterations.clone(),
        }
    }

    /// The example database `D`.
    pub fn database(&self) -> &Database {
        &self.state.database
    }

    /// The example result `R`.
    pub fn original_result(&self) -> &QueryResult {
        &self.state.result
    }

    /// The full candidate set the session started from.
    pub fn candidates(&self) -> &[SpjQuery] {
        &self.state.candidates
    }

    /// The queries still alive.
    pub fn remaining_candidates(&self) -> Vec<&SpjQuery> {
        self.state
            .remaining
            .iter()
            .map(|&i| &self.state.candidates[i])
            .collect()
    }

    /// Number of queries still alive.
    pub fn remaining_count(&self) -> usize {
        self.state.remaining.len()
    }

    /// Number of answered feedback iterations.
    pub fn iterations_completed(&self) -> usize {
        self.state.iterations.len()
    }

    /// True when a generated round awaits an answer.
    pub fn awaiting_feedback(&self) -> bool {
        self.state.pending.is_some()
    }

    /// The cached round awaiting an answer, by reference. Front ends that
    /// re-render frequently should prefer this over repeated
    /// [`QfeEngine::step`] calls: stepping clones the round (including the
    /// whole modified database) each time, this borrow is free.
    pub fn pending_round(&self) -> Option<&FeedbackRound> {
        self.state.pending.as_ref().map(|p| &p.round)
    }

    /// True when the session has terminated (one survivor, certified
    /// indistinguishability, or user rejection).
    pub fn is_done(&self) -> bool {
        let state = &self.state;
        state.rejected
            || (state.pending.is_none() && (state.remaining.len() <= 1 || state.indistinguishable))
    }

    /// Externalizes the engine's complete state. The example pair is shared
    /// (`Arc`), not copied: a snapshot of an engine with a 10k-row database
    /// costs a pointer bump until it is serialized.
    pub fn snapshot(&self) -> SessionSnapshot {
        self.state.clone()
    }

    /// Rebuilds an engine from a snapshot (possibly created by another
    /// process). The snapshot is validated: candidate indices must be in
    /// range and a cached pending round must be consistent with the
    /// surviving candidates.
    pub fn resume(snapshot: SessionSnapshot) -> Result<QfeEngine> {
        let n = snapshot.candidates.len();
        if n == 0 {
            return Err(QfeError::NoCandidates);
        }
        if snapshot.remaining.is_empty() {
            return Err(QfeError::Snapshot {
                message: "snapshot has no remaining candidates".into(),
            });
        }
        let mut seen = vec![false; n];
        for &i in &snapshot.remaining {
            if i >= n {
                return Err(QfeError::Snapshot {
                    message: format!("remaining index {i} out of range ({n} candidates)"),
                });
            }
            if std::mem::replace(&mut seen[i], true) {
                return Err(QfeError::Snapshot {
                    message: format!("remaining index {i} duplicated"),
                });
            }
        }
        if let Some(pending) = &snapshot.pending {
            // A rejected session is terminal; the engine itself always drops
            // the pending round on rejection, so this combination can only
            // come from a corrupted or hand-edited snapshot.
            if snapshot.rejected {
                return Err(QfeError::Snapshot {
                    message: "rejected session cannot have a pending round".into(),
                });
            }
            // Every choice must select a non-empty, disjoint subset of the
            // survivors — answering an empty or overlapping choice would
            // leave the engine in a state the API cannot otherwise reach.
            let alive = snapshot.remaining.len();
            let mut claimed = vec![false; alive];
            for choice in &pending.round.choices {
                if choice.query_indices.is_empty() {
                    return Err(QfeError::Snapshot {
                        message: "pending round has an empty choice".into(),
                    });
                }
                for &i in &choice.query_indices {
                    if i >= alive {
                        return Err(QfeError::Snapshot {
                            message: "pending round references pruned candidates".into(),
                        });
                    }
                    if std::mem::replace(&mut claimed[i], true) {
                        return Err(QfeError::Snapshot {
                            message: format!(
                                "pending round assigns candidate {i} to several choices"
                            ),
                        });
                    }
                }
            }
        }
        Ok(QfeEngine::from_state(snapshot))
    }
}

/// The state of a QFE session: what [`QfeSession`](crate::QfeSession) starts
/// every engine from and what a [`QfeEngine`] advances — everything needed
/// to continue a session in a fresh engine, possibly in another process.
///
/// Serialize with [`SessionSnapshot::serialize`] and rebuild with
/// [`SessionSnapshot::deserialize`]; the JSON is produced by the workspace's
/// `qfe-wire` layer and validated on the way back in.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// The example database `D`, shared with the engine that produced the
    /// snapshot (serialization materializes it; deserialization allocates a
    /// fresh shared copy).
    pub database: Arc<Database>,
    /// The example result `R`, shared likewise.
    pub result: Arc<QueryResult>,
    /// The full initial candidate set.
    pub candidates: Vec<SpjQuery>,
    /// Cost-model parameters.
    pub params: CostParams,
    /// Iteration safety cap.
    pub max_iterations: usize,
    /// Time the Query Generator spent producing the candidates.
    pub query_generation_time: Duration,
    /// Indices (into `candidates`) of the surviving queries.
    pub remaining: Vec<usize>,
    /// Statistics of the answered iterations.
    pub iterations: Vec<IterationStats>,
    /// The generated-but-unanswered round, if the session was snapshotted
    /// mid-round.
    pub pending: Option<PendingRound>,
    /// Whether the user already rejected a round ("none of these").
    pub rejected: bool,
    /// Whether the generator certified the survivors indistinguishable.
    pub indistinguishable: bool,
}

impl SessionSnapshot {
    /// Renders the snapshot as JSON text.
    pub fn serialize(&self) -> String {
        use qfe_wire::ToJson;
        self.to_json_string()
    }

    /// Parses JSON text produced by [`SessionSnapshot::serialize`].
    pub fn deserialize(text: &str) -> Result<SessionSnapshot> {
        use qfe_wire::FromJson;
        SessionSnapshot::from_json_str(text).map_err(|e| QfeError::Snapshot {
            message: e.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::QfeSession;
    use crate::feedback::{FeedbackUser, OracleUser};
    use qfe_datasets::example_1_1;

    fn example_candidates() -> Vec<SpjQuery> {
        example_1_1().2
    }

    fn example_session() -> QfeSession {
        let (db, result, candidates, _) = example_1_1();
        QfeSession::builder(db, result)
            .with_candidates(candidates)
            .build()
            .unwrap()
    }

    fn oracle_drive(engine: &mut QfeEngine, target: &SpjQuery) -> QfeOutcome {
        let oracle = OracleUser::new(target.clone());
        loop {
            match engine.step().unwrap() {
                Step::Done(outcome) => return outcome,
                Step::AwaitFeedback(round) => {
                    engine.answer(oracle.choose(&round).unwrap()).unwrap()
                }
            }
        }
    }

    #[test]
    fn session_id_roundtrips_through_u64() {
        let id = SessionId::from_u64(42);
        assert_eq!(id.as_u64(), 42);
        assert_eq!(id, SessionId(42));
        assert_eq!(id.to_string(), "session-42");
    }

    #[test]
    fn step_answer_identifies_the_target() {
        for target in example_candidates() {
            let mut engine = example_session().start();
            assert_eq!(engine.remaining_count(), 3);
            assert!(!engine.is_done());
            let outcome = oracle_drive(&mut engine, &target);
            assert_eq!(outcome.query.label, target.label);
            assert!(outcome.fully_identified());
            assert!(engine.is_done());
            assert!(engine.iterations_completed() >= 1);
            assert_eq!(engine.report().initial_candidates, 3);
            // Done is stable: stepping again returns the same outcome.
            match engine.step().unwrap() {
                Step::Done(again) => assert_eq!(again.query.label, target.label),
                Step::AwaitFeedback(_) => panic!("engine must stay done"),
            }
        }
    }

    #[test]
    fn repeated_step_re_presents_the_cached_round() {
        let mut engine = example_session().start();
        let first = match engine.step().unwrap() {
            Step::AwaitFeedback(round) => round,
            Step::Done(_) => panic!("three candidates cannot finish immediately"),
        };
        assert!(engine.awaiting_feedback());
        for _ in 0..3 {
            match engine.step().unwrap() {
                Step::AwaitFeedback(round) => assert_eq!(round, first),
                Step::Done(_) => panic!("round still pending"),
            }
        }
        // The cache means no extra iteration was recorded.
        assert_eq!(engine.iterations_completed(), 0);
    }

    #[test]
    fn rounds_share_one_session_join_until_a_resume() {
        use crate::feedback::WorstCaseUser;
        use qfe_query::{ComparisonOp, DnfPredicate, Term};
        // Example 1.1's candidates plus two more, so the largest group
        // survives more than one round.
        let (db, result, mut candidates, _) = example_1_1();
        let q = |p| SpjQuery::new(vec!["Employee"], vec!["name"], p);
        candidates.push(q(DnfPredicate::single(Term::compare(
            "salary",
            ComparisonOp::Gt,
            3500i64,
        ))));
        candidates.push(q(DnfPredicate::single(Term::eq("dept", "Sales"))));
        let mut engine = QfeSession::builder(db, result)
            .with_candidates(candidates)
            .build()
            .unwrap()
            .start();
        assert!(engine.session_join.is_none());
        let mut joins = Vec::new();
        while let Step::AwaitFeedback(round) = engine.step().unwrap() {
            joins.push(Arc::clone(engine.session_join.as_ref().unwrap()));
            engine
                .answer(WorstCaseUser.choose(&round).unwrap())
                .unwrap();
        }
        assert!(joins.len() >= 2, "{} rounds", joins.len());
        assert!(joins.iter().all(|j| Arc::ptr_eq(j, &joins[0])));
        // The join is a cache: a resumed engine builds its own.
        let resumed = QfeEngine::resume(engine.snapshot()).unwrap();
        assert!(resumed.session_join.is_none());
    }

    #[test]
    fn invalid_answers_leave_the_engine_usable() {
        let mut engine = example_session().start();
        assert!(matches!(engine.answer(0), Err(QfeError::NoPendingRound)));
        assert!(matches!(engine.reject(), Err(QfeError::NoPendingRound)));
        let round = match engine.step().unwrap() {
            Step::AwaitFeedback(round) => round,
            Step::Done(_) => panic!("round expected"),
        };
        let err = engine.answer(round.choices.len()).unwrap_err();
        assert!(matches!(err, QfeError::InvalidChoice { available, .. }
            if available == round.choices.len()));
        // The round survives the invalid answer and can still be answered.
        assert!(engine.awaiting_feedback());
        engine.answer(0).unwrap();
        assert_eq!(engine.iterations_completed(), 1);
    }

    #[test]
    fn reject_is_terminal_and_surfaced_by_step() {
        let mut engine = example_session().start();
        match engine.step().unwrap() {
            Step::AwaitFeedback(_) => engine.reject_timed(Duration::from_secs(3)).unwrap(),
            Step::Done(_) => panic!("round expected"),
        }
        assert!(engine.is_done());
        assert!(matches!(
            engine.step(),
            Err(QfeError::TargetNotInCandidates)
        ));
        // The rejected round's statistics were kept.
        assert_eq!(engine.iterations_completed(), 1);
        assert_eq!(
            engine.report().iterations[0].user_time,
            Duration::from_secs(3)
        );
    }

    #[test]
    fn iteration_cap_is_reported_with_the_dedicated_variant() {
        let (db, result, candidates, _) = example_1_1();
        let session = QfeSession::builder(db, result)
            .with_candidates(candidates)
            .with_max_iterations(0)
            .build()
            .unwrap();
        let mut engine = session.start();
        assert!(matches!(
            engine.step(),
            Err(QfeError::IterationLimitExceeded { limit: 0 })
        ));
    }

    #[test]
    fn snapshot_mid_round_resumes_to_the_same_outcome() {
        let target = example_candidates().remove(2);
        let mut original = example_session().start();
        // Snapshot while a round is pending.
        let round = match original.step().unwrap() {
            Step::AwaitFeedback(round) => round,
            Step::Done(_) => panic!("round expected"),
        };
        let text = original.snapshot().serialize();

        // A fresh engine built from the serialized text re-presents the
        // cached round without regenerating, then reaches the same outcome.
        let snapshot = SessionSnapshot::deserialize(&text).unwrap();
        let mut resumed = QfeEngine::resume(snapshot).unwrap();
        match resumed.step().unwrap() {
            Step::AwaitFeedback(r) => assert_eq!(r, round),
            Step::Done(_) => panic!("pending round must survive the snapshot"),
        }
        let resumed_outcome = oracle_drive(&mut resumed, &target);
        let original_outcome = oracle_drive(&mut original, &target);
        assert_eq!(resumed_outcome.query.label, original_outcome.query.label);
        assert_eq!(
            resumed_outcome.report.iterations(),
            original_outcome.report.iterations()
        );
    }

    #[test]
    fn corrupted_snapshots_are_rejected() {
        let engine = example_session().start();
        let snapshot = engine.snapshot();

        let mut bad = snapshot.clone();
        bad.remaining = vec![0, 99];
        assert!(matches!(
            QfeEngine::resume(bad),
            Err(QfeError::Snapshot { .. })
        ));

        let mut bad = snapshot.clone();
        bad.remaining = vec![1, 1];
        assert!(matches!(
            QfeEngine::resume(bad),
            Err(QfeError::Snapshot { .. })
        ));

        let mut bad = snapshot.clone();
        bad.remaining.clear();
        assert!(matches!(
            QfeEngine::resume(bad),
            Err(QfeError::Snapshot { .. })
        ));

        let mut bad = snapshot;
        bad.candidates.clear();
        bad.remaining.clear();
        assert!(matches!(
            QfeEngine::resume(bad),
            Err(QfeError::NoCandidates)
        ));

        assert!(SessionSnapshot::deserialize("{not json").is_err());
        assert!(SessionSnapshot::deserialize("{\"version\":99}").is_err());
    }

    #[test]
    fn inconsistent_pending_rounds_are_rejected() {
        let mut engine = example_session().start();
        let _ = engine.step().unwrap();
        let snapshot = engine.snapshot();
        assert!(snapshot.pending.is_some());

        // A rejected session can never carry a pending round.
        let mut bad = snapshot.clone();
        bad.rejected = true;
        assert!(matches!(
            QfeEngine::resume(bad),
            Err(QfeError::Snapshot { .. })
        ));

        // An empty choice would let answer() wipe out every survivor.
        let mut bad = snapshot.clone();
        bad.pending.as_mut().unwrap().round.choices[0]
            .query_indices
            .clear();
        assert!(matches!(
            QfeEngine::resume(bad),
            Err(QfeError::Snapshot { .. })
        ));

        // Choices must be disjoint over the survivors.
        let mut bad = snapshot.clone();
        let first = bad.pending.as_ref().unwrap().round.choices[0].query_indices[0];
        bad.pending.as_mut().unwrap().round.choices[1]
            .query_indices
            .push(first);
        assert!(matches!(
            QfeEngine::resume(bad),
            Err(QfeError::Snapshot { .. })
        ));

        // The untampered snapshot still resumes.
        assert!(QfeEngine::resume(snapshot).is_ok());
    }

    #[test]
    fn snapshots_share_the_example_pair_with_the_engine() {
        // Snapshotting must not copy `D`/`R`: the snapshot and the engine
        // hold the same allocation until serialization materializes it.
        let engine = example_session().start();
        let s1 = engine.snapshot();
        let s2 = engine.snapshot();
        assert!(Arc::ptr_eq(&s1.database, &s2.database));
        assert!(Arc::ptr_eq(&s1.result, &s2.result));
        // Resume adopts the snapshot's allocation rather than cloning.
        let resumed = QfeEngine::resume(s1.clone()).unwrap();
        let s3 = resumed.snapshot();
        assert!(Arc::ptr_eq(&s1.database, &s3.database));
    }

    #[test]
    fn pending_round_borrows_the_cached_round() {
        let mut engine = example_session().start();
        assert!(engine.pending_round().is_none());
        let round = match engine.step().unwrap() {
            Step::AwaitFeedback(round) => round,
            Step::Done(_) => panic!("round expected"),
        };
        assert_eq!(engine.pending_round(), Some(&round));
        engine.answer(0).unwrap();
        assert!(engine.pending_round().is_none());
    }

    #[test]
    fn engine_accessors_expose_session_state() {
        let session = example_session();
        let engine = session.start();
        assert_eq!(engine.candidates().len(), 3);
        assert_eq!(engine.remaining_candidates().len(), 3);
        assert!(engine.database().has_table("Employee"));
        assert_eq!(engine.original_result().len(), 2);
        assert!(!engine.awaiting_feedback());
    }
}
