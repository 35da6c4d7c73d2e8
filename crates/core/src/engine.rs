//! The sans-IO session engine: Algorithm 1 as a resumable state machine.
//!
//! [`QfeSession::run`] drives the feedback loop against a callback, which
//! cannot suspend while a real user thinks, cannot survive a process restart
//! and cannot serve many concurrent users. [`QfeEngine`] inverts the control
//! flow: the caller *pulls* each feedback round out of the engine with
//! [`QfeEngine::step`] and *pushes* the user's selection back in with
//! [`QfeEngine::answer`] — the engine performs no IO and never blocks on a
//! user.
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
//! All loop state lives in the engine: the surviving candidate indices, the
//! per-iteration statistics, and the generated-but-unanswered round (cached,
//! so repeated `step` calls re-present the same round without re-running
//! Algorithms 2–4). The whole state externalizes as a [`SessionSnapshot`] —
//! see [`QfeEngine::snapshot`] / [`QfeEngine::resume`] — so a session can be
//! persisted mid-round, shipped across processes, and continued elsewhere.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qfe_query::{QueryResult, SpjQuery};
use qfe_relation::Database;

use crate::context::{GenerationContext, SessionJoin};
use crate::cost::CostParams;
use crate::dbgen::{DatabaseGenerator, GeneratedDatabase};
use crate::delta::{DatabaseDelta, ResultDelta};
use crate::driver::{QfeOutcome, QfeSession};
use crate::error::{QfeError, Result};
use crate::feedback::{FeedbackChoice, FeedbackRound};
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

/// A generated feedback round that has not been answered yet, together with
/// the machine-side statistics of its generation (the user's response time is
/// filled in when the round is answered).
#[derive(Debug, Clone, PartialEq)]
pub struct PendingRound {
    /// The round to present.
    pub round: FeedbackRound,
    /// Machine-side statistics of the round's generation.
    pub stats: IterationStats,
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
/// Obtained from [`QfeSession::start`] or [`QfeEngine::resume`].
#[derive(Debug, Clone)]
pub struct QfeEngine {
    database: Arc<Database>,
    result: Arc<QueryResult>,
    candidates: Vec<SpjQuery>,
    params: CostParams,
    max_iterations: usize,
    query_generation_time: Duration,
    /// Indices (into `candidates`) of the queries still alive.
    remaining: Vec<usize>,
    /// Statistics of the answered iterations, in order.
    iterations: Vec<IterationStats>,
    /// The generated-but-unanswered round, if any.
    pending: Option<PendingRound>,
    /// The user reported that no presented result matches their intent.
    rejected: bool,
    /// The generator certified the remaining candidates indistinguishable.
    indistinguishable: bool,
    /// The session join every round is built on, once the first round has
    /// built it. Purely a cache: never serialized, rebuilt after a resume.
    session_join: Option<Arc<SessionJoin>>,
}

impl QfeEngine {
    pub(crate) fn from_session(session: &QfeSession) -> QfeEngine {
        QfeEngine {
            database: Arc::new(session.database().clone()),
            result: Arc::new(session.original_result().clone()),
            candidates: session.candidates().to_vec(),
            params: session.params().clone(),
            max_iterations: session.max_iterations(),
            query_generation_time: session.query_generation_time(),
            remaining: (0..session.candidates().len()).collect(),
            iterations: Vec::new(),
            pending: None,
            rejected: false,
            indistinguishable: false,
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
        if self.rejected {
            return Err(QfeError::TargetNotInCandidates);
        }
        if let Some(pending) = &self.pending {
            return Ok(Step::AwaitFeedback(pending.round.clone()));
        }
        if self.remaining.is_empty() {
            return Err(QfeError::NoCandidates);
        }
        if self.remaining.len() == 1 || self.indistinguishable {
            return Ok(Step::Done(self.outcome()));
        }

        let iteration = self.iterations.len() + 1;
        if iteration > self.max_iterations {
            return Err(QfeError::IterationLimitExceeded {
                limit: self.max_iterations,
            });
        }

        let round_start = Instant::now();
        let generated = match self.generate_round() {
            Ok(g) => g,
            // No valid modification separates the survivors: they are
            // equivalent over every database the generator can reach, so
            // showing the user more rounds cannot help. Terminate with the
            // whole equivalence class reported in the outcome.
            Err(QfeError::NoDistinguishingDatabase { .. }) => {
                self.indistinguishable = true;
                return Ok(Step::Done(self.outcome()));
            }
            Err(e) => return Err(e),
        };

        let database_delta = DatabaseDelta {
            edits: generated.edits.clone(),
        };
        let choices: Vec<FeedbackChoice> = generated
            .partition
            .groups
            .iter()
            .map(|g| FeedbackChoice {
                result: g.result.clone(),
                result_delta: ResultDelta::between(&self.result, &g.result),
                candidate_count: g.query_indices.len(),
                query_indices: g.query_indices.clone(),
            })
            .collect();
        let round = FeedbackRound {
            iteration,
            database: generated.database.clone(),
            database_delta,
            choices,
        };
        // The paper folds the candidate-generation time into the first
        // iteration's machine time.
        let machine_time = round_start.elapsed()
            + if iteration == 1 {
                self.query_generation_time
            } else {
                Duration::ZERO
            };
        let stats = IterationStats {
            iteration,
            candidate_count: self.remaining.len(),
            group_count: round.choices.len(),
            skyline_pairs: generated.skyline_pair_count,
            execution_time: machine_time,
            skyline_time: generated.skyline_time,
            skyline_timed_out: generated.skyline_timed_out,
            pick_time: generated.pick_time,
            modify_time: generated.modify_time,
            db_cost: generated.db_edit_cost,
            result_cost: generated.result_cost,
            modified_relations: generated.modified_relations,
            modified_tuples: generated.modified_tuples,
            user_time: Duration::ZERO,
        };
        self.pending = Some(PendingRound {
            round: round.clone(),
            stats,
        });
        Ok(Step::AwaitFeedback(round))
    }

    /// Runs Algorithm 2 for the current survivors on a round context built
    /// from the session join (`D` and `R` never change within a session, so
    /// the join and its join index are built once, by the first round after
    /// the engine starts or resumes).
    fn generate_round(&mut self) -> Result<GeneratedDatabase> {
        let queries: Vec<SpjQuery> = self
            .remaining
            .iter()
            .map(|&i| self.candidates[i].clone())
            .collect();
        let ctx = match &self.session_join {
            Some(join) => GenerationContext::for_round(Arc::clone(join), queries)?,
            None => GenerationContext::new_shared(
                Arc::clone(&self.database),
                Arc::clone(&self.result),
                queries,
            )?,
        };
        self.session_join = Some(Arc::clone(ctx.session_join()));
        DatabaseGenerator::new(self.params.clone()).generate_with_context(&ctx)
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
        let available = match &self.pending {
            None => return Err(QfeError::NoPendingRound),
            Some(p) => p.round.choices.len(),
        };
        if choice_idx >= available {
            return Err(QfeError::InvalidChoice {
                chosen: choice_idx,
                available,
            });
        }
        let mut pending = self.pending.take().expect("pending round checked above");
        pending.stats.user_time = user_time;
        self.iterations.push(pending.stats);
        let kept = &pending.round.choices[choice_idx];
        self.remaining = kept
            .query_indices
            .iter()
            .map(|&i| self.remaining[i])
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
        let mut pending = self.pending.take().ok_or(QfeError::NoPendingRound)?;
        pending.stats.user_time = user_time;
        self.iterations.push(pending.stats);
        self.rejected = true;
        Ok(())
    }

    fn outcome(&self) -> QfeOutcome {
        // With several indistinguishable survivors the choice among them is
        // immaterial (they agree on every reachable database); pick the
        // simplest deterministically so reports are stable.
        let best = self
            .remaining
            .iter()
            .copied()
            .min_by_key(|&i| {
                (
                    self.candidates[i].complexity(),
                    self.candidates[i].to_string(),
                )
            })
            .expect("outcome requires at least one remaining candidate");
        let indistinguishable = if self.remaining.len() > 1 {
            self.remaining
                .iter()
                .map(|&i| self.candidates[i].clone())
                .collect()
        } else {
            Vec::new()
        };
        QfeOutcome {
            query: self.candidates[best].clone(),
            indistinguishable,
            report: self.report(),
        }
    }

    /// The session record so far (also available before the session ends).
    pub fn report(&self) -> SessionReport {
        SessionReport {
            query_generation_time: self.query_generation_time,
            initial_candidates: self.candidates.len(),
            iterations: self.iterations.clone(),
        }
    }

    /// The example database `D`.
    pub fn database(&self) -> &Database {
        &self.database
    }

    /// The example result `R`.
    pub fn original_result(&self) -> &QueryResult {
        &self.result
    }

    /// The full candidate set the session started from.
    pub fn candidates(&self) -> &[SpjQuery] {
        &self.candidates
    }

    /// The queries still alive.
    pub fn remaining_candidates(&self) -> Vec<&SpjQuery> {
        self.remaining
            .iter()
            .map(|&i| &self.candidates[i])
            .collect()
    }

    /// Number of queries still alive.
    pub fn remaining_count(&self) -> usize {
        self.remaining.len()
    }

    /// Number of answered feedback iterations.
    pub fn iterations_completed(&self) -> usize {
        self.iterations.len()
    }

    /// True when a generated round awaits an answer.
    pub fn awaiting_feedback(&self) -> bool {
        self.pending.is_some()
    }

    /// The cached round awaiting an answer, by reference. Front ends that
    /// re-render frequently should prefer this over repeated
    /// [`QfeEngine::step`] calls: stepping clones the round (including the
    /// whole modified database) each time, this borrow is free.
    pub fn pending_round(&self) -> Option<&FeedbackRound> {
        self.pending.as_ref().map(|p| &p.round)
    }

    /// True when the session has terminated (one survivor, certified
    /// indistinguishability, or user rejection).
    pub fn is_done(&self) -> bool {
        self.rejected
            || (self.pending.is_none() && (self.remaining.len() <= 1 || self.indistinguishable))
    }

    /// Externalizes the engine's complete state. The example pair is shared
    /// (`Arc`), not copied: a snapshot of an engine with a 10k-row database
    /// costs a pointer bump until it is serialized.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            database: Arc::clone(&self.database),
            result: Arc::clone(&self.result),
            candidates: self.candidates.clone(),
            params: self.params.clone(),
            max_iterations: self.max_iterations,
            query_generation_time: self.query_generation_time,
            remaining: self.remaining.clone(),
            iterations: self.iterations.clone(),
            pending: self.pending.clone(),
            rejected: self.rejected,
            indistinguishable: self.indistinguishable,
        }
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
        Ok(QfeEngine {
            database: snapshot.database,
            result: snapshot.result,
            candidates: snapshot.candidates,
            params: snapshot.params,
            max_iterations: snapshot.max_iterations,
            query_generation_time: snapshot.query_generation_time,
            remaining: snapshot.remaining,
            iterations: snapshot.iterations,
            pending: snapshot.pending,
            rejected: snapshot.rejected,
            indistinguishable: snapshot.indistinguishable,
            session_join: None,
        })
    }
}

/// The externalized state of a [`QfeEngine`]: everything needed to continue a
/// session in a fresh engine, possibly in another process.
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
