//! Algorithm 1: the QFE driver loop.
//!
//! Wires together the Query Generator, the Database Generator and the Result
//! Feedback module: starting from the user's example pair `(D, R)` and the
//! generated candidate set `QC`, each iteration presents a modified database
//! and the candidate results on it, prunes the candidates inconsistent with
//! the user's choice, and repeats until a single query remains.

use std::sync::Arc;
use std::time::Instant;

use qfe_qbo::{QboConfig, QueryGenerator};
use qfe_query::{QueryResult, SpjQuery};
use qfe_relation::Database;

use crate::cost::CostParams;
use crate::engine::{QfeEngine, SessionSnapshot, Step};
use crate::error::{QfeError, Result};
use crate::feedback::FeedbackUser;
use crate::stats::SessionReport;

/// Default cap on feedback iterations (a safety net far above anything the
/// evaluation workloads need; the loop normally terminates when one candidate
/// remains).
pub const DEFAULT_MAX_ITERATIONS: usize = 64;

/// A configured QFE session: the example pair, the candidate queries and the
/// generator parameters.
#[derive(Debug, Clone)]
pub struct QfeSession {
    /// The state every engine starts from: no round answered yet.
    initial: SessionSnapshot,
}

/// The outcome of a QFE session: the identified query and the session record.
#[derive(Debug, Clone)]
pub struct QfeOutcome {
    /// The target query identified by the feedback loop.
    pub query: SpjQuery,
    /// When the feedback loop could not separate the last survivors — the
    /// database generator certified that no valid modification distinguishes
    /// them — this holds the whole equivalence class (including `query`,
    /// which is its deterministically chosen representative). Empty when the
    /// loop narrowed the candidates to a single query.
    pub indistinguishable: Vec<SpjQuery>,
    /// Per-iteration statistics.
    pub report: SessionReport,
}

impl QfeOutcome {
    /// True when the loop terminated on a single query rather than an
    /// equivalence class of indistinguishable survivors.
    pub fn fully_identified(&self) -> bool {
        self.indistinguishable.is_empty()
    }
}

/// Builder for [`QfeSession`].
#[derive(Debug, Clone)]
pub struct QfeSessionBuilder {
    database: Database,
    result: QueryResult,
    candidates: Option<Vec<SpjQuery>>,
    ensure_candidate: Option<SpjQuery>,
    generator_config: QboConfig,
    params: CostParams,
    max_iterations: usize,
}

impl QfeSession {
    /// Starts building a session from the example database-result pair.
    pub fn builder(database: Database, result: QueryResult) -> QfeSessionBuilder {
        QfeSessionBuilder {
            database,
            result,
            candidates: None,
            ensure_candidate: None,
            generator_config: QboConfig::default(),
            params: CostParams::default(),
            max_iterations: DEFAULT_MAX_ITERATIONS,
        }
    }

    /// The candidate queries the session starts from.
    pub fn candidates(&self) -> &[SpjQuery] {
        &self.initial.candidates
    }

    /// The example database `D`.
    pub fn database(&self) -> &Database {
        &self.initial.database
    }

    /// The example result `R`.
    pub fn original_result(&self) -> &QueryResult {
        &self.initial.result
    }

    /// The cost-model parameters in use.
    pub fn params(&self) -> &CostParams {
        &self.initial.params
    }

    /// The iteration safety cap.
    pub fn max_iterations(&self) -> usize {
        self.initial.max_iterations
    }

    /// Starts the session as a sans-IO state machine: the returned engine
    /// yields each [`FeedbackRound`](crate::FeedbackRound) from
    /// [`QfeEngine::step`] and is advanced by [`QfeEngine::answer`]. Use this
    /// instead of [`QfeSession::run`] whenever the answering side is a real
    /// user, another process, or anything else that must not be blocked on.
    pub fn start(&self) -> QfeEngine {
        QfeEngine::from_state(self.initial.clone())
    }

    /// Runs the feedback loop (Algorithm 1) against the given user.
    ///
    /// This is a thin synchronous loop over [`QfeSession::start`]: step the
    /// engine, ask `user` to choose, feed the answer back. Blocking callers
    /// with automated responders keep using this; interactive front ends
    /// should drive the engine directly.
    pub fn run(&self, user: &dyn FeedbackUser) -> Result<QfeOutcome> {
        let mut engine = self.start();
        loop {
            match engine.step()? {
                Step::Done(outcome) => return Ok(outcome),
                Step::AwaitFeedback(round) => {
                    let chosen = user.choose(&round);
                    let user_time = user.response_time(&round, chosen);
                    match chosen {
                        Some(idx) => engine.answer_timed(idx, user_time)?,
                        // The next step() surfaces TargetNotInCandidates.
                        None => engine.reject_timed(user_time)?,
                    }
                }
            }
        }
    }
}

impl QfeSessionBuilder {
    /// Uses an explicit candidate set instead of running the query generator.
    pub fn with_candidates(mut self, candidates: Vec<SpjQuery>) -> Self {
        self.candidates = Some(candidates);
        self
    }

    /// Ensures the given query is among the candidates (appending it when the
    /// generator's bounded search misses it). The query must reproduce the
    /// example result.
    pub fn ensure_candidate(mut self, query: SpjQuery) -> Self {
        self.ensure_candidate = Some(query);
        self
    }

    /// Configures the candidate-query generator.
    pub fn with_generator_config(mut self, config: QboConfig) -> Self {
        self.generator_config = config;
        self
    }

    /// Configures the cost-model parameters (β, δ, estimator, objective).
    pub fn with_params(mut self, params: CostParams) -> Self {
        self.params = params;
        self
    }

    /// Overrides the iteration safety cap.
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Builds the session: runs the Query Generator when no explicit
    /// candidates were supplied.
    pub fn build(self) -> Result<QfeSession> {
        let generation_start = Instant::now();
        let mut candidates = match self.candidates {
            Some(c) => c,
            None => {
                let generator = QueryGenerator::new(self.generator_config.clone());
                match &self.ensure_candidate {
                    Some(target) => {
                        generator.generate_including(&self.database, &self.result, target)?
                    }
                    None => generator.generate(&self.database, &self.result)?,
                }
            }
        };
        // When explicit candidates were supplied, still honour
        // ensure_candidate. Deduplicate structurally — rendered SQL text can
        // differ for the same query (labels, spacing), which would smuggle a
        // duplicate candidate in and cost the user an extra feedback round.
        if let Some(target) = &self.ensure_candidate {
            if !candidates.iter().any(|q| q.same_query(target)) {
                candidates.push(target.clone());
            }
        }
        let query_generation_time = generation_start.elapsed();
        if candidates.is_empty() {
            return Err(QfeError::NoCandidates);
        }
        Ok(QfeSession {
            initial: SessionSnapshot {
                database: Arc::new(self.database),
                result: Arc::new(self.result),
                remaining: (0..candidates.len()).collect(),
                candidates,
                params: self.params,
                max_iterations: self.max_iterations,
                query_generation_time,
                iterations: Vec::new(),
                pending: None,
                rejected: false,
                indistinguishable: false,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feedback::{OracleUser, WorstCaseUser};
    use qfe_query::{evaluate, ComparisonOp, DnfPredicate, Term};
    use qfe_relation::{tuple, ColumnDef, DataType, Table, TableSchema};

    fn employee_db() -> Database {
        let t = Table::with_rows(
            TableSchema::new(
                "Employee",
                vec![
                    ColumnDef::new("Eid", DataType::Int),
                    ColumnDef::new("name", DataType::Text),
                    ColumnDef::new("gender", DataType::Text),
                    ColumnDef::new("dept", DataType::Text),
                    ColumnDef::new("salary", DataType::Int),
                ],
            )
            .unwrap()
            .with_primary_key(&["Eid"])
            .unwrap(),
            vec![
                tuple![1i64, "Alice", "F", "Sales", 3700i64],
                tuple![2i64, "Bob", "M", "IT", 4200i64],
                tuple![3i64, "Celina", "F", "Service", 3000i64],
                tuple![4i64, "Darren", "M", "IT", 5000i64],
            ],
        )
        .unwrap();
        let mut db = Database::new();
        db.add_table(t).unwrap();
        db
    }

    fn example_candidates() -> Vec<SpjQuery> {
        let q = |label: &str, p| SpjQuery::new(vec!["Employee"], vec!["name"], p).with_label(label);
        vec![
            q("Q1", DnfPredicate::single(Term::eq("gender", "M"))),
            q(
                "Q2",
                DnfPredicate::single(Term::compare("salary", ComparisonOp::Gt, 4000i64)),
            ),
            q("Q3", DnfPredicate::single(Term::eq("dept", "IT"))),
        ]
    }

    fn example_result(db: &Database) -> QueryResult {
        evaluate(&example_candidates()[0], db).unwrap()
    }

    #[test]
    fn example_1_1_oracle_identifies_each_target_within_two_rounds() {
        let db = employee_db();
        let result = example_result(&db);
        for target in example_candidates() {
            let session = QfeSession::builder(db.clone(), result.clone())
                .with_candidates(example_candidates())
                .build()
                .unwrap();
            let outcome = session.run(&OracleUser::new(target.clone())).unwrap();
            assert_eq!(outcome.query.label, target.label, "wrong query identified");
            assert!(
                outcome.report.iterations() <= 2,
                "Example 1.1 needs at most two rounds, took {}",
                outcome.report.iterations()
            );
            // Each round of Example 1.1 modifies at most two database
            // attributes of the single relation.
            for it in &outcome.report.iterations {
                assert!(it.db_cost <= 2);
                assert_eq!(it.modified_relations, 1);
            }
        }
    }

    #[test]
    fn worst_case_user_also_terminates() {
        let db = employee_db();
        let result = example_result(&db);
        let session = QfeSession::builder(db, result)
            .with_candidates(example_candidates())
            .build()
            .unwrap();
        let outcome = session.run(&WorstCaseUser).unwrap();
        assert!(outcome.report.iterations() >= 1);
        assert!(outcome.report.iterations() <= 3);
        assert_eq!(outcome.report.initial_candidates, 3);
        assert!(outcome.report.total_modification_cost() > 0);
    }

    #[test]
    fn generated_candidates_are_used_when_none_supplied() {
        let db = employee_db();
        let result = example_result(&db);
        let target = example_candidates().remove(1);
        let session = QfeSession::builder(db, result)
            .ensure_candidate(target.clone())
            .build()
            .unwrap();
        assert!(session.candidates().len() >= 3);
        assert!(session.params().beta >= 1.0);
        assert!(session.database().has_table("Employee"));
        assert_eq!(session.original_result().len(), 2);
        let outcome = session.run(&OracleUser::new(target.clone())).unwrap();
        // The identified query must be equivalent to the target on the
        // original database — and because the oracle drives feedback on every
        // generated database, equivalent on all of those too.
        assert_eq!(
            evaluate(&outcome.query, session.database())
                .unwrap()
                .fingerprint(),
            evaluate(&target, session.database()).unwrap().fingerprint()
        );
    }

    #[test]
    fn target_outside_candidates_is_reported() {
        let db = employee_db();
        let result = example_result(&db);
        let session = QfeSession::builder(db.clone(), result)
            .with_candidates(example_candidates())
            .build()
            .unwrap();
        // A target query outside QC: name = 'Bob' OR name = 'Darren'.
        let outside = SpjQuery::new(
            vec!["Employee"],
            vec!["name"],
            DnfPredicate::new(vec![
                qfe_query::Conjunct::new(vec![Term::eq("name", "Bob")]),
                qfe_query::Conjunct::new(vec![Term::eq("name", "Darren")]),
            ]),
        );
        let err = session.run(&OracleUser::new(outside));
        // Depending on which modification is generated, the oracle either
        // reports "none of these" (target not in QC) immediately or after a
        // round; either way it must not silently return a wrong query unless
        // that query is genuinely indistinguishable from the target.
        match err {
            Err(QfeError::TargetNotInCandidates) => {}
            Ok(outcome) => {
                // If a query was returned, it must agree with the target on
                // every database QFE showed the user (the oracle approved
                // every round), so in particular on the original database.
                let r1 = evaluate(&outcome.query, &db).unwrap();
                assert_eq!(r1.len(), 2);
            }
            Err(other) => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn empty_candidate_set_is_rejected() {
        let db = employee_db();
        let result = example_result(&db);
        let err = QfeSession::builder(db, result)
            .with_candidates(Vec::new())
            .build()
            .unwrap_err();
        assert!(matches!(err, QfeError::NoCandidates));
    }

    #[test]
    fn single_candidate_terminates_immediately() {
        let db = employee_db();
        let result = example_result(&db);
        let only = example_candidates().remove(0);
        let session = QfeSession::builder(db, result)
            .with_candidates(vec![only.clone()])
            .build()
            .unwrap();
        let outcome = session.run(&WorstCaseUser).unwrap();
        assert_eq!(outcome.report.iterations(), 0);
        assert_eq!(outcome.query.label, only.label);
    }

    #[test]
    fn builder_options_are_respected() {
        let db = employee_db();
        let result = example_result(&db);
        let session = QfeSession::builder(db, result)
            .with_candidates(example_candidates())
            .with_params(CostParams::default().with_beta(4.0))
            .with_max_iterations(7)
            .build()
            .unwrap();
        assert_eq!(session.params().beta, 4.0);
        assert_eq!(session.max_iterations(), 7);
    }
}
