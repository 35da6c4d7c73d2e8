//! Wire-format (`qfe-wire` JSON) implementations for the core session types.
//!
//! Everything a [`SessionSnapshot`](crate::SessionSnapshot) contains — the
//! example pair, candidate queries, cost parameters, per-iteration statistics
//! and a possibly cached feedback round — serializes through these impls, so
//! a session can be externalized mid-round and resumed in another process.

use qfe_query::QueryResult;
use qfe_relation::{Database, EditOp, Tuple};
use qfe_wire::{FromJson, Json, ToJson, WireError, WireResult};

use qfe_query::SpjQuery;

use crate::cost::{CostModelKind, CostParams, IterationEstimator};
use crate::delta::{DatabaseDelta, ResultDelta};
use crate::engine::{PendingRound, SessionSnapshot};
use crate::feedback::{FeedbackChoice, FeedbackRound};
use crate::stats::{IterationStats, SessionReport};

/// Version tag written into serialized snapshots — whole or split into
/// workload and state — checked on load so that a future incompatible
/// format change fails loudly instead of misparsing.
const SNAPSHOT_VERSION: i64 = 1;

fn check_version(json: &Json) -> WireResult<()> {
    let version = json.field("version")?.as_i64()?;
    if version != SNAPSHOT_VERSION {
        return Err(WireError::new(format!(
            "unsupported snapshot version {version} (expected {SNAPSHOT_VERSION})"
        )));
    }
    Ok(())
}

/// The immutable bulk half of a session: the example pair `(D, R)` every
/// snapshot on the same workload shares.
///
/// A [`SessionSnapshot`] serialized whole duplicates `D` and `R` per parked
/// session. [`SessionSnapshot::split`] instead externalizes the pair once as
/// a `WorkloadPayload` — content-addressed by the hash of its JSON text (see
/// [`qfe_wire::content_hash`]) — and the per-session remainder as a small
/// state document referencing it. Thousands of parked sessions on the same
/// workload then share one stored copy.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadPayload {
    /// The example database `D`.
    pub database: std::sync::Arc<Database>,
    /// The example result `R`.
    pub result: std::sync::Arc<QueryResult>,
}

impl WorkloadPayload {
    /// The canonical serialized form whose [`qfe_wire::content_hash`] is the
    /// workload's storage address.
    pub fn canonical_text(&self) -> String {
        self.to_json_string()
    }
}

impl ToJson for WorkloadPayload {
    fn to_json(&self) -> Json {
        Json::object([
            ("database", self.database.to_json()),
            ("result", self.result.to_json()),
        ])
    }
}

impl FromJson for WorkloadPayload {
    fn from_json(json: &Json) -> WireResult<Self> {
        Ok(WorkloadPayload {
            database: std::sync::Arc::new(Database::from_json(json.field("database")?)?),
            result: std::sync::Arc::new(QueryResult::from_json(json.field("result")?)?),
        })
    }
}

impl SessionSnapshot {
    /// Splits the snapshot into its shared workload payload and the
    /// per-session state JSON (everything *except* `D` and `R`). The inverse
    /// is [`SessionSnapshot::from_parts`].
    pub fn split(&self) -> (WorkloadPayload, Json) {
        let workload = WorkloadPayload {
            database: std::sync::Arc::clone(&self.database),
            result: std::sync::Arc::clone(&self.result),
        };
        let version = ("version", Json::Int(SNAPSHOT_VERSION));
        let state = Json::object(std::iter::once(version).chain(self.state_fields()));
        (workload, state)
    }

    /// The state document's fields after its version tag.
    fn state_fields(&self) -> [(&'static str, Json); 9] {
        [
            ("candidates", self.candidates.to_json()),
            ("params", self.params.to_json()),
            ("max_iterations", self.max_iterations.to_json()),
            (
                "query_generation_time",
                self.query_generation_time.to_json(),
            ),
            ("remaining", self.remaining.to_json()),
            ("iterations", self.iterations.to_json()),
            ("pending", self.pending.to_json()),
            ("rejected", Json::Bool(self.rejected)),
            ("indistinguishable", Json::Bool(self.indistinguishable)),
        ]
    }

    /// Reassembles a snapshot from a shared workload payload and the state
    /// JSON produced by [`SessionSnapshot::split`] (or a whole snapshot's
    /// JSON, whose extra `database` and `result` keys are ignored).
    pub fn from_parts(workload: WorkloadPayload, state: &Json) -> WireResult<SessionSnapshot> {
        check_version(state)?;
        Ok(SessionSnapshot {
            database: workload.database,
            result: workload.result,
            candidates: Vec::<SpjQuery>::from_json(state.field("candidates")?)?,
            params: CostParams::from_json(state.field("params")?)?,
            max_iterations: state.field("max_iterations")?.as_usize()?,
            query_generation_time: FromJson::from_json(state.field("query_generation_time")?)?,
            remaining: Vec::from_json(state.field("remaining")?)?,
            iterations: Vec::from_json(state.field("iterations")?)?,
            pending: Option::from_json(state.field("pending")?)?,
            rejected: state.field("rejected")?.as_bool()?,
            indistinguishable: state.field("indistinguishable")?.as_bool()?,
        })
    }
}

impl ToJson for DatabaseDelta {
    fn to_json(&self) -> Json {
        self.edits.to_json()
    }
}

impl FromJson for DatabaseDelta {
    fn from_json(json: &Json) -> WireResult<Self> {
        Ok(DatabaseDelta {
            edits: Vec::<EditOp>::from_json(json)?,
        })
    }
}

impl ToJson for ResultDelta {
    fn to_json(&self) -> Json {
        Json::object([
            ("removed", self.removed.to_json()),
            ("added", self.added.to_json()),
        ])
    }
}

impl FromJson for ResultDelta {
    fn from_json(json: &Json) -> WireResult<Self> {
        Ok(ResultDelta {
            removed: Vec::<Tuple>::from_json(json.field("removed")?)?,
            added: Vec::<Tuple>::from_json(json.field("added")?)?,
        })
    }
}

impl ToJson for FeedbackChoice {
    fn to_json(&self) -> Json {
        Json::object([
            ("result", self.result.to_json()),
            ("result_delta", self.result_delta.to_json()),
            ("candidate_count", self.candidate_count.to_json()),
            ("query_indices", self.query_indices.to_json()),
        ])
    }
}

impl FromJson for FeedbackChoice {
    fn from_json(json: &Json) -> WireResult<Self> {
        Ok(FeedbackChoice {
            result: QueryResult::from_json(json.field("result")?)?,
            result_delta: ResultDelta::from_json(json.field("result_delta")?)?,
            candidate_count: json.field("candidate_count")?.as_usize()?,
            query_indices: Vec::from_json(json.field("query_indices")?)?,
        })
    }
}

impl ToJson for FeedbackRound {
    fn to_json(&self) -> Json {
        Json::object([
            ("iteration", self.iteration.to_json()),
            ("database", self.database.to_json()),
            ("database_delta", self.database_delta.to_json()),
            ("choices", self.choices.to_json()),
        ])
    }
}

impl FromJson for FeedbackRound {
    fn from_json(json: &Json) -> WireResult<Self> {
        Ok(FeedbackRound {
            iteration: json.field("iteration")?.as_usize()?,
            database: Database::from_json(json.field("database")?)?,
            database_delta: DatabaseDelta::from_json(json.field("database_delta")?)?,
            choices: Vec::from_json(json.field("choices")?)?,
        })
    }
}

impl ToJson for IterationStats {
    fn to_json(&self) -> Json {
        Json::object([
            ("iteration", self.iteration.to_json()),
            ("candidate_count", self.candidate_count.to_json()),
            ("group_count", self.group_count.to_json()),
            ("skyline_pairs", self.skyline_pairs.to_json()),
            ("execution_time", self.execution_time.to_json()),
            ("skyline_time", self.skyline_time.to_json()),
            ("skyline_timed_out", self.skyline_timed_out.to_json()),
            ("pick_time", self.pick_time.to_json()),
            ("modify_time", self.modify_time.to_json()),
            ("db_cost", self.db_cost.to_json()),
            ("result_cost", self.result_cost.to_json()),
            ("modified_relations", self.modified_relations.to_json()),
            ("modified_tuples", self.modified_tuples.to_json()),
            ("user_time", self.user_time.to_json()),
        ])
    }
}

impl FromJson for IterationStats {
    fn from_json(json: &Json) -> WireResult<Self> {
        Ok(IterationStats {
            iteration: json.field("iteration")?.as_usize()?,
            candidate_count: json.field("candidate_count")?.as_usize()?,
            group_count: json.field("group_count")?.as_usize()?,
            skyline_pairs: json.field("skyline_pairs")?.as_usize()?,
            execution_time: FromJson::from_json(json.field("execution_time")?)?,
            skyline_time: FromJson::from_json(json.field("skyline_time")?)?,
            // Absent in snapshots parked before the field existed.
            skyline_timed_out: match json.get("skyline_timed_out") {
                Some(flag) => flag.as_bool()?,
                None => false,
            },
            pick_time: FromJson::from_json(json.field("pick_time")?)?,
            modify_time: FromJson::from_json(json.field("modify_time")?)?,
            db_cost: json.field("db_cost")?.as_usize()?,
            result_cost: json.field("result_cost")?.as_usize()?,
            modified_relations: json.field("modified_relations")?.as_usize()?,
            modified_tuples: json.field("modified_tuples")?.as_usize()?,
            user_time: FromJson::from_json(json.field("user_time")?)?,
        })
    }
}

impl ToJson for SessionReport {
    fn to_json(&self) -> Json {
        Json::object([
            (
                "query_generation_time",
                self.query_generation_time.to_json(),
            ),
            ("initial_candidates", self.initial_candidates.to_json()),
            ("iterations", self.iterations.to_json()),
        ])
    }
}

impl FromJson for SessionReport {
    fn from_json(json: &Json) -> WireResult<Self> {
        Ok(SessionReport {
            query_generation_time: FromJson::from_json(json.field("query_generation_time")?)?,
            initial_candidates: json.field("initial_candidates")?.as_usize()?,
            iterations: Vec::from_json(json.field("iterations")?)?,
        })
    }
}

impl ToJson for IterationEstimator {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                IterationEstimator::Simple => "simple",
                IterationEstimator::Refined => "refined",
            }
            .to_string(),
        )
    }
}

impl FromJson for IterationEstimator {
    fn from_json(json: &Json) -> WireResult<Self> {
        match json.as_str()? {
            "simple" => Ok(IterationEstimator::Simple),
            "refined" => Ok(IterationEstimator::Refined),
            other => Err(WireError::new(format!("unknown estimator `{other}`"))),
        }
    }
}

impl ToJson for CostModelKind {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                CostModelKind::UserEffort => "user_effort",
                CostModelKind::MaxPartitions => "max_partitions",
            }
            .to_string(),
        )
    }
}

impl FromJson for CostModelKind {
    fn from_json(json: &Json) -> WireResult<Self> {
        match json.as_str()? {
            "user_effort" => Ok(CostModelKind::UserEffort),
            "max_partitions" => Ok(CostModelKind::MaxPartitions),
            other => Err(WireError::new(format!("unknown cost model `{other}`"))),
        }
    }
}

impl ToJson for CostParams {
    fn to_json(&self) -> Json {
        Json::object([
            ("beta", Json::Float(self.beta)),
            ("skyline_time_budget", self.skyline_time_budget.to_json()),
            ("estimator", self.estimator.to_json()),
            ("model", self.model.to_json()),
        ])
    }
}

impl FromJson for CostParams {
    fn from_json(json: &Json) -> WireResult<Self> {
        Ok(CostParams {
            beta: json.field("beta")?.as_f64()?,
            skyline_time_budget: FromJson::from_json(json.field("skyline_time_budget")?)?,
            estimator: IterationEstimator::from_json(json.field("estimator")?)?,
            model: CostModelKind::from_json(json.field("model")?)?,
        })
    }
}

impl ToJson for PendingRound {
    fn to_json(&self) -> Json {
        Json::object([
            ("round", self.round.to_json()),
            ("stats", self.stats.to_json()),
        ])
    }
}

impl FromJson for PendingRound {
    fn from_json(json: &Json) -> WireResult<Self> {
        Ok(PendingRound {
            round: FeedbackRound::from_json(json.field("round")?)?,
            stats: IterationStats::from_json(json.field("stats")?)?,
        })
    }
}

/// The whole snapshot is the state document with the workload's `database`
/// and `result` after its version tag.
impl ToJson for SessionSnapshot {
    fn to_json(&self) -> Json {
        let head = [
            ("version", Json::Int(SNAPSHOT_VERSION)),
            ("database", self.database.to_json()),
            ("result", self.result.to_json()),
        ];
        Json::object(head.into_iter().chain(self.state_fields()))
    }
}

impl FromJson for SessionSnapshot {
    fn from_json(json: &Json) -> WireResult<Self> {
        // Checked before decoding `D`, so a future format fails on its tag.
        check_version(json)?;
        SessionSnapshot::from_parts(WorkloadPayload::from_json(json)?, json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn roundtrip<T: ToJson + FromJson + PartialEq + std::fmt::Debug>(v: &T) {
        let text = v.to_json_string();
        let back = T::from_json_str(&text).unwrap();
        assert_eq!(&back, v, "roundtrip through {text}");
    }

    #[test]
    fn cost_params_roundtrip() {
        roundtrip(&CostParams::default());
        roundtrip(
            &CostParams::default()
                .with_beta(2.5)
                .with_skyline_budget(Duration::from_millis(125))
                .with_estimator(IterationEstimator::Simple)
                .with_model(CostModelKind::MaxPartitions),
        );
        assert!(IterationEstimator::from_json_str("\"clever\"").is_err());
        assert!(CostModelKind::from_json_str("\"min_regret\"").is_err());
    }

    #[test]
    fn iteration_stats_roundtrip() {
        let stats = IterationStats {
            iteration: 2,
            candidate_count: 19,
            group_count: 3,
            skyline_pairs: 41,
            execution_time: Duration::from_micros(1234),
            skyline_time: Duration::from_micros(900),
            skyline_timed_out: true,
            pick_time: Duration::from_micros(200),
            modify_time: Duration::from_micros(134),
            db_cost: 2,
            result_cost: 7,
            modified_relations: 1,
            modified_tuples: 2,
            user_time: Duration::from_secs(5),
        };
        roundtrip(&stats);
    }

    #[test]
    fn iteration_stats_without_timeout_flag_decode_as_not_timed_out() {
        // Snapshots parked before `skyline_timed_out` existed lack the field.
        let stats = IterationStats {
            iteration: 1,
            candidate_count: 3,
            group_count: 2,
            skyline_pairs: 4,
            execution_time: Duration::from_micros(50),
            skyline_time: Duration::from_micros(20),
            skyline_timed_out: true,
            pick_time: Duration::from_micros(20),
            modify_time: Duration::from_micros(10),
            db_cost: 1,
            result_cost: 2,
            modified_relations: 1,
            modified_tuples: 1,
            user_time: Duration::ZERO,
        };
        let mut json = stats.to_json();
        if let Json::Object(pairs) = &mut json {
            pairs.retain(|(key, _)| key != "skyline_timed_out");
        }
        assert!(json.get("skyline_timed_out").is_none());
        let back = IterationStats::from_json_str(&json.render()).unwrap();
        assert!(!back.skyline_timed_out);
        assert_eq!(
            back,
            IterationStats {
                skyline_timed_out: false,
                ..stats
            }
        );
        // A present flag of the wrong kind is still an error.
        if let Json::Object(pairs) = &mut json {
            pairs.push(("skyline_timed_out".into(), Json::Int(1)));
        }
        assert!(IterationStats::from_json_str(&json.render()).is_err());
    }

    #[test]
    fn split_snapshots_reassemble_exactly() {
        use crate::driver::QfeSession;
        use qfe_datasets::example_1_1;

        let (db, result, candidates, _) = example_1_1();
        let session = QfeSession::builder(db, result)
            .with_candidates(candidates)
            .build()
            .unwrap();
        let mut engine = session.start();
        let _ = engine.step().unwrap(); // snapshot mid-round: pending survives
        let snapshot = engine.snapshot();

        let (workload, state) = snapshot.split();
        // The workload half is canonical: same pair, same text, same address.
        let text = workload.canonical_text();
        assert_eq!(
            qfe_wire::content_hash(&text),
            qfe_wire::content_hash(&workload.canonical_text())
        );
        // The state half no longer embeds the database tables.
        assert!(state.get("database").is_none());
        assert!(state.get("result").is_none());

        let workload_back = WorkloadPayload::from_json_str(&text).unwrap();
        assert_eq!(workload_back, workload);
        let back = SessionSnapshot::from_parts(workload_back, &state).unwrap();
        assert_eq!(back, snapshot);
        // Whole-snapshot serialization is unaffected by the split.
        assert_eq!(back.serialize(), snapshot.serialize());

        let mut bad = state.clone();
        if let Json::Object(pairs) = &mut bad {
            pairs[0].1 = Json::Int(99);
        }
        let workload = SessionSnapshot::from_parts(snapshot.split().0, &bad);
        assert!(workload.unwrap_err().to_string().contains("version 99"));
    }

    #[test]
    fn whole_and_parked_documents_keep_their_key_order_and_load() {
        use crate::driver::QfeSession;
        use qfe_datasets::example_1_1;

        let (db, result, candidates, _) = example_1_1();
        let session = QfeSession::builder(db, result)
            .with_candidates(candidates)
            .build()
            .unwrap();
        let mut engine = session.start();
        let _ = engine.step().unwrap();
        let snapshot = engine.snapshot();

        // Documents with every key in the order earlier releases wrote it,
        // values rendered field by field.
        let state_keys = [
            "candidates",
            "params",
            "max_iterations",
            "query_generation_time",
            "remaining",
            "iterations",
            "pending",
            "rejected",
            "indistinguishable",
        ];
        let value = |key: &str| match key {
            "version" => Json::Int(1),
            "database" => snapshot.database.to_json(),
            "result" => snapshot.result.to_json(),
            "candidates" => snapshot.candidates.to_json(),
            "params" => snapshot.params.to_json(),
            "max_iterations" => snapshot.max_iterations.to_json(),
            "query_generation_time" => snapshot.query_generation_time.to_json(),
            "remaining" => snapshot.remaining.to_json(),
            "iterations" => snapshot.iterations.to_json(),
            "pending" => snapshot.pending.to_json(),
            "rejected" => Json::Bool(snapshot.rejected),
            "indistinguishable" => Json::Bool(snapshot.indistinguishable),
            other => panic!("unexpected key {other}"),
        };
        let document = |keys: Vec<&'static str>| -> String {
            Json::object(keys.into_iter().map(|k| (k, value(k)))).render()
        };
        let whole = document(
            ["version", "database", "result"]
                .into_iter()
                .chain(state_keys)
                .collect(),
        );
        let parked = document(std::iter::once("version").chain(state_keys).collect());

        assert_eq!(SessionSnapshot::deserialize(&whole).unwrap(), snapshot);
        assert_eq!(
            snapshot.serialize(),
            whole,
            "whole snapshots render as before"
        );
        let (workload, state) = snapshot.split();
        assert_eq!(state.render(), parked, "parked state renders as before");
        let state_back = Json::parse(&parked).unwrap();
        assert_eq!(
            SessionSnapshot::from_parts(workload, &state_back).unwrap(),
            snapshot
        );
    }

    #[test]
    fn deltas_roundtrip() {
        use qfe_relation::{tuple, Value};
        let delta = ResultDelta {
            removed: vec![tuple!["Bob"]],
            added: vec![tuple!["Eve"], tuple!["Mallory"]],
        };
        let text = delta.to_json_string();
        let back = ResultDelta::from_json_str(&text).unwrap();
        assert_eq!(back.removed, delta.removed);
        assert_eq!(back.added, delta.added);

        let db_delta = DatabaseDelta {
            edits: vec![EditOp::ModifyCell {
                table: "Employee".into(),
                row: 1,
                column: "salary".into(),
                old: Value::Int(4200),
                new: Value::Int(3900),
            }],
        };
        let back = DatabaseDelta::from_json_str(&db_delta.to_json_string()).unwrap();
        assert_eq!(back.edits, db_delta.edits);
    }
}
