//! Algorithm 2: the Database Generator module.
//!
//! [`generate_round`] combines the skyline enumeration (Algorithm 3), the
//! subset selection (Algorithm 4) and the realization of tuple-class pairs
//! into a modified database `D'` that partitions the remaining candidate
//! queries, minimizing the user-effort cost model, and returns the feedback
//! round it shows the user with the round's statistics. The caller owns the
//! round's [`GenerationContext`]: the engine builds the first one with
//! [`GenerationContext::new_shared`] and each later one on the same session
//! join with [`GenerationContext::for_round`].

use std::time::{Duration, Instant};

use qfe_query::partition_queries;

use crate::context::GenerationContext;
use crate::cost::CostParams;
use crate::delta::{DatabaseDelta, ResultDelta};
use crate::error::{QfeError, Result};
use crate::feedback::{FeedbackChoice, FeedbackRound};
use crate::pick::pick_stc_dtc_subset;
use crate::realize::{apply_edits, edits_to_ops};
use crate::skyline::skyline_stc_dtc_pairs;
use crate::stats::IterationStats;

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

/// Runs Algorithm 2 for one iteration against the round's context:
/// enumerates skyline pairs, picks the best subset, realizes it as `D'` and
/// partitions the candidates by their results on `D'`.
///
/// The round and its statistics come back numbered 0 (the caller numbers
/// them); `execution_time` is this call's wall-clock time.
///
/// Fails with [`QfeError::Internal`] when the realized database does not
/// split the candidates after all, which only set semantics can cause
/// (see [`with_set_semantics`](crate::with_set_semantics)).
pub fn generate_round(ctx: &GenerationContext, params: &CostParams) -> Result<PendingRound> {
    let start = Instant::now();
    // Step 1: Algorithm 3.
    let skyline = skyline_stc_dtc_pairs(ctx, params.skyline_time_budget);

    // Step 2: Algorithm 4.
    let pick_start = Instant::now();
    let picked = pick_stc_dtc_subset(ctx, &skyline.pairs, params, skyline.best_binary_x)?;
    let pick_time = pick_start.elapsed();

    // Step 3: realize D' and verify.
    let modify_start = Instant::now();
    let database = apply_edits(ctx.database(), &picked.realized.edits)?;
    let edits = edits_to_ops(ctx.database(), &picked.realized.edits)?;
    let partition = partition_queries(ctx.queries(), &database)?;
    let modify_time = modify_start.elapsed();
    // Pick only returns sets whose evaluation splits the candidates, and
    // that evaluation is exact under bag semantics. It counts bag-level
    // groups, though, so under set semantics (`SELECT DISTINCT`) the
    // verified results can still coincide; presenting such a round would
    // repeat it until the iteration cap.
    if partition.group_count() < 2 {
        return Err(QfeError::Internal {
            message: format!(
                "the realized database splits {} candidates into {} group(s): \
                 Algorithm 4 scored it by bag-level results, and set semantics \
                 (SELECT DISTINCT) merged them",
                ctx.queries().len(),
                partition.group_count()
            ),
        });
    }

    let choices: Vec<FeedbackChoice> = partition
        .groups
        .into_iter()
        .map(|g| FeedbackChoice {
            result_delta: ResultDelta::between(ctx.original_result(), &g.result),
            result: g.result,
            candidate_count: g.query_indices.len(),
            query_indices: g.query_indices,
        })
        .collect();
    let stats = IterationStats {
        iteration: 0,
        candidate_count: ctx.queries().len(),
        group_count: choices.len(),
        skyline_pairs: skyline.pairs.len(),
        execution_time: start.elapsed(),
        skyline_time: skyline.elapsed,
        skyline_timed_out: skyline.timed_out,
        pick_time,
        modify_time,
        db_cost: picked.realized.db_edit_cost,
        result_cost: picked.evaluation.total_result_cost(),
        modified_relations: picked.realized.modified_relations,
        modified_tuples: picked.realized.modified_tuples,
        user_time: Duration::ZERO,
    };
    let round = FeedbackRound {
        iteration: 0,
        database,
        database_delta: DatabaseDelta { edits },
        choices,
    };
    Ok(PendingRound { round, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfe_query::{evaluate, ComparisonOp, DnfPredicate, QueryResult, SpjQuery, Term};
    use qfe_relation::{tuple, ColumnDef, DataType, Database, Table, TableSchema};

    fn employee_db() -> (Database, Vec<SpjQuery>, QueryResult) {
        let employee = Table::with_rows(
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
        db.add_table(employee).unwrap();
        let q = |p| SpjQuery::new(vec!["Employee"], vec!["name"], p);
        let queries = vec![
            q(DnfPredicate::single(Term::eq("gender", "M"))),
            q(DnfPredicate::single(Term::compare(
                "salary",
                ComparisonOp::Gt,
                4000i64,
            ))),
            q(DnfPredicate::single(Term::eq("dept", "IT"))),
        ];
        let result = evaluate(&queries[0], &db).unwrap();
        (db, queries, result)
    }

    fn generate(db: &Database, result: &QueryResult, queries: &[SpjQuery]) -> Result<PendingRound> {
        let ctx = GenerationContext::new(db, result, queries)?;
        generate_round(&ctx, &CostParams::default())
    }

    #[test]
    fn generated_database_partitions_the_candidates() {
        let (db, queries, result) = employee_db();
        let PendingRound { round, stats } = generate(&db, &result, &queries).unwrap();
        assert!(round.choices.len() >= 2);
        assert_eq!(
            round
                .choices
                .iter()
                .map(|c| c.candidate_count)
                .sum::<usize>(),
            queries.len()
        );
        // The modification is small: at most one attribute per candidate that
        // must be separated, all within the single relation (on Example 1.1
        // the generator either performs one change splitting 2/1 or two
        // changes splitting 1/1/1, whichever the cost model prefers).
        assert!(stats.db_cost <= 2);
        assert_eq!(stats.modified_relations, 1);
        assert!(stats.modified_tuples <= 2);
        assert_eq!(round.database_delta.edits.len(), stats.db_cost);
        assert!(stats.skyline_pairs > 0);
        assert!(stats.execution_time >= stats.pick_time);
        // The modified database still satisfies its integrity constraints.
        assert!(round.database.check_integrity().is_ok());
        // D' differs from D by exactly the reported edit cost.
        assert_eq!(
            qfe_relation::min_edit_databases(&db, &round.database),
            stats.db_cost
        );
    }

    #[test]
    fn exact_partition_matches_edit_based_expectation() {
        let (db, queries, result) = employee_db();
        let round = generate(&db, &result, &queries).unwrap().round;
        // Every group's queries produce identical results on D'; different
        // groups produce different results.
        for choice in &round.choices {
            let first = evaluate(&queries[choice.query_indices[0]], &round.database).unwrap();
            for &qi in &choice.query_indices[1..] {
                let r = evaluate(&queries[qi], &round.database).unwrap();
                assert!(first.bag_equal(&r));
            }
        }
    }

    #[test]
    fn single_candidate_cannot_be_split() {
        let (db, queries, result) = employee_db();
        let err = generate(&db, &result, &queries[..1]).unwrap_err();
        assert!(matches!(
            err,
            crate::error::QfeError::NoDistinguishingDatabase { .. }
        ));
    }
}
