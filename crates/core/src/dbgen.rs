//! Algorithm 2: the Database Generator module.
//!
//! Combines the skyline enumeration (Algorithm 3), the subset selection
//! (Algorithm 4) and the realization of tuple-class pairs into a modified
//! database `D'` that partitions the remaining candidate queries, minimizing
//! the user-effort cost model. The caller owns the round's
//! [`GenerationContext`]: it builds the first one with
//! [`GenerationContext::new`] and each later one on the same session join
//! with [`GenerationContext::advance`] or [`GenerationContext::for_round`].

use std::time::{Duration, Instant};

use qfe_query::{partition_queries, QueryPartition};
use qfe_relation::{Database, EditOp};

use crate::context::GenerationContext;
use crate::cost::CostParams;
use crate::error::{QfeError, Result};
use crate::pick::pick_stc_dtc_subset;
use crate::realize::{apply_edits, edits_to_ops};
use crate::skyline::skyline_stc_dtc_pairs;

/// The Database Generator (Algorithm 2).
#[derive(Debug, Clone, Default)]
pub struct DatabaseGenerator {
    params: CostParams,
}

/// A generated modified database `D'` with everything the feedback module and
/// the experiment harness need to know about how it was produced.
#[derive(Debug, Clone)]
pub struct GeneratedDatabase {
    /// The modified database `D'`.
    pub database: Database,
    /// The edits transforming `D` into `D'` (all attribute modifications).
    pub edits: Vec<EditOp>,
    /// The exact partition of the candidate queries induced by `D'`
    /// (verified by full re-evaluation).
    pub partition: QueryPartition,
    /// `minEdit(D, D')`.
    pub db_edit_cost: usize,
    /// Total result modification cost `Σ minEdit(R, R_i)`.
    pub result_cost: usize,
    /// Number of relations modified.
    pub modified_relations: usize,
    /// Number of base tuples modified.
    pub modified_tuples: usize,
    /// Number of skyline pairs enumerated by Algorithm 3.
    pub skyline_pair_count: usize,
    /// Lemma 3.1's `x` observed during skyline enumeration.
    pub best_binary_x: Option<usize>,
    /// Time spent in Algorithm 3.
    pub skyline_time: Duration,
    /// Whether Algorithm 3 stopped at the time budget δ (its pairs are then
    /// the best found so far, not the full skyline).
    pub skyline_timed_out: bool,
    /// Time spent in Algorithm 4.
    pub pick_time: Duration,
    /// Time spent applying the modification and re-partitioning.
    pub modify_time: Duration,
}

impl GeneratedDatabase {
    /// Total generation time (Algorithm 3 + Algorithm 4 + modification).
    pub fn total_time(&self) -> Duration {
        self.skyline_time + self.pick_time + self.modify_time
    }
}

impl DatabaseGenerator {
    /// Creates a generator with the given cost-model parameters.
    pub fn new(params: CostParams) -> Self {
        DatabaseGenerator { params }
    }

    /// The generator's parameters.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Runs Algorithm 2 for one iteration against the round's context:
    /// enumerates skyline pairs, picks the best subset and realizes it.
    ///
    /// Fails with [`QfeError::Internal`] when the realized database does not
    /// split the candidates after all, which only set semantics can cause
    /// (see [`with_set_semantics`](crate::with_set_semantics)).
    pub fn generate_with_context(&self, ctx: &GenerationContext) -> Result<GeneratedDatabase> {
        // Step 1: Algorithm 3.
        let skyline = skyline_stc_dtc_pairs(ctx, self.params.skyline_time_budget);

        // Step 2: Algorithm 4.
        let pick_start = Instant::now();
        let picked = pick_stc_dtc_subset(ctx, &skyline.pairs, &self.params, skyline.best_binary_x)?;
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
        // verified results can still coincide; presenting such a round
        // would repeat it until the iteration cap.
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

        Ok(GeneratedDatabase {
            database,
            edits,
            partition,
            db_edit_cost: picked.realized.db_edit_cost,
            result_cost: picked.evaluation.total_result_cost(),
            modified_relations: picked.realized.modified_relations,
            modified_tuples: picked.realized.modified_tuples,
            skyline_pair_count: skyline.pairs.len(),
            best_binary_x: skyline.best_binary_x,
            skyline_time: skyline.elapsed,
            skyline_timed_out: skyline.timed_out,
            pick_time,
            modify_time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfe_query::{evaluate, ComparisonOp, DnfPredicate, QueryResult, SpjQuery, Term};
    use qfe_relation::{tuple, ColumnDef, DataType, Table, TableSchema};

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

    fn generate(
        db: &Database,
        result: &QueryResult,
        queries: &[SpjQuery],
    ) -> Result<GeneratedDatabase> {
        let ctx = GenerationContext::new(db, result, queries)?;
        DatabaseGenerator::default().generate_with_context(&ctx)
    }

    #[test]
    fn generated_database_partitions_the_candidates() {
        let (db, queries, result) = employee_db();
        let generated = generate(&db, &result, &queries).unwrap();
        assert!(generated.partition.group_count() >= 2);
        assert_eq!(
            generated.partition.sizes().iter().sum::<usize>(),
            queries.len()
        );
        // The modification is small: at most one attribute per candidate that
        // must be separated, all within the single relation (on Example 1.1
        // the generator either performs one change splitting 2/1 or two
        // changes splitting 1/1/1, whichever the cost model prefers).
        assert!(generated.db_edit_cost <= 2);
        assert_eq!(generated.modified_relations, 1);
        assert!(generated.modified_tuples <= 2);
        assert_eq!(generated.edits.len(), generated.db_edit_cost);
        assert!(generated.skyline_pair_count > 0);
        assert!(generated.total_time() >= generated.pick_time);
        // The modified database still satisfies its integrity constraints.
        assert!(generated.database.check_integrity().is_ok());
        // D' differs from D by exactly the reported edit cost.
        assert_eq!(
            qfe_relation::min_edit_databases(&db, &generated.database),
            generated.db_edit_cost
        );
    }

    #[test]
    fn exact_partition_matches_edit_based_expectation() {
        let (db, queries, result) = employee_db();
        let generated = generate(&db, &result, &queries).unwrap();
        // Every group's queries produce identical results on D'; different
        // groups produce different results.
        for g in &generated.partition.groups {
            let first = evaluate(&queries[g.query_indices[0]], &generated.database).unwrap();
            for &qi in &g.query_indices[1..] {
                let r = evaluate(&queries[qi], &generated.database).unwrap();
                assert!(first.bag_equal(&r));
            }
        }
        let _ = result;
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

    #[test]
    fn params_are_propagated() {
        let params = CostParams::default().with_beta(3.0);
        let generator = DatabaseGenerator::new(params.clone());
        assert_eq!(generator.params(), &params);
    }
}
