//! The candidate-query generator (the paper's Query Generator module).

use qfe_query::{QueryResult, SpjQuery};
use qfe_relation::{foreign_key_join, Database};

use crate::config::QboConfig;
use crate::error::{QboError, Result};
use crate::join_enum::connected_table_subsets;
use crate::predicate_enum::{enumerate_predicates, split_rows, AttributeSpace};
use crate::projection::candidate_projections;
use crate::verify::{BatchVerifier, VerifyStats};

/// Generates candidate SPJ queries `Q` with `Q(D) = R` from an example
/// database-result pair `(D, R)` — the role the paper delegates to the QBO
/// system of Tran et al. (Section 4).
///
/// The generator enumerates connected join schemas, infers projections,
/// enumerates selection predicates that separate the join's rows into the
/// required positives/negatives and finally *verifies* every candidate by
/// evaluating it against `D` (only verified candidates are returned).
#[derive(Debug, Clone, Default)]
pub struct QueryGenerator {
    config: QboConfig,
}

impl QueryGenerator {
    /// Creates a generator with the given configuration.
    pub fn new(config: QboConfig) -> Self {
        QueryGenerator { config }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &QboConfig {
        &self.config
    }

    /// Generates candidate queries for the example pair `(db, result)`.
    ///
    /// Candidates are deduplicated (by their rendered SQL) and capped at
    /// `config.max_candidates`. Returns [`QboError::NoCandidates`] when the
    /// search space contains no verified candidate.
    pub fn generate(&self, db: &Database, result: &QueryResult) -> Result<Vec<SpjQuery>> {
        self.generate_with_stats(db, result).map(|(c, _)| c)
    }

    /// [`Self::generate`] plus the verification counters (candidates checked,
    /// signature-cache replays, rows scanned), summed over the
    /// [`BatchVerifier`] of every join schema searched.
    pub fn generate_with_stats(
        &self,
        db: &Database,
        result: &QueryResult,
    ) -> Result<(Vec<SpjQuery>, VerifyStats)> {
        if result.is_empty() {
            return Err(QboError::EmptyResult);
        }
        // Each candidate with its sort key: its complexity and its SQL,
        // rendered once (the SQL is also the dedup key).
        let mut candidates: Vec<(usize, String, SpjQuery)> = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        let mut saw_projection = false;
        let mut stats = VerifyStats::default();

        for tables in connected_table_subsets(db, self.config.max_join_tables) {
            if candidates.len() >= self.config.max_candidates {
                break;
            }
            let join = match foreign_key_join(db, &tables) {
                Ok(j) => j,
                Err(_) => continue,
            };
            if join.is_empty() {
                continue;
            }
            // One term-bitmap cache serves every candidate enumerated on
            // this join, and the enumeration itself.
            let mut verifier = BatchVerifier::new(&join, result);
            let space = AttributeSpace::new(&join);
            for projection in
                candidate_projections(&join, result, self.config.infer_projection_by_values)
            {
                // Resolve the projection for the split.
                let proj_idx: Option<Vec<usize>> = projection
                    .iter()
                    .map(|c| join.resolve_column(c).ok())
                    .collect();
                let Some(proj_idx) = proj_idx else { continue };
                saw_projection = true;
                let Some(split) = split_rows(&join, &proj_idx, result) else {
                    continue;
                };
                let predicates = enumerate_predicates(
                    &join,
                    &space,
                    &split,
                    &self.config,
                    verifier.term_cache(),
                );
                for predicate in predicates {
                    if candidates.len() >= self.config.max_candidates {
                        break;
                    }
                    let query = SpjQuery::new(tables.clone(), projection.clone(), predicate);
                    // Verify by evaluation (defence in depth: the
                    // enumeration already checked row membership).
                    if verifier.verify(&query) {
                        let sql = query.to_string();
                        if seen.insert(sql.clone()) {
                            candidates.push((query.complexity(), sql, query));
                        }
                    }
                }
            }
            stats.absorb(&verifier.stats());
        }

        if candidates.is_empty() {
            return Err(if saw_projection {
                QboError::NoCandidates
            } else {
                QboError::NoProjection
            });
        }
        // Deterministic order: simple queries first, then lexicographic.
        candidates.sort_by(|(ca, sa, _), (cb, sb, _)| (ca, sa).cmp(&(cb, sb)));
        Ok((candidates.into_iter().map(|(_, _, q)| q).collect(), stats))
    }

    /// Generates candidates and guarantees that `target` (which must satisfy
    /// `target(D) = R`) is among them, appending it if the bounded search
    /// missed it. This mirrors the paper's experimental setup where "the
    /// target query in an experiment could be Q or one of the candidate
    /// queries generated from (D, R)".
    pub fn generate_including(
        &self,
        db: &Database,
        result: &QueryResult,
        target: &SpjQuery,
    ) -> Result<Vec<SpjQuery>> {
        let mut candidates = match self.generate(db, result) {
            Ok(c) => c,
            Err(QboError::NoCandidates) | Err(QboError::NoProjection) => Vec::new(),
            Err(e) => return Err(e),
        };
        let target_sql = target.to_string();
        let target_result = qfe_query::evaluate(target, db)?;
        if !target_result.bag_equal(result) {
            return Err(QboError::NoCandidates);
        }
        if !candidates.iter().any(|q| q.to_string() == target_sql) {
            candidates.insert(0, target.clone());
        }
        Ok(candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfe_query::{evaluate, ComparisonOp, DnfPredicate, Term};
    use qfe_relation::{tuple, ColumnDef, DataType, ForeignKey, Table, TableSchema};

    fn employee_db() -> Database {
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
        db
    }

    fn bob_darren() -> QueryResult {
        QueryResult::new(
            vec!["name".to_string()],
            vec![tuple!["Bob"], tuple!["Darren"]],
        )
    }

    #[test]
    fn every_generated_candidate_reproduces_the_example_result() {
        let db = employee_db();
        let result = bob_darren();
        let candidates = QueryGenerator::default().generate(&db, &result).unwrap();
        assert!(
            candidates.len() >= 3,
            "found {} candidates",
            candidates.len()
        );
        for q in &candidates {
            let r = evaluate(q, &db).unwrap();
            assert!(r.bag_equal(&result), "candidate {q} does not reproduce R");
        }
    }

    #[test]
    fn example_1_1_candidates_are_found() {
        let db = employee_db();
        let candidates = QueryGenerator::default()
            .generate(&db, &bob_darren())
            .unwrap();
        let rendered: Vec<String> = candidates.iter().map(|q| q.to_string()).collect();
        assert!(
            rendered.iter().any(|s| s.contains("gender = 'M'")),
            "{rendered:#?}"
        );
        assert!(
            rendered.iter().any(|s| s.contains("dept = 'IT'")),
            "{rendered:#?}"
        );
        assert!(
            rendered.iter().any(|s| s.contains("salary >")),
            "{rendered:#?}"
        );
    }

    #[test]
    fn candidates_are_deduplicated_and_ordered() {
        let db = employee_db();
        let candidates = QueryGenerator::default()
            .generate(&db, &bob_darren())
            .unwrap();
        let mut sqls: Vec<String> = candidates.iter().map(|q| q.to_string()).collect();
        let before = sqls.len();
        sqls.dedup();
        assert_eq!(before, sqls.len());
        // Ordered by complexity (number of tables + terms) non-decreasing.
        let complexities: Vec<usize> = candidates.iter().map(|q| q.complexity()).collect();
        let mut sorted = complexities.clone();
        sorted.sort();
        assert_eq!(complexities, sorted);
    }

    #[test]
    fn empty_result_is_rejected() {
        let db = employee_db();
        let empty = QueryResult::empty(vec!["name".to_string()]);
        assert!(matches!(
            QueryGenerator::default().generate(&db, &empty).unwrap_err(),
            QboError::EmptyResult
        ));
    }

    #[test]
    fn unproducible_result_yields_no_projection_or_candidates() {
        let db = employee_db();
        let impossible = QueryResult::new(vec!["name".to_string()], vec![tuple![12345i64]]);
        let err = QueryGenerator::default()
            .generate(&db, &impossible)
            .unwrap_err();
        assert!(matches!(
            err,
            QboError::NoProjection | QboError::NoCandidates
        ));
    }

    #[test]
    fn generate_including_appends_missing_target() {
        let db = employee_db();
        let result = bob_darren();
        // A redundant but correct target query the bounded search would not
        // produce verbatim.
        let target = SpjQuery::new(
            vec!["Employee"],
            vec!["name"],
            DnfPredicate::conjunction(vec![
                Term::eq("gender", "M"),
                Term::compare("salary", ComparisonOp::Gt, 1000i64),
            ]),
        )
        .with_label("target");
        let candidates = QueryGenerator::default()
            .generate_including(&db, &result, &target)
            .unwrap();
        assert!(candidates
            .iter()
            .any(|q| q.label.as_deref() == Some("target")));
        // A target that does not reproduce R is rejected.
        let wrong = SpjQuery::new(
            vec!["Employee"],
            vec!["name"],
            DnfPredicate::single(Term::eq("gender", "F")),
        );
        assert!(QueryGenerator::default()
            .generate_including(&db, &result, &wrong)
            .is_err());
    }

    #[test]
    fn multi_table_generation_over_foreign_keys() {
        // Dept(did, dname) and Emp(eid, did, level): result needs columns from
        // Emp but the separating predicate is on Dept.dname.
        let dept = Table::with_rows(
            TableSchema::new(
                "Dept",
                vec![
                    ColumnDef::new("did", DataType::Int),
                    ColumnDef::new("dname", DataType::Text),
                ],
            )
            .unwrap()
            .with_primary_key(&["did"])
            .unwrap(),
            vec![tuple![1i64, "IT"], tuple![2i64, "Sales"]],
        )
        .unwrap();
        let emp = Table::with_rows(
            TableSchema::new(
                "Emp",
                vec![
                    ColumnDef::new("eid", DataType::Int),
                    ColumnDef::new("did", DataType::Int),
                    ColumnDef::new("level", DataType::Int),
                ],
            )
            .unwrap()
            .with_primary_key(&["eid"])
            .unwrap(),
            vec![
                tuple![10i64, 1i64, 3i64],
                tuple![11i64, 1i64, 4i64],
                tuple![12i64, 2i64, 3i64],
            ],
        )
        .unwrap();
        let mut db = Database::new();
        db.add_table(dept).unwrap();
        db.add_table(emp).unwrap();
        db.add_foreign_key(ForeignKey::new("Emp", "did", "Dept", "did"))
            .unwrap();

        let result = QueryResult::new(vec!["eid".to_string()], vec![tuple![10i64], tuple![11i64]]);
        let candidates = QueryGenerator::new(QboConfig::exhaustive())
            .generate(&db, &result)
            .unwrap();
        assert!(!candidates.is_empty());
        // At least one candidate must join both tables and select on dname,
        // and at least one candidate must stay within Emp (eid <= 11 etc.).
        assert!(candidates.iter().any(|q| q.tables.len() == 2));
        assert!(candidates.iter().any(|q| q.tables.len() == 1));
        for q in &candidates {
            assert!(evaluate(q, &db).unwrap().bag_equal(&result));
        }
    }
}
