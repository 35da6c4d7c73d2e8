//! Queries with set-based semantics (Section 6.1).
//!
//! The core algorithms assume bag semantics (duplicates preserved). For
//! `SELECT DISTINCT` candidates, a modification that removes one of several
//! duplicate-supporting tuples does not change the (set) result, so the paper
//! proposes distinguishing such queries by modifications that make a tuple
//! *newly* match one query but not another (the "second approach" of
//! Section 6.1).
//!
//! This reproduction does not implement that approach yet. Algorithm 4's
//! exact evaluation ([`evaluate_modification`](crate::evaluate_modification))
//! never reads whether a candidate is `DISTINCT`: it groups candidates by
//! their bag-level result changes, so pick can choose an edit that removes
//! one of two duplicate rows and score it as a split. Only the generator's
//! final re-evaluation of `D'` applies set semantics. When that verified
//! partition has a single group, the generator fails the round with
//! [`QfeError::Internal`](crate::QfeError) rather than presenting a round
//! that could only repeat. Candidate sets whose duplicates do not decide the
//! split, like Example 1.1's, run normally. The helpers here switch
//! candidate sets to set semantics and check which semantics a candidate
//! set uses.

use qfe_query::SpjQuery;

/// Whether every candidate uses set semantics (`SELECT DISTINCT`).
pub fn all_set_semantics(queries: &[SpjQuery]) -> bool {
    !queries.is_empty() && queries.iter().all(|q| q.distinct)
}

/// Whether the candidate set mixes bag- and set-semantics queries. QFE treats
/// the two differently when comparing results, so mixing them in one
/// candidate set is usually a sign of a malformed input.
pub fn mixed_semantics(queries: &[SpjQuery]) -> bool {
    queries.iter().any(|q| q.distinct) && queries.iter().any(|q| !q.distinct)
}

/// Returns the candidate set with every query switched to set semantics.
pub fn with_set_semantics(queries: &[SpjQuery]) -> Vec<SpjQuery> {
    queries
        .iter()
        .map(|q| q.clone().with_distinct(true))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::QfeSession;
    use crate::error::QfeError;
    use crate::feedback::OracleUser;
    use qfe_query::{evaluate, ComparisonOp, DnfPredicate, Term};
    use qfe_relation::{tuple, ColumnDef, DataType, Database, Table, TableSchema};

    fn db_with_duplicates() -> Database {
        // Two IT employees share the same name, so a DISTINCT projection of
        // names has fewer rows than the bag projection.
        let t = Table::with_rows(
            TableSchema::new(
                "Employee",
                vec![
                    ColumnDef::new("Eid", DataType::Int),
                    ColumnDef::new("name", DataType::Text),
                    ColumnDef::new("dept", DataType::Text),
                    ColumnDef::new("salary", DataType::Int),
                ],
            )
            .unwrap()
            .with_primary_key(&["Eid"])
            .unwrap(),
            vec![
                tuple![1i64, "Alice", "Sales", 3700i64],
                tuple![2i64, "Bob", "IT", 4200i64],
                tuple![3i64, "Bob", "IT", 4900i64],
                tuple![4i64, "Celina", "Service", 3000i64],
                tuple![5i64, "Darren", "IT", 5000i64],
            ],
        )
        .unwrap();
        let mut db = Database::new();
        db.add_table(t).unwrap();
        db
    }

    fn distinct_candidates() -> Vec<SpjQuery> {
        let q = |label: &str, p| {
            SpjQuery::new(vec!["Employee"], vec!["name"], p)
                .with_distinct(true)
                .with_label(label)
        };
        vec![
            q("Qd1", DnfPredicate::single(Term::eq("dept", "IT"))),
            q(
                "Qd2",
                DnfPredicate::single(Term::compare("salary", ComparisonOp::Gt, 4000i64)),
            ),
        ]
    }

    /// Three IT employees, two of them Bob: both DISTINCT candidates return
    /// {Bob, Darren}, and only an edit to Darren's row separates them.
    fn db_with_a_duplicate_pair() -> Database {
        let t = Table::with_rows(
            TableSchema::new(
                "E",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("name", DataType::Text),
                    ColumnDef::new("dept", DataType::Text),
                    ColumnDef::new("salary", DataType::Int),
                ],
            )
            .unwrap()
            .with_primary_key(&["id"])
            .unwrap(),
            vec![
                tuple![1i64, "Bob", "IT", 4200i64],
                tuple![2i64, "Bob", "IT", 4900i64],
                tuple![3i64, "Darren", "IT", 5000i64],
            ],
        )
        .unwrap();
        let mut db = Database::new();
        db.add_table(t).unwrap();
        db
    }

    #[test]
    fn a_round_that_set_semantics_merges_into_one_group_fails_instead_of_repeating() {
        let db = db_with_a_duplicate_pair();
        let bag = vec![
            SpjQuery::new(
                vec!["E"],
                vec!["name"],
                DnfPredicate::single(Term::eq("dept", "IT")),
            )
            .with_label("Qd1"),
            SpjQuery::new(
                vec!["E"],
                vec!["name"],
                DnfPredicate::single(Term::compare("salary", ComparisonOp::Gt, 4000i64)),
            )
            .with_label("Qd2"),
        ];
        let session = |candidates: Vec<SpjQuery>| {
            let result = evaluate(&candidates[0], &db).unwrap();
            QfeSession::builder(db.clone(), result)
                .with_candidates(candidates)
                .build()
                .unwrap()
        };
        // Bag semantics: Algorithm 4's evaluation is exact, one round splits.
        let outcome = session(bag.clone())
            .run(&OracleUser::new(bag[1].clone()))
            .unwrap();
        assert_eq!(outcome.query.label, bag[1].label);
        assert_eq!(outcome.report.iterations(), 1);

        // Set semantics: the edit pick scores as a split (one Bob row leaves
        // the IT department) changes neither set result, so the verified
        // partition has one group. Presenting it would repeat the same round
        // until the iteration cap; the generator reports it instead.
        let mut engine = session(with_set_semantics(&bag)).start();
        match engine.step() {
            Err(QfeError::Internal { message }) => {
                assert!(message.contains("set semantics"), "{message}")
            }
            other => panic!("expected an internal error, got {other:?}"),
        }
    }

    #[test]
    fn semantics_predicates() {
        let qs = distinct_candidates();
        assert!(all_set_semantics(&qs));
        assert!(!mixed_semantics(&qs));
        let mut mixed = qs.clone();
        mixed.push(SpjQuery::new(
            vec!["Employee"],
            vec!["name"],
            DnfPredicate::always_true(),
        ));
        assert!(!all_set_semantics(&mixed));
        assert!(mixed_semantics(&mixed));
        assert!(!all_set_semantics(&[]));
        let converted = with_set_semantics(&mixed);
        assert!(all_set_semantics(&converted));
    }

    #[test]
    fn driver_distinguishes_distinct_queries() {
        // Both DISTINCT candidates produce {Bob, Darren} on D; QFE must find a
        // modification that separates them even though removing one Bob-tuple
        // would not change either set-result.
        let db = db_with_duplicates();
        let candidates = distinct_candidates();
        let result = evaluate(&candidates[0], &db).unwrap();
        assert!(result.bag_equal(&evaluate(&candidates[1], &db).unwrap()));
        for target in &candidates {
            let session = QfeSession::builder(db.clone(), result.clone())
                .with_candidates(candidates.clone())
                .build()
                .unwrap();
            let outcome = session.run(&OracleUser::new(target.clone())).unwrap();
            assert_eq!(outcome.query.label, target.label);
        }
    }
}
