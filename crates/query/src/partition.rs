//! Partitioning a set of candidate queries by their results.
//!
//! Section 2 of the paper: a modified database `D'` partitions the candidate
//! set `QC` into subsets `QC_1, …, QC_k` such that two queries fall in the
//! same subset iff they produce the same result on `D'`, and the results
//! `R_1, …, R_k` of the subsets are pairwise distinct.

use std::collections::{BTreeMap, HashMap};

use qfe_relation::{Database, JoinedRelation, Tuple};

use crate::error::Result;
use crate::eval::{join_of, BoundQuery};
use crate::result::QueryResult;
use crate::spj::SpjQuery;

/// One block of a query partition: the queries (by index into the candidate
/// list) that share a result, together with that result.
#[derive(Debug, Clone)]
pub struct QueryGroup {
    /// Indices into the candidate-query list.
    pub query_indices: Vec<usize>,
    /// The common result of those queries.
    pub result: QueryResult,
}

impl QueryGroup {
    /// Number of queries in the group.
    pub fn len(&self) -> usize {
        self.query_indices.len()
    }

    /// True if the group is empty (never produced by the partitioning).
    pub fn is_empty(&self) -> bool {
        self.query_indices.is_empty()
    }
}

/// The partition of a candidate set induced by one database.
#[derive(Debug, Clone)]
pub struct QueryPartition {
    /// The groups, in deterministic order (by result fingerprint).
    pub groups: Vec<QueryGroup>,
}

impl QueryPartition {
    /// Number of groups `k`.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Sizes of the groups.
    pub fn sizes(&self) -> Vec<usize> {
        self.groups.iter().map(QueryGroup::len).collect()
    }
}

/// Groups queries by their result fingerprint.
fn partition_by_results(results: Vec<QueryResult>) -> QueryPartition {
    let mut by_fingerprint: BTreeMap<Vec<Tuple>, QueryGroup> = BTreeMap::new();
    for (idx, result) in results.into_iter().enumerate() {
        let fp = result.fingerprint();
        by_fingerprint
            .entry(fp)
            .or_insert_with(|| QueryGroup {
                query_indices: Vec::new(),
                result,
            })
            .query_indices
            .push(idx);
    }
    QueryPartition {
        groups: by_fingerprint.into_values().collect(),
    }
}

/// Partitions `queries` by their results on `db`.
///
/// Each query's result is exactly [`crate::evaluate`]'s, but the
/// foreign-key join is computed once per distinct `tables` list (as
/// written, so two orders of one list are two joins), not once per query:
/// candidates usually share one join schema.
pub fn partition_queries(queries: &[SpjQuery], db: &Database) -> Result<QueryPartition> {
    let mut joins: HashMap<&[String], JoinedRelation> = HashMap::new();
    let mut results = Vec::with_capacity(queries.len());
    for q in queries {
        let join = match joins.entry(&q.tables) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => e.insert(join_of(q, db)?),
        };
        results.push(BoundQuery::bind(q, join)?.evaluate(join));
    }
    Ok(partition_by_results(results))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::predicate::{ComparisonOp, DnfPredicate, Term};
    use qfe_relation::{tuple, ColumnDef, DataType, Table, TableSchema, Value};

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

    /// The group holding candidate `query_idx`.
    fn group_of(p: &QueryPartition, query_idx: usize) -> Option<&QueryGroup> {
        p.groups
            .iter()
            .find(|g| g.query_indices.contains(&query_idx))
    }

    fn candidates() -> Vec<SpjQuery> {
        let q = |p| SpjQuery::new(vec!["Employee"], vec!["name"], p);
        vec![
            q(DnfPredicate::single(Term::eq("gender", "M"))),
            q(DnfPredicate::single(Term::compare(
                "salary",
                ComparisonOp::Gt,
                4000i64,
            ))),
            q(DnfPredicate::single(Term::eq("dept", "IT"))),
        ]
    }

    #[test]
    fn all_candidates_agree_on_original_database() {
        let db = employee_db();
        let p = partition_queries(&candidates(), &db).unwrap();
        assert_eq!(p.group_count(), 1);
        assert_eq!(p.sizes(), vec![3]);
    }

    #[test]
    fn modified_database_d1_splits_off_q2() {
        let mut db = employee_db();
        db.table_mut("Employee")
            .unwrap()
            .update_cell(1, "salary", Value::Int(3900))
            .unwrap();
        let p = partition_queries(&candidates(), &db).unwrap();
        assert_eq!(p.group_count(), 2);
        let mut sizes = p.sizes();
        sizes.sort();
        assert_eq!(sizes, vec![1, 2]);
        // Q2 (index 1) is alone in its group.
        assert_eq!(group_of(&p, 1).map(QueryGroup::len), Some(1));
        assert!(group_of(&p, 99).is_none());
    }

    #[test]
    fn modified_database_d2_splits_q1_from_q3() {
        // D2: Bob's dept changed from IT to Service (the paper's second round).
        let mut db = employee_db();
        db.table_mut("Employee")
            .unwrap()
            .update_cell(1, "dept", Value::Text("Service".into()))
            .unwrap();
        let p = partition_queries(&candidates(), &db).unwrap();
        // Q1 (gender=M) keeps {Bob,Darren}; Q3 (dept=IT) now returns {Darren};
        // Q2 (salary>4000) also returns {Bob, Darren}.
        assert_eq!(p.group_count(), 2);
        assert_eq!(group_of(&p, 0).unwrap().query_indices, vec![0, 1]);
        assert_eq!(group_of(&p, 2).unwrap().query_indices, vec![2]);
    }

    #[test]
    fn candidates_over_several_table_lists_group_as_per_query_evaluation() {
        use qfe_relation::ForeignKey;

        let mut db = employee_db();
        let dept = Table::with_rows(
            TableSchema::new(
                "Dept",
                vec![
                    ColumnDef::new("dept", DataType::Text),
                    ColumnDef::new("floor", DataType::Int),
                ],
            )
            .unwrap()
            .with_primary_key(&["dept"])
            .unwrap(),
            vec![
                tuple!["Sales", 1i64],
                tuple!["IT", 2i64],
                tuple!["Service", 1i64],
            ],
        )
        .unwrap();
        db.add_table(dept).unwrap();
        db.add_foreign_key(ForeignKey::new("Employee", "dept", "Dept", "dept"))
            .unwrap();
        db.table_mut("Employee")
            .unwrap()
            .update_cell(1, "dept", Value::Text("Service".into()))
            .unwrap();

        let joined = |tables: Vec<&str>, p| SpjQuery::new(tables, vec!["name"], p);
        let mut queries = candidates();
        queries.extend([
            joined(
                vec!["Employee", "Dept"],
                DnfPredicate::single(Term::eq("floor", 2i64)),
            ),
            joined(
                vec!["Dept", "Employee"],
                DnfPredicate::single(Term::eq("floor", 2i64)),
            ),
            joined(
                vec!["Employee", "Dept"],
                DnfPredicate::single(Term::eq("gender", "M")),
            ),
            joined(
                vec!["Dept", "Employee"],
                DnfPredicate::single(Term::compare("floor", ComparisonOp::Ge, 1i64)),
            ),
        ]);
        let p = partition_queries(&queries, &db).unwrap();

        // The reference: one `evaluate` (one join) per query, grouped by
        // fingerprint in the same order.
        let results: Vec<QueryResult> = queries.iter().map(|q| evaluate(q, &db).unwrap()).collect();
        let reference = partition_by_results(results);
        assert_eq!(p.group_count(), reference.group_count());
        for (got, want) in p.groups.iter().zip(&reference.groups) {
            assert_eq!(got.query_indices, want.query_indices);
            assert_eq!(got.result.columns(), want.result.columns());
            assert_eq!(got.result.rows(), want.result.rows());
        }
        // Bob moved to Service: {Darren} on floor 2 vs {Bob, Darren} male.
        assert_eq!(group_of(&p, 3).unwrap().query_indices, vec![2, 3, 4]);
        assert_eq!(group_of(&p, 0).unwrap().query_indices, vec![0, 1, 5]);
        assert_eq!(group_of(&p, 6).unwrap().query_indices, vec![6]);

        // An unknown table still fails as it does in `evaluate`.
        let bad = vec![joined(vec!["Nope"], DnfPredicate::always_true())];
        assert!(partition_queries(&bad, &db).is_err());
    }

    #[test]
    fn group_accessors() {
        let g = QueryGroup {
            query_indices: vec![1, 2],
            result: QueryResult::empty(vec!["x".into()]),
        };
        assert_eq!(g.len(), 2);
        assert!(!g.is_empty());
    }
}
