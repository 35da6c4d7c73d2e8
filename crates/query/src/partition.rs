//! Partitioning a set of candidate queries by their results.
//!
//! Section 2 of the paper: a modified database `D'` partitions the candidate
//! set `QC` into subsets `QC_1, …, QC_k` such that two queries fall in the
//! same subset iff they produce the same result on `D'`, and the results
//! `R_1, …, R_k` of the subsets are pairwise distinct.

use std::collections::BTreeMap;

use qfe_relation::{Database, Tuple};

use crate::error::Result;
use crate::eval::evaluate;
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
pub fn partition_queries(queries: &[SpjQuery], db: &Database) -> Result<QueryPartition> {
    let mut results = Vec::with_capacity(queries.len());
    for q in queries {
        results.push(evaluate(q, db)?);
    }
    Ok(partition_by_results(results))
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn group_accessors() {
        let g = QueryGroup {
            query_indices: vec![1, 2],
            result: QueryResult::empty(vec!["x".into()]),
        };
        assert_eq!(g.len(), 2);
        assert!(!g.is_empty());
    }
}
