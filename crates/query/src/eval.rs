//! Query evaluation against databases and precomputed joins.

use qfe_relation::{foreign_key_join, Bitmap, Database, JoinedRelation};

use crate::error::{QueryError, Result};
use crate::predicate::Term;
use crate::result::QueryResult;
use crate::spj::SpjQuery;
use crate::vectorized::TermBitmapCache;

/// A query whose column references have been resolved against a specific
/// joined relation.
///
/// QFE evaluates *many* candidate queries against the *same* join (all
/// candidates in a group share a join schema), so resolution — mapping
/// attribute names to column positions — is done once per query and reused
/// for every row and every modified database that preserves the join's shape.
#[derive(Debug, Clone)]
pub struct BoundQuery {
    projection_idx: Vec<usize>,
    projection_names: Vec<String>,
    /// The predicate in DNF with each term bound to its join column: the
    /// outer list is OR (empty ⇒ TRUE), each inner list is AND.
    conjuncts: Vec<Vec<(usize, Term)>>,
    distinct: bool,
}

impl BoundQuery {
    /// Resolves `query` against `join`.
    pub fn bind(query: &SpjQuery, join: &JoinedRelation) -> Result<Self> {
        let resolve = |column: &str| {
            join.resolve_column(column)
                .map_err(|_| QueryError::UnknownColumn {
                    column: column.to_string(),
                })
        };
        let projection_idx = query
            .projection
            .iter()
            .map(|col| resolve(col))
            .collect::<Result<Vec<_>>>()?;
        let conjuncts = query
            .predicate
            .conjuncts()
            .iter()
            .map(|conjunct| {
                conjunct
                    .terms()
                    .iter()
                    .map(|term| Ok((resolve(term.attribute())?, term.clone())))
                    .collect::<Result<Vec<_>>>()
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(BoundQuery {
            projection_idx,
            projection_names: query.projection.clone(),
            conjuncts,
            distinct: query.distinct,
        })
    }

    /// Positions of the projected columns in the join.
    pub fn projection_indices(&self) -> &[usize] {
        &self.projection_idx
    }

    /// Whether the predicate holds for a single joined row. A term whose
    /// column lies past the end of `row` reads NULL, so it fails.
    pub fn matches_row(&self, row: &qfe_relation::Tuple) -> bool {
        self.conjuncts.is_empty()
            || self.conjuncts.iter().any(|terms| {
                terms
                    .iter()
                    .all(|(col, term)| row.get(*col).is_some_and(|v| term.eval(v)))
            })
    }

    /// Evaluates the bound query over the given join.
    pub fn evaluate(&self, join: &JoinedRelation) -> QueryResult {
        let mut rows = Vec::new();
        for jr in join.rows() {
            if self.matches_row(&jr.tuple) {
                rows.push(jr.tuple.project(&self.projection_idx));
            }
        }
        let result = QueryResult::new(self.projection_names.clone(), rows);
        if self.distinct {
            result.deduplicated()
        } else {
            result
        }
    }

    /// The query's selection bitmap over the join `cache` holds: bit `r`
    /// is set iff the predicate holds for row `r` (exactly
    /// [`Self::matches_row`], but assembled by AND/OR over the cache's
    /// per-term bitmaps).
    pub fn selection_bitmap(&self, cache: &mut TermBitmapCache) -> Bitmap {
        let rows = cache.join().len();
        if self.conjuncts.is_empty() {
            return Bitmap::all_set(rows);
        }
        let mut acc = Bitmap::new(rows);
        for terms in &self.conjuncts {
            let mut selected = Bitmap::all_set(rows);
            for (col, term) in terms {
                selected.and_assign(cache.term_bitmap(*col, term));
                if selected.is_zero() {
                    break;
                }
            }
            acc.or_assign(&selected);
        }
        acc
    }

    /// Materializes the query's result from a precomputed selection bitmap
    /// over `join` (projection + `DISTINCT` dedup). With the bitmap of
    /// [`Self::selection_bitmap`] the result equals [`Self::evaluate`]'s;
    /// batched verification in `qfe-qbo` runs this pair.
    pub fn materialize_selection(&self, join: &JoinedRelation, bitmap: &Bitmap) -> QueryResult {
        let rows = bitmap
            .iter_ones()
            .map(|r| join.rows()[r].tuple.project(&self.projection_idx))
            .collect();
        let result = QueryResult::new(self.projection_names.clone(), rows);
        if self.distinct {
            result.deduplicated()
        } else {
            result
        }
    }

    /// Whether the query uses set semantics (`SELECT DISTINCT`).
    pub fn is_distinct(&self) -> bool {
        self.distinct
    }
}

/// The foreign-key join of `query`'s tables over `db`.
pub(crate) fn join_of(query: &SpjQuery, db: &Database) -> Result<JoinedRelation> {
    if query.tables.is_empty() {
        return Err(QueryError::NoTables);
    }
    Ok(foreign_key_join(db, &query.tables)?)
}

/// Evaluates a query against a database by first computing the foreign-key
/// join of the query's tables.
pub fn evaluate(query: &SpjQuery, db: &Database) -> Result<QueryResult> {
    let join = join_of(query, db)?;
    Ok(BoundQuery::bind(query, &join)?.evaluate(&join))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{ComparisonOp, Conjunct, DnfPredicate, Term};
    use qfe_relation::{tuple, ColumnDef, DataType, ForeignKey, Table, TableSchema, Tuple, Value};

    /// The Employee database of the paper's Example 1.1.
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

    fn q(pred: DnfPredicate) -> SpjQuery {
        SpjQuery::new(vec!["Employee"], vec!["name"], pred)
    }

    #[test]
    fn example_1_1_candidates_agree_on_original_database() {
        let db = employee_db();
        let q1 = q(DnfPredicate::single(Term::eq("gender", "M")));
        let q2 = q(DnfPredicate::single(Term::compare(
            "salary",
            ComparisonOp::Gt,
            4000i64,
        )));
        let q3 = q(DnfPredicate::single(Term::eq("dept", "IT")));
        let r1 = evaluate(&q1, &db).unwrap();
        let r2 = evaluate(&q2, &db).unwrap();
        let r3 = evaluate(&q3, &db).unwrap();
        assert!(r1.bag_equal(&r2));
        assert!(r2.bag_equal(&r3));
        assert_eq!(r1.len(), 2);
        let mut names: Vec<String> = r1
            .rows()
            .iter()
            .map(|t| t.get(0).unwrap().as_str().unwrap().to_string())
            .collect();
        names.sort();
        assert_eq!(names, vec!["Bob", "Darren"]);
    }

    #[test]
    fn example_1_1_modified_database_d1_distinguishes_q2() {
        // D1: Bob's salary lowered from 4200 to 3900.
        let mut db = employee_db();
        db.table_mut("Employee")
            .unwrap()
            .update_cell(1, "salary", Value::Int(3900))
            .unwrap();
        let q1 = q(DnfPredicate::single(Term::eq("gender", "M")));
        let q2 = q(DnfPredicate::single(Term::compare(
            "salary",
            ComparisonOp::Gt,
            4000i64,
        )));
        let q3 = q(DnfPredicate::single(Term::eq("dept", "IT")));
        let r1 = evaluate(&q1, &db).unwrap();
        let r2 = evaluate(&q2, &db).unwrap();
        let r3 = evaluate(&q3, &db).unwrap();
        assert!(r1.bag_equal(&r3), "Q1 and Q3 still agree on D1");
        assert!(!r1.bag_equal(&r2), "Q2 is distinguished on D1");
        assert_eq!(r2.len(), 1, "only Darren earns more than 4000 in D1");
    }

    #[test]
    fn distinct_deduplicates() {
        let db = employee_db();
        let dup = SpjQuery::new(
            vec!["Employee"],
            vec!["gender"],
            DnfPredicate::always_true(),
        );
        let bag = evaluate(&dup, &db).unwrap();
        assert_eq!(bag.len(), 4);
        let set = evaluate(&dup.clone().with_distinct(true), &db).unwrap();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn unknown_column_reported() {
        let db = employee_db();
        let bad = SpjQuery::new(vec!["Employee"], vec!["wage"], DnfPredicate::always_true());
        assert!(matches!(
            evaluate(&bad, &db).unwrap_err(),
            QueryError::UnknownColumn { .. }
        ));
        let bad = q(DnfPredicate::single(Term::eq("wage", 1i64)));
        assert!(matches!(
            evaluate(&bad, &db).unwrap_err(),
            QueryError::UnknownColumn { .. }
        ));
    }

    #[test]
    fn no_tables_is_an_error() {
        let db = employee_db();
        let bad = SpjQuery::new(Vec::<String>::new(), vec!["x"], DnfPredicate::always_true());
        assert!(matches!(
            evaluate(&bad, &db).unwrap_err(),
            QueryError::NoTables
        ));
    }

    #[test]
    fn evaluation_over_foreign_key_join() {
        // Two-table database: Dept(did, dname), Emp(eid, did, salary).
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
                    ColumnDef::new("salary", DataType::Int),
                ],
            )
            .unwrap()
            .with_primary_key(&["eid"])
            .unwrap(),
            vec![
                tuple![1i64, 1i64, 100i64],
                tuple![2i64, 1i64, 200i64],
                tuple![3i64, 2i64, 300i64],
            ],
        )
        .unwrap();
        let mut db = Database::new();
        db.add_table(dept).unwrap();
        db.add_table(emp).unwrap();
        db.add_foreign_key(ForeignKey::new("Emp", "did", "Dept", "did"))
            .unwrap();

        let query = SpjQuery::new(
            vec!["Dept", "Emp"],
            vec!["Emp.eid"],
            DnfPredicate::single(Term::eq("dname", "IT")),
        );
        let r = evaluate(&query, &db).unwrap();
        assert_eq!(r.len(), 2);

        // Same evaluation through a precomputed join + BoundQuery.
        let join = foreign_key_join(&db, &query.tables).unwrap();
        let bound = BoundQuery::bind(&query, &join).unwrap();
        assert_eq!(bound.projection_indices().len(), 1);
        let r2 = bound.evaluate(&join);
        assert!(r.bag_equal(&r2));
    }

    #[test]
    fn bound_query_matches_row_agrees_with_evaluation() {
        let db = employee_db();
        let join = foreign_key_join(&db, &["Employee".to_string()]).unwrap();
        let query = q(DnfPredicate::single(Term::eq("dept", "IT")));
        let bound = BoundQuery::bind(&query, &join).unwrap();
        let matching: Vec<bool> = join
            .rows()
            .iter()
            .map(|jr| bound.matches_row(&jr.tuple))
            .collect();
        assert_eq!(matching, vec![false, true, false, true]);
        assert_eq!(bound.evaluate(&join).len(), 2);
    }

    /// An Employee join row with the given `gender` and `salary`.
    fn employee_row(join: &JoinedRelation, gender: Value, salary: Value) -> Tuple {
        let mut row = join.rows()[0].tuple.clone();
        row.values_mut()[join.resolve_column("gender").unwrap()] = gender;
        row.values_mut()[join.resolve_column("salary").unwrap()] = salary;
        row
    }

    fn bind_employee(pred: DnfPredicate) -> (BoundQuery, JoinedRelation) {
        let join = foreign_key_join(&employee_db(), &["Employee".to_string()]).unwrap();
        (BoundQuery::bind(&q(pred), &join).unwrap(), join)
    }

    #[test]
    fn conjunct_eval_all_terms_must_hold() {
        let (bound, join) = bind_employee(DnfPredicate::conjunction(vec![
            Term::eq("gender", "M"),
            Term::compare("salary", ComparisonOp::Gt, 4000i64),
        ]));
        let male = || Value::Text("M".into());
        assert!(bound.matches_row(&employee_row(&join, male(), Value::Int(5000))));
        assert!(!bound.matches_row(&employee_row(&join, male(), Value::Int(3000))));
        assert!(!bound.matches_row(&employee_row(&join, male(), Value::Null)));
    }

    #[test]
    fn dnf_eval_any_disjunct_suffices() {
        // gender = 'M' OR salary > 4000 (queries Q1/Q2/Q3 of Example 1.1 are
        // single-conjunct instances of this structure)
        let (bound, join) = bind_employee(DnfPredicate::new(vec![
            Conjunct::new(vec![Term::eq("gender", "M")]),
            Conjunct::new(vec![Term::compare("salary", ComparisonOp::Gt, 4000i64)]),
        ]));
        let female = || Value::Text("F".into());
        assert!(bound.matches_row(&employee_row(&join, female(), Value::Int(4100))));
        assert!(!bound.matches_row(&employee_row(&join, female(), Value::Int(100))));
        assert!(!bound.matches_row(&employee_row(&join, Value::Null, Value::Null)));
    }

    #[test]
    fn empty_predicate_and_empty_conjunct_are_true() {
        for pred in [
            DnfPredicate::always_true(),
            DnfPredicate::new(vec![Conjunct::default()]),
            DnfPredicate::new(vec![
                Conjunct::new(vec![Term::eq("gender", "M")]),
                Conjunct::default(),
            ]),
        ] {
            let (bound, join) = bind_employee(pred);
            assert!(bound.matches_row(&employee_row(&join, Value::Null, Value::Null)));
            assert_eq!(bound.evaluate(&join).len(), 4);
        }
    }
}
