//! Inferring the projection list of candidate queries.
//!
//! The example result `R` determines the projection list `ℓ` (Section 5:
//! "since `R` determines the projection list ℓ").  When `R`'s column names
//! resolve against the candidate join those names are used directly; when
//! they do not (anonymous or renamed result columns), candidate projections
//! are inferred by value containment.
//!
//! Containment is tested without materializing any column: each result
//! column's distinct values are sorted once (by reference), and one pass
//! over the join's rows looks every join column's cell up among them,
//! dropping a join column as soon as its last value has turned up. Nothing
//! is cloned, and each result column costs at most one pass over the join.

use qfe_query::QueryResult;
use qfe_relation::{JoinedRelation, Value};

/// Maximum number of value-inferred projection combinations to explore.
const MAX_INFERRED_PROJECTIONS: usize = 16;

/// Returns candidate projection lists (as column references resolvable
/// against `join`) that could produce `result`.
///
/// Name-based matching is attempted first; when every result column resolves
/// against the join, that single projection is returned. Otherwise (and when
/// `by_values` is set) projections are inferred by matching each result
/// column's value set against join columns of a compatible type.
pub fn candidate_projections(
    join: &JoinedRelation,
    result: &QueryResult,
    by_values: bool,
) -> Vec<Vec<String>> {
    // 1. Name-based.
    let mut named = Vec::with_capacity(result.columns().len());
    let mut all_resolved = true;
    for col in result.columns() {
        if join.resolve_column(col).is_ok() {
            named.push(col.clone());
        } else {
            all_resolved = false;
            break;
        }
    }
    if all_resolved && !named.is_empty() {
        return vec![named];
    }
    if !by_values {
        return Vec::new();
    }

    // 2. Value-based: for each result column, the join columns whose active
    //    domain is a superset of the result column's values.
    let mut per_column_candidates: Vec<Vec<usize>> = Vec::new();
    for col_pos in 0..result.arity() {
        let mut needed: Vec<&Value> = result
            .rows()
            .iter()
            .filter_map(|r| r.get(col_pos))
            .collect();
        needed.sort();
        needed.dedup();
        let candidates = containing_columns(join, &needed);
        if candidates.is_empty() {
            return Vec::new();
        }
        per_column_candidates.push(candidates);
    }

    // 3. Cartesian product, bounded, rejecting duplicate columns within one
    //    projection.
    let mut projections: Vec<Vec<String>> = Vec::new();
    let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
    for candidates in &per_column_candidates {
        let mut next = Vec::new();
        for partial in &stack {
            for &c in candidates {
                if partial.contains(&c) {
                    continue;
                }
                let mut ext = partial.clone();
                ext.push(c);
                next.push(ext);
                if next.len() >= MAX_INFERRED_PROJECTIONS {
                    break;
                }
            }
            if next.len() >= MAX_INFERRED_PROJECTIONS {
                break;
            }
        }
        stack = next;
        if stack.is_empty() {
            return Vec::new();
        }
    }
    for combo in stack {
        projections.push(
            combo
                .into_iter()
                .map(|i| join.columns()[i].qualified_name())
                .collect(),
        );
    }
    projections
}

/// The join columns that hold every value of `needed` (sorted and
/// deduplicated), ascending. One pass over the join's rows tests every
/// column, and a column drops out of the pass as soon as its last missing
/// value turns up.
fn containing_columns(join: &JoinedRelation, needed: &[&Value]) -> Vec<usize> {
    if needed.is_empty() {
        return (0..join.arity()).collect();
    }
    // Per column: which of the values have turned up, and how many have not.
    let mut found = vec![false; join.arity() * needed.len()];
    let mut missing = vec![needed.len(); join.arity()];
    let mut open: Vec<usize> = (0..join.arity()).collect();
    for row in join.rows() {
        if open.is_empty() {
            break;
        }
        open.retain(|&col| {
            if let Some(Ok(i)) = row.tuple.get(col).map(|v| needed.binary_search(&v)) {
                let seen = &mut found[col * needed.len() + i];
                if !*seen {
                    *seen = true;
                    missing[col] -= 1;
                }
            }
            missing[col] > 0
        });
    }
    (0..join.arity()).filter(|&col| missing[col] == 0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfe_relation::{
        foreign_key_join, tuple, ColumnDef, DataType, Database, Table, TableSchema, Tuple,
    };

    fn employee_join() -> JoinedRelation {
        let employee = Table::with_rows(
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
                tuple![4i64, "Darren", "IT", 5000i64],
            ],
        )
        .unwrap();
        let mut db = Database::new();
        db.add_table(employee).unwrap();
        foreign_key_join(&db, &["Employee".to_string()]).unwrap()
    }

    #[test]
    fn name_based_projection_wins_when_resolvable() {
        let join = employee_join();
        let r = QueryResult::new(vec!["name".to_string()], vec![tuple!["Bob"]]);
        let projs = candidate_projections(&join, &r, true);
        assert_eq!(projs, vec![vec!["name".to_string()]]);
    }

    #[test]
    fn value_based_projection_finds_matching_columns() {
        let join = employee_join();
        let r = QueryResult::new(
            vec!["anonymous".to_string()],
            vec![tuple!["Bob"], tuple!["Darren"]],
        );
        let projs = candidate_projections(&join, &r, true);
        assert_eq!(projs, vec![vec!["Employee.name".to_string()]]);
    }

    #[test]
    fn value_based_respects_flag_and_absence() {
        let join = employee_join();
        let r = QueryResult::new(vec!["anonymous".to_string()], vec![tuple!["Bob"]]);
        assert!(candidate_projections(&join, &r, false).is_empty());
        let r = QueryResult::new(
            vec!["anonymous".to_string()],
            vec![Tuple::new(vec![Value::Text("Nobody".into())])],
        );
        assert!(candidate_projections(&join, &r, true).is_empty());
    }

    #[test]
    fn multi_column_value_inference_avoids_reusing_a_column() {
        let join = employee_join();
        // Two columns both containing the value "IT": dept is the only source,
        // so a two-column projection cannot reuse it and must pair it with a
        // different column — there is none containing "IT", so no projection.
        let r = QueryResult::new(
            vec!["c1".to_string(), "c2".to_string()],
            vec![tuple!["IT", "IT"]],
        );
        assert!(candidate_projections(&join, &r, true).is_empty());
        // A (name, dept) pair is inferable.
        let r = QueryResult::new(
            vec!["c1".to_string(), "c2".to_string()],
            vec![tuple!["Bob", "IT"]],
        );
        let projs = candidate_projections(&join, &r, true);
        assert!(projs.contains(&vec![
            "Employee.name".to_string(),
            "Employee.dept".to_string()
        ]));
    }

    #[test]
    fn numeric_result_columns_match_numeric_join_columns() {
        let join = employee_join();
        let r = QueryResult::new(
            vec!["x".to_string()],
            vec![tuple![4200i64], tuple![5000i64]],
        );
        let projs = candidate_projections(&join, &r, true);
        assert_eq!(projs, vec![vec!["Employee.salary".to_string()]]);
    }
}
