//! Presentation of differences: `Δ(D, D')` and `Δ(R, R_i)`.
//!
//! The Result Feedback module does not show the user the entire modified
//! database and candidate results; it shows their *differences* from the
//! original pair `(D, R)` the user already knows (Section 2, Figure 1).

use std::fmt;

use qfe_query::QueryResult;
use qfe_relation::{Database, EditOp, Tuple};

/// The difference between the original database `D` and a modified `D'`:
/// the edits that produce `D'` (the engine takes them from the realized
/// modification, via [`crate::edits_to_ops`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DatabaseDelta {
    /// The edits.
    pub edits: Vec<EditOp>,
}

impl DatabaseDelta {
    /// Total edit cost of the delta under the paper's model.
    pub fn cost(&self, original: &Database) -> usize {
        self.edits
            .iter()
            .map(|e| {
                let arity = original.table(e.table()).map(|t| t.arity()).unwrap_or(1);
                e.cost(arity)
            })
            .sum()
    }

    /// Number of edits.
    pub fn len(&self) -> usize {
        self.edits.len()
    }

    /// True when the databases are identical.
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }
}

impl fmt::Display for DatabaseDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.edits.is_empty() {
            return writeln!(f, "(no database changes)");
        }
        for e in &self.edits {
            writeln!(f, "  {e}")?;
        }
        Ok(())
    }
}

/// The difference between the original result `R` and one candidate result
/// `R_i` on the modified database.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResultDelta {
    /// Rows of `R` that are absent from `R_i`.
    pub removed: Vec<Tuple>,
    /// Rows of `R_i` that are absent from `R`.
    pub added: Vec<Tuple>,
}

impl ResultDelta {
    /// Computes the delta between two results (multiset difference).
    pub fn between(original: &QueryResult, candidate: &QueryResult) -> Self {
        let (removed, added) = original.symmetric_difference(candidate);
        ResultDelta { removed, added }
    }

    /// The delta's edit cost: the minimum edit cost between the two results
    /// restricted to the changed rows.
    pub fn cost(&self, arity: usize) -> usize {
        qfe_relation::min_edit_rows(&self.removed, &self.added, arity)
    }

    /// True when the results are identical.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.added.is_empty()
    }
}

impl fmt::Display for ResultDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return writeln!(f, "  (same as the original result)");
        }
        for r in &self.removed {
            writeln!(f, "  - {r}")?;
        }
        for a in &self.added {
            writeln!(f, "  + {a}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfe_relation::{tuple, ColumnDef, DataType, Table, TableSchema, Value};

    fn db() -> Database {
        let t = Table::with_rows(
            TableSchema::new(
                "Employee",
                vec![
                    ColumnDef::new("Eid", DataType::Int),
                    ColumnDef::new("name", DataType::Text),
                    ColumnDef::new("salary", DataType::Int),
                ],
            )
            .unwrap()
            .with_primary_key(&["Eid"])
            .unwrap(),
            vec![tuple![1i64, "Alice", 3700i64], tuple![2i64, "Bob", 4200i64]],
        )
        .unwrap();
        let mut d = Database::new();
        d.add_table(t).unwrap();
        d
    }

    #[test]
    fn database_delta_reports_cell_modifications() {
        let original = db();
        let edit = crate::CellEdit {
            table: "Employee".into(),
            row: 1,
            column: "salary".into(),
            new_value: Value::Int(3900),
        };
        let delta = DatabaseDelta {
            edits: crate::edits_to_ops(&original, &[edit]).unwrap(),
        };
        assert_eq!(delta.len(), 1);
        assert!(!delta.is_empty());
        assert_eq!(delta.cost(&original), 1);
        let text = delta.to_string();
        assert!(text.contains("salary"));
        assert!(text.contains("4200"));
        assert!(text.contains("3900"));
    }

    #[test]
    fn identical_databases_have_empty_delta() {
        let original = db();
        let delta = DatabaseDelta::default();
        assert!(delta.is_empty());
        assert_eq!(delta.cost(&original), 0);
        assert!(delta.to_string().contains("no database changes"));
    }

    #[test]
    fn result_delta_reports_added_and_removed_rows() {
        let r = QueryResult::new(
            vec!["name".to_string()],
            vec![tuple!["Bob"], tuple!["Darren"]],
        );
        let r2 = QueryResult::new(vec!["name".to_string()], vec![tuple!["Darren"]]);
        let delta = ResultDelta::between(&r, &r2);
        assert_eq!(delta.removed, vec![tuple!["Bob"]]);
        assert!(delta.added.is_empty());
        assert_eq!(delta.cost(1), 1);
        assert!(delta.to_string().contains("- (Bob)"));

        let same = ResultDelta::between(&r, &r);
        assert!(same.is_empty());
        assert!(same.to_string().contains("same as the original"));
    }
}
