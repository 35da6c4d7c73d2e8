//! Tables: a schema plus an ordered bag of tuples.

use std::collections::HashSet;
use std::fmt;

use crate::error::{RelationError, Result};
use crate::schema::TableSchema;
use crate::tuple::Tuple;
use crate::value::Value;

/// A relational table: schema + rows.
///
/// Rows keep their insertion order, and the table is a *bag* — duplicate rows
/// are allowed unless a primary key is declared. Row indices are stable until
/// a row is deleted (deletion shifts subsequent indices), which is sufficient
/// for QFE because generated databases are only ever *modified* in place.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: TableSchema,
    rows: Vec<Tuple>,
}

impl Table {
    /// Creates an empty table with the given schema.
    pub fn new(schema: TableSchema) -> Self {
        Table {
            schema,
            rows: Vec::new(),
        }
    }

    /// Creates a table and bulk-inserts rows, validating each one.
    ///
    /// One pass: primary-key uniqueness is checked against a set of the keys
    /// seen so far, so rows fail in the same order, with the same first
    /// error, as inserting them one by one with [`Table::insert`].
    pub fn with_rows(schema: TableSchema, rows: Vec<Tuple>) -> Result<Self> {
        let mut t = Table::new(schema);
        t.rows.reserve(rows.len());
        let mut keys = HashSet::new();
        for r in rows {
            let tuple = t.validate(&r)?;
            if t.schema.has_primary_key() {
                let key = t.key_of(&tuple);
                if keys.contains(&key) {
                    return Err(RelationError::PrimaryKeyViolation {
                        table: t.name().to_string(),
                        key: format!("{:?}", key),
                    });
                }
                keys.insert(key);
            }
            t.rows.push(tuple);
        }
        Ok(t)
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// The table's name (shorthand for `schema().name()`).
    pub fn name(&self) -> &str {
        self.schema.name()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// All rows in insertion order.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// A single row by index.
    pub fn row(&self, idx: usize) -> Option<&Tuple> {
        self.rows.get(idx)
    }

    /// Iterator over `(row_index, row)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Tuple)> {
        self.rows.iter().enumerate()
    }

    /// Validates a tuple against the schema (arity, types, nullability) and
    /// coerces integer values stored in float columns.
    fn validate(&self, tuple: &Tuple) -> Result<Tuple> {
        if tuple.arity() != self.schema.arity() {
            return Err(RelationError::ArityMismatch {
                table: self.name().to_string(),
                expected: self.schema.arity(),
                actual: tuple.arity(),
            });
        }
        let mut values = Vec::with_capacity(tuple.arity());
        for (col, value) in self.schema.columns().iter().zip(tuple.values()) {
            if value.is_null() {
                if !col.nullable {
                    return Err(RelationError::NullViolation {
                        table: self.name().to_string(),
                        column: col.name.clone(),
                    });
                }
                values.push(Value::Null);
                continue;
            }
            match value.coerce_to(col.data_type) {
                Some(v) => values.push(v),
                None => {
                    return Err(RelationError::TypeMismatch {
                        table: self.name().to_string(),
                        column: col.name.clone(),
                        expected: col.data_type.to_string(),
                        actual: format!("{value:?}"),
                    })
                }
            }
        }
        Ok(Tuple::new(values))
    }

    /// Extracts the primary-key values of a tuple (empty if no key).
    pub fn key_of(&self, tuple: &Tuple) -> Vec<Value> {
        self.schema
            .primary_key()
            .iter()
            .map(|&i| tuple.get(i).cloned().unwrap_or(Value::Null))
            .collect()
    }

    /// Inserts a row, enforcing schema validity and primary-key uniqueness.
    /// Returns the new row's index.
    pub fn insert(&mut self, tuple: Tuple) -> Result<usize> {
        let tuple = self.validate(&tuple)?;
        if self.schema.has_primary_key() {
            let key = self.key_of(&tuple);
            if self.rows.iter().any(|r| self.key_of(r) == key) {
                return Err(RelationError::PrimaryKeyViolation {
                    table: self.name().to_string(),
                    key: format!("{:?}", key),
                });
            }
        }
        self.rows.push(tuple);
        Ok(self.rows.len() - 1)
    }

    /// Updates a single cell. Returns the previous value.
    pub fn update_cell(&mut self, row: usize, column: &str, value: Value) -> Result<Value> {
        let col_idx =
            self.schema
                .column_index(column)
                .ok_or_else(|| RelationError::UnknownColumn {
                    table: self.name().to_string(),
                    column: column.to_string(),
                })?;
        self.update_cell_at(row, col_idx, value)
    }

    /// Updates a single cell by column index. Returns the previous value.
    pub fn update_cell_at(&mut self, row: usize, col_idx: usize, value: Value) -> Result<Value> {
        let col = self
            .schema
            .column_at(col_idx)
            .ok_or_else(|| RelationError::UnknownColumn {
                table: self.name().to_string(),
                column: format!("#{col_idx}"),
            })?
            .clone();
        if row >= self.rows.len() {
            return Err(RelationError::RowOutOfBounds {
                table: self.name().to_string(),
                row,
            });
        }
        let value = if value.is_null() {
            if !col.nullable {
                return Err(RelationError::NullViolation {
                    table: self.name().to_string(),
                    column: col.name.clone(),
                });
            }
            Value::Null
        } else {
            value
                .coerce_to(col.data_type)
                .ok_or_else(|| RelationError::TypeMismatch {
                    table: self.name().to_string(),
                    column: col.name.clone(),
                    expected: col.data_type.to_string(),
                    actual: format!("{value:?}"),
                })?
        };
        // Primary-key uniqueness if the modified column is part of the key.
        if self.schema.primary_key().contains(&col_idx) {
            let mut candidate = self.rows[row].clone();
            candidate.set(col_idx, value.clone());
            let key = self.key_of(&candidate);
            if self
                .rows
                .iter()
                .enumerate()
                .any(|(i, r)| i != row && self.key_of(r) == key)
            {
                return Err(RelationError::PrimaryKeyViolation {
                    table: self.name().to_string(),
                    key: format!("{:?}", key),
                });
            }
        }
        Ok(self.rows[row].set(col_idx, value).expect("checked bounds"))
    }

    /// Deletes a row, returning it. Subsequent row indices shift down by one.
    pub fn delete_row(&mut self, idx: usize) -> Result<Tuple> {
        if idx >= self.rows.len() {
            return Err(RelationError::RowOutOfBounds {
                table: self.name().to_string(),
                row: idx,
            });
        }
        Ok(self.rows.remove(idx))
    }

    /// Values of one column, in row order.
    pub fn column_values(&self, column: &str) -> Result<Vec<Value>> {
        let idx = self
            .schema
            .column_index(column)
            .ok_or_else(|| RelationError::UnknownColumn {
                table: self.name().to_string(),
                column: column.to_string(),
            })?;
        Ok(self
            .rows
            .iter()
            .map(|r| r.get(idx).cloned().unwrap_or(Value::Null))
            .collect())
    }

    /// Distinct values of one column (the column's *active domain*).
    pub fn active_domain(&self, column: &str) -> Result<Vec<Value>> {
        let mut vals = self.column_values(column)?;
        vals.sort();
        vals.dedup();
        Ok(vals)
    }

    /// Bag (multiset) equality of two tables' rows, ignoring row order and
    /// column names but requiring equal arity.
    pub fn bag_equal(&self, other: &Table) -> bool {
        bag_equal_rows(&self.rows, &other.rows)
    }

    /// Projects the whole table onto the given column names, producing a new
    /// table named `name`.
    pub fn project(&self, name: &str, columns: &[&str]) -> Result<Table> {
        use crate::schema::ColumnDef;
        let mut idxs = Vec::with_capacity(columns.len());
        let mut defs = Vec::with_capacity(columns.len());
        for c in columns {
            let i = self
                .schema
                .column_index(c)
                .ok_or_else(|| RelationError::UnknownColumn {
                    table: self.name().to_string(),
                    column: c.to_string(),
                })?;
            idxs.push(i);
            let src = &self.schema.columns()[i];
            defs.push(ColumnDef {
                name: src.name.clone(),
                data_type: src.data_type,
                nullable: src.nullable,
            });
        }
        let schema = TableSchema::new(name, defs)?;
        let rows = self.rows.iter().map(|r| r.project(&idxs)).collect();
        // Projection can introduce duplicates; bypass PK checks (none declared).
        Ok(Table { schema, rows })
    }
}

/// Bag equality of two row collections.
///
/// Sort-based multiset comparison: both sides are sorted as row *references*
/// (tuple comparison short-circuits at the first differing column) and
/// compared pairwise — no per-row clones, no full-tuple hashing. The tuple
/// order is total and consistent with equality (including the cross-type
/// `Int(3) == Float(3.0)` numeric equality), so sorted-equal ⇔ bag-equal.
pub fn bag_equal_rows(a: &[Tuple], b: &[Tuple]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    match a.len() {
        0 => true,
        1 => a[0] == b[0],
        _ => {
            let mut ra: Vec<&Tuple> = a.iter().collect();
            let mut rb: Vec<&Tuple> = b.iter().collect();
            ra.sort_unstable();
            rb.sort_unstable();
            ra == rb
        }
    }
}

/// The sorted multiset of `rows` as `(row, multiplicity)` runs, without
/// cloning any tuple.
pub fn sorted_row_multiset(rows: &[Tuple]) -> Vec<(&Tuple, usize)> {
    let mut refs: Vec<&Tuple> = rows.iter().collect();
    refs.sort_unstable();
    let mut out: Vec<(&Tuple, usize)> = Vec::new();
    for r in refs {
        match out.last_mut() {
            Some((prev, count)) if *prev == r => *count += 1,
            _ => out.push((r, 1)),
        }
    }
    out
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for r in &self.rows {
            writeln!(f, "  {r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::tuple;
    use crate::types::DataType;

    fn employee_table() -> Table {
        let schema = TableSchema::new(
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
        .unwrap();
        Table::with_rows(
            schema,
            vec![
                tuple![1i64, "Alice", "F", "Sales", 3700i64],
                tuple![2i64, "Bob", "M", "IT", 4200i64],
                tuple![3i64, "Celina", "F", "Service", 3000i64],
                tuple![4i64, "Darren", "M", "IT", 5000i64],
            ],
        )
        .unwrap()
    }

    #[test]
    fn insert_and_len() {
        let t = employee_table();
        assert_eq!(t.len(), 4);
        assert_eq!(t.arity(), 5);
        assert!(!t.is_empty());
        assert_eq!(t.row(1).unwrap().get(1), Some(&Value::Text("Bob".into())));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = employee_table();
        let err = t.insert(tuple![5i64, "Eve"]).unwrap_err();
        assert!(matches!(err, RelationError::ArityMismatch { .. }));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut t = employee_table();
        let err = t
            .insert(tuple!["five", "Eve", "F", "IT", 1000i64])
            .unwrap_err();
        assert!(matches!(err, RelationError::TypeMismatch { .. }));
    }

    #[test]
    fn null_violation_rejected() {
        let mut t = employee_table();
        let err = t
            .insert(Tuple::new(vec![
                Value::Int(9),
                Value::Null,
                Value::Text("F".into()),
                Value::Text("IT".into()),
                Value::Int(100),
            ]))
            .unwrap_err();
        assert!(matches!(err, RelationError::NullViolation { .. }));
    }

    #[test]
    fn primary_key_uniqueness_enforced() {
        let mut t = employee_table();
        let err = t
            .insert(tuple![1i64, "Clone", "F", "IT", 1i64])
            .unwrap_err();
        assert!(matches!(err, RelationError::PrimaryKeyViolation { .. }));
    }

    #[test]
    fn update_cell_and_row() {
        let mut t = employee_table();
        let prev = t.update_cell(1, "salary", Value::Int(3900)).unwrap();
        assert_eq!(prev, Value::Int(4200));
        assert_eq!(t.row(1).unwrap().get(4), Some(&Value::Int(3900)));
    }

    #[test]
    fn update_cell_pk_collision_rejected() {
        let mut t = employee_table();
        let err = t.update_cell(1, "Eid", Value::Int(1)).unwrap_err();
        assert!(matches!(err, RelationError::PrimaryKeyViolation { .. }));
    }

    #[test]
    fn update_cell_unknown_column() {
        let mut t = employee_table();
        let err = t.update_cell(0, "bonus", Value::Int(1)).unwrap_err();
        assert!(matches!(err, RelationError::UnknownColumn { .. }));
    }

    #[test]
    fn update_out_of_bounds() {
        let mut t = employee_table();
        let err = t.update_cell(99, "salary", Value::Int(1)).unwrap_err();
        assert!(matches!(err, RelationError::RowOutOfBounds { .. }));
    }

    #[test]
    fn delete_row_shifts_indices() {
        let mut t = employee_table();
        let removed = t.delete_row(0).unwrap();
        assert_eq!(removed.get(1), Some(&Value::Text("Alice".into())));
        assert_eq!(t.len(), 3);
        assert_eq!(t.row(0).unwrap().get(1), Some(&Value::Text("Bob".into())));
        assert!(t.delete_row(10).is_err());
    }

    #[test]
    fn int_coerced_into_float_column() {
        let schema = TableSchema::new(
            "M",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("x", DataType::Float),
            ],
        )
        .unwrap();
        let mut t = Table::new(schema);
        t.insert(tuple![1i64, 3i64]).unwrap();
        assert_eq!(t.row(0).unwrap().get(1), Some(&Value::Float(3.0)));
    }

    #[test]
    fn column_values_and_active_domain() {
        let t = employee_table();
        assert_eq!(t.column_values("dept").unwrap().len(), 4);
        let dom = t.active_domain("dept").unwrap();
        assert_eq!(
            dom,
            vec![
                Value::Text("IT".into()),
                Value::Text("Sales".into()),
                Value::Text("Service".into())
            ]
        );
        assert!(t.active_domain("missing").is_err());
    }

    #[test]
    fn projection_and_bag_equality() {
        let t = employee_table();
        let p = t.project("R", &["name"]).unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p.arity(), 1);
        let q = t.project("R2", &["name"]).unwrap();
        assert!(p.bag_equal(&q));
        assert!(!p.bag_equal(&t.project("R3", &["dept"]).unwrap()));
        assert!(t.project("bad", &["nope"]).is_err());
    }

    #[test]
    fn bag_equality_is_order_insensitive_and_multiplicity_sensitive() {
        let a = vec![tuple![1i64], tuple![2i64], tuple![1i64]];
        let b = vec![tuple![2i64], tuple![1i64], tuple![1i64]];
        let c = vec![tuple![2i64], tuple![2i64], tuple![1i64]];
        assert!(bag_equal_rows(&a, &b));
        assert!(!bag_equal_rows(&a, &c));
        assert!(!bag_equal_rows(&a, &a[..2]));
    }

    #[test]
    fn row_counts_multiset() {
        let t = employee_table();
        let p = t.project("R", &["gender"]).unwrap();
        let counts = sorted_row_multiset(p.rows());
        assert_eq!(counts.len(), 2);
        let count_of = |v: &Tuple| counts.iter().find(|(r, _)| *r == v).map(|(_, c)| *c);
        assert_eq!(count_of(&tuple!["M"]), Some(2));
        assert_eq!(count_of(&tuple!["F"]), Some(2));
        // Runs come out in sorted order.
        assert!(counts.windows(2).all(|w| w[0].0 < w[1].0));
    }

    /// `with_rows` as it was before the key set: one `insert` per row, each
    /// scanning every earlier row. The oracle for the property test below.
    fn insert_loop(schema: TableSchema, rows: Vec<Tuple>) -> Result<Table> {
        let mut t = Table::new(schema);
        for r in rows {
            t.insert(r)?;
        }
        Ok(t)
    }

    /// Schemas covering a single key, a composite key over a nullable text
    /// and a float column (so Int keys are coerced), and no key at all.
    fn property_schemas() -> Vec<TableSchema> {
        let cols = || {
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::nullable("tag", DataType::Text),
                ColumnDef::new("x", DataType::Float),
            ]
        };
        vec![
            TableSchema::new("Single", cols())
                .unwrap()
                .with_primary_key(&["id"])
                .unwrap(),
            TableSchema::new("Composite", cols())
                .unwrap()
                .with_primary_key(&["tag", "x"])
                .unwrap(),
            TableSchema::new("Bag", cols()).unwrap(),
        ]
    }

    /// A random cell for column `col` from a small domain (so keys repeat),
    /// now and then NULL or of the wrong type.
    fn random_cell(rng: &mut rand::rngs::StdRng, col: usize) -> Value {
        use rand::Rng;
        match rng.gen_range(0..40) {
            0 => return Value::Null,
            1 => return Value::Bool(true),
            _ => {}
        }
        match col {
            0 => Value::Int(rng.gen_range(0..30)),
            1 if rng.gen_bool(0.2) => Value::Null,
            1 => Value::Text(["a", "b", "é"][rng.gen_range(0..3usize)].to_string()),
            // Int and Float spellings of the same numbers.
            _ if rng.gen_bool(0.5) => Value::Int(rng.gen_range(0..4)),
            _ => Value::Float(rng.gen_range(0..4) as f64),
        }
    }

    #[test]
    fn with_rows_matches_the_insert_loop() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let (mut ok, mut key_violations) = (0, 0);
        for trial in 0..3_000 {
            let schema = property_schemas().swap_remove(trial % 3);
            let rows: Vec<Tuple> = (0..rng.gen_range(0..25))
                .map(|_| {
                    let arity = if rng.gen_range(0..60) == 0 { 2 } else { 3 };
                    Tuple::new((0..arity).map(|c| random_cell(&mut rng, c)).collect())
                })
                .collect();
            let got = Table::with_rows(schema.clone(), rows.clone());
            let want = insert_loop(schema, rows.clone());
            assert_eq!(got, want, "rows {rows:?}");
            match want {
                Ok(_) => ok += 1,
                Err(RelationError::PrimaryKeyViolation { .. }) => key_violations += 1,
                Err(_) => {}
            }
        }
        // The generator reaches both outcomes often enough to mean something.
        assert!(
            ok > 300 && key_violations > 300,
            "{ok} ok, {key_violations} key violations"
        );
    }

    /// Complexity guard: checking each row's key against every earlier row
    /// takes ~1.25e9 key comparisons here; the key set takes 50k lookups.
    /// No timing assert — the test harness's own timeout is the failure.
    #[test]
    fn fifty_thousand_keyed_rows_build_in_linear_time() {
        let schema = property_schemas().swap_remove(0);
        let rows: Vec<Tuple> = (0..50_000i64).map(|i| tuple![i, "a", i % 7]).collect();
        let t = Table::with_rows(schema.clone(), rows.clone()).unwrap();
        assert_eq!(t.len(), 50_000);
        assert_eq!(t.row(9).unwrap().get(2), Some(&Value::Float(2.0)));
        // A duplicate at the very end is still found, naming the key.
        let mut dup = rows;
        dup.push(tuple![49_999i64, "b", 0i64]);
        let err = Table::with_rows(schema, dup).unwrap_err();
        assert_eq!(
            err,
            RelationError::PrimaryKeyViolation {
                table: "Single".into(),
                key: "[Int(49999)]".into(),
            }
        );
    }

    #[test]
    fn display_contains_rows() {
        let t = employee_table();
        let s = t.to_string();
        assert!(s.contains("Alice"));
        assert!(s.contains("Employee("));
    }
}
