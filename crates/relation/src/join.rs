//! Foreign-key joins with provenance.
//!
//! QFE reduces all candidate queries to selections over a single *joined
//! relation* `T`, the foreign-key join of a subset of the database's tables
//! (Section 5 of the paper).  Because the database generator must translate a
//! modification of a joined tuple back into a modification of a *base-table*
//! tuple — and account for the side effects that base modification has on
//! other joined tuples (Section 5.4.1) — the join keeps provenance: for each
//! participating table (by its position in [`JoinedRelation::tables`]) one
//! vector holding, per joined row, the index of the base row it came from.

use std::collections::BTreeMap;
use std::fmt;

use crate::database::Database;
use crate::error::{RelationError, Result};
use crate::foreign_key::ForeignKey;
use crate::table::Table;
use crate::tuple::Tuple;
use crate::types::DataType;
use crate::value::Value;

/// A column of a joined relation: which base table and column it came from.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JoinedColumn {
    /// Base table name.
    pub table: String,
    /// Column name within the base table.
    pub column: String,
    /// Column type.
    pub data_type: DataType,
}

impl JoinedColumn {
    /// Fully qualified name, `Table.column`.
    pub fn qualified_name(&self) -> String {
        format!("{}.{}", self.table, self.column)
    }
}

/// One row of a joined relation.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinedRow {
    /// The joined values, in [`JoinedRelation::columns`] order.
    pub tuple: Tuple,
}

/// The foreign-key join of a set of tables.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinedRelation {
    /// Participating table names, in join order.
    tables: Vec<String>,
    /// Joined columns, concatenated in table order.
    columns: Vec<JoinedColumn>,
    /// Joined rows.
    rows: Vec<JoinedRow>,
    /// Per participating table (in `tables` order), the base-row index of
    /// every joined row.
    provenance: Vec<Vec<usize>>,
}

impl JoinedRelation {
    /// Participating base tables, in join order.
    pub fn tables(&self) -> &[String] {
        &self.tables
    }

    /// The position of `table` in [`Self::tables`], if it participates.
    pub fn table_position(&self, table: &str) -> Option<usize> {
        self.tables.iter().position(|t| t == table)
    }

    /// The provenance of the table at `position` in [`Self::tables`]: entry
    /// `r` is the index of the base row joined row `r` came from.
    ///
    /// # Panics
    /// If `position` is not a participating table's position.
    pub fn provenance(&self, position: usize) -> &[usize] {
        &self.provenance[position]
    }

    /// The joined columns.
    pub fn columns(&self) -> &[JoinedColumn] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The joined rows.
    pub fn rows(&self) -> &[JoinedRow] {
        &self.rows
    }

    /// Number of joined rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the join is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Resolves a column reference to its position.
    ///
    /// Accepts a fully qualified `Table.column` name, or a bare column name
    /// when it is unambiguous across the participating tables. Returns an
    /// error for unknown or ambiguous names.
    pub fn resolve_column(&self, name: &str) -> Result<usize> {
        if let Some((table, column)) = name.split_once('.') {
            return self
                .columns
                .iter()
                .position(|c| c.table == table && c.column == column)
                .ok_or_else(|| RelationError::UnknownColumn {
                    table: table.to_string(),
                    column: column.to_string(),
                });
        }
        let matches: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.column == name)
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            1 => Ok(matches[0]),
            0 => Err(RelationError::UnknownColumn {
                table: "<join>".to_string(),
                column: name.to_string(),
            }),
            _ => Err(RelationError::InvalidEdit {
                reason: format!("ambiguous column reference '{name}' in join"),
            }),
        }
    }

    /// Column metadata by position.
    pub fn column_at(&self, idx: usize) -> Option<&JoinedColumn> {
        self.columns.get(idx)
    }

    /// Distinct values appearing in a joined column (its active domain).
    ///
    /// Sorted by [`Value`]'s total order (NULL first, NaN last among floats),
    /// one value per equality class. The sort is stable, so among values
    /// that compare equal without being identical (`-0.0` and `+0.0`) the
    /// one in the earliest row survives.
    pub fn active_domain(&self, col_idx: usize) -> Vec<Value> {
        // Sort references, so only the surviving values are cloned.
        let mut vals: Vec<&Value> = self
            .rows
            .iter()
            .filter_map(|r| r.tuple.get(col_idx))
            .collect();
        vals.sort();
        vals.dedup();
        vals.into_iter().cloned().collect()
    }
}

impl fmt::Display for JoinedRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Join[{}](", self.tables.join(" ⋈ "))?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", c.qualified_name())?;
        }
        writeln!(f, ") — {} rows", self.rows.len())
    }
}

/// Computes the foreign-key join of `table_names` in `db`.
///
/// The tables must form a connected subgraph of the database's foreign-key
/// graph; the join is performed pairwise along the declared constraints,
/// equating child columns with their referenced parent columns (an inner
/// equi-join — dangling child rows are dropped, matching the paper's joined
/// relation whose cardinality can be smaller than the child table's).
pub fn foreign_key_join(db: &Database, table_names: &[String]) -> Result<JoinedRelation> {
    if table_names.is_empty() {
        return Err(RelationError::InvalidEdit {
            reason: "cannot join an empty set of tables".to_string(),
        });
    }
    // Verify tables exist and are distinct.
    for (i, t) in table_names.iter().enumerate() {
        db.table(t)?;
        if table_names[..i].contains(t) {
            return Err(RelationError::DuplicateTable { table: t.clone() });
        }
    }

    // Start from the first table.
    let first = db.table(&table_names[0])?;
    let mut joined = seed_relation(first);
    let mut joined_tables = vec![table_names[0].clone()];
    let mut remaining: Vec<String> = table_names[1..].to_vec();

    // Repeatedly attach any remaining table connected to the current join by
    // a foreign key.
    while !remaining.is_empty() {
        let mut attached = None;
        'outer: for (pos, cand) in remaining.iter().enumerate() {
            for already in &joined_tables {
                let fks = db.foreign_keys_between(already, cand);
                if let Some(fk) = fks.first() {
                    attached = Some((pos, cand.clone(), (*fk).clone()));
                    break 'outer;
                }
            }
        }
        let (pos, table_name, fk) = attached.ok_or_else(|| RelationError::InvalidForeignKey {
            reason: format!(
                "tables {:?} are not connected to {:?} by any foreign key",
                remaining, joined_tables
            ),
        })?;
        let new_table = db.table(&table_name)?;
        joined = attach_table(&joined, new_table, &fk)?;
        joined_tables.push(table_name);
        remaining.remove(pos);
    }

    Ok(joined)
}

/// Computes the foreign-key join of *all* tables in the database.
pub fn full_foreign_key_join(db: &Database) -> Result<JoinedRelation> {
    let names: Vec<String> = db.table_names().iter().map(|s| s.to_string()).collect();
    foreign_key_join(db, &names)
}

/// Wraps a single table as a (trivial) joined relation.
fn seed_relation(table: &Table) -> JoinedRelation {
    let columns: Vec<JoinedColumn> = table
        .schema()
        .columns()
        .iter()
        .map(|c| JoinedColumn {
            table: table.name().to_string(),
            column: c.name.clone(),
            data_type: c.data_type,
        })
        .collect();
    let (base_rows, rows) = table
        .iter()
        .map(|(idx, row)| (idx, JoinedRow { tuple: row.clone() }))
        .unzip();
    JoinedRelation {
        tables: vec![table.name().to_string()],
        columns,
        rows,
        provenance: vec![base_rows],
    }
}

/// Joins `new_table` onto an existing joined relation along `fk`.
fn attach_table(
    joined: &JoinedRelation,
    new_table: &Table,
    fk: &ForeignKey,
) -> Result<JoinedRelation> {
    // Determine which side of the FK is already joined.
    let new_is_child = fk.child_table == new_table.name();
    let (joined_side_table, joined_side_cols, new_side_cols) = if new_is_child {
        (&fk.parent_table, &fk.parent_columns, &fk.child_columns)
    } else {
        (&fk.child_table, &fk.child_columns, &fk.parent_columns)
    };

    // Column positions of the join key on the already-joined side.
    let joined_key_idx: Vec<usize> = joined_side_cols
        .iter()
        .map(|c| {
            joined
                .columns
                .iter()
                .position(|jc| &jc.table == joined_side_table && &jc.column == c)
                .ok_or_else(|| RelationError::UnknownColumn {
                    table: joined_side_table.clone(),
                    column: c.clone(),
                })
        })
        .collect::<Result<_>>()?;
    // Column positions of the join key on the new table's side.
    let new_key_idx: Vec<usize> = new_side_cols
        .iter()
        .map(|c| {
            new_table
                .schema()
                .column_index(c)
                .ok_or_else(|| RelationError::UnknownColumn {
                    table: new_table.name().to_string(),
                    column: c.clone(),
                })
        })
        .collect::<Result<_>>()?;

    // Hash the new table on its key.
    let mut index: BTreeMap<Vec<Value>, Vec<usize>> = BTreeMap::new();
    for (i, row) in new_table.iter() {
        let key: Vec<Value> = new_key_idx
            .iter()
            .map(|&k| row.get(k).cloned().unwrap_or(Value::Null))
            .collect();
        if key.iter().any(Value::is_null) {
            continue;
        }
        index.entry(key).or_default().push(i);
    }

    let mut columns = joined.columns.clone();
    columns.extend(new_table.schema().columns().iter().map(|c| JoinedColumn {
        table: new_table.name().to_string(),
        column: c.name.clone(),
        data_type: c.data_type,
    }));

    let mut rows = Vec::new();
    let mut provenance = vec![Vec::new(); joined.tables.len() + 1];
    for (r, jr) in joined.rows.iter().enumerate() {
        let key: Vec<Value> = joined_key_idx
            .iter()
            .map(|&k| jr.tuple.get(k).cloned().unwrap_or(Value::Null))
            .collect();
        if key.iter().any(Value::is_null) {
            continue;
        }
        if let Some(matches) = index.get(&key) {
            for &m in matches {
                let new_row = new_table.row(m).expect("index in range");
                rows.push(JoinedRow {
                    tuple: jr.tuple.concat(new_row),
                });
                for (to, from) in provenance.iter_mut().zip(&joined.provenance) {
                    to.push(from[r]);
                }
                provenance[joined.tables.len()].push(m);
            }
        }
    }

    let mut tables = joined.tables.clone();
    tables.push(new_table.name().to_string());
    Ok(JoinedRelation {
        tables,
        columns,
        rows,
        provenance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::tuple;

    /// The T1 ⋈ T2 example of Section 5.4.1 (Example 5.4).
    fn example_db() -> Database {
        let t1 = Table::with_rows(
            TableSchema::new(
                "T1",
                vec![
                    ColumnDef::new("A", DataType::Int),
                    ColumnDef::new("B", DataType::Int),
                    ColumnDef::new("C", DataType::Int),
                ],
            )
            .unwrap()
            .with_primary_key(&["A"])
            .unwrap(),
            vec![
                tuple![1i64, 10i64, 50i64],
                tuple![2i64, 80i64, 45i64],
                tuple![3i64, 92i64, 80i64],
            ],
        )
        .unwrap();
        let t2 = Table::with_rows(
            TableSchema::new(
                "T2",
                vec![
                    ColumnDef::new("A", DataType::Int),
                    ColumnDef::new("D", DataType::Int),
                ],
            )
            .unwrap(),
            vec![
                tuple![1i64, 20i64],
                tuple![1i64, 40i64],
                tuple![2i64, 25i64],
                tuple![3i64, 20i64],
            ],
        )
        .unwrap();
        let mut db = Database::new();
        db.add_table(t1).unwrap();
        db.add_table(t2).unwrap();
        db.add_foreign_key(ForeignKey::new("T2", "A", "T1", "A"))
            .unwrap();
        db
    }

    #[test]
    fn single_table_join_is_identity_with_provenance() {
        let db = example_db();
        let j = foreign_key_join(&db, &["T1".to_string()]).unwrap();
        assert_eq!(j.len(), 3);
        assert_eq!(j.arity(), 3);
        assert_eq!(j.tables(), &["T1".to_string()]);
        assert_eq!(j.provenance(0), &[0, 1, 2]);
    }

    #[test]
    fn two_table_fk_join_matches_example_5_4() {
        let db = example_db();
        let j = full_foreign_key_join(&db).unwrap();
        // T = T1 ⋈_A T2 has 4 rows: (1,10,50,20), (1,10,50,40), (2,80,45,25), (3,92,80,20)
        assert_eq!(j.len(), 4);
        assert_eq!(j.arity(), 5); // A,B,C from T1 + A,D from T2
        let a_idx = j.resolve_column("T1.A").unwrap();
        let d_idx = j.resolve_column("D").unwrap();
        let mut pairs: Vec<(i64, i64)> = j
            .rows()
            .iter()
            .map(|r| {
                (
                    r.tuple.get(a_idx).unwrap().as_i64().unwrap(),
                    r.tuple.get(d_idx).unwrap().as_i64().unwrap(),
                )
            })
            .collect();
        pairs.sort();
        assert_eq!(pairs, vec![(1, 20), (1, 40), (2, 25), (3, 20)]);
    }

    #[test]
    fn provenance_links_back_to_base_rows() {
        let db = example_db();
        let j = full_foreign_key_join(&db).unwrap();
        // Both joined rows with T1.A = 1 come from T1 row 0.
        let a_idx = j.resolve_column("T1.A").unwrap();
        let t1 = j.table_position("T1").unwrap();
        let from_t1_row0: Vec<usize> = (0..j.len())
            .filter(|&r| j.rows()[r].tuple.get(a_idx) == Some(&Value::Int(1)))
            .collect();
        assert_eq!(from_t1_row0.len(), 2);
        for r in from_t1_row0 {
            assert_eq!(j.provenance(t1)[r], 0);
        }
        // Every joined row names one base row per participating table.
        assert_eq!(j.table_position("T9"), None);
        for t in 0..j.tables().len() {
            assert_eq!(j.provenance(t).len(), j.len());
        }
    }

    #[test]
    fn ambiguous_and_unknown_column_resolution() {
        let db = example_db();
        let j = full_foreign_key_join(&db).unwrap();
        assert!(j.resolve_column("A").is_err()); // ambiguous: T1.A and T2.A
        assert!(j.resolve_column("B").is_ok());
        assert!(j.resolve_column("T2.A").is_ok());
        assert!(j.resolve_column("T1.Z").is_err());
        assert!(j.resolve_column("nope").is_err());
    }

    #[test]
    fn join_of_unconnected_tables_fails() {
        let mut db = example_db();
        db.add_table(Table::new(
            TableSchema::new("T3", vec![ColumnDef::new("X", DataType::Int)]).unwrap(),
        ))
        .unwrap();
        let err = foreign_key_join(&db, &["T1".to_string(), "T3".to_string()]).unwrap_err();
        assert!(matches!(err, RelationError::InvalidForeignKey { .. }));
    }

    #[test]
    fn join_rejects_duplicates_and_unknown_tables() {
        let db = example_db();
        assert!(foreign_key_join(&db, &["T1".to_string(), "T1".to_string()]).is_err());
        assert!(foreign_key_join(&db, &["T9".to_string()]).is_err());
        assert!(foreign_key_join(&db, &[]).is_err());
    }

    #[test]
    fn active_domain_of_a_full_join_column() {
        let db = example_db();
        let j = full_foreign_key_join(&db).unwrap();
        assert_eq!(j.len(), 4);
        let d_idx = j.resolve_column("D").unwrap();
        assert_eq!(
            j.active_domain(d_idx),
            vec![Value::Int(20), Value::Int(25), Value::Int(40)]
        );
    }

    #[test]
    fn active_domain_is_sorted_distinct_and_keeps_the_first_equal_value() {
        let t = Table::with_rows(
            TableSchema::new(
                "M",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::nullable("n", DataType::Int),
                    ColumnDef::nullable("x", DataType::Float),
                    ColumnDef::nullable("s", DataType::Text),
                    ColumnDef::nullable("b", DataType::Bool),
                ],
            )
            .unwrap()
            .with_primary_key(&["id"])
            .unwrap(),
            vec![
                Tuple::new(vec![
                    Value::Int(1),
                    Value::Int(7),
                    Value::Float(0.0),
                    Value::Text("pear".into()),
                    Value::Bool(true),
                ]),
                Tuple::new(vec![
                    Value::Int(2),
                    Value::Null,
                    Value::Float(f64::NAN),
                    Value::Null,
                    Value::Null,
                ]),
                Tuple::new(vec![
                    Value::Int(3),
                    Value::Int(-2),
                    Value::Float(-0.0),
                    Value::Text("apple".into()),
                    Value::Bool(true),
                ]),
                Tuple::new(vec![
                    Value::Int(4),
                    Value::Int(7),
                    Value::Null,
                    Value::Text("pear".into()),
                    Value::Bool(false),
                ]),
                Tuple::new(vec![
                    Value::Int(5),
                    Value::Null,
                    Value::Float(-1.5),
                    Value::Text("".into()),
                    Value::Null,
                ]),
                Tuple::new(vec![
                    Value::Int(6),
                    Value::Int(-2),
                    Value::Float(f64::NAN),
                    Value::Text("apple".into()),
                    Value::Bool(false),
                ]),
            ],
        )
        .unwrap();
        let mut db = Database::new();
        db.add_table(t).unwrap();
        let j = foreign_key_join(&db, &["M".to_string()]).unwrap();
        let domain = |name: &str| j.active_domain(j.resolve_column(name).unwrap());

        assert_eq!(
            domain("n"),
            vec![Value::Null, Value::Int(-2), Value::Int(7)]
        );
        assert_eq!(
            domain("s"),
            vec![
                Value::Null,
                Value::Text("".into()),
                Value::Text("apple".into()),
                Value::Text("pear".into()),
            ]
        );
        assert_eq!(
            domain("b"),
            vec![Value::Null, Value::Bool(false), Value::Bool(true)]
        );
        // Floats: NULL first, NaN last and once, and of the equal zeros the
        // earlier row's +0.0 survives (`Value` equality cannot tell them
        // apart, so compare the bits).
        let x = domain("x");
        assert_eq!(x.len(), 4, "{x:?}");
        assert_eq!(x[0], Value::Null);
        let bits: Vec<u64> = x[1..]
            .iter()
            .map(|v| match v {
                Value::Float(f) => f.to_bits(),
                other => panic!("not a float: {other:?}"),
            })
            .collect();
        assert_eq!(bits[..2], [(-1.5f64).to_bits(), 0.0f64.to_bits()]);
        assert!(f64::from_bits(bits[2]).is_nan());

        // The first zero in row order decides the representative.
        let mut flipped = db.clone();
        let m = flipped.table_mut("M").unwrap();
        m.update_cell(0, "x", Value::Float(-0.0)).unwrap();
        m.update_cell(2, "x", Value::Float(0.0)).unwrap();
        let j = foreign_key_join(&flipped, &["M".to_string()]).unwrap();
        let x = j.active_domain(j.resolve_column("x").unwrap());
        assert!(matches!(x[2], Value::Float(f) if f.to_bits() == (-0.0f64).to_bits()));
    }

    #[test]
    fn display_mentions_tables_and_row_count() {
        let db = example_db();
        let j = full_foreign_key_join(&db).unwrap();
        let s = j.to_string();
        assert!(s.contains("T1 ⋈ T2"));
        assert!(s.contains("4 rows"));
    }

    #[test]
    fn null_foreign_keys_are_dropped_from_join() {
        let mut db = Database::new();
        let parent = Table::with_rows(
            TableSchema::new(
                "P",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("v", DataType::Int),
                ],
            )
            .unwrap()
            .with_primary_key(&["id"])
            .unwrap(),
            vec![tuple![1i64, 5i64]],
        )
        .unwrap();
        let child = Table::with_rows(
            TableSchema::new(
                "C",
                vec![
                    ColumnDef::nullable("pid", DataType::Int),
                    ColumnDef::new("w", DataType::Int),
                ],
            )
            .unwrap(),
            vec![
                tuple![1i64, 10i64],
                Tuple::new(vec![Value::Null, Value::Int(20)]),
            ],
        )
        .unwrap();
        db.add_table(parent).unwrap();
        db.add_table(child).unwrap();
        db.add_foreign_key(ForeignKey::new("C", "pid", "P", "id"))
            .unwrap();
        let j = full_foreign_key_join(&db).unwrap();
        assert_eq!(j.len(), 1);
    }
}
