//! Columnar storage for joined relations.
//!
//! QBO's generate-and-verify pass checks *many* candidate predicates against
//! the *same* foreign-key join, repeatedly asking "which rows satisfy
//! `attr op literal`?".  Walking the row-oriented [`JoinedRelation`] answers
//! that one boxed [`Value`] at a time — pointer chasing, string comparisons
//! and clones on every probe.
//!
//! [`ColumnarJoin`] is the bandwidth-friendly mirror of a join, built once
//! per join by the term-bitmap cache that owns it (`qfe-query`'s
//! `TermBitmapCache`) and shared by every candidate verified against it:
//!
//! * **typed column vectors** — `i64`, `f64`, `bool`, and dictionary-coded
//!   strings (`u32` codes into a per-column *sorted* dictionary, so string
//!   comparisons become integer range tests);
//! * **null bitmaps** — SQL comparisons against NULL are never satisfied, so
//!   a term's selection bitmap is computed branchlessly and masked with the
//!   column's null bitmap.
//!
//! The engine itself reads the row join: a mirror costs more to build than
//! the foreign-key join it mirrors, and pays off only over QBO's many
//! candidates.
//!
//! Every stored value conforms to its column's declared type: joins are built
//! from table rows, which `Table` validates (and coerces) on insertion and
//! update.

use crate::bitmap::Bitmap;
use crate::join::JoinedRelation;
use crate::types::DataType;
use crate::value::Value;

/// The typed backing store of one joined column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// `BIGINT` column: one `i64` per row (null rows hold 0).
    Int(Vec<i64>),
    /// `DOUBLE` column: one `f64` per row (null rows hold 0.0).
    Float(Vec<f64>),
    /// Text column, dictionary-coded: `codes[row]` indexes into `dict`,
    /// which is sorted and duplicate-free, so code order is string order
    /// (null rows hold code 0).
    Str {
        /// Per-row dictionary codes.
        codes: Vec<u32>,
        /// Sorted distinct strings.
        dict: Vec<String>,
    },
    /// Boolean column (null rows hold `false`).
    Bool(Vec<bool>),
}

/// One column of a [`ColumnarJoin`]: typed data plus a null bitmap.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarColumn {
    /// The typed values.
    pub data: ColumnData,
    /// Bit `r` set ⇔ row `r` is NULL in this column.
    pub nulls: Bitmap,
}

impl ColumnarColumn {
    /// The value of row `row`, decoded back to a [`Value`].
    pub fn value_at(&self, row: usize) -> Value {
        if self.nulls.get(row) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[row]),
            ColumnData::Float(v) => Value::Float(v[row]),
            ColumnData::Str { codes, dict } => Value::Text(dict[codes[row] as usize].clone()),
            ColumnData::Bool(v) => Value::Bool(v[row]),
        }
    }
}

/// A columnar mirror of a [`JoinedRelation`]. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarJoin {
    columns: Vec<ColumnarColumn>,
    rows: usize,
}

impl ColumnarJoin {
    /// Builds the columnar mirror of `join`.
    pub fn from_join(join: &JoinedRelation) -> ColumnarJoin {
        let rows = join.len();
        let columns: Vec<ColumnarColumn> = join
            .columns()
            .iter()
            .enumerate()
            .map(|(col, meta)| build_column(join, col, meta.data_type, rows))
            .collect();
        ColumnarJoin { columns, rows }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the join has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The column at position `idx`.
    pub fn column(&self, idx: usize) -> &ColumnarColumn {
        &self.columns[idx]
    }

    /// The value of `(row, col)`, decoded back to a [`Value`].
    pub fn value_at(&self, row: usize, col: usize) -> Value {
        self.columns[col].value_at(row)
    }
}

/// The paper-substrate total order on `f64`: NaN sorts greatest and compares
/// equal to itself (mirrors `Value::cmp` on two floats).
pub fn float_total_cmp(a: f64, b: f64) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
    }
}

fn build_column(
    join: &JoinedRelation,
    col: usize,
    declared: DataType,
    rows: usize,
) -> ColumnarColumn {
    let mut nulls = Bitmap::new(rows);
    let value_of = |r: usize| join.rows()[r].tuple.get(col).unwrap_or(&Value::Null);

    let data = match declared {
        DataType::Int => {
            let mut v = vec![0i64; rows];
            for (r, slot) in v.iter_mut().enumerate() {
                match value_of(r) {
                    Value::Int(i) => *slot = *i,
                    _ => nulls.set(r),
                }
            }
            ColumnData::Int(v)
        }
        DataType::Float => {
            let mut v = vec![0f64; rows];
            for (r, slot) in v.iter_mut().enumerate() {
                match value_of(r) {
                    Value::Float(f) => *slot = *f,
                    _ => nulls.set(r),
                }
            }
            ColumnData::Float(v)
        }
        DataType::Bool => {
            let mut v = vec![false; rows];
            for (r, slot) in v.iter_mut().enumerate() {
                match value_of(r) {
                    Value::Bool(b) => *slot = *b,
                    _ => nulls.set(r),
                }
            }
            ColumnData::Bool(v)
        }
        DataType::Text => {
            let mut dict: Vec<&str> = Vec::new();
            for r in 0..rows {
                match value_of(r) {
                    Value::Text(s) => dict.push(s.as_str()),
                    _ => nulls.set(r),
                }
            }
            dict.sort_unstable();
            dict.dedup();
            let codes: Vec<u32> = (0..rows)
                .map(|r| match value_of(r) {
                    Value::Text(s) => {
                        dict.binary_search(&s.as_str())
                            .expect("dictionary covers every string") as u32
                    }
                    _ => 0,
                })
                .collect();
            ColumnData::Str {
                codes,
                dict: dict.into_iter().map(String::from).collect(),
            }
        }
    };
    ColumnarColumn { data, nulls }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::foreign_key::ForeignKey;
    use crate::join::full_foreign_key_join;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::table::Table;
    use crate::tuple;
    use crate::tuple::Tuple;

    fn mixed_db() -> Database {
        let t = Table::with_rows(
            TableSchema::new(
                "T",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("name", DataType::Text),
                    ColumnDef::nullable("score", DataType::Float),
                    ColumnDef::nullable("active", DataType::Bool),
                ],
            )
            .unwrap()
            .with_primary_key(&["id"])
            .unwrap(),
            vec![
                tuple![1i64, "bob", 1.5, true],
                Tuple::new(vec![
                    Value::Int(2),
                    Value::Text("alice".into()),
                    Value::Null,
                    Value::Bool(false),
                ]),
                tuple![3i64, "bob", 0.5, false],
                Tuple::new(vec![
                    Value::Int(4),
                    Value::Text("zed".into()),
                    Value::Float(1.5),
                    Value::Null,
                ]),
            ],
        )
        .unwrap();
        let mut db = Database::new();
        db.add_table(t).unwrap();
        db
    }

    #[test]
    fn round_trips_every_cell() {
        let db = mixed_db();
        let join = full_foreign_key_join(&db).unwrap();
        let cj = ColumnarJoin::from_join(&join);
        assert_eq!(cj.len(), join.len());
        assert_eq!(cj.arity(), join.arity());
        for (r, jr) in join.rows().iter().enumerate() {
            for c in 0..join.arity() {
                assert_eq!(
                    cj.value_at(r, c),
                    jr.tuple.get(c).cloned().unwrap_or(Value::Null),
                    "cell ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn dictionary_is_sorted_and_codes_follow_string_order() {
        let db = mixed_db();
        let join = full_foreign_key_join(&db).unwrap();
        let cj = ColumnarJoin::from_join(&join);
        let name_col = join.resolve_column("name").unwrap();
        let ColumnData::Str { codes, dict } = &cj.column(name_col).data else {
            panic!("name must be dictionary-coded");
        };
        assert_eq!(dict, &["alice", "bob", "zed"]);
        assert_eq!(codes, &[1, 0, 1, 2]);
    }

    #[test]
    fn join_output_over_foreign_keys_is_mirrored() {
        let parent = Table::with_rows(
            TableSchema::new(
                "P",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("tag", DataType::Text),
                ],
            )
            .unwrap()
            .with_primary_key(&["id"])
            .unwrap(),
            vec![tuple![1i64, "x"], tuple![2i64, "y"]],
        )
        .unwrap();
        let child = Table::with_rows(
            TableSchema::new(
                "C",
                vec![
                    ColumnDef::new("pid", DataType::Int),
                    ColumnDef::new("w", DataType::Int),
                ],
            )
            .unwrap(),
            vec![
                tuple![1i64, 10i64],
                tuple![1i64, 20i64],
                tuple![2i64, 30i64],
            ],
        )
        .unwrap();
        let mut db = Database::new();
        db.add_table(parent).unwrap();
        db.add_table(child).unwrap();
        db.add_foreign_key(ForeignKey::new("C", "pid", "P", "id"))
            .unwrap();
        let join = full_foreign_key_join(&db).unwrap();
        let cj = ColumnarJoin::from_join(&join);
        assert_eq!(cj.len(), 3);
        for (r, jr) in join.rows().iter().enumerate() {
            for c in 0..join.arity() {
                assert_eq!(cj.value_at(r, c), jr.tuple.get(c).cloned().unwrap());
            }
        }
    }
}
