//! Join indexes: which joined tuples does a base tuple contribute to?
//!
//! Section 5.4.1 of the paper: a single base-table modification can affect
//! multiple tuples of the joined relation, because the modified base tuple may
//! join with several partner tuples.  QFE "constructs a join index for each
//! foreign-key relationship … to efficiently keep track of the set of related
//! tuples for each base tuple", and uses it to account for these side effects
//! when costing candidate modifications.  [`JoinIndex`] is that structure:
//! built from a [`JoinedRelation`]'s per-table provenance and keyed, like it,
//! by the table's position in [`JoinedRelation::tables`], so a lookup is two
//! slice indexings.

use crate::join::JoinedRelation;

/// Maps `(table position, base row index)` to the joined-row indices that the
/// base row participates in.
#[derive(Debug, Clone, Default)]
pub struct JoinIndex {
    /// One entry per participating table.
    tables: Vec<TableIndex>,
}

/// The joined rows of one table's base rows, flattened: base row `b`'s joined
/// rows are `joined[starts[b]..starts[b + 1]]`, ascending.
#[derive(Debug, Clone)]
struct TableIndex {
    starts: Vec<usize>,
    joined: Vec<usize>,
}

impl TableIndex {
    fn build(provenance: &[usize]) -> TableIndex {
        let base_rows = provenance.iter().max().map_or(0, |&m| m + 1);
        let mut starts = vec![0usize; base_rows + 1];
        for &b in provenance {
            starts[b + 1] += 1;
        }
        for b in 0..base_rows {
            starts[b + 1] += starts[b];
        }
        // A stable sort keeps each base row's joined rows ascending.
        let mut joined: Vec<usize> = (0..provenance.len()).collect();
        joined.sort_by_key(|&j| provenance[j]);
        TableIndex { starts, joined }
    }
}

impl JoinIndex {
    /// Builds the index from a joined relation's provenance.
    pub fn build(join: &JoinedRelation) -> Self {
        JoinIndex {
            tables: (0..join.tables().len())
                .map(|t| TableIndex::build(join.provenance(t)))
                .collect(),
        }
    }

    /// Joined-row indices (ascending) that contain base row `row` of the
    /// table at position `table` in [`JoinedRelation::tables`]. Empty when
    /// the base row does not participate in the join (dangling) or the
    /// position is out of range.
    pub fn joined_rows_of(&self, table: usize, row: usize) -> &[usize] {
        match self.tables.get(table) {
            Some(t) if row < t.starts.len() - 1 => &t.joined[t.starts[row]..t.starts[row + 1]],
            _ => &[],
        }
    }

    /// Number of joined rows a base row participates in (its *fan-out*).
    ///
    /// A fan-out of 1 means a modification of this base row has no side
    /// effects beyond the single intended joined tuple — the database
    /// generator prefers such rows (Section 5.4.1).
    pub fn fan_out(&self, table: usize, row: usize) -> usize {
        self.joined_rows_of(table, row).len()
    }
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
    use crate::types::DataType;

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
    fn fan_out_matches_example_5_4() {
        // Modifying T1's base tuple (1,10,50) affects the first two joined
        // tuples (Example 5.4 in the paper), i.e. fan-out 2.
        let db = example_db();
        let join = full_foreign_key_join(&db).unwrap();
        let idx = JoinIndex::build(&join);
        let (t1, t2) = (
            join.table_position("T1").unwrap(),
            join.table_position("T2").unwrap(),
        );
        assert_eq!(idx.fan_out(t1, 0), 2);
        assert_eq!(idx.fan_out(t1, 1), 1);
        assert_eq!(idx.fan_out(t1, 2), 1);
        // Each T2 row joins exactly once.
        for r in 0..4 {
            assert_eq!(idx.fan_out(t2, r), 1);
        }
    }

    #[test]
    fn joined_rows_of_returns_indices() {
        let db = example_db();
        let join = full_foreign_key_join(&db).unwrap();
        let idx = JoinIndex::build(&join);
        let t1 = join.table_position("T1").unwrap();
        let rows = idx.joined_rows_of(t1, 0);
        assert_eq!(rows.len(), 2);
        assert!(rows.windows(2).all(|w| w[0] < w[1]));
        for &jr in rows {
            assert_eq!(join.provenance(t1)[jr], 0);
        }
        assert!(idx.joined_rows_of(t1, 99).is_empty());
        assert!(idx.joined_rows_of(9, 0).is_empty());
        assert!(JoinIndex::default().joined_rows_of(0, 0).is_empty());
    }

    #[test]
    fn dangling_base_rows_have_no_joined_rows() {
        // A parent row no child references sits between referenced ones.
        let mut db = example_db();
        db.table_mut("T2").unwrap().delete_row(2).unwrap();
        let join = full_foreign_key_join(&db).unwrap();
        let idx = JoinIndex::build(&join);
        let t1 = join.table_position("T1").unwrap();
        assert_eq!(idx.fan_out(t1, 0), 2);
        assert_eq!(idx.fan_out(t1, 1), 0);
        assert_eq!(idx.fan_out(t1, 2), 1);
    }
}
