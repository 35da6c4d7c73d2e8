//! Edit operations and the table edit distance `minEdit(T, T')`.
//!
//! Section 3 of the paper quantifies the difference between two instances of a
//! relation as the minimum cost of transforming one into the other with three
//! edit operations:
//!
//! * **E1** — modify an attribute value of a tuple (cost 1),
//! * **E2** — insert a new tuple (cost = arity of the relation),
//! * **E3** — delete a tuple (cost = arity of the relation).
//!
//! `minEdit(D, D')` is the sum of `minEdit(T, T')` over the relations of `D`
//! that were modified in `D'`.
//!
//! Computing `minEdit` exactly requires a minimum-cost matching between the
//! rows of the two tables (each matched pair contributes its Hamming
//! distance, capped at the arity; unmatched rows contribute the arity as an
//! insert/delete). [`min_edit_rows`] solves that assignment problem exactly
//! with the Hungarian algorithm for inputs up to a size limit, and falls back
//! to a greedy matching (an upper bound) for very large inputs.

use std::fmt;

use crate::table::Table;
use crate::tuple::Tuple;
use crate::value::Value;

/// A single edit operation on a named table.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum EditOp {
    /// E1: modify one attribute of an existing row.
    ModifyCell {
        table: String,
        row: usize,
        column: String,
        old: Value,
        new: Value,
    },
    /// E2: insert a new row.
    InsertRow { table: String, row: Tuple },
    /// E3: delete an existing row.
    DeleteRow {
        table: String,
        row: usize,
        old: Tuple,
    },
}

impl EditOp {
    /// The cost of this edit under the paper's model, given the arity of the
    /// affected relation.
    pub fn cost(&self, arity: usize) -> usize {
        match self {
            EditOp::ModifyCell { .. } => 1,
            EditOp::InsertRow { .. } | EditOp::DeleteRow { .. } => arity,
        }
    }

    /// The table the edit applies to.
    pub fn table(&self) -> &str {
        match self {
            EditOp::ModifyCell { table, .. }
            | EditOp::InsertRow { table, .. }
            | EditOp::DeleteRow { table, .. } => table,
        }
    }
}

impl fmt::Display for EditOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditOp::ModifyCell {
                table,
                row,
                column,
                old,
                new,
            } => write!(f, "{table}[{row}].{column}: {old} -> {new}"),
            EditOp::InsertRow { table, row } => write!(f, "insert into {table}: {row}"),
            EditOp::DeleteRow { table, row, old } => {
                write!(f, "delete from {table}[{row}]: {old}")
            }
        }
    }
}

/// Exact-vs-greedy threshold: the Hungarian algorithm is used when
/// `max(|T|, |T'|)` does not exceed this bound.
pub const EXACT_MATCHING_LIMIT: usize = 512;

/// `minEdit` between two row bags of the same arity.
///
/// Returns the minimum total edit cost. `arity` is the relation's arity used
/// as the insert/delete cost.
pub fn min_edit_rows(a: &[Tuple], b: &[Tuple], arity: usize) -> usize {
    if a.is_empty() {
        return b.len() * arity;
    }
    if b.is_empty() {
        return a.len() * arity;
    }
    let n = a.len().max(b.len());
    if n <= EXACT_MATCHING_LIMIT {
        exact_min_edit_by(a.len(), b.len(), arity, |i, j| a[i].hamming_distance(&b[j]))
    } else {
        greedy_min_edit(a, b, arity)
    }
}

/// `minEdit(T, T')` for two tables. The tables must have the same arity;
/// otherwise the distance is treated as "replace everything"
/// (delete all of `T`, insert all of `T'`).
pub fn min_edit_tables(a: &Table, b: &Table) -> usize {
    if a.arity() != b.arity() {
        return a.len() * a.arity() + b.len() * b.arity();
    }
    min_edit_rows(a.rows(), b.rows(), a.arity())
}

/// Cost of matching row `x` to row `y`: the number of differing attributes,
/// capped at `arity` (it can never be cheaper to modify more attributes than
/// to delete + insert — the cap keeps the assignment consistent with the
/// option of leaving both rows unmatched).
fn pair_cost(x: &Tuple, y: &Tuple, arity: usize) -> usize {
    x.hamming_distance(y).min(arity)
}

/// The exact `minEdit` of two bags of `a_len` and `b_len` rows, where
/// `distance(i, j)` is the Hamming distance between row `i` of the first bag
/// and row `j` of the second: a minimum-cost assignment (Hungarian
/// algorithm) on a square cost matrix padded with "delete/insert" slots of
/// cost `arity`. The minimum does not depend on the order of either bag, so
/// a caller that holds rows elsewhere (e.g. as interned ids) need not build
/// or sort them. [`min_edit_rows`] uses it up to [`EXACT_MATCHING_LIMIT`]
/// rows; it takes `O(n³)` time.
pub fn exact_min_edit_by(
    a_len: usize,
    b_len: usize,
    arity: usize,
    distance: impl Fn(usize, usize) -> usize,
) -> usize {
    if a_len == 0 {
        return b_len * arity;
    }
    if b_len == 0 {
        return a_len * arity;
    }
    if a_len == 1 && b_len == 1 {
        // The only assignment matches the two rows.
        return distance(0, 0).min(arity);
    }
    // cost(i, j): cost of assigning a-row i to b-row j (or padding).
    // Padded a-row matched with real b-row j => insert cost (arity).
    // Real a-row i matched with padded b-row => delete cost (arity).
    // Padded-with-padded => 0.
    let cost = |i: usize, j: usize| -> i64 {
        match (i < a_len, j < b_len) {
            (true, true) => distance(i, j).min(arity) as i64,
            (true, false) | (false, true) => arity as i64,
            (false, false) => 0,
        }
    };
    hungarian_min_cost(a_len.max(b_len), cost)
}

/// Greedy upper bound: match identical rows first, then remaining rows in
/// order of increasing pair cost.
fn greedy_min_edit(a: &[Tuple], b: &[Tuple], arity: usize) -> usize {
    let (matched_pairs, unmatched_a, unmatched_b) = greedy_matching(a, b, arity);
    let mut total = 0usize;
    for (i, j) in matched_pairs {
        total += pair_cost(&a[i], &b[j], arity);
    }
    total += (unmatched_a.len() + unmatched_b.len()) * arity;
    total
}

/// The greedy matching behind the large-input distance bound. Returns
/// (matched index pairs, unmatched a-rows, unmatched b-rows).
fn greedy_matching(
    a: &[Tuple],
    b: &[Tuple],
    arity: usize,
) -> (Vec<(usize, usize)>, Vec<usize>, Vec<usize>) {
    use std::collections::HashMap;

    let mut matched_a = vec![false; a.len()];
    let mut matched_b = vec![false; b.len()];
    let mut pairs = Vec::new();

    // Pass 1: exact matches (multiset intersection), cost 0.
    let mut b_by_value: HashMap<&Tuple, Vec<usize>> = HashMap::new();
    for (j, t) in b.iter().enumerate() {
        b_by_value.entry(t).or_default().push(j);
    }
    for (i, t) in a.iter().enumerate() {
        if let Some(js) = b_by_value.get_mut(t) {
            if let Some(j) = js.pop() {
                matched_a[i] = true;
                matched_b[j] = true;
                pairs.push((i, j));
            }
        }
    }

    // Pass 2: all remaining cross pairs sorted by cost, take while beneficial
    // (a pair is beneficial when its cost is below delete+insert = 2*arity;
    // with the cap it is always ≤ arity ≤ 2*arity, so any pair is taken).
    let rem_a: Vec<usize> = (0..a.len()).filter(|&i| !matched_a[i]).collect();
    let rem_b: Vec<usize> = (0..b.len()).filter(|&j| !matched_b[j]).collect();
    let mut cross: Vec<(usize, usize, usize)> = Vec::with_capacity(rem_a.len() * rem_b.len());
    for &i in &rem_a {
        for &j in &rem_b {
            cross.push((pair_cost(&a[i], &b[j], arity), i, j));
        }
    }
    cross.sort_unstable();
    for (c, i, j) in cross {
        if matched_a[i] || matched_b[j] {
            continue;
        }
        if c >= 2 * arity {
            break;
        }
        matched_a[i] = true;
        matched_b[j] = true;
        pairs.push((i, j));
    }

    let unmatched_a = (0..a.len()).filter(|&i| !matched_a[i]).collect();
    let unmatched_b = (0..b.len()).filter(|&j| !matched_b[j]).collect();
    (pairs, unmatched_a, unmatched_b)
}

/// Minimum-cost perfect matching on an `n × n` cost matrix given by `cost`,
/// using the O(n³) Hungarian algorithm with potentials (Jonker–Volgenant
/// formulation).
fn hungarian_min_cost(n: usize, cost: impl Fn(usize, usize) -> i64) -> usize {
    if n == 0 {
        return 0;
    }
    const INF: i64 = i64::MAX / 4;
    // Potentials and matching arrays are 1-indexed over columns; row 0 is a
    // virtual row used by the augmenting search.
    let mut u = vec![0i64; n + 1];
    let mut v = vec![0i64; n + 1];
    let mut p = vec![0usize; n + 1]; // p[j] = row matched to column j
    let mut way = vec![0usize; n + 1];

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![INF; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = INF;
            let mut j1 = 0usize;
            for j in 1..=n {
                if used[j] {
                    continue;
                }
                let cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        // Augment along the alternating path.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut total = 0i64;
    for (j, &pj) in p.iter().enumerate().take(n + 1).skip(1) {
        if pj != 0 {
            total += cost(pj - 1, j - 1);
        }
    }
    total as usize
}

/// `minEdit(D, D')` over two databases: the sum of table distances for every
/// table present in either database (tables missing on one side contribute
/// their full contents as inserts/deletes).
pub fn min_edit_databases(a: &crate::Database, b: &crate::Database) -> usize {
    let mut total = 0usize;
    for ta in a.tables() {
        match b.table(ta.name()) {
            Ok(tb) => total += min_edit_tables(ta, tb),
            Err(_) => total += ta.len() * ta.arity(),
        }
    }
    for tb in b.tables() {
        if a.table(tb.name()).is_err() {
            total += tb.len() * tb.arity();
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::tuple;
    use crate::types::DataType;

    fn table(name: &str, rows: Vec<Tuple>) -> Table {
        Table::with_rows(
            TableSchema::new(
                name,
                vec![
                    ColumnDef::new("a", DataType::Int),
                    ColumnDef::new("b", DataType::Int),
                    ColumnDef::new("c", DataType::Int),
                ],
            )
            .unwrap(),
            rows,
        )
        .unwrap()
    }

    #[test]
    fn identical_tables_have_zero_distance() {
        let t = table(
            "T",
            vec![tuple![1i64, 2i64, 3i64], tuple![4i64, 5i64, 6i64]],
        );
        assert_eq!(min_edit_tables(&t, &t), 0);
    }

    #[test]
    fn single_cell_modification_costs_one() {
        let a = table(
            "T",
            vec![tuple![1i64, 2i64, 3i64], tuple![4i64, 5i64, 6i64]],
        );
        let b = table(
            "T",
            vec![tuple![1i64, 2i64, 3i64], tuple![4i64, 9i64, 6i64]],
        );
        assert_eq!(min_edit_tables(&a, &b), 1);
    }

    #[test]
    fn insert_and_delete_cost_arity() {
        let a = table("T", vec![tuple![1i64, 2i64, 3i64]]);
        let b = table(
            "T",
            vec![tuple![1i64, 2i64, 3i64], tuple![7i64, 8i64, 9i64]],
        );
        assert_eq!(min_edit_tables(&a, &b), 3); // one insert of arity 3
        assert_eq!(min_edit_tables(&b, &a), 3); // one delete of arity 3
    }

    #[test]
    fn modification_cheaper_than_delete_insert() {
        // Changing two attributes of one row (cost 2) must beat
        // delete + insert (cost 6).
        let a = table("T", vec![tuple![1i64, 2i64, 3i64]]);
        let b = table("T", vec![tuple![1i64, 9i64, 9i64]]);
        assert_eq!(min_edit_tables(&a, &b), 2);
    }

    #[test]
    fn matching_picks_minimal_assignment() {
        // Row (1,2,3) should match (1,2,4) (cost 1), not (9,9,9).
        let a = table(
            "T",
            vec![tuple![1i64, 2i64, 3i64], tuple![5i64, 5i64, 5i64]],
        );
        let b = table(
            "T",
            vec![tuple![9i64, 9i64, 9i64], tuple![1i64, 2i64, 4i64]],
        );
        // (1,2,3)->(1,2,4): 1, (5,5,5)->(9,9,9): 3 (capped at arity) => 4
        assert_eq!(min_edit_tables(&a, &b), 4);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = table(
            "T",
            vec![tuple![1i64, 2i64, 3i64], tuple![4i64, 5i64, 6i64]],
        );
        let b = table(
            "T",
            vec![
                tuple![1i64, 2i64, 9i64],
                tuple![7i64, 8i64, 9i64],
                tuple![4i64, 5i64, 6i64],
            ],
        );
        assert_eq!(min_edit_tables(&a, &b), min_edit_tables(&b, &a));
    }

    #[test]
    fn different_arity_replaces_everything() {
        let a = table("T", vec![tuple![1i64, 2i64, 3i64]]);
        let b = Table::with_rows(
            TableSchema::new("T", vec![ColumnDef::new("x", DataType::Int)]).unwrap(),
            vec![tuple![1i64]],
        )
        .unwrap();
        assert_eq!(min_edit_tables(&a, &b), 3 + 1);
    }

    #[test]
    fn empty_tables() {
        let a = table("T", vec![]);
        let b = table("T", vec![tuple![1i64, 2i64, 3i64]]);
        assert_eq!(min_edit_tables(&a, &a), 0);
        assert_eq!(min_edit_tables(&a, &b), 3);
        assert_eq!(min_edit_tables(&b, &a), 3);
    }

    #[test]
    fn edit_cost_accessors() {
        let op = EditOp::ModifyCell {
            table: "T".into(),
            row: 0,
            column: "b".into(),
            old: Value::Int(1),
            new: Value::Int(2),
        };
        assert_eq!(op.cost(5), 1);
        assert_eq!(op.table(), "T");
        let ins = EditOp::InsertRow {
            table: "T".into(),
            row: tuple![1i64],
        };
        assert_eq!(ins.cost(5), 5);
        let del = EditOp::DeleteRow {
            table: "T".into(),
            row: 0,
            old: tuple![1i64],
        };
        assert_eq!(del.cost(4), 4);
        assert!(op.to_string().contains("->"));
        assert!(ins.to_string().contains("insert"));
        assert!(del.to_string().contains("delete"));
    }

    #[test]
    fn database_distance_sums_over_tables() {
        use crate::database::Database;
        let mut d1 = Database::new();
        d1.add_table(table("T", vec![tuple![1i64, 2i64, 3i64]]))
            .unwrap();
        let mut d2 = Database::new();
        d2.add_table(table("T", vec![tuple![1i64, 2i64, 4i64]]))
            .unwrap();
        assert_eq!(min_edit_databases(&d1, &d2), 1);

        // A table missing on one side contributes all of its rows.
        let mut d3 = d2.clone();
        d3.add_table(table("U", vec![tuple![1i64, 1i64, 1i64]]))
            .unwrap();
        assert_eq!(min_edit_databases(&d1, &d3), 1 + 3);
        assert_eq!(min_edit_databases(&d3, &d1), 1 + 3);
    }

    #[test]
    fn hungarian_on_trivial_sizes() {
        assert_eq!(hungarian_min_cost(0, |_, _| 5), 0);
        assert_eq!(hungarian_min_cost(1, |_, _| 7), 7);
        // 2x2 where the anti-diagonal is cheaper.
        let costs = [[10, 1], [1, 10]];
        assert_eq!(hungarian_min_cost(2, |i, j| costs[i][j]), 2);
    }

    #[test]
    fn greedy_bound_never_below_exact() {
        let a = table(
            "T",
            vec![
                tuple![1i64, 2i64, 3i64],
                tuple![4i64, 5i64, 6i64],
                tuple![7i64, 8i64, 9i64],
            ],
        );
        let b = table(
            "T",
            vec![
                tuple![7i64, 8i64, 0i64],
                tuple![1i64, 0i64, 3i64],
                tuple![4i64, 5i64, 6i64],
            ],
        );
        let (ra, rb) = (a.rows(), b.rows());
        let exact = exact_min_edit_by(ra.len(), rb.len(), 3, |i, j| ra[i].hamming_distance(&rb[j]));
        let greedy = greedy_min_edit(ra, rb, 3);
        assert!(greedy >= exact);
        assert_eq!(min_edit_tables(&a, &b), exact);
    }
}
