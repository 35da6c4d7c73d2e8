//! Compact join provenance against a reference join that keeps a
//! `table name → base row` map on every joined row.
//!
//! Random two- and three-table foreign-key schemas (chains, a parent with two
//! children, a child with two parents) with dangling children, NULL keys and
//! per-parent fan-out 0–3 are joined in a random table order by both. They
//! must agree on the tuples, on the base row of every table for every joined
//! row, and on `joined_rows_of` / `fan_out` for every base row.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qfe_relation::{
    foreign_key_join, ColumnDef, DataType, Database, ForeignKey, JoinIndex, Table, TableSchema,
    Tuple, Value,
};

/// The reference join: rows with map provenance, in join order.
struct MapJoin {
    tables: Vec<String>,
    columns: Vec<(String, String)>,
    rows: Vec<(Tuple, BTreeMap<String, usize>)>,
}

impl MapJoin {
    /// The reference join index, keyed by `(table name, base row)`.
    fn index(&self) -> BTreeMap<(String, usize), Vec<usize>> {
        let mut entries: BTreeMap<(String, usize), Vec<usize>> = BTreeMap::new();
        for (joined_idx, (_, provenance)) in self.rows.iter().enumerate() {
            for (table, &base) in provenance {
                entries
                    .entry((table.clone(), base))
                    .or_default()
                    .push(joined_idx);
            }
        }
        entries
    }
}

fn key_of(tuple: &Tuple, positions: &[usize]) -> Option<Vec<Value>> {
    let key: Vec<Value> = positions
        .iter()
        .map(|&p| tuple.get(p).cloned().unwrap_or(Value::Null))
        .collect();
    (!key.iter().any(Value::is_null)).then_some(key)
}

/// The foreign-key join algorithm with one provenance map per row.
fn map_join(db: &Database, names: &[String]) -> MapJoin {
    let first = db.table(&names[0]).unwrap();
    let mut join = MapJoin {
        tables: vec![names[0].clone()],
        columns: first
            .schema()
            .column_names()
            .iter()
            .map(|c| (names[0].clone(), c.to_string()))
            .collect(),
        rows: first
            .iter()
            .map(|(i, t)| (t.clone(), BTreeMap::from([(names[0].clone(), i)])))
            .collect(),
    };
    let mut remaining: Vec<String> = names[1..].to_vec();
    while !remaining.is_empty() {
        let (pos, fk) = remaining
            .iter()
            .enumerate()
            .find_map(|(pos, cand)| {
                join.tables
                    .iter()
                    .find_map(|done| db.foreign_keys_between(done, cand).first().copied())
                    .map(|fk| (pos, fk.clone()))
            })
            .expect("connected schema");
        let name = remaining.remove(pos);
        let table = db.table(&name).unwrap();
        let (joined_table, joined_cols, new_cols) = if fk.child_table == name {
            (&fk.parent_table, &fk.parent_columns, &fk.child_columns)
        } else {
            (&fk.child_table, &fk.child_columns, &fk.parent_columns)
        };
        let joined_key: Vec<usize> = joined_cols
            .iter()
            .map(|c| {
                join.columns
                    .iter()
                    .position(|(t, col)| t == joined_table && col == c)
                    .unwrap()
            })
            .collect();
        let new_key: Vec<usize> = new_cols
            .iter()
            .map(|c| table.schema().column_index(c).unwrap())
            .collect();
        let mut by_key: BTreeMap<Vec<Value>, Vec<usize>> = BTreeMap::new();
        for (i, row) in table.iter() {
            if let Some(key) = key_of(row, &new_key) {
                by_key.entry(key).or_default().push(i);
            }
        }
        let mut rows = Vec::new();
        for (tuple, provenance) in &join.rows {
            let Some(key) = key_of(tuple, &joined_key) else {
                continue;
            };
            for &m in by_key.get(&key).into_iter().flatten() {
                let mut provenance = provenance.clone();
                provenance.insert(name.clone(), m);
                rows.push((tuple.concat(table.row(m).unwrap()), provenance));
            }
        }
        join.columns.extend(
            table
                .schema()
                .column_names()
                .iter()
                .map(|c| (name.clone(), c.to_string())),
        );
        join.rows = rows;
        join.tables.push(name);
    }
    join
}

/// Schema shapes: `(child, parent)` foreign-key edges over tables `T0..Tn`.
const SHAPES: [&[(usize, usize)]; 4] = [
    &[(1, 0)],         // T0 ← T1
    &[(1, 0), (2, 1)], // T0 ← T1 ← T2
    &[(1, 0), (2, 0)], // T1 → T0 ← T2
    &[(2, 0), (2, 1)], // T0 ← T2 → T1
];

/// A random database of one shape. Every table has an `id` primary key and
/// a value column; a child has one nullable `p<parent>` column per edge.
/// For its first edge, each parent row gets 0–3 children; every other
/// reference is a live parent, a dangling id or NULL at random, and each
/// child table also gets a few dangling and NULL-keyed rows.
fn random_database(rng: &mut StdRng, shape: &[(usize, usize)]) -> Database {
    let tables = shape.iter().map(|&(c, p)| c.max(p)).max().unwrap() + 1;
    let parents_of = |t: usize| -> Vec<usize> {
        shape
            .iter()
            .filter(|&&(c, _)| c == t)
            .map(|&(_, p)| p)
            .collect()
    };
    let mut db = Database::new();
    for t in 0..tables {
        let mut columns = vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("v", DataType::Int),
        ];
        columns.extend(
            parents_of(t)
                .iter()
                .map(|p| ColumnDef::nullable(format!("p{p}"), DataType::Int)),
        );
        let schema = TableSchema::new(format!("T{t}"), columns)
            .unwrap()
            .with_primary_key(&["id"])
            .unwrap();
        db.add_table(Table::new(schema)).unwrap();
    }
    // Declared while the tables are empty, so dangling rows can follow.
    for &(c, p) in shape {
        db.add_foreign_key(ForeignKey::new(
            format!("T{c}"),
            format!("p{p}"),
            format!("T{p}"),
            "id",
        ))
        .unwrap();
    }
    // Every edge points to a lower-numbered table: fill parents first.
    let mut sizes = vec![0i64; tables];
    for t in 0..tables {
        let parents = parents_of(t);
        let mut refs: Vec<Vec<Value>> = Vec::new();
        match parents.first() {
            None => refs.extend((0..rng.gen_range(0..6usize)).map(|_| Vec::new())),
            Some(&first) => {
                for parent_id in 0..sizes[first] {
                    for _ in 0..rng.gen_range(0..4usize) {
                        refs.push(vec![Value::Int(parent_id)]);
                    }
                }
                for _ in 0..rng.gen_range(0..3usize) {
                    refs.push(vec![Value::Int(90 + rng.gen_range(0..5i64))]);
                }
                for _ in 0..rng.gen_range(0..3usize) {
                    refs.push(vec![Value::Null]);
                }
            }
        }
        for extra in parents.iter().skip(1) {
            for r in &mut refs {
                r.push(match rng.gen_range(0..4u32) {
                    0 => Value::Null,
                    1 => Value::Int(90),
                    _ if sizes[*extra] == 0 => Value::Null,
                    _ => Value::Int(rng.gen_range(0..sizes[*extra])),
                });
            }
        }
        // Shuffle so a parent's children are not contiguous.
        for i in (1..refs.len()).rev() {
            refs.swap(i, rng.gen_range(0..i + 1));
        }
        let table = db.table_mut(&format!("T{t}")).unwrap();
        for (id, r) in refs.into_iter().enumerate() {
            let mut values = vec![Value::Int(id as i64), Value::Int(rng.gen_range(0..3i64))];
            values.extend(r);
            table.insert(Tuple::new(values)).unwrap();
        }
        sizes[t] = table.len() as i64;
    }
    db
}

#[test]
fn compact_provenance_matches_map_provenance() {
    let mut rng = StdRng::seed_from_u64(1805);
    let mut joined_rows = 0;
    for case in 0..300 {
        let shape = SHAPES[case % SHAPES.len()];
        let db = random_database(&mut rng, shape);
        let mut names: Vec<String> = db.table_names().iter().map(|s| s.to_string()).collect();
        for i in (1..names.len()).rev() {
            names.swap(i, rng.gen_range(0..i + 1));
        }

        let compact = foreign_key_join(&db, &names).unwrap();
        let reference = map_join(&db, &names);
        assert_eq!(compact.tables(), reference.tables.as_slice(), "case {case}");
        assert_eq!(compact.len(), reference.rows.len(), "case {case}");
        joined_rows += compact.len();
        for (r, (tuple, provenance)) in reference.rows.iter().enumerate() {
            assert_eq!(&compact.rows()[r].tuple, tuple, "case {case} row {r}");
            assert_eq!(provenance.len(), compact.tables().len());
            for (t, name) in compact.tables().iter().enumerate() {
                assert_eq!(
                    compact.provenance(t)[r],
                    provenance[name],
                    "case {case} row {r} table {name}"
                );
            }
        }

        let index = JoinIndex::build(&compact);
        let reference_index = reference.index();
        for (t, name) in compact.tables().iter().enumerate() {
            let base_rows = db.table(name).unwrap().len();
            for base in 0..base_rows + 2 {
                let expected = reference_index
                    .get(&(name.clone(), base))
                    .map_or(&[][..], Vec::as_slice);
                assert_eq!(
                    index.joined_rows_of(t, base),
                    expected,
                    "case {case} {name} row {base}"
                );
                assert_eq!(index.fan_out(t, base), expected.len());
            }
        }
    }
    assert!(joined_rows > 300, "the schemas join to something");
}
