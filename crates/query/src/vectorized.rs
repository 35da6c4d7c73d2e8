//! Term selection bitmaps over a join, cached across the queries checked
//! on it.
//!
//! Every atomic term `attr op literal` compiles to a *selection bitmap* —
//! one bit per joined row — computed in one pass over the row join: bit `r`
//! is `row.get(col).is_some_and(|v| term.eval(v))`, the very test
//! [`BoundQuery::matches_row`](crate::BoundQuery::matches_row) applies, so a
//! bitmap is the row evaluator by construction (SQL NULL semantics, the
//! `Int`/`Float` cross-type order and NaN included).
//!
//! [`TermBitmapCache`] owns a clone of one join (its tuples are shared by
//! `Arc`, so the clone copies pointers, not values) and memoizes bitmaps
//! over it per `(column, operator, literal)`. QBO verifies *many* candidate
//! queries against the *same* join, and their predicates overwhelmingly
//! share terms (QBO enumerates them from the same per-attribute analyses;
//! constant mutation perturbs one term at a time) — so a candidate's
//! selection bitmap is usually assembled purely by AND/OR over cached
//! bitmaps, touching no row at all. The cache owns its join, so its bitmaps
//! can only ever be served for the join they were computed on.

use std::collections::HashMap;

use qfe_relation::{Bitmap, JoinedRelation, Value};

use crate::predicate::{ComparisonOp, Term};

/// A literal tagged with its variant. `Value`'s own equality is cross-type
/// (`Int(k) == Float(k as f64)` through a lossy conversion), but an `Int` and
/// a `Float` literal can still select different rows on an `Int` column (the
/// exact `i64` comparison vs. the `f64` one differs beyond 2^53) — so the
/// cache key must keep the variants apart.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct TaggedLiteral(u8, Value);

fn tagged(value: &Value) -> TaggedLiteral {
    let tag = match value {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) => 2,
        Value::Float(_) => 3,
        Value::Text(_) => 4,
    };
    TaggedLiteral(tag, value.clone())
}

/// A term with its attribute name erased — the cache key is the resolved
/// column plus the operator and (variant-tagged) literal(s), so the same
/// comparison reached through a bare and a qualified column reference shares
/// one bitmap, while terms that merely compare `Value`-equal do not.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum TermShape {
    Compare(ComparisonOp, TaggedLiteral),
    In(Vec<TaggedLiteral>),
    NotIn(Vec<TaggedLiteral>),
}

fn shape_of(term: &Term) -> TermShape {
    match term {
        Term::Compare { op, value, .. } => TermShape::Compare(*op, tagged(value)),
        Term::In { values, .. } => TermShape::In(values.iter().map(tagged).collect()),
        Term::NotIn { values, .. } => TermShape::NotIn(values.iter().map(tagged).collect()),
    }
}

/// One join plus a cache of term selection bitmaps over it, shared across
/// every candidate query bound to that join. See the module docs.
#[derive(Debug)]
pub struct TermBitmapCache {
    join: JoinedRelation,
    map: HashMap<(usize, TermShape), Bitmap>,
    hits: u64,
    misses: u64,
}

impl TermBitmapCache {
    /// A cache over (a clone of) `join`, with nothing cached yet.
    pub fn new(join: &JoinedRelation) -> TermBitmapCache {
        TermBitmapCache {
            join: join.clone(),
            map: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// The join every cached bitmap is computed over.
    pub fn join(&self) -> &JoinedRelation {
        &self.join
    }

    /// The selection bitmap of `term` over column `col` of the join,
    /// computed on first use (one pass over the rows) and served from the
    /// cache afterwards.
    pub fn term_bitmap(&mut self, col: usize, term: &Term) -> &Bitmap {
        match self.map.entry((col, shape_of(term))) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.hits += 1;
                e.into_mut()
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                self.misses += 1;
                let rows = self.join.rows();
                let mut bitmap = Bitmap::new(rows.len());
                for (r, row) in rows.iter().enumerate() {
                    if row.tuple.get(col).is_some_and(|v| term.eval(v)) {
                        bitmap.set(r);
                    }
                }
                e.insert(bitmap)
            }
        }
    }

    /// Cache hits served so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (bitmaps computed) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of distinct term bitmaps currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::BoundQuery;
    use crate::predicate::{Conjunct, DnfPredicate};
    use crate::spj::SpjQuery;
    use qfe_relation::{
        foreign_key_join, tuple, ColumnDef, DataType, Database, Table, TableSchema, Tuple,
    };

    fn setup() -> JoinedRelation {
        let t = Table::with_rows(
            TableSchema::new(
                "T",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("name", DataType::Text),
                    ColumnDef::nullable("score", DataType::Float),
                    ColumnDef::nullable("n", DataType::Int),
                ],
            )
            .unwrap()
            .with_primary_key(&["id"])
            .unwrap(),
            vec![
                tuple![1i64, "bob", 1.5, 10i64],
                Tuple::new(vec![
                    Value::Int(2),
                    Value::Text("alice".into()),
                    Value::Null,
                    Value::Int(20),
                ]),
                tuple![3i64, "carol", 2.0, 10i64],
                Tuple::new(vec![
                    Value::Int(4),
                    Value::Text("dan".into()),
                    Value::Float(f64::NAN),
                    Value::Null,
                ]),
            ],
        )
        .unwrap();
        let mut db = Database::new();
        db.add_table(t).unwrap();
        foreign_key_join(&db, &["T".to_string()]).unwrap()
    }

    /// Every term bitmap must agree bit-for-bit with `Term::eval` on the row
    /// values — across operators, types, NULLs, NaN, and literals absent
    /// from the column.
    #[test]
    fn term_bitmaps_agree_with_row_evaluation() {
        let join = setup();
        let mut cache = TermBitmapCache::new(&join);
        let ops = [
            ComparisonOp::Eq,
            ComparisonOp::Ne,
            ComparisonOp::Lt,
            ComparisonOp::Le,
            ComparisonOp::Gt,
            ComparisonOp::Ge,
        ];
        let literals: Vec<Value> = vec![
            Value::Int(10),
            Value::Int(15),
            Value::Float(1.5),
            Value::Float(f64::NAN),
            Value::Text("bob".into()),
            Value::Text("bz".into()), // absent from the column
            Value::Bool(true),
            Value::Null,
        ];
        let mut terms: Vec<Term> = Vec::new();
        for op in ops {
            for lit in &literals {
                terms.push(Term::Compare {
                    attribute: "x".into(),
                    op,
                    value: lit.clone(),
                });
            }
        }
        terms.push(Term::is_in("x", vec!["bob".into(), "dan".into()]));
        terms.push(Term::not_in("x", vec!["bob".into()]));
        terms.push(Term::is_in("x", vec![Value::Int(10), Value::Float(1.5)]));
        terms.push(Term::not_in("x", vec![Value::Int(10)]));

        for col in 0..join.arity() {
            for term in &terms {
                let bitmap = cache.term_bitmap(col, term).clone();
                for (r, jr) in join.rows().iter().enumerate() {
                    let v = jr.tuple.get(col).cloned().unwrap_or(Value::Null);
                    assert_eq!(
                        bitmap.get(r),
                        term.eval(&v),
                        "col {col} row {r} term {term} value {v:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn cache_hits_on_repeated_terms() {
        let join = setup();
        let mut cache = TermBitmapCache::new(&join);
        assert!(cache.is_empty());
        let term = Term::eq("name", "bob");
        let col = join.resolve_column("name").unwrap();
        let first = cache.term_bitmap(col, &term).clone();
        assert_eq!(cache.misses(), 1);
        let second = cache.term_bitmap(col, &term).clone();
        assert_eq!(cache.hits(), 1);
        assert_eq!(first, second);
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn membership_on_an_all_null_text_column_is_empty_not_a_panic() {
        // IN/NOT IN over an all-NULL text column must select nothing (SQL
        // NULL semantics).
        let t = Table::with_rows(
            TableSchema::new(
                "N",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::nullable("tag", DataType::Text),
                ],
            )
            .unwrap()
            .with_primary_key(&["id"])
            .unwrap(),
            vec![
                Tuple::new(vec![Value::Int(1), Value::Null]),
                Tuple::new(vec![Value::Int(2), Value::Null]),
            ],
        )
        .unwrap();
        let mut db = Database::new();
        db.add_table(t).unwrap();
        let join = foreign_key_join(&db, &["N".to_string()]).unwrap();
        let mut cache = TermBitmapCache::new(&join);
        let col = join.resolve_column("tag").unwrap();
        for term in [
            Term::is_in("tag", vec!["x".into()]),
            Term::not_in("tag", vec!["x".into()]),
            Term::eq("tag", "x"),
        ] {
            let bitmap = cache.term_bitmap(col, &term);
            assert!(bitmap.is_zero(), "{term}: NULL rows never match");
        }
    }

    #[test]
    fn cache_distinguishes_value_equal_int_and_float_literals() {
        // Int(2^53 + 1) and Float(2^53) compare Value-equal (the cross-type
        // order converts through f64, which rounds), yet they select
        // different rows of an Int column — the cache key must keep them
        // apart.
        let big = (1i64 << 53) + 1;
        let twin = Value::Float((1i64 << 53) as f64);
        assert_eq!(Value::Int(big), twin, "premise: Value-equal literals");
        let t = Table::with_rows(
            TableSchema::new(
                "B",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("n", DataType::Int),
                ],
            )
            .unwrap()
            .with_primary_key(&["id"])
            .unwrap(),
            vec![tuple![1i64, 1i64 << 53], tuple![2i64, big]],
        )
        .unwrap();
        let mut db = Database::new();
        db.add_table(t).unwrap();
        let join = foreign_key_join(&db, &["B".to_string()]).unwrap();
        let col = join.resolve_column("n").unwrap();
        let mut cache = TermBitmapCache::new(&join);

        let exact = Term::Compare {
            attribute: "n".into(),
            op: ComparisonOp::Eq,
            value: Value::Int(big),
        };
        let rounded = Term::Compare {
            attribute: "n".into(),
            op: ComparisonOp::Eq,
            value: twin,
        };
        let b_exact = cache.term_bitmap(col, &exact).clone();
        let b_rounded = cache.term_bitmap(col, &rounded).clone();
        assert_eq!(cache.misses(), 2, "distinct cache entries");
        assert_ne!(b_exact, b_rounded);
        for (r, jr) in join.rows().iter().enumerate() {
            let v = jr.tuple.get(col).unwrap();
            assert_eq!(b_exact.get(r), exact.eval(v));
            assert_eq!(b_rounded.get(r), rounded.eval(v));
        }
    }

    #[test]
    fn selection_bitmap_assembles_dnf_from_cached_terms() {
        let join = setup();
        let mut cache = TermBitmapCache::new(&join);
        let query = SpjQuery::new(
            vec!["T"],
            vec!["name"],
            DnfPredicate::new(vec![
                Conjunct::new(vec![
                    Term::compare("n", ComparisonOp::Ge, 10i64),
                    Term::compare("score", ComparisonOp::Le, 1.75f64),
                ]),
                Conjunct::new(vec![Term::eq("name", "carol")]),
            ]),
        );
        let bound = BoundQuery::bind(&query, &join).unwrap();
        let bitmap = bound.selection_bitmap(&mut cache);
        for (r, jr) in join.rows().iter().enumerate() {
            assert_eq!(bitmap.get(r), bound.matches_row(&jr.tuple), "row {r}");
        }
        // Re-evaluating hits the cache for all three terms.
        let before = cache.hits();
        let _ = bound.selection_bitmap(&mut cache);
        assert_eq!(cache.hits(), before + 3);
    }

    #[test]
    fn always_true_predicate_selects_every_row_including_nulls() {
        let join = setup();
        let mut cache = TermBitmapCache::new(&join);
        let query = SpjQuery::new(vec!["T"], vec!["name"], DnfPredicate::always_true());
        let bound = BoundQuery::bind(&query, &join).unwrap();
        let bitmap = bound.selection_bitmap(&mut cache);
        assert_eq!(bitmap.count_ones(), join.len());
    }
}
