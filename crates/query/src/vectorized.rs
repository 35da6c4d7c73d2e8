//! Vectorized predicate evaluation over columnar joins.
//!
//! Every atomic term `attr op literal` compiles to a *selection bitmap* — one
//! bit per joined row — computed by a tight typed loop over the column's
//! vector ([`qfe_relation::ColumnData`]): integer/float comparisons run over
//! raw `i64`/`f64` slices, and string comparisons become a dictionary lookup
//! followed by an integer range test on the codes (the dictionary is sorted,
//! so code order is string order).  NULL rows are masked out at the end
//! (comparisons against NULL are never satisfied), and cross-type
//! comparisons constant-fold through the total order on [`Value`].
//!
//! [`TermBitmapCache`] builds the columnar mirror of one join and memoizes
//! bitmaps over it per `(column, operator, literal)`. QBO verifies *many*
//! candidate queries against the *same* join, and their predicates
//! overwhelmingly share terms (QBO enumerates them from the same
//! per-attribute analyses; constant mutation perturbs one term at a time) —
//! so a candidate's selection bitmap is usually assembled purely by AND/OR
//! over cached bitmaps, touching no row data at all. The cache owns its
//! mirror, so its bitmaps can only ever be served for the join they were
//! computed on.
//!
//! The bit-level contract: for every term and row,
//! `bitmap.get(row) == term.eval(row value)` — the vectorized evaluator is
//! exactly the row evaluator, including SQL NULL semantics, the `Int`/`Float`
//! cross-type numeric order, NaN totality and dictionary misses. Property
//! tests in the workspace root enforce this on randomized data.

use std::cmp::Ordering;
use std::collections::HashMap;

use qfe_relation::{float_total_cmp, Bitmap, ColumnData, ColumnarJoin, JoinedRelation, Value};

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

/// The columnar mirror of one join plus a cache of term selection bitmaps
/// over it, shared across every candidate query bound to that join. See the
/// module docs.
#[derive(Debug)]
pub struct TermBitmapCache {
    columnar: ColumnarJoin,
    map: HashMap<(usize, TermShape), Bitmap>,
    hits: u64,
    misses: u64,
}

impl TermBitmapCache {
    /// Builds the columnar mirror of `join`, with nothing cached yet.
    pub fn new(join: &JoinedRelation) -> TermBitmapCache {
        TermBitmapCache {
            columnar: ColumnarJoin::from_join(join),
            map: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// The columnar mirror every cached bitmap is computed against.
    pub fn columnar(&self) -> &ColumnarJoin {
        &self.columnar
    }

    /// The selection bitmap of `term` over column `col` of the mirror,
    /// computed on first use and served from the cache afterwards.
    pub fn term_bitmap(&mut self, col: usize, term: &Term) -> &Bitmap {
        match self.map.entry((col, shape_of(term))) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.hits += 1;
                e.into_mut()
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                self.misses += 1;
                e.insert(compute_term_bitmap(&self.columnar, col, term))
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

/// Whether `op` is satisfied by operands comparing as `ord`.
#[inline]
fn op_matches(op: ComparisonOp, ord: Ordering) -> bool {
    match op {
        ComparisonOp::Eq => ord == Ordering::Equal,
        ComparisonOp::Ne => ord != Ordering::Equal,
        ComparisonOp::Lt => ord == Ordering::Less,
        ComparisonOp::Le => ord != Ordering::Greater,
        ComparisonOp::Gt => ord == Ordering::Greater,
        ComparisonOp::Ge => ord != Ordering::Less,
    }
}

/// Computes the selection bitmap of one term over one column, uncached.
///
/// Bit `r` is set iff `term.eval(value of row r)` — NULL rows are always
/// clear, for every term kind.
pub fn compute_term_bitmap(columnar: &ColumnarJoin, col: usize, term: &Term) -> Bitmap {
    let rows = columnar.len();
    let column = columnar.column(col);
    let mut bitmap = match (&column.data, term) {
        // Comparisons against a NULL literal are never satisfied.
        (_, Term::Compare { value, .. }) if value.is_null() => Bitmap::new(rows),
        (ColumnData::Int(v), Term::Compare { op, value, .. }) => int_compare(v, *op, value),
        (ColumnData::Float(v), Term::Compare { op, value, .. }) => float_compare(v, *op, value),
        (ColumnData::Str { codes, dict }, Term::Compare { op, value, .. }) => {
            str_compare(codes, dict, *op, value, rows)
        }
        (ColumnData::Str { codes, dict }, Term::In { values, .. }) => {
            str_membership(codes, dict, values, false, rows)
        }
        (ColumnData::Str { codes, dict }, Term::NotIn { values, .. }) => {
            str_membership(codes, dict, values, true, rows)
        }
        // Boolean columns: evaluate the term once per truth value, then map.
        (ColumnData::Bool(v), term) => {
            let when = [
                term.eval(&Value::Bool(false)),
                term.eval(&Value::Bool(true)),
            ];
            let mut b = Bitmap::new(rows);
            for (r, &x) in v.iter().enumerate() {
                if when[usize::from(x)] {
                    b.set(r);
                }
            }
            b
        }
        // Numeric membership: stack-allocated Value per row, exact semantics.
        (ColumnData::Int(v), term) => {
            let mut b = Bitmap::new(rows);
            for (r, &x) in v.iter().enumerate() {
                if term.eval(&Value::Int(x)) {
                    b.set(r);
                }
            }
            b
        }
        (ColumnData::Float(v), term) => {
            let mut b = Bitmap::new(rows);
            for (r, &x) in v.iter().enumerate() {
                if term.eval(&Value::Float(x)) {
                    b.set(r);
                }
            }
            b
        }
    };
    bitmap.and_not_assign(&column.nulls);
    bitmap
}

/// `i64` column vs. literal, mirroring `Value::cmp`.
fn int_compare(v: &[i64], op: ComparisonOp, lit: &Value) -> Bitmap {
    let rows = v.len();
    match lit {
        Value::Int(b) => {
            let b = *b;
            fill_by(rows, |r| op_matches(op, v[r].cmp(&b)))
        }
        Value::Float(f) if f.is_nan() => constant_fill(rows, op_matches(op, Ordering::Less)),
        Value::Float(f) => {
            let f = *f;
            fill_by(rows, |r| {
                op_matches(op, (v[r] as f64).partial_cmp(&f).unwrap_or(Ordering::Equal))
            })
        }
        // Variant-rank constant folds: numeric < Text, numeric > Bool.
        Value::Text(_) => constant_fill(rows, op_matches(op, Ordering::Less)),
        Value::Bool(_) => constant_fill(rows, op_matches(op, Ordering::Greater)),
        Value::Null => Bitmap::new(rows),
    }
}

/// `f64` column vs. literal, mirroring `Value::cmp` (NaN sorts greatest and
/// equals itself).
fn float_compare(v: &[f64], op: ComparisonOp, lit: &Value) -> Bitmap {
    let rows = v.len();
    match lit {
        Value::Float(f) => {
            let f = *f;
            fill_by(rows, |r| op_matches(op, float_total_cmp(v[r], f)))
        }
        Value::Int(b) => {
            let b = *b as f64;
            fill_by(rows, |r| {
                let ord = if v[r].is_nan() {
                    Ordering::Greater
                } else {
                    v[r].partial_cmp(&b).unwrap_or(Ordering::Equal)
                };
                op_matches(op, ord)
            })
        }
        Value::Text(_) => constant_fill(rows, op_matches(op, Ordering::Less)),
        Value::Bool(_) => constant_fill(rows, op_matches(op, Ordering::Greater)),
        Value::Null => Bitmap::new(rows),
    }
}

/// Dictionary-coded column vs. literal: one binary search in the sorted
/// dictionary, then an integer range test per code.
fn str_compare(
    codes: &[u32],
    dict: &[String],
    op: ComparisonOp,
    lit: &Value,
    rows: usize,
) -> Bitmap {
    let Value::Text(s) = lit else {
        // Text sorts after every other variant.
        return constant_fill(rows, op_matches(op, Ordering::Greater));
    };
    let probe = dict.binary_search_by(|d| d.as_str().cmp(s.as_str()));
    // `lo` = number of dictionary entries strictly below the literal;
    // `hit` = the literal's own code, when present.
    let (lo, hit) = match probe {
        Ok(p) => (p as u32, Some(p as u32)),
        Err(p) => (p as u32, None),
    };
    match op {
        ComparisonOp::Eq => match hit {
            Some(h) => fill_by(rows, |r| codes[r] == h),
            None => Bitmap::new(rows),
        },
        ComparisonOp::Ne => match hit {
            Some(h) => fill_by(rows, |r| codes[r] != h),
            None => Bitmap::all_set(rows),
        },
        ComparisonOp::Lt => fill_by(rows, |r| codes[r] < lo),
        ComparisonOp::Le => match hit {
            Some(h) => fill_by(rows, |r| codes[r] <= h),
            None => fill_by(rows, |r| codes[r] < lo),
        },
        ComparisonOp::Gt => match hit {
            Some(h) => fill_by(rows, |r| codes[r] > h),
            None => fill_by(rows, |r| codes[r] >= lo),
        },
        ComparisonOp::Ge => fill_by(rows, |r| codes[r] >= lo),
    }
}

/// `IN` / `NOT IN` over a dictionary-coded column: resolve each (textual)
/// member to its code once, then test codes against the member set.
fn str_membership(
    codes: &[u32],
    dict: &[String],
    values: &[Value],
    negate: bool,
    rows: usize,
) -> Bitmap {
    if dict.is_empty() {
        // Every row is NULL (a non-NULL row would have populated the
        // dictionary), so the null mask clears the whole bitmap anyway —
        // and codes hold the placeholder 0, which must not index `member`.
        return Bitmap::new(rows);
    }
    let mut member = vec![false; dict.len()];
    for v in values {
        // Only textual members can equal a text value under the total order.
        if let Value::Text(s) = v {
            if let Ok(p) = dict.binary_search_by(|d| d.as_str().cmp(s.as_str())) {
                member[p] = true;
            }
        }
    }
    fill_by(rows, |r| member[codes[r] as usize] != negate)
}

fn fill_by(rows: usize, f: impl Fn(usize) -> bool) -> Bitmap {
    let mut b = Bitmap::new(rows);
    for r in 0..rows {
        if f(r) {
            b.set(r);
        }
    }
    b
}

fn constant_fill(rows: usize, value: bool) -> Bitmap {
    if value {
        Bitmap::all_set(rows)
    } else {
        Bitmap::new(rows)
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
    /// values — across operators, types, NULLs, NaN, and dictionary misses.
    #[test]
    fn term_bitmaps_agree_with_row_evaluation() {
        let join = setup();
        let cache = TermBitmapCache::new(&join);
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
            Value::Text("bz".into()), // dictionary miss
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
                let bitmap = compute_term_bitmap(cache.columnar(), col, term);
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
        // An all-NULL text column has an empty dictionary while its codes
        // hold the placeholder 0 — IN/NOT IN must select nothing (SQL NULL
        // semantics), not index out of bounds.
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
        let cache = TermBitmapCache::new(&join);
        let col = join.resolve_column("tag").unwrap();
        for term in [
            Term::is_in("tag", vec!["x".into()]),
            Term::not_in("tag", vec!["x".into()]),
            Term::eq("tag", "x"),
        ] {
            let bitmap = compute_term_bitmap(cache.columnar(), col, &term);
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
