//! Property-based tests for the core invariants: the table edit distance,
//! query-result comparison, domain partitioning, tuple-class consistency,
//! the termination of the QFE driver, Algorithm 4 against the extension
//! loop it replaced, and its realization and evaluation of a candidate set
//! against the per-candidate code they replaced.
//!
//! The build environment has no crates.io access, so instead of proptest the
//! cases are drawn from the workspace's deterministic seeded RNG: each
//! property runs against a few dozen seeded random instances, which keeps the
//! tests reproducible run to run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qfe::prelude::*;
use qfe_core::{partition_numeric_domain, ActiveDomains, TupleClassSpace};
use qfe_query::{evaluate, partition_queries, BoundQuery, Term};
use qfe_relation::{
    bag_equal_rows, foreign_key_join, min_edit_rows, ColumnDef, JoinedRelation, Table, TableSchema,
    Tuple, Value,
};

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

const DEPTS: [&str; 4] = ["IT", "Sales", "Service", "HR"];

/// A small Employee-like row set with random salaries/departments and unique
/// keys.
fn employee_rows(rng: &mut StdRng) -> Vec<(i64, String, i64)> {
    let n = rng.gen_range(2usize..12);
    (0..n)
        .map(|i| {
            (
                i as i64,
                DEPTS[rng.gen_range(0..DEPTS.len())].to_string(),
                rng.gen_range(1000i64..9000),
            )
        })
        .collect()
}

fn build_employee(rows: &[(i64, String, i64)]) -> Database {
    let schema = TableSchema::new(
        "Employee",
        vec![
            ColumnDef::new("Eid", DataType::Int),
            ColumnDef::new("dept", DataType::Text),
            ColumnDef::new("salary", DataType::Int),
        ],
    )
    .unwrap()
    .with_primary_key(&["Eid"])
    .unwrap();
    let tuples: Vec<Tuple> = rows
        .iter()
        .map(|(id, dept, salary)| {
            Tuple::new(vec![
                Value::Int(*id),
                Value::Text(dept.clone()),
                Value::Int(*salary),
            ])
        })
        .collect();
    let mut db = Database::new();
    db.add_table(Table::with_rows(schema, tuples).unwrap())
        .unwrap();
    db
}

/// Random small multisets of arity-3 integer tuples with tiny domains, so
/// collisions (equal rows) actually happen.
fn tuple_rows(rng: &mut StdRng) -> Vec<Tuple> {
    let n = rng.gen_range(0usize..8);
    (0..n)
        .map(|_| Tuple::new((0..3).map(|_| Value::Int(rng.gen_range(0i64..6))).collect()))
        .collect()
}

// ---------------------------------------------------------------------------
// minEdit properties
// ---------------------------------------------------------------------------

#[test]
fn min_edit_is_a_sane_distance() {
    let mut rng = StdRng::seed_from_u64(101);
    for _ in 0..64 {
        let ta = tuple_rows(&mut rng);
        let tb = tuple_rows(&mut rng);
        let d_ab = min_edit_rows(&ta, &tb, 3);
        let d_ba = min_edit_rows(&tb, &ta, 3);
        assert_eq!(d_ab, d_ba, "minEdit must be symmetric");
        assert_eq!(d_ab == 0, bag_equal_rows(&ta, &tb));
        assert!(d_ab <= (ta.len() + tb.len()) * 3);
        assert_eq!(min_edit_rows(&ta, &ta, 3), 0);
    }
}

#[test]
fn single_modification_costs_one() {
    let mut rng = StdRng::seed_from_u64(102);
    for _ in 0..64 {
        let ta = tuple_rows(&mut rng);
        if ta.is_empty() {
            continue;
        }
        let idx = rng.gen_range(0..ta.len());
        let col = rng.gen_range(0usize..3);
        let delta = rng.gen_range(1i64..5);
        let mut tb = ta.clone();
        let old = tb[idx].get(col).unwrap().as_i64().unwrap();
        tb[idx].set(col, Value::Int(old + 10 + delta)); // guaranteed change
        assert_eq!(min_edit_rows(&ta, &tb, 3), 1);
    }
}

// ---------------------------------------------------------------------------
// Domain partitioning and tuple classes
// ---------------------------------------------------------------------------

#[test]
fn numeric_partition_is_a_partition() {
    let mut rng = StdRng::seed_from_u64(103);
    for _ in 0..64 {
        let constants: Vec<i64> = (0..rng.gen_range(1usize..5))
            .map(|_| rng.gen_range(-50i64..50))
            .collect();
        let terms: Vec<Term> = constants
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let op = match i % 4 {
                    0 => ComparisonOp::Lt,
                    1 => ComparisonOp::Le,
                    2 => ComparisonOp::Gt,
                    _ => ComparisonOp::Ge,
                };
                Term::compare("A", op, c)
            })
            .collect();
        let term_refs: Vec<&Term> = terms.iter().collect();
        let blocks = partition_numeric_domain(&term_refs, &[]);
        for _ in 0..20 {
            let v = Value::Int(rng.gen_range(-60i64..60));
            let containing: Vec<usize> = blocks
                .iter()
                .enumerate()
                .filter(|(_, b)| b.contains(&v))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(
                containing.len(),
                1,
                "value {v} must lie in exactly one block"
            );
            let block = &blocks[containing[0]];
            for t in &terms {
                assert_eq!(t.eval(&v), t.eval(block.representative()));
            }
        }
    }
}

#[test]
fn tuple_classes_agree_with_evaluation() {
    let mut rng = StdRng::seed_from_u64(104);
    for _ in 0..64 {
        let rows = employee_rows(&mut rng);
        let threshold = rng.gen_range(2000i64..8000);
        let db = build_employee(&rows);
        let queries = vec![
            SpjQuery::new(
                vec!["Employee"],
                vec!["Eid"],
                DnfPredicate::single(Term::compare("salary", ComparisonOp::Gt, threshold)),
            ),
            SpjQuery::new(
                vec!["Employee"],
                vec!["Eid"],
                DnfPredicate::single(Term::eq("dept", "IT")),
            ),
        ];
        let join = foreign_key_join(&db, &["Employee".to_string()]).unwrap();
        let space = TupleClassSpace::build(&join, &ActiveDomains::new(&join), &queries).unwrap();
        let bound: Vec<BoundQuery> = queries
            .iter()
            .map(|q| BoundQuery::bind(q, &join).unwrap())
            .collect();
        for row in join.rows() {
            let class = space.classify(&row.tuple).unwrap();
            for b in &bound {
                assert_eq!(space.class_matches(&class, b), b.matches_row(&row.tuple));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Partitioning and driver termination
// ---------------------------------------------------------------------------

#[test]
fn result_partition_is_a_partition() {
    let mut rng = StdRng::seed_from_u64(105);
    for _ in 0..32 {
        let rows = employee_rows(&mut rng);
        let t1 = rng.gen_range(2000i64..8000);
        let t2 = rng.gen_range(2000i64..8000);
        let db = build_employee(&rows);
        let queries = vec![
            SpjQuery::new(
                vec!["Employee"],
                vec!["Eid"],
                DnfPredicate::single(Term::compare("salary", ComparisonOp::Gt, t1)),
            ),
            SpjQuery::new(
                vec!["Employee"],
                vec!["Eid"],
                DnfPredicate::single(Term::compare("salary", ComparisonOp::Le, t2)),
            ),
            SpjQuery::new(
                vec!["Employee"],
                vec!["Eid"],
                DnfPredicate::single(Term::eq("dept", "Sales")),
            ),
        ];
        let partition = partition_queries(&queries, &db).unwrap();
        let total: usize = partition.sizes().iter().sum();
        assert_eq!(total, queries.len());
        for (i, g) in partition.groups.iter().enumerate() {
            for h in partition.groups.iter().skip(i + 1) {
                assert!(!g.result.bag_equal(&h.result));
            }
            for &qi in &g.query_indices {
                assert!(evaluate(&queries[qi], &db).unwrap().bag_equal(&g.result));
            }
        }
    }
}

#[test]
fn driver_terminates_and_is_consistent() {
    let mut rng = StdRng::seed_from_u64(106);
    for _ in 0..24 {
        let rows = employee_rows(&mut rng);
        let threshold = rng.gen_range(2000i64..8000);
        let db = build_employee(&rows);
        let target = SpjQuery::new(
            vec!["Employee"],
            vec!["Eid"],
            DnfPredicate::single(Term::compare("salary", ComparisonOp::Gt, threshold)),
        );
        let result = evaluate(&target, &db).unwrap();
        if result.is_empty() {
            continue;
        }
        let session = QfeSession::builder(db.clone(), result.clone())
            .ensure_candidate(target.clone())
            .with_params(
                CostParams::default().with_skyline_budget(std::time::Duration::from_millis(10)),
            )
            .build();
        let session = match session {
            Ok(s) => s,
            Err(_) => continue, // degenerate data: no candidates
        };
        match session.run(&OracleUser::new(target.clone())) {
            Ok(outcome) => {
                assert!(evaluate(&outcome.query, &db).unwrap().bag_equal(&result));
                assert!(outcome.report.iterations() <= 64);
            }
            // The oracle's target may be pruned if the generated candidate set
            // does not contain it distinguishably; reporting that is
            // acceptable, silent hangs are not.
            Err(QfeError::TargetNotInCandidates) => {}
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Parallel skyline determinism
// ---------------------------------------------------------------------------

/// A random schema/query mix that exercises categorical and numeric
/// attributes, multi-conjunct predicates, and varying class-space sizes.
fn random_candidates(rng: &mut StdRng) -> Vec<SpjQuery> {
    let mut queries = Vec::new();
    let n = rng.gen_range(2usize..7);
    for _ in 0..n {
        let threshold = rng.gen_range(1000i64..9000);
        let predicate = match rng.gen_range(0u8..4) {
            0 => DnfPredicate::single(Term::compare("salary", ComparisonOp::Gt, threshold)),
            1 => DnfPredicate::single(Term::compare("salary", ComparisonOp::Le, threshold)),
            2 => DnfPredicate::single(Term::eq("dept", DEPTS[rng.gen_range(0..DEPTS.len())])),
            _ => DnfPredicate::new(vec![
                qfe_query::Conjunct::new(vec![Term::eq(
                    "dept",
                    DEPTS[rng.gen_range(0..DEPTS.len())],
                )]),
                qfe_query::Conjunct::new(vec![Term::compare(
                    "salary",
                    ComparisonOp::Ge,
                    threshold,
                )]),
            ]),
        };
        queries.push(SpjQuery::new(vec!["Employee"], vec!["Eid"], predicate));
    }
    queries
}

#[test]
fn bitset_class_matching_agrees_with_bound_evaluation_on_random_schemas() {
    use qfe_core::GenerationContext;
    let mut rng = StdRng::seed_from_u64(108);
    for _ in 0..32 {
        let rows = employee_rows(&mut rng);
        let db = build_employee(&rows);
        let queries = random_candidates(&mut rng);
        let result = evaluate(&queries[0], &db).unwrap();
        let ctx = match GenerationContext::new(&db, &result, &queries) {
            Ok(c) => c,
            Err(_) => continue,
        };
        for row in ctx.join().rows() {
            let Some(class) = ctx.class_space().classify(&row.tuple) else {
                continue;
            };
            for (qi, bound) in ctx.bound_queries().iter().enumerate() {
                assert_eq!(
                    ctx.class_matches(&class, qi),
                    bound.matches_row(&row.tuple),
                    "kernel matching must agree with direct evaluation"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cached term bitmaps == row evaluation
// ---------------------------------------------------------------------------

const NAMES: [&str; 5] = ["alice", "bob", "carol", "dan", "eve"];

/// A table with a text column, a nullable float column (holding NaN and
/// both zeros now and then) and a nullable int column, with random NULL
/// patterns — the shapes bitmap evaluation must get exactly right.
fn build_mixed(rng: &mut StdRng) -> Database {
    let schema = TableSchema::new(
        "T",
        vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("name", DataType::Text),
            ColumnDef::nullable("score", DataType::Float),
            ColumnDef::nullable("qty", DataType::Int),
        ],
    )
    .unwrap()
    .with_primary_key(&["id"])
    .unwrap();
    let n = rng.gen_range(3usize..14);
    let rows: Vec<Tuple> = (0..n)
        .map(|i| {
            let score = match rng.gen_range(0u8..16) {
                0..=3 => Value::Null,
                4 => Value::Float(f64::NAN),
                5 => Value::Float(-0.0),
                _ => Value::Float(rng.gen_range(-50i64..50) as f64 / 10.0),
            };
            let qty = if rng.gen_bool(0.25) {
                Value::Null
            } else {
                Value::Int(rng.gen_range(0i64..6))
            };
            Tuple::new(vec![
                Value::Int(i as i64),
                Value::Text(NAMES[rng.gen_range(0..NAMES.len())].to_string()),
                score,
                qty,
            ])
        })
        .collect();
    let mut db = Database::new();
    db.add_table(Table::with_rows(schema, rows).unwrap())
        .unwrap();
    db
}

/// A random atomic term over the mixed table, including NULL literals,
/// cross-type comparisons (Int literal on the Float column and vice versa),
/// NaN and signed-zero literals, literals absent from the column and IN/NOT
/// IN lists.
fn random_mixed_term(rng: &mut StdRng) -> Term {
    let ops = [
        ComparisonOp::Eq,
        ComparisonOp::Ne,
        ComparisonOp::Lt,
        ComparisonOp::Le,
        ComparisonOp::Gt,
        ComparisonOp::Ge,
    ];
    let op = ops[rng.gen_range(0..ops.len())];
    match rng.gen_range(0u8..5) {
        0 => {
            let lit = match rng.gen_range(0u8..4) {
                0 => Value::Text(NAMES[rng.gen_range(0..NAMES.len())].to_string()),
                1 => Value::Text("zz-not-in-the-column".to_string()),
                2 => Value::Int(3), // cross-type vs. text
                _ => Value::Null,
            };
            Term::Compare {
                attribute: "name".to_string(),
                op,
                value: lit,
            }
        }
        1 => {
            let lit = match rng.gen_range(0u8..6) {
                0 => Value::Float(rng.gen_range(-50i64..50) as f64 / 10.0),
                1 => Value::Int(rng.gen_range(-5i64..5)), // cross-type vs. float
                2 => Value::Float(f64::NAN),
                3 => Value::Float(if rng.gen_bool(0.5) { 0.0 } else { -0.0 }),
                _ => Value::Null,
            };
            Term::Compare {
                attribute: "score".to_string(),
                op,
                value: lit,
            }
        }
        2 => {
            let lit = match rng.gen_range(0u8..3) {
                0 => Value::Int(rng.gen_range(-1i64..7)),
                // Midpoint floats vs. the int column.
                1 => Value::Float(rng.gen_range(0i64..6) as f64 + 0.5),
                _ => Value::Null,
            };
            Term::Compare {
                attribute: "qty".to_string(),
                op,
                value: lit,
            }
        }
        3 => {
            let k = rng.gen_range(1usize..4);
            let values: Vec<Value> = (0..k)
                .map(|_| Value::Text(NAMES[rng.gen_range(0..NAMES.len())].to_string()))
                .collect();
            if rng.gen_bool(0.5) {
                Term::is_in("name", values)
            } else {
                Term::not_in("name", values)
            }
        }
        _ => {
            let k = rng.gen_range(1usize..4);
            let values: Vec<Value> = (0..k).map(|_| Value::Int(rng.gen_range(0i64..6))).collect();
            if rng.gen_bool(0.5) {
                Term::is_in("qty", values)
            } else {
                Term::not_in("qty", values)
            }
        }
    }
}

/// A random SPJ query over the mixed table: 1–3 conjuncts of 1–3 terms, a
/// random projection, sometimes DISTINCT.
fn random_mixed_query(rng: &mut StdRng) -> SpjQuery {
    let conjuncts: Vec<qfe_query::Conjunct> = (0..rng.gen_range(1usize..4))
        .map(|_| {
            qfe_query::Conjunct::new(
                (0..rng.gen_range(1usize..4))
                    .map(|_| random_mixed_term(rng))
                    .collect(),
            )
        })
        .collect();
    let projection = match rng.gen_range(0u8..3) {
        0 => vec!["name"],
        1 => vec!["qty", "name"],
        _ => vec!["id"],
    };
    let q = SpjQuery::new(vec!["T"], projection, DnfPredicate::new(conjuncts));
    if rng.gen_bool(0.25) {
        q.with_distinct(true)
    } else {
        q
    }
}

/// The row evaluator's result of `query` over `join`.
fn row_evaluate(query: &SpjQuery, join: &JoinedRelation) -> qfe_query::Result<QueryResult> {
    Ok(BoundQuery::bind(query, join)?.evaluate(join))
}

/// A query's selection bitmap, assembled from the term-bitmap cache (one
/// cache carried across each instance's queries, so later queries are
/// served partly from earlier ones' bitmaps), equals `matches_row` on every
/// row, and materializes to the row evaluator's result.
#[test]
fn columnar_evaluation_equals_row_evaluation_on_random_schemas() {
    use qfe_query::TermBitmapCache;
    let mut rng = StdRng::seed_from_u64(109);
    let mut hits = 0;
    for _ in 0..48 {
        let db = build_mixed(&mut rng);
        let join = foreign_key_join(&db, &["T".to_string()]).unwrap();
        let mut cache = TermBitmapCache::new(&join);
        for _ in 0..8 {
            let query = random_mixed_query(&mut rng);
            let bound = BoundQuery::bind(&query, &join).unwrap();
            // Bit-level agreement of the selection bitmap with the row
            // evaluator...
            let bitmap = bound.selection_bitmap(&mut cache);
            for (r, jr) in join.rows().iter().enumerate() {
                assert_eq!(
                    bitmap.get(r),
                    bound.matches_row(&jr.tuple),
                    "row {r} of {query}"
                );
            }
            // ...and row-for-row agreement of the materialized results.
            let row_result = row_evaluate(&query, &join).unwrap();
            let col_result = bound.materialize_selection(&join, &bitmap);
            assert_eq!(row_result.rows(), col_result.rows(), "{query}");
        }
        hits += cache.hits();
    }
    assert!(hits > 0, "some term lookups must be served from the cache");
}

/// [`build_mixed`] plus a child table `U(uid, tid → T.id)` holding 0–2 rows
/// per `T` row, so the foreign-key join repeats (and drops) parent rows.
fn build_mixed_with_child(rng: &mut StdRng) -> Database {
    let mut db = build_mixed(rng);
    let parents = db.table("T").unwrap().len() as i64;
    let schema = TableSchema::new(
        "U",
        vec![
            ColumnDef::new("uid", DataType::Int),
            ColumnDef::new("tid", DataType::Int),
        ],
    )
    .unwrap()
    .with_primary_key(&["uid"])
    .unwrap();
    let mut rows = Vec::new();
    for tid in 0..parents {
        for _ in 0..rng.gen_range(0usize..3) {
            rows.push(Tuple::new(vec![
                Value::Int(rows.len() as i64),
                Value::Int(tid),
            ]));
        }
    }
    db.add_table(Table::with_rows(schema, rows).unwrap())
        .unwrap();
    db.add_foreign_key(qfe_relation::ForeignKey::new("U", "tid", "T", "id"))
        .unwrap();
    db
}

/// A copy of `query` with its first resolvable comparison constant swapped
/// for another value of that column's active domain in `join` — the shape of
/// a constant mutation, which shares every other term with its source.
fn swap_one_constant(
    rng: &mut StdRng,
    query: &SpjQuery,
    join: &qfe_relation::JoinedRelation,
) -> Option<SpjQuery> {
    let mut conjuncts = query.predicate.conjuncts().to_vec();
    for conjunct in conjuncts.iter_mut() {
        let mut terms = conjunct.terms().to_vec();
        for term in terms.iter_mut() {
            let Term::Compare {
                attribute, value, ..
            } = term
            else {
                continue;
            };
            let Ok(col) = join.resolve_column(attribute) else {
                continue;
            };
            let others: Vec<Value> = join
                .active_domain(col)
                .into_iter()
                .filter(|v| v != value)
                .collect();
            if others.is_empty() {
                continue;
            }
            *value = others[rng.gen_range(0..others.len())].clone();
            *conjunct = qfe_query::Conjunct::new(terms);
            let mut swapped = query.clone();
            swapped.predicate = DnfPredicate::new(conjuncts);
            return Some(swapped);
        }
    }
    None
}

#[test]
fn verify_batch_agrees_with_per_query_row_verification() {
    use qfe_qbo::{BatchVerifier, VerifyStats};
    let mut rng = StdRng::seed_from_u64(111);
    let mut stats = VerifyStats::default();
    for case in 0..32 {
        // Alternate a single table with a two-table foreign-key join.
        let (db, tables) = if case % 2 == 0 {
            (build_mixed(&mut rng), vec!["T".to_string()])
        } else {
            (
                build_mixed_with_child(&mut rng),
                vec!["T".to_string(), "U".to_string()],
            )
        };
        let join = foreign_key_join(&db, &tables).unwrap();
        let mut frontier: Vec<SpjQuery> = (0..12)
            .map(|_| {
                let mut q = random_mixed_query(&mut rng);
                q.tables = tables.clone();
                q
            })
            .collect();
        // Constant-swapped copies share all but one term with their source.
        let swapped: Vec<SpjQuery> = frontier
            .iter()
            .filter_map(|q| swap_one_constant(&mut rng, q, &join))
            .collect();
        frontier.extend(swapped);
        // An unresolvable attribute must count as unverified, not error.
        frontier.push(SpjQuery::new(
            tables.clone(),
            vec!["name"],
            DnfPredicate::single(Term::eq("wage", 1i64)),
        ));
        let expected = row_evaluate(&frontier[0], &join).unwrap();
        let verify_all = |verifier: &mut BatchVerifier| -> Vec<bool> {
            frontier.iter().map(|q| verifier.verify(q)).collect()
        };
        let verdicts = verify_all(&mut BatchVerifier::new(&join, &expected));
        assert_eq!(verdicts.len(), frontier.len());
        assert!(verdicts[0], "a query always reproduces its own result");
        for (query, &v) in frontier.iter().zip(&verdicts) {
            let row_verdict = row_evaluate(query, &join)
                .map(|r| r.bag_equal(&expected))
                .unwrap_or(false);
            assert_eq!(v, row_verdict, "{query}");
        }
        let mut verifier = BatchVerifier::new(&join, &expected);
        assert_eq!(verify_all(&mut verifier), verdicts);
        stats.absorb(&verifier.stats());
    }
    // The run must reach the verifier's caches, not only its cold path.
    assert!(stats.term_bitmap_hits > 0, "{stats:?}");
    assert!(stats.signature_hits > 0, "{stats:?}");
}

#[test]
fn qbo_candidates_and_grown_candidates_reproduce_the_result() {
    use qfe_qbo::{grow_candidates, QueryGenerator};
    let mut rng = StdRng::seed_from_u64(112);
    let (mut checked, mut grown_total) = (0, 0);
    for _ in 0..16 {
        let rows = employee_rows(&mut rng);
        let db = build_employee(&rows);
        let target = SpjQuery::new(
            vec!["Employee"],
            vec!["Eid"],
            DnfPredicate::single(Term::compare(
                "salary",
                ComparisonOp::Gt,
                rng.gen_range(2000i64..8000),
            )),
        );
        let result = evaluate(&target, &db).unwrap();
        if result.is_empty() {
            continue;
        }
        let Ok(generated) = QueryGenerator::default().generate(&db, &result) else {
            continue;
        };
        let grown = grow_candidates(&db, &result, &generated, generated.len() + 8).unwrap();
        assert_eq!(grown[..generated.len()], generated[..]);
        grown_total += grown.len() - generated.len();
        for query in &grown {
            assert!(
                evaluate(query, &db).unwrap().bag_equal(&result),
                "{query} does not reproduce R"
            );
        }
        checked += 1;
    }
    assert!(checked >= 8, "too few non-degenerate random instances");
    assert!(grown_total > 0, "no instance grew a mutated candidate");
}

// ---------------------------------------------------------------------------
// Algorithm 4 == the extension loop it replaced
// ---------------------------------------------------------------------------

/// The caps of `pick_stc_dtc_subset`.
const MAX_SETS_PER_LEVEL: usize = 256;
const MAX_COST_EVALUATIONS: usize = 4096;

/// What the reference loop did besides its result.
#[derive(Debug, Default)]
struct ReferenceRun {
    level_cap_hit: bool,
    evaluation_cap_hit: bool,
    /// Some minimum-cost tie was broken by Step 22.
    cost_tie: bool,
}

/// Lemma 5.1's outcome code (`0` Unchanged, `1` Added, `2` Removed, `3`
/// Replaced) of `pair` for query `q`, from the public class matching.
fn reference_code(ctx: &qfe_core::GenerationContext, pair: &qfe_core::ClassPair, q: usize) -> u8 {
    let attributes = ctx.class_space().attributes();
    let projection_changed = pair
        .changed_attributes
        .iter()
        .any(|&pos| ctx.projection_columns().contains(&attributes[pos].column));
    match (
        ctx.class_matches(&pair.source, q),
        ctx.class_matches(&pair.destination, q),
    ) {
        (false, false) => 0,
        (false, true) => 1,
        (true, false) => 2,
        (true, true) => 3 * u8::from(projection_changed),
    }
}

/// Class-level partition sizes of `pool[indices]` by the three paths the
/// subset search used to take: per-outcome counts for one pair, a sort of
/// 2-bit-per-pair packed keys up to 32 pairs, explicit signatures beyond.
/// `codes[p][q]` is [`reference_code`] of `pool[p]` for query `q`.
fn reference_partition_sizes(codes: &[Vec<u8>], nq: usize, indices: &[usize]) -> Vec<usize> {
    if indices.is_empty() {
        return vec![nq];
    }
    if indices.len() == 1 {
        let mut counts = [0usize; 4];
        for &code in &codes[indices[0]] {
            counts[usize::from(code)] += 1;
        }
        return counts.into_iter().filter(|&c| c > 0).collect();
    }
    if indices.len() <= 32 {
        let mut keys: Vec<u64> = (0..nq)
            .map(|q| {
                indices
                    .iter()
                    .enumerate()
                    .fold(0u64, |key, (i, &p)| key | u64::from(codes[p][q]) << (2 * i))
            })
            .collect();
        keys.sort_unstable();
        let mut sizes = vec![1usize];
        for w in keys.windows(2) {
            if w[0] == w[1] {
                *sizes.last_mut().unwrap() += 1;
            } else {
                sizes.push(1);
            }
        }
        return sizes;
    }
    let mut groups: std::collections::BTreeMap<Vec<u8>, usize> = Default::default();
    let signatures = (0..nq).map(|q| indices.iter().map(|&p| codes[p][q]).collect());
    for signature in signatures {
        *groups.entry(signature).or_insert(0) += 1;
    }
    groups.into_values().collect()
}

/// [`reference_code`] of every pair of `pool` for every query.
fn reference_codes(
    ctx: &qfe_core::GenerationContext,
    pool: &[qfe_core::ClassPair],
) -> Vec<Vec<u8>> {
    pool.iter()
        .map(|pair| {
            (0..ctx.query_count())
                .map(|q| reference_code(ctx, pair, q))
                .collect()
        })
        .collect()
}

/// The realization as it ran with `String`-keyed cell bookkeeping: every
/// pair sorts its free source-class members by (fan-out, join row) and takes
/// the first whose cells are unedited. `skipped` counts the members passed
/// over because an earlier pair edited one of their cells.
fn reference_realize_pairs(
    ctx: &qfe_core::GenerationContext,
    pairs: &[qfe_core::ClassPair],
    skipped: &mut usize,
) -> Option<qfe_core::RealizedModification> {
    use qfe_core::{CellEdit, RealizedModification};
    use std::collections::BTreeSet;
    let mut used_join_rows: BTreeSet<usize> = BTreeSet::new();
    let mut edited_cells: BTreeSet<(String, usize, String)> = BTreeSet::new();
    let mut edits: Vec<CellEdit> = Vec::new();
    for pair in pairs {
        for &pos in &pair.changed_attributes {
            if !ctx.block_realizable(pos, pair.destination[pos]) {
                return None;
            }
        }
        let members = ctx.source_classes().get(&pair.source)?;
        let join = ctx.join();
        let tables: Vec<usize> = pair
            .changed_attributes
            .iter()
            .map(|&pos| join.table_position(&ctx.class_space().attributes()[pos].table))
            .collect::<Option<_>>()?;
        let mut candidates: Vec<(usize, usize)> = members
            .iter()
            .filter(|r| !used_join_rows.contains(r))
            .map(|&jrow| {
                let fan_out: usize = tables
                    .iter()
                    .map(|&t| ctx.join_index().fan_out(t, join.provenance(t)[jrow]))
                    .sum();
                (fan_out, jrow)
            })
            .collect();
        candidates.sort_unstable();
        let mut realized_this_pair = false;
        'candidate: for (_, jrow) in candidates {
            let mut pair_edits: Vec<CellEdit> = Vec::new();
            for (&pos, &t) in pair.changed_attributes.iter().zip(&tables) {
                let attr = &ctx.class_space().attributes()[pos];
                let base_row = join.provenance(t)[jrow];
                let key = (attr.table.clone(), base_row, attr.base_column.clone());
                if edited_cells.contains(&key) {
                    *skipped += 1;
                    continue 'candidate;
                }
                pair_edits.push(CellEdit {
                    table: attr.table.clone(),
                    row: base_row,
                    column: attr.base_column.clone(),
                    new_value: attr.blocks[pair.destination[pos]].representative().clone(),
                });
            }
            for e in &pair_edits {
                edited_cells.insert((e.table.clone(), e.row, e.column.clone()));
            }
            used_join_rows.insert(jrow);
            edits.extend(pair_edits);
            realized_this_pair = true;
            break;
        }
        if !realized_this_pair {
            return None;
        }
    }
    let modified_relations = edits
        .iter()
        .map(|e| e.table.as_str())
        .collect::<BTreeSet<_>>()
        .len();
    let modified_tuples = edits
        .iter()
        .map(|e| (e.table.as_str(), e.row))
        .collect::<BTreeSet<_>>()
        .len();
    Some(RealizedModification {
        db_edit_cost: edits.len(),
        modified_relations,
        modified_tuples,
        edits,
    })
}

/// The join rows an edit set patches, as `(join row, old tuple, new
/// tuple)` in ascending row order, from a map keyed by join row.
fn reference_patched_join_rows(
    ctx: &qfe_core::GenerationContext,
    edits: &[qfe_core::CellEdit],
) -> Vec<(usize, Tuple, Tuple)> {
    let join = ctx.join();
    let mut patched: std::collections::BTreeMap<usize, Tuple> = Default::default();
    for edit in edits {
        let Some(table) = join.table_position(&edit.table) else {
            continue;
        };
        let column = join
            .columns()
            .iter()
            .position(|c| c.table == edit.table && c.column == edit.column);
        for &jrow in ctx.join_index().joined_rows_of(table, edit.row) {
            let entry = patched
                .entry(jrow)
                .or_insert_with(|| join.rows()[jrow].tuple.clone());
            if let Some(column) = column {
                entry.set(column, edit.new_value.clone());
            }
        }
    }
    patched
        .into_iter()
        .map(|(jrow, tuple)| (jrow, join.rows()[jrow].tuple.clone(), tuple))
        .collect()
}

/// The evaluation as it ran per candidate: match and project every patched
/// row for every candidate, then group the candidates by their sorted
/// removed/added multisets in a `BTreeMap` of tuple vectors.
fn reference_evaluate_modification(
    ctx: &qfe_core::GenerationContext,
    edits: &[qfe_core::CellEdit],
) -> qfe_core::ModificationEvaluation {
    use qfe_core::{GroupEffect, ModificationEvaluation};
    let patched = reference_patched_join_rows(ctx, edits);
    let arity = ctx.bound_queries()[0].projection_indices().len();
    let mut groups: std::collections::BTreeMap<(Vec<Tuple>, Vec<Tuple>), Vec<usize>> =
        Default::default();
    for (qidx, bound) in ctx.bound_queries().iter().enumerate() {
        let mut removed: Vec<Tuple> = Vec::new();
        let mut added: Vec<Tuple> = Vec::new();
        for (_, old, new) in &patched {
            let old_proj = old.project(bound.projection_indices());
            let new_proj = new.project(bound.projection_indices());
            match (bound.matches_row(old), bound.matches_row(new)) {
                (true, false) => removed.push(old_proj),
                (false, true) => added.push(new_proj),
                (true, true) => {
                    if old_proj != new_proj {
                        removed.push(old_proj);
                        added.push(new_proj);
                    }
                }
                (false, false) => {}
            }
        }
        removed.sort();
        added.sort();
        groups.entry((removed, added)).or_default().push(qidx);
    }
    let groups = groups
        .into_iter()
        .map(|((removed, added), query_indices)| GroupEffect {
            result_edit_cost: min_edit_rows(&removed, &added, arity),
            query_indices,
            removed,
            added,
        })
        .collect();
    ModificationEvaluation { groups }
}

/// Algorithm 4 as it ran with a per-level `seen` set of generated
/// extensions and [`reference_partition_sizes`], realizing and evaluating
/// each set with [`reference_realize_pairs`] and
/// [`reference_evaluate_modification`].
fn reference_pick(
    ctx: &qfe_core::GenerationContext,
    skyline: &[qfe_core::ClassPair],
    params: &CostParams,
    best_binary_x: Option<usize>,
) -> (Result<qfe_core::PickOutcome, QfeError>, ReferenceRun) {
    use qfe_core::{balance_score, objective, CostInputs, PickOutcome};
    type Evaluated = (
        Vec<usize>,
        Vec<qfe_core::ClassPair>,
        qfe_core::RealizedModification,
        qfe_core::ModificationEvaluation,
        f64,
        f64,
    );
    let mut run = ReferenceRun::default();
    let no_database = || QfeError::NoDistinguishingDatabase {
        remaining: ctx.queries().iter().map(|q| q.display_name()).collect(),
    };
    if skyline.is_empty() {
        return (Err(no_database()), run);
    }
    let codes = reference_codes(ctx, skyline);
    let balance_of = |indices: &[usize]| {
        balance_score(&reference_partition_sizes(
            &codes,
            ctx.query_count(),
            indices,
        ))
    };
    let evaluations = std::cell::Cell::new(0usize);
    let evaluate_set = |indices: &[usize]| -> Option<Evaluated> {
        if evaluations.get() >= MAX_COST_EVALUATIONS {
            return None;
        }
        evaluations.set(evaluations.get() + 1);
        let pairs: Vec<_> = indices.iter().map(|&i| skyline[i].clone()).collect();
        let realized = reference_realize_pairs(ctx, &pairs, &mut 0)?;
        let evaluation = reference_evaluate_modification(ctx, &realized.edits);
        if evaluation.group_count() <= 1 {
            return None;
        }
        let inputs = CostInputs {
            db_edit_cost: realized.db_edit_cost,
            modified_relations: realized.modified_relations,
            modified_tuples: realized.modified_tuples,
            result_edit_costs: evaluation.result_edit_costs(),
            partition_sizes: evaluation.partition_sizes(),
            best_binary_x,
        };
        let cost = objective(params, &inputs);
        let balance = balance_of(indices);
        Some((indices.to_vec(), pairs, realized, evaluation, cost, balance))
    };
    let mut best: Vec<Evaluated> = Vec::new();
    let mut min_cost = f64::INFINITY;
    let mut keep = |eval: Option<Evaluated>| {
        if let Some(eval) = eval {
            if eval.4 < min_cost {
                min_cost = eval.4;
                best = vec![eval];
            } else if eval.4 == min_cost {
                best.push(eval);
            }
        }
    };
    let mut current_level: Vec<(Vec<usize>, f64)> = Vec::new();
    for i in 0..skyline.len() {
        current_level.push((vec![i], balance_of(&[i])));
        keep(evaluate_set(&[i]));
    }
    loop {
        let mut next_level: Vec<(Vec<usize>, f64)> = Vec::new();
        let mut seen: std::collections::BTreeSet<Vec<usize>> = Default::default();
        'level: for (indices, balance) in &current_level {
            for p in 0..skyline.len() {
                if indices.contains(&p) {
                    continue;
                }
                let mut extended = indices.clone();
                extended.push(p);
                extended.sort_unstable();
                if !seen.insert(extended.clone()) {
                    continue;
                }
                let extended_balance = balance_of(&extended);
                if extended_balance < *balance {
                    keep(evaluate_set(&extended));
                    next_level.push((extended, extended_balance));
                    if next_level.len() >= MAX_SETS_PER_LEVEL {
                        run.level_cap_hit = true;
                        break 'level;
                    }
                }
            }
        }
        if next_level.is_empty() || evaluations.get() >= MAX_COST_EVALUATIONS {
            break;
        }
        current_level = next_level;
    }
    run.evaluation_cap_hit = evaluations.get() >= MAX_COST_EVALUATIONS;
    run.cost_tie = best.len() > 1;
    let chosen = best.into_iter().min_by(|a, b| {
        a.5.partial_cmp(&b.5)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.len().cmp(&b.0.len()))
            .then_with(|| a.0.cmp(&b.0))
    });
    let outcome = chosen.ok_or_else(no_database).map(|chosen| PickOutcome {
        chosen: chosen.1,
        realized: chosen.2,
        evaluation: chosen.3,
        cost: chosen.4,
        cost_evaluations: evaluations.get(),
        elapsed: std::time::Duration::ZERO,
    });
    (outcome, run)
}

/// Runs `pick_stc_dtc_subset` and the reference loop on one pool and
/// asserts they agree on everything but the elapsed time.
fn assert_pick_matches_reference(
    ctx: &qfe_core::GenerationContext,
    pool: &[qfe_core::ClassPair],
    best_binary_x: Option<usize>,
    label: &str,
) -> (Option<qfe_core::PickOutcome>, ReferenceRun) {
    let params = CostParams::default();
    let picked = qfe_core::pick_stc_dtc_subset(ctx, pool, &params, best_binary_x);
    let (reference, run) = reference_pick(ctx, pool, &params, best_binary_x);
    match (picked, reference) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.chosen, b.chosen, "{label}: chosen pairs");
            assert_eq!(a.realized, b.realized, "{label}: edits");
            assert_eq!(a.evaluation, b.evaluation, "{label}: evaluation");
            assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "{label}: cost");
            assert_eq!(
                a.cost_evaluations, b.cost_evaluations,
                "{label}: cost evaluations"
            );
            (Some(a), run)
        }
        (
            Err(QfeError::NoDistinguishingDatabase { .. }),
            Err(QfeError::NoDistinguishingDatabase { .. }),
        ) => (None, run),
        (a, b) => panic!("{label}: {:?} vs {:?}", a.map(|_| ()), b.map(|_| ())),
    }
}

#[test]
fn pick_matches_the_seen_set_extension_loop_on_random_contexts() {
    use qfe_core::{skyline_stc_dtc_pairs, GenerationContext};
    let mut rng = StdRng::seed_from_u64(119);
    let (mut checked, mut ties, mut level_caps, mut evaluation_caps) = (0, 0, 0, 0);
    for case in 0..24 {
        let rows = employee_rows(&mut rng);
        let db = build_employee(&rows);
        let queries = random_candidates(&mut rng);
        let result = evaluate(&queries[0], &db).unwrap();
        let Ok(ctx) = GenerationContext::new(&db, &result, &queries) else {
            continue;
        };
        let skyline = skyline_stc_dtc_pairs(&ctx, std::time::Duration::from_secs(60));
        // Every single-attribute pair, skyline or not: more levels.
        let all: Vec<_> = ctx
            .source_classes()
            .keys()
            .flat_map(|source| ctx.destination_pairs(source, 1))
            .collect();
        let mut pools = vec![("skyline", skyline.pairs.clone()), ("all", all.clone())];
        // Two pairs `a`, `b` whose union splits finer than `a` alone,
        // alternated past 4096 entries: the single-pair sets tie on cost and
        // exhaust the evaluation cap, and the first parent's extensions by
        // the copies of `b` fill the level to its cap.
        if evaluation_caps < 2 {
            let codes = reference_codes(&ctx, &all);
            let balance = |indices: &[usize]| {
                let sizes = reference_partition_sizes(&codes, ctx.query_count(), indices);
                qfe_core::balance_score(&sizes)
            };
            let refining = (0..all.len()).find_map(|a| {
                (a + 1..all.len())
                    .find(|&b| balance(&[a, b]) < balance(&[a]))
                    .map(|b| (a, b))
            });
            if let Some((a, b)) = refining {
                let alternating = (0..=MAX_COST_EVALUATIONS)
                    .map(|i| all[if i % 2 == 0 { a } else { b }].clone())
                    .collect();
                pools.push(("alternating", alternating));
            }
        }
        for (name, pool) in pools {
            let (_, run) = assert_pick_matches_reference(
                &ctx,
                &pool,
                skyline.best_binary_x,
                &format!("case {case} {name}"),
            );
            checked += 1;
            ties += usize::from(run.cost_tie);
            level_caps += usize::from(run.level_cap_hit);
            evaluation_caps += usize::from(run.evaluation_cap_hit);
        }
    }
    assert!(checked >= 24, "too few non-degenerate contexts ({checked})");
    assert!(ties > 0, "no case broke a cost tie");
    assert!(level_caps > 0, "no case hit MAX_SETS_PER_LEVEL");
    assert!(evaluation_caps > 0, "no case hit MAX_COST_EVALUATIONS");
}

#[test]
fn pick_matches_the_seen_set_extension_loop_on_small_rounds() {
    use qfe_core::{apply_edits, skyline_stc_dtc_pairs, GenerationContext};
    use std::time::Duration;
    // The Small workloads of the benchmark. Scientific/Q1's first skyline
    // stops at δ = 50 ms, as it does in the benchmark; every other round
    // here is enumerated in full.
    let examples = [
        (qfe_datasets::baseball_scaled(11, 40, 48, 900), "Q3", 60_000),
        (qfe_datasets::scientific_scaled(42, 400, 80, 6), "Q1", 50),
    ];
    for (workload, label, first_delta) in examples {
        let target = workload.query(label).unwrap().clone();
        let result = workload.example_result(label).unwrap();
        let session = QfeSession::builder(workload.database.clone(), result.clone())
            .ensure_candidate(target.clone())
            .build()
            .unwrap();
        let mut ctx =
            GenerationContext::new(&workload.database, &result, session.candidates()).unwrap();
        for round in 1..=2 {
            let delta = if round == 1 { first_delta } else { 60_000 };
            let skyline = skyline_stc_dtc_pairs(&ctx, Duration::from_millis(delta));
            let name = format!("{}/{label} round {round}", workload.name);
            let (picked, _) =
                assert_pick_matches_reference(&ctx, &skyline.pairs, skyline.best_binary_x, &name);
            let picked = picked.unwrap();
            // The oracle's answer: the candidates that agree with the target.
            let modified = apply_edits(ctx.database(), &picked.realized.edits).unwrap();
            let wanted = evaluate(&target, &modified).unwrap();
            let partition = partition_queries(ctx.queries(), &modified).unwrap();
            let group = partition
                .groups
                .iter()
                .find(|g| g.result.bag_equal(&wanted))
                .unwrap();
            if group.query_indices.len() == 1 {
                break;
            }
            ctx = ctx
                .advance_with_report(&group.query_indices, &[])
                .unwrap()
                .0;
        }
    }
}

// ---------------------------------------------------------------------------
// Realization and evaluation == the per-candidate code they replaced
// ---------------------------------------------------------------------------

const CATEGORIES: [&str; 3] = ["x", "y", "z"];

/// A random foreign-key chain `A ← B` or `A ← B ← C` over tiny domains.
/// Each parent row has 0–3 child rows, so one edit of a parent cell patches
/// up to 3 (or 9) join rows, and childless parents drop out of the join.
/// Returns the database and its table names in chain order.
fn build_fk_chain(rng: &mut StdRng) -> (Database, Vec<&'static str>) {
    let tables = if rng.gen_bool(0.5) {
        vec!["A", "B"]
    } else {
        vec!["A", "B", "C"]
    };
    let mut db = Database::new();
    let a_schema = TableSchema::new(
        "A",
        vec![
            ColumnDef::new("aid", DataType::Int),
            ColumnDef::new("a_num", DataType::Int),
            ColumnDef::new("a_cat", DataType::Text),
        ],
    )
    .unwrap()
    .with_primary_key(&["aid"])
    .unwrap();
    let a_rows: Vec<Tuple> = (0..rng.gen_range(2i64..6))
        .map(|aid| {
            Tuple::new(vec![
                Value::Int(aid),
                Value::Int(rng.gen_range(0i64..4)),
                Value::Text(CATEGORIES[rng.gen_range(0..CATEGORIES.len())].to_string()),
            ])
        })
        .collect();
    let mut parents = a_rows.len() as i64;
    db.add_table(Table::with_rows(a_schema, a_rows).unwrap())
        .unwrap();
    // (child, its key, its foreign key = the parent's key, parent, value).
    for (child, id, fk, parent, num) in [
        ("B", "bid", "aid", "A", "b_num"),
        ("C", "cid", "bid", "B", "c_num"),
    ] {
        if !tables.contains(&child) {
            break;
        }
        let schema = TableSchema::new(
            child,
            vec![
                ColumnDef::new(id, DataType::Int),
                ColumnDef::new(fk, DataType::Int),
                ColumnDef::new(num, DataType::Int),
            ],
        )
        .unwrap()
        .with_primary_key(&[id])
        .unwrap();
        let mut rows = Vec::new();
        for p in 0..parents {
            for _ in 0..rng.gen_range(0usize..4) {
                rows.push(Tuple::new(vec![
                    Value::Int(rows.len() as i64),
                    Value::Int(p),
                    Value::Int(rng.gen_range(0i64..4)),
                ]));
            }
        }
        parents = rows.len() as i64;
        db.add_table(Table::with_rows(schema, rows).unwrap())
            .unwrap();
        db.add_foreign_key(qfe_relation::ForeignKey::new(child, fk, parent, fk))
            .unwrap();
    }
    (db, tables)
}

/// The non-key columns of the chain's tables.
fn chain_columns(tables: &[&str]) -> Vec<&'static str> {
    let mut columns = vec!["a_num", "a_cat", "b_num"];
    if tables.contains(&"C") {
        columns.push("c_num");
    }
    columns
}

/// A random term over a non-key column of the chain.
fn random_chain_term(rng: &mut StdRng, columns: &[&'static str]) -> Term {
    let column = columns[rng.gen_range(0..columns.len())];
    if column == "a_cat" {
        return Term::eq(column, CATEGORIES[rng.gen_range(0..CATEGORIES.len())]);
    }
    let op = [ComparisonOp::Lt, ComparisonOp::Ge, ComparisonOp::Eq][rng.gen_range(0usize..3)];
    Term::compare(column, op, rng.gen_range(0i64..4))
}

/// 2–6 candidates over the whole chain with random one- or two-conjunct
/// predicates and a one-column projection. Half the draws give each
/// candidate its own random projection, so candidates of one context project
/// differently, and some project a column an edit changes. The other half
/// share one projection of the root table `A`, so candidates that see
/// different patched rows of one `A` row can still see equal results.
fn random_chain_candidates(rng: &mut StdRng, tables: &[&'static str]) -> Vec<SpjQuery> {
    let columns = chain_columns(tables);
    let shared = rng
        .gen_bool(0.5)
        .then(|| ["a_num", "a_cat"][rng.gen_range(0usize..2)]);
    (0..rng.gen_range(2usize..7))
        .map(|_| {
            let conjuncts = (0..rng.gen_range(1usize..3))
                .map(|_| {
                    let terms = (0..rng.gen_range(1usize..3))
                        .map(|_| random_chain_term(rng, &columns))
                        .collect();
                    qfe_query::Conjunct::new(terms)
                })
                .collect();
            let projection = shared.unwrap_or_else(|| columns[rng.gen_range(0..columns.len())]);
            SpjQuery::new(
                tables.to_vec(),
                vec![projection],
                DnfPredicate::new(conjuncts),
            )
        })
        .collect()
}

/// A context over a random chain and candidates, or `None` when the draw is
/// degenerate (e.g. an empty join).
fn random_chain_context(rng: &mut StdRng) -> Option<qfe_core::GenerationContext> {
    let (db, tables) = build_fk_chain(rng);
    let queries = random_chain_candidates(rng, &tables);
    let result = evaluate(&queries[0], &db).ok()?;
    let ctx = qfe_core::GenerationContext::new(&db, &result, &queries).ok()?;
    (!ctx.join().is_empty()).then_some(ctx)
}

/// 1–3 random edits of non-key cells of the chain, values in the tiny
/// domains (so an edit may also keep a cell's value, or hit a cell twice).
fn random_chain_edits(
    rng: &mut StdRng,
    ctx: &qfe_core::GenerationContext,
) -> Vec<qfe_core::CellEdit> {
    let tables = ctx.join_tables();
    (0..rng.gen_range(1usize..4))
        .filter_map(|_| {
            let table = &tables[rng.gen_range(0..tables.len())];
            let rows = ctx.database().table(table).unwrap().len();
            if rows == 0 {
                return None;
            }
            let (column, new_value) = match table.as_str() {
                "A" if rng.gen_bool(0.5) => (
                    "a_cat".to_string(),
                    Value::Text(CATEGORIES[rng.gen_range(0..CATEGORIES.len())].to_string()),
                ),
                t => (
                    format!("{}_num", t.to_lowercase()),
                    Value::Int(rng.gen_range(0i64..4)),
                ),
            };
            Some(qfe_core::CellEdit {
                table: table.clone(),
                row: rng.gen_range(0..rows),
                column,
                new_value,
            })
        })
        .collect()
}

/// Every pair of the context changing one or two attributes.
fn chain_pairs(ctx: &qfe_core::GenerationContext) -> Vec<qfe_core::ClassPair> {
    ctx.source_classes()
        .keys()
        .flat_map(|source| {
            let mut pairs = ctx.destination_pairs(source, 1);
            pairs.extend(ctx.destination_pairs(source, 2));
            pairs
        })
        .collect()
}

/// Per candidate, its projection and its row-level outcome code on every
/// patched row (`0` none, `1` removed, `2` added, `3` replaced).
fn reference_code_rows(
    ctx: &qfe_core::GenerationContext,
    edits: &[qfe_core::CellEdit],
) -> Vec<(Vec<usize>, Vec<u8>)> {
    let patched = reference_patched_join_rows(ctx, edits);
    ctx.bound_queries()
        .iter()
        .map(|bound| {
            let projection = bound.projection_indices();
            let codes = patched
                .iter()
                .map(
                    |(_, old, new)| match (bound.matches_row(old), bound.matches_row(new)) {
                        (true, false) => 1,
                        (false, true) => 2,
                        (true, true) if old.project(projection) != new.project(projection) => 3,
                        _ => 0,
                    },
                )
                .collect();
            (projection.to_vec(), codes)
        })
        .collect()
}

#[test]
fn evaluate_modification_matches_the_per_candidate_reference_on_fk_chains() {
    use qfe_core::{evaluate_modification, realize_pairs};
    let mut rng = StdRng::seed_from_u64(123);
    let (mut checked, mut multi_row, mut replaced, mut mixed, mut merged) = (0, 0, 0, 0, 0);
    for case in 0..96 {
        let Some(ctx) = random_chain_context(&mut rng) else {
            continue;
        };
        let pairs = chain_pairs(&ctx);
        let mut edit_sets: Vec<Vec<qfe_core::CellEdit>> =
            (0..6).map(|_| random_chain_edits(&mut rng, &ctx)).collect();
        for _ in 0..6 {
            if pairs.is_empty() {
                break;
            }
            let pool: Vec<_> = (0..rng.gen_range(1usize..4))
                .map(|_| &pairs[rng.gen_range(0..pairs.len())])
                .collect();
            if let Some(realized) = realize_pairs(&ctx, pool) {
                edit_sets.push(realized.edits);
            }
        }
        let projections: std::collections::BTreeSet<&[usize]> = ctx
            .bound_queries()
            .iter()
            .map(|b| b.projection_indices())
            .collect();
        for edits in &edit_sets {
            let got = evaluate_modification(&ctx, edits);
            let want = reference_evaluate_modification(&ctx, edits);
            assert_eq!(got, want, "case {case}: {edits:?}");
            checked += 1;
            let code_rows = reference_code_rows(&ctx, edits);
            multi_row += usize::from(reference_patched_join_rows(&ctx, edits).len() > 1);
            replaced += usize::from(code_rows.iter().any(|(_, codes)| codes.contains(&3)));
            mixed += usize::from(projections.len() > 1);
            // Two different code rows of one projection in one group: their
            // patched rows project equally.
            merged += usize::from(got.groups.iter().any(|group| {
                let rows: std::collections::BTreeSet<_> =
                    group.query_indices.iter().map(|&q| &code_rows[q]).collect();
                rows.iter()
                    .zip(rows.iter().skip(1))
                    .any(|(a, b)| a.0 == b.0)
            }));
        }
    }
    assert!(checked >= 400, "too few evaluations ({checked})");
    assert!(multi_row > 0, "no edit set patched several join rows");
    assert!(replaced > 0, "no candidate saw a Replaced row");
    assert!(mixed > 0, "no context mixed projections");
    assert!(merged > 0, "no two code rows merged into one group");
}

#[test]
fn realize_pairs_matches_the_string_keyed_reference_on_fk_chains() {
    use qfe_core::realize_pairs;
    let mut rng = StdRng::seed_from_u64(124);
    let (mut realized, mut unrealized, mut multi_attribute, mut competing, mut skips) =
        (0, 0, 0, 0, 0);
    for case in 0..48 {
        let Some(ctx) = random_chain_context(&mut rng) else {
            continue;
        };
        let pairs = chain_pairs(&ctx);
        if pairs.is_empty() {
            continue;
        }
        for _ in 0..24 {
            // Half the pools draw every pair from one source class, so its
            // members compete.
            let first = &pairs[rng.gen_range(0..pairs.len())];
            let same_source: Vec<_> = pairs.iter().filter(|p| p.source == first.source).collect();
            let pool: Vec<qfe_core::ClassPair> = (0..rng.gen_range(1usize..5))
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        same_source[rng.gen_range(0..same_source.len())].clone()
                    } else {
                        pairs[rng.gen_range(0..pairs.len())].clone()
                    }
                })
                .collect();
            let mut skipped = 0;
            let want = reference_realize_pairs(&ctx, &pool, &mut skipped);
            assert_eq!(realize_pairs(&ctx, &pool), want, "case {case}: {pool:?}");
            if want.is_none() {
                unrealized += 1;
                continue;
            }
            realized += 1;
            multi_attribute += usize::from(pool.iter().any(|p| p.changed_attributes.len() > 1));
            competing += usize::from(pool.iter().skip(1).any(|p| p.source == pool[0].source));
            skips += usize::from(skipped > 0);
        }
    }
    assert!(realized >= 100, "too few realized pools ({realized})");
    assert!(unrealized > 0, "no pool was unrealizable");
    assert!(
        multi_attribute > 0,
        "no realized pool had a multi-attribute pair"
    );
    assert!(
        competing > 0,
        "no realized pool had pairs of one source class"
    );
    assert!(skips > 0, "no edited cell forced a member to be skipped");
}
