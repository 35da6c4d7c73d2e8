//! Growing a candidate set by mutating predicate constants.
//!
//! Section 7.6 of the paper: "we generated 61 additional candidate queries
//! from the initial candidate queries by modifying their selection predicate
//! constants."  [`mutate_constants`] reproduces that mechanism: numeric
//! constants in comparison terms are shifted to neighbouring values of the
//! attribute's active domain (and to midpoints between them) and the mutated
//! query is kept only when it still reproduces the original result on `D`.

use std::collections::{BTreeMap, BTreeSet};

use qfe_query::{ComparisonOp, Conjunct, DnfPredicate, QueryResult, SpjQuery, Term};
use qfe_relation::{foreign_key_join, Database, Value};

use crate::error::Result;
use crate::verify::BatchVerifier;

/// Lazily built per-join-signature state shared by every mutation of queries
/// over the same tables: a [`BatchVerifier`] over the foreign-key join, whose
/// term-bitmap cache carries across the whole mutation frontier — a mutation
/// perturbs one term, so every other term of the mutated predicate is a
/// cache hit.
struct JoinVerifiers<'a> {
    db: &'a Database,
    result: &'a QueryResult,
    by_tables: BTreeMap<Vec<String>, Option<BatchVerifier>>,
}

impl<'a> JoinVerifiers<'a> {
    fn new(db: &'a Database, result: &'a QueryResult) -> Self {
        JoinVerifiers {
            db,
            result,
            by_tables: BTreeMap::new(),
        }
    }

    /// The verifier for `tables`; `None` when the join cannot be computed.
    fn entry(&mut self, tables: &[String]) -> Option<&mut BatchVerifier> {
        let (db, result) = (self.db, self.result);
        self.by_tables
            .entry(tables.to_vec())
            .or_insert_with(|| {
                foreign_key_join(db, tables)
                    .ok()
                    .map(|join| BatchVerifier::new(&join, result))
            })
            .as_mut()
    }
}

/// Generates up to `extra` additional candidates from `base` by mutating the
/// numeric constants of their predicates. Every returned query `Q` satisfies
/// `Q(D) = R` and differs (as SQL text) from every base query and every other
/// returned query.
pub fn mutate_constants(
    db: &Database,
    result: &QueryResult,
    base: &[SpjQuery],
    extra: usize,
) -> Result<Vec<SpjQuery>> {
    let mut seen: BTreeSet<String> = base.iter().map(|q| q.to_string()).collect();
    let mut out: Vec<SpjQuery> = Vec::new();
    let mut verifiers = JoinVerifiers::new(db, result);

    'outer: for query in base {
        let Some(verifier) = verifiers.entry(&query.tables) else {
            continue;
        };
        // Candidate replacement constants per attribute: the attribute's
        // active domain plus midpoints between consecutive numeric values.
        for (ci, conjunct) in query.predicate.conjuncts().iter().enumerate() {
            for (ti, term) in conjunct.terms().iter().enumerate() {
                let Term::Compare {
                    attribute,
                    op,
                    value,
                } = term
                else {
                    continue;
                };
                if !value.is_numeric() {
                    continue;
                }
                let Ok(col) = verifier.join().resolve_column(attribute) else {
                    continue;
                };
                let mut alternatives: Vec<Value> = Vec::new();
                let domain = verifier.join().active_domain(col);
                for window in domain.windows(2) {
                    if let (Some(a), Some(b)) = (window[0].as_f64(), window[1].as_f64()) {
                        alternatives.push(Value::Float((a + b) / 2.0));
                    }
                }
                alternatives.extend(domain);
                for alt in alternatives {
                    if &alt == value {
                        continue;
                    }
                    let mutated = replace_term(
                        query,
                        ci,
                        ti,
                        Term::Compare {
                            attribute: attribute.clone(),
                            op: *op,
                            value: alt,
                        },
                    );
                    let sql = mutated.to_string();
                    if seen.contains(&sql) {
                        continue;
                    }
                    if verifier.verify(&mutated) {
                        seen.insert(sql);
                        out.push(mutated);
                        if out.len() >= extra {
                            break 'outer;
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Also mutate comparison operators between adjacent strict/non-strict forms
/// (`<` ↔ `<=`, `>` ↔ `>=`) when the relaxation preserves the result.
pub fn mutate_operators(
    db: &Database,
    result: &QueryResult,
    base: &[SpjQuery],
    extra: usize,
) -> Result<Vec<SpjQuery>> {
    let mut seen: BTreeSet<String> = base.iter().map(|q| q.to_string()).collect();
    let mut out = Vec::new();
    let mut verifiers = JoinVerifiers::new(db, result);
    'outer: for query in base {
        let Some(verifier) = verifiers.entry(&query.tables) else {
            continue;
        };
        for (ci, conjunct) in query.predicate.conjuncts().iter().enumerate() {
            for (ti, term) in conjunct.terms().iter().enumerate() {
                let Term::Compare {
                    attribute,
                    op,
                    value,
                } = term
                else {
                    continue;
                };
                let flipped = match op {
                    ComparisonOp::Lt => ComparisonOp::Le,
                    ComparisonOp::Le => ComparisonOp::Lt,
                    ComparisonOp::Gt => ComparisonOp::Ge,
                    ComparisonOp::Ge => ComparisonOp::Gt,
                    _ => continue,
                };
                let mutated = replace_term(
                    query,
                    ci,
                    ti,
                    Term::Compare {
                        attribute: attribute.clone(),
                        op: flipped,
                        value: value.clone(),
                    },
                );
                let sql = mutated.to_string();
                if seen.contains(&sql) {
                    continue;
                }
                if verifier.verify(&mutated) {
                    seen.insert(sql);
                    out.push(mutated);
                    if out.len() >= extra {
                        break 'outer;
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Grows `base` to (up to) `target_total` verified candidates by applying
/// constant and operator mutations, mirroring the Table 6 experimental setup.
pub fn grow_candidates(
    db: &Database,
    result: &QueryResult,
    base: &[SpjQuery],
    target_total: usize,
) -> Result<Vec<SpjQuery>> {
    let mut all = base.to_vec();
    if all.len() >= target_total {
        all.truncate(target_total);
        return Ok(all);
    }
    let extra = target_total - all.len();
    let by_constants = mutate_constants(db, result, &all, extra)?;
    all.extend(by_constants);
    if all.len() < target_total {
        let by_ops = mutate_operators(db, result, &all, target_total - all.len())?;
        all.extend(by_ops);
    }
    // Second-generation constant mutations (mutations of mutations) if still
    // short of the target.
    if all.len() < target_total {
        let more = mutate_constants(db, result, &all, target_total - all.len())?;
        all.extend(more);
    }
    Ok(all)
}

fn replace_term(
    query: &SpjQuery,
    conjunct_idx: usize,
    term_idx: usize,
    new_term: Term,
) -> SpjQuery {
    let mut conjuncts: Vec<Conjunct> = query.predicate.conjuncts().to_vec();
    let mut terms: Vec<Term> = conjuncts[conjunct_idx].terms().to_vec();
    terms[term_idx] = new_term;
    conjuncts[conjunct_idx] = Conjunct::new(terms);
    let mut q = query.clone();
    q.label = None; // mutated queries are new, unlabeled candidates
    q.predicate = DnfPredicate::new(conjuncts);
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfe_query::evaluate;
    use qfe_relation::{tuple, ColumnDef, DataType, Table, TableSchema};

    fn db() -> Database {
        let employee = Table::with_rows(
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
            vec![
                tuple![1i64, "Alice", 3700i64],
                tuple![2i64, "Bob", 4200i64],
                tuple![3i64, "Celina", 3000i64],
                tuple![4i64, "Darren", 5000i64],
            ],
        )
        .unwrap();
        let mut d = Database::new();
        d.add_table(employee).unwrap();
        d
    }

    fn base_query() -> SpjQuery {
        SpjQuery::new(
            vec!["Employee"],
            vec!["name"],
            DnfPredicate::single(Term::compare("salary", ComparisonOp::Gt, 4000i64)),
        )
    }

    fn result(db: &Database) -> QueryResult {
        evaluate(&base_query(), db).unwrap()
    }

    #[test]
    fn constant_mutations_preserve_the_result() {
        let db = db();
        let r = result(&db);
        let mutated = mutate_constants(&db, &r, &[base_query()], 10).unwrap();
        assert!(!mutated.is_empty());
        for q in &mutated {
            assert!(evaluate(q, &db).unwrap().bag_equal(&r), "{q}");
            assert_ne!(q.to_string(), base_query().to_string());
        }
    }

    #[test]
    fn operator_mutations_preserve_the_result() {
        let db = db();
        // salary >= 4200 is equivalent to salary > 4000 on this data; the
        // strict/non-strict flip of >= 4200 (to > 4200) changes the result and
        // must be rejected, whereas > 3700 -> >= 3700 changes it too. Use a
        // base where the flip is harmless: salary > 4100 -> >= 4100 keeps R.
        let base = SpjQuery::new(
            vec!["Employee"],
            vec!["name"],
            DnfPredicate::single(Term::compare("salary", ComparisonOp::Gt, 4100i64)),
        );
        let r = evaluate(&base, &db).unwrap();
        let mutated = mutate_operators(&db, &r, &[base], 10).unwrap();
        assert_eq!(mutated.len(), 1);
        assert!(evaluate(&mutated[0], &db).unwrap().bag_equal(&r));
    }

    #[test]
    fn grow_candidates_reaches_target_or_exhausts_mutations() {
        let db = db();
        let r = result(&db);
        let grown = grow_candidates(&db, &r, &[base_query()], 6).unwrap();
        assert!(grown.len() > 1);
        assert!(grown.len() <= 6);
        // All distinct and all correct.
        let mut sqls: Vec<String> = grown.iter().map(|q| q.to_string()).collect();
        let n = sqls.len();
        sqls.sort();
        sqls.dedup();
        assert_eq!(n, sqls.len());
        for q in &grown {
            assert!(evaluate(q, &db).unwrap().bag_equal(&r));
        }
    }

    #[test]
    fn grow_candidates_truncates_oversized_base() {
        let db = db();
        let r = result(&db);
        let grown = grow_candidates(&db, &r, &[base_query(), base_query()], 1).unwrap();
        assert_eq!(grown.len(), 1);
    }
}
