//! Enumeration of candidate selection predicates.
//!
//! Given the joined relation, a projection and the example result, the rows
//! of the join split into *positives* (rows that must be selected to produce
//! the result) and *negatives* (rows that must not be).  This module
//! enumerates DNF predicates that select exactly the positive rows, bounded
//! by the generator configuration: single-attribute terms, tight ranges,
//! multi-attribute conjunctions and (as a fallback) greedy disjunctive
//! covers.

use std::collections::{BTreeMap, BTreeSet};

use qfe_query::{ComparisonOp, Conjunct, DnfPredicate, QueryResult, Term};
use qfe_relation::{bag_equal_rows, DataType, JoinedRelation, Value};

use crate::config::QboConfig;

/// The positive/negative split of the join's rows w.r.t. a projection and an
/// example result.
#[derive(Debug, Clone)]
pub struct RowSplit {
    /// Join-row indices that must be selected.
    pub positives: Vec<usize>,
    /// Join-row indices that must not be selected.
    pub negatives: Vec<usize>,
}

/// Splits the join's rows into positives and negatives.
///
/// A row is positive when its projection appears in the result. Returns
/// `None` when selecting *all* positive rows does not reproduce the result as
/// a bag — in that case no selection-only predicate over this projection can
/// work with the "select every matching row" strategy this generator uses.
pub fn split_rows(
    join: &JoinedRelation,
    projection_idx: &[usize],
    result: &QueryResult,
) -> Option<RowSplit> {
    let wanted: BTreeSet<_> = result.rows().iter().cloned().collect();
    let mut positives = Vec::new();
    let mut negatives = Vec::new();
    let mut projected_positives = Vec::new();
    for (i, row) in join.rows().iter().enumerate() {
        let projected = row.tuple.project(projection_idx);
        if wanted.contains(&projected) {
            projected_positives.push(projected);
            positives.push(i);
        } else {
            negatives.push(i);
        }
    }
    if positives.is_empty() {
        return None;
    }
    if !bag_equal_rows(&projected_positives, result.rows()) {
        return None;
    }
    Some(RowSplit {
        positives,
        negatives,
    })
}

/// Attribute-name resolution for predicate construction: maps every join
/// column to the reference string used in generated predicates (bare column
/// name when unambiguous, otherwise `Table.column`) and provides value
/// lookup for evaluation.
#[derive(Debug, Clone)]
pub struct AttributeSpace {
    refs: Vec<String>,
    by_ref: BTreeMap<String, usize>,
    types: Vec<DataType>,
}

impl AttributeSpace {
    /// Builds the attribute space of a join.
    pub fn new(join: &JoinedRelation) -> Self {
        let mut bare_counts: BTreeMap<&str, usize> = BTreeMap::new();
        for c in join.columns() {
            *bare_counts.entry(c.column.as_str()).or_insert(0) += 1;
        }
        let mut refs = Vec::with_capacity(join.arity());
        let mut by_ref = BTreeMap::new();
        let mut types = Vec::with_capacity(join.arity());
        for (i, c) in join.columns().iter().enumerate() {
            let r = if bare_counts[c.column.as_str()] == 1 {
                c.column.clone()
            } else {
                c.qualified_name()
            };
            by_ref.insert(r.clone(), i);
            by_ref.insert(c.qualified_name(), i);
            refs.push(r);
            types.push(c.data_type);
        }
        AttributeSpace {
            refs,
            by_ref,
            types,
        }
    }

    /// The reference string for column `idx`.
    pub fn reference(&self, idx: usize) -> &str {
        &self.refs[idx]
    }

    /// The column index behind a reference string.
    pub fn resolve(&self, reference: &str) -> Option<usize> {
        self.by_ref.get(reference).copied()
    }

    /// The column's data type.
    pub fn data_type(&self, idx: usize) -> DataType {
        self.types[idx]
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// True if there are no columns.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// Evaluates a DNF predicate on one join row. A term over a column this
    /// space does not know reads NULL, so it fails.
    pub fn matches(&self, join: &JoinedRelation, row: usize, pred: &DnfPredicate) -> bool {
        let tuple = &join.rows()[row].tuple;
        let holds = |term: &Term| {
            self.resolve(term.attribute())
                .and_then(|i| tuple.get(i))
                .is_some_and(|v| term.eval(v))
        };
        pred.conjuncts().is_empty() || pred.conjuncts().iter().any(|c| c.terms().iter().all(holds))
    }

    /// True when `pred` selects exactly the positive rows of `split`.
    pub fn selects_exactly(
        &self,
        join: &JoinedRelation,
        split: &RowSplit,
        pred: &DnfPredicate,
    ) -> bool {
        split.positives.iter().all(|&r| self.matches(join, r, pred))
            && !split.negatives.iter().any(|&r| self.matches(join, r, pred))
    }
}

/// Per-attribute analysis of the positive/negative value distributions.
struct AttributeAnalysis {
    col: usize,
    /// Conjuncts over this attribute alone that select all positives and no
    /// negatives.
    exact: Vec<Vec<Term>>,
    /// Terms over this attribute that select all positives (possibly some
    /// negatives) — building blocks for multi-attribute conjunctions.
    covering: Vec<Term>,
    /// How many negatives the tightest covering conjunct excludes.
    discrimination: usize,
}

fn analyze_attribute(
    join: &JoinedRelation,
    space: &AttributeSpace,
    split: &RowSplit,
    col: usize,
    config: &QboConfig,
) -> Option<AttributeAnalysis> {
    let value_of = |row: usize| {
        join.rows()[row]
            .tuple
            .get(col)
            .cloned()
            .unwrap_or(Value::Null)
    };
    let pos_vals: BTreeSet<Value> = split.positives.iter().map(|&r| value_of(r)).collect();
    let neg_vals: BTreeSet<Value> = split.negatives.iter().map(|&r| value_of(r)).collect();
    if pos_vals.iter().any(Value::is_null) {
        return None; // NULL-valued positives cannot be captured by comparisons
    }
    let attr = space.reference(col).to_string();
    let numeric = space.data_type(col).is_numeric();

    let mut exact: Vec<Vec<Term>> = Vec::new();
    let mut covering: Vec<Term> = Vec::new();

    if numeric {
        let min_pos = pos_vals.iter().next().cloned().unwrap();
        let max_pos = pos_vals.iter().next_back().cloned().unwrap();
        let negs_nonnull: Vec<&Value> = neg_vals.iter().filter(|v| !v.is_null()).collect();
        let min_neg_above = negs_nonnull
            .iter()
            .filter(|v| ***v > max_pos)
            .min()
            .cloned();
        let max_neg_below = negs_nonnull
            .iter()
            .filter(|v| ***v < min_pos)
            .max()
            .cloned();
        let neg_le_max_pos = negs_nonnull.iter().any(|v| **v <= max_pos);
        let neg_ge_min_pos = negs_nonnull.iter().any(|v| **v >= min_pos);
        let neg_inside_range = negs_nonnull
            .iter()
            .any(|v| **v >= min_pos && **v <= max_pos);

        // Upper-bounded predicates: all positives ≤ max_pos, valid when no
        // negative is ≤ max_pos.
        if !neg_le_max_pos {
            exact.push(vec![Term::compare(
                &attr,
                ComparisonOp::Le,
                max_pos.clone(),
            )]);
            if let Some(nn) = &min_neg_above {
                exact.push(vec![Term::compare(&attr, ComparisonOp::Lt, (*nn).clone())]);
            }
        }
        // Lower-bounded predicates.
        if !neg_ge_min_pos {
            exact.push(vec![Term::compare(
                &attr,
                ComparisonOp::Ge,
                min_pos.clone(),
            )]);
            if let Some(nn) = &max_neg_below {
                exact.push(vec![Term::compare(&attr, ComparisonOp::Gt, (*nn).clone())]);
            }
        }
        // Two-sided range.
        if exact.is_empty() && !neg_inside_range {
            exact.push(vec![
                Term::compare(&attr, ComparisonOp::Ge, min_pos.clone()),
                Term::compare(&attr, ComparisonOp::Le, max_pos.clone()),
            ]);
        }
        // Single positive value: equality.
        if pos_vals.len() == 1 && !neg_vals.contains(&min_pos) {
            exact.push(vec![Term::eq(&attr, min_pos.clone())]);
        }

        // Covering terms (tightest bounds containing every positive).
        covering.push(Term::compare(&attr, ComparisonOp::Ge, min_pos.clone()));
        covering.push(Term::compare(&attr, ComparisonOp::Le, max_pos.clone()));
        if pos_vals.len() == 1 {
            covering.push(Term::eq(&attr, min_pos));
        }
    } else {
        // Categorical attribute.
        let disjoint = pos_vals.intersection(&neg_vals).next().is_none();
        if disjoint {
            if pos_vals.len() == 1 {
                exact.push(vec![Term::eq(
                    &attr,
                    pos_vals.iter().next().cloned().unwrap(),
                )]);
            } else if pos_vals.len() <= config.max_in_list {
                exact.push(vec![Term::is_in(&attr, pos_vals.iter().cloned().collect())]);
            }
            if !neg_vals.is_empty() && neg_vals.len() <= config.max_in_list {
                exact.push(vec![Term::not_in(
                    &attr,
                    neg_vals.iter().cloned().collect(),
                )]);
            }
        }
        if pos_vals.len() == 1 {
            covering.push(Term::eq(&attr, pos_vals.iter().next().cloned().unwrap()));
        } else if pos_vals.len() <= config.max_in_list {
            covering.push(Term::is_in(&attr, pos_vals.iter().cloned().collect()));
        }
    }

    // Discrimination: how many negatives the tightest covering conjunct
    // excludes (0 when there are no covering terms).
    let discrimination = if covering.is_empty() {
        0
    } else {
        let tight = DnfPredicate::conjunction(covering.clone());
        split
            .negatives
            .iter()
            .filter(|&&r| !space.matches(join, r, &tight))
            .count()
    };

    Some(AttributeAnalysis {
        col,
        exact,
        covering,
        discrimination,
    })
}

/// Enumerates candidate predicates that select exactly the positive rows.
///
/// The returned predicates are deduplicated and capped at
/// `config.max_candidates`; every one of them satisfies
/// [`AttributeSpace::selects_exactly`] (callers re-verify against the real
/// evaluator anyway).
pub fn enumerate_predicates(
    join: &JoinedRelation,
    space: &AttributeSpace,
    split: &RowSplit,
    config: &QboConfig,
) -> Vec<DnfPredicate> {
    let mut analyses: Vec<AttributeAnalysis> = (0..join.arity())
        .filter_map(|col| analyze_attribute(join, space, split, col, config))
        .collect();

    let mut out: Vec<DnfPredicate> = Vec::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut push = |pred: DnfPredicate, out: &mut Vec<DnfPredicate>| {
        if out.len() >= config.max_candidates {
            return;
        }
        let key = pred.to_string();
        if seen.insert(key) {
            out.push(pred);
        }
    };

    // The trivial predicate: when there are no negatives at all, selecting
    // everything is a valid (and the simplest) candidate.
    if split.negatives.is_empty() {
        push(DnfPredicate::always_true(), &mut out);
    }

    // 1. Single-attribute exact conjuncts.
    for a in &analyses {
        for conjunct in &a.exact {
            if conjunct.len() <= config.max_terms_per_conjunct {
                push(DnfPredicate::conjunction(conjunct.clone()), &mut out);
            }
        }
    }

    // 2. Multi-attribute conjunctions of covering terms.
    //    Rank attributes by discrimination, keep the useful ones.
    analyses.sort_by(|a, b| {
        b.discrimination
            .cmp(&a.discrimination)
            .then(a.col.cmp(&b.col))
    });
    let useful: Vec<&AttributeAnalysis> = analyses
        .iter()
        .filter(|a| a.discrimination > 0 && !a.covering.is_empty())
        .take(8)
        .collect();
    let max_attrs = config.max_selection_attributes.min(useful.len());
    if max_attrs >= 2 {
        // Enumerate attribute subsets of size 2..=max_attrs.
        let n = useful.len();
        for mask in 1u32..(1 << n.min(16)) {
            let size = mask.count_ones() as usize;
            if !(2..=max_attrs).contains(&size) {
                continue;
            }
            if out.len() >= config.max_candidates {
                break;
            }
            let chosen: Vec<&AttributeAnalysis> = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| useful[i])
                .collect();
            // Cartesian product of each chosen attribute's covering terms,
            // taking one term per attribute (plus, for numeric attributes,
            // the two-sided combination).
            let per_attr_blocks: Vec<Vec<Vec<Term>>> = chosen
                .iter()
                .map(|a| {
                    let mut blocks: Vec<Vec<Term>> =
                        a.covering.iter().map(|t| vec![t.clone()]).collect();
                    if a.covering.len() == 2 {
                        blocks.push(a.covering.clone()); // both bounds
                    }
                    blocks
                })
                .collect();
            let mut combos: Vec<Vec<Term>> = vec![Vec::new()];
            for blocks in &per_attr_blocks {
                let mut next = Vec::new();
                for partial in &combos {
                    for block in blocks {
                        let mut ext = partial.clone();
                        ext.extend(block.iter().cloned());
                        if ext.len() <= config.max_terms_per_conjunct {
                            next.push(ext);
                        }
                    }
                }
                combos = next;
                if combos.len() > 256 {
                    combos.truncate(256);
                }
            }
            for terms in combos {
                if terms.is_empty() {
                    continue;
                }
                let pred = DnfPredicate::conjunction(terms);
                if space.selects_exactly(join, split, &pred) {
                    push(pred, &mut out);
                }
            }
        }
    }

    // 3. Greedy disjunctive cover fallback (also adds diversity when allowed).
    if config.max_disjuncts >= 2 {
        if let Some(pred) = greedy_disjunctive_cover(join, space, split, config) {
            if space.selects_exactly(join, split, &pred) {
                push(pred, &mut out);
            }
        }
    }

    out
}

/// Builds a DNF predicate as a greedy cover of the positive rows by "pure"
/// conjuncts (conjuncts that match no negative row).  Returns `None` when the
/// positives cannot be covered within the configured number of disjuncts.
fn greedy_disjunctive_cover(
    join: &JoinedRelation,
    space: &AttributeSpace,
    split: &RowSplit,
    config: &QboConfig,
) -> Option<DnfPredicate> {
    // Candidate pure conjuncts: per categorical attribute, equality with each
    // positive value that no negative shares; per numeric attribute, maximal
    // positive-only intervals.
    let mut pure: Vec<(Conjunct, BTreeSet<usize>)> = Vec::new();
    for col in 0..join.arity() {
        let attr = space.reference(col).to_string();
        let value_of = |row: usize| {
            join.rows()[row]
                .tuple
                .get(col)
                .cloned()
                .unwrap_or(Value::Null)
        };
        let neg_vals: BTreeSet<Value> = split.negatives.iter().map(|&r| value_of(r)).collect();
        if space.data_type(col).is_numeric() {
            // Intervals between consecutive positive values not containing
            // any negative value.
            let mut pos_sorted: Vec<Value> = split
                .positives
                .iter()
                .map(|&r| value_of(r))
                .filter(|v| !v.is_null())
                .collect();
            pos_sorted.sort();
            pos_sorted.dedup();
            let mut i = 0usize;
            while i < pos_sorted.len() {
                // Grow a run [i, j) such that no negative lies within
                // [pos_sorted[i], pos_sorted[j-1]].
                let mut j = i + 1;
                while j < pos_sorted.len()
                    && !neg_vals
                        .iter()
                        .any(|nv| !nv.is_null() && *nv >= pos_sorted[i] && *nv <= pos_sorted[j])
                {
                    j += 1;
                }
                let lo = pos_sorted[i].clone();
                let hi = pos_sorted[j - 1].clone();
                if !neg_vals
                    .iter()
                    .any(|nv| !nv.is_null() && *nv >= lo && *nv <= hi)
                {
                    let conjunct = if lo == hi {
                        Conjunct::new(vec![Term::eq(&attr, lo.clone())])
                    } else {
                        Conjunct::new(vec![
                            Term::compare(&attr, ComparisonOp::Ge, lo.clone()),
                            Term::compare(&attr, ComparisonOp::Le, hi.clone()),
                        ])
                    };
                    let covered: BTreeSet<usize> = split
                        .positives
                        .iter()
                        .filter(|&&r| {
                            let v = value_of(r);
                            !v.is_null() && v >= lo && v <= hi
                        })
                        .copied()
                        .collect();
                    if !covered.is_empty() {
                        pure.push((conjunct, covered));
                    }
                }
                i = j;
            }
        } else {
            let mut by_value: BTreeMap<Value, BTreeSet<usize>> = BTreeMap::new();
            for &r in &split.positives {
                by_value.entry(value_of(r)).or_default().insert(r);
            }
            for (v, covered) in by_value {
                if v.is_null() || neg_vals.contains(&v) {
                    continue;
                }
                pure.push((Conjunct::new(vec![Term::eq(&attr, v)]), covered));
            }
        }
    }
    if pure.is_empty() {
        return None;
    }

    // Greedy cover.
    let all_pos: BTreeSet<usize> = split.positives.iter().copied().collect();
    let mut uncovered = all_pos;
    let mut chosen: Vec<Conjunct> = Vec::new();
    while !uncovered.is_empty() {
        if chosen.len() >= config.max_disjuncts {
            return None;
        }
        let best = pure
            .iter()
            .max_by_key(|(_, covered)| covered.intersection(&uncovered).count())?;
        let gain = best.1.intersection(&uncovered).count();
        if gain == 0 {
            return None;
        }
        for r in &best.1 {
            uncovered.remove(r);
        }
        chosen.push(best.0.clone());
    }
    Some(DnfPredicate::new(chosen))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfe_relation::{
        foreign_key_join, tuple, ColumnDef, DataType, Database, Table, TableSchema,
    };

    fn employee_join() -> (JoinedRelation, AttributeSpace) {
        let employee = Table::with_rows(
            TableSchema::new(
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
            .unwrap(),
            vec![
                tuple![1i64, "Alice", "F", "Sales", 3700i64],
                tuple![2i64, "Bob", "M", "IT", 4200i64],
                tuple![3i64, "Celina", "F", "Service", 3000i64],
                tuple![4i64, "Darren", "M", "IT", 5000i64],
            ],
        )
        .unwrap();
        let mut db = Database::new();
        db.add_table(employee).unwrap();
        let join = foreign_key_join(&db, &["Employee".to_string()]).unwrap();
        let space = AttributeSpace::new(&join);
        (join, space)
    }

    fn bob_darren_result() -> QueryResult {
        QueryResult::new(
            vec!["name".to_string()],
            vec![tuple!["Bob"], tuple!["Darren"]],
        )
    }

    #[test]
    fn attribute_space_resolution() {
        let (join, space) = employee_join();
        assert_eq!(space.len(), 5);
        assert!(!space.is_empty());
        // Single table: bare names are unambiguous.
        assert_eq!(space.reference(4), "salary");
        assert_eq!(space.resolve("salary"), Some(4));
        assert_eq!(space.resolve("Employee.salary"), Some(4));
        assert_eq!(space.resolve("unknown"), None);
        assert_eq!(space.data_type(1), DataType::Text);
        assert!(space.matches(&join, 1, &DnfPredicate::single(Term::eq("name", "Bob"))));
    }

    #[test]
    fn split_rows_identifies_positive_rows() {
        let (join, _space) = employee_join();
        let proj = vec![join.resolve_column("name").unwrap()];
        let split = split_rows(&join, &proj, &bob_darren_result()).unwrap();
        assert_eq!(split.positives, vec![1, 3]);
        assert_eq!(split.negatives, vec![0, 2]);
    }

    #[test]
    fn split_rows_rejects_unmatchable_results() {
        let (join, _space) = employee_join();
        let proj = vec![join.resolve_column("name").unwrap()];
        // "Nobody" is not producible.
        let r = QueryResult::new(vec!["name".to_string()], vec![tuple!["Nobody"]]);
        assert!(split_rows(&join, &proj, &r).is_none());
        // Duplicate "Bob" cannot be produced by a selection (only one Bob row).
        let r = QueryResult::new(vec!["name".to_string()], vec![tuple!["Bob"], tuple!["Bob"]]);
        assert!(split_rows(&join, &proj, &r).is_none());
    }

    #[test]
    fn enumeration_finds_the_three_example_1_1_candidates() {
        let (join, space) = employee_join();
        let proj = vec![join.resolve_column("name").unwrap()];
        let split = split_rows(&join, &proj, &bob_darren_result()).unwrap();
        let preds = enumerate_predicates(&join, &space, &split, &QboConfig::default());
        let rendered: Vec<String> = preds.iter().map(|p| p.to_string()).collect();
        // The three candidates of Example 1.1 must all be discovered:
        assert!(rendered.iter().any(|s| s == "gender = 'M'"), "{rendered:?}");
        assert!(rendered.iter().any(|s| s == "dept = 'IT'"), "{rendered:?}");
        assert!(
            rendered.iter().any(|s| s.contains("salary >")),
            "{rendered:?}"
        );
        // Every enumerated predicate selects exactly the positives.
        for p in &preds {
            assert!(space.selects_exactly(&join, &split, p), "{p}");
        }
    }

    #[test]
    fn enumeration_handles_no_negatives() {
        let (join, space) = employee_join();
        let proj = vec![join.resolve_column("name").unwrap()];
        let all = QueryResult::new(
            vec!["name".to_string()],
            vec![
                tuple!["Alice"],
                tuple!["Bob"],
                tuple!["Celina"],
                tuple!["Darren"],
            ],
        );
        let split = split_rows(&join, &proj, &all).unwrap();
        assert!(split.negatives.is_empty());
        let preds = enumerate_predicates(&join, &space, &split, &QboConfig::default());
        assert!(preds.iter().any(DnfPredicate::is_always_true));
    }

    #[test]
    fn disjunctive_cover_is_generated_when_needed() {
        // Result {Alice, Darren}: no single-attribute predicate separates
        // them from {Bob, Celina} on this data, so the disjunctive cover
        // fallback must produce a valid (multi-disjunct) predicate.
        let (join, space) = employee_join();
        let proj = vec![join.resolve_column("name").unwrap()];
        let r = QueryResult::new(
            vec!["name".to_string()],
            vec![tuple!["Alice"], tuple!["Darren"]],
        );
        let split = split_rows(&join, &proj, &r).unwrap();
        let preds = enumerate_predicates(&join, &space, &split, &QboConfig::default());
        assert!(!preds.is_empty());
        for p in &preds {
            assert!(space.selects_exactly(&join, &split, p), "{p}");
        }
        assert!(preds.iter().any(|p| p.conjuncts().len() >= 2));
    }

    #[test]
    fn candidate_cap_is_respected() {
        let (join, space) = employee_join();
        let proj = vec![join.resolve_column("name").unwrap()];
        let split = split_rows(&join, &proj, &bob_darren_result()).unwrap();
        let config = QboConfig {
            max_candidates: 2,
            ..QboConfig::default()
        };
        let preds = enumerate_predicates(&join, &space, &split, &config);
        assert!(preds.len() <= 2);
    }
}
