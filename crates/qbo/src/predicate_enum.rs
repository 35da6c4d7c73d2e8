//! Enumeration of candidate selection predicates.
//!
//! Given the joined relation, a projection and the example result, the rows
//! of the join split into *positives* (rows that must be selected to produce
//! the result) and *negatives* (rows that must not be).  This module
//! enumerates DNF predicates that select exactly the positive rows, bounded
//! by the generator configuration: single-attribute terms, tight ranges,
//! multi-attribute conjunctions and (as a fallback) greedy disjunctive
//! covers.
//!
//! The split is a pair of row bitmaps, and every row-set question the
//! enumeration asks is answered by AND/popcount over the term bitmaps of
//! the join's [`TermBitmapCache`] — the cache the generator's
//! [`BatchVerifier`](crate::BatchVerifier) then verifies the candidates
//! with, so the bitmaps computed here are the ones verification reads back:
//!
//! * whether a predicate selects exactly the positives (AND within a
//!   conjunct, OR across conjuncts, compared with the positives);
//! * an attribute's discrimination (the negatives outside the AND of its
//!   covering terms);
//! * a greedy-cover step's gain (the uncovered positives a pure conjunct
//!   covers).
//!
//! Each column's values are read once per split and by reference
//! ([`ColumnValues`]): the distinct positive values, sorted, and one pass
//! over the negatives that locates each value among them. The analyses and
//! the cover's pure conjuncts are read off that summary, so no value is
//! cloned except into the terms of the predicates returned.

use std::collections::{BTreeMap, BTreeSet};

use qfe_query::{ComparisonOp, Conjunct, DnfPredicate, QueryResult, Term, TermBitmapCache};
use qfe_relation::{bag_equal_rows, Bitmap, DataType, JoinedRelation, Value};

use crate::config::QboConfig;

/// The positive/negative split of the join's rows w.r.t. a projection and an
/// example result, as two complementary row bitmaps.
#[derive(Debug, Clone)]
pub struct RowSplit {
    /// Join rows that must be selected.
    pub positives: Bitmap,
    /// Join rows that must not be selected.
    pub negatives: Bitmap,
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
    let wanted: BTreeSet<_> = result.rows().iter().collect();
    let mut positives = Bitmap::new(join.len());
    let mut projected_positives = Vec::new();
    for (i, row) in join.rows().iter().enumerate() {
        let projected = row.tuple.project(projection_idx);
        if wanted.contains(&projected) {
            projected_positives.push(projected);
            positives.set(i);
        }
    }
    if projected_positives.is_empty() {
        return None;
    }
    if !bag_equal_rows(&projected_positives, result.rows()) {
        return None;
    }
    let mut negatives = Bitmap::all_set(join.len());
    negatives.and_not_assign(&positives);
    Some(RowSplit {
        positives,
        negatives,
    })
}

/// Attribute-name resolution for predicate construction: maps every join
/// column to the reference string used in generated predicates (bare column
/// name when unambiguous, otherwise `Table.column`) and evaluates predicates
/// as row bitmaps.
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

    /// The rows of the cache's join on which every one of `terms` holds:
    /// the AND of their term bitmaps. A term over a column this space does
    /// not know reads NULL, so it holds on no row.
    fn conjunct_rows(&self, cache: &mut TermBitmapCache, terms: &[Term]) -> Bitmap {
        let mut rows = Bitmap::all_set(cache.join().len());
        for term in terms {
            match self.resolve(term.attribute()) {
                Some(col) => rows.and_assign(cache.term_bitmap(col, term)),
                None => rows = Bitmap::new(rows.len()),
            }
            if rows.is_zero() {
                break;
            }
        }
        rows
    }

    /// The rows of the cache's join that `pred` selects: each conjunct's
    /// term bitmaps ANDed, the conjuncts ORed. A predicate without conjuncts
    /// selects every row.
    fn selection(&self, cache: &mut TermBitmapCache, pred: &DnfPredicate) -> Bitmap {
        let rows = cache.join().len();
        if pred.conjuncts().is_empty() {
            return Bitmap::all_set(rows);
        }
        let mut selected = Bitmap::new(rows);
        for conjunct in pred.conjuncts() {
            selected.or_assign(&self.conjunct_rows(cache, conjunct.terms()));
        }
        selected
    }

    /// True when `pred` selects exactly the positive rows of `split` on the
    /// join `cache` holds.
    pub fn selects_exactly(
        &self,
        cache: &mut TermBitmapCache,
        split: &RowSplit,
        pred: &DnfPredicate,
    ) -> bool {
        self.selection(cache, pred) == split.positives
    }
}

/// A missing cell reads NULL.
static NULL: Value = Value::Null;

/// One column's values under a split, read by reference in one pass over
/// the positives and one over the negatives.
///
/// Values are compared by `Value`'s total order, and where several values
/// are equal under it the first in row order stands for them all — what an
/// ordered set of the values would keep.
struct ColumnValues<'j> {
    /// The distinct values of the positive rows, ascending (NULL first when
    /// some positive row holds it).
    pos: Vec<&'j Value>,
    /// For every positive row, in row order, the index of its value in
    /// `pos`.
    pos_index: Vec<usize>,
    /// `pos_in_neg[k]`: some negative row holds `pos[k]`.
    pos_in_neg: Vec<bool>,
    /// `neg_in_gap[k]`: some non-NULL negative value lies strictly between
    /// `pos[k - 1]` and `pos[k]` (below `pos[0]` for `k == 0`, above the
    /// last positive value for `k == pos.len()`).
    neg_in_gap: Vec<bool>,
    /// The least non-NULL negative value above every positive value.
    neg_above: Option<&'j Value>,
    /// The greatest non-NULL negative value below every positive value.
    neg_below: Option<&'j Value>,
    /// The distinct negative values (NULL included), ascending — `None`
    /// once there are more than the `IN`-list bound, or when not asked for.
    neg_list: Option<Vec<&'j Value>>,
}

impl<'j> ColumnValues<'j> {
    /// Reads column `col`. `neg_list_cap` asks for [`Self::neg_list`] up to
    /// that many values.
    fn read(
        join: &'j JoinedRelation,
        split: &RowSplit,
        col: usize,
        neg_list_cap: Option<usize>,
    ) -> ColumnValues<'j> {
        let value_of = |r: usize| join.rows()[r].tuple.get(col).unwrap_or(&NULL);
        let pos_rows: Vec<&Value> = split.positives.iter_ones().map(value_of).collect();
        // A stable sort keeps equal values in row order, so `dedup` keeps
        // the first of each.
        let mut pos = pos_rows.clone();
        pos.sort();
        pos.dedup();
        let pos_index = pos_rows
            .iter()
            .map(|v| {
                pos.binary_search(v)
                    .expect("every positive value is listed")
            })
            .collect();

        let mut pos_in_neg = vec![false; pos.len()];
        let mut neg_in_gap = vec![false; pos.len() + 1];
        let (mut neg_above, mut neg_below): (Option<&Value>, Option<&Value>) = (None, None);
        let mut neg_list = neg_list_cap.map(|_| Vec::new());
        for v in split.negatives.iter_ones().map(value_of) {
            match pos.binary_search(&v) {
                Ok(k) => pos_in_neg[k] = true,
                Err(k) if !v.is_null() => {
                    neg_in_gap[k] = true;
                    if k == pos.len() && neg_above.is_none_or(|a| v < a) {
                        neg_above = Some(v);
                    }
                    if k == 0 && neg_below.is_none_or(|b| v > b) {
                        neg_below = Some(v);
                    }
                }
                Err(_) => {}
            }
            if let (Some(list), Some(cap)) = (&mut neg_list, neg_list_cap) {
                if let Err(i) = list.binary_search(&v) {
                    if list.len() == cap {
                        neg_list = None;
                    } else {
                        list.insert(i, v);
                    }
                }
            }
        }
        ColumnValues {
            pos,
            pos_index,
            pos_in_neg,
            neg_in_gap,
            neg_above,
            neg_below,
            neg_list,
        }
    }

    /// Whether some non-NULL negative value lies within the positive values'
    /// range (bounds included). Only meaningful when no positive is NULL.
    fn neg_inside_range(&self) -> bool {
        self.pos_in_neg.iter().any(|&b| b) || self.neg_in_gap[1..self.pos.len()].iter().any(|&b| b)
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
    cache: &mut TermBitmapCache,
    space: &AttributeSpace,
    split: &RowSplit,
    values: &ColumnValues<'_>,
    col: usize,
    config: &QboConfig,
) -> Option<AttributeAnalysis> {
    let pos = &values.pos;
    if pos[0].is_null() {
        return None; // NULL-valued positives cannot be captured by comparisons
    }
    let attr = space.reference(col).to_string();
    let numeric = space.data_type(col).is_numeric();

    let mut exact: Vec<Vec<Term>> = Vec::new();
    let mut covering: Vec<Term> = Vec::new();

    if numeric {
        let min_pos = pos[0].clone();
        let max_pos = pos[pos.len() - 1].clone();
        let neg_inside_range = values.neg_inside_range();
        let neg_le_max_pos = neg_inside_range || values.neg_in_gap[0];
        let neg_ge_min_pos = neg_inside_range || values.neg_in_gap[pos.len()];

        // Upper-bounded predicates: all positives ≤ max_pos, valid when no
        // negative is ≤ max_pos.
        if !neg_le_max_pos {
            exact.push(vec![Term::compare(
                &attr,
                ComparisonOp::Le,
                max_pos.clone(),
            )]);
            if let Some(nn) = values.neg_above {
                exact.push(vec![Term::compare(&attr, ComparisonOp::Lt, nn.clone())]);
            }
        }
        // Lower-bounded predicates.
        if !neg_ge_min_pos {
            exact.push(vec![Term::compare(
                &attr,
                ComparisonOp::Ge,
                min_pos.clone(),
            )]);
            if let Some(nn) = values.neg_below {
                exact.push(vec![Term::compare(&attr, ComparisonOp::Gt, nn.clone())]);
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
        if pos.len() == 1 && !values.pos_in_neg[0] {
            exact.push(vec![Term::eq(&attr, min_pos.clone())]);
        }

        // Covering terms (tightest bounds containing every positive).
        covering.push(Term::compare(&attr, ComparisonOp::Ge, min_pos.clone()));
        covering.push(Term::compare(&attr, ComparisonOp::Le, max_pos));
        if pos.len() == 1 {
            covering.push(Term::eq(&attr, min_pos));
        }
    } else {
        // Categorical attribute.
        let pos_vals = || pos.iter().map(|&v| v.clone()).collect::<Vec<Value>>();
        let disjoint = !values.pos_in_neg.iter().any(|&b| b);
        if disjoint {
            if pos.len() == 1 {
                exact.push(vec![Term::eq(&attr, pos[0].clone())]);
            } else if pos.len() <= config.max_in_list {
                exact.push(vec![Term::is_in(&attr, pos_vals())]);
            }
            if let Some(neg) = values.neg_list.as_ref().filter(|n| !n.is_empty()) {
                exact.push(vec![Term::not_in(
                    &attr,
                    neg.iter().map(|&v| v.clone()).collect(),
                )]);
            }
        }
        if pos.len() == 1 {
            covering.push(Term::eq(&attr, pos[0].clone()));
        } else if pos.len() <= config.max_in_list {
            covering.push(Term::is_in(&attr, pos_vals()));
        }
    }

    // Discrimination: how many negatives the tightest covering conjunct
    // excludes (0 when there are no covering terms).
    let discrimination = if covering.is_empty() {
        0
    } else {
        let tight = space.conjunct_rows(cache, &covering);
        split.negatives.count_ones() - tight.and_count(&split.negatives)
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
/// `cache` must hold `join` (the generator passes its verifier's). The
/// returned predicates are deduplicated and capped at
/// `config.max_candidates`; every one of them satisfies
/// [`AttributeSpace::selects_exactly`] (callers re-verify against the real
/// evaluator anyway).
pub fn enumerate_predicates(
    join: &JoinedRelation,
    space: &AttributeSpace,
    split: &RowSplit,
    config: &QboConfig,
    cache: &mut TermBitmapCache,
) -> Vec<DnfPredicate> {
    debug_assert_eq!(
        cache.join().len(),
        join.len(),
        "the cache holds another join"
    );
    let columns: Vec<ColumnValues<'_>> = (0..join.arity())
        .map(|col| {
            let categorical = !space.data_type(col).is_numeric();
            ColumnValues::read(join, split, col, categorical.then_some(config.max_in_list))
        })
        .collect();
    let mut analyses: Vec<AttributeAnalysis> = columns
        .iter()
        .enumerate()
        .filter_map(|(col, values)| analyze_attribute(cache, space, split, values, col, config))
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
    if split.negatives.is_zero() {
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
        // Each useful attribute's blocks: one covering term each (plus, for
        // numeric attributes, the two-sided combination), with the rows each
        // block selects.
        let blocks: Vec<Vec<(Vec<Term>, Bitmap)>> = useful
            .iter()
            .map(|a| {
                let mut terms: Vec<Vec<Term>> =
                    a.covering.iter().map(|t| vec![t.clone()]).collect();
                if a.covering.len() == 2 {
                    terms.push(a.covering.clone()); // both bounds
                }
                terms
                    .into_iter()
                    .map(|block| {
                        let rows = space.conjunct_rows(cache, &block);
                        (block, rows)
                    })
                    .collect()
            })
            .collect();
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
            let chosen: Vec<&Vec<(Vec<Term>, Bitmap)>> = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| &blocks[i])
                .collect();
            // Cartesian product of the chosen attributes' blocks, one block
            // per attribute, as block picks with their term count.
            let mut combos: Vec<(Vec<usize>, usize)> = vec![(Vec::new(), 0)];
            for attr_blocks in &chosen {
                let mut next = Vec::new();
                for (picks, terms) in &combos {
                    for (b, (block, _)) in attr_blocks.iter().enumerate() {
                        if terms + block.len() <= config.max_terms_per_conjunct {
                            let mut ext = picks.clone();
                            ext.push(b);
                            next.push((ext, terms + block.len()));
                        }
                    }
                }
                combos = next;
                if combos.len() > 256 {
                    combos.truncate(256);
                }
            }
            for (picks, terms) in combos {
                if terms == 0 {
                    continue;
                }
                let mut rows = Bitmap::all_set(split.positives.len());
                for (attr_blocks, &b) in chosen.iter().zip(&picks) {
                    rows.and_assign(&attr_blocks[b].1);
                }
                if rows == split.positives {
                    let conjunct = chosen
                        .iter()
                        .zip(&picks)
                        .flat_map(|(attr_blocks, &b)| attr_blocks[b].0.iter().cloned())
                        .collect();
                    push(DnfPredicate::conjunction(conjunct), &mut out);
                }
            }
        }
    }

    // 3. Greedy disjunctive cover fallback (also adds diversity when allowed).
    if config.max_disjuncts >= 2 {
        if let Some(pred) = greedy_disjunctive_cover(space, split, &columns, config) {
            if space.selects_exactly(cache, split, &pred) {
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
    space: &AttributeSpace,
    split: &RowSplit,
    columns: &[ColumnValues<'_>],
    config: &QboConfig,
) -> Option<DnfPredicate> {
    // Candidate pure conjuncts: per categorical attribute, equality with each
    // positive value that no negative shares; per numeric attribute, maximal
    // positive-only intervals. Each comes with the positive rows it covers.
    let rows = split.positives.len();
    let mut pure: Vec<(Conjunct, Bitmap)> = Vec::new();
    for (col, values) in columns.iter().enumerate() {
        let attr = space.reference(col);
        let pos = &values.pos;
        // Each pure conjunct's slot in `pure`, by positive value.
        let mut slot_of: Vec<Option<usize>> = vec![None; pos.len()];
        if space.data_type(col).is_numeric() {
            // Maximal runs of consecutive non-NULL positive values with no
            // negative value inside their range.
            let mut i = usize::from(pos.first().is_some_and(|v| v.is_null()));
            while i < pos.len() {
                let mut j = i + 1;
                if values.pos_in_neg[i] {
                    i = j;
                    continue;
                }
                while j < pos.len() && !values.pos_in_neg[j] && !values.neg_in_gap[j] {
                    j += 1;
                }
                let (lo, hi) = (pos[i].clone(), pos[j - 1].clone());
                let conjunct = if j == i + 1 {
                    Conjunct::new(vec![Term::eq(attr, lo)])
                } else {
                    Conjunct::new(vec![
                        Term::compare(attr, ComparisonOp::Ge, lo),
                        Term::compare(attr, ComparisonOp::Le, hi),
                    ])
                };
                slot_of[i..j].fill(Some(pure.len()));
                pure.push((conjunct, Bitmap::new(rows)));
                i = j;
            }
        } else {
            for (k, v) in pos.iter().enumerate() {
                if v.is_null() || values.pos_in_neg[k] {
                    continue;
                }
                slot_of[k] = Some(pure.len());
                pure.push((
                    Conjunct::new(vec![Term::eq(attr, (*v).clone())]),
                    Bitmap::new(rows),
                ));
            }
        }
        for (r, &k) in split.positives.iter_ones().zip(&values.pos_index) {
            if let Some(slot) = slot_of[k] {
                pure[slot].1.set(r);
            }
        }
    }
    if pure.is_empty() {
        return None;
    }

    // Greedy cover.
    let mut uncovered = split.positives.clone();
    let mut chosen: Vec<Conjunct> = Vec::new();
    while !uncovered.is_zero() {
        if chosen.len() >= config.max_disjuncts {
            return None;
        }
        let best = pure
            .iter()
            .max_by_key(|(_, covered)| covered.and_count(&uncovered))?;
        if best.1.and_count(&uncovered) == 0 {
            return None;
        }
        uncovered.and_not_assign(&best.1);
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
        let mut cache = TermBitmapCache::new(&join);
        let bob = space.selection(&mut cache, &DnfPredicate::single(Term::eq("name", "Bob")));
        assert!(bob.get(1));
    }

    #[test]
    fn split_rows_identifies_positive_rows() {
        let (join, _space) = employee_join();
        let proj = vec![join.resolve_column("name").unwrap()];
        let split = split_rows(&join, &proj, &bob_darren_result()).unwrap();
        assert_eq!(split.positives.iter_ones().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(split.negatives.iter_ones().collect::<Vec<_>>(), vec![0, 2]);
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
        let mut cache = TermBitmapCache::new(&join);
        let preds = enumerate_predicates(&join, &space, &split, &QboConfig::default(), &mut cache);
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
            assert!(space.selects_exactly(&mut cache, &split, p), "{p}");
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
        let mut cache = TermBitmapCache::new(&join);
        assert!(split.negatives.is_zero());
        let preds = enumerate_predicates(&join, &space, &split, &QboConfig::default(), &mut cache);
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
        let mut cache = TermBitmapCache::new(&join);
        let preds = enumerate_predicates(&join, &space, &split, &QboConfig::default(), &mut cache);
        assert!(!preds.is_empty());
        for p in &preds {
            assert!(space.selects_exactly(&mut cache, &split, p), "{p}");
        }
        assert!(preds.iter().any(|p| p.conjuncts().len() >= 2));
    }

    #[test]
    fn candidate_cap_is_respected() {
        let (join, space) = employee_join();
        let proj = vec![join.resolve_column("name").unwrap()];
        let split = split_rows(&join, &proj, &bob_darren_result()).unwrap();
        let mut cache = TermBitmapCache::new(&join);
        let config = QboConfig {
            max_candidates: 2,
            ..QboConfig::default()
        };
        let preds = enumerate_predicates(&join, &space, &split, &config, &mut cache);
        assert!(preds.len() <= 2);
    }
}
