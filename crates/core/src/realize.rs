//! Realizing tuple-class pairs as concrete database modifications.
//!
//! Algorithm 2's final step (and the cost evaluation inside Algorithm 4)
//! requires mapping each chosen (STC, DTC) pair to a concrete tuple
//! modification: pick a base tuple belonging to the source class and rewrite
//! the changed attributes to values of the destination class.  Because a base
//! tuple can contribute to several joined tuples, the realization prefers
//! tuples with no side effects (Section 5.4.1) and the evaluation of a
//! realized modification accounts for all affected joined tuples through the
//! join index.

use std::collections::BTreeSet;

use qfe_query::QueryResult;
use qfe_relation::{min_edit_rows, Database, EditOp, Tuple, Value};

use crate::context::{ClassPair, GenerationContext};
use crate::error::{QfeError, Result};

/// A single-cell modification of a base table.
#[derive(Debug, Clone, PartialEq)]
pub struct CellEdit {
    /// Base table name.
    pub table: String,
    /// Base row index.
    pub row: usize,
    /// Column name.
    pub column: String,
    /// The new value.
    pub new_value: Value,
}

/// A set of concrete cell edits realizing a set of tuple-class pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct RealizedModification {
    /// The concrete cell edits.
    pub edits: Vec<CellEdit>,
    /// `minEdit(D, D')`: one per modified attribute value.
    pub db_edit_cost: usize,
    /// Number of distinct relations modified (`n` of Equation 3).
    pub modified_relations: usize,
    /// Number of distinct base tuples modified (`µ` of Equation 5).
    pub modified_tuples: usize,
}

/// The effect of a realized modification on one group of candidate queries
/// (all queries in the group see the same result on `D'`).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupEffect {
    /// Candidate-query indices in this group.
    pub query_indices: Vec<usize>,
    /// Result rows removed relative to `R` (with multiplicity).
    pub removed: Vec<Tuple>,
    /// Result rows added relative to `R` (with multiplicity).
    pub added: Vec<Tuple>,
    /// `minEdit(R, R_i)` for this group's result.
    pub result_edit_cost: usize,
}

/// The class-exact evaluation of a realized modification: how the candidate
/// queries partition on the modified database and at what result-edit cost.
#[derive(Debug, Clone, PartialEq)]
pub struct ModificationEvaluation {
    /// The induced query groups.
    pub groups: Vec<GroupEffect>,
}

impl ModificationEvaluation {
    /// Sizes of the induced query subsets.
    pub fn partition_sizes(&self) -> Vec<usize> {
        self.groups.iter().map(|g| g.query_indices.len()).collect()
    }

    /// `minEdit(R, R_i)` per induced subset.
    pub fn result_edit_costs(&self) -> Vec<usize> {
        self.groups.iter().map(|g| g.result_edit_cost).collect()
    }

    /// Total result modification cost (Equation 4).
    pub fn total_result_cost(&self) -> usize {
        self.groups.iter().map(|g| g.result_edit_cost).sum()
    }

    /// Number of induced subsets.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }
}

/// Maps each tuple-class pair to a concrete tuple modification.
///
/// For every pair, a join row belonging to the source class is selected,
/// preferring rows whose affected base tuples have the smallest join fan-out
/// (fewest side effects) and that do not conflict with the edits already
/// chosen for earlier pairs. Returns `None` when some pair has no realizable
/// tuple (e.g. all members already used).
pub fn realize_pairs(ctx: &GenerationContext, pairs: &[ClassPair]) -> Option<RealizedModification> {
    let mut used_join_rows: BTreeSet<usize> = BTreeSet::new();
    let mut edited_cells: BTreeSet<(String, usize, String)> = BTreeSet::new();
    let mut edits: Vec<CellEdit> = Vec::new();

    for pair in pairs {
        // A destination block whose representative cannot be stored in the
        // column's declared type is unrealizable: e.g. the open interval
        // (80, 81) of a BIGINT column contains no integers, so its fractional
        // representative must never be written into the base table. The
        // context precomputes conformance per (attribute, block).
        for &pos in &pair.changed_attributes {
            if !ctx.block_realizable(pos, pair.destination[pos]) {
                return None;
            }
        }
        let members = ctx.source_classes().get(&pair.source)?;
        // The base table (its provenance column in the join) behind each
        // changed attribute.
        let join = ctx.join();
        let tables: Vec<usize> = pair
            .changed_attributes
            .iter()
            .map(|&pos| join.table_position(&ctx.class_space().attributes()[pos].table))
            .collect::<Option<_>>()?;
        // Order candidate rows by total fan-out of the base tuples we would
        // modify (ascending: prefer side-effect-free realizations).
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
                    continue 'candidate;
                }
                let new_value = attr.blocks[pair.destination[pos]].representative().clone();
                pair_edits.push(CellEdit {
                    table: attr.table.clone(),
                    row: base_row,
                    column: attr.base_column.clone(),
                    new_value,
                });
            }
            // Commit this candidate.
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

/// Applies cell edits to a clone of the database and verifies its integrity
/// constraints (primary and foreign keys), per Section 6.3.
///
/// The clone `Arc`-shares every table the edits do not touch, and the
/// integrity re-check is scoped to what cell edits can break:
/// `Table::update_cell` already enforces types, nullability and primary-key
/// uniqueness per edit, so only foreign keys referencing an edited column are
/// re-validated — the whole call is proportional to the edit, not to `|D|`.
pub fn apply_edits(db: &Database, edits: &[CellEdit]) -> Result<Database> {
    let mut modified = db.clone();
    for e in edits {
        modified
            .table_mut(&e.table)?
            .update_cell(e.row, &e.column, e.new_value.clone())?;
    }
    let touched = |table: &str, columns: &[String]| {
        edits
            .iter()
            .any(|e| e.table == table && columns.contains(&e.column))
    };
    let affected_fks: Vec<_> = modified
        .foreign_keys()
        .iter()
        .filter(|fk| {
            touched(&fk.child_table, &fk.child_columns)
                || touched(&fk.parent_table, &fk.parent_columns)
        })
        .cloned()
        .collect();
    for fk in &affected_fks {
        modified.check_foreign_key_data(fk)?;
    }
    Ok(modified)
}

/// Converts cell edits into presentation-level [`EditOp`]s (with the original
/// values filled in from `db`).
pub fn edits_to_ops(db: &Database, edits: &[CellEdit]) -> Result<Vec<EditOp>> {
    let mut ops = Vec::with_capacity(edits.len());
    for e in edits {
        let table = db.table(&e.table)?;
        let col_idx = table
            .schema()
            .column_index(&e.column)
            .ok_or_else(|| QfeError::Internal {
                message: format!("unknown column {}.{}", e.table, e.column),
            })?;
        let old = table
            .row(e.row)
            .and_then(|r| r.get(col_idx).cloned())
            .ok_or_else(|| QfeError::Internal {
                message: format!("row {} out of bounds in {}", e.row, e.table),
            })?;
        ops.push(EditOp::ModifyCell {
            table: e.table.clone(),
            row: e.row,
            column: e.column.clone(),
            old,
            new: e.new_value.clone(),
        });
    }
    Ok(ops)
}

/// Evaluates a realized modification *incrementally*: only the joined rows
/// affected by the edited base tuples are re-examined (via the join index),
/// which makes the cost evaluation inside Algorithm 4 cheap even on larger
/// joins. The computation accounts for side effects exactly.
pub fn evaluate_modification(
    ctx: &GenerationContext,
    edits: &[CellEdit],
) -> ModificationEvaluation {
    use std::collections::BTreeMap;

    let patched = ctx.patched_join_rows(edits);
    let arity = ctx.bound_queries()[0].projection_indices().len();

    let mut groups: BTreeMap<(Vec<Tuple>, Vec<Tuple>), Vec<usize>> = BTreeMap::new();
    for (qidx, bound) in ctx.bound_queries().iter().enumerate() {
        let mut removed: Vec<Tuple> = Vec::new();
        let mut added: Vec<Tuple> = Vec::new();
        for (_, old, new) in &patched {
            let old_match = bound.matches_row(old);
            let new_match = bound.matches_row(new);
            let old_proj = old.project(bound.projection_indices());
            let new_proj = new.project(bound.projection_indices());
            match (old_match, new_match) {
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
        .map(|((removed, added), query_indices)| {
            let result_edit_cost = min_edit_rows(&removed, &added, arity);
            GroupEffect {
                query_indices,
                removed,
                added,
                result_edit_cost,
            }
        })
        .collect();
    ModificationEvaluation { groups }
}

/// Materializes the query result of one group on the modified database by
/// applying the group's removed/added rows to the original result `R`.
pub fn group_result(original: &QueryResult, group: &GroupEffect) -> QueryResult {
    let mut multiset = original.row_multiset();
    for r in &group.removed {
        if let Some(count) = multiset.get_mut(r) {
            *count = count.saturating_sub(1);
        }
    }
    let mut rows: Vec<Tuple> = multiset
        .into_iter()
        .flat_map(|(row, count)| std::iter::repeat_n(row, count))
        .collect();
    rows.extend(group.added.iter().cloned());
    rows.sort();
    QueryResult::new(original.columns().to_vec(), rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfe_query::{evaluate, ComparisonOp, DnfPredicate, SpjQuery, Term};
    use qfe_relation::{tuple, ColumnDef, DataType, ForeignKey, Table, TableSchema};

    fn employee_context() -> GenerationContext {
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
        let q = |p| SpjQuery::new(vec!["Employee"], vec!["name"], p);
        let queries = vec![
            q(DnfPredicate::single(Term::eq("gender", "M"))),
            q(DnfPredicate::single(Term::compare(
                "salary",
                ComparisonOp::Gt,
                4000i64,
            ))),
            q(DnfPredicate::single(Term::eq("dept", "IT"))),
        ];
        let result = evaluate(&queries[0], &db).unwrap();
        GenerationContext::new(&db, &result, &queries).unwrap()
    }

    fn salary_pair(ctx: &GenerationContext) -> ClassPair {
        let bob = ctx
            .class_space()
            .classify(&ctx.join().rows()[1].tuple)
            .unwrap();
        let salary_pos = ctx
            .class_space()
            .attributes()
            .iter()
            .position(|a| a.base_column == "salary")
            .unwrap();
        ctx.destination_pairs(&bob, 1)
            .into_iter()
            .find(|p| p.changed_attributes == vec![salary_pos])
            .unwrap()
    }

    #[test]
    fn realize_single_pair_produces_one_edit() {
        let ctx = employee_context();
        let pair = salary_pair(&ctx);
        let realized = realize_pairs(&ctx, std::slice::from_ref(&pair)).unwrap();
        assert_eq!(realized.edits.len(), 1);
        assert_eq!(realized.db_edit_cost, 1);
        assert_eq!(realized.modified_relations, 1);
        assert_eq!(realized.modified_tuples, 1);
        let edit = &realized.edits[0];
        assert_eq!(edit.table, "Employee");
        assert_eq!(edit.column, "salary");
        // The new value belongs to the destination block (≤ 4000).
        assert!(edit.new_value <= Value::Int(4000));
    }

    #[test]
    fn apply_edits_round_trip_and_integrity() {
        let ctx = employee_context();
        let pair = salary_pair(&ctx);
        let realized = realize_pairs(&ctx, std::slice::from_ref(&pair)).unwrap();
        let modified = apply_edits(ctx.database(), &realized.edits).unwrap();
        assert_eq!(modified.table("Employee").unwrap().len(), 4);
        assert_ne!(
            modified.table("Employee").unwrap().rows(),
            ctx.database().table("Employee").unwrap().rows()
        );
        let ops = edits_to_ops(ctx.database(), &realized.edits).unwrap();
        assert_eq!(ops.len(), 1);
        assert!(
            matches!(&ops[0], EditOp::ModifyCell { old, .. } if *old == Value::Int(4200) || *old == Value::Int(5000))
        );
    }

    #[test]
    fn apply_edits_rejects_foreign_key_violations() {
        // Build a two-table DB and force an edit that breaks the FK.
        let parent = Table::with_rows(
            TableSchema::new(
                "P",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("v", DataType::Int),
                ],
            )
            .unwrap()
            .with_primary_key(&["id"])
            .unwrap(),
            vec![tuple![1i64, 5i64]],
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
            vec![tuple![1i64, 10i64]],
        )
        .unwrap();
        let mut db = Database::new();
        db.add_table(parent).unwrap();
        db.add_table(child).unwrap();
        db.add_foreign_key(ForeignKey::new("C", "pid", "P", "id"))
            .unwrap();
        let bad = vec![CellEdit {
            table: "C".into(),
            row: 0,
            column: "pid".into(),
            new_value: Value::Int(99),
        }];
        assert!(apply_edits(&db, &bad).is_err());
    }

    #[test]
    fn evaluation_matches_direct_reevaluation() {
        let ctx = employee_context();
        let pair = salary_pair(&ctx);
        let realized = realize_pairs(&ctx, std::slice::from_ref(&pair)).unwrap();
        let eval = evaluate_modification(&ctx, &realized.edits);
        // Direct evaluation: apply edits, recompute every query's result.
        let modified = apply_edits(ctx.database(), &realized.edits).unwrap();
        let direct = qfe_query::partition_queries(ctx.queries(), &modified).unwrap();
        let mut incremental_sizes = eval.partition_sizes();
        incremental_sizes.sort();
        let mut direct_sizes = direct.sizes();
        direct_sizes.sort();
        assert_eq!(incremental_sizes, direct_sizes);
        // The group results reconstructed from deltas match direct evaluation.
        for group in &eval.groups {
            let reconstructed = group_result(ctx.original_result(), group);
            let direct_result =
                qfe_query::evaluate(&ctx.queries()[group.query_indices[0]], &modified).unwrap();
            assert!(reconstructed.bag_equal(&direct_result));
        }
        // Group/result-cost accessors are consistent.
        assert_eq!(eval.group_count(), eval.partition_sizes().len());
        assert_eq!(
            eval.total_result_cost(),
            eval.result_edit_costs().iter().sum::<usize>()
        );
    }

    #[test]
    fn realize_two_pairs_uses_distinct_tuples() {
        let ctx = employee_context();
        let bob = ctx
            .class_space()
            .classify(&ctx.join().rows()[1].tuple)
            .unwrap();
        let pairs = ctx.destination_pairs(&bob, 1);
        // Take two different single-attribute pairs from the same source class.
        let two: Vec<ClassPair> = pairs.into_iter().take(2).collect();
        assert_eq!(two.len(), 2);
        let realized = realize_pairs(&ctx, &two).unwrap();
        let tuples: BTreeSet<(String, usize)> = realized
            .edits
            .iter()
            .map(|e| (e.table.clone(), e.row))
            .collect();
        assert_eq!(tuples.len(), 2, "distinct pairs must edit distinct tuples");
    }

    #[test]
    fn realize_fails_when_class_has_too_few_members() {
        let ctx = employee_context();
        let alice = ctx
            .class_space()
            .classify(&ctx.join().rows()[0].tuple)
            .unwrap();
        let pairs = ctx.destination_pairs(&alice, 1);
        // Alice's class has two members (Alice, Celina): three pairs from the
        // same class cannot all be realized on distinct tuples.
        let three: Vec<ClassPair> = pairs.into_iter().take(3).collect();
        if three.len() == 3 {
            assert!(realize_pairs(&ctx, &three).is_none());
        }
    }

    #[test]
    fn group_result_applies_removals_and_additions() {
        let ctx = employee_context();
        let group = GroupEffect {
            query_indices: vec![0],
            removed: vec![tuple!["Bob"]],
            added: vec![tuple!["Eve"]],
            result_edit_cost: 1,
        };
        let r = group_result(ctx.original_result(), &group);
        assert_eq!(r.len(), 2);
        assert!(r.rows().contains(&tuple!["Eve"]));
        assert!(!r.rows().contains(&tuple!["Bob"]));
    }
}
