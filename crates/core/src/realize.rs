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
//!
//! Algorithm 4 realizes and evaluates every candidate set it visits, so both
//! steps run on integers, and `CellEdit`s are built only for the set it
//! returns:
//!
//! * The realization ([`realize_pairs`], and pick's own entry into the same
//!   search) keys edited cells by integers (attribute position, base row)
//!   and yields integer edits: (attribute position, base row, join-table
//!   position, destination block).
//! * The evaluation has one core in two steps (`Evaluator`). The first
//!   groups the candidates on integers and yields each group's size and
//!   `minEdit(R, R_i)`, which is all Equation 5 needs; the second sorts the
//!   groups in `(removed, added)` tuple order and builds the
//!   [`ModificationEvaluation`]. [`evaluate_modification`] runs both;
//!   Algorithm 4 runs the first for every set it visits and the second only
//!   for the set it returns, and [`modification_scores`] exposes the first.
//! * The core reads match rows from the outcome kernel, not from the
//!   predicates. Every tuple of a class satisfies the same candidates
//!   (Section 5.1), so a patched join row's old match row is its source
//!   class's row, and its new one is the row of the class with the edited
//!   attributes' blocks swapped in. Only a row without a class (a NULL
//!   selection cell) or an edit whose value lies in no block is matched per
//!   candidate on a patched copy of its tuple.
//! * Projected tuples are interned by value, so equal tuples get one id
//!   whichever projection they come from. A join row's old projection is
//!   interned once per (projection, join row); a new projection is the old
//!   one with the edited projected cells overwritten, looked up without
//!   being built. Each candidate gets the sets of patched rows its result
//!   loses and gains; the sorted removed/added id lists are built once per
//!   distinct (projection, row sets) key, and keys with equal lists share a
//!   group. The exact `minEdit` runs on the ids, in any order.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Range;

use qfe_query::QueryResult;
use qfe_relation::{
    exact_min_edit_by, min_edit_rows, Database, EditOp, Tuple, Value, EXACT_MATCHING_LIMIT,
};

use crate::context::{ClassPair, GenerationContext};
use crate::error::{QfeError, Result};
use crate::kernel::{words_for, MatchScratch};

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

/// One realized cell edit in integers: the selection attribute it writes
/// (its position in the class space), the base row, the position of the
/// attribute's base table in the join, and the destination block whose
/// representative it writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ClassEdit {
    pub attribute: usize,
    pub row: usize,
    pub table: usize,
    pub block: usize,
}

/// Maps each tuple-class pair to a concrete tuple modification.
///
/// For every pair, a join row belonging to the source class is selected,
/// preferring rows whose affected base tuples have the smallest join fan-out
/// (fewest side effects), then the lowest join row, among the rows no
/// earlier pair used and whose cells no earlier pair edited. Returns `None`
/// when some pair has no realizable tuple (e.g. all members already used).
pub fn realize_pairs<'a>(
    ctx: &GenerationContext,
    pairs: impl IntoIterator<Item = &'a ClassPair>,
) -> Option<RealizedModification> {
    let sources = ctx.source_classes();
    let pairs = pairs
        .into_iter()
        .map(|pair| (pair, sources.get(&pair.source).map(Vec::as_slice)));
    let mut realization = Realization::default();
    realization
        .realize(ctx, pairs)
        .then(|| realized_modification(ctx, &realization.edits))
}

/// The search behind [`realize_pairs`], on integers, with its buffers kept
/// from one set to the next (Algorithm 4 realizes every set it visits). A
/// cell is its (attribute position, base row), since an attribute is one
/// column of one base table; the used join rows and the edits sit in short
/// vectors (one entry per pair and per edit).
#[derive(Debug, Default)]
pub(crate) struct Realization {
    /// The integer edits of the last set realized.
    pub edits: Vec<ClassEdit>,
    used_join_rows: Vec<usize>,
    /// The base table (its provenance column in the join) behind each
    /// changed attribute of the current pair.
    tables: Vec<usize>,
}

impl Realization {
    /// Realizes `pairs` into [`Self::edits`]. Each pair comes with the
    /// member join rows of its source class (`None` when no row has the
    /// class). Returns `false` when some pair has no realizable tuple.
    pub fn realize<'a>(
        &mut self,
        ctx: &GenerationContext,
        pairs: impl IntoIterator<Item = (&'a ClassPair, Option<&'a [usize]>)>,
    ) -> bool {
        let join = ctx.join();
        let Realization {
            edits,
            used_join_rows,
            tables,
        } = self;
        edits.clear();
        used_join_rows.clear();

        for (pair, members) in pairs {
            // A destination block whose representative cannot be stored in
            // the column's declared type is unrealizable: e.g. the open
            // interval (80, 81) of a BIGINT column contains no integers, so
            // its fractional representative must never be written into the
            // base table. The context precomputes conformance per
            // (attribute, block).
            for &pos in &pair.changed_attributes {
                if !ctx.block_realizable(pos, pair.destination[pos]) {
                    return false;
                }
            }
            let Some(members) = members else {
                return false;
            };
            tables.clear();
            for &pos in &pair.changed_attributes {
                let Some(t) = ctx.attribute_table(pos) else {
                    return false;
                };
                tables.push(t);
            }
            // The first free row in (fan-out, join row) order: the total
            // fan-out of the base tuples we would modify, ascending, prefers
            // side-effect-free realizations.
            let mut chosen: Option<(usize, usize)> = None;
            for &jrow in members {
                if used_join_rows.contains(&jrow) {
                    continue;
                }
                let fan_out: usize = tables
                    .iter()
                    .map(|&t| ctx.join_index().fan_out(t, join.provenance(t)[jrow]))
                    .sum();
                if chosen.is_some_and(|best| best <= (fan_out, jrow)) {
                    continue;
                }
                let free = pair
                    .changed_attributes
                    .iter()
                    .zip(tables.iter())
                    .all(|(&pos, &t)| {
                        let row = join.provenance(t)[jrow];
                        !edits.iter().any(|e| (e.attribute, e.row) == (pos, row))
                    });
                if free {
                    chosen = Some((fan_out, jrow));
                }
            }
            let Some((_, jrow)) = chosen else {
                return false;
            };
            for (&pos, &t) in pair.changed_attributes.iter().zip(tables.iter()) {
                edits.push(ClassEdit {
                    attribute: pos,
                    row: join.provenance(t)[jrow],
                    table: t,
                    block: pair.destination[pos],
                });
            }
            used_join_rows.push(jrow);
        }
        true
    }
}

/// The numbers of distinct relations and of distinct base tuples that
/// integer edits modify (`n` of Equation 3 and `µ` of Equation 5); a table
/// position names one table. A set has a handful of edits, so each edit is
/// compared with the ones before it.
pub(crate) fn modified_counts(edits: &[ClassEdit]) -> (usize, usize) {
    let (mut relations, mut tuples) = (0, 0);
    for (i, edit) in edits.iter().enumerate() {
        let earlier = &edits[..i];
        relations += usize::from(!earlier.iter().any(|e| e.table == edit.table));
        tuples += usize::from(
            !earlier
                .iter()
                .any(|e| (e.table, e.row) == (edit.table, edit.row)),
        );
    }
    (relations, tuples)
}

/// The concrete cell edits of integer edits, with their counts.
pub(crate) fn realized_modification(
    ctx: &GenerationContext,
    edits: &[ClassEdit],
) -> RealizedModification {
    let attributes = ctx.class_space().attributes();
    let (modified_relations, modified_tuples) = modified_counts(edits);
    RealizedModification {
        edits: edits
            .iter()
            .map(|e| {
                let attr = &attributes[e.attribute];
                CellEdit {
                    table: attr.table.clone(),
                    row: e.row,
                    column: attr.base_column.clone(),
                    new_value: attr.blocks[e.block].representative().clone(),
                }
            })
            .collect(),
        db_edit_cost: edits.len(),
        modified_relations,
        modified_tuples,
    }
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
///
/// Each edit is resolved once: its join column, and when that column is a
/// selection attribute, the block its value lies in. Pick's own integer
/// edits reach the same evaluation without the lookups. Groups come in
/// `(removed, added)` order, each with its candidate indices ascending.
pub fn evaluate_modification(
    ctx: &GenerationContext,
    edits: &[CellEdit],
) -> ModificationEvaluation {
    let mut evaluator = Evaluator::new(ctx);
    evaluator.score(&resolve_cell_edits(ctx, edits));
    evaluator.evaluation()
}

/// The integers Algorithm 4 scores a modification on: each group's size
/// and `minEdit(R, R_i)`, ascending. They are the first step of
/// [`evaluate_modification`] alone, which builds no result tuple, so they
/// equal that evaluation's [`ModificationEvaluation::partition_sizes`]
/// zipped with its [`ModificationEvaluation::result_edit_costs`], sorted.
pub fn modification_scores(ctx: &GenerationContext, edits: &[CellEdit]) -> Vec<(usize, usize)> {
    let mut evaluator = Evaluator::new(ctx);
    let mut scores: Vec<(usize, usize)> = evaluator
        .score(&resolve_cell_edits(ctx, edits))
        .iter()
        .map(|group| (group.size, group.cost))
        .collect();
    scores.sort_unstable();
    scores
}

/// Resolves cell edits against the round's join; an edit outside the join's
/// tables or columns patches no row and is dropped.
fn resolve_cell_edits<'e>(ctx: &GenerationContext, edits: &'e [CellEdit]) -> Vec<JoinEdit<'e>> {
    let join = ctx.join();
    let attributes = ctx.class_space().attributes();
    edits
        .iter()
        .filter_map(|edit| {
            let table = join.table_position(&edit.table)?;
            let column = join
                .columns()
                .iter()
                .position(|c| c.table == edit.table && c.column == edit.column)?;
            let class = attributes
                .iter()
                .position(|a| a.column == column)
                .map(|pos| {
                    let blocks = &attributes[pos].blocks;
                    (pos, blocks.iter().position(|b| b.contains(&edit.new_value)))
                });
            Some(JoinEdit {
                table,
                row: edit.row,
                column,
                class,
                value: &edit.new_value,
            })
        })
        .collect()
}

/// Resolves integer edits (Algorithm 4's realizations) into `resolved`,
/// which is cleared first; each value is its block's representative.
pub(crate) fn resolve_class_edits<'c>(
    ctx: &'c GenerationContext,
    edits: &[ClassEdit],
    resolved: &mut Vec<JoinEdit<'c>>,
) {
    let attributes = ctx.class_space().attributes();
    resolved.clear();
    resolved.extend(edits.iter().map(|e| {
        let attr = &attributes[e.attribute];
        JoinEdit {
            table: e.table,
            row: e.row,
            column: attr.column,
            class: Some((e.attribute, Some(e.block))),
            value: attr.blocks[e.block].representative(),
        }
    }));
}

/// A cell edit resolved against the round's join.
#[derive(Debug)]
pub(crate) struct JoinEdit<'a> {
    /// The position of the edited base table in the join's tables.
    table: usize,
    /// The edited base row.
    row: usize,
    /// The edited join column.
    column: usize,
    /// When the column is a selection attribute: its position, and the block
    /// that holds `value` (`None` when no block does).
    class: Option<(usize, Option<usize>)>,
    /// The new value.
    value: &'a Value,
}

/// One group of the evaluation's first step: the candidates that see the
/// same result on the modified database.
#[derive(Debug)]
pub(crate) struct GroupScore {
    /// The number of candidates in the group.
    pub size: usize,
    /// `minEdit(R, R_i)` of the group's result.
    pub cost: usize,
    /// The group's first key.
    key: usize,
}

/// One distinct (projection, row sets) key of an evaluation.
#[derive(Debug)]
struct Key {
    /// The first candidate with the key.
    first: usize,
    /// The key's removed and added tuple ids, each a range of `ids`,
    /// ascending.
    removed: Range<usize>,
    added: Range<usize>,
    /// The number of candidates with the key.
    size: usize,
    /// The key's group.
    group: usize,
}

/// The evaluation core, in two steps (see the module docs).
/// [`Self::score`] groups the candidates on integers and yields each
/// group's size and `minEdit(R, R_i)`; [`Self::evaluation`] builds the
/// [`ModificationEvaluation`] of the set scored last, with tuples.
///
/// A patched row whose old tuple has no class (a NULL selection cell), or
/// that an edit writes a value in no block, is matched exactly, per
/// candidate, on a patched copy of its tuple. A new projection is cloned
/// only the first time it is seen. One evaluator serves every set Algorithm
/// 4 visits in a call, so its buffers and interned tuples carry over from
/// one set to the next.
pub(crate) struct Evaluator<'c> {
    ctx: &'c GenerationContext,
    /// The candidates' distinct projections, and each candidate's.
    projections: Vec<&'c [usize]>,
    projection_of: Vec<usize>,
    tuples: Interner,
    /// `old_ids[p * join rows + jrow]`: one more than the id of join row
    /// `jrow`'s tuple under projection `p`, or 0 until it is first needed.
    old_ids: Vec<u32>,
    match_scratch: MatchScratch,
    /// Every (joined row, edit) hit: by row, and within a row in edit order.
    hits: Vec<(usize, usize)>,
    /// Patched row `r`'s hits are `hits[starts[r]..starts[r + 1]]`.
    starts: Vec<usize>,
    /// Per patched row, the candidates its old and its new tuple satisfy.
    before: Vec<u64>,
    after: Vec<u64>,
    class: Vec<usize>,
    /// `projected[p * patched rows + r]`: patched row `r`'s old and new
    /// tuple ids under projection `p`.
    projected: Vec<(u32, u32)>,
    /// Per candidate, the patched rows it loses, then the ones it gains.
    row_sets: Vec<u64>,
    keys: Vec<Key>,
    /// Each candidate's key.
    key_of: Vec<usize>,
    ids: Vec<u32>,
    groups: Vec<GroupScore>,
}

impl<'c> Evaluator<'c> {
    /// An evaluator of modifications of `ctx`'s database.
    pub fn new(ctx: &'c GenerationContext) -> Evaluator<'c> {
        let mut projections: Vec<&[usize]> = Vec::new();
        let projection_of: Vec<usize> = ctx
            .bound_queries()
            .iter()
            .map(|b| {
                let p = b.projection_indices();
                projections.iter().position(|&q| q == p).unwrap_or_else(|| {
                    projections.push(p);
                    projections.len() - 1
                })
            })
            .collect();
        Evaluator {
            ctx,
            old_ids: vec![0; projections.len() * ctx.join().len()],
            projections,
            projection_of,
            tuples: Interner::default(),
            match_scratch: ctx.match_scratch(),
            hits: Vec::new(),
            starts: Vec::new(),
            before: Vec::new(),
            after: Vec::new(),
            class: Vec::new(),
            projected: Vec::new(),
            row_sets: Vec::new(),
            keys: Vec::new(),
            key_of: Vec::new(),
            ids: Vec::new(),
            groups: Vec::new(),
        }
    }

    /// The first step: the groups `edits` induce, in no particular order,
    /// each with its size and `minEdit(R, R_i)`. Builds no tuple beyond the
    /// first sighting of a projected tuple.
    pub fn score(&mut self, edits: &[JoinEdit<'_>]) -> &[GroupScore] {
        let Evaluator {
            ctx,
            projections,
            projection_of,
            tuples,
            old_ids,
            match_scratch,
            hits,
            starts,
            before,
            after,
            class,
            projected,
            row_sets,
            keys,
            key_of,
            ids,
            groups,
        } = self;
        let ctx: &GenerationContext = ctx;
        let join = ctx.join();
        let bound = ctx.bound_queries();
        let nq = bound.len();

        hits.clear();
        for (e, edit) in edits.iter().enumerate() {
            hits.extend(
                ctx.join_index()
                    .joined_rows_of(edit.table, edit.row)
                    .iter()
                    .map(|&jrow| (jrow, e)),
            );
        }
        hits.sort_unstable();
        starts.clear();
        starts.extend((0..hits.len()).filter(|&i| i == 0 || hits[i - 1].0 != hits[i].0));
        let np = starts.len();
        starts.push(hits.len());
        let patched = |r: usize| &hits[starts[r]..starts[r + 1]];

        let words = words_for(nq.max(1));
        before.clear();
        before.resize(np * words, 0);
        after.clear();
        after.resize(np * words, 0);
        for r in 0..np {
            let row = patched(r);
            let (before, after) = (
                &mut before[r * words..(r + 1) * words],
                &mut after[r * words..(r + 1) * words],
            );
            let in_blocks = row
                .iter()
                .all(|&(_, e)| !matches!(edits[e].class, Some((_, None))));
            match ctx.row_class(row[0].0).filter(|_| in_blocks) {
                Some(source) => {
                    before.copy_from_slice(ctx.class_match_words(source, match_scratch));
                    class.clear();
                    class.extend_from_slice(source);
                    for &(_, e) in row {
                        if let Some((pos, Some(block))) = edits[e].class {
                            class[pos] = block;
                        }
                    }
                    after.copy_from_slice(ctx.class_match_words(class, match_scratch));
                }
                None => {
                    let old = &join.rows()[row[0].0].tuple;
                    let mut new = old.clone();
                    for &(_, e) in row {
                        new.set(edits[e].column, edits[e].value.clone());
                    }
                    for (q, b) in bound.iter().enumerate() {
                        let bit = 1u64 << (q % 64);
                        if b.matches_row(old) {
                            before[q / 64] |= bit;
                        }
                        if b.matches_row(&new) {
                            after[q / 64] |= bit;
                        }
                    }
                }
            }
        }

        // Per projection, per patched row: the old and the new tuple id. An
        // edited projected cell takes its row's last edit; the new id is the
        // old one unless some edited cell changes value.
        projected.clear();
        for (p, columns) in projections.iter().enumerate() {
            for r in 0..np {
                let row = patched(r);
                let jrow = row[0].0;
                let old = join.rows()[jrow].tuple.values();
                let slot = &mut old_ids[p * join.len() + jrow];
                if *slot == 0 {
                    *slot = tuples.intern(columns.len(), |i| &old[columns[i]]) + 1;
                }
                let old_id = *slot - 1;
                let edit_of = |column: usize| {
                    row.iter()
                        .rev()
                        .find(|&&(_, e)| edits[e].column == column)
                        .map(|&(_, e)| edits[e].value)
                };
                let changed = columns
                    .iter()
                    .any(|&c| edit_of(c).is_some_and(|value| *value != old[c]));
                let new_id = if changed {
                    tuples.intern(columns.len(), |i| {
                        let c = columns[i];
                        edit_of(c)
                            .filter(|&value| *value != old[c])
                            .unwrap_or(&old[c])
                    })
                } else {
                    old_id
                };
                projected.push((old_id, new_id));
            }
        }

        // Per candidate, the patched rows its result loses and gains, as row
        // bitsets: row `r` leaves the result when its old tuple satisfied the
        // candidate and its new tuple does not or projects differently, and
        // enters it in the mirror case (Lemma 5.1 at the row level: removed,
        // added, or both for replaced).
        let row_words = words_for(np.max(1));
        row_sets.clear();
        row_sets.resize(nq * 2 * row_words, 0);
        for r in 0..np {
            let (row_bit, rw) = (1u64 << (r % 64), r / 64);
            for w in 0..words {
                let (old, new) = (before[r * words + w], after[r * words + w]);
                let mut bits = old | new;
                while bits != 0 {
                    let q = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let bit = 1u64 << (q % 64);
                    let (old, new) = (old & bit != 0, new & bit != 0);
                    let (old_id, new_id) = projected[projection_of[q] * np + r];
                    let changed = old_id != new_id;
                    let sets = &mut row_sets[q * 2 * row_words..(q + 1) * 2 * row_words];
                    if old && (!new || changed) {
                        sets[rw] |= row_bit;
                    }
                    if new && (!old || changed) {
                        sets[row_words + rw] |= row_bit;
                    }
                }
            }
        }

        // The distinct (projection, row sets) keys, each with its sorted
        // removed and added ids. A round's candidates fall into a handful of
        // keys, so each candidate is compared with the keys found so far.
        let sets = |q: usize| &row_sets[q * 2 * row_words..(q + 1) * 2 * row_words];
        keys.clear();
        key_of.clear();
        ids.clear();
        for q in 0..nq {
            let p = projection_of[q];
            let same = keys
                .iter()
                .position(|key| projection_of[key.first] == p && sets(key.first) == sets(q));
            let k = same.unwrap_or_else(|| {
                let removed = ids.len();
                ids.extend(set_bits(&sets(q)[..row_words]).map(|r| projected[p * np + r].0));
                let added = ids.len();
                ids.extend(set_bits(&sets(q)[row_words..]).map(|r| projected[p * np + r].1));
                ids[removed..added].sort_unstable();
                ids[added..].sort_unstable();
                keys.push(Key {
                    first: q,
                    removed: removed..added,
                    added: added..ids.len(),
                    size: 0,
                    group: 0,
                });
                keys.len() - 1
            });
            keys[k].size += 1;
            key_of.push(k);
        }

        // Keys with equal id lists see equal multisets: one group.
        let arity = projections[0].len();
        groups.clear();
        for k in 0..keys.len() {
            let (removed, added) = (&ids[keys[k].removed.clone()], &ids[keys[k].added.clone()]);
            let same = groups.iter().position(|group| {
                let key = &keys[group.key];
                ids[key.removed.clone()] == *removed && ids[key.added.clone()] == *added
            });
            let g = same.unwrap_or_else(|| {
                groups.push(GroupScore {
                    size: 0,
                    cost: tuples.min_edit(removed, added, arity),
                    key: k,
                });
                groups.len() - 1
            });
            groups[g].size += keys[k].size;
            keys[k].group = g;
        }
        groups
    }

    /// The second step: the [`ModificationEvaluation`] of the set
    /// [`Self::score`] grouped last, its groups in `(removed, added)` tuple
    /// order, each with its candidate indices ascending.
    pub fn evaluation(&self) -> ModificationEvaluation {
        let mut groups: Vec<GroupEffect> = self
            .groups
            .iter()
            .enumerate()
            .map(|(g, group)| {
                let key = &self.keys[group.key];
                GroupEffect {
                    query_indices: (0..self.key_of.len())
                        .filter(|&q| self.keys[self.key_of[q]].group == g)
                        .collect(),
                    removed: self.tuples.sorted(&self.ids[key.removed.clone()]),
                    added: self.tuples.sorted(&self.ids[key.added.clone()]),
                    result_edit_cost: group.cost,
                }
            })
            .collect();
        groups.sort_by(|a, b| (&a.removed, &a.added).cmp(&(&b.removed, &b.added)));
        ModificationEvaluation { groups }
    }
}

/// The FxHash mix: a fast, deterministic, non-cryptographic hash for the
/// interner, which hashes a projected tuple on every lookup.
#[derive(Debug, Default)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0.rotate_left(5) ^ u64::from_le_bytes(word))
                .wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Projected tuples interned by value: equal tuples get one id, whichever
/// projection they come from.
#[derive(Debug, Default)]
struct Interner {
    tuples: Vec<Tuple>,
    /// Per value hash, the last id interned with it; `chain[id]` is the
    /// previous id with the same hash ([`NO_ID`] ends a chain).
    heads: HashMap<u64, u32, BuildHasherDefault<FxHasher>>,
    chain: Vec<u32>,
}

/// The end of an [`Interner`] hash chain.
const NO_ID: u32 = u32::MAX;

impl Interner {
    /// The id of the tuple of `arity` values whose `i`-th one is `value(i)`.
    /// Its values are cloned only when the tuple is new.
    fn intern<'v>(&mut self, arity: usize, value: impl Fn(usize) -> &'v Value) -> u32 {
        let mut hasher = FxHasher::default();
        for i in 0..arity {
            value(i).hash(&mut hasher);
        }
        let hash = hasher.finish();
        let mut id = self.heads.get(&hash).copied().unwrap_or(NO_ID);
        while id != NO_ID {
            let values = self.tuples[id as usize].values();
            if values.len() == arity && (0..arity).all(|i| values[i] == *value(i)) {
                return id;
            }
            id = self.chain[id as usize];
        }
        let id = u32::try_from(self.tuples.len()).expect("fewer than 2^32 projected tuples");
        self.tuples
            .push((0..arity).map(|i| value(i).clone()).collect());
        self.chain
            .push(self.heads.insert(hash, id).unwrap_or(NO_ID));
        id
    }

    /// The tuples of `ids`, sorted.
    fn sorted(&self, ids: &[u32]) -> Vec<Tuple> {
        let mut tuples: Vec<Tuple> = ids
            .iter()
            .map(|&id| self.tuples[id as usize].clone())
            .collect();
        tuples.sort();
        tuples
    }

    /// `minEdit` between the bags of tuples `removed` and `added`. Up to
    /// [`EXACT_MATCHING_LIMIT`] rows the exact matching runs on the ids, in
    /// any order. Beyond it [`min_edit_rows`] is a greedy bound that depends
    /// on the rows' order, so it gets the sorted bags a group holds.
    fn min_edit(&self, removed: &[u32], added: &[u32], arity: usize) -> usize {
        if removed.len().max(added.len()) <= EXACT_MATCHING_LIMIT {
            let tuple = |id: u32| &self.tuples[id as usize];
            exact_min_edit_by(removed.len(), added.len(), arity, |i, j| {
                tuple(removed[i]).hamming_distance(tuple(added[j]))
            })
        } else {
            min_edit_rows(&self.sorted(removed), &self.sorted(added), arity)
        }
    }
}

/// The positions of the set bits of a bitset, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * 64 + bit
            })
        })
    })
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
    use std::collections::BTreeSet;

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
    fn evaluation_patches_the_edited_join_row_virtually() {
        let ctx = employee_context();
        let edit = |column: &str, new_value: Value| CellEdit {
            table: "Employee".into(),
            row: 1,
            column: column.into(),
            new_value,
        };
        // Bob's salary leaves Q2's block, and his projected name changes.
        let edits = [
            edit("salary", Value::Int(3900)),
            edit("name", Value::from("Robert")),
        ];
        let eval = evaluate_modification(&ctx, &edits);
        let group = |query_indices: Vec<usize>, added: Vec<Tuple>| GroupEffect {
            query_indices,
            removed: vec![tuple!["Bob"]],
            added,
            // One deleted row, or one modified cell.
            result_edit_cost: 1,
        };
        // Q2 drops Bob; Q1 (gender) and Q3 (dept) replace him by Robert.
        assert_eq!(
            eval.groups,
            vec![
                group(vec![1], vec![]),
                group(vec![0, 2], vec![tuple!["Robert"]])
            ]
        );
        // The join itself is untouched.
        let salary = ctx.join().resolve_column("salary").unwrap();
        assert_eq!(
            ctx.join().rows()[1].tuple.get(salary),
            Some(&Value::Int(4200))
        );
        // An edit of a table outside the join patches nothing.
        let outside = CellEdit {
            table: "Other".into(),
            ..edit("salary", Value::Int(0))
        };
        assert_eq!(evaluate_modification(&ctx, &[outside]).group_count(), 1);
    }

    #[test]
    fn equal_tuples_of_different_projections_share_a_group() {
        // `alias` repeats `name`: candidates projecting either column see
        // equal (non-empty) results.
        let employee = Table::with_rows(
            TableSchema::new(
                "Employee",
                vec![
                    ColumnDef::new("Eid", DataType::Int),
                    ColumnDef::new("name", DataType::Text),
                    ColumnDef::new("alias", DataType::Text),
                    ColumnDef::new("gender", DataType::Text),
                    ColumnDef::new("salary", DataType::Int),
                ],
            )
            .unwrap()
            .with_primary_key(&["Eid"])
            .unwrap(),
            vec![
                tuple![1i64, "Alice", "Alice", "F", 3700i64],
                tuple![2i64, "Bob", "Bob", "M", 4200i64],
                tuple![3i64, "Celina", "Celina", "F", 3000i64],
                tuple![4i64, "Darren", "Darren", "M", 5000i64],
            ],
        )
        .unwrap();
        let mut db = Database::new();
        db.add_table(employee).unwrap();
        let rich = || DnfPredicate::single(Term::compare("salary", ComparisonOp::Gt, 4000i64));
        let queries = vec![
            SpjQuery::new(vec!["Employee"], vec!["name"], rich()),
            SpjQuery::new(vec!["Employee"], vec!["alias"], rich()),
            SpjQuery::new(
                vec!["Employee"],
                vec!["name"],
                DnfPredicate::single(Term::eq("gender", "M")),
            ),
        ];
        let result = evaluate(&queries[0], &db).unwrap();
        let ctx = GenerationContext::new(&db, &result, &queries).unwrap();
        // Bob leaves the salary candidates' results, whichever column they
        // project; the gender candidate keeps him.
        let edits = [CellEdit {
            table: "Employee".into(),
            row: 1,
            column: "salary".into(),
            new_value: Value::Int(3900),
        }];
        let eval = evaluate_modification(&ctx, &edits);
        let group = |query_indices: Vec<usize>, removed: Vec<Tuple>| GroupEffect {
            query_indices,
            result_edit_cost: removed.len(),
            removed,
            added: vec![],
        };
        assert_eq!(
            eval.groups,
            vec![
                group(vec![2], vec![]),
                group(vec![0, 1], vec![tuple!["Bob"]])
            ]
        );
        assert_eq!(modification_scores(&ctx, &edits), [(1, 0), (2, 1)]);
        // Each group's result is its candidates' result on the edited
        // database.
        let modified = apply_edits(ctx.database(), &edits).unwrap();
        for group in &eval.groups {
            let expected = group_result(ctx.original_result(), group);
            for &q in &group.query_indices {
                let direct = evaluate(&ctx.queries()[q], &modified).unwrap();
                assert!(direct.bag_equal(&expected), "candidate {q}");
            }
        }
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
