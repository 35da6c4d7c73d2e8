//! Algorithm 4: `Pick-STC-DTC-Subset`.
//!
//! Given the skyline pairs produced by Algorithm 3, selects a subset of
//! (STC, DTC) pairs that minimizes the user-effort cost (Equation 5).  The
//! search starts from single-pair sets and extends them one pair at a time,
//! keeping only extensions that improve the class-level balance score —
//! the pruning heuristic that keeps the search space small in practice
//! (Section 5.4). Ties on cost are broken by the lowest balance score.
//!
//! The class-level partition of a set comes from one table, built once per
//! call: every skyline pair's Lemma 5.1 outcome code for every candidate
//! (`GenerationContext::outcome_codes`), with the pairs grouped by identical
//! code row. Skylines of thousands of pairs have a few dozen distinct rows
//! at most, and an extension's balance depends only on the added pair's row
//! and on where it falls among the parent's pairs (its slot). So each parent
//! groups its candidates once, scores every (row, slot) once
//! (`OutcomeCodes::refining_extensions`) and visits only the pairs of the
//! rows that score below it, in ascending pair order. The balances are
//! bit-identical to grouping each extension on its own, and the visits come
//! in the order a probe of every pair would make them, so the chosen set,
//! the level caps and the count of cost evaluations are too.
//!
//! A level visits each extension once, from the first parent that generates
//! it: the set `E = parent_k ∪ {p}` was already generated in this level
//! exactly when some `E ∖ {x}`, `x ∈ parent_k`, is a parent at a position
//! before `k` (a level's parents are distinct). A map from parent to
//! position checks that with `|parent_k|` lookups, so no generated set is
//! stored.
//!
//! Each visited set is realized and evaluated exactly, side effects
//! included, on integers: the realization yields integer edits (attribute
//! position, base row, join-table position, destination block) from the
//! pairs' source-class members, looked up once per call, and the first step
//! of the evaluation core groups the candidates on interned projected-tuple
//! ids, reading each patched join row's old and new match rows from the
//! outcome kernel (see [`crate::realize`]). Equation 5 needs only the group
//! count, the largest group and Σ `minEdit(R, R_i)`, so a visited set costs
//! no tuple, value or group. The search keeps `(indices, edits, cost,
//! balance)` of the tied sets; only the chosen set's evaluation and cell
//! edits are built, at the end. The realization, the evaluator, the cost
//! inputs, the extension scratch and the levels (one flat vector each, as a
//! level's sets all have the same size) are reused across the call. Once
//! the count of cost evaluations reaches its cap, the current level ends:
//! the search stops after it anyway.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::context::{ClassPair, GenerationContext};
use crate::cost::{objective, CostInputs, CostParams};
use crate::error::{QfeError, Result};
use crate::kernel::ExtensionScratch;
use crate::realize::{
    modified_counts, realized_modification, resolve_class_edits, ClassEdit, Evaluator,
    ModificationEvaluation, Realization, RealizedModification,
};

/// Safety cap on the number of candidate sets kept per extension level.
/// The paper relies purely on the balance-pruning heuristic; the cap only
/// guards against pathological inputs and is far above what the heuristic
/// retains on the evaluation workloads.
const MAX_SETS_PER_LEVEL: usize = 256;

/// Safety cap on the total number of cost evaluations per invocation.
const MAX_COST_EVALUATIONS: usize = 4096;

/// The subset of pairs chosen by Algorithm 4 together with its realization.
#[derive(Debug, Clone)]
pub struct PickOutcome {
    /// The chosen (STC, DTC) pairs `S_opt`.
    pub chosen: Vec<ClassPair>,
    /// Concrete cell edits realizing `S_opt`.
    pub realized: RealizedModification,
    /// The induced partition/result-cost evaluation of the realization.
    pub evaluation: ModificationEvaluation,
    /// The objective value (Equation 5, or the alternative model's objective).
    pub cost: f64,
    /// Number of candidate sets whose cost was evaluated.
    pub cost_evaluations: usize,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

/// A minimum-cost set kept for the final tie-break.
#[derive(Debug, Default)]
struct Kept {
    indices: Vec<usize>,
    edits: Vec<ClassEdit>,
    cost: f64,
    balance: f64,
}

/// Runs Algorithm 4 over the skyline pairs.
///
/// `best_binary_x` is Lemma 3.1's bound computed during the skyline
/// enumeration; it feeds the refined iteration estimate of the cost model.
pub fn pick_stc_dtc_subset(
    ctx: &GenerationContext,
    skyline: &[ClassPair],
    params: &CostParams,
    best_binary_x: Option<usize>,
) -> Result<PickOutcome> {
    let start = Instant::now();
    if skyline.is_empty() {
        return Err(QfeError::NoDistinguishingDatabase {
            remaining: ctx.queries().iter().map(|q| q.display_name()).collect(),
        });
    }

    let codes = ctx.outcome_codes(skyline);
    // Each pair's source-class members, looked up once.
    let sources = ctx.source_classes();
    let members: Vec<Option<&[usize]>> = skyline
        .iter()
        .map(|pair| sources.get(&pair.source).map(Vec::as_slice))
        .collect();
    let cost_evaluations = std::cell::Cell::new(0usize);
    let mut realization = Realization::default();
    let mut resolved = Vec::new();
    let mut evaluator = Evaluator::new(ctx);
    let mut inputs = CostInputs {
        db_edit_cost: 0,
        modified_relations: 0,
        modified_tuples: 0,
        result_edit_costs: Vec::new(),
        partition_sizes: Vec::new(),
        best_binary_x,
    };
    // The sets tied at the minimum cost so far are `best[..kept]`; the
    // entries past `kept` only keep their buffers.
    let mut best: Vec<Kept> = Vec::new();
    let mut kept = 0;
    let mut min_cost = f64::INFINITY;

    // Evaluates one candidate set (realize, group, cost) and keeps it when
    // its cost ties or beats the best so far.
    let mut evaluate_set = |indices: &[usize], balance: f64| {
        if cost_evaluations.get() >= MAX_COST_EVALUATIONS {
            return;
        }
        cost_evaluations.set(cost_evaluations.get() + 1);
        let pairs = indices.iter().map(|&i| (&skyline[i], members[i]));
        if !realization.realize(ctx, pairs) {
            return;
        }
        let edits = &realization.edits;
        resolve_class_edits(ctx, edits, &mut resolved);
        let groups = evaluator.score(&resolved);
        // A realization that fails to split the candidates is useless.
        if groups.len() <= 1 {
            return;
        }
        (inputs.modified_relations, inputs.modified_tuples) = modified_counts(edits);
        inputs.db_edit_cost = edits.len();
        inputs.result_edit_costs.clear();
        inputs
            .result_edit_costs
            .extend(groups.iter().map(|group| group.cost));
        inputs.partition_sizes.clear();
        inputs
            .partition_sizes
            .extend(groups.iter().map(|group| group.size));
        let cost = objective(params, &inputs);
        if cost < min_cost {
            min_cost = cost;
            kept = 0;
        } else if cost != min_cost {
            return;
        }
        if kept == best.len() {
            best.push(Kept::default());
        }
        let slot = &mut best[kept];
        slot.indices.clear();
        slot.indices.extend_from_slice(indices);
        slot.edits.clear();
        slot.edits.extend_from_slice(edits);
        slot.cost = cost;
        slot.balance = balance;
        kept += 1;
    };

    // Steps 1–8: single-pair sets. A level's sets all have `size` pairs and
    // lie back to back in one vector.
    for (i, balance) in codes.single_balances().into_iter().enumerate() {
        evaluate_set(&[i], balance);
    }
    let mut size = 1;
    let mut current_level: Vec<usize> = (0..skyline.len()).collect();
    let mut next_level: Vec<usize> = Vec::new();

    // Steps 9–21: extend sets while the balance score improves.
    let mut scratch = ExtensionScratch::default();
    let mut found: Vec<(usize, f64)> = Vec::new();
    let mut extended: Vec<usize> = Vec::new();
    let mut without: Vec<usize> = Vec::new();
    while cost_evaluations.get() < MAX_COST_EVALUATIONS {
        let position: HashMap<&[usize], usize> = current_level
            .chunks_exact(size)
            .enumerate()
            .map(|(k, indices)| (indices, k))
            .collect();
        next_level.clear();
        'level: for (k, indices) in current_level.chunks_exact(size).enumerate() {
            codes.refining_extensions(indices, &mut scratch, &mut found);
            for &(p, extended_balance) in &found {
                let at = indices
                    .binary_search(&p)
                    .expect_err("an extension adds a pair outside its parent");
                extended.clear();
                extended.extend_from_slice(indices);
                extended.insert(at, p);
                // First-generator rule: skip `extended` when an earlier
                // parent already generated it.
                let generated_earlier = (0..extended.len()).filter(|&x| x != at).any(|x| {
                    without.clear();
                    without.extend_from_slice(&extended[..x]);
                    without.extend_from_slice(&extended[x + 1..]);
                    position.get(without.as_slice()).is_some_and(|&j| j < k)
                });
                if generated_earlier {
                    continue;
                }
                evaluate_set(&extended, extended_balance);
                // Capped: the search ends with this level, whose rest
                // would be discarded.
                if cost_evaluations.get() >= MAX_COST_EVALUATIONS {
                    break 'level;
                }
                next_level.extend_from_slice(&extended);
                if next_level.len() >= MAX_SETS_PER_LEVEL * (size + 1) {
                    break 'level;
                }
            }
        }
        if next_level.is_empty() {
            break;
        }
        std::mem::swap(&mut current_level, &mut next_level);
        size += 1;
    }

    // Step 22: among the minimum-cost sets, pick the one with the lowest
    // balance score.
    best.truncate(kept);
    let chosen = best
        .into_iter()
        .min_by(|a, b| {
            a.balance
                .partial_cmp(&b.balance)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.indices.len().cmp(&b.indices.len()))
                .then_with(|| a.indices.cmp(&b.indices))
        })
        .ok_or_else(|| QfeError::NoDistinguishingDatabase {
            remaining: ctx.queries().iter().map(|q| q.display_name()).collect(),
        })?;

    // Only the chosen set gets tuples: group it again, then build its
    // evaluation and its cell edits.
    resolve_class_edits(ctx, &chosen.edits, &mut resolved);
    evaluator.score(&resolved);
    Ok(PickOutcome {
        chosen: chosen.indices.iter().map(|&i| skyline[i].clone()).collect(),
        realized: realized_modification(ctx, &chosen.edits),
        evaluation: evaluator.evaluation(),
        cost: chosen.cost,
        cost_evaluations: cost_evaluations.get(),
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skyline::skyline_stc_dtc_pairs;
    use qfe_query::{evaluate, ComparisonOp, DnfPredicate, SpjQuery, Term};
    use qfe_relation::{tuple, ColumnDef, DataType, Database, Table, TableSchema};

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

    #[test]
    fn picks_a_discriminating_low_cost_modification() {
        let ctx = employee_context();
        let skyline = skyline_stc_dtc_pairs(&ctx, Duration::from_secs(5));
        let outcome = pick_stc_dtc_subset(
            &ctx,
            &skyline.pairs,
            &CostParams::default(),
            skyline.best_binary_x,
        )
        .unwrap();
        assert!(!outcome.chosen.is_empty());
        assert!(outcome.evaluation.group_count() >= 2);
        assert!(outcome.cost.is_finite());
        assert!(outcome.cost_evaluations >= skyline.pairs.len().min(MAX_COST_EVALUATIONS));
        // On Example 1.1 at most two single-attribute changes are needed
        // (either a 2/1 split with one change or a full 1/1/1 split with two).
        assert!(outcome.realized.db_edit_cost <= 2);
        assert_eq!(outcome.realized.modified_relations, 1);
    }

    #[test]
    fn empty_skyline_is_an_error() {
        let ctx = employee_context();
        let err = pick_stc_dtc_subset(&ctx, &[], &CostParams::default(), None).unwrap_err();
        assert!(matches!(err, QfeError::NoDistinguishingDatabase { .. }));
    }

    #[test]
    fn alternative_cost_model_can_prefer_more_partitions() {
        use crate::cost::CostModelKind;
        let ctx = employee_context();
        let skyline = skyline_stc_dtc_pairs(&ctx, Duration::from_secs(5));
        let effort = pick_stc_dtc_subset(
            &ctx,
            &skyline.pairs,
            &CostParams::default(),
            skyline.best_binary_x,
        )
        .unwrap();
        let maxpart = pick_stc_dtc_subset(
            &ctx,
            &skyline.pairs,
            &CostParams::default().with_model(CostModelKind::MaxPartitions),
            skyline.best_binary_x,
        )
        .unwrap();
        assert!(maxpart.evaluation.group_count() >= effort.evaluation.group_count());
    }

    #[test]
    fn larger_skyline_never_hurts_cost() {
        let ctx = employee_context();
        let skyline = skyline_stc_dtc_pairs(&ctx, Duration::from_secs(5));
        let params = CostParams::default();
        let full =
            pick_stc_dtc_subset(&ctx, &skyline.pairs, &params, skyline.best_binary_x).unwrap();
        let half: Vec<ClassPair> = skyline.pairs[..skyline.pairs.len().max(1) / 2 + 1].to_vec();
        let partial = pick_stc_dtc_subset(&ctx, &half, &params, skyline.best_binary_x).unwrap();
        assert!(full.cost <= partial.cost + 1e-9);
    }
}
