//! The user-effort cost model (Section 3 of the paper).
//!
//! The database generator chooses a modified database `D'` that minimizes the
//! user's estimated effort:
//!
//! ```text
//! cost(D') = minEdit(D, D') + β·n + Σ_i minEdit(R, R_i)
//!          + N × ( minEdit(D, D')/µ + β + (2/k)·Σ_i minEdit(R, R_i) )      (Eq. 5)
//! ```
//!
//! where `n` is the number of modified relations, `µ` the number of modified
//! tuples, `k` the number of query subsets induced by `D'`, and `N` the
//! estimated number of remaining iterations (Equation 6, refined by
//! Equations 7–9 via Lemma 3.1).  The *balance score* `σ/|C|` of a candidate
//! partitioning is used to steer the skyline search of Algorithm 3.

use std::time::Duration;

/// How the remaining number of iterations `N` is estimated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterationEstimator {
    /// Equation 6: `N = log2(max_i |QC_i|)` — assumes a perfectly balanced
    /// binary partitioning is always available.
    Simple,
    /// Equations 7–9: exploits Lemma 3.1 — at most `x` false positives can be
    /// eliminated per subsequent iteration, where `x` is the size of the
    /// smaller subset of the most balanced binary partitioning available in
    /// the current iteration. Falls back to Equation 6 when `x` is undefined.
    Refined,
}

/// Which objective the database generator optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostModelKind {
    /// The paper's user-effort cost model (Equation 5).
    UserEffort,
    /// The alternative model used as the comparison point in the paper's user
    /// study (Section 7.7): maximize the number of partitioned query subsets,
    /// breaking ties by smaller database modification cost.
    MaxPartitions,
}

/// Tunable parameters of the cost model and of the database generator.
#[derive(Debug, Clone, PartialEq)]
pub struct CostParams {
    /// The scale parameter β of Equation 3 (number of attribute modifications
    /// a "new relation touched" is worth). The paper's default is 1.
    pub beta: f64,
    /// The time threshold δ allotted to Algorithm 3 (skyline enumeration).
    /// The paper's default is 1 second.
    pub skyline_time_budget: Duration,
    /// How the number of remaining iterations is estimated.
    pub estimator: IterationEstimator,
    /// Which objective drives the choice of modified database.
    pub model: CostModelKind,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            beta: 1.0,
            skyline_time_budget: Duration::from_secs(1),
            estimator: IterationEstimator::Refined,
            model: CostModelKind::UserEffort,
        }
    }
}

impl CostParams {
    /// Sets β.
    pub fn with_beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Sets the Algorithm 3 time threshold δ.
    pub fn with_skyline_budget(mut self, budget: Duration) -> Self {
        self.skyline_time_budget = budget;
        self
    }

    /// Sets the iteration estimator.
    pub fn with_estimator(mut self, estimator: IterationEstimator) -> Self {
        self.estimator = estimator;
        self
    }

    /// Sets the cost-model objective.
    pub fn with_model(mut self, model: CostModelKind) -> Self {
        self.model = model;
        self
    }
}

/// Balance score of a partitioning with the given subset sizes: `σ / |C|`
/// (standard deviation of the sizes divided by the number of subsets).
/// A partitioning with a single subset distinguishes nothing and scores
/// `+∞` so that it is never preferred.
pub fn balance_score(sizes: &[usize]) -> f64 {
    balance_of(sizes.len(), sizes.iter().sum(), sizes.iter().copied())
}

/// [`balance_score`] of `count` subset sizes that sum to `total`, given in
/// order by `sizes`: the same float operations in the same order, for a
/// caller that knows the count and the total without collecting the sizes.
pub(crate) fn balance_of(count: usize, total: usize, sizes: impl Iterator<Item = usize>) -> f64 {
    if count <= 1 {
        return f64::INFINITY;
    }
    let n = count as f64;
    let mean = total as f64 / n;
    let variance = sizes
        .map(|s| {
            let d = s as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / n;
    variance.sqrt() / n
}

/// Estimates the number of remaining iterations after the current one.
///
/// * `max_subset` — the size of the largest query subset of the candidate
///   partitioning (the conservative assumption is that the user's feedback
///   keeps that subset);
/// * `best_binary_x` — the size of the *smaller* subset of the most balanced
///   binary partitioning available in the current iteration (Lemma 3.1's
///   bound on per-iteration progress), if any binary partitioning exists.
pub fn estimate_iterations(
    max_subset: usize,
    best_binary_x: Option<usize>,
    estimator: IterationEstimator,
) -> f64 {
    if max_subset <= 1 {
        return 0.0;
    }
    let simple = (max_subset as f64).log2().ceil();
    match estimator {
        IterationEstimator::Simple => simple,
        IterationEstimator::Refined => match best_binary_x {
            Some(x) if x >= 1 => {
                // Equation 8: N1 = floor(max / x) - 1 iterations eliminating x
                // queries each; Equation 9: N2 = ceil(log2(max - x*N1)) for the
                // remainder.
                let n1 = (max_subset / x).saturating_sub(1);
                let remaining = max_subset.saturating_sub(x * n1).max(1);
                let n2 = (remaining as f64).log2().ceil();
                n1 as f64 + n2
            }
            _ => simple,
        },
    }
}

/// The measurable ingredients of Equation 5 for one candidate modified
/// database.
#[derive(Debug, Clone, PartialEq)]
pub struct CostInputs {
    /// `minEdit(D, D')`: total database modification cost.
    pub db_edit_cost: usize,
    /// `n`: number of relations modified in `D'`.
    pub modified_relations: usize,
    /// `µ`: number of modified database tuples.
    pub modified_tuples: usize,
    /// `minEdit(R, R_i)` for each induced query subset.
    pub result_edit_costs: Vec<usize>,
    /// Sizes of the induced query subsets `|QC_1|, …, |QC_k|`.
    pub partition_sizes: Vec<usize>,
    /// Lemma 3.1's `x` for the current iteration, when a binary partitioning
    /// exists.
    pub best_binary_x: Option<usize>,
}

impl CostInputs {
    /// `dbCost` of Equation 3: `minEdit(D, D') + β·n`.
    pub fn db_cost(&self, beta: f64) -> f64 {
        self.db_edit_cost as f64 + beta * self.modified_relations as f64
    }

    /// `resultCost` of Equation 4: `Σ_i minEdit(R, R_i)`.
    pub fn result_cost(&self) -> f64 {
        self.result_edit_costs.iter().sum::<usize>() as f64
    }

    /// Number of induced query subsets `k`.
    pub fn subset_count(&self) -> usize {
        self.partition_sizes.len()
    }

    /// Size of the largest induced subset.
    pub fn max_subset(&self) -> usize {
        self.partition_sizes.iter().copied().max().unwrap_or(0)
    }

    /// The balance score of the induced partitioning.
    pub fn balance(&self) -> f64 {
        balance_score(&self.partition_sizes)
    }
}

/// The user-effort cost of Equation 5.
pub fn user_effort_cost(params: &CostParams, inputs: &CostInputs) -> f64 {
    let k = inputs.subset_count().max(1) as f64;
    let mu = inputs.modified_tuples.max(1) as f64;
    let db_edit = inputs.db_edit_cost as f64;
    let current = inputs.db_cost(params.beta) + inputs.result_cost();
    let n_remaining =
        estimate_iterations(inputs.max_subset(), inputs.best_binary_x, params.estimator);
    let residual_per_round = db_edit / mu + params.beta + (2.0 / k) * inputs.result_cost();
    current + n_remaining * residual_per_round
}

/// The objective value used to compare candidate modified databases under the
/// configured cost model (lower is better).
pub fn objective(params: &CostParams, inputs: &CostInputs) -> f64 {
    match params.model {
        CostModelKind::UserEffort => user_effort_cost(params, inputs),
        CostModelKind::MaxPartitions => {
            // Maximize k; tie-break on the user-effort cost so that among
            // equally discriminating modifications the cheaper one wins.
            let k = inputs.subset_count() as f64;
            -k * 1e6 + user_effort_cost(params, inputs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balance_score_matches_definition() {
        // Two subsets of sizes 2 and 2: σ = 0 -> score 0.
        assert_eq!(balance_score(&[2, 2]), 0.0);
        // Sizes 3 and 1: mean 2, variance 1, σ = 1, |C| = 2 -> 0.5.
        assert!((balance_score(&[3, 1]) - 0.5).abs() < 1e-12);
        // Single subset: infinite.
        assert!(balance_score(&[5]).is_infinite());
        assert!(balance_score(&[]).is_infinite());
        // More, evenly sized subsets score lower than fewer, skewed ones.
        assert!(balance_score(&[2, 2, 2, 2]) < balance_score(&[7, 1]));
    }

    #[test]
    fn simple_iteration_estimate_is_log2() {
        assert_eq!(
            estimate_iterations(1, None, IterationEstimator::Simple),
            0.0
        );
        assert_eq!(
            estimate_iterations(2, None, IterationEstimator::Simple),
            1.0
        );
        assert_eq!(
            estimate_iterations(8, None, IterationEstimator::Simple),
            3.0
        );
        assert_eq!(
            estimate_iterations(9, None, IterationEstimator::Simple),
            4.0
        );
    }

    #[test]
    fn refined_estimate_falls_back_without_binary_partitioning() {
        assert_eq!(
            estimate_iterations(8, None, IterationEstimator::Refined),
            estimate_iterations(8, None, IterationEstimator::Simple)
        );
    }

    #[test]
    fn refined_estimate_uses_lemma_3_1_bound() {
        // max = 10, x = 2: N1 = 10/2 - 1 = 4 iterations removing 2 each
        // (leaving 2), then N2 = ceil(log2(10 - 8)) = 1 -> N = 5.
        assert_eq!(
            estimate_iterations(10, Some(2), IterationEstimator::Refined),
            5.0
        );
        // A balanced split (x = half) reduces to roughly the simple estimate.
        let refined = estimate_iterations(16, Some(8), IterationEstimator::Refined);
        let simple = estimate_iterations(16, None, IterationEstimator::Simple);
        assert!(refined <= simple + 1.0);
        // x = 1 (worst case): N1 = max - 1, N2 = 0.
        assert_eq!(
            estimate_iterations(5, Some(1), IterationEstimator::Refined),
            4.0
        );
    }

    #[test]
    fn refined_estimate_never_below_one_round_for_multiple_queries() {
        for max in 2..40usize {
            for x in 1..=max {
                let n = estimate_iterations(max, Some(x), IterationEstimator::Refined);
                assert!(n >= 1.0, "max={max} x={x} gave {n}");
            }
        }
    }

    fn sample_inputs() -> CostInputs {
        CostInputs {
            db_edit_cost: 1,
            modified_relations: 1,
            modified_tuples: 1,
            result_edit_costs: vec![0, 1],
            partition_sizes: vec![10, 9],
            best_binary_x: Some(9),
        }
    }

    #[test]
    fn equation_components() {
        let i = sample_inputs();
        assert_eq!(i.db_cost(1.0), 2.0);
        assert_eq!(i.db_cost(3.0), 4.0);
        assert_eq!(i.result_cost(), 1.0);
        assert_eq!(i.subset_count(), 2);
        assert_eq!(i.max_subset(), 10);
        assert!(i.balance() < 0.5);
    }

    #[test]
    fn equation_5_total() {
        let params = CostParams::default().with_estimator(IterationEstimator::Simple);
        let i = sample_inputs();
        // current = (1 + 1·1) + 1 = 3; N = ceil(log2(10)) = 4;
        // residual per round = 1/1 + 1 + (2/2)*1 = 3; total = 3 + 12 = 15.
        assert!((user_effort_cost(&params, &i) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn beta_scales_relation_count_term() {
        let i = sample_inputs();
        let c1 = user_effort_cost(&CostParams::default().with_beta(1.0), &i);
        let c5 = user_effort_cost(&CostParams::default().with_beta(5.0), &i);
        assert!(c5 > c1);
    }

    #[test]
    fn more_modifications_cost_more_now_but_can_pay_off_later() {
        // A single-change database splitting 19 queries 18/1 vs a
        // three-change database splitting them 7/6/6: the latter costs more
        // in the current round but reduces the residual estimate; the total
        // preference depends on the numbers — verify both directions are
        // possible by checking the residual term shrinks.
        let lopsided = CostInputs {
            db_edit_cost: 1,
            modified_relations: 1,
            modified_tuples: 1,
            result_edit_costs: vec![0, 1],
            partition_sizes: vec![18, 1],
            best_binary_x: Some(1),
        };
        let balanced = CostInputs {
            db_edit_cost: 3,
            modified_relations: 1,
            modified_tuples: 3,
            result_edit_costs: vec![0, 1, 1],
            partition_sizes: vec![7, 6, 6],
            best_binary_x: Some(6),
        };
        let params = CostParams::default();
        let n_lop = estimate_iterations(18, Some(1), params.estimator);
        let n_bal = estimate_iterations(7, Some(6), params.estimator);
        assert!(n_bal < n_lop);
        assert!(user_effort_cost(&params, &balanced) < user_effort_cost(&params, &lopsided));
    }

    #[test]
    fn max_partitions_model_prefers_more_subsets() {
        let few = CostInputs {
            partition_sizes: vec![10, 9],
            ..sample_inputs()
        };
        let many = CostInputs {
            db_edit_cost: 8,
            modified_relations: 2,
            modified_tuples: 8,
            result_edit_costs: vec![0, 1, 1, 2, 2, 1, 1, 3],
            partition_sizes: vec![3, 3, 3, 2, 2, 2, 2, 2],
            best_binary_x: Some(9),
        };
        let effort = CostParams::default();
        let maxpart = CostParams::default().with_model(CostModelKind::MaxPartitions);
        // Under the user-effort model the cheap binary split wins; under the
        // alternative model the 8-way split wins.
        assert!(objective(&effort, &few) < objective(&effort, &many));
        assert!(objective(&maxpart, &many) < objective(&maxpart, &few));
    }

    #[test]
    fn params_builders() {
        let p = CostParams::default()
            .with_beta(2.0)
            .with_skyline_budget(Duration::from_millis(100))
            .with_estimator(IterationEstimator::Simple)
            .with_model(CostModelKind::MaxPartitions);
        assert_eq!(p.beta, 2.0);
        assert_eq!(p.skyline_time_budget, Duration::from_millis(100));
        assert_eq!(p.estimator, IterationEstimator::Simple);
        assert_eq!(p.model, CostModelKind::MaxPartitions);
    }
}
