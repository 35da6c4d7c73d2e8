//! Per-iteration statistics and session reports.
//!
//! These are the quantities the paper reports in its evaluation (Tables 1–7):
//! the number of candidate queries and query subsets per round, the number of
//! skyline tuple-class pairs, the execution time of each module, and the
//! database/result modification costs.

use std::fmt;
use std::time::Duration;

/// Statistics of one feedback iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationStats {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Number of candidate queries at the start of the iteration.
    pub candidate_count: usize,
    /// Number of query subsets the generated database partitions them into.
    pub group_count: usize,
    /// Number of skyline tuple-class pairs Algorithm 3 kept (the pairs it
    /// examined are counted by [`SkylineOutcome::enumerated`]).
    ///
    /// [`SkylineOutcome::enumerated`]: crate::SkylineOutcome::enumerated
    pub skyline_pairs: usize,
    /// Total machine time of the iteration (database generation + applying
    /// the modification). The first iteration additionally includes the
    /// candidate-query generation time, mirroring the paper's accounting.
    pub execution_time: Duration,
    /// Time spent in Algorithm 3 (skyline enumeration).
    pub skyline_time: Duration,
    /// Whether Algorithm 3 stopped at the time budget δ: the round was then
    /// generated from the best pairs found so far, so its outcome depends on
    /// timing.
    pub skyline_timed_out: bool,
    /// Time spent in Algorithm 4 (subset selection).
    pub pick_time: Duration,
    /// Time spent applying the modification and re-partitioning.
    pub modify_time: Duration,
    /// `dbCost`: `minEdit(D, D')` for this round's modified database.
    pub db_cost: usize,
    /// `resultCost`: `Σ_i minEdit(R, R_i)` over the presented results.
    pub result_cost: usize,
    /// Number of relations modified.
    pub modified_relations: usize,
    /// Number of base tuples modified.
    pub modified_tuples: usize,
    /// Simulated or measured user response time for this round.
    pub user_time: Duration,
}

impl IterationStats {
    /// `avgResultCost`: the result modification cost averaged over the number
    /// of presented results.
    pub fn avg_result_cost(&self) -> f64 {
        if self.group_count == 0 {
            0.0
        } else {
            self.result_cost as f64 / self.group_count as f64
        }
    }

    /// The round's total modification cost (database plus results).
    pub fn modification_cost(&self) -> usize {
        self.db_cost + self.result_cost
    }
}

/// The full record of one QFE session.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionReport {
    /// Time spent generating the initial candidate queries (Query Generator).
    pub query_generation_time: Duration,
    /// Number of initial candidate queries.
    pub initial_candidates: usize,
    /// Per-iteration statistics, in order.
    pub iterations: Vec<IterationStats>,
}

impl SessionReport {
    /// Number of feedback iterations.
    pub fn iterations(&self) -> usize {
        self.iterations.len()
    }

    /// Total machine execution time across all iterations (including query
    /// generation, which the paper folds into the first iteration).
    pub fn total_execution_time(&self) -> Duration {
        self.iterations.iter().map(|i| i.execution_time).sum()
    }

    /// Total simulated/measured user response time.
    pub fn total_user_time(&self) -> Duration {
        self.iterations.iter().map(|i| i.user_time).sum()
    }

    /// Total modification cost (database and result modifications) across all
    /// iterations — the quantity reported in Tables 2, 3 and 6.
    pub fn total_modification_cost(&self) -> usize {
        self.iterations.iter().map(|i| i.modification_cost()).sum()
    }

    /// Total database modification cost across all iterations.
    pub fn total_db_cost(&self) -> usize {
        self.iterations.iter().map(|i| i.db_cost).sum()
    }

    /// Total result modification cost across all iterations.
    pub fn total_result_cost(&self) -> usize {
        self.iterations.iter().map(|i| i.result_cost).sum()
    }

    /// Average database modification cost per round.
    pub fn avg_db_cost_per_round(&self) -> f64 {
        if self.iterations.is_empty() {
            0.0
        } else {
            self.total_db_cost() as f64 / self.iterations.len() as f64
        }
    }

    /// Average result modification cost per presented result set.
    pub fn avg_result_cost_per_result_set(&self) -> f64 {
        let sets: usize = self.iterations.iter().map(|i| i.group_count).sum();
        if sets == 0 {
            0.0
        } else {
            self.total_result_cost() as f64 / sets as f64
        }
    }
}

impl fmt::Display for SessionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "QFE session: {} candidate queries, {} iterations, total machine time {:.2?}, total modification cost {}",
            self.initial_candidates,
            self.iterations(),
            self.total_execution_time(),
            self.total_modification_cost()
        )?;
        writeln!(
            f,
            "{:<5} {:>9} {:>9} {:>9} {:>10} {:>8} {:>11} {:>14}",
            "iter",
            "#queries",
            "#subsets",
            "#skyline",
            "time(ms)",
            "dbCost",
            "resultCost",
            "avgResultCost"
        )?;
        for it in &self.iterations {
            writeln!(
                f,
                "{:<5} {:>9} {:>9} {:>9} {:>10.1} {:>8} {:>11} {:>14.1}",
                it.iteration,
                it.candidate_count,
                it.group_count,
                it.skyline_pairs,
                it.execution_time.as_secs_f64() * 1000.0,
                it.db_cost,
                it.result_cost,
                it.avg_result_cost()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(
        iteration: usize,
        db_cost: usize,
        result_cost: usize,
        groups: usize,
    ) -> IterationStats {
        IterationStats {
            iteration,
            candidate_count: 19,
            group_count: groups,
            skyline_pairs: 50,
            execution_time: Duration::from_millis(100),
            skyline_time: Duration::from_millis(60),
            skyline_timed_out: false,
            pick_time: Duration::from_millis(20),
            modify_time: Duration::from_millis(20),
            db_cost,
            result_cost,
            modified_relations: 1,
            modified_tuples: db_cost,
            user_time: Duration::from_secs(5),
        }
    }

    #[test]
    fn iteration_derived_quantities() {
        let it = stats(1, 2, 12, 2);
        assert_eq!(it.avg_result_cost(), 6.0);
        assert_eq!(it.modification_cost(), 14);
        let empty_groups = IterationStats {
            group_count: 0,
            ..stats(1, 1, 1, 1)
        };
        assert_eq!(empty_groups.avg_result_cost(), 0.0);
    }

    #[test]
    fn report_aggregates() {
        let report = SessionReport {
            query_generation_time: Duration::from_millis(500),
            initial_candidates: 19,
            iterations: vec![stats(1, 1, 12, 2), stats(2, 2, 11, 2), stats(3, 8, 80, 8)],
        };
        assert_eq!(report.iterations(), 3);
        assert_eq!(report.total_db_cost(), 11);
        assert_eq!(report.total_result_cost(), 103);
        assert_eq!(report.total_modification_cost(), 114);
        assert_eq!(report.total_execution_time(), Duration::from_millis(300));
        assert_eq!(report.total_user_time(), Duration::from_secs(15));
        assert!((report.avg_db_cost_per_round() - 11.0 / 3.0).abs() < 1e-9);
        assert!((report.avg_result_cost_per_result_set() - 103.0 / 12.0).abs() < 1e-9);
        let text = report.to_string();
        assert!(text.contains("3 iterations"));
        assert!(text.contains("dbCost"));
    }

    #[test]
    fn empty_report_is_harmless() {
        let report = SessionReport::default();
        assert_eq!(report.iterations(), 0);
        assert_eq!(report.total_modification_cost(), 0);
        assert_eq!(report.avg_db_cost_per_round(), 0.0);
        assert_eq!(report.avg_result_cost_per_result_set(), 0.0);
    }
}
