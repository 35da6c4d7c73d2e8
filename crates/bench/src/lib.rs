//! # qfe-bench — experiment harness for the QFE reproduction
//!
//! Regenerates every table of the paper's evaluation (Section 7, Tables 1–7)
//! plus the three Section 7.7 experiments (initial-pair size, active-domain
//! entropy, the user study) against the synthetic `qfe-datasets` workloads.
//!
//! The `experiments` binary prints the tables
//! (`cargo run -p qfe-bench --bin experiments --release -- all`) and runs
//! the chaos/cluster fleet gates. Timing the engine's layers is the job of `perfbench/`, the
//! repo's one steady benchmark.

#![forbid(unsafe_code)]

mod chaos;
mod cluster;

pub use chaos::{
    chaos_fault_plan, chaos_fleet_json, chaos_fleet_summary, run_chaos_fleet, ChaosFleetConfig,
    ChaosFleetReport,
};
pub use cluster::{
    cluster_chaos_json, cluster_chaos_summary, cluster_fault_plan, run_cluster_chaos,
    ClusterChaosConfig, ClusterChaosReport,
};

use std::fmt::Write as _;
use std::time::Duration;

use qfe_core::{
    pick_stc_dtc_subset, skyline_stc_dtc_pairs, CostModelKind, CostParams, DatabaseGenerator,
    GenerationContext, IterationEstimator, OracleUser, QfeSession, SessionReport,
    SimulatedHumanUser, WorstCaseUser,
};
use qfe_datasets::{
    adult_scaled, baseball_scaled, entropy_variants, initial_size_variants, scientific_scaled,
    Workload,
};
use qfe_qbo::{grow_candidates, QboConfig, QueryGenerator};
use qfe_query::{evaluate, QueryResult, SpjQuery};
use qfe_relation::Database;

/// Dataset scale for the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced cardinalities — runs the whole suite in seconds. Default.
    Small,
    /// The paper's cardinalities (3926/424 scientific rows, 6977 batting
    /// rows, 5227 adult rows).
    Paper,
}

impl Scale {
    /// The scientific workload at this scale.
    pub fn scientific(self) -> Workload {
        match self {
            Scale::Small => scientific_scaled(42, 400, 80, 6),
            Scale::Paper => scientific_scaled(42, 3926, 424, 7),
        }
    }

    /// The baseball workload at this scale.
    pub fn baseball(self) -> Workload {
        match self {
            Scale::Small => baseball_scaled(11, 40, 48, 900),
            Scale::Paper => baseball_scaled(11, 200, 252, 6977),
        }
    }

    /// The Adult workload at this scale.
    pub fn adult(self) -> Workload {
        match self {
            Scale::Small => adult_scaled(5, 600),
            Scale::Paper => adult_scaled(5, 5227),
        }
    }

    /// The Algorithm 3 time threshold δ used by default at this scale.
    pub fn default_delta(self) -> Duration {
        match self {
            Scale::Small => Duration::from_millis(50),
            Scale::Paper => Duration::from_secs(1),
        }
    }
}

/// Default cost parameters at a given scale (β = 1, δ per scale).
pub fn default_params(scale: Scale) -> CostParams {
    CostParams::default().with_skyline_budget(scale.default_delta())
}

/// Builds a candidate set of (approximately) `want` queries for `target` on
/// `db`: the QBO generator's candidates, guaranteed to contain the target,
/// grown by constant/operator mutation when the generator finds fewer.
pub fn candidates_for(db: &Database, target: &SpjQuery, want: usize) -> Vec<SpjQuery> {
    let result = evaluate(target, db).expect("target evaluates");
    let config = QboConfig {
        max_join_tables: target.tables.len().max(1),
        ..QboConfig::default()
    };
    let generator = QueryGenerator::new(config);
    let mut candidates = generator
        .generate_including(db, &result, target)
        .expect("candidate generation");
    if candidates.len() < want {
        candidates = grow_candidates(db, &result, &candidates, want).expect("candidate growth");
    }
    // Keep the target, trim the rest.
    if candidates.len() > want {
        let target_sql = target.to_string();
        let pos = candidates
            .iter()
            .position(|q| q.to_string() == target_sql)
            .unwrap_or(0);
        let target_query = candidates.remove(pos);
        candidates.truncate(want.saturating_sub(1));
        candidates.insert(0, target_query);
    }
    candidates
}

/// Runs one QFE session with an explicit candidate set and the worst-case or
/// oracle automated feedback.
pub fn run_session(
    db: &Database,
    result: &QueryResult,
    candidates: &[SpjQuery],
    target: &SpjQuery,
    params: &CostParams,
    worst_case: bool,
) -> SessionReport {
    let session = QfeSession::builder(db.clone(), result.clone())
        .with_candidates(candidates.to_vec())
        .with_params(params.clone())
        .build()
        .expect("session builds");
    let outcome = if worst_case {
        session.run(&WorstCaseUser)
    } else {
        session.run(&OracleUser::new(target.clone()))
    };
    match outcome {
        Ok(o) => o.report,
        // Worst-case feedback can end in a state where the surviving
        // candidates cannot be split further (they are equivalent over every
        // reachable database); the per-round statistics gathered so far are
        // still meaningful, so return an empty-tail report.
        Err(_) => SessionReport::default(),
    }
}

fn fmt_duration(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

// ---------------------------------------------------------------------------
// Table 1: per-round statistics for Q1/Q2 on the scientific database
// ---------------------------------------------------------------------------

/// Regenerates Table 1: per-round statistics for Q1 and Q2 on the scientific
/// database under worst-case feedback (β = 1, default δ).
pub fn table1(scale: Scale) -> String {
    let workload = scale.scientific();
    let params = default_params(scale);
    let mut out = String::new();
    writeln!(
        out,
        "Table 1: per-round statistics, scientific database (worst-case feedback)"
    )
    .unwrap();
    for label in ["Q1", "Q2"] {
        let target = workload.query(label).expect("query exists").clone();
        let result = workload.example_result(label).expect("result");
        let candidates = candidates_for(&workload.database, &target, 19);
        let report = run_session(
            &workload.database,
            &result,
            &candidates,
            &target,
            &params,
            true,
        );
        writeln!(out, "\n({label})  initial candidates: {}", candidates.len()).unwrap();
        writeln!(
            out,
            "{:<10} {:>9} {:>9} {:>9} {:>10} {:>7} {:>11} {:>14}",
            "iteration",
            "#queries",
            "#subsets",
            "#skyline",
            "time(s)",
            "dbCost",
            "resultCost",
            "avgResultCost"
        )
        .unwrap();
        for it in &report.iterations {
            writeln!(
                out,
                "{:<10} {:>9} {:>9} {:>9} {:>10} {:>7} {:>11} {:>14.1}",
                it.iteration,
                it.candidate_count,
                it.group_count,
                it.skyline_pairs,
                fmt_duration(it.execution_time),
                it.db_cost,
                it.result_cost,
                it.avg_result_cost()
            )
            .unwrap();
        }
        writeln!(
            out,
            "total: {} iterations, {:.3}s machine time, modification cost {}",
            report.iterations(),
            report.total_execution_time().as_secs_f64(),
            report.total_modification_cost()
        )
        .unwrap();
    }
    out
}

// ---------------------------------------------------------------------------
// Table 2: effect of β on the baseball queries
// ---------------------------------------------------------------------------

/// Regenerates Table 2: effect of the scale factor β on the number of
/// iterations and the total modification cost for Q3–Q6 (baseball).
pub fn table2(scale: Scale) -> String {
    let workload = scale.baseball();
    let mut out = String::new();
    writeln!(
        out,
        "Table 2: effect of β (baseball database, worst-case feedback)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<7} | {:>4} {:>4} {:>4} {:>4} {:>4} | {:>5} {:>5} {:>5} {:>5} {:>5}",
        "query", "β=1", "β=2", "β=3", "β=4", "β=5", "c:1", "c:2", "c:3", "c:4", "c:5"
    )
    .unwrap();
    for label in ["Q3", "Q4", "Q5", "Q6"] {
        let target = workload.query(label).expect("query").clone();
        let result = workload.example_result(label).expect("result");
        let candidates = candidates_for(&workload.database, &target, 12);
        let mut iterations = Vec::new();
        let mut costs = Vec::new();
        for beta in 1..=5 {
            let params = default_params(scale).with_beta(beta as f64);
            let report = run_session(
                &workload.database,
                &result,
                &candidates,
                &target,
                &params,
                true,
            );
            iterations.push(report.iterations());
            costs.push(report.total_modification_cost());
        }
        writeln!(
            out,
            "{:<7} | {:>4} {:>4} {:>4} {:>4} {:>4} | {:>5} {:>5} {:>5} {:>5} {:>5}",
            label,
            iterations[0],
            iterations[1],
            iterations[2],
            iterations[3],
            iterations[4],
            costs[0],
            costs[1],
            costs[2],
            costs[3],
            costs[4]
        )
        .unwrap();
    }
    out
}

// ---------------------------------------------------------------------------
// Table 3: effect of the time threshold δ
// ---------------------------------------------------------------------------

/// The δ sweep used for Table 3, scaled to the dataset scale.
pub fn delta_sweep(scale: Scale) -> Vec<Duration> {
    match scale {
        Scale::Small => vec![5, 10, 25, 50, 100, 250, 500]
            .into_iter()
            .map(Duration::from_millis)
            .collect(),
        Scale::Paper => vec![100, 200, 500, 1000, 2000, 5000, 10_000]
            .into_iter()
            .map(Duration::from_millis)
            .collect(),
    }
}

/// Regenerates Table 3: effect of the Algorithm 3 time threshold δ on the
/// number of iterations, the modification cost and the execution time for Q1
/// and Q2 (scientific).
pub fn table3(scale: Scale) -> String {
    let workload = scale.scientific();
    let mut out = String::new();
    writeln!(
        out,
        "Table 3: effect of δ (scientific database, worst-case feedback)"
    )
    .unwrap();
    for label in ["Q1", "Q2"] {
        let target = workload.query(label).expect("query").clone();
        let result = workload.example_result(label).expect("result");
        let candidates = candidates_for(&workload.database, &target, 19);
        writeln!(out, "\n({label})").unwrap();
        writeln!(
            out,
            "{:<10} {:>12} {:>18} {:>14}",
            "δ", "#iterations", "modification cost", "exec time (s)"
        )
        .unwrap();
        for delta in delta_sweep(scale) {
            let params = default_params(scale).with_skyline_budget(delta);
            let report = run_session(
                &workload.database,
                &result,
                &candidates,
                &target,
                &params,
                true,
            );
            writeln!(
                out,
                "{:<10} {:>12} {:>18} {:>14}",
                format!("{:.2}s", delta.as_secs_f64()),
                report.iterations(),
                report.total_modification_cost(),
                fmt_duration(report.total_execution_time())
            )
            .unwrap();
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Table 4: per-iteration Algorithm 4 performance
// ---------------------------------------------------------------------------

/// Regenerates Table 4: per-iteration skyline size and Algorithm 4 execution
/// time for Q1 and Q2 (scientific).
pub fn table4(scale: Scale) -> String {
    let workload = scale.scientific();
    let params = default_params(scale);
    let mut out = String::new();
    writeln!(
        out,
        "Table 4: Algorithm 4 per-iteration performance (scientific database)"
    )
    .unwrap();
    for label in ["Q1", "Q2"] {
        let target = workload.query(label).expect("query").clone();
        let result = workload.example_result(label).expect("result");
        let candidates = candidates_for(&workload.database, &target, 19);
        let report = run_session(
            &workload.database,
            &result,
            &candidates,
            &target,
            &params,
            true,
        );
        writeln!(out, "\n({label})").unwrap();
        writeln!(
            out,
            "{:<10} {:>15} {:>18}",
            "iteration", "#skyline pairs", "Alg.4 time (ms)"
        )
        .unwrap();
        for it in &report.iterations {
            writeln!(
                out,
                "{:<10} {:>15} {:>18.3}",
                it.iteration,
                it.skyline_pairs,
                it.pick_time.as_secs_f64() * 1000.0
            )
            .unwrap();
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Table 5: Algorithm 4 scalability with |SP|
// ---------------------------------------------------------------------------

/// Regenerates Table 5: Algorithm 4 execution time as the number of skyline
/// pairs grows. Returns the `(requested, actual |SP|, seconds)` rows.
pub fn table5_rows(scale: Scale) -> Vec<(usize, usize, f64)> {
    let workload = scale.scientific();
    let target = workload.query("Q2").expect("query").clone();
    let result = workload.example_result("Q2").expect("result");
    let candidates = candidates_for(&workload.database, &target, 19);
    let ctx =
        GenerationContext::new(&workload.database, &result, &candidates).expect("context builds");
    // A large budget produces as many skyline(-ish) pairs as the data allows.
    let skyline = skyline_stc_dtc_pairs(&ctx, Duration::from_secs(15));
    let sizes: Vec<usize> = match scale {
        Scale::Small => vec![25, 50, 100, 150, 200],
        Scale::Paper => vec![200, 400, 600, 800, 1000],
    };
    let params = default_params(scale);
    let mut rows = Vec::new();
    for requested in sizes {
        let take = requested.min(skyline.pairs.len());
        if take == 0 {
            continue;
        }
        let subset = &skyline.pairs[..take];
        let start = std::time::Instant::now();
        let outcome = pick_stc_dtc_subset(&ctx, subset, &params, skyline.best_binary_x);
        let elapsed = start.elapsed().as_secs_f64();
        if outcome.is_ok() {
            rows.push((requested, take, elapsed));
        }
    }
    rows
}

/// Formats Table 5.
pub fn table5(scale: Scale) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Table 5: Algorithm 4 execution time vs |SP| (scientific database, Q2)"
    )
    .unwrap();
    writeln!(
        out,
        "{:>12} {:>12} {:>14}",
        "requested", "actual |SP|", "Alg.4 time (s)"
    )
    .unwrap();
    for (requested, actual, secs) in table5_rows(scale) {
        writeln!(out, "{requested:>12} {actual:>12} {secs:>14.4}").unwrap();
    }
    out
}

// ---------------------------------------------------------------------------
// Table 6: effect of the number of candidate queries
// ---------------------------------------------------------------------------

/// The candidate-set sizes S1 ⊂ … ⊂ S6 of Table 6.
pub const TABLE6_SIZES: [usize; 6] = [5, 10, 20, 40, 60, 80];

/// Regenerates Table 6: effect of the number of candidate queries on Q2.
pub fn table6(scale: Scale) -> String {
    let workload = scale.scientific();
    let target = workload.query("Q2").expect("query").clone();
    let result = workload.example_result("Q2").expect("result");
    let params = default_params(scale);
    // Build the largest candidate set once; nested subsets are prefixes, so
    // S1 ⊂ S2 ⊂ … ⊂ S6 and the target is in S1.
    let full = candidates_for(&workload.database, &target, *TABLE6_SIZES.last().unwrap());
    let mut out = String::new();
    writeln!(
        out,
        "Table 6: effect of the number of candidate queries (scientific, Q2)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<6} {:>12} {:>12} {:>12} {:>18} {:>16} {:>20}",
        "set",
        "#candidates",
        "#iterations",
        "time (s)",
        "modification cost",
        "avg dbCost/round",
        "avg resultCost/set"
    )
    .unwrap();
    for (i, &size) in TABLE6_SIZES.iter().enumerate() {
        let candidates: Vec<SpjQuery> = full.iter().take(size.min(full.len())).cloned().collect();
        let report = run_session(
            &workload.database,
            &result,
            &candidates,
            &target,
            &params,
            true,
        );
        writeln!(
            out,
            "{:<6} {:>12} {:>12} {:>12} {:>18} {:>16.2} {:>20.2}",
            format!("S{}", i + 1),
            candidates.len(),
            report.iterations(),
            fmt_duration(report.total_execution_time()),
            report.total_modification_cost(),
            report.avg_db_cost_per_round(),
            report.avg_result_cost_per_result_set()
        )
        .unwrap();
    }
    out
}

// ---------------------------------------------------------------------------
// Table 7: first-iteration time breakdown
// ---------------------------------------------------------------------------

/// Regenerates Table 7: breakdown of the first iteration's running time
/// (Algorithm 3 / Algorithm 4 / database modification) for S1–S6.
pub fn table7(scale: Scale) -> String {
    let workload = scale.scientific();
    let target = workload.query("Q2").expect("query").clone();
    let result = workload.example_result("Q2").expect("result");
    let params = default_params(scale);
    let full = candidates_for(&workload.database, &target, *TABLE6_SIZES.last().unwrap());
    let generator = DatabaseGenerator::new(params);
    let mut out = String::new();
    writeln!(
        out,
        "Table 7: first-iteration time breakdown in seconds (scientific, Q2)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<6} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "set", "#candidates", "Alg.3", "Alg.4", "modify DB", "total"
    )
    .unwrap();
    for (i, &size) in TABLE6_SIZES.iter().enumerate() {
        let candidates: Vec<SpjQuery> = full.iter().take(size.min(full.len())).cloned().collect();
        if candidates.len() < 2 {
            continue;
        }
        let ctx = GenerationContext::new(&workload.database, &result, &candidates)
            .expect("context builds");
        let generated = generator
            .generate_with_context(&ctx)
            .expect("generation succeeds");
        writeln!(
            out,
            "{:<6} {:>12} {:>12} {:>12} {:>12} {:>12}",
            format!("S{}", i + 1),
            candidates.len(),
            fmt_duration(generated.skyline_time),
            fmt_duration(generated.pick_time),
            fmt_duration(generated.modify_time),
            fmt_duration(generated.total_time())
        )
        .unwrap();
    }
    out
}

// ---------------------------------------------------------------------------
// Section 7.7 experiments
// ---------------------------------------------------------------------------

/// Initial-pair-size experiment: QFE performance over the nested subsets
/// D1 ⊂ D2 ⊂ D3 ⊂ D4 = D of the scientific database.
pub fn extra_initial_size(scale: Scale) -> String {
    let workload = scale.scientific();
    let target = workload.query("Q2").expect("query").clone();
    let params = default_params(scale);
    let mut out = String::new();
    writeln!(
        out,
        "Section 7.7 (1): effect of the initial database-result pair size (scientific, Q2)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<5} {:>12} {:>12} {:>18} {:>14}",
        "D_i", "join rows", "#iterations", "modification cost", "exec time (s)"
    )
    .unwrap();
    for (name, db) in initial_size_variants(&workload.database) {
        let Ok(result) = evaluate(&target, &db) else {
            continue;
        };
        if result.is_empty() {
            writeln!(
                out,
                "{name:<5} {:>12} (query result empty on this subset)",
                "-"
            )
            .unwrap();
            continue;
        }
        let candidates = candidates_for(&db, &target, 12);
        let report = run_session(&db, &result, &candidates, &target, &params, true);
        let join_rows = qfe_relation::full_foreign_key_join(&db)
            .map(|j| j.len())
            .unwrap_or(0);
        writeln!(
            out,
            "{:<5} {:>12} {:>12} {:>18} {:>14}",
            name,
            join_rows,
            report.iterations(),
            report.total_modification_cost(),
            fmt_duration(report.total_execution_time())
        )
        .unwrap();
    }
    out
}

/// Active-domain entropy experiment: QFE performance over variants with a
/// shrinking number of distinct values in a heavily used selection attribute.
pub fn extra_entropy(scale: Scale) -> String {
    let workload = scale.scientific();
    let target = workload.query("Q2").expect("query").clone();
    let result = workload.example_result("Q2").expect("result");
    let params = default_params(scale);
    let mut out = String::new();
    writeln!(
        out,
        "Section 7.7 (2): effect of active-domain entropy (scientific, Q2, attribute logFC_P)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<5} {:>16} {:>12} {:>18} {:>14}",
        "D_i", "#distinct values", "#iterations", "modification cost", "exec time (s)"
    )
    .unwrap();
    for (name, db) in entropy_variants(&workload.database, "PmTE_ALL_DE", "logFC_P", &target) {
        let distinct = db
            .table("PmTE_ALL_DE")
            .and_then(|t| t.active_domain("logFC_P"))
            .map(|d| d.len())
            .unwrap_or(0);
        let candidates = candidates_for(&db, &target, 12);
        let report = run_session(&db, &result, &candidates, &target, &params, true);
        writeln!(
            out,
            "{:<5} {:>16} {:>12} {:>18} {:>14}",
            name,
            distinct,
            report.iterations(),
            report.total_modification_cost(),
            fmt_duration(report.total_execution_time())
        )
        .unwrap();
    }
    out
}

/// The user study: three target queries on the Adult dataset, QFE's cost
/// model vs. the alternative max-partitions model, answered by a simulated
/// human whose response time grows with the presented modification cost.
pub fn user_study(scale: Scale) -> String {
    let workload = scale.adult();
    let mut out = String::new();
    writeln!(out, "Section 7.7 (3): simulated user study (Adult dataset)").unwrap();
    writeln!(
        out,
        "{:<6} {:<16} {:>12} {:>18} {:>16} {:>16} {:>10}",
        "query",
        "cost model",
        "#iterations",
        "modification cost",
        "user time (s)",
        "machine time (s)",
        "correct"
    )
    .unwrap();
    for label in ["U1", "U2", "U3"] {
        let target = workload.query(label).expect("query").clone();
        let result = match workload.example_result(label) {
            Some(r) if !r.is_empty() => r,
            _ => {
                writeln!(
                    out,
                    "{label:<6} (empty example result on this seed — skipped)"
                )
                .unwrap();
                continue;
            }
        };
        let candidates = candidates_for(&workload.database, &target, 10);
        for (model_name, params) in [
            (
                "qfe-user-effort",
                default_params(scale).with_model(CostModelKind::UserEffort),
            ),
            (
                "max-partitions",
                default_params(scale).with_model(CostModelKind::MaxPartitions),
            ),
        ] {
            let session = QfeSession::builder(workload.database.clone(), result.clone())
                .with_candidates(candidates.clone())
                .with_params(params)
                .build()
                .expect("session builds");
            let user = SimulatedHumanUser::paper_calibrated(target.clone());
            match session.run(&user) {
                Ok(outcome) => {
                    let correct = evaluate(&outcome.query, &workload.database)
                        .map(|r| r.bag_equal(&result))
                        .unwrap_or(false);
                    writeln!(
                        out,
                        "{:<6} {:<16} {:>12} {:>18} {:>16.1} {:>16.3} {:>10}",
                        label,
                        model_name,
                        outcome.report.iterations(),
                        outcome.report.total_modification_cost(),
                        outcome.report.total_user_time().as_secs_f64(),
                        outcome.report.total_execution_time().as_secs_f64(),
                        correct
                    )
                    .unwrap();
                }
                Err(e) => {
                    writeln!(out, "{label:<6} {model_name:<16} failed: {e}").unwrap();
                }
            }
        }
    }
    out
}

/// Ablation: the refined iteration estimator (Equations 7–9 / Lemma 3.1) vs.
/// the naive log2 estimate (Equation 6), measured on the scientific Q2
/// workload.
pub fn ablation_estimator(scale: Scale) -> String {
    let workload = scale.scientific();
    let target = workload.query("Q2").expect("query").clone();
    let result = workload.example_result("Q2").expect("result");
    let candidates = candidates_for(&workload.database, &target, 19);
    let mut out = String::new();
    writeln!(
        out,
        "Ablation: iteration estimator (scientific, Q2, worst-case feedback)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<10} {:>12} {:>18} {:>14}",
        "estimator", "#iterations", "modification cost", "exec time (s)"
    )
    .unwrap();
    for (name, estimator) in [
        ("simple", IterationEstimator::Simple),
        ("refined", IterationEstimator::Refined),
    ] {
        let params = default_params(scale).with_estimator(estimator);
        let report = run_session(
            &workload.database,
            &result,
            &candidates,
            &target,
            &params,
            true,
        );
        writeln!(
            out,
            "{:<10} {:>12} {:>18} {:>14}",
            name,
            report.iterations(),
            report.total_modification_cost(),
            fmt_duration(report.total_execution_time())
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_always_contain_the_target_and_reproduce_r() {
        let w = Scale::Small.scientific();
        let target = w.query("Q2").unwrap().clone();
        let r = w.example_result("Q2").unwrap();
        let candidates = candidates_for(&w.database, &target, 10);
        assert!(candidates.len() >= 2);
        assert!(candidates
            .iter()
            .any(|q| q.to_string() == target.to_string()));
        for q in &candidates {
            assert!(evaluate(q, &w.database).unwrap().bag_equal(&r), "{q}");
        }
    }

    #[test]
    fn table1_reports_per_round_rows() {
        let text = table1(Scale::Small);
        assert!(text.contains("(Q1)"));
        assert!(text.contains("(Q2)"));
        assert!(text.contains("dbCost"));
    }

    #[test]
    fn table5_rows_are_monotone_in_sp_size() {
        let rows = table5_rows(Scale::Small);
        assert!(!rows.is_empty());
        for pair in rows.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
    }

    #[test]
    fn scales_expose_datasets() {
        assert_eq!(Scale::Small.scientific().name, "scientific");
        assert_eq!(Scale::Small.baseball().name, "baseball");
        assert_eq!(Scale::Small.adult().name, "adult");
        assert!(Scale::Paper.default_delta() > Scale::Small.default_delta());
        assert_eq!(delta_sweep(Scale::Small).len(), 7);
        assert_eq!(delta_sweep(Scale::Paper).len(), 7);
    }
}
