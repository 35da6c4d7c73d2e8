//! In-process sessions: the `oracle-small` examples, the untraced session
//! loop over `QfeSession`/`QfeEngine`, and the traced
//! loop that replays Algorithm 2 from outside through the layers' public
//! functions.

use std::sync::Arc;
use std::time::Instant;

use qfe_bench::Scale;
use qfe_core::{
    apply_edits, edits_to_ops, pick_stc_dtc_subset, skyline_stc_dtc_pairs_memoized, AdvancePath,
    CostParams, FeedbackUser, GenerationContext, OracleUser, QfeError, QfeSession, SkylineMemo,
    Step,
};
use qfe_datasets::Workload;
use qfe_qbo::{QboConfig, QboError, QueryGenerator, VerifyStats};
use qfe_query::{evaluate, partition_queries, QueryResult, SpjQuery};
use qfe_relation::{Database, EditOp};

use crate::speed::{probe_ms, scaled};
use crate::trace::{ms, timed, Layers};

/// One example pair `(D, R)` with the query the simulated user has in mind.
#[derive(Debug, Clone)]
pub struct Example {
    /// `dataset/label`, e.g. `scientific/Q1`.
    pub name: String,
    pub database: Arc<Database>,
    pub result: QueryResult,
    pub target: SpjQuery,
}

pub fn examples_of(workload: Workload, labels: &[&str]) -> Vec<Example> {
    let database = Arc::new(workload.database.clone());
    labels
        .iter()
        .map(|&label| {
            let target = workload.query(label).expect("labelled query").clone();
            let result = workload.example_result(label).expect("query evaluates");
            Example {
                name: format!("{}/{label}", workload.name),
                database: Arc::clone(&database),
                result,
                target,
            }
        })
        .collect()
}

/// The Small examples whose QBO candidate set has at least two queries.
pub fn small_examples() -> Vec<Example> {
    let scale = Scale::Small;
    let mut out = examples_of(scale.scientific(), &["Q1", "Q2"]);
    out.extend(examples_of(scale.baseball(), &["Q3"]));
    out.extend(examples_of(scale.adult(), &["U1", "U2"]));
    out
}

/// What one shown feedback round was.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundRecord {
    /// dbCost + resultCost.
    pub effort: usize,
    pub skyline_pairs: usize,
    /// Known only to the traced replay.
    pub cost_evaluations: Option<usize>,
    /// Whether the skyline stopped at the time budget δ. Such a round
    /// keeps whatever pairs were enumerated by then, so its pairs, and
    /// every later round, depend on how fast the machine ran.
    pub delta_cut: bool,
    pub edits: Vec<EditOp>,
    pub groups: Vec<Vec<usize>>,
}

/// One session's timings and outputs.
#[derive(Debug, Clone, Default)]
pub struct SessionRecord {
    /// Submitting `(D, R)` to the first round (or to the final answer).
    pub first_round_ms: f64,
    /// Answering a round to the next round, or the final answer, being
    /// shown.
    pub round_ms: Vec<f64>,
    pub oracle_ms: f64,
    /// Probe times (see `speed.rs`): one before submitting, then one after
    /// every step's result is in, so each wait lies between two probes.
    /// Empty in the traced replay.
    pub probes_ms: Vec<f64>,
    pub rounds: Vec<RoundRecord>,
    /// The answer, when the session reached one.
    pub final_query: Option<SpjQuery>,
}

impl SessionRecord {
    /// Records that a round or the final answer is shown: the first time
    /// since submission, later since the user's answer.
    fn shown(&mut self, submitted: Instant, answered: Option<Instant>) {
        match answered {
            None => self.first_round_ms = ms(submitted.elapsed()),
            Some(t) => self.round_ms.push(ms(t.elapsed())),
        }
    }

    /// Time spent outside the system: the simulated user and the probes.
    pub fn outside_ms(&self) -> f64 {
        self.oracle_ms + self.probes_ms.iter().sum::<f64>()
    }

    /// The first round's wait and every later one, at the reference speed:
    /// each scaled by the probes right before and right after it.
    pub fn scaled_waits(&self) -> (f64, Vec<f64>) {
        let p = &self.probes_ms;
        assert_eq!(
            p.len(),
            self.round_ms.len() + 2,
            "a probe around every wait"
        );
        let first = scaled(self.first_round_ms, p[0], p[1]);
        let rounds = self
            .round_ms
            .iter()
            .zip(p[1..].windows(2))
            .map(|(&wait, around)| scaled(wait, around[0], around[1]))
            .collect();
        (first, rounds)
    }
}

/// Runs one session through `QfeSession` and `QfeEngine` with an oracle
/// user.
pub fn run_engine(ex: &Example, params: &CostParams) -> Result<SessionRecord, String> {
    let err = |e: QfeError| format!("{}: {e}", ex.name);
    let oracle = OracleUser::new(ex.target.clone());
    let mut rec = SessionRecord::default();
    rec.probes_ms.push(probe_ms());
    let start = Instant::now();
    let session = QfeSession::builder((*ex.database).clone(), ex.result.clone())
        .ensure_candidate(ex.target.clone())
        .with_params(params.clone())
        .build()
        .map_err(err)?;
    let mut engine = session.start();
    let mut step = engine.step().map_err(err)?;
    rec.first_round_ms = ms(start.elapsed());
    let mut shown = Vec::new();
    loop {
        rec.probes_ms.push(probe_ms());
        let round = match step {
            Step::Done(outcome) => {
                rec.final_query = Some(outcome.query);
                break;
            }
            Step::AwaitFeedback(round) => round,
        };
        shown.push((
            round.database_delta.edits.clone(),
            round
                .choices
                .iter()
                .map(|c| c.query_indices.clone())
                .collect::<Vec<_>>(),
        ));
        let oracle_start = Instant::now();
        let choice = oracle.choose(&round);
        rec.oracle_ms += ms(oracle_start.elapsed());
        let choice =
            choice.ok_or_else(|| format!("{}: oracle found no matching choice", ex.name))?;
        let answered = Instant::now();
        engine.answer(choice).map_err(err)?;
        step = engine.step().map_err(err)?;
        rec.round_ms.push(ms(answered.elapsed()));
    }
    let report = engine.report();
    rec.rounds = report
        .iterations
        .iter()
        .zip(shown)
        .map(|(it, (edits, groups))| RoundRecord {
            effort: it.db_cost + it.result_cost,
            skyline_pairs: it.skyline_pairs,
            cost_evaluations: None,
            delta_cut: it.skyline_time >= params.skyline_time_budget,
            edits,
            groups,
        })
        .collect();
    Ok(rec)
}

/// Candidate generation as `QfeSessionBuilder::ensure_candidate` performs
/// it, through `QueryGenerator::generate_with_stats` so the traced run sees
/// QBO's counters.
fn traced_candidates(ex: &Example, layers: &mut Layers) -> Result<Vec<SpjQuery>, String> {
    let generator = QueryGenerator::new(QboConfig::default());
    let generated = timed(&mut layers.qbo_ms, || {
        generator.generate_with_stats(&ex.database, &ex.result)
    });
    let (mut candidates, stats) = match generated {
        Ok(found) => found,
        Err(QboError::NoCandidates) | Err(QboError::NoProjection) => {
            (Vec::new(), VerifyStats::default())
        }
        Err(e) => return Err(format!("{}: {e}", ex.name)),
    };
    layers.qbo_checked += stats.candidates_checked;
    layers.qbo_verified += stats.verified;
    layers.qbo_rows_scanned += stats.rows_scanned;
    layers.qbo_bitmap_hits += stats.term_bitmap_hits;
    layers.qbo_bitmap_misses += stats.term_bitmap_misses;
    let target_sql = ex.target.to_string();
    if !candidates.iter().any(|q| q.to_string() == target_sql) {
        candidates.insert(0, ex.target.clone());
    }
    if !candidates.iter().any(|q| q.same_query(&ex.target)) {
        candidates.push(ex.target.clone());
    }
    Ok(candidates)
}

/// The engine's answer among indistinguishable survivors.
fn simplest(queries: &[SpjQuery]) -> SpjQuery {
    queries
        .iter()
        .min_by_key(|q| (q.complexity(), q.to_string()))
        .expect("at least one survivor")
        .clone()
}

/// Replays the session of [`run_engine`] outside-in, timing each layer:
/// QBO, `GenerationContext::new_shared`/`advance_with_report`, the memoized
/// skyline, pick, and `apply_edits` + `edits_to_ops` + `partition_queries`.
pub fn run_traced(
    ex: &Example,
    params: &CostParams,
    layers: &mut Layers,
) -> Result<SessionRecord, String> {
    let err = |e: QfeError| format!("{}: {e}", ex.name);
    let mut rec = SessionRecord::default();
    let start = Instant::now();
    let queries = traced_candidates(ex, layers)?;
    if queries.len() == 1 {
        rec.first_round_ms = ms(start.elapsed());
        rec.final_query = Some(queries[0].clone());
        return Ok(rec);
    }
    let database = Arc::new((*ex.database).clone());
    let result = Arc::new(ex.result.clone());
    let mut ctx = timed(&mut layers.context_build_ms, || {
        GenerationContext::new_shared(database, result, queries)
    })
    .map_err(err)?;
    let mut memo = SkylineMemo::new();
    let mut answered: Option<Instant> = None;
    loop {
        let skyline = timed(&mut layers.skyline_ms, || {
            skyline_stc_dtc_pairs_memoized(&ctx, params.skyline_time_budget, &mut memo)
        });
        layers.skyline_enumerated += skyline.enumerated as u64;
        layers.skyline_kept += skyline.pairs.len() as u64;
        layers.skyline_timeouts += u64::from(skyline.timed_out);
        let picked = timed(&mut layers.pick_ms, || {
            pick_stc_dtc_subset(&ctx, &skyline.pairs, params, skyline.best_binary_x)
        });
        let picked = match picked {
            Ok(p) => p,
            Err(QfeError::NoDistinguishingDatabase { .. }) => {
                rec.shown(start, answered);
                rec.final_query = Some(simplest(ctx.queries()));
                break;
            }
            Err(e) => return Err(err(e)),
        };
        layers.pick_cost_evaluations += picked.cost_evaluations as u64;
        layers.cells_edited += picked.realized.edits.len() as u64;
        let (modified, edits, partition) = timed(&mut layers.modify_ms, || {
            let modified = apply_edits(ctx.database(), &picked.realized.edits)?;
            let edits = edits_to_ops(ctx.database(), &picked.realized.edits)?;
            let partition = partition_queries(ctx.queries(), &modified)?;
            Ok::<_, QfeError>((modified, edits, partition))
        })
        .map_err(err)?;
        rec.shown(start, answered);
        layers.rounds += 1;
        rec.rounds.push(RoundRecord {
            effort: picked.realized.db_edit_cost + picked.evaluation.total_result_cost(),
            skyline_pairs: skyline.pairs.len(),
            cost_evaluations: Some(picked.cost_evaluations),
            delta_cut: skyline.timed_out,
            edits,
            groups: partition
                .groups
                .iter()
                .map(|g| g.query_indices.clone())
                .collect(),
        });
        // Timed whether or not the clock is on: every pass leaves the
        // simulated user out of its system time.
        let oracle_start = Instant::now();
        let choice = evaluate(&ex.target, &modified).ok().and_then(|wanted| {
            partition
                .groups
                .iter()
                .position(|g| g.result.bag_equal(&wanted))
        });
        rec.oracle_ms += ms(oracle_start.elapsed());
        let choice =
            choice.ok_or_else(|| format!("{}: oracle found no matching choice", ex.name))?;
        answered = Some(Instant::now());
        let surviving = &partition.groups[choice].query_indices;
        if surviving.len() == 1 {
            rec.shown(start, answered);
            rec.final_query = Some(ctx.queries()[surviving[0]].clone());
            break;
        }
        let (next, report) = timed(&mut layers.context_advance_ms, || {
            ctx.advance_with_report(surviving, &[])
        })
        .map_err(err)?;
        layers.advances += 1;
        layers.shared_advances += u64::from(report.path == AdvancePath::SharedNoEdit);
        ctx = next;
    }
    layers.memo_hits += memo.hits();
    layers.memo_recomputed += memo.recomputed_cells();
    Ok(rec)
}

/// Whether `query` returns `R` on `D`.
pub fn reproduces(query: &SpjQuery, ex: &Example) -> bool {
    evaluate(query, &ex.database).is_ok_and(|r| r.bag_equal(&ex.result))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_1_1() -> Example {
        let (database, result, _, target) = qfe_datasets::example_1_1();
        Example {
            name: "example/1.1".into(),
            database: Arc::new(database),
            result,
            target,
        }
    }

    #[test]
    fn traced_replay_matches_the_engine_on_example_1_1() {
        let ex = example_1_1();
        let params = CostParams::default();
        let engine = run_engine(&ex, &params).unwrap();
        let mut layers = Layers::default();
        let traced = run_traced(&ex, &params, &mut layers).unwrap();
        assert!(!engine.rounds.is_empty());
        assert_eq!(engine.rounds.len(), traced.rounds.len());
        for (e, t) in engine.rounds.iter().zip(&traced.rounds) {
            assert_eq!(e.edits, t.edits);
            assert_eq!(e.groups, t.groups);
            assert_eq!(e.effort, t.effort);
            assert_eq!(e.skyline_pairs, t.skyline_pairs);
            assert!(t.cost_evaluations.is_some_and(|n| n > 0));
        }
        // Every answer is followed by a shown round or the final answer,
        // and a probe lies on each side of every wait.
        assert_eq!(engine.round_ms.len(), engine.rounds.len());
        assert_eq!(traced.round_ms.len(), traced.rounds.len());
        assert_eq!(engine.probes_ms.len(), engine.rounds.len() + 2);
        let (first, rounds) = engine.scaled_waits();
        assert!(first > 0.0 && rounds.len() == engine.round_ms.len());
        let (e, t) = (engine.final_query.unwrap(), traced.final_query.unwrap());
        assert!(e.same_query(&t));
        assert!(reproduces(&e, &ex));
        assert_eq!(layers.rounds as usize, traced.rounds.len());
        assert!(layers.qbo_checked > 0 && layers.pick_cost_evaluations > 0);
    }
}
