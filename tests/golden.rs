//! Golden transcripts: whole oracle-driven sessions on the Small examples
//! whose skyline is never cut at δ, each diffed against its file under
//! `tests/golden/`.
//!
//! A transcript is everything the session decides: the candidate SQL QBO
//! generated, each round's database edits and result groups (as candidate
//! numbers), the oracle's choice, and the final query. Any change to what a
//! user sees fails here with the first line that differs. When a change is
//! meant to alter it, re-record the files with
//! `cargo test --test golden -- --ignored` and review their diff.
//!
//! The datasets use the seeds and sizes of `qfe_bench::Scale::Small`, and δ
//! is 120 s so that the skyline runs to completion on any machine; the
//! transcripts are then a function of the code alone.
//!
//! One more file, `tests/golden/qbo-small.txt`, pins QBO alone: for every
//! labelled query of the three Small workloads, the SQL that
//! `generate_including` returns and the SQL that `grow_candidates` returns
//! when asked for 19 more (the mutation frontier).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use qfe::datasets::Workload;
use qfe::prelude::*;
use qfe::qbo::{grow_candidates, QboConfig, QueryGenerator};

/// The Small examples whose skyline is never cut at δ.
const EXAMPLES: [&str; 3] = ["baseball/Q3", "adult/U1", "adult/U2"];

const DELTA: Duration = Duration::from_secs(120);

/// Candidates QBO's mutation frontier is asked for beyond the generated set.
const GROWTH: usize = 19;

fn small_workload(dataset: &str) -> Workload {
    match dataset {
        "scientific" => qfe::datasets::scientific_scaled(42, 400, 80, 6),
        "baseball" => qfe::datasets::baseball_scaled(11, 40, 48, 900),
        "adult" => qfe::datasets::adult_scaled(5, 600),
        other => panic!("no Small workload named {other}"),
    }
}

fn golden_path(example: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{}.txt", example.replace('/', "-")))
}

/// The session of `example` (`dataset/label`) and its target query.
fn golden_session(example: &str) -> (QfeSession, SpjQuery) {
    let (dataset, label) = example.split_once('/').expect("dataset/label");
    let workload = small_workload(dataset);
    let target = workload.query(label).expect("labelled query").clone();
    let result = workload.example_result(label).expect("query evaluates");
    let session = QfeSession::builder(workload.database, result)
        .ensure_candidate(target.clone())
        .with_params(CostParams::default().with_skyline_budget(DELTA))
        .build()
        .expect("session builds");
    (session, target)
}

/// Runs `example` (`dataset/label`) with an oracle user and renders what
/// the session showed and decided.
fn transcript(example: &str) -> String {
    let (session, target) = golden_session(example);
    let oracle = OracleUser::new(target);
    let mut engine = session.start();

    let mut out = format!("# {example} (Small), delta = 120 s\n");
    for (i, query) in engine.candidates().iter().enumerate() {
        writeln!(out, "candidate {i}: {query}").unwrap();
    }
    loop {
        let round = match engine.step().expect("session steps") {
            Step::AwaitFeedback(round) => round,
            Step::Done(outcome) => {
                for it in &outcome.report.iterations {
                    assert!(
                        !it.skyline_timed_out,
                        "{example}: a skyline was cut at delta, so the rounds depend on speed"
                    );
                }
                writeln!(out, "final: {}", outcome.query).unwrap();
                for query in &outcome.indistinguishable {
                    writeln!(out, "indistinguishable: {query}").unwrap();
                }
                return out;
            }
        };
        // A group's query indices point into the surviving candidates;
        // write them as numbers of the initial list.
        let remaining = engine.remaining_candidates();
        let number = |i: usize| {
            engine
                .candidates()
                .iter()
                .position(|q| std::ptr::eq(q, remaining[i]))
                .expect("a survivor is a candidate")
        };
        writeln!(out, "round {}", round.iteration).unwrap();
        for edit in &round.database_delta.edits {
            writeln!(out, "  edit: {edit}").unwrap();
        }
        for (g, choice) in round.choices.iter().enumerate() {
            let members: Vec<usize> = choice.query_indices.iter().map(|&i| number(i)).collect();
            writeln!(out, "  group {g}: candidates {members:?}").unwrap();
        }
        let choice = oracle.choose(&round).expect("oracle finds its result");
        writeln!(out, "  choice: group {choice}").unwrap();
        engine.answer(choice).expect("answer lands");
    }
}

/// Lists, for every labelled query of the Small workloads, the candidates
/// QBO generates (with the target included, under the join bound
/// `qfe_bench::candidates_for` uses) and the set `grow_candidates` grows
/// from them.
fn qbo_listing() -> String {
    let mut out = String::from("# QBO candidates (Small)\n");
    for dataset in ["scientific", "baseball", "adult"] {
        let workload = small_workload(dataset);
        for target in &workload.queries {
            let label = target.label.as_deref().expect("labelled query");
            let result = workload.example_result(label).expect("query evaluates");
            let config = QboConfig {
                max_join_tables: target.tables.len().max(1),
                ..QboConfig::default()
            };
            let db = &workload.database;
            let generated = QueryGenerator::new(config)
                .generate_including(db, &result, target)
                .expect("candidate generation");
            let want = generated.len() + GROWTH;
            let grown = grow_candidates(db, &result, &generated, want).expect("candidate growth");
            writeln!(out, "## {dataset}/{label}").unwrap();
            writeln!(out, "generate_including: {}", generated.len()).unwrap();
            for (i, query) in generated.iter().enumerate() {
                writeln!(out, "  {i}: {query}").unwrap();
            }
            writeln!(out, "grow_candidates(.., {want}): {}", grown.len()).unwrap();
            for (i, query) in grown.iter().enumerate() {
                writeln!(out, "  {i}: {query}").unwrap();
            }
        }
    }
    out
}

const QBO_GOLDEN: &str = "qbo-small";

fn assert_matches_golden(example: &str) {
    let path = golden_path(example);
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let actual = if example == QBO_GOLDEN {
        qbo_listing()
    } else {
        transcript(example)
    };
    if actual == golden {
        return;
    }
    let (line, (want, got)) = golden
        .lines()
        .chain(std::iter::repeat("<end of file>"))
        .zip(
            actual
                .lines()
                .chain(std::iter::repeat("<end of transcript>")),
        )
        .enumerate()
        .find(|(_, (want, got))| want != got)
        .expect("texts differ in some line");
    panic!(
        "{example} differs from {} at line {}:\n  golden: {want}\n  actual: {got}\n\
         (re-record with `cargo test --test golden -- --ignored` if the change is meant)",
        path.display(),
        line + 1,
    );
}

/// Drives `session` with an oracle for `target` and checks that every
/// round's statistics describe the round the user was shown.
fn assert_round_stats_describe_the_rounds(name: &str, session: &QfeSession, target: &SpjQuery) {
    let oracle = OracleUser::new(target.clone());
    let mut engine = session.start();
    let mut rounds = Vec::new();
    let outcome = loop {
        match engine.step().expect("session steps") {
            Step::Done(outcome) => break outcome,
            Step::AwaitFeedback(round) => {
                engine
                    .answer(oracle.choose(&round).expect("oracle finds its result"))
                    .expect("answer lands");
                rounds.push(round);
            }
        }
    };
    assert!(!rounds.is_empty(), "{name}: no round was shown");
    assert_eq!(outcome.report.iterations.len(), rounds.len(), "{name}");
    let arity = session.original_result().arity();
    for (round, stats) in rounds.iter().zip(&outcome.report.iterations) {
        let at = format!("{name} round {}", round.iteration);
        assert_eq!(stats.iteration, round.iteration, "{at}");
        assert_eq!(stats.db_cost, round.database_delta.edits.len(), "{at}");
        assert_eq!(
            stats.db_cost,
            qfe::relation::min_edit_databases(session.database(), &round.database),
            "{at}"
        );
        assert_eq!(stats.group_count, round.choices.len(), "{at}");
        let result_cost: usize = round
            .choices
            .iter()
            .map(|choice| choice.result_delta.cost(arity))
            .sum();
        assert_eq!(stats.result_cost, result_cost, "{at}");
    }
}

#[test]
fn round_stats_describe_the_presented_round() {
    let (db, result, candidates, _) = qfe::datasets::example_1_1();
    for target in &candidates {
        let session = QfeSession::builder(db.clone(), result.clone())
            .with_candidates(candidates.clone())
            .build()
            .expect("session builds");
        let name = format!("example 1.1 ({})", target.label.as_deref().unwrap_or("?"));
        assert_round_stats_describe_the_rounds(&name, &session, target);
    }
    for example in EXAMPLES {
        let (session, target) = golden_session(example);
        assert_round_stats_describe_the_rounds(example, &session, &target);
    }
}

#[test]
fn baseball_q3_matches_its_golden_transcript() {
    assert_matches_golden("baseball/Q3");
}

#[test]
fn adult_u1_matches_its_golden_transcript() {
    assert_matches_golden("adult/U1");
}

#[test]
fn adult_u2_matches_its_golden_transcript() {
    assert_matches_golden("adult/U2");
}

#[test]
fn qbo_candidates_match_their_golden_listing() {
    assert_matches_golden(QBO_GOLDEN);
}

#[test]
#[ignore = "rewrites the golden files; run only when a change is meant to alter the transcripts"]
fn rewrite_golden_transcripts() {
    for example in EXAMPLES {
        let path = golden_path(example);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, transcript(example)).unwrap();
    }
    std::fs::write(golden_path(QBO_GOLDEN), qbo_listing()).unwrap();
}
