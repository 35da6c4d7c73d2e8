//! Round advancement: after every feedback round,
//! [`GenerationContext::advance`] builds the next round on the session's
//! shared join, and must yield a context equal to one built from scratch
//! with `GenerationContext::new` — same class space, same source classes,
//! bit-identical skyline results, and term bitmaps that a cache carried
//! across rounds serves exactly as a cold one computes them.
//!
//! Rounds are shaped like real sessions: `D` and `R` stay fixed and every
//! answer keeps a strictly smaller, non-empty subset of the candidates. The
//! build environment has no crates.io access, so instead of proptest the
//! survivor subsets come from the workspace's deterministic seeded RNG.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qfe::prelude::*;
use qfe_core::{skyline_stc_dtc_pairs, AdvancePath, DatabaseGenerator, GenerationContext};
use qfe_query::{evaluate, QueryResult, SpjQuery, TermBitmapCache};
use qfe_relation::Database;

/// Asserts that an advanced context is equivalent to a from-scratch one on
/// the same candidates. `cache` is the term-bitmap cache the caller carries
/// across the whole chain of advanced contexts.
fn assert_round_equivalent(
    advanced: &GenerationContext,
    fresh: &GenerationContext,
    cache: &mut TermBitmapCache,
) {
    assert_eq!(advanced.queries(), fresh.queries());
    assert_eq!(advanced.join().len(), fresh.join().len());
    for (a, f) in advanced.join().rows().iter().zip(fresh.join().rows()) {
        assert_eq!(a.tuple, f.tuple);
    }
    assert_eq!(
        advanced.class_space().attributes(),
        fresh.class_space().attributes()
    );
    assert_eq!(advanced.source_classes(), fresh.source_classes());
    assert_eq!(advanced.projection_columns(), fresh.projection_columns());
    assert_eq!(
        advanced.modifiable_attributes(),
        fresh.modifiable_attributes()
    );

    // The class-level kernel agrees: bit-identical skyline outcomes.
    let budget = Duration::from_secs(60);
    let a = skyline_stc_dtc_pairs(advanced, budget);
    let f = skyline_stc_dtc_pairs(fresh, budget);
    assert!(
        !a.timed_out && !f.timed_out,
        "δ must not cut the comparison"
    );
    assert_eq!(a.pairs, f.pairs, "skyline pairs diverged");
    assert_eq!(a.min_balance.to_bits(), f.min_balance.to_bits());
    assert_eq!(a.best_binary_x, f.best_binary_x);
    assert_eq!(a.enumerated, f.enumerated);

    // The advanced chain shares one session join, so a cache built on the
    // chain's first round serves earlier rounds' bitmaps; they must equal
    // bitmaps computed cold over the fresh context's own join.
    let mut cold = TermBitmapCache::new(fresh.join());
    for (a, f) in advanced.bound_queries().iter().zip(fresh.bound_queries()) {
        assert_eq!(
            a.selection_bitmap(cache),
            f.selection_bitmap(&mut cold),
            "carried term bitmap diverged from a cold one"
        );
    }
}

/// A strictly smaller, non-empty, ascending subset of `0..n` (`n >= 2`).
fn random_survivors(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut keep: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
    let kept = keep.iter().filter(|&&k| k).count();
    if kept == 0 {
        keep[rng.gen_range(0..n)] = true;
    } else if kept == n {
        keep[rng.gen_range(0..n)] = false;
    }
    (0..n).filter(|&i| keep[i]).collect()
}

/// Runs seeded chains of shrinking rounds from `candidates`, checking every
/// advanced context against a fresh build. Returns the rounds checked.
fn check_random_round_chains(
    db: &Database,
    result: &QueryResult,
    candidates: &[SpjQuery],
    seeds: std::ops::Range<u64>,
) -> usize {
    let mut rounds = 0;
    for seed in seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut queries = candidates.to_vec();
        let mut ctx = GenerationContext::new(db, result, &queries).unwrap();
        let mut cache = TermBitmapCache::new(ctx.join());
        for bound in ctx.bound_queries() {
            let _ = bound.selection_bitmap(&mut cache);
        }
        while queries.len() > 1 {
            let surviving = random_survivors(&mut rng, queries.len());
            let (advanced, report) = ctx.advance_with_report(&surviving, &[]).unwrap();
            assert_eq!(report.path, AdvancePath::SharedNoEdit);
            assert!(Arc::ptr_eq(advanced.session_join(), ctx.session_join()));
            queries = surviving.iter().map(|&i| queries[i].clone()).collect();
            let fresh = GenerationContext::new(db, result, &queries).unwrap();
            assert_round_equivalent(&advanced, &fresh, &mut cache);
            // Continue the chain from the *advanced* context, so every round
            // of a chain runs on the first round's session join.
            ctx = advanced;
            rounds += 1;
        }
    }
    rounds
}

/// Drives generation rounds with worst-case (largest-group) feedback,
/// checking advance-vs-fresh equivalence at every round.
fn drive_rounds_checking_advance(db: &Database, result: &QueryResult, candidates: Vec<SpjQuery>) {
    let generator = DatabaseGenerator::default();
    let mut queries = candidates;
    let mut ctx = GenerationContext::new(db, result, &queries).unwrap();
    let mut cache = TermBitmapCache::new(ctx.join());
    for _round in 0..8 {
        if queries.len() <= 1 {
            break;
        }
        let generated = match generator.generate_with_context(&ctx) {
            Ok(g) => g,
            Err(_) => break, // indistinguishable survivors: nothing to advance
        };
        // Worst-case user: keep the largest group (ties broken by order).
        let surviving: Vec<usize> = generated
            .partition
            .groups
            .iter()
            .max_by_key(|g| g.query_indices.len())
            .expect("at least one group")
            .query_indices
            .clone();
        if surviving.len() == queries.len() {
            break; // no progress possible
        }
        let advanced = ctx.advance(&surviving, &[]).expect("advance succeeds");
        queries = surviving.iter().map(|&i| queries[i].clone()).collect();
        let fresh = GenerationContext::new(db, result, &queries).unwrap();
        assert_round_equivalent(&advanced, &fresh, &mut cache);
        ctx = advanced;
    }
}

/// The scientific workload's Q2 with a candidate set grown by mutating the
/// target's constants, at the given parent/child row counts.
fn scientific_q2(
    parent_rows: usize,
    child_rows: usize,
    dangling: usize,
    want: usize,
) -> (Database, QueryResult, Vec<SpjQuery>) {
    let workload = qfe::datasets::scientific_scaled(42, parent_rows, child_rows, dangling);
    let target = workload.query("Q2").expect("query").clone();
    let result = workload.example_result("Q2").expect("result");
    let candidates = qfe_qbo::grow_candidates(
        &workload.database,
        &result,
        std::slice::from_ref(&target),
        want,
    )
    .unwrap();
    (workload.database, result, candidates)
}

#[test]
fn advance_equals_fresh_context_after_each_round_on_example_1_1() {
    let (db, result, candidates, _) = qfe::datasets::example_1_1();
    drive_rounds_checking_advance(&db, &result, candidates);
}

#[test]
fn advance_equals_fresh_context_on_scientific_workload() {
    let (db, result, candidates) = scientific_q2(200, 40, 5, 10);
    if candidates.len() < 2 {
        return; // degenerate seed; nothing to distinguish
    }
    drive_rounds_checking_advance(&db, &result, candidates);
}

#[test]
fn shrinking_round_chains_match_fresh_contexts() {
    let (db, result, candidates, _) = qfe::datasets::example_1_1();
    let rounds = check_random_round_chains(&db, &result, &candidates, 0..8);
    assert!(rounds >= 8, "every chain advances at least once");

    // The scientific workload at the benchmarks' Small scale.
    let (db, result, candidates) = scientific_q2(400, 80, 6, 8);
    assert!(candidates.len() >= 4, "{} candidates", candidates.len());
    let rounds = check_random_round_chains(&db, &result, &candidates, 0..3);
    assert!(rounds >= 3);
}

#[test]
fn engine_with_incremental_contexts_matches_session_outcomes() {
    // The engine advances its round context internally; the oracle-driven
    // outcome must be what the (fresh-context) blocking driver produces.
    let (db, result, candidates, _) = qfe::datasets::example_1_1();
    for target in candidates.clone() {
        let session = QfeSession::builder(db.clone(), result.clone())
            .with_candidates(candidates.clone())
            .build()
            .unwrap();
        let outcome = session.run(&OracleUser::new(target.clone())).unwrap();
        assert_eq!(outcome.query.label, target.label);
        // Cross-check the final query against direct evaluation.
        assert!(evaluate(&outcome.query, &db)
            .unwrap()
            .bag_equal(&evaluate(&target, &db).unwrap()));
    }
}
