//! Algorithm 3: `Skyline-STC-DTC-Pairs`.
//!
//! Enumerates candidate (source-tuple-class, destination-tuple-class) pairs in
//! non-descending minimum edit cost (the number of modified attributes) and
//! keeps, per cost level, the pairs whose class-level balance score ties or
//! improves the best score seen so far.  Enumeration stops when the time
//! threshold δ is exhausted, returning everything collected up to that point
//! (the paper's Section 5.3).
//!
//! The enumeration is one sequential walk: cost levels ascending, source
//! classes in order, destinations in [`TupleClassSpace`] order, so a run that
//! finishes within δ is a deterministic function of the context.
//!
//! # Deadline handling
//!
//! The δ budget is enforced against a precomputed `Instant` deadline. The
//! clock is consulted every [`TIME_CHECK_INTERVAL`] examined pairs while far
//! from the deadline and every [`NEAR_DEADLINE_CHECK_INTERVAL`] pairs once
//! past ~80% of the budget, which keeps the δ overshoot bounded even when
//! individual pairs are cheap.
//!
//! [`TupleClassSpace`]: crate::TupleClassSpace

use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use crate::context::{ClassPair, GenerationContext};

/// The result of the skyline enumeration.
#[derive(Debug, Clone)]
pub struct SkylineOutcome {
    /// The skyline pairs, in the order they were collected.
    pub pairs: Vec<ClassPair>,
    /// The minimum balance score achieved by any collected pair.
    pub min_balance: f64,
    /// Lemma 3.1's `x`: the size of the smaller subset of the most balanced
    /// *binary* partitioning encountered during enumeration, if any.
    pub best_binary_x: Option<usize>,
    /// Number of (STC, DTC) pairs examined.
    pub enumerated: usize,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Whether enumeration stopped because the time threshold δ was reached.
    pub timed_out: bool,
}

/// How often (in examined pairs) the time budget is re-checked while far from
/// the deadline.
const TIME_CHECK_INTERVAL: usize = 64;

/// The tightened re-check interval once past ~80% of the budget, bounding the
/// δ overshoot.
const NEAR_DEADLINE_CHECK_INTERVAL: usize = 8;

/// Deadline bookkeeping: counts examined pairs and consults the clock only at
/// the adaptive interval.
struct Ticker {
    hard: Instant,
    soft: Instant,
    count: usize,
    next_check: usize,
    expired: bool,
}

impl Ticker {
    fn new(start: Instant, budget: Duration) -> Ticker {
        let hard = start
            .checked_add(budget)
            .unwrap_or_else(|| start + Duration::from_secs(86_400));
        let soft = start.checked_add(budget.mul_f64(0.8)).unwrap_or(hard);
        Ticker {
            hard,
            soft,
            count: 0,
            next_check: TIME_CHECK_INTERVAL,
            expired: false,
        }
    }

    /// Registers one examined pair; returns `true` when the enumeration must
    /// stop.
    #[inline]
    fn tick(&mut self) -> bool {
        self.count += 1;
        if self.count < self.next_check {
            return false;
        }
        if self.expired {
            return true;
        }
        let now = Instant::now();
        if now > self.hard {
            self.expired = true;
            return true;
        }
        let interval = if now > self.soft {
            NEAR_DEADLINE_CHECK_INTERVAL
        } else {
            TIME_CHECK_INTERVAL
        };
        self.next_check = self.count + interval;
        false
    }
}

/// Runs Algorithm 3 over the context's source-tuple classes.
///
/// `time_budget` is the paper's δ threshold: once exceeded, the enumeration
/// stops and returns the pairs collected so far.
pub fn skyline_stc_dtc_pairs(ctx: &GenerationContext, time_budget: Duration) -> SkylineOutcome {
    let start = Instant::now();
    let mut ticker = Ticker::new(start, time_budget);
    let mut pairs: Vec<ClassPair> = Vec::new();
    let mut min_balance = f64::INFINITY;
    // The strictly-best binary partitioning seen: `(balance, smaller subset
    // size)`, first occurrence wins ties.
    let mut best_binary: Option<(f64, usize)> = None;
    let mut enumerated = 0usize;
    let mut src_scratch = ctx.match_scratch();
    let mut dst_scratch = ctx.match_scratch();
    let levels = ctx.class_space().attribute_count().max(1);
    for edit_cost in 1..=levels {
        // This level's pairs tied at its running minimum, which starts from
        // the best balance of the cheaper levels.
        let mut level_min = min_balance;
        let mut level_pairs: Vec<ClassPair> = Vec::new();
        for source in ctx.source_classes().keys() {
            if ticker.expired {
                break;
            }
            // Hoist the source bitset out of the destination loop.
            let source_bits = ctx.class_match_words(source, &mut src_scratch).to_vec();
            let _ = ctx.class_space().for_each_destination_class(
                source,
                edit_cost,
                ctx.modifiable_attributes(),
                |destination, changed| {
                    enumerated += 1;
                    if ticker.tick() {
                        return ControlFlow::Break(());
                    }
                    let dest_bits = ctx.class_match_words(destination, &mut dst_scratch);
                    let projection_changed = ctx.projection_touched(changed);
                    let stats = ctx.pair_stats(&source_bits, dest_bits, projection_changed);
                    let balance = stats.balance();
                    // A pair that does not split the candidates (a single
                    // subset) is useless for discrimination and never kept.
                    if !balance.is_finite() {
                        return ControlFlow::Continue(());
                    }
                    if let Some(smaller) = stats.binary_smaller() {
                        if best_binary.is_none_or(|(b, _)| balance < b) {
                            best_binary = Some((balance, smaller));
                        }
                    }
                    if balance < level_min {
                        level_min = balance;
                        level_pairs.clear();
                    } else if balance > level_min {
                        return ControlFlow::Continue(());
                    }
                    level_pairs.push(ClassPair {
                        source: source.clone(),
                        destination: destination.clone(),
                        changed_attributes: changed.to_vec(),
                    });
                    ControlFlow::Continue(())
                },
            );
        }
        pairs.append(&mut level_pairs);
        min_balance = level_min;
        if ticker.expired {
            break;
        }
    }

    SkylineOutcome {
        pairs,
        min_balance,
        best_binary_x: best_binary.map(|(_, x)| x),
        enumerated,
        elapsed: start.elapsed(),
        timed_out: ticker.expired,
    }
}

/// A pass-through kept for callers that thread a memo through their rounds
/// (the `perfbench` replay does). Nothing is cached: within a session every
/// round has a smaller candidate set than the last, so no enumeration result
/// could ever be reused.
#[derive(Debug, Clone, Default)]
pub struct SkylineMemo {
    enumerations: u64,
}

impl SkylineMemo {
    /// A fresh memo.
    pub fn new() -> SkylineMemo {
        SkylineMemo::default()
    }

    /// Results served from the memo: always 0.
    pub fn hits(&self) -> u64 {
        0
    }

    /// Enumerations run through this memo (every call enumerates).
    pub fn recomputed_cells(&self) -> u64 {
        self.enumerations
    }
}

/// [`skyline_stc_dtc_pairs`], counted on `memo`. Kept only for the callers
/// described at [`SkylineMemo`].
pub fn skyline_stc_dtc_pairs_memoized(
    ctx: &GenerationContext,
    time_budget: Duration,
    memo: &mut SkylineMemo,
) -> SkylineOutcome {
    memo.enumerations += 1;
    skyline_stc_dtc_pairs(ctx, time_budget)
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn skyline_finds_discriminating_single_change_pairs() {
        let ctx = employee_context();
        let outcome = skyline_stc_dtc_pairs(&ctx, Duration::from_secs(5));
        assert!(!outcome.pairs.is_empty());
        assert!(outcome.min_balance.is_finite());
        assert!(outcome.enumerated > 0);
        assert!(!outcome.timed_out);
        // Three candidate queries can at best be split 2/1 by a single change:
        // the most balanced binary partitioning has a smaller subset of 1.
        assert_eq!(outcome.best_binary_x, Some(1));
        // Every skyline pair achieves the reported minimum balance.
        let codes = ctx.outcome_codes(&outcome.pairs);
        for i in 0..outcome.pairs.len() {
            assert_eq!(codes.balance(&[i]), outcome.min_balance);
        }
    }

    #[test]
    fn skyline_pairs_never_include_non_discriminating_pairs() {
        let ctx = employee_context();
        let outcome = skyline_stc_dtc_pairs(&ctx, Duration::from_secs(5));
        let codes = ctx.outcome_codes(&outcome.pairs);
        for i in 0..outcome.pairs.len() {
            let sizes = codes.partition_sizes(&[i]);
            assert!(sizes.len() >= 2, "pair must split the candidate set");
        }
    }

    #[test]
    fn memo_is_a_counting_pass_through() {
        let ctx = employee_context();
        let budget = Duration::from_secs(30);
        let plain = skyline_stc_dtc_pairs(&ctx, budget);
        let mut memo = SkylineMemo::new();
        for round in 1..=2 {
            let memoized = skyline_stc_dtc_pairs_memoized(&ctx, budget, &mut memo);
            assert_eq!(memoized.pairs, plain.pairs);
            assert_eq!(memoized.min_balance.to_bits(), plain.min_balance.to_bits());
            assert_eq!(memoized.best_binary_x, plain.best_binary_x);
            assert_eq!(memoized.enumerated, plain.enumerated);
            assert_eq!(memo.hits(), 0);
            assert_eq!(memo.recomputed_cells(), round);
        }
    }

    /// Twelve rows over three attributes, and candidates with thresholds on
    /// all of them, so the walk has hundreds of pairs to examine.
    fn many_pairs_context() -> GenerationContext {
        let rows = (0..12i64)
            .map(|i| {
                tuple![
                    i,
                    i * 10,
                    (i * 7) % 12 * 10,
                    ["x", "y", "z"][i as usize % 3]
                ]
            })
            .collect();
        let table = Table::with_rows(
            TableSchema::new(
                "T",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("a", DataType::Int),
                    ColumnDef::new("b", DataType::Int),
                    ColumnDef::new("c", DataType::Text),
                ],
            )
            .unwrap()
            .with_primary_key(&["id"])
            .unwrap(),
            rows,
        )
        .unwrap();
        let mut db = Database::new();
        db.add_table(table).unwrap();
        let q = |term| SpjQuery::new(vec!["T"], vec!["id"], DnfPredicate::single(term));
        let queries = vec![
            q(Term::compare("a", ComparisonOp::Gt, 15i64)),
            q(Term::compare("a", ComparisonOp::Gt, 45i64)),
            q(Term::compare("a", ComparisonOp::Gt, 75i64)),
            q(Term::compare("b", ComparisonOp::Lt, 35i64)),
            q(Term::compare("b", ComparisonOp::Lt, 65i64)),
            q(Term::eq("c", "x")),
            q(Term::eq("c", "y")),
        ];
        let result = evaluate(&queries[0], &db).unwrap();
        GenerationContext::new(&db, &result, &queries).unwrap()
    }

    #[test]
    fn zero_budget_times_out_quickly() {
        let ctx = many_pairs_context();
        let full = skyline_stc_dtc_pairs(&ctx, Duration::from_secs(5));
        assert!(!full.timed_out);
        assert!(
            full.enumerated > TIME_CHECK_INTERVAL,
            "only {} pairs to examine",
            full.enumerated
        );
        // The first clock check, after `TIME_CHECK_INTERVAL` pairs, finds
        // the zero budget spent and ends the walk there.
        let outcome = skyline_stc_dtc_pairs(&ctx, Duration::from_secs(0));
        assert!(outcome.timed_out);
        assert!(outcome.enumerated <= TIME_CHECK_INTERVAL);
        assert!(outcome.elapsed < Duration::from_secs(5));
    }

    #[test]
    fn larger_budget_never_finds_fewer_pairs() {
        let ctx = employee_context();
        let small = skyline_stc_dtc_pairs(&ctx, Duration::from_millis(1));
        let large = skyline_stc_dtc_pairs(&ctx, Duration::from_secs(5));
        assert!(large.pairs.len() >= small.pairs.len());
        assert!(large.enumerated >= small.enumerated);
    }
}
