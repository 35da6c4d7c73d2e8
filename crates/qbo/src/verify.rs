//! Batched candidate verification over one join.
//!
//! QBO's generate-and-verify pass is the hottest loop of candidate
//! generation: every enumerated predicate becomes a query that must be
//! checked against `Q(D) = R`, and constant mutation multiplies the frontier
//! further. Evaluating each candidate row-at-a-time re-touches every joined
//! row per query.
//!
//! [`BatchVerifier`] verifies the whole frontier against **one** join, held
//! by its [`TermBitmapCache`]:
//!
//! * each candidate's selection runs as bitmap algebra over the cache's
//!   per-(column, op, literal) bitmaps — the frontier's queries
//!   overwhelmingly share terms (the enumeration derives them from the same
//!   per-attribute analyses; constant mutation perturbs one term at a time),
//!   so most candidates touch no row data at all;
//! * candidates whose selection bitmap has the wrong cardinality are rejected
//!   without materializing a single projected row (bag equality needs equal
//!   cardinality);
//! * results are **deduplicated by projection-bitmap signature**: two
//!   candidates with the same (projection columns, distinct flag, selection
//!   bitmap) produce the same result, so the verdict is computed once and
//!   replayed for every signature-equal candidate.
//!
//! The cache is shared with predicate enumeration
//! ([`enumerate_predicates`](crate::enumerate_predicates) reads it through
//! [`BatchVerifier::term_cache`]), which builds its candidates from the
//! same terms it has just computed bitmaps for.
//!
//! The verdicts are exactly those of the row evaluator
//! ([`BoundQuery::evaluate`]) followed by [`QueryResult::bag_equal`]: each
//! term bitmap is computed with the row evaluator's own term test, and
//! property tests in the workspace root check the equivalence on randomized
//! schemas and predicates.

use std::collections::HashMap;

use qfe_query::{BoundQuery, QueryResult, SpjQuery, TermBitmapCache};
use qfe_relation::{Bitmap, JoinedRelation};

/// Counters describing what a [`BatchVerifier`] did. They feed the QBO layer
/// of perfbench's trace (candidates checked, verified ratio, rows scanned,
/// term-bitmap hit ratio).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// Candidates checked (including signature-cache replays).
    pub candidates_checked: u64,
    /// Candidates that verified (`Q(D) = R`).
    pub verified: u64,
    /// Verdicts replayed from the projection-bitmap-signature cache.
    pub signature_hits: u64,
    /// Candidates rejected on selection cardinality alone (no rows
    /// materialized).
    pub cardinality_rejects: u64,
    /// Joined rows touched: full column scans for term-bitmap misses
    /// (predicate enumeration's included, as it shares the cache) plus
    /// selected rows materialized for bag comparison.
    pub rows_scanned: u64,
    /// Term bitmaps served from the cache.
    pub term_bitmap_hits: u64,
    /// Term bitmaps computed (one pass over the join's rows each).
    pub term_bitmap_misses: u64,
}

impl VerifyStats {
    /// Merges another stats block into this one.
    pub fn absorb(&mut self, other: &VerifyStats) {
        self.candidates_checked += other.candidates_checked;
        self.verified += other.verified;
        self.signature_hits += other.signature_hits;
        self.cardinality_rejects += other.cardinality_rejects;
        self.rows_scanned += other.rows_scanned;
        self.term_bitmap_hits += other.term_bitmap_hits;
        self.term_bitmap_misses += other.term_bitmap_misses;
    }
}

/// The result-determining signature of a candidate on a fixed join: two
/// candidates with equal signatures produce byte-identical results.
type ResultSignature = (Vec<usize>, bool, Bitmap);

/// Verifies many candidate queries against one `(join, expected)` pair. See
/// the module docs.
#[derive(Debug)]
pub struct BatchVerifier {
    cache: TermBitmapCache,
    expected: QueryResult,
    verdicts: HashMap<ResultSignature, bool>,
    stats: VerifyStats,
}

impl BatchVerifier {
    /// Builds a verifier for `join`, checking candidates against `expected`.
    /// The verifier's term-bitmap cache keeps its own (pointer-sharing)
    /// clone of `join`.
    pub fn new(join: &JoinedRelation, expected: &QueryResult) -> BatchVerifier {
        BatchVerifier {
            cache: TermBitmapCache::new(join),
            expected: expected.clone(),
            verdicts: HashMap::new(),
            stats: VerifyStats::default(),
        }
    }

    /// The join candidates are verified on.
    pub fn join(&self) -> &JoinedRelation {
        self.cache.join()
    }

    /// The term-bitmap cache candidates are verified through, for predicate
    /// enumeration to compute its row sets with (see the module docs).
    pub fn term_cache(&mut self) -> &mut TermBitmapCache {
        &mut self.cache
    }

    /// Whether `query`, bound against the verifier's join, reproduces the
    /// expected result.
    ///
    /// Exactly `BoundQuery::bind(query, join)?.evaluate(join).bag_equal(expected)`,
    /// with a query that fails to bind counting as unverified.
    pub fn verify(&mut self, query: &SpjQuery) -> bool {
        self.stats.candidates_checked += 1;
        let Ok(bound) = BoundQuery::bind(query, self.cache.join()) else {
            return false;
        };
        let bitmap = bound.selection_bitmap(&mut self.cache);

        let selected = bitmap.count_ones();
        if !bound.is_distinct() && selected != self.expected.len() {
            // Bag equality requires equal cardinality: reject without
            // materializing anything. (A distinct query's cardinality only
            // emerges after deduplication.)
            self.stats.cardinality_rejects += 1;
            return false;
        }
        let signature: ResultSignature = (
            bound.projection_indices().to_vec(),
            bound.is_distinct(),
            bitmap,
        );
        if let Some(&verdict) = self.verdicts.get(&signature) {
            self.stats.signature_hits += 1;
            if verdict {
                self.stats.verified += 1;
            }
            return verdict;
        }
        self.stats.rows_scanned += selected as u64;
        let result = bound.materialize_selection(self.cache.join(), &signature.2);
        let verdict = result.bag_equal(&self.expected);
        self.verdicts.insert(signature, verdict);
        if verdict {
            self.stats.verified += 1;
        }
        verdict
    }

    /// The counters accumulated so far. The term-bitmap counters, and the
    /// column scans behind the misses, are read off the live cache.
    pub fn stats(&self) -> VerifyStats {
        let mut stats = self.stats;
        stats.term_bitmap_hits = self.cache.hits();
        stats.term_bitmap_misses = self.cache.misses();
        stats.rows_scanned += self.cache.misses() * self.cache.join().len() as u64;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfe_query::{ComparisonOp, DnfPredicate, Term};
    use qfe_relation::{
        foreign_key_join, tuple, ColumnDef, DataType, Database, Table, TableSchema,
    };

    fn employee_db() -> Database {
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
        db
    }

    fn q(pred: DnfPredicate) -> SpjQuery {
        SpjQuery::new(vec!["Employee"], vec!["name"], pred)
    }

    /// The row evaluator's result, `None` when the query does not bind.
    fn row_result(query: &SpjQuery, join: &JoinedRelation) -> Option<QueryResult> {
        BoundQuery::bind(query, join).ok().map(|b| b.evaluate(join))
    }

    #[test]
    fn verdicts_match_the_row_evaluator() {
        let db = employee_db();
        let join = foreign_key_join(&db, &["Employee".to_string()]).unwrap();
        let queries = [
            q(DnfPredicate::single(Term::eq("gender", "M"))),
            q(DnfPredicate::single(Term::compare(
                "salary",
                ComparisonOp::Gt,
                4000i64,
            ))),
            q(DnfPredicate::single(Term::eq("dept", "IT"))),
            q(DnfPredicate::single(Term::eq("gender", "F"))),
            q(DnfPredicate::always_true()),
            // Unknown attribute: must count as unverified, not error.
            q(DnfPredicate::single(Term::eq("wage", 1i64))),
        ];
        let expected = row_result(&queries[0], &join).unwrap();
        let mut verifier = BatchVerifier::new(&join, &expected);
        let verdicts: Vec<bool> = queries.iter().map(|q| verifier.verify(q)).collect();
        for (query, &v) in queries.iter().zip(&verdicts) {
            let row_verdict = row_result(query, &join)
                .map(|r| r.bag_equal(&expected))
                .unwrap_or(false);
            assert_eq!(v, row_verdict, "{query}");
        }
        assert_eq!(verdicts, vec![true, true, true, false, false, false]);
    }

    #[test]
    fn signature_cache_replays_equal_results() {
        let db = employee_db();
        let join = foreign_key_join(&db, &["Employee".to_string()]).unwrap();
        let expected =
            row_result(&q(DnfPredicate::single(Term::eq("gender", "M"))), &join).unwrap();
        let mut verifier = BatchVerifier::new(&join, &expected);
        // Three distinct predicates selecting the same rows: one
        // materialization, two signature replays.
        let frontier = [
            q(DnfPredicate::single(Term::eq("gender", "M"))),
            q(DnfPredicate::single(Term::eq("dept", "IT"))),
            q(DnfPredicate::single(Term::compare(
                "salary",
                ComparisonOp::Ge,
                4200i64,
            ))),
        ];
        let verdicts: Vec<bool> = frontier.iter().map(|q| verifier.verify(q)).collect();
        assert_eq!(verdicts, vec![true, true, true]);
        let stats = verifier.stats();
        assert_eq!(stats.signature_hits, 2);
        assert_eq!(stats.candidates_checked, 3);
        assert_eq!(stats.verified, 3);
        // Re-verifying hits the term cache: no new row scans.
        let scans_before = stats.term_bitmap_misses;
        for query in &frontier {
            assert!(verifier.verify(query));
        }
        assert_eq!(verifier.stats().term_bitmap_misses, scans_before);
    }

    #[test]
    fn cardinality_mismatch_rejects_without_materializing() {
        let db = employee_db();
        let join = foreign_key_join(&db, &["Employee".to_string()]).unwrap();
        let expected =
            row_result(&q(DnfPredicate::single(Term::eq("gender", "M"))), &join).unwrap();
        let mut verifier = BatchVerifier::new(&join, &expected);
        for _ in 0..2 {
            assert!(!verifier.verify(&q(DnfPredicate::always_true())));
        }
        // Nothing was materialized, so nothing could be replayed either.
        assert_eq!(verifier.stats().cardinality_rejects, 2);
        assert_eq!(verifier.stats().signature_hits, 0);
    }

    #[test]
    fn distinct_queries_compare_after_deduplication() {
        let db = employee_db();
        let join = foreign_key_join(&db, &["Employee".to_string()]).unwrap();
        let set_query = SpjQuery::new(
            vec!["Employee"],
            vec!["gender"],
            DnfPredicate::always_true(),
        )
        .with_distinct(true);
        let expected = row_result(&set_query, &join).unwrap();
        assert_eq!(expected.len(), 2);
        let mut verifier = BatchVerifier::new(&join, &expected);
        assert!(verifier.verify(&set_query));
        // The bag twin (no DISTINCT) has 4 rows: rejected, and its signature
        // is distinct from the set query's.
        let bag_query = SpjQuery::new(
            vec!["Employee"],
            vec!["gender"],
            DnfPredicate::always_true(),
        );
        assert!(!verifier.verify(&bag_query));
    }
}
