//! Shared per-iteration state of the database generator.
//!
//! At each feedback iteration the database generator works with the original
//! pair `(D, R)`, the surviving candidate queries `QC'`, their shared
//! foreign-key join, the join index (for side-effect accounting), and the
//! tuple-class space derived from `QC'`.  [`GenerationContext`] bundles that
//! state and provides the cheap, class-level reasoning (query/class matching,
//! outcome signatures, balance scores) that Algorithms 3 and 4 are built on.
//!
//! Two properties matter for scale:
//!
//! * **Bit-packed reasoning.** Class/candidate matching and outcome
//!   signatures run on the [`OutcomeKernel`]'s interned class ids and
//!   per-class match bitsets — branch-light word operations with no interior
//!   mutability, so the context is `Sync` and can be shared by concurrent
//!   sessions.
//! * **Shared advancement.** Within a session `D` and `R` never change and
//!   each answer only shrinks the candidate set, so
//!   [`GenerationContext::advance`] derives the next round's context from the
//!   previous one — `Arc`-sharing the database, the join, its columnar mirror
//!   and join index, reusing the cached active domains and remapping the
//!   source classes — instead of recomputing everything from the database.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use qfe_query::{BoundQuery, QueryResult, SpjQuery};
use qfe_relation::{
    foreign_key_join, ColumnarJoin, Database, JoinIndex, JoinedRelation, Tuple, Value,
};

use crate::cost::balance_score;
use crate::error::{QfeError, Result};
use crate::kernel::{MatchScratch, OutcomeKernel, PairStats};
use crate::tuple_class::{TupleClass, TupleClassSpace};

/// Advances sampled by the `QFE_PARANOIA` self-check mode.
static PARANOIA_CHECKS: AtomicU64 = AtomicU64::new(0);
/// Self-checks where the advanced context diverged from a fresh rebuild
/// (each one degraded gracefully to the rebuild).
static PARANOIA_MISMATCHES: AtomicU64 = AtomicU64::new(0);
/// Rolling advance counter for the every-Nth sampling mode.
static PARANOIA_TICK: AtomicU64 = AtomicU64::new(0);

/// How many `advance` calls the `QFE_PARANOIA` mode has spot-validated
/// against a fresh rebuild this process.
pub fn paranoia_checks() -> u64 {
    PARANOIA_CHECKS.load(Ordering::Relaxed)
}

/// How many `QFE_PARANOIA` self-checks caught a divergence (and fell back
/// to the fresh rebuild). Any nonzero value is an advancement bug that the
/// paranoia mode has *contained* but that should be reported.
pub fn paranoia_mismatches() -> u64 {
    PARANOIA_MISMATCHES.load(Ordering::Relaxed)
}

/// Sampling interval of the `QFE_PARANOIA` self-check mode, parsed once:
/// unset/`0`/`off` → disabled, `1`/`always`/`on` → every advance, a number
/// `N` → every Nth advance.
fn paranoia_interval() -> Option<u64> {
    static MODE: std::sync::OnceLock<Option<u64>> = std::sync::OnceLock::new();
    *MODE.get_or_init(|| {
        let value = std::env::var("QFE_PARANOIA").ok()?;
        match value.trim().to_ascii_lowercase().as_str() {
            "" | "0" | "off" | "false" => None,
            "1" | "always" | "on" | "true" => Some(1),
            other => other.parse::<u64>().ok().filter(|&n| n > 0),
        }
    })
}

/// Which path [`GenerationContext::advance`] took for the relational state
/// (database, join, columnar mirror).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdvancePath {
    /// No cell edits: the database, join, columnar mirror and join index are
    /// all `Arc`-shared with the predecessor context.
    SharedNoEdit,
    /// Cell edits were applied: the successor was rebuilt from the edited
    /// database.
    FullRebuild,
}

/// What [`GenerationContext::advance_with_report`] did, for benchmarks and
/// the `QFE_PARANOIA` self-check.
#[derive(Debug, Clone)]
pub struct AdvanceReport {
    /// The relational path taken.
    pub path: AdvancePath,
    /// True when the `QFE_PARANOIA` mode spot-validated this advance
    /// against a fresh rebuild.
    pub paranoia_checked: bool,
    /// Why the self-check rejected the advanced context, when it did. The
    /// returned context is then the fresh rebuild (and
    /// [`AdvanceReport::path`] reads [`AdvancePath::FullRebuild`]).
    pub paranoia_mismatch: Option<String>,
}

/// A candidate single-tuple modification at the tuple-class level: a
/// (source-tuple-class, destination-tuple-class) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassPair {
    /// The source tuple class (some tuple of `D` belongs to it).
    pub source: TupleClass,
    /// The destination tuple class the tuple is modified into.
    pub destination: TupleClass,
    /// Positions (into the selection-attribute list) changed by the pair.
    pub changed_attributes: Vec<usize>,
}

impl ClassPair {
    /// The pair's minimum edit cost: one attribute modification per changed
    /// attribute.
    pub fn edit_cost(&self) -> usize {
        self.changed_attributes.len()
    }
}

/// The abstract effect of a single-tuple modification on one query's result
/// (the four cases of Lemma 5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Outcome {
    /// The query's result is unchanged.
    Unchanged,
    /// The modified tuple newly satisfies the query: one row added.
    Added,
    /// The tuple no longer satisfies the query: one row removed.
    Removed,
    /// The tuple satisfies the query before and after, but its projected
    /// value changed: one row replaced.
    Replaced,
}

/// Per-iteration state shared by the skyline search (Algorithm 3), the subset
/// selection (Algorithm 4) and the realization of modifications.
///
/// The context is immutable after construction and `Sync`.
#[derive(Debug)]
pub struct GenerationContext {
    db: Arc<Database>,
    original_result: Arc<QueryResult>,
    queries: Vec<SpjQuery>,
    join_tables: Vec<String>,
    join: Arc<JoinedRelation>,
    /// Columnar mirror of [`Self::join`]: typed vectors, sorted string
    /// dictionaries and null bitmaps. Built once per join and shared by
    /// `advance`. The context reads its active domains off it (the sorted
    /// dictionaries *are* the domains) and exposes it via
    /// [`Self::columnar`] for vectorized candidate evaluation
    /// (`BoundQuery::selection_bitmap` + `TermBitmapCache`, which keys its
    /// validity on the mirror's generation).
    columnar: Arc<ColumnarJoin>,
    join_index: Arc<JoinIndex>,
    bound: Vec<BoundQuery>,
    space: TupleClassSpace,
    source_classes: BTreeMap<TupleClass, Vec<usize>>,
    modifiable: Vec<bool>,
    projection_columns: BTreeSet<usize>,
    /// Cached active domains of the selection-predicate columns (what
    /// `join.active_domain` returned at build time) — reused by
    /// [`Self::advance`] so successor contexts skip the join scans.
    column_domains: BTreeMap<usize, Vec<Value>>,
    kernel: OutcomeKernel,
    /// Per attribute, per block: whether the block's representative conforms
    /// to the base column's declared type (i.e. the block is realizable as a
    /// concrete cell edit).
    block_realizable: Vec<Vec<bool>>,
}

fn assert_sync_send<T: Sync + Send>() {}
#[allow(dead_code)]
fn generation_context_is_sync() {
    assert_sync_send::<GenerationContext>();
}

impl GenerationContext {
    /// Builds the context for one iteration.
    ///
    /// All candidate queries must share the same join schema (the Section 5
    /// assumption); [`QfeError::MixedJoinSchemas`] is returned otherwise.
    pub fn new(db: &Database, original_result: &QueryResult, queries: &[SpjQuery]) -> Result<Self> {
        Self::new_shared(
            Arc::new(db.clone()),
            Arc::new(original_result.clone()),
            queries.to_vec(),
        )
    }

    /// [`Self::new`] without copying `D` and `R`: the context shares the
    /// caller's `Arc`s, so a session engine, its manager snapshots and every
    /// per-round context reference one copy of the example pair.
    pub fn new_shared(
        db: Arc<Database>,
        original_result: Arc<QueryResult>,
        queries: Vec<SpjQuery>,
    ) -> Result<Self> {
        if queries.is_empty() {
            return Err(QfeError::NoCandidates);
        }
        let join_tables = queries[0].join_signature();
        if queries.iter().any(|q| q.join_signature() != join_tables) {
            return Err(QfeError::MixedJoinSchemas);
        }
        let join = Arc::new(foreign_key_join(&db, &join_tables)?);
        let columnar = Arc::new(ColumnarJoin::from_join(&join));
        let join_index = Arc::new(JoinIndex::build(&join));
        let column_domains = TupleClassSpace::active_domains_with(&join, &queries, |col| {
            columnar.active_domain(col)
        })?;
        let space = TupleClassSpace::build_with_domains(&join, &queries, &column_domains)?;
        Self::assemble(
            db,
            original_result,
            queries,
            join_tables,
            join,
            columnar,
            join_index,
            column_domains,
            space,
            None,
        )
    }

    /// Shared tail of [`Self::new_shared`] and [`Self::advance`]: everything
    /// derived from the join, the domains and the candidate set. When
    /// `source_classes` is `None` every join row is classified from scratch;
    /// `advance` passes the remapped table instead.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        db: Arc<Database>,
        original_result: Arc<QueryResult>,
        queries: Vec<SpjQuery>,
        join_tables: Vec<String>,
        join: Arc<JoinedRelation>,
        columnar: Arc<ColumnarJoin>,
        join_index: Arc<JoinIndex>,
        column_domains: BTreeMap<usize, Vec<Value>>,
        space: TupleClassSpace,
        source_classes: Option<BTreeMap<TupleClass, Vec<usize>>>,
    ) -> Result<Self> {
        let bound: Vec<BoundQuery> = queries
            .iter()
            .map(|q| BoundQuery::bind(q, &join))
            .collect::<std::result::Result<_, _>>()?;
        let source_classes = match source_classes {
            Some(classes) => classes,
            None => space.source_classes(&join),
        };

        // Projection columns (shared by all candidates: R determines ℓ).
        let projection_columns: BTreeSet<usize> =
            bound[0].projection_indices().iter().copied().collect();

        let modifiable = modifiable_attributes(&db, &space);
        let kernel = OutcomeKernel::build(&space, &queries, &join, &projection_columns)?;
        let block_realizable = block_realizability(&db, &space);

        Ok(GenerationContext {
            db,
            original_result,
            queries,
            join_tables,
            join,
            columnar,
            join_index,
            bound,
            space,
            source_classes,
            modifiable,
            projection_columns,
            column_domains,
            kernel,
            block_realizable,
        })
    }

    /// Derives the context of the *next* feedback round from this one.
    ///
    /// `surviving` holds the indices (into [`Self::queries`], strictly
    /// ascending) of the candidates kept by the user's answer. With no
    /// `edits` (the feedback loop never changes `D`), the successor
    /// `Arc`-shares the database, the join, its columnar mirror and the join
    /// index, reuses the cached active domains, and remaps the source-class
    /// table through the old-block → new-block refinement induced by the
    /// shrunken term set. Non-empty `edits` are applied to `D` and the
    /// successor is rebuilt from the edited database.
    ///
    /// The result is equivalent to `GenerationContext::new` on the (edited)
    /// database and the surviving candidates.
    pub fn advance(
        &self,
        surviving: &[usize],
        edits: &[crate::realize::CellEdit],
    ) -> Result<GenerationContext> {
        Ok(self.advance_with_report(surviving, edits)?.0)
    }

    /// [`Self::advance`] plus an [`AdvanceReport`] saying which path was
    /// taken and whether the `QFE_PARANOIA` self-check audited it.
    pub fn advance_with_report(
        &self,
        surviving: &[usize],
        edits: &[crate::realize::CellEdit],
    ) -> Result<(GenerationContext, AdvanceReport)> {
        if surviving.is_empty() {
            return Err(QfeError::NoCandidates);
        }
        if surviving.windows(2).any(|w| w[0] >= w[1])
            || *surviving.last().expect("non-empty") >= self.queries.len()
        {
            return Err(QfeError::Internal {
                message: "advance: surviving indices must be strictly ascending and in range"
                    .into(),
            });
        }
        let queries: Vec<SpjQuery> = surviving.iter().map(|&i| self.queries[i].clone()).collect();
        let report = |path| AdvanceReport {
            path,
            paranoia_checked: false,
            paranoia_mismatch: None,
        };

        if !edits.is_empty() {
            // `apply_edits` clones the database but `Arc`-shares every table
            // the edits do not touch.
            let db = crate::realize::apply_edits(&self.db, edits)?;
            let context =
                Self::new_shared(Arc::new(db), Arc::clone(&self.original_result), queries)?;
            return Ok((context, report(AdvancePath::FullRebuild)));
        }

        // The surviving candidates' terms are a subset of this round's, so
        // their domains come from the cache.
        let column_domains = TupleClassSpace::active_domains_with(&self.join, &queries, |col| {
            self.column_domains
                .get(&col)
                .cloned()
                .unwrap_or_else(|| self.columnar.active_domain(col))
        })?;
        let space = TupleClassSpace::build_with_domains(&self.join, &queries, &column_domains)?;

        // Fewer candidates ⇒ fewer terms ⇒ coarser blocks: remap the previous
        // round's source classes instead of classifying every join row again.
        // A failed embedding (should not happen) falls back to full
        // classification.
        let source_classes = self.remap_source_classes(&space);
        debug_assert!(
            source_classes.is_none()
                || source_classes.as_ref() == Some(&space.source_classes(&self.join)),
            "refinement remap disagrees with direct classification"
        );

        let context = Self::assemble(
            Arc::clone(&self.db),
            Arc::clone(&self.original_result),
            queries,
            self.join_tables.clone(),
            Arc::clone(&self.join),
            Arc::clone(&self.columnar),
            Arc::clone(&self.join_index),
            column_domains,
            space,
            source_classes,
        )?;
        self.paranoia_check(context, report(AdvancePath::SharedNoEdit))
    }

    /// The `QFE_PARANOIA` self-check: spot-validate an advanced successor
    /// against a fresh rebuild from the same database and
    /// candidates. On divergence the advance **degrades gracefully** — the
    /// fresh rebuild is returned (correctness preserved), the mismatch is
    /// counted and logged, and the report says what happened. Disabled (the
    /// common case) this is one relaxed atomic load.
    fn paranoia_check(
        &self,
        context: GenerationContext,
        mut report: AdvanceReport,
    ) -> Result<(GenerationContext, AdvanceReport)> {
        let Some(every) = paranoia_interval() else {
            return Ok((context, report));
        };
        if !PARANOIA_TICK
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(every)
        {
            return Ok((context, report));
        }
        PARANOIA_CHECKS.fetch_add(1, Ordering::Relaxed);
        report.paranoia_checked = true;
        let fresh = Self::new_shared(
            Arc::clone(&context.db),
            Arc::clone(&context.original_result),
            context.queries.clone(),
        )?;
        match context.divergence_from(&fresh) {
            None => Ok((context, report)),
            Some(reason) => {
                PARANOIA_MISMATCHES.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "qfe: QFE_PARANOIA caught an advance divergence ({reason}); \
                     degrading to the fresh rebuild (total mismatches {})",
                    paranoia_mismatches()
                );
                report.paranoia_mismatch = Some(reason);
                report.path = AdvancePath::FullRebuild;
                Ok((fresh, report))
            }
        }
    }

    /// Compares every artifact this context derives from the database —
    /// join rows, domain partitions, source classes, projection columns —
    /// against `other`, returning a description of the first divergence, or
    /// `None` when the two are equivalent. This is the equivalence the
    /// round-advancement tests assert; the `QFE_PARANOIA` mode runs it in
    /// production as a self-check.
    pub fn divergence_from(&self, other: &GenerationContext) -> Option<String> {
        if self.queries.len() != other.queries.len() {
            return Some(format!(
                "candidate count {} vs {}",
                self.queries.len(),
                other.queries.len()
            ));
        }
        if self.join.len() != other.join.len() {
            return Some(format!(
                "join row count {} vs {}",
                self.join.len(),
                other.join.len()
            ));
        }
        for (row, (a, b)) in self.join.rows().iter().zip(other.join.rows()).enumerate() {
            if a.tuple != b.tuple {
                return Some(format!("join row {row} tuples differ"));
            }
        }
        let (ours, theirs) = (self.space.attributes(), other.space.attributes());
        if ours.len() != theirs.len() {
            return Some(format!(
                "class-space attribute count {} vs {}",
                ours.len(),
                theirs.len()
            ));
        }
        for (a, b) in ours.iter().zip(theirs) {
            if a.column != b.column {
                return Some(format!(
                    "class-space attribute column {} vs {}",
                    a.column, b.column
                ));
            }
            if a.blocks != b.blocks {
                return Some(format!("domain partition differs on {}", a.reference));
            }
        }
        if self.source_classes != other.source_classes {
            return Some("source classes differ".to_string());
        }
        if self.projection_columns != other.projection_columns {
            return Some("projection columns differ".to_string());
        }
        None
    }

    /// Remaps this context's source classes into the successor class space
    /// via the old-block → new-block refinement. Returns `None` when some old
    /// block does not embed into a single new block (then direct
    /// classification is the only option).
    fn remap_source_classes(
        &self,
        new_space: &TupleClassSpace,
    ) -> Option<BTreeMap<TupleClass, Vec<usize>>> {
        let new_attrs = new_space.attributes();
        // For each new attribute position: (old position, old-block → new-block map).
        let mut maps: Vec<(usize, Vec<usize>)> = Vec::with_capacity(new_attrs.len());
        for na in new_attrs {
            let old_pos = self
                .space
                .attributes()
                .iter()
                .position(|oa| oa.column == na.column)?;
            let old_blocks = &self.space.attributes()[old_pos].blocks;
            let mut map = Vec::with_capacity(old_blocks.len());
            for ob in old_blocks {
                let target = na
                    .blocks
                    .iter()
                    .position(|nb| nb.contains(ob.representative()))?;
                map.push(target);
            }
            maps.push((old_pos, map));
        }
        let mut remapped: BTreeMap<TupleClass, Vec<usize>> = BTreeMap::new();
        for (old_class, rows) in &self.source_classes {
            let new_class: TupleClass = maps
                .iter()
                .map(|(old_pos, map)| map[old_class[*old_pos]])
                .collect();
            remapped.entry(new_class).or_default().extend(rows);
        }
        for members in remapped.values_mut() {
            members.sort_unstable();
        }
        Some(remapped)
    }

    /// The original database `D`.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The original database `D`, shared.
    pub fn database_arc(&self) -> &Arc<Database> {
        &self.db
    }

    /// The original example result `R`.
    pub fn original_result(&self) -> &QueryResult {
        &self.original_result
    }

    /// The surviving candidate queries.
    pub fn queries(&self) -> &[SpjQuery] {
        &self.queries
    }

    /// The shared join schema (sorted table names).
    pub fn join_tables(&self) -> &[String] {
        &self.join_tables
    }

    /// The foreign-key join of the candidate queries' tables over `D`.
    pub fn join(&self) -> &JoinedRelation {
        &self.join
    }

    /// The columnar mirror of [`Self::join`] (typed vectors, sorted string
    /// dictionaries, null bitmaps). The context computes its active domains
    /// from it, and embedders evaluate candidates against it vectorized
    /// ([`qfe_query::BoundQuery::selection_bitmap`] with a
    /// `TermBitmapCache`). Shared untouched across rounds by
    /// [`Self::advance`].
    pub fn columnar(&self) -> &ColumnarJoin {
        &self.columnar
    }

    /// The join index of [`Self::join`].
    pub fn join_index(&self) -> &JoinIndex {
        &self.join_index
    }

    /// The candidate queries bound against [`Self::join`].
    pub fn bound_queries(&self) -> &[BoundQuery] {
        &self.bound
    }

    /// The tuple-class space for the candidate set.
    pub fn class_space(&self) -> &TupleClassSpace {
        &self.space
    }

    /// The source-tuple classes and their member join rows.
    pub fn source_classes(&self) -> &BTreeMap<TupleClass, Vec<usize>> {
        &self.source_classes
    }

    /// Which selection attributes may be modified (non-key attributes).
    pub fn modifiable_attributes(&self) -> &[bool] {
        &self.modifiable
    }

    /// Join-column indices projected by the candidate queries.
    pub fn projection_columns(&self) -> &BTreeSet<usize> {
        &self.projection_columns
    }

    /// Whether the representative of `block` at attribute position `pos`
    /// conforms to the base column's declared type (precomputed; used by the
    /// realization to skip unrealizable destinations).
    pub fn block_realizable(&self, pos: usize, block: usize) -> bool {
        self.block_realizable[pos][block]
    }

    /// Number of candidate queries.
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// Fresh per-thread scratch buffers for [`Self::class_match_words`].
    pub(crate) fn match_scratch(&self) -> MatchScratch {
        self.kernel.scratch()
    }

    /// The candidate-match bitset of a class (bit `q` ⇔ class satisfies
    /// query `q`). Borrow is tied to `scratch`; no allocation.
    pub(crate) fn class_match_words<'a>(
        &'a self,
        class: &TupleClass,
        scratch: &'a mut MatchScratch,
    ) -> &'a [u64] {
        self.kernel.match_words(class, scratch)
    }

    /// Outcome counts of a single pair given precomputed match bitsets.
    pub(crate) fn pair_stats(
        &self,
        source_bits: &[u64],
        destination_bits: &[u64],
        projection_changed: bool,
    ) -> PairStats {
        self.kernel
            .pair_stats(source_bits, destination_bits, projection_changed)
    }

    /// Whether changing the given attribute positions touches a projected
    /// column (precomputed per-attribute projection-touch mask).
    pub(crate) fn projection_touched(&self, changed: &[usize]) -> bool {
        self.kernel.projection_touched(changed)
    }

    /// Whether a tuple of `class` satisfies candidate query `query_idx`.
    ///
    /// A bit probe on the kernel's interned-class match table (or a
    /// branch-light conjunct scan when the class space is too large to
    /// tabulate) — no locks, no allocation.
    pub fn class_matches(&self, class: &TupleClass, query_idx: usize) -> bool {
        self.kernel.class_matches(class, query_idx)
    }

    /// The abstract outcome of modifying one tuple from `pair.source` to
    /// `pair.destination` for query `query_idx` (Lemma 5.1).
    pub fn outcome(&self, pair: &ClassPair, query_idx: usize) -> Outcome {
        let s = self.class_matches(&pair.source, query_idx);
        let d = self.class_matches(&pair.destination, query_idx);
        let projection_changed = self.projection_touched(&pair.changed_attributes);
        match (s, d) {
            (false, false) => Outcome::Unchanged,
            (false, true) => Outcome::Added,
            (true, false) => Outcome::Removed,
            (true, true) => {
                if projection_changed {
                    Outcome::Replaced
                } else {
                    Outcome::Unchanged
                }
            }
        }
    }

    /// The sizes of the query subsets induced (at the class level) by a set
    /// of pairs: queries are grouped by their vector of per-pair outcomes.
    pub fn partition_sizes(&self, pairs: &[ClassPair]) -> Vec<usize> {
        self.partition_sizes_indexed(pairs, None)
    }

    /// [`Self::partition_sizes`] over `pool[indices]` without materializing
    /// the subset (Algorithm 4's extension loop calls this per candidate
    /// extension).
    pub fn partition_sizes_of(&self, pool: &[ClassPair], indices: &[usize]) -> Vec<usize> {
        self.partition_sizes_indexed(pool, Some(indices))
    }

    fn partition_sizes_indexed(&self, pool: &[ClassPair], indices: Option<&[usize]>) -> Vec<usize> {
        let count = indices.map_or(pool.len(), <[usize]>::len);
        let nq = self.queries.len();
        if count == 0 {
            return vec![nq];
        }
        let pair_at = |i: usize| -> &ClassPair {
            match indices {
                Some(idx) => &pool[idx[i]],
                None => &pool[i],
            }
        };
        if count == 1 {
            // Hot path (skyline): pure popcounts, canonical outcome order.
            let pair = pair_at(0);
            let mut s_scratch = self.match_scratch();
            let mut d_scratch = self.match_scratch();
            let s = self
                .kernel
                .match_words(&pair.source, &mut s_scratch)
                .to_vec();
            let d = self.kernel.match_words(&pair.destination, &mut d_scratch);
            let stats =
                self.kernel
                    .pair_stats(&s, d, self.projection_touched(&pair.changed_attributes));
            return stats.sizes().collect();
        }
        if count <= 32 {
            // Pack each query's outcome vector into a u64 (2 bits per pair),
            // then count equal signatures.
            let mut keys = vec![0u64; nq];
            let mut s_scratch = self.match_scratch();
            let mut d_scratch = self.match_scratch();
            for i in 0..count {
                let pair = pair_at(i);
                let proj = self.projection_touched(&pair.changed_attributes);
                let s = self
                    .kernel
                    .match_words(&pair.source, &mut s_scratch)
                    .to_vec();
                let d = self.kernel.match_words(&pair.destination, &mut d_scratch);
                for (q, key) in keys.iter_mut().enumerate() {
                    *key |= u64::from(self.kernel.outcome_code(&s, d, proj, q)) << (2 * i);
                }
            }
            keys.sort_unstable();
            let mut sizes = Vec::new();
            let mut run = 1usize;
            for w in keys.windows(2) {
                if w[0] == w[1] {
                    run += 1;
                } else {
                    sizes.push(run);
                    run = 1;
                }
            }
            sizes.push(run);
            return sizes;
        }
        // Cold path for very large pair sets: explicit signatures.
        let mut groups: BTreeMap<Vec<Outcome>, usize> = BTreeMap::new();
        for q in 0..nq {
            let signature: Vec<Outcome> = (0..count).map(|i| self.outcome(pair_at(i), q)).collect();
            *groups.entry(signature).or_insert(0) += 1;
        }
        groups.into_values().collect()
    }

    /// The balance score of the class-level partitioning induced by `pairs`.
    pub fn balance(&self, pairs: &[ClassPair]) -> f64 {
        balance_score(&self.partition_sizes(pairs))
    }

    /// [`Self::balance`] over `pool[indices]` without cloning the pairs.
    pub fn balance_of(&self, pool: &[ClassPair], indices: &[usize]) -> f64 {
        balance_score(&self.partition_sizes_of(pool, indices))
    }

    /// All single-attribute-change destination pairs for one source class.
    pub fn destination_pairs(&self, source: &TupleClass, modify_count: usize) -> Vec<ClassPair> {
        let mut out = Vec::new();
        let _ = self.space.for_each_destination_class(
            source,
            modify_count,
            &self.modifiable,
            |dest, changed| {
                out.push(ClassPair {
                    source: source.clone(),
                    destination: dest.clone(),
                    changed_attributes: changed.to_vec(),
                });
                std::ops::ControlFlow::Continue(())
            },
        );
        out
    }

    /// Applies a set of cell edits *virtually* to the joined relation: for
    /// every joined row containing an edited base tuple, returns
    /// `(join row index, original tuple, patched tuple)`.
    pub fn patched_join_rows(
        &self,
        edits: &[crate::realize::CellEdit],
    ) -> Vec<(usize, Tuple, Tuple)> {
        let mut patched: BTreeMap<usize, Tuple> = BTreeMap::new();
        for edit in edits {
            for &jrow in self.join_index.joined_rows_of(&edit.table, edit.row) {
                let entry = patched
                    .entry(jrow)
                    .or_insert_with(|| self.join.rows()[jrow].tuple.clone());
                // Patch every join column that originates from the edited
                // base cell.
                for (col_idx, col) in self.join.columns().iter().enumerate() {
                    if col.table == edit.table
                        && col.column == edit.column
                        && self.join.rows()[jrow].provenance.get(&edit.table) == Some(&edit.row)
                    {
                        entry.set(col_idx, edit.new_value.clone());
                    }
                }
            }
        }
        patched
            .into_iter()
            .map(|(jrow, tuple)| (jrow, self.join.rows()[jrow].tuple.clone(), tuple))
            .collect()
    }
}

/// Which selection attributes may be modified: an attribute is locked when
/// its base column participates in a primary key or a foreign key — modifying
/// key columns would change the join structure or violate integrity
/// constraints (Section 6.3).
fn modifiable_attributes(db: &Database, space: &TupleClassSpace) -> Vec<bool> {
    space
        .attributes()
        .iter()
        .map(|attr| !is_key_column(db, &attr.table, &attr.base_column))
        .collect()
}

/// Whether `table.column` participates in a primary key or foreign key.
fn is_key_column(db: &Database, table: &str, column: &str) -> bool {
    let in_fk = db.foreign_keys().iter().any(|fk| {
        (fk.child_table == table && fk.child_columns.iter().any(|c| c == column))
            || (fk.parent_table == table && fk.parent_columns.iter().any(|c| c == column))
    });
    let in_pk = db
        .table(table)
        .ok()
        .map(|t| {
            t.schema()
                .primary_key()
                .iter()
                .any(|&i| t.schema().columns()[i].name == column)
        })
        .unwrap_or(false);
    in_fk || in_pk
}

/// Precomputes, per (attribute position, block), whether the block's
/// representative can be stored in the base column's declared type.
fn block_realizability(db: &Database, space: &TupleClassSpace) -> Vec<Vec<bool>> {
    space
        .attributes()
        .iter()
        .map(|attr| {
            let data_type = db
                .table(&attr.table)
                .ok()
                .and_then(|t| t.schema().column(&attr.base_column))
                .map(|c| c.data_type);
            attr.blocks
                .iter()
                .map(|b| match data_type {
                    Some(dt) => b.representative().conforms_to(dt),
                    None => false,
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfe_query::{ComparisonOp, DnfPredicate, Term};
    use qfe_relation::{tuple, ColumnDef, DataType, Table, TableSchema};

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
        let result = qfe_query::evaluate(&queries[0], &db).unwrap();
        GenerationContext::new(&db, &result, &queries).unwrap()
    }

    #[test]
    fn construction_exposes_shared_state() {
        let ctx = employee_context();
        assert_eq!(ctx.queries().len(), 3);
        assert_eq!(ctx.query_count(), 3);
        assert_eq!(ctx.join_tables(), &["Employee".to_string()]);
        assert_eq!(ctx.join().len(), 4);
        assert_eq!(ctx.bound_queries().len(), 3);
        assert_eq!(ctx.class_space().attribute_count(), 3);
        assert_eq!(ctx.source_classes().len(), 2);
        assert_eq!(ctx.database().table_count(), 1);
        assert_eq!(ctx.original_result().len(), 2);
        assert_eq!(ctx.projection_columns().len(), 1);
        assert!(!ctx.join_index().is_empty());
    }

    #[test]
    fn context_is_sync_and_send() {
        fn takes_sync<T: Sync + Send>(_: &T) {}
        let ctx = employee_context();
        takes_sync(&ctx);
    }

    #[test]
    fn key_attributes_are_locked() {
        let ctx = employee_context();
        // None of gender/dept/salary is a key: all modifiable.
        assert!(ctx.modifiable_attributes().iter().all(|&m| m));
    }

    #[test]
    fn mixed_join_schemas_rejected() {
        let ctx = employee_context();
        let mut queries = ctx.queries().to_vec();
        queries.push(SpjQuery::new(
            vec!["Other"],
            vec!["name"],
            DnfPredicate::always_true(),
        ));
        let err =
            GenerationContext::new(ctx.database(), ctx.original_result(), &queries).unwrap_err();
        assert!(matches!(err, QfeError::MixedJoinSchemas));
        let err = GenerationContext::new(ctx.database(), ctx.original_result(), &[]).unwrap_err();
        assert!(matches!(err, QfeError::NoCandidates));
    }

    #[test]
    fn class_matching_is_consistent() {
        let ctx = employee_context();
        // Bob/Darren's class matches every candidate; Alice/Celina's matches none.
        let bob_class = ctx
            .class_space()
            .classify(&ctx.join().rows()[1].tuple)
            .unwrap();
        let alice_class = ctx
            .class_space()
            .classify(&ctx.join().rows()[0].tuple)
            .unwrap();
        for q in 0..3 {
            assert!(ctx.class_matches(&bob_class, q));
            assert!(!ctx.class_matches(&alice_class, q));
            // Repeated probes are stable.
            assert!(ctx.class_matches(&bob_class, q));
        }
    }

    #[test]
    fn outcomes_follow_lemma_5_1() {
        let ctx = employee_context();
        let bob_class = ctx
            .class_space()
            .classify(&ctx.join().rows()[1].tuple)
            .unwrap();
        // Destination pairs changing a single attribute from Bob's class.
        let pairs = ctx.destination_pairs(&bob_class, 1);
        assert!(!pairs.is_empty());
        for pair in &pairs {
            assert_eq!(pair.edit_cost(), 1);
            for q in 0..3 {
                let o = ctx.outcome(pair, q);
                // The projection (name) is never a selection attribute here,
                // so Replaced is impossible.
                assert_ne!(o, Outcome::Replaced);
            }
        }
        // A pair that moves Bob out of the "salary > 4000" block must Remove
        // him from Q2's result while leaving Q1 and Q3 unchanged.
        let salary_pos = ctx
            .class_space()
            .attributes()
            .iter()
            .position(|a| a.base_column == "salary")
            .unwrap();
        let salary_pair = pairs
            .iter()
            .find(|p| p.changed_attributes == vec![salary_pos])
            .unwrap();
        assert_eq!(ctx.outcome(salary_pair, 0), Outcome::Unchanged);
        assert_eq!(ctx.outcome(salary_pair, 1), Outcome::Removed);
        assert_eq!(ctx.outcome(salary_pair, 2), Outcome::Unchanged);
    }

    #[test]
    fn partition_sizes_and_balance_for_single_pair() {
        let ctx = employee_context();
        let bob_class = ctx
            .class_space()
            .classify(&ctx.join().rows()[1].tuple)
            .unwrap();
        let salary_pos = ctx
            .class_space()
            .attributes()
            .iter()
            .position(|a| a.base_column == "salary")
            .unwrap();
        let pair = ctx
            .destination_pairs(&bob_class, 1)
            .into_iter()
            .find(|p| p.changed_attributes == vec![salary_pos])
            .unwrap();
        // The salary change separates Q2 from {Q1, Q3}: sizes {1, 2}.
        let mut sizes = ctx.partition_sizes(std::slice::from_ref(&pair));
        sizes.sort();
        assert_eq!(sizes, vec![1, 2]);
        assert!(ctx.balance(std::slice::from_ref(&pair)).is_finite());
        // No pairs: single group, infinite balance.
        assert!(ctx.balance(&[]).is_infinite());
    }

    #[test]
    fn multi_pair_partitions_agree_with_outcome_signatures() {
        let ctx = employee_context();
        let bob_class = ctx
            .class_space()
            .classify(&ctx.join().rows()[1].tuple)
            .unwrap();
        let pairs = ctx.destination_pairs(&bob_class, 1);
        assert!(pairs.len() >= 2);
        // Reference implementation: group queries by explicit signatures.
        let mut groups: BTreeMap<Vec<Outcome>, usize> = BTreeMap::new();
        for q in 0..ctx.query_count() {
            let sig: Vec<Outcome> = pairs.iter().map(|p| ctx.outcome(p, q)).collect();
            *groups.entry(sig).or_insert(0) += 1;
        }
        let mut expected: Vec<usize> = groups.into_values().collect();
        expected.sort_unstable();
        let mut got = ctx.partition_sizes(&pairs);
        got.sort_unstable();
        assert_eq!(got, expected);
        // Indexed variant agrees with the materialized subset.
        let indices: Vec<usize> = (0..pairs.len()).collect();
        assert_eq!(ctx.balance(&pairs), ctx.balance_of(&pairs, &indices));
        let subset = [0usize, pairs.len() - 1];
        let materialized = vec![pairs[0].clone(), pairs[pairs.len() - 1].clone()];
        assert_eq!(ctx.balance(&materialized), ctx.balance_of(&pairs, &subset));
    }

    #[test]
    fn advance_without_edits_matches_fresh_context() {
        let ctx = employee_context();
        // Keep candidates {0, 2}.
        let advanced = ctx.advance(&[0, 2], &[]).unwrap();
        let fresh = GenerationContext::new(
            ctx.database(),
            ctx.original_result(),
            &[ctx.queries()[0].clone(), ctx.queries()[2].clone()],
        )
        .unwrap();
        assert_eq!(advanced.queries().len(), 2);
        assert_eq!(advanced.source_classes(), fresh.source_classes());
        assert_eq!(
            advanced.class_space().attribute_count(),
            fresh.class_space().attribute_count()
        );
        for (a, f) in advanced
            .class_space()
            .attributes()
            .iter()
            .zip(fresh.class_space().attributes())
        {
            assert_eq!(a.column, f.column);
            assert_eq!(a.blocks, f.blocks);
        }
        assert_eq!(
            advanced.modifiable_attributes(),
            fresh.modifiable_attributes()
        );
        assert_eq!(advanced.projection_columns(), fresh.projection_columns());
        // The join, the columnar mirror and the database are shared, not
        // recomputed.
        assert!(Arc::ptr_eq(&advanced.join, &ctx.join));
        assert!(Arc::ptr_eq(&advanced.columnar, &ctx.columnar));
        assert!(Arc::ptr_eq(&advanced.db, &ctx.db));
        // Class-level reasoning agrees on every source class and query.
        for class in fresh.source_classes().keys() {
            for q in 0..2 {
                assert_eq!(
                    advanced.class_matches(class, q),
                    fresh.class_matches(class, q)
                );
            }
        }
    }

    #[test]
    fn advance_with_edits_matches_fresh_context_on_patched_db() {
        let ctx = employee_context();
        let edits = vec![crate::realize::CellEdit {
            table: "Employee".to_string(),
            row: 1,
            column: "salary".to_string(),
            new_value: Value::Int(3900),
        }];
        let advanced = ctx.advance(&[0, 1, 2], &edits).unwrap();
        let patched = crate::realize::apply_edits(ctx.database(), &edits).unwrap();
        let fresh = GenerationContext::new(&patched, ctx.original_result(), ctx.queries()).unwrap();
        assert_eq!(advanced.source_classes(), fresh.source_classes());
        assert_eq!(advanced.join().len(), fresh.join().len());
        for (a, f) in advanced.join().rows().iter().zip(fresh.join().rows()) {
            assert_eq!(a.tuple, f.tuple);
        }
        // The rebuilt columnar mirror tracks the edited join cell-for-cell
        // (and has a new generation, invalidating term-bitmap caches).
        assert!(advanced.columnar().generation() > ctx.columnar().generation());
        for (r, jr) in advanced.join().rows().iter().enumerate() {
            for c in 0..advanced.join().arity() {
                assert_eq!(
                    advanced.columnar().value_at(r, c),
                    jr.tuple.get(c).cloned().unwrap_or(Value::Null),
                    "cell ({r},{c})"
                );
            }
        }
        for (a, f) in advanced
            .class_space()
            .attributes()
            .iter()
            .zip(fresh.class_space().attributes())
        {
            assert_eq!(a.blocks, f.blocks, "attribute {} diverged", a.reference);
        }
    }

    #[test]
    fn advance_report_names_the_tier_taken() {
        let ctx = employee_context();

        // Pruned candidates, no edits: everything relational is shared.
        let (advanced, report) = ctx.advance_with_report(&[0, 2], &[]).unwrap();
        assert_eq!(report.path, AdvancePath::SharedNoEdit);
        assert!(Arc::ptr_eq(&advanced.columnar, &ctx.columnar));

        // Any cell edit rebuilds from the edited database.
        let edits = vec![crate::realize::CellEdit {
            table: "Employee".to_string(),
            row: 1,
            column: "salary".to_string(),
            new_value: Value::Int(3900),
        }];
        let (advanced, report) = ctx.advance_with_report(&[0, 1, 2], &edits).unwrap();
        assert_eq!(report.path, AdvancePath::FullRebuild);
        assert!(!Arc::ptr_eq(&advanced.db, &ctx.db));
        assert!(report.paranoia_mismatch.is_none());
    }

    #[test]
    fn advance_validates_surviving_indices() {
        let ctx = employee_context();
        assert!(matches!(ctx.advance(&[], &[]), Err(QfeError::NoCandidates)));
        assert!(ctx.advance(&[1, 0], &[]).is_err());
        assert!(ctx.advance(&[0, 0], &[]).is_err());
        assert!(ctx.advance(&[7], &[]).is_err());
    }

    #[test]
    fn patched_join_rows_applies_edits_virtually() {
        let ctx = employee_context();
        let edits = vec![crate::realize::CellEdit {
            table: "Employee".to_string(),
            row: 1,
            column: "salary".to_string(),
            new_value: qfe_relation::Value::Int(3900),
        }];
        let patched = ctx.patched_join_rows(&edits);
        assert_eq!(patched.len(), 1);
        let (jrow, old, new) = &patched[0];
        assert_eq!(*jrow, 1);
        let salary_col = ctx.join().resolve_column("salary").unwrap();
        assert_eq!(old.get(salary_col), Some(&qfe_relation::Value::Int(4200)));
        assert_eq!(new.get(salary_col), Some(&qfe_relation::Value::Int(3900)));
    }
}
