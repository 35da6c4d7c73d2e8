//! Per-round state of the database generator, and the session state it is
//! built from.
//!
//! Within a session `D` and `R` never change and each answer only shrinks
//! the candidate set `QC'`, so the state comes in two parts:
//!
//! * [`SessionJoin`], built once per session and shared by `Arc`: the
//!   example pair `(D, R)`, the candidates' foreign-key join, its join
//!   index (for side-effect accounting, Section 5.4.1) and its columns'
//!   active domains, each read on first use. The row join is the only
//!   format a join has.
//! * [`GenerationContext`], built each round by one constructor,
//!   [`GenerationContext::for_round`], from the session join and the
//!   surviving candidates: the bound queries, the tuple-class space, the
//!   source classes with each join row's class (one integer per row), the
//!   outcome kernel, the modifiable attributes and block realizability. It
//!   provides the cheap, class-level reasoning that
//!   Algorithms 3 and 4 are built on: whether a class satisfies a
//!   candidate, how one pair splits the candidates, and the table of every
//!   pair's per-candidate outcome codes from which Algorithm 4 partitions
//!   the candidates under a set of pairs.
//!
//! Class/candidate matching and outcome codes run on the [`OutcomeKernel`]'s
//! interned class ids and per-class match bitsets — branch-light word
//! operations with no interior mutability, so both parts are `Sync` and can
//! be shared by concurrent sessions.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use qfe_query::{BoundQuery, QueryResult, SpjQuery};
use qfe_relation::{foreign_key_join, Database, JoinIndex, JoinedRelation};

use crate::error::{QfeError, Result};
use crate::kernel::{MatchScratch, OutcomeCodes, OutcomeKernel, PairStats};
use crate::tuple_class::{ActiveDomains, TupleClass, TupleClassSpace};

/// Which path [`GenerationContext::advance_with_report`] took for the
/// relational state (database, join, join index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdvancePath {
    /// No cell edits: the successor was built on the predecessor's
    /// [`SessionJoin`].
    SharedNoEdit,
    /// Cell edits were applied: the successor was rebuilt from the edited
    /// database.
    FullRebuild,
}

/// What [`GenerationContext::advance_with_report`] did.
#[derive(Debug, Clone)]
pub struct AdvanceReport {
    /// The relational path taken.
    pub path: AdvancePath,
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

/// The session part of the generator's state: the example pair `(D, R)`,
/// the join schema the candidates share, their foreign-key join, its join
/// index and its active domains. Fixed for a whole session; every round's
/// [`GenerationContext`] shares it by `Arc`.
#[derive(Debug)]
pub struct SessionJoin {
    db: Arc<Database>,
    original_result: Arc<QueryResult>,
    join_tables: Vec<String>,
    join: JoinedRelation,
    join_index: JoinIndex,
    /// The join's active domains, each read once per session.
    domains: ActiveDomains,
}

impl SessionJoin {
    /// Joins `join_tables` over `db` and builds the join index.
    fn new(
        db: Arc<Database>,
        original_result: Arc<QueryResult>,
        join_tables: Vec<String>,
    ) -> Result<Self> {
        let join = foreign_key_join(&db, &join_tables)?;
        let join_index = JoinIndex::build(&join);
        let domains = ActiveDomains::new(&join);
        Ok(SessionJoin {
            db,
            original_result,
            join_tables,
            join,
            join_index,
            domains,
        })
    }
}

/// Per-round state shared by the skyline search (Algorithm 3), the subset
/// selection (Algorithm 4) and the realization of modifications.
///
/// The context is immutable after construction and `Sync`.
#[derive(Debug)]
pub struct GenerationContext {
    session: Arc<SessionJoin>,
    queries: Vec<SpjQuery>,
    bound: Vec<BoundQuery>,
    space: TupleClassSpace,
    source_classes: BTreeMap<TupleClass, Vec<usize>>,
    /// Per join row, the position of its source class in `source_classes`,
    /// or [`NO_CLASS`] when a selection value of the row lies in no block
    /// (a NULL).
    row_class: Vec<u32>,
    /// The blocks of every source class, in `source_classes` order and
    /// concatenated: class `k` is the `k`-th run of `attribute_count` blocks.
    class_blocks: Vec<usize>,
    modifiable: Vec<bool>,
    projection_columns: BTreeSet<usize>,
    kernel: OutcomeKernel,
    /// Per attribute, per block: whether the block's representative conforms
    /// to the base column's declared type (i.e. the block is realizable as a
    /// concrete cell edit).
    block_realizable: Vec<Vec<bool>>,
    /// Per attribute, the position of its base table in the join's tables
    /// (`None` when the table does not participate).
    attribute_tables: Vec<Option<usize>>,
}

/// [`GenerationContext`]'s per-row class index of a join row in no class.
const NO_CLASS: u32 = u32::MAX;

fn assert_sync_send<T: Sync + Send>() {}
#[allow(dead_code)]
fn generation_context_is_sync() {
    assert_sync_send::<GenerationContext>();
}

/// The join schema every one of `queries` shares (the Section 5
/// assumption).
fn shared_join_tables(queries: &[SpjQuery]) -> Result<Vec<String>> {
    let tables = queries
        .first()
        .ok_or(QfeError::NoCandidates)?
        .join_signature();
    if queries.iter().any(|q| q.join_signature() != tables) {
        return Err(QfeError::MixedJoinSchemas);
    }
    Ok(tables)
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

    /// [`Self::new`] without copying `D` and `R`: builds the
    /// [`SessionJoin`] on the caller's `Arc`s, then the round on it.
    pub fn new_shared(
        db: Arc<Database>,
        original_result: Arc<QueryResult>,
        queries: Vec<SpjQuery>,
    ) -> Result<Self> {
        let join_tables = shared_join_tables(&queries)?;
        let session = SessionJoin::new(db, original_result, join_tables)?;
        Self::for_round(Arc::new(session), queries)
    }

    /// Builds one round's context on a session join: partitions the
    /// candidates' selection attributes into a tuple-class space, binds the
    /// candidates, classifies every join row into its source class and
    /// builds the outcome kernel. Every way of obtaining a context ends
    /// here.
    ///
    /// The candidates must share the session join's schema
    /// ([`QfeError::MixedJoinSchemas`] otherwise).
    pub fn for_round(session: Arc<SessionJoin>, queries: Vec<SpjQuery>) -> Result<Self> {
        if shared_join_tables(&queries)? != session.join_tables {
            return Err(QfeError::MixedJoinSchemas);
        }
        let join = &session.join;
        let space = TupleClassSpace::build(join, &session.domains, &queries)?;
        let bound: Vec<BoundQuery> = queries
            .iter()
            .map(|q| BoundQuery::bind(q, join))
            .collect::<std::result::Result<_, _>>()?;
        let source_classes = space.source_classes(join);
        let mut row_class = vec![NO_CLASS; join.len()];
        let mut class_blocks = Vec::with_capacity(source_classes.len() * space.attribute_count());
        for (k, (class, members)) in source_classes.iter().enumerate() {
            let k = u32::try_from(k).expect("fewer than 2^32 source classes");
            class_blocks.extend_from_slice(class);
            for &jrow in members {
                row_class[jrow] = k;
            }
        }

        // Projection columns (shared by all candidates: R determines ℓ).
        let projection_columns: BTreeSet<usize> =
            bound[0].projection_indices().iter().copied().collect();

        let modifiable = modifiable_attributes(&session.db, &space);
        let kernel = OutcomeKernel::build(&space, &queries, join, &projection_columns)?;
        let block_realizable = block_realizability(&session.db, &space);
        let attribute_tables = space
            .attributes()
            .iter()
            .map(|attr| join.table_position(&attr.table))
            .collect();

        Ok(GenerationContext {
            session,
            queries,
            bound,
            space,
            source_classes,
            row_class,
            class_blocks,
            modifiable,
            projection_columns,
            kernel,
            block_realizable,
            attribute_tables,
        })
    }

    /// Derives the context of the *next* feedback round from this one, with
    /// an [`AdvanceReport`] saying which path was taken.
    ///
    /// `surviving` holds the indices (into [`Self::queries`], strictly
    /// ascending) of the candidates kept by the user's answer. With no
    /// `edits` (the feedback loop never changes `D`) the successor is built
    /// on this context's [`SessionJoin`]; non-empty `edits` are applied to
    /// `D` and the successor is rebuilt from the edited database.
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
        let (context, path) = if edits.is_empty() {
            let context = Self::for_round(Arc::clone(&self.session), queries)?;
            (context, AdvancePath::SharedNoEdit)
        } else {
            // `apply_edits` clones the database but `Arc`-shares every table
            // the edits do not touch.
            let db = crate::realize::apply_edits(self.database(), edits)?;
            let result = Arc::clone(&self.session.original_result);
            let context = Self::new_shared(Arc::new(db), result, queries)?;
            (context, AdvancePath::FullRebuild)
        };
        Ok((context, AdvanceReport { path }))
    }

    /// The session part this round was built on.
    pub fn session_join(&self) -> &Arc<SessionJoin> {
        &self.session
    }

    /// The original database `D`.
    pub fn database(&self) -> &Database {
        &self.session.db
    }

    /// The original example result `R`.
    pub fn original_result(&self) -> &QueryResult {
        &self.session.original_result
    }

    /// The surviving candidate queries.
    pub fn queries(&self) -> &[SpjQuery] {
        &self.queries
    }

    /// The shared join schema (sorted table names).
    pub fn join_tables(&self) -> &[String] {
        &self.session.join_tables
    }

    /// The foreign-key join of the candidate queries' tables over `D`.
    pub fn join(&self) -> &JoinedRelation {
        &self.session.join
    }

    /// The join index of [`Self::join`].
    pub fn join_index(&self) -> &JoinIndex {
        &self.session.join_index
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

    /// The source class of join row `jrow`, as its blocks, or `None` when
    /// the row belongs to no class. Every tuple of a class satisfies the
    /// same candidates (Section 5.1), so the class's match row is the row's.
    pub(crate) fn row_class(&self, jrow: usize) -> Option<&[usize]> {
        let k = self.row_class[jrow];
        if k == NO_CLASS {
            return None;
        }
        let n = self.space.attribute_count();
        let start = k as usize * n;
        Some(&self.class_blocks[start..start + n])
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

    /// The position in [`Self::join`]'s tables of the base table behind
    /// attribute position `pos` (resolved once per round).
    pub(crate) fn attribute_table(&self, pos: usize) -> Option<usize> {
        self.attribute_tables[pos]
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
        class: &[usize],
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

    /// The Lemma 5.1 outcome code of modifying one tuple from
    /// `pair.source` to `pair.destination`, for every pair of `pairs` and
    /// every candidate: `0 = Unchanged` (also when the tuple satisfies the
    /// query before and after and no projected column changes), `1 = Added`,
    /// `2 = Removed`, `3 = Replaced` (satisfied before and after, projected
    /// value changed).
    pub(crate) fn outcome_codes(&self, pairs: &[ClassPair]) -> OutcomeCodes {
        let nq = self.queries.len();
        let mut s_scratch = self.match_scratch();
        let mut d_scratch = self.match_scratch();
        let mut codes = Vec::with_capacity(pairs.len() * nq);
        for pair in pairs {
            let s = self.kernel.match_words(&pair.source, &mut s_scratch);
            let d = self.kernel.match_words(&pair.destination, &mut d_scratch);
            let projection_changed = self.projection_touched(&pair.changed_attributes);
            codes.extend((0..nq).map(|q| self.kernel.outcome_code(s, d, projection_changed, q)));
        }
        OutcomeCodes::new(nq, codes)
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
    use qfe_relation::{tuple, ColumnDef, DataType, Table, TableSchema, Tuple, Value};

    #[test]
    fn cached_active_domains_equal_the_join_domains_on_a_small_workload() {
        // Adult at the Small scale (the benchmark's U1/U2 workload).
        let workload = qfe_datasets::adult_scaled(5, 600);
        let target = workload.query("U2").unwrap();
        let queries: Vec<SpjQuery> = workload
            .queries
            .iter()
            .filter(|q| q.join_signature() == target.join_signature())
            .cloned()
            .collect();
        assert!(queries.len() >= 2);
        let result = workload.example_result("U2").unwrap();
        let first = GenerationContext::new(&workload.database, &result, &queries).unwrap();
        // A later round reads the domains the first one cached.
        let second =
            GenerationContext::for_round(Arc::clone(first.session_join()), queries[1..].to_vec())
                .unwrap();
        let session = second.session_join();
        for col in 0..session.join.arity() {
            assert_eq!(
                session.domains.get(&session.join, col),
                session.join.active_domain(col).as_slice(),
                "column {col}"
            );
        }
    }

    fn employee_context() -> GenerationContext {
        employee_context_with(ColumnDef::new("salary", DataType::Int), vec![])
    }

    /// Example 1.1 with the `salary` column defined as given and `extra`
    /// rows after Alice, Bob, Celina and Darren.
    fn employee_context_with(salary: ColumnDef, extra: Vec<Tuple>) -> GenerationContext {
        let mut rows = vec![
            tuple![1i64, "Alice", "F", "Sales", 3700i64],
            tuple![2i64, "Bob", "M", "IT", 4200i64],
            tuple![3i64, "Celina", "F", "Service", 3000i64],
            tuple![4i64, "Darren", "M", "IT", 5000i64],
        ];
        rows.extend(extra);
        let employee = Table::with_rows(
            TableSchema::new(
                "Employee",
                vec![
                    ColumnDef::new("Eid", DataType::Int),
                    ColumnDef::new("name", DataType::Text),
                    ColumnDef::new("gender", DataType::Text),
                    ColumnDef::new("dept", DataType::Text),
                    salary,
                ],
            )
            .unwrap()
            .with_primary_key(&["Eid"])
            .unwrap(),
            rows,
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

    /// Asserts that every join row's class index names the class
    /// `classify` gives its tuple, and "no class" exactly where it gives
    /// `None`. Returns how many rows have no class.
    fn assert_row_classes_agree_with_classify(ctx: &GenerationContext) -> usize {
        let mut classless = 0;
        for (jrow, row) in ctx.join().rows().iter().enumerate() {
            let classified = ctx.class_space().classify(&row.tuple);
            assert_eq!(ctx.row_class(jrow), classified.as_deref(), "row {jrow}");
            classless += usize::from(classified.is_none());
        }
        classless
    }

    #[test]
    fn row_class_index_agrees_with_classify() {
        // Example 1.1, and again with a fifth employee whose salary (a
        // selection attribute) is NULL.
        assert_eq!(
            assert_row_classes_agree_with_classify(&employee_context()),
            0
        );
        let nullable = employee_context_with(
            ColumnDef::nullable("salary", DataType::Int),
            vec![tuple![5i64, "Eve", "F", "IT", Value::Null]],
        );
        assert_eq!(nullable.join().len(), 5);
        assert_eq!(assert_row_classes_agree_with_classify(&nullable), 1);
        assert_eq!(nullable.row_class(4), None);

        // A round of adult at the Small scale.
        let workload = qfe_datasets::adult_scaled(5, 600);
        let target = workload.query("U2").unwrap();
        let queries: Vec<SpjQuery> = workload
            .queries
            .iter()
            .filter(|q| q.join_signature() == target.join_signature())
            .cloned()
            .collect();
        let result = workload.example_result("U2").unwrap();
        let ctx = GenerationContext::new(&workload.database, &result, &queries).unwrap();
        assert!(ctx.source_classes().len() > 1);
        assert_row_classes_agree_with_classify(&ctx);
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
        // Each employee row is its own joined row.
        assert_eq!(ctx.join_index().joined_rows_of(0, 2), &[2]);
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
        // A round must use the session join's schema.
        let other = queries.pop().unwrap();
        let err =
            GenerationContext::for_round(Arc::clone(ctx.session_join()), vec![other]).unwrap_err();
        assert!(matches!(err, QfeError::MixedJoinSchemas));
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
        let codes = ctx.outcome_codes(&pairs);
        for (i, pair) in pairs.iter().enumerate() {
            assert_eq!(pair.edit_cost(), 1);
            for q in 0..3 {
                // The code follows the two class matches.
                let expected = match (
                    ctx.class_matches(&pair.source, q),
                    ctx.class_matches(&pair.destination, q),
                ) {
                    (false, true) => 1,
                    (true, false) => 2,
                    // The projection (name) is never a selection attribute
                    // here, so Replaced (3) is impossible.
                    _ => 0,
                };
                assert_eq!(codes.code(i, q), expected, "pair {i}, q{q}");
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
        let salary = pairs
            .iter()
            .position(|p| p.changed_attributes == vec![salary_pos])
            .unwrap();
        assert_eq!(
            (0..3).map(|q| codes.code(salary, q)).collect::<Vec<_>>(),
            [0, 2, 0]
        );
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
        let codes = ctx.outcome_codes(std::slice::from_ref(&pair));
        // The salary change separates Q2 (Removed) from {Q1, Q3}
        // (Unchanged): groups in code order, sizes [2, 1].
        assert_eq!(codes.partition_sizes(&[0]), vec![2, 1]);
        assert!(codes.balance(&[0]).is_finite());
        // No pairs: single group, infinite balance.
        assert_eq!(codes.partition_sizes(&[]), vec![3]);
        assert!(codes.balance(&[]).is_infinite());
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
        let codes = ctx.outcome_codes(&pairs);
        // Reference implementation: group queries by explicit signatures.
        let all: Vec<usize> = (0..pairs.len()).collect();
        for indices in [&all[..], &[0, pairs.len() - 1], &all[1..]] {
            let mut groups: BTreeMap<Vec<u8>, usize> = BTreeMap::new();
            for q in 0..ctx.query_count() {
                let sig: Vec<u8> = indices.iter().map(|&i| codes.code(i, q)).collect();
                *groups.entry(sig).or_insert(0) += 1;
            }
            let mut expected: Vec<usize> = groups.into_values().collect();
            expected.sort_unstable();
            let mut got = codes.partition_sizes(indices);
            got.sort_unstable();
            assert_eq!(got, expected, "{indices:?}");
        }
        // A table of a subset agrees with the rows it shares.
        let subset = [pairs[0].clone(), pairs[pairs.len() - 1].clone()];
        assert_eq!(
            ctx.outcome_codes(&subset).balance(&[0, 1]).to_bits(),
            codes.balance(&[0, pairs.len() - 1]).to_bits()
        );
    }

    #[test]
    fn advance_without_edits_matches_fresh_context() {
        let ctx = employee_context();
        // Keep candidates {0, 2}.
        let (advanced, _) = ctx.advance_with_report(&[0, 2], &[]).unwrap();
        let fresh = GenerationContext::new(
            ctx.database(),
            ctx.original_result(),
            &[ctx.queries()[0].clone(), ctx.queries()[2].clone()],
        )
        .unwrap();
        assert_eq!(advanced.queries(), fresh.queries());
        assert_eq!(
            advanced.class_space().attributes(),
            fresh.class_space().attributes()
        );
        assert_eq!(advanced.source_classes(), fresh.source_classes());
        assert_eq!(
            advanced.modifiable_attributes(),
            fresh.modifiable_attributes()
        );
        assert_eq!(advanced.projection_columns(), fresh.projection_columns());
        // The session join (database, join, join index) is shared, not
        // recomputed.
        assert!(Arc::ptr_eq(advanced.session_join(), ctx.session_join()));
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
        let (advanced, _) = ctx.advance_with_report(&[0, 1, 2], &edits).unwrap();
        let patched = crate::realize::apply_edits(ctx.database(), &edits).unwrap();
        let fresh = GenerationContext::new(&patched, ctx.original_result(), ctx.queries()).unwrap();
        assert_eq!(advanced.source_classes(), fresh.source_classes());
        assert_eq!(advanced.join().len(), fresh.join().len());
        for (a, f) in advanced.join().rows().iter().zip(fresh.join().rows()) {
            assert_eq!(a.tuple, f.tuple);
        }
        // The edited cell reached the rebuilt session join.
        assert!(!Arc::ptr_eq(advanced.session_join(), ctx.session_join()));
        let salary = advanced.join().resolve_column("salary").unwrap();
        assert_eq!(
            advanced.join().rows()[1].tuple.get(salary),
            Some(&Value::Int(3900))
        );
        assert_eq!(
            advanced.class_space().attributes(),
            fresh.class_space().attributes()
        );
    }

    #[test]
    fn advance_report_names_the_tier_taken() {
        let ctx = employee_context();

        // Pruned candidates, no edits: everything relational is shared.
        let (advanced, report) = ctx.advance_with_report(&[0, 2], &[]).unwrap();
        assert_eq!(report.path, AdvancePath::SharedNoEdit);
        assert!(Arc::ptr_eq(advanced.session_join(), ctx.session_join()));

        // Any cell edit rebuilds from the edited database.
        let edits = vec![crate::realize::CellEdit {
            table: "Employee".to_string(),
            row: 1,
            column: "salary".to_string(),
            new_value: Value::Int(3900),
        }];
        let (advanced, report) = ctx.advance_with_report(&[0, 1, 2], &edits).unwrap();
        assert_eq!(report.path, AdvancePath::FullRebuild);
        assert!(!std::ptr::eq(advanced.database(), ctx.database()));
        assert!(!Arc::ptr_eq(advanced.session_join(), ctx.session_join()));
    }

    #[test]
    fn advance_validates_surviving_indices() {
        let ctx = employee_context();
        assert!(matches!(
            ctx.advance_with_report(&[], &[]),
            Err(QfeError::NoCandidates)
        ));
        assert!(ctx.advance_with_report(&[1, 0], &[]).is_err());
        assert!(ctx.advance_with_report(&[0, 0], &[]).is_err());
        assert!(ctx.advance_with_report(&[7], &[]).is_err());
    }
}
