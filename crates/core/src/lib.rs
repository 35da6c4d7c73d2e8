//! # qfe-core — Query From Examples
//!
//! The core of the reproduction of *"Query From Examples: An Iterative,
//! Data-Driven Approach to Query Construction"* (Li, Chan, Maier — PVLDB
//! 8(13), 2015).
//!
//! QFE helps a non-SQL user construct a select-project-join query from a
//! single example database-result pair `(D, R)`:
//!
//! 1. a candidate set `QC` of queries with `Q(D) = R` is generated
//!    (`qfe-qbo`);
//! 2. at each feedback round the **Database Generator** ([`generate_round`],
//!    Algorithm 2) computes a minimally modified database `D'` that splits the
//!    surviving candidates into subsets with distinct results, minimizing the
//!    **user-effort cost model** ([`CostParams`], Section 3) via a search over
//!    **tuple classes** ([`TupleClassSpace`], Section 5): skyline (STC, DTC)
//!    pairs ([`skyline_stc_dtc_pairs`], Algorithm 3) followed by a
//!    balance-pruned subset search ([`pick_stc_dtc_subset`], Algorithm 4);
//! 3. the **Result Feedback** module ([`FeedbackUser`]) shows the user
//!    `Δ(D, D')` and the candidate results `Δ(R, R_i)`; the chosen result
//!    prunes the false positives, and the loop ([`QfeSession`], Algorithm 1)
//!    repeats until one query remains.
//!
//! Algorithm 1 is exposed two ways. [`QfeSession::run`] is the blocking
//! callback loop for automated responders; [`QfeSession::start`] yields a
//! sans-IO [`QfeEngine`] whose [`step`](QfeEngine::step) /
//! [`answer`](QfeEngine::answer) API suspends cleanly while a real user
//! thinks, keeps its whole state in one [`SessionSnapshot`] (the session
//! holds the initial one) for cross-process resume, and scales to many
//! concurrent users behind `qfe_snapstore::SessionHost`, which hosts engines
//! under [`SessionId`] handles (over a `MemoryStore` when nothing needs to
//! outlive the process).
//!
//! ## The generation kernel: bitsets, one row join, shared contexts
//!
//! The per-round hot path (Algorithms 3–4) runs on a dense bit-packed kernel
//! built fresh for every [`GenerationContext`]:
//!
//! * **Interned tuple classes.** Every class gets a mixed-radix id over its
//!   per-attribute block indices; candidate matching is a per-class bitset
//!   (one bit per surviving query) — precomputed as a dense table when the
//!   class space is small, or reconstructed by AND-ing per-`(attribute,
//!   block)` conjunct bitsets otherwise. A single pair's partition (the
//!   four Lemma 5.1 outcomes) comes from popcounts; [`pick_stc_dtc_subset`]
//!   reads every skyline pair's per-candidate outcome code (0–3) once into
//!   a table and partitions each pair set it probes from that table. There
//!   is no interior mutability: `GenerationContext` is `Sync`.
//! * **Sequential skyline.** [`skyline_stc_dtc_pairs`] walks Algorithm 3's
//!   (cost level, source class, destination) space in one deterministic
//!   order. The δ budget is checked against a precomputed deadline at an
//!   adaptive interval (tightening past 80% of the budget) so overshoot
//!   stays bounded; [`SkylineOutcome::timed_out`] (recorded per round as
//!   [`IterationStats::skyline_timed_out`]) says when δ cut it short.
//! * **One session join, one round constructor.** Within a session `D` and
//!   `R` never change and each answer only shrinks the candidate set, so the
//!   foreign-key join and its join index live in a [`SessionJoin`] built
//!   once and shared by `Arc`; each round's [`GenerationContext`] is built
//!   on it by one constructor, [`GenerationContext::for_round`] (class
//!   space, source classes, kernel). The class space reads each selection
//!   attribute's active domain straight off the row join. [`QfeEngine`]
//!   keeps its session join across rounds and rebuilds it after a resume;
//!   the session, its engines, their snapshots and the session join share
//!   one `Arc`'d copy of `(D, R)`.
//! * **One join format.** The session join, every round and QBO's
//!   verifier all read the row join; no columnar copy of a join exists.
//!   QBO's `BatchVerifier` caches one selection bitmap per term, computed
//!   from the rows, across the hundreds of candidates it checks on a join.
//!
//! ## Step-API quickstart
//!
//! ```
//! use qfe_core::{OracleUser, FeedbackUser, QfeEngine, QfeSession, SessionSnapshot, Step};
//! use qfe_datasets::example_1_1;
//!
//! let (db, result, candidates, target) = example_1_1();
//! let session = QfeSession::builder(db, result)
//!     .with_candidates(candidates)
//!     .build()
//!     .unwrap();
//!
//! let user = OracleUser::new(target.clone());
//! let mut engine = session.start();
//! let outcome = loop {
//!     match engine.step().unwrap() {
//!         Step::Done(outcome) => break outcome,
//!         Step::AwaitFeedback(round) => {
//!             // Park the whole session as JSON while the "user" thinks,
//!             // then resume it in a fresh engine — nothing else survives.
//!             let parked = engine.snapshot().serialize();
//!             engine = QfeEngine::resume(
//!                 SessionSnapshot::deserialize(&parked).unwrap(),
//!             )
//!             .unwrap();
//!             let choice = user.choose(&round).expect("oracle finds its result");
//!             engine.answer(choice).unwrap();
//!         }
//!     }
//! };
//! assert_eq!(outcome.query, target);
//! ```
//!
//! ## Example
//!
//! ```
//! use qfe_core::{OracleUser, QfeSession};
//! use qfe_query::{evaluate, parse_sql};
//! use qfe_relation::{tuple, ColumnDef, Database, DataType, Table, TableSchema};
//!
//! // The paper's Example 1.1.
//! let mut db = Database::new();
//! db.add_table(
//!     Table::with_rows(
//!         TableSchema::new(
//!             "Employee",
//!             vec![
//!                 ColumnDef::new("Eid", DataType::Int),
//!                 ColumnDef::new("name", DataType::Text),
//!                 ColumnDef::new("gender", DataType::Text),
//!                 ColumnDef::new("dept", DataType::Text),
//!                 ColumnDef::new("salary", DataType::Int),
//!             ],
//!         )
//!         .unwrap()
//!         .with_primary_key(&["Eid"])
//!         .unwrap(),
//!         vec![
//!             tuple![1i64, "Alice", "F", "Sales", 3700i64],
//!             tuple![2i64, "Bob", "M", "IT", 4200i64],
//!             tuple![3i64, "Celina", "F", "Service", 3000i64],
//!             tuple![4i64, "Darren", "M", "IT", 5000i64],
//!         ],
//!     )
//!     .unwrap(),
//! )
//! .unwrap();
//!
//! let target = parse_sql("SELECT name FROM Employee WHERE salary > 4000").unwrap();
//! let example_result = evaluate(&target, &db).unwrap();
//!
//! let session = QfeSession::builder(db, example_result)
//!     .ensure_candidate(target.clone())
//!     .build()
//!     .unwrap();
//! let outcome = session.run(&OracleUser::new(target.clone())).unwrap();
//! // The identified query returns the same rows as the intended one.
//! assert_eq!(outcome.query.projection, target.projection);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alt_cost;
mod context;
mod cost;
mod dbgen;
mod delta;
mod domain;
mod driver;
mod engine;
mod error;
mod feedback;
mod join_groups;
mod kernel;
mod pick;
mod realize;
mod serial;
mod set_semantics;
mod skyline;
mod stats;
mod tuple_class;

pub use alt_cost::AltCostModel;
pub use context::{AdvancePath, AdvanceReport, ClassPair, GenerationContext, SessionJoin};
pub use cost::{
    balance_score, estimate_iterations, objective, user_effort_cost, CostInputs, CostModelKind,
    CostParams, IterationEstimator,
};
pub use dbgen::{generate_round, PendingRound};
pub use delta::{DatabaseDelta, ResultDelta};
pub use domain::{
    partition_categorical_domain, partition_numeric_domain, partition_numeric_domain_for,
    DomainBlock,
};
pub use driver::{QfeOutcome, QfeSession, QfeSessionBuilder, DEFAULT_MAX_ITERATIONS};
pub use engine::{QfeEngine, SessionId, SessionSnapshot, Step};
pub use error::{QfeError, Result};
pub use feedback::{
    FeedbackChoice, FeedbackRound, FeedbackUser, InteractiveUser, OracleUser, SimulatedHumanUser,
    WorstCaseUser,
};
pub use join_groups::{group_by_join_schema, run_grouped};
pub use pick::{pick_stc_dtc_subset, PickOutcome};
pub use realize::{
    apply_edits, edits_to_ops, evaluate_modification, group_result, modification_scores,
    realize_pairs, CellEdit, GroupEffect, ModificationEvaluation, RealizedModification,
};
pub use serial::WorkloadPayload;
pub use set_semantics::{all_set_semantics, mixed_semantics, with_set_semantics};
pub use skyline::{
    skyline_stc_dtc_pairs, skyline_stc_dtc_pairs_memoized, SkylineMemo, SkylineOutcome,
};
pub use stats::{IterationStats, SessionReport};
pub use tuple_class::{ActiveDomains, SelectionAttribute, TupleClass, TupleClassSpace};
