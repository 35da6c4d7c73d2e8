//! # qfe-qbo — candidate-query generation for the QFE reproduction
//!
//! QFE's first stage (Section 4 of the paper) reverse engineers a set of
//! candidate SPJ queries `QC` from the user's example database-result pair
//! `(D, R)`: every `Q ∈ QC` satisfies `Q(D) = R`.  The paper reuses the QBO
//! system of Tran et al. for this; this crate is the from-scratch substitute.
//!
//! The generator enumerates connected join schemas over the database's
//! foreign-key graph, infers candidate projections from the result (by name,
//! falling back to value containment), enumerates selection predicates that
//! separate the joined rows that must be returned from those that must not,
//! and verifies every candidate by evaluation.  [`grow_candidates`]
//! additionally grows a candidate set by perturbing predicate constants — the
//! mechanism the paper uses to scale the candidate count in its Table 6
//! experiment.
//!
//! Verification is *batched* and has one path: every candidate enumerated on
//! a join, and every mutation [`grow_candidates`] proposes, is checked
//! through one [`BatchVerifier`] per join schema — a per-(column, op,
//! literal) term-bitmap cache over the row join, each bitmap computed in
//! one pass over the rows — so a candidate's selection is bitmap algebra
//! over mostly cached bitmaps, wrong-cardinality candidates are rejected
//! without materializing rows, and signature-equal candidates (same
//! projection, same selection bitmap) replay a cached verdict.
//!
//! ## Example
//!
//! ```
//! use qfe_qbo::QueryGenerator;
//! use qfe_query::{evaluate, parse_sql};
//! use qfe_relation::{tuple, ColumnDef, Database, DataType, Table, TableSchema};
//!
//! let mut db = Database::new();
//! db.add_table(
//!     Table::with_rows(
//!         TableSchema::new(
//!             "Employee",
//!             vec![
//!                 ColumnDef::new("name", DataType::Text),
//!                 ColumnDef::new("dept", DataType::Text),
//!                 ColumnDef::new("salary", DataType::Int),
//!             ],
//!         )
//!         .unwrap(),
//!         vec![
//!             tuple!["Alice", "Sales", 3700i64],
//!             tuple!["Bob", "IT", 4200i64],
//!             tuple!["Darren", "IT", 5000i64],
//!         ],
//!     )
//!     .unwrap(),
//! )
//! .unwrap();
//!
//! let target = parse_sql("SELECT name FROM Employee WHERE salary > 4000").unwrap();
//! let example_result = evaluate(&target, &db).unwrap();
//! let candidates = QueryGenerator::default().generate(&db, &example_result).unwrap();
//! assert!(candidates.len() >= 2); // several queries explain the example
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod generator;
mod join_enum;
mod mutation;
mod predicate_enum;
mod projection;
mod verify;

pub use config::QboConfig;
pub use error::{QboError, Result};
pub use generator::QueryGenerator;
pub use join_enum::connected_table_subsets;
pub use mutation::{grow_candidates, mutate_constants, mutate_operators};
pub use predicate_enum::{enumerate_predicates, split_rows, AttributeSpace, RowSplit};
pub use projection::candidate_projections;
pub use verify::{BatchVerifier, VerifyStats};
