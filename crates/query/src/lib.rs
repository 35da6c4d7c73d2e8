//! # qfe-query — select-project-join queries for the QFE reproduction
//!
//! The QFE paper's candidate queries are of the form `π_ℓ(σ_p(J))`: a
//! projection over a selection (with a predicate in disjunctive normal form)
//! over the foreign-key join `J` of some database relations.  This crate
//! provides that query model, its evaluation against `qfe-relation`
//! databases/joins, SQL text rendering and parsing for the supported
//! fragment, query-result comparison (bag and set semantics, `minEdit`,
//! symmetric differences) and the partitioning of candidate-query sets by
//! their results — the primitive QFE's feedback loop is built on.
//!
//! ## Example
//!
//! ```
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
//!                 ColumnDef::new("salary", DataType::Int),
//!             ],
//!         )
//!         .unwrap(),
//!         vec![tuple!["Alice", 3700i64], tuple!["Bob", 4200i64]],
//!     )
//!     .unwrap(),
//! )
//! .unwrap();
//!
//! let q = parse_sql("SELECT name FROM Employee WHERE salary > 4000").unwrap();
//! let r = evaluate(&q, &db).unwrap();
//! assert_eq!(r.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod eval;
mod partition;
mod predicate;
mod result;
mod serial;
mod spj;
mod spju;
mod sql;
mod vectorized;

pub use error::{QueryError, Result};
pub use eval::{evaluate, BoundQuery};
pub use partition::{partition_queries, QueryGroup, QueryPartition};
pub use predicate::{ComparisonOp, Conjunct, DnfPredicate, Term};
pub use result::QueryResult;
pub use spj::SpjQuery;
pub use spju::SpjuQuery;
pub use sql::{parse_sql, to_sql};
pub use vectorized::TermBitmapCache;
