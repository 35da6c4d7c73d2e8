//! # qfe-relation — relational substrate for the QFE reproduction
//!
//! The QFE paper (Li, Chan, Maier, PVLDB 2015) evaluates its algorithms on
//! small relational databases managed by MySQL. This crate is the
//! self-contained, in-memory substitute: typed values, schemas, tables with
//! primary keys, databases with foreign keys, foreign-key joins with
//! provenance, join indexes (for side-effect accounting, Section 5.4.1 of the
//! paper) and the table edit distance `minEdit` that underlies the paper's
//! user-effort cost model (Section 3).
//!
//! The crate deliberately contains no query logic — select-project-join
//! queries live in `qfe-query` — and no QFE-specific concepts; it is a small,
//! reusable relational toolkit.
//!
//! ## Example
//!
//! ```
//! use qfe_relation::{ColumnDef, Database, DataType, Table, TableSchema, tuple};
//!
//! let employee = Table::with_rows(
//!     TableSchema::new(
//!         "Employee",
//!         vec![
//!             ColumnDef::new("Eid", DataType::Int),
//!             ColumnDef::new("name", DataType::Text),
//!             ColumnDef::new("salary", DataType::Int),
//!         ],
//!     )
//!     .unwrap()
//!     .with_primary_key(&["Eid"])
//!     .unwrap(),
//!     vec![tuple![1i64, "Alice", 3700i64], tuple![2i64, "Bob", 4200i64]],
//! )
//! .unwrap();
//!
//! let mut db = Database::new();
//! db.add_table(employee).unwrap();
//! assert_eq!(db.table("Employee").unwrap().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitmap;
mod database;
mod edit;
mod error;
mod foreign_key;
mod join;
mod join_index;
mod schema;
mod serial;
mod table;
mod tuple;
mod types;
mod value;

pub use bitmap::Bitmap;
pub use database::Database;
pub use edit::{
    exact_min_edit_by, min_edit_databases, min_edit_rows, min_edit_tables, EditOp,
    EXACT_MATCHING_LIMIT,
};
pub use error::{RelationError, Result};
pub use foreign_key::ForeignKey;
pub use join::{foreign_key_join, full_foreign_key_join, JoinedColumn, JoinedRelation, JoinedRow};
pub use join_index::JoinIndex;
pub use schema::{ColumnDef, TableSchema};
pub use table::{bag_equal_rows, sorted_row_multiset, Table};
pub use tuple::Tuple;
pub use types::DataType;
pub use value::{sql_literal, Value};
