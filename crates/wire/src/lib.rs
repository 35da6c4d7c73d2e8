//! # qfe-wire — serialization layer for externalizable session state
//!
//! QFE sessions must be able to leave the process: the sans-IO engine in
//! `qfe-core` snapshots its full state (`SessionSnapshot`) so a feedback
//! session can be persisted mid-round, shipped to another machine, and
//! resumed. This crate provides the wire format: a small JSON value model
//! ([`Json`]), a renderer and parser, and the [`ToJson`] / [`FromJson`]
//! traits the workspace types implement. (The build environment has no
//! access to crates.io, so this self-contained layer stands in for serde.)
//!
//! The format is standard JSON with one extension: the non-finite floats
//! `NaN`, `inf` and `-inf` are rendered and parsed as bare tokens, because
//! the relational [`Value`] domain is totally ordered and may contain them.
//! Floats are rendered with Rust's shortest round-trip formatting, so a
//! parse-render cycle is lossless.
//!
//! Rendering and parsing are both linear in the document size: the parser
//! copies each run of plain string bytes with one UTF-8 check, so a
//! snapshot of any size costs the same per byte.
//!
//! ## Example
//!
//! ```
//! use qfe_wire::{Json, ToJson};
//!
//! let j = Json::object([
//!     ("name", Json::from("Alice")),
//!     ("salary", Json::Int(3700)),
//! ]);
//! let text = j.render();
//! assert_eq!(text, r#"{"name":"Alice","salary":3700}"#);
//! assert_eq!(Json::parse(&text).unwrap(), j);
//! ```
//!
//! [`Value`]: https://docs.rs/qfe-relation

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hash;
mod json;
mod parse;
mod traits;

pub use hash::content_hash;
pub use json::Json;
pub use traits::{FromJson, ToJson, WireError, WireResult};
