//! # qfe-snapstore — durable, content-addressed session parking
//!
//! A QFE deployment hosts many long-lived interactive sessions with large
//! idle gaps between feedback rounds. Keeping every idle [`QfeEngine`]
//! resident wastes memory, and keeping it only in memory loses the session
//! on a crash. This crate provides the storage discipline for parking
//! sessions off the heap and across process restarts:
//!
//! * [`SnapshotStore`] — the trait a durable backend implements, with two
//!   implementations: [`MemoryStore`] (tests and single-process eviction)
//!   and [`LogStore`] (one append-only log file with an in-memory index,
//!   cheap to write, survives crashes mid-record).
//! * **Content addressing** — the example pair `(D, R)` of a workload is
//!   serialized once, keyed by the hash of its canonical JSON text
//!   ([`qfe_wire::content_hash`]), and every parked session on that workload
//!   stores only a tiny state document referencing the hash. Thousands of
//!   parked sessions share one copy of the bulk data, and a host serving
//!   sessions on one workload decodes it once for all of them.
//! * [`SessionHost`] — the one in-process session table: it hosts many
//!   concurrent [`QfeEngine`]s behind [`SessionId`] handles, with a store
//!   and a memory-pressure watermark behind them. Sessions over the
//!   resident limit are parked longest-idle-first, and any request for a
//!   parked session transparently rehydrates it under its original id. Each
//!   session's requests and parks are serialized by its entry in
//!   [`SessionLocks`]. A `SessionHost` over a [`MemoryStore`] is the
//!   embedding point for a program that hosts sessions in one process.
//!
//! Failures surface as [`QfeError::Store`] with a context string naming the
//! operation and key — a corrupt or missing snapshot produces a clean error
//! for one request, never a poisoned lock or a crashed host.
//!
//! ## Integrity and fault tolerance
//!
//! The log store writes a per-record checksum ([`qfe_wire::content_hash`]
//! over the record identity and body) and verifies it on **every** read,
//! not just at open. A record whose bytes rot on disk — or a line that is
//! not a checksummed record at all — is *quarantined*: dropped from service
//! so later reads are clean misses, while the damage is reported through
//! [`LogStore::fsck`] as an [`FsckReport`] listing each
//! [`QuarantinedRecord`], garbage bytes, and any torn tail.
//!
//! For provoking failures deterministically, [`FaultyStore`] wraps any
//! [`SnapshotStore`] and injects faults — IO errors, torn writes, latency —
//! scripted by a serializable [`FaultPlan`]. The same plan always produces
//! the same fault schedule, which is what lets CI replay a chaos run
//! byte-for-byte.
//!
//! [`QfeEngine`]: qfe_core::QfeEngine
//! [`SessionId`]: qfe_core::SessionId
//! [`QfeError::Store`]: qfe_core::QfeError

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod fault;
mod fsck;
mod host;
mod log;
mod park;
mod store;

pub use backend::SessionBackend;
pub use fault::{FaultAction, FaultPlan, FaultRule, FaultTrigger, FaultyStore, InjectedFault};
pub use fsck::{FsckReport, QuarantinedRecord};
pub use host::{
    parse_session_store_key, session_store_key, HostConfig, ParkAllReport, SessionGuard,
    SessionHost, SessionLocks,
};
pub use log::LogStore;
pub use park::ParkReceipt;
pub use store::{MemoryStore, SnapshotStore, StoreError, StoreResult};
