//! The `fsck`-style store inspection report.
//!
//! The durable backend ([`LogStore`](crate::LogStore)) exposes an `fsck()`
//! method that rescans the backing storage, verifies every per-record
//! checksum, quarantines damaged records so later reads are clean misses
//! instead of errors, and reports what it found. The report is what an
//! operator reads after a crash or a disk scare: how much of the store is
//! live, how much is reclaimable garbage, and exactly which records were
//! lost.

use std::fmt;

use qfe_wire::Json;

/// One record `fsck` removed from service because its stored bytes no
/// longer match its checksum (or could not be parsed at all).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedRecord {
    /// `"sessions"` or `"workloads"`.
    pub namespace: String,
    /// The record key, as far as it could be recovered.
    pub key: String,
    /// Where the damage sits: the record's byte offset in the log.
    pub location: String,
    /// Why the record was quarantined.
    pub reason: String,
}

/// What an `fsck` pass over a store found (and repaired).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Which backend produced the report (`"mem"`, `"log"`, …).
    pub backend: &'static str,
    /// Records examined, live and dead.
    pub records_scanned: usize,
    /// Parked sessions still readable after the pass.
    pub live_sessions: usize,
    /// Content-addressed workloads still readable after the pass.
    pub live_workloads: usize,
    /// Records taken out of service because their bytes fail verification.
    pub quarantined: Vec<QuarantinedRecord>,
    /// Bytes of a torn trailing append (log store only) discarded at open.
    pub torn_tail_bytes: u64,
    /// Bytes held by superseded or tombstoned records — reclaimable by a
    /// compaction, but never served.
    pub garbage_bytes: u64,
}

impl FsckReport {
    /// True when nothing was quarantined: every stored record verifies.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// The report as JSON — the body of `GET /admin/fsck` and the
    /// `qfe-server --fsck` output, so operator tooling can parse it.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("backend", Json::Str(self.backend.to_string())),
            ("clean", Json::Bool(self.is_clean())),
            ("records_scanned", Json::Int(self.records_scanned as i64)),
            ("live_sessions", Json::Int(self.live_sessions as i64)),
            ("live_workloads", Json::Int(self.live_workloads as i64)),
            ("torn_tail_bytes", Json::Int(self.torn_tail_bytes as i64)),
            ("garbage_bytes", Json::Int(self.garbage_bytes as i64)),
            (
                "quarantined",
                Json::Array(
                    self.quarantined
                        .iter()
                        .map(|q| {
                            Json::object([
                                ("namespace", Json::Str(q.namespace.clone())),
                                ("key", Json::Str(q.key.clone())),
                                ("location", Json::Str(q.location.clone())),
                                ("reason", Json::Str(q.reason.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl fmt::Display for FsckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fsck({}): {} records scanned, {} live sessions, {} live workloads",
            self.backend, self.records_scanned, self.live_sessions, self.live_workloads
        )?;
        writeln!(
            f,
            "  garbage: {} bytes, torn tail: {} bytes",
            self.garbage_bytes, self.torn_tail_bytes
        )?;
        if self.quarantined.is_empty() {
            write!(f, "  quarantined: none")
        } else {
            write!(f, "  quarantined: {} record(s)", self.quarantined.len())?;
            for q in &self.quarantined {
                write!(
                    f,
                    "\n    {}/{} at {}: {}",
                    q.namespace, q.key, q.location, q.reason
                )?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_formats_cleanly() {
        let mut report = FsckReport {
            backend: "log",
            records_scanned: 4,
            live_sessions: 2,
            live_workloads: 1,
            ..FsckReport::default()
        };
        assert!(report.is_clean());
        assert!(report.to_string().contains("quarantined: none"));
        report.quarantined.push(QuarantinedRecord {
            namespace: "sessions".to_string(),
            key: "s3".to_string(),
            location: "offset 120".to_string(),
            reason: "checksum mismatch".to_string(),
        });
        assert!(!report.is_clean());
        let text = report.to_string();
        assert!(text.contains("sessions/s3"));
        assert!(text.contains("checksum mismatch"));
    }
}
