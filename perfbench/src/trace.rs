//! Per-layer accumulators for the traced run.
//!
//! Every number is taken outside the program: the traced loops time their
//! own calls into each layer's public functions, and wrap the store and the
//! session backend in timing shims (see `fleet.rs`). A layer a workload does
//! not reach reads 0.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Totals over one traced pass.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub pick_ms: f64,
    pub pick_cost_evaluations: u64,
    pub skyline_ms: f64,
    pub skyline_enumerated: u64,
    pub skyline_kept: u64,
    pub skyline_timeouts: u64,
    pub memo_hits: u64,
    pub memo_recomputed: u64,
    pub context_build_ms: f64,
    pub context_advance_ms: f64,
    pub advances: u64,
    pub shared_advances: u64,
    pub qbo_ms: f64,
    pub qbo_checked: u64,
    pub qbo_verified: u64,
    pub qbo_rows_scanned: u64,
    pub qbo_bitmap_hits: u64,
    pub qbo_bitmap_misses: u64,
    pub modify_ms: f64,
    pub cells_edited: u64,
    pub snapshot_encode_ms: f64,
    pub snapshot_decode_ms: f64,
    pub snapshot_bytes: u64,
    pub wire_parse_ms: f64,
    pub wire_parse_bytes: u64,
    pub wire_render_ms: f64,
    pub store_put_ms: f64,
    pub store_put_bytes: u64,
    pub store_puts: u64,
    pub store_get_ms: f64,
    pub store_get_bytes: u64,
    pub cluster_step_ms: f64,
    pub cluster_answer_ms: f64,
    pub cluster_park_ms: f64,
    pub cluster_restore_ms: f64,
    pub http_rtt_ms: f64,
    pub http_req_bytes: u64,
    pub http_resp_bytes: u64,
    pub oracle_ms: f64,
    /// Feedback rounds shown in the pass.
    pub rounds: u64,
}

/// One metric of the output.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Whether [`timed`] reads the clock. The engine workloads replay each
/// session once with it off and once with it on; the difference is the
/// cost of the timing itself.
static CLOCK: AtomicBool = AtomicBool::new(true);

pub fn set_clock(on: bool) {
    CLOCK.store(on, Ordering::Relaxed);
}

/// Runs `f`, adding its wall time in milliseconds to `slot` while the
/// clock is on.
pub fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    if !CLOCK.load(Ordering::Relaxed) {
        return f();
    }
    let start = Instant::now();
    let out = f();
    *slot += ms(start.elapsed());
    out
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

impl Layers {
    /// The per-layer metrics. Times, counts and bytes are per session;
    /// ratios and shares are over the whole pass. `system_ms` is the pass's
    /// time excluding the simulated user and the speed probes;
    /// `untraced_system_ms` the same plan's time with the same calls but no
    /// timing, for the overhead.
    pub fn metrics(&self, sessions: usize, system_ms: f64, untraced_system_ms: f64) -> Vec<Metric> {
        let per = |x: f64| x / sessions.max(1) as f64;
        let count = |x: u64| per(x as f64);
        // The HTTP layer's own share: round trips minus the backend verbs
        // and the wire work they carried.
        let cluster_ms = self.cluster_step_ms
            + self.cluster_answer_ms
            + self.cluster_park_ms
            + self.cluster_restore_ms;
        let http_self_ms = if self.http_rtt_ms > 0.0 {
            self.http_rtt_ms - cluster_ms - self.wire_parse_ms - self.wire_render_ms
        } else {
            0.0
        };
        let m = |name, unit, value| Metric { name, unit, value };
        vec![
            m("pick.busy_ms", "ms", per(self.pick_ms)),
            m(
                "pick.cost_evaluations",
                "count",
                count(self.pick_cost_evaluations),
            ),
            m(
                "pick.share",
                "ratio",
                self.pick_ms / system_ms.max(f64::MIN_POSITIVE),
            ),
            m("skyline.busy_ms", "ms", per(self.skyline_ms)),
            m(
                "skyline.pairs_enumerated",
                "count",
                count(self.skyline_enumerated),
            ),
            m("skyline.pairs_kept", "count", count(self.skyline_kept)),
            m("skyline.timeouts", "count", count(self.skyline_timeouts)),
            m(
                "skyline.memo_hit_ratio",
                "ratio",
                ratio(self.memo_hits, self.memo_hits + self.memo_recomputed),
            ),
            m("context.build_ms", "ms", per(self.context_build_ms)),
            m("context.advance_ms", "ms", per(self.context_advance_ms)),
            m(
                "context.shared_advance_ratio",
                "ratio",
                ratio(self.shared_advances, self.advances),
            ),
            m("qbo.busy_ms", "ms", per(self.qbo_ms)),
            m("qbo.candidates_checked", "count", count(self.qbo_checked)),
            m(
                "qbo.verified_ratio",
                "ratio",
                ratio(self.qbo_verified, self.qbo_checked),
            ),
            m("qbo.rows_scanned", "count", count(self.qbo_rows_scanned)),
            m(
                "qbo.term_bitmap_hit_ratio",
                "ratio",
                ratio(
                    self.qbo_bitmap_hits,
                    self.qbo_bitmap_hits + self.qbo_bitmap_misses,
                ),
            ),
            m("modify.busy_ms", "ms", per(self.modify_ms)),
            m("modify.cells_edited", "count", count(self.cells_edited)),
            m("snapshot.encode_ms", "ms", per(self.snapshot_encode_ms)),
            m("snapshot.decode_ms", "ms", per(self.snapshot_decode_ms)),
            m("snapshot.bytes", "bytes", count(self.snapshot_bytes)),
            m("wire.parse_ms", "ms", per(self.wire_parse_ms)),
            m("wire.parse_bytes", "bytes", count(self.wire_parse_bytes)),
            m("wire.render_ms", "ms", per(self.wire_render_ms)),
            m("store.put_ms", "ms", per(self.store_put_ms)),
            m("store.put_bytes", "bytes", count(self.store_put_bytes)),
            m("store.get_ms", "ms", per(self.store_get_ms)),
            m("store.get_bytes", "bytes", count(self.store_get_bytes)),
            m(
                "store.puts_per_round",
                "count",
                ratio(self.store_puts, self.rounds),
            ),
            m("cluster.step_ms", "ms", per(self.cluster_step_ms)),
            m("cluster.answer_ms", "ms", per(self.cluster_answer_ms)),
            m("cluster.park_ms", "ms", per(self.cluster_park_ms)),
            m("cluster.restore_ms", "ms", per(self.cluster_restore_ms)),
            m("http.rtt_ms", "ms", per(self.http_rtt_ms)),
            m("http.self_ms", "ms", per(http_self_ms)),
            m("http.req_bytes", "bytes", count(self.http_req_bytes)),
            m("http.resp_bytes", "bytes", count(self.http_resp_bytes)),
            m("oracle.busy_ms", "ms", per(self.oracle_ms)),
            m(
                "trace.overhead_ms",
                "ms",
                per(system_ms - untraced_system_ms),
            ),
            m(
                "trace.overhead_share",
                "ratio",
                (system_ms - untraced_system_ms) / untraced_system_ms.max(f64::MIN_POSITIVE),
            ),
        ]
    }
}
