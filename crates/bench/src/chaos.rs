//! The fault-injected fleet: concurrent clients driving Example 1.1 sessions
//! over real HTTP against an in-process `qfe-server`, with park churn, under
//! scripted chaos at **both** layers — a [`FaultyStore`] injecting I/O
//! errors, torn writes and latency under the session host, and a
//! [`FlakyHandler`] dropping, duplicating and delaying responses in front of
//! it — proving the robustness claim end to end: zero lost sessions and zero
//! duplicate answer effects, under a pinned seed so CI replays the exact
//! schedule.
//!
//! Clients talk through [`HttpClient::with_retry`] using idempotency keys
//! on every mutating verb; the driver additionally retries `5xx` outcomes
//! (a store fault surfacing as `500` is refused-before-effect and safe to
//! repeat), resending a mutation under the key of its first send, so a
//! reply dropped after the mutation committed is replayed, not re-executed.
//! A `409` on an idempotent mutation would mean a replayed request
//! re-executed — a duplicate effect — and is counted, never retried.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qfe_core::{FeedbackRound, FeedbackUser as _, OracleUser};
use qfe_server::{
    FlakyConfig, FlakyHandler, Handler, HttpClient, RetryPolicy, Server, ServerConfig, ServiceState,
};
use qfe_snapstore::{
    FaultAction, FaultPlan, FaultRule, FaultTrigger, FaultyStore, HostConfig, LogStore,
    SessionHost, SnapshotStore,
};
use qfe_wire::{FromJson, Json};

/// Shape of a chaos-fleet run.
#[derive(Debug, Clone)]
pub struct ChaosFleetConfig {
    /// Total sessions driven to completion.
    pub sessions: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Seed pinned across the store fault plan, the response chaos schedule
    /// and the client jitter/idempotency streams.
    pub seed: u64,
    /// Server worker threads.
    pub workers: usize,
    /// Resident-engine watermark — small, so rehydration reads cross the
    /// faulty store constantly.
    pub max_resident: Option<usize>,
}

impl Default for ChaosFleetConfig {
    fn default() -> ChaosFleetConfig {
        ChaosFleetConfig {
            sessions: 32,
            clients: 4,
            seed: 0xC4A05,
            workers: 4,
            max_resident: Some(4),
        }
    }
}

/// What a chaos-fleet run measured. The two zeros the bench exists to prove
/// are [`lost_sessions`](ChaosFleetReport::lost_sessions) and
/// [`duplicate_answer_effects`](ChaosFleetReport::duplicate_answer_effects).
#[derive(Debug, Clone)]
pub struct ChaosFleetReport {
    /// Sessions that converged to their oracle's query.
    pub completed: usize,
    /// Sessions that failed to converge or converged wrongly. Must be 0.
    pub lost_sessions: usize,
    /// `409` outcomes on idempotent mutations — a replay that re-executed.
    /// Must be 0.
    pub duplicate_answer_effects: usize,
    /// Feedback rounds answered across all sessions.
    pub rounds: usize,
    /// Explicit parks performed by the churn schedule.
    pub parks: usize,
    /// Faults the store injected (errors + torn writes + latency).
    pub store_faults: usize,
    /// Responses the chaos middleware dropped after executing the request.
    pub responses_dropped: usize,
    /// Requests the chaos middleware handled twice.
    pub requests_duplicated: usize,
    /// Requests the chaos middleware delayed.
    pub requests_delayed: usize,
    /// Transport-level retries performed by the clients' retry policies.
    pub client_retries: usize,
    /// Driver-level repeats of `5xx` outcomes.
    pub app_retries: usize,
    /// Mutations the server answered from its idempotency cache.
    pub idem_replays: usize,
    /// Wall-clock time for the whole fleet.
    pub elapsed: Duration,
}

/// The pinned fault script: periodic write errors and read latency, plus
/// one torn session write — every failure mode the store stack claims to
/// absorb, firing deterministically.
pub fn chaos_fault_plan() -> FaultPlan {
    FaultPlan::new()
        .with_rule(FaultRule {
            op: "put_session".to_string(),
            key_contains: None,
            trigger: FaultTrigger::EveryNth(5),
            action: FaultAction::Error,
            limit: None,
        })
        .with_rule(FaultRule {
            op: "put_session".to_string(),
            key_contains: None,
            trigger: FaultTrigger::Nth(3),
            action: FaultAction::Torn { keep: 0.5 },
            limit: Some(1),
        })
        .with_rule(FaultRule {
            op: "get_session".to_string(),
            key_contains: None,
            trigger: FaultTrigger::EveryNth(7),
            action: FaultAction::Latency { millis: 1 },
            limit: None,
        })
        .with_rule(FaultRule {
            op: "get_workload".to_string(),
            key_contains: None,
            trigger: FaultTrigger::EveryNth(4),
            action: FaultAction::Latency { millis: 1 },
            limit: None,
        })
}

/// Per-thread tallies merged into the final report. Shared with the
/// `cluster` scenario, which drives the identical session workload through
/// a sharded fleet.
#[derive(Debug, Default)]
pub(crate) struct ChaosTally {
    pub(crate) completed: usize,
    pub(crate) lost: usize,
    pub(crate) conflicts: usize,
    pub(crate) rounds: usize,
    pub(crate) parks: usize,
    pub(crate) app_retries: usize,
}

/// Repeats `send` while it returns a `5xx` (refused or failed before any
/// durable effect the caller could observe — the store refuses writes
/// atomically and parks are naturally idempotent). Returns the final reply.
pub(crate) fn with_app_retries(
    tally: &mut ChaosTally,
    mut send: impl FnMut() -> (u16, Json),
) -> (u16, Json) {
    let mut reply = send();
    for _ in 0..12 {
        // Status 0 is a transport error the policy could not absorb; treat
        // it like a 5xx and repeat.
        if reply.0 != 0 && reply.0 < 500 {
            return reply;
        }
        tally.app_retries += 1;
        std::thread::sleep(Duration::from_millis(2));
        reply = send();
    }
    reply
}

/// POSTs the mutation `body` to `path` under one idempotency key, with
/// [`with_app_retries`]: every resend is the same logical request, so the
/// server replays a committed reply that was lost instead of running the
/// mutation again.
pub(crate) fn post_mutation(
    client: &mut HttpClient,
    tally: &mut ChaosTally,
    path: &str,
    body: &Json,
) -> (u16, Json) {
    let key = client.idempotency_key();
    with_app_retries(tally, || {
        client
            .post_with_key(path, body, &key)
            .unwrap_or((0, Json::Null))
    })
}

/// Drives one oracle-answered session through the chaos, tallying outcomes.
/// A session is *lost* when any verb exhausts retries or it converges on
/// the wrong query; a `409` on an idempotent mutation is a duplicate
/// effect. Neither panics — the bench reports them.
pub(crate) fn drive_chaos_session(
    client: &mut HttpClient,
    session_index: usize,
    tally: &mut ChaosTally,
) {
    let (_, _, candidates, _) = qfe_datasets::example_1_1();
    let target = candidates[session_index % candidates.len()].clone();
    let oracle = OracleUser::new(target.clone());
    let empty = Json::object::<String, [(String, Json); 0]>([]);

    let (status, created) = with_app_retries(tally, || {
        client
            .post(
                "/sessions",
                &Json::object([("workload", Json::Str("example_1_1".to_string()))]),
            )
            .unwrap_or((0, Json::Null))
    });
    if status != 201 {
        tally.lost += 1;
        return;
    }
    let id = created.field("id").unwrap().as_i64().unwrap();

    let mut answered = 0usize;
    loop {
        let (status, step) = with_app_retries(tally, || {
            client
                .get(&format!("/sessions/{id}/step"))
                .unwrap_or((0, Json::Null))
        });
        if status != 200 {
            tally.lost += 1;
            return;
        }
        match step.field("status").unwrap().as_str().unwrap() {
            "done" => {
                let label = step.field("label").unwrap().as_str().unwrap();
                if Some(label) != target.label.as_deref() {
                    tally.lost += 1;
                } else {
                    tally.completed += 1;
                }
                let _ = with_app_retries(tally, || {
                    client
                        .delete(&format!("/sessions/{id}"))
                        .unwrap_or((0, Json::Null))
                });
                return;
            }
            "await_feedback" => {
                let round = FeedbackRound::from_json(step.field("round").unwrap())
                    .expect("round deserializes");
                let choice = oracle.choose(&round).expect("oracle finds its result");
                let (status, _) = post_mutation(
                    client,
                    tally,
                    &format!("/sessions/{id}/answer"),
                    &Json::object([("choice", Json::Int(choice as i64))]),
                );
                match status {
                    200 => {}
                    409 => {
                        tally.conflicts += 1;
                        tally.lost += 1;
                        return;
                    }
                    _ => {
                        tally.lost += 1;
                        return;
                    }
                }
                tally.rounds += 1;
                answered += 1;
                // Park after the first answer: the snapshot write crosses
                // the faulty store while the response crosses the chaos
                // middleware; the next step rehydrates transparently.
                if answered == 1 {
                    let (status, _) =
                        post_mutation(client, tally, &format!("/sessions/{id}/park"), &empty);
                    match status {
                        200 => tally.parks += 1,
                        409 => {
                            tally.conflicts += 1;
                            tally.lost += 1;
                            return;
                        }
                        _ => {
                            tally.lost += 1;
                            return;
                        }
                    }
                }
            }
            other => panic!("unexpected step status {other}"),
        }
        if answered > 100 {
            tally.lost += 1;
            return;
        }
    }
}

/// Runs the chaos fleet: a log-file store behind a [`FaultyStore`], the
/// real service behind a [`FlakyHandler`], clients with retry policies and
/// idempotency keys — the store faults scripted by [`chaos_fault_plan`],
/// every other schedule pinned to `config.seed`.
pub fn run_chaos_fleet(config: &ChaosFleetConfig) -> ChaosFleetReport {
    static CHAOS_RUN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let run = CHAOS_RUN.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("qfe-chaos-fleet-{}-{run}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let log = LogStore::open(dir.join("chaos.log")).expect("log store opens");
    let faulty = Arc::new(FaultyStore::new(
        Arc::new(log) as Arc<dyn SnapshotStore>,
        chaos_fault_plan(),
    ));
    let host = SessionHost::open(
        Arc::clone(&faulty) as Arc<dyn SnapshotStore>,
        HostConfig {
            max_resident: config.max_resident,
        },
    )
    .expect("session host opens");
    let state = Arc::new(ServiceState::new(host));
    let flaky = Arc::new(FlakyHandler::new(
        Arc::clone(&state) as Arc<dyn Handler>,
        FlakyConfig {
            seed: config.seed,
            drop_response: 0.25,
            duplicate: 0.15,
            delay: 0.1,
            delay_millis: 2,
            ..FlakyConfig::default()
        },
    ));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&flaky) as Arc<dyn Handler>,
        ServerConfig {
            workers: config.workers,
            ..ServerConfig::default()
        },
    )
    .expect("server binds an ephemeral port");
    let addr = server.local_addr().to_string();

    let clients = config.clients.max(1);
    let start = Instant::now();
    let results: Vec<(ChaosTally, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client_index| {
                let addr = addr.clone();
                let sessions = config.sessions;
                let seed = config.seed;
                scope.spawn(move || {
                    let mut client = HttpClient::with_retry(
                        addr,
                        RetryPolicy {
                            max_retries: 12,
                            base_delay: Duration::from_millis(2),
                            max_delay: Duration::from_millis(20),
                            budget: Duration::from_secs(5),
                            seed: seed ^ (client_index as u64).wrapping_mul(0x9E37),
                        },
                    );
                    let mut tally = ChaosTally::default();
                    let mut session_index = client_index;
                    while session_index < sessions {
                        drive_chaos_session(&mut client, session_index, &mut tally);
                        session_index += clients;
                    }
                    (tally, client.retries())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("chaos client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();

    let store_faults = faulty.injection_count();
    let report = ChaosFleetReport {
        completed: results.iter().map(|(t, _)| t.completed).sum(),
        lost_sessions: results.iter().map(|(t, _)| t.lost).sum(),
        duplicate_answer_effects: results.iter().map(|(t, _)| t.conflicts).sum(),
        rounds: results.iter().map(|(t, _)| t.rounds).sum(),
        parks: results.iter().map(|(t, _)| t.parks).sum(),
        store_faults,
        responses_dropped: flaky.dropped(),
        requests_duplicated: flaky.duplicated(),
        requests_delayed: flaky.delayed(),
        client_retries: results.iter().map(|(_, r)| r).sum(),
        app_retries: results.iter().map(|(t, _)| t.app_retries).sum(),
        idem_replays: state.idem_replays(),
        elapsed,
    };
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// Human-readable chaos summary for the experiments binary.
pub fn chaos_fleet_summary(config: &ChaosFleetConfig, report: &ChaosFleetReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(
        out,
        "Chaos fleet (seed {:#x}, {} sessions, {} clients, faulty log store + flaky responses)",
        config.seed, config.sessions, config.clients
    )
    .unwrap();
    let mut row = |k: &str, v: String| writeln!(out, "{k:<26} {v:>10}").unwrap();
    row("sessions completed", report.completed.to_string());
    row("sessions lost", report.lost_sessions.to_string());
    row(
        "duplicate answer effects",
        report.duplicate_answer_effects.to_string(),
    );
    row("rounds answered", report.rounds.to_string());
    row("parks", report.parks.to_string());
    row("store faults injected", report.store_faults.to_string());
    row("responses dropped", report.responses_dropped.to_string());
    row(
        "requests duplicated",
        report.requests_duplicated.to_string(),
    );
    row("requests delayed", report.requests_delayed.to_string());
    row("client retries", report.client_retries.to_string());
    row("driver 5xx retries", report.app_retries.to_string());
    row("idempotent replays", report.idem_replays.to_string());
    row(
        "elapsed seconds",
        format!("{:.3}", report.elapsed.as_secs_f64()),
    );
    out
}

/// `BENCH_chaos.json` payload: the measurements plus the exact fault plan,
/// so a failing run replays from the artifact alone.
pub fn chaos_fleet_json(config: &ChaosFleetConfig, report: &ChaosFleetReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"chaos-fleet\",\n");
    out.push_str("  \"workload\": \"example-1-1-over-http-faulty-log-store\",\n");
    out.push_str(&format!("  \"seed\": {},\n", config.seed));
    out.push_str(&format!("  \"sessions\": {},\n", config.sessions));
    out.push_str(&format!("  \"clients\": {},\n", config.clients));
    out.push_str(&format!("  \"completed\": {},\n", report.completed));
    out.push_str(&format!("  \"lost_sessions\": {},\n", report.lost_sessions));
    out.push_str(&format!(
        "  \"duplicate_answer_effects\": {},\n",
        report.duplicate_answer_effects
    ));
    out.push_str(&format!("  \"rounds\": {},\n", report.rounds));
    out.push_str(&format!("  \"parks\": {},\n", report.parks));
    out.push_str(&format!("  \"store_faults\": {},\n", report.store_faults));
    out.push_str(&format!(
        "  \"responses_dropped\": {},\n",
        report.responses_dropped
    ));
    out.push_str(&format!(
        "  \"requests_duplicated\": {},\n",
        report.requests_duplicated
    ));
    out.push_str(&format!(
        "  \"requests_delayed\": {},\n",
        report.requests_delayed
    ));
    out.push_str(&format!(
        "  \"client_retries\": {},\n",
        report.client_retries
    ));
    out.push_str(&format!("  \"app_retries\": {},\n", report.app_retries));
    out.push_str(&format!("  \"idem_replays\": {},\n", report.idem_replays));
    out.push_str(&format!(
        "  \"elapsed_seconds\": {:.6},\n",
        report.elapsed.as_secs_f64()
    ));
    out.push_str(&format!(
        "  \"fault_plan\": {}\n",
        chaos_fault_plan().serialize()
    ));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_fleet_loses_nothing_and_duplicates_nothing() {
        let config = ChaosFleetConfig {
            sessions: 6,
            clients: 2,
            workers: 2,
            ..ChaosFleetConfig::default()
        };
        let report = run_chaos_fleet(&config);
        assert_eq!(report.completed, 6, "every session converges correctly");
        assert_eq!(report.lost_sessions, 0);
        assert_eq!(report.duplicate_answer_effects, 0);
        assert!(report.parks > 0);
        // The chaos actually bit: faults were injected at at least one
        // layer and the resilience machinery engaged.
        assert!(
            report.store_faults + report.responses_dropped + report.requests_duplicated > 0,
            "pinned schedule injected nothing"
        );
        let json = chaos_fleet_json(&config, &report);
        assert!(json.contains("\"benchmark\": \"chaos-fleet\""));
        assert!(json.contains("\"lost_sessions\": 0"));
        assert!(json.contains("\"fault_plan\""));
        assert!(chaos_fleet_summary(&config, &report).contains("sessions lost"));
    }

    /// Runs every request, but answers the first `answer` with a `503`, as
    /// if its committed reply were lost in flight.
    struct DropFirstAnswerReply {
        inner: Arc<dyn Handler>,
        dropped: std::sync::atomic::AtomicBool,
    }

    impl Handler for DropFirstAnswerReply {
        fn handle(&self, request: &qfe_server::Request) -> qfe_server::Response {
            let response = self.inner.handle(request);
            if request.path.ends_with("/answer") && !self.dropped.swap(true, Ordering::SeqCst) {
                return qfe_server::Response::unavailable("reply lost", 0);
            }
            response
        }
    }

    #[test]
    fn an_answer_whose_reply_was_dropped_is_replayed_on_app_retry() {
        let host = SessionHost::open(
            Arc::new(qfe_snapstore::MemoryStore::new()) as Arc<dyn SnapshotStore>,
            HostConfig::default(),
        )
        .unwrap();
        let state = Arc::new(ServiceState::new(host));
        let handler = Arc::new(DropFirstAnswerReply {
            inner: Arc::clone(&state) as Arc<dyn Handler>,
            dropped: std::sync::atomic::AtomicBool::new(false),
        });
        let server = Server::bind(
            "127.0.0.1:0",
            handler as Arc<dyn Handler>,
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        // No retry policy, so the dropped reply's 503 reaches the driver.
        let mut client = HttpClient::new(server.local_addr().to_string());
        let mut tally = ChaosTally::default();

        let workload = Json::object([("workload", Json::Str("example_1_1".to_string()))]);
        let (status, created) = client.post("/sessions", &workload).unwrap();
        assert_eq!(status, 201);
        let id = created.field("id").unwrap().as_i64().unwrap();
        let (status, step) = client.get(&format!("/sessions/{id}/step")).unwrap();
        assert_eq!(status, 200);
        let round = FeedbackRound::from_json(step.field("round").unwrap()).unwrap();
        let (_, _, candidates, _) = qfe_datasets::example_1_1();
        let choice = OracleUser::new(candidates[0].clone())
            .choose(&round)
            .unwrap();
        let answer = Json::object([("choice", Json::Int(choice as i64))]);
        let path = format!("/sessions/{id}/answer");

        let (status, _) = post_mutation(&mut client, &mut tally, &path, &answer);
        assert_eq!(status, 200, "the resend replays the committed answer");
        assert_eq!(tally.app_retries, 1);
        assert_eq!(state.idem_replays(), 1);

        // The same answer under a fresh key runs again, and the session,
        // which has moved on, refuses it: the 409 a fresh key per resend
        // would have produced.
        let (status, _) = client.post_idempotent(&path, &answer).unwrap();
        assert_eq!(status, 409);
    }

    #[test]
    fn fault_plan_is_pinned_and_serializable() {
        let plan = chaos_fault_plan();
        assert_eq!(FaultPlan::parse(&plan.serialize()).unwrap(), plan);
    }
}
