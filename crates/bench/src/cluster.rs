//! The cluster chaos bench: a sharded session fleet over **one** faulty
//! shared store, behind flaky response middleware, with a seeded killer
//! crashing and restarting shards, the heartbeat supervisor declaring a
//! scripted-sick shard dead, and live migrations rehoming sessions between
//! their feedback rounds — proving the fleet-level robustness claim: zero
//! lost sessions and zero duplicate answer effects, whatever shard a
//! session happens to live on when the chaos hits.
//!
//! The client workload is byte-for-byte the single-host chaos driver
//! ([`crate::chaos`]), so the two artifacts measure the same sessions under
//! the same retry discipline; only the substrate differs. The fault plan
//! injects atomic write refusals and read latency but — deliberately — no
//! torn writes: the cluster absorbs write-through checkpoint failures by
//! design (the resident engine repairs the record on the next verb), so a
//! torn record's survival would hinge on kill *timing*, not on the
//! migration/failover protocols this bench exists to prove. Torn-write
//! recovery is the single-host chaos bench's and fsck's job.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qfe_cluster::{Cluster, ClusterConfig};
use qfe_server::{
    FlakyConfig, FlakyHandler, Handler, HttpClient, RetryPolicy, Server, ServerConfig, ServiceState,
};
use qfe_snapstore::{
    FaultAction, FaultPlan, FaultRule, FaultTrigger, FaultyStore, LogStore, SnapshotStore,
};

use crate::chaos::{drive_chaos_session, ChaosTally};

/// Shape of a cluster-chaos run.
#[derive(Debug, Clone)]
pub struct ClusterChaosConfig {
    /// Total sessions driven to completion.
    pub sessions: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Shards in the fleet. Clamped to at least 2 — a one-shard fleet has
    /// nowhere to fail over to.
    pub shards: usize,
    /// Seed pinned across the store fault plan, the response chaos
    /// schedule, the client jitter streams and the killer's victim picks.
    pub seed: u64,
    /// Server worker threads.
    pub workers: usize,
    /// Per-shard resident watermark — small, so rehydration crosses the
    /// faulty shared store constantly.
    pub max_resident_per_shard: Option<usize>,
    /// Kill/restart cycles the killer performs even if the clients finish
    /// first, so every run records real shard deaths.
    pub kill_cycles_minimum: usize,
    /// Pause between the killer's moves (kill → pause → restart).
    pub kill_pause: Duration,
}

impl Default for ClusterChaosConfig {
    fn default() -> ClusterChaosConfig {
        ClusterChaosConfig {
            sessions: 24,
            clients: 4,
            shards: 4,
            seed: 0xC1_05_7E,
            workers: 4,
            max_resident_per_shard: Some(2),
            kill_cycles_minimum: 3,
            kill_pause: Duration::from_millis(10),
        }
    }
}

/// What a cluster-chaos run measured. The two zeros the bench exists to
/// prove are [`lost_sessions`](ClusterChaosReport::lost_sessions) and
/// [`duplicate_effects`](ClusterChaosReport::duplicate_effects).
#[derive(Debug, Clone)]
pub struct ClusterChaosReport {
    /// Sessions that converged to their oracle's query.
    pub completed: usize,
    /// Sessions that failed to converge or converged wrongly. Must be 0.
    pub lost_sessions: usize,
    /// `409` outcomes on idempotent mutations — a replay that re-executed.
    /// Must be 0.
    pub duplicate_effects: usize,
    /// Feedback rounds answered across all sessions.
    pub rounds: usize,
    /// Explicit parks performed by the churn schedule.
    pub parks: usize,
    /// Shards the seeded killer crashed.
    pub kills: usize,
    /// Shards the heartbeat supervisor declared dead off the scripted
    /// probe faults.
    pub supervisor_kills: usize,
    /// Down shards the killer brought back.
    pub restarts: usize,
    /// Live migrations the killer requested mid-run.
    pub migration_requests: usize,
    /// Migrations the cluster completed (explicit and drain-driven).
    pub migrations: u64,
    /// Sessions rehomed off dead shards.
    pub failovers: u64,
    /// Write-through checkpoints that landed.
    pub checkpoints: u64,
    /// Checkpoints the faulty store refused — absorbed rollback exposure.
    pub checkpoint_failures: u64,
    /// Faults the store injected (errors + latency).
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

/// The pinned fleet fault script: periodic atomic write refusals (hitting
/// birth checkpoints, write-through checkpoints and parks alike), read
/// latency widening every race window, and a scripted burst of heartbeat
/// probe failures against `sick_shard` — exactly enough consecutive
/// failures to cross the supervisor's default threshold once.
pub fn cluster_fault_plan(sick_shard: usize) -> FaultPlan {
    FaultPlan::new()
        .with_rule(FaultRule {
            op: "put_session".to_string(),
            key_contains: None,
            trigger: FaultTrigger::EveryNth(9),
            action: FaultAction::Error,
            limit: None,
        })
        .with_rule(FaultRule {
            op: "get_session".to_string(),
            key_contains: None,
            trigger: FaultTrigger::EveryNth(11),
            action: FaultAction::Latency { millis: 1 },
            limit: None,
        })
        .with_rule(FaultRule {
            op: "get_workload".to_string(),
            key_contains: None,
            trigger: FaultTrigger::EveryNth(5),
            action: FaultAction::Latency { millis: 1 },
            limit: None,
        })
        .with_rule(FaultRule {
            op: "get_session".to_string(),
            key_contains: Some(format!("hb-{sick_shard}")),
            trigger: FaultTrigger::EveryNth(1),
            action: FaultAction::Error,
            limit: Some(ClusterConfig::default().probe_failure_threshold as u64),
        })
}

/// xorshift64 — the killer's victim/target stream, pinned to the seed.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// What the killer thread did, merged into the final report.
#[derive(Debug, Default)]
struct KillerTally {
    kills: usize,
    supervisor_kills: usize,
    restarts: usize,
    migration_requests: usize,
}

/// The killer: first runs the heartbeat supervisor until the scripted
/// probe faults declare the sick shard dead, then cycles — migrate a few
/// seeded sessions, crash a seeded victim, fail its sessions over, pause,
/// revive every down shard — until the clients finish (but at least
/// `kill_cycles_minimum` cycles, so short runs still record real deaths).
fn run_killer(
    cluster: &Cluster,
    config: &ClusterChaosConfig,
    shards: usize,
    done: &AtomicBool,
) -> KillerTally {
    let mut tally = KillerTally::default();
    // Heartbeat phase: one tick per scripted probe failure, plus one to
    // observe the shard already down (down shards are not probed).
    let threshold = ClusterConfig::default().probe_failure_threshold;
    for _ in 0..threshold + 1 {
        for health in cluster.heartbeat_tick() {
            if health.declared_dead {
                tally.supervisor_kills += 1;
            }
        }
        std::thread::sleep(config.kill_pause);
    }
    for index in 0..shards {
        if cluster.restart_shard(index).unwrap_or(false) {
            tally.restarts += 1;
        }
    }
    // Kill/restart phase.
    let mut rng = config.seed | 1;
    let mut cycle = 0usize;
    loop {
        if done.load(Ordering::SeqCst) && cycle >= config.kill_cycles_minimum {
            break;
        }
        std::thread::sleep(config.kill_pause);
        if let Ok(ids) = cluster.session_ids() {
            for _ in 0..2 {
                if ids.is_empty() {
                    break;
                }
                let id = ids[(xorshift(&mut rng) as usize) % ids.len()];
                let target = (xorshift(&mut rng) as usize) % shards;
                tally.migration_requests += 1;
                // The session may complete (or already live on `target`)
                // between the scan and the move; both are fine.
                let _ = cluster.migrate(id, target);
            }
        }
        let victim = (xorshift(&mut rng) as usize) % shards;
        if cluster.kill_shard(victim).is_ok() {
            tally.kills += 1;
            let _ = cluster.fail_over(victim);
        }
        std::thread::sleep(config.kill_pause);
        for index in 0..shards {
            if cluster.restart_shard(index).unwrap_or(false) {
                tally.restarts += 1;
            }
        }
        cycle += 1;
    }
    tally
}

/// Runs the cluster chaos fleet: N shard hosts over one log-file store
/// behind a [`FaultyStore`], the sharded service behind a [`FlakyHandler`],
/// retrying clients with idempotency keys, and a seeded killer crashing,
/// restarting and migrating underneath them — the store faults scripted by
/// [`cluster_fault_plan`], every other schedule pinned to `config.seed`.
pub fn run_cluster_chaos(config: &ClusterChaosConfig) -> ClusterChaosReport {
    static CLUSTER_RUN: AtomicU64 = AtomicU64::new(0);
    let run = CLUSTER_RUN.fetch_add(1, Ordering::Relaxed);
    let shards = config.shards.max(2);
    let sick_shard = 1 % shards;
    let dir = std::env::temp_dir().join(format!("qfe-cluster-chaos-{}-{run}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let log = LogStore::open(dir.join("cluster.log")).expect("log store opens");
    let faulty = Arc::new(FaultyStore::new(
        Arc::new(log) as Arc<dyn SnapshotStore>,
        cluster_fault_plan(sick_shard),
    ));
    let cluster = Arc::new(
        Cluster::open(
            Arc::clone(&faulty) as Arc<dyn SnapshotStore>,
            ClusterConfig {
                shards,
                max_resident_per_shard: config.max_resident_per_shard,
                ..ClusterConfig::default()
            },
        )
        .expect("cluster opens"),
    );
    let state = Arc::new(ServiceState::clustered(Arc::clone(&cluster)));
    let flaky = Arc::new(FlakyHandler::new(
        Arc::clone(&state) as Arc<dyn Handler>,
        FlakyConfig {
            seed: config.seed,
            drop_response: 0.2,
            duplicate: 0.1,
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
    let done = AtomicBool::new(false);
    let start = Instant::now();
    let (results, killer): (Vec<(ChaosTally, usize)>, KillerTally) = std::thread::scope(|scope| {
        let killer = scope.spawn(|| run_killer(&cluster, config, shards, &done));
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
                            budget: Duration::from_secs(10),
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
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("cluster chaos client thread panicked"))
            .collect();
        done.store(true, Ordering::SeqCst);
        (results, killer.join().expect("killer thread panicked"))
    });
    let elapsed = start.elapsed();

    let status = cluster.status();
    let report = ClusterChaosReport {
        completed: results.iter().map(|(t, _)| t.completed).sum(),
        lost_sessions: results.iter().map(|(t, _)| t.lost).sum(),
        duplicate_effects: results.iter().map(|(t, _)| t.conflicts).sum(),
        rounds: results.iter().map(|(t, _)| t.rounds).sum(),
        parks: results.iter().map(|(t, _)| t.parks).sum(),
        kills: killer.kills,
        supervisor_kills: killer.supervisor_kills,
        restarts: killer.restarts,
        migration_requests: killer.migration_requests,
        migrations: status.migrations,
        failovers: status.failovers,
        checkpoints: status.checkpoints,
        checkpoint_failures: status.checkpoint_failures,
        store_faults: faulty.injection_count(),
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

/// Human-readable cluster-chaos summary for the experiments binary.
pub fn cluster_chaos_summary(config: &ClusterChaosConfig, report: &ClusterChaosReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(
        out,
        "Cluster chaos (seed {:#x}, {} sessions, {} clients, {} shards over one faulty log store)",
        config.seed,
        config.sessions,
        config.clients,
        config.shards.max(2)
    )
    .unwrap();
    let mut row = |k: &str, v: String| writeln!(out, "{k:<26} {v:>10}").unwrap();
    row("sessions completed", report.completed.to_string());
    row("sessions lost", report.lost_sessions.to_string());
    row("duplicate effects", report.duplicate_effects.to_string());
    row("rounds answered", report.rounds.to_string());
    row("parks", report.parks.to_string());
    row("shards killed", report.kills.to_string());
    row("supervisor kills", report.supervisor_kills.to_string());
    row("shard restarts", report.restarts.to_string());
    row(
        "migrations requested",
        report.migration_requests.to_string(),
    );
    row("migrations completed", report.migrations.to_string());
    row("sessions failed over", report.failovers.to_string());
    row("checkpoints", report.checkpoints.to_string());
    row(
        "checkpoints refused",
        report.checkpoint_failures.to_string(),
    );
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

/// `BENCH_cluster.json` payload: the measurements plus the exact fault
/// plan, so a failing run replays from the artifact alone. CI greps this
/// for `"lost_sessions": 0` and `"duplicate_effects": 0`.
pub fn cluster_chaos_json(config: &ClusterChaosConfig, report: &ClusterChaosReport) -> String {
    let shards = config.shards.max(2);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"cluster-chaos\",\n");
    out.push_str("  \"workload\": \"example-1-1-over-http-sharded-faulty-log-store\",\n");
    out.push_str(&format!("  \"seed\": {},\n", config.seed));
    out.push_str(&format!("  \"shards\": {shards},\n"));
    out.push_str(&format!("  \"sessions\": {},\n", config.sessions));
    out.push_str(&format!("  \"clients\": {},\n", config.clients));
    out.push_str(&format!("  \"completed\": {},\n", report.completed));
    out.push_str(&format!("  \"lost_sessions\": {},\n", report.lost_sessions));
    out.push_str(&format!(
        "  \"duplicate_effects\": {},\n",
        report.duplicate_effects
    ));
    out.push_str(&format!("  \"rounds\": {},\n", report.rounds));
    out.push_str(&format!("  \"parks\": {},\n", report.parks));
    out.push_str(&format!("  \"kills\": {},\n", report.kills));
    out.push_str(&format!(
        "  \"supervisor_kills\": {},\n",
        report.supervisor_kills
    ));
    out.push_str(&format!("  \"restarts\": {},\n", report.restarts));
    out.push_str(&format!(
        "  \"migration_requests\": {},\n",
        report.migration_requests
    ));
    out.push_str(&format!("  \"migrations\": {},\n", report.migrations));
    out.push_str(&format!("  \"failovers\": {},\n", report.failovers));
    out.push_str(&format!("  \"checkpoints\": {},\n", report.checkpoints));
    out.push_str(&format!(
        "  \"checkpoint_failures\": {},\n",
        report.checkpoint_failures
    ));
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
        cluster_fault_plan(1 % shards).serialize()
    ));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_chaos_loses_nothing_and_duplicates_nothing() {
        let config = ClusterChaosConfig {
            sessions: 6,
            clients: 2,
            shards: 3,
            workers: 2,
            kill_cycles_minimum: 2,
            ..ClusterChaosConfig::default()
        };
        let report = run_cluster_chaos(&config);
        assert_eq!(report.completed, 6, "every session converges correctly");
        assert_eq!(report.lost_sessions, 0);
        assert_eq!(report.duplicate_effects, 0);
        assert!(report.kills >= 2, "the seeded killer crashed shards");
        assert!(
            report.supervisor_kills >= 1,
            "the scripted probe faults crossed the heartbeat threshold"
        );
        assert!(report.restarts >= report.kills, "down shards came back");
        assert!(
            report.failovers + report.migrations > 0,
            "sessions actually moved between shards"
        );
        assert!(report.checkpoints > 0, "write-through checkpoints landed");
        let json = cluster_chaos_json(&config, &report);
        assert!(json.contains("\"benchmark\": \"cluster-chaos\""));
        assert!(json.contains("\"lost_sessions\": 0"));
        assert!(json.contains("\"duplicate_effects\": 0"));
        assert!(json.contains("\"fault_plan\""));
        assert!(cluster_chaos_summary(&config, &report).contains("sessions lost"));
    }

    #[test]
    fn cluster_fault_plan_is_pinned_and_serializable() {
        let plan = cluster_fault_plan(1);
        assert_eq!(FaultPlan::parse(&plan.serialize()).unwrap(), plan);
    }
}
