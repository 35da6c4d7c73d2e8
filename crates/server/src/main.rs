//! The `qfe-server` binary: serve QFE sessions over HTTP.
//!
//! ```text
//! qfe-server [--addr HOST:PORT] [--store mem|log:PATH]
//!            [--workers N] [--max-resident N] [--shards N] [--fsck]
//! ```
//!
//! Defaults: `--addr 127.0.0.1:7878`, in-memory store, 8 workers, no
//! resident watermark, one shard. See the operators guide in the umbrella
//! crate docs for a curl walkthrough.
//!
//! `--shards N` (N > 1) serves a sharded fleet over the one store: requests
//! route through `qfe-cluster`, and the `/admin/shards` routes come alive
//! for status, drain, kill, and restart.
//!
//! `--fsck` audits the store instead of serving: the `FsckReport` prints as
//! JSON on stdout, and the exit code is `0` when every record verifies,
//! `1` when anything was quarantined.
//!
//! `POST /admin/shutdown` begins a graceful exit: the readiness probe flips
//! to `503 draining`, new work is refused, in-flight requests finish, and
//! every resident session is parked to the store before the process exits —
//! nothing is lost, everything resumes on the next boot.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use qfe_cluster::{Cluster, ClusterConfig};
use qfe_server::{Handler, Request, Response, Server, ServerConfig, ServiceState};
use qfe_snapstore::{HostConfig, LogStore, MemoryStore, SessionHost, SnapshotStore};

/// How long the exit path may spend parking resident sessions — shared
/// with the in-flight request drain.
const SHUTDOWN_PARK_DEADLINE: Duration = Duration::from_secs(30);

const USAGE: &str = "usage: qfe-server [--addr HOST:PORT] [--store mem|log:PATH] \
                     [--workers N] [--max-resident N] [--shards N] [--fsck]";

struct Args {
    addr: String,
    store: String,
    workers: usize,
    max_resident: Option<usize>,
    shards: usize,
    fsck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_string(),
        store: "mem".to_string(),
        workers: 8,
        max_resident: None,
        shards: 1,
        fsck: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--store" => args.store = value("--store")?,
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--max-resident" => {
                args.max_resident = Some(
                    value("--max-resident")?
                        .parse()
                        .map_err(|e| format!("--max-resident: {e}"))?,
                )
            }
            "--shards" => {
                args.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
                if args.shards == 0 {
                    return Err("--shards must be at least 1".to_string());
                }
            }
            "--fsck" => args.fsck = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn open_store(spec: &str) -> Result<Arc<dyn SnapshotStore>, String> {
    if spec == "mem" {
        return Ok(Arc::new(MemoryStore::new()));
    }
    if let Some(path) = spec.strip_prefix("log:") {
        return Ok(Arc::new(LogStore::open(path).map_err(|e| e.to_string())?));
    }
    Err(format!(
        "unknown store {spec:?}: expected mem or log:PATH\n{USAGE}"
    ))
}

/// Routes `POST /admin/shutdown` to a signal channel; everything else goes
/// to the service.
struct AdminGate {
    service: Arc<ServiceState>,
    shutdown_tx: Mutex<mpsc::Sender<()>>,
}

impl Handler for AdminGate {
    fn handle(&self, request: &Request) -> Response {
        if request.method == "POST" && request.path == "/admin/shutdown" {
            let _ = self
                .shutdown_tx
                .lock()
                .expect("shutdown channel lock poisoned")
                .send(());
            return Response::json(200, "{\"status\":\"draining\"}");
        }
        self.service.handle(request)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let store = match open_store(&args.store) {
        Ok(store) => store,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    if args.fsck {
        // Audit mode: scan, repair what is repairable, report, exit.
        match store.fsck() {
            Ok(report) => {
                println!("{}", report.to_json().render());
                eprintln!("{report}");
                std::process::exit(if report.is_clean() { 0 } else { 1 });
            }
            Err(e) => {
                eprintln!("fsck failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let service = if args.shards > 1 {
        let cluster = Cluster::open(
            store,
            ClusterConfig {
                shards: args.shards,
                max_resident_per_shard: args.max_resident,
                ..ClusterConfig::default()
            },
        );
        match cluster {
            Ok(cluster) => Arc::new(ServiceState::clustered(Arc::new(cluster))),
            Err(e) => {
                eprintln!("failed to open session cluster: {e}");
                std::process::exit(1);
            }
        }
    } else {
        match SessionHost::open(
            store,
            HostConfig {
                max_resident: args.max_resident,
            },
        ) {
            Ok(host) => Arc::new(ServiceState::new(host)),
            Err(e) => {
                eprintln!("failed to open session host: {e}");
                std::process::exit(1);
            }
        }
    };
    let (shutdown_tx, shutdown_rx) = mpsc::channel();
    let gate = Arc::new(AdminGate {
        service: Arc::clone(&service),
        shutdown_tx: Mutex::new(shutdown_tx),
    });
    let mut server = match Server::bind(
        &args.addr,
        gate,
        ServerConfig {
            workers: args.workers,
            ..ServerConfig::default()
        },
    ) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("failed to bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    // Line-buffered announcement so scripts (and the CI smoke job) can
    // scrape the bound address even with an ephemeral port.
    println!("qfe-server listening on http://{}", server.local_addr());

    // Block until an operator POSTs /admin/shutdown, then exit gracefully:
    // refuse new work, drain what is in flight, park every resident session.
    let _ = shutdown_rx.recv();
    eprintln!("qfe-server: shutdown requested, draining");
    service.begin_drain();
    let drained = server.shutdown_graceful(SHUTDOWN_PARK_DEADLINE);
    // The same deadline-bounded sweep a cluster shard drain runs.
    let sweep = service.backend().park_all(Some(SHUTDOWN_PARK_DEADLINE));
    if sweep.is_complete() {
        eprintln!(
            "qfe-server: drained={drained}, parked {} resident session(s); exiting",
            sweep.parked
        );
    } else {
        match sweep.first_error {
            Some(e) => eprintln!("qfe-server: failed to park resident sessions: {e}"),
            None => eprintln!(
                "qfe-server: park sweep timed out with {} session(s) resident",
                sweep.remaining
            ),
        }
        std::process::exit(1);
    }
}
