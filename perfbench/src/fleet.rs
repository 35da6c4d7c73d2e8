//! The `http-fleet-churn` workload: one closed-loop `HttpClient` against an
//! in-process `serve_backend` with two workers, fronting a two-shard
//! `qfe-cluster` over one `LogStore` in a temporary directory of the
//! checkout.
//!
//! Each session is adopted from a snapshot of the adult-Small U2 session.
//! After every answer the client parks the session, then alternately
//! resumes it explicitly or lets the next step rehydrate it; the session is
//! deleted at the end.
//!
//! The traced pass wraps the store and the cluster in timing shims (the
//! program is not instrumented), and replays the wire work of every request
//! and response — render and parse of the exact bytes that crossed — from
//! the benchmark's side.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qfe_bench::{default_params, Scale};
use qfe_cluster::{Cluster, ClusterConfig};
use qfe_core::{
    FeedbackRound, FeedbackUser, OracleUser, QfeEngine, QfeSession, Result as QfeResult, SessionId,
    SessionReport, SessionSnapshot, Step,
};
use qfe_server::{serve_backend, HttpClient, Server, ServerConfig};
use qfe_snapstore::{
    FsckReport, LogStore, ParkAllReport, ParkReceipt, SessionBackend, SnapshotStore, StoreResult,
};
use qfe_wire::{FromJson, Json, ToJson};

use crate::engine::{self, Example, RoundRecord, SessionRecord};
use crate::speed::probe_ms;
use crate::trace::{ms, timed, Layers};

/// Server worker threads: no more than the two cores of the reference box.
const WORKERS: usize = 2;
const SHARDS: usize = 2;

/// What every session starts from.
pub struct Template {
    pub example: Example,
    engine: QfeEngine,
    /// The skyline time budget δ the sessions run with.
    budget: Duration,
}

/// Builds the adult-Small U2 session the fleet adopts (QBO runs here, once).
pub fn template() -> Template {
    let example = engine::examples_of(Scale::Small.adult(), &["U2"]).remove(0);
    let params = default_params(Scale::Small);
    let budget = params.skyline_time_budget;
    let session = QfeSession::builder((*example.database).clone(), example.result.clone())
        .ensure_candidate(example.target.clone())
        .with_params(params)
        .build()
        .expect("adult/U2 session builds");
    Template {
        engine: session.start(),
        example,
        budget,
    }
}

/// Store calls seen by the traced pass.
#[derive(Debug, Default, Clone)]
struct StoreTimes {
    put_ms: f64,
    put_bytes: u64,
    puts: u64,
    get_ms: f64,
    get_bytes: u64,
}

/// A `SnapshotStore` that times and counts every read and write.
#[derive(Debug)]
struct TracedStore {
    inner: Arc<dyn SnapshotStore>,
    times: Mutex<StoreTimes>,
}

impl TracedStore {
    fn put(&self, text: &str, f: impl FnOnce() -> StoreResult<()>) -> StoreResult<()> {
        let start = Instant::now();
        let out = f();
        let mut t = self.times.lock().expect("store trace lock");
        t.put_ms += ms(start.elapsed());
        t.put_bytes += text.len() as u64;
        t.puts += 1;
        out
    }

    fn get(&self, f: impl FnOnce() -> StoreResult<Option<String>>) -> StoreResult<Option<String>> {
        let start = Instant::now();
        let out = f();
        let mut t = self.times.lock().expect("store trace lock");
        t.get_ms += ms(start.elapsed());
        if let Ok(Some(text)) = &out {
            t.get_bytes += text.len() as u64;
        }
        out
    }
}

impl SnapshotStore for TracedStore {
    fn put_session(&self, key: &str, text: &str) -> StoreResult<()> {
        self.put(text, || self.inner.put_session(key, text))
    }
    fn get_session(&self, key: &str) -> StoreResult<Option<String>> {
        self.get(|| self.inner.get_session(key))
    }
    fn remove_session(&self, key: &str) -> StoreResult<bool> {
        self.inner.remove_session(key)
    }
    fn session_keys(&self) -> StoreResult<Vec<String>> {
        self.inner.session_keys()
    }
    fn put_workload(&self, hash: &str, text: &str) -> StoreResult<()> {
        self.put(text, || self.inner.put_workload(hash, text))
    }
    fn get_workload(&self, hash: &str) -> StoreResult<Option<String>> {
        self.get(|| self.inner.get_workload(hash))
    }
    fn has_workload(&self, hash: &str) -> StoreResult<bool> {
        self.inner.has_workload(hash)
    }
    fn workload_hashes(&self) -> StoreResult<Vec<String>> {
        self.inner.workload_hashes()
    }
    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
    fn fsck(&self) -> StoreResult<FsckReport> {
        self.inner.fsck()
    }
}

/// Cluster verbs seen by the traced pass.
#[derive(Debug, Default, Clone)]
struct VerbTimes {
    step_ms: f64,
    answer_ms: f64,
    park_ms: f64,
    restore_ms: f64,
}

/// A `SessionBackend` that times every verb it forwards to the cluster.
#[derive(Debug)]
struct TracedBackend {
    inner: Arc<Cluster>,
    times: Mutex<VerbTimes>,
}

impl TracedBackend {
    fn time<T>(&self, slot: fn(&mut VerbTimes) -> &mut f64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        *slot(&mut self.times.lock().expect("verb trace lock")) += ms(start.elapsed());
        out
    }
}

impl SessionBackend for TracedBackend {
    fn create(&self, session: &QfeSession) -> QfeResult<SessionId> {
        self.inner.create(session)
    }
    fn restore(&self, snapshot: SessionSnapshot) -> QfeResult<SessionId> {
        self.time(|t| &mut t.restore_ms, || self.inner.restore(snapshot))
    }
    fn step(&self, id: SessionId) -> QfeResult<Step> {
        self.time(|t| &mut t.step_ms, || self.inner.step(id))
    }
    fn answer(&self, id: SessionId, choice_idx: usize) -> QfeResult<()> {
        self.time(|t| &mut t.answer_ms, || self.inner.answer(id, choice_idx))
    }
    fn answer_timed(&self, id: SessionId, choice_idx: usize, user_time: Duration) -> QfeResult<()> {
        self.time(
            |t| &mut t.answer_ms,
            || self.inner.answer_timed(id, choice_idx, user_time),
        )
    }
    fn reject(&self, id: SessionId) -> QfeResult<()> {
        self.time(|t| &mut t.answer_ms, || self.inner.reject(id))
    }
    fn park(&self, id: SessionId) -> QfeResult<ParkReceipt> {
        self.time(|t| &mut t.park_ms, || self.inner.park(id))
    }
    fn resume(&self, id: SessionId) -> QfeResult<bool> {
        self.time(|t| &mut t.restore_ms, || self.inner.resume(id))
    }
    fn evict(&self, id: SessionId) -> QfeResult<bool> {
        self.inner.evict(id)
    }
    fn session_ids(&self) -> QfeResult<Vec<SessionId>> {
        self.inner.session_ids()
    }
    fn resident_count(&self) -> usize {
        self.inner.resident_count()
    }
    fn parked_count(&self) -> QfeResult<usize> {
        self.inner.parked_count()
    }
    fn store_backend_name(&self) -> &'static str {
        SessionBackend::store_backend_name(&*self.inner)
    }
    fn fsck(&self) -> Result<FsckReport, qfe_snapstore::StoreError> {
        SessionBackend::fsck(&*self.inner)
    }
    fn park_all(&self, deadline: Option<Duration>) -> ParkAllReport {
        self.inner.park_all(deadline)
    }
}

/// A running server over a fresh store directory.
pub struct Fleet {
    dir: PathBuf,
    server: Server,
    addr: String,
    store: Option<Arc<TracedStore>>,
    backend: Option<Arc<TracedBackend>>,
}

impl Fleet {
    pub fn start(dir: &Path, traced: bool) -> Result<Fleet, String> {
        let e = |what: &str, err: &dyn std::fmt::Display| format!("fleet {what}: {err}");
        std::fs::create_dir_all(dir).map_err(|err| e("temp dir", &err))?;
        let log: Arc<dyn SnapshotStore> =
            Arc::new(LogStore::open(dir.join("sessions.log")).map_err(|err| e("store", &err))?);
        let traced_store = traced.then(|| {
            Arc::new(TracedStore {
                inner: log.clone(),
                times: Mutex::default(),
            })
        });
        let store: Arc<dyn SnapshotStore> = match &traced_store {
            Some(t) => t.clone(),
            None => log,
        };
        let cluster = Arc::new(
            Cluster::open(store, ClusterConfig::with_shards(SHARDS))
                .map_err(|err| e("cluster", &err))?,
        );
        let traced_backend = traced.then(|| {
            Arc::new(TracedBackend {
                inner: cluster.clone(),
                times: Mutex::default(),
            })
        });
        let backend: Arc<dyn SessionBackend> = match &traced_backend {
            Some(t) => t.clone(),
            None => cluster,
        };
        let config = ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        };
        let server =
            serve_backend("127.0.0.1:0", backend, config).map_err(|err| e("bind", &err))?;
        let addr = server.local_addr().to_string();
        Ok(Fleet {
            dir: dir.to_path_buf(),
            server,
            addr,
            store: traced_store,
            backend: traced_backend,
        })
    }

    pub fn client(&self) -> HttpClient {
        HttpClient::new(self.addr.clone())
    }

    /// Copies the shims' totals into `layers`.
    pub fn collect(&self, layers: &mut Layers) {
        if let Some(store) = &self.store {
            let t = store.times.lock().expect("store trace lock").clone();
            layers.store_put_ms += t.put_ms;
            layers.store_put_bytes += t.put_bytes;
            layers.store_puts += t.puts;
            layers.store_get_ms += t.get_ms;
            layers.store_get_bytes += t.get_bytes;
        }
        if let Some(backend) = &self.backend {
            let t = backend.times.lock().expect("verb trace lock").clone();
            layers.cluster_step_ms += t.step_ms;
            layers.cluster_answer_ms += t.answer_ms;
            layers.cluster_park_ms += t.park_ms;
            layers.cluster_restore_ms += t.restore_ms;
        }
    }
}

impl Drop for Fleet {
    /// Drains the server, waits for its threads, and removes the store.
    fn drop(&mut self) {
        self.server.shutdown_graceful(Duration::from_secs(10));
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Sends one request; any status other than 2xx fails the session. The
/// traced pass replays the request's and response's wire work.
fn call(
    client: &mut HttpClient,
    method: &str,
    path: &str,
    body: Option<&Json>,
    layers: &mut Option<&mut Layers>,
) -> Result<Json, String> {
    if let (Some(l), Some(body)) = (layers.as_deref_mut(), body) {
        let text = timed(&mut l.wire_render_ms, || body.render());
        l.http_req_bytes += text.len() as u64;
        l.wire_parse_bytes += text.len() as u64;
        timed(&mut l.wire_parse_ms, || Json::parse(&text)).map_err(|e| e.to_string())?;
    }
    let start = Instant::now();
    let sent = match (method, body) {
        ("GET", _) => client.get(path),
        ("DELETE", _) => client.delete(path),
        (_, Some(body)) => client.post(path, body),
        (_, None) => client.post(path, &Json::object::<&str, _>([])),
    };
    let rtt = ms(start.elapsed());
    let (status, doc) = sent.map_err(|e| format!("{method} {path}: {e}"))?;
    if let Some(l) = layers.as_deref_mut() {
        l.http_rtt_ms += rtt;
        let text = timed(&mut l.wire_render_ms, || doc.render());
        l.http_resp_bytes += text.len() as u64;
        l.wire_parse_bytes += text.len() as u64;
        timed(&mut l.wire_parse_ms, || Json::parse(&text)).map_err(|e| e.to_string())?;
    }
    if !(200..300).contains(&status) {
        return Err(format!("{method} {path}: HTTP {status}: {}", doc.render()));
    }
    Ok(doc)
}

fn wire<T>(r: Result<T, qfe_wire::WireError>) -> Result<T, String> {
    r.map_err(|e| e.to_string())
}

/// Drives one session over HTTP. `explicit_resume` says, per answered
/// round, whether the client resumes the parked session itself.
pub fn run_session(
    client: &mut HttpClient,
    tpl: &Template,
    mut explicit_resume: impl FnMut() -> bool,
    mut layers: Option<&mut Layers>,
) -> Result<SessionRecord, String> {
    let ex = &tpl.example;
    let oracle = OracleUser::new(ex.target.clone());
    let mut rec = SessionRecord::default();
    rec.probes_ms.push(probe_ms());
    let start = Instant::now();
    let snapshot = match layers.as_deref_mut() {
        Some(l) => timed(&mut l.snapshot_encode_ms, || {
            tpl.engine.snapshot().to_json()
        }),
        None => tpl.engine.snapshot().to_json(),
    };
    let body = Json::object([("snapshot", snapshot)]);
    if let Some(l) = layers.as_deref_mut() {
        // The server's decode of the adoption body, replayed.
        let text = body.render();
        l.snapshot_bytes += text.len() as u64;
        timed(&mut l.snapshot_decode_ms, || {
            Json::parse(&text).and_then(|doc| SessionSnapshot::from_json(doc.field("snapshot")?))
        })
        .map_err(|e| e.to_string())?;
    }
    let created = call(client, "POST", "/sessions", Some(&body), &mut layers)?;
    let id = wire(created.field("id").and_then(Json::as_i64))?;
    let base = format!("/sessions/{id}");
    let mut step = call(client, "GET", &format!("{base}/step"), None, &mut layers)?;
    rec.first_round_ms = ms(start.elapsed());
    let report = loop {
        rec.probes_ms.push(probe_ms());
        match wire(step.field("status").and_then(Json::as_str))? {
            "done" => {
                let query = wire(FromJson::from_json(wire(step.field("query"))?))?;
                rec.final_query = Some(query);
                break wire(SessionReport::from_json(wire(step.field("report"))?))?;
            }
            "await_feedback" => {}
            other => return Err(format!("unexpected step status {other:?}")),
        }
        let round = wire(FeedbackRound::from_json(wire(step.field("round"))?))?;
        if let Some(l) = layers.as_deref_mut() {
            l.rounds += 1;
        }
        rec.rounds.push(RoundRecord {
            effort: 0,
            skyline_pairs: 0,
            cost_evaluations: None,
            delta_cut: false,
            edits: round.database_delta.edits.clone(),
            groups: round
                .choices
                .iter()
                .map(|c| c.query_indices.clone())
                .collect(),
        });
        let oracle_start = Instant::now();
        let choice = oracle.choose(&round);
        rec.oracle_ms += ms(oracle_start.elapsed());
        let choice = choice.ok_or("oracle found no matching choice")?;
        let answered = Instant::now();
        let answer = Json::object([("choice", Json::Int(choice as i64))]);
        call(
            client,
            "POST",
            &format!("{base}/answer"),
            Some(&answer),
            &mut layers,
        )?;
        call(client, "POST", &format!("{base}/park"), None, &mut layers)?;
        if explicit_resume() {
            call(client, "POST", &format!("{base}/resume"), None, &mut layers)?;
        }
        step = call(client, "GET", &format!("{base}/step"), None, &mut layers)?;
        rec.round_ms.push(ms(answered.elapsed()));
    };
    call(client, "DELETE", &base, None, &mut layers)?;
    if let Some(l) = layers {
        // The engine runs inside the server here; its own round report is
        // the only view of its layers from outside.
        for it in &report.iterations {
            let (sky, pick, modify) = (ms(it.skyline_time), ms(it.pick_time), ms(it.modify_time));
            // Iteration 1's time also holds the template's QBO time.
            let qbo = if it.iteration == 1 {
                ms(report.query_generation_time)
            } else {
                0.0
            };
            l.skyline_ms += sky;
            l.pick_ms += pick;
            l.modify_ms += modify;
            l.skyline_kept += it.skyline_pairs as u64;
            l.context_build_ms += (ms(it.execution_time) - qbo - sky - pick - modify).max(0.0);
        }
        l.oracle_ms += rec.oracle_ms;
    }
    for (round, it) in rec.rounds.iter_mut().zip(&report.iterations) {
        round.effort = it.db_cost + it.result_cost;
        round.skyline_pairs = it.skyline_pairs;
        round.delta_cut = it.skyline_time >= tpl.budget;
    }
    Ok(rec)
}
