//! The JSON session API: maps HTTP requests onto a [`SessionBackend`] —
//! one [`SessionHost`] or a sharded
//! [`Cluster`], the routes cannot tell the difference.
//!
//! | Method | Path                      | Meaning                          |
//! |--------|---------------------------|----------------------------------|
//! | GET    | `/healthz`                | liveness + occupancy counters    |
//! | GET    | `/sessions`               | every hosted session id          |
//! | POST   | `/sessions`               | create (named workload/snapshot) |
//! | GET    | `/sessions/{id}/step`     | advance; next round or outcome   |
//! | POST   | `/sessions/{id}/answer`   | answer the pending round         |
//! | POST   | `/sessions/{id}/reject`   | reject every presented result    |
//! | POST   | `/sessions/{id}/park`     | snapshot to the store, evict     |
//! | POST   | `/sessions/{id}/resume`   | rehydrate from the store         |
//! | DELETE | `/sessions/{id}`          | forget the session entirely      |
//! | GET    | `/admin/fsck`             | audit the backing store          |
//! | GET    | `/admin/shards`           | fleet status (clustered only)    |
//! | POST   | `/admin/shards/{i}/drain` | gracefully drain one shard       |
//! | POST   | `/admin/shards/{i}/kill`  | crash one shard + fail over      |
//! | POST   | `/admin/shards/{i}/restart` | bring a dead shard back        |
//!
//! Every response body is JSON. Errors are `{"error":…,"kind":…}` with the
//! status carrying the class: 400 bad input, 404 unknown session or route,
//! 405 wrong method, 409 protocol misuse (no pending round, bad choice),
//! 500 store/internal failure, 503 draining.
//!
//! ## Idempotency
//!
//! The mutating session verbs (`answer`, `reject`, `park`) accept an
//! optional `"idem"` string in the request body. The first request with a
//! given `(session, idem)` pair executes and its response is remembered; a
//! replay with the same pair returns the remembered response byte-for-byte
//! without re-executing. That makes client retries safe even when the
//! original response was lost in flight — the retry of an already-applied
//! `answer` cannot advance the session twice.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use qfe_cluster::Cluster;
use qfe_core::{QfeError, QfeSession, SessionId, SessionSnapshot, Step};
use qfe_datasets::example_1_1;
use qfe_snapstore::{SessionBackend, SessionHost};
use qfe_wire::{FromJson, Json, ToJson};

use crate::http::{Handler, Request, Response};

/// Most remembered idempotency responses; older entries are evicted FIFO.
const IDEM_CACHE_CAP: usize = 4096;

/// Deadline for a `POST /admin/shards/{i}/drain` park sweep.
const SHARD_DRAIN_DEADLINE: Duration = Duration::from_secs(30);

/// Remembered responses for deduplicating replayed mutations, keyed by
/// `(session id, idempotency key)`.
#[derive(Debug, Default)]
struct IdemCache {
    map: HashMap<(u64, String), Response>,
    order: VecDeque<(u64, String)>,
}

/// The service: a [`SessionBackend`] plus the route table.
#[derive(Debug)]
pub struct ServiceState {
    backend: Arc<dyn SessionBackend>,
    /// Set when the backend is a sharded fleet: unlocks the
    /// `/admin/shards` routes.
    cluster: Option<Arc<Cluster>>,
    /// Set when the service is shutting down: mutations get `503`, the
    /// readiness probe reports `draining`.
    draining: AtomicBool,
    /// Requests currently inside [`Handler::handle`].
    in_flight: AtomicUsize,
    /// Replays served from memory instead of re-executing.
    idem_replays: AtomicUsize,
    idem: Mutex<IdemCache>,
}

fn ok(body: Json) -> Response {
    Response::json(200, body.render())
}

fn created(body: Json) -> Response {
    Response::json(201, body.render())
}

fn error_response(status: u16, kind: &str, message: impl std::fmt::Display) -> Response {
    Response::json(
        status,
        Json::object([
            ("error", Json::Str(message.to_string())),
            ("kind", Json::Str(kind.to_string())),
        ])
        .render(),
    )
}

/// Maps a core error onto an HTTP status and machine-readable kind.
fn qfe_error_response(e: &QfeError) -> Response {
    let (status, kind) = match e {
        QfeError::UnknownSession { .. } => (404, "unknown_session"),
        QfeError::InvalidChoice { .. }
        | QfeError::NoPendingRound
        | QfeError::TargetNotInCandidates => (409, "conflict"),
        QfeError::Snapshot { .. } => (400, "snapshot"),
        QfeError::Store { .. } => (500, "store"),
        QfeError::Http { .. } => (500, "http"),
        _ => (500, "internal"),
    };
    error_response(status, kind, e)
}

fn step_body(step: &Step) -> Json {
    match step {
        Step::AwaitFeedback(round) => Json::object([
            ("status", Json::Str("await_feedback".to_string())),
            ("round", round.to_json()),
        ]),
        Step::Done(outcome) => Json::object([
            ("status", Json::Str("done".to_string())),
            ("query", outcome.query.to_json()),
            ("sql", Json::Str(qfe_query::to_sql(&outcome.query))),
            (
                "label",
                match &outcome.query.label {
                    Some(label) => Json::Str(label.clone()),
                    None => Json::Null,
                },
            ),
            (
                "indistinguishable",
                Json::Array(
                    outcome
                        .indistinguishable
                        .iter()
                        .map(|q| q.to_json())
                        .collect(),
                ),
            ),
            ("report", outcome.report.to_json()),
        ]),
    }
}

/// Builds a fresh session for a named workload. The catalog currently holds
/// the paper's running example; snapshot adoption covers everything else.
fn named_workload_session(name: &str) -> Option<QfeSession> {
    match name {
        "example_1_1" => {
            let (db, result, candidates, _) = example_1_1();
            QfeSession::builder(db, result)
                .with_candidates(candidates)
                .build()
                .ok()
        }
        _ => None,
    }
}

impl ServiceState {
    /// Wraps a single session host as an HTTP handler.
    pub fn new(host: SessionHost) -> ServiceState {
        ServiceState::from_backend(Arc::new(host))
    }

    /// Wraps any session backend as an HTTP handler.
    pub fn from_backend(backend: Arc<dyn SessionBackend>) -> ServiceState {
        ServiceState {
            backend,
            cluster: None,
            draining: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            idem_replays: AtomicUsize::new(0),
            idem: Mutex::new(IdemCache::default()),
        }
    }

    /// Wraps a sharded fleet as an HTTP handler, with the `/admin/shards`
    /// routes live.
    pub fn clustered(cluster: Arc<Cluster>) -> ServiceState {
        let mut state = ServiceState::from_backend(Arc::clone(&cluster) as Arc<dyn SessionBackend>);
        state.cluster = Some(cluster);
        state
    }

    /// The wrapped backend (for in-process callers and tests).
    pub fn backend(&self) -> &Arc<dyn SessionBackend> {
        &self.backend
    }

    /// The wrapped fleet, when this service is sharded.
    pub fn cluster(&self) -> Option<&Arc<Cluster>> {
        self.cluster.as_ref()
    }

    /// Flips the service into drain mode: the readiness probe turns `503
    /// draining`, and every session verb is refused with `503` +
    /// `Retry-After` so clients fail over while in-flight work completes.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// True once [`ServiceState::begin_drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// How many mutation replays were answered from the idempotency cache
    /// instead of re-executing.
    pub fn idem_replays(&self) -> usize {
        self.idem_replays.load(Ordering::SeqCst)
    }

    /// The readiness probe body: store backend, occupancy, traffic, drain
    /// state. Status `200` when ready, `503` while draining.
    fn healthz(&self) -> Response {
        let parked = match self.backend.parked_count() {
            Ok(n) => n,
            Err(e) => return qfe_error_response(&e),
        };
        let draining = self.is_draining();
        // The probe itself is in flight; report everyone else.
        let in_flight = self.in_flight.load(Ordering::SeqCst).saturating_sub(1);
        let shards = self.cluster.as_ref().map_or(1, |c| c.shard_count());
        let body = Json::object([
            (
                "status",
                Json::Str(if draining { "draining" } else { "ok" }.to_string()),
            ),
            (
                "store",
                Json::Str(self.backend.store_backend_name().to_string()),
            ),
            ("shards", Json::Int(shards as i64)),
            ("resident", Json::Int(self.backend.resident_count() as i64)),
            ("parked", Json::Int(parked as i64)),
            ("in_flight", Json::Int(in_flight as i64)),
            ("idem_replays", Json::Int(self.idem_replays() as i64)),
        ]);
        Response {
            status: if draining { 503 } else { 200 },
            body: body.render(),
            retry_after: if draining { Some(1) } else { None },
        }
    }

    /// Runs a mutating verb under its idempotency key, if the body carries
    /// one. The first execution's response is remembered (unless it is a
    /// 5xx — those must stay retryable); replays return it verbatim.
    fn idempotent(&self, id: SessionId, body: &str, run: impl FnOnce() -> Response) -> Response {
        let key = Json::parse(body)
            .ok()
            .and_then(|doc| doc.get("idem").map(|k| k.as_str().map(str::to_string)))
            .and_then(|k| k.ok());
        let Some(key) = key else { return run() };
        let cache_key = (id.as_u64(), key);
        if let Some(hit) = self
            .idem
            .lock()
            .expect("idempotency cache lock poisoned")
            .map
            .get(&cache_key)
        {
            self.idem_replays.fetch_add(1, Ordering::SeqCst);
            return hit.clone();
        }
        let response = run();
        if response.status < 500 {
            let mut cache = self.idem.lock().expect("idempotency cache lock poisoned");
            if cache.map.len() >= IDEM_CACHE_CAP {
                if let Some(oldest) = cache.order.pop_front() {
                    cache.map.remove(&oldest);
                }
            }
            cache.order.push_back(cache_key.clone());
            cache.map.insert(cache_key, response.clone());
        }
        response
    }

    /// Forgets every remembered response for a session (on delete, its
    /// keys can never be replayed meaningfully again).
    fn purge_idem(&self, id: SessionId) {
        let mut cache = self.idem.lock().expect("idempotency cache lock poisoned");
        cache.order.retain(|k| k.0 != id.as_u64());
        cache.map.retain(|k, _| k.0 != id.as_u64());
    }

    fn list_sessions(&self) -> Response {
        match self.backend.session_ids() {
            Ok(ids) => ok(Json::object([(
                "sessions",
                Json::Array(ids.iter().map(|id| Json::Int(id.as_u64() as i64)).collect()),
            )])),
            Err(e) => qfe_error_response(&e),
        }
    }

    fn create_session(&self, body: &str) -> Response {
        let doc = match Json::parse(body) {
            Ok(doc) => doc,
            Err(e) => return error_response(400, "bad_request", e),
        };
        let id = if let Some(snapshot) = doc.get("snapshot") {
            match SessionSnapshot::from_json(snapshot) {
                Ok(snapshot) => self.backend.restore(snapshot),
                Err(e) => return error_response(400, "snapshot", e),
            }
        } else if let Some(name) = doc.get("workload") {
            let name = match name.as_str() {
                Ok(name) => name,
                Err(e) => return error_response(400, "bad_request", e),
            };
            match named_workload_session(name) {
                Some(session) => self.backend.create(&session),
                None => {
                    return error_response(
                        400,
                        "bad_request",
                        format!("unknown workload {name:?} (try \"example_1_1\")"),
                    )
                }
            }
        } else {
            return error_response(
                400,
                "bad_request",
                "body must carry either \"workload\" or \"snapshot\"",
            );
        };
        match id {
            Ok(id) => created(Json::object([("id", Json::Int(id.as_u64() as i64))])),
            Err(e) => qfe_error_response(&e),
        }
    }

    fn step(&self, id: SessionId) -> Response {
        match self.backend.step(id) {
            Ok(step) => ok(step_body(&step)),
            Err(e) => qfe_error_response(&e),
        }
    }

    fn answer(&self, id: SessionId, body: &str) -> Response {
        let doc = match Json::parse(body) {
            Ok(doc) => doc,
            Err(e) => return error_response(400, "bad_request", e),
        };
        let choice = match doc.field("choice").and_then(|c| c.as_usize()) {
            Ok(choice) => choice,
            Err(e) => return error_response(400, "bad_request", e),
        };
        let answered = match doc.get("user_millis") {
            Some(millis) => match millis.as_f64() {
                Ok(ms) if ms >= 0.0 => match Duration::try_from_secs_f64(ms / 1000.0) {
                    Ok(user_time) => self.backend.answer_timed(id, choice, user_time),
                    Err(e) => return error_response(400, "bad_request", e),
                },
                Ok(_) => return error_response(400, "bad_request", "user_millis must be >= 0"),
                Err(e) => return error_response(400, "bad_request", e),
            },
            None => self.backend.answer(id, choice),
        };
        match answered {
            Ok(()) => ok(Json::object([(
                "status",
                Json::Str("answered".to_string()),
            )])),
            Err(e) => qfe_error_response(&e),
        }
    }

    fn reject(&self, id: SessionId) -> Response {
        match self.backend.reject(id) {
            Ok(()) => ok(Json::object([(
                "status",
                Json::Str("rejected".to_string()),
            )])),
            Err(e) => qfe_error_response(&e),
        }
    }

    fn park(&self, id: SessionId) -> Response {
        match self.backend.park(id) {
            Ok(receipt) => ok(Json::object([
                ("status", Json::Str("parked".to_string())),
                ("workload_hash", Json::Str(receipt.workload_hash)),
                ("state_bytes", Json::Int(receipt.state_bytes as i64)),
                ("workload_bytes", Json::Int(receipt.workload_bytes as i64)),
                ("workload_shared", Json::Bool(receipt.workload_was_shared)),
            ])),
            Err(e) => qfe_error_response(&e),
        }
    }

    fn resume(&self, id: SessionId) -> Response {
        match self.backend.resume(id) {
            Ok(was_parked) => ok(Json::object([
                ("status", Json::Str("resumed".to_string())),
                ("was_parked", Json::Bool(was_parked)),
            ])),
            Err(e) => qfe_error_response(&e),
        }
    }

    fn delete(&self, id: SessionId) -> Response {
        self.purge_idem(id);
        match self.backend.evict(id) {
            Ok(true) => ok(Json::object([("status", Json::Str("deleted".to_string()))])),
            Ok(false) => error_response(404, "unknown_session", format!("no session {id}")),
            Err(e) => qfe_error_response(&e),
        }
    }

    /// `GET /admin/fsck`: audit the backing store and report what was
    /// found (and quarantined) as JSON.
    fn fsck(&self) -> Response {
        match self.backend.fsck() {
            Ok(report) => ok(report.to_json()),
            Err(e) => error_response(500, "store", e),
        }
    }

    /// `GET /admin/shards`: the fleet status, clustered deployments only.
    fn shards_status(&self) -> Response {
        match &self.cluster {
            Some(cluster) => ok(cluster.status().to_json()),
            None => error_response(404, "not_sharded", "this deployment runs a single host"),
        }
    }

    /// `POST /admin/shards/{i}/{drain|kill|restart}`.
    fn shard_admin(&self, index: &str, action: &str) -> Response {
        let Some(cluster) = &self.cluster else {
            return error_response(404, "not_sharded", "this deployment runs a single host");
        };
        let Ok(index) = index.parse::<usize>() else {
            return error_response(404, "not_found", format!("bad shard index {index:?}"));
        };
        if index >= cluster.shard_count() {
            return error_response(404, "not_found", format!("no shard {index}"));
        }
        match action {
            "drain" => match cluster.drain_shard(index, Some(SHARD_DRAIN_DEADLINE)) {
                Ok(outcome) => ok(Json::object([
                    (
                        "status",
                        Json::Str(
                            if outcome.completed {
                                "drained"
                            } else {
                                "rolled_back"
                            }
                            .to_string(),
                        ),
                    ),
                    ("parked", Json::Int(outcome.sweep.parked as i64)),
                    ("reassigned", Json::Int(outcome.reassigned as i64)),
                ])),
                Err(e) => qfe_error_response(&e),
            },
            "kill" => {
                let dropped = match cluster.kill_shard(index) {
                    Ok(dropped) => dropped,
                    Err(e) => return qfe_error_response(&e),
                };
                match cluster.fail_over(index) {
                    Ok(failed_over) => ok(Json::object([
                        ("status", Json::Str("killed".to_string())),
                        ("dropped", Json::Int(dropped as i64)),
                        ("failed_over", Json::Int(failed_over as i64)),
                    ])),
                    Err(e) => qfe_error_response(&e),
                }
            }
            "restart" => match cluster.restart_shard(index) {
                Ok(was_down) => ok(Json::object([
                    ("status", Json::Str("restarted".to_string())),
                    ("was_down", Json::Bool(was_down)),
                ])),
                Err(e) => qfe_error_response(&e),
            },
            other => error_response(404, "not_found", format!("no shard action {other:?}")),
        }
    }
}

fn parse_id(segment: &str) -> Option<SessionId> {
    segment.parse::<u64>().ok().map(SessionId::from_u64)
}

impl Handler for ServiceState {
    fn handle(&self, request: &Request) -> Response {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        let response = self.route(request);
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        response
    }
}

impl ServiceState {
    fn route(&self, request: &Request) -> Response {
        let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
        let method = request.method.as_str();
        // The readiness probe keeps answering during a drain (that is its
        // job); everything else is refused so clients retry elsewhere.
        if self.is_draining() && segments.as_slice() != ["healthz"] {
            return Response::unavailable("service draining", 1);
        }
        match (method, segments.as_slice()) {
            ("GET", ["healthz"]) => self.healthz(),
            ("GET", ["admin", "fsck"]) => self.fsck(),
            ("GET", ["admin", "shards"]) => self.shards_status(),
            ("POST", ["admin", "shards", index, action]) => self.shard_admin(index, action),
            ("GET", ["sessions"]) => self.list_sessions(),
            ("POST", ["sessions"]) => self.create_session(&request.body),
            (_, ["healthz"]) | (_, ["sessions"]) => {
                error_response(405, "method_not_allowed", format!("{method} not allowed"))
            }
            (method, ["sessions", id, action]) => match parse_id(id) {
                None => error_response(404, "unknown_session", format!("bad session id {id:?}")),
                Some(id) => match (method, *action) {
                    ("GET", "step") => self.step(id),
                    ("POST", "answer") => {
                        self.idempotent(id, &request.body, || self.answer(id, &request.body))
                    }
                    ("POST", "reject") => self.idempotent(id, &request.body, || self.reject(id)),
                    ("POST", "park") => self.idempotent(id, &request.body, || self.park(id)),
                    ("POST", "resume") => self.resume(id),
                    _ => error_response(
                        404,
                        "not_found",
                        format!("no route {method} {}", request.path),
                    ),
                },
            },
            ("DELETE", ["sessions", id]) => match parse_id(id) {
                None => error_response(404, "unknown_session", format!("bad session id {id:?}")),
                Some(id) => self.delete(id),
            },
            _ => error_response(
                404,
                "not_found",
                format!("no route {method} {}", request.path),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfe_snapstore::{HostConfig, MemoryStore};
    use std::sync::Arc;

    fn service() -> ServiceState {
        let host = SessionHost::open(Arc::new(MemoryStore::new()), HostConfig::default()).unwrap();
        ServiceState::new(host)
    }

    fn req(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            body: body.to_string(),
        }
    }

    fn json(response: &Response) -> Json {
        Json::parse(&response.body).unwrap()
    }

    #[test]
    fn full_session_over_the_route_table() {
        let service = service();
        let health = service.handle(&req("GET", "/healthz", ""));
        assert_eq!(health.status, 200);

        let create = service.handle(&req("POST", "/sessions", "{\"workload\":\"example_1_1\"}"));
        assert_eq!(create.status, 201, "{}", create.body);
        let id = json(&create).field("id").unwrap().as_i64().unwrap();

        let list = service.handle(&req("GET", "/sessions", ""));
        assert!(list.body.contains(&format!("{id}")));

        // Drive to completion with the oracle for candidate 1.
        let (_, _, candidates, _) = example_1_1();
        let target = candidates[1].clone();
        let oracle = qfe_core::OracleUser::new(target.clone());
        use qfe_core::FeedbackUser;
        let label = loop {
            let step = service.handle(&req("GET", &format!("/sessions/{id}/step"), ""));
            assert_eq!(step.status, 200, "{}", step.body);
            let doc = json(&step);
            match doc.field("status").unwrap().as_str().unwrap() {
                "done" => break doc.field("label").unwrap().as_str().unwrap().to_string(),
                "await_feedback" => {
                    let round =
                        qfe_core::FeedbackRound::from_json(doc.field("round").unwrap()).unwrap();
                    let choice = oracle.choose(&round).unwrap();
                    let answer = service.handle(&req(
                        "POST",
                        &format!("/sessions/{id}/answer"),
                        &format!("{{\"choice\":{choice},\"user_millis\":12.5}}"),
                    ));
                    assert_eq!(answer.status, 200, "{}", answer.body);
                }
                other => panic!("unexpected status {other}"),
            }
        };
        assert_eq!(label, target.label.unwrap());

        let delete = service.handle(&req("DELETE", &format!("/sessions/{id}"), ""));
        assert_eq!(delete.status, 200);
        assert_eq!(
            service
                .handle(&req("GET", &format!("/sessions/{id}/step"), ""))
                .status,
            404
        );
    }

    #[test]
    fn park_resume_and_snapshot_adoption_routes() {
        let service = service();
        let create = service.handle(&req("POST", "/sessions", "{\"workload\":\"example_1_1\"}"));
        let id = json(&create).field("id").unwrap().as_i64().unwrap();
        let _ = service.handle(&req("GET", &format!("/sessions/{id}/step"), ""));

        let park = service.handle(&req("POST", &format!("/sessions/{id}/park"), ""));
        assert_eq!(park.status, 200, "{}", park.body);
        let receipt = json(&park);
        assert!(receipt.field("state_bytes").unwrap().as_i64().unwrap() > 0);
        assert!(!receipt.field("workload_shared").unwrap().as_bool().unwrap());

        let resume = service.handle(&req("POST", &format!("/sessions/{id}/resume"), ""));
        assert_eq!(resume.status, 200);
        assert!(json(&resume)
            .field("was_parked")
            .unwrap()
            .as_bool()
            .unwrap());
        // Resuming a resident session is a cheap no-op.
        let again = service.handle(&req("POST", &format!("/sessions/{id}/resume"), ""));
        assert!(!json(&again).field("was_parked").unwrap().as_bool().unwrap());

        // Snapshot adoption: POST an engine snapshot as a new session.
        let (db, result, candidates, _) = example_1_1();
        let session = QfeSession::builder(db, result)
            .with_candidates(candidates)
            .build()
            .unwrap();
        let snapshot = session.start().snapshot();
        let body = format!("{{\"snapshot\":{}}}", snapshot.serialize());
        let adopted = service.handle(&req("POST", "/sessions", &body));
        assert_eq!(adopted.status, 201, "{}", adopted.body);
        let new_id = json(&adopted).field("id").unwrap().as_i64().unwrap();
        assert_ne!(new_id, id);
    }

    #[test]
    fn errors_map_to_statuses() {
        let service = service();
        // Unknown session.
        assert_eq!(
            service.handle(&req("GET", "/sessions/99/step", "")).status,
            404
        );
        // Bad id, bad route, bad method.
        assert_eq!(
            service.handle(&req("GET", "/sessions/xx/step", "")).status,
            404
        );
        assert_eq!(service.handle(&req("GET", "/nope", "")).status, 404);
        assert_eq!(service.handle(&req("DELETE", "/healthz", "")).status, 405);
        // Bad create bodies.
        assert_eq!(
            service.handle(&req("POST", "/sessions", "{nope")).status,
            400
        );
        assert_eq!(service.handle(&req("POST", "/sessions", "{}")).status, 400);
        assert_eq!(
            service
                .handle(&req("POST", "/sessions", "{\"workload\":\"nope\"}"))
                .status,
            400
        );
        assert_eq!(
            service
                .handle(&req("POST", "/sessions", "{\"snapshot\":{}}"))
                .status,
            400
        );
        // Protocol misuse: answering with no pending round is a conflict.
        let create = service.handle(&req("POST", "/sessions", "{\"workload\":\"example_1_1\"}"));
        let id = json(&create).field("id").unwrap().as_i64().unwrap();
        let answer = service.handle(&req(
            "POST",
            &format!("/sessions/{id}/answer"),
            "{\"choice\":0}",
        ));
        assert_eq!(answer.status, 409, "{}", answer.body);
        assert_eq!(
            json(&answer).field("kind").unwrap().as_str().unwrap(),
            "conflict"
        );
        // Malformed answer bodies.
        let bad = service.handle(&req("POST", &format!("/sessions/{id}/answer"), "{}"));
        assert_eq!(bad.status, 400);
        let _ = service.handle(&req("GET", &format!("/sessions/{id}/step"), ""));
        let neg = service.handle(&req(
            "POST",
            &format!("/sessions/{id}/answer"),
            "{\"choice\":0,\"user_millis\":-1}",
        ));
        assert_eq!(neg.status, 400);
        // A response time no Duration can hold is refused, not a panic (1e400
        // reads as infinity).
        for millis in ["1e23", "1e300", "1e400"] {
            let huge = service.handle(&req(
                "POST",
                &format!("/sessions/{id}/answer"),
                &format!("{{\"choice\":0,\"user_millis\":{millis}}}"),
            ));
            assert_eq!(huge.status, 400, "{millis}: {}", huge.body);
        }
        // Out-of-range choice is a conflict, not a panic.
        let wild = service.handle(&req(
            "POST",
            &format!("/sessions/{id}/answer"),
            "{\"choice\":999}",
        ));
        assert_eq!(wild.status, 409, "{}", wild.body);
        // The refused answers left the round pending: a valid one lands.
        let valid = service.handle(&req(
            "POST",
            &format!("/sessions/{id}/answer"),
            "{\"choice\":0,\"user_millis\":1500}",
        ));
        assert_eq!(valid.status, 200, "{}", valid.body);
    }

    #[test]
    fn healthz_is_a_readiness_probe() {
        let service = service();
        let health = service.handle(&req("GET", "/healthz", ""));
        assert_eq!(health.status, 200);
        let doc = json(&health);
        assert_eq!(doc.field("status").unwrap().as_str().unwrap(), "ok");
        assert_eq!(doc.field("store").unwrap().as_str().unwrap(), "mem");
        assert_eq!(doc.field("resident").unwrap().as_i64().unwrap(), 0);
        assert_eq!(doc.field("parked").unwrap().as_i64().unwrap(), 0);
        // Only this probe is running; it reports everyone else.
        assert_eq!(doc.field("in_flight").unwrap().as_i64().unwrap(), 0);

        service.begin_drain();
        let draining = service.handle(&req("GET", "/healthz", ""));
        assert_eq!(draining.status, 503);
        assert_eq!(draining.retry_after, Some(1));
        assert_eq!(
            json(&draining).field("status").unwrap().as_str().unwrap(),
            "draining"
        );
        // Every other verb is refused during the drain.
        let refused = service.handle(&req("GET", "/sessions", ""));
        assert_eq!(refused.status, 503);
        assert_eq!(refused.retry_after, Some(1));
    }

    #[test]
    fn idempotency_keys_dedup_replayed_mutations() {
        let service = service();
        let create = service.handle(&req("POST", "/sessions", "{\"workload\":\"example_1_1\"}"));
        let id = json(&create).field("id").unwrap().as_i64().unwrap();
        let _ = service.handle(&req("GET", &format!("/sessions/{id}/step"), ""));

        // First answer executes; the retry with the same key is served from
        // memory — byte-identical, and the session does NOT advance twice.
        let body = "{\"choice\":1,\"idem\":\"r0-a\"}";
        let first = service.handle(&req("POST", &format!("/sessions/{id}/answer"), body));
        assert_eq!(first.status, 200, "{}", first.body);
        let replay = service.handle(&req("POST", &format!("/sessions/{id}/answer"), body));
        assert_eq!(replay, first, "replay is byte-identical");
        assert_eq!(service.idem_replays(), 1);
        // Without the cache the second answer would be a 409 (no pending
        // round): prove that by answering again with a NEW key.
        let fresh = service.handle(&req(
            "POST",
            &format!("/sessions/{id}/answer"),
            "{\"choice\":1,\"idem\":\"r0-b\"}",
        ));
        assert_eq!(fresh.status, 409, "{}", fresh.body);

        // Park replays are deduped the same way.
        let park_body = "{\"idem\":\"park-1\"}";
        let parked = service.handle(&req("POST", &format!("/sessions/{id}/park"), park_body));
        assert_eq!(parked.status, 200, "{}", parked.body);
        let park_replay = service.handle(&req("POST", &format!("/sessions/{id}/park"), park_body));
        assert_eq!(park_replay, parked);
        assert_eq!(service.idem_replays(), 2);

        // Deleting the session purges its remembered responses.
        let _ = service.handle(&req("DELETE", &format!("/sessions/{id}"), ""));
        let after = service.handle(&req("POST", &format!("/sessions/{id}/answer"), body));
        assert_eq!(after.status, 404, "purged key re-executes: {}", after.body);
    }

    #[test]
    fn admin_fsck_reports_the_backing_store() {
        let service = service();
        let fsck = service.handle(&req("GET", "/admin/fsck", ""));
        assert_eq!(fsck.status, 200, "{}", fsck.body);
        let doc = json(&fsck);
        assert_eq!(doc.field("backend").unwrap().as_str().unwrap(), "mem");
        assert!(doc.field("clean").unwrap().as_bool().unwrap());
        // A single-host deployment has no shards to administer.
        assert_eq!(service.handle(&req("GET", "/admin/shards", "")).status, 404);
        assert_eq!(
            service
                .handle(&req("POST", "/admin/shards/0/kill", ""))
                .status,
            404
        );
    }

    #[test]
    fn admin_shards_routes_drive_the_fleet() {
        let cluster = Arc::new(
            qfe_cluster::Cluster::open(
                Arc::new(MemoryStore::new()),
                qfe_cluster::ClusterConfig::with_shards(2),
            )
            .unwrap(),
        );
        let service = ServiceState::clustered(Arc::clone(&cluster));
        let create = service.handle(&req("POST", "/sessions", "{\"workload\":\"example_1_1\"}"));
        assert_eq!(create.status, 201, "{}", create.body);
        let id = json(&create).field("id").unwrap().as_i64().unwrap();
        let _ = service.handle(&req("GET", &format!("/sessions/{id}/step"), ""));

        let status = service.handle(&req("GET", "/admin/shards", ""));
        assert_eq!(status.status, 200, "{}", status.body);
        let doc = json(&status);
        assert_eq!(doc.field("routed_sessions").unwrap().as_i64().unwrap(), 1);
        let home = cluster
            .router()
            .shard_of(SessionId::from_u64(id as u64))
            .unwrap();

        // Kill the session's shard: it fails over and keeps serving.
        let kill = service.handle(&req("POST", &format!("/admin/shards/{home}/kill"), ""));
        assert_eq!(kill.status, 200, "{}", kill.body);
        assert_eq!(
            json(&kill).field("failed_over").unwrap().as_i64().unwrap(),
            1
        );
        let step = service.handle(&req("GET", &format!("/sessions/{id}/step"), ""));
        assert_eq!(step.status, 200, "{}", step.body);

        // Restart it, then drain the survivor onto it.
        let restart = service.handle(&req("POST", &format!("/admin/shards/{home}/restart"), ""));
        assert_eq!(restart.status, 200);
        assert!(json(&restart).field("was_down").unwrap().as_bool().unwrap());
        let other = 1 - home;
        let drain = service.handle(&req("POST", &format!("/admin/shards/{other}/drain"), ""));
        assert_eq!(drain.status, 200, "{}", drain.body);
        assert_eq!(
            json(&drain).field("status").unwrap().as_str().unwrap(),
            "drained"
        );
        let step = service.handle(&req("GET", &format!("/sessions/{id}/step"), ""));
        assert_eq!(step.status, 200, "{}", step.body);

        // Unknown shard index and action 404 cleanly.
        assert_eq!(
            service
                .handle(&req("POST", "/admin/shards/9/kill", ""))
                .status,
            404
        );
        assert_eq!(
            service
                .handle(&req("POST", "/admin/shards/0/explode", ""))
                .status,
            404
        );
        // The healthz probe reports the fleet width.
        let health = service.handle(&req("GET", "/healthz", ""));
        assert_eq!(json(&health).field("shards").unwrap().as_i64().unwrap(), 2);
    }

    #[test]
    fn requests_without_idem_keys_are_untouched() {
        let service = service();
        let create = service.handle(&req("POST", "/sessions", "{\"workload\":\"example_1_1\"}"));
        let id = json(&create).field("id").unwrap().as_i64().unwrap();
        let _ = service.handle(&req("GET", &format!("/sessions/{id}/step"), ""));
        let first = service.handle(&req(
            "POST",
            &format!("/sessions/{id}/answer"),
            "{\"choice\":1}",
        ));
        assert_eq!(first.status, 200);
        // No key → no dedup: the naked replay hits the protocol conflict.
        let replay = service.handle(&req(
            "POST",
            &format!("/sessions/{id}/answer"),
            "{\"choice\":1}",
        ));
        assert_eq!(replay.status, 409);
        assert_eq!(service.idem_replays(), 0);
    }
}
