//! Deterministic fault injection for snapshot stores.
//!
//! [`FaultyStore`] wraps any [`SnapshotStore`] and injects faults scripted
//! by a serializable [`FaultPlan`]: I/O errors, torn (partial) writes and
//! latency. Every decision is a pure function of the plan and its per-rule
//! counters, so a failing chaos run replays byte-for-byte from the plan
//! alone. This is the CI-facing half of the robustness story: every failure
//! mode the service claims to survive is provoked here on purpose, under a
//! pinned plan, instead of waiting to be discovered in production.
//!
//! The wrapper stays a faithful [`SnapshotStore`]: when no rule fires, every
//! call passes straight through to the inner store.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use qfe_wire::{Json, WireError, WireResult};

use crate::fsck::FsckReport;
use crate::store::{SnapshotStore, StoreError, StoreResult};

/// What an injected fault does to the intercepted operation.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Fail the operation with an injected I/O error. Writes do not reach
    /// the inner store; the caller must treat the operation as not applied.
    Error,
    /// Write only a prefix of the record body (a "torn" write) and then
    /// fail. The inner store holds a truncated record — exactly what a
    /// crash mid-write leaves behind one layer up from the file system.
    /// `keep` is the fraction of the body that lands, in `[0, 1]`.
    Torn {
        /// Fraction of the body bytes that reach the inner store.
        keep: f64,
    },
    /// Delay the operation, then let it proceed normally.
    Latency {
        /// How long the operation stalls before proceeding.
        millis: u64,
    },
}

impl FaultAction {
    fn name(&self) -> &'static str {
        match self {
            FaultAction::Error => "error",
            FaultAction::Torn { .. } => "torn",
            FaultAction::Latency { .. } => "latency",
        }
    }
}

/// When a matching operation actually triggers the rule.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultTrigger {
    /// Fire on exactly the `n`-th matching call (1-based), once.
    Nth(u64),
    /// Fire on every `n`-th matching call (the `n`-th, `2n`-th, …).
    EveryNth(u64),
}

/// One scripted fault: which operations it matches and what it injects.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Operation selector: an exact store-operation name
    /// (`"put_session"`, `"get_workload"`, …), a prefix glob (`"put_*"`),
    /// or `"*"` for every operation.
    pub op: String,
    /// Only operations whose key contains this substring match
    /// (`None` matches every key).
    pub key_contains: Option<String>,
    /// When a matching operation fires the rule.
    pub trigger: FaultTrigger,
    /// What the fired rule injects.
    pub action: FaultAction,
    /// Cap on total injections from this rule (`None` = unbounded).
    pub limit: Option<u64>,
}

impl FaultRule {
    fn matches(&self, op: &str, key: &str) -> bool {
        let op_ok = if self.op == "*" {
            true
        } else if let Some(prefix) = self.op.strip_suffix('*') {
            op.starts_with(prefix)
        } else {
            self.op == op
        };
        op_ok
            && self
                .key_contains
                .as_deref()
                .is_none_or(|needle| key.contains(needle))
    }
}

/// A serializable script of faults.
///
/// The plan round-trips through `qfe-wire` JSON ([`FaultPlan::serialize`] /
/// [`FaultPlan::parse`]), so a chaos run can pin the exact fault schedule in
/// its bench artifact and CI can replay it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The scripted rules, checked in order; the first rule that fires wins.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a rule to the plan (builder style).
    pub fn with_rule(mut self, rule: FaultRule) -> FaultPlan {
        self.rules.push(rule);
        self
    }

    /// Renders the plan as compact JSON.
    pub fn serialize(&self) -> String {
        self.to_json().render()
    }

    /// Parses a plan serialized by [`FaultPlan::serialize`].
    pub fn parse(text: &str) -> WireResult<FaultPlan> {
        FaultPlan::from_json(&Json::parse(text)?)
    }

    /// The plan as a `qfe-wire` JSON value.
    pub fn to_json(&self) -> Json {
        Json::object([(
            "rules",
            Json::Array(
                self.rules
                    .iter()
                    .map(|r| {
                        let trigger = match &r.trigger {
                            FaultTrigger::Nth(n) => Json::object([
                                ("kind", Json::Str("nth".to_string())),
                                ("n", Json::Int(*n as i64)),
                            ]),
                            FaultTrigger::EveryNth(n) => Json::object([
                                ("kind", Json::Str("every_nth".to_string())),
                                ("n", Json::Int(*n as i64)),
                            ]),
                        };
                        let action = match &r.action {
                            FaultAction::Error => {
                                Json::object([("kind", Json::Str("error".to_string()))])
                            }
                            FaultAction::Torn { keep } => Json::object([
                                ("kind", Json::Str("torn".to_string())),
                                ("keep", Json::Float(*keep)),
                            ]),
                            FaultAction::Latency { millis } => Json::object([
                                ("kind", Json::Str("latency".to_string())),
                                ("millis", Json::Int(*millis as i64)),
                            ]),
                        };
                        Json::object([
                            ("op", Json::Str(r.op.clone())),
                            (
                                "key_contains",
                                match &r.key_contains {
                                    Some(s) => Json::Str(s.clone()),
                                    None => Json::Null,
                                },
                            ),
                            ("trigger", trigger),
                            ("action", action),
                            (
                                "limit",
                                match r.limit {
                                    Some(n) => Json::Int(n as i64),
                                    None => Json::Null,
                                },
                            ),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    /// Reads a plan back from its JSON form.
    pub fn from_json(json: &Json) -> WireResult<FaultPlan> {
        let mut rules = Vec::new();
        for rule in json.field("rules")?.as_array()? {
            let op = rule.field("op")?.as_str()?.to_string();
            let key_contains = match rule.field("key_contains")? {
                Json::Null => None,
                other => Some(other.as_str()?.to_string()),
            };
            let trigger_json = rule.field("trigger")?;
            let trigger = match trigger_json.field("kind")?.as_str()? {
                "nth" => FaultTrigger::Nth(trigger_json.field("n")?.as_i64()? as u64),
                "every_nth" => FaultTrigger::EveryNth(trigger_json.field("n")?.as_i64()? as u64),
                other => return Err(WireError::new(format!("unknown fault trigger {other:?}"))),
            };
            let action_json = rule.field("action")?;
            let action = match action_json.field("kind")?.as_str()? {
                "error" => FaultAction::Error,
                "torn" => FaultAction::Torn {
                    keep: action_json.field("keep")?.as_f64()?,
                },
                "latency" => FaultAction::Latency {
                    millis: action_json.field("millis")?.as_i64()? as u64,
                },
                other => return Err(WireError::new(format!("unknown fault action {other:?}"))),
            };
            let limit = match rule.field("limit")? {
                Json::Null => None,
                other => Some(other.as_i64()? as u64),
            };
            rules.push(FaultRule {
                op,
                key_contains,
                trigger,
                action,
                limit,
            });
        }
        Ok(FaultPlan { rules })
    }
}

/// One fault the store actually injected, for post-run assertions and the
/// chaos bench artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The store operation that was intercepted.
    pub op: String,
    /// The key the operation addressed.
    pub key: String,
    /// The action name (`"error"`, `"torn"`, `"latency"`).
    pub action: String,
}

#[derive(Debug, Default)]
struct FaultState {
    /// Matching-call counter per rule (drives Nth/EveryNth).
    matches: Vec<u64>,
    /// Injection counter per rule (drives `limit`).
    injections: Vec<u64>,
    /// Every fault injected so far, in order.
    log: Vec<InjectedFault>,
}

/// A [`SnapshotStore`] that injects scripted faults in front of an inner
/// store. See the module docs for the model.
#[derive(Debug)]
pub struct FaultyStore {
    inner: Arc<dyn SnapshotStore>,
    plan: FaultPlan,
    state: Mutex<FaultState>,
}

impl FaultyStore {
    /// Wraps `inner`, injecting the faults scripted by `plan`.
    pub fn new(inner: Arc<dyn SnapshotStore>, plan: FaultPlan) -> FaultyStore {
        let state = FaultState {
            matches: vec![0; plan.rules.len()],
            injections: vec![0; plan.rules.len()],
            ..FaultState::default()
        };
        FaultyStore {
            inner,
            plan,
            state: Mutex::new(state),
        }
    }

    /// The plan this store injects from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The wrapped store.
    pub fn inner(&self) -> &Arc<dyn SnapshotStore> {
        &self.inner
    }

    /// Every fault injected so far, in injection order.
    pub fn injected(&self) -> Vec<InjectedFault> {
        self.state.lock().expect("fault state lock").log.clone()
    }

    /// Total number of injected faults.
    pub fn injection_count(&self) -> usize {
        self.state.lock().expect("fault state lock").log.len()
    }

    /// Decides whether a rule fires for this (op, key) call, records the
    /// injection, and returns the action to apply. Latency sleeps happen
    /// outside the lock.
    fn decide(&self, op: &str, key: &str) -> Option<FaultAction> {
        let mut state = self.state.lock().expect("fault state lock");
        for (idx, rule) in self.plan.rules.iter().enumerate() {
            if !rule.matches(op, key) {
                continue;
            }
            state.matches[idx] += 1;
            let count = state.matches[idx];
            if rule.limit.is_some_and(|cap| state.injections[idx] >= cap) {
                continue;
            }
            let fires = match rule.trigger {
                FaultTrigger::Nth(n) => count == n,
                FaultTrigger::EveryNth(n) => n > 0 && count.is_multiple_of(n),
            };
            if fires {
                state.injections[idx] += 1;
                state.log.push(InjectedFault {
                    op: op.to_string(),
                    key: key.to_string(),
                    action: rule.action.name().to_string(),
                });
                return Some(rule.action.clone());
            }
        }
        None
    }

    /// Applies a write-path fault. `Ok(true)` means the fault fully handled
    /// the call (the caller returns the error embedded in `Err` instead);
    /// `Ok(false)` means proceed with the real write.
    fn write_fault(
        &self,
        op: &str,
        key: &str,
        text: &str,
        put: &dyn Fn(&str) -> StoreResult<()>,
    ) -> StoreResult<()> {
        match self.decide(op, key) {
            None => put(text),
            Some(FaultAction::Error) => Err(StoreError::new(
                format!("{op} {key}"),
                "injected fault: io error",
            )),
            Some(FaultAction::Torn { keep }) => {
                let keep = keep.clamp(0.0, 1.0);
                let mut cut = (text.len() as f64 * keep).floor() as usize;
                while cut > 0 && !text.is_char_boundary(cut) {
                    cut -= 1;
                }
                // The torn prefix reaches the inner store; the caller still
                // sees a failure, as it would after a real torn write.
                let _ = put(&text[..cut]);
                Err(StoreError::new(
                    format!("{op} {key}"),
                    format!("injected fault: torn write ({cut} of {} bytes)", text.len()),
                ))
            }
            Some(FaultAction::Latency { millis }) => {
                std::thread::sleep(Duration::from_millis(millis));
                put(text)
            }
        }
    }

    /// Applies a read-path fault, returning `Some` when the fault produced
    /// the whole reply and `None` when the real read should proceed.
    fn read_fault(&self, op: &str, key: &str) -> Option<StoreResult<Option<String>>> {
        match self.decide(op, key)? {
            FaultAction::Error => Some(Err(StoreError::new(
                format!("{op} {key}"),
                "injected fault: io error",
            ))),
            FaultAction::Latency { millis } => {
                std::thread::sleep(Duration::from_millis(millis));
                None
            }
            // A torn write makes no sense on a read; treat it as an error.
            FaultAction::Torn { .. } => Some(Err(StoreError::new(
                format!("{op} {key}"),
                "injected fault: torn read",
            ))),
        }
    }
}

impl SnapshotStore for FaultyStore {
    fn put_session(&self, key: &str, text: &str) -> StoreResult<()> {
        self.write_fault("put_session", key, text, &|t| {
            self.inner.put_session(key, t)
        })
    }

    fn get_session(&self, key: &str) -> StoreResult<Option<String>> {
        if let Some(reply) = self.read_fault("get_session", key) {
            return reply;
        }
        self.inner.get_session(key)
    }

    fn remove_session(&self, key: &str) -> StoreResult<bool> {
        match self.decide("remove_session", key) {
            Some(FaultAction::Error) | Some(FaultAction::Torn { .. }) => Err(StoreError::new(
                format!("remove_session {key}"),
                "injected fault: io error",
            )),
            Some(FaultAction::Latency { millis }) => {
                std::thread::sleep(Duration::from_millis(millis));
                self.inner.remove_session(key)
            }
            None => self.inner.remove_session(key),
        }
    }

    fn session_keys(&self) -> StoreResult<Vec<String>> {
        match self.decide("session_keys", "") {
            Some(FaultAction::Error) => {
                Err(StoreError::new("session_keys", "injected fault: io error"))
            }
            Some(FaultAction::Latency { millis }) => {
                std::thread::sleep(Duration::from_millis(millis));
                self.inner.session_keys()
            }
            _ => self.inner.session_keys(),
        }
    }

    fn put_workload(&self, hash: &str, text: &str) -> StoreResult<()> {
        self.write_fault("put_workload", hash, text, &|t| {
            self.inner.put_workload(hash, t)
        })
    }

    fn get_workload(&self, hash: &str) -> StoreResult<Option<String>> {
        if let Some(reply) = self.read_fault("get_workload", hash) {
            return reply;
        }
        self.inner.get_workload(hash)
    }

    fn workload_hashes(&self) -> StoreResult<Vec<String>> {
        match self.decide("workload_hashes", "") {
            Some(FaultAction::Error) => Err(StoreError::new(
                "workload_hashes",
                "injected fault: io error",
            )),
            Some(FaultAction::Latency { millis }) => {
                std::thread::sleep(Duration::from_millis(millis));
                self.inner.workload_hashes()
            }
            _ => self.inner.workload_hashes(),
        }
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    // Audits pass straight through: fsck is the recovery tool, and injecting
    // faults into the tool that diagnoses faults helps nobody.
    fn fsck(&self) -> StoreResult<FsckReport> {
        self.inner.fsck()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemoryStore;

    fn faulty(plan: FaultPlan) -> FaultyStore {
        FaultyStore::new(Arc::new(MemoryStore::new()), plan)
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = FaultPlan::new()
            .with_rule(FaultRule {
                op: "put_*".to_string(),
                key_contains: Some("s1".to_string()),
                trigger: FaultTrigger::Nth(3),
                action: FaultAction::Error,
                limit: Some(1),
            })
            .with_rule(FaultRule {
                op: "get_session".to_string(),
                key_contains: None,
                trigger: FaultTrigger::EveryNth(4),
                action: FaultAction::Latency { millis: 2 },
                limit: None,
            })
            .with_rule(FaultRule {
                op: "*".to_string(),
                key_contains: None,
                trigger: FaultTrigger::EveryNth(10),
                action: FaultAction::Torn { keep: 0.5 },
                limit: Some(4),
            });
        let text = plan.serialize();
        let back = FaultPlan::parse(&text).unwrap();
        assert_eq!(back, plan);
        assert!(FaultPlan::parse("{\"rules\":[{\"op\":\"x\"}]}").is_err());
        // Kinds this store does not inject parse as unknown.
        for (from, to) in [
            ("\"every_nth\"", "\"probability\""),
            ("\"error\"", "\"stale_read\""),
        ] {
            let err = FaultPlan::parse(&text.replace(from, to)).unwrap_err();
            assert!(err.to_string().contains("unknown fault"), "{err}");
        }
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let store = faulty(FaultPlan::new().with_rule(FaultRule {
            op: "put_session".to_string(),
            key_contains: None,
            trigger: FaultTrigger::Nth(2),
            action: FaultAction::Error,
            limit: None,
        }));
        assert!(store.put_session("a", "1").is_ok());
        let err = store.put_session("a", "2").unwrap_err();
        assert!(err.to_string().contains("injected fault"));
        // The failed write never reached the inner store.
        assert_eq!(store.get_session("a").unwrap().unwrap(), "1");
        assert!(store.put_session("a", "3").is_ok());
        assert_eq!(store.injection_count(), 1);
        assert_eq!(store.injected()[0].action, "error");
    }

    #[test]
    fn torn_write_leaves_a_prefix_and_fails() {
        let store = faulty(FaultPlan::new().with_rule(FaultRule {
            op: "put_session".to_string(),
            key_contains: None,
            trigger: FaultTrigger::Nth(1),
            action: FaultAction::Torn { keep: 0.5 },
            limit: None,
        }));
        let err = store.put_session("k", "0123456789").unwrap_err();
        assert!(err.to_string().contains("torn write"));
        assert_eq!(store.get_session("k").unwrap().unwrap(), "01234");
    }

    #[test]
    fn limits_and_key_filters_apply() {
        let store = faulty(FaultPlan::new().with_rule(FaultRule {
            op: "*".to_string(),
            key_contains: Some("s9".to_string()),
            trigger: FaultTrigger::EveryNth(1),
            action: FaultAction::Error,
            limit: Some(2),
        }));
        assert!(store.put_session("s1", "x").is_ok(), "key filter skips s1");
        assert!(store.put_session("s9", "x").is_err());
        assert!(store.get_session("s9").is_err());
        // Limit reached: the rule stops firing.
        assert!(store.put_session("s9", "x").is_ok());
        assert_eq!(store.injection_count(), 2);
    }

    #[test]
    fn passthrough_preserves_store_semantics() {
        let store = faulty(FaultPlan::new());
        store.put_session("s1", "{}").unwrap();
        store.put_workload("h", "w").unwrap();
        assert_eq!(store.session_keys().unwrap(), vec!["s1"]);
        assert_eq!(store.workload_hashes().unwrap(), vec!["h"]);
        assert!(store.has_workload("h").unwrap());
        assert!(store.remove_session("s1").unwrap());
        assert_eq!(store.backend_name(), "mem");
    }
}
