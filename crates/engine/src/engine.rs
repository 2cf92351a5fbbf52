//! A centralized workflow engine (Fig. 1A): the engine stores process
//! instances, shows forms to participants, records results, and controls the
//! flow. Security of the instance is *assured by the server*, not by the
//! instance itself — which is precisely the property the paper attacks.

use dra4wfms_core::fields::FieldReader;
use dra4wfms_core::model::WorkflowDefinition;
use dra4wfms_core::semantics::{and_join_missing, route, Route};
use dra4wfms_core::{WfError, WfResult};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Errors of the engine baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Unknown process instance id.
    UnknownProcess(u64),
    /// Activity/participant/flow errors, re-using the core error text.
    Workflow(String),
}

impl From<WfError> for EngineError {
    fn from(e: WfError) -> EngineError {
        EngineError::Workflow(e.to_string())
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownProcess(id) => write!(f, "unknown process instance {id}"),
            EngineError::Workflow(m) => write!(f, "workflow error: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// One recorded activity execution inside the engine's database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineResult {
    /// Activity id.
    pub activity: String,
    /// Iteration (loops).
    pub iter: u32,
    /// Recorded executor.
    pub participant: String,
    /// Plaintext response fields — the engine sees everything.
    pub fields: Vec<(String, String)>,
}

/// A process instance as stored in the engine's database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessInstance {
    /// Instance id.
    pub id: u64,
    /// The process definition.
    pub workflow: WorkflowDefinition,
    /// Recorded executions, in order.
    pub results: Vec<EngineResult>,
    /// The engine's audit log (which a superuser can rewrite!).
    pub log: Vec<String>,
}

impl ProcessInstance {
    /// Latest executed iteration of an activity.
    pub fn latest_iter(&self, activity: &str) -> Option<u32> {
        self.results.iter().filter(|r| r.activity == activity).map(|r| r.iter).max()
    }

    /// Latest value of a field.
    pub fn field(&self, activity: &str, field: &str) -> Option<&str> {
        self.results
            .iter()
            .rev()
            .find(|r| r.activity == activity)
            .and_then(|r| r.fields.iter().find(|(n, _)| n == field))
            .map(|(_, v)| v.as_str())
    }

    /// Rough serialized size (for migration-cost accounting).
    pub fn approx_size(&self) -> usize {
        self.results
            .iter()
            .map(|r| {
                r.activity.len()
                    + r.participant.len()
                    + r.fields.iter().map(|(n, v)| n.len() + v.len()).sum::<usize>()
            })
            .sum::<usize>()
            + self.log.iter().map(String::len).sum::<usize>()
    }
}

struct InstanceReader<'a> {
    instance: &'a ProcessInstance,
    overlay_activity: &'a str,
    overlay: &'a [(String, String)],
}

impl FieldReader for InstanceReader<'_> {
    fn read_field(&self, activity: &str, field: &str) -> WfResult<Option<String>> {
        if activity == self.overlay_activity {
            if let Some((_, v)) = self.overlay.iter().find(|(n, _)| n == field) {
                return Ok(Some(v.clone()));
            }
        }
        Ok(self.instance.field(activity, field).map(str::to_string))
    }
}

/// A centralized workflow engine.
pub struct WorkflowEngine {
    /// Engine name (for logs and distributed deployments).
    pub name: String,
    store: Mutex<HashMap<u64, ProcessInstance>>,
    /// Activity executions served.
    pub executions: AtomicUsize,
}

/// Process instance ids are unique across all engines of a deployment (the
/// paper requires "a unique process id … for supporting multiple instances
/// of workflow process").
static NEXT_PID: AtomicU64 = AtomicU64::new(1);

impl WorkflowEngine {
    /// Create an engine.
    pub fn new(name: impl Into<String>) -> WorkflowEngine {
        WorkflowEngine {
            name: name.into(),
            store: Mutex::new(HashMap::new()),
            executions: AtomicUsize::new(0),
        }
    }

    /// Start a new process instance; returns its id.
    pub fn start_process(&self, def: &WorkflowDefinition) -> Result<u64, EngineError> {
        def.validate()?;
        let id = NEXT_PID.fetch_add(1, Ordering::Relaxed);
        let instance = ProcessInstance {
            id,
            workflow: def.clone(),
            results: Vec::new(),
            log: vec![format!("process started on engine {}", self.name)],
        };
        self.lock().insert(id, instance);
        Ok(id)
    }

    /// Execute an activity: the engine checks the participant, records the
    /// plaintext result and evaluates the flow. (The engine can read every
    /// field — confidentiality rests entirely on trusting the server.)
    pub fn execute_activity(
        &self,
        pid: u64,
        activity: &str,
        participant: &str,
        responses: &[(String, String)],
    ) -> Result<Route, EngineError> {
        self.executions.fetch_add(1, Ordering::Relaxed);
        let mut store = self.lock();
        let instance = store.get_mut(&pid).ok_or(EngineError::UnknownProcess(pid))?;
        let act = instance.workflow.activity(activity)?.clone();
        if act.participant != participant {
            return Err(EngineError::Workflow(format!(
                "activity '{activity}' assigned to '{}', attempted by '{participant}'",
                act.participant
            )));
        }
        let latest_iter = |a: &str| Ok(instance.latest_iter(a));
        if and_join_missing(&instance.workflow, activity, latest_iter)?.is_some() {
            return Err(EngineError::Workflow(format!("AND-join '{activity}' not ready")));
        }
        let iter = instance.latest_iter(activity).map_or(0, |i| i + 1);
        let route = {
            let reader =
                InstanceReader { instance, overlay_activity: activity, overlay: responses };
            route(&instance.workflow, activity, Some(iter), &reader)?
        };
        instance.results.push(EngineResult {
            activity: activity.to_string(),
            iter,
            participant: participant.to_string(),
            fields: responses.to_vec(),
        });
        instance.log.push(format!("{activity}#{iter} executed by {participant}"));
        Ok(route)
    }

    /// Read a stored instance (what a participant later sees when disputing).
    pub fn get_instance(&self, pid: u64) -> Result<ProcessInstance, EngineError> {
        self.lock().get(&pid).cloned().ok_or(EngineError::UnknownProcess(pid))
    }

    /// Remove an instance, returning it (used for migration between engines).
    pub fn take_instance(&self, pid: u64) -> Result<ProcessInstance, EngineError> {
        self.lock().remove(&pid).ok_or(EngineError::UnknownProcess(pid))
    }

    /// Install an instance (migration target).
    pub fn install_instance(&self, instance: ProcessInstance) {
        self.lock().insert(instance.id, instance);
    }

    /// Number of instances currently stored (load metric).
    pub fn instance_count(&self) -> usize {
        self.lock().len()
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<u64, ProcessInstance>> {
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Obtain superuser powers over this engine — the administration-domain
    /// capability the paper warns about. No credential is required beyond
    /// operating the machine the engine runs on.
    pub fn superuser(&self) -> Superuser<'_> {
        Superuser { engine: self }
    }
}

/// Administrative access to the engine's database: can rewrite results and
/// logs, leaving **no trace**. This is the attack DRA4WfMS defends against.
pub struct Superuser<'a> {
    engine: &'a WorkflowEngine,
}

impl Superuser<'_> {
    /// Rewrite a stored field value of an executed activity.
    pub fn alter_result(
        &self,
        pid: u64,
        activity: &str,
        field: &str,
        new_value: &str,
    ) -> Result<(), EngineError> {
        let mut store = self.engine.lock();
        let instance = store.get_mut(&pid).ok_or(EngineError::UnknownProcess(pid))?;
        for r in instance.results.iter_mut().rev() {
            if r.activity == activity {
                for (n, v) in r.fields.iter_mut() {
                    if n == field {
                        *v = new_value.to_string();
                        return Ok(());
                    }
                }
            }
        }
        Err(EngineError::Workflow(format!("no stored field {activity}.{field}")))
    }

    /// Rewrite the recorded executor of an activity.
    pub fn alter_participant(
        &self,
        pid: u64,
        activity: &str,
        new_participant: &str,
    ) -> Result<(), EngineError> {
        let mut store = self.engine.lock();
        let instance = store.get_mut(&pid).ok_or(EngineError::UnknownProcess(pid))?;
        for r in instance.results.iter_mut().rev() {
            if r.activity == activity {
                r.participant = new_participant.to_string();
                return Ok(());
            }
        }
        Err(EngineError::Workflow(format!("no stored result for {activity}")))
    }

    /// Rewrite the audit log wholesale ("the administrator … always has the
    /// privilege to update the contents and logs in the database").
    pub fn rewrite_log(&self, pid: u64, new_log: Vec<String>) -> Result<(), EngineError> {
        let mut store = self.engine.lock();
        let instance = store.get_mut(&pid).ok_or(EngineError::UnknownProcess(pid))?;
        instance.log = new_log;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dra4wfms_core::model::Condition;

    fn def() -> WorkflowDefinition {
        WorkflowDefinition::builder("expense", "designer")
            .simple_activity("submit", "alice", &["amount"])
            .simple_activity("approve", "bob", &["decision"])
            .flow("submit", "approve")
            .flow_if("approve", "submit", Condition::field_equals("approve", "decision", "redo"))
            .flow_end_if("approve", Condition::field_not_equals("approve", "decision", "redo"))
            .build()
            .unwrap()
    }

    #[test]
    fn engine_executes_workflow() {
        let e = WorkflowEngine::new("e1");
        let pid = e.start_process(&def()).unwrap();
        let r =
            e.execute_activity(pid, "submit", "alice", &[("amount".into(), "90".into())]).unwrap();
        assert_eq!(r.targets, vec!["approve"]);
        let r =
            e.execute_activity(pid, "approve", "bob", &[("decision".into(), "ok".into())]).unwrap();
        assert!(r.ends);
        let inst = e.get_instance(pid).unwrap();
        assert_eq!(inst.results.len(), 2);
        assert_eq!(inst.field("submit", "amount"), Some("90"));
    }

    #[test]
    fn loop_iterations_tracked() {
        let e = WorkflowEngine::new("e1");
        let pid = e.start_process(&def()).unwrap();
        e.execute_activity(pid, "submit", "alice", &[("amount".into(), "1".into())]).unwrap();
        let r = e
            .execute_activity(pid, "approve", "bob", &[("decision".into(), "redo".into())])
            .unwrap();
        assert_eq!(r.targets, vec!["submit"]);
        e.execute_activity(pid, "submit", "alice", &[("amount".into(), "2".into())]).unwrap();
        let inst = e.get_instance(pid).unwrap();
        assert_eq!(inst.latest_iter("submit"), Some(1));
        assert_eq!(inst.field("submit", "amount"), Some("2"), "latest wins");
    }

    #[test]
    fn multi_instance_activity_runs_k_times_then_routes_on() {
        let def = WorkflowDefinition::builder("fan-out", "designer")
            .simple_activity("plan", "alice", &["n"])
            .simple_activity("review", "bob", &["verdict"])
            .simple_activity("close", "carol", &[])
            .flow("plan", "review")
            .flow("review", "close")
            .flow_end("close")
            .multi_runtime("review", "plan", "n")
            .build()
            .unwrap();
        let e = WorkflowEngine::new("e1");
        let pid = e.start_process(&def).unwrap();
        let r = e.execute_activity(pid, "plan", "alice", &[("n".into(), "3".into())]).unwrap();
        assert_eq!(r.targets, vec!["review"]);
        for (i, next) in ["review", "review", "close"].into_iter().enumerate() {
            let verdict = [("verdict".into(), format!("v{i}"))];
            let r = e.execute_activity(pid, "review", "bob", &verdict).unwrap();
            assert_eq!(r.targets, vec![next], "after instance {i}");
        }
        assert_eq!(e.get_instance(pid).unwrap().latest_iter("review"), Some(2));
    }

    #[test]
    fn wrong_participant_rejected() {
        let e = WorkflowEngine::new("e1");
        let pid = e.start_process(&def()).unwrap();
        assert!(e
            .execute_activity(pid, "submit", "mallory", &[("amount".into(), "1".into())])
            .is_err());
    }

    #[test]
    fn unknown_process_rejected() {
        let e = WorkflowEngine::new("e1");
        assert_eq!(
            e.execute_activity(999, "submit", "alice", &[]).unwrap_err(),
            EngineError::UnknownProcess(999)
        );
    }

    /// The paper's core negative claim: a superuser rewrites history and the
    /// stored instance offers no way to detect it.
    #[test]
    fn superuser_tampering_is_undetectable() {
        let e = WorkflowEngine::new("e1");
        let pid = e.start_process(&def()).unwrap();
        e.execute_activity(pid, "submit", "alice", &[("amount".into(), "100".into())]).unwrap();
        let before = e.get_instance(pid).unwrap();

        // Admin changes alice's 100 to 1000000 and rewrites the log.
        let su = e.superuser();
        su.alter_result(pid, "submit", "amount", "1000000").unwrap();
        su.rewrite_log(
            pid,
            vec!["process started on engine e1".into(), "submit#0 executed by alice".into()],
        )
        .unwrap();

        let after = e.get_instance(pid).unwrap();
        assert_eq!(after.field("submit", "amount"), Some("1000000"));
        // Nothing in the instance distinguishes tampered from genuine:
        // identical structure, identical log shape, no cryptographic anchor.
        assert_eq!(before.log, after.log, "log rewritten to look identical");
        assert_eq!(before.results.len(), after.results.len());
        // Alice can repudiate ("I never entered 1000000") — and equally, the
        // company cannot prove she did not. Compare with the DRA4WfMS
        // integration test `tamper.rs`, where the same rewrite is detected.
    }

    #[test]
    fn superuser_can_reassign_blame() {
        let e = WorkflowEngine::new("e1");
        let pid = e.start_process(&def()).unwrap();
        e.execute_activity(pid, "submit", "alice", &[("amount".into(), "1".into())]).unwrap();
        e.superuser().alter_participant(pid, "submit", "mallory").unwrap();
        assert_eq!(e.get_instance(pid).unwrap().results[0].participant, "mallory");
    }

    #[test]
    fn engine_enforces_and_join() {
        use dra4wfms_core::model::{Activity, JoinKind};
        let def = WorkflowDefinition::builder("diamond", "designer")
            .simple_activity("a", "p", &["x"])
            .simple_activity("b1", "q", &["y"])
            .simple_activity("b2", "r", &["z"])
            .activity(Activity {
                id: "join".into(),
                participant: "s".into(),
                join: JoinKind::All,
                requests: vec![],
                responses: vec!["w".into()],
            })
            .flow("a", "b1")
            .flow("a", "b2")
            .flow("b1", "join")
            .flow("b2", "join")
            .flow_end("join")
            .build()
            .unwrap();
        let e = WorkflowEngine::new("e");
        let pid = e.start_process(&def).unwrap();
        e.execute_activity(pid, "a", "p", &[("x".into(), "1".into())]).unwrap();
        e.execute_activity(pid, "b1", "q", &[("y".into(), "2".into())]).unwrap();
        // join not ready: b2 missing
        assert!(e.execute_activity(pid, "join", "s", &[("w".into(), "4".into())]).is_err());
        e.execute_activity(pid, "b2", "r", &[("z".into(), "3".into())]).unwrap();
        let route = e.execute_activity(pid, "join", "s", &[("w".into(), "4".into())]).unwrap();
        assert!(route.ends);
    }

    #[test]
    fn unknown_activity_rejected() {
        let e = WorkflowEngine::new("e");
        let pid = e.start_process(&def()).unwrap();
        assert!(e.execute_activity(pid, "ghost", "alice", &[]).is_err());
    }

    #[test]
    fn instance_size_grows_with_results() {
        let e = WorkflowEngine::new("e");
        let pid = e.start_process(&def()).unwrap();
        let s0 = e.get_instance(pid).unwrap().approx_size();
        e.execute_activity(pid, "submit", "alice", &[("amount".into(), "x".repeat(500))]).unwrap();
        let s1 = e.get_instance(pid).unwrap().approx_size();
        assert!(s1 > s0 + 400, "migration cost tracks payload size");
    }

    #[test]
    fn migration_take_install() {
        let e1 = WorkflowEngine::new("e1");
        let e2 = WorkflowEngine::new("e2");
        let pid = e1.start_process(&def()).unwrap();
        let inst = e1.take_instance(pid).unwrap();
        assert_eq!(e1.instance_count(), 0);
        e2.install_instance(inst);
        assert_eq!(e2.instance_count(), 1);
        // e2 can continue the process
        e2.execute_activity(pid, "submit", "alice", &[("amount".into(), "5".into())]).unwrap();
    }
}
