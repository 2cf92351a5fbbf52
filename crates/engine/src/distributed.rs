//! The engine-based *distributed* WfMS (Fig. 1B): multiple engines, process
//! instance migration, and the coherence protocol the paper identifies as
//! the scalability bottleneck.
//!
//! Each process instance has exactly one owning engine (single-primary
//! coherence). Executing an activity at a non-owner engine forces a
//! migration: the instance is removed from the owner, transferred (cost
//! proportional to its serialized size — the paper notes "the workflow
//! process instances must be transmitted during their execution"), and
//! installed at the requester. The global ownership map is the shared
//! structure every cross-engine access serializes on.

use crate::engine::{EngineError, WorkflowEngine};
use dra4wfms_core::model::WorkflowDefinition;
use dra4wfms_core::semantics::Route;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A distributed engine-based WfMS deployment.
pub struct DistributedWfms {
    /// The engines (one per "location").
    pub engines: Vec<Arc<WorkflowEngine>>,
    /// pid → index of the owning engine. Every cross-engine execution takes
    /// this lock: the coherence bottleneck.
    ownership: Mutex<HashMap<u64, usize>>,
    /// Completed instance migrations.
    pub migrations: AtomicUsize,
    /// Total bytes "transferred" by migrations.
    pub migrated_bytes: AtomicUsize,
}

impl DistributedWfms {
    /// Create a deployment of `n` engines.
    pub fn new(n: usize) -> DistributedWfms {
        assert!(n >= 1, "need at least one engine");
        DistributedWfms {
            engines: (0..n).map(|i| Arc::new(WorkflowEngine::new(format!("engine-{i}")))).collect(),
            ownership: Mutex::new(HashMap::new()),
            migrations: AtomicUsize::new(0),
            migrated_bytes: AtomicUsize::new(0),
        }
    }

    /// Start a process on the least-loaded engine (the paper's load
    /// balancing \[14\]); returns (pid, engine index).
    pub fn start_process(&self, def: &WorkflowDefinition) -> Result<(u64, usize), EngineError> {
        let idx = self.least_loaded();
        let pid = self.engines[idx].start_process(def)?;
        self.lock().insert(pid, idx);
        Ok((pid, idx))
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<u64, usize>> {
        self.ownership.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn least_loaded(&self) -> usize {
        self.engines
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.instance_count())
            .map(|(i, _)| i)
            .expect("non-empty")
    }

    /// Execute an activity at engine `at` (participants connect to the
    /// engine of their own organization). Migrates the instance first when
    /// `at` is not the current owner.
    pub fn execute_at(
        &self,
        at: usize,
        pid: u64,
        activity: &str,
        participant: &str,
        responses: &[(String, String)],
    ) -> Result<Route, EngineError> {
        assert!(at < self.engines.len(), "engine index in range");
        {
            // coherence: resolve/transfer ownership under the global lock
            let mut ownership = self.lock();
            let owner = *ownership.get(&pid).ok_or(EngineError::UnknownProcess(pid))?;
            if owner != at {
                let instance = self.engines[owner].take_instance(pid)?;
                self.migrated_bytes.fetch_add(instance.approx_size(), Ordering::Relaxed);
                self.engines[at].install_instance(instance);
                ownership.insert(pid, at);
                self.migrations.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.engines[at].execute_activity(pid, activity, participant, responses)
    }

    /// Current owner of a process instance.
    pub fn owner_of(&self, pid: u64) -> Option<usize> {
        self.lock().get(&pid).copied()
    }

    /// Read an instance (from its current owner).
    pub fn get_instance(&self, pid: u64) -> Result<crate::engine::ProcessInstance, EngineError> {
        let owner = self.lock().get(&pid).copied().ok_or(EngineError::UnknownProcess(pid))?;
        self.engines[owner].get_instance(pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dra4wfms_core::model::WorkflowDefinition;

    fn def() -> WorkflowDefinition {
        WorkflowDefinition::builder("cross-ent", "designer")
            .simple_activity("a1", "alice", &["x"])
            .simple_activity("a2", "bob", &["y"])
            .simple_activity("a3", "carol", &["z"])
            .flow("a1", "a2")
            .flow("a2", "a3")
            .flow_end("a3")
            .build()
            .unwrap()
    }

    #[test]
    fn cross_engine_execution_migrates() {
        let d = DistributedWfms::new(3);
        let (pid, start_idx) = d.start_process(&def()).unwrap();
        // alice at engine 0, bob at 1, carol at 2 (their own organizations)
        d.execute_at(0, pid, "a1", "alice", &[("x".into(), "1".into())]).unwrap();
        d.execute_at(1, pid, "a2", "bob", &[("y".into(), "2".into())]).unwrap();
        let r = d.execute_at(2, pid, "a3", "carol", &[("z".into(), "3".into())]).unwrap();
        assert!(r.ends);
        assert_eq!(d.owner_of(pid), Some(2));
        let expected_migrations = if start_idx == 0 { 2 } else { 3 };
        assert_eq!(d.migrations.load(Ordering::Relaxed), expected_migrations);
        assert!(d.migrated_bytes.load(Ordering::Relaxed) > 0);
        let inst = d.get_instance(pid).unwrap();
        assert_eq!(inst.results.len(), 3);
    }

    #[test]
    fn same_engine_needs_no_migration() {
        let d = DistributedWfms::new(2);
        let (pid, idx) = d.start_process(&def()).unwrap();
        d.execute_at(idx, pid, "a1", "alice", &[("x".into(), "1".into())]).unwrap();
        d.execute_at(idx, pid, "a2", "bob", &[("y".into(), "2".into())]).unwrap();
        assert_eq!(d.migrations.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn load_balancing_spreads_instances() {
        let d = DistributedWfms::new(4);
        for _ in 0..20 {
            d.start_process(&def()).unwrap();
        }
        for e in &d.engines {
            assert_eq!(e.instance_count(), 5, "perfectly balanced start load");
        }
    }

    #[test]
    fn unknown_pid_rejected() {
        let d = DistributedWfms::new(1);
        assert!(matches!(
            d.execute_at(0, 42, "a1", "alice", &[]),
            Err(EngineError::UnknownProcess(42))
        ));
    }

    #[test]
    fn concurrent_cross_engine_contention_is_safe() {
        // Many threads executing different processes across engines: the
        // ownership lock serializes migrations but the result must be
        // consistent (every execution recorded exactly once).
        let d = Arc::new(DistributedWfms::new(4));
        let defs = def();
        let pids: Vec<u64> = (0..16).map(|_| d.start_process(&defs).unwrap().0).collect();
        std::thread::scope(|s| {
            for (i, &pid) in pids.iter().enumerate() {
                let d = Arc::clone(&d);
                s.spawn(move || {
                    d.execute_at(i % 4, pid, "a1", "alice", &[("x".into(), "1".into())]).unwrap();
                    d.execute_at((i + 1) % 4, pid, "a2", "bob", &[("y".into(), "2".into())])
                        .unwrap();
                    d.execute_at((i + 2) % 4, pid, "a3", "carol", &[("z".into(), "3".into())])
                        .unwrap();
                });
            }
        });
        for pid in pids {
            assert_eq!(d.get_instance(pid).unwrap().results.len(), 3);
        }
    }
}
