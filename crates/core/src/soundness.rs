//! Design-time soundness analysis of a workflow definition.
//!
//! Builds a Petri-net-style reachability graph from the signed definition
//! (tokens live on control-flow edges; activities are transitions) and
//! rejects models that can deadlock, leave an activity dead, accumulate
//! unbounded tokens on a join, deliver twice at once to an Any-join, or
//! cancel a region another branch still depends on — *before* the process is admitted to the cloud, with a
//! precise diagnostic naming the offending construct.
//!
//! The net and its firing rules are [`crate::semantics`]'s — the ones the
//! AEA, the TFC, the scheduler and `reconcile` apply at run time. This
//! module explores them: guard valuations are enumerated per firing (the
//! guarded fields of a decision each take every constant compared against
//! plus one fresh "other" value, so complementary guards (`== v` / `!= v`)
//! never produce the impossible both-true or both-false worlds), and every
//! reachable marking must lead to the empty one. A marking does not
//! remember the values earlier firings chose, so two firings that read the
//! same field are judged independently: correlated guards on concurrent
//! branches can be rejected although no real run misbehaves.
//!
//! Multi-instance activities expand in place, so they do not change
//! reachability — but they, OR-joins, and cancellation regions are barred
//! from control-flow cycles, where iteration counts become ambiguous and
//! the synchronizing merge turns into the classic vicious circle.

use crate::error::{WfError, WfResult};
use crate::fields::FieldReader;
use crate::model::{ActivityId, Condition, JoinKind, WorkflowDefinition};
use crate::semantics::{cancelled, guards, route, Marking, Net};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Hard cap on distinct markings explored before the analysis gives up and
/// declares the definition unsound by state-space explosion.
pub const MAX_STATES: usize = 50_000;

/// Hard cap on tokens per edge; exceeding it means a join or loop
/// accumulates work without bound.
pub const MAX_TOKENS_PER_EDGE: u8 = 4;

/// A soundness violation, naming the offending construct.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SoundnessError {
    /// A reachable marking has pending work but no activity can ever fire.
    Deadlock {
        /// Activities with work delivered that will never execute.
        waiting: Vec<ActivityId>,
    },
    /// The activity can never fire in any reachable execution (typically an
    /// AND-join whose branches are never simultaneously live).
    DeadActivity(ActivityId),
    /// Tokens accumulate without bound on a control-flow edge.
    Unbounded {
        /// Source of the edge (`"#start"` for the virtual start edge).
        from: String,
        /// The activity whose input accumulates.
        to: ActivityId,
    },
    /// A cancellation region removes a branch an AND-join outside the
    /// region still waits for: the join would starve forever.
    CancellationOrphans {
        /// The cancelling trigger.
        trigger: ActivityId,
        /// The AND-join left waiting.
        join: ActivityId,
        /// The cancelled predecessor branch.
        branch: ActivityId,
    },
    /// A multi-instance activity sits on a control-flow cycle, making the
    /// instance count ambiguous with loop iterations.
    MultiInstanceOnCycle(ActivityId),
    /// An OR-join sits on a control-flow cycle (the synchronizing merge's
    /// "can a branch still deliver?" question becomes circular).
    OrJoinOnCycle(ActivityId),
    /// A cancellation trigger or region member sits on a control-flow
    /// cycle, making "work pending in the region" ambiguous across
    /// iterations.
    CancellationOnCycle {
        /// The trigger of the offending region.
        trigger: ActivityId,
        /// The on-cycle trigger or member.
        member: ActivityId,
    },
    /// A reachable marking delivers two documents to one Any-join at once:
    /// both copies would execute as the same iteration.
    ConcurrentDelivery {
        /// The Any-join that would run twice.
        activity: ActivityId,
    },
    /// The reachability graph exceeded [`MAX_STATES`] distinct markings.
    StateSpaceExceeded {
        /// Markings explored before giving up.
        states: usize,
    },
    /// The definition failed structural validation before analysis began.
    Invalid(String),
}

impl std::fmt::Display for SoundnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SoundnessError::Deadlock { waiting } => {
                write!(f, "deadlock: work delivered to [{}] can never execute", waiting.join(", "))
            }
            SoundnessError::DeadActivity(a) => {
                write!(f, "dead activity '{a}': no reachable execution ever fires it")
            }
            SoundnessError::Unbounded { from, to } => {
                write!(f, "unbounded accumulation on edge {from} -> {to}")
            }
            SoundnessError::CancellationOrphans { trigger, join, branch } => {
                write!(
                    f,
                    "cancellation by '{trigger}' orphans AND-join '{join}': branch '{branch}' is cancelled but the join still waits for it"
                )
            }
            SoundnessError::MultiInstanceOnCycle(a) => {
                write!(f, "multi-instance activity '{a}' lies on a control-flow cycle")
            }
            SoundnessError::OrJoinOnCycle(a) => {
                write!(f, "OR-join '{a}' lies on a control-flow cycle")
            }
            SoundnessError::CancellationOnCycle { trigger, member } => {
                write!(
                    f,
                    "cancellation region of '{trigger}' touches '{member}', which lies on a control-flow cycle"
                )
            }
            SoundnessError::ConcurrentDelivery { activity } => {
                write!(f, "two documents reach Any-join '{activity}' at once; both would run as one iteration")
            }
            SoundnessError::StateSpaceExceeded { states } => {
                write!(f, "state space exceeded {states} markings; definition too wild to certify")
            }
            SoundnessError::Invalid(m) => write!(f, "structurally invalid definition: {m}"),
        }
    }
}

impl std::error::Error for SoundnessError {}

impl From<SoundnessError> for WfError {
    fn from(e: SoundnessError) -> WfError {
        WfError::Unsound(e.to_string())
    }
}

/// Statistics from a successful soundness analysis. All counts are
/// deterministic functions of the definition, so they double as
/// regression-gate metrics.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct SoundnessReport {
    /// Distinct markings explored.
    pub states_explored: usize,
    /// Activities that fired in at least one execution (== all of them).
    pub activities_fired: usize,
    /// Terminal markings reached (all of them empty).
    pub terminals: usize,
}

/// The truth assignment of one decision: for every `(activity, field)`
/// consulted by the firing activity's outgoing guards or cancellations, one
/// of the constants it is compared against or the fresh value `"#other"`.
struct World(BTreeMap<(String, String), String>);

impl FieldReader for World {
    fn read_field(&self, activity: &str, field: &str) -> WfResult<Option<String>> {
        Ok(self.0.get(&(activity.to_string(), field.to_string())).cloned())
    }
}

/// Enumerate consistent valuations over the given conditions: each guarded
/// field takes every constant it is compared against plus `"#other"`.
fn valuations(conds: &[&Condition]) -> Vec<World> {
    let mut domains: BTreeMap<(String, String), BTreeSet<&str>> = BTreeMap::new();
    for c in conds {
        domains.entry((c.activity.clone(), c.field.clone())).or_default().insert(&c.equals);
    }
    let mut worlds = vec![BTreeMap::new()];
    for (key, constants) in &domains {
        let mut next = Vec::new();
        for world in &worlds {
            for value in constants.iter().chain(std::iter::once(&"#other")) {
                let mut w = world.clone();
                w.insert(key.clone(), value.to_string());
                next.push(w);
            }
        }
        worlds = next;
    }
    worlds.into_iter().map(World).collect()
}

/// Run the full soundness analysis. `Ok` carries deterministic exploration
/// statistics; `Err` is the first violation found, with structural checks
/// (cycle interactions, orphaning cancellations) reported before the
/// reachability search runs.
pub fn check_soundness(def: &WorkflowDefinition) -> Result<SoundnessReport, SoundnessError> {
    def.validate().map_err(|e| SoundnessError::Invalid(e.to_string()))?;
    check_net(def, &Net::build(def))
}

/// [`check_soundness`] of a definition already validated, over its net.
pub(crate) fn check_net(
    def: &WorkflowDefinition,
    net: &Net,
) -> Result<SoundnessReport, SoundnessError> {
    // -- structural rules ----------------------------------------------------
    if let Some(m) = def.multi.iter().find(|m| net.cyclic(&m.activity)) {
        return Err(SoundnessError::MultiInstanceOnCycle(m.activity.clone()));
    }
    if let Some(a) = def.activities.iter().find(|a| a.join == JoinKind::Or && net.cyclic(&a.id)) {
        return Err(SoundnessError::OrJoinOnCycle(a.id.clone()));
    }
    for c in &def.cancellations {
        for member in std::iter::once(&c.trigger).chain(&c.region) {
            if net.cyclic(member) {
                return Err(SoundnessError::CancellationOnCycle {
                    trigger: c.trigger.clone(),
                    member: member.clone(),
                });
            }
        }
    }
    // cancelling a branch an AND-join outside the region still waits for
    for c in &def.cancellations {
        for a in &def.activities {
            if a.join != JoinKind::All || c.region.contains(&a.id) {
                continue;
            }
            let incoming = def.incoming(&a.id);
            let cancelled: Vec<&&String> =
                incoming.iter().filter(|p| c.region.contains(p)).collect();
            if !cancelled.is_empty() && cancelled.len() < incoming.len() {
                return Err(SoundnessError::CancellationOrphans {
                    trigger: c.trigger.clone(),
                    join: a.id.clone(),
                    branch: cancelled[0].to_string(),
                });
            }
        }
    }

    // -- reachability: a BFS over `Net::enabled` and `Net::fire` -------------
    let mut visited: BTreeSet<Marking> = BTreeSet::new();
    let mut queue: VecDeque<Marking> = VecDeque::from([net.initial()]);
    let mut fired: BTreeSet<&str> = BTreeSet::new();
    let mut terminals = 0usize;

    while let Some(marking) = queue.pop_front() {
        if !visited.insert(marking.clone()) {
            continue;
        }
        if visited.len() > MAX_STATES {
            return Err(SoundnessError::StateSpaceExceeded { states: visited.len() });
        }
        let mut any_enabled = false;
        for act in &def.activities {
            if !net.enabled(&marking, &act.id) {
                continue;
            }
            any_enabled = true;
            fired.insert(act.id.as_str());
            // every guard this firing decides, under one consistent world
            for world in valuations(&guards(def, &act.id)) {
                // no transition enabled in this world: the run fails there
                // (the fuzzer exercises it), so the world has no successor
                let Ok(route) = route(def, &act.id, None, &world) else { continue };
                let cancel = cancelled(def, &act.id, &world)
                    .map_err(|e| SoundnessError::Invalid(e.to_string()))?;
                let next = net.fire(&marking, &act.id, &route, &cancel)?;
                if !visited.contains(&next) {
                    queue.push_back(next);
                }
            }
        }
        if !any_enabled {
            let pending = net.waiting(&marking);
            if pending.is_empty() {
                terminals += 1; // proper completion: no tokens left
            } else {
                return Err(SoundnessError::Deadlock { waiting: pending });
            }
        }
    }

    if let Some(a) = def.activities.iter().find(|a| !fired.contains(a.id.as_str())) {
        return Err(SoundnessError::DeadActivity(a.id.clone()));
    }

    Ok(SoundnessReport { states_explored: visited.len(), activities_fired: fired.len(), terminals })
}

/// Convenience wrapper returning [`WfError::Unsound`] for admission paths.
pub fn require_sound(def: &WorkflowDefinition) -> WfResult<SoundnessReport> {
    check_soundness(def).map_err(WfError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Activity, Condition, FieldRef, WorkflowDefinition};

    fn act(id: &str, participant: &str, join: JoinKind, responses: &[&str]) -> Activity {
        Activity {
            id: id.into(),
            participant: participant.into(),
            join,
            requests: vec![],
            responses: responses.iter().map(|s| s.to_string()).collect(),
        }
    }

    fn fig9a() -> WorkflowDefinition {
        WorkflowDefinition::builder("fig9a", "designer")
            .simple_activity("A", "p_a", &["attachment"])
            .simple_activity("B1", "p_b1", &["review1"])
            .simple_activity("B2", "p_b2", &["review2"])
            .activity(act("C", "p_c", JoinKind::All, &["decision"]))
            .simple_activity("D", "p_d", &["ack"])
            .flow("A", "B1")
            .flow("A", "B2")
            .flow("B1", "C")
            .flow("B2", "C")
            .flow_if("C", "A", Condition::field_equals("C", "decision", "insufficient"))
            .flow_if("C", "D", Condition::field_not_equals("C", "decision", "insufficient"))
            .flow_end("D")
            .build()
            .unwrap()
    }

    #[test]
    fn fig9a_is_sound() {
        let report = check_soundness(&fig9a()).unwrap();
        assert!(report.states_explored > 0);
        assert_eq!(report.activities_fired, 5);
        assert!(report.terminals > 0);
    }

    #[test]
    fn linear_is_sound() {
        let def = WorkflowDefinition::builder("lin", "d")
            .simple_activity("A", "p", &["x"])
            .simple_activity("B", "q", &[])
            .flow("A", "B")
            .flow_end("B")
            .build()
            .unwrap();
        check_soundness(&def).unwrap();
    }

    #[test]
    fn and_join_with_conditional_branch_deadlocks() {
        // A -> B always, A -> C only conditionally; J = All-join(B, C).
        // In the world where the condition is false, J starves on C.
        let def = WorkflowDefinition::builder("dead", "d")
            .simple_activity("A", "p", &["mode"])
            .simple_activity("B", "q", &["x"])
            .simple_activity("C", "r", &["y"])
            .activity(act("J", "s", JoinKind::All, &[]))
            .flow("A", "B")
            .flow_if("A", "C", Condition::field_equals("A", "mode", "both"))
            .flow_end_if("A", Condition::field_not_equals("A", "mode", "both"))
            .flow("B", "J")
            .flow("C", "J")
            .flow_end("J")
            .build()
            .unwrap();
        let err = check_soundness(&def).unwrap_err();
        assert!(
            matches!(err, SoundnessError::Deadlock { ref waiting } if waiting.contains(&"J".to_string())),
            "{err}"
        );
    }

    #[test]
    fn or_join_with_conditional_branch_is_sound() {
        // Same shape as the deadlock case, but J is a synchronizing merge:
        // it fires with whatever arrived once C can no longer deliver.
        let def = WorkflowDefinition::builder("sound-or", "d")
            .simple_activity("A", "p", &["mode"])
            .simple_activity("B", "q", &["x"])
            .simple_activity("C", "r", &["y"])
            .activity(act("J", "s", JoinKind::Or, &[]))
            .flow("A", "B")
            .flow_if("A", "C", Condition::field_equals("A", "mode", "both"))
            .flow("B", "J")
            .flow("C", "J")
            .flow_end("J")
            .build()
            .unwrap();
        let report = check_soundness(&def).unwrap();
        assert_eq!(report.activities_fired, 4);
    }

    #[test]
    fn dead_and_join_detected() {
        // J joins B with itself via two edges from exclusive branches:
        // B -> J and C -> J where B and C are exclusive — J never fires.
        let def = WorkflowDefinition::builder("deadact", "d")
            .simple_activity("A", "p", &["mode"])
            .simple_activity("B", "q", &["x"])
            .simple_activity("C", "r", &["y"])
            .activity(act("J", "s", JoinKind::All, &[]))
            .flow_if("A", "B", Condition::field_equals("A", "mode", "left"))
            .flow_if("A", "C", Condition::field_not_equals("A", "mode", "left"))
            .flow("B", "J")
            .flow("C", "J")
            .flow_end("J")
            .build()
            .unwrap();
        let err = check_soundness(&def).unwrap_err();
        // The branch that arrives at J parks forever: deadlock, with the
        // specific waiter named.
        assert!(
            matches!(err, SoundnessError::Deadlock { ref waiting } if waiting == &["J"]),
            "{err}"
        );
    }

    #[test]
    fn unbounded_join_detected() {
        // A loop that AND-splits into a branch that is never joined back:
        // every lap parks one more token at J, which waits for its second
        // input that only arrives next lap.
        let def = WorkflowDefinition::builder("unbounded", "d")
            .simple_activity("A", "p", &["go"])
            .simple_activity("B", "q", &["x"])
            .activity(act("J", "s", JoinKind::All, &[]))
            .flow("A", "B")
            .flow("A", "J")
            .flow_if("B", "A", Condition::field_equals("B", "x", "again"))
            .flow_if("B", "J", Condition::field_not_equals("B", "x", "again"))
            .flow_end("J")
            .build()
            .unwrap();
        let err = check_soundness(&def).unwrap_err();
        assert!(
            matches!(err, SoundnessError::Unbounded { .. } | SoundnessError::Deadlock { .. }),
            "{err}"
        );
    }

    #[test]
    fn orphaning_cancellation_detected() {
        let def = WorkflowDefinition::builder("orphan", "d")
            .simple_activity("A", "p", &[])
            .simple_activity("B", "q", &["x"])
            .simple_activity("C", "r", &["y"])
            .activity(act("J", "s", JoinKind::All, &[]))
            .flow("A", "B")
            .flow("A", "C")
            .flow("B", "J")
            .flow("C", "J")
            .flow_end("J")
            .cancel_on("B", &["C"])
            .build()
            .unwrap();
        let err = check_soundness(&def).unwrap_err();
        assert_eq!(
            err,
            SoundnessError::CancellationOrphans {
                trigger: "B".into(),
                join: "J".into(),
                branch: "C".into()
            }
        );
    }

    #[test]
    fn sound_cancellation_of_or_join_branch() {
        let def = WorkflowDefinition::builder("cancel-ok", "d")
            .simple_activity("A", "p", &[])
            .simple_activity("B", "q", &["x"])
            .simple_activity("C", "r", &["y"])
            .activity(act("J", "s", JoinKind::Or, &[]))
            .flow("A", "B")
            .flow("A", "C")
            .flow("B", "J")
            .flow("C", "J")
            .flow_end("J")
            .cancel_on("B", &["C"])
            .build()
            .unwrap();
        check_soundness(&def).unwrap();
    }

    #[test]
    fn loop_fed_or_join_is_sound() {
        // A -> {L, Y}; L -> J always and L -> M -> L while L says "again";
        // J (or) -> K (all) <- Y. J waits until the loop has settled, so it
        // fires once and K sees one token per in-edge.
        let def = WorkflowDefinition::builder("loop-or", "d")
            .simple_activity("A", "p", &[])
            .simple_activity("L", "q", &["f"])
            .simple_activity("M", "r", &[])
            .simple_activity("Y", "s", &[])
            .activity(act("J", "p", JoinKind::Or, &[]))
            .activity(act("K", "q", JoinKind::All, &[]))
            .flow("A", "L")
            .flow("A", "Y")
            .flow("L", "J")
            .flow_if("L", "M", Condition::field_equals("L", "f", "again"))
            .flow("M", "L")
            .flow("J", "K")
            .flow("Y", "K")
            .flow_end("K")
            .build()
            .unwrap();
        assert_eq!(check_soundness(&def).unwrap().activities_fired, 6);
    }

    #[test]
    fn concurrent_delivery_to_an_any_join_rejected() {
        // A -> B and A -> X -> B: two copies reach B, each would run B#0
        let def = WorkflowDefinition::builder("twice", "d")
            .simple_activity("A", "p", &[])
            .simple_activity("B", "q", &[])
            .simple_activity("X", "r", &[])
            .flow("A", "B")
            .flow("A", "X")
            .flow("X", "B")
            .flow_end("B")
            .build()
            .unwrap();
        assert_eq!(
            check_soundness(&def).unwrap_err(),
            SoundnessError::ConcurrentDelivery { activity: "B".into() }
        );
    }

    #[test]
    fn self_edge_beside_an_and_split_rejected() {
        // A -> A while A says "again", and A -> B always: a second pass of
        // A sends B a second copy while the first still waits
        let def = WorkflowDefinition::builder("self-edge", "d")
            .simple_activity("A", "p", &["f"])
            .simple_activity("B", "q", &[])
            .flow_if("A", "A", Condition::field_equals("A", "f", "again"))
            .flow("A", "B")
            .flow_end("B")
            .build()
            .unwrap();
        assert_eq!(
            check_soundness(&def).unwrap_err(),
            SoundnessError::ConcurrentDelivery { activity: "B".into() }
        );
    }

    #[test]
    fn correlated_guards_are_judged_independently() {
        // A -> {B1, B2}; B1 -> D when A.m == x, B2 -> D when A.m != x, else
        // End. Every real run delivers to D once, but each firing draws a
        // fresh guard world, so the analysis pairs B1's `x` with B2's
        // `#other` and sees two copies at D: a known false rejection.
        let def = WorkflowDefinition::builder("correlated", "d")
            .simple_activity("A", "p", &["m"])
            .simple_activity("B1", "q", &[])
            .simple_activity("B2", "r", &[])
            .simple_activity("D", "s", &[])
            .flow("A", "B1")
            .flow("A", "B2")
            .flow_if("B1", "D", Condition::field_equals("A", "m", "x"))
            .flow_end_if("B1", Condition::field_not_equals("A", "m", "x"))
            .flow_if("B2", "D", Condition::field_not_equals("A", "m", "x"))
            .flow_end_if("B2", Condition::field_equals("A", "m", "x"))
            .flow_end("D")
            .build()
            .unwrap();
        assert_eq!(
            check_soundness(&def).unwrap_err(),
            SoundnessError::ConcurrentDelivery { activity: "D".into() }
        );
    }

    #[test]
    fn multi_instance_on_cycle_rejected() {
        let def = WorkflowDefinition::builder("mi-cycle", "d")
            .simple_activity("A", "p", &["x"])
            .simple_activity("B", "q", &["y"])
            .flow("A", "B")
            .flow_if("B", "A", Condition::field_equals("B", "y", "again"))
            .flow_end_if("B", Condition::field_not_equals("B", "y", "again"))
            .multi_static("B", 3)
            .build()
            .unwrap();
        assert_eq!(
            check_soundness(&def).unwrap_err(),
            SoundnessError::MultiInstanceOnCycle("B".into())
        );
    }

    #[test]
    fn or_join_on_cycle_rejected() {
        let def = WorkflowDefinition::builder("or-cycle", "d")
            .simple_activity("A", "p", &["x"])
            .activity(act("J", "q", JoinKind::Or, &["y"]))
            .flow("A", "J")
            .flow_if("J", "A", Condition::field_equals("J", "y", "again"))
            .flow_end_if("J", Condition::field_not_equals("J", "y", "again"))
            .build()
            .unwrap();
        assert_eq!(check_soundness(&def).unwrap_err(), SoundnessError::OrJoinOnCycle("J".into()));
    }

    #[test]
    fn cancellation_on_cycle_rejected() {
        let def = WorkflowDefinition::builder("cx-cycle", "d")
            .simple_activity("A", "p", &["x"])
            .simple_activity("B", "q", &["y"])
            .simple_activity("C", "r", &["z"])
            .flow("A", "B")
            .flow("A", "C")
            .flow_if("B", "A", Condition::field_equals("B", "y", "again"))
            .flow_end_if("B", Condition::field_not_equals("B", "y", "again"))
            .flow_end("C")
            .cancel_on("C", &["B"])
            .build()
            .unwrap();
        let err = check_soundness(&def).unwrap_err();
        assert!(matches!(err, SoundnessError::CancellationOnCycle { .. }), "{err}");
    }

    #[test]
    fn multi_instance_is_sound_off_cycle() {
        let def = WorkflowDefinition::builder("mi", "d")
            .simple_activity("A", "p", &["n"])
            .simple_activity("B", "q", &["part"])
            .simple_activity("C", "r", &[])
            .flow("A", "B")
            .flow("B", "C")
            .flow_end("C")
            .multi_runtime("B", "A", "n")
            .build()
            .unwrap();
        check_soundness(&def).unwrap();
        // runtime cardinality field is part of the routing inputs
        assert!(def.condition_fields().contains(&FieldRef::new("A", "n")));
    }

    #[test]
    fn invalid_definition_reported_as_invalid() {
        let mut def = fig9a();
        def.start = "GHOST".into();
        assert!(matches!(check_soundness(&def).unwrap_err(), SoundnessError::Invalid(_)));
    }

    #[test]
    fn report_is_deterministic() {
        let a = check_soundness(&fig9a()).unwrap();
        let b = check_soundness(&fig9a()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn require_sound_maps_to_wferror() {
        let def = WorkflowDefinition::builder("orphan", "d")
            .simple_activity("A", "p", &[])
            .simple_activity("B", "q", &[])
            .simple_activity("C", "r", &[])
            .activity(act("J", "s", JoinKind::All, &[]))
            .flow("A", "B")
            .flow("A", "C")
            .flow("B", "J")
            .flow("C", "J")
            .flow_end("J")
            .cancel_on("B", &["C"])
            .build()
            .unwrap();
        let err = require_sound(&def).unwrap_err();
        assert!(matches!(err, WfError::Unsound(ref m) if m.contains("orphans")), "{err}");
    }
}
