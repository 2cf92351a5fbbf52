//! The transition relation of a workflow definition: when an activity may
//! fire and where its document goes next.
//!
//! In an engine-less WfMS whoever finishes an activity "checks the control
//! flow information defined in the workflow definition and forwards" the
//! document (§2.1), so every actor must read the definition the same way.
//! This module is the one reading: the AEA and the TFC route with
//! [`route`], the scheduler parks joins with [`and_join_missing`] and
//! [`Net::reaches`] and withdraws work with [`cancelled`], `reconcile`
//! adds the cascade's [`cancelled_before`] and [`or_join_early`], and
//! `soundness` explores [`Net::enabled`] and [`Net::fire`] per guard world.
//!
//! The net has one place per control-flow edge (place 0 is the virtual edge
//! into the start activity) and one transition per activity:
//!
//! * **Any-join** — one waiting token enables the activity. Two tokens
//!   waiting at once would be two copies that each execute as the same
//!   iteration, so [`Net::fire`] refuses to produce that marking
//!   ([`SoundnessError::ConcurrentDelivery`]).
//! * **All-join** — enabled with a token on every in-edge; firing consumes
//!   one from each (the branch documents are merged).
//! * **Or-join** (synchronizing merge) — enabled when an in-edge is marked
//!   and no token waits at any activity upstream of the join. The scheduler
//!   merges the join's whole inbox into one firing, so an in-edge of an
//!   OR-join holds at most one token.
//! * **Multi-instance** — [`route`] sends the document back to the activity
//!   until its instances are done; the net counts the k instances as one
//!   firing.
//! * **Cancellation** — a fired region withdraws every token waiting at its
//!   members: pending work is dropped, completed work is untouched.

use crate::error::{WfError, WfResult};
use crate::fields::{eval_condition, FieldReader};
use crate::model::{
    ActivityId, CancelRegion, Cardinality, Condition, JoinKind, Target, WorkflowDefinition,
};
use crate::soundness::{SoundnessError, MAX_TOKENS_PER_EDGE};
use std::collections::BTreeMap;

/// Where a document goes after an activity completes.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Route {
    /// Activities to forward the document to (≥2 means an AND-split).
    pub targets: Vec<ActivityId>,
    /// True when a transition to End fired — the process (or this branch)
    /// terminates.
    pub ends: bool,
}

impl Route {
    /// No further work: the process ends here.
    pub fn is_final(&self) -> bool {
        self.targets.is_empty()
    }
}

/// Where the document goes once iteration `iter` of `from` completes: back
/// to `from` while a multi-instance activity has instances outstanding,
/// otherwise along every outgoing transition whose guard holds (an activity
/// without outgoing transitions ends the process). `iter = None` routes past
/// every instance, as the net does. Guards and runtime cardinalities are
/// read through `reader`; no enabled transition is an error.
pub fn route(
    def: &WorkflowDefinition,
    from: &str,
    iter: Option<u32>,
    reader: &dyn FieldReader,
) -> WfResult<Route> {
    if let (Some(m), Some(iter)) = (def.multi_for(from), iter) {
        if iter.saturating_add(1) < cardinality(from, &m.cardinality, reader)? {
            return Ok(Route { targets: vec![from.to_string()], ends: false });
        }
    }
    let outgoing = def.outgoing(from);
    let mut route = Route { targets: Vec::new(), ends: outgoing.is_empty() };
    for t in outgoing {
        if t.condition.as_ref().map_or(Ok(true), |c| eval_condition(c, reader))? {
            match &t.to {
                Target::Activity(a) => route.targets.push(a.clone()),
                Target::End => route.ends = true,
            }
        }
    }
    if route.targets.is_empty() && !route.ends {
        return Err(WfError::Flow(format!(
            "no outgoing transition of '{from}' is enabled (conditions all false)"
        )));
    }
    Ok(route)
}

/// The instance count of a multi-instance activity: a static count as-is, a
/// runtime count read through `reader`, which must be an integer ≥ 1.
fn cardinality(activity: &str, c: &Cardinality, reader: &dyn FieldReader) -> WfResult<u32> {
    let r = match c {
        Cardinality::Static(k) => return Ok(*k),
        Cardinality::Runtime(r) => r,
    };
    let field =
        format!("multi-instance '{activity}': cardinality field '{}.{}'", r.activity, r.field);
    let raw = reader
        .read_field(&r.activity, &r.field)?
        .ok_or_else(|| WfError::Flow(format!("{field} not produced")))?;
    match raw.trim().parse::<u32>() {
        Ok(0) => {
            Err(WfError::Flow(format!("multi-instance '{activity}': cardinality resolved to 0")))
        }
        Ok(k) => Ok(k),
        Err(_) => Err(WfError::Flow(format!("{field} = '{raw}' is not an integer"))),
    }
}

/// Whether region `c` fires: its guard holds under `reader` (an absent
/// guard always fires).
fn fires(c: &CancelRegion, reader: &dyn FieldReader) -> WfResult<bool> {
    c.condition.as_ref().map_or(Ok(true), |g| eval_condition(g, reader))
}

/// The cancellation regions the completion of `trigger` fires.
pub fn cancelled<'d>(
    def: &'d WorkflowDefinition,
    trigger: &str,
    reader: &dyn FieldReader,
) -> WfResult<Vec<&'d CancelRegion>> {
    let mut fired = Vec::new();
    for c in def.cancellations.iter().filter(|c| c.trigger == trigger) {
        if fires(c, reader)? {
            fired.push(c);
        }
    }
    Ok(fired)
}

/// The cancellation rule over a cascade: the trigger of the first fired
/// region that contains `act` and whose trigger has `completed`, or `None`.
/// `reader` reads the finished document; a guard it cannot evaluate proves
/// no firing.
pub fn cancelled_before<'d>(
    def: &'d WorkflowDefinition,
    act: &str,
    completed: impl Fn(&str) -> bool,
    reader: &dyn FieldReader,
) -> Option<&'d ActivityId> {
    let hit = |c: &&CancelRegion| c.region.iter().any(|m| m == act) && completed(&c.trigger);
    let mut regions = def.cancellations.iter().filter(hit);
    regions.find(|c| fires(c, reader).unwrap_or(false)).map(|c| &c.trigger)
}

/// Every guard the completion of `act` decides: its outgoing transitions'
/// and those of the cancellation regions it triggers.
pub(crate) fn guards<'d>(def: &'d WorkflowDefinition, act: &str) -> Vec<&'d Condition> {
    let routes = def.outgoing(act).into_iter().filter_map(|t| t.condition.as_ref());
    let cancels = def.cancellations.iter().filter(|c| c.trigger == act);
    let cancels = cancels.filter_map(|c| c.condition.as_ref());
    routes.chain(cancels).collect()
}

/// The AND-join rule over a document: the first incoming branch of `act`
/// that has not executed up to the join's next iteration, or `None` when
/// every branch has delivered — and for any activity that is not an
/// AND-join. `latest_iter` answers the latest executed iteration of an
/// activity in the document (or cascade prefix) being judged.
pub fn and_join_missing<'d>(
    def: &'d WorkflowDefinition,
    act: &str,
    latest_iter: impl Fn(&str) -> WfResult<Option<u32>>,
) -> WfResult<Option<&'d ActivityId>> {
    if def.activity(act)?.join != JoinKind::All {
        return Ok(None);
    }
    let next = latest_iter(act)?.map_or(0, |i| i + 1);
    for branch in def.incoming(act) {
        if latest_iter(branch)?.is_none_or(|i| i < next) {
            return Ok(Some(branch));
        }
    }
    Ok(None)
}

/// The OR-join rule over a cascade: the first incoming branch of `act` that
/// executed only after the join — the merge fired while that branch was
/// still pending upstream — or `None`, always for an activity that is not
/// an OR-join. `before` and `after` answer whether an activity executed
/// before or after the join in the cascade being judged.
pub fn or_join_early<'d>(
    def: &'d WorkflowDefinition,
    act: &str,
    before: impl Fn(&str) -> bool,
    after: impl Fn(&str) -> bool,
) -> WfResult<Option<&'d ActivityId>> {
    if def.activity(act)?.join != JoinKind::Or {
        return Ok(None);
    }
    Ok(def.incoming(act).into_iter().find(|a| !before(a) && after(a)))
}

/// Tokens per place of a [`Net`].
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Marking(Vec<u8>);

/// A definition as a Petri net, with the graph facts its readers ask for
/// computed once: in-edges, and which activity can reach which (so
/// "upstream of" and "on a cycle" are lookups).
#[derive(Debug)]
pub struct Net {
    index: BTreeMap<ActivityId, usize>,
    joins: Vec<JoinKind>,
    /// Whether each activity is multi-instance.
    multi: Vec<bool>,
    /// `(source, target)` per place; the start edge has no source.
    places: Vec<(Option<usize>, usize)>,
    in_edges: Vec<Vec<usize>>,
    /// `reach[a][b]`: a token waiting at `a` can travel on to `b`.
    reach: Vec<Vec<bool>>,
}

impl Net {
    /// The net of `def`. Edges to unknown activities are left out, so a
    /// definition that fails `validate()` still builds.
    pub fn build(def: &WorkflowDefinition) -> Net {
        let n = def.activities.len();
        let index: BTreeMap<ActivityId, usize> =
            def.activities.iter().map(|a| a.id.clone()).zip(0..).collect();
        let at = |id: &str| index.get(id).copied();
        let start = at(&def.start).map(|s| (None, s));
        let edges = def.transitions.iter().filter_map(|t| match &t.to {
            Target::Activity(to) => Some((Some(at(&t.from)?), at(to)?)),
            Target::End => None,
        });
        let places: Vec<(Option<usize>, usize)> = start.into_iter().chain(edges).collect();
        let mut in_edges = vec![Vec::new(); n];
        let mut succ = vec![Vec::new(); n];
        for (p, &(from, to)) in places.iter().enumerate() {
            in_edges[to].push(p);
            if let Some(from) = from {
                succ[from].push(to);
            }
        }
        let reach = (0..n)
            .map(|a| {
                let mut seen = vec![false; n];
                let mut stack = succ[a].clone();
                while let Some(b) = stack.pop() {
                    if !std::mem::replace(&mut seen[b], true) {
                        stack.extend(&succ[b]);
                    }
                }
                seen
            })
            .collect();
        let joins = def.activities.iter().map(|a| a.join).collect();
        let multi = def.activities.iter().map(|a| def.multi_for(&a.id).is_some()).collect();
        Net { index, joins, multi, places, in_edges, reach }
    }

    fn at(&self, act: &str) -> Result<usize, SoundnessError> {
        self.index
            .get(act)
            .copied()
            .ok_or_else(|| SoundnessError::Invalid(format!("unknown activity '{act}'")))
    }

    /// Whether a token waiting at `from` can travel on to `to`: `from` lies
    /// upstream of `to`.
    pub fn reaches(&self, from: &str, to: &str) -> bool {
        match (self.index.get(from), self.index.get(to)) {
            (Some(&a), Some(&b)) => self.reach[a][b],
            _ => false,
        }
    }

    /// Whether `act` lies on a control-flow cycle (can reach itself).
    pub fn cyclic(&self, act: &str) -> bool {
        self.reaches(act, act)
    }

    /// One token on the start edge.
    pub fn initial(&self) -> Marking {
        Marking((0..self.places.len()).map(|p| u8::from(p == 0)).collect())
    }

    /// The activities with a token waiting, by id.
    pub fn waiting(&self, m: &Marking) -> Vec<ActivityId> {
        let waits = |&a: &usize| self.in_edges[a].iter().any(|&p| m.0[p] > 0);
        self.index.iter().filter(|(_, a)| waits(a)).map(|(id, _)| id.clone()).collect()
    }

    /// Whether `act` may fire in marking `m` (see the module docs).
    pub fn enabled(&self, m: &Marking, act: &str) -> bool {
        let Ok(a) = self.at(act) else { return false };
        let edges = &self.in_edges[a];
        let marked = edges.iter().filter(|&&p| m.0[p] > 0).count();
        match self.joins[a] {
            _ if marked == 0 => false,
            JoinKind::Any => true,
            JoinKind::All => marked == edges.len(),
            JoinKind::Or => {
                !self.places.iter().zip(&m.0).any(|(&(_, at), &n)| n > 0 && self.reach[at][a])
            }
        }
    }

    /// Fire `act` in marking `m`: consume one token from each marked
    /// in-edge, put one on the edge to each target of `route`, then withdraw
    /// the work waiting at every member of the `cancelled` regions. A
    /// multi-instance activity's route back to itself is its next instance,
    /// which waits where this one did: the marking is unchanged (a self-edge
    /// of any other activity fires like every edge). Errs when
    /// the result accumulates without bound or delivers twice to one
    /// Any-join.
    pub fn fire(
        &self,
        m: &Marking,
        act: &str,
        route: &Route,
        cancelled: &[&CancelRegion],
    ) -> Result<Marking, SoundnessError> {
        let a = self.at(act)?;
        let mut next = m.clone();
        if self.multi[a] && route.targets.iter().any(|t| t == act) {
            return Ok(next);
        }
        for &p in &self.in_edges[a] {
            next.0[p] = next.0[p].saturating_sub(1);
        }
        let mut produced = Vec::with_capacity(route.targets.len());
        for target in &route.targets {
            let to = self.at(target)?;
            let p = self.places.iter().position(|&e| e == (Some(a), to)).ok_or_else(|| {
                SoundnessError::Invalid(format!("no transition {act} -> {target}"))
            })?;
            match self.joins[to] {
                JoinKind::Or => next.0[p] = 1,
                _ if next.0[p] >= MAX_TOKENS_PER_EDGE => {
                    return Err(SoundnessError::Unbounded { from: act.into(), to: target.clone() })
                }
                _ => next.0[p] += 1,
            }
            produced.push((to, target));
        }
        for member in cancelled.iter().flat_map(|c| &c.region) {
            for &p in &self.in_edges[self.at(member)?] {
                next.0[p] = 0;
            }
        }
        for (to, target) in produced {
            let waiting: u32 = self.in_edges[to].iter().map(|&p| u32::from(next.0[p])).sum();
            if self.joins[to] == JoinKind::Any && waiting >= 2 {
                return Err(SoundnessError::ConcurrentDelivery { activity: target.clone() });
            }
        }
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Activity, Condition};
    use std::collections::HashMap;

    fn fig9a_def() -> WorkflowDefinition {
        // Fig. 9A: A -> AND-split(B1, B2) -> AND-join C -> loop/accept -> D
        WorkflowDefinition::builder("fig9a", "designer")
            .simple_activity("A", "p_a", &["attachment"])
            .simple_activity("B1", "p_b1", &["review1"])
            .simple_activity("B2", "p_b2", &["review2"])
            .activity(Activity {
                id: "C".into(),
                participant: "p_c".into(),
                join: JoinKind::All,
                requests: vec![],
                responses: vec!["decision".into()],
            })
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

    struct MapReader(HashMap<(String, String), String>);
    impl FieldReader for MapReader {
        fn read_field(&self, a: &str, f: &str) -> WfResult<Option<String>> {
            Ok(self.0.get(&(a.to_string(), f.to_string())).cloned())
        }
    }

    fn reader(entries: &[(&str, &str, &str)]) -> MapReader {
        MapReader(
            entries
                .iter()
                .map(|(a, f, v)| ((a.to_string(), f.to_string()), v.to_string()))
                .collect(),
        )
    }

    #[test]
    fn and_split_routes_to_both() {
        let r = route(&fig9a_def(), "A", Some(0), &reader(&[])).unwrap();
        assert_eq!(r.targets, vec!["B1", "B2"]);
        assert!(!r.ends);
    }

    #[test]
    fn or_split_takes_matching_branch() {
        let def = fig9a_def();
        let r = route(&def, "C", Some(0), &reader(&[("C", "decision", "insufficient")])).unwrap();
        assert_eq!(r.targets, vec!["A"], "loop back");
        let r = route(&def, "C", Some(0), &reader(&[("C", "decision", "accept")])).unwrap();
        assert_eq!(r.targets, vec!["D"]);
    }

    #[test]
    fn end_transition() {
        let r = route(&fig9a_def(), "D", Some(0), &reader(&[])).unwrap();
        assert!(r.ends);
        assert!(r.is_final());
    }

    #[test]
    fn unreadable_condition_propagates() {
        struct Denies;
        impl FieldReader for Denies {
            fn read_field(&self, a: &str, f: &str) -> WfResult<Option<String>> {
                Err(WfError::FieldNotReadable {
                    activity: a.into(),
                    field: f.into(),
                    reader: "tony".into(),
                })
            }
        }
        assert!(matches!(
            route(&fig9a_def(), "C", Some(0), &Denies),
            Err(WfError::FieldNotReadable { .. })
        ));
    }

    #[test]
    fn no_enabled_transition_is_an_error() {
        let def = WorkflowDefinition::builder("w", "d")
            .simple_activity("A", "p", &["x"])
            .simple_activity("B", "q", &[])
            .flow_if("A", "B", Condition::field_equals("A", "x", "1"))
            .flow_end("B")
            .build()
            .unwrap();
        assert!(matches!(
            route(&def, "A", Some(0), &reader(&[("A", "x", "2")])),
            Err(WfError::Flow(_))
        ));
    }

    #[test]
    fn and_join_names_the_missing_branch() {
        let def = fig9a_def();
        let doc = |cers: &'static [(&'static str, u32)]| {
            move |a: &str| Ok(cers.iter().filter(|c| c.0 == a).map(|c| c.1).max())
        };
        let missing = and_join_missing(&def, "C", doc(&[("A", 0), ("B1", 0)])).unwrap();
        assert_eq!(missing.map(String::as_str), Some("B2"));
        assert_eq!(
            and_join_missing(&def, "C", doc(&[("A", 0), ("B1", 0), ("B2", 0)])).unwrap(),
            None
        );
        // the second iteration requires both branches again
        let second = doc(&[("A", 0), ("B1", 0), ("B2", 0), ("C", 0), ("A", 1), ("B1", 1)]);
        assert_eq!(and_join_missing(&def, "C", second).unwrap().map(String::as_str), Some("B2"));
        // an activity that is not an AND-join never waits
        assert_eq!(and_join_missing(&def, "D", doc(&[])).unwrap(), None);
    }

    fn multi_def() -> WorkflowDefinition {
        WorkflowDefinition::builder("multi", "d")
            .simple_activity("A", "p", &["n"])
            .simple_activity("B", "q", &["part"])
            .simple_activity("C", "r", &[])
            .flow("A", "B")
            .flow("B", "C")
            .flow_end("C")
            .multi_runtime("B", "A", "n")
            .build()
            .unwrap()
    }

    #[test]
    fn multi_instance_routes_back_until_cardinality_met() {
        let def = multi_def();
        let r = reader(&[("A", "n", "3")]);
        let targets = |iter| route(&def, "B", iter, &r).unwrap().targets;
        assert_eq!(targets(Some(0)), vec!["B"], "instance 2 of 3");
        assert_eq!(targets(Some(1)), vec!["B"], "instance 3 of 3");
        assert_eq!(targets(Some(2)), vec!["C"], "all instances done");
        assert_eq!(targets(None), vec!["C"], "the net's view: one firing");
        // the net keeps the token where it waits until the last instance
        let net = Net::build(&def);
        let at_b =
            net.fire(&net.initial(), "A", &route(&def, "A", None, &r).unwrap(), &[]).unwrap();
        let again = route(&def, "B", Some(0), &r).unwrap();
        assert_eq!(net.fire(&at_b, "B", &again, &[]).unwrap(), at_b);
    }

    #[test]
    fn runtime_cardinality_must_be_positive_integer() {
        let def = multi_def();
        let fails = |entries: &[(&str, &str, &str)], needle: &str| {
            matches!(route(&def, "B", Some(0), &reader(entries)),
                Err(WfError::Flow(m)) if m.contains(needle))
        };
        assert!(fails(&[("A", "n", "zero")], "not an integer"));
        assert!(fails(&[("A", "n", "0")], "resolved to 0"));
        assert!(fails(&[], "not produced"));
    }

    #[test]
    fn cancellations_fire_by_condition() {
        let def = WorkflowDefinition::builder("cx", "d")
            .simple_activity("A", "p", &["mode"])
            .simple_activity("B", "q", &["r"])
            .simple_activity("C", "r", &["s"])
            .flow("A", "B")
            .flow("A", "C")
            .flow_end("B")
            .flow_end("C")
            .cancel_on_if("B", Condition::field_equals("A", "mode", "solo"), &["C"])
            .build()
            .unwrap();
        let fired = cancelled(&def, "B", &reader(&[("A", "mode", "solo")])).unwrap();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].region, vec!["C"]);
        assert!(cancelled(&def, "B", &reader(&[("A", "mode", "both")])).unwrap().is_empty());
        assert!(cancelled(&def, "A", &reader(&[])).unwrap().is_empty(), "A triggers nothing");
        assert_eq!(guards(&def, "B").len(), 1);
    }

    #[test]
    fn cycle_and_reach_queries() {
        let def = WorkflowDefinition::builder("loopy", "d")
            .simple_activity("A", "p", &["x"])
            .simple_activity("B", "q", &["y"])
            .simple_activity("C", "r", &[])
            .flow("A", "B")
            .flow_if("B", "A", Condition::field_equals("B", "y", "again"))
            .flow_if("B", "C", Condition::field_not_equals("B", "y", "again"))
            .flow_end("C")
            .build()
            .unwrap();
        let net = Net::build(&def);
        assert!(net.cyclic("A") && net.cyclic("B") && !net.cyclic("C"));
        assert!(net.reaches("A", "C") && net.reaches("B", "A") && !net.reaches("C", "A"));
        assert!(!net.reaches("GHOST", "A"));
    }

    #[test]
    fn or_join_waits_while_anything_upstream_is_pending() {
        // A -> {B1, B2 -> B3} -> J (or): J has a token from B1 but B2's
        // branch is still upstream, so J waits; once B3 delivers, it fires.
        let def = WorkflowDefinition::builder("orj", "d")
            .simple_activity("A", "p", &[])
            .simple_activity("B1", "q", &[])
            .simple_activity("B2", "r", &[])
            .simple_activity("B3", "r", &[])
            .activity(Activity {
                id: "J".into(),
                participant: "s".into(),
                join: JoinKind::Or,
                requests: vec![],
                responses: vec![],
            })
            .flow("A", "B1")
            .flow("A", "B2")
            .flow("B2", "B3")
            .flow("B1", "J")
            .flow("B3", "J")
            .flow_end("J")
            .build()
            .unwrap();
        let net = Net::build(&def);
        let r = reader(&[]);
        let step = |m: &Marking, act: &str| {
            net.fire(m, act, &route(&def, act, Some(0), &r).unwrap(), &[]).unwrap()
        };
        let m = step(&net.initial(), "A");
        let m = step(&m, "B1");
        assert!(!net.enabled(&m, "J"), "B2 is upstream and pending");
        let m = step(&step(&m, "B2"), "B3");
        assert!(net.enabled(&m, "J"));
        assert!(net.waiting(&step(&m, "J")).is_empty());
    }
}
