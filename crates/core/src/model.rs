//! The workflow process definition: activities, participants, control flow
//! (sequence, AND-split/AND-join, OR-split, loops), request/response forms.
//!
//! Mirrors the first part of the paper's "Def": "the starting and stopping
//! conditions of the workflow process, the activities in the process,
//! control and data flows among these activities, and the requests and
//! responses of each activity" (§2). The definition serializes to XML so it
//! can live inside the routed document and be covered by the designer's
//! signature.

use crate::error::{WfError, WfResult};
use dra_xml::Element;
use std::collections::BTreeSet;

/// Identifier of an activity within a workflow (e.g. `"A1"`).
pub type ActivityId = String;

/// How an activity with multiple incoming transitions becomes enabled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum JoinKind {
    /// Enabled by any single incoming transition (XOR-join; also the value
    /// for activities with one predecessor).
    #[default]
    Any,
    /// Enabled only when every incoming branch has delivered a document
    /// (AND-join). The branch documents are merged before execution.
    All,
    /// Synchronizing merge (OR-join): waits for every incoming branch that
    /// *can still deliver*, then fires once with whatever arrived: enabled
    /// when at least one branch has delivered and no activity that can
    /// reach the join still has work pending ([`crate::semantics::Net`]).
    Or,
}

/// A reference to a response field produced by an earlier activity.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct FieldRef {
    /// The producing activity.
    pub activity: ActivityId,
    /// The field name within that activity's response.
    pub field: String,
}

impl FieldRef {
    /// Convenience constructor.
    pub fn new(activity: impl Into<String>, field: impl Into<String>) -> FieldRef {
        FieldRef { activity: activity.into(), field: field.into() }
    }
}

/// A logical step of the workflow, executed by one participant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Activity {
    /// Unique id (node in the control-flow graph).
    pub id: ActivityId,
    /// The participant allowed to execute this activity.
    pub participant: String,
    /// Join behaviour when multiple transitions point here.
    pub join: JoinKind,
    /// Fields from earlier activities shown to the participant (the
    /// "requests" of the paper).
    pub requests: Vec<FieldRef>,
    /// Field names the participant must produce (the "responses").
    pub responses: Vec<String>,
}

/// A boolean predicate over a produced field, used on conditional
/// transitions (OR-splits, loop back-edges) and conditional security rules.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Condition {
    /// The activity whose latest result is consulted.
    pub activity: ActivityId,
    /// The field within that result.
    pub field: String,
    /// The comparison value.
    pub equals: String,
    /// Negate the comparison (`!=` instead of `==`).
    pub negate: bool,
}

impl Condition {
    /// `activity.field == value`
    pub fn field_equals(
        activity: impl Into<String>,
        field: impl Into<String>,
        value: impl Into<String>,
    ) -> Condition {
        Condition {
            activity: activity.into(),
            field: field.into(),
            equals: value.into(),
            negate: false,
        }
    }

    /// `activity.field != value`
    pub fn field_not_equals(
        activity: impl Into<String>,
        field: impl Into<String>,
        value: impl Into<String>,
    ) -> Condition {
        Condition { negate: true, ..Condition::field_equals(activity, field, value) }
    }

    /// Evaluate against a plaintext field value.
    pub fn matches(&self, value: &str) -> bool {
        (value == self.equals) != self.negate
    }
}

/// How many instances of a multi-instance activity run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Cardinality {
    /// A fixed instance count known at design time (must be ≥ 1).
    Static(u32),
    /// The instance count is read at runtime from a field produced by an
    /// earlier activity; the value must parse as an integer ≥ 1.
    Runtime(FieldRef),
}

/// A multi-instance annotation: the named activity executes `cardinality`
/// times (as consecutive iterations by the same participant) before its
/// outgoing transitions are evaluated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MultiInstance {
    /// The activity that runs multiple times.
    pub activity: ActivityId,
    /// How many instances.
    pub cardinality: Cardinality,
}

/// A cancellation region: when `trigger` completes (and the optional
/// condition over its result holds), every pending piece of work for the
/// activities in `region` is withdrawn — their delivered-but-unexecuted
/// documents are discarded and they are never dispatched again.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CancelRegion {
    /// The activity whose completion triggers the cancellation.
    pub trigger: ActivityId,
    /// Optional guard over the trigger's (or an earlier) result; `None`
    /// means the region is cancelled whenever `trigger` completes.
    pub condition: Option<Condition>,
    /// The activities whose pending work is withdrawn.
    pub region: Vec<ActivityId>,
}

/// Where a transition leads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Target {
    /// Another activity.
    Activity(ActivityId),
    /// The end of the workflow process.
    End,
}

/// A directed control-flow edge. All outgoing transitions of an activity
/// whose condition holds fire simultaneously — so several unconditional
/// transitions form an AND-split, and mutually exclusive conditions form an
/// OR-split.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transition {
    /// Source activity.
    pub from: ActivityId,
    /// Destination.
    pub to: Target,
    /// Optional guard; `None` means always taken.
    pub condition: Option<Condition>,
}

/// The complete workflow process definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkflowDefinition {
    /// Human-readable process name.
    pub name: String,
    /// The workflow designer's identity name (signs the initial document).
    pub designer: String,
    /// The start activity (executed first, may be re-entered by loops).
    pub start: ActivityId,
    /// All activities.
    pub activities: Vec<Activity>,
    /// All control-flow edges.
    pub transitions: Vec<Transition>,
    /// Multi-instance annotations (at most one per activity).
    pub multi: Vec<MultiInstance>,
    /// Cancellation regions.
    pub cancellations: Vec<CancelRegion>,
    /// Name of the TFC server identity when the advanced operational model
    /// is used; `None` selects the basic model.
    pub tfc: Option<String>,
}

impl WorkflowDefinition {
    /// Start building a definition.
    pub fn builder(name: impl Into<String>, designer: impl Into<String>) -> WorkflowBuilder {
        WorkflowBuilder {
            def: WorkflowDefinition {
                name: name.into(),
                designer: designer.into(),
                start: String::new(),
                activities: Vec::new(),
                transitions: Vec::new(),
                multi: Vec::new(),
                cancellations: Vec::new(),
                tfc: None,
            },
        }
    }

    /// Look up an activity.
    pub fn activity(&self, id: &str) -> WfResult<&Activity> {
        self.activities
            .iter()
            .find(|a| a.id == id)
            .ok_or_else(|| WfError::UnknownActivity(id.to_string()))
    }

    /// Activities with a transition into `id`.
    pub fn incoming(&self, id: &str) -> Vec<&ActivityId> {
        self.transitions
            .iter()
            .filter(|t| matches!(&t.to, Target::Activity(a) if a == id))
            .map(|t| &t.from)
            .collect()
    }

    /// Transitions out of `id`.
    pub fn outgoing(&self, id: &str) -> Vec<&Transition> {
        self.transitions.iter().filter(|t| t.from == id).collect()
    }

    /// The multi-instance annotation for `id`, if any.
    pub fn multi_for(&self, id: &str) -> Option<&MultiInstance> {
        self.multi.iter().find(|m| m.activity == id)
    }

    /// Structural validation: unique ids, known references, reachability of
    /// every activity from the start, and at least one path to End.
    pub fn validate(&self) -> WfResult<()> {
        let mut ids = BTreeSet::new();
        for a in &self.activities {
            if !ids.insert(a.id.as_str()) {
                return Err(WfError::Flow(format!("duplicate activity id '{}'", a.id)));
            }
            if a.participant.is_empty() {
                return Err(WfError::Flow(format!("activity '{}' has no participant", a.id)));
            }
        }
        if !ids.contains(self.start.as_str()) {
            return Err(WfError::UnknownActivity(self.start.clone()));
        }
        let mut reaches_end = false;
        for t in &self.transitions {
            if !ids.contains(t.from.as_str()) {
                return Err(WfError::UnknownActivity(t.from.clone()));
            }
            match &t.to {
                Target::Activity(a) => {
                    if !ids.contains(a.as_str()) {
                        return Err(WfError::UnknownActivity(a.clone()));
                    }
                }
                Target::End => reaches_end = true,
            }
        }
        if !reaches_end {
            return Err(WfError::Flow("no transition reaches End".into()));
        }
        // reachability from start
        let net = crate::semantics::Net::build(self);
        for a in &self.activities {
            if a.id != self.start && !net.reaches(&self.start, &a.id) {
                return Err(WfError::Flow(format!(
                    "activity '{}' unreachable from start '{}'",
                    a.id, self.start
                )));
            }
        }
        // requests must reference known activities and declared responses
        for a in &self.activities {
            for r in &a.requests {
                let src = self.activity(&r.activity)?;
                if !src.responses.contains(&r.field) {
                    return Err(WfError::Flow(format!(
                        "activity '{}' requests unknown field '{}.{}'",
                        a.id, r.activity, r.field
                    )));
                }
            }
        }
        // conditions must reference known fields
        for t in &self.transitions {
            if let Some(c) = &t.condition {
                let src = self.activity(&c.activity)?;
                if !src.responses.contains(&c.field) {
                    return Err(WfError::Flow(format!(
                        "transition {} -> {:?} conditions on unknown field '{}.{}'",
                        t.from, t.to, c.activity, c.field
                    )));
                }
            }
        }
        // multi-instance annotations: known activity, at most one each,
        // sensible cardinality
        let mut multi_seen = BTreeSet::new();
        for m in &self.multi {
            self.activity(&m.activity)?;
            if !multi_seen.insert(m.activity.as_str()) {
                return Err(WfError::Flow(format!(
                    "activity '{}' has more than one multi-instance annotation",
                    m.activity
                )));
            }
            match &m.cardinality {
                Cardinality::Static(0) => {
                    return Err(WfError::Flow(format!(
                        "multi-instance activity '{}' has cardinality 0",
                        m.activity
                    )));
                }
                Cardinality::Static(_) => {}
                Cardinality::Runtime(r) => {
                    let src = self.activity(&r.activity)?;
                    if !src.responses.contains(&r.field) {
                        return Err(WfError::Flow(format!(
                            "multi-instance activity '{}' reads unknown field '{}.{}'",
                            m.activity, r.activity, r.field
                        )));
                    }
                }
            }
        }
        // cancellation regions: known trigger and region activities,
        // non-empty region, conditions over declared fields
        for c in &self.cancellations {
            self.activity(&c.trigger)?;
            if c.region.is_empty() {
                return Err(WfError::Flow(format!(
                    "cancellation triggered by '{}' has an empty region",
                    c.trigger
                )));
            }
            for a in &c.region {
                self.activity(a)?;
                if a == &c.trigger {
                    return Err(WfError::Flow(format!(
                        "cancellation triggered by '{}' cancels its own trigger",
                        c.trigger
                    )));
                }
            }
            if let Some(cond) = &c.condition {
                let src = self.activity(&cond.activity)?;
                if !src.responses.contains(&cond.field) {
                    return Err(WfError::Flow(format!(
                        "cancellation on '{}' conditions on unknown field '{}.{}'",
                        c.trigger, cond.activity, cond.field
                    )));
                }
            }
        }
        Ok(())
    }

    /// All fields referenced by any transition condition (these must be
    /// readable by whoever evaluates routing — see
    /// `SecurityPolicy::with_tfc_access`).
    pub fn condition_fields(&self) -> BTreeSet<FieldRef> {
        let mut fields: BTreeSet<FieldRef> = self
            .transitions
            .iter()
            .filter_map(|t| t.condition.as_ref())
            .map(|c| FieldRef::new(c.activity.clone(), c.field.clone()))
            .collect();
        for m in &self.multi {
            if let Cardinality::Runtime(r) = &m.cardinality {
                fields.insert(r.clone());
            }
        }
        for c in &self.cancellations {
            if let Some(cond) = &c.condition {
                fields.insert(FieldRef::new(cond.activity.clone(), cond.field.clone()));
            }
        }
        fields
    }

    // -- XML serialization ---------------------------------------------------

    /// Serialize to the `<WorkflowDefinition>` element embedded in documents.
    pub fn to_xml(&self) -> Element {
        let mut root = Element::new("WorkflowDefinition")
            .attr("name", self.name.clone())
            .attr("designer", self.designer.clone())
            .attr("start", self.start.clone());
        if let Some(tfc) = &self.tfc {
            root.set_attr("tfc", tfc.clone());
        }
        for a in &self.activities {
            root.push_child(a.to_xml("Activity"));
        }
        for t in &self.transitions {
            root.push_child(t.to_xml("Transition"));
        }
        for m in &self.multi {
            let mut el = Element::new("Multi").attr("activity", m.activity.clone());
            match &m.cardinality {
                Cardinality::Static(k) => el.set_attr("count", k.to_string()),
                Cardinality::Runtime(r) => {
                    el.set_attr("fromActivity", r.activity.clone());
                    el.set_attr("fromField", r.field.clone());
                }
            }
            root.push_child(el);
        }
        for c in &self.cancellations {
            let mut el = Element::new("Cancel").attr("trigger", c.trigger.clone());
            for a in &c.region {
                el.push_child(Element::new("Region").attr("activity", a.clone()));
            }
            if let Some(cond) = &c.condition {
                el.push_child(condition_to_xml(cond));
            }
            root.push_child(el);
        }
        root
    }

    /// Parse back from XML.
    pub fn from_xml(el: &Element) -> WfResult<WorkflowDefinition> {
        if el.name != "WorkflowDefinition" {
            return Err(WfError::Malformed(format!(
                "expected <WorkflowDefinition>, found <{}>",
                el.name
            )));
        }
        let mut def = WorkflowDefinition {
            name: required_attr(el, "name")?,
            designer: required_attr(el, "designer")?,
            start: required_attr(el, "start")?,
            activities: Vec::new(),
            transitions: Vec::new(),
            multi: Vec::new(),
            cancellations: Vec::new(),
            tfc: el.get_attr("tfc").map(str::to_string),
        };
        for a in el.find_children("Activity") {
            def.activities.push(Activity::from_xml(a)?);
        }
        for t in el.find_children("Transition") {
            def.transitions.push(Transition::from_xml(t)?);
        }
        for m in el.find_children("Multi") {
            let cardinality = if let Some(count) = m.get_attr("count") {
                let k: u32 = count.parse().map_err(|_| {
                    WfError::Malformed(format!("Multi @count '{count}' is not an integer"))
                })?;
                Cardinality::Static(k)
            } else {
                let from = m.get_attr("fromActivity").ok_or_else(|| {
                    WfError::Malformed("Multi missing @count/@fromActivity".into())
                })?;
                Cardinality::Runtime(FieldRef::new(from, required_attr(m, "fromField")?))
            };
            def.multi.push(MultiInstance { activity: required_attr(m, "activity")?, cardinality });
        }
        for c in el.find_children("Cancel") {
            def.cancellations.push(CancelRegion {
                trigger: required_attr(c, "trigger")?,
                condition: optional_condition(c)?,
                region: c
                    .find_children("Region")
                    .map(|r| required_attr(r, "activity"))
                    .collect::<WfResult<Vec<_>>>()?,
            });
        }
        Ok(def)
    }
}

/// Attribute `key` of `el`, or a typed [`WfError::Malformed`] naming both.
pub(crate) fn required_attr(el: &Element, key: &str) -> WfResult<String> {
    el.get_attr(key)
        .map(str::to_string)
        .ok_or_else(|| WfError::Malformed(format!("{} missing @{key}", el.name)))
}

fn optional_condition(el: &Element) -> WfResult<Option<Condition>> {
    el.find_child("Condition").map(condition_from_xml).transpose()
}

// The codec of an activity and of a transition, parameterised only by the
// element name: `<Activity>`/`<Transition>` inside a definition,
// `<AddActivity>`/`<AddTransition>`/`<RetireTransition>` inside an
// amendment delta. An amendment is signed and executed as what this reads
// back, so there is one reader.

impl Activity {
    pub(crate) fn to_xml(&self, element: &str) -> Element {
        let mut el = Element::new(element)
            .attr("id", self.id.clone())
            .attr("participant", self.participant.clone());
        match self.join {
            JoinKind::Any => {}
            JoinKind::All => el.set_attr("join", "all"),
            JoinKind::Or => el.set_attr("join", "or"),
        }
        for r in &self.requests {
            el.push_child(
                Element::new("Request")
                    .attr("activity", r.activity.clone())
                    .attr("field", r.field.clone()),
            );
        }
        for f in &self.responses {
            el.push_child(Element::new("Response").attr("field", f.clone()));
        }
        el
    }

    pub(crate) fn from_xml(el: &Element) -> WfResult<Activity> {
        let field_ref =
            |r| Ok(FieldRef::new(required_attr(r, "activity")?, required_attr(r, "field")?));
        Ok(Activity {
            id: required_attr(el, "id")?,
            participant: required_attr(el, "participant")?,
            join: match el.get_attr("join") {
                Some("all") => JoinKind::All,
                Some("or") => JoinKind::Or,
                _ => JoinKind::Any,
            },
            requests: el.find_children("Request").map(field_ref).collect::<WfResult<_>>()?,
            responses: el
                .find_children("Response")
                .map(|r| required_attr(r, "field"))
                .collect::<WfResult<_>>()?,
        })
    }
}

impl Transition {
    pub(crate) fn to_xml(&self, element: &str) -> Element {
        let mut el = Element::new(element).attr("from", self.from.clone());
        match &self.to {
            Target::Activity(a) => el.set_attr("to", a.clone()),
            Target::End => el.set_attr("to", "#end"),
        }
        if let Some(c) = &self.condition {
            el.push_child(condition_to_xml(c));
        }
        el
    }

    pub(crate) fn from_xml(el: &Element) -> WfResult<Transition> {
        let to = required_attr(el, "to")?;
        Ok(Transition {
            from: required_attr(el, "from")?,
            to: if to == "#end" { Target::End } else { Target::Activity(to) },
            condition: optional_condition(el)?,
        })
    }
}

impl WorkflowDefinition {
    /// Render the control-flow graph in Graphviz dot format (for
    /// documentation and debugging of process definitions).
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph workflow {\n  rankdir=LR;\n");
        out.push_str("  start [shape=circle label=\"\" style=filled fillcolor=black width=0.2];\n");
        out.push_str(
            "  end [shape=doublecircle label=\"\" style=filled fillcolor=black width=0.15];\n",
        );
        for a in &self.activities {
            let shape = match a.join {
                JoinKind::All => "box3d",
                JoinKind::Or => "component",
                JoinKind::Any => "box",
            };
            let multi = match self.multi_for(&a.id).map(|m| &m.cardinality) {
                Some(Cardinality::Static(k)) => format!(" ×{k}"),
                Some(Cardinality::Runtime(r)) => format!(" ×{}.{}", r.activity, r.field),
                None => String::new(),
            };
            out.push_str(&format!(
                "  \"{}\" [shape={shape} label=\"{}{multi}\\n({})\"];\n",
                a.id, a.id, a.participant
            ));
        }
        out.push_str(&format!("  start -> \"{}\";\n", self.start));
        for t in &self.transitions {
            let to = match &t.to {
                Target::Activity(a) => format!("\"{a}\""),
                Target::End => "end".to_string(),
            };
            let label = match &t.condition {
                Some(c) => format!(
                    " [label=\"{}.{} {} {}\"]",
                    c.activity,
                    c.field,
                    if c.negate { "!=" } else { "==" },
                    c.equals
                ),
                None => String::new(),
            };
            out.push_str(&format!("  \"{}\" -> {to}{label};\n", t.from));
        }
        for c in &self.cancellations {
            for a in &c.region {
                out.push_str(&format!(
                    "  \"{}\" -> \"{a}\" [style=dashed color=red label=\"cancel\"];\n",
                    c.trigger
                ));
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Serialize a [`Condition`] to XML.
pub fn condition_to_xml(c: &Condition) -> Element {
    Element::new("Condition")
        .attr("activity", c.activity.clone())
        .attr("field", c.field.clone())
        .attr("equals", c.equals.clone())
        .attr("negate", if c.negate { "true" } else { "false" })
}

/// Parse a [`Condition`] from XML.
pub fn condition_from_xml(el: &Element) -> WfResult<Condition> {
    Ok(Condition {
        activity: required_attr(el, "activity")?,
        field: required_attr(el, "field")?,
        equals: required_attr(el, "equals")?,
        negate: el.get_attr("negate") == Some("true"),
    })
}

/// Fluent builder for workflow definitions.
pub struct WorkflowBuilder {
    def: WorkflowDefinition,
}

impl WorkflowBuilder {
    /// Add an activity. The first added activity becomes the start unless
    /// [`WorkflowBuilder::start`] overrides it.
    pub fn activity(mut self, a: Activity) -> Self {
        if self.def.start.is_empty() {
            self.def.start = a.id.clone();
        }
        self.def.activities.push(a);
        self
    }

    /// Shorthand: activity with participant and response fields, no
    /// requests, Any-join.
    pub fn simple_activity(
        self,
        id: impl Into<String>,
        participant: impl Into<String>,
        responses: &[&str],
    ) -> Self {
        self.activity(Activity {
            id: id.into(),
            participant: participant.into(),
            join: JoinKind::Any,
            requests: Vec::new(),
            responses: responses.iter().map(|s| s.to_string()).collect(),
        })
    }

    /// Set the start activity explicitly.
    pub fn start(mut self, id: impl Into<String>) -> Self {
        self.def.start = id.into();
        self
    }

    /// Unconditional transition between activities.
    pub fn flow(mut self, from: impl Into<String>, to: impl Into<String>) -> Self {
        self.def.transitions.push(Transition {
            from: from.into(),
            to: Target::Activity(to.into()),
            condition: None,
        });
        self
    }

    /// Conditional transition.
    pub fn flow_if(
        mut self,
        from: impl Into<String>,
        to: impl Into<String>,
        condition: Condition,
    ) -> Self {
        self.def.transitions.push(Transition {
            from: from.into(),
            to: Target::Activity(to.into()),
            condition: Some(condition),
        });
        self
    }

    /// Transition to the end of the workflow.
    pub fn flow_end(mut self, from: impl Into<String>) -> Self {
        self.def.transitions.push(Transition {
            from: from.into(),
            to: Target::End,
            condition: None,
        });
        self
    }

    /// Conditional transition to the end.
    pub fn flow_end_if(mut self, from: impl Into<String>, condition: Condition) -> Self {
        self.def.transitions.push(Transition {
            from: from.into(),
            to: Target::End,
            condition: Some(condition),
        });
        self
    }

    /// Declare an activity as multi-instance with a fixed count.
    pub fn multi_static(mut self, activity: impl Into<String>, count: u32) -> Self {
        self.def.multi.push(MultiInstance {
            activity: activity.into(),
            cardinality: Cardinality::Static(count),
        });
        self
    }

    /// Declare an activity as multi-instance with the count read at runtime
    /// from `from_activity.field`.
    pub fn multi_runtime(
        mut self,
        activity: impl Into<String>,
        from_activity: impl Into<String>,
        field: impl Into<String>,
    ) -> Self {
        self.def.multi.push(MultiInstance {
            activity: activity.into(),
            cardinality: Cardinality::Runtime(FieldRef::new(from_activity, field)),
        });
        self
    }

    /// Cancel the pending work of `region` whenever `trigger` completes.
    pub fn cancel_on(mut self, trigger: impl Into<String>, region: &[&str]) -> Self {
        self.def.cancellations.push(CancelRegion {
            trigger: trigger.into(),
            condition: None,
            region: region.iter().map(|s| s.to_string()).collect(),
        });
        self
    }

    /// Cancel the pending work of `region` when `trigger` completes and
    /// `condition` holds.
    pub fn cancel_on_if(
        mut self,
        trigger: impl Into<String>,
        condition: Condition,
        region: &[&str],
    ) -> Self {
        self.def.cancellations.push(CancelRegion {
            trigger: trigger.into(),
            condition: Some(condition),
            region: region.iter().map(|s| s.to_string()).collect(),
        });
        self
    }

    /// Use the advanced operational model with the given TFC identity name.
    pub fn with_tfc(mut self, tfc: impl Into<String>) -> Self {
        self.def.tfc = Some(tfc.into());
        self
    }

    /// Validate and return the definition.
    pub fn build(self) -> WfResult<WorkflowDefinition> {
        self.def.validate()?;
        Ok(self.def)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear() -> WorkflowDefinition {
        WorkflowDefinition::builder("linear", "designer")
            .simple_activity("A1", "peter", &["x"])
            .simple_activity("A2", "amy", &["y"])
            .flow("A1", "A2")
            .flow_end("A2")
            .build()
            .unwrap()
    }

    #[test]
    fn builder_sets_start() {
        let def = linear();
        assert_eq!(def.start, "A1");
        assert_eq!(def.activities.len(), 2);
    }

    #[test]
    fn incoming_outgoing() {
        let def = linear();
        assert_eq!(def.incoming("A2"), vec!["A1"]);
        assert!(def.incoming("A1").is_empty());
        assert_eq!(def.outgoing("A1").len(), 1);
        assert_eq!(def.outgoing("A2").len(), 1);
    }

    #[test]
    fn validate_rejects_duplicate_ids() {
        let err = WorkflowDefinition::builder("bad", "d")
            .simple_activity("A", "p", &[])
            .simple_activity("A", "q", &[])
            .flow_end("A")
            .build()
            .unwrap_err();
        assert!(matches!(err, WfError::Flow(_)));
    }

    #[test]
    fn validate_rejects_unknown_transition_target() {
        let err = WorkflowDefinition::builder("bad", "d")
            .simple_activity("A", "p", &[])
            .flow("A", "GHOST")
            .flow_end("A")
            .build()
            .unwrap_err();
        assert!(matches!(err, WfError::UnknownActivity(a) if a == "GHOST"));
    }

    #[test]
    fn validate_rejects_unreachable_activity() {
        let err = WorkflowDefinition::builder("bad", "d")
            .simple_activity("A", "p", &[])
            .simple_activity("ISLAND", "q", &[])
            .flow_end("A")
            .flow_end("ISLAND")
            .build()
            .unwrap_err();
        assert!(matches!(err, WfError::Flow(m) if m.contains("unreachable")));
    }

    #[test]
    fn validate_requires_end() {
        let err = WorkflowDefinition::builder("bad", "d")
            .simple_activity("A", "p", &[])
            .build()
            .unwrap_err();
        assert!(matches!(err, WfError::Flow(m) if m.contains("End")));
    }

    #[test]
    fn validate_rejects_unknown_request_field() {
        let err = WorkflowDefinition::builder("bad", "d")
            .simple_activity("A", "p", &["x"])
            .activity(Activity {
                id: "B".into(),
                participant: "q".into(),
                join: JoinKind::Any,
                requests: vec![FieldRef::new("A", "nope")],
                responses: vec![],
            })
            .flow("A", "B")
            .flow_end("B")
            .build()
            .unwrap_err();
        assert!(matches!(err, WfError::Flow(m) if m.contains("nope")));
    }

    #[test]
    fn validate_rejects_condition_on_unknown_field() {
        let err = WorkflowDefinition::builder("bad", "d")
            .simple_activity("A", "p", &["x"])
            .simple_activity("B", "q", &[])
            .flow_if("A", "B", Condition::field_equals("A", "ghost", "1"))
            .flow_end("B")
            .build()
            .unwrap_err();
        assert!(matches!(err, WfError::Flow(m) if m.contains("ghost")));
    }

    #[test]
    fn condition_matches() {
        let c = Condition::field_equals("A", "decision", "approve");
        assert!(c.matches("approve"));
        assert!(!c.matches("reject"));
        let n = Condition::field_not_equals("A", "decision", "approve");
        assert!(!n.matches("approve"));
        assert!(n.matches("reject"));
    }

    #[test]
    fn xml_roundtrip_rich_workflow() {
        let def = WorkflowDefinition::builder("rich", "designer")
            .simple_activity("A", "p1", &["decision", "amount"])
            .activity(Activity {
                id: "B1".into(),
                participant: "p2".into(),
                join: JoinKind::Any,
                requests: vec![FieldRef::new("A", "amount")],
                responses: vec!["review".into()],
            })
            .simple_activity("B2", "p3", &["review"])
            .activity(Activity {
                id: "C".into(),
                participant: "p4".into(),
                join: JoinKind::All,
                requests: vec![],
                responses: vec!["final".into()],
            })
            .flow("A", "B1")
            .flow("A", "B2")
            .flow("B1", "C")
            .flow("B2", "C")
            .flow_if("C", "A", Condition::field_equals("C", "final", "reject"))
            .flow_end_if("C", Condition::field_not_equals("C", "final", "reject"))
            .with_tfc("TFC")
            .build()
            .unwrap();
        let xml = def.to_xml();
        let parsed = WorkflowDefinition::from_xml(&xml).unwrap();
        assert_eq!(parsed, def);
        // And survives the wire.
        let wire = dra_xml::writer::to_string(&xml);
        let reparsed = WorkflowDefinition::from_xml(&dra_xml::parse(&wire).unwrap()).unwrap();
        assert_eq!(reparsed, def);
    }

    #[test]
    fn dot_export_mentions_everything() {
        let def = linear();
        let dot = def.to_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("\"A1\""));
        assert!(dot.contains("(peter)"));
        assert!(dot.contains("start -> \"A1\""));
        assert!(dot.contains("-> end"));
    }

    #[test]
    fn dot_export_labels_conditions() {
        let def = WorkflowDefinition::builder("w", "d")
            .simple_activity("A", "p", &["x"])
            .simple_activity("B", "q", &[])
            .flow_if("A", "B", Condition::field_equals("A", "x", "go"))
            .flow_end_if("A", Condition::field_not_equals("A", "x", "go"))
            .flow_end("B")
            .build()
            .unwrap();
        let dot = def.to_dot();
        assert!(dot.contains("A.x == go"));
        assert!(dot.contains("A.x != go"));
    }

    fn patterned() -> WorkflowDefinition {
        WorkflowDefinition::builder("patterned", "designer")
            .simple_activity("A", "p1", &["n", "mode"])
            .activity(Activity {
                id: "B".into(),
                participant: "p2".into(),
                join: JoinKind::Any,
                requests: vec![],
                responses: vec!["part".into()],
            })
            .simple_activity("C", "p3", &["alt"])
            .activity(Activity {
                id: "J".into(),
                participant: "p4".into(),
                join: JoinKind::Or,
                requests: vec![],
                responses: vec!["merged".into()],
            })
            .flow("A", "B")
            .flow_if("A", "C", Condition::field_equals("A", "mode", "both"))
            .flow("B", "J")
            .flow("C", "J")
            .flow_end("J")
            .multi_runtime("B", "A", "n")
            .cancel_on_if("B", Condition::field_equals("A", "mode", "solo"), &["C"])
            .build()
            .unwrap()
    }

    #[test]
    fn xml_roundtrip_patterned_workflow() {
        let def = patterned();
        let xml = def.to_xml();
        let parsed = WorkflowDefinition::from_xml(&xml).unwrap();
        assert_eq!(parsed, def);
        let wire = dra_xml::writer::to_string(&xml);
        let reparsed = WorkflowDefinition::from_xml(&dra_xml::parse(&wire).unwrap()).unwrap();
        assert_eq!(reparsed, def);
    }

    #[test]
    fn xml_roundtrip_static_multi() {
        let def = WorkflowDefinition::builder("m", "d")
            .simple_activity("A", "p", &["x"])
            .simple_activity("B", "q", &[])
            .flow("A", "B")
            .flow_end("B")
            .multi_static("B", 3)
            .build()
            .unwrap();
        let parsed = WorkflowDefinition::from_xml(&def.to_xml()).unwrap();
        assert_eq!(parsed, def);
        assert_eq!(parsed.multi_for("B").map(|m| &m.cardinality), Some(&Cardinality::Static(3)));
    }

    #[test]
    fn validate_rejects_zero_cardinality() {
        let err = WorkflowDefinition::builder("m", "d")
            .simple_activity("A", "p", &[])
            .flow_end("A")
            .multi_static("A", 0)
            .build()
            .unwrap_err();
        assert!(matches!(err, WfError::Flow(m) if m.contains("cardinality 0")));
    }

    #[test]
    fn validate_rejects_duplicate_multi() {
        let err = WorkflowDefinition::builder("m", "d")
            .simple_activity("A", "p", &[])
            .flow_end("A")
            .multi_static("A", 2)
            .multi_static("A", 3)
            .build()
            .unwrap_err();
        assert!(matches!(err, WfError::Flow(m) if m.contains("more than one")));
    }

    #[test]
    fn validate_rejects_empty_cancel_region() {
        let err = WorkflowDefinition::builder("c", "d")
            .simple_activity("A", "p", &[])
            .flow_end("A")
            .cancel_on("A", &[])
            .build()
            .unwrap_err();
        assert!(matches!(err, WfError::Flow(m) if m.contains("empty region")));
    }

    #[test]
    fn validate_rejects_self_cancelling_trigger() {
        let err = WorkflowDefinition::builder("c", "d")
            .simple_activity("A", "p", &[])
            .simple_activity("B", "q", &[])
            .flow("A", "B")
            .flow_end("B")
            .cancel_on("A", &["A"])
            .build()
            .unwrap_err();
        assert!(matches!(err, WfError::Flow(m) if m.contains("its own trigger")));
    }

    #[test]
    fn condition_fields_include_pattern_sources() {
        let def = patterned();
        let fields = def.condition_fields();
        assert!(fields.contains(&FieldRef::new("A", "n")), "runtime cardinality source");
        assert!(fields.contains(&FieldRef::new("A", "mode")), "cancel condition source");
    }

    #[test]
    fn dot_marks_patterns() {
        let def = patterned();
        let dot = def.to_dot();
        assert!(dot.contains("shape=component"), "or-join shape");
        assert!(dot.contains("×A.n"), "multi-instance label");
        assert!(dot.contains("style=dashed color=red"), "cancel edge");
    }

    #[test]
    fn condition_fields_collected() {
        let def = WorkflowDefinition::builder("w", "d")
            .simple_activity("A", "p", &["x"])
            .simple_activity("B", "q", &[])
            .flow_if("A", "B", Condition::field_equals("A", "x", "1"))
            .flow_end_if("A", Condition::field_not_equals("A", "x", "1"))
            .flow_end("B")
            .build()
            .unwrap();
        let fields = def.condition_fields();
        assert_eq!(fields.len(), 1);
        assert!(fields.contains(&FieldRef::new("A", "x")));
    }
}
