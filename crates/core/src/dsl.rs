//! A compact textual process-definition language.
//!
//! The paper builds on the WfMC's XML Process Definition Language (XPDL
//! \[20\]); authoring raw XML by hand is painful, so this module provides a
//! human-writable DSL that compiles to [`WorkflowDefinition`]:
//!
//! ```text
//! workflow "purchase-order" designer "designer" tfc "TFC"
//!
//! activity A by supplier {
//!     respond attachment, total
//! }
//! activity B1 by reviewer {
//!     request A.total
//!     respond review
//! }
//! activity C by purchasing join all {
//!     respond decision
//! }
//!
//! flow A -> B1
//! flow A -> C
//! flow B1 -> C
//! flow C -> A  when C.decision == "insufficient"
//! flow C -> end when C.decision != "insufficient"
//! ```
//!
//! Lines starting with `#` are comments. The first declared activity is the
//! start unless a `start X` line overrides it.

use crate::error::{WfError, WfResult};
use crate::model::{
    Activity, CancelRegion, Cardinality, Condition, FieldRef, JoinKind, MultiInstance, Target,
    Transition, WorkflowDefinition,
};

/// Parse the DSL into a validated [`WorkflowDefinition`].
pub fn parse_workflow(src: &str) -> WfResult<WorkflowDefinition> {
    let mut name = None;
    let mut designer = None;
    let mut tfc = None;
    let mut start: Option<String> = None;
    let mut activities: Vec<Activity> = Vec::new();
    let mut transitions: Vec<Transition> = Vec::new();
    let mut multi: Vec<MultiInstance> = Vec::new();
    let mut cancellations: Vec<CancelRegion> = Vec::new();

    let mut lines = src.lines().enumerate().peekable();
    while let Some((lineno, raw)) = lines.next() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: &str| WfError::Parse(format!("line {}: {msg}", lineno + 1));

        if let Some(rest) = line.strip_prefix("workflow ") {
            let (n, rest) = take_quoted(rest).ok_or_else(|| err("expected workflow \"name\""))?;
            name = Some(n);
            let mut rest = rest.trim();
            while !rest.is_empty() {
                if let Some(r) = rest.strip_prefix("designer ") {
                    let (d, r2) =
                        take_quoted(r).ok_or_else(|| err("expected designer \"name\""))?;
                    designer = Some(d);
                    rest = r2.trim();
                } else if let Some(r) = rest.strip_prefix("tfc ") {
                    let (t, r2) = take_quoted(r).ok_or_else(|| err("expected tfc \"name\""))?;
                    tfc = Some(t);
                    rest = r2.trim();
                } else {
                    return Err(err(&format!("unexpected tokens: '{rest}'")));
                }
            }
        } else if let Some(rest) = line.strip_prefix("start ") {
            start = Some(rest.trim().to_string());
        } else if let Some(rest) = line.strip_prefix("activity ") {
            let mut act = parse_activity_header(rest).map_err(|m| err(&m))?;
            // body: either on following lines until '}', or empty "{}" inline
            if rest.trim_end().ends_with("{}") {
                activities.push(act);
                continue;
            }
            loop {
                let Some((bl, braw)) = lines.next() else {
                    return Err(WfError::Parse(format!(
                        "line {}: unterminated activity block",
                        lineno + 1
                    )));
                };
                let bline = strip_comment(braw).trim();
                if bline.is_empty() {
                    continue;
                }
                if bline == "}" {
                    break;
                }
                let berr = |msg: &str| WfError::Parse(format!("line {}: {msg}", bl + 1));
                if let Some(fields) = bline.strip_prefix("respond ") {
                    for f in fields.split(',') {
                        let f = f.trim();
                        if f.is_empty() {
                            return Err(berr("empty response field"));
                        }
                        act.responses.push(f.to_string());
                    }
                } else if let Some(refs) = bline.strip_prefix("request ") {
                    for r in refs.split(',') {
                        let r = r.trim();
                        let (a, f) = r
                            .split_once('.')
                            .ok_or_else(|| berr("request must be activity.field"))?;
                        act.requests.push(FieldRef::new(a, f));
                    }
                } else {
                    return Err(berr(&format!("unexpected line in activity block: '{bline}'")));
                }
            }
            activities.push(act);
        } else if let Some(rest) = line.strip_prefix("flow ") {
            transitions.push(parse_flow(rest).map_err(|m| err(&m))?);
        } else if let Some(rest) = line.strip_prefix("multi ") {
            multi.push(parse_multi(rest).map_err(|m| err(&m))?);
        } else if let Some(rest) = line.strip_prefix("cancel ") {
            cancellations.push(parse_cancel(rest).map_err(|m| err(&m))?);
        } else {
            return Err(err(&format!("unrecognized statement: '{line}'")));
        }
    }

    let mut def = WorkflowDefinition {
        name: name.ok_or_else(|| WfError::Parse("missing 'workflow \"name\"'".into()))?,
        designer: designer.ok_or_else(|| WfError::Parse("missing 'designer \"name\"'".into()))?,
        start: String::new(),
        activities,
        transitions,
        multi,
        cancellations,
        tfc,
    };
    def.start = match start {
        Some(s) => s,
        None => def
            .activities
            .first()
            .map(|a| a.id.clone())
            .ok_or_else(|| WfError::Parse("no activities declared".into()))?,
    };
    def.validate()?;
    Ok(def)
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

/// `"value" rest` → (value, rest)
fn take_quoted(s: &str) -> Option<(String, &str)> {
    let s = s.trim_start();
    let rest = s.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some((rest[..end].to_string(), &rest[end + 1..]))
}

/// `A by participant [join all|any|or] {`
fn parse_activity_header(rest: &str) -> Result<Activity, String> {
    let rest = rest.trim().trim_end_matches("{}").trim_end_matches('{').trim();
    let mut tokens = rest.split_whitespace();
    let id = tokens.next().ok_or("expected activity id")?.to_string();
    match tokens.next() {
        Some("by") => {}
        other => return Err(format!("expected 'by', found {other:?}")),
    }
    let participant = tokens.next().ok_or("expected participant")?.to_string();
    let mut join = JoinKind::Any;
    match tokens.next() {
        None => {}
        Some("join") => match tokens.next() {
            Some("all") => join = JoinKind::All,
            Some("any") => join = JoinKind::Any,
            Some("or") => join = JoinKind::Or,
            other => return Err(format!("expected 'all', 'any' or 'or', found {other:?}")),
        },
        Some(t) => return Err(format!("unexpected token '{t}'")),
    }
    if let Some(t) = tokens.next() {
        return Err(format!("unexpected token '{t}'"));
    }
    Ok(Activity { id, participant, join, requests: Vec::new(), responses: Vec::new() })
}

/// `B 3` (static) or `B from A.n` (runtime cardinality)
fn parse_multi(rest: &str) -> Result<MultiInstance, String> {
    let mut tokens = rest.split_whitespace();
    let activity = tokens.next().ok_or("expected activity id after 'multi'")?.to_string();
    let cardinality = match tokens.next() {
        Some("from") => {
            let r = tokens.next().ok_or("expected activity.field after 'from'")?;
            let (a, f) = r.split_once('.').ok_or("cardinality source must be activity.field")?;
            Cardinality::Runtime(FieldRef::new(a, f))
        }
        Some(count) => {
            let k: u32 =
                count.parse().map_err(|_| format!("'{count}' is not an instance count"))?;
            Cardinality::Static(k)
        }
        None => return Err("expected instance count or 'from activity.field'".into()),
    };
    if let Some(t) = tokens.next() {
        return Err(format!("unexpected token '{t}'"));
    }
    Ok(MultiInstance { activity, cardinality })
}

/// `C, D on B [when A.mode == "solo"]`
fn parse_cancel(rest: &str) -> Result<CancelRegion, String> {
    let (rest, condition) = match rest.find(" when ") {
        Some(i) => {
            let cond = parse_condition(rest[i + 6..].trim())?;
            (&rest[..i], Some(cond))
        }
        None => (rest, None),
    };
    let (region_part, trigger) = rest.split_once(" on ").ok_or("expected 'region on trigger'")?;
    let region: Vec<String> =
        region_part.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect();
    if region.is_empty() {
        return Err("expected at least one activity before 'on'".into());
    }
    Ok(CancelRegion { trigger: trigger.trim().to_string(), condition, region })
}

/// `A.field == "v"` or `A.field != "v"`
fn parse_condition(c: &str) -> Result<Condition, String> {
    let (lhs, negate, value) = if let Some((l, v)) = c.split_once("==") {
        (l, false, v)
    } else if let Some((l, v)) = c.split_once("!=") {
        (l, true, v)
    } else {
        return Err("condition must use == or !=".into());
    };
    let (activity, field) =
        lhs.trim().split_once('.').ok_or("condition left side must be activity.field")?;
    let (value, _) = take_quoted(value).ok_or("condition value must be quoted")?;
    Ok(Condition {
        activity: activity.trim().to_string(),
        field: field.trim().to_string(),
        equals: value,
        negate,
    })
}

/// `A -> B [when A.field == "v" | when A.field != "v"]` (or `-> end`)
fn parse_flow(rest: &str) -> Result<Transition, String> {
    let (edge, cond) = match rest.find(" when ") {
        Some(i) => (&rest[..i], Some(rest[i + 6..].trim())),
        None => (rest, None),
    };
    let (from, to) = edge.split_once("->").ok_or("expected 'from -> to'")?;
    let from = from.trim().to_string();
    let to = to.trim();
    let to =
        if to.eq_ignore_ascii_case("end") { Target::End } else { Target::Activity(to.to_string()) };
    let condition = match cond {
        None => None,
        Some(c) => Some(parse_condition(c)?),
    };
    Ok(Transition { from, to, condition })
}

fn condition_to_dsl(c: &Condition) -> String {
    format!("{}.{} {} \"{}\"", c.activity, c.field, if c.negate { "!=" } else { "==" }, c.equals)
}

/// Render a definition back into the DSL (inverse of [`parse_workflow`]).
pub fn to_dsl(def: &WorkflowDefinition) -> String {
    let mut out = format!("workflow \"{}\" designer \"{}\"", def.name, def.designer);
    if let Some(t) = &def.tfc {
        out.push_str(&format!(" tfc \"{t}\""));
    }
    out.push('\n');
    if def.activities.first().map(|a| &a.id) != Some(&def.start) {
        out.push_str(&format!("start {}\n", def.start));
    }
    out.push('\n');
    for a in &def.activities {
        out.push_str(&format!("activity {} by {}", a.id, a.participant));
        match a.join {
            JoinKind::Any => {}
            JoinKind::All => out.push_str(" join all"),
            JoinKind::Or => out.push_str(" join or"),
        }
        if a.requests.is_empty() && a.responses.is_empty() {
            out.push_str(" {}\n");
            continue;
        }
        out.push_str(" {\n");
        if !a.requests.is_empty() {
            let reqs: Vec<String> =
                a.requests.iter().map(|r| format!("{}.{}", r.activity, r.field)).collect();
            out.push_str(&format!("    request {}\n", reqs.join(", ")));
        }
        if !a.responses.is_empty() {
            out.push_str(&format!("    respond {}\n", a.responses.join(", ")));
        }
        out.push_str("}\n");
    }
    out.push('\n');
    for t in &def.transitions {
        let to = match &t.to {
            Target::Activity(a) => a.clone(),
            Target::End => "end".to_string(),
        };
        out.push_str(&format!("flow {} -> {}", t.from, to));
        if let Some(c) = &t.condition {
            out.push_str(&format!(" when {}", condition_to_dsl(c)));
        }
        out.push('\n');
    }
    for m in &def.multi {
        match &m.cardinality {
            Cardinality::Static(k) => out.push_str(&format!("multi {} {k}\n", m.activity)),
            Cardinality::Runtime(r) => {
                out.push_str(&format!("multi {} from {}.{}\n", m.activity, r.activity, r.field))
            }
        }
    }
    for c in &def.cancellations {
        out.push_str(&format!("cancel {} on {}", c.region.join(", "), c.trigger));
        if let Some(cond) = &c.condition {
            out.push_str(&format!(" when {}", condition_to_dsl(cond)));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG9: &str = r#"
# the paper's Fig. 9 process
workflow "purchase-order" designer "designer" tfc "TFC"

activity A by supplier {
    respond attachment, total
}
activity B1 by finance {
    request A.total
    respond check1
}
activity B2 by legal {
    request A.attachment
    respond check2
}
activity C by purchasing join all {
    request B1.check1, B2.check2
    respond decision
}
activity D by fulfilment {
    respond ack
}

flow A -> B1
flow A -> B2
flow B1 -> C
flow B2 -> C
flow C -> A when C.decision == "insufficient"
flow C -> D when C.decision != "insufficient"
flow D -> end
"#;

    #[test]
    fn parses_fig9() {
        let def = parse_workflow(FIG9).unwrap();
        assert_eq!(def.name, "purchase-order");
        assert_eq!(def.designer, "designer");
        assert_eq!(def.tfc.as_deref(), Some("TFC"));
        assert_eq!(def.start, "A");
        assert_eq!(def.activities.len(), 5);
        let c = def.activity("C").unwrap();
        assert_eq!(c.join, JoinKind::All);
        assert_eq!(c.requests.len(), 2);
        assert_eq!(c.responses, vec!["decision"]);
        assert_eq!(def.transitions.len(), 7);
        let back_edge = def
            .transitions
            .iter()
            .find(|t| t.from == "C" && matches!(&t.to, Target::Activity(a) if a == "A"))
            .unwrap();
        let cond = back_edge.condition.as_ref().unwrap();
        assert_eq!(cond.equals, "insufficient");
        assert!(!cond.negate);
    }

    #[test]
    fn roundtrips_through_dsl() {
        let def = parse_workflow(FIG9).unwrap();
        let dsl = to_dsl(&def);
        let reparsed = parse_workflow(&dsl).unwrap();
        assert_eq!(reparsed, def);
    }

    const PATTERNED: &str = r#"
workflow "patterned" designer "designer"

activity A by planner {
    respond n, mode
}
activity B by worker {
    respond part
}
activity C by helper {
    respond alt
}
activity J by merger join or {
    respond merged
}

flow A -> B
flow A -> C when A.mode == "both"
flow B -> J
flow C -> J
flow J -> end

multi B from A.n
cancel C on B when A.mode == "solo"
"#;

    #[test]
    fn parses_patterns() {
        let def = parse_workflow(PATTERNED).unwrap();
        assert_eq!(def.activity("J").unwrap().join, JoinKind::Or);
        assert_eq!(
            def.multi_for("B").map(|m| &m.cardinality),
            Some(&Cardinality::Runtime(FieldRef::new("A", "n")))
        );
        let cx = &def.cancellations[0];
        assert_eq!(cx.trigger, "B");
        assert_eq!(cx.region, vec!["C"]);
        let cond = cx.condition.as_ref().unwrap();
        assert_eq!((cond.activity.as_str(), cond.equals.as_str()), ("A", "solo"));
    }

    #[test]
    fn patterns_roundtrip_through_dsl() {
        let def = parse_workflow(PATTERNED).unwrap();
        let dsl = to_dsl(&def);
        let reparsed = parse_workflow(&dsl).unwrap();
        assert_eq!(reparsed, def);
    }

    #[test]
    fn static_multi_and_unconditional_cancel() {
        let src = r#"
workflow "w" designer "d"
activity A by p {}
activity B by q {}
activity C by r {}
flow A -> B
flow A -> C
flow B -> end
flow C -> end
multi B 4
cancel C on B
"#;
        let def = parse_workflow(src).unwrap();
        assert_eq!(def.multi_for("B").map(|m| &m.cardinality), Some(&Cardinality::Static(4)));
        assert!(def.cancellations[0].condition.is_none());
        let reparsed = parse_workflow(&to_dsl(&def)).unwrap();
        assert_eq!(reparsed, def);
    }

    #[test]
    fn bad_multi_rejected() {
        let src =
            "workflow \"w\" designer \"d\"\nactivity A by p {}\nflow A -> end\nmulti A lots\n";
        assert!(matches!(parse_workflow(src), Err(WfError::Parse(m)) if m.contains("line 4")));
        let src =
            "workflow \"w\" designer \"d\"\nactivity A by p {}\nflow A -> end\nmulti A from n\n";
        assert!(parse_workflow(src).is_err());
    }

    #[test]
    fn bad_cancel_rejected() {
        let src = "workflow \"w\" designer \"d\"\nactivity A by p {}\nflow A -> end\ncancel A\n";
        assert!(matches!(parse_workflow(src), Err(WfError::Parse(m)) if m.contains("on")));
    }

    #[test]
    fn start_override() {
        let src = r#"
workflow "w" designer "d"
start B
activity A by p {}
activity B by q {}
flow B -> A
flow A -> end
"#;
        let def = parse_workflow(src).unwrap();
        assert_eq!(def.start, "B");
    }

    #[test]
    fn empty_body_and_comments() {
        let src = r#"
workflow "w" designer "d"   # header comment
activity A by p {}          # empty body
flow A -> end
"#;
        let def = parse_workflow(src).unwrap();
        assert!(def.activity("A").unwrap().responses.is_empty());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let src =
            "workflow \"w\" designer \"d\"\nactivity A by p {}\nbogus statement\nflow A -> end\n";
        let err = parse_workflow(src).unwrap_err();
        assert!(matches!(&err, WfError::Parse(m) if m.contains("line 3")), "{err}");
    }

    #[test]
    fn missing_header_rejected() {
        assert!(matches!(
            parse_workflow("activity A by p {}\nflow A -> end\n"),
            Err(WfError::Parse(_))
        ));
        assert!(matches!(
            parse_workflow("workflow \"w\" designer \"d\"\n"),
            Err(WfError::Parse(_))
        ));
    }

    #[test]
    fn unterminated_block_rejected() {
        let src = "workflow \"w\" designer \"d\"\nactivity A by p {\n    respond x\n";
        assert!(
            matches!(parse_workflow(src), Err(WfError::Parse(m)) if m.contains("unterminated"))
        );
    }

    #[test]
    fn invalid_condition_rejected() {
        let src =
            "workflow \"w\" designer \"d\"\nactivity A by p {}\nflow A -> end when A.x ~ \"1\"\n";
        assert!(parse_workflow(src).is_err());
    }

    #[test]
    fn semantic_validation_still_applies() {
        // DSL parses but the graph is invalid (unknown flow target)
        let src =
            "workflow \"w\" designer \"d\"\nactivity A by p {}\nflow A -> GHOST\nflow A -> end\n";
        assert!(matches!(parse_workflow(src), Err(WfError::UnknownActivity(a)) if a == "GHOST"));
    }

    #[test]
    fn parsed_definition_runs_end_to_end() {
        use crate::aea::Aea;
        use crate::document::DraDocument;
        use crate::identity::{Credentials, Directory};
        use crate::policy::SecurityPolicy;

        let src = r#"
workflow "mini" designer "designer"
activity submit by alice {
    respond amount
}
activity approve by bob {
    request submit.amount
    respond decision
}
flow submit -> approve
flow approve -> end
"#;
        let def = parse_workflow(src).unwrap();
        let designer = Credentials::from_seed("designer", "dsl-d");
        let alice = Credentials::from_seed("alice", "dsl-a");
        let bob = Credentials::from_seed("bob", "dsl-b");
        let dir = Directory::from_credentials([&designer, &alice, &bob]);
        let doc =
            DraDocument::new_initial_with_pid(&def, &SecurityPolicy::public(), &designer, "dsl")
                .unwrap();
        let aea = Aea::new(alice, dir.clone());
        let recv = aea.receive(doc.to_xml_string(), "submit").unwrap();
        let done = aea.complete(&recv, &[("amount".into(), "5".into())]).unwrap();
        let aea = Aea::new(bob, dir.clone());
        let recv = aea.receive(done.document.to_xml_string(), "approve").unwrap();
        assert_eq!(recv.visible.len(), 1);
        let done = aea.complete(&recv, &[("decision".into(), "ok".into())]).unwrap();
        assert!(done.route.ends);
    }
}
