//! Self time per stage from a single-thread trace, by interval containment.
//!
//! `dra_obs::LatencyProfile` parents spans by their workflow coordinates and
//! so never links `sched:dispatch` to the `hop` it wraps. All spans of a run
//! close on the one driver thread, so plain nesting of intervals is exact: a
//! span's self time is its duration minus the spans directly inside it.

use dra_obs::TraceEvent;
use std::collections::BTreeMap;

/// Totals of one stage over a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTime {
    pub count: u64,
    pub total_us: u64,
    pub self_us: u64,
}

/// Self time per stage name.
pub fn self_times(events: &[TraceEvent]) -> BTreeMap<String, StageTime> {
    // parents first: earlier start, then later end, then later close (a
    // parent closes after its children, so it carries the higher `seq`)
    let mut order: Vec<&TraceEvent> = events.iter().collect();
    order.sort_by(|a, b| {
        a.start_us.cmp(&b.start_us).then(b.end_us.cmp(&a.end_us)).then(b.seq.cmp(&a.seq))
    });

    let mut self_us: Vec<u64> = order.iter().map(|e| e.end_us - e.start_us).collect();
    let mut open: Vec<usize> = Vec::new();
    for (i, e) in order.iter().enumerate() {
        while let Some(&top) = open.last() {
            if e.start_us >= order[top].start_us && e.end_us <= order[top].end_us {
                break;
            }
            open.pop();
        }
        if let Some(&parent) = open.last() {
            self_us[parent] = self_us[parent].saturating_sub(e.end_us - e.start_us);
        }
        open.push(i);
    }

    let mut stages: BTreeMap<String, StageTime> = BTreeMap::new();
    for (e, own) in order.iter().zip(self_us) {
        let s = stages.entry(e.stage.clone()).or_default();
        s.count += 1;
        s.total_us += e.end_us - e.start_us;
        s.self_us += own;
    }
    stages
}

/// The `k` stages with the most self time, largest first.
pub fn top_self(stages: &BTreeMap<String, StageTime>, k: usize) -> Vec<(&str, StageTime)> {
    let mut all: Vec<(&str, StageTime)> = stages.iter().map(|(n, s)| (n.as_str(), *s)).collect();
    all.sort_by(|a, b| b.1.self_us.cmp(&a.1.self_us).then(a.0.cmp(b.0)));
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(seq: u64, stage: &str, start_us: u64, end_us: u64) -> TraceEvent {
        TraceEvent {
            seq,
            start_us,
            end_us,
            stage: stage.into(),
            actor: String::new(),
            process_id: String::new(),
            activity: String::new(),
            iter: 0,
            outcome: "ok".into(),
            attrs: Vec::new(),
        }
    }

    #[test]
    fn nested_and_sibling_spans() {
        // recorded in closing order, as the tracer does
        let events = vec![
            span(0, "verify", 10, 40),
            span(1, "commit", 60, 65),
            span(2, "admit", 50, 80),
            span(3, "hop", 5, 90),
            span(4, "dispatch", 0, 100),
            span(5, "verify", 110, 120),
            span(6, "hop", 105, 130),
        ];
        let t = self_times(&events);
        assert_eq!(t["dispatch"], StageTime { count: 1, total_us: 100, self_us: 15 });
        assert_eq!(t["hop"], StageTime { count: 2, total_us: 110, self_us: 25 + 15 });
        assert_eq!(t["admit"], StageTime { count: 1, total_us: 30, self_us: 25 });
        assert_eq!(t["verify"], StageTime { count: 2, total_us: 40, self_us: 40 });
        assert_eq!(t["commit"].self_us, 5);
        // self times partition the covered wall: 100 + 25 of top-level spans
        assert_eq!(t.values().map(|s| s.self_us).sum::<u64>(), 125);
        assert_eq!(top_self(&t, 2), vec![("hop", t["hop"]), ("verify", t["verify"])]);
    }

    #[test]
    fn equal_bounds_nest_by_closing_order() {
        // a zero-length child at its parent's start, and a child spanning
        // the parent's whole interval: the later-closing span is the parent
        let events = vec![span(0, "child", 0, 0), span(1, "inner", 0, 9), span(2, "outer", 0, 9)];
        let t = self_times(&events);
        assert_eq!(t["outer"].self_us, 0);
        assert_eq!(t["inner"].self_us, 9);
        assert_eq!(t["child"].self_us, 0);
    }
}
