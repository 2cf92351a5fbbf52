//! Span-tree latency attribution: where did the virtual time actually go?
//!
//! A flat trace answers "how long did each span take"; it does not answer
//! "which stage is *hot*" — a `hop` span contains its `verify`, `execute`,
//! `seal` and `deliver` children, so its duration double-counts theirs.
//! [`LatencyProfile`] rebuilds the span tree by virtual-time containment
//! (per process instance) and splits every span's duration into **self
//! time** (spent in the stage itself) and **child time** (delegated to
//! nested stages), then aggregates per stage: counts, totals, exact
//! nearest-rank percentiles, and a top-k hot-stage ranking by self time.
//!
//! Parenthood uses the tracer's recording order as a tiebreak: children
//! close before their parents (spans are recorded on `end`), so the
//! innermost enclosing span is the containing candidate with the smallest
//! `seq` greater than the child's. Zero-width spans — common in virtual
//! time, where local work is free — nest correctly under this rule.
//!
//! Everything is integer virtual-time arithmetic over a deterministic
//! event slice, so `to_json` output is byte-identical run after run: the
//! property the bench regression gate (`claim profile`, held against
//! `perf/BENCH_profile.baseline.json`) relies on.

use crate::event::TraceEvent;
use crate::export::json_escape;
use std::collections::BTreeMap;

/// Aggregated latency attribution of one stage across a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageProfile {
    /// Stage name (see [`crate::stage`]).
    pub stage: String,
    /// Spans of this stage in the trace.
    pub count: u64,
    /// Σ span duration, virtual µs (inclusive of children).
    pub total_us: u64,
    /// Σ duration minus time attributed to direct children, virtual µs.
    pub self_us: u64,
    /// Σ time attributed to direct children, virtual µs.
    pub child_us: u64,
    /// Longest single span, virtual µs.
    pub max_us: u64,
    /// Median span duration (exact nearest-rank), virtual µs.
    pub p50_us: u64,
    /// 95th-percentile span duration (exact nearest-rank), virtual µs.
    pub p95_us: u64,
    /// 99th-percentile span duration (exact nearest-rank), virtual µs.
    pub p99_us: u64,
}

/// Per-stage latency attribution for a whole trace. Build with
/// [`LatencyProfile::from_events`]; stages are kept sorted by name so the
/// JSON rendering is deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencyProfile {
    /// One aggregate per stage, sorted by stage name.
    pub stages: Vec<StageProfile>,
}

/// Exact nearest-rank percentile over a sorted slice (0 when empty).
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

impl LatencyProfile {
    /// Attribute every span of `events` to its stage. Containment (and
    /// hence self-vs-child splitting) is computed within each process
    /// instance; spans with no process id form their own group.
    #[must_use]
    pub fn from_events(events: &[TraceEvent]) -> LatencyProfile {
        struct Agg {
            durations: Vec<u64>,
            child_us: u64,
        }

        // index per process: parenthood never crosses instances
        let mut by_process: BTreeMap<&str, Vec<&TraceEvent>> = BTreeMap::new();
        for e in events {
            by_process.entry(e.process_id.as_str()).or_default().push(e);
        }

        let mut aggs: BTreeMap<&str, Agg> = BTreeMap::new();

        for group in by_process.values() {
            for e in group {
                let duration = e.end_us.saturating_sub(e.start_us);
                let agg = aggs
                    .entry(e.stage.as_str())
                    .or_insert_with(|| Agg { durations: Vec::new(), child_us: 0 });
                agg.durations.push(duration);

                // innermost enclosing span: contains this one in virtual
                // time, closed after it (larger seq, because children are
                // recorded first), and of all such candidates closed
                // soonest — the one this span's time should be charged to
                let parent = group
                    .iter()
                    .filter(|p| p.seq > e.seq && p.start_us <= e.start_us && p.end_us >= e.end_us)
                    .min_by_key(|p| p.seq);
                if let Some(p) = parent {
                    aggs.entry(p.stage.as_str())
                        .or_insert_with(|| Agg { durations: Vec::new(), child_us: 0 })
                        .child_us += duration;
                }
            }
        }

        let stages = aggs
            .into_iter()
            .map(|(stage, mut agg)| {
                agg.durations.sort_unstable();
                let total_us: u64 = agg.durations.iter().sum();
                StageProfile {
                    stage: stage.to_string(),
                    count: agg.durations.len() as u64,
                    total_us,
                    self_us: total_us.saturating_sub(agg.child_us),
                    child_us: agg.child_us,
                    max_us: agg.durations.last().copied().unwrap_or(0),
                    p50_us: nearest_rank(&agg.durations, 0.50),
                    p95_us: nearest_rank(&agg.durations, 0.95),
                    p99_us: nearest_rank(&agg.durations, 0.99),
                }
            })
            .collect();
        LatencyProfile { stages }
    }

    /// The `k` hottest stages by self time (ties broken by stage name, so
    /// the ranking is deterministic).
    #[must_use]
    pub fn top_k(&self, k: usize) -> Vec<&StageProfile> {
        let mut ranked: Vec<&StageProfile> = self.stages.iter().collect();
        ranked.sort_by(|a, b| b.self_us.cmp(&a.self_us).then_with(|| a.stage.cmp(&b.stage)));
        ranked.truncate(k);
        ranked
    }

    /// Look up one stage's aggregate.
    #[must_use]
    pub fn stage(&self, name: &str) -> Option<&StageProfile> {
        self.stages.iter().find(|s| s.stage == name)
    }

    /// Σ self time across all stages — equals the Σ duration of root spans
    /// when the trace nests cleanly.
    #[must_use]
    pub fn total_self_us(&self) -> u64 {
        self.stages.iter().map(|s| s.self_us).sum()
    }

    /// Render as deterministic JSON: an array of per-stage objects sorted
    /// by stage name, one object per line, fixed key order.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.stages.iter().enumerate() {
            out.push_str(&format!(
                "  {{\"stage\": \"{}\", \"count\": {}, \"total_us\": {}, \"self_us\": {}, \
                 \"child_us\": {}, \"max_us\": {}, \"p50_us\": {}, \"p95_us\": {}, \
                 \"p99_us\": {}}}{}\n",
                json_escape(&s.stage),
                s.count,
                s.total_us,
                s.self_us,
                s.child_us,
                s.max_us,
                s.p50_us,
                s.p95_us,
                s.p99_us,
                if i + 1 == self.stages.len() { "" } else { "," }
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Tracer, OUTCOME_OK};

    fn ev(seq: u64, start: u64, end: u64, stage: &str, pid: &str) -> TraceEvent {
        TraceEvent {
            seq,
            start_us: start,
            end_us: end,
            stage: stage.into(),
            actor: "a".into(),
            process_id: pid.into(),
            activity: String::new(),
            iter: 0,
            outcome: OUTCOME_OK.into(),
            attrs: vec![],
        }
    }

    #[test]
    fn self_time_excludes_children() {
        // hop [0,100] containing verify [10,30] and execute [40,80];
        // children closed first (smaller seq)
        let events = vec![
            ev(0, 10, 30, "verify", "p"),
            ev(1, 40, 80, "execute", "p"),
            ev(2, 0, 100, "hop", "p"),
        ];
        let profile = LatencyProfile::from_events(&events);
        let hop = profile.stage("hop").unwrap();
        assert_eq!(hop.total_us, 100);
        assert_eq!(hop.child_us, 60);
        assert_eq!(hop.self_us, 40);
        let verify = profile.stage("verify").unwrap();
        assert_eq!(verify.self_us, 20);
        assert_eq!(profile.total_self_us(), 100, "self times partition the root span");
    }

    #[test]
    fn nesting_charges_innermost_parent() {
        // hop [0,100] ⊃ deliver [10,90] ⊃ verify [20,30]: verify's time is
        // charged to deliver, not hop
        let events = vec![
            ev(0, 20, 30, "verify", "p"),
            ev(1, 10, 90, "deliver", "p"),
            ev(2, 0, 100, "hop", "p"),
        ];
        let profile = LatencyProfile::from_events(&events);
        assert_eq!(profile.stage("deliver").unwrap().child_us, 10);
        assert_eq!(profile.stage("deliver").unwrap().self_us, 70);
        assert_eq!(profile.stage("hop").unwrap().child_us, 80);
        assert_eq!(profile.stage("hop").unwrap().self_us, 20);
    }

    #[test]
    fn zero_width_spans_nest_by_seq() {
        // all at t=5: inner closed first, outer later — the outer span is
        // the parent despite identical bounds
        let events = vec![ev(0, 5, 5, "seal", "p"), ev(1, 5, 5, "hop", "p")];
        let profile = LatencyProfile::from_events(&events);
        assert_eq!(profile.stage("hop").unwrap().child_us, 0, "zero-width child charges nothing");
        assert_eq!(profile.stage("seal").unwrap().count, 1);
    }

    #[test]
    fn containment_does_not_cross_processes() {
        let events = vec![ev(0, 10, 20, "verify", "p1"), ev(1, 0, 100, "hop", "p2")];
        let profile = LatencyProfile::from_events(&events);
        assert_eq!(profile.stage("hop").unwrap().child_us, 0);
        assert_eq!(profile.stage("hop").unwrap().self_us, 100);
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let events: Vec<TraceEvent> = (0..100).map(|i| ev(i, 0, i + 1, "hop", "p")).collect();
        // durations 1..=100, but each span nests inside every later one;
        // use distinct processes to keep them independent
        let events: Vec<TraceEvent> = events
            .into_iter()
            .enumerate()
            .map(|(i, mut e)| {
                e.process_id = format!("p{i}");
                e
            })
            .collect();
        let profile = LatencyProfile::from_events(&events);
        let hop = profile.stage("hop").unwrap();
        assert_eq!(hop.p50_us, 50);
        assert_eq!(hop.p95_us, 95);
        assert_eq!(hop.p99_us, 99);
        assert_eq!(hop.max_us, 100);
    }

    #[test]
    fn top_k_ranks_by_self_time_deterministically() {
        let events = vec![
            ev(0, 0, 10, "b_stage", "p1"),
            ev(1, 0, 10, "a_stage", "p2"),
            ev(2, 0, 50, "hot", "p3"),
        ];
        let profile = LatencyProfile::from_events(&events);
        let top = profile.top_k(2);
        assert_eq!(top[0].stage, "hot");
        assert_eq!(top[1].stage, "a_stage", "ties broken alphabetically");
        assert_eq!(profile.top_k(10).len(), 3);
    }

    #[test]
    fn json_is_deterministic_and_sorted() {
        let t = Tracer::sequential();
        t.span("z").end();
        t.span("a").end();
        let profile = LatencyProfile::from_events(&t.events());
        let json = profile.to_json();
        assert_eq!(json, LatencyProfile::from_events(&t.events()).to_json());
        assert!(json.find("\"a\"").unwrap() < json.find("\"z\"").unwrap());
        assert!(json.starts_with("[\n  {\"stage\": "));
    }

    #[test]
    fn empty_profile_renders() {
        let profile = LatencyProfile::from_events(&[]);
        assert_eq!(profile.to_json(), "[\n]");
        assert_eq!(profile.total_self_us(), 0);
        assert!(profile.top_k(3).is_empty());
    }
}
