//! Integration: trace exporters are byte-deterministic (DESIGN §12).
//!
//! Spans are stamped in virtual time and documents sign deterministically,
//! so a fixed workload must export byte-identical JSONL and Chrome-trace
//! files on every run, on every machine. The goldens under `tests/golden/`
//! pin the exact bytes; regenerate them after an intentional format or
//! instrumentation change with:
//!
//! ```sh
//! REGEN_GOLDEN=1 cargo test --test exporter_determinism
//! ```

mod common;

use common::check_golden;
use dra4wfms::obs::{events_to_chrome, events_to_jsonl, TraceEvent};

/// The canonical golden workload: one instrumented Fig. 9A instance over the
/// system's own lossless channel (one `deliver` span per hand-off: the
/// initial store and nine hops) with no monitor attached, everything seeded.
fn golden_trace() -> Vec<TraceEvent> {
    let rig = common::golden_rig().unmonitored();
    let sys = rig.cloud(3);
    let initial = rig.initial("golden-run");
    assert_eq!(rig.run(&sys, &initial).run().unwrap().steps, 9);
    rig.tracer.events()
}

#[test]
fn repeated_runs_export_identical_bytes() {
    let first = golden_trace();
    let second = golden_trace();
    assert_eq!(events_to_jsonl(&first), events_to_jsonl(&second));
    assert_eq!(events_to_chrome(&first), events_to_chrome(&second));
}

#[test]
fn jsonl_export_matches_golden() {
    check_golden("fig9a.trace.jsonl", &events_to_jsonl(&golden_trace()));
}

#[test]
fn chrome_export_matches_golden() {
    check_golden("fig9a.chrome.json", &events_to_chrome(&golden_trace()));
}

#[test]
fn exports_parse_back_structurally() {
    let events = golden_trace();
    let jsonl = events_to_jsonl(&events);
    assert_eq!(jsonl.lines().count(), events.len(), "one JSON object per event");
    for line in jsonl.lines() {
        assert!(line.starts_with("{\"seq\":") && line.ends_with('}'));
    }
    let chrome = events_to_chrome(&events);
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert_eq!(chrome.matches("\"ph\":\"X\"").count(), events.len());
}
