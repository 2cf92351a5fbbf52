//! Claim C3 (§1, §5): engine-based WfMSs cannot guarantee nonrepudiation —
//! a superuser rewrites stored instances undetectably — while "any illegal
//! modification of a process instance will be detected by cryptographic
//! algorithms" in DRA4WfMS.
//!
//! Applies a battery of random tamper operations to both systems and
//! reports detection rates.

//!
//! Everything here is a function of the seed: the target is a public-policy
//! chain (deterministic signatures, no ephemeral keys), so the rows are
//! gated byte for byte against `perf/BENCH_tamper.baseline.json`.

use super::{ClaimOutput, Row, Rows};
use crate::rig::Rig;
use dra4wfms_core::prelude::*;
use dra_cloud::delivery::SeededStream;
use dra_engine::WorkflowEngine;

const SEED: u64 = 42;
const TRIALS: usize = 200;
const STEPS: usize = 5;

/// Tamper a DRA4WfMS document: overwrite one random letter or digit —
/// of a tag, an attribute, a field value, a signature — somewhere in the
/// serialized form.
fn tamper_document(xml: &str, rng: &mut SeededStream) -> Option<String> {
    let mut bytes = xml.as_bytes().to_vec();
    let at = (0..200)
        .map(|_| rng.below(bytes.len() as u64) as usize)
        .find(|&i| bytes[i].is_ascii_alphanumeric())?;
    bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
    String::from_utf8(bytes).ok()
}

pub(super) fn run() -> ClaimOutput {
    let mut rng = SeededStream::new(SEED);

    // --- DRA4WfMS ---------------------------------------------------------
    let rig = Rig::chain(STEPS, false, |i| format!("data-{i}"));
    let xml = rig.walked("chain-doc").to_xml_string();
    let (mut applied, mut detected, mut silently_accepted) = (0usize, 0usize, 0usize);
    for _ in 0..TRIALS {
        let Some(t) = tamper_document(&xml, &mut rng) else { continue };
        applied += 1;
        // mangled structure is detected at parse, anything else by a signature
        let verdict = DraDocument::parse(&t).and_then(|doc| Verifier::new(&rig.dir).run(&doc));
        if verdict.is_err() {
            detected += 1;
            continue;
        }
        silently_accepted += 1;
        let at = t.bytes().zip(xml.bytes()).position(|(a, b)| a != b).unwrap_or(0);
        let (lo, hi) = (at.saturating_sub(60), (at + 20).min(xml.len()));
        eprintln!(
            "  ACCEPTED flip at byte {at}:\n    was …{}…\n    now …{}…",
            &xml[lo..hi],
            &t[lo..hi]
        );
    }
    println!("DRA4WfMS: {applied} random single-character tampers applied");
    println!("  detected: {detected}  silently accepted: {silently_accepted}");

    // --- engine baseline ---------------------------------------------------
    let engine = WorkflowEngine::new("baseline");
    let mut engine_detected = 0usize;
    for trial in 0..TRIALS {
        let pid = engine.start_process(&rig.def).unwrap();
        for i in 0..STEPS {
            let fields = [("payload".into(), format!("v{trial}-{i}"))];
            engine.execute_activity(pid, &format!("S{i}"), &format!("p{i}"), &fields).unwrap();
        }
        // superuser rewrites a random stored field
        let target = format!("S{}", rng.below(STEPS as u64));
        engine.superuser().alter_result(pid, &target, "payload", "FORGED").unwrap();
        // is there any way for an auditor to notice? the instance carries no
        // cryptographic anchor — re-reading yields the forged value as truth.
        let inst = engine.get_instance(pid).unwrap();
        if inst.field(&target, "payload") != Some("FORGED") {
            engine_detected += 1; // (never happens)
        }
    }
    println!("engine baseline: {TRIALS} superuser rewrites applied, {engine_detected} detected");

    let mut out = ClaimOutput::default();
    out.verdict(
        "every applied tamper detected; the engine detects none",
        applied > 0 && detected == applied && silently_accepted == 0 && engine_detected == 0,
    );
    out.set_rows(Rows::array(vec![Row::new()
        .with("seed", SEED)
        .with("trials", TRIALS)
        .with("applied", applied)
        .with("detected", detected)
        .with("silently_accepted", silently_accepted)
        .with("engine_rewrites", TRIALS)
        .with("engine_detected", engine_detected)]));
    out
}
