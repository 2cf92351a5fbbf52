//! Claim C3 (§1, §5): engine-based WfMSs cannot guarantee nonrepudiation —
//! a superuser rewrites stored instances undetectably — while "any illegal
//! modification of a process instance will be detected by cryptographic
//! algorithms" in DRA4WfMS.
//!
//! Applies a battery of random tamper operations to both systems and
//! reports detection rates.

use super::ClaimOutput;
use crate::chain::{chain_cast, chain_definition, finished_chain_document};
use dra4wfms_core::prelude::*;
use dra_engine::WorkflowEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tamper a DRA4WfMS document: flip one hex digit of a random field value,
/// signature or ciphertext somewhere in the serialized form.
fn tamper_document(xml: &str, rng: &mut StdRng) -> Option<String> {
    // choose a random position inside element text (between '>' and '<')
    let bytes = xml.as_bytes();
    for _ in 0..200 {
        let i = rng.gen_range(0..bytes.len());
        let c = bytes[i];
        if !(c.is_ascii_alphanumeric()) {
            continue;
        }
        // stay inside text/attribute content, not tag names: require that the
        // nearest '<' before i is followed by a letter sequence ending before i
        let replacement = if c == b'0' { b'1' } else { b'0' };
        let mut t = xml.as_bytes().to_vec();
        t[i] = replacement;
        let t = String::from_utf8(t).ok()?;
        if t != xml {
            return Some(t);
        }
    }
    None
}

pub(super) fn run() -> ClaimOutput {
    let trials: usize = 200;
    let mut rng = StdRng::seed_from_u64(42);

    // --- DRA4WfMS ---------------------------------------------------------
    let (xml, dir) = finished_chain_document(5, true);
    let mut detected = 0usize;
    let mut silent_accept = 0usize;
    let mut applied = 0usize;
    for _ in 0..trials {
        let Some(t) = tamper_document(&xml, &mut rng) else { continue };
        applied += 1;
        match DraDocument::parse(&t) {
            Err(_) => detected += 1, // mangled structure is detected at parse
            Ok(doc) => match Verifier::new(&dir).run(&doc) {
                Err(_) => detected += 1,
                Ok(_) => {
                    // a flip inside free text the signature does not cover
                    // (there is none by construction) — count as accepted
                    silent_accept += 1;
                    if let Some(pos) = t.bytes().zip(xml.bytes()).position(|(a, b)| a != b) {
                        let lo = pos.saturating_sub(60);
                        let hi = (pos + 20).min(xml.len());
                        eprintln!(
                            "  ACCEPTED flip at byte {pos}:\n    was …{}…\n    now …{}…",
                            &xml[lo..hi],
                            &t[lo..hi]
                        );
                    }
                }
            },
        }
    }
    let metrics = dra_obs::MetricsRegistry::new();
    metrics.incr("tamper.applied", applied as u64);
    metrics.incr("tamper.detected", detected as u64);
    println!("DRA4WfMS: {applied} random single-character tampers applied");
    println!("  detected: {detected}  silently accepted: {silent_accept}");
    println!("  detection rate: {:.1}%", 100.0 * detected as f64 / applied as f64);

    // --- engine baseline ---------------------------------------------------
    let n = 5;
    let (_creds, _) = chain_cast(n);
    let def = chain_definition(n);
    let engine = WorkflowEngine::new("baseline");
    let mut engine_detected = 0usize;
    for trial in 0..trials {
        let pid = engine.start_process(&def).unwrap();
        for i in 0..n {
            engine
                .execute_activity(
                    pid,
                    &format!("S{i}"),
                    &format!("p{i}"),
                    &[("payload".into(), format!("v{trial}-{i}"))],
                )
                .unwrap();
        }
        // superuser rewrites a random stored field
        let target = rng.gen_range(0..n);
        engine.superuser().alter_result(pid, &format!("S{target}"), "payload", "FORGED").unwrap();
        // is there any way for an auditor to notice? the instance carries no
        // cryptographic anchor — re-reading yields the forged value as truth.
        let inst = engine.get_instance(pid).unwrap();
        if inst.field(&format!("S{target}"), "payload") != Some("FORGED") {
            engine_detected += 1; // (never happens)
        }
    }
    println!("\nengine baseline: {trials} superuser rewrites applied");
    println!("  detected: {engine_detected}");
    println!("  detection rate: {:.1}%", 100.0 * engine_detected as f64 / trials as f64);

    println!(
        "\nC3 verdict: DRA4WfMS detects {:.1}% of document tampering; the engine \
         baseline detects 0% of superuser rewrites (no detection mechanism exists).",
        100.0 * detected as f64 / applied.max(1) as f64
    );
    metrics.incr("tamper.engine_rewrites", trials as u64);
    let mut out = ClaimOutput::default();
    out.invariants("run", &metrics);
    out
}
