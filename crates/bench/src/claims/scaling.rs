//! Claim C1 (§4.1): "The size of the DRA4WfMS and the time for decrypting
//! and verifying signatures were proportional to the numbers of CERs and
//! signatures in the documents. However, only a constant time was needed to
//! encrypt and embed signatures."
//!
//! Sweep chain workflows of length 1…64 and print α, β, Σ per step count —
//! over the paper's baseline (every hop re-verifies the whole cascade, one
//! signature at a time) and over the sealed hand-off pipeline (each hop
//! re-checks only the one new CER).
//!
//! Wall-clock numbers go to stdout only. `BENCH_scaling.json` instead
//! records *deterministic* cost counters — elliptic-curve group operations
//! and canonicalization allocation bytes over a seeded synthetic workload,
//! and, on a seeded unencrypted chain, the SHA-256 bytes one incremental
//! verification absorbs, the wire bytes a hop formats and the SHA-256 bytes
//! its admission and (routed via the TFC) `TfcServer::receive` absorb, plus
//! the signatures the Fig. 9 AND-join checks at each turn of the loop, and
//! the key agreement work an encrypted instance runs (Fig. 9A, 9B, a
//! 16-step chain; counts, whatever keys it drew) — so
//! the file is byte-identical across runs and machines and can sit behind
//! the perf gate (`perf/BENCH_scaling.baseline.json`). The live chain run
//! is not gated although its counts repeat — walked twice, in one process
//! or two, it reads the same EC ops, sizes and canonicalization bytes at
//! every step, since each scalar multiplication is a fixed-length table
//! walk: its documents do not repeat (ephemeral encryption keys and CER
//! timestamps change their bytes, not their lengths), its EC ops are the
//! cells' 143 a signature over again, and the rest of what it measures is
//! wall clock.
//!
//! The wall-clock shape verdict is printed, not enforced: one-shot per-hop
//! timings on a shared box are indicative, and the deterministic cells
//! behind the gate are what a regression actually trips.

use super::{ClaimOutput, Row, Rows, Value};
use crate::rig::{cast, fig9_confidential, fig9_respond, ChainRecord, Handoff, Rig};
use dra4wfms_core::prelude::*;
use dra_cloud::{PortalStats, Topology};
use dra_crypto::ed25519::{ec_ops, ec_ops_reset, table_builds};
use dra_crypto::x25519::{fixed_base, ladders, table_walks};
use dra_crypto::{sha256_bytes, sha256_bytes_reset, Keypair};
use dra_xml::{
    canon_alloc_bytes, canon_alloc_reset, wire_written_bytes, wire_written_bytes_reset, Element,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Chain lengths for the deterministic counter cells.
const CELLS: [usize; 8] = [1, 2, 4, 8, 16, 32, 48, 64];

/// Deterministic keypair `i` of cell `n` — fixed seeds, so the signatures
/// (RFC 8032 signing is deterministic) and every derived scalar are
/// identical on every run.
fn seeded_keypair(n: usize, i: usize) -> Keypair {
    let mut seed = [0u8; 32];
    seed[..8].copy_from_slice(b"scaling!");
    seed[8..16].copy_from_slice(&(n as u64).to_le_bytes());
    seed[16..24].copy_from_slice(&(i as u64).to_le_bytes());
    Keypair::from_seed(seed)
}

/// Synthetic stand-in for an `n`-CER cascade prefix: fixed contents, so
/// canonical byte counts are exactly reproducible.
fn synthetic_parts(n: usize) -> Vec<Element> {
    (0..=n)
        .map(|i| {
            Element::new("cer")
                .attr("activity", format!("S{i}"))
                .child(Element::new("payload").text(format!("value-{i:04}")))
                .child(Element::new("signature").text("ab".repeat(64)))
        })
        .collect()
}

/// What a hop costs in bytes at every chain length `1..=max` (index
/// `n - 1`), as a hop sees it: the document was built in-process, so every
/// node but the newest CER carries its memos, and the travelling mark pins
/// all but that CER. Unencrypted and seeded, hence byte-deterministic.
struct HopBytes {
    /// SHA-256 bytes one incremental verification absorbs: the new CER's
    /// canonical bytes plus the chain itself — 64 bytes per pinned CER.
    inc_hash: u64,
    /// Bytes the step's AEA formatted (not copied from a memo): the new
    /// CER, the predecessor's signature its cascade covers, section tags.
    wire_written: u64,
    /// Everything SHA-256 absorbs while the document is delivered into a
    /// one-portal cloud that admitted the steps before it: the verification
    /// above and what the `seen/` key still has to hash.
    admit_hash: u64,
    /// Everything SHA-256 absorbs in one `TfcServer::receive` of the step's
    /// intermediate document on the same chain routed via the TFC: the
    /// verification above and opening the sealed result — the redo key and
    /// the onward mark's digest come out of that verification.
    tfc_hash: u64,
}

/// SHA-256 bytes per `TfcServer::receive` along a chain of `max` steps
/// routed via the TFC (index `n - 1`), each intermediate document handed
/// over sealed, as the runner does.
fn tfc_hash_bytes(max: usize) -> Vec<u64> {
    let payload = |i: usize| format!("value-{i:04}");
    let chain = Rig::chain(max, false, payload);
    let mut creds = chain.creds;
    creds.extend(cast("chain", &["TFC"]));
    let mut def = chain.def;
    def.tfc = Some("TFC".into());
    let rig = Rig::new(creds, def, SecurityPolicy::public(), |_| Vec::new());
    let tfc = rig.tfc.as_ref().expect("the definition names a TFC");
    let mut sealed = SealedDocument::new(rig.initial("scaling-tfc"));
    let hop = |(step, activity): (usize, &Activity)| {
        let aea = &rig.agents[&activity.participant];
        let received = aea.receive(sealed.clone(), &activity.id).expect("receive");
        let responses = [("payload".to_string(), payload(step))];
        let inter = aea.complete_via_tfc(&received, &responses).expect("complete");
        sha256_bytes_reset();
        let got = tfc.receive(inter.document).expect("the TFC admits it");
        let hashed = sha256_bytes();
        sealed = tfc.finalize(&got).expect("finalize").document;
        hashed
    };
    rig.def.activities.iter().enumerate().map(hop).collect()
}

/// Signatures the AND-join `C` of Fig. 9 checks at each of three turns of
/// the loop (`C` sends the process back twice), read off the `verify` spans
/// of its AEA in a scheduler-driven run: the branches' new CERs, or the
/// whole cascade.
fn join_sig_checks(advanced: bool) -> Vec<usize> {
    let respond = |r: &ReceivedActivity| {
        let mut answer = fig9_respond(r);
        if r.activity == "C" && r.iter < 2 {
            answer[0].1 = "insufficient".into();
        }
        answer
    };
    let fig9 = Rig::fig9(advanced);
    let rig = Rig::new(fig9.creds, fig9.def, SecurityPolicy::public(), respond);
    let sys = rig.cloud(1);
    rig.run(&sys, &rig.initial("scaling-join")).run().expect("three turns of the loop");
    let events = rig.tracer.events();
    let joins = events.iter().filter(|e| e.stage == dra_obs::stage::VERIFY && e.actor == "p_c");
    joins
        .map(|e| e.attr("signatures_verified").and_then(|n| n.parse().ok()).expect("a count"))
        .collect()
}

/// Key agreement (X25519 ladders, table walks, tables built, fixed-base) of an
/// instance of `rig` once a first one has filled every memo: a fleet's steady state.
fn key_agreement(cell: &str, rig: Rig) -> Row {
    let read = || [ladders(), table_walks(), table_builds(), fixed_base()];
    let count = |pid: &str| {
        let before = read();
        rig.run(&rig.cloud(1), &rig.initial(pid)).run().expect("the instance completes");
        let after = read();
        std::array::from_fn::<u64, 4, _>(|i| after[i] - before[i])
    };
    count("scaling-keys-warm");
    let [ladders, walks, builds, fixed] = count("scaling-keys");
    println!("  {cell}: {ladders} ladders, {walks} table walks, {builds} tables built, {fixed} fixed-base");
    let row = Row::new().with("cell", cell).with("ladders", ladders).with("table_walks", walks);
    row.with("table_builds", builds).with("fixed_base", fixed)
}

/// Instances in each fleet cell.
const FLEET: usize = 4;

/// Per stored version of a fleet of Fig. 9A (or 9B, via the TFC) instances
/// on two replicated clouds: the bytes the channel charged — deltas against
/// the version each hop was served, on the portal leg and the AEA → TFC leg
/// alike, the initial documents and each instance's first TFC hand-off
/// whole —, the bytes replication shipped (everything else the network
/// carried: a fleet serves nothing), what admission hashed to key `seen/`
/// rows and compared to cut `doc/` rows, and the deltas answered whole.
fn fleet_bytes(cell: &str, advanced: bool) -> Row {
    let rig = Rig::fig9(advanced);
    let (sys, _) = rig.federated(Topology::new().cloud("east", 2).cloud("west", 2));
    let pids = (0..FLEET).map(|i| format!("scaling-fleet-{i}"));
    assert_eq!(rig.fleet(&sys, pids, sys.channel()), FLEET, "every instance completes");
    assert_eq!(sys.tips_held(), 0, "no branch head outlives its process");
    let tfc_heads = rig.tfc.as_ref().map_or(0, TfcServer::heads_held);
    assert_eq!(tfc_heads, 0, "nor one of the TFC's");
    let sent = sys.channel().stats();
    let sum = |count: fn(&PortalStats) -> &AtomicUsize| {
        sys.portals.iter().map(|p| count(p).load(Ordering::Relaxed)).sum::<usize>()
    };
    let per_hop = |n: u64| n as f64 / sys.total_stored() as f64;
    let counts = [
        ("handoff_bytes", per_hop(sent.bytes)),
        ("replica_bytes", per_hop(rig.network.bytes() - sent.bytes)),
        ("admit_sha256_bytes", per_hop(sum(|p| &p.sha256_bytes) as u64)),
        ("admit_memcmp_bytes", per_hop(sum(|p| &p.memcmp_bytes) as u64)),
        ("delta_fallbacks", per_hop(sent.delta_fallbacks)),
    ];
    let shown: Vec<String> = counts.iter().map(|(name, n)| format!("{name} {n:.1}")).collect();
    println!("  {cell}, per stored version: {}", shown.join(", "));
    let with = |row: Row, (name, n): &(&str, f64)| row.with(name, Value::Fixed(*n, 1));
    counts.iter().fold(Row::new().with("cell", cell), with)
}

fn hop_bytes(max: usize) -> Vec<HopBytes> {
    let tfc_hash = tfc_hash_bytes(max);
    let rig = Rig::chain(max, false, |i| format!("value-{i:04}"));
    let sys = rig.cloud(1);
    let mut walk = rig.walk("scaling", Handoff::Sealed);
    let hop = || {
        wire_written_bytes_reset();
        let ChainRecord { step, document: sealed, .. } = walk.next()?;
        let wire_written = wire_written_bytes();
        sha256_bytes_reset();
        let outcome =
            Verifier::new(&rig.dir).with_mark(sealed.trust()).run(&sealed).expect("verifies");
        assert_eq!(outcome.reused_cers, step, "the mark pins all but the new CER");
        let inc_hash = sha256_bytes();
        let next = rig.def.activities.get(step + 1).map(|a| a.id.clone());
        let route = Route { ends: next.is_none(), targets: next.into_iter().collect() };
        sha256_bytes_reset();
        let ack = sys.channel().deliver(&sys, 0, &sealed, None, &route).expect("admitted");
        assert_eq!((ack.seq, ack.duplicate), (step, false), "every step is one version");
        Some(HopBytes {
            inc_hash,
            wire_written,
            admit_hash: sha256_bytes(),
            tfc_hash: tfc_hash[step],
        })
    };
    std::iter::from_fn(hop).collect()
}

/// Best-of-`reps` full receive α at the last hop of `rig`'s chain: the chain
/// is walked once, then the final hand-off is re-received `reps` times and
/// the minimum taken — one-shot per-hop timings are at the mercy of
/// scheduler jitter, the minimum is not.
fn receive_alpha_best_of(rig: &Rig, reps: usize) -> Duration {
    let last = rig.def.activities.last().expect("a chain has activities");
    let handed = rig.walk("chain-run", Handoff::Wire).nth(rig.def.activities.len() - 2);
    let xml = handed.expect("a chain of two or more").document.to_xml_string();
    let aea = rig.agent(&last.participant);
    let timed = |_| {
        let t = Instant::now();
        let arrived = SealedDocument::from_wire(&xml).expect("the wire parses");
        aea.receive(arrived, &last.id).expect("receive");
        t.elapsed()
    };
    (0..reps.max(1)).map(timed).min().expect("at least one rep")
}

/// One deterministic measurement cell.
fn measure_cell(n: usize, hop: &HopBytes) -> Row {
    // n CER signatures + the designer's definition signature
    let sigs = n + 1;
    let keys: Vec<Keypair> = (0..sigs).map(|i| seeded_keypair(n, i)).collect();
    let msgs: Vec<Vec<u8>> = (0..sigs)
        .map(|i| format!("dra4wfms scaling cell n={n} sig {i} ").repeat(4).into_bytes())
        .collect();
    let signatures: Vec<_> = keys.iter().zip(&msgs).map(|(k, m)| k.sign(m)).collect();

    // EC group ops to verify the cell's signatures one at a time
    ec_ops_reset();
    for ((k, m), s) in keys.iter().zip(&msgs).zip(&signatures) {
        assert!(k.public.verify(m, s), "seeded signature must verify");
    }
    let seq_ec_ops = ec_ops();

    // canonicalization bytes allocated for the cell's framed prefix
    let parts = synthetic_parts(n);
    canon_alloc_reset();
    dra_xml::canon::canonicalize_all(&parts);
    let canon_bytes = canon_alloc_bytes();

    Row::new()
        .with("cell", format!("n={n}"))
        .with("sigs", sigs)
        .with("seq_ec_ops", seq_ec_ops)
        .with("canon_bytes", canon_bytes)
        .with("inc_hash_bytes", hop.inc_hash)
        .with("wire_written_bytes", hop.wire_written)
        .with("admit_hash_bytes", hop.admit_hash)
        .with("tfc_hash_bytes", hop.tfc_hash)
}

pub(super) fn run() -> ClaimOutput {
    println!("chain length sweep (element-wise encrypted payloads, 64-byte values)\n");
    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>12} {:>12}",
        "step", "#sigs", "alpha(ms)", "inc-α(ms)", "beta(ms)", "size(B)"
    );
    let rig = Rig::chain(64, true, |_| "x".repeat(64));
    let walk = |handoff| rig.walk("chain-run", handoff).collect::<Vec<_>>();
    // one long chain gives every intermediate point of the sweep
    let records = walk(Handoff::Wire);
    let incremental = walk(Handoff::Sealed);
    for (r, inc) in
        records.iter().zip(incremental.iter()).filter(|(r, _)| r.step < 4 || (r.step + 1) % 8 == 0)
    {
        println!(
            "{:>6} {:>8} {:>12.3} {:>12.3} {:>12.3} {:>12}",
            r.step + 1,
            r.sigs_verified,
            r.alpha.as_secs_f64() * 1e3,
            inc.alpha.as_secs_f64() * 1e3,
            r.beta.as_secs_f64() * 1e3,
            r.size
        );
    }

    // linearity diagnostics. Σ is affine in the CER count (fixed definition
    // base + per-CER increment), so linearity is checked on the *marginal*
    // size per step, which must be constant.
    let a8 = records[7].alpha.as_secs_f64();
    let a64 = records[63].alpha.as_secs_f64();
    let b8 = records[7].beta.as_secs_f64();
    let b64 = records[63].beta.as_secs_f64();
    let i8_ = incremental[7].alpha.as_secs_f64();
    let i64_ = incremental[63].alpha.as_secs_f64();
    let early_slope = (records[15].size - records[7].size) as f64 / 8.0;
    let late_slope = (records[63].size - records[55].size) as f64 / 8.0;
    println!("\nstep 8 → step 64 (8× more signatures to verify):");
    println!("  alpha grows {:.1}×      (claim: ∝ #signatures, expect ≈8×)", a64 / a8);
    println!(
        "  incremental alpha grows {:.1}×  (sealed hand-off: 1 new CER per hop, expect ≈1×)",
        i64_ / i8_
    );
    println!("  beta  grows {:.2}×     (claim: ~constant, expect ≈1×)", b64 / b8);
    println!(
        "  size slope early {:.0} B/CER vs late {:.0} B/CER, ratio {:.2} (claim: linear in #CERs, expect ≈1)",
        early_slope,
        late_slope,
        late_slope / early_slope
    );
    // one-shot per-hop α is at the mercy of scheduler jitter on a shared
    // box; re-receiving the final hand-off and taking the best of several
    // reps is not
    let best = receive_alpha_best_of(&rig, 5);
    println!("\nfull verification at n=64:");
    println!(
        "  α {:.3} ms single hop, {:.3} ms best of 5; {} EC ops",
        a64 * 1e3,
        best.as_secs_f64() * 1e3,
        records[63].ec_ops
    );
    println!(
        "  incremental canonicalization alloc at step 64: {} B (the one new CER)",
        incremental[63].canon_alloc
    );

    // machine-readable, byte-deterministic cost cells for the perf gate:
    // the EC-op column grows ∝ n, and an incremental verification hashes
    // the one new CER plus 64 bytes per pinned one, whatever the document
    // weighs.
    let hops = hop_bytes(CELLS[CELLS.len() - 1]);
    let cells: Vec<Row> = CELLS.iter().map(|&n| measure_cell(n, &hops[n - 1])).collect();
    let (inc8, inc64) = (hops[7].inc_hash, hops[63].inc_hash);
    println!(
        "  incremental verify hashes {inc8} B at n=8, {inc64} B at n=64 — {} B per pinned CER",
        (inc64 - inc8) / 56
    );
    let (w8, w64) = (hops[7].wire_written, hops[63].wire_written);
    let (h8, h64) = (hops[7].admit_hash, hops[63].admit_hash);
    println!(
        "  a hop formats {w8} B of wire at n=8, {w64} B at n=64; its admission hashes {h8} B, {h64} B — {} B per pinned CER",
        (h64 - h8) / 56
    );
    let (t8, t64) = (hops[7].tfc_hash, hops[63].tfc_hash);
    println!(
        "  the TFC's receive hashes {t8} B at n=8, {t64} B at n=64 — {} B per pinned CER",
        (t64 - t8) / 56
    );
    let join_rows = [("join fig9a", false), ("join fig9b", true)].map(|(name, advanced)| {
        let checks = join_sig_checks(advanced);
        println!("  {name}: the AND-join checks {checks:?} signatures at loop 0/1/2");
        let with_turn = |row: Row, turn| row.with(&format!("loop{turn}_sig_checks"), checks[turn]);
        (0..checks.len()).fold(Row::new().with("cell", name), with_turn)
    });
    let fleet_rows = [fleet_bytes("fleet fig9a", false), fleet_bytes("fleet fig9b", true)];
    let confidential = |advanced| Rig::fig9(advanced).with_policy(fig9_confidential());
    let key_rows = [
        key_agreement("ladders fig9a", confidential(false)),
        key_agreement("ladders fig9b", confidential(true)),
        key_agreement("ladders chain16", Rig::chain(16, true, |i| format!("value-{i:04}"))),
    ];
    let mut out = ClaimOutput::default();
    let metrics = dra_obs::MetricsRegistry::new();
    metrics.incr("scaling.sweep_rows", records.len() as u64);
    metrics.incr("scaling.counter_cells", cells.len() as u64);
    out.invariants("run", &metrics);
    let fallbacks =
        |row: &Row| matches!(row.get("delta_fallbacks"), Some(Value::Fixed(n, _)) if *n == 0.0);
    let no_fallback = fleet_rows.iter().all(fallbacks);
    out.verdict("every fleet hand-off, to a portal or the TFC, travels as a delta", no_fallback);

    let slope_ratio = late_slope / early_slope;
    let pass = a64 / a8 > 3.0
        && b64 / b8 < 2.5
        && (0.7..1.4).contains(&slope_ratio)
        && i64_ / i8_ < a64 / a8
        && (inc64 - inc8) / 56 <= 64
        && (t64 - t8) / 56 <= 64;
    println!("\nC1 shape: {}", if pass { "REPRODUCED" } else { "NOT REPRODUCED" });
    let rows = cells.into_iter().chain(join_rows).chain(key_rows).chain(fleet_rows);
    out.set_rows(Rows::array(rows.collect()));
    out
}
