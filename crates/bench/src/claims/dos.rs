//! Claim C6 (§1): "the engine-based system readily suffers from a
//! denial-of-service attack because the workflow engine always has a fixed
//! location (or domain name) … overloading the physical resources."
//!
//! An architectural simulation (the paper gives no numbers): legitimate
//! work arrives at rate λ, attack traffic at rate α targeting *one*
//! endpoint. The engine-based deployment has exactly one endpoint per
//! process instance (the owning engine); DRA4WfMS has `n` interchangeable
//! stateless portals plus AEAs at the participants' own machines, so the
//! attacker saturates one portal and goodput flows through the rest.

use super::ClaimOutput;

pub(super) fn run() -> ClaimOutput {
    let portals: usize = 4;
    let metrics = dra_obs::MetricsRegistry::new();
    metrics.incr("dos.portals", portals as u64);

    // simple capacity model: each server processes CAP requests per tick,
    // FIFO, attacker requests are indistinguishable until processed.
    const CAP: f64 = 1000.0; // requests/tick per server
    let legit = 800.0; // legitimate requests/tick, deployment-wide

    println!("capacity model: {CAP} req/tick per server, {legit} legit req/tick total\n");
    println!(
        "{:>12} {:>22} {:>22}",
        "attack rate",
        "engine goodput",
        format!("DRA goodput ({portals} portals)"),
    );
    for attack in [0.0f64, 500.0, 1000.0, 2000.0, 4000.0, 8000.0] {
        metrics.incr("dos.attack_rates_swept", 1);
        // Engine: the process's owning engine is a single fixed endpoint.
        // All legit + all attack traffic hits it; goodput = CAP scaled by
        // the legitimate fraction of arrivals (FIFO sharing).
        let engine_arrivals = legit + attack;
        let engine_goodput =
            if engine_arrivals <= CAP { legit } else { CAP * legit / engine_arrivals };

        // DRA4WfMS: the attacker targets one portal (they are
        // interchangeable; saturating all of them requires n× the traffic).
        // Legit traffic load-balances over the remaining healthy portals.
        let per_portal_legit = legit / portals as f64;
        let attacked_arrivals = per_portal_legit + attack;
        let attacked_goodput = if attacked_arrivals <= CAP {
            per_portal_legit
        } else {
            CAP * per_portal_legit / attacked_arrivals
        };
        let healthy_goodput: f64 = (portals - 1) as f64 * per_portal_legit.min(CAP);
        let dra_goodput = attacked_goodput + healthy_goodput;

        println!(
            "{:>12.0} {:>18.0} ({:>3.0}%) {:>16.0} ({:>3.0}%)",
            attack,
            engine_goodput,
            100.0 * engine_goodput / legit,
            dra_goodput,
            100.0 * dra_goodput / legit
        );
    }

    println!();
    println!("C6 verdict: with the attack at 10× capacity, the fixed-endpoint engine");
    println!(
        "retains ~{:.0}% goodput while the portal deployment retains ~{:.0}%+ —",
        100.0 * (CAP * legit / (legit + 8000.0)) / legit,
        100.0 * ((portals - 1) as f64 / portals as f64)
    );
    println!("the engine-based WfMS is a single fixed target, the document-routing");
    println!("deployment degrades by at most one portal's share. (Architectural model,");
    println!("no absolute numbers claimed — matching the paper's qualitative argument.)");
    let mut out = ClaimOutput::default();
    out.invariants("run", &metrics);
    out
}
