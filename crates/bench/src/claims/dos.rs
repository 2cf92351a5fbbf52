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

//!
//! Pure arithmetic, so the goodput per attack rate is gated byte for byte
//! against `perf/BENCH_dos.baseline.json`.

use super::{ClaimOutput, Row, Rows, Value};

/// Requests per tick one server processes, FIFO; attacker requests are
/// indistinguishable until processed.
const CAP: f64 = 1000.0;
/// Legitimate requests per tick, deployment-wide.
const LEGIT: f64 = 800.0;
const PORTALS: usize = 4;

/// Legitimate goodput of one server offered `legit` + `attack` requests per
/// tick: all of it under capacity, its FIFO share of capacity above.
fn goodput(legit: f64, attack: f64) -> f64 {
    let arrivals = legit + attack;
    if arrivals <= CAP {
        legit
    } else {
        CAP * legit / arrivals
    }
}

pub(super) fn run() -> ClaimOutput {
    println!("capacity model: {CAP} req/tick per server, {LEGIT} legit req/tick total\n");
    println!(
        "{:>12} {:>22} {:>22}",
        "attack rate",
        "engine goodput",
        format!("DRA goodput ({PORTALS} portals)"),
    );
    let sweep: Vec<(f64, f64, f64)> = [0.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0]
        .into_iter()
        .map(|attack| {
            // Engine: the process's owning engine is a single fixed endpoint;
            // all legit and all attack traffic hits it.
            let engine = goodput(LEGIT, attack);
            // DRA4WfMS: the attacker targets one portal (they are
            // interchangeable; saturating all of them requires n× the
            // traffic). Legit traffic load-balances over the healthy rest.
            let per_portal = LEGIT / PORTALS as f64;
            let dra = goodput(per_portal, attack) + (PORTALS - 1) as f64 * per_portal.min(CAP);
            (attack, engine, dra)
        })
        .collect();
    for (attack, engine, dra) in &sweep {
        println!(
            "{attack:>12.0} {engine:>18.0} ({:>3.0}%) {dra:>16.0} ({:>3.0}%)",
            100.0 * engine / LEGIT,
            100.0 * dra / LEGIT
        );
    }
    println!("\nthe engine-based WfMS is a single fixed target, the document-routing");
    println!("deployment degrades by at most one portal's share. (Architectural model,");
    println!("no absolute numbers claimed — matching the paper's qualitative argument.)");

    let mut out = ClaimOutput::default();
    let (_, engine, dra) = sweep[sweep.len() - 1];
    out.verdict(
        "attacked at 8× capacity the engine keeps under an eighth of its goodput, the portals at \
         least (n − 1)/n of theirs",
        engine / LEGIT < 0.125 && dra / LEGIT >= (PORTALS - 1) as f64 / PORTALS as f64,
    );
    let row = |&(attack, engine, dra): &(f64, f64, f64)| {
        Row::new()
            .with("attack_rate", attack as u64)
            .with("engine_goodput", Value::Fixed(engine, 1))
            .with("dra_goodput", Value::Fixed(dra, 1))
    };
    out.set_rows(Rows::array(sweep.iter().map(row).collect()));
    out
}
