//! Integration: the two ways a hop's document reaches a portal are one.
//!
//! A run without `.network(..)` stores through `CloudSystem::store_sealed`
//! (the direct path); a run over `Delivery::lossless` goes through the
//! retry/dedup channel with no fault to absorb. Every claim, the fuzzer's
//! "honest" cell included, takes the second; most tests take the first.
//! This pins that they agree — same final wire, same pool digest, same step
//! count, same messages and bytes charged to the network — on every
//! scenario the rig knows: the evidence a change needs before it may
//! replace one path with the other.

use dra4wfms::cloud::FaultProfile;
use dra_bench::fuzz;
use dra_bench::rig::Rig;

/// What a run of `pid` on a fresh three-portal cloud leaves behind.
fn outcome(rig: &Rig, pid: &str, over_channel: bool) -> (String, String, usize, u64, u64) {
    let sys = rig.cloud(3);
    let delivery = over_channel.then(|| rig.channel(FaultProfile::lossless(), 0));
    let initial = rig.initial(pid);
    let out = rig.run(&sys, &initial, delivery.as_ref()).run().unwrap();
    let wire = out.document.wire().to_string();
    (wire, sys.pool_digest(), out.steps, rig.network.messages(), rig.network.bytes())
}

#[test]
fn direct_path_and_lossless_channel_end_in_the_same_bytes_and_charges() {
    type Scenario = (&'static str, fn() -> Rig);
    let scenarios: [Scenario; 6] = [
        ("fig9a", || Rig::fig9(false)),
        ("fig9b", || Rig::fig9(true)),
        ("chain16", || Rig::chain(16, false, |i| format!("value-{i}"))),
        ("fuzz3", || Rig::generated(&fuzz::generate(3), false)),
        ("fuzz7", || Rig::generated(&fuzz::generate(7), true)),
        ("fuzz11", || Rig::generated(&fuzz::generate(11), false)),
    ];
    for (name, rig) in scenarios {
        // a rig a run: each path starts its network clock and counters at zero
        let direct = outcome(&rig(), name, false);
        let channel = outcome(&rig(), name, true);
        assert!(direct.2 > 0 && direct.3 > 0, "{name}: the run hopped and was charged");
        assert_eq!(direct, channel, "{name}: direct path vs lossless channel");
    }
}
