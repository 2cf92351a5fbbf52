//! The four workloads: their workflow definitions, sizes and the seeded
//! input generator.
//!
//! The seed *permutes*, it does not *sample*: every run of a workload holds
//! the same multiset of instance shapes (loop rounds × attachment size, or
//! chain length × payload size) and the same multiset of point-read ranks;
//! the seed decides their order, the process ids and the payload bytes. Runs
//! on different seeds therefore do the same amount of work, which is what
//! lets a timing be compared across seeds at all.

use dra4wfms_core::prelude::*;
use dra_crypto::Sha256;
use std::collections::HashMap;

/// Run length the frozen instance counts below were sized for; `--seconds`
/// scales them linearly from here.
pub const REFERENCE_SECONDS: u64 = 12;

/// Fewest solo instances that still leave ten samples beyond the p90.
pub const MIN_SOLO: usize = 100;

/// What the instances of a workload look like.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// The paper's Fig. 9 workflow; `advanced` routes every hop via the TFC.
    Fig9 { advanced: bool },
    /// Linear chains with next-participant-only encryption.
    Chain,
}

/// One benchmark workload, sized for [`REFERENCE_SECONDS`].
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// As in `BENCHMARK.json`, which also says why the workload exists.
    pub name: &'static str,
    pub shape: Shape,
    /// Two clouds × four portals with replication, reads beside writes.
    pub federated: bool,
    /// Rounds of a run; each admits `fleet / rounds` instances as one wave.
    pub rounds: usize,
    /// Fleet instances per run.
    pub fleet: usize,
    /// Closed-loop single-client instances per run.
    pub solo: usize,
    /// `retrieve_latest` point reads per run.
    pub reads: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fleet_basic",
        shape: Shape::Fig9 { advanced: false },
        federated: false,
        rounds: 12,
        fleet: 324,
        solo: 108,
        reads: 400,
    },
    Workload {
        name: "fleet_tfc",
        shape: Shape::Fig9 { advanced: true },
        federated: false,
        rounds: 6,
        fleet: 108,
        solo: 108,
        reads: 400,
    },
    Workload {
        name: "chain_deep",
        shape: Shape::Chain,
        federated: false,
        rounds: 6,
        fleet: 36,
        solo: 102,
        reads: 400,
    },
    Workload {
        name: "pool_mixed",
        shape: Shape::Fig9 { advanced: false },
        federated: true,
        rounds: 12,
        fleet: 324,
        solo: 108,
        reads: 480,
    },
];

/// Instance counts of one run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sizes {
    pub warmup: usize,
    pub fleet: usize,
    pub rounds: usize,
    pub solo: usize,
    pub reads: usize,
}

impl Sizes {
    /// Instances the pool holds when an untraced run ends.
    pub fn instances(&self) -> usize {
        self.warmup + self.fleet + self.solo
    }
}

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Distinct instance shapes; every group of instances is a whole number
    /// of these so its composition does not depend on the seed.
    pub fn combos(&self) -> usize {
        match self.shape {
            Shape::Fig9 { .. } => FIG9_ROUNDS.len() * FIG9_ATTACHMENT.len(),
            Shape::Chain => CHAIN_LEN.len() * CHAIN_PAYLOAD.len(),
        }
    }

    /// The frozen counts scaled to a run of `seconds`.
    pub fn sizes(&self, seconds: u64) -> Sizes {
        let combos = self.combos();
        let scale = |n: usize| (n as u64 * seconds).div_ceil(REFERENCE_SECONDS) as usize;
        let whole = |n: usize, unit: usize| n.div_ceil(unit).max(1) * unit;
        Sizes {
            // chains are long: one instance per shape fills the caches
            warmup: if self.shape == Shape::Chain { combos } else { 2 * combos },
            fleet: whole(scale(self.fleet), combos * self.rounds),
            rounds: self.rounds,
            solo: whole(scale(self.solo).max(MIN_SOLO), combos),
            reads: whole(scale(self.reads), self.rounds),
        }
    }
}

const FIG9_ROUNDS: [u32; 3] = [0, 1, 2];
const FIG9_ATTACHMENT: [usize; 3] = [64, 1024, 8192];
const CHAIN_LEN: [usize; 3] = [16, 32, 48];
const CHAIN_PAYLOAD: [usize; 2] = [64, 1024];

/// Keys and directory of every actor a workload needs.
pub struct Cast {
    pub creds: Vec<Credentials>,
    pub dir: Directory,
}

impl Cast {
    pub fn new(shape: Shape) -> Cast {
        let names: Vec<String> = match shape {
            Shape::Fig9 { .. } => ["designer", "p_a", "p_b1", "p_b2", "p_c", "p_d", "TFC"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            Shape::Chain => std::iter::once("designer".to_string())
                .chain((0..CHAIN_LEN[CHAIN_LEN.len() - 1]).map(|i| format!("p{i}")))
                .collect(),
        };
        let creds: Vec<Credentials> =
            names.iter().map(|n| Credentials::from_seed(n.clone(), &format!("e2e-{n}"))).collect();
        let dir = Directory::from_credentials(&creds);
        Cast { creds, dir }
    }

    pub fn designer(&self) -> &Credentials {
        &self.creds[0]
    }

    pub fn get(&self, name: &str) -> &Credentials {
        self.creds.iter().find(|c| c.name == name).expect("cast member")
    }
}

/// The Fig. 9 workflow (9A basic, 9B with the TFC).
pub fn fig9_definition(advanced: bool) -> WorkflowDefinition {
    let b = WorkflowDefinition::builder("fig9", "designer")
        .simple_activity("A", "p_a", &["attachment"])
        .activity(Activity {
            id: "B1".into(),
            participant: "p_b1".into(),
            join: JoinKind::Any,
            requests: vec![FieldRef::new("A", "attachment")],
            responses: vec!["review1".into()],
        })
        .activity(Activity {
            id: "B2".into(),
            participant: "p_b2".into(),
            join: JoinKind::Any,
            requests: vec![FieldRef::new("A", "attachment")],
            responses: vec!["review2".into()],
        })
        .activity(Activity {
            id: "C".into(),
            participant: "p_c".into(),
            join: JoinKind::All,
            requests: vec![FieldRef::new("B1", "review1"), FieldRef::new("B2", "review2")],
            responses: vec!["decision".into()],
        })
        .simple_activity("D", "p_d", &["ack"])
        .flow("A", "B1")
        .flow("A", "B2")
        .flow("B1", "C")
        .flow("B2", "C")
        .flow_if("C", "A", Condition::field_equals("C", "decision", "insufficient"))
        .flow_if("C", "D", Condition::field_not_equals("C", "decision", "insufficient"))
        .flow_end("D");
    if advanced { b.with_tfc("TFC") } else { b }.build().expect("fig9 definition")
}

/// The Fig. 9 element-encryption policy: attachment and reviews are
/// confidential, the decision steers the loop and is shared.
pub fn fig9_policy(def: &WorkflowDefinition, advanced: bool) -> SecurityPolicy {
    let p = SecurityPolicy::builder()
        .restrict("A", "attachment", &["p_b1", "p_b2", "p_c"])
        .restrict("B1", "review1", &["p_c"])
        .restrict("B2", "review2", &["p_c"])
        .restrict("C", "decision", &["p_a", "p_b1", "p_b2", "p_c", "p_d"])
        .build();
    if advanced {
        p.with_tfc_access("TFC", def)
    } else {
        p
    }
}

/// A linear workflow of `n` activities `S0 → … → S{n-1}`.
pub fn chain_definition(n: usize) -> WorkflowDefinition {
    let mut b = WorkflowDefinition::builder(format!("chain{n}"), "designer");
    for i in 0..n {
        b = b.simple_activity(format!("S{i}"), format!("p{i}"), &["payload"]);
    }
    for i in 0..n - 1 {
        b = b.flow(format!("S{i}"), format!("S{}", i + 1));
    }
    b.flow_end(format!("S{}", n - 1)).build().expect("chain definition")
}

/// Every payload is readable by the next participant only.
pub fn chain_policy(n: usize) -> SecurityPolicy {
    let mut pb = SecurityPolicy::builder();
    for i in 0..n {
        let next = format!("p{}", (i + 1).min(n - 1));
        pb = pb.restrict(format!("S{i}"), "payload", &[&next]);
    }
    pb.build()
}

/// splitmix64: the harness's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    fn alphanumeric(&mut self, len: usize) -> String {
        const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
        (0..len).map(|_| CHARS[self.below(CHARS.len())] as char).collect()
    }
}

/// One generated process instance.
pub struct InstanceSpec {
    pub pid: String,
    /// Designer-signed initial document.
    pub initial: DraDocument,
    /// Times activity C answers "insufficient" (Fig. 9 only).
    pub rounds: u32,
    /// Attachment (Fig. 9) or per-step payload (chain).
    pub payload: String,
    /// Activity executions a correct run performs.
    pub expected_steps: usize,
}

/// Everything a run feeds the product, made from the seed before timing.
pub struct Inputs {
    pub warmup: Vec<InstanceSpec>,
    pub fleet: Vec<InstanceSpec>,
    pub solo: Vec<InstanceSpec>,
    /// Point-read targets per round, as indices into `fleet`; round `r` only
    /// names instances of waves `0..=r`.
    pub reads: Vec<Vec<usize>>,
    /// Digest over all of the above: equal digests mean equal work.
    pub sha256: String,
}

struct Variant {
    def: WorkflowDefinition,
    policy: SecurityPolicy,
    rounds: u32,
    payload_len: usize,
    steps: usize,
}

fn variants(shape: Shape) -> Vec<Variant> {
    match shape {
        Shape::Fig9 { advanced } => {
            let def = fig9_definition(advanced);
            let policy = fig9_policy(&def, advanced);
            let mut out = Vec::new();
            for rounds in FIG9_ROUNDS {
                for payload_len in FIG9_ATTACHMENT {
                    out.push(Variant {
                        def: def.clone(),
                        policy: policy.clone(),
                        rounds,
                        payload_len,
                        steps: 5 + 4 * rounds as usize,
                    });
                }
            }
            out
        }
        Shape::Chain => {
            let mut out = Vec::new();
            for n in CHAIN_LEN {
                for payload_len in CHAIN_PAYLOAD {
                    out.push(Variant {
                        def: chain_definition(n),
                        policy: chain_policy(n),
                        rounds: 0,
                        payload_len,
                        steps: n,
                    });
                }
            }
            out
        }
    }
}

/// `count` instances in `groups` equal groups, each group holding every
/// shape equally often and shuffled by the seed. Returns the specs and, for
/// each spec, the rank it has in the unshuffled order (rank `r` always has
/// shape `r % shapes`, whatever the seed).
fn instances(
    variants: &[Variant],
    designer: &Credentials,
    label: &str,
    count: usize,
    groups: usize,
    rng: &mut Rng,
) -> (Vec<InstanceSpec>, Vec<usize>) {
    let mut ranks: Vec<usize> = (0..count).collect();
    for group in ranks.chunks_mut(count / groups.max(1)) {
        rng.shuffle(group);
    }
    let tag = rng.next_u64() & 0xffff_ffff;
    let specs = ranks
        .iter()
        .enumerate()
        .map(|(i, rank)| {
            let v = &variants[rank % variants.len()];
            let pid = format!("{label}-{tag:08x}-{i:05}");
            let initial = DraDocument::new_initial_with_pid(&v.def, &v.policy, designer, &pid)
                .expect("initial document");
            InstanceSpec {
                pid,
                initial,
                rounds: v.rounds,
                payload: rng.alphanumeric(v.payload_len),
                expected_steps: v.steps,
            }
        })
        .collect();
    (specs, ranks)
}

/// `reads` Zipf(1)-distributed ranks below `population`, taken at the
/// distribution's evenly spaced quantiles so the multiset is the same for
/// every seed.
fn zipf_ranks(population: usize, reads: usize) -> Vec<usize> {
    let weights: Vec<f64> = (0..population).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut out = Vec::with_capacity(reads);
    let (mut rank, mut cumulative) = (0usize, weights[0]);
    for k in 0..reads {
        let target = (k as f64 + 0.5) / reads as f64 * total;
        while cumulative < target && rank + 1 < population {
            rank += 1;
            cumulative += weights[rank];
        }
        out.push(rank);
    }
    out
}

/// Generate a workload's inputs from `seed`.
pub fn generate(workload: &Workload, cast: &Cast, sizes: &Sizes, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed ^ 0xd1a4_e2e0_0000_0000);
    let variants = variants(workload.shape);
    let designer = cast.designer();
    let (warmup, _) = instances(&variants, designer, "warm", sizes.warmup, 1, &mut rng);
    let (fleet, ranks) =
        instances(&variants, designer, "fleet", sizes.fleet, sizes.rounds, &mut rng);
    let (solo, _) = instances(&variants, designer, "solo", sizes.solo, 1, &mut rng);

    let mut position = vec![0usize; fleet.len()];
    for (pos, rank) in ranks.iter().enumerate() {
        position[*rank] = pos;
    }
    let per_wave = sizes.fleet / sizes.rounds;
    let reads: Vec<Vec<usize>> = (0..sizes.rounds)
        .map(|w| {
            let mut picks: Vec<usize> = zipf_ranks((w + 1) * per_wave, sizes.reads / sizes.rounds)
                .into_iter()
                .map(|r| position[r])
                .collect();
            rng.shuffle(&mut picks);
            picks
        })
        .collect();

    let mut h = Sha256::new();
    for spec in warmup.iter().chain(&fleet).chain(&solo) {
        h.update(spec.pid.as_bytes());
        h.update(&spec.rounds.to_le_bytes());
        h.update(spec.payload.as_bytes());
        h.update(spec.initial.to_xml_string().as_bytes());
    }
    for pick in reads.iter().flatten() {
        h.update(&(*pick as u64).to_le_bytes());
    }
    Inputs { warmup, fleet, solo, reads, sha256: dra_crypto::hex::encode(&h.finalize()) }
}

/// The scripted participants: what each activity answers, per instance.
pub struct Script {
    by_pid: HashMap<String, (u32, String)>,
}

impl Script {
    pub fn new(inputs: &Inputs) -> Script {
        let by_pid = inputs
            .warmup
            .iter()
            .chain(&inputs.fleet)
            .chain(&inputs.solo)
            .map(|s| (s.pid.clone(), (s.rounds, s.payload.clone())))
            .collect();
        Script { by_pid }
    }

    pub fn respond(&self, received: &ReceivedActivity) -> Vec<(String, String)> {
        let (rounds, payload) =
            self.by_pid.get(&received.report.process_id).expect("generated instance");
        let field = |k: &str, v: &str| vec![(k.to_string(), v.to_string())];
        match received.activity.as_str() {
            "A" => field("attachment", payload),
            "B1" => field("review1", "figures look right"),
            "B2" => field("review2", "terms acceptable"),
            "C" => {
                field("decision", if received.iter < *rounds { "insufficient" } else { "accept" })
            }
            "D" => field("ack", "confirmed"),
            _ => field("payload", payload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_exactly_these_workloads() {
        let named: Vec<&str> =
            crate::metrics::spec().workloads.iter().map(|(name, _)| name.as_str()).collect();
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(named, known);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let w = Workload::by_name("fleet_basic").unwrap();
        let cast = Cast::new(w.shape);
        let sizes = Sizes { warmup: 9, fleet: 18, rounds: 1, solo: 9, reads: 20 };
        let a = generate(w, &cast, &sizes, 1);
        let b = generate(w, &cast, &sizes, 1);
        let c = generate(w, &cast, &sizes, 2);
        assert_eq!(a.sha256, b.sha256);
        assert_ne!(a.sha256, c.sha256);
    }

    #[test]
    fn every_seed_holds_the_same_multiset_of_shapes() {
        let w = Workload::by_name("pool_mixed").unwrap();
        let cast = Cast::new(w.shape);
        let sizes = Sizes { warmup: 9, fleet: 36, rounds: 2, solo: 9, reads: 40 };
        let shapes = |seed: u64| {
            let inputs = generate(w, &cast, &sizes, seed);
            let shape_of = |s: &InstanceSpec| (s.rounds, s.payload.len());
            // per wave, and per wave's reads
            let mut out = Vec::new();
            for wave in 0..2 {
                let mut fleet: Vec<_> =
                    inputs.fleet[wave * 18..(wave + 1) * 18].iter().map(shape_of).collect();
                fleet.sort();
                let mut reads: Vec<_> =
                    inputs.reads[wave].iter().map(|i| shape_of(&inputs.fleet[*i])).collect();
                assert!(inputs.reads[wave].iter().all(|i| *i < (wave + 1) * 18));
                reads.sort();
                out.push((fleet, reads));
            }
            out
        };
        assert_eq!(shapes(3), shapes(4));
    }

    #[test]
    fn zipf_ranks_are_skewed_and_in_range() {
        let ranks = zipf_ranks(100, 400);
        assert_eq!(ranks.len(), 400);
        assert!(ranks.iter().all(|r| *r < 100));
        let hottest = ranks.iter().filter(|r| **r == 0).count();
        let coldest = ranks.iter().filter(|r| **r == 99).count();
        assert!(hottest > 50 && coldest <= 1, "rank 0 drew {hottest}, rank 99 drew {coldest}");
    }

    #[test]
    fn sizes_scale_with_seconds_and_stay_whole() {
        for w in &WORKLOADS {
            let at_ref = w.sizes(REFERENCE_SECONDS);
            assert_eq!(at_ref.fleet, w.fleet, "{}: frozen fleet is already whole", w.name);
            let double = w.sizes(2 * REFERENCE_SECONDS);
            assert_eq!(double.fleet, 2 * w.fleet);
            let tiny = w.sizes(1);
            assert!(tiny.solo >= MIN_SOLO);
            assert_eq!(tiny.fleet % (w.combos() * w.rounds), 0);
        }
    }
}
