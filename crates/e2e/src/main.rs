//! `e2e` — the wall-clock end-to-end benchmark of DRA4WfMS.
//!
//! ```text
//! e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! e2e --all             [--seed N] [--seconds S] [--trace 0|1]
//! e2e compare <a> <b>
//! ```
//!
//! One workload per process, so `peak_rss_mb` belongs to that workload. The
//! last line of standard output is the result as one JSON object; the line
//! before it is the same result as a *record* that also names the workload,
//! the seed and the digest of the generated inputs — `compare` reads records
//! out of two captured outputs. See `README.md` beside this crate.

mod compare;
mod json;
mod layers;
mod metrics;
mod run;
mod spans;
mod stats;
mod workload;

use metrics::{spec, Metric};
use run::{Bench, Measured, Prepared};
use std::process::ExitCode;
use std::time::Instant;
use workload::Workload;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: Option<&'static Workload>,
    all: bool,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = spec().workloads.iter().map(|(name, _)| name.as_str()).collect();
    format!(
        "usage: e2e --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       \
         e2e --all [--seed N] [--seconds S] [--trace 0|1]\n       \
         e2e compare <a> <b>",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out =
        Args { workload: None, all: false, seed: 1, seconds: spec().run_seconds, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--all" => out.all = true,
            "--workload" => {
                let name = value()?;
                out.workload = Some(
                    Workload::by_name(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&out.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if out.all == out.workload.is_some() {
        return Err("give exactly one of --workload and --all".into());
    }
    Ok(out)
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The untraced run: every end-to-end metric.
fn run_end_to_end(workload: &'static Workload, seed: u64, seconds: u64) -> Outcome {
    let sizes = workload.sizes(seconds);
    assert!(
        stats::enough_samples_beyond(sizes.solo, 90.0),
        "{} solo samples leave fewer than ten beyond the p90",
        sizes.solo
    );

    // everything before the first round is set-up; done SETUPS times, the last kept
    let mut setup_s = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        let start = Instant::now();
        let prep = Prepared::new(workload, sizes, seed);
        drop(Bench::deploy(&prep, dra_obs::Tracer::disabled()));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let start = Instant::now();
    let prep = Prepared::new(workload, sizes, seed);
    let mut bench = Bench::deploy(&prep, dra_obs::Tracer::disabled());
    setup_s.push(start.elapsed().as_secs_f64());

    let mut m = Measured::default();
    bench.run_rounds(&mut m, true);
    // before the checker copies the pool and restores a second deployment
    let peak_rss_mb = peak_rss_mb();
    let snapshot = bench.final_checks();

    let kb = |bytes: u64| bytes as f64 / 1024.0;
    let per_round: Vec<String> = m.round_hops_per_s.iter().map(|r| format!("{r:.1}")).collect();
    println!("hops_per_s per round: {}", per_round.join(" "));
    println!(
        "samples: {} set-ups, {} hops, {} solo instances",
        setup_s.len(),
        m.fleet_hops,
        m.solo_ms.len()
    );
    println!(
        "ungated (per-layer in the traced run): retrieve_us_p50 {:.3} us over {} reads, \
         sweep_ms_p50 {:.3} ms over {} sweeps",
        stats::median(&m.retrieve_us),
        m.retrieve_us.len(),
        stats::median(&m.sweep_ms(sizes.instances())),
        m.sweeps.len()
    );
    let measured = [
        ("setup_s", stats::median(&setup_s)),
        ("hops_per_s", m.hops_per_s()),
        ("instance_ms_p50", stats::median(&m.solo_ms)),
        ("instance_ms_p90", stats::percentile(&m.solo_ms, 90.0)),
        ("wire_kb_per_hop", kb(m.fleet_wire_bytes) / m.fleet_hops as f64),
        ("pool_kb_per_instance", kb(snapshot.len() as u64) / bench.tally.completed as f64),
        ("peak_rss_mb", peak_rss_mb),
    ];
    let metrics = metrics::report("end-to-end metric", &spec().end_to_end, &measured);
    Outcome { inputs_sha256: prep.inputs.sha256.clone(), check: bench.check, metrics }
}

/// What a run hands to the printer.
pub struct Outcome {
    pub inputs_sha256: String,
    pub check: run::Checker,
    pub metrics: Vec<Metric>,
}

fn metrics_json(metrics: &[Metric]) -> String {
    let cells: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!("{{{}}}", cells.join(", "))
}

fn run_one(workload: &'static Workload, args: &Args) -> ExitCode {
    let why = spec().workloads.iter().find(|(name, _)| name == workload.name).map(|(_, why)| why);
    println!("{}: {}", workload.name, why.map_or("", String::as_str));
    println!(
        "workload {} seed {} seconds {} trace {} threads {}",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let outcome = if args.trace {
        layers::run_traced(workload, args.seed, args.seconds)
    } else {
        run_end_to_end(workload, args.seed, args.seconds)
    };
    let check = &outcome.check;
    for failure in &check.failures {
        println!("FAILED {failure}");
    }
    let correct = check.failed == 0 && outcome.metrics.iter().all(|m| m.value.is_finite());
    println!("inputs_sha256 {}", outcome.inputs_sha256);
    println!(
        "failed_share {} ({} of {} checks)",
        check.failed as f64 / check.attempted.max(1) as f64,
        check.failed,
        check.attempted
    );
    let body = format!(
        "\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}",
        check.attempted.max(1),
        check.failed,
        metrics_json(&outcome.metrics)
    );
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"inputs_sha256\": \"{}\", {body}}}",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.inputs_sha256
    );
    println!("{{{body}}}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child process per workload, so each has its own peak RSS.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable");
    let rest: Vec<&String> = raw.iter().filter(|a| *a != "--all").collect();
    let mut ok = true;
    for (name, _) in &spec().workloads {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name])
            .args(&rest)
            .status()
            .expect("spawn e2e");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("compare") {
        return match raw.as_slice() {
            [_, a, b] => compare::main(a, b),
            _ => {
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        };
    }
    match parse_args(&raw) {
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            ExitCode::from(2)
        }
        Ok(args) if args.all => run_all(&raw),
        Ok(args) => run_one(args.workload.expect("checked by parse_args"), &args),
    }
}
