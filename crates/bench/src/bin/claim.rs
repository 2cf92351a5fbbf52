//! Reproduce a quantitative claim: `claim <name>`, `claim all`, `claim list`.
//! Run from the repository root; see [`dra_bench::claims`].
//!
//! Run with: `cargo run --release -p dra-bench --bin claim -- <name>`

fn main() -> std::process::ExitCode {
    dra_bench::claims::main(std::env::args().skip(1))
}
