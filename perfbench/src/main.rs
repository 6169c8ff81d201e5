//! Benchmark of the Fig. 4 pipeline: end-to-end metrics per workload with
//! tracing off, and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign --seed 2809840877 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Any byte-identity mismatch makes `correct` false and the exit code 1.

mod calib;
mod driver;
mod metrics;
mod run;
mod stats;
mod tenant;
mod trace;
mod workload;

use simnet::alloc_count::CountingAllocator;

use crate::workload::Workload;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The ROADMAP reference campaign seed.
const DEFAULT_SEED: u64 = 2_809_840_877;
const DEFAULT_SECONDS: u64 = 20;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload campaign|tenant_restart|fault_storm is required")?,
        seed,
        seconds: seconds.max(1) as f64,
        trace,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = if args.trace {
        run::traced(&args)
    } else {
        run::untraced(&args)
    };
    println!("{}", result.to_json());
    if !result.correct {
        std::process::exit(1);
    }
}
