//! Wall-clock end-to-end benchmark of the DAIL-SQL pipeline.
//!
//! ```text
//! cargo run --release --manifest-path e2e-bench/Cargo.toml -- \
//!     --workload dev-greedy|sc-vote|large-pool [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of the real pipeline;
//! `--trace 1` replays it as timed calls into each layer and prints the
//! per-layer metrics. The last line of standard output is the result
//! object; the line before it records the run's context (sizes, seed,
//! threads, fingerprints). See `README.md` beside this package.

mod probe;
mod replica;
mod report;
mod run;
mod workload;

use std::process::ExitCode;
use workload::Workload;

/// The seed later claims are re-checked on. Never used while tuning.
pub const HELD_OUT_SEED: u64 = 7919;
/// Worker threads, capped by the machine's parallelism.
const DEFAULT_THREADS: usize = 2;

/// Settings that change what the pipeline executes or records. The
/// benchmark measures the defaults only.
const FORBIDDEN_ENV: [&str; 6] = [
    "DAIL_EXEC",
    "DAIL_RETRIEVAL",
    "DAIL_ANALYZE",
    "DAIL_TRACE_SAMPLE",
    "DAIL_TSDB",
    "DAIL_CRASH_POINT",
];

const USAGE: &str = "usage: e2e-bench --workload dev-greedy|sc-vote|large-pool \
[--seed N] [--seconds S] [--trace 0|1] [--threads N]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::DevGreedy,
        seed: 2023,
        seconds: 10.0,
        trace: false,
        threads: DEFAULT_THREADS,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--threads" => args.threads = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.threads == 0 {
        return Err("--threads must be positive".into());
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("e2e-bench: refusing to start with {var} set; unset it to measure the defaults");
        return ExitCode::from(2);
    }
    // Library crates read DAIL_THREADS from the environment on each
    // sharded scan; set it before any thread exists.
    let threads = args.threads.min(nproc());
    std::env::set_var("DAIL_THREADS", threads.to_string());

    let result = if args.trace {
        replica::traced(args.workload, args.seed)
    } else {
        run::untraced(args.workload, args.seed, args.seconds)
    };
    assert!(!obskit::enabled(), "obskit stays disabled in every run");
    println!("{}", report::info_line(&result.info));
    println!(
        "{}",
        report::result_line(
            result.failed == 0,
            result.attempted,
            result.failed,
            &result.metrics
        )
    );
    ExitCode::SUCCESS
}
