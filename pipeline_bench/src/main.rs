//! `pipeline_bench` — end-to-end and per-layer benchmark of the subsparse
//! extraction and serving pipeline.
//!
//! ```text
//! cargo run --release --manifest-path pipeline_bench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Workloads: `wavelet-kernel-1k` and
//! `lowrank-eigen-irr` (see `pipeline.rs`). The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Model files, exact-count anchors
//! and (traced) Chrome-trace spans go to `.bench_run/`.

mod affinity;
mod alloc;
mod clock;
mod metrics;
mod pipeline;
mod spans;
mod stats;

use std::process::ExitCode;

use metrics::{result_json, END_TO_END, PER_LAYER};
use pipeline::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Where runs leave model files, anchors and traces (relative to the
/// working directory).
const OUT_DIR: &str = ".bench_run";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 600)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!(
                "error: {e}\nusage: pipeline_bench --workload <{}> --seed <n> \
                 --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // serial rows are pinned in code; an inherited thread cap must not
    // change what the threaded row resolves to either
    std::env::remove_var("SUBSPARSE_THREADS");
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("error: creating {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let out = pipeline::run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        std::path::Path::new(OUT_DIR),
    );
    let specs = if args.trace { PER_LAYER } else { END_TO_END };
    for s in specs {
        let v = out.values.get(s.name).unwrap_or(f64::NAN);
        println!("# {:<30} {:>16.6} {}", s.name, v, s.unit);
    }
    let [start, rounds, end] = out.calib_us;
    println!("# host.calib_us start {start:.1} rounds {rounds:.1} end {end:.1}");
    let samples: Vec<String> = out.samples.iter().map(|(m, k)| format!("{m} {k}")).collect();
    println!("# samples: {}", samples.join(", "));
    let correct = out.checks.failed == 0;
    println!(
        "{}",
        result_json(correct, out.checks.attempted, out.checks.failed, specs, &out.values)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload lowrank-eigen-irr --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::LowrankEigen);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload wavelet-kernel-1k --seed x").is_err());
        assert!(args("--workload wavelet-kernel-1k --seed 1 --trace 2").is_err());
        assert!(args("--workload wavelet-kernel-1k --seed").is_err());
        assert!(args("--workload wavelet-kernel-1k --seed 1 --bogus 3").is_err());
    }
}
