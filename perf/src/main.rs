//! `perf` — the repo's one benchmark. See `README.md` beside `Cargo.toml` for
//! every workload and metric; `BENCHMARK.json` at the repo root is the
//! machine-readable contract.
//!
//! ```text
//! perf run    --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>]
//! perf trace  --workload <name> [--seed <u64>] [--seconds <n>]
//! perf all    [--seed <u64>] [--seconds <n>]
//! perf repeat [--seed <u64>] [--seconds <n>]
//! ```
//!
//! Arguments only: the benchmark reads no environment variable.

#![forbid(unsafe_code)]

mod harness;
mod programs;
mod replay;
mod report;
mod stats;
mod tables;
mod workloads;

use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub command: String,
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u32,
    pub trace: bool,
    pub out_dir: String,
}

const USAGE: &str = "usage: perf <run|trace|all|repeat> [--workload <name>] [--seed <u64>] \
[--seconds <1..60>] [--trace <0|1>] [--out <dir>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: argv.first().cloned().ok_or("missing command")?,
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        out_dir: "target/perf".to_string(),
    };
    let mut it = argv[1..].iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if tables::workload(val).is_none() {
                    let names: Vec<&str> = tables::WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload {val:?}; one of {names:?}"));
                }
                args.workload = Some(val.clone());
            }
            "--seed" => args.seed = val.parse().map_err(|_| format!("bad seed {val:?}"))?,
            "--seconds" => {
                args.seconds = val
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or(format!("--seconds takes 1..=60, got {val:?}"))?
            }
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {val:?}")),
                }
            }
            "--out" => args.out_dir = val.clone(),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if args.command == "trace" {
        args.command = "run".to_string();
        args.trace = true;
    }
    match args.command.as_str() {
        "run" if args.workload.is_none() => Err("run needs --workload".to_string()),
        "run" | "all" | "repeat" => Ok(args),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match args.command.as_str() {
        "run" => report::run(&args),
        "all" => report::all(&args),
        _ => report::repeat(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse_args(&argv(
            "run --workload scale-relay --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.workload.as_deref(), Some("scale-relay"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "run",
            "run --workload nope",
            "run --workload mg-cluster --seconds 0",
            "run --workload mg-cluster --seconds 61",
            "run --workload mg-cluster --trace 2",
            "run --workload mg-cluster --seed",
            "fly --seed 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn trace_is_run_with_tracing_on() {
        let a = parse_args(&argv("trace --workload mg-cluster")).expect("valid");
        assert_eq!(a.command, "run");
        assert!(a.trace);
    }
}
