//! The benchmark's command line; see `README.md`.

use facade_benchmark::harness::{Budget, RunOptions};
use facade_benchmark::{run_workload, selfcheck, workloads};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: facade-benchmark --workload <name> [--seed <n>] [--seconds <s>] \
                     [--reps <n>] [--trace <0|1>]\n       facade-benchmark --self-check [--seconds <s>]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    reps: Option<u32>,
    traced: bool,
    self_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 24.0,
        reps: None,
        traced: false,
        self_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-check" {
            args.self_check = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a seed"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number of seconds"))?;
            }
            "--reps" => {
                args.reps = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|n| *n > 0)
                        .ok_or_else(|| bad("a positive rep count"))?,
                );
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// `benchmark/out`, beside this crate's manifest.
fn out_dir() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    manifest.join("out")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if args.self_check {
        let (rows, failed) = selfcheck::run(args.seconds);
        print!("{}", selfcheck::table(&rows));
        println!("failed operations: {failed}");
        return if failed == 0 && rows.iter().all(selfcheck::Row::ok) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let Some(workload) = args.workload else {
        eprintln!("{USAGE}\nworkloads: {}", workloads::NAMES.join(", "));
        return ExitCode::from(2);
    };
    let opts = RunOptions {
        seed: args.seed,
        budget: args
            .reps
            .map_or(Budget::Seconds(args.seconds), Budget::Reps),
        traced: args.traced,
    };
    let Some((report, tracer)) = run_workload(&workload, &opts) else {
        eprintln!(
            "unknown workload `{workload}`; workloads: {}",
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    print!("{}", report.table());
    if args.traced {
        let path = out_dir().join(format!("{workload}.trace.json"));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, tracer.to_chrome_json()));
        match written {
            Ok(()) => println!(
                "trace: {} spans in {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}
