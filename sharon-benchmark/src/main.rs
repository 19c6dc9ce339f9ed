//! Command line of the rig:
//! `--workload <name> [--seed N] [--seconds S] [--trace 0|1]`.

use sharon_benchmark::workloads::Kind;
use sharon_benchmark::{run, spec, Options};
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    format!(
        "usage: sharon-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       \
         sharon-benchmark --print-benchmark-json",
        names.join("|")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--print-benchmark-json") {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if cfg!(debug_assertions) {
        eprintln!(
            "sharon-benchmark measures optimized builds only: run it with `cargo run --release`"
        );
        return ExitCode::from(2);
    }
    let mut workload = None;
    let mut seed = 7u64;
    let mut seconds = f64::from(spec::RUN_SECONDS);
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next();
        let ok = match (flag.as_str(), value) {
            ("--workload", Some(v)) => {
                workload = Kind::parse(v);
                workload.is_some()
            }
            ("--seed", Some(v)) => v.parse().map(|n| seed = n).is_ok(),
            ("--seconds", Some(v)) => v
                .parse()
                .map(|s: f64| seconds = s)
                .is_ok_and(|()| seconds.is_finite() && seconds > 0.0),
            ("--trace", Some(v)) => match v.as_str() {
                "0" => true,
                "1" => {
                    trace = true;
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            eprintln!(
                "bad argument: {flag} {}\n{}",
                value.map_or("", |v| v),
                usage()
            );
            return ExitCode::from(2);
        }
    }
    let Some(kind) = workload else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };

    let report = run(kind, &Options::new(seed, seconds, trace));
    println!(
        "workload {} seed {seed} trace {}",
        report.workload,
        u8::from(trace)
    );
    for note in &report.notes {
        println!("# {note}");
    }
    print!("{}", report.table());
    println!(
        "ops_attempted {} ops_failed {}",
        report.attempted, report.failed
    );
    println!("{}", report.json_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "FAILED: {} of {} result rows differ from the oracle (or were dropped or lost)",
            report.failed, report.attempted
        );
        ExitCode::FAILURE
    }
}
