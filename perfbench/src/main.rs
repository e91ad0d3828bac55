//! Runs one benchmark workload and prints its metrics; the last line is the
//! JSON result. Exits non-zero if any correctness check failed.

use std::process::ExitCode;

use perfbench::{git_commit, report_lines, run, Args, RunCfg, Scale, USAGE};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        scale: Scale::Full,
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let outcome = run(args.workload, &cfg);
    for line in report_lines(args.workload, &cfg, &outcome, &git_commit()) {
        println!("{line}");
    }
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
