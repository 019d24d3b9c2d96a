//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0` runs the workload untraced for `--seconds` of
//! measured time and prints the end-to-end metrics; with `--trace 1` runs
//! it untraced and traced for half the time each, replays the recorded
//! request stream into the core, flash and interconnect layers, and
//! prints the per-layer metrics. The last line of standard output is the
//! result object. Exits non-zero, without a result, on bad arguments or
//! when a workload's target layer did not do the work it is there for.

use std::process::ExitCode;
use std::time::Duration;

use perfbench::report::{self, Metric};
use perfbench::{guard, replay, run, tenant, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(args)
}

fn main_inner() -> Result<(), String> {
    let args = parse()?;
    let budget = Duration::from_secs_f64(args.seconds);
    let (metrics, attempted, failed): (Vec<Metric>, u64, u64) = if args.trace {
        let untraced = run(&args.workload, args.seed, budget / 2, false)?;
        guard(&args.workload, &untraced)?;
        let traced = run(&args.workload, args.seed, budget / 2, true)?;
        let weights: Vec<u64> = tenant::tenant_set(args.seed, 0)
            .tenants
            .iter()
            .map(|t| t.weight)
            .collect();
        let replays = replay::replay(&traced.stream, &traced.config, &weights)?;
        (
            report::per_layer(&args.workload, &untraced, &traced, &replays),
            untraced.attempted + traced.attempted,
            untraced.failed + traced.failed,
        )
    } else {
        let phase = run(&args.workload, args.seed, budget, false)?;
        guard(&args.workload, &phase)?;
        (report::end_to_end(&phase), phase.attempted, phase.failed)
    };
    println!(
        "# perfbench {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    print!(
        "{}",
        report::render(&metrics, failed == 0, attempted, failed)?
    );
    Ok(())
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
