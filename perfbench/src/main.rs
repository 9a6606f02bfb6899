//! `falcon-perfbench --workload <agents|fabric|wan> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints notes and a metric table, then one JSON result line as the
//! last line of standard output. Exits 1 if any output check fails and 2
//! on a usage error.

use std::process::ExitCode;

use falcon_perfbench::{run_workload, UNLISTED, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().chain(&UNLISTED).any(|w| *w == workload) {
        return Err(format!(
            "unknown workload {workload:?} (expected {}|{})",
            WORKLOADS.join("|"),
            UNLISTED.join("|")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("falcon-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(out) = run_workload(&args.workload, args.seed, args.seconds, args.trace) else {
        return ExitCode::from(2);
    };
    for line in &out.notes {
        println!("# {line}");
    }
    for m in &out.metrics {
        println!("{:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", out.json_line());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
