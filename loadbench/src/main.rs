//! `loadbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload once and prints, as its last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 0 when every
//! output checked out, 1 when one did not (the result line still prints),
//! and 2 without a result line on bad arguments or a failed set-up.

use loadbench::plan::Workload;
use loadbench::{metrics, Options};
use std::path::PathBuf;

const USAGE: &str =
    "usage: loadbench --workload warm-sweep|serve-mixed --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| format!("bad seed `{value}`"))?);
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got `{value}`"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let options = match parse_args() {
        Ok(options) => options,
        Err(e) => {
            eprintln!("loadbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Scratch space inside the working directory, removed on exit.
    let scratch = PathBuf::from(".loadbench").join(format!("run-{}", std::process::id()));
    let outcome = std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("creating {}: {e}", scratch.display()))
        .and_then(|()| loadbench::run(&options, &scratch));
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".loadbench");
    let result = match outcome {
        Ok(result) => result,
        Err(e) => {
            eprintln!("loadbench: {e}");
            std::process::exit(2);
        }
    };
    for line in &result.details {
        println!("{line}");
    }
    for violation in &result.violations {
        eprintln!("loadbench: FAILED CHECK: {violation}");
    }
    println!(
        "{}",
        metrics::result_line(result.correct, result.attempted, result.failed, &result.metrics)
    );
    std::process::exit(if result.correct { 0 } else { 1 });
}
