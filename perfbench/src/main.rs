//! The repository benchmark: paper reproduction and `/v1` serving, timed
//! end to end and per layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <repro_paper|serve_query|serve_compute> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the workload's end-to-end metrics
//! with tracing off; with `--trace 1` it measures every per-layer metric.
//! The last line of standard output is the JSON result; the lines before
//! it carry host provenance and sample counts. The exit code is nonzero
//! when any output fails its correctness check.

mod gen;
mod host;
mod layers;
mod metrics;
mod repro;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{result_line, END_TO_END, PER_LAYER};
use workloads::{Outcome, Run};

const WORKLOADS: &[&str] = &["repro_paper", "serve_query", "serve_compute"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    child_pass: Option<bool>,
    child_setup: Option<bool>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        child_pass: None,
        child_setup: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--child-pass" => {
                args.child_pass = Some(match value()?.as_str() {
                    "untraced" => false,
                    "traced" => true,
                    other => {
                        return Err(format!(
                            "--child-pass takes untraced or traced, not {other}"
                        ))
                    }
                })
            }
            "--child-setup" => {
                args.child_setup = Some(match value()?.as_str() {
                    "plain" => false,
                    "store" => true,
                    other => {
                        return Err(format!("--child-setup takes plain or store, not {other}"))
                    }
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.child_pass.is_none()
        && args.child_setup.is_none()
        && !WORKLOADS.contains(&args.workload.as_str())
    {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

fn run(args: &Args) -> Result<(Outcome, bool), String> {
    let host = host::Host::probe();
    host.check()?;
    println!("{{\"provenance\": {}}}", host.provenance_json());
    let scratch = PathBuf::from(".bench_tmp").join(std::process::id().to_string());
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        host,
        scratch: scratch.clone(),
    };
    let outcome = if args.trace {
        workloads::traced(&run)
    } else {
        match args.workload.as_str() {
            "repro_paper" => workloads::repro_paper(&run),
            "serve_query" => workloads::serve_query(&run),
            _ => workloads::serve_compute(&run),
        }
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".bench_tmp");
    Ok((outcome?, args.trace))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(traced) = args.child_pass {
        println!("{}", repro::child_pass(args.seed, traced));
        return ExitCode::SUCCESS;
    }
    if let Some(store) = args.child_setup {
        let scratch = PathBuf::from(".bench_tmp").join(std::process::id().to_string());
        let workers = host::Host::probe().server_workers;
        let times = serve::child_setup(workers, store.then_some(scratch.as_path()));
        let _ = std::fs::remove_dir_all(&scratch);
        return match times {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    // The program under test runs as many engine threads as the host has
    // processors; every process this one starts inherits the setting.
    let nproc = host::Host::probe().nproc;
    std::env::set_var("NTC_THREADS", nproc.to_string());
    match run(&args) {
        Ok((outcome, traced)) => {
            for note in &outcome.notes {
                println!("{note}");
            }
            let table = if traced { PER_LAYER } else { END_TO_END };
            match outcome.metrics.render(table) {
                Ok(metrics) => {
                    println!(
                        "{}",
                        result_line(outcome.attempted, outcome.failed, &metrics)
                    );
                    if outcome.failed == 0 {
                        ExitCode::SUCCESS
                    } else {
                        eprintln!(
                            "perfbench: {} of {} operations failed",
                            outcome.failed, outcome.attempted
                        );
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
