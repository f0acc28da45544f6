//! The qosr benchmark: one command, three workloads, end-to-end
//! metrics from untraced runs and per-layer metrics from a traced run.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-churn --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer ones, after a table per workload. `--repeat N` runs
//! the workload N times in child processes (seeds `seed..seed+N`) and
//! prints each end-to-end metric's median, quartiles and spread. An
//! output check that fails prints `"correct": false` and exits 1. See
//! README.md for the workloads and metrics.

mod advance_timeline;
mod measure;
mod paper_contended;
mod serve_churn;

use measure::{metric, quartiles, Checked, Measured, Metric};
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["serve-churn", "paper-contended", "advance-timeline"];

/// In a traced run, the named workload runs untraced and then traced for
/// this share of `--seconds` each...
const NAMED_SHARE: f64 = 0.5;
/// ...and every other workload traced for this share.
const SIDE_SHARE: f64 = 0.2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

fn usage() -> String {
    format!(
        "usage: qosr-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--repeat N]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => {
                args.repeat = Some(value()?.parse().map_err(|e| format!("--repeat: {e}"))?)
            }
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(usage());
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool) -> Checked<Measured> {
    match name {
        "serve-churn" => serve_churn::run(seed, seconds, traced),
        "paper-contended" => paper_contended::run(seed, seconds, traced),
        "advance-timeline" => advance_timeline::run(seed, seconds, traced),
        other => unreachable!("unvalidated workload {other}"),
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// Untraced run of one workload: the end-to-end metrics. The table also
/// shows the p99 decision latency, which is not one of them (see
/// README.md).
fn end_to_end(args: &Args) -> Checked<(u64, u64, Vec<Metric>)> {
    let m = run_workload(&args.workload, args.seed, args.seconds, false)?;
    let metrics = m.end_to_end();
    let mut shown = metrics.clone();
    shown.insert(3, metric("p99_us (not gated)", "us", m.p99_us));
    print_table(
        &format!(
            "{} (seed {}, {} s): {} ops attempted, {} failed",
            args.workload, args.seed, args.seconds, m.attempted, m.failed
        ),
        &shown,
    );
    Ok((m.attempted, m.failed, metrics))
}

/// Traced run: the named workload untraced and then traced (the tracing
/// overhead's two bases), then every other workload traced for a shorter
/// pass, so each traced run reports every layer.
fn per_layer(args: &Args) -> Checked<(u64, u64, Vec<Metric>)> {
    let named_seconds = (args.seconds * NAMED_SHARE).max(1.0);
    let base = run_workload(&args.workload, args.seed, named_seconds, false)?;
    let mut all: Vec<Metric> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for name in WORKLOADS {
        let seconds = if name == args.workload {
            named_seconds
        } else {
            (args.seconds * SIDE_SHARE).max(1.0)
        };
        let traced = run_workload(name, args.seed, seconds, true)?;
        let mut layers = traced.layers.clone();
        if name == args.workload {
            attempted = base.attempted + traced.attempted;
            failed = base.failed + traced.failed;
            let (untraced_cpu, traced_cpu) = (base.cpu_us_per_op, traced.cpu_us_per_op);
            layers.extend([
                metric("proc.sys_us_per_op", "us", base.sys_us_per_op),
                metric("obs.untraced_cpu_us_per_op", "us", untraced_cpu),
                metric("obs.traced_cpu_us_per_op", "us", traced_cpu),
                metric("obs.traced_cpu_ratio", "ratio", traced_cpu / untraced_cpu),
            ]);
        }
        print_table(
            &format!("{name} (traced, seed {}, {seconds} s)", args.seed),
            &layers,
        );
        all.extend(layers);
    }
    Ok((attempted, failed, all))
}

/// `--repeat N`: runs the workload N times in child processes and
/// prints each end-to-end metric's median, quartiles and spread
/// (interquartile distance over the median).
fn repeat(args: &Args, n: usize) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs: Vec<Vec<(String, f64)>> = Vec::new();
    for i in 0..n {
        let seed = args.seed + i as u64;
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0"])
            .output()
            .map_err(|e| format!("spawn: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default().to_string();
        if !out.status.success() {
            return Err(format!(
                "seed {seed} failed: {last}\n{}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let values = parse_metrics(&last);
        eprintln!("seed {seed}: {last}");
        runs.push(values);
    }
    println!(
        "{} x{n} (seeds {}..{}, {} s each)",
        args.workload,
        args.seed,
        args.seed + n as u64 - 1,
        args.seconds
    );
    println!(
        "  {:<16} {:>14} {:>14} {:>14} {:>8}",
        "metric", "q1", "median", "q3", "spread"
    );
    for (k, (name, _)) in runs[0].iter().enumerate() {
        let mut values: Vec<f64> = runs.iter().map(|r| r[k].1).collect();
        let (q1, q3) = if n >= 2 {
            quartiles(&values)
        } else {
            (values[0], values[0])
        };
        let med = measure::median(&mut values);
        println!(
            "  {name:<16} {q1:>14.4} {med:>14.4} {q3:>14.4} {:>7.2}%",
            (q3 - q1) / med * 100.0
        );
    }
    Ok(())
}

/// Pulls `(name, value)` pairs out of a result line this program printed.
fn parse_metrics(line: &str) -> Vec<(String, f64)> {
    let Some(start) = line.find("\"metrics\": {") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut rest = &line[start + 12..];
    while let Some(q) = rest.find('"') {
        let after = &rest[q + 1..];
        let Some(end) = after.find('"') else { break };
        let name = &after[..end];
        let Some(v) = after.find("\"value\": ") else {
            break;
        };
        let num = &after[v + 9..];
        let stop = num.find(',').unwrap_or(num.len());
        out.push((
            name.to_string(),
            num[..stop].trim().parse().unwrap_or(f64::NAN),
        ));
        rest = match num.find('}') {
            Some(close) => &num[close + 1..],
            None => "",
        };
        if rest.starts_with('}') {
            break;
        }
        rest = rest.trim_start_matches(", ");
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.repeat {
        return match repeat(&args, n.max(1)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    match result {
        Ok((attempted, failed, metrics)) => {
            if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
                eprintln!("metric {} is not finite", bad.name);
                println!("{}", json_line(false, attempted.max(1), failed, &[]));
                return ExitCode::FAILURE;
            }
            println!("{}", json_line(true, attempted, failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(violation) => {
            eprintln!("output check failed: {violation}");
            println!("{}", json_line(false, 1, 0, &[]));
            ExitCode::FAILURE
        }
    }
}
