//! Reference-paired, layer-by-layer benchmark of the arraymem crates.
//!
//! ```text
//! perfbench --workload nw|hotspot|histogram|serve --seed N --seconds S --trace 0|1 [--out FILE]
//! ```
//!
//! Prints a readable summary, then as the last line of standard output
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Every run also appends its stamped record to a results
//! file (default `.bench_out/results.jsonl`) for `compare.py`; traced runs
//! write their spans to `.bench_out/trace-<workload>-<seed>.json`.
//! See `README.md` beside this package.

mod batch;
mod paired;
mod serve;
mod util;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use util::{json_num, json_str, Metrics, Tracer, END_TO_END, PER_LAYER};

const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = Path::new(OUT_DIR).join("results.jsonl");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// Write a traced run's spans under the output directory.
pub fn write_trace(workload: &str, seed: u64, tracer: &Tracer) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(format!("trace-{workload}-{seed}.json"));
    std::fs::write(&path, tracer.to_json()).map_err(|e| format!("{}: {e}", path.display()))
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The results-file record of one run: stamp, tally and every metric
/// with its unit and sample count.
fn record(
    args: &Args,
    o: &batch::Outcome,
    seeded: bool,
    threads: usize,
    serve: Option<(f64, f64)>,
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let metrics: Vec<String> = o
        .metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"n\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit),
                m.n
            )
        })
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seed_invariant\": {}, \"trace\": {}, \"seconds\": {}, \
         \"nproc\": {nproc}, \"git_rev\": {}, \"profile\": {}, \"rustc\": {}, \"worker_threads\": {threads}, \
         \"offered_rps\": {}, \"latency_limit_ms\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        json_str(&args.workload),
        args.seed,
        !seeded,
        u8::from(args.trace),
        json_num(args.seconds),
        json_str(&git_rev()),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
        serve.map_or("null".into(), |s| json_num(s.0)),
        serve.map_or("null".into(), |s| json_num(s.1)),
        o.tally.attempted,
        o.tally.failed,
        metrics.join(", ")
    )
}

fn append(path: &Path, line: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(f, "{line}").map_err(|e| format!("{}: {e}", path.display()))
}

/// The metrics printed for this mode: exactly the end-to-end metrics of
/// `BENCHMARK.json` (times enter them only as ratios to a reference
/// measured in the same round, or scaled to nominal machine speed), or
/// exactly its per-layer metrics, each finite.
fn selected(m: &Metrics, trace: bool) -> Result<Vec<&util::Metric>, String> {
    let declared = if trace { PER_LAYER } else { END_TO_END };
    let mut keep = Vec::with_capacity(declared.len());
    for (name, _) in declared {
        match m.0.iter().find(|x| x.name == *name) {
            Some(x) if x.value.is_finite() => keep.push(x),
            Some(_) => return Err(format!("metric {name} is not finite")),
            None => return Err(format!("metric {name} missing")),
        }
    }
    Ok(keep)
}

fn run(args: &Args) -> Result<(), String> {
    let (outcome, seeded, threads, serve) = if args.workload == "serve" {
        let o = serve::run(args.seed, args.seconds, args.trace)?;
        (o, true, 1, Some((serve::RATE_RPS, serve::LATENCY_LIMIT_MS)))
    } else {
        let spec = batch::spec(&args.workload).ok_or_else(|| {
            format!(
                "unknown workload {:?} (nw, hotspot, histogram, serve)",
                args.workload
            )
        })?;
        let o = batch::run(&spec, args.seed, args.seconds, args.trace)?;
        (o, spec.seeded, batch::THREADS, None)
    };
    append(&args.out, &record(args, &outcome, seeded, threads, serve))?;
    let shown = selected(&outcome.metrics, args.trace)?;
    for note in &outcome.tally.notes {
        eprintln!("failed: {note}");
    }
    let t = &outcome.tally;
    println!(
        "{} seed {} ({}): {} of {} operations failed",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        t.failed,
        t.attempted
    );
    for m in &shown {
        println!("  {:<40} {:>16.6} {:<8} n={}", m.name, m.value, m.unit, m.n);
    }
    let body: Vec<String> = shown
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.failed == 0,
        t.attempted,
        t.failed,
        body.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload nw|hotspot|histogram|serve --seed N --seconds S --trace 0|1 [--out FILE]");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
