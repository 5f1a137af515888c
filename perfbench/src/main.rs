//! The repository benchmark: one command per run of a workload.
//!
//! ```text
//! bash perfbench/run.sh --workload <solve-ladder|serve-fresh|serve-zipf> \
//!      --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric by name and unit, checks the answers, writes the results
//! (and, when traced, the spans) under `.bench_out/`, and ends with one JSON line
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` holding the
//! end-to-end metrics of `BENCHMARK.json` (`--trace 0`) or its per-layer ones
//! (`--trace 1`).  See `perfbench/README.md`.

mod ladder;
mod loadgen;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use urs_core::engine::json::{self, Value};

use stats::Timing;
use trace::Tracer;

/// What one run of a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Every metric the run measured, end-to-end and per-layer, by name.
    pub metrics: BTreeMap<String, f64>,
    /// Per-layer metrics this workload does not measure: it never calls the
    /// layer, or the layer runs where the benchmark cannot time it.  They are
    /// reported as 0; any other declared metric left unmeasured is a problem.
    pub unmeasured: Vec<String>,
    /// The latency distributions behind the timing metrics.
    pub timings: Vec<(String, Timing)>,
    pub details: Vec<(String, Value)>,
}

/// Peak resident set size (`VmHWM`) of process `pid` (or `self`) in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let name = flag.strip_prefix("--").ok_or(format!("unexpected argument `{flag}`"))?;
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        values.insert(name.to_string(), value);
    }
    let get = |name: &str| values.get(name).ok_or(format!("missing --{name}"));
    let number = |name: &str| -> Result<u64, String> {
        get(name)?.parse().map_err(|e| format!("--{name}: {e}"))
    };
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: number("seed")?,
        seconds: number("seconds")? as f64,
        trace: number("trace")? == 1,
    })
}

/// `(name, unit)` of the end-to-end (`per_layer == false`) or per-layer metrics
/// declared in `BENCHMARK.json`.
fn declared_metrics(per_layer: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let spec = Value::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = spec
        .get(if per_layer { "per_layer" } else { "end_to_end" })
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json lacks its metric lists")?;
    list.iter()
        .map(|m| {
            let field = |key| m.get(key).and_then(Value::as_str).map(str::to_string);
            field("name").zip(field("unit")).ok_or("a metric lacks a name or unit".to_string())
        })
        .collect()
}

fn timing_json(timing: &Timing) -> Value {
    json::object([
        ("median", Value::Number(timing.median)),
        ("tail", Value::Number(timing.tail)),
        ("tail_percentile", Value::Number(f64::from(timing.tail_percentile))),
        ("samples", Value::Number(timing.samples as f64)),
    ])
}

fn metrics_json(metrics: &BTreeMap<String, f64>) -> Value {
    Value::Object(metrics.iter().map(|(k, v)| (k.clone(), Value::Number(*v))).collect())
}

/// The end-to-end differences between this traced run and an untraced run of the
/// same workload and seed, when one has been written.
fn tracing_overhead(untraced: &Path, traced: &BTreeMap<String, f64>) -> Option<Value> {
    let text = std::fs::read_to_string(untraced).ok()?;
    let base = Value::parse(&text).ok()?;
    let Some(Value::Object(base)) = base.get("metrics") else { return None };
    let mut overhead = BTreeMap::new();
    for (name, value) in base {
        if let (Some(b), Some(t)) = (value.as_f64(), traced.get(name)) {
            overhead.insert(name.clone(), Value::Number(t - b));
        }
    }
    Some(Value::Object(overhead))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let declared = match declared_metrics(args.trace) {
        Ok(declared) => declared,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let origin = Instant::now();
    let mut tracer = args.trace.then(|| Tracer::new(origin));
    let mut outcome = match args.workload.as_str() {
        "solve-ladder" => ladder::run(args.seed, args.seconds, tracer.as_mut()),
        "serve-fresh" | "serve-zipf" => {
            match serve::run(&args.workload, args.seed, args.seconds, tracer.as_mut()) {
                Ok(outcome) => outcome,
                Err(message) => {
                    eprintln!("perfbench: {message}");
                    std::process::exit(1);
                }
            }
        }
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let urs_threads = std::env::var("URS_THREADS").unwrap_or_else(|_| "unset".to_string());
    let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string());
    let failed_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.metrics.insert("failed_ratio".into(), failed_ratio);
    println!(
        "perfbench {} seed {} for {} s, trace {}: nproc {nproc}, URS_THREADS {urs_threads}, \
         commit {commit}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "  attempted {}, failed {} (failed_ratio {failed_ratio:.5})",
        outcome.attempted, outcome.failed
    );
    for (name, timing) in &outcome.timings {
        println!("  {name}: {}", timing.describe("ms"));
    }
    for (name, value) in &outcome.metrics {
        println!("  {name} = {value}");
    }
    for problem in &outcome.problems {
        println!("  CHECK FAILED: {problem}");
    }

    let mut missing = Vec::new();
    let mut reported = Vec::new();
    println!("  reported ({}):", if args.trace { "per-layer" } else { "end-to-end" });
    for (name, unit) in &declared {
        let (value, note) = match outcome.metrics.get(name).filter(|v| v.is_finite()) {
            Some(value) => (*value, ""),
            None if args.trace && outcome.unmeasured.contains(name) => {
                (0.0, " (not measured on this workload)")
            }
            None => {
                missing.push(name.clone());
                continue;
            }
        };
        println!("    {name}: {value} {unit}{note}");
        reported.push((
            name.clone(),
            json::object([("value", Value::Number(value)), ("unit", Value::String(unit.clone()))]),
        ));
    }
    let mut problems = outcome.problems.clone();
    if !missing.is_empty() {
        problems.push(format!("declared metrics not measured: {}", missing.join(", ")));
    }

    let out_dir = Path::new(".bench_out");
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let mut results = vec![
        ("workload", Value::String(args.workload.clone())),
        ("seed", Value::Number(args.seed as f64)),
        ("seconds", Value::Number(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("nproc", Value::Number(nproc as f64)),
        ("urs_threads", Value::String(urs_threads)),
        ("commit", Value::String(commit)),
        ("attempted", Value::Number(outcome.attempted as f64)),
        ("failed", Value::Number(outcome.failed as f64)),
        ("failed_ratio", Value::Number(failed_ratio)),
        ("problems", Value::Array(problems.iter().cloned().map(Value::String).collect())),
        ("metrics", metrics_json(&outcome.metrics)),
        (
            "timings",
            Value::Object(
                outcome.timings.iter().map(|(n, t)| (n.clone(), timing_json(t))).collect(),
            ),
        ),
        ("details", Value::Object(outcome.details.iter().cloned().collect())),
    ];
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(out_dir)?;
        if let Some(tracer) = &tracer {
            if let Some(overhead) =
                tracing_overhead(&out_dir.join(format!("{stem}.json")), &outcome.metrics)
            {
                println!("  tracing overhead (traced − untraced): {}", overhead.serialise());
                results.push(("tracing_overhead", overhead));
            }
            tracer.write(&out_dir.join(format!("{stem}-spans.jsonl")))?;
        }
        let suffix = if args.trace { "-trace" } else { "" };
        let results = Value::Object(results.into_iter().map(|(k, v)| (k.to_string(), v)).collect());
        std::fs::write(out_dir.join(format!("{stem}{suffix}.json")), results.serialise() + "\n")
    };
    if let Err(error) = write() {
        problems.push(format!("cannot write results: {error}"));
    }

    let correct = problems.is_empty();
    let line = json::object([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Number(outcome.attempted as f64)),
        ("failed", Value::Number(outcome.failed as f64)),
        ("metrics", Value::Object(reported.into_iter().collect())),
    ]);
    println!("{}", line.serialise());
    if !correct {
        std::process::exit(1);
    }
}
