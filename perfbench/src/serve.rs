//! `serve-fresh` and `serve-zipf`: an open loop of Poisson arrivals over one
//! TCP connection to a freshly spawned `urs-server --tcp 127.0.0.1:0`.
//!
//! The nominal phase offers the workload's nominal rate for three quarters of
//! `--seconds`; it gives the end-to-end metrics and the latencies.  Then each
//! rung of the frozen rate ladder is offered for an equal share of the rest, in
//! ascending order; `sustained_qps` is the highest rung up to which every rung
//! kept the tail latency of first-time queries under the limit without a
//! growing backlog.  Latency is measured from each query's scheduled send time.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use urs_core::engine::json::{self, Value};
use urs_core::engine::{self, PercentileReport, Query, QueryResult};
use urs_core::response::{ResponseAnalysis, ResponseOptions};
use urs_core::Engine;
use urs_server::Server;

use crate::loadgen::{fresh_query, poisson_arrivals, query_type, Rng, Zipf};
use crate::stats::{
    backlog_at, backlog_grows, classify_repeats, median, percentile, service_times, Timing,
};
use crate::trace::Tracer;
use crate::Outcome;

/// The frozen shape of one serving workload.
struct Mix {
    /// Offered rate of the nominal phase, queries per second.
    nominal_qps: f64,
    /// The rungs offered after the nominal phase, ascending.
    rungs: &'static [f64],
    /// Limit on the tail latency of first-time queries, milliseconds.
    limit_ms: f64,
    /// Zipf-popular draws from a fixed catalogue instead of all-distinct queries.
    zipf: bool,
}

const FRESH: Mix =
    Mix { nominal_qps: 30.0, rungs: &[45.0, 68.0, 100.0], limit_ms: 1000.0, zipf: false };
const ZIPF: Mix =
    Mix { nominal_qps: 60.0, rungs: &[90.0, 135.0, 200.0], limit_ms: 1000.0, zipf: true };

/// Seed of phase 0's queries; phase `k` uses `POOL_SEED + k` (see `phase_lines`).
const POOL_SEED: u64 = 0x5EED_F8E5_0000;
/// Catalogue of the `serve-zipf` workload: the first entries of the
/// `serve-fresh` generator under a fixed seed, ranked in generation order.
const CATALOGUE_SEED: u64 = 0x5EED_CA7A_1065;
const CATALOGUE_SIZE: usize = 20_000;
const ZIPF_EXPONENT: f64 = 1.0;
/// Share of `--seconds` given to the nominal phase; the rungs share the rest.
const NOMINAL_SHARE: f64 = 0.75;
const SHUFFLE_BLOCK: usize = 10;
/// Spawns timed for `setup_s` at each probe, beside the one that serves.
const SETUP_PROBES: usize = 5;
/// Lines replayed in process and compared byte for byte with the served answers.
const CHECK_SAMPLE: usize = 40;
/// Per-layer metrics of the solver layers.  On these workloads the solvers run
/// inside the server process, where the benchmark cannot time them; their
/// share shows in `engine.exec_ms.*`.
const UNMEASURED: [&str; 17] = [
    "qbd.skeleton_s",
    "qbd.modes",
    "linalg.eigvals_s",
    "linalg.eigvals_found",
    "linalg.qr_flops_computed",
    "linalg.eigvecs_s",
    "linalg.banded_share",
    "spectral.self_s",
    "matrix_geometric.reduction_s",
    "matrix_geometric.reduction_depth",
    "matrix_geometric.self_s",
    "approx.self_s",
    "spectral_solve_s",
    "mg_solve_s",
    "approx_solve_s",
    "exact_rel_gap",
    "approx_rel_err",
];

/// A spawned `urs-server`, killed and reaped on drop.
struct ServerProcess {
    child: Child,
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl ServerProcess {
    fn peak_rss_mb(&self) -> Option<f64> {
        crate::peak_rss_mb(&self.child.id().to_string())
    }
}

struct Connection {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Connection {
    fn ask(&mut self, line: &str) -> Result<String, String> {
        (&self.stream).write_all(format!("{line}\n").as_bytes()).map_err(|e| e.to_string())?;
        let mut response = String::new();
        self.reader.read_line(&mut response).map_err(|e| e.to_string())?;
        Ok(response.trim_end().to_string())
    }
}

/// Spawns the server and waits for its first `stats` answer; returns the
/// process, the open connection, and the seconds that took.
fn spawn(binary: &str) -> Result<(ServerProcess, Connection, f64), String> {
    let started = Instant::now();
    let mut child = Command::new(binary)
        .args(["--tcp", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {binary}: {e}"))?;
    let stdout = child.stdout.take().ok_or("server stdout missing")?;
    let process = ServerProcess { child };
    let mut banner = String::new();
    BufReader::new(stdout).read_line(&mut banner).map_err(|e| e.to_string())?;
    let addr =
        banner.trim().strip_prefix("listening on ").ok_or(format!("bad banner `{banner}`"))?;
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut connection = Connection { stream, reader };
    let stats = connection.ask("{\"type\":\"stats\"}")?;
    if !stats.contains("\"type\":\"stats\"") {
        return Err(format!("unexpected first stats answer `{stats}`"));
    }
    Ok((process, connection, started.elapsed().as_secs_f64()))
}

/// Every query a run sent, with its times in seconds since the run began.
#[derive(Default)]
struct Log {
    lines: Vec<String>,
    due: Vec<f64>,
    sent: Vec<f64>,
    /// `INFINITY` for a query that was never answered.
    answered: Vec<f64>,
    responses: Vec<String>,
}

/// Offers `lines` at `offsets` seconds after `start` (run time) and waits for
/// every answer; returns the index range the phase occupies in `log`.
fn offer(
    connection: &mut Connection,
    origin: Instant,
    start: f64,
    lines: Vec<String>,
    offsets: &[f64],
    log: &mut Log,
) -> std::ops::Range<usize> {
    let first = log.lines.len();
    let count = lines.len();
    let mut sent = vec![f64::INFINITY; count];
    let mut answered = vec![f64::INFINITY; count];
    let mut responses = Vec::with_capacity(count);
    let Connection { stream, reader } = connection;
    std::thread::scope(|scope| {
        let answered = &mut answered;
        let responses = &mut responses;
        scope.spawn(move || {
            for slot in answered.iter_mut() {
                let mut response = String::new();
                match reader.read_line(&mut response) {
                    Ok(n) if n > 0 => {
                        *slot = origin.elapsed().as_secs_f64();
                        responses.push(response.trim_end().to_string());
                    }
                    _ => break,
                }
            }
        });
        for ((line, offset), slot) in lines.iter().zip(offsets).zip(sent.iter_mut()) {
            let due = origin + Duration::from_secs_f64(start + offset);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            *slot = origin.elapsed().as_secs_f64();
            if (&*stream).write_all(format!("{line}\n").as_bytes()).is_err() {
                break;
            }
        }
    });
    responses.resize(count, String::new());
    log.due.extend(offsets.iter().map(|o| start + o));
    log.lines.extend(lines);
    log.sent.extend(sent);
    log.answered.extend(answered);
    log.responses.extend(responses);
    first..first + count
}

/// Latencies in milliseconds of the queries in `range` selected by `keep`.
fn latencies(log: &Log, range: std::ops::Range<usize>, keep: impl Fn(usize) -> bool) -> Vec<f64> {
    range.filter(|&i| keep(i)).map(|i| (log.answered[i] - log.due[i]) * 1e3).collect()
}

pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    tracer: Option<&mut Tracer>,
) -> Result<Outcome, String> {
    let mix = if workload == "serve-zipf" { &ZIPF } else { &FRESH };
    let binary = std::env::var("PERFBENCH_SERVER").map_err(|_| "PERFBENCH_SERVER is not set")?;
    let mut outcome = Outcome {
        unmeasured: UNMEASURED.iter().map(|n| n.to_string()).collect(),
        ..Outcome::default()
    };
    if !mix.zipf {
        // Every query is distinct, so none is a repeat.
        outcome.unmeasured.extend(["repeat_p50_ms".to_string(), "repeat_p99_ms".to_string()]);
    }
    let mut rng = Rng::new(seed);
    let catalogue: Vec<String> = if mix.zipf {
        let mut catalogue_rng = Rng::new(CATALOGUE_SEED);
        (0..CATALOGUE_SIZE).map(|_| fresh_query(&mut catalogue_rng)).collect()
    } else {
        Vec::new()
    };
    let zipf = Zipf::new(CATALOGUE_SIZE, ZIPF_EXPONENT);
    // A phase's queries are a fixed sequence drawn under `POOL_SEED + phase`;
    // the run's seed shuffles it within blocks of `SHUFFLE_BLOCK` and draws the
    // arrival times.  Every stretch of the phase then holds the same queries on
    // every seed: the heavy ones cannot bunch up on one seed and spread out on
    // another.
    let phase_lines = |phase: usize, count: usize, rng: &mut Rng| -> Vec<String> {
        let mut pool_rng = Rng::new(POOL_SEED + phase as u64);
        let mut lines: Vec<String> = (0..count)
            .map(|_| {
                if mix.zipf {
                    catalogue[zipf.sample(&mut pool_rng)].clone()
                } else {
                    fresh_query(&mut pool_rng)
                }
            })
            .collect();
        for block in lines.chunks_mut(SHUFFLE_BLOCK) {
            rng.shuffle(block);
        }
        lines
    };

    let (process, mut connection, setup) = spawn(&binary)?;
    let mut setups = vec![setup];
    // More spawns are timed before each phase and after the last, while the
    // served process idles, so the reported median spans the whole run rather
    // than the machine's state at its start.  Each probe is killed on drop.
    let probe = |setups: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..SETUP_PROBES {
            setups.push(spawn(&binary)?.2);
        }
        Ok(())
    };

    let origin = Instant::now();
    let mut log = Log::default();
    let nominal_seconds = NOMINAL_SHARE * seconds;
    let rung_seconds = (seconds - nominal_seconds) / mix.rungs.len() as f64;
    let mut phases = Vec::new();
    for (index, &rate) in std::iter::once(&mix.nominal_qps).chain(mix.rungs).enumerate() {
        let length = if index == 0 { nominal_seconds } else { rung_seconds };
        probe(&mut setups)?;
        let count = (rate * length).round() as usize;
        let lines = phase_lines(index, count, &mut rng);
        let offsets = poisson_arrivals(&mut rng, count, length);
        let start = origin.elapsed().as_secs_f64();
        let range = offer(&mut connection, origin, start, lines, &offsets, &mut log);
        let repeats = classify_repeats(
            &log.lines.iter().map(String::as_str).collect::<Vec<_>>(),
            &log.sent,
            &log.answered,
        );
        let fresh = Timing::of(&latencies(&log, range.clone(), |i| !repeats[i]));
        let points: Vec<f64> =
            (0..=(length / 0.05) as usize).map(|k| start + 0.05 * k as f64).collect();
        let backlog = backlog_at(&log.sent[range.clone()], &log.answered[range.clone()], &points);
        let grows = backlog_grows(&backlog, (0.5 * rate).max(4.0));
        let passed = !grows && fresh.is_some_and(|t| t.tail < mix.limit_ms);
        phases.push((rate, range, fresh, grows, passed, backlog.last().copied().unwrap_or(0.0)));
    }
    probe(&mut setups)?;
    let final_stats = connection.ask("{\"type\":\"stats\"}");
    let peak_rss = process.peak_rss_mb();
    drop(connection);
    drop(process);

    // Results.
    let all_lines: Vec<&str> = log.lines.iter().map(String::as_str).collect();
    let repeats = classify_repeats(&all_lines, &log.sent, &log.answered);
    let nominal = phases[0].1.clone();
    let m = &mut outcome.metrics;
    m.insert("setup_s".into(), median(&setups));
    if let Some(rss) = peak_rss {
        m.insert("peak_rss_mb".into(), rss);
    }
    let mut timed = |name: &str, values: Vec<f64>, metrics: [&str; 2]| {
        if let Some(timing) = Timing::of(&values) {
            m.insert(metrics[0].into(), timing.median);
            m.insert(metrics[1].into(), timing.tail);
            outcome.timings.push((name.to_string(), timing));
        }
    };
    let all = latencies(&log, nominal.clone(), |_| true);
    timed("nominal_all_ms", all, ["latency_p50_ms", "latency_tail_ms"]);
    timed(
        "nominal_fresh_ms",
        latencies(&log, nominal.clone(), |i| !repeats[i]),
        ["fresh_p50_ms", "fresh_p99_ms"],
    );
    if mix.zipf {
        timed(
            "nominal_repeat_ms",
            latencies(&log, nominal.clone(), |i| repeats[i]),
            ["repeat_p50_ms", "repeat_p99_ms"],
        );
    }
    let service = service_times(&log.sent[nominal.clone()], &log.answered[nominal.clone()]);
    m.insert("service_ms".into(), service.iter().sum::<f64>() / service.len().max(1) as f64);
    m.insert("service_tail_ms".into(), percentile(&service, 90));
    let lag: Vec<f64> = nominal.clone().map(|i| (log.sent[i] - log.due[i]) * 1e3).collect();
    if let Some(lag) = Timing::of(&lag) {
        m.insert("loadgen.lag_p99_ms".into(), lag.tail);
        outcome.timings.push(("loadgen_lag_ms".into(), lag));
    }
    m.insert("loadgen.backlog_end".into(), phases[0].5);
    // 0 when not even the nominal rate held.
    m.insert("sustained_qps".into(), phases.iter().take_while(|p| p.4).last().map_or(0.0, |p| p.0));

    // Every answer must parse; an error answer (`"type":"error"`) counts as a
    // failed query, and a query never answered is a failed query and a problem.
    outcome.attempted = log.lines.len() as u64;
    let mut errors: std::collections::BTreeMap<String, f64> = Default::default();
    let mut unanswered = 0usize;
    for response in &log.responses {
        if response.is_empty() {
            outcome.failed += 1;
            unanswered += 1;
            continue;
        }
        match Value::parse(response) {
            Ok(value) if value.get("type").and_then(Value::as_str) == Some("error") => {
                outcome.failed += 1;
                let message = value.get("error").and_then(Value::as_str).unwrap_or("(no message)");
                *errors.entry(message.to_string()).or_default() += 1.0;
            }
            Ok(_) => {}
            Err(error) => {
                outcome.problems.push(format!("unparseable response `{response}`: {error}"))
            }
        }
    }
    if unanswered > 0 {
        outcome.problems.push(format!("{unanswered} queries were never answered"));
    }

    match final_stats
        .map_err(|e| e.to_string())
        .and_then(|s| Value::parse(&s).map_err(|e| e.to_string()))
    {
        Ok(stats) => {
            let number = |v: Option<&Value>| v.and_then(Value::as_f64).unwrap_or(0.0);
            let server = stats.get("server");
            let requests = number(server.and_then(|s| s.get("requests")));
            let batches = number(server.and_then(|s| s.get("batches")));
            m.insert("server.batch_mean".into(), requests / batches.max(1.0));
            m.insert(
                "server.memo_hit_rate".into(),
                number(server.and_then(|s| s.get("response_memo")).and_then(|r| r.get("hit_rate"))),
            );
            let mut evictions = 0.0;
            for level in stats.get("levels").and_then(Value::as_array).unwrap_or(&[]) {
                let name = level.get("level").and_then(Value::as_str).unwrap_or("unknown");
                m.insert(format!("cache.{name}.hit_rate"), number(level.get("hit_rate")));
                evictions += number(level.get("evictions"));
            }
            m.insert("cache.evictions".into(), evictions);
            outcome.details.push(("final_stats".into(), stats));
        }
        Err(error) => outcome.problems.push(format!("final stats query failed: {error}")),
    }

    // Byte-identity of a seeded sample against a fresh in-process server.
    let reference = Server::new();
    let mut check_rng = Rng::new(seed ^ 0xC0FF_EE00);
    for _ in 0..CHECK_SAMPLE.min(log.lines.len()) {
        let i = check_rng.int(0, log.lines.len() - 1);
        let expected = reference.respond_line(&log.lines[i]);
        if expected != log.responses[i] {
            outcome.problems.push(format!(
                "query {i} `{}`: served `{}`, in-process `{expected}`",
                log.lines[i], log.responses[i]
            ));
        }
    }

    outcome.details.push((
        "errors".into(),
        Value::Object(errors.into_iter().map(|(k, v)| (k, Value::Number(v))).collect()),
    ));
    outcome.details.push((
        "phases".into(),
        Value::Array(
            phases
                .iter()
                .map(|(rate, range, fresh, grows, passed, backlog_end)| {
                    json::object([
                        ("offered_qps", Value::Number(*rate)),
                        ("queries", Value::Number(range.len() as f64)),
                        ("fresh_tail_ms", fresh.map_or(Value::Null, |t| Value::Number(t.tail))),
                        (
                            "fresh_tail_percentile",
                            fresh.map_or(Value::Null, |t| {
                                Value::Number(f64::from(t.tail_percentile))
                            }),
                        ),
                        (
                            "fresh_samples",
                            fresh.map_or(Value::Null, |t| Value::Number(t.samples as f64)),
                        ),
                        ("backlog_grows", Value::Bool(*grows)),
                        ("backlog_end", Value::Number(*backlog_end)),
                        ("passed", Value::Bool(*passed)),
                    ])
                })
                .collect(),
        ),
    ));
    outcome.details.push(("limit_ms".into(), Value::Number(mix.limit_ms)));
    outcome.details.push(("nominal_service_ms".into(), json::number_array(&service)));
    outcome.details.push(("setup_samples_s".into(), json::number_array(&setups)));
    outcome.details.push((
        "repeat_share".into(),
        Value::Number(repeats.iter().filter(|&&r| r).count() as f64 / repeats.len().max(1) as f64),
    ));

    if let Some(tracer) = tracer {
        let shift = tracer.seconds_at(origin);
        for i in 0..log.lines.len() {
            let query = Some(i as u64);
            let (due, sent, answered) = (log.due[i], log.sent[i], log.answered[i]);
            let id = tracer.record("loadgen.query", shift + due, shift + answered, None, query);
            tracer.record("server.roundtrip", shift + sent, shift + answered, Some(id), query);
        }
        let batch =
            outcome.metrics.get("server.batch_mean").copied().unwrap_or(1.0).round().max(1.0)
                as usize;
        replay(tracer, &log.lines[nominal], batch, seconds, &mut outcome);
    }
    Ok(outcome)
}

/// Replays served lines in process, in batches of the served mean batch size,
/// through a real [`Server`] and through the same public steps its
/// `respond_batch` takes, each step in its own span; stops after `budget`
/// seconds.  The step-by-step answers must match the server's byte for byte.
fn replay(tracer: &mut Tracer, lines: &[String], batch: usize, budget: f64, outcome: &mut Outcome) {
    let server = Server::new();
    let engine = Engine::new();
    let mut memo: std::collections::HashMap<u64, String> = Default::default();
    let started = Instant::now();
    let mut groups = Vec::new();
    let mut query = 0u64;
    for chunk in lines.chunks(batch) {
        if started.elapsed().as_secs_f64() > budget {
            break;
        }
        let (served, batch_span) =
            tracer.span("server.respond_batch", None, None, || server.respond_batch(chunk));
        let parent = Some(batch_span);
        let mut answers: Vec<Option<String>> = vec![None; chunk.len()];
        let mut pending: Vec<(usize, Query, Option<u64>)> = Vec::new();
        let first_query = query;
        query += chunk.len() as u64;
        for (index, line) in chunk.iter().enumerate() {
            let id = Some(first_query + index as u64);
            let (parsed, _) = tracer.span("engine.parse", parent, id, || Query::parse_line(line));
            let parsed = match parsed {
                Ok(parsed) => parsed,
                Err(error) => {
                    answers[index] = Some(urs_server::error_response(&error.to_string()));
                    continue;
                }
            };
            let (key, _) = tracer
                .span("engine.key", parent, id, || parsed.canonical_key().ok().map(|k| k.digest()));
            if let Some(hit) = key.and_then(|k| memo.get(&k)) {
                answers[index] = Some(hit.clone());
                continue;
            }
            pending.push((index, parsed, key));
        }
        let queries: Vec<Query> = pending.iter().map(|(_, q, _)| q.clone()).collect();
        let (plan, _) = tracer.span("engine.plan", parent, None, || engine::plan(&queries));
        groups.push(plan.groups().len() as f64);
        for (index, parsed, key) in pending {
            let id = Some(first_query + index as u64);
            let exec =
                tracer.open(&format!("engine.exec.{}", query_type(&chunk[index])), parent, id);
            let result = execute(tracer, &engine, &parsed, exec, id);
            tracer.close(exec);
            let answer = match result {
                Ok(result) => {
                    let (rendered, _) =
                        tracer.span("engine.render", parent, id, || result.to_json().serialise());
                    if let Some(key) = key {
                        memo.entry(key).or_insert_with(|| rendered.clone());
                    }
                    rendered
                }
                Err(error) => urs_server::error_response(&error.to_string()),
            };
            answers[index] = Some(answer);
        }
        for (served, answer) in served.iter().zip(&answers) {
            if answer.as_deref() != Some(served.as_str()) {
                outcome
                    .problems
                    .push(format!("traced replay diverged from the server: `{served}`"));
            }
        }
    }
    let by_name = tracer.self_times_by_name();
    let spans = tracer.spans();
    let mut durations: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for span in spans {
        durations.entry(span.name.as_str()).or_default().push(span.duration());
    }
    let med = |name: &str, scale: f64| durations.get(name).map(|d| median(d) * scale);
    let m = &mut outcome.metrics;
    for (metric, span, scale) in [
        ("engine.parse_us", "engine.parse", 1e6),
        ("engine.key_us", "engine.key", 1e6),
        ("engine.plan_us", "engine.plan", 1e6),
        ("engine.render_us", "engine.render", 1e6),
        ("response.transform_ms", "response.transform", 1e3),
        ("response.invert_ms", "response.invert", 1e3),
    ] {
        if let Some(value) = med(span, scale) {
            m.insert(metric.into(), value);
        }
    }
    if !groups.is_empty() {
        m.insert("engine.plan_groups".into(), groups.iter().sum::<f64>() / groups.len() as f64);
    }
    for kind in ["solve", "cost_sweep", "provisioning", "percentiles", "sla_sweep", "mix_search"] {
        let metric = format!("engine.exec_ms.{kind}");
        match med(&format!("engine.exec.{kind}"), 1e3) {
            Some(value) => {
                m.insert(metric, value);
            }
            // The replayed lines held no query of this type.
            None => outcome.unmeasured.push(metric),
        }
    }
    if let Some(own) = by_name.get("server.respond_batch") {
        m.insert("server.self_us".into(), median(own) * 1e6);
    }
}

/// [`Engine::execute`], except that a `percentiles` query runs the two public
/// steps the engine takes for it, the transform and its inversion, as child
/// spans of `exec`.
fn execute(
    tracer: &mut Tracer,
    engine: &Engine,
    query: &Query,
    exec: usize,
    id: Option<u64>,
) -> urs_core::Result<QueryResult> {
    let Query::Percentiles { config, fractions } = query else {
        return engine.execute(query);
    };
    let (analysis, _) = tracer.span("response.transform", Some(exec), id, || {
        ResponseAnalysis::with_cache(config, ResponseOptions::default(), engine.cache())
    });
    let analysis = analysis?;
    let (percentiles, _) = tracer
        .span("response.invert", Some(exec), id, || analysis.response_time_percentiles(fractions));
    Ok(QueryResult::Percentiles(PercentileReport {
        mean_response_time: analysis.mean_response_time(),
        fractions: fractions.clone(),
        percentiles: percentiles?,
    }))
}
