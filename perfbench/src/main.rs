//! `perfbench` — end-to-end and per-layer benchmark of the MP-STREAM
//! reproduction. See `perfbench/README.md` for the workloads, metrics and
//! rules; run it from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <reproduce|fpga-dse|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod checks;
mod host;
mod ledger;
mod offline;
mod replay;
mod round;
mod serve_load;
mod stats;

use mpstream_core::{Chart, Series};
use round::Round;
use stats::{median, percentile, quantile};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// The workloads.
const WORKLOADS: [&str; 3] = ["reproduce", "fpga-dse", "serve"];

/// End-to-end metrics every workload reports: name, unit.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("points_per_s", "points/s"),
    ("peak_rss_mb", "MiB"),
    ("paper_err_log2_p50", "log2"),
    ("paper_err_log2_p90", "log2"),
    ("result_ms_p50", "ms"),
    ("result_ms_p90", "ms"),
];

/// Per-layer metrics every traced run reports: name, unit. A layer a
/// workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 58] = [
    ("kernelgen.access.accesses", "count"),
    ("kernelgen.access.ns_per_access", "ns"),
    ("kernelgen.interp.launches", "count"),
    ("kernelgen.interp.ms", "ms"),
    ("kernelgen.interp.ns_per_byte", "ns/B"),
    ("mpcl.mem.ms", "ms"),
    ("mpcl.mem.bytes", "B"),
    ("mpcl.build.calls", "count"),
    ("mpcl.build.cache_hit_ratio", "ratio"),
    ("mpcl.build.ms", "ms"),
    ("mpcl.queue.launches", "count"),
    ("mpcl.queue.cold_launches", "count"),
    ("mpcl.queue.cold_ms_p50", "ms"),
    ("mpcl.queue.warm_us_p50", "us"),
    ("targets.cost.memo_hit_ratio", "ratio"),
    ("targets.cost.ms", "ms"),
    ("memsim.ns_per_access", "ns"),
    ("memsim.cache.lookups", "count"),
    ("memsim.cache.l1_hit_ratio", "ratio"),
    ("memsim.cache.llc_miss_ratio", "ratio"),
    ("memsim.tlb.walks", "count"),
    ("memsim.tlb.hit_ratio", "ratio"),
    ("memsim.prefetch.issued", "count"),
    ("memsim.prefetch.useful_ratio", "ratio"),
    ("memsim.dram.transactions", "count"),
    ("memsim.dram.row_hit_ratio", "ratio"),
    ("core.runner.point_ms_p50", "ms"),
    ("core.runner.point_ms_p90", "ms"),
    ("core.engine.busy_ratio", "ratio"),
    ("core.dse.evaluations", "count"),
    ("core.dse.strategy_ms", "ms"),
    ("core.dse.gap_pct", "%"),
    ("core.report.ms", "ms"),
    ("serve.http.submit_ms_p50", "ms"),
    ("serve.http.submit_ms_p90", "ms"),
    ("serve.http.status_ms_p50", "ms"),
    ("serve.http.status_ms_p90", "ms"),
    ("serve.http.results_ms_p50", "ms"),
    ("serve.http.results_ms_p90", "ms"),
    ("serve.stream.records", "count"),
    ("serve.stream.bytes", "B"),
    ("serve.stream.cpu_ms_per_job", "ms"),
    ("serve.jobs.runner_cpu_ms_per_job", "ms"),
    ("serve.jobs.queue_depth_mean", "jobs"),
    ("serve.jobs.job_s_p50", "s"),
    ("serve.jobs.job_s_p90", "s"),
    ("serve.jobs.first_record_ms_p50", "ms"),
    ("serve.jobs.first_record_ms_p90", "ms"),
    ("serve.jobs.api_ms_p50", "ms"),
    ("serve.jobs.api_ms_p90", "ms"),
    ("serve.store.result_lines_ms", "ms"),
    ("serve.store.checkpoint_kb", "KiB"),
    ("ledger.kernelgen_ms", "ms"),
    ("ledger.mpcl_ms", "ms"),
    ("ledger.targets_ms", "ms"),
    ("ledger.memsim_ms", "ms"),
    ("ledger.core_ms", "ms"),
    ("ledger.serve_ms", "ms"),
];

/// Extra per-layer rows: ledger remainder and tracing overhead.
const PER_LAYER_EXTRA: [(&str, &str); 2] =
    [("ledger.unattributed_ms", "ms"), ("trace.overhead_s", "s")];

/// A run never starts another round past this point, so it ends well
/// inside three minutes.
const MAX_RUN: Duration = Duration::from_secs(150);

const USAGE: &str =
    "usage: perfbench --workload <reproduce|fpga-dse|serve> --seed <n> --seconds <s> --trace <0|1>";

enum Cmd {
    Run {
        workload: String,
        seed: u64,
        seconds: u64,
        trace: bool,
    },
    /// One round in this (fresh) process; prints the round's lines.
    /// `deep` adds the checks that re-run work.
    Round {
        workload: String,
        seed: u64,
        deep: bool,
    },
}

fn parse(args: &[String]) -> Result<Cmd, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut round = false;
    let mut deep = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--round" => round = true,
            "--deep" => deep = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = seed.ok_or("--seed is required")?;
    if round {
        return Ok(Cmd::Round {
            workload,
            seed,
            deep,
        });
    }
    Ok(Cmd::Run {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Err(why) => {
            eprintln!("perfbench: {why}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Cmd::Round {
            workload,
            seed,
            deep,
        }) => {
            let mut r = Round::default();
            run_round(&workload, seed, deep, &mut r);
            print!("{}", r.to_lines());
            ExitCode::SUCCESS
        }
        Ok(Cmd::Run {
            workload,
            seed,
            seconds,
            trace,
        }) => {
            let result = if trace {
                traced_run(&workload, seed, seconds)
            } else {
                timed_run(&workload, seed, seconds)
            };
            match result {
                Ok(()) => ExitCode::SUCCESS,
                Err(why) => {
                    eprintln!("perfbench: {why}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}

fn run_round(workload: &str, seed: u64, deep: bool, r: &mut Round) {
    match workload {
        "reproduce" => drop(offline::reproduce(seed, deep, r)),
        "fpga-dse" => drop(offline::fpga_dse(seed, deep, r)),
        _ => serve_load::serve(seed, false, deep, r),
    }
}

/// Run one round in a fresh child process; returns it with its set-up
/// time (spawn to first timed operation).
fn child_round(workload: &str, seed: u64, deep: bool) -> Result<(Round, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let spawned = host::unix_ns();
    let mut cmd = Command::new(exe);
    cmd.args([
        "--round",
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
    ]);
    if deep {
        cmd.arg("--deep");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn round: {e}"))?;
    if !out.status.success() {
        return Err(format!("round exited with {}", out.status));
    }
    let round = Round::from_lines(&String::from_utf8_lossy(&out.stdout))?;
    let setup_s = round.first_op_unix_ns.saturating_sub(spawned) as f64 / 1e9;
    Ok((round, setup_s))
}

/// Output directory for digests and spans, inside the working directory.
fn out_dir() -> PathBuf {
    let dir = PathBuf::from(".perfbench-out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

fn host_line() -> String {
    format!("host nproc={} cpu={:?}", host::nproc(), host::cpu_model())
}

/// `name = value unit (detail)` lines, and the JSON metric object.
#[derive(Default)]
struct Report {
    text: String,
    json: Vec<(String, f64, String)>,
}

impl Report {
    fn line(&mut self, name: &str, value: f64, unit: &str, detail: &str) {
        let _ = writeln!(self.text, "metric {name} = {value:.6} {unit} ({detail})");
    }

    fn metric(&mut self, name: &str, value: f64, unit: &str, detail: &str) {
        self.line(name, value, unit, detail);
        self.json.push((name.to_string(), value, unit.to_string()));
    }

    fn json_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .json
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

fn pooled(rounds: &[Round], name: &str) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| r.samples.get(name).cloned().unwrap_or_default())
        .collect()
}

/// A timing percentile under the ten-beyond rule; a refusal is reported
/// and counts against the run.
fn timing(xs: &[f64], q: f64, name: &str, failures: &mut Vec<String>) -> f64 {
    match percentile(xs, q) {
        Ok(v) => v,
        Err(why) => {
            failures.push(format!("{name}: {why}"));
            0.0
        }
    }
}

fn timed_run(workload: &str, seed: u64, seconds: u64) -> Result<(), String> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut setups = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut longest = Duration::ZERO;
    let mut crashed = 0u64;
    loop {
        let t = Instant::now();
        match child_round(workload, seed, rounds.is_empty()) {
            Ok((r, setup)) => {
                setups.push(setup);
                rounds.push(r);
            }
            Err(why) => {
                crashed += 1;
                failures.push(format!("round {}: {why}", rounds.len() as u64 + crashed));
            }
        }
        longest = longest.max(t.elapsed());
        let elapsed = start.elapsed();
        if elapsed >= Duration::from_secs(seconds) || elapsed + longest > MAX_RUN {
            break;
        }
    }
    if rounds.is_empty() {
        return Err(failures.join("; "));
    }
    let first = &rounds[0];
    println!(
        "perfbench {workload} seed={seed} seconds={seconds} rounds={}",
        rounds.len()
    );
    println!("{}", host_line());

    // Same seed, same inputs: every round must measure identically.
    let mut attempted: u64 = rounds.iter().map(|r| r.attempted).sum::<u64>() + crashed + 1;
    let identical = rounds.iter().all(|r| r.digests == first.digests);
    if !identical {
        failures.push("digests differ between rounds".into());
    }
    for r in &rounds {
        for (op, why) in &r.failures {
            failures.push(format!("{op}: {why}"));
        }
    }
    let digest_file = out_dir().join(format!("digests-{workload}-seed{seed}.txt"));
    let mut listing = String::new();
    for (label, d) in &first.digests {
        let _ = writeln!(listing, "{d:016x} {label}");
    }
    let _ = std::fs::write(&digest_file, &listing);
    let combined = mpstream_core::engine::fnv1a(listing.as_bytes());
    println!(
        "digests: {} measurements, combined {combined:016x}, {} across {} rounds; listed in {}",
        first.digests.len(),
        if identical { "identical" } else { "DIFFERENT" },
        rounds.len(),
        digest_file.display()
    );

    let mut rep = Report::default();
    let n = rounds.len();
    let rates: Vec<f64> = rounds.iter().map(|r| r.points as f64 / r.wall_s).collect();
    for (i, (r, setup)) in rounds.iter().zip(&setups).enumerate() {
        let res = r.samples.get("result_ms").map_or(&[][..], |v| v);
        println!(
            "round {}: setup {:.6} s, wall {:.3} s, {:.3} points/s, peak RSS {:.1} MiB, result p50 {:.3} p90 {:.3} ms",
            i + 1,
            setup,
            r.wall_s,
            rates[i],
            r.peak_rss_mb,
            quantile(res, 0.5).unwrap_or(0.0),
            quantile(res, 0.9).unwrap_or(0.0)
        );
    }
    rep.metric(
        "setup_s",
        median(&setups).unwrap_or(0.0),
        "s",
        &format!("median of {n} rounds"),
    );
    rep.metric(
        "points_per_s",
        median(&rates).unwrap_or(0.0),
        "points/s",
        &format!("median of {n} rounds, {} points per round", first.points),
    );
    let rss: Vec<f64> = rounds.iter().map(|r| r.peak_rss_mb).collect();
    rep.metric(
        "peak_rss_mb",
        median(&rss).unwrap_or(0.0),
        "MiB",
        &format!("VmHWM, median of {n} rounds"),
    );
    let err = first
        .samples
        .get("paper_err_log2")
        .cloned()
        .unwrap_or_default();
    attempted += 1;
    if rounds
        .iter()
        .any(|r| r.samples.get("paper_err_log2") != first.samples.get("paper_err_log2"))
    {
        failures.push("paper error differs between rounds".into());
    }
    let detail = format!("{} published points, deterministic", err.len());
    rep.metric(
        "paper_err_log2_p50",
        quantile(&err, 0.5).unwrap_or(0.0),
        "log2",
        &detail,
    );
    rep.metric(
        "paper_err_log2_p90",
        quantile(&err, 0.9).unwrap_or(0.0),
        "log2",
        &detail,
    );
    // Latency percentiles per round, then the median over rounds, so one
    // round disturbed by the host cannot carry the tail.
    let per_round = |q: f64, failures: &mut Vec<String>| {
        let xs: Vec<f64> = rounds
            .iter()
            .map(|r| {
                timing(
                    r.samples.get("result_ms").map_or(&[][..], |v| v),
                    q,
                    "result_ms",
                    failures,
                )
            })
            .collect();
        median(&xs).unwrap_or(0.0)
    };
    let detail = format!(
        "median over {n} rounds of {} results each, from request to result",
        first.samples.get("result_ms").map_or(0, Vec::len)
    );
    rep.metric(
        "result_ms_p50",
        per_round(0.5, &mut failures),
        "ms",
        &detail,
    );
    rep.metric(
        "result_ms_p90",
        per_round(0.9, &mut failures),
        "ms",
        &detail,
    );

    // Workload-specific end-to-end figures, printed beside the gated ones.
    if let Some((gap, _)) = first.values.get("dse_gap_pct") {
        rep.line(
            "dse_gap_pct",
            *gap,
            "%",
            &format!("largest seeded-search gap to the grid optimum, seed {seed}"),
        );
    }
    if workload == "serve" {
        for (name, unit) in [("job_s", "s"), ("first_record_ms", "ms"), ("api_ms", "ms")] {
            let xs = pooled(&rounds, name);
            for q in [0.5, 0.9] {
                let label = format!("{name}_p{}", (q * 100.0) as u32);
                // Not gated, so a short run with too few jobs for the tail
                // says so instead of failing.
                match percentile(&xs, q) {
                    Ok(v) => rep.line(&label, v, unit, &format!("n={}, from due time", xs.len())),
                    Err(why) => {
                        let _ = writeln!(rep.text, "metric {label} refused: {why}");
                    }
                }
            }
        }
        let late = pooled(&rounds, "lateness_ms");
        let max = late.iter().copied().fold(0.0, f64::max);
        rep.line(
            "generator_lateness_ms_p90",
            quantile(&late, 0.9).unwrap_or(0.0),
            "ms",
            &format!(
                "n={}, max {max:.3} ms, bound {} ms",
                late.len(),
                serve_load::MAX_LATENESS_P90_MS
            ),
        );
    }
    print!("{}", rep.text);
    if workload == "serve" {
        print!(
            "{}",
            distribution_chart("job_s", &pooled(&rounds, "job_s"), "s")
        );
        print!(
            "{}",
            distribution_chart("first_record_ms", &pooled(&rounds, "first_record_ms"), "ms")
        );
    }
    let declared = rep.json.iter().map(|(n, _, u)| (n.as_str(), u.as_str()));
    if !declared.eq(END_TO_END.iter().copied()) {
        return Err("end-to-end metrics differ from the declared list".into());
    }
    let failed = failures.len() as u64;
    println!("checks: {attempted} attempted, {failed} failed");
    for f in &failures {
        println!("FAILED {f}");
    }
    println!("{}", rep.json_line(failed == 0, attempted, failed));
    Ok(())
}

/// Histogram of `xs` with p50 and p90 markers, rendered by `core::chart`.
fn distribution_chart(name: &str, xs: &[f64], unit: &str) -> String {
    let (Some(lo), Some(hi)) = (quantile(xs, 0.0), quantile(xs, 1.0)) else {
        return String::new();
    };
    const BINS: usize = 24;
    let w = ((hi - lo) / BINS as f64).max(f64::MIN_POSITIVE);
    let mut counts = [0u32; BINS];
    for x in xs {
        counts[(((x - lo) / w) as usize).min(BINS - 1)] += 1;
    }
    let bars: Vec<(f64, f64)> = counts
        .iter()
        .enumerate()
        .map(|(i, &c)| (lo + (i as f64 + 0.5) * w, c as f64))
        .collect();
    let top = counts.iter().copied().max().unwrap_or(1) as f64;
    let marker = |q: f64| {
        let x = quantile(xs, q).unwrap_or(lo);
        Series::new(
            format!("p{} = {x:.4} {unit}", (q * 100.0) as u32),
            vec![(x, 0.0), (x, top)],
        )
    };
    Chart::new(format!("{name} distribution (n={})", xs.len()))
        .size(60, 12)
        .x_label(unit)
        .y_label("count")
        .bar(Series::new("count", bars))
        .line(marker(0.5))
        .line(marker(0.9))
        .render()
}

/// Bar chart of self time by ledger row.
fn ledger_chart(workload: &str, rows: &[(String, f64)]) -> String {
    let legend: Vec<String> = rows
        .iter()
        .enumerate()
        .map(|(i, (l, _))| format!("{}={l}", i + 1))
        .collect();
    let points: Vec<(f64, f64)> = rows
        .iter()
        .enumerate()
        .map(|(i, (_, ms))| (i as f64 + 1.0, *ms))
        .collect();
    Chart::new(format!("{workload}: self time by layer (ms)"))
        .size(60, 12)
        .x_label(legend.join(" "))
        .y_label("ms")
        .bar(Series::new("self ms", points))
        .render()
}

fn write_spans(path: &Path, spans: &[replay::Span]) {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
            s.id,
            s.name,
            s.layer,
            s.start,
            s.end,
            s.parent.map_or("null".to_string(), |p| p.to_string())
        );
    }
    let _ = std::fs::write(path, out);
}

fn traced_run(workload: &str, seed: u64, seconds: u64) -> Result<(), String> {
    // The untraced reference round runs first, in its own fresh process,
    // so this process's memo is still cold for the traced replay.
    let (timed, _) = child_round(workload, seed, true)?;
    let mut round = Round::default();
    let mut values: Vec<(String, f64, String)> = Vec::new();
    let ledger_rows: Vec<(String, f64)>;
    let traced_wall;
    match workload {
        "serve" => {
            let start = Instant::now();
            let mut rounds = Vec::new();
            while rounds.len() < 3
                || (start.elapsed() < Duration::from_secs(seconds) && start.elapsed() < MAX_RUN / 2)
            {
                let mut r = Round::default();
                serve_load::serve(seed, true, false, &mut r);
                rounds.push(r);
            }
            let mut fails = Vec::new();
            for r in &rounds {
                round.attempted += r.attempted;
                for (op, why) in &r.failures {
                    round.fail(op.clone(), why.clone());
                }
            }
            let mut pct_of = |sample: &str, name: &str, q: f64| {
                let xs = pooled(&rounds, sample);
                let v = if q == 0.5 {
                    median(&xs).unwrap_or(0.0)
                } else {
                    timing(&xs, q, name, &mut fails)
                };
                values.push((name.to_string(), v, String::new()));
            };
            for route in ["submit", "status", "results"] {
                for q in [0.5, 0.9] {
                    pct_of(
                        &format!("http.{route}_ms"),
                        &format!("serve.http.{route}_ms_p{}", (q * 100.0) as u32),
                        q,
                    );
                }
            }
            for (sample, name) in [
                ("job_s", "job_s"),
                ("first_record_ms", "first_record_ms"),
                ("api_ms", "api_ms"),
            ] {
                for q in [0.5, 0.9] {
                    pct_of(
                        sample,
                        &format!("serve.jobs.{name}_p{}", (q * 100.0) as u32),
                        q,
                    );
                }
            }
            pct_of("store.result_lines_ms", "serve.store.result_lines_ms", 0.5);
            for f in fails {
                round.fail("percentile", f);
            }
            let mean_of = |name: &str| {
                let xs: Vec<f64> = rounds
                    .iter()
                    .filter_map(|r| r.values.get(name).map(|v| v.0))
                    .collect();
                xs.iter().sum::<f64>() / xs.len().max(1) as f64
            };
            for name in [
                "serve.stream.records",
                "serve.stream.bytes",
                "serve.stream.cpu_ms_per_job",
                "serve.jobs.runner_cpu_ms_per_job",
                "serve.jobs.queue_depth_mean",
                "serve.store.checkpoint_kb",
            ] {
                values.push((name.to_string(), mean_of(name), String::new()));
            }
            // CPU time by daemon layer, per round.
            let serve_ms = mean_of("cpu.serve.http") + mean_of("cpu.serve.stream");
            let core_ms = mean_of("cpu.core.jobs");
            let client_ms = mean_of("cpu.client");
            let process_ms = mean_of("cpu.process");
            values.push(("ledger.serve_ms".into(), serve_ms, String::new()));
            values.push(("ledger.core_ms".into(), core_ms, String::new()));
            let rest = (process_ms - serve_ms - core_ms - client_ms).max(0.0);
            values.push(("ledger.unattributed_ms".into(), rest, String::new()));
            ledger_rows = vec![
                ("serve (http, stream)".into(), serve_ms),
                ("core (job runner: engine and simulator)".into(), core_ms),
                ("benchmark client".into(), client_ms),
                ("unattributed".into(), rest),
            ];
            let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
            traced_wall = median(&walls).unwrap_or(0.0);
            ledger::reconcile(&timed.digests, &rounds[0].digests, &mut round);
            println!(
                "traced: {} in-process rounds; ledger is CPU time per round by daemon thread group, \
                 unattributed = process CPU minus the groups",
                rounds.len()
            );
        }
        _ => {
            let traced = if workload == "reproduce" {
                ledger::reproduce(&mut round)
            } else {
                ledger::fpga_dse(seed, &mut round)
            };
            ledger::reconcile(&timed.digests, &traced.digests, &mut round);
            values.extend(traced.metrics.iter().cloned());
            for (layer, ms) in &traced.ledger {
                if replay::LAYERS.contains(&layer.as_str()) {
                    values.push((format!("ledger.{layer}_ms"), *ms, String::new()));
                } else if layer == "unattributed" {
                    values.push(("ledger.unattributed_ms".into(), *ms, String::new()));
                }
            }
            ledger_rows = traced.ledger.clone();
            traced_wall = traced.wall_s;
            let spans_file = out_dir().join(format!("spans-{workload}-seed{seed}.jsonl"));
            write_spans(&spans_file, &traced.spans);
            println!(
                "traced: {} spans written to {}; replayed measurements reconciled with the timed run: {}",
                traced.spans.len(),
                spans_file.display(),
                if round.failures.keys().any(|k| k.starts_with("reconcile ") && k != "reconcile ledger") {
                    "NO"
                } else {
                    "yes"
                }
            );
        }
    }
    let overhead = traced_wall - timed.wall_s;
    values.push(("trace.overhead_s".into(), overhead, String::new()));
    println!("perfbench {workload} seed={seed} traced");
    println!("{}", host_line());
    println!(
        "tracing overhead: traced wall {traced_wall:.3} s - untraced wall {:.3} s = {overhead:.3} s",
        timed.wall_s
    );
    let total: f64 = ledger_rows.iter().map(|r| r.1).sum();
    if workload != "serve" {
        println!(
            "ledger (self time; layers must cover all but {:.0}% of replayed point time):",
            ledger::RECONCILE_SHARE * 100.0
        );
    }
    for (layer, ms) in &ledger_rows {
        println!(
            "  {layer:<40} {ms:>12.3} ms {:>6.1}%",
            100.0 * ms / total.max(1e-12)
        );
    }
    print!("{}", ledger_chart(workload, &ledger_rows));

    let mut rep = Report::default();
    for (name, unit) in PER_LAYER.iter().chain(&PER_LAYER_EXTRA) {
        let v = values.iter().find(|v| v.0 == *name).map_or(0.0, |v| v.1);
        rep.metric(name, v, unit, "traced");
    }
    print!("{}", rep.text);
    let failed = round.failures.len() as u64;
    let attempted = round.attempted.max(1);
    println!("checks: {attempted} attempted, {failed} failed");
    for (op, why) in &round.failures {
        println!("FAILED {op}: {why}");
    }
    // Only the per-layer metrics the benchmark declares go in the JSON.
    rep.json
        .retain(|(n, _, _)| PER_LAYER.iter().any(|p| p.0 == n));
    println!("{}", rep.json_line(failed == 0, attempted, failed));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .chain(&PER_LAYER_EXTRA)
            .map(|m| m.0)
            .collect();
        for n in &names {
            assert!(stats::valid_metric_name(n), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "names are unique");
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            text.matches("\"name\"").count(),
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
        );
        for w in WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse(&args("--workload serve --seed 3 --seconds 10 --trace 0")).is_ok());
        assert!(parse(&args("--workload serve --seed 3 --seconds 10 --trace 2")).is_err());
        assert!(parse(&args("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse(&args("--workload serve --seconds 10 --trace 0")).is_err());
    }
}
