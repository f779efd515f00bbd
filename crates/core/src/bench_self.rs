//! `mpstream bench-self`: the simulator's own throughput microbenchmark.
//!
//! Runs a fixed set of representative sweep slices twice — once on the
//! default fast path and once with the reference slow path forced
//! ([`memsim::slowpath::force`], the same oracle `MPSTREAM_SIM_SLOW=1`
//! selects) — and reports points/second for each, plus the speedup.
//! Because both runs render their reports through the same code, the
//! bench doubles as an end-to-end equivalence check: it *fails* if the
//! fast and slow reports are not byte-identical.
//!
//! Results are written as flat JSON lines (the workspace's
//! [`crate::json`] dialect): one object per slice plus one `overall`
//! object. `--check <baseline>` compares the measured fast-path
//! points/second of each slice against a previously recorded file and
//! errors when any slice regressed by more than
//! [`REGRESSION_TOLERANCE`] — the CI gate against accidentally
//! de-optimizing the simulator.
//!
//! Timing uses wall-clock [`Instant`], so absolute numbers vary across
//! machines; the committed baseline is refreshed whenever the bench
//! runs on a machine class different from the recorded one. The
//! `speedup` column is a ratio of two runs on the same machine and is
//! therefore comparable anywhere.

use crate::cli::{
    render_dse_report, render_sweep_report, run_dse, run_sweep, CliMode, CliRequest, DseStrategy,
};
use crate::json::{parse_flat_object, JsonLine};
use crate::report::Table;
use kernelgen::StreamOp;
use std::path::PathBuf;
use std::time::Instant;
use targets::TargetId;

/// A slice may lose this fraction of its baseline points/second before
/// `--check` fails. Shared CI runners show up to ~2x wall-clock noise
/// between runs, so the gate is deliberately loose: it exists to catch
/// the fast path being disabled or de-optimized wholesale (a 10-40x
/// drop), which clears this margin by an order of magnitude.
pub const REGRESSION_TOLERANCE: f64 = 0.50;

/// One benchmark slice: a named sweep or search request.
#[derive(Debug, Clone)]
pub struct Slice {
    /// Stable identifier (the `--check` join key).
    pub name: &'static str,
    /// The request the slice executes.
    pub req: CliRequest,
}

/// Measured outcome of one slice.
#[derive(Debug, Clone)]
pub struct SliceResult {
    /// Slice identifier.
    pub name: String,
    /// Configurations evaluated per run.
    pub points: usize,
    /// Fast-path wall time, milliseconds.
    pub fast_ms: f64,
    /// Slow-path (reference oracle) wall time, milliseconds.
    pub slow_ms: f64,
}

impl SliceResult {
    /// Fast-path throughput, points per second.
    pub fn fast_pps(&self) -> f64 {
        self.points as f64 / (self.fast_ms / 1e3)
    }

    /// Slow-path throughput, points per second.
    pub fn slow_pps(&self) -> f64 {
        self.points as f64 / (self.slow_ms / 1e3)
    }

    /// Slow-to-fast speedup.
    pub fn speedup(&self) -> f64 {
        self.slow_ms / self.fast_ms
    }
}

/// The standard slice set: the 90-point quick search plus two sweeps
/// chosen so every engine path is exercised — the cacheless FPGA LSU
/// path, the full CPU cache+TLB+prefetch stack on a hostile pattern,
/// and the GPU coalescer. Validation is off (it is identical work on
/// both paths and would only dilute the simulator measurement); the
/// repetition count is STREAM's reference `NTIMES=10` — each point is
/// one warm-up plus ten timed launches, exactly the protocol a
/// paper-grade sweep runs, which is what the fast path's launch
/// memoization exists to collapse.
pub fn standard_slices() -> Vec<Slice> {
    let base = CliRequest {
        no_validate: true,
        jobs: Some(1),
        ntimes: 10,
        ..CliRequest::default()
    };
    vec![
        Slice {
            name: "dse-aocl-90",
            req: CliRequest {
                mode: CliMode::Dse,
                target: TargetId::FpgaAocl,
                ops: vec![StreamOp::Copy, StreamOp::Triad],
                widths: vec![1, 2, 4, 8, 16],
                unrolls: vec![1, 2, 4],
                strategy: DseStrategy::Grid,
                size_bytes: 64 << 10,
                ..base.clone()
            },
        },
        Slice {
            name: "sweep-cpu-colmajor-16",
            req: CliRequest {
                mode: CliMode::Sweep,
                target: TargetId::Cpu,
                ops: StreamOp::ALL.to_vec(),
                widths: vec![1, 4, 8, 16],
                unrolls: vec![1],
                pattern: kernelgen::AccessPattern::ColMajor { cols: None },
                size_bytes: 1 << 20,
                ..base.clone()
            },
        },
        Slice {
            name: "sweep-gpu-16",
            req: CliRequest {
                mode: CliMode::Sweep,
                target: TargetId::Gpu,
                ops: StreamOp::ALL.to_vec(),
                widths: vec![1, 2, 4, 8],
                unrolls: vec![1],
                size_bytes: 256 << 10,
                ..base.clone()
            },
        },
        // The HPCC scatter kernel: random accesses defeat the row-buffer
        // and TLB models' fast assumptions, so this slice times the
        // simulator on its least regular address stream.
        Slice {
            name: "sweep-cpu-gups-3",
            req: CliRequest {
                mode: CliMode::Sweep,
                target: TargetId::Cpu,
                ops: vec![StreamOp::RandomAccess],
                widths: vec![1],
                unrolls: vec![1, 2, 4],
                size_bytes: 1 << 20,
                ..base
            },
        },
    ]
}

/// Execute one slice's request on a fresh single-purpose engine and
/// return `(points, report)`.
fn run_once(req: &CliRequest) -> (usize, String) {
    let engine = crate::cli::build_engine(req, None);
    match req.mode {
        CliMode::Dse => {
            let result = run_dse(&engine, req, None);
            (result.evaluations(), render_dse_report(req, &result))
        }
        _ => {
            let result = run_sweep(&engine, req, None);
            (result.points.len(), render_sweep_report(req, &result))
        }
    }
}

/// Run `slices` on both paths and measure. The fast run goes first so
/// any cache-warmth advantage falls to the slow path (conservative
/// speedups). Returns an error if any slice's fast and slow reports
/// differ — the paths must be byte-identical.
pub fn bench(slices: &[Slice]) -> Result<Vec<SliceResult>, String> {
    let was_slow = memsim::slowpath::slow();
    let mut results = Vec::with_capacity(slices.len());
    for s in slices {
        memsim::slowpath::force(false);
        let t0 = Instant::now();
        let (points, fast_report) = run_once(&s.req);
        let fast_ms = t0.elapsed().as_secs_f64() * 1e3;

        memsim::slowpath::force(true);
        let t0 = Instant::now();
        let (_, slow_report) = run_once(&s.req);
        let slow_ms = t0.elapsed().as_secs_f64() * 1e3;
        memsim::slowpath::force(was_slow);

        if fast_report != slow_report {
            return Err(format!(
                "slice '{}': fast and slow reports differ — the fast path broke equivalence",
                s.name
            ));
        }
        results.push(SliceResult {
            name: s.name.to_string(),
            points,
            fast_ms,
            slow_ms,
        });
    }
    Ok(results)
}

/// Render the results as flat JSON lines: one object per slice and a
/// final `overall` object (total points, aggregate throughputs, and the
/// minimum per-slice speedup — the conservative headline number).
pub fn to_json_lines(results: &[SliceResult]) -> String {
    let mut out = String::new();
    let mut total_points = 0usize;
    let mut total_fast_ms = 0.0;
    let mut total_slow_ms = 0.0;
    let mut min_speedup = f64::INFINITY;
    for r in results {
        let mut line = JsonLine::new();
        line.str_field("slice", &r.name)
            .u64_field("points", r.points as u64)
            .raw_field("fast_ms", &format!("{:.3}", r.fast_ms))
            .raw_field("slow_ms", &format!("{:.3}", r.slow_ms))
            .raw_field("fast_pps", &format!("{:.1}", r.fast_pps()))
            .raw_field("slow_pps", &format!("{:.1}", r.slow_pps()))
            .raw_field("speedup", &format!("{:.2}", r.speedup()));
        out.push_str(&line.finish());
        out.push('\n');
        total_points += r.points;
        total_fast_ms += r.fast_ms;
        total_slow_ms += r.slow_ms;
        min_speedup = min_speedup.min(r.speedup());
    }
    let mut line = JsonLine::new();
    line.str_field("slice", "overall")
        .u64_field("points", total_points as u64)
        .raw_field(
            "fast_pps",
            &format!("{:.1}", total_points as f64 / (total_fast_ms / 1e3)),
        )
        .raw_field(
            "slow_pps",
            &format!("{:.1}", total_points as f64 / (total_slow_ms / 1e3)),
        )
        .raw_field("speedup", &format!("{:.2}", total_slow_ms / total_fast_ms))
        .raw_field(
            "min_slice_speedup",
            &format!(
                "{:.2}",
                if min_speedup.is_finite() {
                    min_speedup
                } else {
                    0.0
                }
            ),
        );
    out.push_str(&line.finish());
    out.push('\n');
    out
}

/// Render the results as the human table the subcommand prints.
pub fn render_table(results: &[SliceResult]) -> String {
    let mut t = Table::new(&[
        "slice",
        "points",
        "fast ms",
        "slow ms",
        "fast pts/s",
        "slow pts/s",
        "speedup",
    ]);
    for r in results {
        t.row(&[
            r.name.clone(),
            r.points.to_string(),
            format!("{:.1}", r.fast_ms),
            format!("{:.1}", r.slow_ms),
            format!("{:.0}", r.fast_pps()),
            format!("{:.0}", r.slow_pps()),
            format!("{:.2}x", r.speedup()),
        ]);
    }
    t.to_text()
}

/// Parse a baseline file (the format [`to_json_lines`] writes) into
/// `(slice, fast_pps)` pairs. Unparseable lines and the `overall`
/// record are skipped.
pub fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter_map(|l| {
            let obj = parse_flat_object(l)?;
            let name = obj.get("slice")?.as_str()?.to_string();
            if name == "overall" {
                return None;
            }
            Some((name, obj.get("fast_pps")?.as_f64()?))
        })
        .collect()
}

/// Parse any committed `BENCH_*.json` trajectory file into labelled
/// metric points. Every dialect this repo writes is handled:
/// `bench-self` lines (`slice` + `fast_pps`, the `overall` record
/// skipped) and the CI smoke-job lines (`benchmark` [+
/// `target`/`strategy`] + `points_per_sec` or `best_gbps`). Lines
/// carrying no known metric field are skipped, so mixed or partially
/// corrupt files degrade instead of erroring.
pub fn parse_trajectory(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter_map(|l| {
            let obj = parse_flat_object(l)?;
            if let Some(name) = obj.get("slice").and_then(|v| v.as_str()) {
                if name == "overall" {
                    return None;
                }
                return Some((name.to_string(), obj.get("fast_pps")?.as_f64()?));
            }
            let mut label = obj.get("benchmark")?.as_str()?.to_string();
            for qualifier in ["target", "strategy"] {
                if let Some(q) = obj.get(qualifier).and_then(|v| v.as_str()) {
                    label.push('/');
                    label.push_str(q);
                }
            }
            let metric = ["points_per_sec", "best_gbps"]
                .iter()
                .find_map(|k| obj.get(*k)?.as_f64())?;
            Some((label, metric))
        })
        .collect()
}

/// Render labelled metric points as a sparkline headline plus an
/// aligned table — the compact form CI logs show so a perf trajectory
/// is readable at a glance. `value_label` names the metric column
/// (e.g. `points/s`, `GB/s`). Deterministic for a given input: no
/// wall-clock, no environment.
pub fn render_trend(title: &str, value_label: &str, entries: &[(String, f64)]) -> String {
    if entries.is_empty() {
        return format!("{title}: (no data)\n");
    }
    let values: Vec<f64> = entries.iter().map(|(_, v)| *v).collect();
    let mut t = Table::new(&["entry", value_label]);
    for (name, v) in entries {
        t.row(&[name.clone(), format!("{v:.1}")]);
    }
    format!(
        "{title}  [{}]\n{}",
        crate::chart::sparkline(&values),
        t.to_text()
    )
}

/// Compare measured results against a baseline: every baseline slice
/// that was measured must retain at least `1 - REGRESSION_TOLERANCE` of
/// its recorded fast-path throughput. Returns the verdict lines, or an
/// error listing every regressed slice.
pub fn check_against(
    results: &[SliceResult],
    baseline: &[(String, f64)],
) -> Result<String, String> {
    let mut out = String::new();
    let mut regressions = Vec::new();
    for (name, base_pps) in baseline {
        let Some(r) = results.iter().find(|r| &r.name == name) else {
            out.push_str(&format!("{name}: not measured (skipped)\n"));
            continue;
        };
        let ratio = r.fast_pps() / base_pps;
        let verdict = if ratio >= 1.0 - REGRESSION_TOLERANCE {
            "ok"
        } else {
            regressions.push(format!(
                "{name}: {:.0} pts/s vs baseline {base_pps:.0} ({:.0}% of baseline)",
                r.fast_pps(),
                ratio * 100.0
            ));
            "REGRESSED"
        };
        out.push_str(&format!(
            "{name}: {:.0} pts/s vs baseline {base_pps:.0} -> {verdict}\n",
            r.fast_pps()
        ));
    }
    if regressions.is_empty() {
        Ok(out)
    } else {
        Err(format!(
            "fast-path throughput regressed more than {:.0}%:\n{}",
            REGRESSION_TOLERANCE * 100.0,
            regressions.join("\n")
        ))
    }
}

/// Options of the `bench-self` subcommand.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchSelfOpts {
    /// Write the JSON-lines results here.
    pub out: Option<PathBuf>,
    /// Compare against this baseline file and fail on regression.
    pub check: Option<PathBuf>,
}

/// Usage text of the subcommand; the `--check` threshold is
/// [`REGRESSION_TOLERANCE`].
pub fn bench_self_usage() -> String {
    format!(
        "\
usage: mpstream bench-self [options]
  Benchmark the simulator itself: run representative sweep slices on the
  fast path and the reference slow path, report points/second and the
  speedup, and verify both produce byte-identical reports.
  --out <file>     write results as JSON lines (the BENCH_sim.json format)
  --check <file>   compare fast-path points/sec against a recorded
                   baseline; exit nonzero if any slice lost more than {:.0}%
  --help           this text",
        REGRESSION_TOLERANCE * 100.0
    )
}

/// Parse `bench-self` arguments (without the subcommand itself).
/// `Ok(None)` means `--help`.
pub fn parse_bench_self_args(args: &[String]) -> Result<Option<BenchSelfOpts>, String> {
    let mut opts = BenchSelfOpts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--out" => {
                let v = it.next().ok_or("--out needs a value")?;
                opts.out = Some(PathBuf::from(v));
            }
            "--check" => {
                let v = it.next().ok_or("--check needs a value")?;
                opts.check = Some(PathBuf::from(v));
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Some(opts))
}

/// Execute the subcommand: bench the standard slices, write/compare as
/// requested, and return the report text.
pub fn run_bench_self(opts: &BenchSelfOpts) -> Result<String, String> {
    let results = bench(&standard_slices())?;
    let mut out = render_table(&results);
    if let Some(path) = &opts.out {
        std::fs::write(path, to_json_lines(&results))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        out.push_str(&format!("\nwrote {}\n", path.display()));
    }
    if let Some(path) = &opts.check {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("baseline {}: {e}", path.display()))?;
        out.push('\n');
        out.push_str(&render_trend(
            "baseline trajectory (fast path)",
            "points/s",
            &parse_trajectory(&text),
        ));
        out.push('\n');
        out.push_str(&check_against(&results, &parse_baseline(&text))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_slice() -> Slice {
        Slice {
            name: "tiny",
            req: CliRequest {
                mode: CliMode::Sweep,
                target: TargetId::Cpu,
                ops: vec![StreamOp::Copy],
                widths: vec![1, 4],
                unrolls: vec![1],
                size_bytes: 64 << 10,
                ntimes: 1,
                no_validate: true,
                jobs: Some(1),
                ..CliRequest::default()
            },
        }
    }

    #[test]
    fn parses_flags_and_rejects_garbage() {
        let opts = parse_bench_self_args(&["--out".into(), "b.json".into()])
            .unwrap()
            .unwrap();
        assert_eq!(opts.out, Some(PathBuf::from("b.json")));
        assert!(parse_bench_self_args(&["--help".into()]).unwrap().is_none());
        assert!(parse_bench_self_args(&["--out".into()]).is_err());
        assert!(parse_bench_self_args(&["--bogus".into()]).is_err());
        assert!(bench_self_usage().contains("lost more than 50%"));
    }

    #[test]
    fn bench_measures_and_serializes_round_trip() {
        let results = bench(&[tiny_slice()]).expect("paths byte-identical");
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].points, 2);
        assert!(results[0].fast_ms > 0.0 && results[0].slow_ms > 0.0);

        let json = to_json_lines(&results);
        assert!(json.lines().count() == 2, "{json}");
        let baseline = parse_baseline(&json);
        assert_eq!(baseline.len(), 1);
        assert_eq!(baseline[0].0, "tiny");
        assert!((baseline[0].1 - results[0].fast_pps()).abs() / baseline[0].1 < 0.01);
    }

    #[test]
    fn check_flags_regressions_and_accepts_noise() {
        let r = SliceResult {
            name: "tiny".into(),
            points: 100,
            fast_ms: 100.0, // 1000 pts/s
            slow_ms: 400.0,
        };
        // Within tolerance: baseline 1200 pts/s, measured 1000 = 83%.
        check_against(std::slice::from_ref(&r), &[("tiny".into(), 1200.0)])
            .expect("within tolerance");
        // Beyond tolerance: baseline 2500 pts/s, measured 1000 = 40%.
        let err = check_against(std::slice::from_ref(&r), &[("tiny".into(), 2500.0)]).unwrap_err();
        assert!(err.contains("regressed"), "{err}");
        // Unknown baseline slices are reported, not fatal.
        let ok = check_against(&[r], &[("other".into(), 9e9)]).unwrap();
        assert!(ok.contains("not measured"), "{ok}");
    }

    #[test]
    fn trajectory_parser_reads_both_bench_dialects() {
        let text = "\
{\"slice\":\"tiny\",\"points\":2,\"fast_pps\":1500.0}\n\
{\"slice\":\"overall\",\"points\":2,\"fast_pps\":1500.0}\n\
{\"benchmark\":\"cluster_sweep\",\"points\":8,\"points_per_sec\":42.5}\n\
{\"benchmark\":\"dse_quick\",\"target\":\"fpga-aocl\",\"strategy\":\"genetic\",\"points\":30,\"best_gbps\":12.0}\n\
not json at all\n\
{\"benchmark\":\"no_throughput_field\",\"points\":1}\n";
        let entries = parse_trajectory(text);
        assert_eq!(
            entries,
            vec![
                ("tiny".to_string(), 1500.0),
                ("cluster_sweep".to_string(), 42.5),
                ("dse_quick/fpga-aocl/genetic".to_string(), 12.0),
            ]
        );
    }

    #[test]
    fn trend_rendering_is_deterministic_and_handles_empty() {
        assert_eq!(render_trend("t", "points/s", &[]), "t: (no data)\n");
        let entries = vec![
            ("a".to_string(), 100.0),
            ("b".to_string(), 400.0),
            ("c".to_string(), 250.0),
        ];
        let a = render_trend("trajectory", "points/s", &entries);
        assert_eq!(a, render_trend("trajectory", "points/s", &entries));
        assert!(a.starts_with("trajectory  ["), "{a}");
        assert!(a.contains("entry"), "{a}");
        assert!(a.contains("400"), "{a}");
    }

    #[test]
    fn standard_slices_cover_the_quick_search() {
        let slices = standard_slices();
        assert!(slices.iter().any(|s| s.name == "dse-aocl-90"));
        // The GUPS slice keeps the irregular-stream path in the bench.
        let gups = slices
            .iter()
            .find(|s| s.name == "sweep-cpu-gups-3")
            .expect("gups slice present");
        assert_eq!(gups.req.ops, vec![StreamOp::RandomAccess]);
        for s in &slices {
            assert!(
                s.req.no_validate,
                "{}: validation dilutes the bench",
                s.name
            );
            assert_eq!(s.req.jobs, Some(1), "{}: single-worker timing", s.name);
        }
    }
}
