//! The offline workloads, `reproduce` and `fpga-dse`, and their checks.
//!
//! Both drive the engine exactly as the figure harness and `mpstream dse`
//! do: the same work lists, the same protocols, two workers. The engine is
//! driven through `Engine::run_list_observed` rather than through
//! `experiments::run_figure` / `cli::run_dse`, because only the observed
//! form exposes each point's completion time and `Measurement`. After the
//! timed region every round checks that these work lists still produce
//! byte-identical figures and DSE reports through the public entry points.

use crate::checks;
use crate::host;
use crate::round::Round;
use kernelgen::{AoclOpts, KernelConfig, LoopMode, StreamOp, VectorWidth, VendorOpts};
use mpcl::ClError;
use mpstream_core::bandwidth::{fig1_sizes, fig2_sizes, gbps_to_kbps};
use mpstream_core::cli::{self, CliMode, CliRequest, DseStrategy};
use mpstream_core::dse::{DseResult, Strategy};
use mpstream_core::experiments::{optimal_loop, run_figure, FigureId, RunOpts, PLATEAU_BYTES};
use mpstream_core::report::{ascii_loglog, config_label};
use mpstream_core::{paperdata, BenchConfig, Engine, Outcome, Runner, Series};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;
use targets::TargetId;

/// Engine workers for every offline workload (the box has two cores).
pub const JOBS: usize = 2;

/// Where one point lands in a paper figure.
#[derive(Debug, Clone)]
pub struct Tag {
    /// The figure panel.
    pub figure: FigureId,
    /// Series label, as `experiments` names it.
    pub series: String,
    /// The x coordinate `experiments` plots.
    pub x: f64,
    /// Plotted in KB/s rather than GB/s (Fig. 3 and 4a).
    pub kbps: bool,
    /// Position along the series' sweep, which indexes `paperdata`.
    pub idx: usize,
}

/// One engine batch: a work list on one target, run to completion before
/// the next batch starts (the figure harness's order).
#[derive(Debug, Clone)]
pub struct Batch {
    /// Figure or request name.
    pub label: String,
    /// Target every item runs on.
    pub target: TargetId,
    /// The configurations, with their measurement protocol.
    pub work: Vec<BenchConfig>,
    /// Figure placement per item (`None` for the HPCC runs).
    pub tags: Vec<Option<Tag>>,
}

impl Batch {
    /// Stable label of item `i`, used in digests and failure reports.
    pub fn point_label(&self, i: usize) -> String {
        format!(
            "{} {} {}",
            self.label,
            self.target.label(),
            config_label(&self.work[i].kernel)
        )
    }
}

/// The baseline COPY kernel at `bytes` per array with the target's
/// optimal loop form, as the figures build it.
pub fn copy_kernel(target: TargetId, bytes: u64) -> KernelConfig {
    let mut k = KernelConfig::baseline(StreamOp::Copy, bytes / 4);
    k.loop_mode = optimal_loop(target);
    k
}

fn width(n: u32) -> VectorWidth {
    VectorWidth::new(n).expect("paper widths are legal")
}

/// The `reproduce` work: the six figures at full fidelity (as
/// `experiments::fig*` build them), then GUPS, PTRANS and DGEMM-lite on
/// CPU and GPU at 1 MiB (validated) and 256 MiB (unvalidated).
pub fn reproduce_batches() -> Vec<Batch> {
    let mut out = Vec::new();
    let mut push = |label: &str, target, items: Vec<(KernelConfig, Tag)>| {
        let (ks, tags): (Vec<_>, Vec<_>) = items.into_iter().unzip();
        out.push(Batch {
            label: label.to_string(),
            target,
            work: ks
                .into_iter()
                .map(|k| BenchConfig::new(k).with_ntimes(3))
                .collect(),
            tags: tags.into_iter().map(Some).collect(),
        });
    };
    let tag = |figure, series: &str, x: f64, kbps, idx| Tag {
        figure,
        series: series.to_string(),
        x,
        kbps,
        idx,
    };
    for t in TargetId::ALL {
        let items = fig1_sizes()
            .into_iter()
            .enumerate()
            .map(|(i, b)| {
                (
                    copy_kernel(t, b),
                    tag(FigureId::Fig1a, t.label(), b as f64 / 1e6, false, i),
                )
            })
            .collect();
        push("fig1a", t, items);
    }
    for t in TargetId::ALL {
        let items = [1u32, 2, 4, 8, 16]
            .into_iter()
            .enumerate()
            .map(|(i, w)| {
                let mut k = copy_kernel(t, PLATEAU_BYTES);
                k.vector_width = width(w);
                (k, tag(FigureId::Fig1b, t.label(), w as f64, false, i))
            })
            .collect();
        push("fig1b", t, items);
    }
    for (pattern, suffix) in [
        (kernelgen::AccessPattern::Contiguous, "contig"),
        (kernelgen::AccessPattern::ColMajor { cols: None }, "strided"),
    ] {
        for t in TargetId::ALL {
            let sizes = if t.is_fpga() {
                fig1_sizes()
            } else {
                fig2_sizes()
            };
            let series = format!("{}-{suffix}", t.label());
            let items = sizes
                .into_iter()
                .enumerate()
                .map(|(i, b)| {
                    let mut k = copy_kernel(t, b);
                    k.pattern = pattern;
                    (k, tag(FigureId::Fig2, &series, b as f64 / 1e6, false, i))
                })
                .collect();
            push("fig2", t, items);
        }
    }
    for (ti, t) in TargetId::ALL.into_iter().enumerate() {
        let items = LoopMode::ALL
            .into_iter()
            .map(|mode| {
                let mut k = copy_kernel(t, PLATEAU_BYTES);
                k.loop_mode = mode;
                (
                    k,
                    tag(FigureId::Fig3, mode.label(), ti as f64 + 1.0, true, ti),
                )
            })
            .collect();
        push("fig3", t, items);
    }
    for (ti, t) in TargetId::ALL.into_iter().enumerate() {
        let items = StreamOp::ALL
            .into_iter()
            .map(|op| {
                let mut k = copy_kernel(t, PLATEAU_BYTES);
                k.op = op;
                (
                    k,
                    tag(FigureId::Fig4a, op.name(), ti as f64 + 1.0, true, ti),
                )
            })
            .collect();
        push("fig4a", t, items);
    }
    let aocl = TargetId::FpgaAocl;
    let mut items = Vec::new();
    for (i, n) in [1u32, 2, 4, 8, 16].into_iter().enumerate() {
        let mut k = copy_kernel(aocl, PLATEAU_BYTES);
        k.vector_width = width(n);
        items.push((k, tag(FigureId::Fig4b, "vector-size", n as f64, false, i)));
        let mut k = copy_kernel(aocl, PLATEAU_BYTES);
        k.loop_mode = LoopMode::NdRange;
        k.reqd_work_group_size = true;
        k.vendor = VendorOpts::Aocl(AoclOpts {
            num_simd_work_items: n,
            num_compute_units: 1,
        });
        items.push((
            k,
            tag(FigureId::Fig4b, "num-simd-work-items", n as f64, false, i),
        ));
        let mut k = copy_kernel(aocl, PLATEAU_BYTES);
        k.vendor = VendorOpts::Aocl(AoclOpts {
            num_simd_work_items: 1,
            num_compute_units: n,
        });
        items.push((
            k,
            tag(FigureId::Fig4b, "num-compute-units", n as f64, false, i),
        ));
    }
    push("fig4b", aocl, items);

    for t in [TargetId::Cpu, TargetId::Gpu] {
        let mut work = Vec::new();
        for size_bytes in [1u64 << 20, 256 << 20] {
            let req = CliRequest {
                target: t,
                size_bytes,
                ops: StreamOp::HPCC.to_vec(),
                ..CliRequest::default()
            };
            for op in StreamOp::HPCC {
                let k = cli::kernel_config(&req, op).expect("HPCC defaults are legal");
                work.push(cli::bench_protocol(&req, k));
            }
        }
        let tags = vec![None; work.len()];
        out.push(Batch {
            label: "hpcc".into(),
            target: t,
            work,
            tags,
        });
    }
    out
}

/// One batch with its outcomes.
pub struct BatchRun {
    /// The batch.
    pub batch: Batch,
    /// Outcomes in input order.
    pub outcomes: Vec<Outcome>,
}

/// Is this outcome a finished point: measured, or rejected by the
/// synthesis model (a modelled result, not a failure)?
pub fn finished(o: &Outcome) -> bool {
    matches!(o.result, Ok(_) | Err(ClError::BuildProgramFailure(_)))
}

/// Run `batches` in order with `eval`, on one engine per figure as
/// `experiments` builds them (its build cache is shared by the figure's
/// batches).
pub fn run_batches(
    batches: Vec<Batch>,
    mut eval: impl FnMut(&Engine, &Batch) -> Vec<Outcome>,
) -> Vec<BatchRun> {
    let mut runs: Vec<BatchRun> = Vec::with_capacity(batches.len());
    let mut engine = Engine::with_jobs(JOBS);
    for batch in batches {
        if runs.last().is_some_and(|r| r.batch.label != batch.label) {
            engine = Engine::with_jobs(JOBS);
        }
        let outcomes = eval(&engine, &batch);
        runs.push(BatchRun { batch, outcomes });
    }
    runs
}

/// Evaluate `work` on the engine's pool, recording each point's result
/// latency (from the batch's submission) into `round`.
fn run_timed(
    engine: &Engine,
    target: TargetId,
    work: &[BenchConfig],
    round: &mut Round,
) -> Vec<Outcome> {
    let latencies = Mutex::new(Vec::with_capacity(work.len()));
    let due = Instant::now();
    let outcomes = engine.run_list_observed(
        || Runner::for_target(target),
        work,
        |_| {
            let ms = due.elapsed().as_secs_f64() * 1e3;
            latencies.lock().expect("latency lock").push(ms);
        },
    );
    for ms in latencies.into_inner().expect("latency lock") {
        round.sample("result_ms", ms);
    }
    outcomes
}

/// Regroup batch outcomes into figure series, exactly as `experiments`
/// lays them out (series in first-appearance order, points in run order).
pub fn assemble_figures(runs: &[BatchRun]) -> Vec<(FigureId, Vec<Series>)> {
    let mut figs: Vec<(FigureId, Vec<Series>)> = Vec::new();
    for run in runs {
        for (o, tag) in run.outcomes.iter().zip(&run.batch.tags) {
            let Some(tag) = tag else { continue };
            if figs.last().map(|f| f.0) != Some(tag.figure) {
                figs.push((tag.figure, Vec::new()));
            }
            let series = &mut figs.last_mut().expect("pushed").1;
            let pos = match series.iter().position(|s| s.label == tag.series) {
                Some(p) => p,
                None => {
                    series.push(Series::new(tag.series.clone(), Vec::new()));
                    series.len() - 1
                }
            };
            if let Ok(m) = &o.result {
                let y = if tag.kbps {
                    gbps_to_kbps(m.gbps())
                } else {
                    m.gbps()
                };
                series[pos].points.push((tag.x, y));
            }
        }
    }
    figs
}

/// The paper's published values for one figure series, if it has any.
fn published(figure: FigureId, series: &str) -> Option<&'static [f64]> {
    use paperdata::*;
    Some(match (figure, series) {
        (FigureId::Fig1a, "aocl") => &FIG1A_AOCL,
        (FigureId::Fig1a, "sdaccel") => &FIG1A_SDACCEL,
        (FigureId::Fig1a, "cpu") => &FIG1A_CPU,
        (FigureId::Fig1a, "gpu") => &FIG1A_GPU,
        (FigureId::Fig1b, "aocl") => &FIG1B_AOCL,
        (FigureId::Fig1b, "sdaccel") => &FIG1B_SDACCEL,
        (FigureId::Fig1b, "cpu") => &FIG1B_CPU,
        (FigureId::Fig1b, "gpu") => &FIG1B_GPU,
        (FigureId::Fig2, "aocl-contig") => &FIG2_AOCL_CONTIG,
        (FigureId::Fig2, "sdaccel-contig") => &FIG2_SDACCEL_CONTIG,
        (FigureId::Fig2, "cpu-contig") => &FIG2_CPU_CONTIG,
        (FigureId::Fig2, "gpu-contig") => &FIG2_GPU_CONTIG,
        (FigureId::Fig2, "aocl-strided") => &FIG2_AOCL_STRIDED,
        (FigureId::Fig2, "sdaccel-strided") => &FIG2_SDACCEL_STRIDED,
        (FigureId::Fig2, "cpu-strided") => &FIG2_CPU_STRIDED,
        (FigureId::Fig2, "gpu-strided") => &FIG2_GPU_STRIDED,
        _ => return None,
    })
}

/// The published values of every paper point a configuration reproduces:
/// a baseline copy on the target's optimal loop is a Fig. 1a and Fig. 2
/// (contiguous) point at width 1 and a Fig. 1a size, and a Fig. 1b point
/// at 4 MiB.
pub fn published_values(k: &KernelConfig, target: TargetId) -> Vec<f64> {
    let mut out = Vec::new();
    let base = copy_kernel(target, k.array_bytes());
    let mut same_but_width = k.clone();
    same_but_width.vector_width = width(1);
    if same_but_width != base {
        return out;
    }
    let label = target.label();
    let size_idx = fig1_sizes().iter().position(|&b| b == k.array_bytes());
    if k.vector_width.get() == 1 {
        if let Some(i) = size_idx {
            for (fig, series) in [
                (FigureId::Fig1a, label.to_string()),
                (FigureId::Fig2, format!("{label}-contig")),
            ] {
                if let Some(v) = published(fig, &series).and_then(|p| p.get(i)) {
                    out.push(*v);
                }
            }
        }
    }
    if k.array_bytes() == PLATEAU_BYTES {
        let wi = paperdata::FIG1B_WIDTHS
            .iter()
            .position(|&w| w == k.vector_width.get());
        if let Some(v) = wi.and_then(|i| published(FigureId::Fig1b, label)?.get(i)) {
            out.push(*v);
        }
    }
    out
}

/// `|log2(simulated / paper)|` for every published point of the figures.
fn paper_errors(runs: &[BatchRun], round: &mut Round) {
    for run in runs {
        for (o, tag) in run.outcomes.iter().zip(&run.batch.tags) {
            let (Some(tag), Ok(m)) = (tag, &o.result) else {
                continue;
            };
            if let Some(v) = published(tag.figure, &tag.series).and_then(|p| p.get(tag.idx)) {
                round.sample("paper_err_log2", (m.gbps() / v).log2().abs());
            }
        }
    }
}

/// Per-point checks shared by both offline workloads: the point finished,
/// validated where validation ran, and stays under the device's peak.
fn check_points(runs: &[BatchRun], round: &mut Round) {
    for run in runs {
        let peak = Runner::for_target(run.batch.target)
            .device()
            .info()
            .peak_gbps;
        for (i, o) in run.outcomes.iter().enumerate() {
            let label = run.batch.point_label(i);
            round.attempted += 1;
            if finished(o) {
                round.points += 1;
            }
            round
                .digests
                .push((label.clone(), checks::outcome_digest(o)));
            if let Err(why) = checks::point(o, peak) {
                round.fail(label, why);
            }
        }
    }
}

/// Re-run a seeded sample of measured points on the reference slow path
/// and require identical measurements.
fn check_slow_path(runs: &[BatchRun], seed: u64, round: &mut Round) {
    let measured: Vec<(usize, usize)> = runs
        .iter()
        .enumerate()
        .flat_map(|(b, r)| {
            r.outcomes
                .iter()
                .enumerate()
                .filter(|(_, o)| o.result.is_ok())
                .map(move |(i, _)| (b, i))
        })
        .collect();
    for (b, i) in checks::sample_indices(measured.len(), checks::SLOW_PATH_SAMPLE, seed)
        .into_iter()
        .map(|j| measured[j])
    {
        let run = &runs[b];
        if let Err(why) = checks::slow_path(run.batch.target, &run.batch.work[i], &run.outcomes[i])
        {
            round.fail(run.batch.point_label(i), why);
        }
    }
}

/// The `reproduce` workload. Unseeded: the inputs are the paper's. The
/// seed only picks which points the slow-path check re-runs. `deep` adds
/// the checks that re-run work (slow path, `run_figure` mirror); a run
/// does them in its first round only, since later rounds repeat it.
pub fn reproduce(seed: u64, deep: bool, round: &mut Round) -> Vec<BatchRun> {
    let batches = reproduce_batches();
    round.first_op_unix_ns = host::unix_ns();
    let t0 = Instant::now();
    let runs = run_batches(batches, |engine, batch| {
        run_timed(engine, batch.target, &batch.work, round)
    });
    for (_, series) in assemble_figures(&runs) {
        black_box(ascii_loglog(&series, 64, 16));
    }
    round.wall_s = t0.elapsed().as_secs_f64();
    round.peak_rss_mb = host::peak_rss_mb();

    check_points(&runs, round);
    paper_errors(&runs, round);
    if !deep {
        return runs;
    }
    check_slow_path(&runs, seed, round);
    // The work lists must still be what the figure harness runs.
    let figs = assemble_figures(&runs);
    let id = FigureId::ALL[(seed % FigureId::ALL.len() as u64) as usize];
    let ours = figs.iter().find(|f| f.0 == id).map(|f| &f.1);
    let theirs = run_figure(id, RunOpts::full().with_jobs(JOBS)).series;
    let same = ours.is_some_and(|s| {
        s.len() == theirs.len()
            && s.iter()
                .zip(&theirs)
                .all(|(a, b)| a.label == b.label && a.points == b.points)
    });
    round.attempted += 1;
    if !same {
        round.fail(
            format!("mirror {}", id.name()),
            "series differ from experiments::run_figure",
        );
    }
    runs
}

/// The two FPGA targets the `fpga-dse` workload searches.
pub const DSE_TARGETS: [TargetId; 2] = [TargetId::FpgaAocl, TargetId::FpgaSdaccel];
/// Grid first (the reference optimum), then the two seeded searches.
pub const DSE_STRATEGIES: [DseStrategy; 3] =
    [DseStrategy::Grid, DseStrategy::Genetic, DseStrategy::Model];

/// The `mpstream dse` request at CLI defaults (4 MiB, `ntimes` 5,
/// validation on) over widths {1..16} x unrolls {1,2,4,8} x 3 loop modes.
pub fn dse_request(target: TargetId, strategy: DseStrategy, seed: u64) -> CliRequest {
    CliRequest {
        mode: CliMode::Dse,
        target,
        unrolls: vec![1, 2, 4, 8],
        strategy,
        dse_seed: (strategy != DseStrategy::Grid).then_some(seed),
        jobs: Some(JOBS),
        ..CliRequest::default()
    }
}

/// One finished search.
pub struct Search {
    /// The request it ran.
    pub req: CliRequest,
    /// The result, shaped as `cli::run_dse` returns it.
    pub result: DseResult,
    /// Every evaluated configuration, in visit order (as `result.trace`).
    pub work: Vec<BenchConfig>,
}

impl Search {
    /// The search as one batch, labelled by strategy.
    pub fn as_run(&self) -> BatchRun {
        BatchRun {
            batch: Batch {
                label: format!("dse-{}", self.req.strategy.label()),
                target: self.req.target,
                work: self.work.clone(),
                tags: Vec::new(),
            },
            outcomes: self.result.trace.clone(),
        }
    }
}

/// Drive a search by its public ask/tell interface, evaluating each batch
/// with `eval` (the same loop `dse::search_target` runs).
pub fn drive(
    req: &CliRequest,
    mut eval: impl FnMut(&[BenchConfig]) -> Vec<Outcome>,
) -> (DseResult, Vec<BenchConfig>) {
    let space = cli::dse_param_space(req);
    let n = space.configs().len();
    let budget = cli::dse_budget(req, n);
    let mut strategy: Box<dyn Strategy> = cli::build_strategy(req, &space);
    let mut trace: Vec<Outcome> = Vec::new();
    let mut visited = Vec::new();
    while budget == 0 || trace.len() < budget {
        let mut batch = strategy.ask();
        if batch.is_empty() {
            break;
        }
        if budget > 0 {
            batch.truncate(budget - trace.len());
        }
        let work: Vec<BenchConfig> = batch
            .into_iter()
            .map(|k| cli::bench_protocol(req, k))
            .collect();
        let outcomes = eval(&work);
        strategy.tell(&outcomes);
        trace.extend(outcomes);
        visited.extend(work);
    }
    let best = trace
        .iter()
        .filter_map(|o| o.gbps().filter(|g| !g.is_nan()).map(|g| (o, g)))
        .max_by(|(_, a), (_, b)| a.total_cmp(b))
        .map(|(o, _)| o.clone());
    let result = DseResult {
        best,
        failures: trace.iter().filter(|o| o.result.is_err()).count(),
        trace,
        resumed: 0,
        space_size: n,
        strategy: strategy.name().to_string(),
        cancelled: false,
        cache: Default::default(),
        retry: Default::default(),
        faults: Default::default(),
    };
    (result, visited)
}

/// The largest gap (%) between a seeded search's best GB/s and the grid
/// optimum on the same target.
pub fn dse_gap(searches: &[Search]) -> Result<f64, String> {
    let mut gap: f64 = 0.0;
    for target in DSE_TARGETS {
        let of = |s: DseStrategy| {
            searches
                .iter()
                .find(|x| x.req.target == target && x.req.strategy == s)
                .and_then(|x| x.result.best.as_ref()?.gbps())
        };
        let grid = of(DseStrategy::Grid).ok_or("grid found no feasible point")?;
        for s in [DseStrategy::Genetic, DseStrategy::Model] {
            let best = of(s).ok_or("search found no feasible point")?;
            gap = gap.max((grid - best) / grid * 100.0);
        }
    }
    Ok(gap)
}

/// The `fpga-dse` workload: for AOCL and SDAccel, the exhaustive grid and
/// then the genetic and model searches seeded by `seed`.
pub fn fpga_dse(seed: u64, deep: bool, round: &mut Round) -> Vec<Search> {
    round.first_op_unix_ns = host::unix_ns();
    let t0 = Instant::now();
    let mut searches = Vec::new();
    for target in DSE_TARGETS {
        for strategy in DSE_STRATEGIES {
            let req = dse_request(target, strategy, seed);
            let engine = cli::build_engine(&req, None);
            let (mut result, work) = drive(&req, |work| run_timed(&engine, target, work, round));
            result.cache = engine.cache_stats();
            black_box(cli::render_dse_report(&req, &result));
            searches.push(Search { req, result, work });
        }
    }
    round.wall_s = t0.elapsed().as_secs_f64();
    round.peak_rss_mb = host::peak_rss_mb();

    for s in &searches {
        let runs = [s.as_run()];
        check_points(&runs, round);
        if deep {
            check_slow_path(&runs, seed ^ s.req.target as u64, round);
        }
        // Paper error over the grid, which is unseeded and visits every
        // published point once.
        let grid = s.req.strategy == DseStrategy::Grid;
        for (o, bc) in s.result.trace.iter().zip(&s.work).filter(|_| grid) {
            if let Ok(m) = &o.result {
                for v in published_values(&bc.kernel, s.req.target) {
                    round.sample("paper_err_log2", (m.gbps() / v).log2().abs());
                }
            }
        }
        // The grid optimum must be the best grid outcome.
        if s.req.strategy == DseStrategy::Grid {
            round.attempted += 1;
            let top = s
                .result
                .trace
                .iter()
                .filter_map(Outcome::gbps)
                .fold(f64::NEG_INFINITY, f64::max);
            if s.result.best.as_ref().and_then(Outcome::gbps) != Some(top) {
                round.fail(
                    format!("grid-optimum {}", s.req.target.label()),
                    "best != max outcome",
                );
            }
        } else if deep {
            // The ask/tell loop must be the one `mpstream dse` runs: the
            // report it renders is byte-identical.
            round.attempted += 1;
            let engine = cli::build_engine(&s.req, None);
            let theirs = cli::run_dse(&engine, &s.req, None);
            let mut ours = s.result.clone();
            ours.cache = theirs.cache;
            if cli::render_dse_report(&s.req, &ours) != cli::render_dse_report(&s.req, &theirs) {
                round.fail(
                    format!(
                        "mirror dse-{} {}",
                        s.req.strategy.label(),
                        s.req.target.label()
                    ),
                    "report differs from cli::run_dse",
                );
            }
        }
    }
    round.attempted += 1;
    match dse_gap(&searches) {
        Ok(gap) => round.value("dse_gap_pct", gap, "%"),
        Err(why) => round.fail("dse-gap", why),
    }
    searches
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dse_inputs_follow_the_seed() {
        let first_ask = |seed| {
            let req = dse_request(TargetId::FpgaAocl, DseStrategy::Genetic, seed);
            let space = cli::dse_param_space(&req);
            cli::build_strategy(&req, &space).ask()
        };
        assert_eq!(first_ask(3), first_ask(3));
        assert_ne!(first_ask(3), first_ask(4));
        let grid = |seed| dse_request(TargetId::FpgaAocl, DseStrategy::Grid, seed);
        assert_eq!(grid(3).dse_seed, None, "the grid is unseeded");
        assert_eq!(cli::dse_param_space(&grid(3)).configs().len(), 240);
    }

    #[test]
    fn reproduce_inputs_are_the_papers() {
        let a = reproduce_batches();
        let n: usize = a.iter().map(|b| b.work.len()).sum();
        assert_eq!(n, 191);
        let published: usize = a
            .iter()
            .flat_map(|b| b.tags.iter().flatten())
            .filter(|t| published(t.figure, &t.series).is_some())
            .count();
        assert_eq!(published, 136);
    }
}
