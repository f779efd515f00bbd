//! The traced run: per-layer metrics, the self-time ledger and its
//! reconciliation with the timed run.

use crate::checks;
use crate::offline::{self, BatchRun, Search, DSE_STRATEGIES, DSE_TARGETS, JOBS};
use crate::replay::{self_times, Replay, Span, Tally};
use crate::round::Round;
use crate::stats::{median, percentile};
use mpstream_core::cli;
use mpstream_core::report::ascii_loglog;
use mpstream_core::Outcome;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Layer self times must cover the replayed point time to within this
/// share; the rest is printed as `unattributed`.
pub const RECONCILE_SHARE: f64 = 0.05;

/// Everything a traced offline run produced.
pub struct Traced {
    /// Per-layer metrics: name, value, unit.
    pub metrics: Vec<(String, f64, String)>,
    /// Self time per ledger row, ms.
    pub ledger: Vec<(String, f64)>,
    /// Outcomes in workload order, for reconciliation.
    pub digests: Vec<(String, u64)>,
    /// Traced wall time, s.
    pub wall_s: f64,
    /// Every span, for the trace file.
    pub spans: Vec<Span>,
}

fn pct(xs: &[f64], q: f64) -> f64 {
    if q == 0.5 {
        return median(xs).unwrap_or(0.0);
    }
    percentile(xs, q).unwrap_or(0.0)
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Per-layer metrics of the simulator layers from a replay's tally.
fn layer_metrics(t: &Tally, wall_s: f64) -> Vec<(String, f64, String)> {
    let s = &t.stats;
    let lookups: u64 = s.cache_hits.iter().chain(&s.cache_misses).sum();
    let busy: f64 = t.point_ms.iter().sum::<f64>() / 1e3;
    let m = |n: &str, v: f64, u: &str| (n.to_string(), v, u.to_string());
    vec![
        m("kernelgen.access.accesses", t.accesses as f64, "count"),
        m(
            "kernelgen.access.ns_per_access",
            ratio(t.access_ns, t.accesses),
            "ns",
        ),
        m(
            "kernelgen.interp.launches",
            t.interp_launches as f64,
            "count",
        ),
        m("kernelgen.interp.ms", t.interp_ns as f64 / 1e6, "ms"),
        m(
            "kernelgen.interp.ns_per_byte",
            ratio(t.interp_probe_ns, t.interp_probe_bytes),
            "ns/B",
        ),
        m("mpcl.mem.ms", t.mem_ns as f64 / 1e6, "ms"),
        m("mpcl.mem.bytes", t.mem_bytes as f64, "B"),
        m("mpcl.build.calls", t.build_calls as f64, "count"),
        m(
            "mpcl.build.cache_hit_ratio",
            ratio(t.build_hits, t.build_calls),
            "ratio",
        ),
        m("mpcl.build.ms", t.build_ns as f64 / 1e6, "ms"),
        m(
            "mpcl.queue.launches",
            (t.cold_ms.len() + t.warm_us.len()) as f64,
            "count",
        ),
        m("mpcl.queue.cold_launches", t.cold_ms.len() as f64, "count"),
        m("mpcl.queue.cold_ms_p50", pct(&t.cold_ms, 0.5), "ms"),
        m("mpcl.queue.warm_us_p50", pct(&t.warm_us, 0.5), "us"),
        m(
            "targets.cost.memo_hit_ratio",
            ratio(
                t.warm_us.len() as u64,
                (t.cold_ms.len() + t.warm_us.len()) as u64,
            ),
            "ratio",
        ),
        m("targets.cost.ms", t.cost_ns as f64 / 1e6, "ms"),
        m(
            "memsim.ns_per_access",
            ratio(t.memsim_ns, t.sim_accesses),
            "ns",
        ),
        m("memsim.cache.lookups", lookups as f64, "count"),
        m(
            "memsim.cache.l1_hit_ratio",
            ratio(s.cache_hits[0], s.cache_hits[0] + s.cache_misses[0]),
            "ratio",
        ),
        m(
            "memsim.cache.llc_miss_ratio",
            ratio(t.llc.1, t.llc.0),
            "ratio",
        ),
        m("memsim.tlb.walks", s.tlb_misses as f64, "count"),
        m(
            "memsim.tlb.hit_ratio",
            ratio(s.tlb_hits, s.tlb_hits + s.tlb_misses),
            "ratio",
        ),
        m(
            "memsim.prefetch.issued",
            s.prefetches_issued as f64,
            "count",
        ),
        m(
            "memsim.prefetch.useful_ratio",
            ratio(s.prefetch_hits, s.prefetches_issued),
            "ratio",
        ),
        m(
            "memsim.dram.transactions",
            s.dram_transactions as f64,
            "count",
        ),
        m(
            "memsim.dram.row_hit_ratio",
            ratio(s.row_hits, s.row_hits + s.row_misses + s.row_empty),
            "ratio",
        ),
        m("core.runner.point_ms_p50", pct(&t.point_ms, 0.5), "ms"),
        m("core.runner.point_ms_p90", pct(&t.point_ms, 0.9), "ms"),
        m(
            "core.engine.busy_ratio",
            busy / (JOBS as f64 * wall_s).max(1e-9),
            "ratio",
        ),
    ]
}

/// Ledger rows and the reconciliation of self times with point time.
fn ledger(spans: &[Span], round: &mut Round) -> Vec<(String, f64)> {
    let points: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == "point")
        .map(Span::ns)
        .sum();
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    // Parent indices are per point, and each point's spans are contiguous.
    for point in spans.chunk_by(|a, b| a.id == b.id) {
        for (layer, ns) in self_times(point) {
            *by_layer.entry(layer).or_default() += ns;
        }
    }
    let mut rows: Vec<(String, f64)> = crate::replay::LAYERS
        .iter()
        .map(|l| {
            (
                l.to_string(),
                by_layer.get(l).copied().unwrap_or(0) as f64 / 1e6,
            )
        })
        .collect();
    let unattributed = by_layer.get("unattributed").copied().unwrap_or(0);
    rows.push(("unattributed".into(), unattributed as f64 / 1e6));
    rows.push((
        "probes (tracing)".into(),
        by_layer.get("trace").copied().unwrap_or(0) as f64 / 1e6,
    ));
    let attributed: u64 = crate::replay::LAYERS
        .iter()
        .filter_map(|l| by_layer.get(l))
        .sum();
    round.attempted += 1;
    let share = ratio(unattributed, points);
    if attributed + unattributed != points || share > RECONCILE_SHARE {
        round.fail(
            "reconcile ledger",
            format!(
                "layers cover {attributed} of {points} ns ({:.1}% unattributed)",
                share * 100.0
            ),
        );
    }
    rows
}

fn finish(
    replay: Replay,
    wall_s: f64,
    digests: Vec<(String, u64)>,
    extra: Vec<(String, f64, String)>,
    round: &mut Round,
) -> Traced {
    let tally = replay.tally.into_inner().expect("tally lock");
    let spans = replay.spans.into_inner().expect("spans lock");
    let mut metrics = layer_metrics(&tally, wall_s);
    metrics.extend(extra);
    let ledger = ledger(&spans, round);
    Traced {
        metrics,
        ledger,
        digests,
        wall_s,
        spans,
    }
}

fn digests_of(runs: &[BatchRun]) -> Vec<(String, u64)> {
    runs.iter()
        .flat_map(|r| {
            r.outcomes
                .iter()
                .enumerate()
                .map(move |(i, o)| (r.batch.point_label(i), checks::outcome_digest(o)))
        })
        .collect()
}

/// Traced replay of `reproduce`.
pub fn reproduce(round: &mut Round) -> Traced {
    let replay = Replay::default();
    let t0 = Instant::now();
    let runs = offline::run_batches(offline::reproduce_batches(), |engine, batch| {
        replay.run_batch(engine, batch.target, &batch.work, JOBS)
    });
    let run_s = t0.elapsed().as_secs_f64();
    let t = Instant::now();
    for (_, series) in offline::assemble_figures(&runs) {
        black_box(ascii_loglog(&series, 64, 16));
    }
    let report_ms = t.elapsed().as_secs_f64() * 1e3;
    let wall_s = t0.elapsed().as_secs_f64();
    let zero_dse = vec![
        ("core.dse.evaluations".to_string(), 0.0, "count".to_string()),
        ("core.dse.strategy_ms".to_string(), 0.0, "ms".to_string()),
        ("core.dse.gap_pct".to_string(), 0.0, "%".to_string()),
        ("core.report.ms".to_string(), report_ms, "ms".to_string()),
    ];
    let digests = digests_of(&runs);
    let mut traced = finish(replay, run_s, digests, zero_dse, round);
    traced.wall_s = wall_s;
    traced
}

/// Traced replay of `fpga-dse`, driving the same seeded searches.
pub fn fpga_dse(seed: u64, round: &mut Round) -> Traced {
    let replay = Replay::default();
    let t0 = Instant::now();
    let mut searches = Vec::new();
    let (mut eval_s, mut search_s, mut report_ms, mut evaluations) = (0.0, 0.0, 0.0, 0usize);
    for target in DSE_TARGETS {
        for strategy in DSE_STRATEGIES {
            let req = offline::dse_request(target, strategy, seed);
            let engine = cli::build_engine(&req, None);
            let ts = Instant::now();
            let (result, work) = offline::drive(&req, |work| {
                let t = Instant::now();
                let o: Vec<Outcome> = replay.run_batch(&engine, target, work, JOBS);
                eval_s += t.elapsed().as_secs_f64();
                o
            });
            search_s += ts.elapsed().as_secs_f64();
            evaluations += result.trace.len();
            let t = Instant::now();
            black_box(cli::render_dse_report(&req, &result));
            report_ms += t.elapsed().as_secs_f64() * 1e3;
            searches.push(Search { req, result, work });
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let gap = offline::dse_gap(&searches).unwrap_or(0.0);
    let extra = vec![
        (
            "core.dse.evaluations".to_string(),
            evaluations as f64,
            "count".to_string(),
        ),
        (
            "core.dse.strategy_ms".to_string(),
            (search_s - eval_s) * 1e3,
            "ms".to_string(),
        ),
        ("core.dse.gap_pct".to_string(), gap, "%".to_string()),
        ("core.report.ms".to_string(), report_ms, "ms".to_string()),
    ];
    let runs: Vec<BatchRun> = searches.iter().map(Search::as_run).collect();
    let digests = digests_of(&runs);
    let mut traced = finish(replay, eval_s, digests, extra, round);
    traced.wall_s = wall_s;
    traced
}

/// The replay must reproduce the timed run's measurements exactly.
pub fn reconcile(timed: &[(String, u64)], traced: &[(String, u64)], round: &mut Round) {
    // Each replayed point is one operation: it fails when its measurement
    // differs from the timed round's.
    round.attempted += timed.len().max(traced.len()) as u64;
    if timed.len() != traced.len() {
        round.fail(
            "reconcile points",
            format!(
                "timed run has {} points, replay {}",
                timed.len(),
                traced.len()
            ),
        );
        return;
    }
    for (a, b) in timed.iter().zip(traced) {
        if a != b {
            round.fail(format!("reconcile {}", a.0), "replayed measurement differs");
        }
    }
}
