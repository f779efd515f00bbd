//! The traced replay of the offline workloads.
//!
//! Every configuration is replayed through the public host sequence
//! `Runner::run` uses — `Context` → `Buffer` → `Program::build_cached` →
//! `Kernel` → `enqueue_write` → `enqueue_kernel` (cold, then warm) →
//! `enqueue_read` — called through `Engine::run_protected`, with a span
//! around each call. Spans live in memory and are written out at exit.
//!
//! Three probes run beside each point, outside its span: one
//! `kernelgen::execute` on the point's plan, one `access_stream` over the
//! simulated prefix, and one direct `DeviceBackend::kernel_cost` (a memo
//! hit after the cold launch) for the point's `MemStats`. Their times
//! split a launch span between layers; a launch's memsim share is the
//! cold cost minus access generation. Splitting `kernel_cost` itself into
//! coalescer, hierarchy and DRAM needs spans inside the program.

use kernelgen::{access_stream, total_accesses, DataType, ExecPlan, KernelConfig};
use memsim::MemStats;
use mpcl::{
    Buffer, BuildArtifact, BuildCache, CacheStatus, ClError, CmdKind, CommandQueue, Context,
    Device, DeviceBackend, Kernel, MemFlags, Program,
};
use mpstream_core::checkpoint::config_key;
use mpstream_core::{BenchConfig, Engine, Measurement, Outcome, Runner};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;
use targets::TargetId;

/// Layers of the ledger, in report order.
pub const LAYERS: [&str; 6] = ["kernelgen", "mpcl", "targets", "memsim", "core", "serve"];

fn now_ns() -> u64 {
    static T0: OnceLock<Instant> = OnceLock::new();
    T0.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Point (or job) the span belongs to; all its spans share it.
    pub id: u64,
    /// What was called.
    pub name: &'static str,
    /// Layer its self time is charged to.
    pub layer: &'static str,
    /// Start, ns since the first span of the process.
    pub start: u64,
    /// End, same clock.
    pub end: u64,
    /// Index of the enclosing span in the same point's list.
    pub parent: Option<usize>,
    /// Parts of the self time charged to other layers, from the probes.
    pub split: Vec<(&'static str, u64)>,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Span recorder for one point.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Point id.
    pub id: u64,
    /// Finished and open spans, in start order.
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, layer: &'static str) -> usize {
        let i = self.spans.len();
        self.spans.push(Span {
            id: self.id,
            name,
            layer,
            start: now_ns(),
            end: 0,
            parent: self.stack.last().copied(),
            split: Vec::new(),
        });
        self.stack.push(i);
        i
    }

    /// Close span `i` (and anything opened inside it and left open).
    pub fn end(&mut self, i: usize) {
        let t = now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end = t;
            if top == i {
                break;
            }
        }
    }

    /// Time `f` in a span.
    pub fn span<R>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let i = self.begin(name, layer);
        let r = f();
        self.end(i);
        r
    }
}

/// Self time per layer over `spans`: each span's duration minus its
/// children's, with probe-derived splits moved to their layers.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.ns();
        }
    }
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    let mut add = |layer: &'static str, ns: u64| match out.iter_mut().find(|e| e.0 == layer) {
        Some(e) => e.1 += ns,
        None => out.push((layer, ns)),
    };
    for (s, c) in spans.iter().zip(child) {
        let mut own = s.ns().saturating_sub(c);
        for &(layer, ns) in &s.split {
            let ns = ns.min(own);
            own -= ns;
            add(layer, ns);
        }
        add(s.layer, own);
    }
    out
}

/// Work counts and probe readings summed over the replay.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Accesses generated by the access probe.
    pub accesses: u64,
    /// Access-probe time, ns.
    pub access_ns: u64,
    /// Functional launches (each runs the interpreter once).
    pub interp_launches: u64,
    /// Estimated interpreter time over those launches, ns.
    pub interp_ns: u64,
    /// Bytes the probed interpreter runs moved.
    pub interp_probe_bytes: u64,
    /// Interpreter probe time, ns.
    pub interp_probe_ns: u64,
    /// Buffer allocation, write and read time, ns.
    pub mem_ns: u64,
    /// Bytes written and read.
    pub mem_bytes: u64,
    /// `Program::build_cached` calls and cache hits.
    pub build_calls: u64,
    /// Cache hits among them.
    pub build_hits: u64,
    /// Build time, ns.
    pub build_ns: u64,
    /// Cold launch times, ms.
    pub cold_ms: Vec<f64>,
    /// Warm launch times, µs.
    pub warm_us: Vec<f64>,
    /// Estimated `kernel_cost` time on memo misses, ns.
    pub cost_ns: u64,
    /// Estimated hierarchy time (cold cost minus access generation), ns.
    pub memsim_ns: u64,
    /// Kernel-side accesses the cold launches simulated.
    pub sim_accesses: u64,
    /// `MemStats` of every cold launch, merged.
    pub stats: MemStats,
    /// Lookups and misses at each point's last cache level.
    pub llc: (u64, u64),
    /// Point replay times, ms.
    pub point_ms: Vec<f64>,
}

impl Tally {
    fn merge(&mut self, o: &Tally) {
        self.accesses += o.accesses;
        self.access_ns += o.access_ns;
        self.interp_launches += o.interp_launches;
        self.interp_ns += o.interp_ns;
        self.interp_probe_bytes += o.interp_probe_bytes;
        self.interp_probe_ns += o.interp_probe_ns;
        self.mem_ns += o.mem_ns;
        self.mem_bytes += o.mem_bytes;
        self.build_calls += o.build_calls;
        self.build_hits += o.build_hits;
        self.build_ns += o.build_ns;
        self.cold_ms.extend(&o.cold_ms);
        self.warm_us.extend(&o.warm_us);
        self.cost_ns += o.cost_ns;
        self.memsim_ns += o.memsim_ns;
        self.sim_accesses += o.sim_accesses;
        self.stats.merge(&o.stats);
        self.llc.0 += o.llc.0;
        self.llc.1 += o.llc.1;
        self.point_ms.extend(&o.point_ms);
    }
}

/// A fresh backend of `target` with default tuning, and its sample cap.
fn backend(target: TargetId) -> (Box<dyn DeviceBackend>, u64) {
    match target {
        TargetId::Cpu => {
            let b = targets::CpuBackend::new();
            let cap = b.tuning().sample_cap;
            (Box::new(b), cap)
        }
        TargetId::Gpu => {
            let b = targets::GpuBackend::new();
            let cap = b.tuning().sample_cap;
            (Box::new(b), cap)
        }
        TargetId::FpgaAocl => {
            let b = targets::AoclBackend::new();
            let cap = b.tuning().sample_cap;
            (Box::new(b), cap)
        }
        TargetId::FpgaSdaccel => {
            let b = targets::SdaccelBackend::new();
            let cap = b.tuning().sample_cap;
            (Box::new(b), cap)
        }
    }
}

/// The runner's deterministic source patterns (`b` and `c`).
fn init_array(cfg: &KernelConfig, c: bool) -> Vec<u8> {
    let n = cfg.n_words;
    let v = |i: u64| {
        if c {
            (i % 511) as i64 * 2
        } else {
            (i % 1021) as i64 + 1
        }
    };
    let mut out = Vec::with_capacity((n * cfg.dtype.word_bytes()) as usize);
    for i in 0..n {
        match cfg.dtype {
            DataType::I32 => out.extend_from_slice(&(v(i) as i32).to_ne_bytes()),
            DataType::F64 => out.extend_from_slice(&(v(i) as f64).to_ne_bytes()),
        }
    }
    out
}

/// Shared state of one replayed workload.
pub struct Replay {
    /// Memo keys launched so far in this process: a launch of a new key
    /// is a memo miss (cold), any later one a hit (warm).
    seen: Mutex<HashSet<String>>,
    /// Every recorded span.
    pub spans: Mutex<Vec<Span>>,
    /// Summed work counts.
    pub tally: Mutex<Tally>,
    next_id: AtomicUsize,
}

impl Default for Replay {
    fn default() -> Self {
        Replay {
            seen: Mutex::new(HashSet::new()),
            spans: Mutex::new(Vec::new()),
            tally: Mutex::new(Tally::default()),
            next_id: AtomicUsize::new(0),
        }
    }
}

/// What a replayed point leaves for its probes.
struct Built {
    plan: ExecPlan,
    artifact: BuildArtifact,
    cold_ns: Option<u64>,
    functional_launches: u64,
}

impl Replay {
    /// Replay `work` on `target` across `jobs` workers, each point through
    /// `engine.run_protected`. Outcomes come back in input order.
    pub fn run_batch(
        &self,
        engine: &Engine,
        target: TargetId,
        work: &[BenchConfig],
        jobs: usize,
    ) -> Vec<Outcome> {
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<Outcome>>> = Mutex::new(vec![None; work.len()]);
        std::thread::scope(|s| {
            for _ in 0..jobs.min(work.len()).max(1) {
                s.spawn(|| {
                    let device = Runner::for_target(target).device().clone();
                    let (mut probe_backend, cap) = backend(target);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= work.len() {
                            break;
                        }
                        let o = self.point(
                            engine,
                            &device,
                            probe_backend.as_mut(),
                            cap,
                            target,
                            &work[i],
                        );
                        slots.lock().expect("slots lock")[i] = Some(o);
                    }
                });
            }
        });
        slots
            .into_inner()
            .expect("slots lock")
            .into_iter()
            .map(|o| o.expect("every index claimed"))
            .collect()
    }

    fn point(
        &self,
        engine: &Engine,
        device: &Device,
        probe_backend: &mut dyn DeviceBackend,
        cap: u64,
        target: TargetId,
        bc: &BenchConfig,
    ) -> Outcome {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) as u64;
        let k = &bc.kernel;
        let mut tally = Tally::default();
        // Interpreter probe first: its output is also the replay's
        // validation oracle.
        let oracle = bc.validate.then(|| {
            let b = init_array(k, false);
            let c = if k.op.uses_c() {
                init_array(k, true)
            } else {
                Vec::new()
            };
            let mut a = vec![0u8; k.array_bytes() as usize];
            let t = Instant::now();
            kernelgen::execute(k, &mut a, &b, &c);
            tally.interp_probe_ns += t.elapsed().as_nanos() as u64;
            tally.interp_probe_bytes += k.bytes_moved();
            a
        });
        // A launch of a memo key this process has not launched yet is a
        // memo miss (cold).
        let key = format!("{}|{}", target.label(), config_key(k));
        let rec = Mutex::new(Recorder {
            id,
            ..Recorder::default()
        });
        let built: Mutex<Option<Built>> = Mutex::new(None);
        let t = Mutex::new(Tally::default());
        let outcome = engine.run_protected(k, || {
            let mut rec = rec.lock().expect("recorder lock");
            let mut t = t.lock().expect("tally lock");
            *t = Tally::default();
            rec.spans.clear();
            // The root's own time is whatever no call span covers.
            let root = rec.begin("point", "unattributed");
            let r = self.host_sequence(
                &mut rec,
                &mut t,
                device,
                engine.cache(),
                bc,
                &key,
                oracle.as_deref(),
            );
            rec.end(root);
            t.point_ms.push(rec.spans[root].ns() as f64 / 1e6);
            r.map(|(m, b)| {
                *built.lock().expect("built lock") = Some(b);
                m
            })
        });
        tally.merge(&t.into_inner().expect("tally lock"));
        let mut rec = rec.into_inner().expect("recorder lock");
        for s in &rec.spans {
            match s.name {
                "buffer" | "enqueue_write" | "enqueue_read" => tally.mem_ns += s.ns(),
                "build_cached" => tally.build_ns += s.ns(),
                _ => {}
            }
        }

        // Split each launch span between layers with the probes.
        if let Some(b) = built.into_inner().expect("built lock") {
            let interp_once = if bc.validate {
                tally.interp_probe_ns
            } else {
                0
            };
            tally.interp_launches += b.functional_launches;
            tally.interp_ns += interp_once * b.functional_launches;
            let probe = rec.begin("probe", "trace");
            if let Some(cold) = b.cold_ns {
                let take = total_accesses(k).min(cap.max(1));
                let t0 = Instant::now();
                let n = access_stream(&b.plan, b.artifact.lane_group)
                    .take(take as usize)
                    .count() as u64;
                let access = t0.elapsed().as_nanos() as u64;
                tally.accesses += n;
                tally.access_ns += access;
                let cost = probe_backend.kernel_cost(&b.artifact, &b.plan);
                let cost_ns = cold.saturating_sub(interp_once);
                tally.cost_ns += cost_ns;
                tally.memsim_ns += cost_ns.saturating_sub(access);
                tally.sim_accesses += take;
                let s = &cost.stats;
                if let Some(lvl) = (0..3)
                    .rev()
                    .find(|&l| s.cache_hits[l] + s.cache_misses[l] > 0)
                {
                    tally.llc.0 += s.cache_hits[lvl] + s.cache_misses[lvl];
                    tally.llc.1 += s.cache_misses[lvl];
                }
                tally.stats.merge(s);
            }
            rec.end(probe);
            for s in rec.spans.iter_mut().filter(|s| s.name == "enqueue_kernel") {
                let cold = s.layer == "memsim";
                let mut split = Vec::new();
                if interp_once > 0 {
                    split.push(("kernelgen", interp_once));
                }
                if cold {
                    split.push(("kernelgen", tally.access_ns));
                }
                s.split = split;
            }
        }
        self.spans.lock().expect("spans lock").extend(rec.spans);
        self.tally.lock().expect("tally lock").merge(&tally);
        outcome
    }

    /// The runner's host sequence for one configuration.
    #[allow(clippy::too_many_arguments)]
    fn host_sequence(
        &self,
        rec: &mut Recorder,
        t: &mut Tally,
        device: &Device,
        cache: &BuildCache,
        bc: &BenchConfig,
        key: &str,
        oracle: Option<&[u8]>,
    ) -> Result<(Measurement, Built), ClError> {
        let k = &bc.kernel;
        let bytes = k.array_bytes();
        let (ctx, queue) = rec.span("context", "mpcl", || {
            let ctx = Context::with_faults(device.clone(), None);
            let queue = if bc.validate {
                CommandQueue::new(&ctx)
            } else {
                CommandQueue::new_timing_only(&ctx)
            };
            (ctx, queue)
        });
        let (a, b, c) = rec.span("buffer", "mpcl", || -> Result<_, ClError> {
            let a = Buffer::new(&ctx, MemFlags::WriteOnly, bytes)?;
            let b = Buffer::new(&ctx, MemFlags::ReadOnly, bytes)?;
            let c = if k.op.uses_c() {
                Some(Buffer::new(&ctx, MemFlags::ReadOnly, bytes)?)
            } else {
                None
            };
            Ok((a, b, c))
        })?;
        if bc.validate {
            let (ib, ic) = rec.span("init", "core", || {
                (
                    init_array(k, false),
                    c.as_ref().map(|_| init_array(k, true)),
                )
            });
            rec.span("enqueue_write", "mpcl", || -> Result<(), ClError> {
                queue.enqueue_write(&b, &ib)?;
                if let (Some(c), Some(ic)) = (&c, &ic) {
                    queue.enqueue_write(c, ic)?;
                }
                Ok(())
            })?;
            t.mem_bytes += bytes * (1 + u64::from(c.is_some()));
        }

        let built = rec.begin("build_cached", "mpcl");
        let program = Program::build_cached(&ctx, k.clone(), cache);
        rec.end(built);
        t.build_calls += 1;
        let program = program?;
        if program.cache_status() == CacheStatus::Hit {
            t.build_hits += 1;
        } else {
            // A miss ran the target's synthesis model.
            rec.spans[built].layer = "targets";
        }
        let kernel = rec.span("kernel", "mpcl", || {
            Kernel::new(&program, &a, &b, c.as_ref())
        })?;

        let mut cold_ns = None;
        let (mut best_wall, mut best_kernel, mut sum_wall, mut dram_bytes) =
            (f64::INFINITY, f64::INFINITY, 0.0, 0u64);
        let launches = bc.warmup + bc.ntimes.max(1);
        for n in 0..launches {
            let cold = n == 0 && self.seen.lock().expect("seen lock").insert(key.to_string());
            let i = rec.begin("enqueue_kernel", if cold { "memsim" } else { "targets" });
            let ev = queue.enqueue_kernel(&kernel);
            rec.end(i);
            let ns = rec.spans[i].ns();
            if cold {
                cold_ns = Some(ns);
                t.cold_ms.push(ns as f64 / 1e6);
            } else {
                t.warm_us.push(ns as f64 / 1e3);
            }
            let ev = ev?;
            if n >= bc.warmup {
                best_kernel = best_kernel.min(ev.duration_ns());
                dram_bytes = ev.dram_bytes;
                best_wall = best_wall.min(ev.wall_ns());
                sum_wall += ev.wall_ns();
            }
        }

        let validated = match oracle {
            Some(expect) => {
                let out = rec.span("enqueue_read", "mpcl", || {
                    let mut out = vec![0u8; bytes as usize];
                    queue.enqueue_read(&a, &mut out).map(|_| out)
                })?;
                t.mem_bytes += bytes;
                Some(rec.span("check", "core", || out == expect))
            }
            None => None,
        };
        let (m, built) = rec.span("measurement", "core", || {
            let art = program.artifact();
            let mut m = Measurement {
                device: device.info().name.clone(),
                bytes_moved: k.bytes_moved(),
                best_wall_ns: best_wall,
                avg_wall_ns: sum_wall / bc.ntimes.max(1) as f64,
                best_kernel_ns: best_kernel,
                validated,
                dram_bytes_per_launch: dram_bytes,
                energy_j: device
                    .power_model()
                    .map(|p| p.energy_j(best_wall, dram_bytes)),
                fmax_mhz: art.fmax_mhz,
                resources: art.resources,
                build_log: art.build_log.clone(),
                build_ns: art.synthesis_ns,
                xfer_ns: 0.0,
                kernel_ns: 0.0,
                cache: program.cache_status(),
                row_hits: 0,
                row_misses: 0,
                row_empty: 0,
                stall_ns: 0.0,
            };
            for r in queue.take_log() {
                match r.kind {
                    CmdKind::Write | CmdKind::Read => m.xfer_ns += r.event.duration_ns(),
                    CmdKind::Kernel if !r.aborted => {
                        m.kernel_ns += r.event.duration_ns();
                        m.row_hits += r.event.row_hits;
                        m.row_misses += r.event.row_misses;
                        m.row_empty += r.event.row_empty;
                        m.stall_ns += r.event.stall_ns;
                    }
                    _ => {}
                }
            }
            let built = Built {
                plan: kernel.plan().clone(),
                artifact: art.clone(),
                cold_ns,
                functional_launches: if bc.validate { u64::from(launches) } else { 0 },
            };
            (m, built)
        });
        // Freeing the functional buffers is the runner's last step too.
        rec.span("release", "mpcl", || {
            drop((kernel, program, a, b, c, queue, ctx))
        });
        Ok((m, built))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_moves_splits() {
        let span = |name, layer, start, end, parent, split: Vec<(&'static str, u64)>| Span {
            id: 0,
            name,
            layer,
            start,
            end,
            parent,
            split,
        };
        let spans = vec![
            span("point", "core", 0, 100, None, vec![]),
            span("build", "mpcl", 10, 30, Some(0), vec![]),
            span(
                "launch",
                "memsim",
                30,
                90,
                Some(0),
                vec![("kernelgen", 25), ("kernelgen", 100)],
            ),
        ];
        let st = self_times(&spans);
        let get = |l| st.iter().find(|e| e.0 == l).map_or(0, |e| e.1);
        assert_eq!(get("core"), 20);
        assert_eq!(get("mpcl"), 20);
        assert_eq!(get("kernelgen"), 60, "splits clamp to the span's own time");
        assert_eq!(get("memsim"), 0);
        assert_eq!(
            st.iter().map(|e| e.1).sum::<u64>(),
            100,
            "self times sum to the root"
        );
    }

    #[test]
    fn recorder_nests_spans() {
        let mut r = Recorder::default();
        let a = r.begin("a", "core");
        r.span("b", "mpcl", || ());
        r.end(a);
        assert_eq!(r.spans[1].parent, Some(0));
        assert!(r.spans[0].end >= r.spans[1].end);
    }
}
