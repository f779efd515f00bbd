//! The `serve` workload: an in-process daemon under open-loop load.
//!
//! Connection 1 submits seeded jobs at their due times and, between
//! submits, reads job status and results at a fixed rate. Connection 2
//! streams every job, in submit order, until its terminal status line.
//! Every latency is measured from the operation's due time, so a stalled
//! request also charges the requests queued behind it.

use crate::checks;
use crate::host;
use crate::round::Round;
use mpstream_core::checkpoint::{config_key, parse_record};
use mpstream_core::cli::{self, CliMode, CliRequest, DseStrategy};
use mpstream_core::experiments::optimal_loop;
use mpstream_core::json::parse_flat_object;
use mpstream_core::rng::SplitMix64;
use mpstream_core::{paperdata, BenchConfig};
use mpstream_serve::client::{http_request_opts, http_stream_keyed, ClientOpts, StreamReply};
use mpstream_serve::{spec, ServeOpts, Server};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};
use targets::TargetId;

/// Targets the jobs run on.
pub const TARGETS: [TargetId; 3] = [TargetId::Gpu, TargetId::FpgaAocl, TargetId::FpgaSdaccel];
/// Array sizes the jobs use; both are Fig. 1a sizes, so every sweep job
/// contains one point the paper published.
pub const SIZES: [u64; 2] = [16 << 10, 64 << 10];
/// Arrival slot per point of the job: each job owns a slot this long per
/// point it runs before the next job's slot starts, so the runner is
/// evenly loaded instead of backing up behind the large searches.
pub const SLOT_MS_PER_POINT: f64 = 0.6;
/// Connection 2 opens each job's stream after a seeded think time of up
/// to this long. The daemon's streamer polls the store on a fixed period
/// from the moment a stream opens; opening in lockstep with the submit
/// would quantize every record's delivery to multiples of that period
/// after the job starts, and the p90 would jump a whole period when a job
/// runs slightly slower.
pub const STREAM_THINK_MS: f64 = 50.0;
/// Gap between scheduled status/results reads.
pub const READ_GAP_MS: f64 = 40.0;
/// A run is invalid, not slow, when the generator sends an operation
/// later than this after its due time (p90 over the round).
pub const MAX_LATENESS_P90_MS: f64 = 25.0;
/// Hard guard on one round.
const ROUND_DEADLINE: Duration = Duration::from_secs(90);

/// One job of the mix.
#[derive(Debug, Clone)]
pub struct Job {
    /// When connection 1 is due to submit it, ms after the first due time.
    pub due_ms: f64,
    /// The request, as the CLI would parse it.
    pub req: CliRequest,
    /// Think time before connection 2 opens the job's stream, ms after
    /// the submit was due.
    pub stream_after_ms: f64,
}

/// Which read a scheduled read is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    /// `GET /jobs/N`.
    Status,
    /// `GET /jobs/N/results`.
    Results,
}

/// One scheduled read of an already-submitted job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Read {
    /// Due time, ms after the first due time.
    pub due_ms: f64,
    /// Status or results.
    pub kind: ReadKind,
    /// Index into the job list of the job to read.
    pub job: usize,
}

/// The seeded load of one round.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Jobs in submit order.
    pub jobs: Vec<Job>,
    /// Reads in due order.
    pub reads: Vec<Read>,
}

fn sweep(target: TargetId, size_bytes: u64, unrolls: &[u32]) -> CliRequest {
    CliRequest {
        mode: CliMode::Sweep,
        target,
        size_bytes,
        loop_mode: optimal_loop(target),
        unrolls: unrolls.to_vec(),
        jobs: Some(1),
        ..CliRequest::default()
    }
}

fn dse(
    target: TargetId,
    size_bytes: u64,
    unrolls: &[u32],
    strategy: DseStrategy,
    budget: Option<usize>,
    seed: u64,
) -> CliRequest {
    CliRequest {
        mode: CliMode::Dse,
        strategy,
        budget,
        dse_seed: (strategy != DseStrategy::Grid).then_some(seed),
        ..sweep(target, size_bytes, unrolls)
    }
}

/// The seeded job mix and schedule. The jobs and their order are fixed,
/// so every seed offers the same work in the same pattern: first a
/// 60-point sweep per target and size (each holds one published point),
/// then per target and size a block of a sweep of 80 points, grid
/// searches of 60, 120 and 240 points, and model and genetic searches of
/// 60 and 90 evaluations. The seed sets the search seeds, each submit's
/// offset within its arrival slot, and which job each read targets.
pub fn plan(seed: u64) -> Plan {
    let mut rng = SplitMix64::new(seed ^ 0x5e7e_5e7e);
    let mut anchors = Vec::new();
    let mut rest = Vec::new();
    for target in TARGETS {
        for size in SIZES {
            anchors.push(sweep(target, size, &[1, 2, 4]));
            let model_seed = rng.next_u64() >> 1;
            let genetic_seed = rng.next_u64() >> 1;
            let all = [1, 2, 4, 8];
            rest.extend([
                sweep(target, size, &all),
                dse(target, size, &[1], DseStrategy::Grid, None, 0),
                dse(target, size, &all, DseStrategy::Model, Some(60), model_seed),
                dse(target, size, &[1, 2], DseStrategy::Grid, None, 0),
                dse(
                    target,
                    size,
                    &all,
                    DseStrategy::Genetic,
                    Some(90),
                    genetic_seed,
                ),
                dse(target, size, &all, DseStrategy::Grid, None, 0),
            ]);
        }
    }
    let mut jobs = Vec::new();
    let mut slot_start = 0.0;
    for req in anchors.into_iter().chain(rest) {
        // Each submit is due at a seeded offset within the first half of
        // its slot: the offered load is the same for every seed, the
        // arrival pattern is not.
        let slot = spec::total_points(&req) as f64 * SLOT_MS_PER_POINT;
        let due_ms = slot_start + rng.gen_f64() * slot / 2.0;
        slot_start += slot;
        let stream_after_ms = rng.gen_f64() * STREAM_THINK_MS;
        jobs.push(Job {
            due_ms,
            req,
            stream_after_ms,
        });
    }
    let end_ms = jobs.last().map_or(0.0, |j| j.due_ms);
    let mut reads = Vec::new();
    let mut t = READ_GAP_MS / 2.0;
    let mut kind = ReadKind::Status;
    while t < end_ms {
        let submitted = jobs.iter().take_while(|j| j.due_ms < t).count();
        if submitted > 0 {
            reads.push(Read {
                due_ms: t,
                kind,
                job: rng.gen_index(submitted),
            });
            kind = match kind {
                ReadKind::Status => ReadKind::Results,
                ReadKind::Results => ReadKind::Status,
            };
        }
        t += READ_GAP_MS;
    }
    Plan { jobs, reads }
}

/// When an open-loop operation was due, sent and answered.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Due time.
    pub due: Instant,
    /// When the generator actually sent it.
    pub sent: Instant,
    /// When the reply arrived.
    pub done: Instant,
}

impl Timing {
    /// Latency as users see it: from the due time, not the send time.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent the operation.
    pub fn lateness_ms(&self) -> f64 {
        (self.sent - self.due).as_secs_f64() * 1e3
    }
}

/// Run `ops` (due offsets in ms from `t0`) open-loop: sleep until each is
/// due, never waiting for a slow reply before starting the clock of the
/// next one.
pub fn open_loop<T>(
    t0: Instant,
    ops: &[(f64, T)],
    mut exec: impl FnMut(&T, Instant) -> Instant,
) -> Vec<Timing> {
    let mut out = Vec::with_capacity(ops.len());
    for (due_ms, op) in ops {
        let due = t0 + Duration::from_secs_f64(due_ms / 1e3);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let done = exec(op, sent);
        out.push(Timing { due, sent, done });
    }
    out
}

/// A round is invalid, not slow, when the generator ran late: its p90
/// lateness exceeds [`MAX_LATENESS_P90_MS`].
pub fn generator_verdict(lateness_ms: &[f64]) -> Result<(), String> {
    match crate::stats::quantile(lateness_ms, 0.9) {
        Some(p90) if p90 > MAX_LATENESS_P90_MS => Err(format!(
            "p90 lateness {p90:.1} ms over the {MAX_LATENESS_P90_MS} ms bound: run invalid"
        )),
        _ => Ok(()),
    }
}

/// What connection 1 sends.
#[derive(Debug, Clone, Copy)]
enum Op {
    Submit(usize),
    Read(Read),
}

/// A job as connection 2 saw it.
#[derive(Debug, Default)]
struct Streamed {
    records: Vec<String>,
    /// Arrival of each record, ms after the job's due submit time.
    record_ms: Vec<f64>,
    /// Arrival of the terminal status line, s after the due submit time.
    job_s: Option<f64>,
    state: String,
    done: u64,
    total: u64,
    error: Option<String>,
}

fn client_opts() -> ClientOpts {
    ClientOpts {
        read_timeout: Duration::from_secs(30),
        ..ClientOpts::default()
    }
}

fn field_u64(body: &str, key: &str) -> Option<u64> {
    parse_flat_object(body.trim())?.get(key)?.as_u64()
}

/// Run one `serve` round; `deep` adds the slow-path re-runs. With
/// `traced`, also read the daemon's thread
/// CPU times, sample its queue depth and time the store directly.
pub fn serve(seed: u64, traced: bool, deep: bool, round: &mut Round) {
    let plan = plan(seed);
    let store_dir = scratch_dir();
    let server = Server::bind(ServeOpts {
        addr: "127.0.0.1:0".into(),
        store_dir: store_dir.clone(),
        http_workers: 2,
        queue_capacity: plan.jobs.len() + 1,
        ..ServeOpts::default()
    });
    let server = match server {
        Ok(s) => s,
        Err(e) => {
            round.attempted += 1;
            round.fail("bind", e.to_string());
            return;
        }
    };
    let addr = server
        .local_addr()
        .expect("bound listener has an address")
        .to_string();
    let store = server.store();
    let manager = server.manager();
    let shutdown = server
        .shutdown_handle()
        .expect("bound listener has an address");
    let daemon = std::thread::Builder::new()
        .name("perfbench-daemon".into())
        .spawn(move || server.run())
        .expect("spawn daemon thread");
    let opts = client_opts();
    round.attempted += 1;
    match http_request_opts(&addr, "GET", "/healthz", b"", &opts) {
        Ok(r) if r.status == 200 => {}
        other => round.fail("healthz", format!("{:?}", other.map(|r| r.status))),
    }

    // Connection 1's schedule: submits and reads merged by due time.
    let mut ops: Vec<(f64, Op)> = plan
        .jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (j.due_ms, Op::Submit(i)))
        .chain(plan.reads.iter().map(|r| (r.due_ms, Op::Read(*r))))
        .collect();
    ops.sort_by(|a, b| a.0.total_cmp(&b.0));
    let specs: Vec<String> = plan
        .jobs
        .iter()
        .map(|j| spec::request_to_spec(&j.req).expect("plan builds submittable requests"))
        .collect();

    let ids = Mutex::new(vec![None::<u64>; plan.jobs.len()]);
    let op_failures = Mutex::new(Vec::<(String, String)>::new());
    let sampling = AtomicBool::new(traced);
    let depth = Mutex::new(Vec::<f64>::new());
    let stream_cpu = Mutex::new(HashMap::<u64, u64>::new());
    let client_cpu = Mutex::new(0u64);
    let (tx, rx) = mpsc::channel::<(usize, u64)>();

    round.first_op_unix_ns = host::unix_ns();
    let process_ms0 = host::process_cpu_ms();
    let t0 = Instant::now();
    let (timings, streamed) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            while sampling.load(Ordering::SeqCst) {
                depth
                    .lock()
                    .expect("depth lock")
                    .push(manager.queue_depth() as f64);
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        let conn2 = std::thread::Builder::new()
            .name("perfbench-conn2".into())
            .spawn_scoped(s, || {
                let deadline = t0 + ROUND_DEADLINE;
                let mut seen = Vec::new();
                for (job, id) in rx {
                    let due = t0 + Duration::from_secs_f64(plan.jobs[job].due_ms / 1e3);
                    let open = due + Duration::from_secs_f64(plan.jobs[job].stream_after_ms / 1e3);
                    let now = Instant::now();
                    if open > now {
                        std::thread::sleep(open - now);
                    }
                    let st = stream_job(&addr, id, due, &opts, deadline);
                    if traced {
                        // The streamer thread is still alive (draining our
                        // socket), so its CPU time is final here.
                        let mut cpu = stream_cpu.lock().expect("cpu lock");
                        for (tid, ns) in host::thread_cpu_ns("mpstream-stream") {
                            let e = cpu.entry(tid).or_insert(0);
                            *e = (*e).max(ns);
                        }
                    }
                    seen.push((job, id, st));
                }
                *client_cpu.lock().expect("cpu lock") += host::own_cpu_ns();
                seen
            })
            .expect("spawn connection 2");
        let conn1 = std::thread::Builder::new()
            .name("perfbench-conn1".into())
            .spawn_scoped(s, || {
                let timings = open_loop(t0, &ops, |op, _| {
                    let (what, path, body): (String, String, &[u8]) = match *op {
                        Op::Submit(i) => {
                            (format!("submit {i}"), "/jobs".into(), specs[i].as_bytes())
                        }
                        Op::Read(read) => {
                            let id = ids.lock().expect("ids lock")[read.job].unwrap_or(0);
                            let path = match read.kind {
                                ReadKind::Status => format!("/jobs/{id}"),
                                ReadKind::Results => format!("/jobs/{id}/results?limit=4096"),
                            };
                            (format!("GET {path}"), path, b"")
                        }
                    };
                    let method = if body.is_empty() { "GET" } else { "POST" };
                    let reply = http_request_opts(&addr, method, &path, body, &opts);
                    let done = Instant::now();
                    let ok = match (op, &reply) {
                        (Op::Submit(i), Ok(r)) if r.status == 202 => {
                            match field_u64(&r.text(), "id") {
                                Some(id) => {
                                    ids.lock().expect("ids lock")[*i] = Some(id);
                                    let _ = tx.send((*i, id));
                                    true
                                }
                                None => false,
                            }
                        }
                        (Op::Read(_), Ok(r)) => r.status == 200,
                        _ => false,
                    };
                    if !ok {
                        let why = match reply {
                            Ok(r) => format!("HTTP {}", r.status),
                            Err(e) => e,
                        };
                        op_failures.lock().expect("failures lock").push((what, why));
                    }
                    done
                });
                drop(tx);
                *client_cpu.lock().expect("cpu lock") += host::own_cpu_ns();
                timings
            })
            .expect("spawn connection 1");
        let timings = conn1.join().expect("connection 1 panicked");
        let streamed = conn2.join().expect("connection 2 panicked");
        sampling.store(false, Ordering::SeqCst);
        sampler.join().expect("sampler panicked");
        (timings, streamed)
    });
    round.wall_s = t0.elapsed().as_secs_f64();
    // CPU by thread group over the timed region, before the checks below
    // add their own requests.
    let group_cpu = |prefix: &str| host::thread_cpu_ns(prefix).iter().map(|t| t.1).sum::<u64>();
    let runner = group_cpu("mpstream-job-ru");
    let http = group_cpu("mpstream-http") + group_cpu("perfbench-daemo");
    let process_ms = host::process_cpu_ms() - process_ms0;
    round.peak_rss_mb = host::peak_rss_mb();

    // Connection 1: latency from due time per route, generator lateness.
    round.attempted += ops.len() as u64;
    for ((_, op), t) in ops.iter().zip(&timings) {
        round.sample("lateness_ms", t.lateness_ms());
        let route = match op {
            Op::Submit(_) => "submit",
            Op::Read(r) if r.kind == ReadKind::Status => "status",
            Op::Read(_) => "results",
        };
        round.sample(&format!("http.{route}_ms"), t.latency_ms());
        if route != "submit" {
            round.sample("api_ms", t.latency_ms());
        }
    }
    for (what, why) in op_failures.into_inner().expect("failures lock") {
        round.fail(what, why);
    }
    if let Err(why) = generator_verdict(round.samples.get("lateness_ms").map_or(&[][..], |v| v)) {
        round.fail("generator", why);
    }

    // Connection 2 and the output checks.
    let anchors: HashMap<String, f64> = TARGETS
        .iter()
        .flat_map(|&t| SIZES.iter().map(move |&b| (t, b)))
        .map(|(t, b)| {
            let i = mpstream_core::bandwidth::fig1_sizes()
                .iter()
                .position(|&s| s == b)
                .expect("serve sizes are Fig. 1a sizes");
            let k = crate::offline::copy_kernel(t, b);
            (
                format!("{}|{}", t.label(), config_key(&k)),
                paper_fig1a(t)[i],
            )
        })
        .collect();
    let mut anchored = std::collections::BTreeSet::new();
    let mut records = Vec::new();
    for (job, id, st) in &streamed {
        let req = &plan.jobs[*job].req;
        let op = format!("job {id}");
        round.attempted += 1;
        if let Some(e) = &st.error {
            round.fail(op.clone(), e.clone());
        }
        let total = spec::total_points(req) as u64;
        if st.state != "done" || st.done != st.total || st.total != total {
            round.fail(
                op.clone(),
                format!(
                    "ended {} with {}/{} of {total}",
                    st.state, st.done, st.total
                ),
            );
        }
        round.points += st.records.len() as u64;
        for ms in &st.record_ms {
            round.sample("result_ms", *ms);
        }
        if let Some(ms) = st.record_ms.first() {
            round.sample("first_record_ms", *ms);
        }
        if let Some(s) = st.job_s {
            round.sample("job_s", s);
        }
        // The stream must deliver exactly what the results route serves.
        round.attempted += 1;
        let body = st
            .records
            .iter()
            .map(|l| format!("{l}\n"))
            .collect::<String>();
        match http_request_opts(
            &addr,
            "GET",
            &format!("/jobs/{id}/results?limit=4096"),
            b"",
            &opts,
        ) {
            Ok(r) if r.status == 200 && r.body == body.as_bytes() => {}
            Ok(r) => round.fail(
                format!("results {id}"),
                format!("HTTP {} or bytes differ from stream", r.status),
            ),
            Err(e) => round.fail(format!("results {id}"), e),
        }
        for line in &st.records {
            let Some((key, outcome)) = parse_record(line) else {
                round.fail(op.clone(), "unparseable record");
                continue;
            };
            round.digests.push((
                format!("job{job} {} {key}", req.target.label()),
                checks::outcome_digest(&outcome),
            ));
            let anchor = format!("{}|{key}", req.target.label());
            if let (Some(v), Ok(m)) = (anchors.get(&anchor), &outcome.result) {
                if anchored.insert(anchor) {
                    round.sample("paper_err_log2", (m.gbps() / v).log2().abs());
                }
            }
            records.push((*job, key, outcome));
        }
    }
    round.attempted += 1;
    if anchored.len() != anchors.len() {
        round.fail(
            "paper anchors",
            format!(
                "{} of {} published points served",
                anchored.len(),
                anchors.len()
            ),
        );
    }

    // A seeded sample of served points, re-run on the reference slow path.
    let sample = if deep { checks::SLOW_PATH_SAMPLE } else { 0 };
    for i in checks::sample_indices(records.len(), sample, seed) {
        let (job, key, outcome) = &records[i];
        let req = &plan.jobs[*job].req;
        let space = if req.mode == CliMode::Dse {
            cli::dse_param_space(req)
        } else {
            cli::sweep_param_space(req)
        };
        let op = format!("slow-path job{job} {key}");
        round.attempted += 1;
        match space.configs().into_iter().find(|k| &config_key(k) == key) {
            Some(k) => {
                let bc: BenchConfig = cli::bench_protocol(req, k);
                if let Err(why) = checks::slow_path(req.target, &bc, outcome) {
                    round.fail(op, why);
                }
            }
            None => round.fail(op, "served key not in the job's space"),
        }
    }

    if traced {
        let jobs = streamed.len().max(1) as f64;
        let client = client_cpu.into_inner().expect("cpu lock");
        let stream: u64 = stream_cpu.into_inner().expect("cpu lock").values().sum();
        round.value(
            "serve.stream.cpu_ms_per_job",
            stream as f64 / 1e6 / jobs,
            "ms",
        );
        round.value(
            "serve.jobs.runner_cpu_ms_per_job",
            runner as f64 / 1e6 / jobs,
            "ms",
        );
        let depth = depth.into_inner().expect("depth lock");
        round.value(
            "serve.jobs.queue_depth_mean",
            depth.iter().sum::<f64>() / depth.len().max(1) as f64,
            "jobs",
        );
        let records: usize = streamed.iter().map(|s| s.2.records.len()).sum();
        let bytes: usize = streamed
            .iter()
            .flat_map(|s| &s.2.records)
            .map(|l| l.len() + 1)
            .sum();
        round.value("serve.stream.records", records as f64, "count");
        round.value("serve.stream.bytes", bytes as f64, "B");
        let mut kb = 0.0;
        for (_, id, _) in &streamed {
            let t = Instant::now();
            std::hint::black_box(store.result_lines(*id));
            round.sample("store.result_lines_ms", t.elapsed().as_secs_f64() * 1e3);
            kb += std::fs::metadata(store.checkpoint_path(*id)).map_or(0, |m| m.len()) as f64
                / 1024.0;
        }
        round.value("serve.store.checkpoint_kb", kb / jobs, "KiB");
        // CPU by daemon layer, for the ledger.
        for (layer, ns) in [
            ("serve.http", http),
            ("serve.stream", stream),
            ("core.jobs", runner),
            ("client", client),
        ] {
            round.value(&format!("cpu.{layer}"), ns as f64 / 1e6, "ms");
        }
        round.value("cpu.process", process_ms, "ms");
    }
    shutdown.trigger();
    match daemon.join() {
        Ok(Ok(())) => {}
        other => round.fail("daemon", format!("{other:?}")),
    }
    let _ = std::fs::remove_dir_all(&store_dir);
}

fn paper_fig1a(t: TargetId) -> &'static [f64] {
    match t {
        TargetId::FpgaAocl => &paperdata::FIG1A_AOCL,
        TargetId::FpgaSdaccel => &paperdata::FIG1A_SDACCEL,
        TargetId::Cpu => &paperdata::FIG1A_CPU,
        TargetId::Gpu => &paperdata::FIG1A_GPU,
    }
}

/// Stream one job until its terminal status line.
fn stream_job(addr: &str, id: u64, due: Instant, opts: &ClientOpts, deadline: Instant) -> Streamed {
    let mut st = Streamed::default();
    let mut reader = match http_stream_keyed(addr, &format!("/jobs/{id}/stream"), None, opts) {
        Ok(StreamReply::Open(r)) => r,
        Ok(StreamReply::Refused(r)) => {
            st.error = Some(format!("stream refused with {}", r.status));
            return st;
        }
        Err(e) => {
            st.error = Some(e);
            return st;
        }
    };
    loop {
        if Instant::now() > deadline {
            st.error = Some("round deadline passed".into());
            return st;
        }
        match reader.next_line() {
            Ok(Some(line)) if line.starts_with(':') || line.is_empty() => {}
            Ok(Some(line)) => {
                let ms = due.elapsed().as_secs_f64() * 1e3;
                match parse_flat_object(&line) {
                    Some(obj) if obj.contains_key("key") => {
                        st.record_ms.push(ms);
                        st.records.push(line);
                    }
                    Some(obj) => {
                        st.job_s = Some(ms / 1e3);
                        st.state = obj
                            .get("state")
                            .and_then(|v| v.as_str())
                            .unwrap_or("")
                            .to_string();
                        st.done = obj.get("done").and_then(|v| v.as_u64()).unwrap_or(0);
                        st.total = obj.get("total").and_then(|v| v.as_u64()).unwrap_or(0);
                    }
                    None => {
                        st.error = Some(format!("unparseable stream line {line:?}"));
                        return st;
                    }
                }
            }
            Ok(None) => return st,
            Err(e) => {
                st.error = Some(e);
                return st;
            }
        }
    }
}

/// A fresh store directory inside the working directory.
fn scratch_dir() -> PathBuf {
    PathBuf::from(".perfbench-tmp").join(format!(
        "serve-{}-{}",
        std::process::id(),
        host::unix_ns()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_one_plan_and_seeds_differ() {
        let (a, b, c) = (plan(7), plan(7), plan(8));
        let dues = |p: &Plan| p.jobs.iter().map(|j| j.due_ms).collect::<Vec<_>>();
        let seeds = |p: &Plan| {
            p.jobs
                .iter()
                .map(|j| (j.req.dse_seed, j.stream_after_ms.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(dues(&a), dues(&b));
        assert_eq!(seeds(&a), seeds(&b));
        assert_eq!(a.reads, b.reads);
        assert_ne!(dues(&a), dues(&c));
        assert_ne!(seeds(&a), seeds(&c));
        assert_ne!(a.reads, c.reads);
        let total = |p: &Plan| {
            p.jobs
                .iter()
                .map(|j| spec::total_points(&j.req))
                .sum::<usize>()
        };
        assert_eq!(total(&a), total(&c), "every seed offers the same work");
        for j in &a.jobs {
            let n = spec::total_points(&j.req);
            assert!((60..=240).contains(&n), "{n} points");
        }
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // The first operation stalls for 40 ms; the next two were due 10
        // and 20 ms in, so they are sent late and their latency includes
        // the stall.
        let ops = [(0.0, 40u64), (10.0, 0), (20.0, 0)];
        let t0 = Instant::now();
        let timings = open_loop(t0, &ops, |stall, _| {
            std::thread::sleep(Duration::from_millis(*stall));
            Instant::now()
        });
        assert!(timings[0].latency_ms() >= 40.0);
        assert!(timings[1].lateness_ms() >= 29.0, "sent ~30 ms late");
        assert!(
            timings[1].latency_ms() >= 29.0,
            "latency from due, not send"
        );
        assert!(timings[2].latency_ms() >= timings[2].lateness_ms());
    }

    #[test]
    fn a_late_generator_invalidates_the_round() {
        assert!(generator_verdict(&[0.1; 100]).is_ok());
        let mut late = vec![0.1; 80];
        late.extend([MAX_LATENESS_P90_MS * 2.0; 20]);
        assert!(generator_verdict(&late).is_err());
    }
}
