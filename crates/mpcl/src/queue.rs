//! In-order command queues with a simulated nanosecond timeline.
//!
//! Every enqueue advances the queue's clock by what the device model says
//! the command costs, and returns an [`Event`] carrying OpenCL-style
//! profiling timestamps. `MP-STREAM` computes bandwidth from
//! `CL_PROFILING_COMMAND_START`/`END` of the kernel event, and so does
//! the benchmark runner here.
//!
//! Transfers come in two forms with identical timing: the copying
//! `enqueue_write`/`enqueue_read` (`clEnqueueWriteBuffer`/`ReadBuffer`)
//! and the mapped `enqueue_write_with`/`enqueue_read_with`
//! (`clEnqueueMapBuffer`), whose closure works on the device allocation
//! in place. The copying forms are thin wrappers over the mapped ones.
//! A mapped closure runs under the context's memory lock: it must not
//! re-enter the queue or the context (enqueue, allocate or drop a
//! buffer), or it deadlocks.

use crate::context::{Buffer, Context};
use crate::error::ClError;
use crate::program::Kernel;
use std::sync::Arc;
use std::sync::Mutex;

/// Fixed driver-side cost of moving a command from "queued" to
/// "submitted" (host driver work, not device-visible).
const SUBMIT_NS: f64 = 300.0;

/// Profiling timestamps of one command, in simulated nanoseconds since
/// queue creation (OpenCL's queued/submit/start/end).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// `CL_PROFILING_COMMAND_QUEUED`.
    pub queued_ns: f64,
    /// `CL_PROFILING_COMMAND_SUBMIT`.
    pub submit_ns: f64,
    /// `CL_PROFILING_COMMAND_START`.
    pub start_ns: f64,
    /// `CL_PROFILING_COMMAND_END`.
    pub end_ns: f64,
    /// Device DRAM traffic attributed to this command, bytes (kernel
    /// launches report the model's bus traffic including waste; buffer
    /// transfers report their payload).
    pub dram_bytes: u64,
    /// DRAM transactions that hit an open row (kernel launches only).
    pub row_hits: u64,
    /// DRAM transactions that closed + opened a row (kernel launches
    /// only).
    pub row_misses: u64,
    /// DRAM transactions that found the bank idle (kernel launches
    /// only).
    pub row_empty: u64,
    /// Channel/pipe stall time within this command, ns (two-stage
    /// kernel launches only; included in the START..END interval).
    pub stall_ns: f64,
}

impl Event {
    /// Device execution time (`END - START`), ns.
    pub fn duration_ns(&self) -> f64 {
        self.end_ns - self.start_ns
    }

    /// Wall time including queueing and launch overhead
    /// (`END - QUEUED`) — what a host-side timer around the enqueue+wait
    /// would see; this is the time MP-STREAM divides bytes by.
    pub fn wall_ns(&self) -> f64 {
        self.end_ns - self.queued_ns
    }
}

/// What kind of command a log record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmdKind {
    /// `clEnqueueWriteBuffer`.
    Write,
    /// `clEnqueueReadBuffer`.
    Read,
    /// `clEnqueueNDRangeKernel`.
    Kernel,
    /// `clEnqueueCopyBuffer`.
    Copy,
    /// `clEnqueueFillBuffer`.
    Fill,
}

impl CmdKind {
    /// Stable lower-case name, used as the trace span name.
    pub fn name(self) -> &'static str {
        match self {
            CmdKind::Write => "write",
            CmdKind::Read => "read",
            CmdKind::Kernel => "kernel",
            CmdKind::Copy => "copy",
            CmdKind::Fill => "fill",
        }
    }
}

/// One entry of the queue's command log: everything the queue clock saw,
/// including commands whose `Event` was never returned to the caller
/// because a fault fired after the device had already spent the time
/// (`aborted`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CmdRecord {
    /// Command kind.
    pub kind: CmdKind,
    /// Profiling timestamps.
    pub event: Event,
    /// The command consumed device time but failed to complete from the
    /// host's point of view (fault-injected timeout).
    pub aborted: bool,
}

/// An in-order command queue on one context.
#[derive(Clone)]
pub struct CommandQueue {
    ctx: Context,
    now_ns: Arc<Mutex<f64>>,
    log: Arc<Mutex<Vec<CmdRecord>>>,
    functional: bool,
}

impl CommandQueue {
    /// Create a profiling-enabled queue.
    pub fn new(ctx: &Context) -> Self {
        CommandQueue {
            ctx: ctx.clone(),
            now_ns: Arc::new(Mutex::new(0.0)),
            log: Arc::new(Mutex::new(Vec::new())),
            functional: true,
        }
    }

    /// Create a queue that skips functional execution (timing-only runs
    /// for very large arrays; results cannot be validated).
    pub fn new_timing_only(ctx: &Context) -> Self {
        CommandQueue {
            ctx: ctx.clone(),
            now_ns: Arc::new(Mutex::new(0.0)),
            log: Arc::new(Mutex::new(Vec::new())),
            functional: false,
        }
    }

    /// Drain the command log: every command the queue executed so far,
    /// in order, including aborted ones. The log is cleared.
    pub fn take_log(&self) -> Vec<CmdRecord> {
        std::mem::take(&mut *self.log.lock().expect("mpcl mutex poisoned"))
    }

    /// Snapshot the command log without clearing it.
    pub fn log_snapshot(&self) -> Vec<CmdRecord> {
        self.log.lock().expect("mpcl mutex poisoned").clone()
    }

    /// Does this queue execute kernels functionally?
    pub fn is_functional(&self) -> bool {
        self.functional
    }

    /// Current simulated time, ns (everything enqueued has completed —
    /// the queue is in-order and synchronous, i.e. `clFinish` semantics).
    pub fn now_ns(&self) -> f64 {
        *self.now_ns.lock().expect("mpcl mutex poisoned")
    }

    /// The queue's context.
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    fn check_same_ctx(&self, buf: &Buffer) -> Result<(), ClError> {
        if buf.context().id() != self.ctx.id() {
            Err(ClError::InvalidContext)
        } else {
            Ok(())
        }
    }

    /// Reject a buffer from another context, or a host slice whose size
    /// differs from the buffer's.
    fn check_host_slice(&self, buf: &Buffer, len: usize, what: &str) -> Result<(), ClError> {
        self.check_same_ctx(buf)?;
        if len as u64 != buf.len() {
            return Err(ClError::InvalidValue(format!(
                "{what} {len} bytes, buffer {} bytes",
                buf.len()
            )));
        }
        Ok(())
    }

    /// Host→device transfer (`clEnqueueWriteBuffer`): `data` must match
    /// the buffer's size.
    pub fn enqueue_write(&self, buf: &Buffer, data: &[u8]) -> Result<Event, ClError> {
        self.check_host_slice(buf, data.len(), "host data")?;
        self.enqueue_write_with(buf, |dst| dst.copy_from_slice(data))
    }

    /// Device→host transfer (`clEnqueueReadBuffer`).
    pub fn enqueue_read(&self, buf: &Buffer, out: &mut [u8]) -> Result<Event, ClError> {
        self.check_host_slice(buf, out.len(), "host sink")?;
        self.enqueue_read_with(buf, |src| out.copy_from_slice(src))
            .map(|(ev, _)| ev)
    }

    /// Mapped host→device transfer (`clEnqueueMapBuffer` for writing):
    /// `fill` writes the buffer's bytes in place (zeroed if the buffer
    /// was never written). Costs and records exactly what
    /// [`enqueue_write`](Self::enqueue_write) does; a timing-only queue
    /// never calls `fill`.
    pub fn enqueue_write_with(
        &self,
        buf: &Buffer,
        fill: impl FnOnce(&mut [u8]),
    ) -> Result<Event, ClError> {
        self.transfer(CmdKind::Write, buf, fill).map(|(ev, _)| ev)
    }

    /// Mapped device→host transfer (`clEnqueueMapBuffer` for reading):
    /// `inspect` sees the buffer's bytes where they lie (zeroes if the
    /// buffer was never written). Costs and records exactly what
    /// [`enqueue_read`](Self::enqueue_read) does. Returns `inspect`'s
    /// result, or `None` on a timing-only queue, which never calls it.
    pub fn enqueue_read_with<R>(
        &self,
        buf: &Buffer,
        inspect: impl FnOnce(&[u8]) -> R,
    ) -> Result<(Event, Option<R>), ClError> {
        self.transfer(CmdKind::Read, buf, |bytes| inspect(bytes))
    }

    /// The one host↔device transfer path: link time for the whole
    /// buffer, then (functional queues only) `f` on the device bytes.
    fn transfer<R>(
        &self,
        kind: CmdKind,
        buf: &Buffer,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<(Event, Option<R>), ClError> {
        self.check_same_ctx(buf)?;
        let ns = self.ctx.device().with_backend(|b| b.transfer_ns(buf.len()));
        let out = self
            .functional
            .then(|| self.ctx.with_bytes(buf.device_addr(), f));
        Ok((self.advance(kind, 0.0, ns, buf.len()), out))
    }

    /// Kernel launch (`clEnqueueNDRangeKernel`): times the kernel on the
    /// device model and (unless timing-only) executes it functionally.
    /// Execution is deferred to the context's next memory access that
    /// could observe it (see [`crate::context`]): a repeat of the same
    /// launch replaces the pending one, so `ntimes` identical launches
    /// followed by a read run the interpreter once. Events and the
    /// command log do not depend on when execution happens.
    pub fn enqueue_kernel(&self, kernel: &Kernel) -> Result<Event, ClError> {
        if kernel.program().context().id() != self.ctx.id() {
            return Err(ClError::InvalidContext);
        }
        let plan = kernel.plan();
        // Fault plan: the launch may be lost or time out.
        let fault_key = self.ctx.fault_plan().map(|fp| {
            (
                Arc::clone(fp),
                format!("{}:{:?}", self.ctx.device().info().name, plan.cfg),
            )
        });
        let injected = fault_key
            .as_ref()
            .and_then(|(plan_fp, key)| plan_fp.inject_enqueue_fault(key));
        if let Some(e @ ClError::DeviceLost) = injected {
            // The device vanished before running anything: no profiling
            // timestamps exist for this command.
            return Err(e);
        }
        let (launch, cost) = self.ctx.device().with_backend(|b| {
            (
                b.launch_overhead_ns(),
                b.kernel_cost(kernel.program().artifact(), plan),
            )
        });
        let rows = [
            cost.stats.row_hits,
            cost.stats.row_misses,
            cost.stats.row_empty,
        ];
        if let Some(e) = injected {
            // Timeout: the device spent the full launch+kernel time but
            // the host gave up waiting. Keep the partial profiling record
            // in the command log (flagged `aborted`) instead of dropping
            // the timestamps on the floor.
            self.advance_full(
                CmdKind::Kernel,
                launch,
                cost.ns,
                cost.dram_bytes,
                rows,
                cost.stall_ns,
                true,
            );
            return Err(e);
        }
        if self.functional {
            // Silent data corruption: this launch may flip one bit of its
            // destination, for STREAM verification to catch. The roll is
            // drawn now, so attempt counters advance per launch; the flip
            // lands when the launch settles. Timing-only queues have no
            // data to corrupt.
            let flip = fault_key
                .as_ref()
                .and_then(|(plan_fp, key)| plan_fp.inject_bit_flip(key, plan.cfg.array_bytes()));
            self.ctx.defer_launch(plan, flip);
        }
        Ok(self.advance_full(
            CmdKind::Kernel,
            launch,
            cost.ns,
            cost.dram_bytes,
            rows,
            cost.stall_ns,
            false,
        ))
    }

    /// Device-to-device copy (`clEnqueueCopyBuffer`): both buffers live
    /// in device DRAM, so the copy moves `2 * len` bytes on the memory
    /// bus at roughly half the device's peak bandwidth — no PCIe
    /// involved. Sizes must match and the buffers must not overlap.
    pub fn enqueue_copy(&self, src: &Buffer, dst: &Buffer) -> Result<Event, ClError> {
        self.check_same_ctx(src)?;
        self.check_same_ctx(dst)?;
        if src.len() != dst.len() {
            return Err(ClError::InvalidValue(format!(
                "copy size mismatch: src {} bytes, dst {} bytes",
                src.len(),
                dst.len()
            )));
        }
        let (s0, s1) = (src.device_addr(), src.device_addr() + src.len());
        let (d0, d1) = (dst.device_addr(), dst.device_addr() + dst.len());
        if s0 < d1 && d0 < s1 {
            return Err(ClError::MemCopyOverlap);
        }
        // Read + write on the device bus: peak/2 effective.
        let peak = self.ctx.device().info().peak_gbps;
        let ns = 2.0 * src.len() as f64 / peak;
        if self.functional {
            let tmp = self.ctx.with_bytes(src.device_addr(), |s| s.to_vec());
            self.ctx
                .with_bytes(dst.device_addr(), |d| d.copy_from_slice(&tmp));
        }
        Ok(self.advance(CmdKind::Copy, 0.0, ns, 2 * src.len()))
    }

    /// Fill a buffer with a repeating pattern (`clEnqueueFillBuffer`):
    /// write-only traffic at the device's peak bandwidth. The pattern
    /// length must divide the buffer length.
    pub fn enqueue_fill(&self, buf: &Buffer, pattern: &[u8]) -> Result<Event, ClError> {
        self.check_same_ctx(buf)?;
        if pattern.is_empty() || !buf.len().is_multiple_of(pattern.len() as u64) {
            return Err(ClError::InvalidValue(format!(
                "pattern of {} bytes does not divide buffer of {} bytes",
                pattern.len(),
                buf.len()
            )));
        }
        let peak = self.ctx.device().info().peak_gbps;
        let ns = buf.len() as f64 / peak;
        if self.functional {
            self.ctx.with_bytes(buf.device_addr(), |d| {
                for chunk in d.chunks_exact_mut(pattern.len()) {
                    chunk.copy_from_slice(pattern);
                }
            });
        }
        Ok(self.advance(CmdKind::Fill, 0.0, ns, buf.len()))
    }

    /// Block until all enqueued commands complete (`clFinish`). The
    /// simulated queue is synchronous, so this just reports the time.
    pub fn finish(&self) -> f64 {
        self.now_ns()
    }

    fn advance(&self, kind: CmdKind, launch_ns: f64, duration_ns: f64, dram_bytes: u64) -> Event {
        self.advance_full(kind, launch_ns, duration_ns, dram_bytes, [0; 3], 0.0, false)
    }

    #[allow(clippy::too_many_arguments)]
    fn advance_full(
        &self,
        kind: CmdKind,
        launch_ns: f64,
        duration_ns: f64,
        dram_bytes: u64,
        rows: [u64; 3],
        stall_ns: f64,
        aborted: bool,
    ) -> Event {
        let mut now = self.now_ns.lock().expect("mpcl mutex poisoned");
        let queued = *now;
        let submit = queued + SUBMIT_NS;
        let start = submit + launch_ns;
        let end = start + duration_ns;
        *now = end;
        let event = Event {
            queued_ns: queued,
            submit_ns: submit,
            start_ns: start,
            end_ns: end,
            dram_bytes,
            row_hits: rows[0],
            row_misses: rows[1],
            row_empty: rows[2],
            stall_ns,
        };
        self.log
            .lock()
            .expect("mpcl mutex poisoned")
            .push(CmdRecord {
                kind,
                event,
                aborted,
            });
        event
    }
}

impl std::fmt::Debug for CommandQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommandQueue")
            .field("device", &self.ctx.device().info().name)
            .field("now_ns", &self.now_ns())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::MemFlags;
    use crate::platform::test_support::fake_device;
    use crate::program::Program;
    use kernelgen::{KernelConfig, StreamOp};

    fn setup() -> (Context, CommandQueue) {
        let ctx = Context::new(fake_device());
        let q = CommandQueue::new(&ctx);
        (ctx, q)
    }

    #[test]
    fn write_read_round_trip_with_timing() {
        let (ctx, q) = setup();
        let buf = Buffer::new(&ctx, MemFlags::ReadWrite, 4).unwrap();
        let ev = q.enqueue_write(&buf, &[1, 2, 3, 4]).unwrap();
        assert!(ev.end_ns > ev.queued_ns);
        let mut out = [0u8; 4];
        let ev2 = q.enqueue_read(&buf, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4]);
        assert!(ev2.queued_ns >= ev.end_ns, "in-order queue");
    }

    #[test]
    fn size_mismatch_rejected() {
        let (ctx, q) = setup();
        let buf = Buffer::new(&ctx, MemFlags::ReadWrite, 4).unwrap();
        assert!(matches!(
            q.enqueue_write(&buf, &[1, 2]),
            Err(ClError::InvalidValue(_))
        ));
        let mut out = [0u8; 8];
        assert!(matches!(
            q.enqueue_read(&buf, &mut out),
            Err(ClError::InvalidValue(_))
        ));
    }

    #[test]
    fn mapped_transfers_time_and_log_like_copying_ones() {
        let (ctx1, copying) = setup();
        let (ctx2, mapped) = setup();
        let b1 = Buffer::new(&ctx1, MemFlags::ReadWrite, 4096).unwrap();
        let b2 = Buffer::new(&ctx2, MemFlags::ReadWrite, 4096).unwrap();
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();

        let w1 = copying.enqueue_write(&b1, &data).unwrap();
        let w2 = mapped
            .enqueue_write_with(&b2, |dst| dst.copy_from_slice(&data))
            .unwrap();
        assert_eq!(w1, w2);
        let mut out = vec![0u8; 4096];
        let r1 = copying.enqueue_read(&b1, &mut out).unwrap();
        let (r2, same) = mapped
            .enqueue_read_with(&b2, |src| src == out.as_slice())
            .unwrap();
        assert_eq!(r1, r2);
        assert_eq!(same, Some(true), "mapped read sees what was written");
        assert_eq!(out, data);

        let (log1, log2) = (copying.take_log(), mapped.take_log());
        assert_eq!(log1, log2);
        let kinds: Vec<CmdKind> = log2.iter().map(|r| r.kind).collect();
        assert_eq!(kinds, [CmdKind::Write, CmdKind::Read]);
        assert!(log2[0].event.end_ns > log2[0].event.start_ns);
        assert_eq!(log2[1].event.queued_ns, log2[0].event.end_ns);
    }

    #[test]
    fn timing_only_queue_never_calls_mapped_closures() {
        let ctx = Context::new(fake_device());
        let q = CommandQueue::new_timing_only(&ctx);
        let buf = Buffer::new(&ctx, MemFlags::ReadWrite, 64).unwrap();
        let ev = q
            .enqueue_write_with(&buf, |_| panic!("write closure called"))
            .unwrap();
        assert!(ev.duration_ns() > 0.0);
        let (ev, out) = q
            .enqueue_read_with(&buf, |_| -> u8 { panic!("read closure called") })
            .unwrap();
        assert!(ev.duration_ns() > 0.0);
        assert_eq!(out, None);
        assert_eq!(q.take_log().len(), 2, "both transfers still cost time");
    }

    #[test]
    fn mapped_transfers_reject_foreign_buffers() {
        let (_ctx1, q1) = setup();
        let ctx2 = Context::new(fake_device());
        let buf2 = Buffer::new(&ctx2, MemFlags::ReadWrite, 4).unwrap();
        assert_eq!(
            q1.enqueue_write_with(&buf2, |_| ()).unwrap_err(),
            ClError::InvalidContext
        );
        assert_eq!(
            q1.enqueue_read_with(&buf2, |_| ()).unwrap_err(),
            ClError::InvalidContext
        );
        assert!(q1.log_snapshot().is_empty(), "rejected before any time");
    }

    #[test]
    fn never_written_buffer_maps_as_zeroes() {
        let (ctx, q) = setup();
        let buf = Buffer::new(&ctx, MemFlags::ReadOnly, 100).unwrap();
        let (_, zeroes) = q
            .enqueue_read_with(&buf, |src| src.len() == 100 && src.iter().all(|&b| b == 0))
            .unwrap();
        assert_eq!(zeroes, Some(true));
    }

    #[test]
    fn kernel_executes_functionally_and_advances_clock() {
        let (ctx, q) = setup();
        let n = 1024u64;
        let cfg = KernelConfig::baseline(StreamOp::Scale, n);
        let p = Program::build(&ctx, cfg).unwrap();
        let a = Buffer::new(&ctx, MemFlags::WriteOnly, n * 4).unwrap();
        let b = Buffer::new(&ctx, MemFlags::ReadOnly, n * 4).unwrap();

        let host_b: Vec<u8> = (0..n).flat_map(|i| (i as i32).to_ne_bytes()).collect();
        q.enqueue_write(&b, &host_b).unwrap();

        let k = Kernel::new(&p, &a, &b, None).unwrap();
        let ev = q.enqueue_kernel(&k).unwrap();
        // Fake backend: 1 byte per ns over bytes_moved = 2 * 4096.
        assert!((ev.duration_ns() - 8192.0).abs() < 1e-9);
        // Launch overhead = 1000 ns in the fake backend.
        assert!((ev.start_ns - ev.submit_ns - 1000.0).abs() < 1e-9);

        let mut out = vec![0u8; (n * 4) as usize];
        q.enqueue_read(&a, &mut out).unwrap();
        let third = i32::from_ne_bytes(out[12..16].try_into().unwrap());
        assert_eq!(third, 9, "a[3] = 3 * b[3]");
    }

    #[test]
    fn timing_only_queue_skips_execution() {
        let ctx = Context::new(fake_device());
        let q = CommandQueue::new_timing_only(&ctx);
        let cfg = KernelConfig::baseline(StreamOp::Copy, 256);
        let p = Program::build(&ctx, cfg).unwrap();
        let a = Buffer::new(&ctx, MemFlags::WriteOnly, 1024).unwrap();
        let b = Buffer::new(&ctx, MemFlags::ReadOnly, 1024).unwrap();
        let k = Kernel::new(&p, &a, &b, None).unwrap();
        let ev = q.enqueue_kernel(&k).unwrap();
        assert!(ev.duration_ns() > 0.0);
        // Nothing was materialized: buffers read back as zeroes via a
        // functional queue on the same context.
        let q2 = CommandQueue::new(&ctx);
        let mut out = vec![0xFFu8; 1024];
        q2.enqueue_read(&a, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn events_are_monotone() {
        let (ctx, q) = setup();
        let buf = Buffer::new(&ctx, MemFlags::ReadWrite, 16).unwrap();
        let mut last_end = 0.0;
        for _ in 0..5 {
            let ev = q.enqueue_write(&buf, &[0u8; 16]).unwrap();
            assert!(ev.queued_ns >= last_end);
            assert!(ev.queued_ns <= ev.submit_ns);
            assert!(ev.submit_ns <= ev.start_ns);
            assert!(ev.start_ns <= ev.end_ns);
            last_end = ev.end_ns;
        }
        assert_eq!(q.finish(), last_end);
    }

    #[test]
    fn cross_context_objects_rejected() {
        let (ctx1, q1) = setup();
        let ctx2 = Context::new(fake_device());
        let buf2 = Buffer::new(&ctx2, MemFlags::ReadWrite, 4).unwrap();
        assert_eq!(
            q1.enqueue_write(&buf2, &[0u8; 4]).unwrap_err(),
            ClError::InvalidContext
        );
        let cfg = KernelConfig::baseline(StreamOp::Copy, 256);
        let p2 = Program::build(&ctx2, cfg).unwrap();
        let a2 = Buffer::new(&ctx2, MemFlags::WriteOnly, 1024).unwrap();
        let b2 = Buffer::new(&ctx2, MemFlags::ReadOnly, 1024).unwrap();
        let k2 = Kernel::new(&p2, &a2, &b2, None).unwrap();
        assert_eq!(q1.enqueue_kernel(&k2).unwrap_err(), ClError::InvalidContext);
        let _ = ctx1;
    }

    #[test]
    fn copy_buffer_moves_data_and_time() {
        let (ctx, q) = setup();
        let src = Buffer::new(&ctx, MemFlags::ReadOnly, 8).unwrap();
        let dst = Buffer::new(&ctx, MemFlags::WriteOnly, 8).unwrap();
        q.enqueue_write(&src, &[9, 8, 7, 6, 5, 4, 3, 2]).unwrap();
        let ev = q.enqueue_copy(&src, &dst).unwrap();
        assert!(ev.duration_ns() > 0.0);
        assert_eq!(ev.dram_bytes, 16, "read + write traffic");
        let mut out = [0u8; 8];
        q.enqueue_read(&dst, &mut out).unwrap();
        assert_eq!(out, [9, 8, 7, 6, 5, 4, 3, 2]);
    }

    #[test]
    fn copy_buffer_rejects_mismatch_and_self_copy() {
        let (ctx, q) = setup();
        let a = Buffer::new(&ctx, MemFlags::ReadWrite, 8).unwrap();
        let b = Buffer::new(&ctx, MemFlags::ReadWrite, 16).unwrap();
        assert!(matches!(
            q.enqueue_copy(&a, &b),
            Err(ClError::InvalidValue(_))
        ));
        assert_eq!(q.enqueue_copy(&a, &a).unwrap_err(), ClError::MemCopyOverlap);
    }

    #[test]
    fn fill_buffer_repeats_pattern() {
        let (ctx, q) = setup();
        let buf = Buffer::new(&ctx, MemFlags::ReadWrite, 8).unwrap();
        q.enqueue_fill(&buf, &[0xAB, 0xCD]).unwrap();
        let mut out = [0u8; 8];
        q.enqueue_read(&buf, &mut out).unwrap();
        assert_eq!(out, [0xAB, 0xCD, 0xAB, 0xCD, 0xAB, 0xCD, 0xAB, 0xCD]);
        // Pattern that does not divide the buffer is rejected.
        assert!(matches!(
            q.enqueue_fill(&buf, &[1, 2, 3]),
            Err(ClError::InvalidValue(_))
        ));
        assert!(matches!(
            q.enqueue_fill(&buf, &[]),
            Err(ClError::InvalidValue(_))
        ));
    }

    #[test]
    fn command_log_records_every_command_in_order() {
        let (ctx, q) = setup();
        let n = 256u64;
        let cfg = KernelConfig::baseline(StreamOp::Copy, n);
        let p = Program::build(&ctx, cfg).unwrap();
        let a = Buffer::new(&ctx, MemFlags::WriteOnly, n * 4).unwrap();
        let b = Buffer::new(&ctx, MemFlags::ReadOnly, n * 4).unwrap();
        q.enqueue_write(&b, &vec![0u8; (n * 4) as usize]).unwrap();
        let k = Kernel::new(&p, &a, &b, None).unwrap();
        q.enqueue_kernel(&k).unwrap();
        let mut out = vec![0u8; (n * 4) as usize];
        q.enqueue_read(&a, &mut out).unwrap();

        let log = q.log_snapshot();
        let kinds: Vec<CmdKind> = log.iter().map(|r| r.kind).collect();
        assert_eq!(kinds, [CmdKind::Write, CmdKind::Kernel, CmdKind::Read]);
        assert!(log.iter().all(|r| !r.aborted));
        // take_log drains.
        assert_eq!(q.take_log().len(), 3);
        assert!(q.log_snapshot().is_empty());
    }

    #[test]
    fn injected_timeout_logs_aborted_record_with_timestamps() {
        // Regression: the profiling timestamps of a timed-out launch used
        // to be computed and then dropped; they must survive in the log
        // with the `aborted` flag so traces can show the lost time.
        use crate::fault::{FaultPlan, FaultSpec};
        let plan = Arc::new(FaultPlan::new(FaultSpec::parse("timeout=0.95").unwrap(), 7));
        let ctx = Context::with_faults(fake_device(), Some(plan));
        let q = CommandQueue::new(&ctx);
        let cfg = KernelConfig::baseline(StreamOp::Copy, 256);
        let p = Program::build(&ctx, cfg).unwrap();
        let a = Buffer::new(&ctx, MemFlags::WriteOnly, 1024).unwrap();
        let b = Buffer::new(&ctx, MemFlags::ReadOnly, 1024).unwrap();
        let k = Kernel::new(&p, &a, &b, None).unwrap();

        // At 95% per attempt one of the first launches times out.
        let timed_out = (0..20).any(|_| matches!(q.enqueue_kernel(&k), Err(ClError::Timeout(_))));
        assert!(timed_out, "no timeout in 20 draws at p=0.95");
        let log = q.take_log();
        let rec = log
            .iter()
            .find(|r| r.aborted)
            .expect("timed-out launch must be logged with the aborted flag");
        assert_eq!(rec.kind, CmdKind::Kernel);
        // The device spent real (simulated) time before the host gave up.
        assert!(rec.event.duration_ns() > 0.0);
        assert!(rec.event.start_ns > rec.event.submit_ns);
        // The in-order queue clock moved past every aborted command.
        assert_eq!(q.now_ns(), log.last().unwrap().event.end_ns);
    }

    #[test]
    fn injected_device_loss_leaves_no_record() {
        use crate::fault::{FaultPlan, FaultSpec};
        let plan = Arc::new(FaultPlan::new(FaultSpec::parse("lost=0.95").unwrap(), 7));
        let ctx = Context::with_faults(fake_device(), Some(plan));
        let q = CommandQueue::new(&ctx);
        let cfg = KernelConfig::baseline(StreamOp::Copy, 256);
        let p = Program::build(&ctx, cfg).unwrap();
        let a = Buffer::new(&ctx, MemFlags::WriteOnly, 1024).unwrap();
        let b = Buffer::new(&ctx, MemFlags::ReadOnly, 1024).unwrap();
        let k = Kernel::new(&p, &a, &b, None).unwrap();
        let lost = (0..20).any(|_| matches!(q.enqueue_kernel(&k), Err(ClError::DeviceLost)));
        assert!(lost, "no device loss in 20 draws at p=0.95");
        // Lost launches never reach the device: only completed launches
        // (if any) appear in the log, none flagged aborted.
        assert!(q.take_log().iter().all(|r| !r.aborted));
    }

    /// A Scale kernel over `n` i32 words, its destination and source
    /// (written with `b[i] = i`).
    fn scale_setup(ctx: &Context, q: &CommandQueue, n: u64) -> (Kernel, Buffer, Buffer) {
        let p = Program::build(ctx, KernelConfig::baseline(StreamOp::Scale, n)).unwrap();
        let a = Buffer::new(ctx, MemFlags::WriteOnly, n * 4).unwrap();
        let b = Buffer::new(ctx, MemFlags::ReadOnly, n * 4).unwrap();
        let host_b: Vec<u8> = (0..n).flat_map(|i| (i as i32).to_ne_bytes()).collect();
        q.enqueue_write(&b, &host_b).unwrap();
        let k = Kernel::new(&p, &a, &b, None).unwrap();
        (k, a, b)
    }

    fn read_all(q: &CommandQueue, buf: &Buffer) -> Vec<u8> {
        let mut out = vec![0u8; buf.len() as usize];
        q.enqueue_read(buf, &mut out).unwrap();
        out
    }

    #[test]
    fn repeated_launches_keep_only_the_last_bit_flip() {
        use crate::fault::{FaultPlan, FaultSpec};
        let spec = FaultSpec::parse("bitflip=0.5").unwrap();
        let n = 256u64;
        let (mut flipped, mut clean) = (0, 0);
        for (seed, launches) in (1..=12u64).zip((1..=4).cycle()) {
            let plan = Arc::new(FaultPlan::new(spec, seed));
            let ctx = Context::with_faults(fake_device(), Some(Arc::clone(&plan)));
            let q = CommandQueue::new(&ctx);
            let (k, a, b) = scale_setup(&ctx, &q, n);
            for _ in 0..launches {
                q.enqueue_kernel(&k).unwrap();
            }
            let got = read_all(&q, &a);
            assert_eq!(ctx.executed_launches(), 1);

            // The eager reference: execute once, then apply the flip the
            // last launch drew, with every roll replayed on a twin plan.
            let twin = FaultPlan::new(spec, seed);
            let key = format!("{}:{:?}", ctx.device().info().name, k.plan().cfg);
            let mut last_flip = None;
            for _ in 0..launches {
                assert!(twin.inject_enqueue_fault(&key).is_none());
                last_flip = twin.inject_bit_flip(&key, n * 4);
            }
            let mut expect = vec![0u8; (n * 4) as usize];
            kernelgen::execute(&k.plan().cfg, &mut expect, &read_all(&q, &b), &[]);
            match last_flip {
                Some(off) => {
                    expect[off as usize] ^= 1;
                    flipped += 1;
                }
                None => clean += 1,
            }
            assert_eq!(got, expect, "seed {seed}, {launches} launches");
            assert_eq!(plan.counters().bit_flip, twin.counters().bit_flip);
        }
        assert!(flipped > 0 && clean > 0, "both outcomes must be exercised");
    }

    #[test]
    fn second_queue_on_the_context_reads_the_settled_result() {
        let (ctx, q) = setup();
        let (k, a, _b) = scale_setup(&ctx, &q, 64);
        q.enqueue_kernel(&k).unwrap();
        q.enqueue_kernel(&k).unwrap();
        let other = CommandQueue::new(&ctx);
        let out = read_all(&other, &a);
        let fifth = i32::from_ne_bytes(out[20..24].try_into().unwrap());
        assert_eq!(fifth, 15, "a[5] = 3 * b[5]");
        assert_eq!(ctx.executed_launches(), 1);
        assert_eq!(q.take_log().len(), 3, "write + two launches");
    }

    #[test]
    fn dropping_the_destination_discards_a_pending_launch() {
        let (ctx, q) = setup();
        let (k, a, b) = scale_setup(&ctx, &q, 64);
        q.enqueue_kernel(&k).unwrap();
        drop(a);
        read_all(&q, &b);
        drop(b);
        assert_eq!(ctx.executed_launches(), 0, "nothing could observe it");
    }

    #[test]
    fn dropping_a_source_settles_a_pending_launch_first() {
        let (ctx, q) = setup();
        let (k, a, b) = scale_setup(&ctx, &q, 64);
        q.enqueue_kernel(&k).unwrap();
        drop(b);
        assert_eq!(ctx.executed_launches(), 1);
        let out = read_all(&q, &a);
        assert_eq!(i32::from_ne_bytes(out[4..8].try_into().unwrap()), 3);
    }

    #[test]
    fn chained_kernels_read_the_settled_destination() {
        let (ctx, q) = setup();
        let n = 64u64;
        let (k1, a, _b) = scale_setup(&ctx, &q, n);
        let p2 = Program::build(&ctx, KernelConfig::baseline(StreamOp::Scale, n)).unwrap();
        let d = Buffer::new(&ctx, MemFlags::WriteOnly, n * 4).unwrap();
        let k2 = Kernel::new(&p2, &d, &a, None).unwrap();
        q.enqueue_kernel(&k1).unwrap();
        q.enqueue_kernel(&k2).unwrap();
        q.enqueue_kernel(&k2).unwrap();
        let out = read_all(&q, &d);
        for i in 0..n as usize {
            let v = i32::from_ne_bytes(out[i * 4..i * 4 + 4].try_into().unwrap());
            assert_eq!(v, 9 * i as i32, "d[{i}] = 3 * (3 * b[{i}])");
        }
        assert_eq!(ctx.executed_launches(), 2, "one per distinct launch");
    }

    #[test]
    fn wall_time_includes_overheads() {
        let (ctx, q) = setup();
        let cfg = KernelConfig::baseline(StreamOp::Copy, 256);
        let p = Program::build(&ctx, cfg).unwrap();
        let a = Buffer::new(&ctx, MemFlags::WriteOnly, 1024).unwrap();
        let b = Buffer::new(&ctx, MemFlags::ReadOnly, 1024).unwrap();
        let k = Kernel::new(&p, &a, &b, None).unwrap();
        let ev = q.enqueue_kernel(&k).unwrap();
        assert!(ev.wall_ns() > ev.duration_ns());
        assert!((ev.wall_ns() - (300.0 + 1000.0 + ev.duration_ns())).abs() < 1e-9);
    }
}
