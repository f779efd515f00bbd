//! Contexts and device memory objects.
//!
//! A [`Context`] owns a flat simulated device address space. [`Buffer`]s
//! are allocated out of it with a bump allocator (aligned generously, as
//! real runtimes do) and are *really backed by host memory* — lazily, on
//! first functional touch — so kernel launches can compute real results
//! for STREAM-style validation without timing-only runs paying for
//! gigabytes of zeroed pages.
//!
//! **Deferred launches.** As in OpenCL, buffer contents are defined only
//! where the host can observe them, so a functional launch is not
//! executed at enqueue time: the context keeps it as its one pending
//! launch. Every memory access through the context — a mapped or
//! copying transfer, a copy, a fill — first *settles* it (executes the
//! kernel, then applies the launch's injected bit flip, if any). So does
//! a launch of a different plan, and freeing one of the launch's
//! sources; freeing its destination discards it unexecuted. A repeat of
//! the pending plan replaces it and keeps only its own flip: every op
//! overwrites its whole destination as a pure function of its sources,
//! so executing once yields exactly the bytes of executing every repeat,
//! and the last repeat's flip is the only one an eager run would leave
//! standing. Every queue on the context therefore sees settled memory,
//! and a timed loop of `ntimes` identical launches runs the interpreter
//! once, when its result is read.
//!
//! **Recycled backings.** A freed allocation's bytes go to a
//! process-wide spare list; materializing an allocation takes a spare of
//! exactly its length (zeroed) or, if none fits, empties the list and
//! allocates fresh. The retained bytes are thus bounded by what was live
//! at the last miss, and repeated same-sized runs reuse the same pages.

use crate::error::ClError;
use crate::fault::FaultPlan;
use crate::platform::Device;
use kernelgen::ExecPlan;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;

static NEXT_CTX_ID: AtomicU64 = AtomicU64::new(1);

/// Backing stores of freed allocations, awaiting reuse by an allocation
/// of the same length. Locked only while a context's memory lock is
/// held, never the other way round.
static SPARES: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());

/// Buffer allocation alignment (a page, as GPU/FPGA allocators use).
pub const BUFFER_ALIGN: u64 = 4096;

/// OpenCL-style memory flags (access intent; the simulator does not
/// enforce read-only from kernels, matching how most runtimes behave).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemFlags {
    /// `CL_MEM_READ_ONLY` — kernel reads only.
    ReadOnly,
    /// `CL_MEM_WRITE_ONLY` — kernel writes only.
    WriteOnly,
    /// `CL_MEM_READ_WRITE`.
    ReadWrite,
}

#[derive(Debug, Default)]
struct Alloc {
    len: u64,
    /// Backing bytes; `None` until first functional access.
    data: Option<Vec<u8>>,
}

/// A functional launch not yet executed (see the module docs).
#[derive(Debug)]
struct PendingLaunch {
    plan: ExecPlan,
    /// Byte offset of the bit flip this launch drew, if any.
    flip: Option<u64>,
}

#[derive(Debug, Default)]
struct MemSpace {
    next: u64,
    used: u64,
    allocs: HashMap<u64, Alloc>,
    pending: Option<PendingLaunch>,
    /// Launches settled so far (interpreter runs).
    executed: u64,
}

impl MemSpace {
    /// The bytes of the allocation at `base`, materialized (zeroed) if
    /// never touched.
    fn bytes(&mut self, base: u64) -> &mut Vec<u8> {
        let alloc = self.allocs.get_mut(&base).expect("access to freed buffer");
        let len = alloc.len as usize;
        alloc.data.get_or_insert_with(|| zeroed(len))
    }

    /// Execute the pending launch, if any, and apply its bit flip.
    fn settle(&mut self) {
        let Some(PendingLaunch { plan, flip }) = self.pending.take() else {
            return;
        };
        let base_c = plan.cfg.op.uses_c().then_some(plan.base_c);
        for base in [Some(plan.base_b), base_c].into_iter().flatten() {
            self.bytes(base);
        }
        // Take the destination out so the sources can be borrowed shared.
        let mut a = std::mem::take(self.bytes(plan.base_a));
        let source = |base| self.allocs[&base].data.as_deref().expect("materialized");
        let c = base_c.map(source).unwrap_or(&[]);
        kernelgen::execute(&plan.cfg, &mut a, source(plan.base_b), c);
        if let Some(off) = flip {
            // Silent data corruption, for STREAM verification to catch.
            let last = a.len() - 1;
            a[(off as usize).min(last)] ^= 1;
        }
        *self.bytes(plan.base_a) = a;
        self.executed += 1;
    }
}

/// A zeroed backing of `len` bytes: a recycled spare of exactly that
/// length, or a fresh allocation after dropping every spare.
fn zeroed(len: usize) -> Vec<u8> {
    let mut spares = SPARES.lock().expect("mpcl mutex poisoned");
    match spares.iter().position(|s| s.len() == len) {
        Some(i) => {
            let mut spare = spares.swap_remove(i);
            spare.fill(0);
            spare
        }
        None => {
            spares.clear();
            vec![0; len]
        }
    }
}

struct CtxInner {
    device: Device,
    mem: Mutex<MemSpace>,
    id: u64,
    faults: Option<Arc<FaultPlan>>,
}

/// An OpenCL-style context for one device.
#[derive(Clone)]
pub struct Context {
    inner: Arc<CtxInner>,
}

impl Context {
    /// Create a context on `device`.
    pub fn new(device: Device) -> Self {
        Context::with_faults(device, None)
    }

    /// Create a context on `device` with an optional fault-injection
    /// plan; builds and enqueues through this context consult the plan.
    pub fn with_faults(device: Device, faults: Option<Arc<FaultPlan>>) -> Self {
        Context {
            inner: Arc::new(CtxInner {
                device,
                mem: Mutex::new(MemSpace {
                    next: BUFFER_ALIGN,
                    ..Default::default()
                }),
                id: NEXT_CTX_ID.fetch_add(1, Ordering::Relaxed),
                faults,
            }),
        }
    }

    /// The device this context was created on.
    pub fn device(&self) -> &Device {
        &self.inner.device
    }

    /// The fault-injection plan active on this context, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.inner.faults.as_ref()
    }

    /// Stable identity (used to reject cross-context object mixing).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Bytes currently allocated to buffers.
    pub fn allocated_bytes(&self) -> u64 {
        self.mem().used
    }

    /// Functional kernel launches actually executed on this context so
    /// far: one per settled launch (see the module docs), so a timed
    /// loop of identical launches read once counts one.
    pub fn executed_launches(&self) -> u64 {
        self.mem().executed
    }

    /// Create an on-chip channel/pipe of `depth` slots between two
    /// kernels on this context (AOCL `channel`, SDAccel `pipe`). Depth 0
    /// is legal and models AOCL's fused producer→consumer pair.
    pub fn create_channel(&self, depth: u32) -> crate::channel::Channel {
        crate::channel::Channel::new(self.id(), depth)
    }

    fn mem(&self) -> std::sync::MutexGuard<'_, MemSpace> {
        self.inner.mem.lock().expect("mpcl mutex poisoned")
    }

    fn alloc(&self, len: u64) -> Result<u64, ClError> {
        let limit = self.inner.device.info().global_mem_bytes;
        if len == 0 {
            return Err(ClError::InvalidBufferSize {
                requested: 0,
                limit,
            });
        }
        let mut mem = self.mem();
        if mem.used + len > limit {
            return Err(ClError::InvalidBufferSize {
                requested: len,
                limit,
            });
        }
        let base = mem.next;
        let span = len.div_ceil(BUFFER_ALIGN) * BUFFER_ALIGN;
        mem.next += span;
        mem.used += len;
        mem.allocs.insert(base, Alloc { len, data: None });
        Ok(base)
    }

    /// Free the allocation at `base`: a pending launch writing it is
    /// discarded, one reading it settles first. The backing, if any,
    /// becomes a spare.
    fn free(&self, base: u64) {
        let mut mem = self.mem();
        if let Some(p) = &mem.pending {
            let plan = &p.plan;
            if plan.base_a == base {
                mem.pending = None;
            } else if plan.base_b == base || (plan.cfg.op.uses_c() && plan.base_c == base) {
                mem.settle();
            }
        }
        if let Some(a) = mem.allocs.remove(&base) {
            mem.used -= a.len;
            if let Some(data) = a.data {
                SPARES.lock().expect("mpcl mutex poisoned").push(data);
            }
        }
    }

    /// Run `f` on the whole allocation at `base`, in place, under the
    /// memory lock (the functional half of transfers, copies and
    /// fills), after settling any pending launch. The allocation
    /// materializes zeroed if it was never written.
    pub(crate) fn with_bytes<R>(&self, base: u64, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let mut mem = self.mem();
        mem.settle();
        f(mem.bytes(base))
    }

    /// Make `plan` the pending launch, with the bit flip it drew (the
    /// functional half of a kernel launch). A repeat of the pending plan
    /// replaces it; any other pending launch settles first.
    pub(crate) fn defer_launch(&self, plan: &ExecPlan, flip: Option<u64>) {
        let mut mem = self.mem();
        if let Some(p) = mem.pending.as_mut().filter(|p| p.plan == *plan) {
            p.flip = flip;
            return;
        }
        mem.settle();
        mem.pending = Some(PendingLaunch {
            plan: plan.clone(),
            flip,
        });
    }
}

impl std::fmt::Debug for Context {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Context")
            .field("device", &self.inner.device.info().name)
            .field("id", &self.inner.id)
            .finish()
    }
}

/// A device memory object.
///
/// Dropping the buffer frees its device allocation (like
/// `clReleaseMemObject` with no outstanding references).
#[derive(Debug)]
pub struct Buffer {
    ctx: Context,
    base: u64,
    len: u64,
    flags: MemFlags,
}

impl Buffer {
    /// Allocate `len` bytes on the context's device.
    pub fn new(ctx: &Context, flags: MemFlags, len: u64) -> Result<Self, ClError> {
        let base = ctx.alloc(len)?;
        Ok(Buffer {
            ctx: ctx.clone(),
            base,
            len,
            flags,
        })
    }

    /// Size in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Buffers are never zero-sized (allocation rejects it).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Device base address (used by execution plans).
    pub fn device_addr(&self) -> u64 {
        self.base
    }

    /// Access flags.
    pub fn flags(&self) -> MemFlags {
        self.flags
    }

    /// The owning context.
    pub fn context(&self) -> &Context {
        &self.ctx
    }
}

impl Drop for Buffer {
    fn drop(&mut self) {
        self.ctx.free(self.base);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::test_support::fake_device;

    fn ctx() -> Context {
        Context::new(fake_device())
    }

    #[test]
    fn alloc_and_addresses_are_aligned_and_disjoint() {
        let c = ctx();
        let b1 = Buffer::new(&c, MemFlags::ReadOnly, 100).unwrap();
        let b2 = Buffer::new(&c, MemFlags::ReadWrite, 100).unwrap();
        assert_eq!(b1.device_addr() % BUFFER_ALIGN, 0);
        assert_eq!(b2.device_addr() % BUFFER_ALIGN, 0);
        assert!(b2.device_addr() >= b1.device_addr() + BUFFER_ALIGN);
    }

    #[test]
    fn zero_sized_buffer_rejected() {
        let c = ctx();
        assert!(matches!(
            Buffer::new(&c, MemFlags::ReadOnly, 0),
            Err(ClError::InvalidBufferSize { .. })
        ));
    }

    #[test]
    fn over_capacity_rejected() {
        let c = ctx(); // fake device has 1 GiB
        assert!(Buffer::new(&c, MemFlags::ReadOnly, 2 << 30).is_err());
    }

    #[test]
    fn capacity_tracks_frees() {
        let c = ctx();
        {
            let _b = Buffer::new(&c, MemFlags::ReadOnly, 512 << 20).unwrap();
            assert_eq!(c.allocated_bytes(), 512 << 20);
            assert!(Buffer::new(&c, MemFlags::ReadOnly, 768 << 20).is_err());
        }
        assert_eq!(c.allocated_bytes(), 0);
        assert!(Buffer::new(&c, MemFlags::ReadOnly, 768 << 20).is_ok());
    }

    #[test]
    fn write_then_read_round_trips() {
        let c = ctx();
        let b = Buffer::new(&c, MemFlags::ReadWrite, 8).unwrap();
        c.with_bytes(b.device_addr(), |d| {
            d.copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8])
        });
        let out = c.with_bytes(b.device_addr(), |d| d.to_vec());
        assert_eq!(out, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn unwritten_buffer_reads_zeroes() {
        let c = ctx();
        let b = Buffer::new(&c, MemFlags::ReadOnly, 4).unwrap();
        let out = c.with_bytes(b.device_addr(), |d| d.to_vec());
        assert_eq!(out, [0; 4]);
    }

    #[test]
    fn deferred_launch_settles_on_access_and_counts_once() {
        use kernelgen::{KernelConfig, StreamOp};
        let c = ctx();
        let a = Buffer::new(&c, MemFlags::WriteOnly, 4).unwrap();
        let b = Buffer::new(&c, MemFlags::ReadOnly, 4).unwrap();
        c.with_bytes(b.device_addr(), |d| d.copy_from_slice(&7i32.to_ne_bytes()));
        let cfg = KernelConfig::baseline(StreamOp::Copy, 1);
        let plan = ExecPlan::new(cfg, a.device_addr(), b.device_addr(), 0);
        for _ in 0..3 {
            c.defer_launch(&plan, None);
        }
        assert_eq!(c.executed_launches(), 0, "nothing observed yet");
        let out = c.with_bytes(a.device_addr(), |d| d.to_vec());
        assert_eq!(out, 7i32.to_ne_bytes());
        assert_eq!(c.executed_launches(), 1, "three repeats, one execution");
        c.with_bytes(a.device_addr(), |_| ());
        assert_eq!(c.executed_launches(), 1, "settled launches stay settled");
    }

    #[test]
    fn recycled_backing_of_a_filled_buffer_maps_as_zeroes() {
        // A length no other test allocates, so the spare is this test's
        // own unless a concurrent miss empties the list (then the
        // backing is fresh, and zeroed all the same).
        let len = 3 * 4096 + 17;
        let c = ctx();
        for _ in 0..3 {
            let b = Buffer::new(&c, MemFlags::ReadWrite, len).unwrap();
            let zeroes = c.with_bytes(b.device_addr(), |d| {
                let clean = d.iter().all(|&x| x == 0);
                d.fill(0xA5);
                clean
            });
            assert!(zeroes, "a new buffer must read as zeroes");
        }
        assert_eq!(c.allocated_bytes(), 0);
    }
}
