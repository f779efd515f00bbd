//! # memsim — memory-system simulation building blocks
//!
//! This crate provides the timed models out of which the MP-STREAM device
//! targets (CPU, GPU, and the two OpenCL FPGAs) are composed:
//!
//! * [`dram`] — a banked, multi-channel DRAM with row-buffer state,
//!   read/write bus turnaround and refresh, timed in DRAM bus cycles;
//! * [`cache`] — set-associative write-back, write-allocate caches;
//! * [`tlb`] — a small translation look-aside buffer;
//! * [`prefetch`] — a stream prefetcher that detects sequential miss
//!   streams and hides DRAM latency for contiguous traversals;
//! * [`link`] — a packetized latency/bandwidth link used for the PCIe
//!   host–device interconnect and for kernel-launch control transfers;
//! * [`coalesce`] — a request coalescer merging adjacent word accesses
//!   into wide memory transactions (GPU warps, FPGA vector ports);
//! * [`hierarchy`] — a composed cache hierarchy + DRAM with a
//!   bounded-MLP (memory-level-parallelism) event-driven cost model.
//!
//! All models are *deterministic*: the same access stream always produces
//! the same cycle counts, which keeps the benchmark reproducible and the
//! tests meaningful.
//!
//! Addresses are plain `u64` byte addresses in a flat simulated physical
//! address space; time is carried either in cycles of a model-local clock
//! (see [`clock::Freq`]) or in nanoseconds.

pub mod cache;
pub mod clock;
pub mod coalesce;
pub mod controller;
pub mod dram;
pub mod hierarchy;
pub mod link;
pub mod prefetch;
pub mod req;
pub mod slowpath;
pub mod stats;
pub mod tlb;

pub use cache::{Cache, CacheConfig};
pub use clock::Freq;
pub use coalesce::{BufferedCoalesce, CoalesceMode, Coalescer};
pub use controller::{
    interleaved_trace, MemoryController, ReplayOutcome, SchedPolicy, TimedRequest,
};
pub use dram::{Dram, DramConfig};
pub use hierarchy::{
    MemHierarchy, MemHierarchyConfig, PrefetchConfig, StreamOutcome, TlbConfig, WritePolicy,
};
pub use link::{Link, LinkConfig};
pub use prefetch::StreamPrefetcher;
pub use req::{Access, AccessKind};
pub use stats::MemStats;
