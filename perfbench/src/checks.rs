//! Output checks and bit-exact digests of simulated measurements.

use mpcl::ClError;
use mpstream_core::engine::fnv1a;
use mpstream_core::rng::SplitMix64;
use mpstream_core::{BenchConfig, Measurement, Outcome, Runner};
use targets::TargetId;

/// Points per check group re-run on the reference slow path.
pub const SLOW_PATH_SAMPLE: usize = 3;

/// Digest of every field `Measurement` equality compares: GB/s, wall,
/// kernel, build and transfer times, DRAM bytes and row counters, energy,
/// synthesis results and the validation verdict.
pub fn measurement_digest(m: &Measurement) -> u64 {
    let mut bytes = Vec::with_capacity(256);
    bytes.extend_from_slice(m.device.as_bytes());
    bytes.extend_from_slice(&fnv1a(m.build_log.as_bytes()).to_le_bytes());
    for f in [
        m.gbps(),
        m.best_wall_ns,
        m.avg_wall_ns,
        m.best_kernel_ns,
        m.kernel_ns,
        m.xfer_ns,
        m.stall_ns,
        m.build_ns,
        m.energy_j.unwrap_or(-1.0),
        m.fmax_mhz.unwrap_or(-1.0),
    ] {
        bytes.extend_from_slice(&f.to_bits().to_le_bytes());
    }
    for n in [
        m.bytes_moved,
        m.dram_bytes_per_launch,
        m.row_hits,
        m.row_misses,
        m.row_empty,
        m.resources.map_or(u64::MAX, |r| r.logic),
        m.resources.map_or(u64::MAX, |r| r.bram),
        m.resources.map_or(u64::MAX, |r| r.dsp),
    ] {
        bytes.extend_from_slice(&n.to_le_bytes());
    }
    bytes.push(match m.validated {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    });
    fnv1a(&bytes)
}

/// Digest of an outcome: the measurement's, or the error's code and text.
pub fn outcome_digest(o: &Outcome) -> u64 {
    match &o.result {
        Ok(m) => measurement_digest(m),
        Err(e) => fnv1a(format!("{}:{}", e.code(), e.detail()).as_bytes()),
    }
}

/// A point passes when it finished (measured, or rejected by the synthesis
/// model), every validation it ran passed, and it stays under the
/// device's peak bandwidth.
pub fn point(o: &Outcome, peak_gbps: f64) -> Result<(), String> {
    match &o.result {
        Err(ClError::BuildProgramFailure(_)) => Ok(()),
        Err(e) => Err(format!("error {}", e.code())),
        Ok(m) if m.validated == Some(false) => Err("validation failed".into()),
        Ok(m) if m.gbps().is_nan() || m.gbps() > peak_gbps => {
            Err(format!("{:.3} GB/s above peak {peak_gbps:.3}", m.gbps()))
        }
        Ok(_) => Ok(()),
    }
}

/// `k` distinct indices in `0..n`, drawn with `seed`, in ascending order.
pub fn sample_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed);
    let mut all: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = i + (rng.next_u64() % (n - i) as u64) as usize;
        all.swap(i, j);
    }
    let mut picked = all[..k].to_vec();
    picked.sort_unstable();
    picked
}

/// Re-run `bc` with the simulator forced onto its per-request reference
/// path (which also bypasses the kernel-cost memo) and require the same
/// measurement as `o`.
pub fn slow_path(target: TargetId, bc: &BenchConfig, o: &Outcome) -> Result<(), String> {
    memsim::slowpath::force(true);
    let slow = Runner::for_target(target).run(bc);
    memsim::slowpath::force(false);
    // Digests compare measurements field by field, and errors (synthesis
    // rejections) by code and text.
    if outcome_digest(o) == outcome_digest(&Outcome::new(bc.kernel.clone(), slow)) {
        Ok(())
    } else {
        Err("slow path outcome differs".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_seeded_and_distinct() {
        let a = sample_indices(100, 5, 7);
        assert_eq!(a, sample_indices(100, 5, 7));
        assert_ne!(a, sample_indices(100, 5, 8));
        let mut d = a.clone();
        d.dedup();
        assert_eq!(d.len(), 5);
        assert_eq!(sample_indices(2, 5, 1), vec![0, 1]);
    }

    #[test]
    fn digest_sees_every_counter() {
        let m = Measurement::synthetic(10.0);
        let mut n = m.clone();
        n.row_misses += 1;
        assert_ne!(measurement_digest(&m), measurement_digest(&n));
        assert_eq!(measurement_digest(&m), measurement_digest(&m.clone()));
    }

    #[test]
    fn over_peak_and_failed_validation_fail() {
        let ok = Outcome::new(
            kernelgen::KernelConfig::baseline(kernelgen::StreamOp::Copy, 16),
            Ok(Measurement::synthetic(5.0)),
        );
        assert!(point(&ok, 10.0).is_ok());
        assert!(point(&ok, 4.0).is_err());
        let mut bad = ok.clone();
        if let Ok(m) = &mut bad.result {
            m.validated = Some(false);
        }
        assert!(point(&bad, 10.0).is_err());
    }
}
