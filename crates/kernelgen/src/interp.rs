//! Functional execution of STREAM kernels over raw byte buffers.
//!
//! Every simulated kernel launch really computes its result, so the
//! benchmark runner can validate output arrays exactly like the original
//! STREAM's `checkSTREAMresults`. Execution follows the configuration's
//! traversal order (so index-arithmetic bugs in a pattern would corrupt
//! results and fail validation, rather than hiding behind an elementwise
//! shortcut), with a fast path for the contiguous pattern.
//!
//! The HPCC ops are the exception: their host loop order is independent
//! of their simulated access stream. Timing comes from the access
//! stream, which walks DGEMM-lite as one dot product per output, while
//! the interpreter computes DGEMM-lite one output row at a time (i-k-j)
//! so its inner loop reads contiguous rows of `c`. Both orders give the
//! same bits: the arithmetic is wrapping `i32`, whose addition is
//! associative and commutative, so every summation order agrees.

use crate::access::IndexOrder;
use crate::ir::{gups_index, DataType, KernelConfig, Op, StreamOp};

/// An element type the kernels operate on.
trait Element: Copy {
    const BYTES: usize;
    fn from_q(q: f64) -> Self;
    fn load(bytes: &[u8]) -> Self;
    fn store(self, bytes: &mut [u8]);
    fn mul(self, other: Self) -> Self;
    fn add(self, other: Self) -> Self;
}

impl Element for i32 {
    const BYTES: usize = 4;
    fn from_q(q: f64) -> Self {
        q as i32
    }
    fn load(bytes: &[u8]) -> Self {
        i32::from_ne_bytes(bytes[..4].try_into().expect("4 bytes"))
    }
    fn store(self, bytes: &mut [u8]) {
        bytes[..4].copy_from_slice(&self.to_ne_bytes());
    }
    fn mul(self, other: Self) -> Self {
        self.wrapping_mul(other)
    }
    fn add(self, other: Self) -> Self {
        self.wrapping_add(other)
    }
}

impl Element for f64 {
    const BYTES: usize = 8;
    fn from_q(q: f64) -> Self {
        q
    }
    fn load(bytes: &[u8]) -> Self {
        f64::from_ne_bytes(bytes[..8].try_into().expect("8 bytes"))
    }
    fn store(self, bytes: &mut [u8]) {
        bytes[..8].copy_from_slice(&self.to_ne_bytes());
    }
    fn mul(self, other: Self) -> Self {
        self * other
    }
    fn add(self, other: Self) -> Self {
        self + other
    }
}

/// Execute the kernel described by `cfg`: `a` is the destination buffer,
/// `b` and `c` the sources (`c` may be empty for COPY/SCALE). Buffer
/// lengths must be at least [`KernelConfig::array_bytes`].
///
/// # Panics
/// Panics if a buffer is too short — the runtime layer (mpcl) validates
/// sizes before dispatching, mirroring `CL_INVALID_BUFFER_SIZE`.
pub fn execute(cfg: &KernelConfig, a: &mut [u8], b: &[u8], c: &[u8]) {
    let need = cfg.array_bytes() as usize;
    assert!(
        a.len() >= need,
        "destination buffer too small: {} < {need}",
        a.len()
    );
    assert!(b.len() >= need, "source b too small: {} < {need}", b.len());
    if cfg.op.uses_c() {
        assert!(c.len() >= need, "source c too small: {} < {need}", c.len());
    }
    if !cfg.op.is_stream() {
        execute_hpcc(cfg, a, b, c);
        return;
    }
    match cfg.dtype {
        DataType::I32 => execute_typed::<i32>(cfg, a, b, c),
        DataType::F64 => execute_typed::<f64>(cfg, a, b, c),
    }
}

/// The HPCC-style kernels. All are scalar (validation pins them to
/// vector width 1) and order-independent: GUPS accumulates with XOR,
/// PTRANS writes each destination slot exactly once, DGEMM-lite sums
/// wrapping `i32` products — so the traversal order that matters for
/// timing does not affect values, and results stay bit-exact.
fn execute_hpcc(cfg: &KernelConfig, a: &mut [u8], b: &[u8], c: &[u8]) {
    let n = cfg.n_words as usize;
    match cfg.op {
        Op::RandomAccess => {
            // a starts from zero so a launch is a pure function of b
            // (and repeated timed launches all produce the same bits).
            a[..n * 4].fill(0);
            for i in 0..n {
                let h = gups_index(i as u64, n as u64) as usize * 4;
                let x = i32::from_ne_bytes(b[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
                let old = i32::from_ne_bytes(a[h..h + 4].try_into().expect("4 bytes"));
                a[h..h + 4].copy_from_slice(&(old ^ x).to_ne_bytes());
            }
        }
        Op::Ptrans => {
            // Pure byte-level permutation, valid for both dtypes.
            let w = cfg.dtype.word_bytes() as usize;
            let (rows, cols) = cfg.matrix_shape();
            for i in 0..n {
                let (r, col) = (i as u64 / cols, i as u64 % cols);
                let dst = (col * rows + r) as usize * w;
                a[dst..dst + w].copy_from_slice(&b[i * w..i * w + w]);
            }
        }
        Op::DgemmLite => {
            // i32 wrapping matmul, one output row at a time (i-k-j): row
            // r accumulates b[r][k] * c[k][..] over k, so every inner
            // loop reads a contiguous row of `c`. The operand matrix from
            // `c` is its first cols x cols elements.
            let (rows, cols) = cfg.matrix_shape();
            let k_dim = cols as usize;
            let row_bytes = k_dim * 4;
            let mut acc = vec![0i32; k_dim];
            for r in 0..rows as usize {
                acc.fill(0);
                let b_row = &b[r * row_bytes..(r + 1) * row_bytes];
                for (k, bw) in b_row.chunks_exact(4).enumerate() {
                    let bv = i32::load(bw);
                    let c_row = &c[k * row_bytes..(k + 1) * row_bytes];
                    for (x, cw) in acc.iter_mut().zip(c_row.chunks_exact(4)) {
                        *x = x.wrapping_add(bv.wrapping_mul(i32::load(cw)));
                    }
                }
                let a_row = &mut a[r * row_bytes..(r + 1) * row_bytes];
                for (dst, v) in a_row.chunks_exact_mut(4).zip(&acc) {
                    v.store(dst);
                }
            }
        }
        _ => unreachable!("stream ops take execute_typed"),
    }
}

fn execute_typed<T: Element>(cfg: &KernelConfig, a: &mut [u8], b: &[u8], c: &[u8]) {
    let q = T::from_q(cfg.q);
    let w = T::BYTES;
    let n = cfg.n_words as usize;

    // Fast path: contiguous traversal is a plain elementwise loop.
    if cfg.pattern.is_contiguous() {
        match cfg.op {
            StreamOp::Copy => a[..n * w].copy_from_slice(&b[..n * w]),
            StreamOp::Scale => {
                for i in 0..n {
                    let x = T::load(&b[i * w..]);
                    q.mul(x).store(&mut a[i * w..]);
                }
            }
            StreamOp::Add => {
                for i in 0..n {
                    let x = T::load(&b[i * w..]);
                    let y = T::load(&c[i * w..]);
                    x.add(y).store(&mut a[i * w..]);
                }
            }
            StreamOp::Triad => {
                for i in 0..n {
                    let x = T::load(&b[i * w..]);
                    let y = T::load(&c[i * w..]);
                    x.add(q.mul(y)).store(&mut a[i * w..]);
                }
            }
            _ => unreachable!("HPCC ops take execute_hpcc"),
        }
        return;
    }

    // Pattern-faithful path: visit vector elements in traversal order.
    let vw = cfg.vector_width.get() as usize;
    for vidx in IndexOrder::new(cfg) {
        let start = vidx as usize * vw;
        for lane in 0..vw {
            let i = (start + lane) * w;
            let x = T::load(&b[i..]);
            let val = match cfg.op {
                StreamOp::Copy => x,
                StreamOp::Scale => q.mul(x),
                StreamOp::Add => x.add(T::load(&c[i..])),
                StreamOp::Triad => x.add(q.mul(T::load(&c[i..]))),
                _ => unreachable!("HPCC ops take execute_hpcc"),
            };
            val.store(&mut a[i..]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{AccessPattern, VectorWidth};

    fn bufs_i32(n: usize) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
        let mut b = vec![0u8; n * 4];
        let mut c = vec![0u8; n * 4];
        for i in 0..n {
            (i as i32 + 1).store(&mut b[i * 4..]);
            (2 * i as i32).store(&mut c[i * 4..]);
        }
        (vec![0u8; n * 4], b, c)
    }

    fn read_i32(buf: &[u8], i: usize) -> i32 {
        i32::load(&buf[i * 4..])
    }

    #[test]
    fn copy_i32() {
        let (mut a, b, c) = bufs_i32(100);
        let cfg = KernelConfig::baseline(StreamOp::Copy, 100);
        execute(&cfg, &mut a, &b, &c);
        assert_eq!(a, b);
    }

    #[test]
    fn scale_i32() {
        let (mut a, b, c) = bufs_i32(10);
        let cfg = KernelConfig::baseline(StreamOp::Scale, 10);
        execute(&cfg, &mut a, &b, &c);
        for i in 0..10 {
            assert_eq!(read_i32(&a, i), 3 * (i as i32 + 1));
        }
    }

    #[test]
    fn add_i32() {
        let (mut a, b, c) = bufs_i32(10);
        let cfg = KernelConfig::baseline(StreamOp::Add, 10);
        execute(&cfg, &mut a, &b, &c);
        for i in 0..10 {
            assert_eq!(read_i32(&a, i), (i as i32 + 1) + 2 * i as i32);
        }
    }

    #[test]
    fn triad_i32() {
        let (mut a, b, c) = bufs_i32(10);
        let cfg = KernelConfig::baseline(StreamOp::Triad, 10);
        execute(&cfg, &mut a, &b, &c);
        for i in 0..10 {
            assert_eq!(read_i32(&a, i), (i as i32 + 1) + 3 * 2 * i as i32);
        }
    }

    #[test]
    fn triad_f64() {
        let n = 16;
        let mut b = vec![0u8; n * 8];
        let mut c = vec![0u8; n * 8];
        for i in 0..n {
            (i as f64).store(&mut b[i * 8..]);
            (0.5 * i as f64).store(&mut c[i * 8..]);
        }
        let mut a = vec![0u8; n * 8];
        let mut cfg = KernelConfig::baseline(StreamOp::Triad, n as u64);
        cfg.dtype = DataType::F64;
        cfg.q = 2.0;
        execute(&cfg, &mut a, &b, &c);
        for i in 0..n {
            let got = f64::load(&a[i * 8..]);
            assert_eq!(got, i as f64 + 2.0 * 0.5 * i as f64);
        }
    }

    #[test]
    fn strided_pattern_same_result_as_contiguous() {
        let (mut a1, b, c) = bufs_i32(64);
        let mut a2 = vec![0u8; 64 * 4];
        let cfg1 = KernelConfig::baseline(StreamOp::Triad, 64);
        let mut cfg2 = cfg1.clone();
        cfg2.pattern = AccessPattern::Strided { stride: 8 };
        execute(&cfg1, &mut a1, &b, &c);
        execute(&cfg2, &mut a2, &b, &c);
        assert_eq!(a1, a2, "pattern only changes order, not values");
    }

    #[test]
    fn colmajor_vectorized_same_result() {
        let (mut a1, b, c) = bufs_i32(256);
        let mut a2 = vec![0u8; 256 * 4];
        let cfg1 = KernelConfig::baseline(StreamOp::Scale, 256);
        let mut cfg2 = cfg1.clone();
        cfg2.vector_width = VectorWidth::new(4).unwrap();
        cfg2.pattern = AccessPattern::ColMajor { cols: Some(8) };
        execute(&cfg1, &mut a1, &b, &c);
        execute(&cfg2, &mut a2, &b, &c);
        assert_eq!(a1, a2);
    }

    #[test]
    fn int_overflow_wraps() {
        let n = 2;
        let mut b = vec![0u8; 8];
        i32::MAX.store(&mut b[0..]);
        1i32.store(&mut b[4..]);
        let mut a = vec![0u8; 8];
        let mut cfg = KernelConfig::baseline(StreamOp::Scale, n as u64);
        cfg.q = 2.0;
        execute(&cfg, &mut a, &b, &[]);
        assert_eq!(read_i32(&a, 0), i32::MAX.wrapping_mul(2));
        assert_eq!(read_i32(&a, 1), 2);
    }

    #[test]
    #[should_panic(expected = "destination buffer too small")]
    fn short_destination_panics() {
        let cfg = KernelConfig::baseline(StreamOp::Copy, 100);
        let mut a = vec![0u8; 10];
        let b = vec![0u8; 400];
        execute(&cfg, &mut a, &b, &[]);
    }

    #[test]
    fn gups_is_an_xor_scatter_from_zero() {
        let n = 32usize;
        let (mut a, b, _) = bufs_i32(n);
        let cfg = KernelConfig::baseline(Op::RandomAccess, n as u64);
        execute(&cfg, &mut a, &b, &[]);
        let mut expect = vec![0i32; n];
        for i in 0..n {
            let h = crate::ir::gups_index(i as u64, n as u64) as usize;
            expect[h] ^= i as i32 + 1; // bufs_i32 fills b[i] = i + 1
        }
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(read_i32(&a, i), e, "a[{i}]");
        }
        // Idempotent across repeated launches (a is re-zeroed).
        let snapshot = a.clone();
        execute(&cfg, &mut a, &b, &[]);
        assert_eq!(a, snapshot);
    }

    #[test]
    fn ptrans_transposes_the_2d_view() {
        let n = 12usize; // 4 rows x 3 cols near-square view
        let (mut a, b, _) = bufs_i32(n);
        let cfg = KernelConfig::baseline(Op::Ptrans, n as u64);
        let (rows, cols) = cfg.matrix_shape();
        assert_eq!((rows, cols), (4, 3));
        execute(&cfg, &mut a, &b, &[]);
        for r in 0..rows as usize {
            for c in 0..cols as usize {
                assert_eq!(
                    read_i32(&a, c * rows as usize + r),
                    read_i32(&b, r * cols as usize + c)
                );
            }
        }
    }

    #[test]
    fn ptrans_f64_is_a_bit_exact_permutation() {
        let n = 16usize;
        let mut b = vec![0u8; n * 8];
        for i in 0..n {
            (0.25 * i as f64).store(&mut b[i * 8..]);
        }
        let mut a = vec![0u8; n * 8];
        let mut cfg = KernelConfig::baseline(Op::Ptrans, n as u64);
        cfg.dtype = DataType::F64;
        execute(&cfg, &mut a, &b, &[]);
        let mut seen: Vec<u64> = (0..n)
            .map(|i| u64::from_ne_bytes(a[i * 8..i * 8 + 8].try_into().unwrap()))
            .collect();
        let mut src: Vec<u64> = (0..n)
            .map(|i| u64::from_ne_bytes(b[i * 8..i * 8 + 8].try_into().unwrap()))
            .collect();
        seen.sort_unstable();
        src.sort_unstable();
        assert_eq!(seen, src);
    }

    /// The naive i-j-k matmul (one dot product per output), the
    /// reference the row-by-row interpreter loop must match bit for bit.
    fn reference_matmul(b: &[u8], c: &[u8], rows: usize, cols: usize) -> Vec<i32> {
        let mut out = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for col in 0..cols {
                let mut acc = 0i32;
                for k in 0..cols {
                    acc = acc.wrapping_add(
                        read_i32(b, r * cols + k).wrapping_mul(read_i32(c, k * cols + col)),
                    );
                }
                out.push(acc);
            }
        }
        out
    }

    #[test]
    fn dgemm_lite_matches_a_reference_matmul() {
        // Square 4x4 (K = 4) from the small init patterns.
        let (_, b, c) = bufs_i32(16);
        let square = (KernelConfig::baseline(Op::DgemmLite, 16), b, c, (4, 4));
        // Non-square: 32 rows x 8 cols, K = 8.
        let (_, b, c) = bufs_i32(256);
        let mut cfg = KernelConfig::baseline(Op::DgemmLite, 256);
        cfg.pattern = AccessPattern::ColMajor { cols: Some(8) };
        let tall = (cfg, b, c, (32, 8));
        // Operands near i32::MAX and i32::MIN / 3, so products and sums wrap.
        let (_, mut b, mut c) = bufs_i32(64);
        for i in 0..64 {
            (i32::MAX - 7 * i as i32).store(&mut b[i * 4..]);
            (i32::MIN / 3 + 1_000_003 * i as i32).store(&mut c[i * 4..]);
        }
        let exact: i128 = (0..8)
            .map(|k| read_i32(&b, k) as i128 * read_i32(&c, k * 8) as i128)
            .sum();
        assert!(i32::try_from(exact).is_err(), "a[0,0] must wrap");
        let wrapping = (KernelConfig::baseline(Op::DgemmLite, 64), b, c, (8, 8));

        for (cfg, b, c, shape) in [square, tall, wrapping] {
            assert_eq!(cfg.matrix_shape(), shape);
            let (rows, cols) = (shape.0 as usize, shape.1 as usize);
            let mut a = vec![0u8; b.len()];
            execute(&cfg, &mut a, &b, &c);
            let want = reference_matmul(&b, &c, rows, cols);
            for (i, &e) in want.iter().enumerate() {
                assert_eq!(read_i32(&a, i), e, "{shape:?} a[{},{}]", i / cols, i % cols);
            }
        }
    }

    #[test]
    fn hpcc_results_do_not_depend_on_pattern() {
        // PTRANS and DGEMM allow ColMajor; values must match contiguous.
        for op in [Op::Ptrans, Op::DgemmLite] {
            let n = 64usize;
            let (mut a1, b, c) = bufs_i32(n);
            let mut a2 = vec![0u8; n * 4];
            // 64 elements: the near-square contiguous view is also 8x8,
            // so the explicit ColMajor { cols: 8 } shape matches and only
            // the traversal order differs.
            let cfg1 = KernelConfig::baseline(op, n as u64);
            let mut cfg2 = cfg1.clone();
            cfg2.pattern = AccessPattern::ColMajor { cols: Some(8) };
            execute(&cfg1, &mut a1, &b, &c);
            execute(&cfg2, &mut a2, &b, &c);
            assert_eq!(a1, a2, "{op:?}");
        }
    }

    #[test]
    fn copy_scale_ignore_c_buffer() {
        let (mut a, b, _) = bufs_i32(8);
        let cfg = KernelConfig::baseline(StreamOp::Copy, 8);
        execute(&cfg, &mut a, &b, &[]); // empty c is fine
        assert_eq!(a, b);
    }
}
