//! Packed, register-tiled general matrix multiplication.

use std::cell::RefCell;

use crate::mat::Mat;

/// Rows of the register-held C tile (one packed A sliver).
const MR: usize = 4;
/// Columns of the register-held C tile (one packed B sliver). A 4×4 f64
/// tile is eight SSE2 registers, which leaves room for the A and B
/// operands within the sixteen the baseline x86-64 target has.
const NR: usize = 4;
/// f64 lanes of one SSE2 register. Packed B holds each value this many
/// times over, so the kernel loads a ready-made broadcast instead of
/// shuffling one in per multiply.
const LANES: usize = 2;
/// Depth of one packed block: C tiles are loaded and stored once per KC
/// steps of k.
const KC: usize = 256;
/// Rows of A packed at once (MC×KC doubles = 128 KiB).
const MC: usize = 64;
/// Columns of B packed at once (KC×NC×LANES doubles = 2 MiB).
const NC: usize = 512;

thread_local! {
    /// Per-thread pack buffers (A block, B panel), reused across calls.
    /// They grow to at most MC×KC and KC×NC×LANES doubles, whatever the
    /// problem size.
    static PACK: RefCell<(Vec<f64>, Vec<f64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// `C ← α·A·B + β·C`.
///
/// Rounding contract: C is first scaled by β (when β ≠ 1), then every
/// element receives `a[(i, k)] * (α·b[(k, j)])` for k ascending, each as
/// a separate multiply and add (no FMA). The result is therefore the same,
/// bit for bit, as the plain triple loop in that order, whatever the
/// blocking: B is packed pre-scaled by α in NR-column slivers (each value
/// repeated per SIMD lane), A in MR-row slivers, and each MR×NR C tile
/// accumulates in registers over one KC block before it is stored. The
/// pack buffers are per thread and bounded by the block constants.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn gemm(alpha: f64, a: &Mat, b: &Mat, beta: f64, c: &mut Mat) {
    let (m, ka) = (a.rows(), a.cols());
    let (kb, n) = (b.rows(), b.cols());
    assert_eq!(ka, kb, "inner dimensions must agree");
    assert_eq!(c.rows(), m, "C row mismatch");
    assert_eq!(c.cols(), n, "C col mismatch");
    let k = ka;

    if beta != 1.0 {
        for v in c.data_mut() {
            *v *= beta;
        }
    }
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }

    PACK.with_borrow_mut(|(a_pack, b_pack)| {
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                pack_b(alpha, b, pc, kc, jc, nc, b_pack);
                for ic in (0..m).step_by(MC) {
                    let mc = MC.min(m - ic);
                    pack_a(a, ic, mc, pc, kc, a_pack);
                    for (js, b_sliver) in b_pack.chunks_exact(kc * NR * LANES).enumerate() {
                        let j0 = jc + js * NR;
                        for (is, a_sliver) in a_pack.chunks_exact(kc * MR).enumerate() {
                            let i0 = ic + is * MR;
                            tile(a_sliver, b_sliver, c, i0, j0);
                        }
                    }
                }
            }
        }
    });
}

/// Pack `α·B[pc..pc+kc, jc..jc+nc]` into `out`, resized to exactly
/// ⌈nc/NR⌉ NR-column slivers, each stored k-major (NR values per k, each
/// repeated LANES times); columns past `nc` are zero.
fn pack_b(alpha: f64, b: &Mat, pc: usize, kc: usize, jc: usize, nc: usize, out: &mut Vec<f64>) {
    out.clear();
    out.resize(nc.div_ceil(NR) * kc * NR * LANES, 0.0);
    for (s, sliver) in out.chunks_exact_mut(kc * NR * LANES).enumerate() {
        for jj in 0..NR.min(nc - s * NR) {
            let col = &b.col(jc + s * NR + jj)[pc..pc + kc];
            for (dst, &v) in sliver.chunks_exact_mut(NR * LANES).zip(col) {
                dst[jj * LANES..(jj + 1) * LANES].fill(alpha * v);
            }
        }
    }
}

/// Pack `A[ic..ic+mc, pc..pc+kc]` into `out`, resized to exactly
/// ⌈mc/MR⌉ MR-row slivers, each stored k-major (MR values per k); rows
/// past `mc` are zero.
fn pack_a(a: &Mat, ic: usize, mc: usize, pc: usize, kc: usize, out: &mut Vec<f64>) {
    out.clear();
    out.resize(mc.div_ceil(MR) * kc * MR, 0.0);
    for (s, sliver) in out.chunks_exact_mut(kc * MR).enumerate() {
        let i0 = ic + s * MR;
        let rows = MR.min(mc - s * MR);
        for (p, dst) in sliver.chunks_exact_mut(MR).enumerate() {
            dst[..rows].copy_from_slice(&a.col(pc + p)[i0..i0 + rows]);
        }
    }
}

/// One MR×NR tile of C at `(i0, j0)`: load, accumulate the packed slivers
/// for k ascending, store. Edge tiles load and store only the elements
/// inside C; the padded rows and columns compute on zeros and are
/// dropped.
fn tile(a_sliver: &[f64], b_sliver: &[f64], c: &mut Mat, i0: usize, j0: usize) {
    let rows = MR.min(c.rows() - i0);
    let cols = NR.min(c.cols() - j0);
    let mut acc = [[0.0f64; MR]; NR];
    for (j, acc_col) in acc.iter_mut().enumerate().take(cols) {
        acc_col[..rows].copy_from_slice(&c.col(j0 + j)[i0..i0 + rows]);
    }
    for (ap, bp) in a_sliver
        .chunks_exact(MR)
        .zip(b_sliver.chunks_exact(NR * LANES))
    {
        for (acc_col, bv) in acc.iter_mut().zip(bp.chunks_exact(LANES)) {
            for (cv, av) in acc_col.chunks_exact_mut(LANES).zip(ap.chunks_exact(LANES)) {
                for l in 0..LANES {
                    cv[l] += av[l] * bv[l];
                }
            }
        }
    }
    for (j, acc_col) in acc.iter().enumerate().take(cols) {
        c.col_mut(j0 + j)[i0..i0 + rows].copy_from_slice(&acc_col[..rows]);
    }
}

/// Plain product `A·B`.
pub fn matmul(a: &Mat, b: &Mat) -> Mat {
    let mut c = Mat::zeros(a.rows(), b.cols());
    gemm(1.0, a, b, 0.0, &mut c);
    c
}

/// The flop count of a GEMM (2·m·n·k), used to charge virtual compute
/// time in the simulated applications.
pub fn gemm_flops(m: usize, n: usize, k: usize) -> f64 {
    2.0 * m as f64 * n as f64 * k as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, SmallRng};

    /// The rounding contract spelled out: β scaling, then ascending k with
    /// a separate multiply and add per step.
    fn reference(alpha: f64, a: &Mat, b: &Mat, beta: f64, c: &Mat) -> Mat {
        let mut want = c.clone();
        if beta != 1.0 {
            for v in want.data_mut() {
                *v *= beta;
            }
        }
        if alpha == 0.0 {
            return want;
        }
        for j in 0..b.cols() {
            for i in 0..a.rows() {
                let mut s = want[(i, j)];
                for kk in 0..a.cols() {
                    s += a[(i, kk)] * (alpha * b[(kk, j)]);
                }
                want[(i, j)] = s;
            }
        }
        want
    }

    fn assert_bits_eq(got: &Mat, want: &Mat, what: &str) {
        assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
        for (idx, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}: element {idx}: {g} vs {w}"
            );
        }
    }

    fn random(rng: &mut SmallRng, rows: usize, cols: usize) -> Mat {
        Mat::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn small_known_product() {
        let a = Mat::from_col_major(2, 2, vec![1.0, 3.0, 2.0, 4.0]); // [[1,2],[3,4]]
        let b = Mat::from_col_major(2, 2, vec![5.0, 7.0, 6.0, 8.0]); // [[5,6],[7,8]]
        let c = matmul(&a, &b);
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn matches_naive_on_odd_shapes() {
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 2),
            (65, 17, 70),
            (64, 64, 64),
            (100, 1, 100),
        ] {
            let a = Mat::from_fn(m, k, |r, c| ((r * 7 + c * 3) % 11) as f64 - 5.0);
            let b = Mat::from_fn(k, n, |r, c| ((r * 5 + c * 2) % 13) as f64 - 6.0);
            let c = matmul(&a, &b);
            let want = reference(1.0, &a, &b, 0.0, &Mat::zeros(m, n));
            assert_bits_eq(&c, &want, &format!("shape ({m},{k},{n})"));
        }
    }

    #[test]
    fn bit_identical_to_ascending_k_reference() {
        // Shapes crossing the MR/NR tile edges and the MC/KC/NC block edges.
        let mut rng = SmallRng::seed_from_u64(0x6e44);
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 2),
            (65, 17, 70),
            (129, 300, 131),
            (257, 513, 7),
            (5, 3, 600),
        ] {
            let a = random(&mut rng, m, k);
            let b = random(&mut rng, k, n);
            let c0 = random(&mut rng, m, n);
            for (alpha, beta) in [(1.0, 0.0), (1.0, 1.0), (-0.7, 1.3), (2.5, -0.25)] {
                let mut c = c0.clone();
                gemm(alpha, &a, &b, beta, &mut c);
                let want = reference(alpha, &a, &b, beta, &c0);
                assert_bits_eq(&c, &want, &format!("({m},{k},{n}) α={alpha} β={beta}"));
            }
        }
    }

    #[test]
    fn early_returns_only_scale_by_beta() {
        let mut rng = SmallRng::seed_from_u64(0x6e45);
        let c0 = random(&mut rng, 6, 5);
        // α = 0: A and B are never read.
        let (a, b) = (random(&mut rng, 6, 4), random(&mut rng, 4, 5));
        let mut c = c0.clone();
        gemm(0.0, &a, &b, 0.5, &mut c);
        assert_bits_eq(&c, &c0.scale(0.5), "alpha == 0");
        // k = 0: the product is empty.
        let mut c = c0.clone();
        gemm(3.0, &Mat::zeros(6, 0), &Mat::zeros(0, 5), -2.0, &mut c);
        assert_bits_eq(&c, &c0.scale(-2.0), "k == 0");
        let mut c = c0.clone();
        gemm(3.0, &Mat::zeros(6, 0), &Mat::zeros(0, 5), 1.0, &mut c);
        assert_bits_eq(&c, &c0, "k == 0, beta == 1");
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = Mat::eye(3);
        let b = Mat::from_fn(3, 3, |r, c| (r + c) as f64);
        let mut c = Mat::eye(3);
        gemm(2.0, &a, &b, 3.0, &mut c);
        // C = 2*B + 3*I
        assert_eq!(c[(0, 0)], 3.0);
        assert_eq!(c[(1, 0)], 2.0);
        assert_eq!(c[(1, 1)], 7.0);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Mat::from_fn(10, 10, |r, c| (r * c) as f64);
        assert!(matmul(&a, &Mat::eye(10)).distance(&a) < 1e-12);
        assert!(matmul(&Mat::eye(10), &a).distance(&a) < 1e-12);
    }

    #[test]
    fn flops_formula() {
        assert_eq!(gemm_flops(2, 3, 4), 48.0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions must agree")]
    fn dim_mismatch_panics() {
        matmul(&Mat::zeros(2, 3), &Mat::zeros(2, 3));
    }

    #[test]
    #[should_panic(expected = "C row mismatch")]
    fn c_row_mismatch_panics() {
        gemm(
            1.0,
            &Mat::zeros(2, 3),
            &Mat::zeros(3, 4),
            0.0,
            &mut Mat::zeros(3, 4),
        );
    }

    #[test]
    #[should_panic(expected = "C col mismatch")]
    fn c_col_mismatch_panics() {
        gemm(
            1.0,
            &Mat::zeros(2, 3),
            &Mat::zeros(3, 4),
            0.0,
            &mut Mat::zeros(2, 5),
        );
    }
}
