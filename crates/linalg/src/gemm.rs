//! General matrix multiply (`dgemm`) plus the Level-2 kernels `gemv`/`ger`.
//!
//! The GEMM follows the Goto/BLIS decomposition: the operand panels are packed
//! into contiguous buffers and an `MR × NR` register-blocked micro-kernel runs
//! over the packed data. Packing resolves the transpose options, so one
//! micro-kernel serves all four op combinations. Small products fall back to a
//! straightforward loop nest to avoid the packing overhead (rank updates in
//! the TLR arithmetic call GEMM with k of a few dozen).
//!
//! The register tile is sized per ISA so its accumulators stay in the 16
//! vector registers: 6 × 4 in the portable build (baseline x86-64 is SSE2,
//! two doubles a register) and 4 × 8 under AVX (four), which `dgemm`
//! dispatches to when `is_x86_feature_detected!("avx")` holds. Both give the
//! same bits: every `C(i, j)` is `acc = 0; acc += a·b` over one `KC` panel
//! in `p` order, then `c += alpha·acc`, and the tile shape only decides which
//! elements share a register (Rust fuses no FMA and reassociates nothing).
//! `KC` and the small-product threshold are therefore fixed: the first
//! splits each sum into panels, the second picks between two paths whose
//! bits differ, so moving either moves results.

/// Transpose selector for GEMM-like kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the stored operand.
    Yes,
}

// Cache blocking parameters (f64): panel sizes tuned for ~32 KiB L1 / 1 MiB L2.
// `KC` also decides where each element's sum is split into panels, so it is
// part of the result's bits, not only of its speed.
const MC: usize = 128;
const KC: usize = 256;
const NC: usize = 1024;
// Register tiles (`MR × NR` accumulators, plus an `MR`-row of A and a
// broadcast of B, in the ISA's 16 vector registers without spilling).
// Portable build, baseline x86-64 (SSE2, 2 doubles per register).
const PORTABLE_MR: usize = 6;
const PORTABLE_NR: usize = 4;
// AVX (4 doubles per register), chosen at run time.
const AVX_MR: usize = 4;
const AVX_NR: usize = 8;

/// Threshold below which the naive loop nest beats packing. Moving it would
/// move a product between the two paths, whose bits differ.
const SMALL_FLOPS: usize = 64 * 64 * 64;

/// `C := alpha · op(A) · op(B) + beta · C`.
///
/// `op(A)` is `m × k`, `op(B)` is `k × n`, `C` is `m × n`; all column-major
/// with leading dimensions `lda`, `ldb`, `ldc`.
#[allow(clippy::too_many_arguments)]
pub fn dgemm(
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    // Validate extents.
    let (ar, ac) = match transa {
        Trans::No => (m, k),
        Trans::Yes => (k, m),
    };
    let (br, bc) = match transb {
        Trans::No => (k, n),
        Trans::Yes => (n, k),
    };
    assert!(ldc >= m, "ldc too small");
    if ac > 0 {
        assert!(lda >= ar.max(1), "lda too small");
        assert!(a.len() >= lda * (ac - 1) + ar, "A buffer too small");
    }
    if bc > 0 {
        assert!(ldb >= br.max(1), "ldb too small");
        assert!(b.len() >= ldb * (bc - 1) + br, "B buffer too small");
    }
    assert!(c.len() >= ldc * (n - 1) + m, "C buffer too small");

    // Apply beta once, then accumulate alpha * op(A) op(B).
    if beta != 1.0 {
        for j in 0..n {
            let col = &mut c[j * ldc..j * ldc + m];
            if beta == 0.0 {
                col.fill(0.0);
            } else {
                for v in col.iter_mut() {
                    *v *= beta;
                }
            }
        }
    }
    if k == 0 || alpha == 0.0 {
        return;
    }

    if 2 * m * n * k <= SMALL_FLOPS {
        small_gemm(transa, transb, m, n, k, alpha, a, lda, b, ldb, c, ldc);
        return;
    }

    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: `packed_avx` requires only AVX, which
        // `is_x86_feature_detected!` has just found on this CPU.
        unsafe { packed_avx(transa, transb, m, n, k, alpha, a, lda, b, ldb, c, ldc) };
        return;
    }
    packed::<PORTABLE_MR, PORTABLE_NR>(transa, transb, m, n, k, alpha, a, lda, b, ldb, c, ldc);
}

/// The packed path compiled with AVX enabled; its bits equal the portable
/// build's (see the module doc).
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx")]
#[allow(clippy::too_many_arguments)]
fn packed_avx(
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    packed::<AVX_MR, AVX_NR>(transa, transb, m, n, k, alpha, a, lda, b, ldb, c, ldc);
}

/// `C += alpha · op(A) · op(B)` on validated extents, through packed panels
/// and an `MR × NR` register tile. Every function below is
/// `#[inline(always)]`, so the whole path takes its caller's target features.
///
/// Each `C(i, j)` receives, per `KC` panel in order, `alpha · acc` where
/// `acc` sums `op(A)(i, p) · op(B)(p, j)` from zero in `p` order: the tile
/// shape decides only which elements share a register, never the order of
/// operations on one element, so every `MR × NR` gives the same bits.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn packed<const MR: usize, const NR: usize>(
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    // Sized for the largest block, with edge micro-panels zero-padded to a
    // full `MR`/`NR`. Sizing to the product rather than to `MC`/`KC`/`NC`
    // spares a small product clearing ~2 MB per call.
    let mut apack = vec![0.0f64; MC.min(m).div_ceil(MR) * MR * KC.min(k)];
    let mut bpack = vec![0.0f64; KC.min(k) * NC.min(n).div_ceil(NR) * NR];

    let mut jc = 0;
    while jc < n {
        let ncb = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kcb = KC.min(k - pc);
            pack_b::<NR>(transb, b, ldb, pc, jc, kcb, ncb, &mut bpack);
            let mut ic = 0;
            while ic < m {
                let mcb = MC.min(m - ic);
                pack_a::<MR>(transa, a, lda, ic, pc, mcb, kcb, &mut apack);
                macro_kernel::<MR, NR>(
                    mcb,
                    ncb,
                    kcb,
                    alpha,
                    &apack,
                    &bpack,
                    &mut c[ic + jc * ldc..],
                    ldc,
                );
                ic += MC;
            }
            pc += KC;
        }
        jc += NC;
    }
}

/// Reads `op(A)(i, p)` — the element of the *logical* (post-op) matrix.
#[inline(always)]
fn a_elem(trans: Trans, a: &[f64], lda: usize, i: usize, p: usize) -> f64 {
    match trans {
        Trans::No => a[i + p * lda],
        Trans::Yes => a[p + i * lda],
    }
}

/// Packs an `mcb × kcb` panel of `op(A)` into row-micro-panels of height MR.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // mirrors the BLAS packing-kernel signature
fn pack_a<const MR: usize>(
    trans: Trans,
    a: &[f64],
    lda: usize,
    ic: usize,
    pc: usize,
    mcb: usize,
    kcb: usize,
    out: &mut [f64],
) {
    let mut off = 0;
    let mut ib = 0;
    while ib < mcb {
        let mr = MR.min(mcb - ib);
        for p in 0..kcb {
            for i in 0..mr {
                out[off + i] = a_elem(trans, a, lda, ic + ib + i, pc + p);
            }
            for i in mr..MR {
                out[off + i] = 0.0;
            }
            off += MR;
        }
        ib += MR;
    }
}

/// Packs a `kcb × ncb` panel of `op(B)` into column-micro-panels of width NR.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // mirrors the BLAS packing-kernel signature
fn pack_b<const NR: usize>(
    trans: Trans,
    b: &[f64],
    ldb: usize,
    pc: usize,
    jc: usize,
    kcb: usize,
    ncb: usize,
    out: &mut [f64],
) {
    // op(B)(p, j): No -> b[p + j*ldb]; Yes -> b[j + p*ldb].
    let mut off = 0;
    let mut jb = 0;
    while jb < ncb {
        let nr = NR.min(ncb - jb);
        for p in 0..kcb {
            for j in 0..nr {
                let val = match trans {
                    Trans::No => b[(pc + p) + (jc + jb + j) * ldb],
                    Trans::Yes => b[(jc + jb + j) + (pc + p) * ldb],
                };
                out[off + j] = val;
            }
            for j in nr..NR {
                out[off + j] = 0.0;
            }
            off += NR;
        }
        jb += NR;
    }
}

/// Runs the micro-kernel over all micro-tiles of one packed block pair.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // mirrors the BLAS macro-kernel signature
fn macro_kernel<const MR: usize, const NR: usize>(
    mcb: usize,
    ncb: usize,
    kcb: usize,
    alpha: f64,
    apack: &[f64],
    bpack: &[f64],
    c: &mut [f64],
    ldc: usize,
) {
    let mut jb = 0;
    while jb < ncb {
        let nr = NR.min(ncb - jb);
        let bpanel = &bpack[(jb / NR) * (kcb * NR)..][..kcb * NR];
        let mut ib = 0;
        while ib < mcb {
            let mr = MR.min(mcb - ib);
            let apanel = &apack[(ib / MR) * (kcb * MR)..][..kcb * MR];
            micro_kernel::<MR, NR>(
                kcb,
                alpha,
                apanel,
                bpanel,
                &mut c[ib + jb * ldc..],
                ldc,
                mr,
                nr,
            );
            ib += MR;
        }
        jb += NR;
    }
}

/// `MR × NR` register-blocked inner kernel: `C[0..mr, 0..nr] += alpha · Aᵖ·Bᵖ`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_kernel<const MR: usize, const NR: usize>(
    kc: usize,
    alpha: f64,
    ap: &[f64],
    bp: &[f64],
    c: &mut [f64],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [[0.0f64; MR]; NR];
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
    for p in 0..kc {
        let arow: &[f64] = &ap[p * MR..p * MR + MR];
        let brow: &[f64] = &bp[p * NR..p * NR + NR];
        for j in 0..NR {
            let bj = brow[j];
            let accj = &mut acc[j];
            for i in 0..MR {
                accj[i] += arow[i] * bj;
            }
        }
    }
    if mr == MR && nr == NR {
        for j in 0..NR {
            let cj = &mut c[j * ldc..j * ldc + MR];
            for i in 0..MR {
                cj[i] += alpha * acc[j][i];
            }
        }
    } else {
        for j in 0..nr {
            let cj = &mut c[j * ldc..];
            for i in 0..mr {
                cj[i] += alpha * acc[j][i];
            }
        }
    }
}

/// Straightforward loop nest for small products (packing not worthwhile).
#[allow(clippy::too_many_arguments)]
fn small_gemm(
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    match (transa, transb) {
        (Trans::No, Trans::No) => {
            for j in 0..n {
                for p in 0..k {
                    let bpj = alpha * b[p + j * ldb];
                    if bpj == 0.0 {
                        continue;
                    }
                    let acol = &a[p * lda..p * lda + m];
                    let ccol = &mut c[j * ldc..j * ldc + m];
                    for i in 0..m {
                        ccol[i] += acol[i] * bpj;
                    }
                }
            }
        }
        (Trans::Yes, Trans::No) => {
            for j in 0..n {
                for i in 0..m {
                    let arow = &a[i * lda..i * lda + k];
                    let bcol = &b[j * ldb..j * ldb + k];
                    c[i + j * ldc] += alpha * crate::blas1::dot(arow, bcol);
                }
            }
        }
        (Trans::No, Trans::Yes) => {
            for j in 0..n {
                for p in 0..k {
                    let bpj = alpha * b[j + p * ldb];
                    if bpj == 0.0 {
                        continue;
                    }
                    let acol = &a[p * lda..p * lda + m];
                    let ccol = &mut c[j * ldc..j * ldc + m];
                    for i in 0..m {
                        ccol[i] += acol[i] * bpj;
                    }
                }
            }
        }
        (Trans::Yes, Trans::Yes) => {
            for j in 0..n {
                for i in 0..m {
                    let mut s = 0.0;
                    for p in 0..k {
                        s += a[p + i * lda] * b[j + p * ldb];
                    }
                    c[i + j * ldc] += alpha * s;
                }
            }
        }
    }
}

/// `y := alpha · op(A) · x + beta · y` with `A` of shape `m × n` as stored.
#[allow(clippy::too_many_arguments)]
pub fn gemv(
    trans: Trans,
    m: usize,
    n: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    x: &[f64],
    beta: f64,
    y: &mut [f64],
) {
    let (ylen, xlen) = match trans {
        Trans::No => (m, n),
        Trans::Yes => (n, m),
    };
    assert!(x.len() >= xlen, "x too small");
    assert!(y.len() >= ylen, "y too small");
    if n > 0 {
        assert!(a.len() >= lda * (n - 1) + m, "A buffer too small");
    }
    if beta != 1.0 {
        if beta == 0.0 {
            y[..ylen].fill(0.0);
        } else {
            for v in y[..ylen].iter_mut() {
                *v *= beta;
            }
        }
    }
    match trans {
        Trans::No => {
            for j in 0..n {
                let axj = alpha * x[j];
                if axj == 0.0 {
                    continue;
                }
                let acol = &a[j * lda..j * lda + m];
                for i in 0..m {
                    y[i] += acol[i] * axj;
                }
            }
        }
        Trans::Yes => {
            for j in 0..n {
                let acol = &a[j * lda..j * lda + m];
                y[j] += alpha * crate::blas1::dot(acol, &x[..m]);
            }
        }
    }
}

/// Rank-1 update `A += alpha · x · yᵀ` with `A` of shape `m × n`.
pub fn ger(m: usize, n: usize, alpha: f64, x: &[f64], y: &[f64], a: &mut [f64], lda: usize) {
    assert!(x.len() >= m && y.len() >= n);
    if n > 0 {
        assert!(a.len() >= lda * (n - 1) + m, "A buffer too small");
    }
    for j in 0..n {
        let ayj = alpha * y[j];
        if ayj == 0.0 {
            continue;
        }
        let acol = &mut a[j * lda..j * lda + m];
        for i in 0..m {
            acol[i] += x[i] * ayj;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::Mat;
    use exa_util::Rng;

    /// Naive reference product for validation.
    #[allow(clippy::too_many_arguments)] // mirrors the dgemm signature under test
    fn reference(
        transa: Trans,
        transb: Trans,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: &Mat,
        b: &Mat,
        beta: f64,
        c: &Mat,
    ) -> Mat {
        let get_a = |i: usize, p: usize| match transa {
            Trans::No => a[(i, p)],
            Trans::Yes => a[(p, i)],
        };
        let get_b = |p: usize, j: usize| match transb {
            Trans::No => b[(p, j)],
            Trans::Yes => b[(j, p)],
        };
        Mat::from_fn(m, n, |i, j| {
            let mut s = 0.0;
            for p in 0..k {
                s += get_a(i, p) * get_b(p, j);
            }
            alpha * s + beta * c[(i, j)]
        })
    }

    fn check_case(transa: Trans, transb: Trans, m: usize, n: usize, k: usize, seed: u64) {
        let mut rng = Rng::seed_from_u64(seed);
        let (ar, ac) = match transa {
            Trans::No => (m, k),
            Trans::Yes => (k, m),
        };
        let (br, bc) = match transb {
            Trans::No => (k, n),
            Trans::Yes => (n, k),
        };
        let a = Mat::gaussian(ar, ac, &mut rng);
        let b = Mat::gaussian(br, bc, &mut rng);
        let c0 = Mat::gaussian(m, n, &mut rng);
        let expected = reference(transa, transb, m, n, k, 1.5, &a, &b, -0.5, &c0);
        let mut c = c0.clone();
        dgemm(
            transa,
            transb,
            m,
            n,
            k,
            1.5,
            a.as_slice(),
            ar.max(1),
            b.as_slice(),
            br.max(1),
            -0.5,
            c.as_mut_slice(),
            m,
        );
        for j in 0..n {
            for i in 0..m {
                let d = (c[(i, j)] - expected[(i, j)]).abs();
                let scale = expected[(i, j)].abs().max(1.0);
                assert!(
                    d / scale < 1e-12,
                    "mismatch at ({i},{j}): {} vs {} [{transa:?},{transb:?},m={m},n={n},k={k}]",
                    c[(i, j)],
                    expected[(i, j)]
                );
            }
        }
    }

    #[test]
    fn all_transpose_combinations_small() {
        for (s, &(m, n, k)) in [(3usize, 4usize, 5usize), (7, 7, 7), (1, 9, 2), (8, 6, 1)]
            .iter()
            .enumerate()
        {
            check_case(Trans::No, Trans::No, m, n, k, s as u64);
            check_case(Trans::Yes, Trans::No, m, n, k, s as u64 + 10);
            check_case(Trans::No, Trans::Yes, m, n, k, s as u64 + 20);
            check_case(Trans::Yes, Trans::Yes, m, n, k, s as u64 + 30);
        }
    }

    #[test]
    fn packed_path_matches_reference() {
        // Large enough to exercise packing and edge micro-tiles.
        check_case(Trans::No, Trans::No, 131, 73, 67, 1);
        check_case(Trans::Yes, Trans::No, 130, 70, 300, 2);
        check_case(Trans::No, Trans::Yes, 257, 65, 66, 3);
        check_case(Trans::Yes, Trans::Yes, 129, 129, 65, 4);
    }

    /// `beta · C`, then per `KC` panel `acc` summed from zero in `p` order
    /// and `C += alpha · acc`: the order the packed path documents, written
    /// out element by element.
    #[allow(clippy::too_many_arguments)] // mirrors the dgemm signature under test
    fn panel_order_reference(
        transa: Trans,
        transb: Trans,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: &Mat,
        b: &Mat,
        beta: f64,
        c: &Mat,
    ) -> Mat {
        let get_a = |i: usize, p: usize| match transa {
            Trans::No => a[(i, p)],
            Trans::Yes => a[(p, i)],
        };
        let get_b = |p: usize, j: usize| match transb {
            Trans::No => b[(p, j)],
            Trans::Yes => b[(j, p)],
        };
        Mat::from_fn(m, n, |i, j| {
            let mut cij = if beta == 0.0 {
                0.0
            } else if beta == 1.0 {
                c[(i, j)]
            } else {
                c[(i, j)] * beta
            };
            for p0 in (0..k).step_by(KC) {
                let mut acc = 0.0;
                for p in p0..(p0 + KC).min(k) {
                    acc += get_a(i, p) * get_b(p, j);
                }
                cij += alpha * acc;
            }
            cij
        })
    }

    fn assert_same_bits(got: &Mat, expected: &Mat, what: &str) {
        for (idx, (g, e)) in got.as_slice().iter().zip(expected.as_slice()).enumerate() {
            assert_eq!(
                g.to_bits(),
                e.to_bits(),
                "{what}: element {idx}: {g} vs {e}"
            );
        }
    }

    #[test]
    fn packed_path_bits_follow_the_documented_order() {
        // m and n leave edge tiles for every MR × NR here, k spans two KC
        // panels. Miri runs a smaller shape, and only the portable tile.
        let (m, n, k) = if cfg!(miri) {
            (7, 9, KC + 3)
        } else {
            (131, 73, 300)
        };
        let alpha = 1.5;
        let ops = [
            (Trans::No, Trans::No),
            (Trans::Yes, Trans::No),
            (Trans::No, Trans::Yes),
            (Trans::Yes, Trans::Yes),
        ];
        for (s, (transa, transb)) in ops.into_iter().enumerate() {
            let mut rng = Rng::seed_from_u64(40 + s as u64);
            let (ar, ac) = if transa == Trans::No { (m, k) } else { (k, m) };
            let (br, bc) = if transb == Trans::No { (k, n) } else { (n, k) };
            let a = Mat::gaussian(ar, ac, &mut rng);
            let b = Mat::gaussian(br, bc, &mut rng);
            let c0 = Mat::gaussian(m, n, &mut rng);
            for beta in [0.0, 1.0, -0.5] {
                let what = format!("{transa:?},{transb:?},beta={beta}");
                let expected =
                    panel_order_reference(transa, transb, m, n, k, alpha, &a, &b, beta, &c0);
                // The packed instantiations start from C already scaled by beta.
                let scaled =
                    panel_order_reference(transa, transb, m, n, 0, alpha, &a, &b, beta, &c0);
                let (a, b) = (a.as_slice(), b.as_slice());

                let mut c = scaled.clone();
                packed::<PORTABLE_MR, PORTABLE_NR>(
                    transa,
                    transb,
                    m,
                    n,
                    k,
                    alpha,
                    a,
                    ar,
                    b,
                    br,
                    c.as_mut_slice(),
                    m,
                );
                assert_same_bits(&c, &expected, &format!("portable {what}"));

                #[cfg(all(target_arch = "x86_64", not(miri)))]
                if std::arch::is_x86_feature_detected!("avx") {
                    let mut c = scaled.clone();
                    // SAFETY: `is_x86_feature_detected!` has just found AVX,
                    // the only feature `packed_avx` enables.
                    unsafe {
                        packed_avx(
                            transa,
                            transb,
                            m,
                            n,
                            k,
                            alpha,
                            a,
                            ar,
                            b,
                            br,
                            c.as_mut_slice(),
                            m,
                        )
                    };
                    assert_same_bits(&c, &expected, &format!("avx {what}"));
                }

                // Through dgemm: its beta step, the threshold and the dispatch.
                if 2 * m * n * k > SMALL_FLOPS {
                    let mut c = c0.clone();
                    dgemm(
                        transa,
                        transb,
                        m,
                        n,
                        k,
                        alpha,
                        a,
                        ar,
                        b,
                        br,
                        beta,
                        c.as_mut_slice(),
                        m,
                    );
                    assert_same_bits(&c, &expected, &format!("dgemm {what}"));
                }
            }
        }
    }

    #[test]
    fn beta_zero_overwrites_nan_garbage() {
        // beta == 0 must not propagate pre-existing NaNs in C.
        let a = Mat::eye(2);
        let b = Mat::eye(2);
        let mut c = Mat::from_vec(2, 2, vec![f64::NAN; 4]);
        dgemm(
            Trans::No,
            Trans::No,
            2,
            2,
            2,
            1.0,
            a.as_slice(),
            2,
            b.as_slice(),
            2,
            0.0,
            c.as_mut_slice(),
            2,
        );
        assert_eq!(c, Mat::eye(2));
    }

    #[test]
    fn k_zero_only_scales_c() {
        let mut c = Mat::from_vec(2, 1, vec![2.0, 4.0]);
        let a: [f64; 0] = [];
        dgemm(
            Trans::No,
            Trans::No,
            2,
            1,
            0,
            5.0,
            &a,
            1,
            &a,
            1,
            0.5,
            c.as_mut_slice(),
            2,
        );
        assert_eq!(c.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn submatrix_with_leading_dimension() {
        // Multiply a 2x2 sub-block of a 4x4 via lda/ldc offsets.
        let a = Mat::from_fn(4, 4, |i, j| (i + 10 * j) as f64);
        let b = Mat::eye(2);
        let mut c = Mat::zeros(4, 4);
        // C[1..3, 2..4] = A[1..3, 0..2] * I
        dgemm(
            Trans::No,
            Trans::No,
            2,
            2,
            2,
            1.0,
            &a.as_slice()[1..],
            4,
            b.as_slice(),
            2,
            0.0,
            &mut c.as_mut_slice()[1 + 2 * 4..],
            4,
        );
        assert_eq!(c[(1, 2)], a[(1, 0)]);
        assert_eq!(c[(2, 3)], a[(2, 1)]);
        assert_eq!(c[(0, 0)], 0.0);
    }

    #[test]
    fn gemv_both_ops() {
        let a = Mat::from_vec(2, 3, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]); // [[1,2,3],[4,5,6]]
        let mut y = vec![1.0, 1.0];
        gemv(
            Trans::No,
            2,
            3,
            1.0,
            a.as_slice(),
            2,
            &[1.0, 1.0, 1.0],
            2.0,
            &mut y,
        );
        assert_eq!(y, vec![8.0, 17.0]);
        let mut z = vec![0.0; 3];
        gemv(
            Trans::Yes,
            2,
            3,
            1.0,
            a.as_slice(),
            2,
            &[1.0, 1.0],
            0.0,
            &mut z,
        );
        assert_eq!(z, vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn ger_rank_one() {
        let mut a = Mat::zeros(2, 2);
        ger(2, 2, 2.0, &[1.0, 2.0], &[3.0, 4.0], a.as_mut_slice(), 2);
        assert_eq!(a.as_slice(), &[6.0, 12.0, 8.0, 16.0]);
    }
}
