//! Matrix multiplication kernels.
//!
//! The dense row kernel (`matmul_rows`, shared by [`matmul`] and the
//! fused GEMM+GeLU) is cache-blocked: `MC` comes from the pool's row
//! chunking, the `k` dimension is cut into `KC` strips, and output
//! columns into `NC` panels. A `B` at most `NC` wide is one panel
//! already contiguous in memory and is read in place; a wider one has
//! each panel's sub-block packed into a scratch buffer, because a panel
//! read at a wide `B`'s row stride maps onto fewer L1 sets than a
//! contiguous one (at a 1 KiB stride, half of them). Inside a panel a
//! register micro-kernel keeps 4 output rows × 16 columns of
//! accumulators (eight 8-lane registers in the AVX2 build). The panel's
//! remaining columns go through 8-, 4- and 1-wide tiles that still
//! advance all 4 rows, and a chunk's last rows through the same tiles
//! one row at a time, so even an output narrower than a tile — the
//! `[L, H] × [H, 4]` noise projection — keeps 4 independent sums in
//! flight. [`matmul_bt`] uses a 4-wide column unroll that amortizes
//! each `A`-row read over four dot products.
//!
//! **Reduction order is load-bearing.** Every output element is still
//! the sum `((0 + a·b)₀ + a·b)₁ + …` taken in ascending `p` order —
//! blocking only changes *when* partial sums visit memory (an `f32`
//! store/load round trip is exact), unrolling only changes *which
//! independent elements* advance together, and no `mul_add` is used
//! (hardware FMA rounds differently). So the tiled kernels are
//! bit-for-bit identical to the straightforward `ikj` loop they
//! replaced — which is kept as [`matmul_naive`], the frozen PR 4
//! kernel that `bench_kernels` times as its "old scalar" baseline —
//! and every byte-identity guarantee built on top (cache replays,
//! committed artifacts, chaos reproducibility) is preserved.
//!
//! All kernels parallelize over *output rows* through [`crate::pool`]:
//! each row's reduction runs in the same order whichever thread
//! computes it, so pooled results are bitwise identical to serial ones.
//!
//! Earlier revisions skipped inner-product terms whose `A` element was
//! exactly `0.0`. That branch is gone: it made measured kernel time
//! depend on operand sparsity while [`matmul_flops`] (and the paper's
//! Table 1 accounting, which this repo reproduces) count dense work, so
//! timed FLOP/s could silently overstate the kernel on masked/padded
//! operands. Mask-aware computation in this repo saves work by
//! *gathering rows* (see [`super::gather`] and [`super::sparse`]),
//! never by relying on incidental zeros.

use crate::error::TensorError;
use crate::tensor::Tensor;
use crate::{ktrace, pool, scratch, Result};

/// `k`-strip depth of the blocked kernel. Model shapes keep `k ≤ 256`,
/// so most calls take one or two strips; the strip exists so a panel
/// plus the active `A` rows stay L1/L2-resident at any `k`.
const KC: usize = 128;
/// Column width of one `B` panel; a `B` at most this wide is read in
/// place instead of packed.
const NC: usize = 128;
/// Rows of the register micro-kernel.
const MR: usize = 4;
/// Columns of the register micro-kernel: 4 × 16 accumulators are eight
/// of the AVX2 build's sixteen 8-lane registers.
const NR: usize = 16;

/// Returns the multiply-add FLOP count of an `[m, k] × [k, n]` matmul,
/// counting one multiply and one add per inner-product term.
pub fn matmul_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * m as u64 * k as u64 * n as u64
}

/// Computes `A · B` for `A: [m, k]` and `B: [k, n]`.
///
/// # Errors
///
/// Returns an error if either operand is not rank-2 or the inner
/// dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    check_rank2("matmul", a)?;
    check_rank2("matmul", b)?;
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let _span = ktrace::span("matmul");
    let mut out = scratch::take(m * n);
    let ad = a.data();
    let bd = b.data();
    pool::for_each_row_chunk(
        &mut out,
        m,
        n,
        2 * k * n,
        pool::KernelClass::Gemm,
        |r0, chunk| {
            matmul_rows(chunk, r0, ad, bd, k, n);
        },
    );
    Tensor::from_vec(out, [m, n])
}

/// The pre-tiling `ikj` kernel, frozen as the reference/baseline: for
/// each output row, stream rows of `B` and accumulate into the output
/// row in ascending-`p` order.
///
/// Kept for two reasons: `bench_kernels` times it as the "old scalar"
/// baseline its tiled-GEMM gate compares against, and the identity
/// tests use it as the order-of-operations oracle the blocked kernel
/// must match bit-for-bit.
#[inline]
pub(crate) fn matmul_rows_naive(
    chunk: &mut [f32],
    r0: usize,
    ad: &[f32],
    bd: &[f32],
    k: usize,
    n: usize,
) {
    for (ri, orow) in chunk.chunks_exact_mut(n).enumerate() {
        let i = r0 + ri;
        let arow = &ad[i * k..(i + 1) * k];
        for (p, &av) in arow.iter().enumerate() {
            let brow = &bd[p * n..(p + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// Serial `A · B` through the frozen naive kernel — the historical
/// scalar GEMM `bench_kernels` measures its tiled-speedup gate
/// against. Never pooled, never traced; not a production entry point.
///
/// # Errors
///
/// Returns an error if either operand is not rank-2 or the inner
/// dimensions disagree.
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    check_rank2("matmul_naive", a)?;
    check_rank2("matmul_naive", b)?;
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_naive",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let mut out = scratch::take(m * n);
    matmul_rows_naive(&mut out, 0, a.data(), b.data(), k, n);
    Tensor::from_vec(out, [m, n])
}

/// Output rows `r0..` of `A · B` into `chunk` (which arrives
/// zero-filled from the scratch pool), through the AVX2 build of
/// [`matmul_rows_body`] where the host has one — the same bits either
/// way (see [`pool::with_wide_isa`]).
pub(crate) fn matmul_rows(
    chunk: &mut [f32],
    r0: usize,
    ad: &[f32],
    bd: &[f32],
    k: usize,
    n: usize,
) {
    pool::with_wide_isa(
        #[inline(always)]
        || matmul_rows_body(chunk, r0, ad, bd, k, n),
    );
}

/// Blocked scalar kernel for output rows `r0..` of `A · B`, written
/// into `chunk`.
///
/// Loop nest: `KC` strips of `k` (ascending, partial sums parked in
/// the output between strips), `NC` panels of columns, then `MR`-row
/// register tiles over the chunk's rows. A panel that spans every
/// column of `B` (`n ≤ NC`) is read in place, its rows already
/// contiguous; the panels of a wider `B` are packed first. Each output
/// element accumulates in ascending-`p` order throughout — see the
/// module docs for why that is the one property this kernel must not
/// trade away. Always inlined, micro-kernels included, so each
/// instruction-set build of a caller ([`matmul_rows`], `matmul_gelu`)
/// compiles the whole nest.
#[inline(always)]
pub(crate) fn matmul_rows_body(
    chunk: &mut [f32],
    r0: usize,
    ad: &[f32],
    bd: &[f32],
    k: usize,
    n: usize,
) {
    if n == 0 {
        return;
    }
    let rows = chunk.len() / n;
    let in_place = n <= NC;
    let mut pack = if in_place {
        Vec::new()
    } else {
        scratch::take(KC.min(k) * NC)
    };
    let mut kc0 = 0;
    while kc0 < k {
        let kc_len = KC.min(k - kc0);
        let mut nc0 = 0;
        while nc0 < n {
            let nc_len = NC.min(n - nc0);
            let b = if in_place {
                &bd[kc0 * n..][..kc_len * n]
            } else {
                // Pack the [kc_len, nc_len] sub-block of B contiguously
                // so the micro-kernel streams it with unit stride.
                for p in 0..kc_len {
                    pack[p * nc_len..][..nc_len]
                        .copy_from_slice(&bd[(kc0 + p) * n + nc0..][..nc_len]);
                }
                &pack[..kc_len * nc_len]
            };
            let panel = Panel { b, n, nc0, nc_len };
            let mut r = 0;
            while r + MR <= rows {
                let arows = [
                    &ad[(r0 + r) * k + kc0..][..kc_len],
                    &ad[(r0 + r + 1) * k + kc0..][..kc_len],
                    &ad[(r0 + r + 2) * k + kc0..][..kc_len],
                    &ad[(r0 + r + 3) * k + kc0..][..kc_len],
                ];
                panel.rows(chunk, r, arows);
                r += MR;
            }
            while r < rows {
                panel.rows(chunk, r, [&ad[(r0 + r) * k + kc0..][..kc_len]]);
                r += 1;
            }
            nc0 += nc_len;
        }
        kc0 += kc_len;
    }
    scratch::give(pack);
}

/// One `KC × NC` block of `B` as the micro-kernels read it: `b` is
/// `kc_len` rows of `nc_len` contiguous columns (packed, or `B`'s own
/// rows when the panel spans all `n` of them), feeding output columns
/// `nc0..nc0 + nc_len` of rows `n` wide.
#[derive(Clone, Copy)]
struct Panel<'a> {
    b: &'a [f32],
    n: usize,
    nc0: usize,
    nc_len: usize,
}

impl Panel<'_> {
    /// Advances output rows `r..r + R` by this panel: column tiles of
    /// `NR`, then 8, 4 and 1, every tile keeping all `R` rows in flight.
    #[inline(always)]
    fn rows<const R: usize>(self, chunk: &mut [f32], r: usize, arows: [&[f32]; R]) {
        let mut j = 0;
        while j + NR <= self.nc_len {
            self.tile::<R, NR>(chunk, r, j, arows);
            j += NR;
        }
        if j + 8 <= self.nc_len {
            self.tile::<R, 8>(chunk, r, j, arows);
            j += 8;
        }
        if j + 4 <= self.nc_len {
            self.tile::<R, 4>(chunk, r, j, arows);
            j += 4;
        }
        while j < self.nc_len {
            self.tile::<R, 1>(chunk, r, j, arows);
            j += 1;
        }
    }

    /// The register micro-kernel: output rows `r..r + R` × panel
    /// columns `j..j + W` in `R × W` accumulators, loaded from the
    /// partial sums in `chunk` (an exact `f32` round trip), advanced
    /// in ascending `p`, stored back.
    #[inline(always)]
    fn tile<const R: usize, const W: usize>(
        self,
        chunk: &mut [f32],
        r: usize,
        j: usize,
        arows: [&[f32]; R],
    ) {
        let col = self.nc0 + j;
        let mut acc = [[0.0f32; W]; R];
        for (u, accr) in acc.iter_mut().enumerate() {
            accr.copy_from_slice(&chunk[(r + u) * self.n + col..][..W]);
        }
        // Panel row `p` is `nc_len` long and `j + W ≤ nc_len`, so every
        // `bp` is a full `W`-column slice; each `arows[u]` is `kc_len`
        // long, which is the panel's row count.
        for (p, brow) in self.b.chunks_exact(self.nc_len).enumerate() {
            let bp = &brow[j..][..W];
            for (accr, arow) in acc.iter_mut().zip(arows) {
                let av = arow[p];
                for (o, &bv) in accr.iter_mut().zip(bp) {
                    *o += av * bv;
                }
            }
        }
        for (u, accr) in acc.iter().enumerate() {
            chunk[(r + u) * self.n + col..][..W].copy_from_slice(accr);
        }
    }
}

/// Computes `A · Bᵀ` for `A: [m, k]` and `B: [n, k]` without
/// materializing the transpose.
///
/// This is the natural layout for the attention score computation
/// `Q · Kᵀ`, where both operands store one token per row.
///
/// # Errors
///
/// Returns an error if either operand is not rank-2 or the shared
/// dimension disagrees.
pub fn matmul_bt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    check_rank2("matmul_bt", a)?;
    check_rank2("matmul_bt", b)?;
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (n, k2) = (b.dims()[0], b.dims()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_bt",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let _span = ktrace::span("matmul_bt");
    let mut out = scratch::take(m * n);
    let ad = a.data();
    let bd = b.data();
    // Its dot products, one chain per output, measure 0.16–0.40 ns per
    // multiply or add (the high end at the `k = 8` of per-head scores),
    // 5–12 units of the Gemm class, which calibrates on the tiled rows.
    pool::for_each_row_chunk(
        &mut out,
        m,
        n,
        16 * k * n,
        pool::KernelClass::Gemm,
        |r0, chunk| {
            matmul_bt_rows(chunk, r0, ad, bd, k, n);
        },
    );
    Tensor::from_vec(out, [m, n])
}

/// Scalar kernel for output rows `r0..` of `A · Bᵀ`: dot products of
/// contiguous rows, unrolled 4 output columns wide so each read of the
/// `A` row feeds four independent accumulators. Each accumulator is
/// still a single ascending-`k` sum, so the unroll is bitwise
/// invisible.
#[inline]
fn matmul_bt_rows(chunk: &mut [f32], r0: usize, ad: &[f32], bd: &[f32], k: usize, n: usize) {
    for (ri, orow) in chunk.chunks_exact_mut(n).enumerate() {
        let i = r0 + ri;
        let arow = &ad[i * k..(i + 1) * k];
        let mut j = 0;
        while j + 4 <= n {
            let b0 = &bd[j * k..(j + 1) * k];
            let b1 = &bd[(j + 1) * k..(j + 2) * k];
            let b2 = &bd[(j + 2) * k..(j + 3) * k];
            let b3 = &bd[(j + 3) * k..(j + 4) * k];
            let (mut a0, mut a1, mut a2, mut a3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for (t, &x) in arow.iter().enumerate() {
                a0 += x * b0[t];
                a1 += x * b1[t];
                a2 += x * b2[t];
                a3 += x * b3[t];
            }
            orow[j] = a0;
            orow[j + 1] = a1;
            orow[j + 2] = a2;
            orow[j + 3] = a3;
            j += 4;
        }
        for (jj, o) in orow.iter_mut().enumerate().skip(j) {
            let brow = &bd[jj * k..(jj + 1) * k];
            let mut acc = 0.0f32;
            for (&x, &y) in arow.iter().zip(brow.iter()) {
                acc += x * y;
            }
            *o = acc;
        }
    }
}

fn check_rank2(op: &'static str, t: &Tensor) -> Result<()> {
    if t.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: t.rank(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], [2, 2]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = DetRng::new(2);
        let a = Tensor::randn([4, 4], &mut rng);
        let i = Tensor::eye(4);
        assert!(matmul(&a, &i).unwrap().max_abs_diff(&a).unwrap() < 1e-6);
        assert!(matmul(&i, &a).unwrap().max_abs_diff(&a).unwrap() < 1e-6);
    }

    #[test]
    fn rejects_inner_dim_mismatch() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul_naive(&a, &b).is_err());
    }

    #[test]
    fn rejects_non_matrices() {
        let a = Tensor::zeros([2, 3, 4]);
        let b = Tensor::zeros([4, 2]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul_bt(&a, &b).is_err());
        assert!(matmul_naive(&a, &b).is_err());
    }

    #[test]
    fn bt_matches_explicit_transpose() {
        let mut rng = DetRng::new(3);
        let a = Tensor::randn([5, 7], &mut rng);
        let b = Tensor::randn([6, 7], &mut rng);
        let via_bt = matmul_bt(&a, &b).unwrap();
        let via_t = matmul(&a, &b.transpose().unwrap()).unwrap();
        assert!(via_bt.max_abs_diff(&via_t).unwrap() < 1e-5);
    }

    #[test]
    fn rectangular_shapes() {
        let mut rng = DetRng::new(5);
        let a = Tensor::randn([3, 8], &mut rng);
        let b = Tensor::randn([8, 2], &mut rng);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[3, 2]);
    }

    /// Every shape class the blocking distinguishes: row counts 1–9
    /// (the 4-row tile and its single-row remainder) against output
    /// widths on and off every column-tile boundary (16, 8, 4, 1 and
    /// their mixes, up to a whole `NC` panel and one past it), each
    /// over one `KC` strip and over two with `B` read in place; plus
    /// single, partial and multiple strips and packed panels.
    fn shape_classes() -> Vec<(usize, usize, usize)> {
        let mut shapes = vec![
            (1, 1, 1),
            (3, 5, 7),
            (4, 8, 8),
            (5, 9, 11),
            (MR, KC, NR),
            (MR + 1, KC + 3, NR + 1),
            (7, KC * 2 + 5, NC + 9),
            (16, 64, NC * 2 + 3),
            (33, 130, 17),
        ];
        for m in 1..=9 {
            for n in [4, 12, 20, 24, 31, 40, NC, NC + 4] {
                for k in [48, KC + 37] {
                    shapes.push((m, k, n));
                }
            }
        }
        shapes
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The blocked kernel must be bit-for-bit the naive `ikj` loop at
    /// every shape class: as served, and the baseline build's body
    /// called directly, on any host.
    #[test]
    fn tiled_kernel_is_bitwise_identical_to_naive() {
        let mut rng = DetRng::new(0x7A11);
        for (m, k, n) in shape_classes() {
            let a = Tensor::randn([m, k], &mut rng);
            let b = Tensor::randn([k, n], &mut rng);
            let naive = bits(matmul_naive(&a, &b).unwrap().data());
            let tiled = matmul(&a, &b).unwrap();
            assert_eq!(
                bits(tiled.data()),
                naive,
                "[{m}x{k}]x[{k}x{n}] tiled != naive"
            );
            let mut base = vec![0.0f32; m * n];
            matmul_rows_body(&mut base, 0, a.data(), b.data(), k, n);
            assert_eq!(bits(&base), naive, "[{m}x{k}]x[{k}x{n}] baseline != naive");
        }
    }

    /// Output rows `r0..m` of `[m, k] · [k, n]` from the baseline build
    /// (`matmul_rows_body` called directly) and from `matmul_rows`,
    /// which runs the AVX2 build on this host, as bit patterns.
    fn both_builds(m: usize, k: usize, n: usize, r0: usize, seed: u64) -> (Vec<u32>, Vec<u32>) {
        let mut rng = DetRng::new(seed);
        let a = Tensor::randn([m, k], &mut rng);
        let b = Tensor::randn([k, n], &mut rng);
        let (mut base, mut wide) = (vec![0.0f32; (m - r0) * n], vec![0.0f32; (m - r0) * n]);
        matmul_rows_body(&mut base, r0, a.data(), b.data(), k, n);
        matmul_rows(&mut wide, r0, a.data(), b.data(), k, n);
        (bits(&base), bits(&wide))
    }

    #[test]
    fn wide_build_is_bitwise_the_baseline_at_every_shape_class() {
        if !pool::wide_isa_or_skip("wide_build_is_bitwise_the_baseline_at_every_shape_class") {
            return;
        }
        for (i, (m, k, n)) in shape_classes().into_iter().enumerate() {
            let (base, wide) = both_builds(m, k, n, 0, 0xA5A0 + i as u64);
            assert_eq!(base, wide, "[{m}x{k}]x[{k}x{n}] AVX2 != baseline");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn prop_wide_build_is_bitwise_the_baseline(
            m in 1usize..40,
            k in 1usize..300,
            n in 1usize..300,
            r0_pct in 0usize..100,
            seed in 0u64..1_000_000,
        ) {
            if pool::wide_isa_or_skip("prop_wide_build_is_bitwise_the_baseline") {
                let (base, wide) = both_builds(m, k, n, m * r0_pct / 100, seed);
                proptest::prop_assert_eq!(base, wide);
            }
        }
    }

    #[test]
    fn flop_count_formula() {
        assert_eq!(matmul_flops(2, 3, 4), 48);
        assert_eq!(matmul_flops(1, 1, 1), 2);
    }
}
