//! Numerically stable softmax.

use crate::error::TensorError;
use crate::tensor::Tensor;
use crate::{ktrace, pool, scratch, Result};

use super::activation::exp_f32;

/// Applies softmax along the last axis of a rank-2 tensor.
///
/// Each row is shifted by its maximum before exponentiation, the standard
/// trick that keeps the computation finite for large logits.
///
/// # Errors
///
/// Returns an error for non-matrix input or a zero-width row.
pub fn softmax_rows(x: &Tensor) -> Result<Tensor> {
    if x.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "softmax_rows",
            expected: 2,
            actual: x.rank(),
        });
    }
    let (rows, cols) = (x.dims()[0], x.dims()[1]);
    if cols == 0 {
        return Err(TensorError::Empty { op: "softmax_rows" });
    }
    let _span = ktrace::span("softmax_rows");
    let mut out = scratch::take(rows * cols);
    for (orow, xrow) in out.chunks_exact_mut(cols).zip(x.data().chunks_exact(cols)) {
        orow.copy_from_slice(xrow);
        softmax_row_inplace(orow);
    }
    Tensor::from_vec(out, [rows, cols])
}

/// A pass of the attention kernel's softmax stage, for
/// [`softmax_stage_pass`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoftmaxPass {
    /// [`exp_f32`] of every element.
    Exp,
    /// The whole row softmax: maximum, shifted `exp_f32`, lane sum and
    /// scale, over each row.
    Row,
}

/// Runs `pass` in place over `data`, rows `cols` wide: through the AVX2
/// build when `wide` is set and the host has AVX2, as the attention
/// kernel runs its softmax stage, else through the baseline build, as
/// [`softmax_rows`] runs on every host. No kernel calls this; it exists
/// so a benchmark can time the two builds of the stage apart.
pub fn softmax_stage_pass(data: &mut [f32], cols: usize, pass: SoftmaxPass, wide: bool) {
    if wide {
        pool::with_wide_isa(
            #[inline(always)]
            || stage_pass_body(data, cols, pass),
        );
    } else {
        stage_pass_body(data, cols, pass);
    }
}

/// [`softmax_stage_pass`]'s one body for both builds.
#[inline(always)]
fn stage_pass_body(data: &mut [f32], cols: usize, pass: SoftmaxPass) {
    match pass {
        SoftmaxPass::Exp => data.iter_mut().for_each(|v| *v = exp_f32(*v)),
        SoftmaxPass::Row => data.chunks_exact_mut(cols).for_each(softmax_row_inplace),
    }
}

/// Accumulator lanes of the row reductions: two SSE2 registers, and
/// the width the reductions' results are defined over — see
/// [`lane_sum`].
const LANES: usize = 8;

/// Replaces one row of logits with its softmax, using the max-shift
/// trick. This is *the* softmax kernel: [`softmax_rows`] and the fused
/// attention both call it, so their probabilities agree bitwise.
///
/// Three passes, each a loop LLVM vectorises: the row maximum, the
/// in-tree [`exp_f32`] of the shifted logits, and their sum — then the
/// scale by its reciprocal.
#[inline(always)]
pub(crate) fn softmax_row_inplace(row: &mut [f32]) {
    let max = lane_max(row);
    for v in row.iter_mut() {
        *v = exp_f32(*v - max);
    }
    let inv = 1.0 / lane_sum(row);
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// Maximum of `row`, ignoring NaNs (`−∞` when empty), over [`LANES`]
/// running maxima. A maximum is exact, so the lane split cannot change
/// its value.
#[inline(always)]
fn lane_max(row: &[f32]) -> f32 {
    let pick = |m: f32, v: f32| if v > m { v } else { m };
    let mut lanes = [f32::NEG_INFINITY; LANES];
    let chunks = row.chunks_exact(LANES);
    let rest = chunks.remainder();
    for chunk in chunks {
        for (m, &v) in lanes.iter_mut().zip(chunk) {
            *m = pick(*m, v);
        }
    }
    lanes
        .iter()
        .chain(rest)
        .fold(f32::NEG_INFINITY, |m, &v| pick(m, v))
}

/// Sum of `row` in one fixed order: element `i` of the leading
/// multiple of [`LANES`] goes to lane `i % LANES`, the lanes combine as
/// the tree `((l₀+l₄) + (l₂+l₆)) + ((l₁+l₅) + (l₃+l₇))`, and the
/// remaining `len % LANES` elements are added in ascending order. The
/// order is a function of the row length alone — not of the host — so
/// the sum's bits are too.
#[inline(always)]
fn lane_sum(row: &[f32]) -> f32 {
    let mut lanes = [0.0f32; LANES];
    let chunks = row.chunks_exact(LANES);
    let rest = chunks.remainder();
    for chunk in chunks {
        for (s, &v) in lanes.iter_mut().zip(chunk) {
            *s += v;
        }
    }
    let [l0, l1, l2, l3, l4, l5, l6, l7] = lanes;
    let tree = ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7));
    rest.iter().fold(tree, |s, &v| s + v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;
    use proptest::prelude::*;

    #[test]
    fn rows_sum_to_one() {
        let mut rng = DetRng::new(1);
        let x = Tensor::randn([8, 16], &mut rng);
        let s = softmax_rows(&x).unwrap();
        for r in 0..8 {
            let sum: f32 = s.row(r).unwrap().iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
        }
    }

    #[test]
    fn uniform_logits_give_uniform_probs() {
        let x = Tensor::full([1, 4], 3.0);
        let s = softmax_rows(&x).unwrap();
        for &p in s.data() {
            assert!((p - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn constant_rows_are_exactly_uniform() {
        // exp_f32(0) == 1 exactly and the lane sum of ones is exact, so
        // every probability is the one correctly rounded 1 / cols.
        for cols in [1usize, 7, 8, 9, 144, 255, 256] {
            let s = softmax_rows(&Tensor::full([2, cols], -3.25)).unwrap();
            let uniform = 1.0 / cols as f32;
            assert!(
                s.data().iter().all(|&p| p.to_bits() == uniform.to_bits()),
                "cols = {cols}"
            );
        }
    }

    #[test]
    fn lane_remainders_sum_to_one() {
        // Lengths on both sides of every lane boundary: all remainder,
        // one short of a lane block, one over, whole blocks, 31·8 + 7.
        let mut rng = DetRng::new(7);
        for cols in [1usize, 7, 9, 144, 255] {
            let x = Tensor::randn([3, cols], &mut rng).scale(4.0);
            let s = softmax_rows(&x).unwrap();
            for r in 0..3 {
                let row = s.row(r).unwrap();
                let sum: f64 = row.iter().map(|&p| f64::from(p)).sum();
                assert!(
                    (sum - 1.0).abs() < 1e-6,
                    "cols {cols} row {r} sums to {sum}"
                );
                let argmax = |v: &[f32]| (0..v.len()).max_by(|&a, &b| v[a].total_cmp(&v[b]));
                assert_eq!(
                    argmax(row),
                    argmax(x.row(r).unwrap()),
                    "cols {cols} row {r}"
                );
            }
        }
    }

    #[test]
    fn lane_reductions_agree_with_sequential_ones() {
        let mut rng = DetRng::new(8);
        for len in [0usize, 1, 7, 8, 9, 16, 37, 144] {
            let mut row = Tensor::randn([len.max(1)], &mut rng).data()[..len].to_vec();
            let sum: f64 = row.iter().map(|&v| f64::from(v)).sum();
            assert!((f64::from(lane_sum(&row)) - sum).abs() < 1e-4, "len {len}");
            if len > 2 {
                row[len / 2] = f32::NAN; // the maximum skips it
            }
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            assert_eq!(lane_max(&row).to_bits(), max.to_bits(), "len {len}");
        }
    }

    #[test]
    fn masked_logits_get_exactly_zero() {
        let x = Tensor::from_vec(vec![0.5, f32::NEG_INFINITY, -200.0, 0.5], [1, 4]).unwrap();
        let s = softmax_rows(&x).unwrap();
        assert_eq!(s.data(), &[0.5, 0.0, 0.0, 0.5]);
    }

    #[test]
    fn large_logits_stay_finite() {
        let x = Tensor::from_vec(vec![1e30, -1e30, 0.0], [1, 3]).unwrap();
        let s = softmax_rows(&x).unwrap();
        assert!(s.data().iter().all(|p| p.is_finite()));
        assert!((s.data()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn shift_invariance() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], [1, 3]).unwrap();
        let y = x.map(|v| v + 100.0);
        let sx = softmax_rows(&x).unwrap();
        let sy = softmax_rows(&y).unwrap();
        assert!(sx.max_abs_diff(&sy).unwrap() < 1e-5);
    }

    #[test]
    fn stage_passes_match_the_kernels_in_both_builds() {
        let x = Tensor::randn([3, 37], &mut DetRng::new(9)).scale(3.0);
        let want_row = softmax_rows(&x).unwrap();
        let want_exp = x.map(exp_f32);
        for wide in [false, true] {
            let mut row = x.data().to_vec();
            softmax_stage_pass(&mut row, 37, SoftmaxPass::Row, wide);
            assert_eq!(row, want_row.data(), "row pass, wide {wide}");
            let mut exp = x.data().to_vec();
            softmax_stage_pass(&mut exp, 37, SoftmaxPass::Exp, wide);
            assert_eq!(exp, want_exp.data(), "exp pass, wide {wide}");
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(softmax_rows(&Tensor::zeros([3])).is_err());
        assert!(softmax_rows(&Tensor::zeros([2, 0])).is_err());
    }

    proptest! {
        #[test]
        fn prop_rows_are_distributions(vals in proptest::collection::vec(-50.0f32..50.0, 12)) {
            let x = Tensor::from_vec(vals, [3, 4]).unwrap();
            let s = softmax_rows(&x).unwrap();
            for r in 0..3 {
                let row = s.row(r).unwrap();
                let sum: f32 = row.iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-4);
                prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
            }
        }

        #[test]
        fn prop_monotone_in_logits(a in -20.0f32..20.0, b in -20.0f32..20.0) {
            prop_assume!((a - b).abs() > 1e-3);
            let x = Tensor::from_vec(vec![a, b], [1, 2]).unwrap();
            let s = softmax_rows(&x).unwrap();
            if a > b {
                prop_assert!(s.data()[0] > s.data()[1]);
            } else {
                prop_assert!(s.data()[0] < s.data()[1]);
            }
        }
    }
}
