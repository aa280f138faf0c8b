//! Bitwise-identity guarantees of the parallel compute plane.
//!
//! The contract (DESIGN.md "Compute plane & parallelism"): for every
//! kernel the pool parallelizes, and for every fused kernel, the result
//! is **bit-for-bit identical** to the serial reference — not merely
//! close. These proptests run each kernel twice on arbitrary shapes
//! (including single-row, single-column, and empty edges) — pinned
//! serial (`with_min_parallel_work(usize::MAX)`) and forced through the
//! pool (threshold zero) — and compare `f32::to_bits` exactly.

use fps_tensor::ops::{
    ada_layer_norm, conv3x3, gelu, layer_norm, matmul, matmul_bt, matmul_gelu, mha_fused, modulate,
    softmax_rows,
};
use fps_tensor::pool::with_min_parallel_work;
use fps_tensor::rng::DetRng;
use fps_tensor::Tensor;
use proptest::prelude::*;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Runs `f` pinned serial (threshold `usize::MAX`), then forced through
/// the pool (threshold 0, so even 1-element shapes are row-chunked);
/// asserts both executions produce bitwise-equal tensors.
fn assert_paths_identical(label: &str, f: impl Fn() -> Tensor) {
    let serial = with_min_parallel_work(usize::MAX, &f);
    let pooled = with_min_parallel_work(0, &f);
    assert_eq!(bits(&pooled), bits(&serial), "{label}: pooled != serial");
    assert_eq!(pooled.dims(), serial.dims(), "{label}: shape");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_matmul_family_bitwise(
        m in 0usize..14,
        k in 0usize..14,
        n in 0usize..14,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = DetRng::new(seed);
        let a = Tensor::randn([m, k], &mut rng);
        let b = Tensor::randn([k, n], &mut rng);
        assert_paths_identical("matmul", || matmul(&a, &b).unwrap());
        let bt = Tensor::randn([n, k], &mut rng);
        assert_paths_identical("matmul_bt", || matmul_bt(&a, &bt).unwrap());
        assert_paths_identical("matmul_gelu", || matmul_gelu(&a, &b).unwrap());
    }

    #[test]
    fn prop_rowwise_kernels_bitwise(
        rows in 0usize..14,
        cols in 1usize..14,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = DetRng::new(seed);
        let x = Tensor::randn([rows, cols], &mut rng).scale(3.0);
        assert_paths_identical("softmax_rows", || softmax_rows(&x).unwrap());
        let g = Tensor::randn([cols], &mut rng);
        let b = Tensor::randn([cols], &mut rng);
        assert_paths_identical("layer_norm", || layer_norm(&x, &g, &b).unwrap());
        let s = Tensor::randn([cols], &mut rng);
        let sh = Tensor::randn([cols], &mut rng);
        assert_paths_identical("ada_layer_norm", || {
            ada_layer_norm(&x, &g, &b, &s, &sh).unwrap()
        });
        // The fused AdaLN must also match the two-op composition.
        let composed = with_min_parallel_work(usize::MAX, || {
            modulate(&layer_norm(&x, &g, &b).unwrap(), &s, &sh).unwrap()
        });
        let fused = ada_layer_norm(&x, &g, &b, &s, &sh).unwrap();
        prop_assert_eq!(bits(&fused), bits(&composed));
    }

    #[test]
    fn prop_conv3x3_bitwise(
        h in 1usize..7,
        w in 1usize..7,
        c_in in 1usize..5,
        c_out in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = DetRng::new(seed);
        let x = Tensor::randn([h * w, c_in], &mut rng);
        let kern = Tensor::randn([9 * c_in, c_out], &mut rng);
        let bias = Tensor::randn([c_out], &mut rng);
        assert_paths_identical("conv3x3", || {
            conv3x3(&x, h, w, &kern, &bias).unwrap()
        });
    }

    #[test]
    fn prop_mha_fused_bitwise_vs_composed(
        // Row blocks of 4 with every remainder, empty queries; key
        // tiles of 8, then 4, then 1, down to a single key; head
        // widths on and off the 8/4-column tiles.
        n in 0usize..14,
        l in 1usize..42,
        heads in 1usize..4,
        dh_idx in 0usize..5,
        seed in 0u64..1_000_000,
    ) {
        let dh = [1, 3, 4, 8, 12][dh_idx];
        let h = heads * dh;
        let mut rng = DetRng::new(seed);
        let q = Tensor::randn([n, h], &mut rng);
        let k = Tensor::randn([l, h], &mut rng);
        let v = Tensor::randn([l, h], &mut rng);
        let scale = 1.0 / (dh as f32).sqrt();
        // Composed reference via primitive ops, pinned serial, slicing
        // each head's columns like the historical block code.
        let composed = with_min_parallel_work(usize::MAX, || {
            let slice_cols = |x: &Tensor, start: usize| {
                let (rows, cols) = (x.dims()[0], x.dims()[1]);
                let mut out = Vec::with_capacity(rows * dh);
                for r in 0..rows {
                    out.extend_from_slice(&x.data()[r * cols + start..r * cols + start + dh]);
                }
                Tensor::from_vec(out, [rows, dh]).unwrap()
            };
            let mut out = Tensor::zeros([n, h]);
            for head in 0..heads {
                let qs = slice_cols(&q, head * dh);
                let ks = slice_cols(&k, head * dh);
                let vs = slice_cols(&v, head * dh);
                let probs =
                    softmax_rows(&matmul_bt(&qs, &ks).unwrap().scale(scale)).unwrap();
                let ctx = matmul(&probs, &vs).unwrap();
                for row in 0..n {
                    let src = ctx.row(row).unwrap().to_vec();
                    out.row_mut(row).unwrap()[head * dh..(head + 1) * dh]
                        .copy_from_slice(&src);
                }
            }
            out
        });
        let fused = with_min_parallel_work(0, || mha_fused(&q, &k, &v, heads, scale).unwrap());
        prop_assert_eq!(bits(&fused), bits(&composed));
    }
}

#[test]
fn degenerate_shapes_conv_and_softmax() {
    let mut rng = DetRng::new(7);
    // 1×1 grid: every tap except the centre falls outside.
    let x = Tensor::randn([1, 3], &mut rng);
    let k = Tensor::randn([27, 2], &mut rng);
    let b = Tensor::randn([2], &mut rng);
    let y = conv3x3(&x, 1, 1, &k, &b).unwrap();
    assert_eq!(y.dims(), &[1, 2]);
    assert!(y.data().iter().all(|v| v.is_finite()));
    // 1-wide column grid: no horizontal neighbours.
    let x = Tensor::randn([4, 2], &mut rng);
    let k = Tensor::randn([18, 1], &mut rng);
    let y = conv3x3(&x, 4, 1, &k, &Tensor::zeros([1])).unwrap();
    assert_eq!(y.dims(), &[4, 1]);
    // Single-element softmax row is exactly 1.0.
    let s = softmax_rows(&Tensor::from_vec(vec![42.0], [1, 1]).unwrap()).unwrap();
    assert_eq!(s.data(), &[1.0]);
    // Zero-row softmax is legal; zero-width is rejected.
    assert_eq!(
        softmax_rows(&Tensor::zeros([0, 5])).unwrap().dims(),
        &[0, 5]
    );
    assert!(softmax_rows(&Tensor::zeros([5, 0])).is_err());
    // Zero-row conv grid (h = 0) produces an empty token matrix.
    let y = conv3x3(
        &Tensor::zeros([0, 2]),
        0,
        3,
        &Tensor::zeros([18, 2]),
        &Tensor::zeros([2]),
    )
    .unwrap();
    assert_eq!(y.dims(), &[0, 2]);
}

#[test]
fn zero_skip_removal_keeps_sparse_products_exact() {
    // Sparse operands exercised the old `av == 0.0` skip; the dense
    // kernel must produce the same products (modulo -0.0 edges, absent
    // here) and bitwise-equal parallel results.
    let a = Tensor::from_vec(vec![0.0, 2.0, 0.0, 0.0, 3.0, 0.0], [2, 3]).unwrap();
    let b = Tensor::from_vec(vec![1.0, 4.0, 0.0, 5.0, 2.0, 6.0], [3, 2]).unwrap();
    let c = matmul(&a, &b).unwrap();
    assert_eq!(c.data(), &[0.0, 10.0, 0.0, 15.0]);
    assert_paths_identical("sparse matmul", || matmul(&a, &b).unwrap());
    let _ = gelu(&c); // keep the import exercised alongside matmul_gelu
}
