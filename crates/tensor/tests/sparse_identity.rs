//! Bitwise-identity guarantees of the plan-taking GEMM.
//!
//! `ops::sparse::matmul`'s contract: rows the plan computes are
//! **bit-for-bit identical** to the dense kernel's rows (it runs the
//! same row code on gathered data), and every other row is the
//! caller's template verbatim (or exact zeros with no template). These
//! proptests check that split on arbitrary shapes and arbitrary —
//! unsorted, duplicated — mask index lists, and pin down the degenerate
//! empty/full plans.

use fps_tensor::ops::matmul;
use fps_tensor::ops::sparse::{self, SparsePlan};
use fps_tensor::rng::DetRng;
use fps_tensor::Tensor;
use proptest::prelude::*;

/// Asserts `out` carries dense bits at the (sorted) `computed` rows and
/// template bits — zeros when `template` is `None` — everywhere else.
fn assert_row_split(
    label: &str,
    out: &Tensor,
    dense: &Tensor,
    computed: &[usize],
    template: Option<&Tensor>,
) {
    assert_eq!(out.dims(), dense.dims(), "{label} shape");
    let cols = out.dims()[1];
    for r in 0..out.dims()[0] {
        let got = &out.data()[r * cols..(r + 1) * cols];
        if computed.binary_search(&r).is_ok() {
            let want = &dense.data()[r * cols..(r + 1) * cols];
            assert!(
                got.iter()
                    .zip(want)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{label} computed row {r} differs from dense"
            );
        } else if let Some(t) = template {
            let want = &t.data()[r * cols..(r + 1) * cols];
            assert!(
                got.iter()
                    .zip(want)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{label} uncomputed row {r} differs from template"
            );
        } else {
            assert!(
                got.iter().all(|v| v.to_bits() == 0),
                "{label} uncomputed row {r} is not zero"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_sparse_gemm_family_bitwise(
        m in 1usize..12,
        k in 1usize..10,
        n in 1usize..10,
        mask in proptest::collection::vec(0usize..64, 0..16),
        seed in 0u64..1_000_000,
    ) {
        let masked: Vec<usize> = mask.iter().map(|&i| i % m).collect();
        let plan = SparsePlan::from_mask(m, &masked).unwrap();
        let mut rng = DetRng::new(seed);
        let a = Tensor::randn([m, k], &mut rng);
        let b = Tensor::randn([k, n], &mut rng);
        let tpl = Tensor::randn([m, n], &mut rng);
        let dense = matmul(&a, &b).unwrap();
        for template in [None, Some(&tpl)] {
            let s = sparse::matmul(&plan, &a, &b, template).unwrap();
            assert_row_split("matmul", &s, &dense, plan.active(), template);
        }
    }
}

#[test]
fn degenerate_plans_do_not_panic() {
    let mut rng = DetRng::new(11);
    let (m, k, n) = (6usize, 4usize, 5usize);
    let a = Tensor::randn([m, k], &mut rng);
    let b = Tensor::randn([k, n], &mut rng);
    let tpl = Tensor::randn([m, n], &mut rng);
    let dense = matmul(&a, &b).unwrap();

    // Empty plan: nothing computed — zeros, or the template verbatim.
    let empty = SparsePlan::from_mask(m, &[]).unwrap();
    assert!(empty.is_empty() && !empty.is_full());
    assert_eq!(
        sparse::matmul(&empty, &a, &b, None).unwrap(),
        Tensor::zeros([m, n])
    );
    assert_eq!(sparse::matmul(&empty, &a, &b, Some(&tpl)).unwrap(), tpl);

    // Full plan: the dense result regardless of template.
    let full = SparsePlan::from_mask(m, &(0..m).collect::<Vec<_>>()).unwrap();
    assert!(full.is_full());
    assert_eq!(sparse::matmul(&full, &a, &b, Some(&tpl)).unwrap(), dense);

    // Zero-row operand with a zero-row plan.
    let zero = SparsePlan::from_mask(0, &[]).unwrap();
    assert_eq!(zero.mask_ratio(), 0.0);
    let out = sparse::matmul(&zero, &Tensor::zeros([0, k]), &b, None).unwrap();
    assert_eq!(out.dims(), &[0, n]);
}
