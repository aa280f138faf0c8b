//! Token gather/scatter — the primitive behind mask-aware computation.
//!
//! FlashPS's mask-aware attention (paper §3.1, Fig. 5-bottom) extracts
//! the rows of the token matrix that correspond to masked tokens, runs
//! the transformer block on that reduced matrix, and then *replenishes*
//! the unmasked rows from the activation cache. [`gather_rows`] performs
//! the extraction and [`scatter_rows_into`] the replenishment.

use crate::error::TensorError;
use crate::tensor::Tensor;
use crate::Result;

/// Gathers the listed rows of a rank-2 tensor into a new `[idx.len(), h]`
/// tensor, in index order.
///
/// # Errors
///
/// Returns an error for non-matrix input or an out-of-bounds index.
pub fn gather_rows(x: &Tensor, idx: &[usize]) -> Result<Tensor> {
    if x.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "gather_rows",
            expected: 2,
            actual: x.rank(),
        });
    }
    let (rows, cols) = (x.dims()[0], x.dims()[1]);
    let mut out = Vec::with_capacity(idx.len() * cols);
    for &i in idx {
        if i >= rows {
            return Err(TensorError::IndexOutOfBounds {
                op: "gather_rows",
                index: i,
                bound: rows,
            });
        }
        out.extend_from_slice(&x.data()[i * cols..(i + 1) * cols]);
    }
    Tensor::from_vec(out, [idx.len(), cols])
}

/// Scatters rows of `src` into an existing destination, overwriting the
/// rows named by `idx` and leaving every other row untouched.
///
/// This is the cache-replenishment step: the destination holds cached
/// unmasked activations and `src` holds the freshly computed masked
/// rows (or vice versa).
///
/// # Errors
///
/// Returns an error when ranks or widths mismatch, `idx.len()` differs
/// from `src`'s row count, or an index is out of bounds.
pub fn scatter_rows_into(dst: &mut Tensor, src: &Tensor, idx: &[usize]) -> Result<()> {
    if dst.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "scatter_rows_into",
            expected: 2,
            actual: dst.rank(),
        });
    }
    let total_rows = dst.dims()[0];
    let cols = check_scatter_args("scatter_rows_into", src, idx, total_rows)?;
    if dst.dims()[1] != cols {
        return Err(TensorError::ShapeMismatch {
            op: "scatter_rows_into",
            lhs: dst.dims().to_vec(),
            rhs: src.dims().to_vec(),
        });
    }
    for (k, &i) in idx.iter().enumerate() {
        let row = &src.data()[k * cols..(k + 1) * cols];
        dst.data_mut()[i * cols..(i + 1) * cols].copy_from_slice(row);
    }
    Ok(())
}

fn check_scatter_args(
    op: &'static str,
    src: &Tensor,
    idx: &[usize],
    total_rows: usize,
) -> Result<usize> {
    if src.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: src.rank(),
        });
    }
    if src.dims()[0] != idx.len() {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: src.dims().to_vec(),
            rhs: vec![idx.len()],
        });
    }
    if let Some(&bad) = idx.iter().find(|&&i| i >= total_rows) {
        return Err(TensorError::IndexOutOfBounds {
            op,
            index: bad,
            bound: total_rows,
        });
    }
    Ok(src.dims()[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;
    use proptest::prelude::*;

    #[test]
    fn gather_selects_rows_in_order() {
        let x = Tensor::from_vec((0..8).map(|i| i as f32).collect(), [4, 2]).unwrap();
        let g = gather_rows(&x, &[3, 1]).unwrap();
        assert_eq!(g.dims(), &[2, 2]);
        assert_eq!(g.data(), &[6.0, 7.0, 2.0, 3.0]);
    }

    #[test]
    fn gather_rejects_out_of_bounds() {
        let x = Tensor::zeros([2, 2]);
        assert!(gather_rows(&x, &[2]).is_err());
    }

    #[test]
    fn scatter_places_rows() {
        let src = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).unwrap();
        let mut out = Tensor::zeros([3, 2]);
        scatter_rows_into(&mut out, &src, &[2, 0]).unwrap();
        assert_eq!(out.row(2).unwrap(), &[1.0, 2.0]);
        assert_eq!(out.row(0).unwrap(), &[3.0, 4.0]);
        assert_eq!(out.row(1).unwrap(), &[0.0, 0.0]);
    }

    #[test]
    fn scatter_into_preserves_other_rows() {
        let mut dst = Tensor::full([3, 2], 9.0);
        let src = Tensor::from_vec(vec![1.0, 2.0], [1, 2]).unwrap();
        scatter_rows_into(&mut dst, &src, &[1]).unwrap();
        assert_eq!(dst.row(0).unwrap(), &[9.0, 9.0]);
        assert_eq!(dst.row(1).unwrap(), &[1.0, 2.0]);
        assert_eq!(dst.row(2).unwrap(), &[9.0, 9.0]);
    }

    #[test]
    fn scatter_validates_arguments() {
        let src = Tensor::zeros([2, 2]);
        let mut dst = Tensor::zeros([3, 2]);
        assert!(
            scatter_rows_into(&mut dst, &src, &[0]).is_err(),
            "idx length mismatch"
        );
        assert!(
            scatter_rows_into(&mut dst, &src, &[0, 5]).is_err(),
            "index oob"
        );
        let mut narrow = Tensor::zeros([3, 1]);
        assert!(
            scatter_rows_into(&mut narrow, &src, &[0, 1]).is_err(),
            "width mismatch"
        );
    }

    #[test]
    fn gather_scatter_roundtrip_full_permutation() {
        let mut rng = DetRng::new(1);
        let x = Tensor::randn([5, 3], &mut rng);
        let perm = [4usize, 2, 0, 3, 1];
        let g = gather_rows(&x, &perm).unwrap();
        let mut back = Tensor::zeros([5, 3]);
        scatter_rows_into(&mut back, &g, &perm).unwrap();
        assert_eq!(back, x);
    }

    proptest! {
        #[test]
        fn prop_partition_roundtrip(rows in 1usize..12, seed in 0u64..1000) {
            // Splitting rows into "masked" and "unmasked" sets, gathering
            // each, and scattering both back reconstructs the original —
            // the invariant mask-aware block computation depends on.
            let mut rng = DetRng::new(seed);
            let x = Tensor::randn([rows, 4], &mut rng);
            let masked: Vec<usize> = (0..rows).filter(|i| i % 2 == 0).collect();
            let unmasked: Vec<usize> = (0..rows).filter(|i| i % 2 == 1).collect();
            let gm = gather_rows(&x, &masked).unwrap();
            let gu = gather_rows(&x, &unmasked).unwrap();
            let mut out = Tensor::zeros([rows, 4]);
            scatter_rows_into(&mut out, &gm, &masked).unwrap();
            scatter_rows_into(&mut out, &gu, &unmasked).unwrap();
            prop_assert_eq!(out, x);
        }
    }
}
