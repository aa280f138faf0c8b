//! Non-linear activations used by transformer feed-forward layers, and
//! the one exponential every per-token kernel shares.
//!
//! Nothing here calls libm: [`exp_f32`] is built from `+ − × ÷`,
//! comparisons and integer shifts only, so a loop over it vectorises at
//! the SSE2 baseline and its bits do not depend on the host's `expf` /
//! `tanhf`. Softmax ([`super::softmax`]), GeLU and SiLU all go through
//! it (`clippy.toml` bans the libm calls from this crate).

use crate::tensor::Tensor;

/// At or below this [`exp_f32`] flushes to `+0.0`: `exp` would fall
/// under the smallest normal `f32` (`ln 2⁻¹²⁶ ≈ −87.34`) a little
/// further down, and the kernel never produces denormals.
pub const EXP_LO: f32 = -87.3;
/// At or above this [`exp_f32`] returns `+∞` (`ln f32::MAX ≈ 88.72`).
pub const EXP_HI: f32 = 88.7;

/// `eˣ` in `f32`: branch-free, no libm, the same bits on every host.
///
/// Range reduction `x = n·ln2 + r` with `n = round(x·log₂e)` taken by
/// adding and subtracting `1.5·2²³` (the sum's low mantissa bits *are*
/// `n`), `r` by a two-constant Cody–Waite subtraction (`n·LN2_HI` is
/// exact), `eʳ` as the degree-6 polynomial `1 + r + r²·q(r)` on
/// `|r| ≤ ln2 / 2`, and the scale by `2ⁿ` as an integer add of `n` into
/// the polynomial's exponent field, taken from the bits of the rounding
/// temporary (so `n = 128`, where `2ⁿ` itself is not an `f32` but
/// `eʳ·2ⁿ` still is, needs no special case).
///
/// Measured over every `f32` in `(EXP_LO, EXP_HI)`: relative error
/// ≤ 8.8e-8 (0.74 · 2⁻²³; at most 1.04 ulp of the true value), and
/// non-decreasing. `exp_f32(0.0) == 1.0` exactly.
///
/// Edge contract: NaN → NaN; `x ≤ EXP_LO` (including `−∞`) → `+0.0`;
/// `x ≥ EXP_HI` (including `+∞`) → `+∞`. The three cases are selects
/// on `x`, not clamps, so a NaN is not swallowed.
#[inline(always)]
pub fn exp_f32(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    /// `355 / 512`: nine significant bits, so `n · LN2_HI` is exact
    /// for `|n| ≤ 128`.
    const LN2_HI: f32 = 0.693_359_4;
    /// `ln 2 − LN2_HI`.
    const LN2_LO: f32 = -2.121_944_4e-4;
    /// `1.5 · 2²³`: adding it rounds to an integer (ties to even) and
    /// leaves that integer in the low mantissa bits.
    const ROUND: f32 = 12_582_912.0;

    let t = x * LOG2E + ROUND;
    let n = t - ROUND;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    // q(r) ≈ (eʳ − 1 − r) / r², Chebyshev fit on |r| ≤ 0.3475
    // (truncation error 6.6e-8 in q, under 1e-8 in eʳ).
    let q =
        0.5 + r * (0.166_665_76 + r * (0.041_666_552 + r * (0.008_363_334 + r * 0.001_392_637_6)));
    let p = 1.0 + (r + (r * r) * q);
    // `t`'s bits are `0x4B40_0000 + n`; the shift keeps `n` alone, in
    // exponent position. Out-of-range or NaN `x` makes this garbage,
    // which the selects below discard.
    let y = f32::from_bits(p.to_bits().wrapping_add(t.to_bits() << 23));
    if x <= EXP_LO {
        0.0
    } else if x >= EXP_HI {
        f32::INFINITY
    } else if x.is_nan() {
        x
    } else {
        y
    }
}

/// Scalar GeLU, the tanh approximation from the GPT-2 reference
/// implementation in its sigmoid form: `½x(1 + tanh u) = x / (1 +
/// e⁻²ᵘ)` with `u = √(2/π)(x + 0.044715x³)` — one [`exp_f32`] and one
/// divide. Within 4.8e-7 of the tanh form on `[−12, 12]`.
#[inline(always)]
pub fn gelu_scalar(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    let u = SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x);
    x / (1.0 + exp_f32(-2.0 * u))
}

/// Scalar SiLU (a.k.a. swish): `x * sigmoid(x)`.
#[inline]
pub fn silu_scalar(x: f32) -> f32 {
    x / (1.0 + exp_f32(-x))
}

/// Applies GeLU element-wise.
pub fn gelu(x: &Tensor) -> Tensor {
    x.map(gelu_scalar)
}

/// Applies SiLU element-wise.
pub fn silu(x: &Tensor) -> Tensor {
    x.map(silu_scalar)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // the oracles are libm's
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exp_within_two_ulp_of_f64_and_monotone() {
        // Ascending points strictly inside `(EXP_LO, EXP_HI)`.
        const SWEEP: u32 = 200_000;
        let mut prev = 0.0f32;
        for i in 1..SWEEP {
            let x = EXP_LO + (EXP_HI - EXP_LO) * (i as f32 / SWEEP as f32);
            let y = exp_f32(x);
            let exact = f64::from(x).exp();
            let nearest = exact as f32;
            let ulp = f64::from(f32::from_bits(nearest.to_bits() + 1) - nearest);
            let err = (f64::from(y) - exact).abs();
            assert!(err <= 2.0 * ulp, "exp_f32({x}) = {y:e}, exact {exact:e}");
            assert!(y >= prev, "exp_f32 decreased at {x}: {prev:e} -> {y:e}");
            assert!(y.is_normal(), "exp_f32({x}) = {y:e} is not a normal f32");
            prev = y;
        }
    }

    #[test]
    fn exp_edge_contract() {
        assert_eq!(exp_f32(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp_f32(-0.0).to_bits(), 1.0f32.to_bits());
        assert!(exp_f32(f32::NAN).is_nan());
        // Flush to +0.0 at and below EXP_LO, normal just above it.
        for x in [EXP_LO, -88.0, -104.0, -1e30, f32::NEG_INFINITY] {
            assert_eq!(exp_f32(x).to_bits(), 0.0f32.to_bits(), "x = {x}");
        }
        assert!(exp_f32(f32::from_bits(EXP_LO.to_bits() - 1)).is_normal());
        // +inf at and above EXP_HI, finite just below it.
        for x in [EXP_HI, 89.0, 1e30, f32::INFINITY] {
            assert_eq!(exp_f32(x), f32::INFINITY, "x = {x}");
        }
        assert!(exp_f32(f32::from_bits(EXP_HI.to_bits() - 1)).is_finite());
        // Tiny arguments round to exactly 1.
        assert_eq!(exp_f32(1e-30), 1.0);
        assert_eq!(exp_f32(-1e-40), 1.0);
    }

    /// The tanh form `gelu_scalar` is algebraically equal to.
    fn gelu_tanh_oracle(x: f32) -> f32 {
        const SQRT_2_OVER_PI: f32 = 0.797_884_6;
        0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x)).tanh())
    }

    #[test]
    fn gelu_matches_tanh_form() {
        for i in 0..=240_000 {
            let x = -12.0 + i as f32 * 1e-4;
            let (got, want) = (gelu_scalar(x), gelu_tanh_oracle(x));
            assert!(
                (got - want).abs() <= 1e-6,
                "gelu({x}) = {got}, tanh form {want}"
            );
        }
    }

    #[test]
    fn gelu_saturates() {
        for x in [15.0f32, 1e10, 1e20, f32::MAX] {
            assert_eq!(gelu_scalar(x), x);
            assert_eq!(gelu_scalar(-x), 0.0);
        }
        assert_eq!(gelu_scalar(f32::INFINITY), f32::INFINITY);
        assert!(gelu_scalar(f32::NAN).is_nan());
    }

    #[test]
    fn silu_matches_libm_sigmoid() {
        for i in 0..=200_000 {
            let x = -100.0 + i as f32 * 1e-3;
            let want = x / (1.0 + (-x).exp());
            let got = silu_scalar(x);
            assert!(
                (got - want).abs() <= 1e-6 * want.abs().max(1.0),
                "silu({x}) = {got}, libm {want}"
            );
        }
    }

    #[test]
    fn gelu_known_values() {
        assert_eq!(gelu_scalar(0.0), 0.0);
        // GeLU(1) ≈ 0.8412 for the tanh approximation.
        assert!((gelu_scalar(1.0) - 0.8412).abs() < 1e-3);
        // Large positive inputs pass through, large negative vanish.
        assert!((gelu_scalar(10.0) - 10.0).abs() < 1e-3);
        assert!(gelu_scalar(-10.0).abs() < 1e-3);
    }

    #[test]
    fn silu_known_values() {
        assert_eq!(silu_scalar(0.0), 0.0);
        assert!((silu_scalar(1.0) - 0.731_058_6).abs() < 1e-4);
        assert!((silu_scalar(20.0) - 20.0).abs() < 1e-3);
    }

    #[test]
    fn tensor_variants_match_scalar() {
        let x = Tensor::from_vec(vec![-2.0, -0.5, 0.0, 0.5, 2.0], [5]).unwrap();
        let g = gelu(&x);
        let s = silu(&x);
        for (i, &v) in x.data().iter().enumerate() {
            assert_eq!(g.data()[i], gelu_scalar(v));
            assert_eq!(s.data()[i], silu_scalar(v));
        }
    }

    proptest! {
        #[test]
        fn prop_gelu_bounded_below(x in -100.0f32..100.0) {
            // GeLU is bounded below by roughly -0.17 and above by x.
            let y = gelu_scalar(x);
            prop_assert!(y >= -0.2);
            prop_assert!(y <= x.max(0.0) + 1e-4);
        }

        #[test]
        fn prop_silu_sign_structure(x in 0.01f32..50.0) {
            // SiLU is positive for positive inputs and ≥ -0.279 overall.
            prop_assert!(silu_scalar(x) > 0.0);
            prop_assert!(silu_scalar(-x) >= -0.3);
        }
    }
}
