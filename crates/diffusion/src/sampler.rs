//! Deterministic DDIM-style sampler with inpainting support.
//!
//! The sampler follows the standard latent-diffusion recipe: a linear
//! beta schedule defines cumulative signal fractions `ᾱ(t)`; inference
//! visits a decreasing subset of timesteps; each step predicts noise,
//! reconstructs `x₀`, and steps to the next timestep deterministically
//! (DDIM with η = 0). Image *editing* adds the inpainting blend: after
//! every step, latents at unmasked positions are overwritten with the
//! appropriately re-noised template latent, so only masked tokens are
//! actually generated — the mechanism behind every strategy this crate
//! serves. Rows are independent through both, so an edit steps only its
//! masked rows and blends them into the re-noised template.

use fps_tensor::ops::scatter_rows_into;
use fps_tensor::Tensor;

use crate::error::DiffusionError;
use crate::Result;

/// Number of training timesteps the beta schedule is defined over.
const TRAIN_STEPS: usize = 1000;

/// Linear beta schedule endpoints (the SD/DDPM defaults).
const BETA_START: f64 = 1e-4;
const BETA_END: f64 = 0.02;

/// Dynamic-thresholding bound on reconstructed `x₀`.
const X0_CLAMP: f32 = 3.0;

/// The inference-time noise schedule: one entry per denoising step, in
/// execution order (high noise → low noise).
#[derive(Debug, Clone)]
pub struct NoiseSchedule {
    /// Cumulative signal fraction `ᾱ` at each visited timestep.
    abar: Vec<f32>,
    /// Normalized timestep in `[0, 1]` (1 = pure noise) fed to the
    /// timestep embedding.
    t_norm: Vec<f32>,
}

impl NoiseSchedule {
    /// Builds a schedule visiting `steps` evenly spaced timesteps.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::InvalidConfig`] for `steps == 0`.
    pub fn new(steps: usize) -> Result<Self> {
        if steps == 0 {
            return Err(DiffusionError::InvalidConfig {
                reason: "sampler needs at least one step".into(),
            });
        }
        // Cumulative ᾱ over the full training schedule.
        let mut abar_train = Vec::with_capacity(TRAIN_STEPS);
        let mut acc = 1.0f64;
        for i in 0..TRAIN_STEPS {
            let beta = BETA_START + (BETA_END - BETA_START) * i as f64 / (TRAIN_STEPS - 1) as f64;
            acc *= 1.0 - beta;
            abar_train.push(acc);
        }
        // Visit `steps` timesteps from high to low noise.
        let mut abar = Vec::with_capacity(steps);
        let mut t_norm = Vec::with_capacity(steps);
        for k in 0..steps {
            let frac = 1.0 - k as f64 / steps as f64; // (0, 1], descending
            let ti = ((frac * TRAIN_STEPS as f64) as usize).clamp(1, TRAIN_STEPS) - 1;
            abar.push(abar_train[ti] as f32);
            t_norm.push(frac as f32);
        }
        Ok(Self { abar, t_norm })
    }

    /// Number of denoising steps.
    pub fn steps(&self) -> usize {
        self.abar.len()
    }

    /// `ᾱ` at step `k` (execution order).
    pub fn abar(&self, k: usize) -> f32 {
        self.abar[k]
    }

    /// `ᾱ` *after* step `k` completes (1.0 after the final step, i.e. a
    /// clean latent).
    pub fn abar_next(&self, k: usize) -> f32 {
        self.abar.get(k + 1).copied().unwrap_or(1.0)
    }

    /// Normalized timestep fed to the embedding at step `k`.
    pub fn t_norm(&self, k: usize) -> f32 {
        self.t_norm[k]
    }
}

/// Diffuses a clean latent to noise level `ᾱ`:
/// `x = sqrt(ᾱ)·z₀ + sqrt(1-ᾱ)·ε`.
///
/// # Errors
///
/// Returns a shape error when `z0` and `noise` disagree.
pub fn noise_to_level(z0: &Tensor, noise: &Tensor, abar: f32) -> Result<Tensor> {
    Ok(z0
        .scale(abar.sqrt())
        .add(&noise.scale((1.0 - abar).max(0.0).sqrt()))?)
}

/// One deterministic DDIM update: given `x_t` at `ᾱ_t` and the
/// predicted noise, steps to `ᾱ_next`.
///
/// The reconstructed `x₀` is clamped to `±3` (dynamic thresholding), as
/// production pipelines do to keep untrained/extreme predictions from
/// destabilizing the trajectory.
///
/// # Errors
///
/// Returns a shape error when `x_t` and `eps` disagree.
pub fn ddim_step(x_t: &Tensor, eps: &Tensor, abar_t: f32, abar_next: f32) -> Result<Tensor> {
    let sa = abar_t.sqrt().max(1e-4);
    let sn = (1.0 - abar_t).max(0.0).sqrt();
    let x0 = x_t
        .sub(&eps.scale(sn))?
        .scale(1.0 / sa)
        .map(|v| v.clamp(-X0_CLAMP, X0_CLAMP));
    Ok(x0
        .scale(abar_next.sqrt())
        .add(&eps.scale((1.0 - abar_next).max(0.0).sqrt()))?)
}

/// The inpainting blend: the template latent re-noised to level `ᾱ`,
/// with the generated masked rows (`masked`, row `j` at token
/// `masked_idx[j]`) scattered in.
///
/// # Errors
///
/// Returns a shape error when operands disagree or indices are out of
/// bounds.
pub fn inpaint_blend(
    masked: &Tensor,
    template_latent: &Tensor,
    fixed_noise: &Tensor,
    abar: f32,
    masked_idx: &[usize],
) -> Result<Tensor> {
    let mut x = noise_to_level(template_latent, fixed_noise, abar)?;
    scatter_rows_into(&mut x, masked, masked_idx)?;
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fps_tensor::rng::DetRng;

    #[test]
    fn schedule_is_monotone() {
        let s = NoiseSchedule::new(10).unwrap();
        assert_eq!(s.steps(), 10);
        for k in 1..10 {
            assert!(s.abar(k) > s.abar(k - 1), "ᾱ must increase as noise falls");
            assert!(s.t_norm(k) < s.t_norm(k - 1));
        }
        assert!(s.abar(0) < 0.05, "first step is near pure noise");
        assert!(s.abar_next(9) == 1.0);
        assert!(NoiseSchedule::new(0).is_err());
    }

    #[test]
    fn noise_to_level_endpoints() {
        let mut rng = DetRng::new(1);
        let z = Tensor::randn([4, 2], &mut rng);
        let n = Tensor::randn([4, 2], &mut rng);
        let clean = noise_to_level(&z, &n, 1.0).unwrap();
        assert!(clean.max_abs_diff(&z).unwrap() < 1e-6);
        let noisy = noise_to_level(&z, &n, 0.0).unwrap();
        assert!(noisy.max_abs_diff(&n).unwrap() < 1e-6);
    }

    #[test]
    fn ddim_with_true_noise_recovers_clean_latent() {
        // If the model predicted the exact noise, stepping to ᾱ = 1
        // reconstructs z0.
        let mut rng = DetRng::new(2);
        let z0 = Tensor::randn([6, 3], &mut rng).scale(0.5);
        let eps = Tensor::randn([6, 3], &mut rng);
        let x_t = noise_to_level(&z0, &eps, 0.3).unwrap();
        let x_clean = ddim_step(&x_t, &eps, 0.3, 1.0).unwrap();
        assert!(x_clean.max_abs_diff(&z0).unwrap() < 1e-4);
    }

    #[test]
    fn ddim_clamps_x0() {
        // Extreme predictions are clamped, keeping trajectories bounded.
        let x_t = Tensor::full([1, 1], 100.0);
        let eps = Tensor::zeros([1, 1]);
        let out = ddim_step(&x_t, &eps, 0.01, 1.0).unwrap();
        assert!(out.data()[0].abs() <= X0_CLAMP + 1e-5);
    }

    #[test]
    fn blend_preserves_masked_rows_and_overwrites_unmasked() {
        let mut rng = DetRng::new(3);
        let template = Tensor::randn([5, 2], &mut rng);
        let noise = Tensor::randn([5, 2], &mut rng);
        let masked = Tensor::from_vec(vec![42.0, 42.0, 7.0, 7.0], [2, 2]).unwrap();
        let x = inpaint_blend(&masked, &template, &noise, 0.5, &[3, 1]).unwrap();
        // Masked row `j` lands at token `masked_idx[j]`.
        assert_eq!(x.row(3).unwrap(), &[42.0, 42.0]);
        assert_eq!(x.row(1).unwrap(), &[7.0, 7.0]);
        // Unmasked rows equal the re-noised template.
        let expected = noise_to_level(&template, &noise, 0.5).unwrap();
        for tok in [0usize, 2, 4] {
            assert_eq!(x.row(tok).unwrap(), expected.row(tok).unwrap());
        }
    }

    #[test]
    fn full_denoise_loop_is_bounded() {
        // Run a complete loop with an arbitrary (not-noise-predicting)
        // function standing in for the model; the trajectory must stay
        // finite thanks to clamping.
        let s = NoiseSchedule::new(8).unwrap();
        let mut rng = DetRng::new(4);
        let mut x = Tensor::randn([10, 4], &mut rng);
        for k in 0..s.steps() {
            let eps = x.map(|v| (v * 1.3).sin());
            x = ddim_step(&x, &eps, s.abar(k), s.abar_next(k)).unwrap();
        }
        assert!(x.data().iter().all(|v| v.is_finite()));
        assert!(x.norm() < 1e3);
    }
}
