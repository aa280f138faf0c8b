//! Patch VAE: a linear encoder/decoder between pixel space and latent
//! tokens.
//!
//! Real latent diffusion models use a convolutional VAE; this substrate
//! uses a linear orthonormal patch projection instead. Each
//! `patch × patch` pixel block maps to one latent token of
//! `latent_channels` values via a matrix with orthonormal rows, so
//! `decode(encode(x))` is an exact orthogonal projection — the unmasked
//! region of a template survives an encode/decode round trip with low
//! distortion, which is the property the editing experiments rely on.

use fps_tensor::rng::DetRng;
use fps_tensor::{pool, scratch, Tensor};

use crate::config::ModelConfig;
use crate::error::DiffusionError;
use crate::image::Image;
use crate::Result;

/// Linear patch encoder/decoder derived deterministically from the model
/// config.
#[derive(Debug, Clone)]
pub struct PatchVae {
    /// `[latent_channels, patch * patch * 3]`, orthonormal rows.
    enc: Tensor,
    patch: usize,
    latent_h: usize,
    latent_w: usize,
    latent_channels: usize,
}

impl PatchVae {
    /// Builds the VAE for a model config.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::InvalidConfig`] when the latent channel
    /// count exceeds the patch dimensionality (orthonormal rows would
    /// not exist).
    pub fn new(cfg: &ModelConfig) -> Result<Self> {
        let p = cfg.patch * cfg.patch * 3;
        let c = cfg.latent_channels;
        if c > p {
            return Err(DiffusionError::InvalidConfig {
                reason: format!("latent_channels ({c}) exceeds patch dimensionality ({p})"),
            });
        }
        let mut rng = DetRng::new(cfg.weight_seed ^ 0x7AE0_11AE);
        let enc = orthonormal_rows(c, p, &mut rng)?;
        Ok(Self {
            enc,
            patch: cfg.patch,
            latent_h: cfg.latent_h,
            latent_w: cfg.latent_w,
            latent_channels: c,
        })
    }

    /// Encodes an image into latent tokens of shape
    /// `[latent_h * latent_w, latent_channels]`, row-major over the
    /// latent grid.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::ImageShapeMismatch`] when the image
    /// does not match the model's pixel dimensions.
    pub fn encode(&self, img: &Image) -> Result<Tensor> {
        let (ph, pw) = (self.latent_h * self.patch, self.latent_w * self.patch);
        if img.height() != ph || img.width() != pw {
            return Err(DiffusionError::ImageShapeMismatch {
                expected: (ph, pw),
                actual: (img.height(), img.width()),
            });
        }
        let l = self.latent_h * self.latent_w;
        let mut out = scratch::take(l * self.latent_channels);
        let pdim = self.patch * self.patch * 3;
        // Parallel over latent tokens; each token's projection is
        // independent and its reduction order matches the serial loop,
        // so the result is bitwise identical serial or pooled. One
        // dot-product chain per channel measures 0.31–0.54 ns per
        // multiply or add, 9–16 units of the Gemm class (which
        // calibrates on the tiled GEMM rows).
        pool::for_each_row_chunk(
            &mut out,
            l,
            self.latent_channels,
            24 * pdim * self.latent_channels,
            pool::KernelClass::Gemm,
            |r0, chunk| {
                let mut patch_buf = scratch::take(pdim);
                for (i, orow) in chunk.chunks_exact_mut(self.latent_channels).enumerate() {
                    let tok = r0 + i;
                    self.read_patch(
                        img,
                        tok / self.latent_w,
                        tok % self.latent_w,
                        &mut patch_buf,
                    );
                    for (c, o) in orow.iter_mut().enumerate() {
                        let erow = &self.enc.data()[c * pdim..(c + 1) * pdim];
                        *o = erow
                            .iter()
                            .zip(patch_buf.iter())
                            .map(|(&e, &x)| e * x)
                            .sum();
                    }
                }
                scratch::give(patch_buf);
            },
        );
        Ok(Tensor::from_vec(out, [l, self.latent_channels])?)
    }

    /// Decodes latent tokens back to an image (transpose of the
    /// encoder).
    ///
    /// # Errors
    ///
    /// Returns an error when the latent token count or channel width
    /// disagrees with the config.
    pub fn decode(&self, latent: &Tensor) -> Result<Image> {
        let l = self.latent_h * self.latent_w;
        if latent.rank() != 2 || latent.dims()[0] != l || latent.dims()[1] != self.latent_channels {
            return Err(DiffusionError::InvalidConfig {
                reason: format!(
                    "latent shape {:?} does not match [{l}, {}]",
                    latent.dims(),
                    self.latent_channels
                ),
            });
        }
        let pdim = self.patch * self.patch * 3;
        let mut img = Image::zeros(self.latent_h * self.patch, self.latent_w * self.patch);
        // Accumulate all token patches into a flat `[l, pdim]` buffer in
        // parallel (pixels of different tokens interleave in the image,
        // so the image itself is written serially afterwards). The
        // axpys measure 0.19–0.31 ns per multiply or add, 5.5–10 units
        // of the Gemm class.
        let mut patches = scratch::take(l * pdim);
        pool::for_each_row_chunk(
            &mut patches,
            l,
            pdim,
            16 * pdim * self.latent_channels,
            pool::KernelClass::Gemm,
            |r0, chunk| {
                for (i, pbuf) in chunk.chunks_exact_mut(pdim).enumerate() {
                    let tok = r0 + i;
                    let trow = &latent.data()
                        [tok * self.latent_channels..(tok + 1) * self.latent_channels];
                    for (c, &tv) in trow.iter().enumerate() {
                        let erow = &self.enc.data()[c * pdim..(c + 1) * pdim];
                        for (pb, &e) in pbuf.iter_mut().zip(erow.iter()) {
                            *pb += tv * e;
                        }
                    }
                }
            },
        );
        for tok in 0..l {
            self.write_patch(
                &mut img,
                tok / self.latent_w,
                tok % self.latent_w,
                &patches[tok * pdim..(tok + 1) * pdim],
            );
        }
        scratch::give(patches);
        Ok(img)
    }

    fn read_patch(&self, img: &Image, ty: usize, tx: usize, buf: &mut [f32]) {
        let mut k = 0;
        for dy in 0..self.patch {
            for dx in 0..self.patch {
                let px = img
                    .pixel(ty * self.patch + dy, tx * self.patch + dx)
                    .unwrap_or([0.0; 3]);
                buf[k..k + 3].copy_from_slice(&px);
                k += 3;
            }
        }
    }

    fn write_patch(&self, img: &mut Image, ty: usize, tx: usize, buf: &[f32]) {
        let mut k = 0;
        for dy in 0..self.patch {
            for dx in 0..self.patch {
                img.set_pixel(
                    ty * self.patch + dy,
                    tx * self.patch + dx,
                    [buf[k], buf[k + 1], buf[k + 2]],
                );
                k += 3;
            }
        }
    }
}

/// Builds a `[rows, cols]` matrix with orthonormal rows via Gram-Schmidt
/// on random Gaussian vectors.
fn orthonormal_rows(rows: usize, cols: usize, rng: &mut DetRng) -> Result<Tensor> {
    let mut basis: Vec<Vec<f32>> = Vec::with_capacity(rows);
    let mut attempts = 0;
    while basis.len() < rows {
        attempts += 1;
        if attempts > rows * 20 {
            return Err(DiffusionError::InvalidConfig {
                reason: "failed to build an orthonormal basis".into(),
            });
        }
        let mut v: Vec<f32> = (0..cols).map(|_| rng.normal()).collect();
        for b in &basis {
            let dot: f32 = v.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum();
            for (vi, &bi) in v.iter_mut().zip(b.iter()) {
                *vi -= dot * bi;
            }
        }
        let norm: f32 = v.iter().map(|&x| x * x).sum::<f32>().sqrt();
        if norm < 1e-4 {
            continue; // Degenerate draw; retry.
        }
        for vi in &mut v {
            *vi /= norm;
        }
        basis.push(v);
    }
    let data: Vec<f32> = basis.into_iter().flatten().collect();
    Ok(Tensor::from_vec(data, [rows, cols])?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoder_rows_are_orthonormal() {
        let cfg = ModelConfig::tiny();
        let vae = PatchVae::new(&cfg).unwrap();
        let e = &vae.enc;
        let c = cfg.latent_channels;
        let pdim = cfg.patch * cfg.patch * 3;
        for i in 0..c {
            for j in 0..c {
                let dot: f32 = (0..pdim)
                    .map(|k| e.data()[i * pdim + k] * e.data()[j * pdim + k])
                    .sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-4, "rows {i},{j}: {dot}");
            }
        }
    }

    #[test]
    fn encode_decode_is_projection() {
        // decode(encode(x)) is idempotent: applying it twice equals
        // applying it once (orthogonal projection).
        let cfg = ModelConfig::sd21_like();
        let vae = PatchVae::new(&cfg).unwrap();
        let img = Image::template(cfg.pixel_h(), cfg.pixel_w(), 3);
        let once = vae.decode(&vae.encode(&img).unwrap()).unwrap();
        let twice = vae.decode(&vae.encode(&once).unwrap()).unwrap();
        assert!(once.mse(&twice).unwrap() < 1e-8);
    }

    #[test]
    fn latent_shape_matches_config() {
        let cfg = ModelConfig::tiny();
        let vae = PatchVae::new(&cfg).unwrap();
        let img = Image::template(cfg.pixel_h(), cfg.pixel_w(), 1);
        let z = vae.encode(&img).unwrap();
        assert_eq!(z.dims(), &[cfg.tokens(), cfg.latent_channels]);
    }

    #[test]
    fn rejects_wrong_image_and_latent_shapes() {
        let cfg = ModelConfig::tiny();
        let vae = PatchVae::new(&cfg).unwrap();
        let img = Image::zeros(3, 3);
        assert!(vae.encode(&img).is_err());
        let bad = Tensor::zeros([cfg.tokens(), cfg.latent_channels + 1]);
        assert!(vae.decode(&bad).is_err());
    }

    #[test]
    fn rejects_overfull_latent_channels() {
        let mut cfg = ModelConfig::tiny();
        cfg.latent_channels = cfg.patch * cfg.patch * 3 + 1;
        assert!(PatchVae::new(&cfg).is_err());
    }

    #[test]
    fn encode_is_spatially_local() {
        // Changing a pixel inside one patch only changes that patch's
        // token — the locality that lets pixel masks map to token masks.
        let cfg = ModelConfig::tiny();
        let vae = PatchVae::new(&cfg).unwrap();
        let img = Image::template(cfg.pixel_h(), cfg.pixel_w(), 5);
        let mut edited = img.clone();
        edited.set_pixel(0, 0, [1.0, 0.0, 1.0]);
        let za = vae.encode(&img).unwrap();
        let zb = vae.encode(&edited).unwrap();
        for tok in 0..cfg.tokens() {
            let differs = za
                .row(tok)
                .unwrap()
                .iter()
                .zip(zb.row(tok).unwrap().iter())
                .any(|(&a, &b)| (a - b).abs() > 1e-7);
            if tok == 0 {
                assert!(differs, "token 0 should change");
            } else {
                assert!(!differs, "token {tok} should not change");
            }
        }
    }
}
