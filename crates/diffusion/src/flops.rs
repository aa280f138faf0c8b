//! Analytic FLOP accounting (Table 1 of the paper).
//!
//! These formulas drive both the Table 1 verification bench and the
//! serving cost models in `fps-serving`. They count multiply-add pairs
//! as 2 FLOPs and cover the three computation families Table 1 analyzes:
//! linear projections (`XW`), feed-forward (`(XW₁)W₂`), and attention
//! score/value products (`QKᵀ`, `AV`).

use crate::config::{Architecture, ModelConfig};

/// Fraction of a UNet model's per-step compute spent in transformer
/// blocks (paper §2.1 footnote: ~82% for SDXL-class UNets). The
/// remainder is convolutional scaffolding that mask-aware computation
/// does not touch.
pub const UNET_TRANSFORMER_FRACTION: f64 = 0.82;

/// FLOPs of one transformer block computing `q_tokens` query rows
/// against `kv_tokens` key/value rows, with the K/V projections
/// evaluated over `kv_proj_tokens` rows, for batch size 1.
///
/// The three token counts distinguish the computation modes of §3.1:
///
/// - full computation: `(L, L, L)`;
/// - FlashPS Y-variant: `(mL, L, L)` — masked queries attend over
///   full-length keys/values recomputed from the replenished rows
///   (the paper's LLM-decoding analogy);
/// - FlashPS K/V-variant: `(mL, L, mL)` — full-length K/V come from
///   the cache, only masked rows are refreshed;
/// - FISEdit-style masked-only: `(mL, mL, mL)`.
///
/// Covers self-attention (QKV projections, scores, values, output
/// projection), cross-attention over `prompt_tokens`, and the
/// feed-forward network. Normalizations and activations are counted at
/// a small linear term.
pub fn block_flops(
    cfg: &ModelConfig,
    q_tokens: usize,
    kv_tokens: usize,
    kv_proj_tokens: usize,
) -> u64 {
    let h = cfg.hidden as u64;
    let p = cfg.prompt_tokens as u64;
    let q = q_tokens as u64;
    let kv = kv_tokens as u64;
    let ffn = cfg.ffn_mult as u64;

    // Self-attention.
    let q_proj = 2 * q * h * h;
    let kv_proj = 2 * 2 * (kv_proj_tokens as u64) * h * h;
    let scores = 2 * q * kv * h;
    let values = 2 * q * kv * h;
    let out_proj = 2 * q * h * h;
    // Cross-attention to the prompt (query side only scales with q).
    let x_q = 2 * q * h * h;
    let x_kv = 2 * 2 * p * h * h;
    let x_scores = 2 * q * p * h;
    let x_values = 2 * q * p * h;
    let x_out = 2 * q * h * h;
    // Feed-forward: two linear layers through the expanded dimension.
    let ff = 2 * 2 * q * h * (ffn * h);
    // Token-wise norms/activations, small but non-zero.
    let pointwise = 10 * q * h;

    q_proj
        + kv_proj
        + scores
        + values
        + out_proj
        + x_q
        + x_kv
        + x_scores
        + x_values
        + x_out
        + ff
        + pointwise
}

/// Rounds a mask ratio to a masked-token count, clamped to `[1, L]` so a
/// non-empty edit always computes at least one token.
pub fn masked_tokens(cfg: &ModelConfig, mask_ratio: f64) -> usize {
    let l = cfg.tokens();
    ((mask_ratio.clamp(0.0, 1.0) * l as f64).round() as usize).clamp(1, l)
}

/// Applies the UNet convolutional-scaffold overhead: transformer FLOPs
/// are ~82% of a UNet's step, so total = transformer / 0.82. DiT models
/// are pure transformer stacks.
fn apply_arch_overhead(cfg: &ModelConfig, transformer_flops: u64) -> u64 {
    match cfg.arch {
        Architecture::UNet => (transformer_flops as f64 / UNET_TRANSFORMER_FRACTION) as u64,
        Architecture::Dit => transformer_flops,
    }
}

/// FLOPs of one full (mask-agnostic) denoising step for a batch.
pub fn step_flops_full(cfg: &ModelConfig, batch: usize) -> u64 {
    let l = cfg.tokens();
    let per_item = cfg.blocks as u64 * block_flops(cfg, l, l, l);
    apply_arch_overhead(cfg, per_item) * batch as u64
}

/// FLOPs of one mask-aware step with the Y-caching variant: masked
/// queries attend over full-length keys/values recomputed from the
/// cache-replenished rows.
pub fn step_flops_masked_y(cfg: &ModelConfig, batch: usize, mask_ratio: f64) -> u64 {
    let ml = masked_tokens(cfg, mask_ratio);
    let l = cfg.tokens();
    let per_item = cfg.blocks as u64 * block_flops(cfg, ml, l, l);
    apply_arch_overhead(cfg, per_item) * batch as u64
}

/// FLOPs of one mask-aware step with the K/V-caching variant: masked
/// queries attend over full-length *cached* keys/values, so only the
/// masked rows' K/V are recomputed (the 10% latency saving of §3.1).
pub fn step_flops_masked_kv(cfg: &ModelConfig, batch: usize, mask_ratio: f64) -> u64 {
    let ml = masked_tokens(cfg, mask_ratio);
    let per_item = cfg.blocks as u64 * block_flops(cfg, ml, cfg.tokens(), ml);
    apply_arch_overhead(cfg, per_item) * batch as u64
}

/// FLOPs of one FISEdit-style masked-only step: masked tokens attend
/// only among themselves, with no cache at all.
pub fn step_flops_masked_only(cfg: &ModelConfig, batch: usize, mask_ratio: f64) -> u64 {
    let ml = masked_tokens(cfg, mask_ratio);
    let per_item = cfg.blocks as u64 * block_flops(cfg, ml, ml, ml);
    apply_arch_overhead(cfg, per_item) * batch as u64
}

/// FLOPs of one step under a mixed plan: blocks with `use_cache[i]`
/// run the mask-aware variant (`kv` selects Y or K/V caching); other
/// blocks compute all tokens.
pub fn step_flops_plan(
    cfg: &ModelConfig,
    batch: usize,
    mask_ratio: f64,
    use_cache: &[bool],
    kv: bool,
) -> u64 {
    let l = cfg.tokens();
    let ml = masked_tokens(cfg, mask_ratio);
    let cached = if kv {
        block_flops(cfg, ml, l, ml)
    } else {
        block_flops(cfg, ml, l, l)
    };
    let full = block_flops(cfg, l, l, l);
    let per_item: u64 = use_cache
        .iter()
        .map(|&c| if c { cached } else { full })
        .sum();
    apply_arch_overhead(cfg, per_item) * batch as u64
}

/// What [`sparse_gemm_flops`] charges for one element copy, in FLOPs of
/// the tiled GEMM. A gathered, scattered or template-filled element
/// costs ≈ 0.2 ns on the bench host, against 0.02 ns per GEMM FLOP
/// with `fps-tensor`'s AVX2 kernel build and 0.04 ns with its baseline
/// build; at 8, both builds' measured sparse sweeps sit within 1.3× of
/// the estimate.
const COPY_FLOPS: u64 = 8;

/// FLOPs of one mask-sparse GEMM (`[m×k] · [k×n]` with only the
/// mask's rows computed): the dense multiply-add cost of the active
/// rows, the gather/scatter traffic that moves them in and out of the
/// packed operand (`active · (k + n)` element copies), plus the
/// template replenishment of the inactive rows (`(m − active) · n`
/// copies), each copy priced at `COPY_FLOPS` (8) — so the estimate, like
/// the kernel, has a small output-sized floor instead of vanishing at
/// ratio 0.
///
/// This is the estimator the kernel benchmark checks measured sparse
/// wall time against: across the mask-ratio sweep, measured time must
/// track `sparse_gemm_flops(r) / sparse_gemm_flops(1.0)` within 2×.
pub fn sparse_gemm_flops(m: usize, k: usize, n: usize, mask_ratio: f64) -> u64 {
    let active = ((mask_ratio.clamp(0.0, 1.0) * m as f64).round() as usize).min(m) as u64;
    let inactive = m as u64 - active;
    let copies = active * (k as u64 + n as u64) + inactive * n as u64;
    2 * active * k as u64 * n as u64 + COPY_FLOPS * copies
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_step_is_linear_in_batch() {
        let cfg = ModelConfig::sdxl_like();
        assert_eq!(step_flops_full(&cfg, 4), 4 * step_flops_full(&cfg, 1));
    }

    #[test]
    fn masked_flops_scale_roughly_with_ratio() {
        // Table 1: per-operator speedup is 1/m for query-side ops. The
        // Y-variant step keeps the full-length K/V projection (the
        // price of full attention context), so its cost is m of the
        // query-side work plus that constant.
        let cfg = ModelConfig::flux_like();
        let full = step_flops_full(&cfg, 1) as f64;
        for m in [0.1, 0.2, 0.5] {
            let masked = step_flops_masked_y(&cfg, 1, m) as f64;
            let frac = masked / full;
            assert!(frac < m * 1.3 + 0.3, "m={m}: frac={frac}");
            assert!(frac > m * 0.5, "m={m}: frac={frac}");
            // Masked-only drops the K/V constant too and is cheaper.
            assert!(step_flops_masked_only(&cfg, 1, m) < masked as u64);
        }
    }

    #[test]
    fn kv_variant_costs_less_than_y_variant() {
        // §3.1: caching K/V removes the full-length K/V recompute,
        // cutting latency ~10% at m = 0.2 (for 2× the cache bytes).
        let cfg = ModelConfig::flux_like();
        for m in [0.1, 0.3, 0.6] {
            assert!(
                step_flops_masked_kv(&cfg, 1, m) < step_flops_masked_y(&cfg, 1, m),
                "m={m}"
            );
        }
        // The saving is modest (order 10%), not dramatic.
        let y = step_flops_masked_y(&cfg, 1, 0.2) as f64;
        let kv = step_flops_masked_kv(&cfg, 1, 0.2) as f64;
        let saving = 1.0 - kv / y;
        assert!(saving > 0.02 && saving < 0.5, "saving {saving}");
    }

    #[test]
    fn sparse_gemm_flops_scale_with_ratio() {
        let (m, k, n) = (256, 64, 256);
        let dense = 2 * (m * k * n) as u64;
        let full = sparse_gemm_flops(m, k, n, 1.0);
        // Full mask is dense compute plus the gather/scatter traffic —
        // no inactive rows, so no template term.
        assert_eq!(full, dense + COPY_FLOPS * (m * (k + n)) as u64);
        let mut prev = 0;
        for r in [0.05, 0.10, 0.25, 0.50] {
            let f = sparse_gemm_flops(m, k, n, r);
            assert!(f > prev, "monotone in ratio");
            // The copy floor lifts the fraction above the ratio, by
            // less as the multiply-adds take over.
            let frac = f as f64 / full as f64;
            assert!(frac > r && frac - r < 0.06, "r={r}: frac={frac}");
            prev = f;
        }
        // Ratio 0 leaves the output-sized template-copy floor.
        let floor = COPY_FLOPS * (m * n) as u64;
        assert_eq!(sparse_gemm_flops(m, k, n, 0.0), floor);
        // Degenerate ratios clamp instead of panicking.
        assert_eq!(sparse_gemm_flops(m, k, n, -3.0), floor);
        assert_eq!(sparse_gemm_flops(m, k, n, 7.0), full);
        assert_eq!(sparse_gemm_flops(0, k, n, 0.5), 0);
    }

    #[test]
    fn mask_ratio_one_matches_full_transformer_cost() {
        let cfg = ModelConfig::flux_like();
        // At m = 1 every token is masked; the Y variant degenerates to a
        // full computation.
        assert_eq!(step_flops_masked_y(&cfg, 1, 1.0), step_flops_full(&cfg, 1));
    }

    #[test]
    fn plan_interpolates_between_extremes() {
        let cfg = ModelConfig::sdxl_like();
        let all_cached = vec![true; cfg.blocks];
        let none_cached = vec![false; cfg.blocks];
        let m = 0.2;
        assert_eq!(
            step_flops_plan(&cfg, 1, m, &all_cached, false),
            step_flops_masked_y(&cfg, 1, m)
        );
        assert_eq!(
            step_flops_plan(&cfg, 1, m, &all_cached, true),
            step_flops_masked_kv(&cfg, 1, m)
        );
        assert_eq!(
            step_flops_plan(&cfg, 1, m, &none_cached, false),
            step_flops_full(&cfg, 1)
        );
        let mut mixed = vec![false; cfg.blocks];
        mixed[0] = true;
        let v = step_flops_plan(&cfg, 1, m, &mixed, false);
        assert!(v < step_flops_full(&cfg, 1));
        assert!(v > step_flops_masked_y(&cfg, 1, m));
    }

    #[test]
    fn unet_overhead_applied() {
        let mut cfg = ModelConfig::flux_like();
        let dit = step_flops_full(&cfg, 1);
        cfg.arch = Architecture::UNet;
        let unet = step_flops_full(&cfg, 1);
        assert!(unet > dit);
        let ratio = unet as f64 / dit as f64;
        assert!((ratio - 1.0 / UNET_TRANSFORMER_FRACTION).abs() < 0.01);
    }

    #[test]
    fn masked_tokens_clamps() {
        let cfg = ModelConfig::tiny();
        assert_eq!(masked_tokens(&cfg, 0.0), 1);
        assert_eq!(masked_tokens(&cfg, 1.0), cfg.tokens());
        assert_eq!(masked_tokens(&cfg, 2.0), cfg.tokens());
        assert_eq!(masked_tokens(&cfg, 0.5), cfg.tokens() / 2);
    }

    #[test]
    fn paper_sdxl_step_flops_are_tflop_scale() {
        // Sanity: the paper cites 676 TFLOPs for a 50-step SDXL
        // generation, i.e. ~13.5 TFLOPs per step. Our analytic config
        // should land within a small factor of that.
        let cfg = ModelConfig::paper_sdxl();
        let tflops = step_flops_full(&cfg, 1) as f64 / 1e12;
        assert!(tflops > 2.0 && tflops < 60.0, "got {tflops} TFLOPs");
    }
}
