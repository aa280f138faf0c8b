//! Analytic GPU and PCIe cost models.
//!
//! These stand in for the paper's A10/H800 testbeds (see DESIGN.md's
//! substitution table). The key modelling choice, taken from the
//! paper's own observations (§6.2, Fig. 14), is an **SM-saturation
//! efficiency curve**: a kernel over few tokens cannot fill the GPU, so
//! effective FLOPs throughput scales with the token count until
//! saturation. This is what makes FlashPS *slower* than TeaCache at
//! batch size 1 yet far faster once batching raises occupancy — the
//! crossover Fig. 14 reports.

use fps_diffusion::config::{Architecture, ModelConfig};
use fps_diffusion::flops;
use fps_simtime::SimDuration;

/// Static description of a GPU and its host link.
///
/// The numbers are *effective* figures calibrated so the analytic
/// model lands in the latency regimes the paper reports (SDXL ≈
/// seconds per 50-step generation on H800, SD2.1 similar on A10), not
/// datasheet peaks. `pcie_bw` is the pipelined (pinned, async,
/// batched) host→HBM throughput the cache-load stream achieves;
/// `sync_copy_bw` is the much lower throughput of the naive
/// sequential, per-tensor synchronous copies of Fig. 9-top — the gap
/// between the two is exactly what Fig. 4-left measures.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name.
    pub name: String,
    /// Effective peak throughput in FLOP/s (discounted from datasheet
    /// peaks for real-kernel efficiency).
    pub peak_flops: f64,
    /// Pipelined host→device PCIe bandwidth in bytes/s.
    pub pcie_bw: f64,
    /// Synchronous per-tensor copy throughput in bytes/s (naive
    /// loading path).
    pub sync_copy_bw: f64,
    /// Token count at which kernels saturate the SMs.
    pub saturation_tokens: f64,
    /// Fixed per-block launch/dispatch overhead.
    pub launch_overhead: SimDuration,
}

impl GpuSpec {
    /// NVIDIA A10 with PCIe Gen4 ×16.
    pub fn a10() -> Self {
        Self {
            name: "A10".into(),
            peak_flops: 40e12,
            pcie_bw: 20e9,
            sync_copy_bw: 3e9,
            saturation_tokens: 1536.0,
            launch_overhead: SimDuration::from_micros(30),
        }
    }

    /// NVIDIA H800 with PCIe Gen5 ×16.
    pub fn h800() -> Self {
        Self {
            name: "H800".into(),
            peak_flops: 200e12,
            pcie_bw: 40e9,
            sync_copy_bw: 6e9,
            saturation_tokens: 3072.0,
            launch_overhead: SimDuration::from_micros(20),
        }
    }

    /// SM efficiency for a kernel touching `tokens` query tokens:
    /// `t / (t + saturation)`, a smooth occupancy ramp that approaches
    /// 1 as kernels grow.
    pub fn efficiency(&self, tokens: f64) -> f64 {
        let t = tokens.max(1.0);
        t / (t + self.saturation_tokens)
    }
}

/// CPU-side costs of request handling (§4.3, §6.6 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuCosts {
    /// Image preprocessing (decode, resize, mask rasterize, encode).
    pub preprocess: SimDuration,
    /// Image postprocessing (decode latent, serialize output).
    pub postprocess: SimDuration,
    /// Per-step batch-organization overhead under continuous batching
    /// (1.2 ms, §6.6).
    pub batch_overhead: SimDuration,
    /// Latent serialization + IPC to the postprocess process under
    /// disaggregation (1.1 ms + 1.3 ms, §6.6).
    pub disagg_handoff: SimDuration,
}

impl Default for CpuCosts {
    fn default() -> Self {
        Self {
            // The paper measures 0.36 s average overhead per
            // interruption; pre/post split asymmetrically.
            preprocess: SimDuration::from_millis(360),
            postprocess: SimDuration::from_millis(360),
            batch_overhead: SimDuration::from_micros(1200),
            disagg_handoff: SimDuration::from_micros(2400),
        }
    }
}

/// Work contributed by one request to a denoising step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchItem {
    /// Mask ratio of the request.
    pub mask_ratio: f64,
}

/// The analytic cost model for one (model, GPU) pair.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// GPU executing the model.
    pub gpu: GpuSpec,
    /// The (paper-scale, analytic) model being served.
    pub model: ModelConfig,
    /// CPU-side costs.
    pub cpu: CpuCosts,
}

impl CostModel {
    /// Creates a cost model.
    pub fn new(gpu: GpuSpec, model: ModelConfig) -> Self {
        Self {
            gpu,
            model,
            cpu: CpuCosts::default(),
        }
    }

    /// Latency of executing `flop` FLOPs at the occupancy of `tokens`
    /// query tokens.
    pub fn compute_latency(&self, flop: u64, tokens: f64) -> SimDuration {
        let eff = self.gpu.efficiency(tokens);
        SimDuration::from_secs_f64(flop as f64 / (self.gpu.peak_flops * eff))
    }

    /// Latency of moving `bytes` host→HBM on the pipelined copy
    /// stream.
    pub fn load_latency(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.gpu.pcie_bw)
    }

    /// Latency of moving `bytes` with naive synchronous per-tensor
    /// copies (Fig. 9-top).
    pub fn sync_load_latency(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.gpu.sync_copy_bw)
    }

    /// Latency of one *naively loaded* mask-aware step: cached compute
    /// plus blocking synchronous loads (the Fig. 4-left "naive" bar).
    pub fn step_latency_naive_loading(&self, batch: &[BatchItem]) -> SimDuration {
        if batch.is_empty() {
            return SimDuration::ZERO;
        }
        let costs = self.mask_aware_block_costs(batch, false);
        let per_block_bytes: u64 = batch
            .iter()
            .map(|i| self.model.cache_bytes_per_block(i.mask_ratio))
            .sum();
        let mut total = SimDuration::ZERO;
        for _ in 0..self.model.blocks {
            total += costs.compute_cached + self.sync_load_latency(per_block_bytes);
        }
        total
    }

    /// Architecture overhead factor (UNet convolution scaffold).
    fn arch_factor(&self) -> f64 {
        match self.model.arch {
            Architecture::UNet => 1.0 / flops::UNET_TRANSFORMER_FRACTION,
            Architecture::Dit => 1.0,
        }
    }

    /// Latency of one full-computation denoising step for a batch.
    pub fn step_latency_full(&self, batch: usize) -> SimDuration {
        let batch = batch.max(1);
        let l = self.model.tokens();
        let per_block = flops::block_flops(&self.model, l, l, l) * batch as u64;
        let tokens = (l * batch) as f64;
        let mut total = SimDuration::ZERO;
        for _ in 0..self.model.blocks {
            total += self.compute_latency(per_block, tokens) + self.gpu.launch_overhead;
        }
        total.mul_f64(self.arch_factor())
    }

    /// Per-block costs of a mask-aware step for a batch, feeding
    /// Algorithm 1: (compute-with-cache, compute-without-cache, load).
    ///
    /// The cached-block compute is split into two kernel families with
    /// separate occupancies: the Y variant's full-length K/V
    /// projections run over all `L` tokens (good occupancy) while the
    /// query-side work (Q projection, attention, FFN) runs over the
    /// masked tokens only (poor occupancy at small masks and batches —
    /// the Fig. 14 underutilization effect).
    pub fn mask_aware_block_costs(
        &self,
        batch: &[BatchItem],
        kv_variant: bool,
    ) -> fps_maskcache::BlockCosts {
        let l = self.model.tokens();
        let h = self.model.hidden as u64;
        let mut q_flops = 0u64;
        let mut kv_flops = 0u64;
        let mut masked_tokens_total = 0usize;
        let mut load_bytes = 0u64;
        for item in batch {
            let ml = flops::masked_tokens(&self.model, item.mask_ratio);
            masked_tokens_total += ml;
            let per_block = self.model.cache_bytes_per_block(item.mask_ratio);
            if kv_variant {
                // Cached K/V: only masked rows' K/V are recomputed; 2×
                // the load bytes.
                q_flops += flops::block_flops(&self.model, ml, l, ml);
                load_bytes += 2 * per_block;
            } else {
                // Y variant: full-length K/V recomputed from the
                // replenished rows (the §3.1 LLM-decoding analogy).
                let full_kv_proj = 2 * 2 * l as u64 * h * h;
                kv_flops += full_kv_proj;
                q_flops += flops::block_flops(&self.model, ml, l, l) - full_kv_proj;
                load_bytes += per_block;
            }
        }
        let b = batch.len().max(1);
        let full_flops = flops::block_flops(&self.model, l, l, l) * b as u64;
        let full_tokens = (l * b) as f64;
        let af = self.arch_factor();
        let cached = self.compute_latency(q_flops, masked_tokens_total as f64)
            + self.compute_latency(kv_flops, full_tokens)
            + self.gpu.launch_overhead;
        fps_maskcache::BlockCosts {
            compute_cached: cached.mul_f64(af),
            compute_full: (self.compute_latency(full_flops, full_tokens)
                + self.gpu.launch_overhead)
                .mul_f64(af),
            load: self.load_latency(load_bytes),
        }
    }

    /// One mask-aware step for a batch: Algorithm 1's optimal pipeline
    /// over the per-block costs, with its latency and the number of
    /// trailing blocks that use the cache. Allocates nothing.
    pub fn step_latency_mask_aware(
        &self,
        batch: &[BatchItem],
        kv_variant: bool,
    ) -> fps_maskcache::TailPlan {
        if batch.is_empty() {
            return fps_maskcache::TailPlan {
                full: 0,
                cached: 0,
                latency: SimDuration::ZERO,
            };
        }
        let costs = self.mask_aware_block_costs(batch, kv_variant);
        fps_maskcache::pipeline::plan_uniform(self.model.blocks, costs)
    }

    /// Latency of one FISEdit-style sparse step: masked tokens only,
    /// with a sparse-kernel inefficiency factor, no cache loads.
    pub fn step_latency_sparse(&self, batch: &[BatchItem]) -> SimDuration {
        const SPARSE_KERNEL_OVERHEAD: f64 = 1.6;
        if batch.is_empty() {
            return SimDuration::ZERO;
        }
        let mut fl = 0u64;
        let mut tokens = 0usize;
        for item in batch {
            let ml = flops::masked_tokens(&self.model, item.mask_ratio);
            tokens += ml;
            fl += flops::block_flops(&self.model, ml, ml, ml);
        }
        let mut total = SimDuration::ZERO;
        for _ in 0..self.model.blocks {
            total += self.compute_latency(fl, tokens as f64) + self.gpu.launch_overhead;
        }
        total
            .mul_f64(self.arch_factor())
            .mul_f64(SPARSE_KERNEL_OVERHEAD)
    }

    /// Total bytes of one request's per-step cache loads (all blocks).
    pub fn cache_bytes_per_step(&self, mask_ratio: f64) -> u64 {
        self.model.cache_bytes_per_block(mask_ratio) * self.model.blocks as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h800_sdxl() -> CostModel {
        CostModel::new(GpuSpec::h800(), ModelConfig::paper_sdxl())
    }

    #[test]
    fn full_step_latency_is_realistic() {
        // SDXL on H800: tens of milliseconds per step, seconds per
        // 50-step generation — the regime the paper reports.
        let cm = h800_sdxl();
        let step = cm.step_latency_full(1).as_secs_f64();
        assert!(step > 0.01 && step < 0.5, "step {step}s");
        let gen = step * cm.model.steps as f64;
        assert!(gen > 1.0 && gen < 15.0, "full generation {gen}s");
    }

    #[test]
    fn efficiency_curve_saturates() {
        let g = GpuSpec::h800();
        assert!(g.efficiency(100.0) < 0.1);
        assert!(g.efficiency(1e7) > 0.99);
        let e1 = g.efficiency(1000.0);
        let e2 = g.efficiency(4000.0);
        assert!(e2 > e1);
    }

    #[test]
    fn mask_aware_step_beats_full_at_small_ratios() {
        let cm = h800_sdxl();
        let batch = vec![BatchItem { mask_ratio: 0.2 }; 4];
        let full = cm.step_latency_full(4);
        let plan = cm.step_latency_mask_aware(&batch, false);
        let aware = plan.latency;
        assert!(aware < full, "mask-aware {aware} should beat full {full}");
        assert_eq!(plan.blocks(), cm.model.blocks);
        // The paper reports ~2.2× speedup for SDXL at m = 0.2 including
        // loading overheads; expect the same ballpark (1.5–4×).
        let speedup = full.as_secs_f64() / aware.as_secs_f64();
        assert!(speedup > 1.3 && speedup < 5.0, "speedup {speedup}");
    }

    #[test]
    fn image_level_latency_scales_with_mask_ratio() {
        // Fig. 15-right: latency grows roughly linearly with the mask
        // ratio.
        let cm = h800_sdxl();
        let lat = |m: f64| {
            cm.step_latency_mask_aware(&[BatchItem { mask_ratio: m }], false)
                .latency
                .as_secs_f64()
        };
        let l01 = lat(0.1);
        let l05 = lat(0.5);
        let l09 = lat(0.9);
        assert!(l01 < l05 && l05 < l09);
        // Sub-linear due to the efficiency curve, but monotone and
        // substantial.
        assert!(l09 / l01 > 1.3, "ratio {}", l09 / l01);
    }

    #[test]
    fn batch_size_one_underutilizes_flashps() {
        // Fig. 14: at B=1 mask-aware computation underutilizes the SMs,
        // so its throughput advantage over full computation shrinks
        // well below the FLOP ratio.
        let cm = CostModel::new(GpuSpec::h800(), ModelConfig::paper_flux());
        let item = BatchItem { mask_ratio: 0.11 };
        let aware_1 = cm.step_latency_mask_aware(&[item], false).latency;
        let full_1 = cm.step_latency_full(1);
        let flop_ratio = 0.11f64;
        let latency_ratio = aware_1.as_secs_f64() / full_1.as_secs_f64();
        assert!(
            latency_ratio > flop_ratio * 2.0,
            "latency ratio {latency_ratio} should be far above flop ratio {flop_ratio}"
        );
        // Batching restores the advantage: per-request step time at
        // B=8 is much lower than at B=1.
        let aware_8 = cm.step_latency_mask_aware(&[item; 8], false).latency;
        let per_req_8 = aware_8.as_secs_f64() / 8.0;
        let per_req_1 = aware_1.as_secs_f64();
        assert!(
            per_req_8 < per_req_1 * 0.5,
            "batching gain too small: {per_req_1} -> {per_req_8}"
        );
    }

    #[test]
    fn kv_variant_loads_twice_the_bytes() {
        let cm = h800_sdxl();
        let batch = [BatchItem { mask_ratio: 0.2 }];
        let y = cm.mask_aware_block_costs(&batch, false);
        let kv = cm.mask_aware_block_costs(&batch, true);
        let ratio = kv.load.as_secs_f64() / y.load.as_secs_f64();
        assert!((ratio - 2.0).abs() < 0.01, "load ratio {ratio}");
        // §3.1: the K/V variant skips the full-length K/V recompute,
        // so its cached compute is cheaper (the ~10% latency saving).
        assert!(kv.compute_cached < y.compute_cached);
    }

    #[test]
    fn sparse_step_has_kernel_overhead() {
        let cm = CostModel::new(GpuSpec::a10(), ModelConfig::paper_sd21());
        let batch = [BatchItem { mask_ratio: 0.2 }];
        let sparse = cm.step_latency_sparse(&batch);
        // FISEdit computes strictly less (masked-only attention, no
        // K/V recompute) but pays a 1.6× sparse-kernel penalty; it
        // must still be slower than the full-compute baseline scaled
        // by its FLOP fraction.
        let full = cm.step_latency_full(1);
        assert!(sparse > SimDuration::ZERO);
        assert!(sparse < full, "sparse must beat full recompute");
        assert_eq!(cm.step_latency_sparse(&[]), SimDuration::ZERO);
    }

    #[test]
    fn empty_batch_is_free() {
        let cm = h800_sdxl();
        let plan = cm.step_latency_mask_aware(&[], false);
        assert_eq!(plan.latency, SimDuration::ZERO);
        assert_eq!(plan.blocks(), 0);
    }

    #[test]
    fn cache_bytes_per_step_matches_config() {
        let cm = h800_sdxl();
        let per_block = cm.model.cache_bytes_per_block(0.3);
        assert_eq!(
            cm.cache_bytes_per_step(0.3),
            per_block * cm.model.blocks as u64
        );
    }

    #[test]
    fn load_latency_uses_pcie_bandwidth() {
        let cm = h800_sdxl();
        let one_gib = 1u64 << 30;
        let lat = cm.load_latency(one_gib).as_secs_f64();
        assert!((lat - one_gib as f64 / cm.gpu.pcie_bw).abs() < 1e-6);
        let sync = cm.sync_load_latency(one_gib).as_secs_f64();
        assert!(sync > lat, "sync copies are slower than pipelined");
    }
}
