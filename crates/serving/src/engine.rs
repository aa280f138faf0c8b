//! The serving engines under comparison (§6.1 baselines).

use fps_simtime::SimDuration;

use crate::cost::{BatchItem, CostModel};

/// Which engine executes denoising steps on a worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineKind {
    /// HuggingFace Diffusers: full-image regeneration, no cache.
    Diffusers,
    /// FlashPS: mask-aware computation with Algorithm-1 pipelined cache
    /// loading; `kv` selects the Fig. 7 cached-K/V variant.
    FlashPs {
        /// Use the K/V-cache variant (2× load bytes, fuller attention
        /// context).
        kv: bool,
    },
    /// FISEdit: sparse masked-only kernels; SD2.1 only, no batching,
    /// OOM above batch size 2 in the paper's runs.
    FisEdit,
    /// TeaCache: full-image computation with a fraction of denoising
    /// steps skipped by reusing cached step outputs.
    TeaCache {
        /// Fraction of steps actually computed (e.g. 0.6 ⇒ 40 %
        /// skipped), the latency/quality knob of §6.1.
        compute_fraction: f64,
    },
}

impl EngineKind {
    /// Short label used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Diffusers => "diffusers",
            Self::FlashPs { kv: false } => "flashps",
            Self::FlashPs { kv: true } => "flashps-kv",
            Self::FisEdit => "fisedit",
            Self::TeaCache { .. } => "teacache",
        }
    }

    /// Whether the engine consumes the template activation cache.
    pub fn uses_cache(&self) -> bool {
        matches!(self, Self::FlashPs { .. })
    }

    /// Clamp a requested max batch size to what the engine supports.
    /// FISEdit cannot batch heterogeneous masks (§2.4), so it serves
    /// one request at a time.
    pub fn cap_batch(&self, requested: usize) -> usize {
        match self {
            Self::FisEdit => 1,
            _ => requested.max(1),
        }
    }

    /// Latency of one denoising step for a batch.
    pub fn step_latency(&self, cm: &CostModel, batch: &[BatchItem]) -> SimDuration {
        if batch.is_empty() {
            return SimDuration::ZERO;
        }
        match *self {
            Self::Diffusers => cm.step_latency_full(batch.len()),
            Self::FlashPs { kv } => cm.step_latency_mask_aware(batch, kv).latency,
            Self::FisEdit => cm.step_latency_sparse(batch),
            Self::TeaCache { compute_fraction } => cm
                .step_latency_full(batch.len())
                .mul_f64(compute_fraction.clamp(0.05, 1.0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::GpuSpec;
    use fps_diffusion::ModelConfig;

    fn cm() -> CostModel {
        CostModel::new(GpuSpec::h800(), ModelConfig::paper_flux())
    }

    fn batch(n: usize, m: f64) -> Vec<BatchItem> {
        vec![BatchItem { mask_ratio: m }; n]
    }

    #[test]
    fn labels_and_caps() {
        assert_eq!(EngineKind::Diffusers.label(), "diffusers");
        assert_eq!(EngineKind::FlashPs { kv: true }.label(), "flashps-kv");
        assert_eq!(EngineKind::FisEdit.cap_batch(8), 1);
        assert_eq!(EngineKind::Diffusers.cap_batch(8), 8);
        assert_eq!(EngineKind::Diffusers.cap_batch(0), 1);
        assert!(EngineKind::FlashPs { kv: false }.uses_cache());
        assert!(!EngineKind::TeaCache {
            compute_fraction: 0.6
        }
        .uses_cache());
    }

    #[test]
    fn engine_latency_ordering_at_batch() {
        // At production mask ratios and a real batch, FlashPS steps are
        // the fastest; TeaCache beats Diffusers by its skip fraction.
        let cm = cm();
        let b = batch(4, 0.11);
        let flash = EngineKind::FlashPs { kv: false }.step_latency(&cm, &b);
        let diff = EngineKind::Diffusers.step_latency(&cm, &b);
        let tea = EngineKind::TeaCache {
            compute_fraction: 0.6,
        }
        .step_latency(&cm, &b);
        assert!(flash < tea, "flashps {flash} vs teacache {tea}");
        assert!(tea < diff, "teacache {tea} vs diffusers {diff}");
        let ratio = tea.as_secs_f64() / diff.as_secs_f64();
        assert!((ratio - 0.6).abs() < 1e-9);
    }

    #[test]
    fn teacache_wins_at_batch_one() {
        // Fig. 14: without batching, TeaCache's full-width kernels
        // saturate the SMs while FlashPS's masked kernels cannot.
        let cm = cm();
        let b = batch(1, 0.11);
        let flash = EngineKind::FlashPs { kv: false }.step_latency(&cm, &b);
        let tea = EngineKind::TeaCache {
            compute_fraction: 0.5,
        }
        .step_latency(&cm, &b);
        assert!(
            tea < flash,
            "teacache {tea} should beat flashps {flash} at B=1"
        );
    }

    #[test]
    fn empty_batch_costs_nothing() {
        let cm = cm();
        for e in [
            EngineKind::Diffusers,
            EngineKind::FlashPs { kv: false },
            EngineKind::FisEdit,
            EngineKind::TeaCache {
                compute_fraction: 0.6,
            },
        ] {
            assert_eq!(e.step_latency(&cm, &[]), SimDuration::ZERO);
        }
    }

    #[test]
    fn teacache_fraction_is_clamped() {
        let cm = cm();
        let b = batch(1, 0.2);
        let zero = EngineKind::TeaCache {
            compute_fraction: 0.0,
        }
        .step_latency(&cm, &b);
        assert!(zero > SimDuration::ZERO, "clamped away from free");
    }
}
