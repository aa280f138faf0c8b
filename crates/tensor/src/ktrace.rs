//! Per-kernel wall-time observation hook.
//!
//! The tensor crate sits below the tracing crate, so instead of
//! depending on `fps-trace` directly it exposes a process-wide observer
//! callback: when installed, every kernel entry point (`matmul`,
//! `softmax_rows`, the fused attention, …) reports a [`KernelEvent`]
//! carrying its name, the mask ratio it computed at (the plan-taking
//! `ops::sparse::matmul` only), and wall-clock start/end [`Instant`]s.
//! The diffusion layer installs an observer that forwards these as
//! `kernel`-category spans into its `TraceSink` (see
//! `EditPipeline::trace_kernels`), which is how traced runs attribute
//! denoise time to individual kernels.
//!
//! Disabled by default: the cost on the hot path is then a single
//! relaxed atomic load per kernel call.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

/// One observed kernel execution.
#[derive(Debug, Clone, Copy)]
pub struct KernelEvent {
    /// Kernel entry-point name (`"matmul"`, `"mha_fused"`, …).
    pub name: &'static str,
    /// Fraction of output rows the kernel actually computed — reported
    /// by `ops::sparse::matmul`; `None` for dense kernels.
    pub mask_ratio: Option<f32>,
    /// Wall-clock start of the kernel body.
    pub start: Instant,
    /// Wall-clock end of the kernel body.
    pub end: Instant,
}

/// Observer signature: one callback per finished kernel execution.
pub type Observer = std::sync::Arc<dyn Fn(&KernelEvent) + Send + Sync>;

static ENABLED: AtomicBool = AtomicBool::new(false);
static OBSERVER: Mutex<Option<Observer>> = Mutex::new(None);

/// Installs (or, with `None`, removes) the process-wide kernel
/// observer. The previous observer, if any, is replaced.
pub fn set_observer(obs: Option<Observer>) {
    let mut slot = OBSERVER.lock();
    ENABLED.store(obs.is_some(), Ordering::Release);
    *slot = obs;
}

/// True when an observer is installed.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts a dense-kernel span; the observer fires when the guard drops.
/// Returns `None` (and costs one atomic load) when no observer is
/// installed.
pub fn span(name: &'static str) -> Option<KernelSpan> {
    span_with(name, None)
}

/// Starts a sparse-kernel span that reports the mask ratio the kernel
/// computes at (active rows ÷ total rows).
pub fn span_masked(name: &'static str, mask_ratio: f32) -> Option<KernelSpan> {
    span_with(name, Some(mask_ratio))
}

fn span_with(name: &'static str, mask_ratio: Option<f32>) -> Option<KernelSpan> {
    if !enabled() {
        return None;
    }
    let observer = OBSERVER.lock().clone()?;
    Some(KernelSpan {
        name,
        mask_ratio,
        start: Instant::now(),
        observer,
    })
}

/// RAII guard reporting one kernel execution on drop.
pub struct KernelSpan {
    name: &'static str,
    mask_ratio: Option<f32>,
    start: Instant,
    observer: Observer,
}

impl Drop for KernelSpan {
    fn drop(&mut self) {
        (self.observer)(&KernelEvent {
            name: self.name,
            mask_ratio: self.mask_ratio,
            start: self.start,
            end: Instant::now(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    #[test]
    fn disabled_by_default_and_observer_fires() {
        // Ordered sub-steps in one test: the observer slot is process
        // state, and tests in this binary run concurrently.
        let hits = Arc::new(AtomicU32::new(0));
        let h2 = Arc::clone(&hits);
        set_observer(Some(Arc::new(move |ev: &KernelEvent| {
            // Other tests' kernels may fire concurrently; only count
            // our own spans.
            if ev.name == "unit_kernel" && ev.end >= ev.start {
                assert_eq!(ev.mask_ratio, None);
                h2.fetch_add(1, Ordering::Relaxed);
            }
            if ev.name == "unit_sparse" {
                assert_eq!(ev.mask_ratio, Some(0.25));
                h2.fetch_add(10, Ordering::Relaxed);
            }
        })));
        assert!(enabled());
        drop(span("unit_kernel"));
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        drop(span_masked("unit_sparse", 0.25));
        assert_eq!(hits.load(Ordering::Relaxed), 11);
        set_observer(None);
        assert!(!enabled());
        assert!(span("unit_kernel").is_none());
        assert_eq!(hits.load(Ordering::Relaxed), 11);
    }
}
