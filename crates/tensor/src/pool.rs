//! Where kernels run: the instruction-set dispatch of the hot row
//! kernels, and the one place the stack spawns threads.
//!
//! Every kernel runs its row kernel once, over the whole output, on
//! the calling thread. The serving layer's workers are the only
//! parallelism: one request per thread, as the paper scales one engine
//! per GPU (`flashps::server::ThreadedServer`).
//!
//! - `with_wide_isa` runs a kernel body in its AVX2 build where the
//!   host has one, else in the baseline build; both give the same bits.
//!   It holds the workspace's one `unsafe` call.
//! - Serving threads are spawned through [`spawn_service`], so thread
//!   creation for the whole stack is centralized here.

/// What [`calibration`] reports: the dispatch thresholds of the
/// removed row-chunk work pool.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Wall time of one pooled dispatch, in nanoseconds: 0, as no
    /// kernel dispatches.
    pub dispatch_overhead_ns: f64,
    /// Work units before a kernel of each of the pool's three kernel
    /// classes fanned out: `usize::MAX`, as none does.
    pub min_work: [usize; 3],
}

/// A constant that reports that no kernel fans out over threads.
///
/// It exists only for the dispatch note the benchmark (`benchmark/`)
/// prints with every edit run; ROADMAP item 7's benchmark change
/// deletes that note and this function with it.
pub fn calibration() -> &'static Calibration {
    &Calibration {
        dispatch_overhead_ns: 0.0,
        min_work: [usize::MAX; 3],
    }
}

/// Runs `body` compiled for AVX2 when the host has it, else as built
/// for the target's baseline.
///
/// The hot row kernels (the GEMM rows with their GeLU epilogue, and
/// each of attention's score, softmax and context stages) call this
/// around an `#[inline(always)]` closure over an `#[inline(always)]`
/// body, so that one source is instantiated twice: inlined into `wide`
/// (its loops auto-vectorised eight lanes wide) and inlined into the
/// fallback call below (the baseline build, which stays the reference
/// and the only build on other hosts and architectures).
///
/// Both builds compute bitwise the same values: `vmulps`/`vaddps` are
/// the same lane-wise IEEE operations as `mulps`/`addps`, `avx2` does
/// not imply `fma` (and Rust never contracts `a*b + c`), LLVM does not
/// reassociate floating-point arithmetic, and every reduction order is
/// fixed by the source. `fma` and `avx512*` are never enabled here
/// (`scripts/check.sh` fails if any `target_feature` under `crates/`
/// does).
#[inline(always)]
pub(crate) fn with_wide_isa(body: impl FnOnce()) {
    if has_wide_isa() {
        // SAFETY: `wide` enables `avx2` only, and `has_wide_isa` just
        // found `avx2` on the executing CPU.
        #[cfg(target_arch = "x86_64")]
        return unsafe { wide(body) };
    }
    body();
}

/// The AVX2 instantiation of whatever `body` inlines.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn wide(body: impl FnOnce()) {
    body();
}

/// Whether the executing CPU runs [`with_wide_isa`]'s AVX2 build.
#[inline(always)]
fn has_wide_isa() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Whether [`with_wide_isa`] runs an AVX2 build on this host, for the
/// differential tests: without one it runs the baseline build, and
/// comparing that with itself would prove nothing, so `test` logs a
/// skip note instead.
#[cfg(test)]
pub(crate) fn wide_isa_or_skip(test: &str) -> bool {
    if !has_wide_isa() {
        eprintln!("{test}: skipped, no AVX2 on this host (only the baseline build runs here)");
    }
    has_wide_isa()
}

/// Spawns a named long-lived service thread (the server's workers and
/// stage threads). Centralizing spawns here keeps thread creation for the
/// whole stack in one place and gives every thread a recognizable
/// `fps-` name in debuggers and trace output.
///
/// # Panics
///
/// Panics if the OS refuses to spawn a thread.
pub fn spawn_service<F, T>(name: &str, f: F) -> std::thread::JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    std::thread::Builder::new()
        .name(format!("fps-{name}"))
        .spawn(f)
        .expect("failed to spawn service thread")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_service_names_thread() {
        let h = spawn_service("unit", || std::thread::current().name().map(str::to_owned));
        assert_eq!(h.join().unwrap().as_deref(), Some("fps-unit"));
    }
}
