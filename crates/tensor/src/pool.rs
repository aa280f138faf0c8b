//! Deterministic work pool: the compute plane beneath the kernels.
//!
//! The pool parallelizes row-wise kernels (`matmul`, `softmax_rows`,
//! `layer_norm`, `conv3x3`, the fused attention) by splitting the
//! *output* into disjoint row chunks and fanning the chunks out over a
//! small set of persistent worker threads. Because each output row is
//! still computed by exactly the same scalar code, in exactly the same
//! reduction order, as the single-threaded path, parallel results are
//! **bitwise identical** to scalar results — the property every
//! determinism test in this repository (cache replays, byte-identical
//! edits, chaos reproducibility) rests on. The only thing the pool is
//! allowed to change is *which thread* computes a row, never *how*.
//!
//! Design notes:
//!
//! - Built exclusively on the in-tree shims (`crossbeam` channels for
//!   work distribution and completion signalling) plus `std::thread`;
//!   no external dependencies.
//! - The caller always participates in its own parallel region, so a
//!   pool degenerates gracefully: with one thread every `run` call is
//!   an ordinary serial loop, and nested `run` calls cannot deadlock
//!   (the nested caller drains its own region itself).
//! - There is one kernel family and one dispatch rule: whether a row
//!   kernel fans out is decided per call by [`for_each_row_chunk`]
//!   from the work estimate and the class's calibrated threshold. The
//!   one per-thread override is [`with_min_parallel_work`], which the
//!   identity tests and `bench_kernels` use to compare two executions
//!   of the same kernels: `usize::MAX` forces the serial reference,
//!   `0` forces pooled row-chunking on any shape.
//! - Row-chunking only pays off once the serial work dwarfs the cost
//!   of waking workers, and that break-even point differs per kernel
//!   family, so thresholds are *calibrated*: [`calibration`] measures
//!   the pool's empty-region dispatch overhead and each
//!   [`KernelClass`]'s serial ns-per-work-unit once per process, and
//!   [`for_each_row_chunk`] stays serial below the class's measured
//!   break-even (with 8× headroom).
//! - Serving threads are spawned through [`spawn_service`] so thread
//!   creation for the whole stack is centralized here; see
//!   `flashps::server::ThreadedServer`.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};

thread_local! {
    static MIN_WORK: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Floor of the calibrated thresholds: below this much work (in
/// multiply-add-ish units) a kernel always stays serial.
const DEFAULT_MIN_PARALLEL_WORK: usize = 32 * 1024;

/// Ceiling of the calibrated thresholds, so a wildly noisy calibration
/// sample cannot pin a kernel class serial forever on big hosts.
const MAX_MIN_PARALLEL_WORK: usize = 64 * 1024 * 1024;

/// Serial work must exceed the pool's measured dispatch overhead by at
/// least this factor before row-chunking is worth attempting.
const DISPATCH_HEADROOM: f64 = 8.0;

/// Runs `f` with the parallel-dispatch work threshold pinned to `work`
/// for every kernel class, overriding the calibrated per-class
/// thresholds, restoring the previous setting afterwards (by an RAII
/// guard, so unwind restores it too). `0` parallelizes everything —
/// identity tests use it to exercise the pooled path on tiny shapes —
/// and `usize::MAX` keeps every kernel on the calling thread: the
/// serial reference those tests compare against.
pub fn with_min_parallel_work<T>(work: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            MIN_WORK.with(|p| p.set(self.0));
        }
    }
    let _restore = Restore(MIN_WORK.with(|p| p.replace(Some(work))));
    f()
}

/// Kernel families whose parallel-dispatch thresholds are calibrated
/// separately: a "work unit" buys different amounts of wall time in a
/// GEMM inner loop, a row-wise normalization, and a conv tap loop, so
/// one shared constant either over- or under-dispatches somewhere
/// (the committed PR 4 baseline showed sdxl `layer_norm` and sd21
/// `ffn_gemm` regressing under pooled dispatch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelClass {
    /// Dense matrix products and attention (`matmul*`, `mha_fused`,
    /// the VAE patch projections).
    Gemm,
    /// Row-wise maps and reductions (`softmax_rows`, `layer_norm`,
    /// `ada_layer_norm`).
    RowWise,
    /// Spatial tap loops (`conv3x3`).
    Conv,
}

const N_KERNEL_CLASSES: usize = 3;

/// Per-class parallel-dispatch thresholds, measured once per process.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Median wall time of one empty pooled region dispatched to
    /// parked workers (chunk dispatch, wakeup, completion signalling),
    /// in nanoseconds.
    pub dispatch_overhead_ns: f64,
    /// Measured serial nanoseconds per work unit, per kernel class.
    pub ns_per_unit: [f64; N_KERNEL_CLASSES],
    /// Minimum work units before a kernel of each class row-chunks.
    pub min_work: [usize; N_KERNEL_CLASSES],
}

/// Returns the process-wide dispatch calibration, measuring it on
/// first use: the pool's empty-region overhead and each class's serial
/// ns-per-work-unit on a small reference loop. A kernel class only
/// parallelizes once its serial time exceeds `DISPATCH_HEADROOM ×` the
/// dispatch overhead, so shapes where the pool cannot win (the PR 4
/// regressions) stay serial on any host.
pub fn calibration() -> &'static Calibration {
    static CAL: OnceLock<Calibration> = OnceLock::new();
    CAL.get_or_init(|| {
        let pool = global();
        let dispatch_overhead_ns = if pool.threads() <= 1 {
            0.0
        } else {
            // Each probe first sleeps so the workers have parked, as
            // they have whenever a kernel arrives after a serial
            // stretch: waking them is most of the cost (≈ 6 µs, against
            // ≈ 1 µs when they are still runnable or not yet started).
            // The median, not the best: a threshold sized for the one
            // probe that found a worker awake dispatches small kernels
            // into being slower than serial.
            let mut probes: Vec<f64> = (0..24)
                .map(|_| {
                    std::thread::sleep(std::time::Duration::from_micros(50));
                    let t0 = std::time::Instant::now();
                    pool.run(pool.threads() * 4, |i| {
                        std::hint::black_box(i);
                    });
                    t0.elapsed().as_nanos() as f64
                })
                .collect();
            probes.sort_by(f64::total_cmp);
            probes[probes.len() / 2]
        };
        let ns_per_unit = [
            calibrate_gemm_ns_per_unit(),
            calibrate_rowwise_ns_per_unit(),
            calibrate_conv_ns_per_unit(),
        ];
        // On a single-hardware-thread host, row-chunking can never beat
        // serial — the workers time-slice one core and dispatch is pure
        // overhead — so every class pins to the ceiling regardless of
        // what the (meaningless) overhead probe measured. Tests still
        // force the pool through `with_min_parallel_work(0, ..)`.
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let mut min_work = [DEFAULT_MIN_PARALLEL_WORK; N_KERNEL_CLASSES];
        for (mw, &ns) in min_work.iter_mut().zip(&ns_per_unit) {
            if cores <= 1 {
                *mw = MAX_MIN_PARALLEL_WORK;
            } else {
                let units = (DISPATCH_HEADROOM * dispatch_overhead_ns / ns.max(1e-3)) as usize;
                *mw = units.clamp(DEFAULT_MIN_PARALLEL_WORK, MAX_MIN_PARALLEL_WORK);
            }
        }
        Calibration {
            dispatch_overhead_ns,
            ns_per_unit,
            min_work,
        }
    })
}

/// Returns the calling thread's effective dispatch threshold for a
/// kernel class: the scoped [`with_min_parallel_work`] override when
/// one is active, else the calibrated per-class value.
pub fn min_parallel_work(class: KernelClass) -> usize {
    if let Some(work) = MIN_WORK.with(Cell::get) {
        return work;
    }
    calibration().min_work[class as usize]
}

/// Times `iters` runs of `f`, whose body performs `units` work units,
/// and returns the best-case serial nanoseconds per unit.
fn best_ns_per_unit(iters: usize, units: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = std::time::Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos() as f64);
    }
    best / units as f64
}

fn calibrate_gemm_ns_per_unit() -> f64 {
    // The production row kernel itself on a 16×32 · 32×32 product,
    // 2·m·k·n = 32768 units. (A stand-in `ikj` loop ran at about half
    // `matmul_rows`' speed, which halved the threshold and dispatched
    // GEMMs the pool then made slower.)
    let (m, k, n) = (16usize, 32usize, 32usize);
    let a: Vec<f32> = (0..m * k).map(|i| (i % 13) as f32 * 0.25).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32 * 0.5).collect();
    let mut c = vec![0.0f32; m * n];
    best_ns_per_unit(8, 2 * m * k * n, || {
        c.fill(0.0);
        crate::ops::matmul::matmul_rows(&mut c, 0, &a, &b, k, n);
        std::hint::black_box(&mut c);
    })
}

fn calibrate_rowwise_ns_per_unit() -> f64 {
    // The production LayerNorm rows on 64 rows × 64 columns, 6·rows·cols
    // units (as with the Gemm class, a stand-in loop would misplace the
    // threshold by however far its speed is from the kernel's).
    let (rows, cols) = (64usize, 64usize);
    let x: Vec<f32> = (0..rows * cols).map(|i| (i % 11) as f32 * 0.1).collect();
    let (gamma, beta) = (vec![1.0f32; cols], vec![0.0f32; cols]);
    let mut out = vec![0.0f32; rows * cols];
    best_ns_per_unit(8, 6 * rows * cols, || {
        crate::ops::norm::layer_norm_rows(&x, &mut out, &gamma, &beta, None);
        std::hint::black_box(&mut out);
    })
}

fn calibrate_conv_ns_per_unit() -> f64 {
    // The production conv rows on an 8×8 grid, 4→4 channels:
    // w·18·c_in·c_out units per grid row.
    let (h, w, c) = (8usize, 8usize, 4usize);
    let x: Vec<f32> = (0..h * w * c).map(|i| (i % 9) as f32 * 0.2).collect();
    let kernel: Vec<f32> = (0..9 * c * c).map(|i| (i % 5) as f32 * 0.1).collect();
    let bias = vec![0.0f32; c];
    let grid = crate::ops::conv::Grid {
        x: &x,
        h,
        w,
        c_in: c,
        kernel: &kernel,
        bias: &bias,
    };
    let mut out = vec![0.0f32; h * w * c];
    best_ns_per_unit(8, h * w * 18 * c * c, || {
        grid.rows(&mut out, 0);
        std::hint::black_box(&mut out);
    })
}

/// One parallel region in flight: a lifetime-erased task plus claim
/// and completion counters.
///
/// # Safety protocol
///
/// `task` borrows the caller's closure. The pointer is only ever
/// dereferenced for claimed indices `i < n`, and [`WorkPool::run`]
/// blocks until `done == n` (every claimed index has finished) before
/// returning, so the borrow outlives every dereference. Workers that
/// pick the region up late observe `next >= n` and drop their handle
/// without touching `task`.
struct Region {
    task: *const (dyn Fn(usize) + Sync),
    n: usize,
    next: AtomicUsize,
    done: AtomicUsize,
    done_tx: Sender<()>,
}

// SAFETY: `task` points at a `Sync` closure, and the protocol above
// guarantees the pointee is live for every dereference.
unsafe impl Send for Region {}
unsafe impl Sync for Region {}

impl Region {
    /// Claims and executes chunk indices until the region is drained.
    /// The thread that completes the final chunk signals `done_tx`.
    fn execute(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            // SAFETY: `i < n`, so per the protocol the closure is live.
            let task = unsafe { &*self.task };
            task(i);
            // AcqRel: releases this chunk's output writes into the
            // counter's modification order so the final `send` (and the
            // caller's matching `recv`) publishes *all* chunks.
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
                let _ = self.done_tx.send(());
            }
        }
    }
}

/// A fixed set of persistent worker threads executing regions of tasks.
pub struct WorkPool {
    injector: Option<Sender<Arc<Region>>>,
    threads: usize,
}

impl std::fmt::Debug for WorkPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl WorkPool {
    /// Builds a pool with `threads` compute lanes (including the
    /// caller's). `threads <= 1` builds a serial pool that never
    /// spawns and runs every region inline.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        if threads == 1 {
            return Self {
                injector: None,
                threads: 1,
            };
        }
        let (tx, rx) = unbounded::<Arc<Region>>();
        for w in 0..threads - 1 {
            let rx: Receiver<Arc<Region>> = rx.clone();
            spawn_service(&format!("pool-{w}"), move || {
                while let Ok(region) = rx.recv() {
                    region.execute();
                }
            });
        }
        Self {
            injector: Some(tx),
            threads,
        }
    }

    /// Number of compute lanes (caller included).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes `task(0) ..= task(n-1)`, each exactly once, possibly on
    /// different threads, and returns once all have finished. The
    /// caller participates, so progress never depends on a free worker.
    pub fn run<F: Fn(usize) + Sync>(&self, n: usize, task: F) {
        if n == 0 {
            return;
        }
        let Some(injector) = &self.injector else {
            for i in 0..n {
                task(i);
            }
            return;
        };
        if n == 1 {
            task(0);
            return;
        }
        let (done_tx, done_rx) = bounded(1);
        let erased: &(dyn Fn(usize) + Sync) = &task;
        let region = Arc::new(Region {
            // SAFETY: lifetime erasure; see the `Region` protocol. We
            // block on `done_rx` below until every claim has finished.
            task: unsafe {
                std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(
                    erased,
                )
            },
            n,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            done_tx,
        });
        for _ in 0..(self.threads - 1).min(n - 1) {
            let _ = injector.send(Arc::clone(&region));
        }
        region.execute();
        // Exactly one `send` happens (from whichever thread finished the
        // last chunk), so this cannot hang; it also publishes every
        // worker's output writes to the caller.
        let _ = done_rx.recv();
    }

    /// Splits `out` (a `rows × row_len` row-major buffer) into disjoint
    /// row chunks and runs `f(first_row, chunk)` for each, in parallel.
    ///
    /// Chunks are contiguous row ranges, so as long as `f` computes
    /// each row with the scalar kernel the result is bitwise identical
    /// to a serial pass.
    pub fn par_row_chunks<F>(&self, out: &mut [f32], rows: usize, row_len: usize, f: F)
    where
        F: Fn(usize, &mut [f32]) + Sync,
    {
        assert_eq!(out.len(), rows * row_len, "output buffer shape mismatch");
        if rows == 0 || row_len == 0 {
            return;
        }
        // ~4 chunks per lane keeps stragglers short without paying
        // per-row dispatch.
        let chunk_rows = chunk_rows_for(rows, self.threads);
        let n_chunks = rows.div_ceil(chunk_rows);
        let base = SendPtr(out.as_mut_ptr());
        self.run(n_chunks, |ci| {
            let r0 = ci * chunk_rows;
            let r1 = (r0 + chunk_rows).min(rows);
            // SAFETY: chunk `ci` covers rows `[r0, r1)`; ranges for
            // distinct `ci` are disjoint, in-bounds slices of `out`,
            // and `out` is borrowed mutably for the whole call.
            let chunk = unsafe {
                std::slice::from_raw_parts_mut(base.get().add(r0 * row_len), (r1 - r0) * row_len)
            };
            f(r0, chunk);
        });
    }
}

/// Raw base pointer made shareable across worker threads.
///
/// Only ever used to derive the disjoint row-chunk slices in
/// [`WorkPool::par_row_chunks`].
#[derive(Clone, Copy)]
struct SendPtr(*mut f32);
// SAFETY: dereferenced only through disjoint subslices (see above).
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// Accessor (rather than direct field use) so closures capture the
    /// `Send + Sync` wrapper, not the raw pointer field.
    fn get(self) -> *mut f32 {
        self.0
    }
}

/// The process-wide pool shared by every kernel (and reused by the
/// serving layer for sizing decisions).
///
/// Sized from `FPS_POOL_THREADS` when set (values `<= 1` force the
/// serial pool), else `available_parallelism()`, floored at 2 so the
/// parallel machinery is exercised — and its bitwise-identity guarantee
/// continuously verified — even on single-core hosts.
pub fn global() -> &'static WorkPool {
    static POOL: OnceLock<WorkPool> = OnceLock::new();
    POOL.get_or_init(|| WorkPool::new(default_threads()))
}

fn default_threads() -> usize {
    if let Ok(v) = std::env::var("FPS_POOL_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .max(2)
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

/// Dispatches a row-wise kernel: serial on the calling thread when the
/// estimated work is below the class's threshold or the global pool is
/// serial; pooled row chunks otherwise. `f(first_row, chunk)` must fill
/// `chunk` (rows `first_row..`) using the scalar per-row kernel;
/// `work_per_row` is a rough per-row flop count used only for the
/// dispatch decision, compared against [`min_parallel_work`] for
/// `class`.
pub fn for_each_row_chunk<F>(
    out: &mut [f32],
    rows: usize,
    row_len: usize,
    work_per_row: usize,
    class: KernelClass,
    f: F,
) where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if rows == 0 || row_len == 0 {
        return;
    }
    let pool = global();
    let serial = pool.threads() <= 1
        || rows < 2
        || rows.saturating_mul(work_per_row) < min_parallel_work(class);
    if serial {
        f(0, out);
    } else {
        pool.par_row_chunks(out, rows, row_len, f);
    }
}

/// Rows per chunk when `rows` output rows are split across `lanes`
/// workers — the decomposition [`WorkPool::par_row_chunks`] uses
/// (~4 chunks per lane, so stragglers stay short without paying
/// per-row dispatch). Public so the kernel benchmark can model the
/// identical chunking when it computes makespans off-line.
pub fn chunk_rows_for(rows: usize, lanes: usize) -> usize {
    rows.div_ceil(lanes.max(1) * 4).max(1)
}

/// Spawns a named long-lived service thread (pool workers, server
/// workers). Centralizing spawns here keeps thread creation for the
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
    use std::sync::atomic::AtomicU32;

    #[test]
    fn run_executes_each_index_exactly_once() {
        let pool = WorkPool::new(4);
        for n in [0usize, 1, 2, 3, 7, 64, 1000] {
            let counts: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            pool.run(n, |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "n={n}: some index not executed exactly once"
            );
        }
    }

    #[test]
    fn serial_pool_runs_inline() {
        let pool = WorkPool::new(1);
        let counts: Vec<AtomicU32> = (0..10).map(|_| AtomicU32::new(0)).collect();
        pool.run(10, |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_row_chunks_covers_all_rows_disjointly() {
        let pool = WorkPool::new(3);
        for rows in [1usize, 2, 5, 33, 128] {
            let row_len = 7;
            let mut out = vec![0.0f32; rows * row_len];
            pool.par_row_chunks(&mut out, rows, row_len, |r0, chunk| {
                for (ri, row) in chunk.chunks_exact_mut(row_len).enumerate() {
                    for v in row.iter_mut() {
                        *v += (r0 + ri) as f32 + 1.0;
                    }
                }
            });
            for r in 0..rows {
                for c in 0..row_len {
                    assert_eq!(out[r * row_len + c], r as f32 + 1.0, "row {r} col {c}");
                }
            }
        }
    }

    #[test]
    fn nested_regions_complete() {
        // A task running on the pool can itself open a region without
        // deadlocking, because callers participate in their own work.
        let pool = Arc::new(WorkPool::new(2));
        let hits = AtomicU32::new(0);
        let inner = WorkPool::new(2);
        pool.run(4, |_| {
            inner.run(4, |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn min_work_threshold_is_scoped() {
        let base = MIN_WORK.with(Cell::get);
        with_min_parallel_work(0, || {
            assert_eq!(MIN_WORK.with(Cell::get), Some(0));
            assert_eq!(min_parallel_work(KernelClass::Gemm), 0);
            assert_eq!(min_parallel_work(KernelClass::RowWise), 0);
            // A nested override restores the enclosing one.
            with_min_parallel_work(usize::MAX, || {
                assert_eq!(min_parallel_work(KernelClass::Conv), usize::MAX);
            });
            assert_eq!(MIN_WORK.with(Cell::get), Some(0));
        });
        assert_eq!(MIN_WORK.with(Cell::get), base);
    }

    #[test]
    fn override_extremes_force_serial_and_pooled() {
        // The identity tests compare these two executions; they are
        // only different executions if the dispatch really differs.
        let chunks = |work| {
            let calls = AtomicU32::new(0);
            let mut out = vec![0.0f32; 16 * 4];
            with_min_parallel_work(work, || {
                for_each_row_chunk(&mut out, 16, 4, 1, KernelClass::Gemm, |_, _| {
                    calls.fetch_add(1, Ordering::Relaxed);
                });
            });
            calls.into_inner()
        };
        assert_eq!(chunks(usize::MAX), 1, "usize::MAX must stay serial");
        if global().threads() > 1 {
            assert!(chunks(0) > 1, "0 must row-chunk over the pool");
        }
    }

    #[test]
    fn calibrated_thresholds_are_bounded_and_positive() {
        let cal = calibration();
        assert!(cal.dispatch_overhead_ns >= 0.0);
        for (class, (&mw, &ns)) in cal.min_work.iter().zip(&cal.ns_per_unit).enumerate() {
            assert!(ns > 0.0, "class {class}: non-positive ns/unit");
            assert!(
                (DEFAULT_MIN_PARALLEL_WORK..=MAX_MIN_PARALLEL_WORK).contains(&mw),
                "class {class}: threshold {mw} outside clamp"
            );
        }
        // Without a scoped override, the calibrated value is served.
        assert_eq!(
            min_parallel_work(KernelClass::Conv),
            cal.min_work[KernelClass::Conv as usize]
        );
    }

    #[test]
    fn global_pool_has_at_least_two_lanes_by_default() {
        // FPS_POOL_THREADS can override this, but the test environment
        // does not set it.
        if std::env::var("FPS_POOL_THREADS").is_err() {
            assert!(global().threads() >= 2);
        }
    }

    #[test]
    fn spawn_service_names_thread() {
        let h = spawn_service("unit", || std::thread::current().name().map(str::to_owned));
        assert_eq!(h.join().unwrap().as_deref(), Some("fps-unit"));
    }
}
