//! Compute-plane regression baseline: the hot kernels, each on the
//! calling thread, at the SD2.1/SDXL/Flux substrate shapes.
//!
//! A full run records four sets of numbers in `BENCH_kernels.json`,
//! and every run checks the gates among them:
//!
//! 1. **Timings** — per-kernel wall times at each model shape
//!    (including the `[L, H] × [H, latent_channels]` noise projection
//!    and the GEMMs of a masked step on `MASKED_ROWS` gathered rows),
//!    the regression baseline future sessions diff against.
//! 2. **Tiled-GEMM gate** — on the largest shape (the flux-like FFN
//!    GEMM) the tiled GEMM is at least 1.3× faster, measured wall, than
//!    the frozen pre-tiling kernel (`matmul_naive`, kept in-tree as the
//!    baseline oracle, and never built for AVX2); the bench host
//!    measures ≈ 3.6× with the AVX2 kernel build and ≈ 1.5× with the
//!    baseline one. Which build ran is recorded as `isa`.
//! 3. **Sparse gate** — the mask-sparse GEMM sweeps mask ratios
//!    {5, 10, 25, 50}% at the flux FFN shape, checking at each its
//!    row-split contract (dense bits at the plan's rows, template bits
//!    elsewhere); at 10% it must be ≥ 3× faster than the dense kernel
//!    (measured wall), and on full runs its wall-time fraction must
//!    track the [`fps_diffusion::flops::sparse_gemm_flops`] estimator
//!    within 2× across the sweep.
//! 4. **Transcendentals** — `softmax_rows` and `gelu` in ns/element at
//!    the sdxl/flux attention and FFN widths, beside bench-local loops
//!    over `f32::exp` / `f32::tanh` (the library may not call libm; the
//!    bench may). On full runs the in-tree GeLU must be ≥ 4× the
//!    `tanhf` loop, measured wall; the softmax ratio is reported only
//!    (most of a softmax row is max, sum and scale).
//!    `softmax_rows` runs the baseline build on every host, so beside
//!    it the attention kernel's softmax stage — the `exp_f32` pass and
//!    the whole row, at the sdxl-like and flux-like key counts — is
//!    timed in both instruction-set builds.
//!
//! The kernel rows include a masked K/V step's self-attention
//! (`MASKED_ROWS` queries over all `L` keys with their own fresh
//! keys/values laid over the cached ones) twice: over panels packed once,
//! as served (`masked_mha_panels`), and through a per-call pack of the
//! scattered `[L, H]` keys and values (`masked_mha_pack`); the two are
//! asserted bitwise equal.
//!
//! Flags: `--smoke` shrinks repetition counts, skips the FLOP-tracking
//! and GeLU asserts (timing-noise sensitive), and writes no artifacts
//! (used by `scripts/check.sh`); the full run writes
//! `BENCH_kernels.json` into the working directory and
//! `results/bench_kernels.txt`.

use std::time::Instant;

use fps_bench::save_artifact;
use fps_diffusion::block::TransformerBlock;
use fps_diffusion::embedding::{embed_prompt, embed_timestep, pool_condition};
use fps_diffusion::flops::sparse_gemm_flops;
use fps_diffusion::ModelConfig;
use fps_json::Json;
use fps_metrics::Table;
use fps_tensor::ops::softmax::{softmax_stage_pass, SoftmaxPass};
use fps_tensor::ops::sparse::{self, SparsePlan};
use fps_tensor::ops::{
    ada_layer_norm, conv3x3, gelu, layer_norm, matmul, matmul_gelu, matmul_naive, mha_fused,
    mha_panels, scatter_rows_into, softmax_rows, AttnPanels,
};
use fps_tensor::rng::DetRng;
use fps_tensor::Tensor;

/// The tiled-GEMM gate: tiled ≥ 1.3× the frozen naive kernel.
const GATE_SPEEDUP: f64 = 1.3;

/// The sparse gate: sparse GEMM ≥ 3× dense at a 10% mask.
const SPARSE_GATE_SPEEDUP: f64 = 3.0;

/// The transcendental gate: in-tree GeLU ≥ 4× a `tanhf` loop.
const GELU_GATE_SPEEDUP: f64 = 4.0;

/// Gathered rows of the masked-step GEMM rows: an sdxl-like edit at the
/// production traffic's mean mask ratio (0.11) computes ≈ 12–16 of its
/// 144 tokens.
const MASKED_ROWS: usize = 12;

/// The build of the hot row kernels this host runs: `fps-tensor`
/// compiles them for the baseline and for AVX2 (both give the same
/// bits; the timings differ). This must mirror the rule in
/// `fps_tensor::pool::with_wide_isa`, which is crate-private.
fn isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "baseline"
}

/// Wall time of the fastest of `reps` runs, in microseconds.
fn time_us<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e6);
    }
    best
}

/// Best-of-`reps` wall times (µs) of two bodies timed alternately, so
/// a noisy stretch of a shared host lands on both sides of the ratio
/// the caller takes.
fn time_pair_us(reps: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        best.0 = best.0.min(time_us(1, &mut a));
        best.1 = best.1.min(time_us(1, &mut b));
    }
    best
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

struct KernelRow {
    config: &'static str,
    kernel: &'static str,
    /// Best-of-`reps` wall time on the calling thread.
    serial_us: f64,
}

/// Times every hot kernel at one model shape.
fn bench_config(cfg: &ModelConfig, name: &'static str, reps: usize, rows: &mut Vec<KernelRow>) {
    let l = cfg.tokens();
    let h = cfg.hidden;
    let f = cfg.hidden * cfg.ffn_mult;
    let mut rng = DetRng::new(0xBE7C);
    let x = Tensor::randn([l, h], &mut rng);
    let w_up = Tensor::randn([h, f], &mut rng);
    let q = Tensor::randn([l, h], &mut rng);
    let k = Tensor::randn([l, h], &mut rng);
    let v = Tensor::randn([l, h], &mut rng);
    let g = Tensor::randn([h], &mut rng);
    let b = Tensor::randn([h], &mut rng);
    let s = Tensor::randn([h], &mut rng);
    let sh = Tensor::randn([h], &mut rng);
    let grid = Tensor::randn([l, cfg.latent_channels], &mut rng);
    let kern = Tensor::randn([9 * cfg.latent_channels, cfg.latent_channels], &mut rng);
    let bias = Tensor::randn([cfg.latent_channels], &mut rng);
    let heads = cfg.heads;
    let scale = 1.0 / ((h / heads) as f32).sqrt();

    let mut push = |kernel: &'static str, f: &dyn Fn() -> Tensor| {
        let serial_us = time_us(reps, || {
            std::hint::black_box(f());
        });
        rows.push(KernelRow {
            config: name,
            kernel,
            serial_us,
        });
    };
    push("ffn_gemm", &|| matmul(&x, &w_up).unwrap());
    push("ffn_gemm_gelu", &|| matmul_gelu(&x, &w_up).unwrap());
    // The noise-prediction projection `[L, H] × [H, latent_channels]`:
    // narrower than any register tile.
    let w_out = Tensor::randn([h, cfg.latent_channels], &mut rng);
    push("out_proj_gemm", &|| matmul(&x, &w_out).unwrap());
    // The GEMMs of a masked step, on MASKED_ROWS gathered rows: the
    // attention projections and both FFN halves.
    let xm = Tensor::randn([MASKED_ROWS, h], &mut rng);
    let fm = Tensor::randn([MASKED_ROWS, f], &mut rng);
    let w_proj = Tensor::randn([h, h], &mut rng);
    let w_down = Tensor::randn([f, h], &mut rng);
    push("masked_proj_gemm", &|| matmul(&xm, &w_proj).unwrap());
    push("masked_ffn_up_gemm", &|| matmul(&xm, &w_up).unwrap());
    push("masked_ffn_down_gemm", &|| matmul(&fm, &w_down).unwrap());
    push("mha", &|| mha_fused(&q, &k, &v, heads, scale).unwrap());
    // A masked K/V step's self-attention: the gathered rows' queries
    // over every key, their own fresh keys and values laid over the
    // cached ones — on panels packed once, and through a per-call pack
    // of the scattered [L, H] keys and values.
    let fresh_rows: Vec<usize> = (0..MASKED_ROWS).map(|i| i * l / MASKED_ROWS).collect();
    let fk = Tensor::randn([MASKED_ROWS, h], &mut rng);
    let fv = Tensor::randn([MASKED_ROWS, h], &mut rng);
    let cached = AttnPanels::pack(&k, &v, heads).unwrap();
    let (mut ks, mut vs) = (k.clone(), v.clone());
    scatter_rows_into(&mut ks, &fk, &fresh_rows).unwrap();
    scatter_rows_into(&mut vs, &fv, &fresh_rows).unwrap();
    let fresh = Some((&fk, &fv, &fresh_rows[..]));
    let split = || mha_panels(&xm, &cached, fresh, scale).unwrap();
    let packed = || mha_fused(&xm, &ks, &vs, heads, scale).unwrap();
    assert_eq!(
        bits(&split()),
        bits(&packed()),
        "{name}: attention over panels differs from a per-call pack"
    );
    push("masked_mha_panels", &split);
    push("masked_mha_pack", &packed);
    push("layer_norm", &|| layer_norm(&x, &g, &b).unwrap());
    push("ada_layer_norm", &|| {
        ada_layer_norm(&x, &g, &b, &s, &sh).unwrap()
    });
    push("conv3x3", &|| {
        conv3x3(&grid, cfg.latent_h, cfg.latent_w, &kern, &bias).unwrap()
    });
    let block = TransformerBlock::new(cfg, &mut DetRng::new(cfg.weight_seed));
    let prompt = embed_prompt(cfg, "bench");
    let cond = pool_condition(&prompt, &embed_timestep(cfg, 0.5));
    // The prompt and timestep projections stay inside the timed body so
    // the row measures the same work as the committed baseline.
    push("block_forward", &|| {
        let cross = block.cross_kv(&prompt).unwrap();
        let ada = block.ada_params(&cond).unwrap();
        block.forward_full(&x, &cross, &ada).unwrap().y
    });
}

/// Measured-wall gate: flux FFN GEMM, the frozen pre-tiling kernel vs
/// the tiled kernel. Returns the two wall times (µs), naive first.
fn measured_gate(a: &Tensor, b: &Tensor, reps: usize) -> (f64, f64) {
    time_pair_us(
        reps,
        || {
            std::hint::black_box(matmul_naive(a, b).unwrap());
        },
        || {
            std::hint::black_box(matmul(a, b).unwrap());
        },
    )
}

/// One point of the sparse mask-ratio sweep.
struct SparseRow {
    /// Actual mask ratio (active rows / total rows).
    ratio: f64,
    /// Active (computed) rows.
    active: usize,
    /// Sparse GEMM wall time (µs).
    sparse_us: f64,
    /// Sparse / dense speedup at this ratio.
    speedup: f64,
    /// FLOP fraction predicted by the estimator.
    flops_frac: f64,
    /// Measured wall fraction (sparse / dense).
    wall_frac: f64,
}

/// Sweeps the sparse GEMM over mask ratios at the flux FFN shape,
/// asserting the row-split identity contract at each point, and
/// returns the per-ratio rows plus the dense reference wall time.
fn sparse_sweep(a: &Tensor, b: &Tensor, reps: usize) -> (f64, Vec<SparseRow>) {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let dense_ref = matmul(a, b).unwrap();
    let template = Tensor::randn([m, n], &mut DetRng::new(0x7E3A));
    let dense_us = time_us(reps, || {
        std::hint::black_box(matmul(a, b).unwrap());
    });
    let full_flops = sparse_gemm_flops(m, k, n, 1.0) as f64;
    let mut rows = Vec::new();
    for target in [0.05, 0.10, 0.25, 0.50] {
        let active_n = ((target * m as f64).round() as usize).clamp(1, m);
        // Active rows spread evenly over the matrix, like a band mask.
        let masked: Vec<usize> = (0..active_n).map(|i| i * m / active_n).collect();
        let plan = SparsePlan::from_mask(m, &masked).expect("plan");
        let ratio = f64::from(plan.mask_ratio());
        // Row-split identity: dense bits at the plan's rows, template
        // bits everywhere else.
        let out = sparse::matmul(&plan, a, b, Some(&template)).expect("sparse matmul");
        let mut expect = template.clone();
        for &r in plan.active() {
            expect
                .row_mut(r)
                .expect("row")
                .copy_from_slice(dense_ref.row(r).expect("row"));
        }
        assert_eq!(
            bits(&out),
            bits(&expect),
            "sparse GEMM row-split identity failed at ratio {ratio:.3}"
        );
        let sparse_us = time_us(reps, || {
            std::hint::black_box(sparse::matmul(&plan, a, b, Some(&template)).unwrap());
        });
        rows.push(SparseRow {
            ratio,
            active: plan.active().len(),
            sparse_us,
            speedup: dense_us / sparse_us,
            flops_frac: sparse_gemm_flops(m, k, n, ratio) as f64 / full_flops,
            wall_frac: sparse_us / dense_us,
        });
    }
    (dense_us, rows)
}

/// One in-tree transcendental kernel beside its libm twin.
struct TranscendentalRow {
    kernel: &'static str,
    rows: usize,
    cols: usize,
    /// In-tree kernel, ns per element.
    ns: f64,
    /// Bench-local libm loop, ns per element.
    libm_ns: f64,
}

/// Row softmax over `f32::exp`: the kernel `softmax_rows` replaced.
fn softmax_rows_libm(x: &Tensor) -> Tensor {
    let mut out = x.clone();
    for r in 0..x.dims()[0] {
        let row = out.row_mut(r).expect("row");
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        row.iter_mut().for_each(|v| *v *= inv);
    }
    out
}

/// GeLU in its `f32::tanh` form: the kernel `gelu` replaced.
fn gelu_libm(x: &Tensor) -> Tensor {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    x.map(|v| 0.5 * v * (1.0 + (SQRT_2_OVER_PI * (v + 0.044_715 * v * v * v)).tanh()))
}

/// Times `softmax_rows` and `gelu` against their libm twins, on
/// unit-normal inputs (FFN pre-activations and scaled
/// attention scores are about that wide), checking first that each
/// pair computes the same function to 1e-6.
fn transcendental_rows(reps: usize) -> Vec<TranscendentalRow> {
    type Kernel = fn(&Tensor) -> Tensor;
    let softmax: Kernel = |x| softmax_rows(x).expect("softmax_rows");
    let cases: [(&'static str, Kernel, Kernel, [usize; 2]); 4] = [
        ("softmax_rows", softmax, softmax_rows_libm, [144, 144]),
        ("softmax_rows", softmax, softmax_rows_libm, [256, 256]),
        ("gelu", gelu, gelu_libm, [144, 192]),
        ("gelu", gelu, gelu_libm, [256, 256]),
    ];
    let mut rng = DetRng::new(0x7A4E);
    cases
        .into_iter()
        .map(|(kernel, ours, libm, [rows, cols])| {
            let x = Tensor::randn([rows, cols], &mut rng);
            let diff = ours(&x).max_abs_diff(&libm(&x)).expect("same shape");
            assert!(
                diff <= 1e-6,
                "{kernel} [{rows},{cols}] is {diff:e} from libm"
            );
            let ns = |f: Kernel| {
                let us = time_us(reps * 5, || {
                    std::hint::black_box(f(&x));
                });
                us * 1e3 / (rows * cols) as f64
            };
            TranscendentalRow {
                kernel,
                rows,
                cols,
                ns: ns(ours),
                libm_ns: ns(libm),
            }
        })
        .collect()
}

/// One build of one pass of the attention kernel's softmax stage.
struct StageRow {
    pass: &'static str,
    keys: usize,
    build: &'static str,
    /// ns per element, one thread.
    ns: f64,
}

/// Times the attention kernel's softmax stage — the `exp_f32` pass and
/// the whole row softmax — over `[keys, keys]` unit-normal scores at
/// the sdxl-like and flux-like key counts, in the baseline build and in
/// the build the attention kernel runs on this host. Each repetition
/// starts from the same scores, restored outside the timed region.
fn attention_stage_rows(reps: usize) -> Vec<StageRow> {
    let mut rng = DetRng::new(0x5AF7);
    let mut out = Vec::new();
    for keys in [144, 256] {
        let scores = Tensor::randn([keys, keys], &mut rng);
        let mut work = scores.data().to_vec();
        for (pass, kind) in [
            ("exp_f32 pass", SoftmaxPass::Exp),
            ("softmax row", SoftmaxPass::Row),
        ] {
            for (build, wide) in [("baseline", false), (isa(), true)] {
                let mut best = f64::INFINITY;
                for _ in 0..reps * 5 {
                    work.copy_from_slice(scores.data());
                    let t0 = Instant::now();
                    softmax_stage_pass(&mut work, keys, kind, wide);
                    best = best.min(t0.elapsed().as_secs_f64());
                    std::hint::black_box(&work);
                }
                out.push(StageRow {
                    pass,
                    keys,
                    build,
                    ns: best * 1e9 / (keys * keys) as f64,
                });
            }
        }
    }
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps = if smoke { 10 } else { 20 };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    let mut rows = Vec::new();
    let configs = [
        (ModelConfig::sd21_like(), "sd21-like"),
        (ModelConfig::sdxl_like(), "sdxl-like"),
        (ModelConfig::flux_like(), "flux-like"),
    ];
    for (cfg, name) in &configs {
        bench_config(cfg, name, reps, &mut rows);
    }

    // The gates run on the largest shape: the flux-like FFN GEMM.
    let flux = ModelConfig::flux_like();
    let mut rng = DetRng::new(0x6A7E);
    let a = Tensor::randn([flux.tokens(), flux.hidden], &mut rng);
    let b = Tensor::randn([flux.hidden, flux.hidden * flux.ffn_mult], &mut rng);
    // Ten times the repetitions: a pair costs under a millisecond, and
    // the bench host's slow stretches (which squeeze this ratio) last
    // longer than `reps` of them.
    let (naive_us, tiled_us) = measured_gate(&a, &b, reps * 10);
    let speedup = naive_us / tiled_us;
    assert!(
        speedup >= GATE_SPEEDUP,
        "tiled flux FFN GEMM at {tiled_us:.1}us is {speedup:.2}x the naive kernel's \
         {naive_us:.1}us, below the {GATE_SPEEDUP}x gate"
    );

    // Sparse sweep + gates. The ≥3× gate is measured wall: the sparse
    // win comes from skipping FLOPs, not threads.
    let (dense_us, sweep) = sparse_sweep(&a, &b, reps);
    let at_10 = &sweep[1];
    assert!(
        at_10.speedup >= SPARSE_GATE_SPEEDUP,
        "sparse GEMM at {:.1}% mask is {:.2}x dense, below the {SPARSE_GATE_SPEEDUP}x gate",
        at_10.ratio * 100.0,
        at_10.speedup
    );
    if !smoke {
        for r in &sweep {
            let tracking = r.wall_frac / r.flops_frac;
            assert!(
                (0.5..=2.0).contains(&tracking),
                "sparse wall fraction {:.3} at ratio {:.3} diverges from FLOP fraction {:.3} \
                 (tracking {tracking:.2}x, limit 2x)",
                r.wall_frac,
                r.ratio,
                r.flops_frac
            );
        }
    }

    let transcendentals = transcendental_rows(reps);
    let stage = attention_stage_rows(reps);
    if !smoke {
        for r in transcendentals.iter().filter(|r| r.kernel == "gelu") {
            assert!(
                r.libm_ns >= GELU_GATE_SPEEDUP * r.ns,
                "gelu [{},{}] at {:.2} ns/element is under {GELU_GATE_SPEEDUP}x the tanhf loop's \
                 {:.2}",
                r.rows,
                r.cols,
                r.ns,
                r.libm_ns
            );
        }
    }

    let mut table = Table::new(&["config", "kernel", "serial(us)"]);
    for r in &rows {
        table.row(&[
            r.config.to_string(),
            r.kernel.to_string(),
            format!("{:.1}", r.serial_us),
        ]);
    }
    let mut sparse_table = Table::new(&[
        "mask",
        "active_rows",
        "sparse(us)",
        "speedup",
        "flop_frac",
        "wall_frac",
    ]);
    for r in &sweep {
        sparse_table.row(&[
            format!("{:.1}%", r.ratio * 100.0),
            r.active.to_string(),
            format!("{:.1}", r.sparse_us),
            format!("{:.2}x", r.speedup),
            format!("{:.3}", r.flops_frac),
            format!("{:.3}", r.wall_frac),
        ]);
    }
    let mut transcendental_table = Table::new(&[
        "kernel",
        "shape",
        "in-tree(ns/el)",
        "libm(ns/el)",
        "speedup",
    ]);
    for r in &transcendentals {
        transcendental_table.row(&[
            r.kernel.to_string(),
            format!("[{},{}]", r.rows, r.cols),
            format!("{:.2}", r.ns),
            format!("{:.2}", r.libm_ns),
            format!("{:.2}x", r.libm_ns / r.ns),
        ]);
    }
    let mut stage_table = Table::new(&["pass", "keys", "build", "ns/el"]);
    for r in &stage {
        stage_table.row(&[
            r.pass.to_string(),
            r.keys.to_string(),
            r.build.to_string(),
            format!("{:.2}", r.ns),
        ]);
    }
    let mut out = format!(
        "Compute-plane baseline: every kernel on the calling thread\nKernel build (isa): {}\n\n",
        isa()
    );
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nGate: flux-like FFN GEMM, tiled {tiled_us:.1}us vs the frozen naive kernel's \
         {naive_us:.1}us:\n{speedup:.2}x (measured wall, threshold {GATE_SPEEDUP}x).\n\
         \nSparse GEMM sweep at the flux FFN shape (dense wall {dense_us:.1}us):\n\n"
    ));
    out.push_str(&sparse_table.render());
    out.push_str(&format!(
        "\nSparse gate: {:.2}x dense at {:.1}% mask (threshold {SPARSE_GATE_SPEEDUP}x, measured \
         wall). Both\nsides run the same row kernel, so a faster kernel build lowers this ratio \
         without\nthe sparse GEMM slowing: the AVX2 build speeds the dense reference more \
         than the\nsparse GEMM, whose template fill and B packing are memory traffic \
         (6.4x with the\nbaseline build).\n\nTranscendentals, beside bench-local f32::exp / f32::tanh loops (gate: \
         gelu >= {GELU_GATE_SPEEDUP}x,\nfull runs only; softmax reported, not gated):\n\n",
        at_10.speedup,
        at_10.ratio * 100.0,
    ));
    out.push_str(&transcendental_table.render());
    out.push_str(
        "\nAttention's softmax stage: softmax_rows above runs the baseline build on \
         every\nhost; the attention kernel runs the stage in the AVX2 build where the host has \
         one.\n\n",
    );
    out.push_str(&stage_table.render());
    out.push_str(&format!("\nHost: {cores} cores.\n"));
    println!("{out}");

    if !smoke {
        let kernels: Vec<Json> = rows
            .iter()
            .map(|r| {
                Json::object()
                    .with("config", r.config)
                    .with("kernel", r.kernel)
                    .with("serial_us", r.serial_us)
            })
            .collect();
        let sweep_json: Vec<Json> = sweep
            .iter()
            .map(|r| {
                Json::object()
                    .with("mask_ratio", r.ratio)
                    .with("active_rows", r.active)
                    .with("sparse_us", r.sparse_us)
                    .with("speedup_vs_dense", r.speedup)
                    .with("flops_frac", r.flops_frac)
                    .with("wall_frac", r.wall_frac)
            })
            .collect();
        let transcendentals_json: Vec<Json> = transcendentals
            .iter()
            .map(|r| {
                Json::object()
                    .with("kernel", r.kernel)
                    .with("rows", r.rows)
                    .with("cols", r.cols)
                    .with("ns_per_element", r.ns)
                    .with("libm_ns_per_element", r.libm_ns)
                    .with("speedup_vs_libm", r.libm_ns / r.ns)
            })
            .collect();
        let stage_json: Vec<Json> = stage
            .iter()
            .map(|r| {
                Json::object()
                    .with("pass", r.pass)
                    .with("keys", r.keys)
                    .with("build", r.build)
                    .with("ns_per_element", r.ns)
            })
            .collect();
        let json = Json::object()
            .with("bench", "kernels")
            .with("isa", isa())
            .with("host", Json::object().with("cores", cores))
            .with(
                "gate",
                Json::object()
                    .with("shape", "flux-like ffn_gemm [256x64]x[64x256]")
                    .with(
                        "baseline",
                        "matmul_naive (frozen pre-tiling kernel), one thread",
                    )
                    .with("mode", "measured-wall")
                    .with("naive_us", naive_us)
                    .with("tiled_us", tiled_us)
                    .with("speedup", speedup)
                    .with("threshold", GATE_SPEEDUP),
            )
            .with(
                "sparse",
                Json::object()
                    .with("shape", "flux-like ffn_gemm [256x64]x[64x256]")
                    .with("dense_us", dense_us)
                    .with("gate_speedup_at_10pct", at_10.speedup)
                    .with("gate_threshold", SPARSE_GATE_SPEEDUP)
                    .with("flops_tracking_limit", 2.0)
                    .with("sweep", Json::Array(sweep_json)),
            )
            .with(
                "transcendentals",
                Json::object()
                    .with("gelu_gate_threshold", GELU_GATE_SPEEDUP)
                    .with("rows", Json::Array(transcendentals_json)),
            )
            .with("attention_softmax_stage", Json::Array(stage_json))
            .with(
                "identity",
                Json::object().with("sparse_row_split_identical", true),
            )
            .with("kernels", Json::Array(kernels));
        std::fs::write("BENCH_kernels.json", json.to_string_pretty() + "\n")
            .expect("write BENCH_kernels.json");
        println!("[saved BENCH_kernels.json]");
        save_artifact("bench_kernels.txt", &out);
    }
}
