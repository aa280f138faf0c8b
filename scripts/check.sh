#!/usr/bin/env sh
# Full local gate: everything CI would run, in the order that fails
# fastest. Run from the repository root before pushing.
set -eu

cd "$(dirname "$0")/.."

echo "==> kernel ISA rules (no fma / avx512 target features, no intrinsics in fps-tensor)"
# fps-tensor compiles its hot row kernels twice, for the baseline and
# for AVX2 (pool::with_wide_isa), and both builds must produce the same
# bits. That holds only while no build may fuse a multiply-add or pick a
# different vector width than the source's 8-lane reductions, and while
# the kernels stay plain Rust that LLVM vectorises (clippy.toml bans
# mul_add in fps-tensor).
if grep -rnE 'target_feature *\( *enable *= *"[^"]*(fma|avx512)' crates/; then
    echo "error: a target_feature above enables fma or avx512*" >&2
    exit 1
fi
if grep -rnE 'core::arch|std::arch::(x86|x86_64|aarch64|arm)\b' crates/tensor/; then
    echo "error: fps-tensor imports architecture intrinsics (above)" >&2
    exit 1
fi

echo "==> unsafe only in fps-tensor's pool.rs (with_wide_isa's call into the AVX2 build)"
# Kernels run on the calling thread and share nothing across threads,
# so the one operation safe Rust has no form for is calling a function
# compiled for a CPU feature the runtime check just found. Comment lines
# are skipped; any other line under crates/ that says `unsafe` fails.
if grep -rnw --include='*.rs' unsafe crates/ | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' \
    | grep -v '^crates/tensor/src/pool.rs:'; then
    echo "error: unsafe above, outside crates/tensor/src/pool.rs" >&2
    exit 1
fi

echo "==> one percentile (fn percentile is defined only in fps-metrics)"
# fps_metrics::percentile is the nearest-rank percentile of raw samples
# and Histogram::percentile the estimate over pooled counts; a third
# definition elsewhere would let two reports disagree on one p95.
if grep -rnE '\bfn percentile\b' crates/ | grep -v '^crates/metrics/'; then
    echo "error: a percentile above is defined outside fps-metrics" >&2
    exit 1
fi

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo build --release (benchmark/, its own workspace)"
# The workspace build above never compiles benchmark/, so an API it
# needs could be deleted with every step green until the last one.
# Built here, the benchmark/run.sh --smoke step below finds it built.
cargo build --release --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo test --release (benchmark/ unit tests: generator, percentile, compare, schema)"
# The workspace test run below never reaches benchmark/ either.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo test --workspace -q (in a fresh TMPDIR; no spill directory may survive)"
# FlashPs streams evicted template caches into a private
# flashps-spill-* directory under the temp dir and deletes it when the
# system drops. Spill directories must not leak: every test's systems
# are dropped by the end of the run, so one left behind is a leak.
spill_tmp="$(mktemp -d)"
TMPDIR="$spill_tmp" cargo test --workspace -q
leaked="$(find "$spill_tmp" -maxdepth 1 -name 'flashps-spill-*')"
rm -rf "$spill_tmp"
if [ -n "$leaked" ]; then
    echo "error: spill directories survived the test run:" >&2
    echo "$leaked" >&2
    exit 1
fi

echo "==> fps-tensor tests in release (AVX2 build vs baseline build, bitwise)"
# Unoptimised, both builds are the same scalar code; the differential
# tests only compare two vectorised builds when compiled with -O.
cargo test --release -q -p fps-tensor

echo "==> fps-diffusion tests in release (frozen whole-edit fingerprints included)"
# The benchmark serves the optimised build, where the kernels' register
# tiles and AVX2 build are what actually runs; the workspace tests above
# run unoptimised. The fingerprints pin whole-edit bits, and the
# gathered-chain tests pin the masked-row path against the scattered
# one, so both must hold in the build that is served, not only in the
# debug one.
cargo test --release -q -p fps-diffusion

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo doc --workspace --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> trace_bubbles --smoke"
cargo run --release -p fps-bench --bin trace_bubbles -- --smoke > /dev/null

echo "==> bench_kernels --smoke (measured tiled/sparse gates)"
# Times every hot kernel on the calling thread, asserts the sparse
# GEMM's row-split contract and that attention over pre-packed panels is
# bitwise a per-call pack, then runs the measured-wall gates: tiled GEMM
# >= 1.3x matmul_naive and sparse GEMM >= 3x dense at a 10% mask.
cargo run --release -p fps-bench --bin bench_kernels -- --smoke > /dev/null

echo "==> bench_routing --smoke"
cargo run --release -p fps-bench --bin bench_routing -- --smoke > /dev/null

echo "==> bench_simtime --smoke (calendar >= 3x heap gate)"
cargo run --release -p fps-bench --bin bench_simtime -- --smoke > /dev/null

echo "==> server lifecycle + sim-vs-server decision parity (release)"
# Shutdown races and deadline lapses are timing bugs: two of them passed
# the debug-only run above and lost tickets at release speed.
# Two invocations: a name filter applies to every target selected, so
# `server::` beside the `--test` targets would run none of their tests.
cargo test --release -q -p flashps --lib server:: > /dev/null
cargo test --release -q -p flashps --test integration_stages --test integration_control > /dev/null

echo "==> benchmark/run.sh --smoke (BENCHMARK.json schema + output checks, ~1 min)"
# Every workload at a tenth of the run length: each metric BENCHMARK.json
# names is printed once with its unit, and every served edit is
# byte-checked. A schema and correctness check, not a measurement.
benchmark/run.sh --smoke > /dev/null

echo "==> seeded artifacts replay byte-identically (~18 s)"
# Every virtual-time bench, and fig3's mask-ratio sampler, is seeded and
# deterministic, so a rerun must reproduce its committed results/ files
# to the byte. A refactor that moves one number fails here; a deliberate
# change commits the new files. The full runs also assert each bin's own gates: the affinity
# and chaos-recovery wins, the stage-graph disaggregation win, the
# placement legacy fingerprint and the feedback-routing fetch-p95 win.
# fig13_examples, table2_quality and ablation_kv_cache run real edits:
# they pin the outputs of every serving strategy, including the
# masked-only and naive paths the frozen fingerprints do not cover
# (fig13's PPMs are the diffusers, fisedit, naive, teacache, flashps
# and flashps-kv images). fig14_throughput, fig11_regression and
# table1_flops pin the cost model and the Algorithm 1 plans it feeds;
# fig6_similarity and ablation_storage pin the seeded activation
# similarity and the storage tiers.
for bin in fig16_fleet fig_chaos_fleet fig_cache_placement fig_stagegraph \
    fig16_balance fig16_batching fig4_motivation ablation_cb_baselines fig9_pipeline \
    fig3_mask_dist fig13_examples table2_quality ablation_kv_cache \
    fig14_throughput ablation_storage fig11_regression fig6_similarity table1_flops; do
    cargo run --release -q -p fps-bench --bin "$bin" > /dev/null
done
cargo run --release -q -p fps-bench --bin fig12_e2e -- --quick > /dev/null
git diff --exit-code -- \
    results/fig16_fleet.txt results/fig16_fleet.json \
    results/fig_chaos_fleet.txt results/fig_chaos_fleet.json \
    results/fig_cache_placement.txt results/fig_cache_placement.json \
    results/fig_stagegraph.txt results/fig_stagegraph.json \
    results/fig16_balance.txt results/fig16_batching.txt \
    results/fig4_motivation.txt results/ablation_cb_baselines.txt \
    results/fig9_pipeline.txt results/fig3_mask_dist.txt \
    results/fig12_e2e.txt results/fig12_e2e.json \
    results/fig13_examples.txt results/fig13_*.ppm \
    results/table2_quality.txt results/ablation_kv_cache.txt \
    results/fig14_throughput.txt results/ablation_storage.txt \
    results/fig11_regression.txt results/fig6_similarity.txt \
    results/table1_flops.txt

echo "All checks passed."
