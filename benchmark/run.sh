#!/usr/bin/env bash
# Builds the benchmark (release, offline, its own workspace) and runs it.
# All arguments go to the binary; see README.md or `--help`-less usage:
#   benchmark/run.sh                       every workload, end-to-end + per-layer
#   benchmark/run.sh --smoke               the same at a tenth of the run length
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
#   benchmark/run.sh repeat N --out A.json | compare A.json B.json
# Run from the repository root (BENCHMARK.json is read from the working directory).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
# One kernel thread per caller: the server workloads already keep both
# cores of the bench host busy with their two workers, and a third
# compute thread makes every number depend on the scheduler (README,
# "Threads"). Export FPS_POOL_THREADS yourself to measure another pool.
export FPS_POOL_THREADS="${FPS_POOL_THREADS:-1}"
exec "$target/release/fps-benchmark" "$@"
