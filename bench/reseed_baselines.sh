#!/usr/bin/env bash
# Re-seeds every committed bench baseline (bench/baselines/BENCH_*.json)
# from one build of this checkout, so all eight files share one git SHA and
# one config: RelWithDebInfo with obs compiled in (the bench-smoke CI job's
# build), five repetitions per benchmark (p50 and p95 over five samples).
#
#   bench/reseed_baselines.sh [build-dir]     # default: build-baselines
#
# The build directory is reused across runs. Run it on an otherwise idle
# machine: about fifteen minutes on 4 cores, most of it the benches
# themselves. Each file is stamped with the checkout's HEAD when the build
# is configured, with "-dirty" appended when the working tree changes
# CMakeLists.txt, src/ or bench/ (see bench/CMakeLists.txt).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${1:-${root}/build-baselines}"
# The benches the bench-smoke job runs and compares (.github/workflows/ci.yml).
benches=(
  bench_query
  bench_trim_store
  bench_fig9_dmi_overhead
  bench_metrics_contention
  bench_slo_overhead
  bench_profiler_overhead
  bench_concurrent_store
  bench_fig10_persistence
)

cmake -S "${root}" -B "${build}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSLIM_ENABLE_OBS=ON -DSLIM_SANITIZE=
cmake --build "${build}" -j "$(nproc)" --target "${benches[@]}"

export SLIM_BENCH_JSON_DIR="${root}/bench/baselines"
for bench in "${benches[@]}"; do
  echo "== ${bench}" >&2
  "${build}/bench/${bench}" --benchmark_repetitions=5
done
ls -l "${SLIM_BENCH_JSON_DIR}"
