#!/usr/bin/env bash
# Runner of the repo benchmark (README.md in this directory).
#
#   bench/ledger/run.sh --seed N [--workload NAME] [--seconds S]
#                       [--trace [0|1]] [--out DIR]
#   bench/ledger/run.sh --smoke [--bin PATH]
#
# Builds bench_ledger in Release mode into build-ledger/ at the repo root,
# unless --bin names a built one. With --workload it runs that workload, and
# the last line it prints is the run's result JSON. Without --workload it
# runs all five, each in a fresh process, and prints every metric as
# "<workload> <metric> <value> <unit>". Each run also writes its result to
# DIR (default build-ledger/runs), where compare.py reads it.
#
# --smoke runs every workload at smoke size, untraced and traced, into a
# fresh smoke-runs/ next to the binary, checks those result files against
# BENCHMARK.json, then runs compare.py --selftest.
#
# Exits non-zero when the build, a run or a correctness oracle fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "${here}/../.." && pwd)"
workloads=(threshold-sweep heard-flood million-node lossy-retx runtime-deploy)

seed="" workload="" seconds=20 trace=0 out="" smoke=0 bin=""
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --workload) workload="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi ;;
    --out) out="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    --bin) bin="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

if [ -z "${bin}" ]; then
  if [ ! -f "${root}/src/CMakeLists.txt" ]; then
    echo "run.sh: no library sources under ${root}/src" >&2
    exit 2
  fi
  build="${root}/build-ledger"
  mkdir -p "${build}"
  jobs="$(nproc 2>/dev/null || echo 2)"
  [ "${jobs}" -gt 4 ] && jobs=4
  if ! { { [ -f "${build}/CMakeCache.txt" ] ||
           cmake -S "${here}" -B "${build}" -DCMAKE_BUILD_TYPE=Release; } &&
         cmake --build "${build}" --target bench_ledger -j "${jobs}"; \
       } > "${build}/build.log" 2>&1; then
    cat "${build}/build.log" >&2
    echo "run.sh: build failed" >&2
    exit 1
  fi
  bin="${build}/bench_ledger"
fi
if [ "${smoke}" = 1 ]; then
  # A fresh directory of its own, so smoke results never mix with real runs.
  out="$(dirname "${bin}")/smoke-runs"
  rm -rf "${out}"
  mkdir -p "${out}"
  for w in "${workloads[@]}"; do
    for t in 0 1; do
      "${bin}" --workload "${w}" --seed 1 --smoke --trace "${t}" \
        --out "${out}" > /dev/null
    done
  done
  python3 "${here}/compare.py" --check-runs "${out}"
  python3 "${here}/compare.py" --selftest
  exit 0
fi
out="${out:-$(dirname "${bin}")/runs}"
mkdir -p "${out}"

if [ -z "${seed}" ]; then
  echo "run.sh: --seed is required" >&2
  exit 2
fi
if [ -n "${workload}" ]; then
  exec "${bin}" --workload "${workload}" --seed "${seed}" \
    --seconds "${seconds}" --trace "${trace}" --out "${out}"
fi
status=0
for w in "${workloads[@]}"; do
  "${bin}" --workload "${w}" --seed "${seed}" --seconds "${seconds}" \
    --trace "${trace}" --out "${out}" | grep -v '^{' || status=1
done
exit "${status}"
