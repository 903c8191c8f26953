#!/usr/bin/env bash
# Tier-1 gate: configure, build, and run the test suite. This is the single
# entrypoint both local development and CI use (.github/workflows/ci.yml).
#
#   scripts/check.sh           # full suite
#   scripts/check.sh --quick   # build + the engine/observability subset only
#
# Honors CC/CXX for compiler selection and uses ccache transparently when
# it is on PATH (so CI cache hits and local builds share a mechanism).
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${BUILD_DIR:-${repo}/build}"

quick=0
for arg in "$@"; do
  case "${arg}" in
    --quick) quick=1 ;;
    *)
      echo "usage: $0 [--quick]" >&2
      exit 2
      ;;
  esac
done

cmake_args=()
if command -v ccache >/dev/null 2>&1; then
  cmake_args+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

cmake -B "${build}" -S "${repo}" "${cmake_args[@]}"
cmake --build "${build}" -j

jobs="$(nproc 2>/dev/null || echo 2)"
if [[ "${quick}" -eq 1 ]]; then
  # The fast representative subset: round engine and its dispatch contract,
  # its adjacency rows and the graph runs it hosts, torus arithmetic,
  # simulation runner, campaign engine, observability layer, lying
  # adversary, fault placement and the local-bound validator, the allocation
  # bounds, the ignore declarations, the pool slot-view equivalence, and the
  # counter schema's two readers (journal records, runtime verdict files).
  # (~10% of full-suite wall time.)
  ctest --test-dir "${build}" --output-on-failure -j "${jobs}" \
    -R '^(Network|Adjacency|GraphNetwork|GraphCpa|GraphRpa|GraphGolden|Separation|RadioGraph|TorusGraph|Torus|Simulation|ThreadPool|Campaign|Counters|RoundTrace|PhaseTimers|Lying|Placement|LocalBound|AllocFreeDelivery|IgnoreMask|PoolEquivalence|Journal|Verdict)'
else
  ctest --test-dir "${build}" --output-on-failure -j "${jobs}"
fi
