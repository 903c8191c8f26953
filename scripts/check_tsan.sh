#!/usr/bin/env bash
# Race-check the concurrent machinery under ThreadSanitizer: the campaign
# thread pool (multi-worker determinism), the perfect-link / chaos transport
# stack, the round synchronizer's timeout/suspect paths that the chaos layer
# leans on, and the threaded deployments, which all wait through epoll or
# SwarmHub condvars. Any data race aborts the run with a nonzero exit.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${repo}/build-tsan"

cmake -B "${build}" -S "${repo}" -DRADIOBCAST_SANITIZE=thread >/dev/null
cmake --build "${build}" --target \
  test_campaign test_experiment test_perfect_link test_round_sync \
  test_event_loop test_runtime_equivalence test_runtime_chaos \
  test_cache_concurrency -j >/dev/null

TSAN_OPTIONS="halt_on_error=1" "${build}/tests/test_campaign"
TSAN_OPTIONS="halt_on_error=1" "${build}/tests/test_experiment" \
  --gtest_filter='Aggregate.*:RunRepeated.*'
# Link + synchronizer: covers ChaosTransport's drop/dup/delay paths over
# SwarmHub mailboxes and the multi-threaded slow-node progress test (real
# sockets, one thread per node) that exercises timeout-opened barriers and
# suspicion.
TSAN_OPTIONS="halt_on_error=1" "${build}/tests/test_perfect_link"
TSAN_OPTIONS="halt_on_error=1" "${build}/tests/test_round_sync"
# Event-loop machinery: SwarmHub mailbox handoff across threads, epoll
# wakeups, and the shared-socket barrier soaks (many nodes, one fd).
TSAN_OPTIONS="halt_on_error=1" "${build}/tests/test_event_loop"
# Threaded deployments: the sim-vs-runtime equivalence matrix over per-node
# UDP sockets and one SwarmHub socket, and the chaos/crash/restart runs.
TSAN_OPTIONS="halt_on_error=1" "${build}/tests/test_runtime_equivalence"
TSAN_OPTIONS="halt_on_error=1" "${build}/tests/test_runtime_chaos"
# Process-wide geometry caches (Adjacency::get, CenterTable::get): 8-thread
# concurrent first-access hammer on same-key and distinct-key patterns.
TSAN_OPTIONS="halt_on_error=1" "${build}/tests/test_cache_concurrency"

echo "TSan concurrency check passed"
