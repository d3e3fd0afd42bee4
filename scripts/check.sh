#!/usr/bin/env bash
# Tier-1 verification, five times:
#   1. the plain configuration (what CI and benchmarks use),
#   2. a Release (-O2 -DNDEBUG) configuration running the full suite —
#      the vectorized columnar kernels only show their real codegen with
#      optimization on, and the row/columnar differential suite must
#      hold there too — plus the benchmark (perfbench/, its own CMake
#      package over the same sources) built and run traced for one second
#      on each workload, so a library change that breaks it, or fails its
#      own replay, counter-repeat or self-time checks, shows here, and
#   3. an ASan+UBSan configuration with failpoints compiled in, so the
#      fault-injection stress tests actually run and every injected
#      failure path is checked for leaks and UB, and
#   4. a TSan configuration running the concurrent-processor, service and
#      value tests, so queries sharing one processor (plan cache, lazily
#      rebuilt views, column stores), the service layer's admission/retry
#      machinery and the process-wide string pool are race-checked, and
#   5. a chaos sweep: the seeded fault-injection harness re-run across
#      fixed seeds against the failpoints build, asserting every reply
#      under randomized faults is either the fault-free oracle answer or
#      a clean retryable error.
#
# Usage: scripts/check.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "== [1/5] plain build + tests =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== [2/5] Release (-O2 -DNDEBUG) build + tests, benchmark smoke run =="
cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-rel -j "$JOBS"
ctest --test-dir build-rel --output-on-failure -j "$JOBS"
cmake -S perfbench -B build-perfbench >/dev/null
cmake --build build-perfbench -j "$JOBS" --target perfbench_bin
for workload in suite-warm adhoc-cold service-mixed; do
  build-perfbench/perfbench_bin --workload "$workload" --seed 1 --seconds 1 \
    --trace 1
done

echo "== [3/5] sanitized build (address;undefined) + failpoints + tests =="
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DBRYQL_SANITIZE="address;undefined" \
  -DBRYQL_FAILPOINTS=ON >/dev/null
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "== [4/5] thread-sanitized build + concurrency/service tests =="
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DBRYQL_SANITIZE="thread" \
  -DBRYQL_FAILPOINTS=ON >/dev/null
cmake --build build-tsan -j "$JOBS"
# The concurrent-processor suite runs many queries at once through one
# processor; plan-cache and prepared-query tests cover the concurrent
# QueryProcessor paths; the service and chaos suites cover admission,
# retry and fault injection under 8-way client concurrency; the columnar
# differential suite runs the columnar scans; the value suite interns
# overlapping strings from 8 threads into the shared pool.
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
  -R 'concurrent|plan_cache|prepared|service|columnar_differential|value'

echo "== [5/5] chaos seed sweep (failpoints build) =="
cmake -B build-chaos -S . -DBRYQL_FAILPOINTS=ON >/dev/null
cmake --build build-chaos -j "$JOBS" --target chaos_service_test
# Each seed fully determines the fault schedule; a failing seed
# reproduces with BRYQL_CHAOS_SEED=<seed> ./build-chaos/tests/chaos_service_test
for seed in 7 42 1989 4242 24601 99991 123456789 987654321; do
  echo "-- chaos seed $seed --"
  BRYQL_CHAOS_SEED="$seed" ./build-chaos/tests/chaos_service_test
done

echo "All checks passed."
