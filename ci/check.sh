#!/usr/bin/env bash
# Tier-1 verify: configure, build every target (library, tests, benches,
# examples), run the test suite. CI and local pre-push both run exactly this,
# so the README's build instructions can never rot.
#
# Usage: ci/check.sh [--sanitize] [--release] [--no-perf] [--fuzz] [build-dir]
#   --sanitize   Debug build with ASan+UBSan (-DPIER_SANITIZE=address;undefined)
#                — the job that keeps the ownership-heavy dataflow runtime
#                (query/ops/, query/exchange.*) memory-clean on every PR.
#                Skips the perf smoke (sanitized timings are meaningless).
#   --release    Full-optimization lane (-DCMAKE_BUILD_TYPE=Release, no
#                asserts): catches NDEBUG-only breakage — side effects in
#                assert(), UB the optimizer exploits — that the default
#                RelWithDebInfo build hides.
#   --no-perf    Skip the perf-smoke step (bench_sim_core + bench_table1 +
#                bench_range_scan + bench_multiway_join +
#                bench_exec_vectorized + bench_query_storm +
#                bench_join_strategies + bench_dissemination +
#                bench_recursive + bench_aggregation_tree with --json,
#                merged into BENCH_PR10.json). The smoke fails only on a
#                bench self-check mismatch (all deterministic), the vectorized
#                bench's >=5x speedup gate, or the join-strategy bench's
#                >=5x traffic-reduction gate, never on raw timing.
#   --fuzz       Also run the extended fault-injection fuzz lane: configures
#                with -DPIER_FUZZ_LANE=ON and runs `ctest -L fuzz`
#                (PIER_FUZZ_ITERS scenarios, default 60). Failing seeds +
#                minimized fault scripts land in <build-dir>/fuzz-failures/.
#   build-dir    defaults to "build" ("build-asan" under --sanitize)
#
# The default lane (neither --sanitize nor --release) also builds the
# benchmark package (perfbench/) into <build-dir>/perfbench and runs its
# pierbench_determinism test.
#
# Test selection is label-based (see docs/testing.md):
#   tier1  every correctness suite (the default lane here)
#   slow   the multi-node end-to-end suites (skip locally with -LE slow)
#   fuzz   the long randomized-scenario lane (opt-in via --fuzz)

set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZE=0
RELEASE=0
PERF=1
FUZZ=0
while [[ "${1:-}" == --* ]]; do
  case "$1" in
    --sanitize) SANITIZE=1; PERF=0 ;;
    --release)  RELEASE=1 ;;
    --no-perf)  PERF=0 ;;
    --fuzz)     FUZZ=1 ;;
    *) echo "unknown flag: $1" >&2; exit 2 ;;
  esac
  shift
done

if [[ $SANITIZE -eq 1 ]]; then
  BUILD_DIR="${1:-build-asan}"
  EXTRA_CMAKE_ARGS=(-DCMAKE_BUILD_TYPE=Debug "-DPIER_SANITIZE=address;undefined")
elif [[ $RELEASE -eq 1 ]]; then
  BUILD_DIR="${1:-build-release}"
  EXTRA_CMAKE_ARGS=(-DCMAKE_BUILD_TYPE=Release)
else
  BUILD_DIR="${1:-build}"
  EXTRA_CMAKE_ARGS=()
fi
if [[ $FUZZ -eq 1 ]]; then
  EXTRA_CMAKE_ARGS+=(-DPIER_FUZZ_LANE=ON)
fi
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "== configure (${BUILD_DIR}) =="
cmake -B "$BUILD_DIR" -S . -DPIER_WERROR=ON ${EXTRA_CMAKE_ARGS[@]+"${EXTRA_CMAKE_ARGS[@]}"}

echo "== build (all targets: pier, tests, benches, examples) =="
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== ctest (tier1) =="
# The tier-1 lane must stay the fixed fast smoke: fuzz knobs exported for
# the fuzz lane below (CI sets them job-wide) must not leak into it.
# --no-tests=error: a labeling regression must fail loudly, not select
# zero tests and report green.
(cd "$BUILD_DIR" && env -u PIER_FUZZ_ITERS -u PIER_FUZZ_SEED \
    ctest -L tier1 --no-tests=error --output-on-failure -j "$JOBS")

if [[ $SANITIZE -eq 0 && $RELEASE -eq 0 ]]; then
  # The benchmark package (perfbench/) links the library and reads its stats
  # fields, so a refactor under src/ can break it without touching it. Build
  # it from this tree and run its determinism test.
  echo "== perfbench (build + determinism test) =="
  cmake -S perfbench -B "$BUILD_DIR/perfbench" -DPIER_WERROR=ON
  cmake --build "$BUILD_DIR/perfbench" -j "$JOBS" \
      --target pierbench pierbench_test
  (cd "$BUILD_DIR/perfbench" && \
      ctest -R '^pierbench_determinism$' --no-tests=error --output-on-failure)
fi

if [[ $FUZZ -eq 1 ]]; then
  # The long randomized-scenario lane. PIER_FUZZ_ITERS is inherited by the
  # test binary; failing seeds and minimized fault scripts are written to
  # fuzz-failures/ inside the build dir for CI artifact upload.
  echo "== ctest (fuzz lane, PIER_FUZZ_ITERS=${PIER_FUZZ_ITERS:-60}) =="
  (cd "$BUILD_DIR" && PIER_FUZZ_ITERS="${PIER_FUZZ_ITERS:-60}" \
      ctest -L fuzz --no-tests=error --output-on-failure)
fi

if [[ $PERF -eq 1 ]]; then
  # Perf smoke: refresh the machine-readable perf trajectory. Exit codes
  # carry only the benches' self-checks (10/10 Table 1 rows, exact event
  # counts, and bench_range_scan's deterministic virtual-time contract:
  # exact rows on both access paths, index touching < 25% of nodes while
  # the scan touches all of them, both answers closing well inside the
  # result window, a 1% index answer under the broadcast scan's at 64 and
  # 256 nodes, a 10% index answer under 2.0 s at 64 and 256 nodes);
  # wall-clock numbers are recorded, never gated on.
  echo "== perf smoke (BENCH_PR10.json) =="
  "$BUILD_DIR/bench_sim_core" --json=BENCH_PR10.json
  "$BUILD_DIR/bench_table1_top_intrusions" --json=BENCH_PR10.json | tail -4
  # Same Table 1 query under 20% link loss: records what the reliable
  # result plane paid (retransmit frames/bytes) and what the Completeness
  # summary admits about coverage. Non-gating on the 10/10 match — under
  # loss the contract is honesty, not telepathy.
  "$BUILD_DIR/bench_table1_top_intrusions" --lossy --json=BENCH_PR10.json | tail -6
  "$BUILD_DIR/bench_range_scan" --json=BENCH_PR10.json | tail -3
  "$BUILD_DIR/bench_multiway_join" --json=BENCH_PR10.json | tail -3
  # Self-check: the batch plane must hold its >=5x rows/s edge over the
  # tuple plane (deterministic row counts; the ratio gate rides wall-clock
  # but is interleaved best-of-N, far from the 5x line on any idle box).
  "$BUILD_DIR/bench_exec_vectorized" --json=BENCH_PR10.json | tail -3
  # The multi-tenant storm: 1000 mixed index/scan/join queries over 256
  # nodes. Gates on exact answers for every query, zero admission refusals
  # or budget trips at the raised budgets, the scheduler's sweep sharing
  # actually engaging (store sweeps < scan tasks), one broadcast wave per
  # disseminated query (broadcasts = scans + joins + index fallbacks), and
  # a mean index-scan critical path of at most 2.5 DHT round trips.
  "$BUILD_DIR/bench_query_storm" --json=BENCH_PR10.json | tail -4
  # Join-strategy ablation + planner selection. Gates on every strategy
  # returning the exact join answer and on the stats-driven planner choice
  # cutting query-plane bytes >=5x versus the stats-blind symmetric-hash
  # plan for the same low-match workload (deterministic virtual time).
  "$BUILD_DIR/bench_join_strategies" --json=BENCH_PR10.json | tail -6
  # Dissemination trees at 16..512 nodes plus a 200-broadcast burst over
  # 256 nodes (the dedupe table under load). Gates on every broadcast
  # reaching every node; deliveries per wall-second are recorded only.
  "$BUILD_DIR/bench_dissemination" --json=BENCH_PR10.json | tail -4
  # The algebraic-API shapes the oracle does not score. Recursion gates on
  # every transitive closure (8..48 vertices) matching the exact one;
  # aggregation gates on both strategies counting every node at every size
  # and on the tree cutting the origin's fan-in below direct at 256 nodes.
  "$BUILD_DIR/bench_recursive" --json=BENCH_PR10.json | tail -2
  "$BUILD_DIR/bench_aggregation_tree" --json=BENCH_PR10.json | tail -2
fi

echo "== OK =="
