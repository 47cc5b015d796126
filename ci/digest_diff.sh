#!/usr/bin/env bash
# Digest diff: checks that the working tree simulates exactly what <git-ref>
# simulates.
#
# Usage: ci/digest_diff.sh <git-ref>
#
# Extracts <git-ref> into a temporary source tree (git archive, so the
# repository gains no worktree metadata) and builds the benchmark from it and
# from the working tree, each into its own CARGO_TARGET_DIR. Then runs
#
#   python3 perfbench/run.py --workload W --seed S --seconds 40 --trace 0
#
# for W in storm, serial, table1, monitor_lossy and S in 1, 5 on both trees,
# and diffs the per-round `digest` lines (sim::Network::trace_digest, a pure
# function of seed and round). Exits non-zero on any difference, and on any
# run that fails or prints no digest. A refactor that claims equal simulated
# behaviour must pass this against its parent commit.
#
# On a difference it prints, for that (workload, seed), both trees'
# `answers`, `[virt] answer p50` and `[virt] wire` lines one above the
# other: a change that moves bytes but not behaviour changes digests, and
# these lines show whether its answers and virtual latency held.
#
# Opt-in: the default ci/check.sh lane does not run it (16 benchmark runs
# plus two builds take about 15 minutes on 4 cores). Runs are sequential to
# keep memory small. TMPDIR chooses where the temporary trees and builds go.
# They are deleted when every digest matches; on a failed run or a difference
# they are kept (reports, digests, builds) and their path is printed.

set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
  echo "usage: ci/digest_diff.sh <git-ref>" >&2
  exit 2
fi
REF="$1"
ROOT="$(pwd)"
git rev-parse --verify --quiet "${REF}^{commit}" >/dev/null || {
  echo "digest_diff: not a commit: $REF" >&2
  exit 2
}

WORK="$(mktemp -d "${TMPDIR:-/tmp}/digest_diff.XXXXXX")"
# Any exit but the all-match one below keeps $WORK for inspection.
trap 'echo "digest_diff: kept $WORK for inspection" >&2' EXIT
mkdir -p "$WORK/base" "$WORK/out"
git archive "$REF" | tar -x -C "$WORK/base"

WORKLOADS=(storm serial table1 monitor_lossy)
SEEDS=(1 5)

# run_tree <label> <source root>: every (workload, seed) run of one tree.
run_tree() {
  local label="$1" tree="$2"
  local target="$WORK/build-$label"
  for w in "${WORKLOADS[@]}"; do
    for s in "${SEEDS[@]}"; do
      local report="$WORK/out/$label-$w-$s.txt"
      echo "== $label: $w seed $s =="
      if ! (cd "$tree" && CARGO_TARGET_DIR="$target" \
              python3 perfbench/run.py --workload "$w" --seed "$s" \
              --seconds 40 --trace 0) >"$report" 2>&1; then
        echo "digest_diff: $label $w seed $s failed (see $report)" >&2
        tail -5 "$report" >&2
        return 1
      fi
      # Keep only the round number and its digest: the rest of the line
      # carries wall-clock times.
      sed -n 's/^round \([0-9]*\):.*digest \([0-9a-f]*\)$/round \1 digest \2/p' \
        "$report" >"$WORK/out/$label-$w-$s.digest"
      if [[ ! -s "$WORK/out/$label-$w-$s.digest" ]]; then
        echo "digest_diff: $label $w seed $s printed no digest" >&2
        return 1
      fi
    done
  done
}

run_tree base "$WORK/base"
run_tree head "$ROOT"

# side_by_side <workload> <seed>: each summary line of the base run above
# the same line of the head run.
side_by_side() {
  local pat label line
  for pat in '^  answers ' '^  \[virt\] answer p50 ' '^  \[virt\] wire '; do
    for label in base head; do
      line="$(grep -m1 -E "$pat" "$WORK/out/$label-$1-$2.txt" || true)"
      printf '  %-4s %s\n' "$label" "${line#  }"
    done
  done
}

status=0
for w in "${WORKLOADS[@]}"; do
  for s in "${SEEDS[@]}"; do
    if diff -u "$WORK/out/base-$w-$s.digest" "$WORK/out/head-$w-$s.digest"; then
      echo "same: $w seed $s ($(wc -l <"$WORK/out/head-$w-$s.digest") rounds)"
    else
      echo "DIFFERENT: $w seed $s"
      side_by_side "$w" "$s"
      status=1
    fi
  done
done
if [[ $status -eq 0 ]]; then
  trap - EXIT
  rm -rf "$WORK"
  echo "digest_diff: every digest matches $REF"
else
  echo "digest_diff: digests differ from $REF" >&2
fi
exit $status
