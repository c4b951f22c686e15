#!/usr/bin/env bash
# The full pre-merge battery, in increasing order of cost:
#
#   1. tier-1 build + ctest (unit, accuracy, smoke, live, intel, flight
#      labels — includes the answer-cache differential suite
#      (estimate_opt_diff_test: served bits == Estimator::Estimate), the live-
#      document maintenance suite, the flight-data observability suite
#      (time-series store, SLO burn-rate engine, flight recorder,
#      tail-based trace retention), and the query-intelligence suite:
#      analyze_test pins the prune/rewrite soundness contracts against
#      exact counts and bitwise differentials, prune_fuzz_smoke runs
#      the 30k-iteration prune-soundness oracle)
#   2. quality slice: the accuracy-observability suite (shadow-sampling
#      correctness, drift detection, export schema + export fuzz;
#      ctest label `quality`)
#   3. ThreadSanitizer slice   (scripts/check_tsan.sh)
#   4. ASan/UBSan slice        (scripts/check_asan.sh)
#
# The fuzz, chaos, and simulator smokes run inside step 1 via their
# ctest entries (label `smoke`; simulate_smoke runs every scenario
# family — live_update_churn and the intel_alias_storm on/off pair
# included — time-scaled and fails on any drain-invariant violation),
# and the fuzz/chaos/prune smokes plus the live maintenance, analyzer
# and answer-cache differential tests run again under ASan in step 4;
# the TSan slice (which carries the differential suite too) also
# drives simulator scenarios in concurrent mode: the live-churn
# scenario with rebuilds racing traffic, and the analyzer alias storm
# with shared pruned/rewritten answers probed across a worker pool. Run from the
# repository root:
#
#   scripts/check_all.sh            # everything
#   scripts/check_all.sh --fast     # tier-1 only, skip the sanitizers
#
# Exits non-zero on the first failing stage.
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
if [[ "${1:-}" == "--fast" ]]; then fast=1; fi

echo "== [1/4] tier-1 build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j"$(nproc)"
(cd build && ctest -LE quality --output-on-failure)

echo "== [2/4] quality slice (accuracy observability) =="
(cd build && ctest -L quality --output-on-failure)

if [[ "$fast" == "1" ]]; then
  echo "check_all: tier-1 passed (sanitizers skipped with --fast)."
  exit 0
fi

echo "== [3/4] ThreadSanitizer slice =="
scripts/check_tsan.sh

echo "== [4/4] ASan/UBSan slice =="
scripts/check_asan.sh

echo "check_all: all stages passed."
