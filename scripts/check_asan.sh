#!/usr/bin/env bash
# Builds the robustness-sensitive targets under AddressSanitizer +
# UndefinedBehaviorSanitizer and runs the serving tests plus the
# fixed-seed fuzz and chaos smokes, so memory errors on the degraded /
# fault-injected paths — and on cached answers shared across threads or
# outliving their canonical entry (EstimateOptDiff) — are caught
# mechanically. Part of the tier-2
# checks; run from the repository root:
#
#   scripts/check_asan.sh [extra ctest -R regex]
#
# Uses a dedicated build tree (build-asan) so the regular build stays
# sanitizer-free.
set -euo pipefail
cd "$(dirname "$0")/.."

FILTER="${1:-ServiceTest|EstimateOptDiff|SynopsisSalvage|FuzzHarness|fuzz_smoke|chaos_smoke|export_fuzz_smoke|prune_fuzz_smoke|ShadowSamplingTest|MaintenanceTest|LiveDocumentTest|LiveSynopsisTest|FlatDocument|AnalyzeSat|AnalyzeRewrite|ServiceIntel|FlightRecorderTest|TimeSeriesTest|SloEngineTest|ServiceFlightTest}"

cmake -B build-asan -S . -DXEE_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j"$(nproc)" \
  --target service_test serialize_test fuzz_test fuzz_driver \
  accuracy_shadow_test delta_test maintenance_test analyze_test \
  flight_test flat_document_test estimate_opt_diff_test
(cd build-asan && ctest -R "$FILTER" --output-on-failure)
echo "ASan/UBSan checks passed."
