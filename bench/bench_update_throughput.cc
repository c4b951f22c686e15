// Update throughput: what incremental synopsis maintenance buys over
// the rebuild-from-scratch alternatives, and what background rebuilds
// cost the estimate path. Four phases per dataset, one JSON row each:
//
//   {"bench":"update_throughput","dataset":"dblp","mode":"incremental",
//    "deltas":...,"seconds":...,"deltas_per_sec":...}
//
//   - incremental: clone-insert deltas through the full serving path
//     (service ApplyDelta: resolve + patch + epoch publish), the
//     workload the delta module exists for;
//   - rebuild_per_delta: the same delta stream where every batch pays a
//     full Synopsis::Build over the materialized document — the cost of
//     having no incremental maintenance at all;
//   - poshist_rebuild: the position-histogram baseline's only option:
//     any insert shifts every start/end label, so each delta is a full
//     PositionHistogramEstimator::Rebuild;
//   - a "speedup" row dividing incremental by rebuild_per_delta (the
//     acceptance floor is 10x).
//
// An "update_estimate_latency" row then holds the estimate path against
// maintenance: per-query latency quantiles in steady state vs. with
// background rebuilds continuously in flight (rebuild.slow armed so a
// rebuild is always overlapping traffic). The p99 ratio is the
// "estimates never block on maintenance" claim in one number.
//
// Flags: the shared bench flags (--scale, --queries, --seed, --dataset).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util/runner.h"
#include "common/fault.h"
#include "common/rng.h"
#include "delta/document_delta.h"
#include "estimator/synopsis.h"
#include "poshist/position_histogram.h"
#include "service/maintenance.h"
#include "service/service.h"
#include "workload/workload.h"

namespace xee {
namespace {

// Clone-insert op against the live shape for the direct (service-less)
// baselines: delta::CloneSubtreeOp at a random preorder rank, the same
// op MaintenanceManager::CloneOp builds. Rejects ranks whose
// subtree exceeds `max_nodes` so one root-adjacent draw cannot double
// the document; retries a few draws before accepting whatever came up.
delta::DeltaOp MakeCloneOp(const delta::LiveDocument& live, Rng& rng,
                           size_t max_nodes) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    const uint32_t rank[] = {static_cast<uint32_t>(
        rng.UniformInt(1, static_cast<uint64_t>(live.live_nodes() - 1)))};
    if (attempt < 7 &&
        live.CollectSubtree(live.NodesAtRanks(rank)[0]).size() > max_nodes) {
      continue;
    }
    return delta::CloneSubtreeOp(live, rank[0]);
  }
  return {};
}

// Applies one already-resolved clone op directly to a LiveDocument (the
// baselines maintain no synopsis state, so there is no Apply to call).
void ApplyDirect(delta::LiveDocument& live, const delta::DeltaOp& op) {
  delta::DocumentDelta d;
  d.ops.push_back(op);
  auto targets = live.ResolveTargets(d);
  if (targets.ok()) live.InsertSubtree(targets.value()[0], op.subtree);
}

void EmitThroughputRow(const std::string& dataset, const char* mode,
                       size_t deltas, double seconds, size_t end_nodes) {
  std::printf(
      "{\"bench\":\"update_throughput\",\"dataset\":\"%s\",\"mode\":\"%s\","
      "\"deltas\":%zu,\"seconds\":%.6f,\"deltas_per_sec\":%.1f,"
      "\"end_nodes\":%zu}\n",
      dataset.c_str(), mode, deltas, seconds,
      seconds > 0 ? static_cast<double>(deltas) / seconds : 0.0, end_nodes);
}

struct LatencyQuantiles {
  double p50_us = 0;
  double p99_us = 0;
};

LatencyQuantiles Quantiles(std::vector<uint64_t> ns) {
  LatencyQuantiles q;
  if (ns.empty()) return q;
  std::sort(ns.begin(), ns.end());
  q.p50_us = static_cast<double>(ns[ns.size() / 2]) / 1e3;
  q.p99_us = static_cast<double>(ns[ns.size() * 99 / 100]) / 1e3;
  return q;
}

std::vector<std::string> LatencyQueries(const workload::Workload& wl) {
  std::vector<std::string> out;
  for (const auto& wq : wl.simple) out.push_back(wq.query.ToString());
  for (const auto& wq : wl.branch) out.push_back(wq.query.ToString());
  if (out.size() > 64) out.resize(64);
  return out;
}

void RunDataset(bench_util::DatasetRun& run, const bench_util::BenchConfig& config) {
  // The generated document is minted into pristine copies via
  // Materialize() — xml::Document is move-only, and every phase needs
  // its own.
  delta::LiveDocument source(std::move(run.doc));
  const workload::Workload wl = bench_util::MakeWorkload(source.doc(), config);
  const estimator::SynopsisOptions build;

  constexpr size_t kIncrementalDeltas = 256;
  constexpr size_t kRebuildDeltas = 24;
  constexpr size_t kCloneCap = 48;

  // --- incremental: the serving path (patch + epoch publish). The
  // truth attachment is off to match the baselines — live_truth
  // materializes a full document copy per publish for shadow auditing,
  // which is the audit's cost, not the patch path's (the
  // "incremental_audited" row below prices it separately). ------------
  double incr_per_sec = 0;
  for (const bool audited : {false, true}) {
    service::ServiceOptions opt;
    opt.threads = 1;
    opt.accuracy_sample = 0;
    opt.live_truth = audited;
    opt.patch_error_budget = 1.0;  // pure patch throughput, no rebuilds
    service::EstimationService svc(opt);
    svc.RegisterLive(run.name, source.Materialize(), build);
    Rng rng(config.seed ^ 0x5eed01);
    size_t applied = 0;
    double secs = 0;
    // Only the maintenance call is timed: op synthesis (CloneOp's
    // rank walk) is this bench's traffic generator, not work the
    // delta module does for real callers — they arrive with deltas.
    for (size_t i = 0; i < kIncrementalDeltas; ++i) {
      const size_t nodes = svc.maintenance().LiveNodeCount(run.name);
      auto op = svc.maintenance().CloneOp(
          run.name, static_cast<uint32_t>(rng.UniformInt(1, nodes - 1)));
      if (!op.ok()) continue;
      delta::DocumentDelta d;
      d.ops.push_back(std::move(op).value());
      secs += bench_util::TimeSeconds([&] {
        if (svc.ApplyDelta(run.name, d).ok()) ++applied;
      });
    }
    if (!audited) {
      incr_per_sec = secs > 0 ? static_cast<double>(applied) / secs : 0;
    }
    EmitThroughputRow(run.name, audited ? "incremental_audited" : "incremental",
                      applied, secs,
                      svc.maintenance().LiveNodeCount(run.name));
  }

  // --- rebuild_per_delta: no maintenance, full build per batch. ------
  double rebuild_per_sec = 0;
  {
    delta::LiveDocument live(source.Materialize());
    Rng rng(config.seed ^ 0x5eed02);
    double secs = 0;
    for (size_t i = 0; i < kRebuildDeltas; ++i) {
      ApplyDirect(live, MakeCloneOp(live, rng, kCloneCap));
      secs += bench_util::TimeSeconds([&] {
        const xml::Document mat = live.Materialize();
        (void)estimator::Synopsis::Build(mat, build);
      });
    }
    rebuild_per_sec =
        secs > 0 ? static_cast<double>(kRebuildDeltas) / secs : 0;
    EmitThroughputRow(run.name, "rebuild_per_delta", kRebuildDeltas, secs,
                      live.live_nodes());
  }

  // --- poshist_rebuild: the related-work baseline's full refresh. ----
  {
    delta::LiveDocument live(source.Materialize());
    poshist::PositionHistogramEstimator pos =
        poshist::PositionHistogramEstimator::Build(live.doc());
    Rng rng(config.seed ^ 0x5eed03);
    double secs = 0;
    for (size_t i = 0; i < kRebuildDeltas; ++i) {
      ApplyDirect(live, MakeCloneOp(live, rng, kCloneCap));
      secs += bench_util::TimeSeconds([&] {
        const xml::Document mat = live.Materialize();
        pos.Rebuild(mat);
      });
    }
    EmitThroughputRow(run.name, "poshist_rebuild", kRebuildDeltas, secs,
                      live.live_nodes());
  }

  std::printf(
      "{\"bench\":\"update_throughput\",\"dataset\":\"%s\",\"mode\":"
      "\"speedup\",\"incremental_per_sec\":%.1f,\"rebuild_per_sec\":%.1f,"
      "\"speedup\":%.1f}\n",
      run.name.c_str(), incr_per_sec, rebuild_per_sec,
      rebuild_per_sec > 0 ? incr_per_sec / rebuild_per_sec : 0.0);

  // --- estimate latency: steady state vs. rebuild continuously in
  // flight. rebuild.slow stretches each rebuild (worker sleeps, not
  // spins) so traffic genuinely overlaps the rebuild pipeline instead
  // of racing through between publishes. ------------------------------
  {
    service::ServiceOptions opt;
    opt.threads = 2;
    opt.accuracy_sample = 0;
    opt.trace_sample = 0;  // this bench times externally
    service::EstimationService svc(opt);
    svc.RegisterLive(run.name, source.Materialize(), build);
    const std::vector<std::string> queries = LatencyQueries(wl);
    if (queries.empty()) return;

    auto measure = [&](bool churn) {
      std::vector<uint64_t> ns;
      constexpr size_t kRounds = 30;
      ns.reserve(kRounds * queries.size());
      for (size_t r = 0; r < kRounds; ++r) {
        if (churn && r % 2 == 0) svc.ScheduleRebuild(run.name, "manual");
        for (const std::string& q : queries) {
          const auto t0 = std::chrono::steady_clock::now();
          (void)svc.Estimate(run.name, q);
          const auto t1 = std::chrono::steady_clock::now();
          ns.push_back(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count()));
        }
      }
      return Quantiles(std::move(ns));
    };

    for (const std::string& q : queries) (void)svc.Estimate(run.name, q);
    const LatencyQuantiles steady = measure(/*churn=*/false);

    FaultConfig slow;
    slow.probability = 1.0;
    slow.payload = 2;  // ms the rebuild worker sleeps per build
    slow.seed = config.seed;
    FaultInjector::Global().Arm(service::MaintenanceManager::kSlowFaultSite,
                                slow);
    const LatencyQuantiles during = measure(/*churn=*/true);
    FaultInjector::Global().Reset();
    svc.DrainMaintenance(30'000);

    uint64_t rebuilds = 0;
    for (const auto& row : svc.maintenance().Rows()) {
      rebuilds += row.rebuilds_completed;
    }
    std::printf(
        "{\"bench\":\"update_estimate_latency\",\"dataset\":\"%s\","
        "\"queries\":%zu,\"rebuilds\":%llu,"
        "\"steady_p50_us\":%.3f,\"steady_p99_us\":%.3f,"
        "\"rebuild_p50_us\":%.3f,\"rebuild_p99_us\":%.3f,"
        "\"p99_ratio\":%.2f}\n",
        run.name.c_str(), queries.size(),
        static_cast<unsigned long long>(rebuilds), steady.p50_us,
        steady.p99_us, during.p50_us, during.p99_us,
        steady.p99_us > 0 ? during.p99_us / steady.p99_us : 0.0);
  }
}

}  // namespace
}  // namespace xee

int main(int argc, char** argv) {
  xee::bench_util::BenchConfig config =
      xee::bench_util::BenchConfig::FromArgs(argc, argv);
  xee::bench_util::PrintHeader("Update throughput: incremental vs rebuild");
  std::vector<xee::bench_util::DatasetRun> runs =
      xee::bench_util::MakeDatasets(config);
  for (auto& run : runs) {
    xee::RunDataset(run, config);
  }
  return 0;
}
