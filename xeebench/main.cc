// xeebench: the xee serving benchmark client. Runs one workload for one
// seed and prints report lines (box stamp, fingerprint, sample counts)
// followed by one JSON result line. Usually started through run.py,
// which builds this binary first; see README.md.
//
//   xeebench --workload hot_fit --seed 1 --seconds 10 --trace 0
//            --server <path to estimation_server>
#include <signal.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "workloads.h"

namespace {

using xeebench::Config;
using xeebench::Outcome;

// The metric names of BENCHMARK.json: every untraced run prints exactly
// the end-to-end set, every traced run exactly the per-layer set.
const char* const kEndToEnd[] = {
    "read_p50_us", "read_p99_us",    "read_qps", "rel_error",
    "setup_s",     "synopsis_bytes", "rss_mb",
};
const char* const kPerLayer[] = {
    "xpath.strip_ns",
    "xpath.parse_us",
    "xpath.canonicalize_us",
    "xpath.analyze_us",
    "estimator.estimate_p50_us",
    "estimator.estimate_p99_us",
    "estimator.containment_tests",
    "estimator.join_probes",
    "estimator.fixpoint_rounds",
    "service.exact_hit_ratio",
    "service.canonical_hit_ratio",
    "service.memo_hit_ratio",
    "service.miss_ratio",
    "service.pruned_ratio",
    "service.recompile_ratio",
    "request.self_us",
    "registry.snapshot_1t_ns",
    "registry.snapshot_nt_ns",
    "service.batch_p50_us",
    "service.batch_p99_us",
    "service.batch_qps",
    "pool.fanout_us",
    "pool.queue_wait_ns",
    "pool.task_ns",
    "obs.timed_share",
    "obs.shadow_started_per_1k",
    "obs.shadow_backlog_suppressed_per_1k",
    "eval.count_us",
    "build.collect_path_ms",
    "build.p_histogram_ms",
    "build.collect_order_ms",
    "build.o_histogram_ms",
    "synopsis.encoding_bytes",
    "synopsis.pidtree_bytes",
    "synopsis.p_histogram_bytes",
    "synopsis.o_histogram_bytes",
    "delta.apply_p50_ms",
    "delta.apply_p90_ms",
    "delta.patch_ms",
    "delta.materialize_ms",
    "delta.histos_rebuilt",
    "sidecar.server_us",
    "sidecar.frontend_us",
    "trace.overhead_p50_us",
    "trace.overhead_qps_share",
    "trace.spans",
};

int Usage() {
  std::fprintf(stderr,
               "usage: xeebench --workload hot_fit|zipf_overflow|live_churn "
               "--seed N --seconds S --trace 0|1 --server PATH\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  signal(SIGPIPE, SIG_IGN);  // a dead server surfaces as a write error
  Config cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = v;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      cfg.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--server") {
      cfg.server = v;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || cfg.seconds <= 0 || cfg.server.empty()) return Usage();

  const xeebench::CpuTimes cpu0 = xeebench::ReadCpuTimes();
  const double ref0 = xeebench::ReferenceLoopNs();
  Outcome out;
  try {
    if (cfg.workload == "hot_fit") {
      out = xeebench::RunHotFit(cfg);
    } else if (cfg.workload == "zipf_overflow") {
      out = xeebench::RunZipfOverflow(cfg);
    } else if (cfg.workload == "live_churn") {
      out = xeebench::RunLiveChurn(cfg);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xeebench: %s\n", e.what());
    return 3;
  }
  const xeebench::CpuTimes cpu1 = xeebench::ReadCpuTimes();
  const double ref1 = xeebench::ReferenceLoopNs();

  for (const std::string& line : out.report.lines) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("%s\n", xeebench::BoxStampJson(cpu0, cpu1, ref0, ref1).c_str());
  std::printf("{\"correctness\":{\"mismatches\":%llu}}\n",
              static_cast<unsigned long long>(out.mismatches));

  std::vector<const char*> names;
  if (cfg.trace) {
    names.assign(std::begin(kPerLayer), std::end(kPerLayer));
    std::printf(
        "{\"dropped\":{\"service.post_delta_miss_ratio\":\"every live_churn "
        "read follows an epoch bump, so it equals service.miss_ratio there; "
        "0 by definition elsewhere\"}}\n");
  } else {
    names.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
  }
  std::string metrics;
  bool complete = true;
  for (const char* name : names) {
    auto it = out.report.metrics.find(name);
    if (it == out.report.metrics.end() || !std::isfinite(it->second.value)) {
      std::fprintf(stderr, "xeebench: metric %s not measured\n", name);
      complete = false;
      continue;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  metrics.empty() ? "" : ",", name, it->second.value,
                  it->second.unit.c_str());
    metrics += buf;
  }
  if (!complete) return 4;
  const bool correct = out.mismatches == 0;
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
