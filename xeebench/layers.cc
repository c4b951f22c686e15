// Per-layer probes of the traced run. Each probe times one layer's
// public calls in isolation on the workload's own inputs, so every
// traced run reports every per-layer metric (see README.md for which
// end-to-end metric each should move).
#include <algorithm>
#include <cstdio>
#include <thread>

#include "common/thread_pool.h"
#include "datagen/datagen.h"
#include "delta/live_synopsis.h"
#include "eval/exact_evaluator.h"
#include "obs/metrics.h"
#include "workloads.h"
#include "xpath/canonical.h"
#include "xpath/parser.h"

namespace xeebench {

using xee::estimator::Synopsis;

namespace {

/// Mean ns per SynopsisRegistry::Snapshot call over `calls` calls.
double SnapshotNs(const xee::service::SynopsisRegistry& reg,
                  const std::string& name, size_t calls) {
  const uint64_t t0 = NowNs();
  for (size_t i = 0; i < calls; ++i) {
    if (!reg.Snapshot(name).has_value()) return 0;
  }
  return static_cast<double>(NowNs() - t0) / static_cast<double>(calls);
}

}  // namespace

void ProbeCommonLayers(const ProbeInput& in, Report* out) {
  const std::vector<Dataset>& datasets = *in.datasets;
  const xee::service::SynopsisRegistry& reg = in.svc->registry();
  const std::string& name = datasets.front().name;
  in.tracer->set_enabled(true);

  // Registry snapshot acquire: the client thread alone, then one thread
  // per CPU contending on the same registry.
  (void)SnapshotNs(reg, name, 10'000);
  out->Set("registry.snapshot_1t_ns", SnapshotNs(reg, name, 200'000), "ns");
  const size_t n = xee::ThreadPool::DefaultThreads();
  std::vector<double> per_thread(n);
  {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < n; ++t) {
      threads.emplace_back(
          [&, t] { per_thread[t] = SnapshotNs(reg, name, 100'000); });
    }
    for (std::thread& t : threads) t.join();
  }
  out->Set("registry.snapshot_nt_ns", Median(per_thread), "ns");

  // Pool fan-out: a no-op ParallelFor at the batch width.
  {
    xee::ThreadPool pool(n);
    std::vector<double> us;
    for (int i = 0; i < 2200; ++i) {
      const uint64_t t0 = NowNs();
      pool.ParallelFor(256, [](size_t) {});
      if (i >= 200) us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    out->Set("pool.fanout_us", Median(us), "us");
  }
  const xee::obs::Registry& global = xee::obs::Registry::Global();
  out->Set("pool.queue_wait_ns",
           static_cast<double>(global.HistogramSnap("pool.queue_wait_ns").p50),
           "ns");
  out->Set("pool.task_ns",
           static_cast<double>(global.HistogramSnap("pool.task_ns").p50), "ns");

  // Exact evaluation of sampled served queries against their documents.
  {
    std::vector<std::unique_ptr<xee::eval::ExactEvaluator>> evals;
    for (const Dataset& d : datasets) {
      evals.push_back(std::make_unique<xee::eval::ExactEvaluator>(*d.doc));
    }
    std::vector<uint32_t> sample = in.sample;
    if (sample.empty()) {
      for (uint32_t t = 0; t < in.texts->reqs.size(); ++t) sample.push_back(t);
    }
    sample.resize(std::min<size_t>(sample.size(), 100));
    for (uint32_t t : sample) {
      auto q = xee::xpath::ParseXPath(
          xee::xpath::StripWhitespace(in.texts->reqs[t].xpath));
      if (!q.ok()) continue;
      ScopedSpan s(in.tracer, "eval.count", Tracer::kNoParent,
                   in.tracer->NextRequestId());
      (void)evals[in.texts->ds[t]]->Count(q.value());
    }
  }

  // Construction stages (paper Tables 4-5): one span per BuildProfile
  // stage per build, three builds of every served dataset.
  for (int rep = 0; rep < 3; ++rep) {
    for (const Dataset& d : datasets) {
      xee::estimator::BuildProfile prof;
      const uint32_t rid = in.tracer->NextRequestId();
      const uint64_t t0 = NowNs();
      (void)Synopsis::Build(*d.doc, {}, &prof);
      uint64_t at = t0;
      for (const auto& [stage, s] :
           {std::pair{"build.collect_path", prof.collect_path_s},
            std::pair{"build.p_histogram", prof.p_histogram_s},
            std::pair{"build.collect_order", prof.collect_order_s},
            std::pair{"build.o_histogram", prof.o_histogram_s}}) {
        const auto ns = static_cast<uint64_t>(s * 1e9);
        in.tracer->Add(stage, Tracer::kNoParent, rid, at, ns);
        at += ns;
      }
    }
  }

  // Sizes of the served synopses, by structure.
  double enc = 0, pid = 0, ph = 0, oh = 0;
  for (const Dataset& d : datasets) {
    const auto snap = reg.Snapshot(d.name);
    if (!snap) continue;
    enc += static_cast<double>(snap->synopsis->EncodingTableBytes());
    pid += static_cast<double>(snap->synopsis->PidTreeBytes());
    ph += static_cast<double>(snap->synopsis->PHistogramBytes());
    oh += static_cast<double>(snap->synopsis->OHistogramBytes());
  }
  out->Set("synopsis.encoding_bytes", enc, "B");
  out->Set("synopsis.pidtree_bytes", pid, "B");
  out->Set("synopsis.p_histogram_bytes", ph, "B");
  out->Set("synopsis.o_histogram_bytes", oh, "B");
  in.tracer->set_enabled(false);
}

void ProbeDeltaLayer(const ProbeInput& in, Report* out) {
  constexpr int kDeltas = 100;
  const xee::service::ServiceOptions options;
  xee::service::EstimationService svc(options);
  svc.RegisterLive("xmark", xee::datagen::GenerateByName("xmark", {}).value());
  xee::delta::LiveDocument replica_doc(
      xee::datagen::GenerateByName("xmark", {}).value());
  xee::delta::LiveSynopsis replica(
      std::make_shared<const Synopsis>(Synopsis::Build(replica_doc.doc(), {})),
      &replica_doc, xee::delta::PatchOptions{});
  xee::Rng rng = RoundRng(in.cfg->seed, 6, 0);
  uint64_t rebuilt = 0;
  Tracer* tr = in.tracer;
  tr->set_enabled(true);
  for (int i = 0; i < kDeltas; ++i) {
    const xee::Result<xee::delta::DeltaOp> op = NextClone(svc, "xmark", rng);
    if (!op.ok()) continue;
    xee::delta::DocumentDelta d;
    d.ops.push_back(op.value());
    const uint32_t rid = tr->NextRequestId();
    const uint32_t span = tr->Begin("service.apply_delta", Tracer::kNoParent, rid);
    const auto applied = svc.ApplyDelta("xmark", d);
    tr->End(span);
    if (applied.ok()) rebuilt += applied.value().apply.histos_rebuilt;
    {
      ScopedSpan s(tr, "delta.patch", span, rid);
      (void)replica.Apply(d);
    }
    {
      ScopedSpan s(tr, "delta.materialize", span, rid);
      (void)replica_doc.Materialize();
    }
  }
  tr->set_enabled(false);
  out->Set("delta.histos_rebuilt", static_cast<double>(rebuilt) / kDeltas,
           "count/delta");
}

void ReportSpans(const Tracer& tracer, Report* out) {
  const std::map<std::string, std::vector<double>> self = tracer.SelfTimesNs();
  struct Row {
    const char* metric;
    const char* span;
    double quantile;
    double scale;
    const char* unit;
  };
  static const Row kRows[] = {
      {"xpath.strip_ns", "xpath.strip", 0.5, 1, "ns"},
      {"xpath.parse_us", "xpath.parse", 0.5, 1e3, "us"},
      {"xpath.canonicalize_us", "xpath.canonicalize", 0.5, 1e3, "us"},
      {"xpath.analyze_us", "xpath.analyze", 0.5, 1e3, "us"},
      {"estimator.estimate_p50_us", "estimator.estimate", 0.5, 1e3, "us"},
      {"estimator.estimate_p99_us", "estimator.estimate", 0.99, 1e3, "us"},
      {"request.self_us", "service.estimate", 0.5, 1e3, "us"},
      {"service.batch_p50_us", "service.estimate_batch", 0.5, 1e3, "us"},
      {"service.batch_p99_us", "service.estimate_batch", 0.99, 1e3, "us"},
      {"eval.count_us", "eval.count", 0.5, 1e3, "us"},
      {"build.collect_path_ms", "build.collect_path", 0.5, 1e6, "ms"},
      {"build.p_histogram_ms", "build.p_histogram", 0.5, 1e6, "ms"},
      {"build.collect_order_ms", "build.collect_order", 0.5, 1e6, "ms"},
      {"build.o_histogram_ms", "build.o_histogram", 0.5, 1e6, "ms"},
      {"delta.apply_p50_ms", "service.apply_delta", 0.5, 1e6, "ms"},
      {"delta.apply_p90_ms", "service.apply_delta", 0.9, 1e6, "ms"},
      {"delta.patch_ms", "delta.patch", 0.5, 1e6, "ms"},
      {"delta.materialize_ms", "delta.materialize", 0.5, 1e6, "ms"},
  };
  for (const Row& row : kRows) {
    auto it = self.find(row.span);
    if (it == self.end()) continue;  // absent: main names the gap
    std::vector<double> v = it->second;
    out->Set(row.metric, Quantile(v, row.quantile) / row.scale, row.unit);
  }
  out->Set("trace.spans", static_cast<double>(tracer.size()), "count");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "{\"spans_dropped\":%llu}",
                static_cast<unsigned long long>(tracer.dropped()));
  out->Line(buf);
}

}  // namespace xeebench
