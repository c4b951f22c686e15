// The benchmark's workloads and layer probes. Every workload is a closed
// loop from one client thread against production-default ServiceOptions;
// see README.md for why each workload exists.
#ifndef XEEBENCH_WORKLOADS_H_
#define XEEBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "delta/document_delta.h"
#include "estimator/synopsis.h"
#include "service/service.h"
#include "support.h"
#include "xml/tree.h"

namespace xeebench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server;  ///< path of the estimation_server binary
};

/// One generated dataset at scale 1 (generator seed fixed, as the
/// estimation_server generates it) and its Section-7 query set,
/// distinct, with exact counts. The query universe is fixed too
/// (kSection7Seed); the benchmark seed picks subsets, Zipf orders,
/// respellings and deltas from it, so figures from different seeds
/// measure the same universe.
struct Dataset {
  std::string name;
  std::shared_ptr<const xee::xml::Document> doc;
  std::vector<std::string> queries;
  std::vector<uint64_t> truth;
};

inline constexpr uint64_t kSection7Seed = 7;

/// The distinct request texts a workload sends, each tied to the
/// dataset and Section-7 query it was spelled from.
struct Texts {
  std::vector<xee::service::QueryRequest> reqs;
  std::vector<uint32_t> ds;
  std::vector<uint32_t> base;

  uint32_t Add(const Dataset& d, uint32_t ds_index, uint32_t base_index,
               std::string xpath);
};

/// What every workload hands back besides its metrics.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  Report report;
};

/// Direct estimate of `xpath` on `syn` through the public xpath and
/// estimator calls, bypassing the service.
xee::Result<double> DirectEstimate(const xee::estimator::Synopsis& syn,
                                   const std::string& xpath);

/// The generator of one round of one random stream of a run: streams
/// are independent of each other and of the round count.
xee::Rng RoundRng(uint64_t seed, uint64_t stream, size_t round);

/// The next clone delta for live synopsis `name` of `svc`: a seeded
/// preorder rank, redrawn (up to 8 times) while its subtree exceeds 48
/// nodes, so one draw near the root cannot double the document.
/// Deterministic per seed, since the live document evolves
/// deterministically.
xee::Result<xee::delta::DeltaOp> NextClone(
    const xee::service::EstimationService& svc, const std::string& name,
    xee::Rng& rng);

// --- workloads (workloads.cc) ------------------------------------------
Outcome RunHotFit(const Config& cfg);
Outcome RunZipfOverflow(const Config& cfg);
Outcome RunLiveChurn(const Config& cfg);

// --- per-layer probes (layers.cc, sidecar.cc) ---------------------------

/// Everything a probe may need from the workload that ran.
struct ProbeInput {
  const Config* cfg = nullptr;
  xee::service::EstimationService* svc = nullptr;  ///< serving the datasets
  const std::vector<Dataset>* datasets = nullptr;
  const Texts* texts = nullptr;
  std::vector<uint32_t> sample;  ///< text ids of sampled served requests
  Tracer* tracer = nullptr;      ///< receives the probes' spans
};

/// Adds the standalone layer measurements: registry snapshot, pool
/// fan-out, exact evaluation, construction stages, synopsis sizes.
void ProbeCommonLayers(const ProbeInput& in, Report* out);
/// Standalone delta replay on a separate service holding xmark: the
/// ApplyDelta latency, LiveSynopsis::Apply and Materialize self times.
void ProbeDeltaLayer(const ProbeInput& in, Report* out);
/// A short estimation_server run over (up to 500 of) the workload's
/// xmark texts: the server-reported and front-end time per line. Returns
/// the answers that differ from the in-process estimate at the server's
/// printed precision.
uint64_t ProbeSidecarLayer(const ProbeInput& in, Report* out);

/// Adds the per-layer metrics derived from the tracer's spans.
void ReportSpans(const Tracer& tracer, Report* out);

}  // namespace xeebench

#endif  // XEEBENCH_WORKLOADS_H_
