#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <thread>
#include <unordered_map>

#include "datagen/datagen.h"
#include "delta/document_delta.h"
#include "sim/traffic.h"
#include "workload/workload.h"
#include "xpath/analyze.h"
#include "xpath/canonical.h"
#include "xpath/parser.h"

namespace xeebench {

using xee::Rng;
using xee::estimator::Estimator;
using xee::estimator::Synopsis;
using xee::service::EstimateOutcome;
using xee::service::EstimationService;
using xee::service::QueryRequest;
using xee::service::SynopsisSnapshot;

uint32_t Texts::Add(const Dataset& d, uint32_t ds_index, uint32_t base_index,
                    std::string xpath) {
  QueryRequest r;
  r.synopsis = d.name;
  r.xpath = std::move(xpath);
  reqs.push_back(std::move(r));
  ds.push_back(ds_index);
  base.push_back(base_index);
  return static_cast<uint32_t>(reqs.size() - 1);
}

xee::Result<double> DirectEstimate(const Synopsis& syn,
                                   const std::string& xpath) {
  xee::Result<xee::xpath::Query> q =
      xee::xpath::ParseXPath(xee::xpath::StripWhitespace(xpath));
  if (!q.ok()) return q.status();
  return Estimator(syn).Estimate(q.value());
}

xee::Rng RoundRng(uint64_t seed, uint64_t stream, size_t round) {
  return Rng(Fnv(FnvU64(FnvU64(kFnvBasis, seed), stream), std::to_string(round)));
}

namespace {

/// Checks that every serve of one text within one epoch returned the
/// same bits, and remembers the first value for the direct comparison.
class ServedLog {
 public:
  explicit ServedLog(size_t texts) : first_(texts), seen_(texts, 0) {}
  /// Records one served value; returns false on a bit mismatch.
  bool Record(uint32_t text, double value, uint32_t epoch_tag);
  double First(uint32_t text) const { return first_[text]; }
  std::vector<uint32_t> TextsSeen(uint32_t epoch_tag) const;

 private:
  std::vector<double> first_;
  std::vector<uint32_t> seen_;  ///< epoch tag of the first serve; 0 = none
};

/// Service counters scraped from one service's registry.
struct ServiceCounters {
  uint64_t requests = 0, exact = 0, canonical = 0, memo = 0, miss = 0,
           pruned = 0, timed = 0, shadow_started = 0, shadow_suppressed = 0;
  ServiceCounters& operator+=(const ServiceCounters& o);
};

// --- inputs ---------------------------------------------------------------

std::vector<Dataset> MakeDatasets(const std::vector<std::string>& names) {
  std::vector<Dataset> out(names.size());
  std::vector<std::thread> workers;
  for (size_t i = 0; i < names.size(); ++i) {
    workers.emplace_back([&, i] {
      Dataset& d = out[i];
      d.name = names[i];
      d.doc = std::make_shared<const xee::xml::Document>(
          xee::datagen::GenerateByName(d.name, {}).value());
      xee::workload::WorkloadOptions wo;
      wo.seed = kSection7Seed;
      const xee::workload::Workload wl =
          xee::workload::GenerateWorkload(*d.doc, wo);
      std::map<std::string, uint64_t> distinct;
      for (const auto* list : {&wl.simple, &wl.branch,
                               &wl.order_branch_target,
                               &wl.order_trunk_target}) {
        for (const auto& wq : *list) {
          distinct.emplace(wq.query.ToString(), wq.true_count);
        }
      }
      for (auto& [q, truth] : distinct) {
        d.queries.push_back(q);
        d.truth.push_back(truth);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  return out;
}

/// Adds the hot subset (500 Section-7 queries per dataset, drawn with
/// kSection7Seed) to `texts`; returns the text ids.
std::vector<uint32_t> HotTexts(const std::vector<Dataset>& datasets,
                               Texts* texts) {
  constexpr size_t kHotPerDataset = 500;
  std::vector<uint32_t> ids;
  for (uint32_t d = 0; d < datasets.size(); ++d) {
    // Seeded per dataset, so a workload serving only xmark draws the
    // same xmark subset as one serving all three datasets.
    Rng rng(Fnv(kSection7Seed, datasets[d].name));
    std::vector<uint32_t> idx(datasets[d].queries.size());
    for (uint32_t i = 0; i < idx.size(); ++i) idx[i] = i;
    for (size_t i = idx.size(); i > 1; --i) {
      std::swap(idx[i - 1], idx[rng.UniformInt(0, i - 1)]);
    }
    idx.resize(std::min(idx.size(), kHotPerDataset));
    std::sort(idx.begin(), idx.end());
    for (uint32_t q : idx) {
      ids.push_back(texts->Add(datasets[d], d, q, datasets[d].queries[q]));
    }
  }
  return ids;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool ServedLog::Record(uint32_t text, double value, uint32_t epoch_tag) {
  if (seen_[text] != epoch_tag) {
    seen_[text] = epoch_tag;
    first_[text] = value;
    return true;
  }
  return SameBits(first_[text], value);
}

std::vector<uint32_t> ServedLog::TextsSeen(uint32_t epoch_tag) const {
  std::vector<uint32_t> out;
  for (size_t i = 0; i < seen_.size(); ++i) {
    if (seen_[i] == epoch_tag) out.push_back(static_cast<uint32_t>(i));
  }
  return out;
}

/// Span-recorded replay of one request through the xpath -> analyze ->
/// Estimator::Estimate public calls on the same snapshot (traced runs);
/// the estimator's work counters accumulate into `work`.
void ReplayRequest(Tracer* tracer, uint32_t parent, uint32_t request,
                   const SynopsisSnapshot& snap, const std::string& xpath,
                   xee::obs::TraceSpans* work) {
  ScopedSpan replay(tracer, "replay", parent, request);
  const uint32_t p = replay.id();
  std::string stripped;
  {
    ScopedSpan s(tracer, "xpath.strip", p, request);
    stripped = xee::xpath::StripWhitespace(xpath);
  }
  xee::Result<xee::xpath::Query> parsed = [&] {
    ScopedSpan s(tracer, "xpath.parse", p, request);
    return xee::xpath::ParseXPath(stripped);
  }();
  if (!parsed.ok()) return;
  xee::xpath::Query canonical;
  {
    ScopedSpan s(tracer, "xpath.canonicalize", p, request);
    canonical = xee::xpath::Canonicalize(parsed.value());
    (void)xee::xpath::CanonicalKey(canonical);
  }
  const Synopsis& syn = *snap.synopsis;
  {
    ScopedSpan s(tracer, "xpath.analyze", p, request);
    xee::xpath::AnalyzerView view;
    view.reach = &syn.reach();
    view.find_tag = [&syn](const std::string& n) { return syn.FindTag(n); };
    view.root_tag = syn.root_tag();
    view.root_name = syn.TagName(syn.root_tag());
    if (xee::xpath::AnalyzeSatisfiability(canonical, view).verdict !=
        xee::xpath::SatVerdict::kUnsat) {
      (void)xee::xpath::AnalyzeRewrite(&canonical, view);
    }
  }
  {
    ScopedSpan s(tracer, "estimator.estimate", p, request);
    xee::estimator::EstimateLimits limits;
    limits.trace = work;
    (void)Estimator(syn).Estimate(parsed.value(), limits);
  }
}

ServiceCounters& ServiceCounters::operator+=(const ServiceCounters& o) {
  requests += o.requests;
  exact += o.exact;
  canonical += o.canonical;
  memo += o.memo;
  miss += o.miss;
  pruned += o.pruned;
  timed += o.timed;
  shadow_started += o.shadow_started;
  shadow_suppressed += o.shadow_suppressed;
  return *this;
}

ServiceCounters ScrapeCounters(const EstimationService& svc) {
  const xee::obs::Registry& r = svc.obs();
  ServiceCounters c;
  c.requests = r.CounterValue("service.requests");
  c.exact = r.CounterValue("service.plan_cache", "outcome=exact_hit");
  c.canonical = r.CounterValue("service.plan_cache", "outcome=canonical_hit");
  c.miss = r.CounterValue("service.plan_cache", "outcome=miss");
  c.memo = r.CounterValue("service.estimate_memo", "outcome=hit");
  c.pruned = r.CounterValue("service.analyzer", "outcome=pruned");
  c.timed = r.HistogramSnap("service.request_ns").count;
  c.shadow_started = r.CounterValue("accuracy.samples", "phase=started");
  c.shadow_suppressed =
      r.CounterValue("accuracy.samples", "phase=backlog_suppressed");
  return c;
}

void ReportCounterRatios(const ServiceCounters& c, Report* out) {
  const double n = c.requests == 0 ? 1.0 : static_cast<double>(c.requests);
  out->Set("service.exact_hit_ratio", static_cast<double>(c.exact) / n,
           "ratio");
  out->Set("service.canonical_hit_ratio",
           static_cast<double>(c.canonical) / n, "ratio");
  out->Set("service.memo_hit_ratio", static_cast<double>(c.memo) / n,
           "ratio");
  out->Set("service.miss_ratio", static_cast<double>(c.miss) / n, "ratio");
  out->Set("service.pruned_ratio", static_cast<double>(c.pruned) / n,
           "ratio");
  out->Set("obs.timed_share", static_cast<double>(c.timed) / n, "ratio");
  out->Set("obs.shadow_started_per_1k",
           1e3 * static_cast<double>(c.shadow_started) / n, "count/1k");
  out->Set("obs.shadow_backlog_suppressed_per_1k",
           1e3 * static_cast<double>(c.shadow_suppressed) / n, "count/1k");
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Adds the determinism fingerprint line: the request stream hash, the
/// hit split and compiles of the single-call phases, the served epochs
/// and synopsis bytes. Identical across runs at one seed.
void Fingerprint(Report* out, uint64_t stream_hash, const ServiceCounters& c,
                 const std::vector<uint64_t>& epochs, size_t synopsis_bytes) {
  uint64_t h = FnvU64(kFnvBasis, stream_hash);
  for (uint64_t v : {c.requests, c.exact, c.canonical, c.memo, c.miss,
                     c.pruned}) {
    h = FnvU64(h, v);
  }
  std::string ep;
  for (uint64_t e : epochs) {
    h = FnvU64(h, e);
    ep += (ep.empty() ? "" : ",") + std::to_string(e);
  }
  h = FnvU64(h, synopsis_bytes);
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"fingerprint\":{\"hash\":\"%s\",\"stream\":\"%s\",\"requests\":%llu,"
      "\"exact_hits\":%llu,\"canonical_hits\":%llu,\"memo_hits\":%llu,"
      "\"compiles\":%llu,\"pruned\":%llu,\"epochs\":[%s],"
      "\"synopsis_bytes\":%zu}}",
      Hex(h).c_str(), Hex(stream_hash).c_str(),
      static_cast<unsigned long long>(c.requests),
      static_cast<unsigned long long>(c.exact),
      static_cast<unsigned long long>(c.canonical),
      static_cast<unsigned long long>(c.memo),
      static_cast<unsigned long long>(c.miss),
      static_cast<unsigned long long>(c.pruned), ep.c_str(), synopsis_bytes);
  out->Line(buf);
}

constexpr double kZipfS = 1.0;
/// Traced runs replay one request in this many through the layers.
constexpr uint32_t kReplayEvery = 64;
/// Batch width of the EstimateBatch phases.
constexpr size_t kBatch = 256;
/// Span capacity of a traced run, and the part request spans may use.
constexpr size_t kTracerCapacity = size_t{3} << 20;
constexpr size_t kRequestSpanBudget = size_t{2} << 20;

size_t Scaled(double seconds, double share, double nominal_rate) {
  return std::max<size_t>(1, static_cast<size_t>(seconds * share * nominal_rate));
}

size_t SynopsisBytes(const Synopsis& s) {
  return s.PathSummaryBytes() + s.OHistogramBytes();
}

/// Builds and registers every dataset; returns the wall time.
double SetupRegistered(EstimationService& svc,
                       const std::vector<Dataset>& datasets) {
  const uint64_t t0 = NowNs();
  for (const Dataset& d : datasets) {
    svc.registry().Register(d.name, Synopsis::Build(*d.doc, {}), d.doc);
  }
  return static_cast<double>(NowNs() - t0) / 1e9;
}

/// Single-call and batch clients over one service at a time, with the
/// bookkeeping every in-process workload shares: bitwise consistency of
/// repeated serves, failure counting, wasted-compile accounting and, in
/// traced runs, request spans and sampled replays.
class Client {
 public:
  Client(const Texts* texts, Tracer* tracer, Outcome* out)
      : texts_(texts), tracer_(tracer), out_(out), served_(texts->reqs.size()) {}

  /// Points the client at a fresh service.
  void Attach(EstimationService* svc) {
    svc_ = svc;
    misses_ = &svc->obs().GetCounter("service.plan_cache", "outcome=miss");
    compiled_tag_.clear();
  }

  ServedLog& served() { return served_; }
  uint32_t epoch_tag = 1;

  /// Runs `n` single calls; appends one latency per call to `log` when
  /// non-null. Returns the loop's wall time minus replay time.
  uint64_t Singles(const uint32_t* ids, size_t n, LatencyLog* log) {
    results_.resize(n);
    const bool traced = tracer_ != nullptr && tracer_->enabled();
    uint64_t paused = 0;
    uint64_t last_miss = misses_->value();
    const uint64_t start = NowNs();
    uint64_t prev = start;
    for (size_t i = 0; i < n; ++i) {
      const QueryRequest& req = texts_->reqs[ids[i]];
      const uint32_t rid = traced ? tracer_->NextRequestId() : 0;
      const uint32_t span =
          traced ? tracer_->Begin("service.estimate", Tracer::kNoParent, rid)
                 : Tracer::kDropped;
      const EstimateOutcome o = svc_->Estimate(req);
      if (traced) tracer_->End(span);
      const uint64_t now = NowNs();
      if (log != nullptr) log->ns.push_back(static_cast<uint32_t>(now - prev));
      prev = now;
      results_[i] = o.ok() ? o.value() : kFailed;
      // Wasted compiles: a miss on a query already compiled this epoch.
      const uint64_t miss = misses_->value();
      if (miss != last_miss) {
        last_miss = miss;
        ++misses;
        const uint64_t key =
            uint64_t{texts_->ds[ids[i]]} << 32 | texts_->base[ids[i]];
        uint32_t& tag = compiled_tag_[key];
        if (tag == epoch_tag) ++recompiles;
        tag = epoch_tag;
      }
      if (traced && rid % kReplayEvery == 0) {
        if (std::optional<SynopsisSnapshot> snap =
                svc_->registry().Snapshot(req.synopsis)) {
          ReplayRequest(tracer_, span, rid, *snap, req.xpath, &work);
          ++replays;
          sample.push_back(ids[i]);
        }
        const uint64_t after = NowNs();
        paused += after - now;
        prev = after;
      }
    }
    const uint64_t wall = NowNs() - start - paused;
    Check(ids, n);
    return wall;
  }

  /// Runs one EstimateBatch over `ids`; returns the call's wall time.
  uint64_t Batch(const uint32_t* ids, size_t n) {
    batch_.resize(n);
    for (size_t i = 0; i < n; ++i) batch_[i] = texts_->reqs[ids[i]];
    ScopedSpan span(tracer_, "service.estimate_batch", Tracer::kNoParent,
                    tracer_ != nullptr ? tracer_->NextRequestId() : 0);
    const uint64_t t0 = NowNs();
    const std::vector<EstimateOutcome> res = svc_->EstimateBatch(batch_);
    const uint64_t ns = NowNs() - t0;
    results_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      results_[i] = res[i].ok() ? res[i].value() : kFailed;
    }
    Check(ids, n);
    return ns;
  }

  /// Compares the first serve of every text seen under `tag` with a
  /// direct estimate on its dataset's synopsis, bit for bit.
  void VerifyDirect(const std::vector<const Synopsis*>& by_ds, uint32_t tag) {
    for (uint32_t t : served_.TextsSeen(tag)) {
      const xee::Result<double> want =
          DirectEstimate(*by_ds[texts_->ds[t]], texts_->reqs[t].xpath);
      const double got = served_.First(t);
      if (!want.ok() ? !SameBits(got, kFailed) : !SameBits(got, want.value())) {
        ++out_->mismatches;
      }
    }
  }

  uint64_t misses = 0;
  uint64_t recompiles = 0;
  uint64_t replays = 0;
  xee::obs::TraceSpans work;
  std::vector<uint32_t> sample;

 private:
  static constexpr double kFailed = -1.0;

  void Check(const uint32_t* ids, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      ++out_->attempted;
      if (SameBits(results_[i], kFailed)) ++out_->failed;
      if (!served_.Record(ids[i], results_[i], epoch_tag)) ++out_->mismatches;
    }
  }

  EstimationService* svc_ = nullptr;
  const Texts* texts_;
  Tracer* tracer_;
  Outcome* out_;
  ServedLog served_;
  /// Epoch tag of the last compile of each (dataset, Section-7 query):
  /// respellings share their query's plan.
  std::unordered_map<uint64_t, uint32_t> compiled_tag_;
  const xee::obs::Counter* misses_ = nullptr;
  std::vector<double> results_;
  std::vector<QueryRequest> batch_;
};

/// Untraced and traced single-call samples. In traced runs every fourth
/// window is traced, so both kinds share one service state and their
/// difference is the tracing overhead.
struct WindowedResult {
  LatencyLog plain;
  LatencyLog traced;
};

/// Runs `stream` as fixed-size windows of single calls into `r`.
void RunWindows(Client& drv, Tracer* tracer,
                const std::vector<uint32_t>& stream, size_t window,
                WindowedResult* r) {
  r->plain.ns.reserve(r->plain.ns.size() + stream.size());
  size_t w = 0;
  for (size_t pos = 0; pos < stream.size(); pos += window, ++w) {
    const size_t n = std::min(window, stream.size() - pos);
    // Request spans stop at kRequestSpanBudget, which leaves the rest of
    // the tracer's capacity to the layer probes that run afterwards.
    const bool traced = tracer != nullptr && w % 4 == 3 &&
                        tracer->size() < kRequestSpanBudget;
    if (tracer != nullptr) tracer->set_enabled(traced);
    LatencyLog& log = traced ? r->traced : r->plain;
    const uint64_t ns = drv.Singles(stream.data() + pos, n, &log);
    if (n == window) log.CloseWindow(n, ns);
  }
  if (tracer != nullptr) tracer->set_enabled(false);
}

/// Batch phase: windows of `per_window` batches of kBatch requests, one
/// throughput per window appended to `qps`.
void RunBatches(Client& drv, Tracer* tracer,
                const std::vector<uint32_t>& stream, size_t per_window,
                std::vector<double>* qps) {
  if (tracer != nullptr) tracer->set_enabled(true);
  uint64_t ns = 0;
  size_t reqs = 0, batches = 0;
  for (size_t pos = 0; pos + kBatch <= stream.size(); pos += kBatch) {
    ns += drv.Batch(stream.data() + pos, kBatch);
    reqs += kBatch;
    if (++batches % per_window == 0) {
      qps->push_back(static_cast<double>(reqs) * 1e9 / static_cast<double>(ns));
      ns = 0;
      reqs = 0;
    }
  }
  if (tracer != nullptr) tracer->set_enabled(false);
}

/// The traced-run layer metrics every in-process workload reports from
/// its client's replays and counters.
void ReportClientLayers(const Client& drv, const WindowedResult& wr,
                        Report* out) {
  const double replays = drv.replays == 0 ? 1.0 : static_cast<double>(drv.replays);
  out->Set("estimator.containment_tests",
           static_cast<double>(drv.work.containment_tests) / replays,
           "count/estimate");
  out->Set("estimator.join_probes",
           static_cast<double>(drv.work.join_probes) / replays,
           "count/estimate");
  out->Set("estimator.fixpoint_rounds",
           static_cast<double>(drv.work.fixpoint_rounds) / replays,
           "count/estimate");
  out->Set("service.recompile_ratio",
           drv.misses == 0
               ? 0.0
               : static_cast<double>(drv.recompiles) /
                     static_cast<double>(drv.misses),
           "ratio");
  out->Set("trace.overhead_p50_us", wr.traced.P50Us() - wr.plain.P50Us(), "us");
  out->Set("trace.overhead_qps_share",
           1.0 - wr.traced.MedianQps() / wr.plain.MedianQps(), "ratio");
}

/// The end-to-end read metrics of the untraced windows.
void ReportReads(const LatencyLog& log, Report* out) {
  out->Set("read_p50_us", log.P50Us(), "us");
  out->Set("read_p99_us", log.P99Us(), "us");
  out->Set("read_qps", log.MedianQps(), "1/s");
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"read_samples\":%zu,\"read_windows\":%zu,"
                "\"samples_beyond_p99\":%zu}",
                log.ns.size(), log.window_qps.size(), log.ns.size() / 100);
  out->Line(buf);
}

/// Mean |est - true| / true over the distinct served texts, each
/// against its Section-7 query's exact count.
double RelError(const ServedLog& served, uint32_t tag, const Texts& texts,
                const std::vector<Dataset>& datasets) {
  double sum = 0;
  size_t n = 0;
  for (uint32_t t : served.TextsSeen(tag)) {
    const double truth =
        static_cast<double>(datasets[texts.ds[t]].truth[texts.base[t]]);
    if (truth <= 0) continue;
    sum += std::fabs(served.First(t) - truth) / truth;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

uint64_t StreamHash(uint64_t h, const Texts& texts,
                    const std::vector<uint32_t>& stream) {
  for (uint32_t id : stream) {
    h = Fnv(Fnv(h, texts.reqs[id].synopsis), texts.reqs[id].xpath);
  }
  return h;
}

/// The request streams of one round of a static workload.
struct RoundStreams {
  std::vector<uint32_t> warmup;
  std::vector<uint32_t> singles;
  std::vector<uint32_t> batches;
};

/// hot_fit and zipf_overflow: `rounds` rounds, each on a fresh service
/// holding the three static synopses (set-up timed), with a warm-up, the
/// single-call phase and, in traced runs, a batch phase on the default
/// pool. Each round draws its own Zipf order, so one run averages over
/// several hot sets and several heap layouts.
struct StaticPlan {
  Texts texts;
  size_t rounds = 0;
  size_t window = 0;
  size_t batches_per_window = 0;
  std::function<RoundStreams(size_t round)> make_round;
};

Outcome RunStatic(const Config& cfg, const std::vector<Dataset>& datasets,
                  const StaticPlan& plan) {
  Outcome out;
  std::unique_ptr<Tracer> tracer;
  if (cfg.trace) tracer = std::make_unique<Tracer>(kTracerCapacity);
  Client drv(&plan.texts, tracer.get(), &out);
  WindowedResult wr;
  std::vector<double> batch_qps, setup;
  ServiceCounters counters;
  uint64_t stream_hash = kFnvBasis;
  int cpu = -1;
  const xee::service::ServiceOptions options;  // production defaults
  std::unique_ptr<EstimationService> svc;
  for (size_t round = 0; round < plan.rounds; ++round) {
    ReleaseCpus();
    svc.reset();
    svc = std::make_unique<EstimationService>(options);
    setup.push_back(SetupRegistered(*svc, datasets));
    const RoundStreams rs = plan.make_round(round);
    drv.Attach(svc.get());
    cpu = IsolateClient();
    drv.Singles(rs.warmup.data(), rs.warmup.size(), nullptr);
    RunWindows(drv, tracer.get(), rs.singles, plan.window, &wr);
    svc->DrainShadow();
    svc->DrainMaintenance();
    counters += ScrapeCounters(*svc);
    stream_hash = StreamHash(StreamHash(stream_hash, plan.texts, rs.warmup),
                             plan.texts, rs.singles);
    ReleaseCpus();
    RunBatches(drv, tracer.get(), rs.batches, plan.batches_per_window,
               &batch_qps);  // traced runs only: empty otherwise
    svc->DrainShadow();
  }

  // Every round builds the same synopses, so each served text has one
  // answer across the run, which must equal a direct estimate.
  std::vector<uint64_t> epochs;
  std::vector<const Synopsis*> by_ds;
  std::vector<SynopsisSnapshot> snaps;
  size_t bytes = 0;
  for (const Dataset& d : datasets) {
    snaps.push_back(*svc->registry().Snapshot(d.name));
    epochs.push_back(snaps.back().epoch);
    by_ds.push_back(snaps.back().synopsis.get());
    bytes += SynopsisBytes(*snaps.back().synopsis);
  }
  drv.VerifyDirect(by_ds, 1);
  Fingerprint(&out.report, stream_hash, counters, epochs, bytes);
  const xee::service::ServiceStatsSnapshot st = svc->Stats();
  char line[256];
  std::snprintf(line, sizeof(line),
                "{\"cache\":{\"plan_bytes\":%llu,\"plan_entries\":%llu,"
                "\"plan_evictions\":%llu,\"memo_bytes\":%llu,"
                "\"memo_entries\":%llu,\"memo_evictions\":%llu}}",
                static_cast<unsigned long long>(st.cache_bytes),
                static_cast<unsigned long long>(st.cache_entries),
                static_cast<unsigned long long>(st.cache_evictions),
                static_cast<unsigned long long>(st.memo_bytes),
                static_cast<unsigned long long>(st.memo_entries),
                static_cast<unsigned long long>(st.memo_evictions));
  out.report.Line(line);

  Report& r = out.report;
  // Before the quantile copies below, which are the benchmark's own.
  const double rss_mb = PeakRssMib();
  ProbeInput in;
  in.cfg = &cfg;
  in.svc = svc.get();
  in.datasets = &datasets;
  in.texts = &plan.texts;
  in.sample = drv.sample;
  in.tracer = tracer.get();
  out.mismatches += ProbeSidecarLayer(in, &r);  // the gate runs every run
  if (!cfg.trace) {
    r.Set("rss_mb", rss_mb, "MiB");
    ReportReads(wr.plain, &r);
    r.Set("rel_error", RelError(drv.served(), 1, plan.texts, datasets),
          "ratio");
    r.Set("setup_s", Median(setup), "s");
    r.Set("synopsis_bytes", static_cast<double>(bytes), "B");
  } else {
    ReportClientLayers(drv, wr, &r);
    ReportCounterRatios(ScrapeCounters(*svc), &r);
    r.Set("service.batch_qps", Median(batch_qps), "1/s");
    ProbeCommonLayers(in, &r);
    ProbeDeltaLayer(in, &r);
    ReportSpans(*tracer, &r);
  }
  r.Line("{\"pinned_cpu\":" + std::to_string(cpu) + "}");
  return out;
}

}  // namespace

Outcome RunHotFit(const Config& cfg) {
  const std::vector<Dataset> datasets = MakeDatasets({"ssplays", "dblp", "xmark"});
  StaticPlan plan;
  const std::vector<uint32_t> hot = HotTexts(datasets, &plan.texts);
  plan.rounds = 8;
  plan.window = 25'000;
  plan.batches_per_window = 32;
  const size_t singles = Scaled(cfg.seconds, 0.8, 650'000) / plan.rounds;
  const size_t batched =
      cfg.trace ? Scaled(cfg.seconds, 0.3, 650'000) / plan.rounds : 0;
  plan.make_round = [&, singles, batched](size_t round) {
    Rng rng = RoundRng(cfg.seed, 1, round);
    const ZipfPicker zipf(hot.size(), kZipfS, rng);
    RoundStreams rs;
    rs.warmup = hot;
    for (size_t i = 0; i < 20'000; ++i) rs.warmup.push_back(hot[zipf.Next(rng)]);
    for (size_t i = 0; i < singles; ++i) rs.singles.push_back(hot[zipf.Next(rng)]);
    for (size_t i = 0; i < batched; ++i) rs.batches.push_back(hot[zipf.Next(rng)]);
    return rs;
  };
  return RunStatic(cfg, datasets, plan);
}

Outcome RunZipfOverflow(const Config& cfg) {
  const std::vector<Dataset> datasets = MakeDatasets({"ssplays", "dblp", "xmark"});
  StaticPlan plan;
  // Every Section-7 query plus, per query, one syntactic and one
  // semantic respelling; a fixed share of requests uses them.
  Rng alias_rng = RoundRng(cfg.seed, 2, 0);
  std::vector<uint32_t> base_ids, alias_ids, semantic_ids;
  for (uint32_t d = 0; d < datasets.size(); ++d) {
    const Dataset& ds = datasets[d];
    const std::string root = ds.doc->TagName(ds.doc->root());
    for (uint32_t q = 0; q < ds.queries.size(); ++q) {
      const uint32_t base = plan.texts.Add(ds, d, q, ds.queries[q]);
      base_ids.push_back(base);
      const std::string a =
          xee::sim::TrafficSource::AliasSpelling(alias_rng, ds.queries[q]);
      alias_ids.push_back(a == ds.queries[q] ? base
                                             : plan.texts.Add(ds, d, q, a));
      const std::string s =
          xee::sim::TrafficSource::SemanticAliasSpelling(root, ds.queries[q]);
      semantic_ids.push_back(s == ds.queries[q] ? base
                                                : plan.texts.Add(ds, d, q, s));
    }
  }
  plan.rounds = 4;
  plan.window = 25'000;
  plan.batches_per_window = 32;
  const size_t singles = Scaled(cfg.seconds, 0.7, 400'000) / plan.rounds;
  const size_t batched =
      cfg.trace ? Scaled(cfg.seconds, 0.2, 300'000) / plan.rounds : 0;
  plan.make_round = [&, singles, batched](size_t round) {
    Rng rng = RoundRng(cfg.seed, 3, round);
    const ZipfPicker zipf(base_ids.size(), kZipfS, rng);
    auto draw = [&] {
      const size_t q = zipf.Next(rng);
      const double u = rng.UniformDouble();
      return u < 0.10 ? alias_ids[q] : u < 0.15 ? semantic_ids[q] : base_ids[q];
    };
    RoundStreams rs;
    for (size_t i = 0; i < 150'000; ++i) rs.warmup.push_back(draw());
    for (size_t i = 0; i < singles; ++i) rs.singles.push_back(draw());
    for (size_t i = 0; i < batched; ++i) rs.batches.push_back(draw());
    return rs;
  };
  return RunStatic(cfg, datasets, plan);
}

// --- live_churn -------------------------------------------------------------

namespace {

/// Reads between two deltas; writes are paced by request count only.
constexpr size_t kReadsPerDelta = 300;
/// Largest subtree a clone delta may copy (bounds document growth).
constexpr size_t kCloneCap = 48;
/// Periods per window (1,200 reads: 12 samples beyond the p99).
constexpr size_t kPeriodsPerWindow = 4;

}  // namespace

xee::Result<xee::delta::DeltaOp> NextClone(const EstimationService& svc,
                                           const std::string& name, Rng& rng) {
  xee::Result<xee::delta::DeltaOp> op =
      xee::Status(xee::StatusCode::kInternal, "no clone");
  for (int attempt = 0; attempt < 8; ++attempt) {
    const size_t nodes = svc.maintenance().LiveNodeCount(name);
    const auto rank = static_cast<uint32_t>(rng.UniformInt(1, nodes - 1));
    op = svc.maintenance().CloneOp(name, rank);
    if (op.ok() && op.value().subtree.size() <= kCloneCap) break;
  }
  return op;
}

Outcome RunLiveChurn(const Config& cfg) {
  Outcome out;
  const std::vector<Dataset> datasets = MakeDatasets({"xmark"});
  const Dataset& xm = datasets[0];
  Texts texts;
  std::vector<uint32_t> ids;
  for (uint32_t q = 0; q < xm.queries.size(); ++q) {
    ids.push_back(texts.Add(xm, 0, q, xm.queries[q]));
  }
  std::unique_ptr<Tracer> tracer;
  if (cfg.trace) tracer = std::make_unique<Tracer>(kTracerCapacity);
  Client drv(&texts, tracer.get(), &out);

  constexpr size_t kRounds = 4;
  const size_t warm_periods = 5;
  const size_t single_periods = Scaled(cfg.seconds, 0.85, 30) / kRounds;
  const size_t batch_periods =
      cfg.trace ? Scaled(cfg.seconds, 0.3, 40) / kRounds : 0;
  LatencyLog reads_plain, reads_traced, writes;
  std::vector<double> batch_qps_windows, setup, rel_errors, final_bytes;
  uint64_t deltas_failed = 0, histos_rebuilt = 0, deltas = 0;
  uint64_t stream_hash = kFnvBasis;
  ServiceCounters counters;
  std::vector<uint64_t> epochs;
  std::vector<uint32_t> period(kReadsPerDelta);
  std::unique_ptr<EstimationService> svc;
  int cpu = -1;
  const xee::service::ServiceOptions options;  // production defaults
  for (size_t round = 0; round < kRounds; ++round) {
    Rng rng = RoundRng(cfg.seed, 4, round);
    const ZipfPicker zipf(ids.size(), kZipfS, rng);
    ReleaseCpus();
    svc.reset();
    svc = std::make_unique<EstimationService>(options);
    xee::xml::Document doc = xee::datagen::GenerateByName("xmark", {}).value();
    uint64_t t0 = NowNs();
    svc->RegisterLive(xm.name, std::move(doc));
    setup.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    drv.Attach(svc.get());
    cpu = IsolateClient();

    // Standalone replica of the live document for the traced run's
    // delta replay: it receives the same ops as the service.
    std::unique_ptr<xee::delta::LiveDocument> replica_doc;
    std::unique_ptr<xee::delta::LiveSynopsis> replica;
    if (cfg.trace) {
      replica_doc = std::make_unique<xee::delta::LiveDocument>(
          xee::datagen::GenerateByName("xmark", {}).value());
      replica = std::make_unique<xee::delta::LiveSynopsis>(
          std::make_shared<const Synopsis>(
              Synopsis::Build(replica_doc->doc(), {})),
          replica_doc.get(), xee::delta::PatchOptions{});
    }

    uint64_t window_ns = 0, batch_ns = 0;
    size_t window_reads = 0, batch_reads = 0;
    const size_t total = warm_periods + single_periods + batch_periods;
    for (size_t p = 0; p < total; ++p) {
      const bool warm = p < warm_periods;
      const bool batch_phase = p >= warm_periods + single_periods;
      if (p == warm_periods + single_periods) {
        svc->DrainShadow();
        svc->DrainMaintenance();
        counters += ScrapeCounters(*svc);
        ReleaseCpus();
      }
      const bool traced = tracer != nullptr && !warm && p % 2 == 1;
      if (tracer != nullptr) tracer->set_enabled(traced);
      for (uint32_t& id : period) {
        id = ids[zipf.Next(rng)];
        if (!batch_phase) stream_hash = FnvU64(stream_hash, id);
      }
      drv.epoch_tag = static_cast<uint32_t>(round * 100'000 + p + 1);
      uint64_t read_ns = 0;
      if (batch_phase) {
        for (size_t pos = 0; pos < period.size(); pos += kBatch) {
          const size_t n = std::min(kBatch, period.size() - pos);
          read_ns += drv.Batch(period.data() + pos, n);
        }
      } else {
        read_ns = drv.Singles(
            period.data(), period.size(),
            warm ? nullptr : traced ? &reads_traced : &reads_plain);
      }
      // Correctness gate for this epoch, before the next delta lands.
      {
        const auto snap = svc->registry().Snapshot(xm.name);
        drv.VerifyDirect({snap->synopsis.get()}, drv.epoch_tag);
      }
      xee::Result<xee::delta::DeltaOp> op = NextClone(*svc, xm.name, rng);
      ++deltas;
      uint64_t write_ns = 0;
      if (!op.ok()) {
        ++deltas_failed;
      } else {
        xee::delta::DocumentDelta d;
        d.ops.push_back(op.value());
        const uint32_t rid = tracer != nullptr ? tracer->NextRequestId() : 0;
        const uint32_t span =
            traced ? tracer->Begin("service.apply_delta", Tracer::kNoParent, rid)
                   : Tracer::kDropped;
        t0 = NowNs();
        const auto applied = svc->ApplyDelta(xm.name, d);
        write_ns = NowNs() - t0;
        if (traced) tracer->End(span);
        if (!applied.ok()) {
          ++deltas_failed;
        } else {
          histos_rebuilt += applied.value().apply.histos_rebuilt;
        }
        if (!warm) writes.ns.push_back(static_cast<uint32_t>(write_ns));
        if (replica != nullptr) {
          // The same op on the replica, outside every timed interval.
          const bool was = tracer->enabled();
          tracer->set_enabled(true);
          {
            ScopedSpan s(tracer.get(), "delta.patch", span, rid);
            (void)replica->Apply(d);
          }
          {
            ScopedSpan s(tracer.get(), "delta.materialize", span, rid);
            (void)replica_doc->Materialize();
          }
          tracer->set_enabled(was);
        }
      }
      if (warm) continue;
      if (batch_phase) {
        batch_ns += read_ns;
        batch_reads += period.size();
        if ((p - warm_periods - single_periods + 1) % kPeriodsPerWindow == 0) {
          batch_qps_windows.push_back(static_cast<double>(batch_reads) * 1e9 /
                                      static_cast<double>(batch_ns));
          batch_ns = 0;
          batch_reads = 0;
        }
      } else if (traced) {
        reads_traced.CloseWindow(period.size(), read_ns + write_ns);
      } else {
        // Reads per second of the closed loop, paced writes included.
        window_ns += read_ns + write_ns;
        window_reads += period.size();
        if (window_reads >= kPeriodsPerWindow * kReadsPerDelta) {
          reads_plain.CloseWindow(window_reads, window_ns);
          window_ns = 0;
          window_reads = 0;
        }
      }
    }
    if (tracer != nullptr) tracer->set_enabled(false);
    svc->DrainShadow();
    svc->DrainMaintenance();
    if (batch_periods == 0) counters += ScrapeCounters(*svc);

    // Final epoch: the patched synopsis must equal a scratch build of the
    // final materialized document on every query (clone-only deltas), and
    // the relative error is taken against that document's exact counts.
    const auto fin = svc->registry().Snapshot(xm.name);
    const Synopsis scratch = Synopsis::Build(*fin->truth->document, {});
    double rel_sum = 0;
    size_t rel_n = 0;
    for (uint32_t q = 0; q < xm.queries.size(); ++q) {
      const auto patched = DirectEstimate(*fin->synopsis, xm.queries[q]);
      const auto rebuilt = DirectEstimate(scratch, xm.queries[q]);
      if (patched.ok() != rebuilt.ok() ||
          (patched.ok() && !SameBits(patched.value(), rebuilt.value()))) {
        ++out.mismatches;
      }
      if (cfg.trace || !patched.ok()) continue;
      const auto parsed = xee::xpath::ParseXPath(xm.queries[q]);
      const auto truth = fin->truth->evaluator.Count(parsed.value());
      if (!truth.ok() || truth.value() == 0) continue;
      const double tv = static_cast<double>(truth.value());
      rel_sum += std::fabs(patched.value() - tv) / tv;
      ++rel_n;
    }
    rel_errors.push_back(rel_n == 0 ? 0.0 : rel_sum / static_cast<double>(rel_n));
    final_bytes.push_back(static_cast<double>(SynopsisBytes(*fin->synopsis)));
    epochs.push_back(fin->epoch);
  }
  out.attempted += deltas;
  out.failed += deltas_failed;
  ReleaseCpus();

  double bytes_mean = 0;
  for (double b : final_bytes) bytes_mean += b / static_cast<double>(kRounds);
  Fingerprint(&out.report, stream_hash, counters, epochs,
              static_cast<size_t>(final_bytes.back()));
  Report& r = out.report;
  const double rss_mb = PeakRssMib();
  ProbeInput in;
  in.cfg = &cfg;
  in.svc = svc.get();
  in.datasets = &datasets;
  in.texts = &texts;
  in.sample = drv.sample;
  in.tracer = tracer.get();
  out.mismatches += ProbeSidecarLayer(in, &r);  // the gate runs every run
  if (!cfg.trace) {
    r.Set("rss_mb", rss_mb, "MiB");
    ReportReads(reads_plain, &r);
    double rel = 0;
    for (double e : rel_errors) rel += e / static_cast<double>(kRounds);
    r.Set("rel_error", rel, "ratio");
    r.Set("setup_s", Median(setup), "s");
    r.Set("synopsis_bytes", bytes_mean, "B");
    std::vector<double> w(writes.ns.begin(), writes.ns.end());
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "{\"writes\":%zu,\"write_p50_ms\":%.4f,\"write_p90_ms\":%.4f}",
                  w.size(), Quantile(w, 0.5) / 1e6, Quantile(w, 0.9) / 1e6);
    r.Line(buf);
  } else {
    WindowedResult wr{reads_plain, reads_traced};
    ReportClientLayers(drv, wr, &r);
    ReportCounterRatios(ScrapeCounters(*svc), &r);
    r.Set("service.batch_qps", Median(batch_qps_windows), "1/s");
    r.Set("delta.histos_rebuilt",
          static_cast<double>(histos_rebuilt) /
              static_cast<double>(std::max<uint64_t>(1, deltas)),
          "count/delta");
    ProbeCommonLayers(in, &r);
    ReportSpans(*tracer, &r);
  }
  r.Line("{\"pinned_cpu\":" + std::to_string(cpu) + "}");
  return out;
}

}  // namespace xeebench
