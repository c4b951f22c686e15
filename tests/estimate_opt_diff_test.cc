// Differential suite for the answer cache (DESIGN.md §13): whatever
// path serves a request — a miss, an exact-string hit, a canonical hit
// through another spelling, an alias that outlived its canonical entry —
// the served number must be *bitwise* equal to Estimator::Estimate on
// the request's own parse. Not approximately, not within epsilon.
//
//  - The workload (every query class the generator produces) and the
//    paper's running example, cold and warm.
//  - A starved 4 KiB budget under a 3-spelling alias storm, so entries
//    are evicted constantly and aliases outlive their canonical entries.
//  - An epoch bump: answers cached against the old synopsis must never
//    leak through.
//  - A 4-thread EstimateBatch slice (the TSan/ASan builds turn races and
//    use-after-free on shared answers into failures).
//  - A bench-regression slice pins stage-histogram sample counts stable
//    across identically configured runs (the bug where per-mode stage
//    rows drifted 56 vs 58 came from cumulative scrapes + a parked
//    sampling cursor).
//
// Everything here compiles in both obs modes; under XEE_OBS_OFF the
// counter and stage-count checks are skipped or degenerate to comparing
// empty snapshots.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datagen/datagen.h"
#include "estimator/estimator.h"
#include "obs/window.h"
#include "paper_fixture.h"
#include "service/service.h"
#include "sim/traffic.h"
#include "workload/workload.h"
#include "xpath/canonical.h"
#include "xpath/parser.h"

namespace xee {
namespace {

using SynopsisPtr = std::shared_ptr<const estimator::Synopsis>;

// Bitwise equality of value-or-status results: equal doubles (by ==,
// i.e. identical reals — both paths must do the same arithmetic in the
// same order) or equal error codes.
void ExpectSameResult(const Result<double>& a, const Result<double>& b,
                      const std::string& what) {
  ASSERT_EQ(a.ok(), b.ok()) << what << ": " << (a.ok() ? b : a).status().ToString();
  if (a.ok()) {
    EXPECT_EQ(a.value(), b.value()) << what;
  } else {
    EXPECT_EQ(a.status().code(), b.status().code()) << what;
  }
}

// The unserved reference: the estimator on the request text's own parse.
Result<double> Reference(const estimator::Synopsis& syn,
                         const std::string& text) {
  Result<xpath::Query> q = xpath::ParseXPath(xpath::StripWhitespace(text));
  if (!q.ok()) return q.status();
  return estimator::Estimator(syn).Estimate(q.value());
}

struct Corpus {
  xml::Document doc;
  std::vector<std::string> queries;
};

// A small datagen document plus every workload class (simple chains,
// branches, both order-query families) — the Table 2 protocol at test
// scale.
const Corpus& SharedCorpus() {
  static const Corpus* corpus = [] {
    auto* c = new Corpus;
    datagen::GenOptions gopt;
    gopt.scale = 0.03;
    c->doc = datagen::GenerateByName("ssplays", gopt).value();
    workload::WorkloadOptions wopt;
    wopt.simple_count = 60;
    wopt.branch_count = 60;
    const workload::Workload w = workload::GenerateWorkload(c->doc, wopt);
    for (const auto* list : {&w.simple, &w.branch, &w.order_branch_target,
                             &w.order_trunk_target}) {
      for (const workload::WorkloadQuery& wq : *list) {
        c->queries.push_back(wq.query.ToString());
      }
    }
    return c;
  }();
  return *corpus;
}

std::vector<service::QueryRequest> Requests(
    const std::string& name, const std::vector<std::string>& queries) {
  std::vector<service::QueryRequest> reqs;
  for (const std::string& q : queries) {
    reqs.push_back(service::QueryRequest{name, q});
  }
  return reqs;
}

// Every outcome against the reference on `syn`; full-fidelity answers
// only (the synopses here carry order statistics and no deadline runs).
void ExpectServedMatchesEstimate(
    const estimator::Synopsis& syn,
    const std::vector<service::QueryRequest>& reqs,
    const std::vector<service::EstimateOutcome>& served, const char* what) {
  ASSERT_EQ(reqs.size(), served.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    const std::string label = std::string(what) + ": " + reqs[i].xpath;
    ExpectSameResult(served[i].estimate, Reference(syn, reqs[i].xpath), label);
    EXPECT_FALSE(served[i].degraded) << label;
  }
}

std::vector<service::EstimateOutcome> RunAll(
    service::EstimationService& svc,
    const std::vector<service::QueryRequest>& reqs) {
  std::vector<service::EstimateOutcome> out;
  out.reserve(reqs.size());
  for (const service::QueryRequest& r : reqs) out.push_back(svc.Estimate(r));
  return out;
}

void CheckColdAndWarm(const SynopsisPtr& syn,
                      const std::vector<std::string>& queries) {
  service::EstimationService svc({.threads = 1});
  svc.registry().Register("d", syn);
  const std::vector<service::QueryRequest> reqs = Requests("d", queries);
  ExpectServedMatchesEstimate(*syn, reqs, RunAll(svc, reqs), "cold");
  ExpectServedMatchesEstimate(*syn, reqs, RunAll(svc, reqs), "warm");
#ifndef XEE_OBS_OFF
  // The warm pass was served from the cache, or this suite is vacuous.
  EXPECT_GE(svc.Stats().exact_hits, reqs.size());
#endif
}

TEST(EstimateOptDiff, ServedMatchesEstimateOnWorkload) {
  const Corpus& c = SharedCorpus();
  ASSERT_GT(c.queries.size(), 50u);
  CheckColdAndWarm(std::make_shared<const estimator::Synopsis>(
                       estimator::Synopsis::Build(c.doc, {})),
                   c.queries);
}

TEST(EstimateOptDiff, ServedMatchesEstimateOnPaperExample) {
  std::vector<std::string> queries;
  for (const char* s :
       {"/Root/A/B", "/Root/A/B/D", "//B/D", "//A//E", "//A[/C/F]/B/D",
        "//A[/B[/D]/E]", "//A/C/preceding-sibling::B",
        "//A[/C/following-sibling::B/D]", "//A[/C/following::D]",
        "/A[.=\"x\"]", "//A/*/following-sibling::C"}) {
    if (xpath::ParseXPath(s).ok()) queries.push_back(s);
  }
  ASSERT_GT(queries.size(), 6u);
  CheckColdAndWarm(std::make_shared<const estimator::Synopsis>(
                       estimator::Synopsis::Build(
                           testing::MakePaperDocument(), {})),
                   queries);
}

// Up to three distinct exact keys per query: itself, an axis-expanded
// alias (same canonical key) and the root-anchored form (a different
// canonical key that only the analyzer's rewrites reunite). Each group
// is followed by a repeat of the group `lag` queries back, so under a
// small budget some repeats land after their canonical entry was
// evicted but while their aliases, inserted later, still serve.
std::vector<std::string> AliasStorm(const std::vector<std::string>& queries,
                                    const std::string& root_name,
                                    size_t lag) {
  Rng rng(0x5707u);
  std::vector<std::vector<std::string>> groups;
  std::vector<std::string> storm;
  for (const std::string& q : queries) {
    groups.push_back({q, sim::TrafficSource::AliasSpelling(rng, q),
                      sim::TrafficSource::SemanticAliasSpelling(root_name, q)});
    storm.insert(storm.end(), groups.back().begin(), groups.back().end());
    if (groups.size() > lag) {
      const std::vector<std::string>& back = groups[groups.size() - 1 - lag];
      storm.insert(storm.end(), back.rbegin(), back.rend());
    }
  }
  return storm;
}

TEST(EstimateOptDiff, StarvedAliasStormMatchesEstimate) {
  const Corpus& c = SharedCorpus();
  auto syn = std::make_shared<const estimator::Synopsis>(
      estimator::Synopsis::Build(c.doc, {}));
  const std::string root = c.doc.TagNameOf(c.doc.Tag(c.doc.root()));

  // 4 KiB in one shard holds a dozen or so answers, so the lags sweep
  // the eviction boundary: canonical entries die while the aliases
  // inserted after them still serve.
  service::EstimationService svc(
      {.plan_cache_bytes = 4 << 10, .cache_shards = 1, .threads = 1});
  svc.registry().Register("d", syn);
  for (size_t lag : {1, 2, 3, 4, 6}) {
    const std::vector<service::QueryRequest> reqs =
        Requests("d", AliasStorm(c.queries, root, lag));
    ExpectServedMatchesEstimate(*syn, reqs, RunAll(svc, reqs), "storm");
  }
#ifndef XEE_OBS_OFF
  const service::ServiceStatsSnapshot s = svc.Stats();
  EXPECT_GT(s.cache_evictions, c.queries.size());
  EXPECT_GT(s.exact_hits, 0u);
  EXPECT_GT(s.canonical_hits, 0u);
  EXPECT_LE(s.cache_bytes, 2 * (4u << 10));  // budget held, one entry slack
#endif
}

TEST(EstimateOptDiff, EpochBumpNeverServesStaleMemoEntries) {
  const Corpus& c = SharedCorpus();
  auto syn_a = std::make_shared<const estimator::Synopsis>(
      estimator::Synopsis::Build(c.doc, {}));
  // A structurally different second synopsis: same document, coarser
  // histograms — estimates genuinely differ, so a stale hit would show.
  estimator::SynopsisOptions coarse;
  coarse.p_variance = 1e9;
  coarse.o_variance = 1e9;
  auto syn_b = std::make_shared<const estimator::Synopsis>(
      estimator::Synopsis::Build(c.doc, coarse));
  const std::vector<service::QueryRequest> reqs = Requests("d", c.queries);

  service::EstimationService svc({.threads = 1});
  svc.registry().Register("d", syn_a);
  ExpectServedMatchesEstimate(*syn_a, reqs, RunAll(svc, reqs), "epoch 1");
  svc.registry().Register("d", syn_b);  // epoch bump
  ExpectServedMatchesEstimate(*syn_b, reqs, RunAll(svc, reqs), "epoch 2");
  ExpectServedMatchesEstimate(*syn_b, reqs, RunAll(svc, reqs), "epoch 2 warm");
}

TEST(EstimateOptDiff, ConcurrentBatchesShareTheMemoRaceFree) {
  const Corpus& c = SharedCorpus();
  auto syn = std::make_shared<const estimator::Synopsis>(
      estimator::Synopsis::Build(c.doc, {}));
  const std::vector<service::QueryRequest> reqs = Requests(
      "d",
      AliasStorm(c.queries, c.doc.TagNameOf(c.doc.Tag(c.doc.root())), 8));

  // A small budget keeps evictions racing the hits on shared answers.
  service::EstimationService svc({.plan_cache_bytes = 16 << 10, .threads = 4});
  svc.registry().Register("d", syn);
  for (int round = 0; round < 4; ++round) {
    if (round == 2) svc.registry().Register("d", syn);  // epoch bump mid-run
    ExpectServedMatchesEstimate(*syn, reqs, svc.EstimateBatch(reqs), "batch");
  }
#ifndef XEE_OBS_OFF
  EXPECT_GT(svc.Stats().exact_hits + svc.Stats().canonical_hits, 0u);
#endif
}

// --- bench stage-row regression --------------------------------------

// With trace_sample=1 and delta scraping, two identically configured
// runs must time exactly the same number of stage executions: the stage
// rows the throughput bench emits are counts, not samples, and may not
// drift between repeats or depend on warm-up leftovers.
TEST(EstimateOptDiff, StageSampleCountsAreStableAcrossIdenticalRuns) {
  const Corpus& c = SharedCorpus();
  auto syn = std::make_shared<const estimator::Synopsis>(
      estimator::Synopsis::Build(c.doc, {}));
  const std::vector<service::QueryRequest> reqs = Requests("d", c.queries);

  auto measure = [&]() -> std::vector<uint64_t> {
    service::ServiceOptions opt;
    opt.threads = 1;
    opt.trace_sample = 1;
    opt.accuracy_sample = 0;
    service::EstimationService svc(opt);
    svc.registry().Register("d", syn);
    (void)RunAll(svc, reqs);  // warm-up pass
    std::vector<obs::HistogramWindow> wins(obs::kStageCount);
    std::vector<obs::Histogram*> hists;
    for (size_t i = 0; i < obs::kStageCount; ++i) {
      hists.push_back(&svc.obs().GetHistogram(
          "service.stage." +
          std::string(obs::StageName(static_cast<obs::Stage>(i))) + "_ns"));
      (void)wins[i].Advance(*hists[i]);  // park the cursor post-warm-up
    }
    (void)RunAll(svc, reqs);  // measured pass
    std::vector<uint64_t> counts;
    for (size_t i = 0; i < obs::kStageCount; ++i) {
      counts.push_back(wins[i].Advance(*hists[i]).count);
    }
    return counts;
  };

  const std::vector<uint64_t> first = measure();
  const std::vector<uint64_t> second = measure();
  EXPECT_EQ(first, second);
#ifndef XEE_OBS_OFF
  // The measured warm pass is probe-only: parse and estimate must not
  // appear (their presence would mean warm-up samples leaked into the
  // window).
  EXPECT_EQ(first[static_cast<size_t>(obs::Stage::kParse)], 0u);
  EXPECT_EQ(first[static_cast<size_t>(obs::Stage::kEstimate)], 0u);
  EXPECT_EQ(first[static_cast<size_t>(obs::Stage::kCacheLookup)],
            reqs.size());
#endif
}

}  // namespace
}  // namespace xee
