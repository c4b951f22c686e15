#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/fault.h"
#include "common/rng.h"
#include "common/strings.h"
#include "delta/document_delta.h"
#include "delta/live_synopsis.h"
#include "estimator/estimator.h"
#include "estimator/synopsis.h"
#include "fuzz/delta_gen.h"
#include "fuzz/fuzz.h"
#include "xml/tree.h"
#include "xpath/parser.h"
#include "xpath/query.h"

namespace xee::fuzz {

/// A small random document whose tag alphabet is partitioned by depth
/// (level-1 tags never appear at level 2, and so on), so every document
/// — and every document reachable from it by clone inserts, novel-tag
/// inserts and deletes — is recursion-free. That keeps the exact
/// synopsis exact (Theorem 4.1), which the differential oracles lean
/// on: with zero charged patch error the incremental synopsis must be
/// bit-identical to a scratch rebuild, with charged error the estimate
/// gap must stay inside the accounted bound.
xml::Document RandomDeltaDocument(Rng& rng) {
  static const char* const kL1[] = {"A", "G"};
  static const char* const kL2[] = {"B", "C"};
  static const char* const kL3[] = {"D", "E", "F"};
  static const char* const kText[] = {"x", "y", "z", "w"};
  xml::Document doc;
  const xml::NodeId root = doc.CreateRoot("Root");
  const size_t n1 = rng.UniformInt(2, 4);
  for (size_t i = 0; i < n1; ++i) {
    const xml::NodeId a = doc.AppendChild(root, kL1[rng.Index(2)]);
    const size_t n2 = rng.UniformInt(1, 3);
    for (size_t j = 0; j < n2; ++j) {
      const xml::NodeId b = doc.AppendChild(a, kL2[rng.Index(2)]);
      const size_t n3 = rng.UniformInt(0, 3);
      for (size_t k = 0; k < n3; ++k) {
        const xml::NodeId leaf = doc.AppendChild(b, kL3[rng.Index(3)]);
        if (rng.Bernoulli(0.6)) doc.AppendText(leaf, kText[rng.Index(4)]);
      }
    }
  }
  doc.Finalize();
  return doc;
}

/// A chain of 1..3 never-seen tags under a random live node — the
/// not-exactly-patchable case that must charge the error budget.
delta::DeltaOp MakeNovelOp(Rng& rng, size_t live_nodes,
                           uint64_t* novel_counter) {
  delta::DeltaOp op;
  op.kind = delta::DeltaOp::Kind::kInsert;
  op.target = static_cast<uint32_t>(rng.UniformInt(0, live_nodes - 1));
  const size_t len = rng.UniformInt(1, 3);
  for (size_t k = 0; k < len; ++k) {
    op.subtree.tags.push_back(
        StrFormat("N%llu", static_cast<unsigned long long>((*novel_counter)++)));
    op.subtree.parent.push_back(static_cast<int32_t>(k) - 1);
  }
  return op;
}

delta::DeltaOp MakeDeleteOp(Rng& rng, size_t live_nodes) {
  delta::DeltaOp op;
  op.kind = delta::DeltaOp::Kind::kDelete;
  op.target = static_cast<uint32_t>(rng.UniformInt(1, live_nodes - 1));
  return op;
}

delta::DeltaOp MakeMixedOp(Rng& rng, const delta::LiveDocument& live,
                           uint64_t* novel_counter) {
  const double r = rng.UniformDouble();
  const size_t nodes = live.live_nodes();
  if (r < 0.5 && nodes >= 2) {
    return delta::CloneSubtreeOp(
        live, static_cast<uint32_t>(rng.UniformInt(1, nodes - 1)));
  }
  if (r < 0.8 || nodes < 4) return MakeNovelOp(rng, nodes, novel_counter);
  return MakeDeleteOp(rng, nodes);
}

namespace {

Finding DeltaFinding(const char* oracle, std::string detail,
                     std::string input) {
  Finding f;
  f.generator = "delta";
  f.oracle = oracle;
  f.detail = std::move(detail);
  f.input = std::move(input);
  return f;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

std::string OpLogEntry(const delta::DeltaOp& op) {
  if (op.kind == delta::DeltaOp::Kind::kDelete) {
    return StrFormat("del@%u", op.target);
  }
  return StrFormat("%s@%u", op.subtree.tags.empty() ? "ins"
                            : op.subtree.tags[0][0] == 'N' ? "novel"
                                                           : "clone",
                   op.target);
}

/// Probe queries over the level-tag alphabet, covering plain chains,
/// '//', branch predicates and an order axis. Unknown-in-this-document
/// tags estimate 0 on both sides, which is itself part of the oracle.
const std::vector<xpath::Query>& ProbeQueries() {
  static const std::vector<xpath::Query>* probes = [] {
    static const char* const kProbes[] = {
        "//A",      "//A/B",    "//B/D", "//C//E",
        "/Root/A",  "//A[B]",   "//A[//D]",
        "//A/B/following-sibling::C"};
    auto* v = new std::vector<xpath::Query>;
    for (const char* p : kProbes) {
      auto q = xpath::ParseXPath(p);
      XEE_CHECK(q.ok());
      v->push_back(std::move(q).value());
    }
    return v;
  }();
  return *probes;
}

/// One incremental/scratch state pair under test.
struct LiveBed {
  std::unique_ptr<delta::LiveDocument> live;
  std::unique_ptr<delta::LiveSynopsis> syn;
  estimator::SynopsisOptions build;
  std::shared_ptr<const estimator::Synopsis> latest;  // last published clone
  double cumulative_charge = 0;  // node units since the last (re)base
  std::string op_log;            // reproducer trail

  LiveBed(xml::Document doc, const delta::PatchOptions& patch) {
    build = patch.build;
    live = std::make_unique<delta::LiveDocument>(std::move(doc));
    latest = std::make_shared<const estimator::Synopsis>(
        estimator::Synopsis::Build(live->doc(), build));
    syn = std::make_unique<delta::LiveSynopsis>(latest, live.get(), patch);
  }
};

}  // namespace

Report Harness::RunDeltaFuzz(const FuzzOptions& options) const {
  Report rep;
  FaultInjector& faults = FaultInjector::Global();
  faults.Reset();

  Rng master(options.seed);
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng it = master.Split();
    uint64_t novel_counter = 0;

    // Compares the incremental synopsis against a scratch rebuild of
    // the current materialized shape: bitwise when nothing has been
    // charged, estimate-gap-within-accounted-error otherwise.
    auto check_against_scratch = [&](LiveBed& bed, const char* battery) {
      const xml::Document mat = bed.live->Materialize();
      const estimator::Synopsis scratch =
          estimator::Synopsis::Build(mat, bed.build);
      const std::string input =
          StrFormat("seed=%llu iter=%zu battery=%s ops=[%s]",
                    static_cast<unsigned long long>(options.seed), i, battery,
                    bed.op_log.c_str());
      if (bed.cumulative_charge == 0) {
        ++rep.roundtrips_checked;
        const std::string bp = bed.latest->Serialize();
        const std::string bs = scratch.Serialize();
        if (bp != bs) {
          size_t off = 0;
          while (off < bp.size() && off < bs.size() && bp[off] == bs[off]) {
            ++off;
          }
          std::string tags;
          for (xml::TagId t = 0; t < bed.latest->TagCount(); ++t) {
            const size_t pp = bed.latest->PHisto(t).buckets().size();
            const size_t ps = scratch.PHisto(t).buckets().size();
            const size_t op2 = bed.latest->OHisto(t).buckets().size();
            const size_t os = scratch.OHisto(t).buckets().size();
            if (pp != ps || op2 != os) {
              tags += StrFormat(" %s:p%zu/%zu,o%zu/%zu",
                                bed.latest->TagName(t).c_str(), pp, ps, op2,
                                os);
            }
          }
          rep.findings.push_back(DeltaFinding(
              "exact-bitwise",
              StrFormat("zero charged error but patched synopsis differs "
                        "from scratch rebuild (%zu live nodes; blobs %zu vs "
                        "%zu bytes, first diff at %zu; buckets%s)",
                        bed.live->live_nodes(), bp.size(), bs.size(), off,
                        tags.c_str()),
              input));
          return;
        }
      }
      estimator::Estimator inc(*bed.latest);
      estimator::Estimator scr(scratch);
      for (const xpath::Query& q : ProbeQueries()) {
        auto ei = inc.Estimate(q);
        auto es = scr.Estimate(q);
        ++rep.estimates_checked;
        if (ei.ok() != es.ok()) {
          rep.findings.push_back(DeltaFinding(
              "probe-status",
              StrFormat("incremental=%s scratch=%s",
                        ei.status().ToString().c_str(),
                        es.status().ToString().c_str()),
              input));
          continue;
        }
        if (!ei.ok()) continue;
        const double vi = ei.value();
        const double vs = es.value();
        if (!(vi >= 0) || !(vs >= 0) || vi != vi || vs != vs) {
          rep.findings.push_back(DeltaFinding(
              "probe-finite",
              StrFormat("incremental=%.17g scratch=%.17g", vi, vs), input));
          continue;
        }
        if (bed.cumulative_charge == 0) {
          if (!SameBits(vi, vs)) {
            rep.findings.push_back(DeltaFinding(
                "probe-bitwise",
                StrFormat("zero charged error but incremental=%.17g "
                          "scratch=%.17g",
                          vi, vs),
                input));
          }
        } else if (vi > vs + 2 * bed.cumulative_charge + 1e-6 ||
                   vs > vi + 2 * bed.cumulative_charge + 1e-6) {
          rep.findings.push_back(DeltaFinding(
              "probe-bound",
              StrFormat("incremental=%.17g scratch=%.17g exceeds accounted "
                        "charge %.17g",
                        vi, vs, bed.cumulative_charge),
              input));
        }
      }
    };

    auto apply = [&](LiveBed& bed, delta::DocumentDelta batch,
                     const char* battery,
                     delta::ApplyResult* out = nullptr) -> bool {
      for (const delta::DeltaOp& op : batch.ops) {
        if (!bed.op_log.empty()) bed.op_log += ',';
        bed.op_log += OpLogEntry(op);
      }
      auto res = bed.syn->Apply(batch);
      const std::string input =
          StrFormat("seed=%llu iter=%zu battery=%s ops=[%s]",
                    static_cast<unsigned long long>(options.seed), i, battery,
                    bed.op_log.c_str());
      if (!res.ok()) {
        ++rep.parse_rejected;
        rep.findings.push_back(DeltaFinding(
            "apply-status",
            StrFormat("valid batch rejected: %s",
                      res.status().ToString().c_str()),
            input));
        return false;
      }
      ++rep.parse_ok;
      delta::ApplyResult last = std::move(res).value();
      if (last.ops_applied + last.ops_skipped != batch.ops.size()) {
        rep.findings.push_back(DeltaFinding(
            "op-conservation",
            StrFormat("applied %llu + skipped %llu != batch size %zu",
                      static_cast<unsigned long long>(last.ops_applied),
                      static_cast<unsigned long long>(last.ops_skipped),
                      batch.ops.size()),
            input));
      }
      if (last.patch_error + 1e-12 < bed.syn->patch_error() ||
          bed.syn->patch_error() + 1e-12 < last.patch_error) {
        rep.findings.push_back(DeltaFinding(
            "error-accounting",
            StrFormat("result patch_error %.17g != synopsis patch_error %.17g",
                      last.patch_error, bed.syn->patch_error()),
            input));
      }
      bed.cumulative_charge += last.charged_nodes;
      bed.latest = last.synopsis;
      if (out != nullptr) *out = std::move(last);
      return true;
    };

    // Battery A (strict): clone-only streams are exactly patchable —
    // zero charge and a bit-identical synopsis after every batch.
    {
      delta::PatchOptions patch;
      patch.error_budget = 1e9;  // exactness must not depend on the budget
      LiveBed bed(RandomDeltaDocument(it), patch);
      const size_t batches = it.UniformInt(1, 3);
      for (size_t b = 0; b < batches; ++b) {
        delta::DocumentDelta batch;
        const size_t n = it.UniformInt(1, 2);
        for (size_t o = 0; o < n; ++o) {
          batch.ops.push_back(delta::CloneSubtreeOp(
              *bed.live,
              static_cast<uint32_t>(it.UniformInt(1, bed.live->live_nodes() - 1))));
        }
        delta::ApplyResult res;
        if (!apply(bed, std::move(batch), "A", &res)) break;
        if (res.charged_nodes != 0) {
          rep.findings.push_back(DeltaFinding(
              "clone-charged",
              StrFormat("sibling clone charged %.17g nodes",
                        res.charged_nodes),
              StrFormat("seed=%llu iter=%zu battery=A ops=[%s]",
                        static_cast<unsigned long long>(options.seed), i,
                        bed.op_log.c_str())));
        }
        check_against_scratch(bed, "A");
      }
    }

    // Battery B (tolerant): mixed clone/novel/delete streams; charged
    // error stays accounted and bounds the estimate gap. Battery C
    // rides on the end state: rebuild from scratch, compact, re-base,
    // and the next clone must be exact again. Battery D closes with the
    // armed delta.corrupt fault: the batch is rejected cleanly.
    {
      delta::PatchOptions patch;
      patch.error_budget = 0.5;
      patch.histo_patch_tolerance = it.Bernoulli(0.5) ? 0.0 : 0.25;
      patch.build.build_values = !it.Bernoulli(0.25);
      LiveBed bed(RandomDeltaDocument(it), patch);
      const size_t batches = it.UniformInt(2, 3);
      bool live_ok = true;
      for (size_t b = 0; b < batches && live_ok; ++b) {
        delta::DocumentDelta batch;
        const size_t n = it.UniformInt(1, 3);
        for (size_t o = 0; o < n; ++o) {
          batch.ops.push_back(MakeMixedOp(it, *bed.live, &novel_counter));
        }
        live_ok = apply(bed, std::move(batch), "B");
        if (live_ok) check_against_scratch(bed, "B");
      }

      // A delete-heavy stream can shrink the document to its root, in
      // which case there is nothing left to clone in C/D.
      if (live_ok && bed.live->live_nodes() >= 2) {
        // Battery C: the rebuild path. Materialize, build from scratch,
        // compact the arena and re-base — the budget resets and clone
        // exactness must hold again on the rebuilt base.
        xml::Document mat = bed.live->Materialize();
        auto rebuilt = std::make_shared<const estimator::Synopsis>(
            estimator::Synopsis::Build(mat, bed.build));
        bed.live->Compact(std::move(mat));
        bed.syn->ResetToBase(rebuilt);
        bed.latest = std::move(rebuilt);
        bed.cumulative_charge = 0;
        bed.op_log += ",rebase";
        if (bed.syn->patch_error() != 0 || bed.syn->budget_exhausted()) {
          rep.findings.push_back(DeltaFinding(
              "rebase-reset",
              StrFormat("after ResetToBase patch_error=%.17g exhausted=%d",
                        bed.syn->patch_error(),
                        bed.syn->budget_exhausted() ? 1 : 0),
              StrFormat("seed=%llu iter=%zu battery=C ops=[%s]",
                        static_cast<unsigned long long>(options.seed), i,
                        bed.op_log.c_str())));
        }
        delta::DocumentDelta batch;
        batch.ops.push_back(delta::CloneSubtreeOp(
            *bed.live,
            static_cast<uint32_t>(it.UniformInt(1, bed.live->live_nodes() - 1))));
        if (apply(bed, std::move(batch), "C")) {
          check_against_scratch(bed, "C");
        }

        // Battery D: a torn batch (corrupted target rank) must be
        // rejected without touching document or synopsis, and the next
        // clean batch must apply as if nothing happened.
        const uint64_t seq_before = bed.live->seq();
        const size_t nodes_before = bed.live->live_nodes();
        delta::DocumentDelta torn;
        torn.ops.push_back(delta::CloneSubtreeOp(
            *bed.live,
            static_cast<uint32_t>(it.UniformInt(1, bed.live->live_nodes() - 1))));
        {
          FaultConfig corrupt;
          corrupt.max_fires = 1;
          ScopedFault fault(delta::LiveDocument::kCorruptFaultSite, corrupt);
          auto res = bed.syn->Apply(torn);
          const std::string input =
              StrFormat("seed=%llu iter=%zu battery=D ops=[%s]",
                        static_cast<unsigned long long>(options.seed), i,
                        bed.op_log.c_str());
          if (res.ok()) {
            rep.findings.push_back(DeltaFinding(
                "corrupt-accepted", "fault-corrupted batch was applied",
                input));
          } else {
            ++rep.parse_rejected;
            if (res.status().code() != StatusCode::kInvalidArgument) {
              rep.findings.push_back(DeltaFinding(
                  "corrupt-status",
                  StrFormat("expected kInvalidArgument, got %s",
                            res.status().ToString().c_str()),
                  input));
            }
          }
          if (bed.live->seq() != seq_before ||
              bed.live->live_nodes() != nodes_before) {
            rep.findings.push_back(DeltaFinding(
                "corrupt-mutated",
                StrFormat("rejected batch moved the document: seq %llu->%llu "
                          "nodes %zu->%zu",
                          static_cast<unsigned long long>(seq_before),
                          static_cast<unsigned long long>(bed.live->seq()),
                          nodes_before, bed.live->live_nodes()),
                input));
          }
          // The fault budget is spent; the same batch now goes through.
          if (apply(bed, std::move(torn), "D")) {
            check_against_scratch(bed, "D");
          }
        }
      }
    }

    ++rep.iterations;
  }
  faults.Reset();
  return rep;
}

}  // namespace xee::fuzz
