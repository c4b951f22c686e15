// Property-based tests: randomized documents and queries checked against
// module invariants and independent oracles.
//
//  * labeling invariants (pid = OR of children, ancestor pids cover
//    descendant pids, leaf pids are single bits);
//  * pid tree round-trips on random labelings;
//  * histogram structural invariants (partitioning, variance bounds,
//    cell coverage);
//  * the exact evaluator against a brute-force embedding enumerator on
//    small documents (the oracle for everything else);
//  * estimator-vs-exact: Theorem 4.1 on recursion-free random trees;
//  * parser robustness on mutated inputs.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "common/rng.h"
#include "datagen/datagen.h"
#include "encoding/labeling.h"
#include "estimator/estimator.h"
#include "eval/exact_evaluator.h"
#include "histogram/o_histogram.h"
#include "histogram/p_histogram.h"
#include "pidtree/collapsed_pid_tree.h"
#include "pidtree/pid_binary_tree.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xpath/parser.h"

namespace xee {
namespace {

using xpath::OrderConstraint;
using xpath::OrderKind;
using xpath::Query;
using xpath::RootMode;
using xpath::StructAxis;

// --- random generators ----------------------------------------------------

/// Random ordered tree over `tag_count` tags. With `allow_recursion`
/// false, a tag appears at exactly one depth, so no root-to-leaf path
/// repeats a tag (Theorem 4.1's premise holds).
xml::Document RandomDocument(Rng& rng, size_t max_nodes, size_t tag_count,
                             bool allow_recursion) {
  xml::Document doc;
  auto tag_at = [&](size_t depth) -> std::string {
    size_t t = allow_recursion
                   ? rng.Index(tag_count)
                   : (depth * 7 + rng.Index(3)) % tag_count;
    if (!allow_recursion) {
      // Partition tags by depth to rule out recursion: tag id encodes
      // the depth explicitly.
      return "t" + std::to_string(depth) + "_" + std::to_string(t % 3);
    }
    return "t" + std::to_string(t);
  };
  auto root = doc.CreateRoot(allow_recursion ? "t0" : "root");
  std::vector<std::pair<xml::NodeId, size_t>> frontier = {{root, 0}};
  while (doc.NodeCount() < max_nodes && !frontier.empty()) {
    size_t pick = rng.Index(frontier.size());
    auto [node, depth] = frontier[pick];
    frontier.erase(frontier.begin() + static_cast<ptrdiff_t>(pick));
    if (depth >= 6) continue;
    uint64_t kids = rng.UniformInt(0, 4);
    for (uint64_t i = 0; i < kids && doc.NodeCount() < max_nodes; ++i) {
      auto child = doc.AppendChild(node, tag_at(depth + 1));
      frontier.emplace_back(child, depth + 1);
    }
  }
  doc.Finalize();
  return doc;
}

/// Random query against tags that exist in `doc`: a chain with optional
/// branches and optionally one sibling-order constraint.
Query RandomQuery(Rng& rng, const xml::Document& doc, bool with_order) {
  Query q;
  auto random_tag = [&] {
    return doc.TagNameOf(static_cast<xml::TagId>(rng.Index(doc.TagCount())));
  };
  q.root_mode = rng.Bernoulli(0.3) ? RootMode::kAbsolute : RootMode::kAnywhere;
  int cur = q.AddNode(q.root_mode == RootMode::kAbsolute
                          ? doc.TagName(doc.root())
                          : random_tag(),
                      StructAxis::kChild, -1);
  const size_t steps = rng.UniformInt(1, 4);
  std::vector<int> all = {cur};
  for (size_t i = 0; i < steps; ++i) {
    const StructAxis axis =
        rng.Bernoulli(0.5) ? StructAxis::kChild : StructAxis::kDescendant;
    const int parent = all[rng.Index(all.size())];
    cur = q.AddNode(random_tag(), axis, parent);
    all.push_back(cur);
  }
  q.target = all[rng.Index(all.size())];
  if (with_order) {
    // Find a junction with two child-axis children.
    for (size_t j = 0; j < q.nodes.size(); ++j) {
      std::vector<int> child_kids;
      for (int c : q.nodes[j].children) {
        if (q.nodes[c].axis == StructAxis::kChild) child_kids.push_back(c);
      }
      if (child_kids.size() >= 2) {
        OrderConstraint c;
        c.kind = OrderKind::kSibling;
        c.before = child_kids[0];
        c.after = child_kids[1];
        q.orders.push_back(c);
        break;
      }
    }
  }
  return q;
}

// --- brute-force oracle -----------------------------------------------

/// Enumerates every embedding of `q` into `doc` by exhaustive recursion
/// and collects the distinct target bindings. Exponential — for tiny
/// documents only.
std::set<xml::NodeId> BruteForceMatches(const xml::Document& doc,
                                        const Query& q) {
  std::set<xml::NodeId> result;
  std::vector<xml::NodeId> binding(q.size(), xml::kNullNode);

  auto structural_ok = [&](int qi, xml::NodeId d) {
    if (doc.TagName(d) != q.nodes[qi].tag) return false;
    if (qi == 0) {
      return q.root_mode == RootMode::kAnywhere || d == doc.root();
    }
    xml::NodeId dp = binding[q.nodes[qi].parent];
    if (q.nodes[qi].axis == StructAxis::kChild) return doc.Parent(d) == dp;
    return doc.IsAncestorOf(dp, d);
  };
  auto orders_ok = [&] {
    for (const OrderConstraint& c : q.orders) {
      xml::NodeId a = binding[c.before], b = binding[c.after];
      if (c.kind == OrderKind::kSibling) {
        if (doc.Parent(a) != doc.Parent(b)) return false;
        if (doc.SiblingIndex(a) >= doc.SiblingIndex(b)) return false;
      } else {
        if (doc.PreorderIndex(b) < doc.SubtreeEnd(a)) return false;
      }
    }
    return true;
  };

  auto recurse = [&](auto&& self, size_t qi) -> void {
    if (qi == q.size()) {
      if (orders_ok()) result.insert(binding[q.target]);
      return;
    }
    for (xml::NodeId d = 0; d < doc.NodeCount(); ++d) {
      if (!structural_ok(static_cast<int>(qi), d)) continue;
      binding[qi] = d;
      self(self, qi + 1);
    }
    binding[qi] = xml::kNullNode;
  };
  recurse(recurse, 0);
  return result;
}

// --- labeling properties ----------------------------------------------

class RandomDocTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomDocTest, LabelingInvariants) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 77 + 1);
  xml::Document doc = RandomDocument(rng, 200, 8, /*allow_recursion=*/true);
  encoding::Labeling lab = encoding::LabelDocument(doc);

  for (xml::NodeId n = 0; n < doc.NodeCount(); ++n) {
    const xml::Document::ChildRange children = doc.Children(n);
    if (children.empty()) {
      EXPECT_EQ(lab.node_pids[n].PopCount(), 1u);
    } else {
      PathIdBits expected(lab.PidBits());
      for (xml::NodeId c : children) expected.OrWith(lab.node_pids[c]);
      EXPECT_EQ(lab.node_pids[n], expected);
    }
    // Every node's pid is covered by its parent's.
    xml::NodeId p = doc.Parent(n);
    if (p != xml::kNullNode) {
      EXPECT_TRUE(lab.node_pids[p].Covers(lab.node_pids[n]));
    }
  }
  // The root covers every path.
  EXPECT_EQ(lab.node_pids[doc.root()].PopCount(), lab.table.PathCount());
}

TEST_P(RandomDocTest, AncestorPidsCoverDescendants) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 131 + 5);
  xml::Document doc = RandomDocument(rng, 150, 6, true);
  encoding::Labeling lab = encoding::LabelDocument(doc);
  for (int i = 0; i < 200; ++i) {
    xml::NodeId a = static_cast<xml::NodeId>(rng.Index(doc.NodeCount()));
    xml::NodeId b = static_cast<xml::NodeId>(rng.Index(doc.NodeCount()));
    if (doc.IsAncestorOf(a, b)) {
      EXPECT_TRUE(lab.node_pids[a].Covers(lab.node_pids[b]));
    }
  }
}

TEST_P(RandomDocTest, PidTreesRoundTripRandomLabelings) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 991 + 3);
  xml::Document doc = RandomDocument(rng, 300, 10, true);
  encoding::Labeling lab = encoding::LabelDocument(doc);
  pidtree::PathIdBinaryTree tree(lab);
  pidtree::CollapsedPidTree collapsed(lab);
  for (size_t i = 0; i < lab.distinct_pids.size(); ++i) {
    auto ref = static_cast<encoding::PidRef>(i + 1);
    EXPECT_EQ(tree.Lookup(ref), lab.distinct_pids[i]);
    EXPECT_EQ(collapsed.Lookup(ref), lab.distinct_pids[i]);
    EXPECT_EQ(tree.Find(lab.distinct_pids[i]), ref);
    EXPECT_EQ(collapsed.Find(lab.distinct_pids[i]), ref);
  }
}

// --- histogram properties -----------------------------------------------

TEST_P(RandomDocTest, PHistogramPartitionsAndBoundsVariance) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 17 + 11);
  std::vector<stats::PidFreq> list;
  std::map<encoding::PidRef, uint64_t> raw;
  const size_t n = 5 + rng.Index(60);
  for (size_t i = 0; i < n; ++i) {
    auto pid = static_cast<encoding::PidRef>(i + 1);
    uint64_t f = rng.UniformInt(1, 50);
    list.push_back({pid, f});
    raw[pid] = f;
  }
  for (double v : {0.0, 1.5, 5.0, 100.0}) {
    histogram::PHistogram h = histogram::PHistogram::Build(list, v);
    // Partition: every pid exactly once.
    std::set<encoding::PidRef> seen;
    for (const auto& b : h.buckets()) {
      double sum = 0, sum_sq = 0;
      for (auto pid : b.pids) {
        EXPECT_TRUE(seen.insert(pid).second);
        double f = static_cast<double>(raw[pid]);
        sum += f;
        sum_sq += f * f;
      }
      const double k = static_cast<double>(b.pids.size());
      const double mean = sum / k;
      EXPECT_NEAR(b.avg_freq, mean, 1e-9);
      EXPECT_LE(std::sqrt(std::max(0.0, sum_sq / k - mean * mean)),
                v + 1e-6);
    }
    EXPECT_EQ(seen.size(), n);
  }
}

TEST_P(RandomDocTest, OHistogramCoversCellsAndBoundsVariance) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 23 + 7);
  const size_t tags = 4 + rng.Index(4);
  const size_t pids = 4 + rng.Index(8);
  std::vector<uint32_t> ranks(tags);
  for (size_t i = 0; i < tags; ++i) ranks[i] = static_cast<uint32_t>(i);
  std::vector<encoding::PidRef> cols;
  for (size_t i = 0; i < pids; ++i) {
    cols.push_back(static_cast<encoding::PidRef>(i + 1));
  }
  stats::PathOrderTable table;
  struct Cell {
    stats::OrderRegion region;
    xml::TagId tag;
    encoding::PidRef pid;
    uint64_t value;
  };
  std::vector<Cell> cells;
  for (size_t t = 0; t < tags; ++t) {
    for (size_t p = 0; p < pids; ++p) {
      for (auto region :
           {stats::OrderRegion::kBefore, stats::OrderRegion::kAfter}) {
        if (!rng.Bernoulli(0.35)) continue;
        uint64_t v = rng.UniformInt(1, 30);
        table.Add(region, static_cast<xml::TagId>(t), cols[p], v);
        cells.push_back(
            {region, static_cast<xml::TagId>(t), cols[p], v});
      }
    }
  }
  for (double v : {0.0, 2.0, 20.0}) {
    histogram::OHistogram h = histogram::OHistogram::Build(table, ranks,
                                                           cols, v);
    // Every non-empty cell is covered (Get returns a bucket average).
    for (const Cell& c : cells) {
      EXPECT_GT(h.Get(c.region, c.tag, c.pid), 0) << "variance " << v;
    }
    // Buckets never overlap.
    std::set<std::pair<uint32_t, uint32_t>> owned;
    for (const auto& b : h.buckets()) {
      for (uint32_t x = b.x1; x <= b.x2; ++x) {
        for (uint32_t y = b.y1; y <= b.y2; ++y) {
          EXPECT_TRUE(owned.insert({x, y}).second);
        }
      }
    }
    // At variance 0, lookups are exact.
    if (v == 0) {
      for (const Cell& c : cells) {
        EXPECT_DOUBLE_EQ(h.Get(c.region, c.tag, c.pid),
                         static_cast<double>(c.value));
      }
    }
  }
}

// --- evaluator vs brute force ------------------------------------------

TEST_P(RandomDocTest, ExactEvaluatorMatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 313 + 29);
  for (int round = 0; round < 8; ++round) {
    xml::Document doc = RandomDocument(rng, 25, 4, /*allow_recursion=*/true);
    eval::ExactEvaluator eval(doc);
    for (int qi = 0; qi < 8; ++qi) {
      Query q = RandomQuery(rng, doc, /*with_order=*/qi % 2 == 1);
      if (!q.Validate().ok()) continue;
      auto got = eval.Matches(q);
      ASSERT_TRUE(got.ok()) << q.ToString();
      std::set<xml::NodeId> expect = BruteForceMatches(doc, q);
      std::set<xml::NodeId> got_set(got.value().begin(), got.value().end());
      EXPECT_EQ(got_set, expect) << q.ToString();
    }
  }
}

// --- estimator vs exact ---------------------------------------------------

TEST_P(RandomDocTest, Theorem41OnRecursionFreeRandomTrees) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 53 + 41);
  xml::Document doc = RandomDocument(rng, 300, 9, /*allow_recursion=*/false);
  estimator::Synopsis syn = estimator::Synopsis::Build(doc, {});
  estimator::Estimator est(syn);
  eval::ExactEvaluator eval(doc);
  int tested = 0;
  for (int i = 0; i < 40; ++i) {
    Query q = RandomQuery(rng, doc, false);
    // Keep only simple chains (no branches) for the exactness claim.
    bool chain = true;
    for (const auto& n : q.nodes) chain &= n.children.size() <= 1;
    if (!chain) continue;
    q.target = static_cast<int>(q.size()) - 1;
    auto estimate = est.Estimate(q);
    auto exact = eval.Count(q);
    ASSERT_TRUE(estimate.ok() && exact.ok()) << q.ToString();
    EXPECT_DOUBLE_EQ(estimate.value(), static_cast<double>(exact.value()))
        << q.ToString();
    ++tested;
  }
  EXPECT_GT(tested, 5);
}

TEST_P(RandomDocTest, EstimatesAlwaysFiniteNonNegative) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 97 + 13);
  xml::Document doc = RandomDocument(rng, 200, 6, /*allow_recursion=*/true);
  estimator::Synopsis syn = estimator::Synopsis::Build(doc, {});
  estimator::Estimator est(syn);
  for (int i = 0; i < 60; ++i) {
    Query q = RandomQuery(rng, doc, i % 3 == 0);
    if (!q.Validate().ok()) continue;
    auto r = est.Estimate(q);
    ASSERT_TRUE(r.ok()) << q.ToString();
    EXPECT_GE(r.value(), 0) << q.ToString();
    EXPECT_TRUE(std::isfinite(r.value())) << q.ToString();
  }
}

// --- parser robustness ------------------------------------------------

TEST_P(RandomDocTest, ParserSurvivesMutatedInput) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 2);
  xml::Document doc = RandomDocument(rng, 60, 5, true);
  std::string xml = xml::WriteXml(doc);
  for (int round = 0; round < 50; ++round) {
    std::string mutated = xml;
    const size_t edits = 1 + rng.Index(4);
    for (size_t e = 0; e < edits; ++e) {
      size_t pos = rng.Index(mutated.size());
      switch (rng.Index(3)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.UniformInt(32, 126));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1, static_cast<char>(rng.UniformInt(32, 126)));
      }
    }
    // Must not crash; may succeed or return a parse error.
    auto r = xml::ParseXml(mutated);
    if (r.ok()) {
      EXPECT_GE(r.value().NodeCount(), 1u);
    } else {
      EXPECT_FALSE(r.status().message().empty());
    }
  }
}

TEST_P(RandomDocTest, XPathParserSurvivesRandomStrings) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 6151 + 9);
  const std::string alphabet = "//[]{}ab:cst-_()*.@";
  for (int i = 0; i < 200; ++i) {
    std::string s;
    const size_t len = rng.UniformInt(1, 25);
    for (size_t c = 0; c < len; ++c) s += alphabet[rng.Index(alphabet.size())];
    auto r = xpath::ParseXPath(s);  // must not crash
    if (r.ok()) {
      EXPECT_TRUE(r.value().Validate().ok()) << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDocTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace xee
