// The flat xml::Document layout: pooled text and attributes, sibling-
// linked child ranges, detach bookkeeping, and the compact copies the
// live-update path publishes (LiveDocument::Materialize, Clone, and the
// exact evaluator's index over them).

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/datagen.h"
#include "delta/document_delta.h"
#include "eval/exact_evaluator.h"
#include "fuzz/delta_gen.h"
#include "xml/parser.h"
#include "xml/tree.h"
#include "xml/writer.h"

namespace xee::xml {
namespace {

std::vector<NodeId> Kids(const Document& d, NodeId n) {
  const Document::ChildRange kids = d.Children(n);
  return std::vector<NodeId>(kids.begin(), kids.end());
}

TEST(FlatDocument, AppendTextConcatenatesAcrossInterleavedAppends) {
  Document doc;
  const NodeId r = doc.CreateRoot("r");
  doc.AppendText(r, "ab");
  const NodeId a = doc.AppendChild(r, "a");
  doc.AppendText(a, "x");
  // r's text is no longer at the pool's end: it moves there, intact.
  doc.AppendText(r, "cd");
  const NodeId b = doc.AppendChild(r, "b");
  doc.AppendText(b, "y");
  doc.AppendText(a, "z");
  doc.AppendText(r, "");
  doc.AppendText(r, "ef");
  EXPECT_EQ(doc.Text(r), "abcdef");
  EXPECT_EQ(doc.Text(a), "xz");
  EXPECT_EQ(doc.Text(b), "y");
  // Appending a node's own text (a view into the pool) is safe.
  doc.AppendText(b, doc.Text(a));
  doc.AppendText(b, doc.Text(b));
  EXPECT_EQ(doc.Text(b), "yxzyxz");
  EXPECT_EQ(doc.Text(a), "xz");

  doc.AddAttribute(r, "k1", "v1");
  doc.AddAttribute(a, "k", "v");
  doc.AddAttribute(r, "k2", "v2");
  ASSERT_EQ(doc.Attributes(r).size(), 2u);
  EXPECT_EQ(doc.Attributes(r)[0].name, "k1");
  EXPECT_EQ(doc.Attributes(r)[1].value, "v2");
  ASSERT_EQ(doc.Attributes(a).size(), 1u);
  EXPECT_TRUE(doc.Attributes(b).empty());

  // The compact copy keeps every byte and drops the moved-away ones.
  doc.Finalize();
  const Document copy = doc.CompactCopy();
  EXPECT_EQ(copy.Text(0), "abcdef");
  EXPECT_EQ(copy.Text(1), "xz");
  EXPECT_EQ(copy.Text(2), "yxzyxz");
  EXPECT_EQ(copy.Attributes(0)[1].name, "k2");
}

TEST(FlatDocument, ChildRangesKeepOrderAndSize) {
  Document doc;
  const NodeId r = doc.CreateRoot("r");
  EXPECT_TRUE(doc.Children(r).empty());
  EXPECT_EQ(doc.Children(r).size(), 0u);
  EXPECT_EQ(doc.FirstChild(r), kNullNode);
  std::vector<NodeId> want;
  for (int i = 0; i < 5; ++i) {
    want.push_back(doc.AppendChild(r, i % 2 == 0 ? "a" : "b"));
    doc.AppendChild(want.back(), "leaf");  // interleave deeper nodes
  }
  const Document::ChildRange kids = doc.Children(r);
  EXPECT_FALSE(kids.empty());
  EXPECT_EQ(kids.size(), 5u);
  EXPECT_EQ(static_cast<size_t>(std::distance(kids.begin(), kids.end())),
            5u);
  EXPECT_EQ(Kids(doc, r), want);
  EXPECT_EQ(doc.FirstChild(r), want.front());
  EXPECT_EQ(doc.NextSibling(want.back()), kNullNode);
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(doc.SiblingIndex(want[i]), i);
    EXPECT_EQ(doc.Parent(want[i]), r);
    EXPECT_EQ(doc.ChildCount(want[i]), 1u);
  }
}

TEST(FlatDocument, DetachSubtreeRenumbersSiblings) {
  Document doc;
  const NodeId r = doc.CreateRoot("r");
  std::vector<NodeId> kids;
  for (int i = 0; i < 5; ++i) kids.push_back(doc.AppendChild(r, "c"));
  const NodeId deep = doc.AppendChild(kids[2], "d");
  doc.Finalize();

  ASSERT_FALSE(doc.DetachSubtree(r));
  ASSERT_TRUE(doc.DetachSubtree(kids[2]));  // middle, with a subtree
  EXPECT_FALSE(doc.finalized());
  EXPECT_EQ(Kids(doc, r), (std::vector<NodeId>{kids[0], kids[1], kids[3],
                                                kids[4]}));
  EXPECT_EQ(doc.ChildCount(r), 4u);
  EXPECT_EQ(doc.SiblingIndex(kids[3]), 2u);
  EXPECT_EQ(doc.SiblingIndex(kids[4]), 3u);
  EXPECT_EQ(doc.Parent(kids[2]), kNullNode);
  EXPECT_EQ(doc.Parent(deep), kids[2]);  // the detached subtree stays whole

  ASSERT_TRUE(doc.DetachSubtree(kids[0]));  // first
  ASSERT_TRUE(doc.DetachSubtree(kids[4]));  // last
  EXPECT_EQ(Kids(doc, r), (std::vector<NodeId>{kids[1], kids[3]}));
  EXPECT_EQ(doc.FirstChild(r), kids[1]);
  EXPECT_EQ(doc.SiblingIndex(kids[1]), 0u);
  EXPECT_EQ(doc.SiblingIndex(kids[3]), 1u);
  // Appending after detaches links behind the new last child.
  const NodeId fresh = doc.AppendChild(r, "c");
  EXPECT_EQ(Kids(doc, r), (std::vector<NodeId>{kids[1], kids[3], fresh}));
  EXPECT_EQ(doc.SiblingIndex(fresh), 2u);

  doc.Finalize();
  EXPECT_EQ(doc.PreorderIndex(fresh), 3u);
  EXPECT_EQ(doc.SubtreeEnd(r), 4u);
}

TEST(FlatDocumentDeathTest, EvaluatorRejectsDetachedThenFinalized) {
  // The root's last child carries the highest pre-order positions, so once
  // it is detached and the rest renumbered, its stale positions all lie at
  // or past the live count and collide with nothing.
  Document doc;
  const NodeId r = doc.CreateRoot("r");
  doc.AppendChild(doc.AppendChild(r, "a"), "b");
  const NodeId last = doc.AppendChild(r, "c");
  doc.AppendChild(last, "d");
  doc.Finalize();
  ASSERT_TRUE(doc.DetachSubtree(last));
  doc.Finalize();
  ASSERT_GE(doc.PreorderIndex(last), doc.SubtreeEnd(r));
  EXPECT_DEATH(eval::ExactEvaluator ev(doc), "pristine");
}

TEST(FlatDocument, CloneIsIdentical) {
  datagen::GenOptions opt;
  opt.scale = 0.02;
  const Document doc = datagen::GenerateByName("dblp", opt).value();
  const Document copy = doc.Clone();
  ASSERT_EQ(copy.NodeCount(), doc.NodeCount());
  ASSERT_EQ(copy.TagCount(), doc.TagCount());
  EXPECT_TRUE(copy.finalized());
  for (NodeId n = 0; n < doc.NodeCount(); ++n) {
    ASSERT_EQ(copy.Tag(n), doc.Tag(n));
    ASSERT_EQ(copy.Parent(n), doc.Parent(n));
    ASSERT_EQ(copy.Text(n), doc.Text(n));
    ASSERT_EQ(copy.PreorderIndex(n), doc.PreorderIndex(n));
    ASSERT_EQ(copy.SubtreeEnd(n), doc.SubtreeEnd(n));
  }
  EXPECT_EQ(WriteXml(copy), WriteXml(doc));
}

/// Materialize() against a reference built independently: the live
/// tree written out by xml::Writer (which walks only what is reachable
/// from the root) and parsed back, which numbers nodes in document
/// order.
void ExpectMatchesReparse(const delta::LiveDocument& live) {
  const Document mat = live.Materialize();
  Result<Document> ref = ParseXml(WriteXml(live.doc()));
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  const Document& want = ref.value();
  ASSERT_TRUE(mat.finalized());
  ASSERT_EQ(mat.NodeCount(), want.NodeCount());
  ASSERT_EQ(mat.NodeCount(), live.live_nodes());
  // Every live tag keeps its id, extinct ones included.
  ASSERT_EQ(mat.TagCount(), live.doc().TagCount());
  for (TagId t = 0; t < mat.TagCount(); ++t) {
    EXPECT_EQ(mat.TagNameOf(t), live.doc().TagNameOf(t));
  }
  for (NodeId n = 0; n < mat.NodeCount(); ++n) {
    ASSERT_EQ(mat.TagName(n), want.TagName(n)) << "node " << n;
    ASSERT_EQ(mat.Text(n), want.Text(n)) << "node " << n;
    ASSERT_EQ(mat.Parent(n), want.Parent(n)) << "node " << n;
    ASSERT_EQ(mat.SiblingIndex(n), want.SiblingIndex(n)) << "node " << n;
    ASSERT_EQ(mat.ChildCount(n), want.ChildCount(n)) << "node " << n;
    ASSERT_EQ(mat.PreorderIndex(n), want.PreorderIndex(n)) << "node " << n;
    ASSERT_EQ(mat.SubtreeEnd(n), want.SubtreeEnd(n)) << "node " << n;
    ASSERT_EQ(mat.PreorderIndex(n), n);  // compact: ids in preorder
  }
}

TEST(FlatDocument, MaterializeMatchesReparsedWriterOutput) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    delta::LiveDocument live(fuzz::RandomDeltaDocument(rng));
    uint64_t novel = 0;
    const size_t batches = rng.UniformInt(3, 8);
    for (size_t b = 0; b < batches; ++b) {
      const delta::DeltaOp op = fuzz::MakeMixedOp(rng, live, &novel);
      const uint32_t ranks[] = {op.target};
      const NodeId target = live.NodesAtRanks(ranks)[0];
      if (op.kind == delta::DeltaOp::Kind::kInsert) {
        live.InsertSubtree(target, op.subtree);
      } else {
        live.DeleteSubtree(target);
      }
      ExpectMatchesReparse(live);
      if (::testing::Test::HasFatalFailure()) return;
    }
    // Compaction swaps in the materialized shape; it must survive a
    // second round trip unchanged.
    live.Compact(live.Materialize());
    ExpectMatchesReparse(live);
  }
}

TEST(FlatDocument, NodesAtRanksMatchesPreorderNodes) {
  Rng rng(9);
  delta::LiveDocument live(fuzz::RandomDeltaDocument(rng));
  uint64_t novel = 0;
  for (int i = 0; i < 6; ++i) {
    const delta::DeltaOp op = fuzz::MakeMixedOp(rng, live, &novel);
    const uint32_t ranks[] = {op.target};
    const NodeId target = live.NodesAtRanks(ranks)[0];
    if (op.kind == delta::DeltaOp::Kind::kInsert) {
      live.InsertSubtree(target, op.subtree);
    } else {
      live.DeleteSubtree(target);
    }
  }
  const std::vector<NodeId> by_rank = live.PreorderNodes();
  std::vector<uint32_t> ranks;
  for (uint32_t r = static_cast<uint32_t>(by_rank.size()); r-- > 0;) {
    ranks.push_back(r);  // descending, with a repeat
  }
  ranks.push_back(0);
  std::vector<uint32_t> parent_ranks;
  const std::vector<NodeId> got = live.NodesAtRanks(ranks, &parent_ranks);
  for (size_t i = 0; i < ranks.size(); ++i) {
    ASSERT_EQ(got[i], by_rank[ranks[i]]);
    const NodeId parent = live.doc().Parent(got[i]);
    if (parent == kNullNode) {
      EXPECT_EQ(parent_ranks[i], 0u);
    } else {
      EXPECT_EQ(by_rank[parent_ranks[i]], parent);
    }
  }
}

/// The evaluator's index against the comparison-sort construction it
/// replaced.
void ExpectIndexMatchesSortReference(const Document& doc) {
  const eval::ExactEvaluator ev(doc);
  const auto by_pos = [&doc](NodeId a, NodeId b) {
    return doc.PreorderIndex(a) < doc.PreorderIndex(b);
  };
  std::vector<NodeId> all(doc.NodeCount());
  for (NodeId n = 0; n < doc.NodeCount(); ++n) all[n] = n;
  std::sort(all.begin(), all.end(), by_pos);
  const std::span<const NodeId> got_all = ev.AllElements();
  EXPECT_TRUE(std::equal(got_all.begin(), got_all.end(), all.begin(),
                         all.end()));
  for (TagId t = 0; t < doc.TagCount(); ++t) {
    std::vector<NodeId> want;
    for (NodeId n = 0; n < doc.NodeCount(); ++n) {
      if (doc.Tag(n) == t) want.push_back(n);
    }
    std::sort(want.begin(), want.end(), by_pos);
    const std::span<const NodeId> got = ev.ElementsWithTag(t);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << doc.TagNameOf(t);
  }
}

TEST(FlatDocument, EvaluatorIndexMatchesSortReference) {
  datagen::GenOptions opt;
  opt.scale = 0.05;
  for (const std::string& name : datagen::DatasetNames()) {
    SCOPED_TRACE(name);
    const Document doc = datagen::GenerateByName(name, opt).value();
    ExpectIndexMatchesSortReference(doc);
    // A materialized copy after a few clone inserts.
    delta::LiveDocument live(doc.Clone());
    Rng rng(3);
    for (int i = 0; i < 5; ++i) {
      const auto rank =
          static_cast<uint32_t>(rng.UniformInt(1, live.live_nodes() - 1));
      const delta::DeltaOp op = delta::CloneSubtreeOp(live, rank);
      const uint32_t ranks[] = {op.target};
      live.InsertSubtree(live.NodesAtRanks(ranks)[0], op.subtree);
    }
    ExpectIndexMatchesSortReference(live.Materialize());
  }
}

}  // namespace
}  // namespace xee::xml
