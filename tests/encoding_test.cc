#include <gtest/gtest.h>

#include "encoding/containment.h"
#include "encoding/encoding_table.h"
#include "encoding/labeling.h"
#include "paper_fixture.h"

namespace xee::encoding {
namespace {

using xml::Document;
using xml::TagId;

class PaperLabelingTest : public ::testing::Test {
 protected:
  PaperLabelingTest()
      : doc_(xee::testing::MakePaperDocument()), lab_(LabelDocument(doc_)) {}

  TagId Tag(const char* name) const {
    auto t = doc_.FindTag(name);
    EXPECT_TRUE(t.has_value()) << name;
    return *t;
  }

  Document doc_;
  Labeling lab_;
};

TEST_F(PaperLabelingTest, FourDistinctPathsInDocumentOrder) {
  ASSERT_EQ(lab_.table.PathCount(), 4u);
  EXPECT_EQ(lab_.table.PathString(1, doc_), "Root/A/B/D");
  EXPECT_EQ(lab_.table.PathString(2, doc_), "Root/A/B/E");
  EXPECT_EQ(lab_.table.PathString(3, doc_), "Root/A/C/E");
  EXPECT_EQ(lab_.table.PathString(4, doc_), "Root/A/C/F");
}

TEST_F(PaperLabelingTest, NineDistinctPathIdsMatchPaperFigure1c) {
  // Lexicographic pid order reproduces the paper's p1..p9 exactly.
  const std::vector<std::string> expected = {"0001", "0010", "0011",
                                             "0100", "1000", "1010",
                                             "1011", "1100", "1111"};
  ASSERT_EQ(lab_.distinct_pids.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(lab_.distinct_pids[i].ToBitString(), expected[i]) << "p" << i + 1;
  }
}

TEST_F(PaperLabelingTest, RootHasAllOnesPid) {
  EXPECT_EQ(lab_.node_pids[doc_.root()].ToBitString(), "1111");
  EXPECT_EQ(lab_.node_pid_refs[doc_.root()], 9u);  // p9
}

TEST_F(PaperLabelingTest, Example21LeafAndInternalPids) {
  // First leaf D has pid p5 (1000); first C node has p3 (0011).
  // Locate nodes structurally: root -> A1 -> B1 -> D.
  auto a1 = doc_.FirstChild(doc_.root());
  auto b1 = doc_.FirstChild(a1);
  auto d1 = doc_.FirstChild(b1);
  EXPECT_EQ(lab_.node_pids[d1].ToBitString(), "1000");  // p5

  auto a2 = doc_.NextSibling(a1);
  auto c2 = doc_.NextSibling(doc_.FirstChild(a2));
  EXPECT_EQ(lab_.node_pids[c2].ToBitString(), "0011");  // p3
  // A pids per Figure 1: p8, p7, p6 in document order.
  EXPECT_EQ(lab_.node_pids[a1].ToBitString(), "1100");
  EXPECT_EQ(lab_.node_pids[a2].ToBitString(), "1011");
  auto a3 = doc_.NextSibling(a2);
  EXPECT_EQ(lab_.node_pids[a3].ToBitString(), "1010");
}

TEST_F(PaperLabelingTest, PidSizeAccounting) {
  EXPECT_EQ(lab_.PidBits(), 4u);
  EXPECT_EQ(lab_.PidSizeBytes(), 1u);
  EXPECT_EQ(lab_.PidTableSizeBytes(), 9u);  // 9 pids x 1 byte
}

TEST_F(PaperLabelingTest, TagRelationshipsOnPaths) {
  const EncodingTable& t = lab_.table;
  TagId root = Tag("Root"), a = Tag("A"), b = Tag("B"), d = Tag("D");
  // On path 1 = Root/A/B/D.
  EXPECT_TRUE(t.TagBelowOnPath(1, a, b, /*immediate=*/true));
  EXPECT_TRUE(t.TagBelowOnPath(1, a, d, /*immediate=*/false));
  EXPECT_FALSE(t.TagBelowOnPath(1, a, d, /*immediate=*/true));
  EXPECT_FALSE(t.TagBelowOnPath(1, b, a, /*immediate=*/false));
  EXPECT_TRUE(t.PathHasTag(1, root));
  EXPECT_FALSE(t.PathHasTag(2, d));
}

TEST_F(PaperLabelingTest, Example22EqualPidsResolveDirectionByTags) {
  // A and B share p8 (1100): tags decide A is the ancestor (parent).
  const PathIdBits p8 = PathIdBits::FromBitString("1100");
  TagId a = Tag("A"), b = Tag("B");
  EXPECT_TRUE(
      PidPairCompatible(lab_.table, a, p8, b, p8, AxisKind::kChild));
  EXPECT_TRUE(
      PidPairCompatible(lab_.table, a, p8, b, p8, AxisKind::kDescendant));
  EXPECT_FALSE(
      PidPairCompatible(lab_.table, b, p8, a, p8, AxisKind::kDescendant));
}

TEST_F(PaperLabelingTest, Example23StrictContainment) {
  // C's p3 (0011) contains E's p2 (0010); C is the parent of E.
  const PathIdBits p3 = PathIdBits::FromBitString("0011");
  const PathIdBits p2 = PathIdBits::FromBitString("0010");
  TagId c = Tag("C"), e = Tag("E");
  EXPECT_TRUE(PidPairCompatible(lab_.table, c, p3, e, p2, AxisKind::kChild));
  EXPECT_FALSE(PidPairCompatible(lab_.table, e, p2, c, p3, AxisKind::kChild));
}

TEST_F(PaperLabelingTest, IncompatibleWhenNoCoverage) {
  // A(p8=1100) cannot contain C(p3=0011): no common paths.
  const PathIdBits p8 = PathIdBits::FromBitString("1100");
  const PathIdBits p3 = PathIdBits::FromBitString("0011");
  EXPECT_FALSE(PidPairCompatible(lab_.table, Tag("A"), p8, Tag("C"), p3,
                                 AxisKind::kDescendant));
}

TEST_F(PaperLabelingTest, ChainsBelowDecodesIntermediateTags) {
  // Example 5.3: D's pid p5 has only bit 1 => path Root/A/B/D, so the
  // chain from A down to D is B/D.
  auto chains = lab_.table.ChainsBelow(1, Tag("A"), Tag("D"));
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0], (TagPath{Tag("B"), Tag("D")}));
}

TEST(EncodingTable, AssignsSequentialEncodings) {
  EncodingTable t;
  TagPath p1 = {0, 1, 2};
  TagPath p2 = {0, 1, 3};
  EXPECT_EQ(t.GetOrAssign(p1), 1u);
  EXPECT_EQ(t.GetOrAssign(p2), 2u);
  EXPECT_EQ(t.GetOrAssign(p1), 1u);  // idempotent
  EXPECT_EQ(t.Find(p2), 2u);
  EXPECT_EQ(t.Find(TagPath{9}), 0u);  // unknown
  EXPECT_EQ(t.PathCount(), 2u);
}

TEST(EncodingTable, ChainsBelowHandlesRepeatedTags) {
  // Path X/Y/X/Z: chains from X to Z are Y/X/Z (outer X) and Z (inner X).
  EncodingTable t;
  TagPath p = {0, 1, 0, 2};
  ASSERT_EQ(t.GetOrAssign(p), 1u);
  auto chains = t.ChainsBelow(1, 0, 2);
  ASSERT_EQ(chains.size(), 2u);
  EXPECT_EQ(chains[0], (TagPath{1, 0, 2}));
  EXPECT_EQ(chains[1], (TagPath{2}));
}

TEST(EncodingTable, TagBelowOnPathWithRecursion) {
  EncodingTable t;
  TagPath p = {0, 1, 0, 2};  // X/Y/X/Z
  t.GetOrAssign(p);
  EXPECT_TRUE(t.TagBelowOnPath(1, 0, 0, /*immediate=*/false));  // X below X
  EXPECT_TRUE(t.TagBelowOnPath(1, 1, 0, /*immediate=*/true));   // Y/X
  EXPECT_TRUE(t.TagBelowOnPath(1, 0, 1, /*immediate=*/true));   // X/Y
}

TEST(Labeling, SingleChainDocument) {
  Document doc;
  auto r = doc.CreateRoot("a");
  auto b = doc.AppendChild(r, "b");
  doc.AppendChild(b, "c");
  doc.Finalize();
  Labeling lab = LabelDocument(doc);
  EXPECT_EQ(lab.table.PathCount(), 1u);
  EXPECT_EQ(lab.distinct_pids.size(), 1u);
  for (xml::NodeId n = 0; n < doc.NodeCount(); ++n) {
    EXPECT_EQ(lab.node_pids[n].ToBitString(), "1");
  }
}

}  // namespace
}  // namespace xee::encoding
