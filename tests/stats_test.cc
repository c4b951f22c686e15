#include <gtest/gtest.h>

#include "encoding/labeling.h"
#include "paper_fixture.h"
#include "stats/path_order.h"
#include "stats/pathid_frequency.h"

namespace xee::stats {
namespace {

class PaperStatsTest : public ::testing::Test {
 protected:
  PaperStatsTest()
      : doc_(xee::testing::MakePaperDocument()),
        lab_(encoding::LabelDocument(doc_)),
        pf_(PathIdFrequencyTable::Build(doc_, lab_)),
        order_(OrderStats::Build(doc_, lab_)) {}

  xml::TagId Tag(const char* name) const {
    auto t = doc_.FindTag(name);
    EXPECT_TRUE(t.has_value()) << name;
    return *t;
  }

  xml::Document doc_;
  encoding::Labeling lab_;
  PathIdFrequencyTable pf_;
  OrderStats order_;
};

// Figure 2(a): the full pathId-frequency table. PidRef k == paper's p_k.
TEST_F(PaperStatsTest, Figure2aPathIdFrequencyTable) {
  using V = std::vector<PidFreq>;
  EXPECT_EQ(pf_.ForTag(Tag("Root")), (V{{9, 1}}));
  EXPECT_EQ(pf_.ForTag(Tag("A")), (V{{6, 1}, {7, 1}, {8, 1}}));
  EXPECT_EQ(pf_.ForTag(Tag("B")), (V{{5, 3}, {8, 1}}));
  EXPECT_EQ(pf_.ForTag(Tag("C")), (V{{2, 1}, {3, 1}}));
  EXPECT_EQ(pf_.ForTag(Tag("D")), (V{{5, 4}}));
  EXPECT_EQ(pf_.ForTag(Tag("E")), (V{{2, 2}, {4, 1}}));
  EXPECT_EQ(pf_.ForTag(Tag("F")), (V{{1, 1}}));
}

TEST_F(PaperStatsTest, EntryCount) {
  EXPECT_EQ(pf_.EntryCount(), 12u);
}

// Figure 2(b) / Example 3.2: B's path-order table. One B(p5) before C,
// two B(p5) after C.
TEST_F(PaperStatsTest, Figure2bPathOrderTableForB) {
  const PathOrderTable& t = order_.ForTag(Tag("B"));
  EXPECT_EQ(t.Get(OrderRegion::kBefore, Tag("C"), 5), 1u);
  EXPECT_EQ(t.Get(OrderRegion::kAfter, Tag("C"), 5), 2u);
  // B(p8) has no C sibling (A1 has a single child).
  EXPECT_EQ(t.Get(OrderRegion::kBefore, Tag("C"), 8), 0u);
  EXPECT_EQ(t.Get(OrderRegion::kAfter, Tag("C"), 8), 0u);
}

TEST_F(PaperStatsTest, OrderTableBToB) {
  // In A2, children are B, C, B: the first B(p5) is before a B and the
  // second after a B.
  const PathOrderTable& t = order_.ForTag(Tag("B"));
  EXPECT_EQ(t.Get(OrderRegion::kBefore, Tag("B"), 5), 1u);
  EXPECT_EQ(t.Get(OrderRegion::kAfter, Tag("B"), 5), 1u);
}

TEST_F(PaperStatsTest, OrderTableForC) {
  // C(p3) in A2 sits between two Bs: before one B and after one B.
  // C(p2) in A3 is before a B only.
  const PathOrderTable& t = order_.ForTag(Tag("C"));
  EXPECT_EQ(t.Get(OrderRegion::kBefore, Tag("B"), 3), 1u);
  EXPECT_EQ(t.Get(OrderRegion::kAfter, Tag("B"), 3), 1u);
  EXPECT_EQ(t.Get(OrderRegion::kBefore, Tag("B"), 2), 1u);
  EXPECT_EQ(t.Get(OrderRegion::kAfter, Tag("B"), 2), 0u);
}

TEST_F(PaperStatsTest, SiblingLeavesCounted) {
  // D and E under B(p8) in A1: D before E, E after D.
  const PathOrderTable& d = order_.ForTag(Tag("D"));
  EXPECT_EQ(d.Get(OrderRegion::kBefore, Tag("E"), 5), 1u);
  const PathOrderTable& e = order_.ForTag(Tag("E"));
  EXPECT_EQ(e.Get(OrderRegion::kAfter, Tag("D"), 4), 1u);
}

TEST_F(PaperStatsTest, RootHasNoOrderRows) {
  EXPECT_EQ(order_.ForTag(Tag("Root")).CellCount(), 0u);
}

TEST_F(PaperStatsTest, ElementWithBothSidesCountedInBothRegions) {
  // Paper note after Example 3.2: an X between two Ys is counted in both
  // regions. C(p3) in A2 is between two Bs — checked in OrderTableForC.
  // Also verify via total cells that nothing was double-inserted.
  EXPECT_GT(order_.TotalCells(), 0u);
}

TEST(PathOrderTable, AddAndGet) {
  PathOrderTable t;
  t.Add(OrderRegion::kBefore, 3, 7, 2);
  t.Add(OrderRegion::kBefore, 3, 7, 1);
  EXPECT_EQ(t.Get(OrderRegion::kBefore, 3, 7), 3u);
  EXPECT_EQ(t.Get(OrderRegion::kAfter, 3, 7), 0u);
  EXPECT_EQ(t.CellCount(), 1u);
}

TEST(OrderStats, SingleChildParentsProduceNothing) {
  xml::Document doc;
  auto r = doc.CreateRoot("a");
  auto b = doc.AppendChild(r, "b");
  doc.AppendChild(b, "c");
  doc.Finalize();
  auto lab = encoding::LabelDocument(doc);
  OrderStats s = OrderStats::Build(doc, lab);
  EXPECT_EQ(s.TotalCells(), 0u);
}

TEST(OrderStats, WideFanoutCountsDistinctTagsOnce) {
  // Parent with children: x y x y. Each x: before{y} (first x also
  // before x), after{...}.
  xml::Document doc;
  auto r = doc.CreateRoot("root");
  doc.AppendChild(r, "x");
  doc.AppendChild(r, "y");
  doc.AppendChild(r, "x");
  doc.AppendChild(r, "y");
  doc.Finalize();
  auto lab = encoding::LabelDocument(doc);
  OrderStats s = OrderStats::Build(doc, lab);
  auto tx = *doc.FindTag("x");
  auto ty = *doc.FindTag("y");
  // Both x elements occur before some y; pid of x is the same for both.
  encoding::PidRef px = lab.node_pid_refs[doc.FirstChild(r)];
  EXPECT_EQ(s.ForTag(tx).Get(OrderRegion::kBefore, ty, px), 2u);
  // One x occurs after a y.
  EXPECT_EQ(s.ForTag(tx).Get(OrderRegion::kAfter, ty, px), 1u);
  // x before x: only the first.
  EXPECT_EQ(s.ForTag(tx).Get(OrderRegion::kBefore, tx, px), 1u);
}

}  // namespace
}  // namespace xee::stats
