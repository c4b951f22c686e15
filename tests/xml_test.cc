#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "xml/doc_stats.h"
#include "xml/parser.h"
#include "xml/tree.h"
#include "xml/writer.h"

namespace xee::xml {
namespace {

/// `n`'s children in sibling order, off the document's child range.
std::vector<NodeId> Kids(const Document& d, NodeId n) {
  const Document::ChildRange kids = d.Children(n);
  return std::vector<NodeId>(kids.begin(), kids.end());
}

TEST(Document, BuildAndAccessors) {
  Document doc;
  NodeId r = doc.CreateRoot("a");
  NodeId b = doc.AppendChild(r, "b");
  NodeId c = doc.AppendChild(r, "c");
  NodeId d = doc.AppendChild(b, "b");
  doc.Finalize();

  EXPECT_EQ(doc.NodeCount(), 4u);
  EXPECT_EQ(doc.TagCount(), 3u);
  EXPECT_EQ(doc.Parent(b), r);
  EXPECT_EQ(doc.Parent(r), kNullNode);
  EXPECT_EQ(Kids(doc, r), (std::vector<NodeId>{b, c}));
  EXPECT_EQ(doc.TagName(d), "b");
  EXPECT_EQ(doc.Tag(d), doc.Tag(b));
  EXPECT_EQ(doc.SiblingIndex(c), 1u);
  EXPECT_EQ(doc.Depth(d), 2u);
}

TEST(Document, PreorderIntervalsAndPredicates) {
  Document doc;
  NodeId r = doc.CreateRoot("a");
  NodeId b = doc.AppendChild(r, "b");
  NodeId d = doc.AppendChild(b, "d");
  NodeId c = doc.AppendChild(r, "c");
  doc.Finalize();

  EXPECT_EQ(doc.PreorderIndex(r), 0u);
  EXPECT_EQ(doc.PreorderIndex(b), 1u);
  EXPECT_EQ(doc.PreorderIndex(d), 2u);
  EXPECT_EQ(doc.PreorderIndex(c), 3u);
  EXPECT_EQ(doc.SubtreeEnd(b), 3u);

  EXPECT_TRUE(doc.IsBefore(b, c));
  EXPECT_FALSE(doc.IsBefore(c, b));
  EXPECT_TRUE(doc.IsAncestorOf(r, d));
  EXPECT_TRUE(doc.IsAncestorOf(b, d));
  EXPECT_FALSE(doc.IsAncestorOf(b, c));
  EXPECT_FALSE(doc.IsAncestorOf(d, b));
}

TEST(Document, FindTag) {
  Document doc;
  doc.CreateRoot("x");
  EXPECT_TRUE(doc.FindTag("x").has_value());
  EXPECT_FALSE(doc.FindTag("y").has_value());
}

TEST(Parser, MinimalDocument) {
  auto r = ParseXml("<a/>");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().NodeCount(), 1u);
  EXPECT_EQ(r.value().TagName(r.value().root()), "a");
  EXPECT_TRUE(r.value().finalized());
}

TEST(Parser, NestedElementsAndText) {
  auto r = ParseXml("<a><b>hi</b><c>bye</c></a>");
  ASSERT_TRUE(r.ok());
  const Document& d = r.value();
  ASSERT_EQ(d.Children(d.root()).size(), 2u);
  EXPECT_EQ(d.Text(Kids(d, d.root())[0]), "hi");
  EXPECT_EQ(d.Text(Kids(d, d.root())[1]), "bye");
}

TEST(Parser, AttributesAndEntities) {
  auto r = ParseXml(R"(<a x="1" y='two &amp; three'><b z="&lt;&gt;"/>A&#65;</a>)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Document& d = r.value();
  ASSERT_EQ(d.Attributes(d.root()).size(), 2u);
  EXPECT_EQ(d.Attributes(d.root())[1].value, "two & three");
  EXPECT_EQ(d.Attributes(Kids(d, d.root())[0])[0].value, "<>");
  EXPECT_EQ(d.Text(d.root()), "AA");
}

TEST(Parser, PrologDoctypeCommentsPis) {
  const char* xml =
      "<?xml version=\"1.0\"?>\n"
      "<!DOCTYPE a [ <!ELEMENT a (b)> ]>\n"
      "<!-- comment -->\n"
      "<?pi data?>\n"
      "<a><!-- inner --><?pi2?><b/></a>\n"
      "<!-- trailing -->";
  auto r = ParseXml(xml);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().NodeCount(), 2u);
}

TEST(Parser, CdataSection) {
  auto r = ParseXml("<a><![CDATA[<not-a-tag> & raw]]></a>");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Text(r.value().root()), "<not-a-tag> & raw");
}

TEST(Parser, UnknownEntityKeptLiterally) {
  auto r = ParseXml("<a>&foo;</a>");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Text(r.value().root()), "&foo;");
}

TEST(Parser, ErrorsCarryLineNumbers) {
  auto r = ParseXml("<a>\n<b>\n</c>\n</a>");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos)
      << r.status().message();
}

TEST(Parser, RejectsTrailingContent) {
  EXPECT_FALSE(ParseXml("<a/><b/>").ok());
  EXPECT_FALSE(ParseXml("<a/>junk").ok());
}

TEST(Parser, RejectsMismatchedAndUnterminated) {
  EXPECT_FALSE(ParseXml("<a><b></a></b>").ok());
  EXPECT_FALSE(ParseXml("<a>").ok());
  EXPECT_FALSE(ParseXml("<a x=1/>").ok());
  EXPECT_FALSE(ParseXml("").ok());
}

TEST(Parser, WhitespaceOnlyTextDropped) {
  auto r = ParseXml("<a>\n  <b/>\n</a>");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Text(r.value().root()), "");
}

TEST(Parser, KeepOptionsDropContent) {
  ParseOptions opt;
  opt.keep_text = false;
  opt.keep_attributes = false;
  auto r = ParseXml("<a x=\"1\">text</a>", opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Text(r.value().root()), "");
  EXPECT_TRUE(r.value().Attributes(r.value().root()).empty());
}

TEST(WriterParser, RoundTripStructure) {
  Document doc;
  NodeId r = doc.CreateRoot("root");
  NodeId b = doc.AppendChild(r, "b");
  doc.AppendText(b, "x < y & z");
  doc.AddAttribute(b, "k", "v\"w");
  doc.AppendChild(r, "c");
  doc.Finalize();

  std::string xml = WriteXml(doc);
  auto r2 = ParseXml(xml);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  const Document& d2 = r2.value();
  ASSERT_EQ(d2.NodeCount(), 3u);
  EXPECT_EQ(d2.TagName(d2.root()), "root");
  EXPECT_EQ(d2.Text(Kids(d2, d2.root())[0]), "x < y & z");
  EXPECT_EQ(d2.Attributes(Kids(d2, d2.root())[0])[0].value, "v\"w");
}

TEST(WriterParser, GeneratedDatasetsRoundTrip) {
  datagen::GenOptions opt;
  opt.scale = 0.02;
  for (const std::string& name : datagen::DatasetNames()) {
    auto gen = datagen::GenerateByName(name, opt);
    ASSERT_TRUE(gen.ok());
    const Document& doc = gen.value();
    auto reparsed = ParseXml(WriteXml(doc));
    ASSERT_TRUE(reparsed.ok()) << name << ": "
                               << reparsed.status().ToString();
    EXPECT_EQ(reparsed.value().NodeCount(), doc.NodeCount()) << name;
    EXPECT_EQ(reparsed.value().TagCount(), doc.TagCount()) << name;
  }
}

TEST(DocStats, CountsBasics) {
  Document doc;
  NodeId r = doc.CreateRoot("a");
  NodeId b = doc.AppendChild(r, "b");
  doc.AppendChild(b, "c");
  doc.AppendChild(r, "b");
  doc.Finalize();
  DocStats s = ComputeDocStats(doc);
  EXPECT_EQ(s.element_count, 4u);
  EXPECT_EQ(s.distinct_elements, 3u);
  EXPECT_EQ(s.max_depth, 2u);
  EXPECT_GT(s.serialized_bytes, 10u);
  EXPECT_DOUBLE_EQ(s.avg_fanout, 1.5);  // r has 2 children, b has 1
}

}  // namespace
}  // namespace xee::xml
