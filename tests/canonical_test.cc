#include "xpath/canonical.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "xpath/parser.h"
#include "xpath/query.h"

namespace xee::xpath {
namespace {

std::string KeyOf(const std::string& text) {
  Result<Query> q = ParseXPath(StripWhitespace(text));
  EXPECT_TRUE(q.ok()) << text << ": " << q.status().ToString();
  return CanonicalKey(q.value());
}

TEST(CanonicalTest, StripWhitespaceOutsideQuotes) {
  EXPECT_EQ(StripWhitespace(" //a / b "), "//a/b");
  EXPECT_EQ(StripWhitespace("//a\t//\nb"), "//a//b");
  // Whitespace inside a quoted value predicate is content, not noise.
  EXPECT_EQ(StripWhitespace(" //a[.=\"hello world\"] "),
            "//a[.=\"hello world\"]");
  EXPECT_EQ(StripWhitespace(""), "");
  // Between two name characters whitespace separates tokens: one space
  // survives, so the parser rejects the line instead of reading a
  // different name.
  EXPECT_EQ(StripWhitespace("//site/reg ions"), "//site/reg ions");
  EXPECT_EQ(StripWhitespace("//a \t\n b"), "//a b");
  EXPECT_EQ(StripWhitespace("/a/*[1 2]"), "/a/*[1 2]");
  EXPECT_EQ(StripWhitespace("//x_1 -y . z"), "//x_1 -y . z");
  EXPECT_EQ(ParseXPath(StripWhitespace("//site/reg ions")).status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseXPath(StripWhitespace("/a/*[1 2]")).status().code(),
            StatusCode::kParseError);
  // Next to punctuation it is still noise.
  EXPECT_EQ(StripWhitespace("//a [ b ] / child :: c"), "//a[b]/child::c");
}

TEST(CanonicalTest, WhitespaceSpellingsShareAKey) {
  EXPECT_EQ(KeyOf("//a/b"), KeyOf("  //a / b\t"));
}

TEST(CanonicalTest, RedundantChildAxisSharesAKey) {
  EXPECT_EQ(KeyOf("/a/b"), KeyOf("/a/child::b"));
  EXPECT_EQ(KeyOf("//a/b[c]"), KeyOf("//a/child::b[child::c]"));
}

TEST(CanonicalTest, PredicateOrderSharesAKey) {
  EXPECT_EQ(KeyOf("//a[b][c]"), KeyOf("//a[c][b]"));
  EXPECT_EQ(KeyOf("//a[c/d][b]//e"), KeyOf("//a[b][c/d]//e"));
  EXPECT_EQ(KeyOf("//a[b][c][d]"), KeyOf("//a[d][c][b]"));
}

TEST(CanonicalTest, RedundantTargetMarkerSharesAKey) {
  // The default result node is the last main-path step; marking it
  // explicitly changes nothing.
  EXPECT_EQ(KeyOf("//a/b"), KeyOf("//a/b{t}"));
}

TEST(CanonicalTest, EquivalentOrderAxisSpellingsShareAKey) {
  // X/following-sibling::Y and Y{t}/preceding-sibling::X (target
  // aligned) encode the same sibling constraint at the same junction.
  EXPECT_EQ(KeyOf("//a/b/following-sibling::c"),
            KeyOf("//a/c{t}/preceding-sibling::b"));
}

TEST(CanonicalTest, DistinctQueriesKeepDistinctKeys) {
  const std::vector<std::string> queries = {
      "//a/b",
      "//a//b",
      "/a/b",
      "//a[b]",          // target a, not b
      "//b/a",
      "//a/b/c",
      "//a/b[.=\"v\"]",
      "//a/b[.=\"w\"]",
      "//a/b{t}/c",
      "//a/b/following-sibling::c",
      "//a/c/following-sibling::b",
      "//a/b/following::c",
      "//a/*",
  };
  for (size_t i = 0; i < queries.size(); ++i) {
    for (size_t j = i + 1; j < queries.size(); ++j) {
      EXPECT_NE(KeyOf(queries[i]), KeyOf(queries[j]))
          << queries[i] << " vs " << queries[j];
    }
  }
}

TEST(CanonicalTest, CanonicalizeIsIdempotent) {
  for (const char* text :
       {"//a[c][b]//e", "/a/b/following-sibling::c", "//a[b][c][d]/e"}) {
    Query q = ParseXPath(text).value();
    Query once = Canonicalize(q);
    Query twice = Canonicalize(once);
    EXPECT_EQ(SerializeKey(once), SerializeKey(twice)) << text;
  }
}

TEST(CanonicalTest, HashAgreesWithKeyEquality) {
  EXPECT_EQ(CanonicalHash(ParseXPath("//a[b][c]").value()),
            CanonicalHash(ParseXPath("//a[c][b]").value()));
  EXPECT_NE(CanonicalHash(ParseXPath("//a/b").value()),
            CanonicalHash(ParseXPath("//a//b").value()));
  // FNV-1a is platform-independent; pin one value so serialization
  // changes that would silently split caches show up here.
  EXPECT_EQ(StableHash64(""), 14695981039346656037ull);
}

/// Builds a random query tree over a small tag alphabet, inserting the
/// children of every node in the order given by `perm` (a permutation
/// seed), so two calls with different perms build index-permuted but
/// semantically identical trees.
Query RandomTree(Rng* shape_rng, uint64_t perm_seed) {
  // First derive a deterministic shape: node count, parent links, tags.
  const size_t n = 2 + shape_rng->Index(8);
  std::vector<int> parent(n, -1);
  std::vector<std::string> tag(n);
  std::vector<int> axis(n, 0);
  const char* tags[] = {"a", "b", "c", "d"};
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) parent[i] = static_cast<int>(shape_rng->Index(i));
    tag[i] = tags[shape_rng->Index(4)];
    axis[i] = shape_rng->Bernoulli(0.3) ? 1 : 0;
  }
  // Then add children per node in a permuted order.
  std::vector<std::vector<int>> kids(n);
  for (size_t i = 1; i < n; ++i) kids[parent[i]].push_back(static_cast<int>(i));
  Rng perm(perm_seed);
  for (auto& k : kids) {
    for (size_t i = k.size(); i > 1; --i) {
      std::swap(k[i - 1], k[perm.Index(i)]);
    }
  }
  Query q;
  std::vector<int> map(n, -1);
  auto build = [&](auto&& self, int node, int mapped_parent) -> void {
    map[node] = q.AddNode(tag[node],
                          axis[node] ? StructAxis::kDescendant
                                     : StructAxis::kChild,
                          mapped_parent);
    for (int c : kids[node]) self(self, c, map[node]);
  };
  build(build, 0, -1);
  q.target = map[n - 1];
  return q;
}

TEST(CanonicalTest, ValueEscapingKeepsKeysInjective) {
  // Without escaping, the quote inside the first value forges a second
  // step header and these two distinct queries collide on one key.
  const std::string a = KeyOf("/a[.=\"x\\\"(/b=\\\"y\"]/b[.=\"z\"]");
  const std::string b = KeyOf("/a[.=\"x\"]/b[.=\"y\\\"(/b=\\\"z\"]");
  EXPECT_NE(a, b);
}

TEST(CanonicalTest, ConstraintRolesBreakTwinSubtreeTies) {
  // Two structurally identical 'c' twins under 'b', distinguishable only
  // through which order constraint each participates in. The two
  // spellings enumerate the twins in opposite creation order; the
  // constraint-aware tie-break must still assign them the same canonical
  // slots (found by the query fuzzer).
  EXPECT_EQ(
      KeyOf("/r//b[/y{t}/preceding-sibling::v/preceding::c][/z/following::c]"),
      KeyOf("/r//b[/z/following::c]/y{t}/preceding-sibling::v/preceding::c"));
  // Fully symmetric twins (same constraint roles) keep sharing a key.
  EXPECT_EQ(KeyOf("//a[b][b]"), KeyOf("//a{t}[b][b]"));
}

TEST(CanonicalTest, FirstStepAxisSpellingsShareAKey) {
  EXPECT_EQ(KeyOf("/descendant::a/b"), KeyOf("//a/b"));
  EXPECT_EQ(KeyOf("//child::a"), KeyOf("//a"));
}

TEST(CanonicalTest, PropertyPermutedChildrenShareAKeyDistinctShapesDoNot) {
  // Semantically identical trees built with permuted child insertion
  // orders must collide; structurally distinct trees must not (canonical
  // keys are injective serializations, so any same-key pair would have
  // to estimate identically — catch regressions by sampling).
  std::vector<std::string> keys;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng shape_a(seed), shape_b(seed);
    Query qa = RandomTree(&shape_a, /*perm_seed=*/seed * 31 + 1);
    Query qb = RandomTree(&shape_b, /*perm_seed=*/seed * 97 + 5);
    ASSERT_TRUE(qa.Validate().ok());
    const std::string ka = CanonicalKey(qa);
    EXPECT_EQ(ka, CanonicalKey(qb)) << "seed " << seed;
    EXPECT_EQ(StableHash64(ka), CanonicalHash(qb)) << "seed " << seed;
    keys.push_back(ka);
  }
  // Keys of queries that canonicalize equal must hash equal; distinct
  // keys in this sample must not collide on the 64-bit hash either.
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<uint64_t> hashes;
  for (const std::string& k : keys) hashes.push_back(StableHash64(k));
  std::sort(hashes.begin(), hashes.end());
  EXPECT_TRUE(std::adjacent_find(hashes.begin(), hashes.end()) ==
              hashes.end())
      << "64-bit hash collision within the sampled key set";
}

}  // namespace
}  // namespace xee::xpath
