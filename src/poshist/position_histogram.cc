#include "poshist/position_histogram.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace xee::poshist {
namespace {

using xpath::Query;
using xpath::RootMode;

constexpr int kUnknownTag = -1;
constexpr int kAnyTag = -2;

}  // namespace

PositionHistogramEstimator PositionHistogramEstimator::Build(
    const xml::Document& doc, const PositionHistogramOptions& options) {
  XEE_CHECK(doc.finalized());
  XEE_CHECK(options.grid >= 1);
  PositionHistogramEstimator e;
  e.grid_ = options.grid;
  e.root_tag_ = static_cast<int>(doc.Tag(doc.root()));
  for (size_t t = 0; t < doc.TagCount(); ++t) {
    e.tag_names_.push_back(doc.TagNameOf(static_cast<xml::TagId>(t)));
  }
  e.tags_.resize(doc.TagCount());

  // Classic 2n start/end numbering from one counter (as in [16] and the
  // interval labeling literature): every start and end value is
  // distinct, so ancestor containment is strict in both coordinates.
  std::vector<uint32_t> start(doc.NodeCount()), end(doc.NodeCount());
  {
    uint32_t counter = 0;
    doc.Walk(
        doc.root(), [&](xml::NodeId node) { start[node] = counter++; },
        [&](xml::NodeId node) { end[node] = counter++; });
  }

  const double width = static_cast<double>(2 * doc.NodeCount()) /
                       static_cast<double>(e.grid_);
  std::vector<std::map<std::pair<uint32_t, uint32_t>, uint64_t>> sparse(
      doc.TagCount());
  for (xml::NodeId n = 0; n < doc.NodeCount(); ++n) {
    const auto i = static_cast<uint32_t>(start[n] / width);
    const auto j = static_cast<uint32_t>(end[n] / width);
    sparse[doc.Tag(n)][{i, j}]++;
  }
  for (size_t t = 0; t < doc.TagCount(); ++t) {
    for (const auto& [ij, count] : sparse[t]) {
      e.tags_[t].cells.push_back(Cell{ij.first, ij.second, count});
      e.tags_[t].total += count;
    }
  }
  return e;
}

void PositionHistogramEstimator::Rebuild(const xml::Document& doc) {
  PositionHistogramOptions options;
  options.grid = grid_;
  *this = Build(doc, options);
}

int PositionHistogramEstimator::FindTag(const std::string& name) const {
  if (name == "*") return kAnyTag;
  for (size_t t = 0; t < tag_names_.size(); ++t) {
    if (tag_names_[t] == name) return static_cast<int>(t);
  }
  return kUnknownTag;
}

double PositionHistogramEstimator::Pairs(int anc_tag, int desc_tag) const {
  if (anc_tag == kAnyTag || desc_tag == kAnyTag) {
    // Sum over concrete tags (distinct elements, so no double counting).
    double total = 0;
    if (anc_tag == kAnyTag) {
      for (size_t t = 0; t < tags_.size(); ++t) {
        total += Pairs(static_cast<int>(t), desc_tag);
      }
    } else {
      for (size_t t = 0; t < tags_.size(); ++t) {
        total += Pairs(anc_tag, static_cast<int>(t));
      }
    }
    return total;
  }
  const TagHistogram& a = tags_[anc_tag];
  const TagHistogram& d = tags_[desc_tag];
  double pairs = 0;
  for (const Cell& ca : a.cells) {
    for (const Cell& cd : d.cells) {
      // P(a.start < d.start): 1 if ca.i < cd.i, 0 if >, 1/2 within the
      // same cell band (positions uniform within a band).
      double p_start = ca.i < cd.i ? 1.0 : (ca.i == cd.i ? 0.5 : 0.0);
      double p_end = cd.j < ca.j ? 1.0 : (cd.j == ca.j ? 0.5 : 0.0);
      pairs += static_cast<double>(ca.count) *
               static_cast<double>(cd.count) * p_start * p_end;
    }
  }
  return pairs;
}

double PositionHistogramEstimator::PairCount(
    const std::string& ancestor_tag, const std::string& descendant_tag) const {
  int a = FindTag(ancestor_tag);
  int d = FindTag(descendant_tag);
  if (a == kUnknownTag || d == kUnknownTag) return 0;
  return Pairs(a, d);
}

Result<double> PositionHistogramEstimator::Estimate(const Query& q) const {
  Status s = q.Validate();
  if (!s.ok()) return s;
  if (!q.orders.empty()) {
    return Status(StatusCode::kUnsupported,
                  "position histograms capture containment only");
  }
  for (const auto& n : q.nodes) {
    if (n.value_filter.has_value()) {
      return Status(StatusCode::kUnsupported,
                    "position histograms are structure-only");
    }
  }
  std::vector<int> tags(q.size());
  std::vector<double> counts(q.size());
  for (size_t i = 0; i < q.size(); ++i) {
    tags[i] = FindTag(q.nodes[i].tag);
    if (tags[i] == kUnknownTag) return 0.0;
    if (tags[i] == kAnyTag) {
      double total = 0;
      for (const auto& t : tags_) total += static_cast<double>(t.total);
      counts[i] = total;
    } else {
      counts[i] = static_cast<double>(tags_[tags[i]].total);
    }
    if (counts[i] == 0) return 0.0;
  }

  // Downward satisfaction probability of the subquery below node qi,
  // composed from pairwise containment fractions under independence.
  // The child axis deliberately uses the same containment fraction
  // (the baseline's documented limitation).
  std::vector<double> down(q.size(), -1);
  auto down_of = [&](auto&& self, int qi) -> double {
    if (down[qi] >= 0) return down[qi];
    double p = 1;
    for (int c : q.nodes[qi].children) {
      const double expected =
          Pairs(tags[qi], tags[c]) / counts[qi] * self(self, c);
      p *= std::min(1.0, expected);
    }
    down[qi] = p;
    return p;
  };

  // Upward probability: the chain above qi exists, with the other
  // branches of each ancestor satisfied.
  std::vector<double> up(q.size(), -1);
  auto up_of = [&](auto&& self, int qi) -> double {
    if (up[qi] >= 0) return up[qi];
    double p;
    if (qi == 0) {
      if (q.root_mode == RootMode::kAbsolute) {
        p = (tags[0] == root_tag_ || tags[0] == kAnyTag)
                ? 1.0 / counts[0]  // exactly one root among count elements
                : 0.0;
      } else {
        p = 1.0;
      }
    } else {
      const int parent = q.nodes[qi].parent;
      double context = self(self, parent);
      for (int sibling : q.nodes[parent].children) {
        if (sibling == qi) continue;
        const double expected = Pairs(tags[parent], tags[sibling]) /
                                counts[parent] * down_of(down_of, sibling);
        context *= std::min(1.0, expected);
      }
      const double expected_anc =
          Pairs(tags[parent], tags[qi]) / counts[qi] * context;
      p = std::min(1.0, expected_anc);
    }
    up[qi] = p;
    return p;
  };

  return counts[q.target] * up_of(up_of, q.target) *
         down_of(down_of, q.target);
}

size_t PositionHistogramEstimator::SizeBytes() const {
  size_t cells = 0;
  for (const auto& t : tags_) cells += t.cells.size();
  return cells * 6;
}

}  // namespace xee::poshist
