#include "markov/markov_estimator.h"

#include <algorithm>

#include "common/check.h"

namespace xee::markov {
namespace {

using xpath::Query;
using xpath::RootMode;
using xpath::StructAxis;

}  // namespace

std::string MarkovEstimator::Key(const std::vector<xml::TagId>& window) {
  std::string key;
  key.reserve(window.size() * 4);
  for (xml::TagId t : window) {
    key.append(reinterpret_cast<const char*>(&t), 4);
  }
  return key;
}

MarkovEstimator MarkovEstimator::Build(const xml::Document& doc,
                                       const MarkovOptions& options) {
  XEE_CHECK(options.k >= 2);
  MarkovEstimator e;
  e.k_ = options.k;
  e.root_tag_ = doc.Tag(doc.root());
  for (size_t t = 0; t < doc.TagCount(); ++t) {
    e.tag_names_.push_back(doc.TagNameOf(static_cast<xml::TagId>(t)));
  }

  // DFS maintaining the ancestor tag stack; at each node count every
  // suffix window of length 1..k ending here.
  std::vector<xml::TagId> tag_stack;
  auto enter = [&](xml::NodeId n) {
    tag_stack.push_back(doc.Tag(n));
    const size_t max_len = std::min(e.k_, tag_stack.size());
    for (size_t len = 1; len <= max_len; ++len) {
      std::vector<xml::TagId> window(tag_stack.end() - static_cast<long>(len),
                                     tag_stack.end());
      e.grams_[Key(window)]++;
    }
  };
  doc.Walk(doc.root(), enter, [&](xml::NodeId) { tag_stack.pop_back(); });
  return e;
}

uint64_t MarkovEstimator::PathFrequency(
    const std::vector<std::string>& tags) const {
  XEE_CHECK(!tags.empty() && tags.size() <= k_);
  std::vector<xml::TagId> window;
  for (const std::string& name : tags) {
    auto it = std::find(tag_names_.begin(), tag_names_.end(), name);
    if (it == tag_names_.end()) return 0;
    window.push_back(static_cast<xml::TagId>(it - tag_names_.begin()));
  }
  auto it = grams_.find(Key(window));
  return it == grams_.end() ? 0 : it->second;
}

Result<double> MarkovEstimator::Estimate(const Query& q) const {
  Status s = q.Validate();
  if (!s.ok()) return s;
  // The Markov family handles simple child-axis chains only (paper §8).
  if (!q.orders.empty()) {
    return Status(StatusCode::kUnsupported, "Markov paths have no order");
  }
  std::vector<xml::TagId> chain;
  for (size_t i = 0; i < q.size(); ++i) {
    const auto& n = q.nodes[i];
    if (n.children.size() > 1) {
      return Status(StatusCode::kUnsupported,
                    "Markov estimator supports simple paths only");
    }
    if (i > 0 && n.axis != StructAxis::kChild) {
      return Status(StatusCode::kUnsupported,
                    "Markov estimator supports child axes only");
    }
    if (n.tag == "*" || n.value_filter.has_value()) {
      return Status(StatusCode::kUnsupported,
                    "Markov estimator is name-test-and-structure only");
    }
    auto it = std::find(tag_names_.begin(), tag_names_.end(), n.tag);
    if (it == tag_names_.end()) return 0.0;
    chain.push_back(static_cast<xml::TagId>(it - tag_names_.begin()));
  }
  if (q.target != static_cast<int>(q.size()) - 1) {
    return Status(StatusCode::kUnsupported,
                  "Markov estimator targets the last step");
  }
  if (q.root_mode == RootMode::kAbsolute && chain[0] != root_tag_) {
    return 0.0;
  }

  auto freq = [&](size_t from, size_t len) -> double {
    std::vector<xml::TagId> window(chain.begin() + static_cast<long>(from),
                                   chain.begin() + static_cast<long>(from + len));
    auto it = grams_.find(Key(window));
    return it == grams_.end() ? 0.0 : static_cast<double>(it->second);
  };

  const size_t n = chain.size();
  if (n <= k_) return freq(0, n);

  // Markov chaining: f(t1..tk) * prod f(t_i..t_{i+k-1}) / f(t_i..t_{i+k-2}).
  double estimate = freq(0, k_);
  for (size_t i = 1; i + k_ <= n; ++i) {
    const double denom = freq(i, k_ - 1);
    if (denom <= 0) return 0.0;
    estimate *= freq(i, k_) / denom;
  }
  return estimate;
}

size_t MarkovEstimator::SizeBytes() const {
  size_t bytes = 0;
  for (const auto& [key, count] : grams_) {
    (void)count;
    bytes += key.size() / 4 + 4;
  }
  return bytes;
}

}  // namespace xee::markov
