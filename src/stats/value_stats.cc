#include "stats/value_stats.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>

namespace xee::stats {

ValueStats ValueStats::Build(const xml::Document& doc, size_t top_k) {
  ValueStats out;
  out.tags_.resize(doc.TagCount());
  // Keys view the document's text pool, which outlives this call.
  std::vector<std::unordered_map<std::string_view, uint64_t>> counts(
      doc.TagCount());
  for (xml::NodeId n = 0; n < doc.NodeCount(); ++n) {
    out.tags_[doc.Tag(n)].total_elements++;
    const std::string_view text = doc.Text(n);
    if (!text.empty()) counts[doc.Tag(n)][text]++;
  }
  for (size_t t = 0; t < counts.size(); ++t) {
    std::vector<std::pair<std::string_view, uint64_t>> all(counts[t].begin(),
                                                           counts[t].end());
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    TagValues& tv = out.tags_[t];
    for (size_t i = 0; i < all.size(); ++i) {
      if (i < top_k) {
        tv.top.emplace_back(std::string(all[i].first), all[i].second);
      } else {
        tv.other_count += all[i].second;
        tv.other_distinct++;
      }
    }
  }
  return out;
}

ValueStats ValueStats::FromTagValues(std::vector<TagValues> tags) {
  ValueStats out;
  out.tags_ = std::move(tags);
  return out;
}

double ValueStats::Selectivity(xml::TagId tag, const std::string& value) const {
  XEE_CHECK(tag < tags_.size());
  const TagValues& tv = tags_[tag];
  if (tv.total_elements == 0) return 0;
  for (const auto& [v, count] : tv.top) {
    if (v == value) {
      return static_cast<double>(count) /
             static_cast<double>(tv.total_elements);
    }
  }
  if (tv.other_distinct == 0) return 0;
  // Uniformity over the summarized tail.
  return static_cast<double>(tv.other_count) /
         static_cast<double>(tv.other_distinct) /
         static_cast<double>(tv.total_elements);
}

double ValueStats::GlobalSelectivity(const std::string& value) const {
  double matching = 0, total = 0;
  for (size_t t = 0; t < tags_.size(); ++t) {
    const TagValues& tv = tags_[t];
    total += static_cast<double>(tv.total_elements);
    matching += Selectivity(static_cast<xml::TagId>(t), value) *
                static_cast<double>(tv.total_elements);
  }
  return total == 0 ? 0 : matching / total;
}

size_t ValueStats::SizeBytes() const {
  size_t bytes = 0;
  for (const TagValues& tv : tags_) {
    bytes += 24;
    for (const auto& [v, count] : tv.top) {
      (void)count;
      bytes += v.size() + 8;
    }
  }
  return bytes;
}

}  // namespace xee::stats
