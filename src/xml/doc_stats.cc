#include "xml/doc_stats.h"

#include "common/strings.h"
#include "xml/writer.h"

namespace xee::xml {

std::string DocStats::ToString() const {
  return StrFormat(
      "size=%s distinct_tags=%zu elements=%zu max_depth=%zu avg_fanout=%.2f",
      HumanBytes(serialized_bytes).c_str(), distinct_elements, element_count,
      max_depth, avg_fanout);
}

DocStats ComputeDocStats(const Document& doc) {
  DocStats s;
  if (doc.empty()) return s;
  s.serialized_bytes = SerializedSize(doc);
  s.distinct_elements = doc.TagCount();
  s.element_count = doc.NodeCount();
  size_t non_leaf = 0, total_children = 0;
  for (NodeId n = 0; n < doc.NodeCount(); ++n) {
    size_t fanout = doc.ChildCount(n);
    if (fanout > 0) {
      ++non_leaf;
      total_children += fanout;
    }
    size_t d = doc.Depth(n);
    if (d > s.max_depth) s.max_depth = d;
  }
  s.avg_fanout = non_leaf == 0 ? 0
                               : static_cast<double>(total_children) /
                                     static_cast<double>(non_leaf);
  return s;
}

}  // namespace xee::xml
