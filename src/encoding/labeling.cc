#include "encoding/labeling.h"

#include <algorithm>
#include <unordered_map>

namespace xee::encoding {

Labeling LabelDocument(const xml::Document& doc) {
  Labeling out;
  if (doc.empty()) return out;

  const size_t n = doc.NodeCount();

  // Phase 1: enumerate leaves in document order, assigning encodings to
  // distinct root-to-leaf tag paths. Depth-first walk keeping the tag
  // path.
  std::vector<uint32_t> leaf_encoding(n, 0);
  {
    TagPath path;
    doc.Walk(
        doc.root(),
        [&](xml::NodeId node) {
          path.push_back(doc.Tag(node));
          if (doc.FirstChild(node) == xml::kNullNode) {
            leaf_encoding[node] = out.table.GetOrAssign(path);
          }
        },
        [&](xml::NodeId) { path.pop_back(); });
  }

  const size_t width = out.table.PathCount();

  // Phase 2: post-order bit-or. NodeIds are created parent-before-child,
  // so a reverse index sweep visits children before parents.
  out.node_pids.assign(n, PathIdBits(width));
  for (size_t i = n; i-- > 0;) {
    xml::NodeId node = static_cast<xml::NodeId>(i);
    if (doc.FirstChild(node) == xml::kNullNode) {
      out.node_pids[i].Set(leaf_encoding[node]);
    }
    xml::NodeId parent = doc.Parent(node);
    if (parent != xml::kNullNode) {
      out.node_pids[parent].OrWith(out.node_pids[i]);
    }
  }

  // Phase 3: distinct pid table sorted in bit-string lexicographic order
  // (trie-leaf order), then per-node refs.
  out.distinct_pids = out.node_pids;
  std::sort(out.distinct_pids.begin(), out.distinct_pids.end(),
            PathIdBits::LexLess);
  out.distinct_pids.erase(
      std::unique(out.distinct_pids.begin(), out.distinct_pids.end()),
      out.distinct_pids.end());

  std::unordered_map<PathIdBits, PidRef, PathIdBits::Hash> ref_of;
  ref_of.reserve(out.distinct_pids.size());
  for (size_t i = 0; i < out.distinct_pids.size(); ++i) {
    ref_of.emplace(out.distinct_pids[i], static_cast<PidRef>(i + 1));
  }
  out.node_pid_refs.resize(n);
  for (size_t i = 0; i < n; ++i) {
    out.node_pid_refs[i] = ref_of.at(out.node_pids[i]);
  }
  return out;
}

}  // namespace xee::encoding
