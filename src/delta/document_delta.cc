#include "delta/document_delta.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/fault.h"

namespace xee::delta {
namespace {

Status Invalid(const char* what) {
  return Status(StatusCode::kInvalidArgument,
                std::string("invalid delta: ") + what);
}

}  // namespace

LiveDocument::LiveDocument(xml::Document doc) : doc_(std::move(doc)) {
  XEE_CHECK(!doc_.empty());
  live_count_ = doc_.NodeCount();
  detached_.assign(live_count_, 0);
}

std::vector<xml::NodeId> LiveDocument::PreorderNodes() const {
  std::vector<xml::NodeId> out;
  out.reserve(live_count_);
  doc_.ForEachPreorder(doc_.root(), [&out](xml::NodeId n) { out.push_back(n); });
  XEE_CHECK(out.size() == live_count_);
  return out;
}

std::vector<xml::NodeId> LiveDocument::NodesAtRanks(
    std::span<const uint32_t> ranks,
    std::vector<uint32_t>* parent_ranks) const {
  std::vector<uint32_t> order(ranks.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](uint32_t a, uint32_t b) { return ranks[a] < ranks[b]; });
  std::vector<xml::NodeId> out(ranks.size(), xml::kNullNode);
  if (parent_ranks != nullptr) parent_ranks->assign(ranks.size(), 0);
  // Pre-order cursor: `open` holds the ranks of n's proper ancestors.
  std::vector<uint32_t> open;
  xml::NodeId n = doc_.root();
  uint32_t rank = 0;
  for (uint32_t i : order) {
    XEE_CHECK(ranks[i] < live_count_);
    for (; rank < ranks[i]; ++rank) {
      if (doc_.FirstChild(n) != xml::kNullNode) {
        open.push_back(rank);
        n = doc_.FirstChild(n);
        continue;
      }
      while (doc_.NextSibling(n) == xml::kNullNode) {
        n = doc_.Parent(n);
        open.pop_back();
      }
      n = doc_.NextSibling(n);
    }
    out[i] = n;
    if (parent_ranks != nullptr && !open.empty()) {
      (*parent_ranks)[i] = open.back();
    }
  }
  return out;
}

Result<std::vector<xml::NodeId>> LiveDocument::ResolveTargets(
    const DocumentDelta& delta) {
  if (delta.ops.empty()) return Invalid("empty batch");
  uint64_t corrupt_payload = 0;
  const bool corrupted = FaultFires(kCorruptFaultSite, &corrupt_payload);
  std::vector<uint32_t> ranks;
  ranks.reserve(delta.ops.size());
  for (size_t i = 0; i < delta.ops.size(); ++i) {
    const DeltaOp& op = delta.ops[i];
    uint64_t rank = op.target;
    if (corrupted && i == 0) rank += live_count_ + corrupt_payload + 1;
    if (rank >= live_count_) return Invalid("target rank out of range");
    if (op.kind == DeltaOp::Kind::kDelete) {
      if (rank == 0) return Invalid("cannot delete the document root");
    } else {
      const SubtreeSpec& spec = op.subtree;
      if (spec.size() == 0) return Invalid("empty insert spec");
      if (spec.tags.size() != spec.parent.size()) {
        return Invalid("spec tag/parent size mismatch");
      }
      for (size_t k = 0; k < spec.size(); ++k) {
        if (spec.tags[k].empty()) return Invalid("empty spec tag");
        const int32_t p = spec.parent[k];
        if (k == 0 ? p != -1 : (p < 0 || static_cast<size_t>(p) >= k)) {
          return Invalid("spec parent out of preorder");
        }
      }
    }
    ranks.push_back(static_cast<uint32_t>(rank));
  }
  return NodesAtRanks(ranks);
}

std::vector<xml::NodeId> LiveDocument::InsertSubtree(xml::NodeId parent,
                                                     const SubtreeSpec& spec) {
  XEE_CHECK(!detached(parent));
  std::vector<xml::NodeId> ids;
  ids.reserve(spec.size());
  for (size_t k = 0; k < spec.size(); ++k) {
    const xml::NodeId at =
        spec.parent[k] < 0 ? parent : ids[static_cast<size_t>(spec.parent[k])];
    ids.push_back(doc_.AppendChild(at, spec.tags[k]));
    detached_.push_back(0);
  }
  live_count_ += spec.size();
  ++seq_;
  return ids;
}

std::vector<xml::NodeId> LiveDocument::CollectSubtree(xml::NodeId root) const {
  XEE_CHECK(!detached(root));
  std::vector<xml::NodeId> out;
  doc_.ForEachPreorder(root, [&out](xml::NodeId n) { out.push_back(n); });
  return out;
}

void LiveDocument::DeleteSubtree(xml::NodeId root) {
  const std::vector<xml::NodeId> sub = CollectSubtree(root);
  XEE_CHECK(doc_.DetachSubtree(root));
  for (xml::NodeId n : sub) detached_[n] = 1;
  XEE_CHECK(live_count_ >= sub.size());
  live_count_ -= sub.size();
  ++seq_;
}

xml::Document LiveDocument::Materialize() const {
  xml::Document out = doc_.CompactCopy();
  XEE_CHECK(out.NodeCount() == live_count_);
  return out;
}

void LiveDocument::Compact(xml::Document compacted) {
  XEE_CHECK(compacted.NodeCount() == live_count_);
  XEE_CHECK(compacted.TagCount() == doc_.TagCount());
  doc_ = std::move(compacted);
  detached_.assign(live_count_, 0);
  ++seq_;
}

SubtreeSpec SpecFromSubtree(const LiveDocument& live, xml::NodeId root) {
  XEE_CHECK(!live.detached(root));
  const xml::Document& d = live.doc();
  SubtreeSpec spec;
  // Spec index of the node whose subtree is open: the parent of the
  // next node entered.
  std::vector<int32_t> open;
  d.Walk(
      root,
      [&](xml::NodeId n) {
        spec.parent.push_back(open.empty() ? -1 : open.back());
        open.push_back(static_cast<int32_t>(spec.tags.size()));
        spec.tags.push_back(d.TagName(n));
      },
      [&](xml::NodeId) { open.pop_back(); });
  return spec;
}

DeltaOp CloneSubtreeOp(const LiveDocument& live, uint32_t rank) {
  XEE_CHECK(rank > 0 && rank < live.live_nodes());
  const uint32_t ranks[] = {rank};
  std::vector<uint32_t> parent_rank;
  const xml::NodeId node = live.NodesAtRanks(ranks, &parent_rank)[0];
  DeltaOp op;
  op.kind = DeltaOp::Kind::kInsert;
  op.target = parent_rank[0];
  op.subtree = SpecFromSubtree(live, node);
  return op;
}

}  // namespace xee::delta
