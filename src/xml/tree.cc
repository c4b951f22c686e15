#include "xml/tree.h"

#include <functional>
#include <limits>

namespace xee::xml {
namespace {

constexpr size_t kMaxPool = std::numeric_limits<uint32_t>::max();

/// True iff `s` points into `pool`'s bytes (std::less gives a total
/// order over unrelated pointers).
bool Aliases(std::string_view s, const std::string& pool) {
  const std::less<const char*> lt;
  return !s.empty() && !lt(s.data(), pool.data()) &&
         lt(s.data(), pool.data() + pool.size());
}

}  // namespace

Document Document::Clone() const {
  Document out;
  out.nodes_ = nodes_;
  out.text_ = text_;
  out.attributes_ = attributes_;
  out.tag_names_ = tag_names_;
  out.tag_ids_ = tag_ids_;
  out.finalized_ = finalized_;
  return out;
}

Document Document::CompactCopy() const {
  Document out;
  out.tag_names_ = tag_names_;
  out.tag_ids_ = tag_ids_;
  if (nodes_.empty()) return out;
  out.nodes_.reserve(nodes_.size());
  out.text_.reserve(text_.size());
  out.attributes_.reserve(attributes_.size());
  // `open` is the new id of the node whose subtree is being copied, so a
  // node entered next is its child; leaving pops back to the parent.
  NodeId open = kNullNode;
  Walk(
      root(),
      [&](NodeId old) {
        const Node& src = nodes_[old];
        const NodeId id = out.Link(open, src.tag);
        Node& dst = out.nodes_[id];
        dst.order_begin = id;
        if (src.text_size != 0) {
          dst.text_begin = static_cast<uint32_t>(out.text_.size());
          dst.text_size = src.text_size;
          out.text_.append(text_, src.text_begin, src.text_size);
        }
        if (src.attr_count != 0) {
          dst.attr_begin = static_cast<uint32_t>(out.attributes_.size());
          dst.attr_count = src.attr_count;
          out.attributes_.insert(
              out.attributes_.end(), attributes_.begin() + src.attr_begin,
              attributes_.begin() + src.attr_begin + src.attr_count);
        }
        open = id;
      },
      [&](NodeId) {
        Node& done = out.nodes_[open];
        done.order_end = static_cast<uint32_t>(out.nodes_.size());
        open = done.parent;
      });
  out.finalized_ = true;
  return out;
}

NodeId Document::Link(NodeId parent, TagId tag) {
  XEE_CHECK(nodes_.size() < kNullNode);
  const auto id = static_cast<NodeId>(nodes_.size());
  Node& n = nodes_.emplace_back();
  n.tag = tag;
  n.parent = parent;
  if (parent != kNullNode) {
    Node& p = nodes_[parent];
    n.sibling_index = p.child_count++;
    if (p.last_child == kNullNode) {
      p.first_child = id;
    } else {
      nodes_[p.last_child].next_sibling = id;
    }
    p.last_child = id;
  }
  finalized_ = false;
  return id;
}

NodeId Document::CreateRoot(std::string_view tag) {
  XEE_CHECK_MSG(nodes_.empty(), "root must be the first node");
  return Link(kNullNode, InternTag(tag));
}

NodeId Document::AppendChild(NodeId parent, std::string_view tag) {
  XEE_CHECK(parent < nodes_.size());
  return Link(parent, InternTag(tag));
}

void Document::AppendText(NodeId node, std::string_view text) {
  if (text.empty()) return;
  if (Aliases(text, text_)) {
    const std::string copy(text);
    AppendText(node, copy);
    return;
  }
  Node& n = At(node);
  XEE_CHECK(text_.size() + n.text_size + text.size() <= kMaxPool);
  if (n.text_begin + n.text_size != text_.size() || n.text_size == 0) {
    // Not at the pool's end: move the existing bytes there first.
    const size_t begin = text_.size();
    text_.append(text_, n.text_begin, n.text_size);
    n.text_begin = static_cast<uint32_t>(begin);
  }
  text_.append(text);
  n.text_size += static_cast<uint32_t>(text.size());
}

void Document::AddAttribute(NodeId node, std::string_view name,
                            std::string_view value) {
  // Copied before the pool grows: `name`/`value` may view pooled bytes.
  Attribute fresh{std::string(name), std::string(value)};
  Node& n = At(node);
  XEE_CHECK(attributes_.size() + n.attr_count + 1 <= kMaxPool);
  if (n.attr_begin + n.attr_count != attributes_.size() ||
      n.attr_count == 0) {
    const size_t begin = attributes_.size();
    for (uint32_t i = 0; i < n.attr_count; ++i) {
      // Copy by index: push_back may reallocate under a reference.
      Attribute a = attributes_[n.attr_begin + i];
      attributes_.push_back(std::move(a));
    }
    n.attr_begin = static_cast<uint32_t>(begin);
  }
  attributes_.push_back(std::move(fresh));
  ++n.attr_count;
}

bool Document::DetachSubtree(NodeId n) {
  Node& node = At(n);
  if (node.parent == kNullNode) return false;
  Node& p = nodes_[node.parent];
  NodeId prev = kNullNode;
  for (NodeId c = p.first_child; c != n; c = nodes_[c].next_sibling) {
    XEE_CHECK(c != kNullNode);
    prev = c;
  }
  if (prev == kNullNode) {
    p.first_child = node.next_sibling;
  } else {
    nodes_[prev].next_sibling = node.next_sibling;
  }
  if (p.last_child == n) p.last_child = prev;
  --p.child_count;
  for (NodeId c = node.next_sibling; c != kNullNode;
       c = nodes_[c].next_sibling) {
    --nodes_[c].sibling_index;
  }
  node.parent = kNullNode;
  node.next_sibling = kNullNode;
  node.sibling_index = 0;
  finalized_ = false;
  return true;
}

void Document::Finalize() {
  if (finalized_) return;
  XEE_CHECK(!nodes_.empty());
  uint32_t counter = 0;
  Walk(
      root(), [&](NodeId n) { nodes_[n].order_begin = counter++; },
      [&](NodeId n) { nodes_[n].order_end = counter; });
  finalized_ = true;
}

std::optional<TagId> Document::FindTag(std::string_view name) const {
  auto it = tag_ids_.find(std::string(name));
  if (it == tag_ids_.end()) return std::nullopt;
  return it->second;
}

size_t Document::Depth(NodeId n) const {
  size_t d = 0;
  for (NodeId p = At(n).parent; p != kNullNode; p = At(p).parent) ++d;
  return d;
}

TagId Document::InternTag(std::string_view name) {
  auto it = tag_ids_.find(std::string(name));
  if (it != tag_ids_.end()) return it->second;
  TagId id = static_cast<TagId>(tag_names_.size());
  tag_names_.emplace_back(name);
  tag_ids_.emplace(std::string(name), id);
  return id;
}

}  // namespace xee::xml
