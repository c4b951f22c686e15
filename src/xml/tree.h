#ifndef XEE_XML_TREE_H_
#define XEE_XML_TREE_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/check.h"

namespace xee::xml {

/// Index of a node inside its Document's arena.
using NodeId = uint32_t;
/// Interned element-tag identifier, dense in [0, Document::TagCount()).
using TagId = uint32_t;

/// Sentinel for "no node" (e.g. the root's parent).
inline constexpr NodeId kNullNode = UINT32_MAX;

/// One attribute of an element node.
struct Attribute {
  std::string name;
  std::string value;
};

/// An ordered, in-memory XML tree.
///
/// Nodes live in an arena owned by the Document and are addressed by
/// NodeId. The tree is *ordered*: a node's children, linked first-child /
/// next-sibling, are in sibling (document) order, which is what the
/// paper's order axes are defined over. Tags are interned to dense
/// TagIds.
///
/// Layout: three flat stores and no per-node heap memory. `nodes_` holds
/// one plain-data record per node (tag, parent and sibling links, sibling
/// position, child count, pre-order interval, and the spans of its text
/// and attributes); every node's text is a span of the pooled `text_`
/// buffer and its attributes a span of the pooled `attributes_` vector.
/// Copying a document is therefore a handful of bulk copies.
///
/// Construction contract: create the root first, then grow with
/// AppendChild. Call Finalize() once the shape is complete; it computes
/// pre/post-order intervals enabling O(1) document-order and ancestorship
/// tests. Structural mutation after Finalize() clears the finalized
/// state (order predicates then XEE_CHECK until Finalize() runs again).
class Document {
 private:
  struct Node {
    TagId tag = 0;
    NodeId parent = kNullNode;
    NodeId first_child = kNullNode;
    NodeId last_child = kNullNode;
    NodeId next_sibling = kNullNode;
    uint32_t sibling_index = 0;
    uint32_t child_count = 0;
    uint32_t order_begin = 0;  // pre-order index
    uint32_t order_end = 0;    // 1 + pre-order index of last descendant
    uint32_t text_begin = 0;   // offset into text_
    uint32_t text_size = 0;
    uint32_t attr_begin = 0;   // offset into attributes_
    uint32_t attr_count = 0;
  };
  // Plain data: copying the node store is one memcpy, and no node owns
  // heap memory.
  static_assert(std::is_trivially_copyable_v<Node>);

 public:
  /// A node's children in sibling order, walked along next-sibling
  /// links. A view into the document: any structural mutation
  /// invalidates it.
  class ChildRange {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = NodeId;
      using difference_type = std::ptrdiff_t;
      using pointer = const NodeId*;
      using reference = NodeId;

      iterator() = default;
      NodeId operator*() const { return at_; }
      iterator& operator++() {
        at_ = nodes_[at_].next_sibling;
        return *this;
      }
      iterator operator++(int) {
        iterator old = *this;
        ++*this;
        return old;
      }
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.at_ == b.at_;
      }

     private:
      friend class ChildRange;
      iterator(const Node* nodes, NodeId at) : nodes_(nodes), at_(at) {}

      const Node* nodes_ = nullptr;
      NodeId at_ = kNullNode;
    };

    iterator begin() const { return iterator(nodes_, first_); }
    iterator end() const { return iterator(nodes_, kNullNode); }
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

   private:
    friend class Document;
    ChildRange(const Node* nodes, NodeId first, uint32_t size)
        : nodes_(nodes), first_(first), size_(size) {}

    const Node* nodes_;
    NodeId first_;
    uint32_t size_;
  };

  Document() = default;

  // Copies are explicit (Clone), never implicit.
  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;
  Document(Document&&) = default;
  Document& operator=(Document&&) = default;

  /// A deep copy with identical NodeIds, tags, text, attributes and
  /// finalized state (detached slots included).
  Document Clone() const;

  /// A compact, finalized copy of the tree reachable from the root:
  /// nodes renumbered in pre-order (so NodeId == PreorderIndex), every
  /// interned tag kept with its id, text and attributes copied. Detached
  /// subtrees and the pool bytes they or moved text left behind are
  /// dropped. One pass along the sibling links.
  Document CompactCopy() const;

  /// Creates the root element. Must be the first node created.
  NodeId CreateRoot(std::string_view tag);

  /// Appends a new last child with tag `tag` under `parent`.
  NodeId AppendChild(NodeId parent, std::string_view tag);

  /// Appends text content to a node (concatenated across calls). When
  /// the node's text is not at the end of the pool it moves there first,
  /// leaving its old bytes unused until the next CompactCopy.
  void AppendText(NodeId node, std::string_view text);

  /// Adds an attribute to a node (same pooling rule as AppendText).
  void AddAttribute(NodeId node, std::string_view name,
                    std::string_view value);

  /// Unlinks the subtree rooted at `n` from its parent. The arena slots
  /// stay allocated — NodeIds of the remaining tree are stable — but the
  /// subtree is no longer reachable from the root. Later siblings'
  /// indices shift down by one. Clears the finalized state. Returns
  /// false for the root, which cannot be detached.
  bool DetachSubtree(NodeId n);

  /// Computes pre-order intervals; idempotent. Must be called before
  /// IsBefore / IsAncestorOf / PreorderIndex.
  void Finalize();

  /// True once Finalize() has run on the current shape.
  bool finalized() const { return finalized_; }

  // --- Shape accessors -----------------------------------------------

  /// Root node; requires a non-empty document.
  NodeId root() const {
    XEE_CHECK(!nodes_.empty());
    return 0;
  }
  bool empty() const { return nodes_.empty(); }
  size_t NodeCount() const { return nodes_.size(); }

  NodeId Parent(NodeId n) const { return At(n).parent; }
  ChildRange Children(NodeId n) const {
    const Node& node = At(n);
    return ChildRange(nodes_.data(), node.first_child, node.child_count);
  }
  /// First child of `n`, or kNullNode for a leaf.
  NodeId FirstChild(NodeId n) const { return At(n).first_child; }
  /// The sibling after `n`, or kNullNode when `n` is the last child.
  NodeId NextSibling(NodeId n) const { return At(n).next_sibling; }
  size_t ChildCount(NodeId n) const { return At(n).child_count; }
  TagId Tag(NodeId n) const { return At(n).tag; }
  const std::string& TagName(NodeId n) const { return tag_names_[At(n).tag]; }
  std::string_view Text(NodeId n) const {
    const Node& node = At(n);
    return std::string_view(text_).substr(node.text_begin, node.text_size);
  }
  std::span<const Attribute> Attributes(NodeId n) const {
    const Node& node = At(n);
    return std::span<const Attribute>(attributes_)
        .subspan(node.attr_begin, node.attr_count);
  }
  /// 0-based position of `n` among its parent's children (0 for the root).
  size_t SiblingIndex(NodeId n) const { return At(n).sibling_index; }

  // --- Walks along parent and sibling links (no auxiliary stack) ------

  /// Calls `fn(n)` for every node of `root`'s subtree in pre-order.
  template <typename Fn>
  void ForEachPreorder(NodeId root, Fn&& fn) const {
    Walk(root, fn, [](NodeId) {});
  }

  /// Depth-first walk of `root`'s subtree: `enter(n)` in pre-order and
  /// `leave(n)` once all of n's descendants have been left (post-order).
  template <typename Enter, typename Leave>
  void Walk(NodeId root, Enter&& enter, Leave&& leave) const {
    NodeId n = root;
    while (true) {
      enter(n);
      if (At(n).first_child != kNullNode) {
        n = nodes_[n].first_child;
        continue;
      }
      while (true) {
        leave(n);
        if (n == root) return;
        const Node& node = nodes_[n];
        if (node.next_sibling != kNullNode) {
          n = node.next_sibling;
          break;
        }
        n = node.parent;
      }
    }
  }

  // --- Tag interning --------------------------------------------------

  /// Number of distinct element tags seen so far.
  size_t TagCount() const { return tag_names_.size(); }
  /// Name of an interned tag.
  const std::string& TagNameOf(TagId t) const {
    XEE_CHECK(t < tag_names_.size());
    return tag_names_[t];
  }
  /// Id of `name`, or nullopt if the tag never occurs in the document.
  std::optional<TagId> FindTag(std::string_view name) const;

  // --- Order / structure predicates (require Finalize()) --------------

  /// Position of `n` in a pre-order walk (root = 0).
  uint32_t PreorderIndex(NodeId n) const {
    XEE_CHECK(finalized_);
    return At(n).order_begin;
  }
  /// One past the pre-order position of `n`'s last descendant; the
  /// subtree of `n` spans [PreorderIndex(n), SubtreeEnd(n)).
  uint32_t SubtreeEnd(NodeId n) const {
    XEE_CHECK(finalized_);
    return At(n).order_end;
  }
  /// True iff `a` starts before `b` in document order (a != b allowed).
  bool IsBefore(NodeId a, NodeId b) const {
    XEE_CHECK(finalized_);
    return At(a).order_begin < At(b).order_begin;
  }
  /// True iff `a` is a proper ancestor of `b`.
  bool IsAncestorOf(NodeId a, NodeId b) const {
    XEE_CHECK(finalized_);
    return At(a).order_begin < At(b).order_begin &&
           At(b).order_end <= At(a).order_end;
  }

  /// Depth of `n` (root = 0).
  size_t Depth(NodeId n) const;

 private:
  const Node& At(NodeId n) const {
    XEE_CHECK(n < nodes_.size());
    return nodes_[n];
  }
  Node& At(NodeId n) {
    XEE_CHECK(n < nodes_.size());
    return nodes_[n];
  }

  TagId InternTag(std::string_view name);
  /// Links a new node with tag `tag` as the last child of `parent`
  /// (kNullNode for the root) and returns its id.
  NodeId Link(NodeId parent, TagId tag);

  std::vector<Node> nodes_;
  std::string text_;                   // pooled text, spans per node
  std::vector<Attribute> attributes_;  // pooled attributes, spans per node
  std::vector<std::string> tag_names_;
  std::unordered_map<std::string, TagId> tag_ids_;
  bool finalized_ = false;
};

}  // namespace xee::xml

#endif  // XEE_XML_TREE_H_
