#ifndef XEE_DELTA_DOCUMENT_DELTA_H_
#define XEE_DELTA_DOCUMENT_DELTA_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "xml/tree.h"

namespace xee::delta {

/// A subtree to insert, flattened in preorder: node `i`'s parent is
/// `parent[i]`, the index of an earlier spec node, or -1 for the spec
/// root (which attaches under the op's target). Tags are names; they are
/// interned into the live document on application, so a spec may carry
/// tags the document has never seen.
struct SubtreeSpec {
  std::vector<std::string> tags;
  std::vector<int32_t> parent;

  size_t size() const { return tags.size(); }
};

/// One mutation against a live document.
struct DeltaOp {
  enum class Kind : uint8_t { kInsert = 0, kDelete = 1 };

  Kind kind = Kind::kInsert;

  /// Preorder rank of the target in the *live* tree as of the start of
  /// the batch (root = rank 0). For kInsert the target is the parent
  /// under which the subtree is appended as a new last child; for
  /// kDelete it is the subtree root to remove — never rank 0, the
  /// document root cannot go. Rank addressing survives compaction,
  /// which renumbers NodeIds but preserves preorder.
  uint32_t target = 0;

  SubtreeSpec subtree;  // kInsert only
};

/// A batched mutation: ops apply in order, all targets addressed
/// against the pre-batch shape. An op whose target was removed by an
/// earlier op of the same batch is skipped (and counted), not an error.
struct DocumentDelta {
  std::vector<DeltaOp> ops;
};

/// A mutable document plus the bookkeeping that keeps NodeIds stable
/// under deletion: detached subtrees stay in the arena (marked dead and
/// unreachable from the root) until a rebuild compacts the tree.
///
/// The live tree must never be labeled or exact-evaluated directly —
/// those passes walk the whole arena and would trip over detached
/// slots. Materialize() produces the pristine compact copy every
/// downstream consumer (Synopsis::Build, ground-truth evaluation) uses.
class LiveDocument {
 public:
  /// Fault site: corrupts the first op's target rank before validation,
  /// modeling a torn delta from upstream. ResolveTargets must reject the
  /// batch cleanly, leaving document and synopsis untouched.
  static constexpr const char* kCorruptFaultSite = "delta.corrupt";

  explicit LiveDocument(xml::Document doc);

  const xml::Document& doc() const { return doc_; }
  size_t live_nodes() const { return live_count_; }
  /// Bumped by every successful mutation and by Compact; lets a
  /// background rebuild detect that its materialized source went stale.
  uint64_t seq() const { return seq_; }
  bool detached(xml::NodeId n) const { return detached_[n] != 0; }

  /// The live nodes in preorder; index = preorder rank. A document-sized
  /// vector: the reference that tests check NodesAtRanks against.
  std::vector<xml::NodeId> PreorderNodes() const;

  /// The live nodes at preorder ranks `ranks` (each below live_nodes()),
  /// found by one walk along the sibling links that stops at the largest
  /// rank requested. `parent_ranks`, when non-null, receives each node's
  /// parent's rank (0 for the root).
  std::vector<xml::NodeId> NodesAtRanks(
      std::span<const uint32_t> ranks,
      std::vector<uint32_t>* parent_ranks = nullptr) const;

  /// Resolves every op's rank target to a NodeId against the current
  /// live shape (one NodesAtRanks walk), validating ranks and insert specs.
  /// Fails with kInvalidArgument — without touching the document — on
  /// an out-of-range rank, a delete of the root, or a malformed spec.
  Result<std::vector<xml::NodeId>> ResolveTargets(const DocumentDelta& delta);

  /// Appends `spec` under `parent`; returns the new NodeIds in spec
  /// (preorder) order — they are contiguous, ids[k] = ids[0] + k.
  std::vector<xml::NodeId> InsertSubtree(xml::NodeId parent,
                                         const SubtreeSpec& spec);

  /// The live nodes of `root`'s subtree in preorder (root first).
  std::vector<xml::NodeId> CollectSubtree(xml::NodeId root) const;

  /// Detaches `root`'s subtree and marks every node in it dead.
  /// `root` must not be the document root.
  void DeleteSubtree(xml::NodeId root);

  /// A compact, finalized copy of the live tree (Document::CompactCopy):
  /// nodes in preorder, every interned tag preserved with its id
  /// (including tags whose last element was deleted, so TagIds stay
  /// stable across compactions), text and attributes copied. The copy is
  /// pristine — LabelDocument and the exact evaluator accept it.
  xml::Document Materialize() const;

  /// Replaces the live tree with `compacted` (a Materialize() result
  /// for the current shape) — the rebuild-publish path.
  void Compact(xml::Document compacted);

 private:
  xml::Document doc_;
  std::vector<char> detached_;  // by NodeId; 1 = unreachable from root
  size_t live_count_ = 0;
  uint64_t seq_ = 0;
};

/// Builds the spec that clones `root`'s live subtree (tags only — no
/// text, no attributes). The workhorse of clone-insert generators in
/// fuzz/sim/bench: a clone appended under `root`'s own parent is exactly
/// patchable, since every path and pid combination it introduces already
/// occurs earlier in document order.
SubtreeSpec SpecFromSubtree(const LiveDocument& live, xml::NodeId root);

/// The insert op that clones the live subtree at preorder rank `rank`
/// (0 < rank < live_nodes()) under that subtree's own parent: the
/// canonical exactly-patchable mutation. One NodesAtRanks walk.
DeltaOp CloneSubtreeOp(const LiveDocument& live, uint32_t rank);

}  // namespace xee::delta

#endif  // XEE_DELTA_DOCUMENT_DELTA_H_
