#ifndef XEE_EVAL_EXACT_EVALUATOR_H_
#define XEE_EVAL_EXACT_EVALUATOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "xml/tree.h"
#include "xpath/query.h"

namespace xee::eval {

/// Exact XPath evaluation over a Document for the paper's query fragment
/// (twig queries with child/descendant axes and order constraints). Used
/// as ground truth when measuring estimation error, and for pruning
/// negative queries from generated workloads.
///
/// Semantics: a match of query Q is a mapping from query nodes to
/// elements respecting tags ("*" matches any element), axes and order
/// constraints; the result of
/// `Matches`/`Count` is the set/count of distinct elements bound to
/// Q.target over all matches. Sibling constraints require the two
/// endpoints to be bound to children of the junction binding with the
/// `before` endpoint at a smaller sibling position; document-order
/// constraints require the `after` binding's subtree to start after the
/// `before` binding's subtree ends (the XPath following/preceding
/// relation), scoped under the junction binding as in paper Section 5.
///
/// Complexity: O(|doc| * |query|) for unordered queries and queries with
/// one order constraint; queries with several constraints at one
/// junction fall back to a per-candidate greedy check.
///
/// Thread-safety: `Matches`/`Count` are const and reentrant — the
/// `by_tag_` and `all_nodes_` indexes are immutable after construction,
/// and all per-query working state (including the match engine's pin
/// cache) lives on the call's own stack. The shadow-evaluation pipeline (obs/accuracy.h)
/// relies on this to run one shared evaluator from every thread-pool
/// worker concurrently.
class ExactEvaluator {
 public:
  /// `doc` must be finalized and pristine (no detached subtrees), and
  /// must outlive the evaluator.
  explicit ExactEvaluator(const xml::Document& doc);

  /// Distinct elements bound to `q.target`, in document order.
  Result<std::vector<xml::NodeId>> Matches(const xpath::Query& q) const;

  /// |Matches(q)|.
  Result<uint64_t> Count(const xpath::Query& q) const;

  /// Every element, in document order.
  std::span<const xml::NodeId> AllElements() const { return all_nodes_; }
  /// The elements with tag `t`, in document order.
  std::span<const xml::NodeId> ElementsWithTag(xml::TagId t) const {
    return std::span<const xml::NodeId>(by_tag_).subspan(
        tag_begin_[t], tag_begin_[t + 1] - tag_begin_[t]);
  }

 private:
  const xml::Document& doc_;
  /// Elements grouped by tag, each group sorted by pre-order position:
  /// tag t's elements are by_tag_[tag_begin_[t], tag_begin_[t + 1]).
  std::vector<xml::NodeId> by_tag_;
  std::vector<uint32_t> tag_begin_;
  /// All elements, sorted by pre-order (source for "*" name tests).
  std::vector<xml::NodeId> all_nodes_;
};

}  // namespace xee::eval

#endif  // XEE_EVAL_EXACT_EVALUATOR_H_
