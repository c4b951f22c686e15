#ifndef XEE_STATS_PATH_ORDER_H_
#define XEE_STATS_PATH_ORDER_H_

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "encoding/labeling.h"
#include "xml/tree.h"

namespace xee::stats {

/// Region of a path-order table (paper Section 3).
/// kBefore is the "+element" region: cell (pid, tag) counts the elements
/// X with `pid` that occur *before* some sibling tagged `tag`.
/// kAfter is the "element+" region: elements X occurring *after* some
/// sibling tagged `tag`. An X with `tag` siblings on both sides is
/// counted in both regions.
enum class OrderRegion : uint8_t { kBefore = 0, kAfter = 1 };

/// Row identity inside a path-order table: (region, other tag).
struct OrderRowKey {
  OrderRegion region;
  xml::TagId other_tag;

  friend bool operator==(const OrderRowKey&, const OrderRowKey&) = default;
  friend auto operator<=>(const OrderRowKey& a, const OrderRowKey& b) {
    if (a.region != b.region) return a.region <=> b.region;
    return a.other_tag <=> b.other_tag;
  }
};

/// The path-order table for one element tag (paper Section 3, Figure
/// 2(b)): sparse (region, other-tag) x (path id) grid of sibling-order
/// frequencies. Raw statistic summarized by the o-histogram.
class PathOrderTable {
 public:
  /// Cell value, 0 when absent.
  uint64_t Get(OrderRegion region, xml::TagId other, encoding::PidRef pid) const;

  /// Non-empty rows in sorted key order (region-major, tag minor); each
  /// row maps pid -> count, ordered by pid.
  const std::map<OrderRowKey, std::map<encoding::PidRef, uint64_t>>& rows()
      const {
    return rows_;
  }

  /// Number of non-empty cells.
  size_t CellCount() const;

  /// Adds `delta` to a cell.
  void Add(OrderRegion region, xml::TagId other, encoding::PidRef pid,
           uint64_t delta);

  /// Subtracts `delta` from a cell; the cell must hold at least `delta`
  /// (XEE_CHECK otherwise — a retraction of counts never added is a
  /// maintenance bug, not data). Cells and rows reaching zero are
  /// erased, keeping the sparse representation canonical: a table
  /// maintained by Add/Sub compares equal to one rebuilt from scratch.
  void Sub(OrderRegion region, xml::TagId other, encoding::PidRef pid,
           uint64_t delta);

  friend bool operator==(const PathOrderTable&,
                         const PathOrderTable&) = default;

 private:
  std::map<OrderRowKey, std::map<encoding::PidRef, uint64_t>> rows_;
};

/// Path-order tables for every tag of a document.
class OrderStats {
 public:
  /// Collects sibling-order statistics in one pass over the document.
  /// Cost is O(sum over parents of children * distinct sibling tags).
  static OrderStats Build(const xml::Document& doc,
                          const encoding::Labeling& labeling);

  const PathOrderTable& ForTag(xml::TagId tag) const {
    XEE_CHECK(tag < tables_.size());
    return tables_[tag];
  }

  size_t TagCount() const { return tables_.size(); }

  /// Total non-empty cells over all tags (drives o-histogram cost).
  size_t TotalCells() const;

  /// Applies (`add` = true) or retracts (`add` = false) the sibling-order
  /// contributions of one parent's child list — the incremental-
  /// maintenance counterpart of one Build group. `node_refs` maps NodeId
  /// -> PidRef; a child with ref 0 (unrepresented in the base synopsis)
  /// is emitted into no cell but still counts as a sibling of the
  /// represented children, matching what a scratch rebuild would see.
  /// Children whose tag is outside the maintained tag range are
  /// invisible entirely — the delta layer charges such subtrees to the
  /// patch-error budget instead of patching them. Groups of fewer than
  /// two children contribute nothing. Retraction with the same
  /// (children, refs) exactly undoes the matching application.
  void ApplyGroup(const xml::Document& doc,
                  std::span<const xml::NodeId> children,
                  const std::vector<encoding::PidRef>& node_refs, bool add);

  friend bool operator==(const OrderStats&, const OrderStats&) = default;

 private:
  std::vector<PathOrderTable> tables_;  // indexed by TagId
};

}  // namespace xee::stats

#endif  // XEE_STATS_PATH_ORDER_H_
