#ifndef XEE_DELTA_LIVE_SYNOPSIS_H_
#define XEE_DELTA_LIVE_SYNOPSIS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/bitset.h"
#include "common/status.h"
#include "delta/document_delta.h"
#include "encoding/labeling.h"
#include "estimator/synopsis.h"
#include "stats/path_order.h"
#include "stats/value_stats.h"

namespace xee::delta {

/// Knobs for incremental synopsis maintenance.
struct PatchOptions {
  /// Fraction of the document (in node units) the patched synopsis may
  /// drift from a scratch rebuild before the budget is exhausted and a
  /// rebuild must be scheduled.
  double error_budget = 0.05;

  /// Per-tag relative staleness below which a dirty p-/o-histogram pair
  /// is left un-rebuilt ("patched": the stale histogram keeps serving
  /// and its staleness is charged to the budget). 0 rebuilds every
  /// dirty histogram from the exact maintained rows — still O(tag),
  /// never a document scan — making patched output bit-identical to a
  /// scratch build whenever the structural state is exact.
  double histo_patch_tolerance = 0.0;

  /// Construction knobs for histogram rebuilds (and the background full
  /// rebuild); must match the options the base synopsis was built with
  /// for patched and rebuilt output to agree.
  estimator::SynopsisOptions build;
};

/// What one applied batch did.
struct ApplyResult {
  uint64_t ops_applied = 0;
  /// Ops whose target was removed by an earlier op of the same batch.
  uint64_t ops_skipped = 0;
  uint64_t nodes_inserted = 0;
  uint64_t nodes_deleted = 0;
  uint64_t histos_patched = 0;
  uint64_t histos_rebuilt = 0;
  /// Patch error charged by this batch, in node units.
  double charged_nodes = 0;
  /// Cumulative patch error after this batch, as a document fraction.
  double patch_error = 0;
  bool budget_exhausted = false;
  /// The patched clone to publish (shares the base's path structures).
  std::shared_ptr<const estimator::Synopsis> synopsis;
};

/// Incrementally-maintained synopsis state over one LiveDocument: the
/// exact PathId-Frequency rows, path-order tables, per-node pid refs,
/// and working histogram copies, plus the patch-error accounting
/// (DESIGN.md §14).
///
/// Exactness contract: an insert is exactly patchable when its subtree
/// introduces no new root-to-leaf path, no new pid combination, and no
/// bit outside its parent's pid (so no ancestor pid changes) — e.g. any
/// clone of an earlier sibling subtree. Everything else still applies
/// but charges the error budget: novel-path subtrees go unrepresented
/// (ref 0, invisible to the maintained stats), and deletes charge for
/// the pid-structure staleness a scratch rebuild would resolve.
class LiveSynopsis {
 public:
  /// `doc` must be pristine (no detached nodes) and be the document the
  /// base synopsis was built from; it is borrowed, not owned.
  LiveSynopsis(std::shared_ptr<const estimator::Synopsis> base,
               LiveDocument* doc, PatchOptions options);

  /// Applies one batch: mutates the document, maintains the exact rows
  /// and order tables, makes the per-tag patch-or-rebuild decision, and
  /// returns the patched clone to publish. A rejected batch (invalid or
  /// fault-corrupted target) fails with kInvalidArgument and leaves the
  /// document and every maintained structure untouched.
  Result<ApplyResult> Apply(const DocumentDelta& delta);

  /// Re-bases on a freshly rebuilt synopsis after the document was
  /// compacted to match: recomputes attach state and resets the error
  /// budget. O(document), runs on the rebuild path only.
  void ResetToBase(std::shared_ptr<const estimator::Synopsis> base);

  const estimator::Synopsis& base() const { return *base_; }
  /// Cumulative charged patch error as a fraction of the document.
  double patch_error() const;
  bool budget_exhausted() const {
    return patch_error() > options_.error_budget;
  }

 private:
  void ApplyInsert(xml::NodeId parent, const SubtreeSpec& spec,
                   ApplyResult* res, double* charged);
  void ApplyDelete(xml::NodeId target, ApplyResult* res, double* charged);
  void FoldHistograms(ApplyResult* res, double* charged);
  void MarkDirty(xml::TagId tag);
  /// Marks every maintained tag of `group` as order-dirty: their
  /// o-histograms must be reconsidered even when their frequency rows
  /// did not change (a new or removed sibling shifts their order cells).
  void MarkGroupOrderDirty(std::span<const xml::NodeId> group);
  std::shared_ptr<const estimator::Synopsis> BuildClone() const;

  std::shared_ptr<const estimator::Synopsis> base_;
  LiveDocument* doc_;
  PatchOptions options_;
  bool maintain_order_ = false;
  bool maintain_values_ = false;

  /// PidRef of every node (by NodeId); 0 = unrepresented.
  std::vector<encoding::PidRef> node_refs_;
  /// Decoded pid -> ref, over the base's distinct-pid table.
  std::unordered_map<PathIdBits, encoding::PidRef, PathIdBits::Hash> ref_of_;
  /// Exact per-tag (pid, freq) rows; the map order is pid order, so a
  /// flattened row vector feeds PHistogram::Build directly.
  std::vector<std::map<encoding::PidRef, uint64_t>> rows_;
  stats::OrderStats order_;
  std::vector<uint32_t> ranks_;  // alphabetic tag ranks (o-histograms)

  /// Working copies of the published histograms / value stats.
  std::vector<histogram::PHistogram> p_work_;
  std::vector<histogram::OHistogram> o_work_;
  std::vector<stats::ValueStats::TagValues> value_work_;

  /// Per-tag staleness (node units) pending in the working histograms,
  /// and the portion of it already charged to the budget by earlier
  /// patch decisions.
  std::vector<double> stale_units_;
  std::vector<double> charged_units_;
  /// Tags whose frequency rows changed (stale_units accrue), and tags
  /// whose order cells changed (dirty even at zero frequency units).
  std::vector<xml::TagId> dirty_tags_;
  std::vector<char> dirty_;
  std::vector<char> order_dirty_;

  double charged_nodes_ = 0;
  double baseline_nodes_ = 1;
};

}  // namespace xee::delta

#endif  // XEE_DELTA_LIVE_SYNOPSIS_H_
