#include "delta/live_synopsis.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "stats/pathid_frequency.h"

namespace xee::delta {
namespace {

/// `n`'s children, copied off the sibling links (an order group).
std::vector<xml::NodeId> ChildList(const xml::Document& d, xml::NodeId n) {
  const xml::Document::ChildRange kids = d.Children(n);
  return std::vector<xml::NodeId>(kids.begin(), kids.end());
}

}  // namespace

LiveSynopsis::LiveSynopsis(std::shared_ptr<const estimator::Synopsis> base,
                           LiveDocument* doc, PatchOptions options)
    : doc_(doc), options_(options) {
  XEE_CHECK(doc_ != nullptr);
  ResetToBase(std::move(base));
}

void LiveSynopsis::ResetToBase(
    std::shared_ptr<const estimator::Synopsis> base) {
  base_ = std::move(base);
  const xml::Document& d = doc_->doc();
  XEE_CHECK(doc_->live_nodes() == d.NodeCount());  // pristine document
  XEE_CHECK(base_->TagCount() == d.TagCount());
  maintain_order_ = base_->has_order();
  maintain_values_ = base_->value_stats() != nullptr;

  // Relabeling the pristine document reproduces the base's encoding and
  // ref assignment exactly (labeling is deterministic in the document).
  encoding::Labeling lab = encoding::LabelDocument(d);
  XEE_CHECK(lab.table.PathCount() == base_->table().PathCount());
  order_ = maintain_order_ ? stats::OrderStats::Build(d, lab)
                           : stats::OrderStats();
  node_refs_ = std::move(lab.node_pid_refs);

  const std::vector<PathIdBits>& pids = base_->AllPidBits();
  ref_of_.clear();
  ref_of_.reserve(pids.size());
  for (size_t i = 0; i < pids.size(); ++i) {
    ref_of_.emplace(pids[i], static_cast<encoding::PidRef>(i + 1));
  }

  const size_t tags = base_->TagCount();
  rows_.assign(tags, {});
  for (xml::NodeId n = 0; n < d.NodeCount(); ++n) {
    rows_[d.Tag(n)][node_refs_[n]] += 1;
  }
  std::vector<std::string> names;
  names.reserve(tags);
  for (size_t t = 0; t < tags; ++t) {
    names.push_back(base_->TagName(static_cast<xml::TagId>(t)));
  }
  ranks_ = estimator::Synopsis::AlphabeticRanks(names);

  p_work_.clear();
  o_work_.clear();
  value_work_.clear();
  for (size_t t = 0; t < tags; ++t) {
    p_work_.push_back(base_->PHisto(static_cast<xml::TagId>(t)));
  }
  if (maintain_order_) {
    for (size_t t = 0; t < tags; ++t) {
      o_work_.push_back(base_->OHisto(static_cast<xml::TagId>(t)));
    }
  }
  if (maintain_values_) {
    for (size_t t = 0; t < tags; ++t) {
      value_work_.push_back(
          base_->value_stats()->ForTag(static_cast<xml::TagId>(t)));
    }
  }

  stale_units_.assign(tags, 0);
  charged_units_.assign(tags, 0);
  dirty_.assign(tags, 0);
  order_dirty_.assign(tags, 0);
  dirty_tags_.clear();
  charged_nodes_ = 0;
  baseline_nodes_ = std::max<double>(1.0, static_cast<double>(d.NodeCount()));
}

double LiveSynopsis::patch_error() const {
  return charged_nodes_ / baseline_nodes_;
}

void LiveSynopsis::MarkDirty(xml::TagId tag) {
  if (dirty_[tag] == 0 && order_dirty_[tag] == 0) dirty_tags_.push_back(tag);
  dirty_[tag] = 1;
}

void LiveSynopsis::MarkGroupOrderDirty(
    std::span<const xml::NodeId> group) {
  if (!maintain_order_ || group.size() < 2) return;
  const xml::Document& d = doc_->doc();
  for (xml::NodeId n : group) {
    const xml::TagId t = d.Tag(n);
    if (t >= order_dirty_.size()) continue;
    if (dirty_[t] == 0 && order_dirty_[t] == 0) dirty_tags_.push_back(t);
    order_dirty_[t] = 1;
  }
}

Result<ApplyResult> LiveSynopsis::Apply(const DocumentDelta& delta) {
  Result<std::vector<xml::NodeId>> resolved = doc_->ResolveTargets(delta);
  if (!resolved.ok()) return resolved.status();

  ApplyResult res;
  double charged = 0;
  for (size_t i = 0; i < delta.ops.size(); ++i) {
    const DeltaOp& op = delta.ops[i];
    const xml::NodeId target = resolved.value()[i];
    if (doc_->detached(target)) {
      ++res.ops_skipped;
      continue;
    }
    if (op.kind == DeltaOp::Kind::kInsert) {
      ApplyInsert(target, op.subtree, &res, &charged);
    } else {
      ApplyDelete(target, &res, &charged);
    }
    ++res.ops_applied;
  }
  FoldHistograms(&res, &charged);
  charged_nodes_ += charged;
  res.charged_nodes = charged;
  res.patch_error = patch_error();
  res.budget_exhausted = budget_exhausted();
  res.synopsis = BuildClone();
  return res;
}

void LiveSynopsis::ApplyInsert(xml::NodeId parent, const SubtreeSpec& spec,
                               ApplyResult* res, double* charged) {
  std::vector<xml::NodeId> before;
  if (maintain_order_) before = ChildList(doc_->doc(), parent);
  const std::vector<xml::NodeId> ids = doc_->InsertSubtree(parent, spec);
  const xml::Document& d = doc_->doc();
  node_refs_.resize(d.NodeCount(), 0);
  res->nodes_inserted += ids.size();

  const size_t tag_limit = rows_.size();
  const encoding::EncodingTable& table = base_->table();
  const size_t width = table.PathCount();

  // A subtree is exactly patchable when every leaf path is already
  // encoded and the subtree's combined pid is covered by the parent's —
  // then no ancestor pid changes and the encoding table stays valid.
  // Pids are computed bottom-up: spec order is preorder, so children
  // follow their parent in `ids` and a reverse sweep sees them first.
  bool structure_ok = node_refs_[parent] != 0;
  std::vector<PathIdBits> bits;
  if (structure_ok) {
    bits.assign(ids.size(), PathIdBits(width));
    for (size_t k = ids.size(); k-- > 0;) {
      const xml::NodeId id = ids[k];
      if (d.FirstChild(id) == xml::kNullNode) {
        encoding::TagPath path;
        for (xml::NodeId p = id; p != xml::kNullNode; p = d.Parent(p)) {
          path.push_back(d.Tag(p));
        }
        std::reverse(path.begin(), path.end());
        const uint32_t enc = table.Find(path);
        if (enc == 0) {
          structure_ok = false;
          break;
        }
        bits[k].Set(enc);
      } else {
        for (xml::NodeId c : d.Children(id)) bits[k].OrWith(bits[c - ids[0]]);
      }
    }
    if (structure_ok &&
        !base_->PidBits(node_refs_[parent]).Covers(bits[0])) {
      structure_ok = false;
    }
  }

  if (!structure_ok) {
    // The whole subtree goes unrepresented, and a scratch rebuild would
    // relabel the ancestor chain (its pids gain the new paths): charge
    // the inserted nodes plus that chain, in node units.
    *charged += static_cast<double>(ids.size()) +
                static_cast<double>(d.Depth(parent) + 1);
  } else {
    for (size_t k = 0; k < ids.size(); ++k) {
      auto it = ref_of_.find(bits[k]);
      if (it == ref_of_.end()) {
        // Known paths but a pid combination the base never saw — a
        // rebuild would mint a new distinct pid. One node's worth of
        // estimate drift; the node stays unrepresented.
        *charged += 1;
        continue;
      }
      node_refs_[ids[k]] = it->second;
      const xml::TagId t = d.Tag(ids[k]);
      XEE_CHECK(t < tag_limit);  // known paths imply known tags
      rows_[t][it->second] += 1;
      MarkDirty(t);
      stale_units_[t] += 1;
    }
  }

  // Element totals count every known-tag insert, represented or not —
  // mirroring what a scratch ValueStats::Build of the mutated document
  // would see (inserted nodes carry no text).
  if (maintain_values_) {
    for (xml::NodeId id : ids) {
      if (d.Tag(id) < tag_limit) value_work_[d.Tag(id)].total_elements += 1;
    }
  }

  if (maintain_order_) {
    order_.ApplyGroup(d, before, node_refs_, false);
    const std::vector<xml::NodeId> after = ChildList(d, parent);
    order_.ApplyGroup(d, after, node_refs_, true);
    MarkGroupOrderDirty(after);
    for (xml::NodeId id : ids) {
      if (d.ChildCount(id) >= 2) {
        const std::vector<xml::NodeId> kids = ChildList(d, id);
        order_.ApplyGroup(d, kids, node_refs_, true);
        MarkGroupOrderDirty(kids);
      }
    }
  }
}

void LiveSynopsis::ApplyDelete(xml::NodeId target, ApplyResult* res,
                               double* charged) {
  const xml::Document& d = doc_->doc();
  const std::vector<xml::NodeId> sub = doc_->CollectSubtree(target);
  const xml::NodeId parent = d.Parent(target);
  const size_t tag_limit = rows_.size();

  if (maintain_order_) {
    for (xml::NodeId n : sub) {
      if (d.ChildCount(n) >= 2) {
        const std::vector<xml::NodeId> kids = ChildList(d, n);
        order_.ApplyGroup(d, kids, node_refs_, false);
        MarkGroupOrderDirty(kids);
      }
    }
    const std::vector<xml::NodeId> before = ChildList(d, parent);
    order_.ApplyGroup(d, before, node_refs_, false);
    MarkGroupOrderDirty(before);
  }

  for (xml::NodeId n : sub) {
    const xml::TagId t = d.Tag(n);
    const encoding::PidRef ref = node_refs_[n];
    if (ref != 0) {
      auto it = rows_[t].find(ref);
      XEE_CHECK(it != rows_[t].end() && it->second > 0);
      if (--it->second == 0) rows_[t].erase(it);
      MarkDirty(t);
      stale_units_[t] += 1;
    }
    if (t < tag_limit && maintain_values_) {
      XEE_CHECK(value_work_[t].total_elements > 0);
      value_work_[t].total_elements -= 1;
      // The tag's top-value rows may now overcount: charge the node.
      if (!d.Text(n).empty()) *charged += 1;
    }
    node_refs_[n] = 0;
  }
  // A scratch rebuild may prune paths and pid combinations that just
  // went extinct, shifting the pid table we keep serving: one flat
  // conservative unit per delete op.
  *charged += 1;
  res->nodes_deleted += sub.size();

  doc_->DeleteSubtree(target);
  if (maintain_order_) {
    order_.ApplyGroup(d, ChildList(d, parent), node_refs_, true);
  }
}

void LiveSynopsis::FoldHistograms(ApplyResult* res, double* charged) {
  for (xml::TagId t : dirty_tags_) {
    const bool freq_dirty = dirty_[t] != 0;
    dirty_[t] = 0;
    order_dirty_[t] = 0;

    uint64_t total = 0;
    for (const auto& [pid, f] : rows_[t]) total += f;
    const double rel =
        stale_units_[t] / std::max<double>(1.0, static_cast<double>(total));
    // Tolerance 0 is strict mode: every dirty histogram is rebuilt from
    // the exact rows. Above 0, small frequency churn is absorbed — the
    // published histograms stay stale and the pending units are charged
    // once. Order-only dirt (a sibling appeared or vanished without
    // this tag's frequencies moving) always rebuilds: the o-histogram
    // rebuild is exact from the maintained order tables and O(tag), so
    // skipping it would leave a stale histogram with nothing charged —
    // the tolerance knob absorbs frequency churn, never accuracy.
    const bool rebuild = !freq_dirty ||
                         options_.histo_patch_tolerance == 0.0 ||
                         rel > options_.histo_patch_tolerance;
    if (!rebuild) {
      *charged += stale_units_[t] - charged_units_[t];
      charged_units_[t] = stale_units_[t];
      ++res->histos_patched;
      continue;
    }
    // Pending units from an earlier absorbed batch mean the published
    // p-histogram is stale even when this batch left the frequencies
    // alone; the exact rows make the rebuild correct either way.
    if (freq_dirty || stale_units_[t] > 0) {
      p_work_[t] = histogram::PHistogram::FromExactRows(
          rows_[t], options_.build.p_variance,
          options_.build.equi_count_p_buckets);
    }
    if (maintain_order_) {
      o_work_[t] = histogram::OHistogram::Build(
          order_.ForTag(t), ranks_, p_work_[t].PidsInOrder(),
          options_.build.o_variance);
    }
    stale_units_[t] = 0;
    charged_units_[t] = 0;
    ++res->histos_rebuilt;
  }
  dirty_tags_.clear();
}

std::shared_ptr<const estimator::Synopsis> LiveSynopsis::BuildClone() const {
  std::optional<stats::ValueStats> values;
  if (maintain_values_) {
    values = stats::ValueStats::FromTagValues(value_work_);
  }
  return std::make_shared<const estimator::Synopsis>(
      estimator::Synopsis::PatchedClone(*base_, p_work_, o_work_,
                                        std::move(values)));
}

}  // namespace xee::delta
