#include "stats/path_order.h"

namespace xee::stats {

uint64_t PathOrderTable::Get(OrderRegion region, xml::TagId other,
                             encoding::PidRef pid) const {
  auto row = rows_.find(OrderRowKey{region, other});
  if (row == rows_.end()) return 0;
  auto cell = row->second.find(pid);
  return cell == row->second.end() ? 0 : cell->second;
}

void PathOrderTable::Add(OrderRegion region, xml::TagId other,
                         encoding::PidRef pid, uint64_t delta) {
  rows_[OrderRowKey{region, other}][pid] += delta;
}

void PathOrderTable::Sub(OrderRegion region, xml::TagId other,
                         encoding::PidRef pid, uint64_t delta) {
  auto row = rows_.find(OrderRowKey{region, other});
  XEE_CHECK(row != rows_.end());
  auto cell = row->second.find(pid);
  XEE_CHECK(cell != row->second.end() && cell->second >= delta);
  cell->second -= delta;
  if (cell->second == 0) {
    row->second.erase(cell);
    if (row->second.empty()) rows_.erase(row);
  }
}

size_t PathOrderTable::CellCount() const {
  size_t n = 0;
  for (const auto& [key, cells] : rows_) n += cells.size();
  return n;
}

OrderStats OrderStats::Build(const xml::Document& doc,
                             const encoding::Labeling& labeling) {
  OrderStats stats;
  stats.tables_.resize(doc.TagCount());

  // Scratch: per-tag counts of siblings in the currently-swept region,
  // plus the compact list of tags present (count > 0).
  std::vector<uint32_t> tag_count(doc.TagCount(), 0);
  std::vector<xml::TagId> present;

  auto sweep = [&](std::span<const xml::NodeId> children,
                   OrderRegion region) {
    // kBefore: for child i, distinct tags among siblings AFTER i.
    // kAfter:  for child i, distinct tags among siblings BEFORE i.
    // Sweep from the far end towards the near end, growing the multiset.
    present.clear();
    auto emit = [&](xml::NodeId child) {
      xml::TagId x = doc.Tag(child);
      encoding::PidRef pid = labeling.node_pid_refs[child];
      for (xml::TagId y : present) {
        stats.tables_[x].Add(region, y, pid, 1);
      }
    };
    auto add = [&](xml::NodeId child) {
      xml::TagId t = doc.Tag(child);
      if (tag_count[t]++ == 0) present.push_back(t);
    };
    if (region == OrderRegion::kBefore) {
      for (size_t i = children.size(); i-- > 0;) {
        emit(children[i]);
        add(children[i]);
      }
    } else {
      for (size_t i = 0; i < children.size(); ++i) {
        emit(children[i]);
        add(children[i]);
      }
    }
    for (xml::TagId t : present) tag_count[t] = 0;
  };

  // One parent's children, copied off the sibling links: the kBefore
  // sweep runs from the last child backwards.
  std::vector<xml::NodeId> children;
  for (xml::NodeId n = 0; n < doc.NodeCount(); ++n) {
    if (doc.ChildCount(n) < 2) continue;
    const xml::Document::ChildRange kids = doc.Children(n);
    children.assign(kids.begin(), kids.end());
    sweep(children, OrderRegion::kBefore);
    sweep(children, OrderRegion::kAfter);
  }
  return stats;
}

void OrderStats::ApplyGroup(const xml::Document& doc,
                            std::span<const xml::NodeId> children,
                            const std::vector<encoding::PidRef>& node_refs,
                            bool add) {
  if (children.size() < 2) return;
  const xml::TagId tag_limit = static_cast<xml::TagId>(tables_.size());
  std::vector<uint32_t> tag_count(tag_limit, 0);
  std::vector<xml::TagId> present;

  auto sweep = [&](OrderRegion region) {
    present.clear();
    auto emit = [&](xml::NodeId child) {
      xml::TagId x = doc.Tag(child);
      if (x >= tag_limit) return;
      encoding::PidRef pid = node_refs[child];
      if (pid == 0) return;
      for (xml::TagId y : present) {
        if (add) {
          tables_[x].Add(region, y, pid, 1);
        } else {
          tables_[x].Sub(region, y, pid, 1);
        }
      }
    };
    auto grow = [&](xml::NodeId child) {
      xml::TagId t = doc.Tag(child);
      if (t >= tag_limit) return;
      if (tag_count[t]++ == 0) present.push_back(t);
    };
    if (region == OrderRegion::kBefore) {
      for (size_t i = children.size(); i-- > 0;) {
        emit(children[i]);
        grow(children[i]);
      }
    } else {
      for (size_t i = 0; i < children.size(); ++i) {
        emit(children[i]);
        grow(children[i]);
      }
    }
    for (xml::TagId t : present) tag_count[t] = 0;
  };
  sweep(OrderRegion::kBefore);
  sweep(OrderRegion::kAfter);
}

size_t OrderStats::TotalCells() const {
  size_t n = 0;
  for (const auto& t : tables_) n += t.CellCount();
  return n;
}

}  // namespace xee::stats
