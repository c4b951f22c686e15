#include "eval/exact_evaluator.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <span>

namespace xee::eval {
namespace {

using xml::Document;
using xml::NodeId;
using xpath::OrderConstraint;
using xpath::OrderKind;
using xpath::Query;
using xpath::RootMode;
using xpath::StructAxis;

constexpr uint32_t kInf = std::numeric_limits<uint32_t>::max();

/// A branch candidate for constraint solving: `in` is the coordinate the
/// predecessor constraint tests (sibling position / pre-order begin),
/// `out` the coordinate imposed on successors (sibling position /
/// pre-order end).
struct PosCand {
  uint32_t in;
  uint32_t out;
};

/// Order-constraint structure at one junction query node.
struct JunctionPlan {
  std::vector<OrderConstraint> constraints;
  std::vector<int> branches;     // constrained child query nodes
  OrderKind kind = OrderKind::kSibling;
  std::vector<int> topo;         // branches in topological order
  bool cyclic = false;
};

/// Per-query working state.
struct Work {
  std::vector<xml::TagId> tags;                 // per query node
  std::vector<std::vector<NodeId>> cand_list;   // C(q), pre-order sorted
  std::vector<std::vector<uint8_t>> cand_mask;  // C(q) membership
  std::vector<JunctionPlan> plans;              // per query node
};

constexpr xml::TagId kAnyTag = UINT32_MAX;

class Engine {
 public:
  Engine(const Document& doc, const ExactEvaluator& index, const Query& q)
      : doc_(doc), index_(index), q_(q) {}

  Result<std::vector<NodeId>> Run() {
    // Resolve tags; an unknown tag means an empty result.
    w_.tags.resize(q_.nodes.size());
    for (size_t i = 0; i < q_.nodes.size(); ++i) {
      if (q_.nodes[i].tag == "*") {
        w_.tags[i] = kAnyTag;
        continue;
      }
      auto t = doc_.FindTag(q_.nodes[i].tag);
      if (!t.has_value()) return std::vector<NodeId>{};
      w_.tags[i] = *t;
    }
    Status s = BuildPlans();
    if (!s.ok()) return s;
    BottomUp();
    return TopDown();
  }

 private:
  /// Groups order constraints by junction and topo-sorts the branches.
  Status BuildPlans() {
    w_.plans.resize(q_.nodes.size());
    for (const OrderConstraint& c : q_.orders) {
      int junction = q_.nodes[c.before].parent;
      JunctionPlan& plan = w_.plans[junction];
      if (!plan.constraints.empty() && plan.kind != c.kind) {
        return Status(StatusCode::kUnsupported,
                      "mixed constraint kinds at one junction");
      }
      plan.kind = c.kind;
      plan.constraints.push_back(c);
      for (int e : {c.before, c.after}) {
        if (std::find(plan.branches.begin(), plan.branches.end(), e) ==
            plan.branches.end()) {
          plan.branches.push_back(e);
        }
      }
    }
    for (JunctionPlan& plan : w_.plans) {
      if (plan.constraints.empty()) continue;
      // Kahn topo sort over the constraint edges.
      std::vector<int> indeg(plan.branches.size(), 0);
      auto idx = [&](int node) {
        return static_cast<int>(std::find(plan.branches.begin(),
                                          plan.branches.end(), node) -
                                plan.branches.begin());
      };
      for (const OrderConstraint& c : plan.constraints) {
        indeg[idx(c.after)]++;
      }
      std::vector<int> queue;
      for (size_t i = 0; i < plan.branches.size(); ++i) {
        if (indeg[i] == 0) queue.push_back(static_cast<int>(i));
      }
      while (!queue.empty()) {
        int i = queue.back();
        queue.pop_back();
        plan.topo.push_back(plan.branches[i]);
        for (const OrderConstraint& c : plan.constraints) {
          if (c.before == plan.branches[i] && --indeg[idx(c.after)] == 0) {
            queue.push_back(idx(c.after));
          }
        }
      }
      plan.cyclic = plan.topo.size() != plan.branches.size();
    }
    return Status::Ok();
  }

  /// Candidates of branch `qc` inside junction binding `d` as (in, out)
  /// coordinates, ascending by `in`.
  std::vector<PosCand> CollectBranch(int qc, NodeId d,
                                     OrderKind kind) const {
    std::vector<PosCand> out;
    if (q_.nodes[qc].axis == StructAxis::kChild) {
      uint32_t i = 0;
      for (NodeId c : doc_.Children(d)) {
        const uint32_t pos = i++;
        if (!w_.cand_mask[qc][c]) continue;
        if (kind == OrderKind::kSibling) {
          out.push_back(PosCand{pos, pos});
        } else {
          out.push_back(PosCand{doc_.PreorderIndex(c), doc_.SubtreeEnd(c)});
        }
      }
    } else {
      // Descendant branch (document-order constraints only; Validate
      // forbids sibling constraints on descendant branches).
      ForEachDescendantCand(qc, d, [&](NodeId n) {
        out.push_back(PosCand{doc_.PreorderIndex(n), doc_.SubtreeEnd(n)});
      });
    }
    return out;
  }

  /// Calls `fn` for every candidate of `qc` in d's subtree (strict
  /// descendants).
  template <typename Fn>
  void ForEachDescendantCand(int qc, NodeId d, Fn&& fn) const {
    const auto& list = w_.cand_list[qc];
    const uint32_t begin = doc_.PreorderIndex(d);
    const uint32_t end = doc_.SubtreeEnd(d);
    auto it = std::upper_bound(
        list.begin(), list.end(), begin, [this](uint32_t pos, NodeId n) {
          return pos < doc_.PreorderIndex(n);
        });
    for (; it != list.end() && doc_.PreorderIndex(*it) < end; ++it) {
      fn(*it);
    }
  }

  /// Existence of any candidate of `qc` under `d` (axis-aware).
  bool BranchExists(int qc, NodeId d) const {
    if (q_.nodes[qc].axis == StructAxis::kChild) {
      for (NodeId ch : doc_.Children(d)) {
        if (w_.cand_mask[qc][ch]) return true;
      }
      return false;
    }
    bool found = false;
    ForEachDescendantCand(qc, d, [&](NodeId) { found = true; });
    return found;
  }

  /// Greedy feasibility of the constrained branches at junction `qn`
  /// bound to `d`. `pin_branch` (a query node id, or -1) forces that
  /// branch's candidate to `pin`.
  bool SolveConstraints(int qn, NodeId d, int pin_branch,
                        PosCand pin) const {
    const JunctionPlan& plan = w_.plans[qn];
    if (plan.cyclic) return false;
    const bool strict = plan.kind == OrderKind::kSibling;

    // req[branch] = minimal allowed `in`.
    std::vector<uint32_t> req(plan.branches.size(), 0);
    auto idx = [&](int node) {
      return static_cast<size_t>(std::find(plan.branches.begin(),
                                           plan.branches.end(), node) -
                                 plan.branches.begin());
    };
    for (int branch : plan.topo) {
      const size_t bi = idx(branch);
      uint32_t out;
      if (branch == pin_branch) {
        if (pin.in < req[bi]) return false;
        out = pin.out;
      } else {
        std::vector<PosCand> cands = CollectBranch(branch, d, plan.kind);
        uint32_t best = kInf;
        for (const PosCand& c : cands) {
          if (c.in >= req[bi]) best = std::min(best, c.out);
        }
        if (best == kInf) return false;
        out = best;
      }
      for (const OrderConstraint& c : plan.constraints) {
        if (c.before != branch) continue;
        const size_t ai = idx(c.after);
        const uint32_t need = strict ? out + 1 : out;
        req[ai] = std::max(req[ai], need);
      }

    }
    return true;
  }

  /// d satisfies the subquery rooted at qn (downwards only).
  bool SubtreeFeasible(int qn, NodeId d) const {
    const JunctionPlan& plan = w_.plans[qn];
    for (int qc : q_.nodes[qn].children) {
      const bool constrained =
          std::find(plan.branches.begin(), plan.branches.end(), qc) !=
          plan.branches.end();
      if (constrained) continue;  // handled by the solver below
      if (!BranchExists(qc, d)) return false;
    }
    if (!plan.constraints.empty()) {
      return SolveConstraints(qn, d, /*pin_branch=*/-1, PosCand{});
    }
    return true;
  }

  void BottomUp() {
    const size_t n = q_.nodes.size();
    w_.cand_list.resize(n);
    w_.cand_mask.assign(n, std::vector<uint8_t>(doc_.NodeCount(), 0));
    // Parents precede children in index order, so reverse order is
    // bottom-up.
    for (size_t i = n; i-- > 0;) {
      const int qi = static_cast<int>(i);
      const std::span<const NodeId> source =
          w_.tags[i] == kAnyTag ? index_.AllElements()
                                : index_.ElementsWithTag(w_.tags[i]);
      const auto& filter = q_.nodes[i].value_filter;
      for (NodeId d : source) {
        if (filter.has_value() && doc_.Text(d) != *filter) continue;
        if (!SubtreeFeasible(qi, d)) continue;
        w_.cand_list[i].push_back(d);
        w_.cand_mask[i][d] = 1;
      }
    }
  }

  /// Pin feasibility of `d` as branch `qc` under junction binding `dp`.
  /// Assumes dp in M(parent) (all branches feasible without pin).
  bool PinFeasible(int qp, NodeId dp, int qc, NodeId d) const {
    const JunctionPlan& plan = w_.plans[qp];
    if (plan.constraints.empty() ||
        std::find(plan.branches.begin(), plan.branches.end(), qc) ==
            plan.branches.end()) {
      return true;  // unconstrained branch: dp's feasibility stands
    }
    PosCand pin;
    if (plan.kind == OrderKind::kSibling) {
      const uint32_t pos = static_cast<uint32_t>(doc_.SiblingIndex(d));
      pin = PosCand{pos, pos};
    } else {
      pin = PosCand{doc_.PreorderIndex(d), doc_.SubtreeEnd(d)};
    }
    // Fast path for the common single-constraint case, cached per dp.
    if (plan.constraints.size() == 1) {
      const OrderConstraint& c = plan.constraints[0];
      const bool strict = plan.kind == OrderKind::kSibling;
      const SummaryKey key{qp, dp};
      if (!(cached_key_ == key)) {
        const int other = qc == c.before ? c.after : c.before;
        // Both (min out, max in) summaries computed once per dp; the
        // other endpoint of this pin uses one of them.
        std::vector<PosCand> oc = CollectBranch(other, dp, plan.kind);
        uint32_t min_out = kInf, max_in = 0;
        bool any = false;
        for (const PosCand& pc : oc) {
          min_out = std::min(min_out, pc.out);
          max_in = std::max(max_in, pc.in);
          any = true;
        }
        cached_key_ = key;

        cached_any_ = any;
        cached_min_out_ = min_out;
        cached_max_in_ = max_in;
      }
      if (!cached_any_) return false;
      if (qc == c.after) {
        return pin.in >= (strict ? cached_min_out_ + 1 : cached_min_out_);
      }
      return cached_max_in_ >= (strict ? pin.out + 1 : pin.out);
    }
    return SolveConstraints(qp, dp, qc, pin);
  }

  Result<std::vector<NodeId>> TopDown() {
    const size_t n = q_.nodes.size();
    std::vector<std::vector<NodeId>> m_list(n);
    std::vector<std::vector<uint8_t>> m_mask(
        n, std::vector<uint8_t>(doc_.NodeCount(), 0));

    for (NodeId d : w_.cand_list[0]) {
      if (q_.root_mode == RootMode::kAbsolute && d != doc_.root()) continue;
      m_list[0].push_back(d);
      m_mask[0][d] = 1;
    }
    for (size_t i = 1; i < n; ++i) {
      const int qp = q_.nodes[i].parent;
      cached_key_ = SummaryKey{};  // reset the per-dp cache between nodes
      for (NodeId d : w_.cand_list[i]) {
        bool ok = false;
        if (q_.nodes[i].axis == StructAxis::kChild) {
          NodeId dp = doc_.Parent(d);
          ok = dp != xml::kNullNode && m_mask[qp][dp] &&
               PinFeasible(qp, dp, static_cast<int>(i), d);
        } else {
          for (NodeId dp = doc_.Parent(d); dp != xml::kNullNode;
               dp = doc_.Parent(dp)) {
            if (m_mask[qp][dp] &&
                PinFeasible(qp, dp, static_cast<int>(i), d)) {
              ok = true;
              break;
            }
          }
        }
        if (ok) {
          m_list[i].push_back(d);
          m_mask[i][d] = 1;
        }
      }
    }
    return std::move(m_list[q_.target]);
  }

  struct SummaryKey {
    int qp = -1;
    NodeId dp = xml::kNullNode;
    friend bool operator==(const SummaryKey&, const SummaryKey&) = default;
  };

  const Document& doc_;
  const ExactEvaluator& index_;
  const Query& q_;
  Work w_;

  // Single-constraint pin cache (see PinFeasible).
  mutable SummaryKey cached_key_;
  mutable bool cached_any_ = false;
  mutable uint32_t cached_min_out_ = 0;
  mutable uint32_t cached_max_in_ = 0;
};

}  // namespace

ExactEvaluator::ExactEvaluator(const xml::Document& doc) : doc_(doc) {
  XEE_CHECK_MSG(doc.finalized(), "document must be finalized");
  // Pristine: every node is reachable from the root, so the pre-order
  // positions are exactly 0..n-1 (a detached subtree would make them short).
  XEE_CHECK_MSG(doc.SubtreeEnd(doc.root()) == doc.NodeCount(),
                "document must be pristine");
  // One pass places every element at its pre-order position and counts
  // the tags; a counting sort then splits that list into per-tag runs,
  // each still in position order. No comparison sort is needed.
  const size_t n = doc.NodeCount();
  all_nodes_.assign(n, xml::kNullNode);
  tag_begin_.assign(doc.TagCount() + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    all_nodes_[doc.PreorderIndex(v)] = v;
    ++tag_begin_[doc.Tag(v) + 1];
  }
  for (size_t t = 1; t < tag_begin_.size(); ++t) {
    tag_begin_[t] += tag_begin_[t - 1];
  }
  by_tag_.resize(n);
  std::vector<uint32_t> next(tag_begin_.begin(), tag_begin_.end() - 1);
  for (NodeId v : all_nodes_) by_tag_[next[doc.Tag(v)]++] = v;
}

Result<std::vector<xml::NodeId>> ExactEvaluator::Matches(
    const xpath::Query& q) const {
  Status s = q.Validate();
  if (!s.ok()) return s;
  Engine engine(doc_, *this, q);
  Result<std::vector<NodeId>> r = engine.Run();
  if (!r.ok()) return r;
  std::vector<NodeId> matches = std::move(r).value();
  std::sort(matches.begin(), matches.end(), [this](NodeId a, NodeId b) {
    return doc_.PreorderIndex(a) < doc_.PreorderIndex(b);
  });
  return matches;
}

Result<uint64_t> ExactEvaluator::Count(const xpath::Query& q) const {
  Result<std::vector<NodeId>> r = Matches(q);
  if (!r.ok()) return r.status();
  return static_cast<uint64_t>(r.value().size());
}

}  // namespace xee::eval
