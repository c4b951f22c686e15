#ifndef XEE_FUZZ_DELTA_GEN_H_
#define XEE_FUZZ_DELTA_GEN_H_

#include <cstdint>

#include "common/rng.h"
#include "delta/document_delta.h"
#include "xml/tree.h"

namespace xee::fuzz {

/// The delta battery's generators (delta_fuzz.cc), shared with tests
/// that replay its seeded mutation streams.

/// A small random document whose tag alphabet is partitioned by depth,
/// so it and every document reachable from it by the ops below is
/// recursion-free. Finalized.
xml::Document RandomDeltaDocument(Rng& rng);

/// A chain of 1..3 never-seen tags under a random live node.
delta::DeltaOp MakeNovelOp(Rng& rng, size_t live_nodes,
                           uint64_t* novel_counter);

/// Deletes the subtree at a random live rank (never the root).
delta::DeltaOp MakeDeleteOp(Rng& rng, size_t live_nodes);

/// One op of the tolerant battery's mixed stream: a clone
/// (delta::CloneSubtreeOp), a novel-tag insert or a delete, drawn
/// against `live`'s current shape.
delta::DeltaOp MakeMixedOp(Rng& rng, const delta::LiveDocument& live,
                           uint64_t* novel_counter);

}  // namespace xee::fuzz

#endif  // XEE_FUZZ_DELTA_GEN_H_
