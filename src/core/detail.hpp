#pragma once

#include <atomic>
#include <span>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/msf_result.hpp"
#include "pprim/cacheline.hpp"
#include "pprim/counting_sort.hpp"
#include "pprim/parallel_for.hpp"
#include "pprim/prefix_sum.hpp"
#include "pprim/thread_team.hpp"

namespace smp::core::detail {

/// Per-thread buffers for MSF edge ids found during parallel phases; avoids
/// any synchronization on the hot path and concatenates once at the end.
class EdgeCollector {
 public:
  explicit EdgeCollector(int nthreads) : slots_(static_cast<std::size_t>(nthreads)) {}

  void add(int tid, graph::EdgeId orig) {
    slots_[static_cast<std::size_t>(tid)].value.push_back(orig);
  }

  [[nodiscard]] std::size_t total() const {
    std::size_t s = 0;
    for (const auto& sl : slots_) s += sl.value.size();
    return s;
  }

  /// Move all buffers into one vector (tid order; within a tid, find order).
  std::vector<graph::EdgeId> gather() {
    std::vector<graph::EdgeId> out;
    out.reserve(total());
    for (auto& sl : slots_) {
      out.insert(out.end(), sl.value.begin(), sl.value.end());
      sl.value.clear();
    }
    return out;
  }

 private:
  std::vector<Padded<std::vector<graph::EdgeId>>> slots_;
};

/// Builds the public result from the collected input-edge indices.
graph::MsfResult assemble_result(const graph::EdgeList& input,
                                 std::vector<graph::EdgeId> ids);

/// Team-shared scratch for contract_in_region (grow-only across iterations —
/// arc counts only shrink).
template <class Arc>
struct ContractScratch {
  /// Last row of this round that saw a target, and the target's slot there.
  struct Stamp {
    graph::VertexId row, slot;
  };
  explicit ContractScratch(int p) : seen(static_cast<std::size_t>(p)) {}

  BucketScatterScratch scatter;
  std::vector<graph::EdgeId> bucket_offsets;
  std::vector<Arc> buckets;                 // relabelled arcs grouped by new source
  std::vector<graph::EdgeId> next_offsets;  // deduplicated row lengths, then the CSR
  std::vector<Padded<std::vector<Stamp>>> seen;  // one table per thread
  std::atomic<std::size_t> dedup_cursor{0};
};

/// compact-graph, the one contraction kernel of the Borůvka loops (Bor-EL,
/// MST-BC): rebuild the arc set over the `next_n` supervertices as a CSR
/// that holds, per source row, only the WeightOrder-minimal arc to each
/// target.
///
/// `emit(put)` walks the calling thread's share of the current arcs and calls
/// put(new_source, arc) for every arc that is not a self-loop, the arc
/// already carrying its new endpoints; it must make the same calls on both of
/// its passes (see bucket_scatter_in_region).  Arc has a `target` field and
/// an `order()` under WeightOrder.  The kernel scatters the arcs straight
/// into their new source's row; each row then keeps its lightest arc per
/// target — a per-thread stamp table finds the target's slot, so the row
/// compacts in place in O(row length) with no sort — and a prefix over the
/// kept lengths plus a gather yields the next CSR in `offsets` (next_n + 1
/// entries) and `arcs`.  `emit` may read the current `offsets` and `arcs`: they are only
/// overwritten after the scatter.  In-region, identical arguments on all
/// threads; the final barrier publishes the result.
template <class Arc, class Emit>
void contract_in_region(TeamCtx& ctx, graph::VertexId next_n, Emit&& emit,
                        std::vector<graph::EdgeId>& offsets,
                        std::vector<Arc>& arcs, ContractScratch<Arc>& s) {
  using graph::EdgeId;
  using graph::VertexId;
  constexpr std::size_t kRowChunk = 64;  // rows per grab of the dedup pass
  bucket_scatter_in_region(ctx, next_n, emit, s.bucket_offsets, s.buckets,
                           s.scatter);
  if (ctx.tid() == 0) {
    s.next_offsets.resize(static_cast<std::size_t>(next_n) + 1);
    s.next_offsets[next_n] = 0;
    s.dedup_cursor.store(0, std::memory_order_relaxed);
  }
  auto& seen = s.seen[static_cast<std::size_t>(ctx.tid())].value;
  seen.assign(next_n, {graph::kInvalidVertex, 0});
  ctx.barrier();
  for_range_dynamic(ctx, s.dedup_cursor, next_n, kRowChunk, [&](std::size_t k) {
    const EdgeId lo = s.bucket_offsets[k];
    VertexId kept = 0;
    for (EdgeId i = lo; i < s.bucket_offsets[k + 1]; ++i) {
      const Arc arc = s.buckets[i];
      auto& st = seen[arc.target];
      if (st.row != k) {
        st = {static_cast<VertexId>(k), kept};
        s.buckets[lo + kept++] = arc;
      } else if (arc.order() < s.buckets[lo + st.slot].order()) {
        s.buckets[lo + st.slot] = arc;
      }
    }
    s.next_offsets[k] = kept;
  });
  ctx.barrier();
  const EdgeId total =
      prefix_sum_in_region(ctx, std::span<EdgeId>(s.next_offsets), s.scatter.scan);
  if (ctx.tid() == 0) arcs.resize(total);
  ctx.barrier();
  for_csr_block(ctx, s.next_offsets, [&](std::size_t k, std::size_t i) {
    arcs[i] = s.buckets[s.bucket_offsets[k] + i - s.next_offsets[k]];
  });
  ctx.barrier();
  if (ctx.tid() == 0) offsets.swap(s.next_offsets);
  ctx.barrier();
}

}  // namespace smp::core::detail
