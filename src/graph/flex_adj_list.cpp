#include "graph/flex_adj_list.hpp"

#include <numeric>

#include "pprim/parallel_for.hpp"
#include "pprim/sample_sort.hpp"

namespace smp::graph {

FlexAdjList::FlexAdjList(const CsrGraph& csr)
    : FlexAdjList(csr.num_vertices(), csr.offsets()) {}

FlexAdjList::FlexAdjList(VertexId n, std::span<const EdgeId> offsets)
    : offsets_(offsets), num_super_(n) {
  label_.resize(n);
  head_.resize(n);
  tail_.resize(n);
  next_.assign(n, kInvalidVertex);
  std::iota(label_.begin(), label_.end(), VertexId{0});
  std::iota(head_.begin(), head_.end(), VertexId{0});
  std::iota(tail_.begin(), tail_.end(), VertexId{0});
  live_head_.assign(offsets.begin(), offsets.end() - 1);
}

EdgeId FlexAdjList::live_arcs() const {
  EdgeId total = 0;
  for (std::size_t x = 0; x < live_head_.size(); ++x) {
    total += offsets_[x + 1] - live_head_[x];
  }
  return total;
}

std::size_t FlexAdjList::member_count(VertexId s) const {
  std::size_t c = 0;
  for_each_member(s, [&](VertexId) { ++c; });
  return c;
}

void FlexAdjList::contract(ThreadTeam& team, std::span<const VertexId> new_label,
                           VertexId new_n) {
  ContractScratch scratch;
  team.run([&](TeamCtx& ctx) { contract(ctx, new_label, new_n, scratch); });
}

void FlexAdjList::contract(TeamCtx& ctx, std::span<const VertexId> new_label,
                           VertexId new_n, ContractScratch& s) {
  const auto cur_n = static_cast<VertexId>(new_label.size());
  if (ctx.tid() == 0) {
    s.order.resize(cur_n);
    s.group_start.resize(static_cast<std::size_t>(new_n) + 1);
    s.new_head.resize(new_n);
    s.new_tail.resize(new_n);
    s.chain_cursor.store(0, std::memory_order_relaxed);
  }
  ctx.barrier();

  // Sort the current supervertices by their new label so merging groups are
  // contiguous ("compact-graph first sorts the n vertices", §3).
  for_range(ctx, cur_n, [&](std::size_t i) {
    s.order[i] = static_cast<VertexId>(i);
  });
  ctx.barrier();
  sample_sort_in_region(ctx, s.order, s.sort, [&](VertexId a, VertexId b) {
    return new_label[a] != new_label[b] ? new_label[a] < new_label[b] : a < b;
  });

  // Group starts: new labels are dense, every group non-empty.
  for_range(ctx, cur_n, [&](std::size_t i) {
    if (i == 0 || new_label[s.order[i]] != new_label[s.order[i - 1]]) {
      s.group_start[new_label[s.order[i]]] = static_cast<VertexId>(i);
    }
  });
  if (ctx.tid() == 0) s.group_start[new_n] = cur_n;
  ctx.barrier();

  // O(n) pointer appends: chain the member lists of each group.
  for_range_dynamic(ctx, s.chain_cursor, new_n, 64, [&](std::size_t sv) {
    const VertexId gs = s.group_start[sv];
    const VertexId ge = s.group_start[sv + 1];
    s.new_head[sv] = head_[s.order[gs]];
    VertexId t = tail_[s.order[gs]];
    for (VertexId gi = gs + 1; gi < ge; ++gi) {
      const VertexId o = s.order[gi];
      next_[t] = head_[o];
      t = tail_[o];
    }
    s.new_tail[sv] = t;
  });
  ctx.barrier();

  // Publish the new head/tail arrays (new_n ≤ cur_n, so in-place copy fits)
  // and update the lookup table: original vertex → new supervertex.
  for_range(ctx, new_n, [&](std::size_t sv) {
    head_[sv] = s.new_head[sv];
    tail_[sv] = s.new_tail[sv];
  });
  for_range(ctx, label_.size(), [&](std::size_t x) {
    label_[x] = new_label[label_[x]];
  });
  ctx.barrier();
  if (ctx.tid() == 0) {
    head_.resize(new_n);
    tail_.resize(new_n);
    num_super_ = new_n;
  }
  ctx.barrier();
}

}  // namespace smp::graph
