#include "core/path_max.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "core/find_min.hpp"
#include "pprim/parallel_for.hpp"

namespace smp::core {

using graph::EdgeId;
using graph::kInvalidVertex;
using graph::VertexId;
using graph::WEdge;
using graph::Weight;
using graph::WeightOrder;

namespace {

constexpr std::size_t kBlock = 64;

}  // namespace

ForestArrangement::ForestArrangement(ThreadTeam& team, VertexId n,
                                     std::span<const WEdge> edges,
                                     std::span<const EdgeId> ids) {
  const std::size_t mf = edges.size();

  // 1. Rank order: by_rank_[r] is the forest position of the edge of rank r.
  if (ids.empty() || std::is_sorted(ids.begin(), ids.end())) {
    std::vector<Weight> w(mf);
    parallel_for(team, mf, [&](std::size_t i) { w[i] = edges[i].w; });
    by_rank_ = build_rank_order(team, w);
  } else {
    by_rank_.resize(mf);
    std::iota(by_rank_.begin(), by_rank_.end(), std::uint32_t{0});
    std::sort(by_rank_.begin(), by_rank_.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return WeightOrder{edges[a].w, ids[a]} <
                       WeightOrder{edges[b].w, ids[b]};
              });
  }

  // 2. Kruskal union in rank order.  Each set is a run of positions; a
  // merge places B's run after A's and records the merge rank in the gap
  // after A's tail.  A vertex's offset is its position relative to its
  // union-find parent's (a root's is its own position in its run), so a
  // position is the offset sum up to the root.  Offsets wrap modulo 2^32;
  // the sums land in [0, n).
  struct Node {
    VertexId parent;
    std::uint32_t off;
    std::uint32_t size;  ///< roots only
    VertexId tail;       ///< roots only: the last vertex of the run
  };
  std::vector<Node> node(n);
  std::vector<std::uint32_t> gap_after(n, kNone);
  for (VertexId v = 0; v < n; ++v) node[v] = {v, 0, 1, v};
  const auto find = [&](VertexId x) {
    while (node[x].parent != x) {
      const VertexId p = node[x].parent;
      const VertexId g = node[p].parent;
      if (g == p) return p;
      node[x].parent = g;  // path halving
      node[x].off += node[p].off;
      x = g;
    }
    return x;
  };
  for (std::uint32_t r = 0; r < mf; ++r) {
    // The loop is bound by the latency of random reads: fetch ahead.
    if (r + 16 < mf) __builtin_prefetch(&edges[by_rank_[r + 16]]);
    if (r + 8 < mf) {
      const WEdge& ahead = edges[by_rank_[r + 8]];
      __builtin_prefetch(&node[ahead.u]);
      __builtin_prefetch(&node[ahead.v]);
    }
    const WEdge& e = edges[by_rank_[r]];
    const VertexId a = find(e.u);
    const VertexId b = find(e.v);
    if (a == b) continue;
    Node& na = node[a];
    Node& nb = node[b];
    gap_after[na.tail] = r;
    if (na.size >= nb.size) {  // b joins a, its run shifted by |A|
      nb.parent = a;
      nb.off += na.size - na.off;
      na.size += nb.size;
      na.tail = nb.tail;
    } else {  // a joins b; B's run shifts by |A|, A's stays
      nb.off += na.size;
      na.parent = b;
      na.off -= nb.off;
      nb.size += na.size;
    }
  }

  // 3. Every vertex's root and position in its run (read-only climbs);
  // trees are laid out in order of their smallest vertex.  A tree's last
  // gap stays kNone.
  comp_.resize(n);
  pos_.resize(n);
  parallel_for(team, n, [&](std::size_t v) {
    auto x = static_cast<VertexId>(v);
    std::uint32_t rel = node[x].off;
    while (node[x].parent != x) {
      x = node[x].parent;
      rel += node[x].off;
    }
    comp_[v] = x;
    pos_[v] = rel;
  });
  std::vector<std::uint32_t> base(n, kNone);
  std::vector<VertexId> label(n);
  std::uint32_t next = 0;
  VertexId c = 0;
  for (VertexId v = 0; v < n; ++v) {
    const VertexId root = comp_[v];
    if (base[root] != kNone) continue;
    base[root] = next;
    label[root] = c++;
    next += node[root].size;
  }
  num_components_ = c;
  gap_.resize(n);
  parallel_for(team, n, [&](std::size_t v) {
    const VertexId root = comp_[v];
    comp_[v] = label[root];
    pos_[v] += base[root];
    gap_[pos_[v]] = gap_after[v];
  });

  // 4. Sparse table over the 64-wide block maxima of gap_.
  blocks_ = (static_cast<std::size_t>(n) + kBlock - 1) / kBlock;
  const auto levels = static_cast<std::size_t>(std::bit_width(blocks_));
  table_.resize(levels * blocks_);
  parallel_for(team, blocks_, [&](std::size_t b) {
    const auto lo = gap_.begin() + static_cast<std::ptrdiff_t>(b * kBlock);
    const auto hi = gap_.begin() + static_cast<std::ptrdiff_t>(
                                       std::min<std::size_t>(n, (b + 1) * kBlock));
    table_[b] = *std::max_element(lo, hi);
  });
  for (std::size_t k = 1; k < levels; ++k) {
    const std::uint32_t* prev = table_.data() + (k - 1) * blocks_;
    std::uint32_t* cur = table_.data() + k * blocks_;
    const std::size_t half = std::size_t{1} << (k - 1);
    parallel_for(team, blocks_ - 2 * half + 1, [&](std::size_t b) {
      cur[b] = std::max(prev[b], prev[b + half]);
    });
  }
}

std::uint32_t ForestArrangement::range_max(std::uint32_t lo,
                                           std::uint32_t hi) const {
  const std::uint32_t* g = gap_.data();
  const std::size_t bl = lo / kBlock;
  const std::size_t br = (hi - 1) / kBlock;
  std::uint32_t m = 0;
  if (bl == br) {
    for (std::uint32_t i = lo; i < hi; ++i) m = std::max(m, g[i]);
    return m;
  }
  for (std::size_t i = lo; i < (bl + 1) * kBlock; ++i) m = std::max(m, g[i]);
  for (std::size_t i = br * kBlock; i < hi; ++i) m = std::max(m, g[i]);
  if (bl + 1 < br) {
    // Whole blocks bl+1 .. br-1: two overlapping power-of-two spans.
    const std::size_t span = br - bl - 1;
    const auto k = static_cast<std::size_t>(std::bit_width(span) - 1);
    const std::uint32_t* row = table_.data() + k * blocks_;
    m = std::max({m, row[bl + 1], row[br - (std::size_t{1} << k)]});
  }
  return m;
}

std::vector<VertexId> ForestArrangement::cut(std::span<const WEdge> edges,
                                             Weight threshold,
                                             std::size_t* num_clusters) const {
  // Merges of rank < kept are the edges with weight <= threshold (ranks
  // ascend by weight); a run of positions ends at every other gap.
  const auto kept = static_cast<std::uint32_t>(
      std::partition_point(by_rank_.begin(), by_rank_.end(),
                           [&](std::uint32_t e) {
                             return !(threshold < edges[e].w);
                           }) -
      by_rank_.begin());
  const std::size_t n = pos_.size();
  std::vector<VertexId> run(n);
  VertexId runs = 0;
  for (std::size_t i = 0; i < n; ++i) {
    run[i] = runs;
    if (gap_[i] >= kept) ++runs;
  }
  std::vector<VertexId> dense(runs, kInvalidVertex);
  std::vector<VertexId> label(n);
  VertexId next = 0;
  for (std::size_t v = 0; v < n; ++v) {
    VertexId& d = dense[run[pos_[v]]];
    if (d == kInvalidVertex) d = next++;
    label[v] = d;
  }
  if (num_clusters != nullptr) *num_clusters = next;
  return label;
}

std::size_t ForestArrangement::bytes() const {
  return sizeof(VertexId) * comp_.capacity() +
         sizeof(std::uint32_t) * (pos_.capacity() + gap_.capacity() +
                                  by_rank_.capacity() + table_.capacity());
}

}  // namespace smp::core
