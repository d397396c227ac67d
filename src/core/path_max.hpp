#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/types.hpp"
#include "pprim/thread_team.hpp"

namespace smp::core {

/// Path-max index over a forest in O(n) words: the Kruskal arrangement
/// (the Kruskal-tree / range-max reduction of Demaine, Landau and Weimann,
/// "On Cartesian Trees and Range Minimum Queries", ICALP 2009).
///
/// The forest edges are united in WeightOrder rank order while each set
/// is a run of positions; a merge by the edge of rank r places one run
/// after the other and writes r into the gap between them (a union-find
/// that keeps each vertex's offset from its parent).  In the final order
/// each tree is a contiguous run, and every gap between the positions of u
/// and v comes from a merge no later than the one that joined u and v, so
/// the heaviest edge on the u..v path is the largest gap between them: a
/// range max over a sparse table of 64-wide block maxima plus two in-block
/// scans.  Memory: three u32 per vertex (tree label, position, gap), one
/// per edge (rank order) and about n/64 · log2(n/64) table words.
/// The edge list stays the caller's; queries return positions into it.
/// Immutable after construction: any number of threads may query it.
class ForestArrangement {
 public:
  /// "No edge": u and v lie in different trees, or u == v.
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  ForestArrangement() = default;

  /// Builds over the forest `edges` on `n` vertices (an edge that would
  /// close a cycle is ignored).  `ids[i]` is edge i's WeightOrder
  /// tie-break; empty means the position i itself.  When `ids` ascends (or
  /// is empty) the rank order is the team's parallel radix sort over the
  /// weights, whose stable tie-break by position is then exactly ⟨weight,
  /// id⟩; other orders fall back to a comparison sort.  The union is
  /// sequential and every other step elementwise, so the result does not
  /// depend on the team size.  Fork-join: call outside any open region.
  ForestArrangement(ThreadTeam& team, graph::VertexId n,
                    std::span<const graph::WEdge> edges,
                    std::span<const graph::EdgeId> ids = {});

  [[nodiscard]] std::size_t num_components() const { return num_components_; }

  /// Tree label, dense and numbered by the smallest vertex of each tree.
  [[nodiscard]] graph::VertexId component(graph::VertexId v) const {
    return comp_[v];
  }
  [[nodiscard]] bool connected(graph::VertexId u, graph::VertexId v) const {
    return comp_[u] == comp_[v];
  }

  /// Position (index into the build's `edges`) of the heaviest edge under
  /// WeightOrder on the forest path u..v, or kNone.  O(1).
  [[nodiscard]] std::uint32_t path_max(graph::VertexId u,
                                       graph::VertexId v) const {
    if (u == v || comp_[u] != comp_[v]) return kNone;
    std::uint32_t a = pos_[u];
    std::uint32_t b = pos_[v];
    if (a > b) std::swap(a, b);
    return by_rank_[range_max(a, b)];
  }

  /// Single-linkage clusters at `threshold`: the components of the forest
  /// edges with weight <= threshold (`edges` must be the build's).  Labels
  /// are dense and numbered by first occurrence over vertex ids, exactly as
  /// Dendrogram::cut_at numbers them.  O(n + log m).
  [[nodiscard]] std::vector<graph::VertexId> cut(
      std::span<const graph::WEdge> edges, graph::Weight threshold,
      std::size_t* num_clusters = nullptr) const;

  /// Heap bytes this index owns (not the caller's edge list).
  [[nodiscard]] std::size_t bytes() const;

 private:
  /// Largest gap in gap_[lo, hi), lo < hi.
  [[nodiscard]] std::uint32_t range_max(std::uint32_t lo,
                                        std::uint32_t hi) const;

  std::size_t num_components_ = 0;
  std::vector<graph::VertexId> comp_;  ///< per vertex
  std::vector<std::uint32_t> pos_;     ///< per vertex
  /// gap_[i]: rank of the merge between positions i and i + 1, kNone where
  /// a tree ends.
  std::vector<std::uint32_t> gap_;
  std::vector<std::uint32_t> by_rank_;  ///< rank -> edge position
  /// Level-major sparse table: table_[k * blocks_ + b] = max gap over
  /// blocks b .. b + 2^k - 1.
  std::size_t blocks_ = 0;
  std::vector<std::uint32_t> table_;
};

}  // namespace smp::core
