#pragma once

#include <span>
#include <string>

#include "graph/edge_list.hpp"

namespace smp::graph {

/// Result of checking a claimed minimum spanning forest.
struct ForestCheck {
  bool ok = false;
  std::string error;          ///< empty when ok
  std::size_t num_trees = 0;  ///< number of trees in the forest
  Weight total_weight = 0;    ///< sum of forest edge weights

  explicit operator bool() const { return ok; }
};

/// Structural validation of `forest` against `g`:
///   * every forest edge is an edge of g (same endpoints and weight),
///   * the forest is acyclic,
///   * the forest is maximal: it has exactly n − #components(g) edges,
///     i.e. it spans every connected component.
///
/// Minimality is *not* checked here (use verify_cut_property or compare the
/// total weight with a reference algorithm).
ForestCheck validate_spanning_forest(const EdgeList& g, std::span<const WEdge> forest);

/// Full minimality check via the cut property: for every forest edge e, e is
/// the lightest edge (under WeightOrder with the forest edge's position as
/// tie-break proxy) crossing the cut defined by removing e from its tree.
/// O(m · t) where t = forest size — use on small graphs in tests only.
bool verify_cut_property(const EdgeList& g, std::span<const WEdge> forest,
                         std::string* error = nullptr);

/// Deterministic parallel-edge canonicalization.
///
/// Among every set of edges with the same unordered endpoint pair, exactly
/// one edge is kept: the one minimal under WeightOrder ⟨weight, edge-id⟩ —
/// the only member of the set that can ever enter the minimum spanning
/// forest (any heavier/later parallel edge closes a 2-cycle in which it is
/// the maximum).  Kept edges preserve their relative input order, so the
/// result is a deterministic function of the input edge list alone —
/// dynamic batch apply (and delete-by-endpoints update traces) depend on
/// this canonical choice being reproducible across runs and readers.
///
/// `kept_ids` (optional out) maps each position in the returned edge list
/// to the index of that edge in `g.edges`.  Self-loops are kept, except that
/// repeated self-loops on one vertex count as parallel edges and collapse to
/// one (rejecting them is validate_request's job, not this transform's).
/// Weights must be finite, as both readers guarantee.
///
/// The rvalue overload returns its input unchanged, without a copy, when it
/// has no parallel edges, and otherwise compacts it in place.
EdgeList canonicalize_parallel_edges(const EdgeList& g,
                                     std::vector<EdgeId>* kept_ids = nullptr);
EdgeList canonicalize_parallel_edges(EdgeList&& g,
                                     std::vector<EdgeId>* kept_ids = nullptr);

/// The row-bucketed edge order behind canonicalize_parallel_edges and
/// CompressedCsr::build.  Row a lists, in ids[row_start[a] .. row_start[a+1]),
/// the ids of the edges whose smaller endpoint is a, sorted by ⟨larger
/// endpoint, WeightOrder{w, id}⟩; so every run of equal endpoint pairs
/// starts with the pair's WeightOrder-minimal edge, the only one that can
/// enter a minimum spanning forest.  `duplicates` counts the ids that are
/// not first in their run.  One counting pass and one scatter by row
/// (O(n + m)), then a sort of each row.  Endpoints must be < num_vertices
/// and weights finite.
struct EndpointPairOrder {
  std::vector<EdgeId> row_start;  ///< num_vertices + 1 entries
  std::vector<EdgeId> ids;        ///< every edge id once
  std::size_t duplicates = 0;
};
EndpointPairOrder order_by_endpoint_pair(const EdgeList& g);

}  // namespace smp::graph
