#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/path_max.hpp"
#include "dynamic/edge_store.hpp"
#include "graph/types.hpp"
#include "pprim/thread_team.hpp"

namespace smp::query {

/// Immutable path-max index over one committed version of a maintained
/// forest: the query engine the serving layer answers pathmax / conn / cut
/// / topk from.
///
/// The forest edges are held ascending by store id, so an edge's position
/// is its WeightOrder tie-break, and the index is one core::ForestArrangement
/// over them (the Kruskal arrangement: rank order, a union that places
/// runs of positions side by side, per-vertex position and tree label,
/// gap ranks and a block sparse table; see core/path_max.hpp).  pathmax and conn are O(1); cut is one binary
/// search plus one linear pass; the whole index is O(n) words, about 17
/// bytes per vertex beyond the forest edge list and ids.  Those two arrays
/// are held by shared_ptr, so a serving snapshot and its index share them.
///
/// The object is immutable after construction; readers on any number of
/// threads may query one instance concurrently.  Consistency with the live
/// session state is the serving layer's job: each index carries the session
/// `version` it was built from, and ServiceCore swaps whole instances via
/// shared_ptr so a query never observes a half-built index.
class ForestIndex {
 public:
  struct Stats {
    std::uint64_t version = 0;
    graph::VertexId num_vertices = 0;
    std::size_t num_forest_edges = 0;
    std::size_t num_components = 0;
    /// Heap bytes of the path-max structure, not counting the forest edge
    /// list and ids (which a serving snapshot shares with its index).
    std::size_t bytes = 0;
    double build_seconds = 0;
  };

  /// Bottleneck edge on the u–v forest path.  `connected == false` means
  /// no path; u == v yields connected == true with edge_id == kInvalidEdge
  /// (an empty path has no bottleneck — the serve layer rejects it before
  /// it gets here).
  struct PathMax {
    bool connected = false;
    graph::EdgeId edge_id = graph::kInvalidEdge;  ///< store id
    graph::VertexId u = graph::kInvalidVertex;    ///< bottleneck endpoints
    graph::VertexId v = graph::kInvalidVertex;
    graph::Weight weight = 0;
  };

  /// Single-linkage cut at a threshold: cluster count plus an
  /// order-sensitive FNV-1a digest of the (deterministic) label sequence,
  /// cheap enough to ship over the wire and strong enough for the stress
  /// suite's bit-identity comparison.
  struct Cut {
    std::size_t num_clusters = 0;
    std::uint64_t labels_digest = 0;
  };

  struct TopkEdge {
    graph::EdgeId id = graph::kInvalidEdge;  ///< store id
    graph::VertexId u = 0;
    graph::VertexId v = 0;
    graph::Weight w = 0;
  };

  /// Builds from the live store and the maintained forest's store ids
  /// (ascending, as DynamicMsf::forest_edge_ids returns them).  Runs a
  /// sequence of parallel phases on `team` — the caller must own the team
  /// (serving: hold solver_mu) and must not be inside an open region.
  ForestIndex(ThreadTeam& team, const dynamic::EdgeStore& store,
              std::span<const graph::EdgeId> forest_ids, std::uint64_t version);

  /// Builds from an already-materialized forest — no EdgeStore needed.
  /// `fedges` must be ascending by store id and `fids` its parallel store
  /// ids (exactly what a serve-layer MVCC snapshot captures at publish
  /// time), so the index can be built long after the store has moved on.
  ForestIndex(ThreadTeam& team, graph::VertexId num_vertices,
              std::vector<graph::WEdge> fedges,
              std::vector<graph::EdgeId> fids, std::uint64_t version);

  /// Same, sharing the caller's arrays instead of taking copies.
  ForestIndex(ThreadTeam& team, graph::VertexId num_vertices,
              std::shared_ptr<const std::vector<graph::WEdge>> fedges,
              std::shared_ptr<const std::vector<graph::EdgeId>> fids,
              std::uint64_t version);

  [[nodiscard]] std::uint64_t version() const { return stats_.version; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::chrono::steady_clock::time_point built_at() const {
    return built_at_;
  }

  /// O(1): same tree of the forest?
  [[nodiscard]] bool connected(graph::VertexId u, graph::VertexId v) const {
    return arr_.connected(u, v);
  }

  /// O(1) bottleneck edge on the forest path (see PathMax).
  [[nodiscard]] PathMax path_max(graph::VertexId u, graph::VertexId v) const;

  /// Single-linkage clustering at threshold (edges with weight <= threshold
  /// merge), in O(n).  If `labels` is non-null it receives the per-vertex
  /// cluster labels (dense, numbered by first occurrence — deterministic,
  /// and identical to core::Dendrogram::cut_at's).
  [[nodiscard]] Cut cut(graph::Weight threshold,
                        std::vector<graph::VertexId>* labels = nullptr) const;

  /// The k lightest live edges of `store` crossing distinct clusters, in
  /// ascending ⟨weight, store-id⟩ order.  With `lambda` the clusters are
  /// cut(*lambda); without, every vertex is its own cluster, i.e. the k
  /// lightest live edges overall.  The caller must hold the session state
  /// (shared) lock: unlike the other ops this reads the mutable EdgeStore,
  /// not just the index.  Scans in blocks, skimming each block with the
  /// u64_argmin SIMD kernel over monotone weight bits so only candidates
  /// that beat the current k-th bound are examined individually.
  [[nodiscard]] std::vector<TopkEdge> top_k(
      ThreadTeam& team, const dynamic::EdgeStore& store, std::size_t k,
      std::optional<graph::Weight> lambda) const;

  /// top_k over an immutable live-edge snapshot (`live` parallel to
  /// `live_ids`, ascending store ids) instead of the mutable store — the
  /// MVCC read path, needing no lock at all.  Identical results to the
  /// store overload on the same committed state.
  [[nodiscard]] std::vector<TopkEdge> top_k(
      ThreadTeam& team, std::span<const graph::WEdge> live,
      std::span<const graph::EdgeId> live_ids, std::size_t k,
      std::optional<graph::Weight> lambda) const;

  // --- topology accessors (tests; later: replacement-edge search) ---
  [[nodiscard]] graph::VertexId num_vertices() const {
    return stats_.num_vertices;
  }
  [[nodiscard]] std::size_t num_forest_edges() const { return fedges_->size(); }
  [[nodiscard]] const graph::WEdge& forest_edge(std::size_t i) const {
    return (*fedges_)[i];
  }
  [[nodiscard]] graph::EdgeId forest_id(std::size_t i) const {
    return (*fids_)[i];
  }
  /// Tree label, dense and numbered by the smallest vertex of each tree.
  [[nodiscard]] graph::VertexId component(graph::VertexId v) const {
    return arr_.component(v);
  }

 private:
  Stats stats_;
  std::chrono::steady_clock::time_point built_at_;

  // Forest edges ascending by store id; position is the arrangement's
  // edge index.
  std::shared_ptr<const std::vector<graph::WEdge>> fedges_;
  std::shared_ptr<const std::vector<graph::EdgeId>> fids_;
  core::ForestArrangement arr_;
};

/// Order-sensitive FNV-1a over a label sequence — the digest cut() reports.
[[nodiscard]] std::uint64_t labels_digest(
    std::span<const graph::VertexId> labels);

}  // namespace smp::query
