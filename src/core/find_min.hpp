#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/msf.hpp"
#include "graph/edge_list.hpp"
#include "graph/types.hpp"
#include "pprim/cacheline.hpp"
#include "pprim/parallel_for.hpp"
#include "pprim/thread_team.hpp"
#include "pprim/tuning.hpp"

namespace smp::graph {
class CompressedCsr;
}

namespace smp::core {

/// Shared find-min layer (FindMinMode::kSimd / kAuto).
///
/// The packed-key scheme: a 64-bit weight cannot share a word with a 64-bit
/// tie-break index, so instead of the weight itself each input edge carries
/// its *weight rank* — its position in the WeightOrder-ascending order of
/// all m edges (build_rank_order).  Ranks are unique (WeightOrder is a
/// total order: ties broken by input index), fit 32 bits for any packable
/// graph, and compare exactly like ⟨weight, orig⟩.  A find-min key is then
///
///     key = rank(edge of arc) << 32 | payload
///
/// so (a) unsigned uint64 comparison of keys == WeightOrder comparison of
/// the underlying edges (distinct edges never share a rank, so the payload
/// half only ever breaks ties between a key and itself), (b) the winning
/// payload comes back for free from the low half, and (c) two arcs of the
/// same edge (its two directions) share a rank, which is what the
/// mutual-minimum test in the connect step compares.  The payload is the
/// algorithm's choice: Bor-EL packs the arc index; Bor-FAL packs the arc's
/// *target vertex*, so its self-loop test is labels[target] (a small
/// cache-resident table), and recovers the input edge at selection time
/// through the rank order (rank_to_edge).  Bor-FAL's rows are packed in
/// rank order, so every vertex's row ascends by key and its lightest live
/// arc is the first one whose target lies in another supervertex — a head
/// pointer per vertex replaces the per-iteration scan (see bor_fal.cpp).
/// The cross-thread race collapses from a two-word comparator CAS loop to
/// atomic_min_u64.

/// Empty best-slot sentinel: all-ones loses every unsigned min for free.
inline constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

/// Order-preserving map from weights to uint64: w1 < w2 ⇔ bits(w1) < bits(w2)
/// for all finite doubles.  -0.0 is collapsed onto +0.0 first — they compare
/// equal as weights, so their rank order must fall back to the input index,
/// which the stable rank sort only guarantees for identical sort keys.
[[nodiscard]] inline std::uint64_t monotone_weight_bits(graph::Weight w) {
  if (w == 0) w = 0;  // normalize -0.0
  const auto bits = std::bit_cast<std::uint64_t>(w);
  return (bits & (std::uint64_t{1} << 63)) != 0 ? ~bits
                                                : bits | (std::uint64_t{1} << 63);
}

[[nodiscard]] inline std::uint64_t pack_key(std::uint32_t rank,
                                            std::uint64_t arc) {
  return (std::uint64_t{rank} << 32) | arc;
}
[[nodiscard]] inline std::uint32_t key_rank(std::uint64_t key) {
  return static_cast<std::uint32_t>(key >> 32);
}
[[nodiscard]] inline std::uint64_t key_index(std::uint64_t key) {
  return key & 0xffffffffULL;
}

/// Whether the packed path can represent this graph: m ≤ 2^31 keeps every
/// rank below 2^32 and every directed-arc index (< 2m) within 32 bits.
[[nodiscard]] inline bool find_min_packable(std::size_t num_edges) {
  return num_edges <= (std::size_t{1} << 31);
}

/// Resolve the requested mode against the graph (see FindMinMode).
[[nodiscard]] inline FindMinMode resolve_find_min_mode(FindMinMode requested,
                                                       std::size_t num_edges) {
  if (requested == FindMinMode::kScan) return FindMinMode::kScan;
  return find_min_packable(num_edges) ? FindMinMode::kSimd : FindMinMode::kScan;
}

/// MsfOptions knob resolution (0 = the pprim/tuning.hpp default).
[[nodiscard]] inline int find_min_local_best_threads(const MsfOptions& o) {
  return o.find_min_local_best_threads > 0 ? o.find_min_local_best_threads
                                           : kFindMinLocalBestThreads;
}
[[nodiscard]] inline std::size_t find_min_local_best_cutoff(
    const MsfOptions& o) {
  return o.find_min_local_best_cutoff > 0 ? o.find_min_local_best_cutoff
                                          : kFindMinLocalBestCutoff;
}
[[nodiscard]] inline std::size_t find_min_prune_block(const MsfOptions& o) {
  return o.find_min_prune_block > 0 ? o.find_min_prune_block
                                    : kFindMinPruneBlock;
}

/// The WeightOrder-ascending order of the input edges: rank_to_edge[r] is
/// the input edge with weight rank r.  One stable parallel LSD radix sort of
/// exact 64-bit monotone_weight_bits keys with 13-bit digits (8 Ki buckets,
/// so each thread's count slab stays in cache), skipping every digit that
/// is constant across all keys; stability breaks weight ties by input
/// index, completing the total order.  The same path serves every team
/// size.  Fork-join (runs its own region); call during setup, not inside an
/// open region.  This is all the packed solver needs: build_packed_arcs
/// walks it in rank order, and find-min maps a winning rank back through it.
[[nodiscard]] std::vector<std::uint32_t> build_rank_order(
    ThreadTeam& team, const graph::EdgeList& g);

/// Same sort over a flat weight array — the compressed-graph path, whose
/// weights are already a contiguous f64 section, skips the AoS gather.
[[nodiscard]] std::vector<std::uint32_t> build_rank_order(
    ThreadTeam& team, std::span<const graph::Weight> weights);

/// rank[e] ∈ [0, m): position of input edge e under the WeightOrder total
/// order — build_rank_order plus a parallel inversion, for callers that
/// look ranks up by edge (Bor-EL's key packing, the query index).
[[nodiscard]] std::vector<std::uint32_t> build_weight_ranks(
    ThreadTeam& team, const graph::EdgeList& g);
[[nodiscard]] std::vector<std::uint32_t> build_weight_ranks(
    ThreadTeam& team, std::span<const graph::Weight> weights);

/// Packed-path adjacency build: n + 1 offsets plus one pre-packed
/// ⟨rank, target⟩ key per directed arc, straight from the edge list.  This
/// replaces a full CsrGraph for Bor-FAL's packed find-min — the key array
/// IS the adjacency structure, so the target/weight/orig arc arrays are
/// never materialized.  The team walks `rank_to_edge` in blocks and
/// scatters both arcs of each edge into their source rows
/// (bucket_scatter_in_region keeps block order within a row), so every
/// vertex's row comes out sorted by rank, which is the order find-min's
/// head pointer relies on.
void build_packed_arcs(ThreadTeam& team, const graph::EdgeList& g,
                       graph::VertexId n,
                       std::span<const std::uint32_t> rank_to_edge,
                       std::vector<graph::EdgeId>& offsets,
                       std::unique_ptr<std::uint64_t[]>& keys);

/// Team-less form taking `rank` (edge → rank, as build_weight_ranks
/// returns) instead of its inverse: inverts it and runs the same pack on a
/// one-thread team.  Rows and keys are identical to the team form's.
void build_packed_arcs(const graph::EdgeList& g, graph::VertexId n,
                       std::span<const std::uint32_t> rank,
                       std::vector<graph::EdgeId>& offsets,
                       std::unique_ptr<std::uint64_t[]>& keys);

/// Same rows straight from the compressed CSR: the team decodes the varint
/// rows into one packed ⟨u, v⟩ word per edge (8 bytes/edge, freed once it
/// is gathered into rank order; no EdgeList or CsrGraph is ever
/// materialized) and scatters in rank order exactly like the EdgeList form,
/// so both inputs give identical offsets and keys.
void build_packed_arcs(ThreadTeam& team, const graph::CompressedCsr& g,
                       std::span<const std::uint32_t> rank_to_edge,
                       std::vector<graph::EdgeId>& offsets,
                       std::unique_ptr<std::uint64_t[]>& keys);

/// Per-thread slabs for the contention-aware local-best reduction: when the
/// team is large and cur_n small, every thread min-merges into its own slab
/// and the slabs are reduced into best[0..n) by merge_local_best_in_region,
/// replacing p-way CAS contention on a handful of hot lines with private
/// writes plus one parallel merge pass.
class LocalBestScratch {
 public:
  /// Size for p threads × n slots.  tid-0-only, behind a barrier.  Slabs are
  /// rounded up to whole cache lines so neighbours never share a line;
  /// grow-only so the fused Borůvka loop reuses the allocation.
  void ensure(int p, std::size_t n) {
    constexpr std::size_t kLine = kCacheLineBytes / sizeof(std::uint64_t);
    stride_ = (n + kLine - 1) / kLine * kLine;
    const std::size_t need = static_cast<std::size_t>(p) * stride_;
    if (slab_.size() < need) slab_.resize(need);
  }

  [[nodiscard]] std::uint64_t* slab(int tid) {
    return slab_.data() + static_cast<std::size_t>(tid) * stride_;
  }

 private:
  std::vector<std::uint64_t> slab_;
  std::size_t stride_ = 0;
};

/// Reduce the team's slabs into best[0..n): one for_range pass, slot s
/// min-reduced across all p slabs.  Call inside the region, after a barrier
/// has published every thread's slab writes; follow with a barrier before
/// reading best.
inline void merge_local_best_in_region(TeamCtx& ctx, LocalBestScratch& s,
                                       std::span<std::uint64_t> best) {
  const int p = ctx.nthreads();
  for_range(ctx, best.size(), [&](std::size_t v) {
    std::uint64_t b = s.slab(0)[v];
    for (int t = 1; t < p; ++t) {
      const std::uint64_t cand = s.slab(t)[v];
      if (cand < b) b = cand;
    }
    best[v] = b;
  });
}

/// Scalar argmin over one adjacency slice under the ⟨weight, orig⟩ order —
/// the shared inner loop of the per-vertex find-min variants (Bor-AL/ALM and
/// MST-BC's Borůvka rounds), whose arcs are rebuilt AoS each iteration and
/// whose slices are private to one thread (no packing or atomics needed).
/// Returns kInvalidEdge for an empty slice.
template <class Arcs>
[[nodiscard]] graph::EdgeId best_arc_in_slice(const Arcs& arcs,
                                              graph::EdgeId lo,
                                              graph::EdgeId hi) {
  graph::EdgeId best = graph::kInvalidEdge;
  for (graph::EdgeId a = lo; a < hi; ++a) {
    if (best == graph::kInvalidEdge || arcs[a].order() < arcs[best].order()) {
      best = a;
    }
  }
  return best;
}

}  // namespace smp::core
