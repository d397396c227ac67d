#include "core/compressed_solve.hpp"

#include <algorithm>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "core/bor_fal_packed.hpp"
#include "core/find_min.hpp"
#include "graph/edge_list.hpp"
#include "pprim/timer.hpp"
#include "pprim/tuning.hpp"
#include "seq/seq_msf.hpp"

namespace smp::core {

using graph::CompressedCsr;
using graph::EdgeId;
using graph::EdgeList;
using graph::MsfResult;
using graph::VertexId;
using graph::Weight;

namespace {

/// Whether the streaming Bor-FAL engine serves this request.  kChampion runs
/// the Bor-FAL engine, so both stream; every other algorithm keeps its own
/// arc layout and goes eager.
[[nodiscard]] bool streamable(const MsfOptions& opts, std::size_t m) {
  if (opts.algorithm != Algorithm::kBorFAL &&
      opts.algorithm != Algorithm::kChampion) {
    return false;
  }
  return resolve_find_min_mode(opts.find_min, m) == FindMinMode::kSimd;
}

/// Streaming solve: the rank order from the flat weight section, packed arcs
/// straight from the varint rows, and one final row walk to materialize just
/// the forest edges (sorted-id two-pointer against the implicit edge-id
/// order).
MsfResult solve_streaming(ThreadTeam& team, const CompressedCsr& g,
                          const MsfOptions& opts) {
  StepTimes st;
  WallTimer phase;
  const std::size_t m = g.num_edges();

  PackedSolveInput in;
  in.n = g.num_vertices();
  in.rank_to_edge =
      build_rank_order(team, std::span<const Weight>(g.weights(), m));
  build_packed_arcs(team, g, in.rank_to_edge, in.offsets, in.keys);
  st.other += phase.elapsed_s();

  std::vector<EdgeId> ids = bor_fal_packed_engine(team, std::move(in), opts, st);

  phase.reset();
  MsfResult res;
  res.edge_ids = std::move(ids);
  // Canonical order, exactly like detail::assemble_result: makes the result
  // (including the floating-point sum) bit-identical across thread counts.
  std::sort(res.edge_ids.begin(), res.edge_ids.end());
  res.edges.reserve(res.edge_ids.size());
  std::size_t next = 0;
  g.for_each_edge([&](EdgeId e, VertexId u, VertexId v, Weight w) {
    if (next < res.edge_ids.size() && res.edge_ids[next] == e) {
      res.edges.push_back({u, v, w});
      res.total_weight += w;
      ++next;
    }
  });
  res.num_trees = g.num_vertices() - res.edges.size();
  st.other += phase.elapsed_s();
  if (opts.step_times) *opts.step_times += st;
  return res;
}

MsfResult solve_with(ThreadTeam* external_team, const CompressedCsr& g,
                     const MsfOptions& opts) {
  // Option validation only: the graph itself was validated at build/open
  // time (no self-loops, in-range monotone targets, finite weights), so the
  // per-edge scan of validate_request has nothing left to check.
  validate_request(EdgeList{}, opts);
  iteration_checkpoint(opts, "request start");
  ScopedTuning tuning(opts.parallel_for_cutoff, opts.sample_sort_cutoff);

  try {
    if (streamable(opts, g.num_edges())) {
      if (external_team != nullptr) return solve_streaming(*external_team, g, opts);
      ThreadTeam team(opts.threads);
      return solve_streaming(team, g, opts);
    }
    // Eager fallback: materialize the canonical edge list and hand it to the
    // standard dispatcher.  Compressed ids ARE positions in this list, so
    // edge_ids need no remapping.
    const EdgeList el = g.decode_edge_list();
    if (external_team != nullptr) {
      return minimum_spanning_forest(*external_team, el, opts);
    }
    return minimum_spanning_forest(el, opts);
  } catch (const std::bad_alloc&) {
    if (!opts.allow_sequential_fallback) {
      throw Error(ErrorCode::kOutOfMemory,
                  std::string(to_string(opts.algorithm)) +
                      " exhausted its memory budget (fallback disabled)");
    }
    iteration_checkpoint(opts, "sequential fallback");
    try {
      MsfResult r = seq::kruskal_msf(g.decode_edge_list());
      r.degraded_to_sequential = true;
      return r;
    } catch (const std::bad_alloc&) {
      throw Error(ErrorCode::kOutOfMemory,
                  "sequential fallback also exhausted memory");
    }
  }
}

}  // namespace

MsfResult minimum_spanning_forest_compressed(const CompressedCsr& g,
                                             const MsfOptions& opts) {
  return solve_with(nullptr, g, opts);
}

MsfResult minimum_spanning_forest_compressed(ThreadTeam& team,
                                             const CompressedCsr& g,
                                             const MsfOptions& opts) {
  return solve_with(&team, g, opts);
}

}  // namespace smp::core
