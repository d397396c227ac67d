#include "core/detail.hpp"

#include <algorithm>

namespace smp::core::detail {

using graph::EdgeId;
using graph::EdgeList;
using graph::MsfResult;

MsfResult assemble_result(const EdgeList& input, std::vector<EdgeId> ids) {
  MsfResult res;
  res.edge_ids = std::move(ids);
  // Canonical order: makes the result (including the floating-point sum)
  // bit-identical across thread counts and scheduling.
  std::sort(res.edge_ids.begin(), res.edge_ids.end());
  res.edges.reserve(res.edge_ids.size());
  for (const EdgeId id : res.edge_ids) {
    const auto& e = input.edges[id];
    res.edges.push_back(e);
    res.total_weight += e.w;
  }
  res.num_trees = input.num_vertices - res.edges.size();
  return res;
}

}  // namespace smp::core::detail
