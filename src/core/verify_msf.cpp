#include "core/verify_msf.hpp"

#include <unordered_set>

#include "core/path_max.hpp"
#include "graph/validate.hpp"
#include "pprim/thread_team.hpp"

namespace smp::core {

using graph::EdgeId;
using graph::EdgeList;
using graph::MsfResult;
using graph::WeightOrder;

bool verify_msf(const EdgeList& g, const MsfResult& msf, std::string* error) {
  const auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };

  if (msf.edges.size() != msf.edge_ids.size()) {
    return fail("edges / edge_ids size mismatch");
  }
  const auto structural = graph::validate_spanning_forest(g, msf.edges);
  if (!structural.ok) return fail(structural.error);

  ThreadTeam team(1);
  const ForestArrangement arr(team, g.num_vertices, msf.edges, msf.edge_ids);
  std::unordered_set<EdgeId> in_forest(msf.edge_ids.begin(), msf.edge_ids.end());
  for (EdgeId i = 0; i < g.edges.size(); ++i) {
    if (in_forest.contains(i)) continue;
    const auto& e = g.edges[i];
    if (e.u == e.v) continue;
    const std::uint32_t pm = arr.path_max(e.u, e.v);
    if (pm == ForestArrangement::kNone) {
      // Maximality already passed, so endpoints must share a tree.
      return fail("non-forest edge bridges two trees: forest not maximal");
    }
    if (WeightOrder{e.w, i} < WeightOrder{msf.edges[pm].w, msf.edge_ids[pm]}) {
      return fail("cycle property violated: edge #" + std::to_string(i) +
                  " is lighter than the heaviest forest edge on its path");
    }
  }
  return true;
}

}  // namespace smp::core
