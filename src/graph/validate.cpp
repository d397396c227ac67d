#include "graph/validate.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <vector>

#include "graph/stats.hpp"
#include "seq/union_find.hpp"

namespace smp::graph {

namespace {

struct Canon {
  VertexId a, b;
  Weight w;
  friend bool operator<(const Canon& x, const Canon& y) {
    if (x.a != y.a) return x.a < y.a;
    if (x.b != y.b) return x.b < y.b;
    return x.w < y.w;
  }
  friend bool operator==(const Canon&, const Canon&) = default;
};

Canon canon_of(const WEdge& e) {
  return e.u <= e.v ? Canon{e.u, e.v, e.w} : Canon{e.v, e.u, e.w};
}

}  // namespace

ForestCheck validate_spanning_forest(const EdgeList& g, std::span<const WEdge> forest) {
  ForestCheck res;

  // 1. Membership (multiset-aware): every forest edge must match a distinct
  //    graph edge with identical endpoints and weight.
  std::vector<Canon> have;
  have.reserve(g.edges.size());
  for (const auto& e : g.edges) have.push_back(canon_of(e));
  std::sort(have.begin(), have.end());
  std::vector<Canon> want;
  want.reserve(forest.size());
  for (const auto& e : forest) want.push_back(canon_of(e));
  std::sort(want.begin(), want.end());
  {
    std::size_t hi = 0;
    for (const auto& e : want) {
      while (hi < have.size() && have[hi] < e) ++hi;
      if (hi == have.size() || !(have[hi] == e)) {
        res.error = "forest edge not present in graph";
        return res;
      }
      ++hi;  // consume the matched graph edge
    }
  }

  // 2. Acyclicity.
  smp::seq::UnionFind uf(g.num_vertices);
  for (const auto& e : forest) {
    if (e.u >= g.num_vertices || e.v >= g.num_vertices) {
      res.error = "forest edge endpoint out of range";
      return res;
    }
    if (!uf.unite(e.u, e.v)) {
      res.error = "forest contains a cycle";
      return res;
    }
    res.total_weight += e.w;
  }

  // 3. Maximality: exactly n - #components(g) edges.
  const std::size_t comps = num_components(g);
  const std::size_t expect =
      static_cast<std::size_t>(g.num_vertices) - comps;
  if (forest.size() != expect) {
    res.error = "forest does not span every component (got " +
                std::to_string(forest.size()) + " edges, want " +
                std::to_string(expect) + ")";
    return res;
  }

  res.num_trees = comps;
  res.ok = true;
  return res;
}

EndpointPairOrder order_by_endpoint_pair(const EdgeList& g) {
  const std::size_t n = g.num_vertices;
  const std::size_t m = g.edges.size();
  EndpointPairOrder o;
  o.row_start.assign(n + 1, 0);
  for (const WEdge& e : g.edges) {
    if (e.u >= n || e.v >= n) {
      throw std::invalid_argument("order_by_endpoint_pair: endpoint out of range");
    }
    ++o.row_start[std::size_t{std::min(e.u, e.v)} + 1];
  }
  std::partial_sum(o.row_start.begin(), o.row_start.end(), o.row_start.begin());
  // Scatter in input order with row_start[a] as row a's cursor; that leaves
  // each cursor at the start of the next row, so shift them back by one.
  o.ids.resize(m);
  for (EdgeId i = 0; i < m; ++i) {
    const WEdge& e = g.edges[i];
    o.ids[o.row_start[std::min(e.u, e.v)]++] = i;
  }
  std::copy_backward(o.row_start.begin(), o.row_start.begin() + n,
                     o.row_start.end());
  o.row_start[0] = 0;

  struct Arc {
    VertexId b;
    Weight w;
    EdgeId id;
  };
  std::vector<Arc> row;
  for (std::size_t a = 0; a < n; ++a) {
    const EdgeId lo = o.row_start[a];
    const EdgeId hi = o.row_start[a + 1];
    if (hi - lo < 2) continue;
    row.clear();
    for (EdgeId k = lo; k < hi; ++k) {
      const WEdge& e = g.edges[o.ids[k]];
      row.push_back(Arc{std::max(e.u, e.v), e.w, o.ids[k]});
    }
    std::sort(row.begin(), row.end(), [](const Arc& x, const Arc& y) {
      if (x.b != y.b) return x.b < y.b;
      return WeightOrder{x.w, x.id} < WeightOrder{y.w, y.id};
    });
    for (std::size_t k = 0; k < row.size(); ++k) {
      o.ids[lo + k] = row[k].id;
      if (k > 0 && row[k].b == row[k - 1].b) ++o.duplicates;
    }
  }
  return o;
}

EdgeList canonicalize_parallel_edges(EdgeList&& g, std::vector<EdgeId>* kept_ids) {
  const EndpointPairOrder order = order_by_endpoint_pair(g);
  const std::size_t m = g.edges.size();
  if (order.duplicates == 0) {
    if (kept_ids != nullptr) {
      kept_ids->resize(m);
      std::iota(kept_ids->begin(), kept_ids->end(), EdgeId{0});
    }
    return std::move(g);
  }

  // Mark every edge after the first of its endpoint-pair run.
  std::vector<char> loses(m, 0);
  for (VertexId a = 0; a < g.num_vertices; ++a) {
    VertexId prev = kInvalidVertex;
    for (EdgeId k = order.row_start[a]; k < order.row_start[a + 1]; ++k) {
      const WEdge& e = g.edges[order.ids[k]];
      const VertexId b = std::max(e.u, e.v);
      if (b == prev) loses[order.ids[k]] = 1;
      prev = b;
    }
  }

  // Compact the winners in place, in input order.
  if (kept_ids != nullptr) {
    kept_ids->clear();
    kept_ids->reserve(m - order.duplicates);
  }
  std::size_t out = 0;
  for (EdgeId i = 0; i < m; ++i) {
    if (loses[i]) continue;
    g.edges[out++] = g.edges[i];
    if (kept_ids != nullptr) kept_ids->push_back(i);
  }
  g.edges.resize(out);
  return std::move(g);
}

EdgeList canonicalize_parallel_edges(const EdgeList& g,
                                     std::vector<EdgeId>* kept_ids) {
  return canonicalize_parallel_edges(EdgeList(g), kept_ids);
}

bool verify_cut_property(const EdgeList& g, std::span<const WEdge> forest,
                         std::string* error) {
  // Forest adjacency.
  std::vector<std::vector<VertexId>> adj(g.num_vertices);
  for (const auto& e : forest) {
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
  }
  std::vector<char> side(g.num_vertices, 0);
  std::vector<VertexId> frontier;
  for (std::size_t fe = 0; fe < forest.size(); ++fe) {
    const WEdge& cut_edge = forest[fe];
    // Flood the u-side of the tree with edge (u,v) removed.
    std::fill(side.begin(), side.end(), 0);
    frontier.clear();
    frontier.push_back(cut_edge.u);
    side[cut_edge.u] = 1;
    while (!frontier.empty()) {
      const VertexId x = frontier.back();
      frontier.pop_back();
      for (const VertexId y : adj[x]) {
        if ((x == cut_edge.u && y == cut_edge.v) ||
            (x == cut_edge.v && y == cut_edge.u)) {
          continue;  // skip the removed edge itself
        }
        if (!side[y]) {
          side[y] = 1;
          frontier.push_back(y);
        }
      }
    }
    // No graph edge crossing the cut may be strictly lighter.
    for (const auto& e : g.edges) {
      if (side[e.u] != side[e.v] && e.w < cut_edge.w) {
        if (error) {
          *error = "cut property violated: forest edge (" +
                   std::to_string(cut_edge.u) + "," + std::to_string(cut_edge.v) +
                   ") w=" + std::to_string(cut_edge.w) + " vs graph edge (" +
                   std::to_string(e.u) + "," + std::to_string(e.v) +
                   ") w=" + std::to_string(e.w);
        }
        return false;
      }
    }
  }
  return true;
}

}  // namespace smp::graph
