// ForestArrangement (the forest path-max index) against an independent BFS
// oracle and the dendrogram, and the MSF verifier built on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <queue>
#include <random>

#include "core/dendrogram.hpp"
#include "core/path_max.hpp"
#include "core/verify_msf.hpp"
#include "graph/generators.hpp"
#include "pprim/thread_team.hpp"
#include "seq/seq_msf.hpp"
#include "test_util.hpp"

namespace {

using namespace smp;
using namespace smp::graph;
using core::ForestArrangement;

/// A forest with its WeightOrder tie-breaks.
struct Forest {
  VertexId n = 0;
  std::vector<WEdge> edges;
  std::vector<EdgeId> ids;  ///< ascending unless a test permutes them
};

/// Random forest on n vertices: vertex v (in a shuffled labelling) joins an
/// earlier one with probability `link`, its predecessor with probability
/// `chain` (long paths) and otherwise a uniform earlier vertex.  Weights
/// come from a tiny set with -0.0 and +0.0, so ties are everywhere.
Forest random_forest(VertexId n, double link, double chain,
                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const double weights[] = {-0.0, 0.0, 0.5, 1.0, 1.0, 2.0};
  std::vector<VertexId> label(n);
  std::iota(label.begin(), label.end(), VertexId{0});
  std::shuffle(label.begin(), label.end(), rng);
  Forest f;
  f.n = n;
  for (VertexId v = 1; v < n; ++v) {
    if (coin(rng) >= link) continue;
    const VertexId u = coin(rng) < chain
                           ? v - 1
                           : static_cast<VertexId>(rng() % v);
    f.edges.push_back({label[u], label[v], weights[rng() % 6]});
  }
  std::shuffle(f.edges.begin(), f.edges.end(), rng);
  f.ids.resize(f.edges.size());
  std::iota(f.ids.begin(), f.ids.end(), EdgeId{0});
  return f;
}

/// Independent oracle: BFS over the forest adjacency from u, then the
/// heaviest ⟨weight, id⟩ edge on the path back from v, as a position.
class BfsOracle {
 public:
  explicit BfsOracle(const Forest& f) : f_(f), adj_(f.n) {
    for (std::size_t i = 0; i < f.edges.size(); ++i) {
      adj_[f.edges[i].u].push_back({f.edges[i].v, i});
      adj_[f.edges[i].v].push_back({f.edges[i].u, i});
    }
  }

  [[nodiscard]] bool connected(VertexId u, VertexId v) const {
    return search(u, v).has_value();
  }

  [[nodiscard]] std::uint32_t path_max(VertexId u, VertexId v) const {
    const auto from = search(u, v);
    if (!from || u == v) return ForestArrangement::kNone;
    std::size_t best = 0;
    bool has = false;
    for (VertexId x = v; x != u; x = (*from)[x].first) {
      const std::size_t i = (*from)[x].second;
      if (!has || WeightOrder{f_.edges[best].w, f_.ids[best]} <
                      WeightOrder{f_.edges[i].w, f_.ids[i]}) {
        best = i;
        has = true;
      }
    }
    return static_cast<std::uint32_t>(best);
  }

 private:
  /// BFS predecessor (vertex, edge) per reached vertex, or nullopt if v is
  /// unreachable from u.
  [[nodiscard]] std::optional<std::vector<std::pair<VertexId, std::size_t>>>
  search(VertexId u, VertexId v) const {
    std::vector<std::pair<VertexId, std::size_t>> from(
        f_.n, {kInvalidVertex, 0});
    std::queue<VertexId> q;
    q.push(u);
    from[u] = {u, 0};
    while (!q.empty() && from[v].first == kInvalidVertex) {
      const VertexId x = q.front();
      q.pop();
      for (const auto& [y, i] : adj_[x]) {
        if (from[y].first != kInvalidVertex) continue;
        from[y] = {x, i};
        q.push(y);
      }
    }
    if (from[v].first == kInvalidVertex) return std::nullopt;
    return from;
  }

  const Forest& f_;
  std::vector<std::vector<std::pair<VertexId, std::size_t>>> adj_;
};

/// Every pair for small n, `samples` random pairs otherwise.
void expect_matches_oracle(const Forest& f, const ForestArrangement& arr,
                           int samples, std::uint64_t seed) {
  const BfsOracle oracle(f);
  const auto check = [&](VertexId u, VertexId v) {
    ASSERT_EQ(arr.connected(u, v), oracle.connected(u, v))
        << "n=" << f.n << " u=" << u << " v=" << v;
    ASSERT_EQ(arr.path_max(u, v), oracle.path_max(u, v))
        << "n=" << f.n << " u=" << u << " v=" << v;
  };
  if (static_cast<std::uint64_t>(f.n) * f.n <= 5000) {
    for (VertexId u = 0; u < f.n; ++u) {
      for (VertexId v = 0; v < f.n; ++v) check(u, v);
    }
    return;
  }
  std::mt19937_64 rng(seed);
  for (int t = 0; t < samples; ++t) {
    check(static_cast<VertexId>(rng() % f.n),
          static_cast<VertexId>(rng() % f.n));
  }
}

TEST(ForestPathMax, PathGraphExhaustive) {
  // Path 0-1-2-3-4 with weights 5, 1, 9, 3: check every pair against a
  // brute-force path scan.
  const double w[] = {5, 1, 9, 3};
  std::vector<WEdge> edges;
  for (VertexId v = 0; v < 4; ++v) edges.push_back({v, v + 1, w[v]});
  ThreadTeam team(1);
  const ForestArrangement arr(team, 5, edges);
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = 0; v < 5; ++v) {
      const std::uint32_t pm = arr.path_max(u, v);
      if (u == v) {
        EXPECT_EQ(pm, ForestArrangement::kNone);
        continue;
      }
      double expect = 0;
      for (VertexId x = std::min(u, v); x < std::max(u, v); ++x) {
        expect = std::max(expect, w[x]);
      }
      ASSERT_NE(pm, ForestArrangement::kNone) << u << "," << v;
      EXPECT_DOUBLE_EQ(edges[pm].w, expect) << u << "," << v;
    }
  }
}

TEST(ForestPathMax, DisconnectedTreesReturnNullopt) {
  const std::vector<WEdge> edges = {{0, 1, 1.0}, {2, 3, 2.0}};
  ThreadTeam team(1);
  const ForestArrangement arr(team, 5, edges);
  EXPECT_TRUE(arr.connected(0, 1));
  EXPECT_FALSE(arr.connected(0, 2));
  EXPECT_FALSE(arr.connected(0, 4));  // isolated vertex
  EXPECT_EQ(arr.path_max(0, 2), ForestArrangement::kNone);
  EXPECT_EQ(arr.path_max(4, 0), ForestArrangement::kNone);
  EXPECT_EQ(arr.path_max(2, 3), 1u);
  EXPECT_EQ(arr.num_components(), 3u);
}

TEST(ForestPathMax, RandomTreeAgainstBruteForce) {
  // MST of a random graph (Kruskal emits its edges in weight order, so the
  // ids do not ascend: the comparison-sort build); path_max against a BFS
  // walk for many random pairs.
  const EdgeList g = random_graph(300, 1500, 3);
  const auto msf = seq::kruskal_msf(g);
  ThreadTeam team(1);
  const ForestArrangement arr(team, g.num_vertices, msf.edges, msf.edge_ids);
  Forest f{g.num_vertices, msf.edges, msf.edge_ids};
  expect_matches_oracle(f, arr, 500, 4);
}

TEST(ForestArrangement, MatchesBfsOracleOnRandomForests) {
  ThreadTeam team(2);
  std::uint64_t seed = 1;
  for (const VertexId n : {1u, 2u, 5u, 63u, 64u, 65u, 130u, 2000u}) {
    for (const double link : {0.0, 0.5, 0.97, 1.0}) {
      for (const double chain : {0.0, 0.9}) {
        const Forest f = random_forest(n, link, chain, ++seed);
        const ForestArrangement arr(team, n, f.edges, f.ids);
        expect_matches_oracle(f, arr, 1500, seed);
        if (testing::Test::HasFatalFailure()) return;
        // Empty ids mean "position is the tie-break": the same answers.
        const ForestArrangement by_pos(team, n, f.edges);
        for (VertexId u = 0; u < n; u += 7) {
          for (VertexId v = 0; v < n; v += 5) {
            ASSERT_EQ(by_pos.path_max(u, v), arr.path_max(u, v));
          }
        }
      }
    }
  }
}

TEST(ForestArrangement, NonAscendingIdsBreakTiesById) {
  // Distinct ids in a shuffled order: ties must follow the ids, not the
  // positions.
  ThreadTeam team(4);
  Forest f = random_forest(700, 0.9, 0.5, 77);
  std::mt19937_64 rng(5);
  for (EdgeId& id : f.ids) id = id * 3 + 1;
  std::shuffle(f.ids.begin(), f.ids.end(), rng);
  const ForestArrangement arr(team, f.n, f.edges, f.ids);
  expect_matches_oracle(f, arr, 3000, 6);
}

TEST(ForestArrangement, EmptyForestAndSingleVertex) {
  ThreadTeam team(2);
  const ForestArrangement none(team, 0, {});
  EXPECT_EQ(none.num_components(), 0u);
  EXPECT_TRUE(none.cut({}, 1.0).empty());

  const ForestArrangement one(team, 1, {});
  EXPECT_TRUE(one.connected(0, 0));
  EXPECT_EQ(one.path_max(0, 0), ForestArrangement::kNone);
  std::size_t k = 0;
  EXPECT_EQ(one.cut({}, 0.0, &k), std::vector<VertexId>{0});
  EXPECT_EQ(k, 1u);

  const ForestArrangement bare(team, 6, {});
  EXPECT_EQ(bare.num_components(), 6u);
  for (VertexId u = 0; u < 6; ++u) {
    for (VertexId v = 0; v < 6; ++v) {
      EXPECT_EQ(bare.connected(u, v), u == v);
      EXPECT_EQ(bare.path_max(u, v), ForestArrangement::kNone);
    }
  }
}

TEST(ForestArrangement, LongPathsCrossManyBlocks) {
  // One long path (chain = 1) and a caterpillar: most pairs lie hundreds
  // of positions apart, so queries use the block table as well as the
  // in-block scans.
  ThreadTeam team(4);
  for (const double chain : {1.0, 0.95}) {
    const Forest f = random_forest(6000, 1.0, chain, 13);
    const ForestArrangement arr(team, f.n, f.edges, f.ids);
    expect_matches_oracle(f, arr, 400, 14);
  }
}

TEST(ForestArrangement, CutMatchesDendrogramAtTiedWeights) {
  ThreadTeam team(2);
  for (const double link : {0.6, 1.0}) {
    const Forest f = random_forest(900, link, 0.5, 21);
    const ForestArrangement arr(team, f.n, f.edges, f.ids);
    MsfResult msf;
    msf.edges = f.edges;
    msf.edge_ids = f.ids;
    const core::Dendrogram dend(f.n, msf);
    // Every tied weight of the forest, plus thresholds below and above all.
    for (const double lambda : {-1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0}) {
      std::size_t k_arr = 0, k_dend = 0;
      const auto got = arr.cut(f.edges, lambda, &k_arr);
      const auto want = dend.cut_at(lambda, &k_dend);
      EXPECT_EQ(got, want) << "link=" << link << " lambda=" << lambda;
      EXPECT_EQ(k_arr, k_dend) << "link=" << link << " lambda=" << lambda;
    }
  }
}

TEST(ForestArrangement, SameAnswersAcrossThreadCounts) {
  // Large enough that the rank order takes the parallel radix path.
  const Forest f = random_forest(60000, 0.9, 0.5, 31);
  ThreadTeam ref_team(1);
  const ForestArrangement ref(ref_team, f.n, f.edges, f.ids);
  for (const int p : {2, 4, 8}) {
    ThreadTeam team(p);
    const ForestArrangement arr(team, f.n, f.edges, f.ids);
    EXPECT_EQ(arr.num_components(), ref.num_components()) << "p=" << p;
    EXPECT_EQ(arr.bytes(), ref.bytes()) << "p=" << p;
    std::mt19937_64 rng(static_cast<std::uint64_t>(p));
    for (int t = 0; t < 20000; ++t) {
      const auto u = static_cast<VertexId>(rng() % f.n);
      const auto v = static_cast<VertexId>(rng() % f.n);
      ASSERT_EQ(arr.path_max(u, v), ref.path_max(u, v)) << "p=" << p;
      ASSERT_EQ(arr.component(u), ref.component(u)) << "p=" << p;
    }
    for (const double lambda : {0.0, 0.5, 1.0}) {
      EXPECT_EQ(arr.cut(f.edges, lambda), ref.cut(f.edges, lambda))
          << "p=" << p << " lambda=" << lambda;
    }
  }
}

TEST(VerifyMsf, AcceptsTrueMsfAcrossZoo) {
  const EdgeList graphs[] = {
      random_graph(2000, 10000, 1), mesh2d(40, 40, 2),
      geometric_knn(1500, 5, 3),    structured_graph(1, 1024, 4),
      random_graph(3000, 1200, 5),  // disconnected
      rmat_graph(11, 8000, 6),
  };
  for (const auto& g : graphs) {
    const auto msf = seq::kruskal_msf(g);
    std::string err;
    EXPECT_TRUE(core::verify_msf(g, msf, &err)) << err;
  }
}

TEST(VerifyMsf, RejectsNonMinimumSpanningTree) {
  // Spanning but not minimum: swap one MST edge for a heavier cycle edge.
  EdgeList g(3);
  g.add_edge(0, 1, 1.0);  // id 0
  g.add_edge(1, 2, 2.0);  // id 1
  g.add_edge(0, 2, 3.0);  // id 2
  MsfResult bad;
  bad.edges = {{0, 1, 1.0}, {0, 2, 3.0}};
  bad.edge_ids = {0, 2};
  bad.total_weight = 4.0;
  bad.num_trees = 1;
  std::string err;
  EXPECT_FALSE(core::verify_msf(g, bad, &err));
  EXPECT_NE(err.find("cycle property"), std::string::npos) << err;
}

TEST(VerifyMsf, RejectsStructurallyBrokenForest) {
  EdgeList g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  MsfResult bad;
  bad.edges = {{0, 1, 1.0}};
  bad.edge_ids = {0};  // misses edge (1,2): not maximal
  EXPECT_FALSE(core::verify_msf(g, bad, nullptr));
}

TEST(VerifyMsf, AcceptsAllParallelAlgorithmOutputs) {
  const EdgeList g = random_graph(5000, 30000, 7);
  for (const auto alg : core::kParallelAlgorithms) {
    const auto r = test::run_alg(g, alg, 4);
    std::string err;
    EXPECT_TRUE(core::verify_msf(g, r, &err)) << core::to_string(alg) << ": " << err;
  }
}

TEST(VerifyMsf, EmptyAndEdgelessGraphs) {
  MsfResult empty;
  EXPECT_TRUE(core::verify_msf(EdgeList(0), empty, nullptr));
  empty.num_trees = 9;
  EXPECT_TRUE(core::verify_msf(EdgeList(9), empty, nullptr));
}

}  // namespace
