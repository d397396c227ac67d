// The forest validator itself: accepts real MSFs and rejects each
// corruption; and parallel-edge canonicalization against a hash-map oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <sstream>
#include <unordered_map>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/validate.hpp"
#include "seq/seq_msf.hpp"

namespace {

using namespace smp;
using namespace smp::graph;

EdgeList diamond() {
  // 0-1 (1.0), 1-2 (2.0), 2-3 (3.0), 3-0 (4.0), 0-2 (5.0)
  EdgeList g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(2, 3, 3.0);
  g.add_edge(3, 0, 4.0);
  g.add_edge(0, 2, 5.0);
  return g;
}

TEST(Validate, AcceptsTrueMsf) {
  const EdgeList g = diamond();
  const auto msf = seq::kruskal_msf(g);
  const auto chk = validate_spanning_forest(g, msf.edges);
  EXPECT_TRUE(chk.ok) << chk.error;
  EXPECT_EQ(chk.num_trees, 1u);
  EXPECT_DOUBLE_EQ(chk.total_weight, 6.0);
}

TEST(Validate, RejectsCycle) {
  const EdgeList g = diamond();
  const std::vector<WEdge> cyc = {
      {0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 3.0}, {3, 0, 4.0}};
  const auto chk = validate_spanning_forest(g, cyc);
  EXPECT_FALSE(chk.ok);
  EXPECT_NE(chk.error.find("cycle"), std::string::npos);
}

TEST(Validate, RejectsNonSpanning) {
  const EdgeList g = diamond();
  const std::vector<WEdge> partial = {{0, 1, 1.0}, {1, 2, 2.0}};
  const auto chk = validate_spanning_forest(g, partial);
  EXPECT_FALSE(chk.ok);
  EXPECT_NE(chk.error.find("span"), std::string::npos);
}

TEST(Validate, RejectsForeignEdge) {
  const EdgeList g = diamond();
  const std::vector<WEdge> fake = {{0, 1, 1.0}, {1, 2, 2.0}, {1, 3, 2.5}};
  const auto chk = validate_spanning_forest(g, fake);
  EXPECT_FALSE(chk.ok);
  EXPECT_NE(chk.error.find("not present"), std::string::npos);
}

TEST(Validate, RejectsWrongWeightOnRealEndpoints) {
  const EdgeList g = diamond();
  const std::vector<WEdge> fake = {{0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 3.5}};
  const auto chk = validate_spanning_forest(g, fake);
  EXPECT_FALSE(chk.ok);
}

TEST(Validate, RejectsDuplicatedEdge) {
  const EdgeList g = diamond();
  // Same graph edge listed twice: acyclicity (or membership multiset) fails.
  const std::vector<WEdge> dup = {{0, 1, 1.0}, {0, 1, 1.0}, {2, 3, 3.0}};
  const auto chk = validate_spanning_forest(g, dup);
  EXPECT_FALSE(chk.ok);
}

TEST(Validate, DisconnectedGraphNeedsPerComponentSpanning) {
  EdgeList g(6);  // two triangles
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(0, 2, 3.0);
  g.add_edge(3, 4, 1.5);
  g.add_edge(4, 5, 2.5);
  g.add_edge(3, 5, 3.5);
  const auto msf = seq::kruskal_msf(g);
  const auto chk = validate_spanning_forest(g, msf.edges);
  EXPECT_TRUE(chk.ok) << chk.error;
  EXPECT_EQ(chk.num_trees, 2u);
}

TEST(CutProperty, HoldsForTrueMsf) {
  const EdgeList g = random_graph(60, 200, 21);
  const auto msf = seq::kruskal_msf(g);
  std::string err;
  EXPECT_TRUE(verify_cut_property(g, msf.edges, &err)) << err;
}

TEST(CutProperty, FailsForNonMinimumSpanningTree) {
  // Triangle 0-1 (1), 1-2 (2), 0-2 (3).  The tree {(0,1), (0,2)} spans but
  // is not minimum: cutting (0,2) separates {0,1} from {2}, and the lighter
  // edge (1,2) crosses that cut.
  EdgeList g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(0, 2, 3.0);
  const std::vector<WEdge> bad = {{0, 1, 1.0}, {0, 2, 3.0}};
  ASSERT_TRUE(validate_spanning_forest(g, bad).ok) << "spanning but not minimum";
  std::string err;
  EXPECT_FALSE(verify_cut_property(g, bad, &err));
  EXPECT_FALSE(err.empty());
}

TEST(Validate, EmptyGraphEmptyForest) {
  const EdgeList g(0);
  const auto chk = validate_spanning_forest(g, {});
  EXPECT_TRUE(chk.ok);
  EXPECT_EQ(chk.num_trees, 0u);
}

TEST(Validate, IsolatedVerticesNeedNoEdges) {
  const EdgeList g(4);  // no edges at all
  const auto chk = validate_spanning_forest(g, {});
  EXPECT_TRUE(chk.ok);
  EXPECT_EQ(chk.num_trees, 4u);
}

// --- parallel-edge canonicalization ---------------------------------------

// Reference canonicalization by one hash-map entry per endpoint pair: the
// pair's WeightOrder-minimal edge id wins and winners keep input order.
EdgeList oracle_canonicalize(const EdgeList& g, std::vector<EdgeId>* kept_ids) {
  const auto pair_key = [](const WEdge& e) {
    const VertexId a = e.u <= e.v ? e.u : e.v;
    const VertexId b = e.u <= e.v ? e.v : e.u;
    return (static_cast<std::uint64_t>(a) << 32) | b;
  };
  std::unordered_map<std::uint64_t, EdgeId> best;
  for (EdgeId i = 0; i < g.edges.size(); ++i) {
    const auto [it, fresh] = best.try_emplace(pair_key(g.edges[i]), i);
    if (!fresh) {
      const EdgeId j = it->second;
      if (WeightOrder{g.edges[i].w, i} < WeightOrder{g.edges[j].w, j}) {
        it->second = i;
      }
    }
  }
  EdgeList out(g.num_vertices);
  kept_ids->clear();
  for (EdgeId i = 0; i < g.edges.size(); ++i) {
    if (best.at(pair_key(g.edges[i])) != i) continue;
    out.edges.push_back(g.edges[i]);
    kept_ids->push_back(i);
  }
  return out;
}

// Bitwise, so a kept -0.0 is told apart from a kept +0.0.
void expect_same_edges(const EdgeList& got, const EdgeList& want) {
  ASSERT_EQ(got.num_vertices, want.num_vertices);
  ASSERT_EQ(got.edges.size(), want.edges.size());
  for (std::size_t i = 0; i < want.edges.size(); ++i) {
    ASSERT_EQ(got.edges[i].u, want.edges[i].u) << "edge " << i;
    ASSERT_EQ(got.edges[i].v, want.edges[i].v) << "edge " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.edges[i].w),
              std::bit_cast<std::uint64_t>(want.edges[i].w))
        << "edge " << i;
  }
}

// Heavy duplication over few vertices: weights from a small set with ties,
// both zeros and negatives, and about one edge in eight a self-loop.
EdgeList multigraph(VertexId n, EdgeId m, std::uint64_t seed) {
  static constexpr Weight kWeights[] = {-0.0, 0.0, -2.5, -1.0, 1.0, 1.0, 3.25, 7.0};
  std::mt19937_64 rng(seed);
  EdgeList g(n);
  for (EdgeId i = 0; i < m; ++i) {
    const auto u = static_cast<VertexId>(rng() % n);
    const auto v = rng() % 8 == 0 ? u : static_cast<VertexId>(rng() % n);
    g.edges.push_back(WEdge{u, v, kWeights[rng() % 8]});
  }
  return g;
}

EdgeList read_back(const EdgeList& g, ParallelEdgePolicy policy) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(ss, g);
  return read_binary(ss, policy);
}

TEST(Canonicalize, MatchesHashMapOracleOnMultigraphs) {
  struct Case {
    VertexId n;
    EdgeId m;
  };
  for (const Case c : {Case{1, 40}, Case{2, 1000}, Case{50, 20000},
                       Case{300, 20000}, Case{5000, 20000}}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("n=" + std::to_string(c.n) + " seed=" + std::to_string(seed));
      const EdgeList g = multigraph(c.n, c.m, seed);
      std::vector<EdgeId> want_ids;
      const EdgeList want = oracle_canonicalize(g, &want_ids);
      ASSERT_LT(want.num_edges(), g.num_edges());

      std::vector<EdgeId> ids;
      expect_same_edges(canonicalize_parallel_edges(g, &ids), want);
      EXPECT_EQ(ids, want_ids);
      expect_same_edges(canonicalize_parallel_edges(EdgeList(g), &ids), want);
      EXPECT_EQ(ids, want_ids);
      expect_same_edges(read_back(g, ParallelEdgePolicy::kCanonicalize), want);
      expect_same_edges(read_back(g, ParallelEdgePolicy::kKeepAll), g);
      EXPECT_EQ(order_by_endpoint_pair(g).duplicates,
                g.num_edges() - want.num_edges());
    }
  }
}

TEST(Canonicalize, ZeroSignTiesAndRepeatedSelfLoops) {
  EdgeList g(3);
  g.edges = {
      {0, 1, -0.0},  // 0: ties +0.0 under WeightOrder and is earlier: kept
      {1, 0, 0.0},   // 1
      {2, 2, 4.0},   // 2: self-loop
      {1, 2, -3.0},  // 3
      {2, 2, 1.0},   // 4: lighter repeat of the self-loop on 2: kept
      {2, 1, -3.0},  // 5: weight tie with 3, later: dropped
      {1, 1, 9.0},   // 6: a lone self-loop stays
      {2, 2, 1.0},   // 7
  };
  std::vector<EdgeId> ids;
  const EdgeList h = canonicalize_parallel_edges(g, &ids);
  EXPECT_EQ(ids, (std::vector<EdgeId>{0, 3, 4, 6}));
  std::vector<EdgeId> want_ids;
  expect_same_edges(h, oracle_canonicalize(g, &want_ids));
  EXPECT_EQ(ids, want_ids);
  EXPECT_TRUE(std::signbit(h.edges[0].w));
}

TEST(Canonicalize, DuplicateFreeInputComesBackUnchangedWithoutACopy) {
  EdgeList g = mesh2d(40, 40, 7);
  const EdgeList before = g;
  const WEdge* storage = g.edges.data();
  std::vector<EdgeId> ids;
  const EdgeList h = canonicalize_parallel_edges(std::move(g), &ids);
  EXPECT_EQ(h.edges.data(), storage);
  expect_same_edges(h, before);
  std::vector<EdgeId> iota(before.edges.size());
  std::iota(iota.begin(), iota.end(), EdgeId{0});
  EXPECT_EQ(ids, iota);
  EXPECT_EQ(order_by_endpoint_pair(before).duplicates, 0u);
  expect_same_edges(read_back(before, ParallelEdgePolicy::kCanonicalize), before);
}

TEST(Canonicalize, RowsAreSortedByTargetThenWeightOrder) {
  const EdgeList g = multigraph(30, 3000, 9);
  const EndpointPairOrder o = order_by_endpoint_pair(g);
  ASSERT_EQ(o.row_start.size(), std::size_t{g.num_vertices} + 1);
  ASSERT_EQ(o.row_start.back(), g.num_edges());
  std::vector<EdgeId> seen(o.ids);
  std::sort(seen.begin(), seen.end());
  for (EdgeId i = 0; i < seen.size(); ++i) ASSERT_EQ(seen[i], i);
  for (VertexId a = 0; a < g.num_vertices; ++a) {
    for (EdgeId k = o.row_start[a]; k < o.row_start[a + 1]; ++k) {
      const WEdge& e = g.edges[o.ids[k]];
      ASSERT_EQ(std::min(e.u, e.v), a);
      if (k == o.row_start[a]) continue;
      const WEdge& p = g.edges[o.ids[k - 1]];
      const VertexId b = std::max(e.u, e.v), pb = std::max(p.u, p.v);
      ASSERT_TRUE(pb < b || (pb == b && WeightOrder{p.w, o.ids[k - 1]} <
                                            WeightOrder{e.w, o.ids[k]}));
    }
  }
}

}  // namespace
