// MST-BC-specific behaviour: base-size sweep (Prim↔Borůvka spectrum),
// permutation toggle, instrumentation, and heavy-collision stress.
#include <gtest/gtest.h>

#include "core/msf.hpp"
#include "graph/generators.hpp"
#include "pprim/rng.hpp"
#include "seq/seq_msf.hpp"
#include "test_util.hpp"

namespace {

using namespace smp;
using namespace smp::graph;

TEST(MstBC, BaseSizeSweepAllAgree) {
  const EdgeList g = random_graph(3000, 12000, 5);
  const auto ref = test::sorted_ids(seq::kruskal_msf(g));
  // base >= n: pure sequential Kruskal.  base = 1: full recursion.
  for (const VertexId base : {1u, 16u, 256u, 3000u, 100000u}) {
    for (const int threads : {1, 2, 7}) {
      core::MsfOptions opts;
      opts.algorithm = core::Algorithm::kMstBC;
      opts.threads = threads;
      opts.bc_base_size = base;
      const auto r = core::minimum_spanning_forest(g, opts);
      EXPECT_EQ(test::sorted_ids(r), ref) << "base=" << base << " t=" << threads;
    }
  }
}

TEST(MstBC, PermutationToggle) {
  const EdgeList g = mesh2d(50, 50, 6);
  const auto ref = test::sorted_ids(seq::kruskal_msf(g));
  for (const bool permute : {true, false}) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      core::MsfOptions opts;
      opts.algorithm = core::Algorithm::kMstBC;
      opts.threads = 4;
      opts.bc_base_size = 16;
      opts.bc_permute = permute;
      opts.seed = seed;
      const auto r = core::minimum_spanning_forest(g, opts);
      EXPECT_EQ(test::sorted_ids(r), ref) << "permute=" << permute << " seed=" << seed;
    }
  }
}

TEST(MstBC, SingleThreadBehavesLikePrimOneRound) {
  // With p=1 the single Prim instance swallows each component whole (no
  // foreign tree can stop it): after one round the graph is fully contracted.
  const EdgeList g = random_graph(500, 2000, 7);
  core::MsfOptions opts;
  opts.algorithm = core::Algorithm::kMstBC;
  opts.threads = 1;
  opts.bc_base_size = 1;
  std::vector<core::IterationStat> stats;
  opts.iteration_stats = &stats;
  const auto r = core::minimum_spanning_forest(g, opts);
  EXPECT_EQ(test::sorted_ids(r), test::sorted_ids(seq::prim_msf(g)));
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].vertices, g.num_vertices);
  EXPECT_EQ(stats[0].directed_edges, 2 * g.num_edges());
}

// The contraction rebuild (scatter by new source + per-row dedup) at full
// recursion depth: the forest must equal Kruskal's edge for edge, and the
// traced arc counts must stay even (both directions of every surviving edge
// survive together) and never grow from one round to the next.
void expect_rebuild_matches_kruskal(const EdgeList& g, const char* what) {
  const auto kruskal = seq::kruskal_msf(g);
  const auto ref = test::sorted_ids(kruskal);
  for (const int threads : {1, 2, 4, 8}) {
    core::MsfOptions opts;
    opts.algorithm = core::Algorithm::kMstBC;
    opts.threads = threads;
    opts.bc_base_size = 1;
    std::vector<core::IterationStat> stats;
    opts.iteration_stats = &stats;
    const auto r = core::minimum_spanning_forest(g, opts);
    EXPECT_EQ(test::sorted_ids(r), ref) << what << " t=" << threads;
    EXPECT_EQ(r.num_trees, kruskal.num_trees) << what << " t=" << threads;
    ASSERT_FALSE(stats.empty()) << what << " t=" << threads;
    for (std::size_t i = 0; i < stats.size(); ++i) {
      EXPECT_EQ(stats[i].directed_edges % 2, 0u) << what << " round " << i;
      if (i > 0) {
        EXPECT_LE(stats[i].directed_edges, stats[i - 1].directed_edges)
            << what << " t=" << threads << " round " << i;
        EXPECT_LT(stats[i].vertices, stats[i - 1].vertices)
            << what << " t=" << threads << " round " << i;
      }
    }
  }
}

TEST(MstBC, RebuildAllEqualWeights) {
  // Every duplicate ⟨u, v⟩ arc ties on weight, so the edge-id tie-break alone
  // decides which one each row keeps.
  EdgeList g = random_graph(3000, 15000, 13);
  for (auto& e : g.edges) e.w = 1.0;
  expect_rebuild_matches_kruskal(g, "equal-weights");
}

TEST(MstBC, RebuildDenseMultigraph) {
  // 150 vertices, 12000 edges with repeated endpoint pairs and few distinct
  // weights: every contraction turns many arcs into parallel ones.
  EdgeList g(150);
  Rng rng(14);
  while (g.num_edges() < 12000) {
    const auto u = static_cast<VertexId>(rng.next_below(150));
    const auto v = static_cast<VertexId>(rng.next_below(150));
    if (u != v) g.add_edge(u, v, static_cast<Weight>(rng.next_below(8)));
  }
  expect_rebuild_matches_kruskal(g, "multigraph");
}

TEST(MstBC, RebuildIsolatedVertices) {
  // Only even vertices carry edges; every odd one is isolated and stays a
  // one-vertex component (an empty row) through every rebuild.
  const EdgeList half = random_graph(2000, 8000, 15);
  EdgeList g(4000);
  for (const auto& e : half.edges) g.add_edge(2 * e.u, 2 * e.v, e.w);
  expect_rebuild_matches_kruskal(g, "isolated");
}

TEST(MstBC, HighCollisionStress) {
  // Many threads on a tiny dense graph maximizes coloring collisions and
  // maturity events; repeat with different seeds.
  const EdgeList g = random_graph(64, 1200, 8);
  const auto ref = test::sorted_ids(seq::kruskal_msf(g));
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    core::MsfOptions opts;
    opts.algorithm = core::Algorithm::kMstBC;
    opts.threads = 8;
    opts.bc_base_size = 1;  // minimum legal value: maximize the parallel phase
    opts.seed = seed;
    const auto r = core::minimum_spanning_forest(g, opts);
    ASSERT_EQ(test::sorted_ids(r), ref) << "seed=" << seed;
  }
}

TEST(MstBC, StructuredWorstCases) {
  // The paper motivates MST-BC with the str* inputs, which are Borůvka's
  // iteration-count worst cases.
  for (int variant = 0; variant < 4; ++variant) {
    const EdgeList g = structured_graph(variant, 4096, 9);
    const auto ref = test::sorted_ids(seq::kruskal_msf(g));
    for (const int threads : {1, 4}) {
      const auto r = test::run_alg(g, core::Algorithm::kMstBC, threads, 64);
      EXPECT_EQ(test::sorted_ids(r), ref) << "str" << variant << " t=" << threads;
    }
  }
}

TEST(MstBC, StepTimesAccumulate) {
  const EdgeList g = random_graph(2000, 8000, 10);
  core::StepTimes st;
  core::MsfOptions opts;
  opts.algorithm = core::Algorithm::kMstBC;
  opts.threads = 2;
  opts.bc_base_size = 64;
  opts.step_times = &st;
  (void)core::minimum_spanning_forest(g, opts);
  EXPECT_GT(st.total(), 0.0);
  EXPECT_GE(st.find_min, 0.0);
  EXPECT_GE(st.connect, 0.0);
  EXPECT_GE(st.compact, 0.0);
}

TEST(MstBC, DisconnectedInput) {
  // Two random components plus isolated vertices.
  EdgeList g(5000);
  const EdgeList a = random_graph(2000, 6000, 11);
  const EdgeList b = random_graph(2000, 6000, 12);
  for (const auto& e : a.edges) g.add_edge(e.u, e.v, e.w);
  for (const auto& e : b.edges) g.add_edge(e.u + 2000, e.v + 2000, e.w);
  const auto ref = seq::kruskal_msf(g);
  for (const int threads : {1, 4}) {
    const auto r = test::run_alg(g, core::Algorithm::kMstBC, threads, 32);
    EXPECT_EQ(test::sorted_ids(r), test::sorted_ids(ref)) << threads;
    EXPECT_EQ(r.num_trees, ref.num_trees);
  }
}

}  // namespace
