// compact-graph, tested from the kernel up: the one contraction kernel that
// Bor-EL and MST-BC share (core/detail.hpp) against a sequential reference,
// the algorithms that run it on adversarial multigraphs, and the champion
// default.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <random>
#include <utility>
#include <vector>

#include "core/detail.hpp"
#include "core/error.hpp"
#include "core/msf.hpp"
#include "graph/generators.hpp"
#include "pprim/fault.hpp"
#include "pprim/parallel_for.hpp"
#include "pprim/thread_team.hpp"
#include "seq/seq_msf.hpp"
#include "test_util.hpp"

namespace {

using namespace smp;
using namespace smp::graph;

// ---------------------------------------------------------------------------
// Adversarial multigraph builders.  EdgeList permits parallel edges (only
// self-loops are rejected), which is exactly what the contraction's per-row
// dedup must chew through: few distinct ⟨u, v⟩ pairs, many arcs per pair.

/// Every edge connects the same two vertices: after the first contraction
/// the whole graph is ONE row with one target.
EdgeList all_parallel_graph(int copies, std::uint64_t seed) {
  EdgeList g(4);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> w(0.0, 1.0);
  for (int i = 0; i < copies; ++i) g.add_edge(0, 1, w(rng));
  g.add_edge(1, 2, w(rng));
  g.add_edge(2, 3, w(rng));
  return g;
}

/// Every weight identical: winners are decided purely by the WeightOrder
/// orig-index tiebreak, so any encounter-order dependence shows up as a
/// forest mismatch.
EdgeList equal_weight_graph(VertexId n, int m, std::uint64_t seed) {
  EdgeList g(n);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<VertexId> v(0, n - 1);
  for (int i = 0; i < m;) {
    const VertexId a = v(rng), b = v(rng);
    if (a == b) continue;
    g.add_edge(a, b, 1.0);
    ++i;
  }
  return g;
}

/// >90% duplicate pairs: m edges drawn from a pool of distinct pairs that is
/// less than a tenth of m, so nearly every arc is a parallel copy.
EdgeList mostly_duplicate_graph(VertexId n, int pairs, int m,
                                std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<VertexId> v(0, n - 1);
  std::vector<std::pair<VertexId, VertexId>> pool;
  while (static_cast<int>(pool.size()) < pairs) {
    const VertexId a = v(rng), b = v(rng);
    if (a != b) pool.emplace_back(a, b);
  }
  EdgeList g(n);
  std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
  std::uniform_real_distribution<double> w(0.0, 1.0);
  for (int i = 0; i < m; ++i) {
    const auto [a, b] = pool[pick(rng)];
    g.add_edge(a, b, w(rng));
  }
  return g;
}

// ---------------------------------------------------------------------------
// ContractKernel: detail::contract_in_region against a sequential reference.

/// Input arc of the kernel tests: both endpoints in the current vertex space.
struct InArc {
  VertexId u, v;
  Weight w;
  EdgeId orig;
};

/// Output arc: the target in the new vertex space, as the kernel stores it.
struct Arc {
  VertexId target;
  Weight w;
  EdgeId orig;
  [[nodiscard]] WeightOrder order() const { return {w, orig}; }
};

/// A contraction input: arcs over `labels.size()` vertices, relabelled into
/// `next_n` supervertices.
struct ContractCase {
  const char* name;
  std::vector<InArc> arcs;
  std::vector<VertexId> labels;
  VertexId next_n;
};

/// The contracted graph as a CSR over the supervertices.
struct Csr {
  std::vector<EdgeId> offsets;
  std::vector<Arc> arcs;
};

/// Sequential reference: relabel, drop self-loops, keep the WeightOrder-min
/// arc per ⟨su, sv⟩; rows list their targets in increasing order.
Csr reference_contract(const ContractCase& c) {
  std::map<std::pair<VertexId, VertexId>, Arc> best;
  for (const InArc& a : c.arcs) {
    const VertexId su = c.labels[a.u];
    const VertexId sv = c.labels[a.v];
    if (su == sv) continue;
    const Arc arc{sv, a.w, a.orig};
    auto [it, fresh] = best.emplace(std::make_pair(su, sv), arc);
    if (!fresh && arc.order() < it->second.order()) it->second = arc;
  }
  Csr out;
  out.offsets.assign(static_cast<std::size_t>(c.next_n) + 1, 0);
  for (const auto& [key, arc] : best) {
    ++out.offsets[key.first + 1];
    out.arcs.push_back(arc);
  }
  for (std::size_t k = 1; k < out.offsets.size(); ++k) {
    out.offsets[k] += out.offsets[k - 1];
  }
  return out;
}

Csr kernel_contract(const ContractCase& c, int p) {
  ThreadTeam team(p);
  core::detail::ContractScratch<Arc> scratch(p);
  Csr out;
  team.run([&](TeamCtx& ctx) {
    core::detail::contract_in_region(ctx, c.next_n, [&](auto&& put) {
      for_range(ctx, c.arcs.size(), [&](std::size_t i) {
        const InArc& a = c.arcs[i];
        const VertexId su = c.labels[a.u];
        const VertexId sv = c.labels[a.v];
        if (su != sv) put(su, Arc{sv, a.w, a.orig});
      });
    }, out.offsets, out.arcs, scratch);
  });
  return out;
}

/// Both directions of every edge of `g`, as Bor-EL builds its edge list.
std::vector<InArc> both_directions(const EdgeList& g) {
  std::vector<InArc> arcs;
  for (EdgeId i = 0; i < g.edges.size(); ++i) {
    const auto& e = g.edges[i];
    arcs.push_back({e.u, e.v, e.w, i});
    arcs.push_back({e.v, e.u, e.w, i});
  }
  return arcs;
}

std::vector<ContractCase> contract_cases() {
  std::vector<ContractCase> cases;
  // Empty input: every row of the next graph is empty.
  cases.push_back({"empty", {}, std::vector<VertexId>(5, 0), 3});
  // All self-loops: every arc stays inside its group of ten.
  {
    ContractCase c{"all-self-loops", {}, std::vector<VertexId>(100), 10};
    for (VertexId v = 0; v < 100; ++v) c.labels[v] = v / 10;
    for (VertexId v = 0; v < 100; ++v) {
      c.arcs.push_back({v, (v / 10) * 10 + (v + 3) % 10, 0.5, v});
    }
    cases.push_back(std::move(c));
  }
  // A single supervertex: the whole graph contracted to one vertex.
  {
    const EdgeList g = random_graph(300, 1200, 41);
    cases.push_back({"single-supervertex", both_directions(g),
                     std::vector<VertexId>(300, 0), 1});
  }
  // Rows of equal-weight parallels: only the orig tie-break picks the winner,
  // and the origs arrive shuffled, so the winner is rarely its pair's first.
  {
    ContractCase c{"equal-weight-parallels", {}, std::vector<VertexId>(64), 8};
    for (VertexId v = 0; v < 64; ++v) c.labels[v] = v % 8;
    std::mt19937_64 rng(42);
    std::uniform_int_distribution<VertexId> pick(0, 63);
    std::vector<EdgeId> origs(40000);
    std::iota(origs.begin(), origs.end(), EdgeId{0});
    std::shuffle(origs.begin(), origs.end(), rng);
    for (const EdgeId orig : origs) {
      const VertexId a = pick(rng), b = pick(rng);
      c.arcs.push_back({a, b, 1.0, orig});
    }
    cases.push_back(std::move(c));
  }
  // Random multigraph, >90% duplicate pairs, random relabelling.
  {
    const EdgeList g = mostly_duplicate_graph(2000, 3000, 60000, 43);
    ContractCase c{"mostly-duplicate", both_directions(g),
                   std::vector<VertexId>(2000), 150};
    std::mt19937_64 rng(44);
    for (auto& l : c.labels) l = static_cast<VertexId>(rng() % 150);
    cases.push_back(std::move(c));
  }
  return cases;
}

TEST(ContractKernel, MatchesSequentialReference) {
  for (const ContractCase& c : contract_cases()) {
    const Csr ref = reference_contract(c);
    Csr first;
    for (const int p : {1, 2, 3, 4, 8}) {
      SCOPED_TRACE(std::string(c.name) + " p=" + std::to_string(p));
      Csr got = kernel_contract(c, p);
      ASSERT_EQ(got.offsets, ref.offsets);
      ASSERT_EQ(got.arcs.size(), ref.arcs.size());
      // The kernel's output is bit-identical across p…
      if (p == 1) {
        first = got;
      } else {
        for (std::size_t i = 0; i < got.arcs.size(); ++i) {
          ASSERT_EQ(got.arcs[i].target, first.arcs[i].target) << i;
          ASSERT_EQ(got.arcs[i].orig, first.arcs[i].orig) << i;
        }
      }
      // …and, once each row is sorted by target, equal to the reference.
      for (std::size_t k = 0; k + 1 < got.offsets.size(); ++k) {
        std::sort(got.arcs.begin() + static_cast<std::ptrdiff_t>(got.offsets[k]),
                  got.arcs.begin() + static_cast<std::ptrdiff_t>(got.offsets[k + 1]),
                  [](const Arc& a, const Arc& b) { return a.target < b.target; });
      }
      for (std::size_t i = 0; i < got.arcs.size(); ++i) {
        EXPECT_EQ(got.arcs[i].target, ref.arcs[i].target) << i;
        EXPECT_EQ(got.arcs[i].w, ref.arcs[i].w) << i;
        EXPECT_EQ(got.arcs[i].orig, ref.arcs[i].orig) << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// CompactHash: the algorithms that run the kernel, end to end.

TEST(CompactHash, AdversarialMultigraphsMatchKruskal) {
  const struct {
    const char* name;
    EdgeList g;
  } cases[] = {
      {"all-parallel", all_parallel_graph(20000, 505)},
      {"equal-weights", equal_weight_graph(400, 24000, 506)},
      {"mostly-duplicate", mostly_duplicate_graph(400, 800, 25000, 507)},
  };
  for (const auto& c : cases) {
    const auto ref = test::sorted_ids(seq::kruskal_msf(c.g));
    // Bor-EL and MST-BC run the contraction kernel every iteration…
    for (const auto alg : {core::Algorithm::kBorEL, core::Algorithm::kMstBC}) {
      EXPECT_EQ(test::sorted_ids(test::run_alg(c.g, alg, 4)), ref)
          << c.name << " " << core::to_string(alg);
    }
    // …and the champion default must agree.
    core::MsfOptions champ;
    champ.threads = 4;
    EXPECT_EQ(test::sorted_ids(core::minimum_spanning_forest(c.g, champ)), ref)
        << c.name;
  }
}

TEST(CompactHash, BitIdenticalAcrossThreadCounts) {
  const EdgeList graphs[] = {
      mostly_duplicate_graph(600, 1200, 40000, 608),
      mesh2d(40, 40, 609),
  };
  for (const auto& g : graphs) {
    for (const auto alg : {core::Algorithm::kBorEL, core::Algorithm::kMstBC,
                           core::Algorithm::kChampion}) {
      std::vector<EdgeId> first;
      double first_weight = 0.0;
      for (const int p : {1, 2, 4, 8}) {
        const auto r = test::run_alg(g, alg, p);
        if (p == 1) {
          first = test::sorted_ids(r);
          first_weight = r.total_weight;
        } else {
          EXPECT_EQ(test::sorted_ids(r), first)
              << core::to_string(alg) << " p=" << p;
          EXPECT_WEIGHT_EQ(r.total_weight, first_weight);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Champion: the library default, which runs the Bor-FAL engine.

TEST(Champion, IsTheDefaultAlgorithm) {
  EXPECT_EQ(core::MsfOptions{}.algorithm, core::Algorithm::kChampion);
  const EdgeList g = random_graph(2000, 8000, 110);
  const auto ref = test::sorted_ids(seq::kruskal_msf(g));
  EXPECT_EQ(test::sorted_ids(core::minimum_spanning_forest(g, {})), ref);
}

TEST(Champion, MatchesPaperVariantsAcrossThreadCounts) {
  const EdgeList graphs[] = {
      random_graph(4000, 16000, 111),
      mesh2d_p(45, 45, 0.6, 112),
      equal_weight_graph(500, 20000, 113),
  };
  for (const auto& g : graphs) {
    const auto ref = test::sorted_ids(seq::kruskal_msf(g));
    for (const int p : {1, 2, 4, 8}) {
      const auto champ = test::run_alg(g, core::Algorithm::kChampion, p);
      const auto fal = test::run_alg(g, core::Algorithm::kBorFAL, p);
      EXPECT_EQ(test::sorted_ids(champ), ref) << "p=" << p;
      EXPECT_EQ(test::sorted_ids(fal), test::sorted_ids(champ)) << "p=" << p;
      EXPECT_WEIGHT_EQ(champ.total_weight, fal.total_weight);
    }
  }
}

TEST(Champion, FallbackPathsMatch) {
  // Scan find-min routes champion onto Bor-FAL's reference scan kernel; the
  // forest must not change.
  const EdgeList g = random_graph(3000, 12000, 214);
  const auto ref = test::sorted_ids(seq::kruskal_msf(g));
  core::MsfOptions scan;
  scan.threads = 4;
  scan.find_min = core::FindMinMode::kScan;
  EXPECT_EQ(test::sorted_ids(core::minimum_spanning_forest(g, scan)), ref);
}

class ChampionFaults : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::disarm_all(); }
};

TEST_F(ChampionFaults, FaultSitesUnwindAndTeamSurvives) {
  // Champion runs the Bor-FAL engine, so Bor-FAL's fault sites fire under it.
  const EdgeList g = random_graph(4000, 16000, 315);
  const auto ref = test::sorted_ids(seq::kruskal_msf(g));
  ThreadTeam team(4);
  core::MsfOptions opts;
  opts.allow_sequential_fallback = false;  // surface the injected bad_alloc
  for (const char* site :
       {"bor-fal.find-min", "bor-fal.connect", "bor-fal.connect.region",
        "bor-fal.compact", "bor-fal.compact.region"}) {
    FaultInjector::arm(site, FaultKind::kBadAlloc);
    try {
      (void)core::minimum_spanning_forest(team, g, opts);
      ADD_FAILURE() << site << ": expected kOutOfMemory";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kOutOfMemory) << site;
    }
    EXPECT_GE(FaultInjector::hits(site), 1u) << site;
    FaultInjector::disarm_all();
    // No terminate, no hung barrier — the same team solves cleanly.
    EXPECT_EQ(test::sorted_ids(core::minimum_spanning_forest(team, g, opts)),
              ref)
        << site;
  }
}

}  // namespace
