// End-to-end query ops through ServiceCore: pathmax/conn/cut/topk answers
// against brute force on snapshots, input validation, version stamping,
// index metrics, and the health verb's per-session index block.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/types.hpp"
#include "serve/service_core.hpp"

namespace {

using namespace smp;
using namespace smp::graph;
using namespace smp::serve;

Request make(Op op, std::string session = {}) {
  Request r;
  r.op = op;
  r.session = std::move(session);
  return r;
}

/// Opens session `name` holding `g` (bulk insert through the service).
void open_with(ServiceCore& svc, const std::string& name, const EdgeList& g) {
  Request open = make(Op::kOpen, name);
  open.num_vertices = g.num_vertices;
  ASSERT_EQ(svc.call(open).status, Status::kOk);
  Request ins = make(Op::kInsert, name);
  ins.insertions = g.edges;
  ASSERT_EQ(svc.call(ins).status, Status::kOk);
}

struct UnionFind {
  std::vector<VertexId> p;
  explicit UnionFind(VertexId n) : p(n) {
    for (VertexId i = 0; i < n; ++i) p[i] = i;
  }
  VertexId find(VertexId x) {
    while (p[x] != x) x = p[x] = p[p[x]];
    return x;
  }
  void unite(VertexId a, VertexId b) { p[find(a)] = find(b); }
};

/// Brute-force bottleneck on the *snapshot* forest: BFS over its edges.
struct Naive {
  bool connected = false;
  EdgeId edge_id = kInvalidEdge;
  Weight weight = 0;
};

Naive naive_path_max(const SnapshotData& snap, VertexId n, VertexId u,
                     VertexId v) {
  std::vector<std::vector<std::pair<VertexId, EdgeId>>> adj(n);
  for (const EdgeId id : snap.forest_ids) {
    // forest_ids index the live graph via live_ids.
    const auto it =
        std::lower_bound(snap.live_ids.begin(), snap.live_ids.end(), id);
    const auto pos = static_cast<std::size_t>(it - snap.live_ids.begin());
    const WEdge& e = snap.live.edges[pos];
    adj[e.u].push_back({e.v, id});
    adj[e.v].push_back({e.u, id});
  }
  std::vector<VertexId> from(n, kInvalidVertex);
  std::vector<EdgeId> via(n, kInvalidEdge);
  std::vector<Weight> via_w(n, 0);
  std::queue<VertexId> q;
  q.push(u);
  from[u] = u;
  while (!q.empty()) {
    const VertexId x = q.front();
    q.pop();
    for (const auto& [y, id] : adj[x]) {
      if (from[y] != kInvalidVertex) continue;
      from[y] = x;
      via[y] = id;
      const auto it =
          std::lower_bound(snap.live_ids.begin(), snap.live_ids.end(), id);
      via_w[y] = snap.live.edges[static_cast<std::size_t>(
                                     it - snap.live_ids.begin())]
                     .w;
      q.push(y);
    }
  }
  Naive r;
  if (from[v] == kInvalidVertex) return r;
  r.connected = true;
  bool has = false;
  for (VertexId x = v; x != u; x = from[x]) {
    if (!has || via_w[x] > r.weight ||
        (via_w[x] == r.weight && via[x] > r.edge_id)) {
      r.weight = via_w[x];
      r.edge_id = via[x];
      has = true;
    }
  }
  return r;
}

TEST(ServeQuery, PathMaxConnAgainstSnapshotBruteForce) {
  ServiceCore svc;
  const VertexId n = 150;
  const EdgeList g = random_graph(n, 400, 5);
  open_with(svc, "g", g);

  const Response snap_r = svc.call(make(Op::kSnapshot, "g"));
  ASSERT_EQ(snap_r.status, Status::kOk);
  const SnapshotData& snap = *snap_r.snapshot;

  UnionFind uf(n);
  for (const WEdge& e : g.edges) uf.unite(e.u, e.v);

  for (VertexId u = 0; u < n; u += 7) {
    for (VertexId v = 1; v < n; v += 11) {
      if (u == v) continue;
      Request pq = make(Op::kConn, "g");
      pq.u = u;
      pq.v = v;
      const Response cr = svc.call(pq);
      ASSERT_EQ(cr.status, Status::kOk);
      EXPECT_EQ(cr.connected, uf.find(u) == uf.find(v));
      EXPECT_EQ(cr.index_version, snap.version);

      pq.op = Op::kPathMax;
      const Response pr = svc.call(pq);
      ASSERT_EQ(pr.status, Status::kOk);
      const Naive ref = naive_path_max(snap, n, u, v);
      ASSERT_EQ(pr.pathmax_found, ref.connected) << "u=" << u << " v=" << v;
      if (ref.connected) {
        EXPECT_EQ(pr.pathmax_id, ref.edge_id);
        EXPECT_EQ(pr.pathmax_w, ref.weight);
      }
    }
  }
  // The fast path must have served at least part of this read-only burst.
  EXPECT_GT(svc.metrics().index_hits.load(), 0u);
}

TEST(ServeQuery, QueriesTrackWrites) {
  ServiceCore svc;
  EdgeList g(6);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 5.0);
  open_with(svc, "g", g);

  Request pq = make(Op::kPathMax, "g");
  pq.u = 0;
  pq.v = 2;
  Response r = svc.call(pq);
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_TRUE(r.pathmax_found);
  EXPECT_EQ(r.pathmax_w, 5.0);
  const std::uint64_t v0 = r.index_version;

  // A lighter parallel path 1-3-2 displaces the weight-5 edge.
  Request ins = make(Op::kInsert, "g");
  ins.insertions = {{1, 3, 1.0}, {3, 2, 2.0}};
  ASSERT_EQ(svc.call(ins).status, Status::kOk);

  r = svc.call(pq);
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_TRUE(r.pathmax_found);
  EXPECT_EQ(r.pathmax_w, 2.0);
  EXPECT_GT(r.index_version, v0);

  // Deleting the bridge disconnects the pair.
  Request del = make(Op::kDelete, "g");
  del.deletions = {{0, 1}};
  ASSERT_EQ(svc.call(del).status, Status::kOk);
  r = svc.call(pq);
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_FALSE(r.pathmax_found);

  Request cq = make(Op::kConn, "g");
  cq.u = 0;
  cq.v = 2;
  const Response cr = svc.call(cq);
  ASSERT_EQ(cr.status, Status::kOk);
  EXPECT_FALSE(cr.connected);
}

TEST(ServeQuery, CutAndTopk) {
  ServiceCore svc;
  EdgeList g(7);
  g.add_edge(0, 1, 0.1);
  g.add_edge(1, 2, 0.2);
  g.add_edge(2, 3, 0.8);
  g.add_edge(4, 5, 0.15);
  g.add_edge(5, 6, 0.9);
  g.add_edge(0, 3, 0.95);  // non-tree once 2-3 is in
  open_with(svc, "g", g);

  Request cut = make(Op::kCut, "g");
  cut.lambda = 0.5;
  cut.has_lambda = true;
  Response r = svc.call(cut);
  ASSERT_EQ(r.status, Status::kOk);
  // Edges <= 0.5: {0,1,2} merge, {4,5} merge; clusters {0,1,2}, {3}, {4,5},
  // {6}.
  EXPECT_EQ(r.clusters, 4u);
  EXPECT_NE(r.cut_digest, 0u);

  Request topk = make(Op::kTopK, "g");
  topk.limit = 3;
  r = svc.call(topk);
  ASSERT_EQ(r.status, Status::kOk);
  ASSERT_EQ(r.edges.size(), 3u);
  ASSERT_EQ(r.edge_ids.size(), 3u);
  EXPECT_EQ(r.edges[0].w, 0.1);
  EXPECT_EQ(r.edges[1].w, 0.15);
  EXPECT_EQ(r.edges[2].w, 0.2);
  EXPECT_EQ(r.edge_ids[0], 0u);

  // Restricted to cluster-crossing edges at lambda=0.5: candidates are the
  // three heavy edges.
  topk.limit = 10;
  topk.lambda = 0.5;
  topk.has_lambda = true;
  r = svc.call(topk);
  ASSERT_EQ(r.status, Status::kOk);
  ASSERT_EQ(r.edges.size(), 3u);
  EXPECT_EQ(r.edges[0].w, 0.8);
  EXPECT_EQ(r.edges[1].w, 0.9);
  EXPECT_EQ(r.edges[2].w, 0.95);
}

TEST(ServeQuery, ValidationErrors) {
  ServiceCore svc;
  EdgeList g(4);
  g.add_edge(0, 1, 1.0);
  open_with(svc, "g", g);

  Request pq = make(Op::kPathMax, "g");
  pq.u = 0;
  pq.v = 99;  // out of range
  EXPECT_EQ(svc.call(pq).status, Status::kInvalidInput);
  pq.v = 0;  // u == v
  EXPECT_EQ(svc.call(pq).status, Status::kInvalidInput);
  pq.op = Op::kConn;
  pq.u = 7;
  pq.v = 1;
  EXPECT_EQ(svc.call(pq).status, Status::kInvalidInput);

  Request topk = make(Op::kTopK, "g");
  topk.limit = 0;
  EXPECT_EQ(svc.call(topk).status, Status::kInvalidInput);

  Request missing = make(Op::kPathMax, "nope");
  missing.u = 0;
  missing.v = 1;
  EXPECT_EQ(svc.call(missing).status, Status::kNotFound);
}

TEST(ServeQuery, HealthReportsIndexState) {
  ServiceCore svc;
  EdgeList g(5);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  open_with(svc, "g", g);

  // Before any query: session named, no index yet.
  Response h = svc.call(make(Op::kHealth, "g"));
  ASSERT_EQ(h.status, Status::kOk);
  EXPECT_TRUE(h.index_status);
  EXPECT_FALSE(h.index_present);

  Request cq = make(Op::kConn, "g");
  cq.u = 0;
  cq.v = 2;
  ASSERT_EQ(svc.call(cq).status, Status::kOk);

  h = svc.call(make(Op::kHealth, "g"));
  ASSERT_EQ(h.status, Status::kOk);
  EXPECT_TRUE(h.index_status);
  EXPECT_TRUE(h.index_present);
  EXPECT_TRUE(h.index_fresh);
  EXPECT_EQ(h.index_vertices, 5u);
  EXPECT_EQ(h.index_edges, 2u);
  EXPECT_GE(h.index_rebuilds, 1u);
  EXPECT_GE(h.index_age_s, 0.0);

  // Unnamed health: no index block.
  h = svc.call(make(Op::kHealth));
  ASSERT_EQ(h.status, Status::kOk);
  EXPECT_FALSE(h.index_status);

  // A write staleness-bumps the version; eager rebuild catches it back up.
  Request ins = make(Op::kInsert, "g");
  ins.insertions = {{3, 4, 0.5}};
  ASSERT_EQ(svc.call(ins).status, Status::kOk);
  ASSERT_EQ(svc.call(cq).status, Status::kOk);
  h = svc.call(make(Op::kHealth, "g"));
  EXPECT_TRUE(h.index_present);
  EXPECT_TRUE(h.index_fresh);
  EXPECT_EQ(h.index_edges, 3u);
}

TEST(ServeQuery, StatsExposeQueryIndexSection) {
  ServiceCore svc;
  EdgeList g(4);
  g.add_edge(0, 1, 1.0);
  open_with(svc, "g", g);
  Request cq = make(Op::kConn, "g");
  cq.u = 0;
  cq.v = 1;
  ASSERT_EQ(svc.call(cq).status, Status::kOk);
  ASSERT_EQ(svc.call(cq).status, Status::kOk);
  const Response st = svc.call(make(Op::kStats));
  ASSERT_EQ(st.status, Status::kOk);
  EXPECT_NE(st.stats_json.find("\"query_index\""), std::string::npos);
  EXPECT_NE(st.stats_json.find("\"rebuilds\""), std::string::npos);
  EXPECT_NE(st.stats_json.find("\"conn\""), std::string::npos);
}

TEST(ServeQuery, StatsReportIndexBytes) {
  ServiceCore svc;
  EdgeList g(64);
  for (VertexId v = 1; v < 64; ++v) g.add_edge(v - 1, v, 0.5 * v);
  open_with(svc, "g", g);
  const auto stat = [&](const std::string& key) {
    const std::string json = svc.call(make(Op::kStats)).stats_json;
    const std::size_t at = json.find("\"" + key + "\": ");
    EXPECT_NE(at, std::string::npos) << key;
    return std::stoull(json.substr(at + key.size() + 4));
  };
  // No index is built before the first query.
  EXPECT_EQ(stat("bytes_latest"), 0u);
  Request pm = make(Op::kPathMax, "g");
  pm.u = 0;
  pm.v = 63;
  ASSERT_EQ(svc.call(pm).status, Status::kOk);
  const std::uint64_t latest = stat("bytes_latest");
  // At least comp, pos and gap per vertex and the rank order per edge.
  EXPECT_GE(latest, 12u * 64 + 4u * 63);
  EXPECT_EQ(stat("bytes_retained"), latest);
}

}  // namespace
