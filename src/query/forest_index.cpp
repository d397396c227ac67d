#include "query/forest_index.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <utility>

#include "core/connected_components.hpp"
#include "core/find_min.hpp"
#include "graph/edge_list.hpp"
#include "graph/msf_result.hpp"
#include "pprim/counting_sort.hpp"
#include "pprim/parallel_for.hpp"
#include "pprim/simd.hpp"

namespace smp::query {

namespace {

/// One directed forest arc for the CSR build: counting-sorted by src, so
/// adjacency runs are contiguous and (being a stable sort over arcs emitted
/// in ascending forest-position order) deterministically ordered.
struct Arc {
  graph::VertexId src;
  graph::VertexId dst;
  std::uint32_t eidx;  ///< forest position (index into fedges_)
};

/// top_k candidate under the full edge order: monotone weight bits, ties by
/// store id.
struct Cand {
  std::uint64_t bits;
  graph::EdgeId id;
  friend bool operator<(const Cand& a, const Cand& b) {
    return a.bits != b.bits ? a.bits < b.bits : a.id < b.id;
  }
};

}  // namespace

std::uint64_t labels_digest(std::span<const graph::VertexId> labels) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (const graph::VertexId l : labels) {
    std::uint32_t x = l;
    for (int b = 0; b < 4; ++b) {
      h ^= (x >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

ForestIndex::ForestIndex(ThreadTeam& team, const dynamic::EdgeStore& store,
                         std::span<const graph::EdgeId> forest_ids,
                         std::uint64_t version) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t mf = forest_ids.size();
  stats_.version = version;

  // 1. Gather the forest, ascending store id.  Position in fedges_ is the
  // input index build_weight_ranks breaks ties by, so rank order ==
  // ⟨weight, store-id⟩ — the repo-wide WeightOrder.
  fedges_.resize(mf);
  fids_.assign(forest_ids.begin(), forest_ids.end());
  parallel_for(team, mf, [&](std::size_t i) {
    fedges_[i] = store.edge(forest_ids[i]);
  });
  build(team, store.num_vertices(), t0);
}

ForestIndex::ForestIndex(ThreadTeam& team, graph::VertexId num_vertices,
                         std::vector<graph::WEdge> fedges,
                         std::vector<graph::EdgeId> fids,
                         std::uint64_t version) {
  const auto t0 = std::chrono::steady_clock::now();
  stats_.version = version;
  fedges_ = std::move(fedges);
  fids_ = std::move(fids);
  build(team, num_vertices, t0);
}

void ForestIndex::build(ThreadTeam& team, graph::VertexId n,
                        std::chrono::steady_clock::time_point t0) {
  const std::size_t mf = fedges_.size();
  stats_.num_vertices = n;
  stats_.num_forest_edges = mf;

  graph::EdgeList fel(n);
  fel.edges = fedges_;
  std::vector<std::uint32_t> rank = core::build_weight_ranks(team, fel);

  // 2. CSR adjacency over the 2·mf arcs, bucketed by source (rows list
  // their arcs in forest order).
  std::vector<Arc> adj;
  std::vector<std::uint64_t> off;
  {
    BucketScatterScratch scratch;
    team.run([&](TeamCtx& ctx) {
      bucket_scatter_in_region(ctx, n, [&](auto&& put) {
        for_range(ctx, mf, [&](std::size_t i) {
          const graph::WEdge& e = fedges_[i];
          const auto ei = static_cast<std::uint32_t>(i);
          put(e.u, Arc{e.u, e.v, ei});
          put(e.v, Arc{e.v, e.u, ei});
        });
      }, off, adj, scratch);
    });
  }

  // 3. Deterministic component labels; the root of each component is its
  // minimum vertex id (atomic write-min).
  core::CcResult cc = core::connected_components(team, fel);
  comp_ = std::move(cc.label);
  stats_.num_components = cc.num_components;
  const std::size_t C = cc.num_components;

  std::vector<graph::VertexId> root(C, graph::kInvalidVertex);
  std::vector<std::uint32_t> comp_size(C, 0);
  parallel_for(team, n, [&](std::size_t v) {
    const graph::VertexId c = comp_[v];
    std::atomic_ref<std::uint32_t>(comp_size[c])
        .fetch_add(1, std::memory_order_relaxed);
    std::atomic_ref<graph::VertexId> r(root[c]);
    graph::VertexId cur = r.load(std::memory_order_relaxed);
    const auto vv = static_cast<graph::VertexId>(v);
    while (vv < cur &&
           !r.compare_exchange_weak(cur, vv, std::memory_order_relaxed)) {
    }
  });
  std::vector<std::uint32_t> comp_base(C + 1, 0);
  for (std::size_t c = 0; c < C; ++c) {
    comp_base[c + 1] = comp_base[c] + comp_size[c];
  }

  // 4. Per-component DFS (components dispatched dynamically across the
  // team — each walk is sequential, so deep path-like trees cost O(size)
  // with a tiny constant instead of a level-synchronous BFS's O(depth)
  // rounds).  Fills parent/depth/parent-key and the Euler tour: preorder
  // positions, each component contiguous at comp_base[c].
  parent_.resize(n);
  depth_.resize(n);
  pkey_.assign(n, 0);
  tour_.resize(n);
  tin_.resize(n);
  tout_.resize(n);
  std::atomic<std::size_t> cursor{0};
  team.run([&](TeamCtx& ctx) {
    std::vector<std::pair<graph::VertexId, std::uint64_t>> stack;
    for_range_dynamic(ctx, cursor, C, 16, [&](std::size_t c) {
      const graph::VertexId r = root[c];
      std::uint32_t pos = comp_base[c];
      parent_[r] = r;
      depth_[r] = 0;
      tin_[r] = pos;
      tour_[pos++] = r;
      stack.clear();
      stack.emplace_back(r, off[r]);
      while (!stack.empty()) {
        auto& [x, cur] = stack.back();
        if (cur == off[x + 1]) {
          tout_[x] = pos;
          stack.pop_back();
          continue;
        }
        const Arc& a = adj[cur++];
        if (a.dst == parent_[x]) continue;
        const graph::VertexId w = a.dst;
        parent_[w] = x;
        depth_[w] = depth_[x] + 1;
        pkey_[w] = core::pack_key(rank[a.eidx], a.eidx);
        tin_[w] = pos;
        tour_[pos++] = w;
        stack.emplace_back(w, off[w]);
      }
    });
  });

  std::uint32_t max_depth = 0;
  {
    // Parallel max-reduce over depths (deterministic: max is commutative).
    std::atomic<std::uint32_t> md{0};
    team.run([&](TeamCtx& ctx) {
      std::uint32_t local = 0;
      for_range(ctx, n, [&](std::size_t v) {
        local = std::max(local, depth_[v]);
      });
      std::uint32_t cur = md.load(std::memory_order_relaxed);
      while (local > cur &&
             !md.compare_exchange_weak(cur, local, std::memory_order_relaxed)) {
      }
    });
    max_depth = md.load(std::memory_order_relaxed);
  }
  stats_.max_depth = max_depth;

  // 5. Skip-level tables: level k jumps 2^k ancestors carrying the max
  // packed key of the jumped edges (roots self-loop with key 0 — a real
  // path always contributes at least one genuine parent key, so the
  // neutral 0 never decides a bottleneck).
  levels_ = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::bit_width(max_depth)));
  stats_.levels = levels_;
  up_.resize(static_cast<std::size_t>(levels_) * n);
  upkey_.resize(static_cast<std::size_t>(levels_) * n);
  parallel_for(team, n, [&](std::size_t v) {
    up_[v] = parent_[v];
    upkey_[v] = pkey_[v];
  });
  for (std::uint32_t k = 1; k < levels_; ++k) {
    const graph::VertexId* up_prev = up_.data() + (k - 1) * std::size_t{n};
    const std::uint64_t* key_prev = upkey_.data() + (k - 1) * std::size_t{n};
    graph::VertexId* up_k = up_.data() + k * std::size_t{n};
    std::uint64_t* key_k = upkey_.data() + k * std::size_t{n};
    parallel_for(team, n, [&](std::size_t v) {
      const graph::VertexId mid = up_prev[v];
      up_k[v] = up_prev[mid];
      key_k[v] = std::max(key_prev[v], key_prev[mid]);
    });
  }

  built_at_ = std::chrono::steady_clock::now();
  stats_.build_seconds =
      std::chrono::duration<double>(built_at_ - t0).count();
}

ForestIndex::PathMax ForestIndex::path_max(graph::VertexId u,
                                           graph::VertexId v) const {
  PathMax r;
  if (comp_[u] != comp_[v]) return r;
  r.connected = true;
  if (u == v) return r;

  const std::size_t n = stats_.num_vertices;
  std::uint64_t best = 0;
  if (depth_[u] < depth_[v]) std::swap(u, v);
  std::uint32_t diff = depth_[u] - depth_[v];
  for (std::uint32_t k = 0; diff != 0; ++k, diff >>= 1) {
    if (diff & 1) {
      best = std::max(best, upkey_[k * n + u]);
      u = up_[k * n + u];
    }
  }
  if (u != v) {
    for (std::uint32_t k = levels_; k-- > 0;) {
      if (up_[k * n + u] != up_[k * n + v]) {
        best = std::max(best, upkey_[k * n + u]);
        best = std::max(best, upkey_[k * n + v]);
        u = up_[k * n + u];
        v = up_[k * n + v];
      }
    }
    best = std::max(best, pkey_[u]);
    best = std::max(best, pkey_[v]);
  }

  const auto pos = static_cast<std::size_t>(core::key_index(best));
  r.edge_id = fids_[pos];
  r.u = fedges_[pos].u;
  r.v = fedges_[pos].v;
  r.weight = fedges_[pos].w;
  return r;
}

const core::Dendrogram& ForestIndex::dendrogram() const {
  std::lock_guard<std::mutex> lk(dend_mu_);
  if (!dend_) {
    // A forest-shaped MsfResult: edge "ids" are the store ids, so the
    // dendrogram's Kruskal pass breaks weight ties exactly like every
    // solver in the repo.
    graph::MsfResult msf;
    msf.edges = fedges_;
    msf.edge_ids = fids_;
    dend_ = std::make_unique<core::Dendrogram>(stats_.num_vertices, msf);
  }
  return *dend_;
}

ForestIndex::Cut ForestIndex::cut(graph::Weight threshold,
                                  std::vector<graph::VertexId>* labels) const {
  const core::Dendrogram& d = dendrogram();
  Cut c;
  std::vector<graph::VertexId> l = d.cut_at(threshold, &c.num_clusters);
  c.labels_digest = labels_digest(l);
  if (labels != nullptr) *labels = std::move(l);
  return c;
}

namespace {

/// The shared top_k scan kernel: `slots` positions, each exposing a sort key
/// (kEmptyKey = skip), a store id, and the edge itself.  Positions must be
/// ascending by store id so positional and id tie-breaks agree.
template <typename KeyFn, typename IdFn, typename EdgeFn>
std::vector<ForestIndex::TopkEdge> scan_top_k(ThreadTeam& team,
                                              std::size_t slots, std::size_t k,
                                              KeyFn&& key_of, IdFn&& id_of,
                                              EdgeFn&& edge_of) {
  std::vector<ForestIndex::TopkEdge> out;
  const std::size_t block = 1024;
  const std::size_t num_blocks = (slots + block - 1) / block;
  const int p = team.size();
  // Per-thread bounded worst-first heaps (heap top == current k-th bound).
  std::vector<std::vector<Cand>> heaps(static_cast<std::size_t>(p));
  std::atomic<std::size_t> cursor{0};
  team.run([&](TeamCtx& ctx) {
    auto& heap = heaps[static_cast<std::size_t>(ctx.tid())];
    heap.reserve(k);
    std::vector<std::uint64_t> keys(block);
    const auto consider = [&](Cand c) {
      if (heap.size() < k) {
        heap.push_back(c);
        std::push_heap(heap.begin(), heap.end());
      } else if (c < heap.front()) {
        std::pop_heap(heap.begin(), heap.end());
        heap.back() = c;
        std::push_heap(heap.begin(), heap.end());
      }
    };
    for_range_dynamic(ctx, cursor, num_blocks, 4, [&](std::size_t b) {
      const std::size_t lo = b * block;
      const std::size_t hi = std::min(lo + block, slots);
      const std::size_t bn = hi - lo;
      // Key pass: weight bits for live cluster-crossing edges, all-ones
      // (loses every min) for the rest.
      for (std::size_t i = 0; i < bn; ++i) keys[i] = key_of(lo + i);
      // SIMD skim: repeatedly pull the block's argmin; once it cannot beat
      // the heap's bound the whole remainder of the block is out.
      for (;;) {
        const std::size_t a = u64_argmin(keys.data(), bn);
        const std::uint64_t bits = keys[a];
        if (bits == core::kEmptyKey) break;
        if (heap.size() == k) {
          const Cand& worst = heap.front();
          if (bits > worst.bits) break;
          if (bits == worst.bits && id_of(lo + a) > worst.id) {
            keys[a] = core::kEmptyKey;
            continue;
          }
        }
        consider(Cand{bits, id_of(lo + a)});
        keys[a] = core::kEmptyKey;
      }
    });
  });

  std::vector<Cand> all;
  for (const auto& h : heaps) all.insert(all.end(), h.begin(), h.end());
  std::sort(all.begin(), all.end());
  if (all.size() > k) all.resize(k);
  out.reserve(all.size());
  for (const Cand& c : all) {
    const graph::WEdge e = edge_of(c.id);
    out.push_back(ForestIndex::TopkEdge{c.id, e.u, e.v, e.w});
  }
  return out;
}

}  // namespace

std::vector<ForestIndex::TopkEdge> ForestIndex::top_k(
    ThreadTeam& team, const dynamic::EdgeStore& store, std::size_t k,
    std::optional<graph::Weight> lambda) const {
  if (k == 0) return {};
  std::vector<graph::VertexId> labels;
  if (lambda.has_value()) (void)cut(*lambda, &labels);
  const graph::VertexId* cl = labels.empty() ? nullptr : labels.data();
  return scan_top_k(
      team, static_cast<std::size_t>(store.size()), k,
      [&](std::size_t pos) {
        const auto id = static_cast<graph::EdgeId>(pos);
        if (!store.is_live(id)) return core::kEmptyKey;
        const graph::WEdge& e = store.edge(id);
        if (cl != nullptr && cl[e.u] == cl[e.v]) return core::kEmptyKey;
        return core::monotone_weight_bits(e.w);
      },
      [](std::size_t pos) { return static_cast<graph::EdgeId>(pos); },
      [&](graph::EdgeId id) { return store.edge(id); });
}

std::vector<ForestIndex::TopkEdge> ForestIndex::top_k(
    ThreadTeam& team, std::span<const graph::WEdge> live,
    std::span<const graph::EdgeId> live_ids, std::size_t k,
    std::optional<graph::Weight> lambda) const {
  if (k == 0) return {};
  std::vector<graph::VertexId> labels;
  if (lambda.has_value()) (void)cut(*lambda, &labels);
  const graph::VertexId* cl = labels.empty() ? nullptr : labels.data();
  // Positions enumerate the snapshot's live edges; live_ids is ascending, so
  // positional order and store-id order agree as the kernel requires.
  return scan_top_k(
      team, live.size(), k,
      [&](std::size_t pos) {
        const graph::WEdge& e = live[pos];
        if (cl != nullptr && cl[e.u] == cl[e.v]) return core::kEmptyKey;
        return core::monotone_weight_bits(e.w);
      },
      [&](std::size_t pos) { return live_ids[pos]; },
      [&](graph::EdgeId id) {
        const auto it = std::lower_bound(live_ids.begin(), live_ids.end(), id);
        return live[static_cast<std::size_t>(it - live_ids.begin())];
      });
}

}  // namespace smp::query
