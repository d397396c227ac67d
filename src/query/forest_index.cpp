#include "query/forest_index.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "core/find_min.hpp"
#include "pprim/parallel_for.hpp"
#include "pprim/simd.hpp"

namespace smp::query {

namespace {

/// top_k candidate under the full edge order: monotone weight bits, ties by
/// store id.
struct Cand {
  std::uint64_t bits;
  graph::EdgeId id;
  friend bool operator<(const Cand& a, const Cand& b) {
    return a.bits != b.bits ? a.bits < b.bits : a.id < b.id;
  }
};

/// The forest edges of `store`, in the order of `forest_ids`.
std::vector<graph::WEdge> gather_forest(ThreadTeam& team,
                                        const dynamic::EdgeStore& store,
                                        std::span<const graph::EdgeId> ids) {
  std::vector<graph::WEdge> fedges(ids.size());
  parallel_for(team, ids.size(),
               [&](std::size_t i) { fedges[i] = store.edge(ids[i]); });
  return fedges;
}

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
                         std::uint64_t version)
    : ForestIndex(team, store.num_vertices(),
                  gather_forest(team, store, forest_ids),
                  std::vector<graph::EdgeId>(forest_ids.begin(),
                                             forest_ids.end()),
                  version) {}

ForestIndex::ForestIndex(ThreadTeam& team, graph::VertexId num_vertices,
                         std::vector<graph::WEdge> fedges,
                         std::vector<graph::EdgeId> fids,
                         std::uint64_t version)
    : ForestIndex(
          team, num_vertices,
          std::make_shared<const std::vector<graph::WEdge>>(std::move(fedges)),
          std::make_shared<const std::vector<graph::EdgeId>>(std::move(fids)),
          version) {}

ForestIndex::ForestIndex(
    ThreadTeam& team, graph::VertexId num_vertices,
    std::shared_ptr<const std::vector<graph::WEdge>> fedges,
    std::shared_ptr<const std::vector<graph::EdgeId>> fids,
    std::uint64_t version)
    : fedges_(std::move(fedges)), fids_(std::move(fids)) {
  const auto t0 = std::chrono::steady_clock::now();
  // Positions ascend by store id, so the arrangement's positional
  // tie-break is the repo-wide ⟨weight, store-id⟩ WeightOrder.
  arr_ = core::ForestArrangement(team, num_vertices, *fedges_);
  stats_.version = version;
  stats_.num_vertices = num_vertices;
  stats_.num_forest_edges = fedges_->size();
  stats_.num_components = arr_.num_components();
  stats_.bytes = arr_.bytes();
  built_at_ = std::chrono::steady_clock::now();
  stats_.build_seconds =
      std::chrono::duration<double>(built_at_ - t0).count();
}

ForestIndex::PathMax ForestIndex::path_max(graph::VertexId u,
                                           graph::VertexId v) const {
  PathMax r;
  if (!arr_.connected(u, v)) return r;
  r.connected = true;
  const std::uint32_t pos = arr_.path_max(u, v);
  if (pos == core::ForestArrangement::kNone) return r;  // u == v
  const graph::WEdge& e = (*fedges_)[pos];
  r.edge_id = (*fids_)[pos];
  r.u = e.u;
  r.v = e.v;
  r.weight = e.w;
  return r;
}

ForestIndex::Cut ForestIndex::cut(graph::Weight threshold,
                                  std::vector<graph::VertexId>* labels) const {
  Cut c;
  std::vector<graph::VertexId> l =
      arr_.cut(*fedges_, threshold, &c.num_clusters);
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
