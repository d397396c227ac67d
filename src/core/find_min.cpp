#include "core/find_min.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "graph/compressed_csr.hpp"
#include "pprim/counting_sort.hpp"
#include "pprim/partition.hpp"

namespace smp::core {

std::string_view to_string(FindMinMode m) {
  switch (m) {
    case FindMinMode::kAuto:
      return "auto";
    case FindMinMode::kScan:
      return "scan";
    case FindMinMode::kSimd:
      return "simd";
  }
  return "?";
}

namespace {

// Rank sort digits: 13 bits, so 8 Ki buckets.  A thread's u32 count slab is
// 32 KiB and stays in cache through the histogram and the scatter, and the
// scatter feeds 8 Ki write streams.  16-bit digits save one pass over the
// keys but scatter into 64 Ki targets; on the static-random graph
// (m = 10^6) they measured 10-25% slower at p = 1, 2 and 4.
// Weight bits vary in most digit positions, so a full 64-bit key usually
// costs five passes; digits constant across all keys are skipped.
constexpr int kRankDigitBits = 13;
constexpr std::size_t kRankBuckets = std::size_t{1} << kRankDigitBits;
constexpr std::uint64_t kRankDigitMask = kRankBuckets - 1;
// Count slabs sit this far apart (one cache line of u32 padding), so two
// threads never share a line of counters.
constexpr std::size_t kRankSlabStride = kRankBuckets + 16;
// Below this size the parallel machinery costs more than one std::sort.
constexpr std::size_t kRankSeqCutoff = std::size_t{1} << 15;
// Items ahead at which the scatters below prefetch their write target.
// Their writes land on effectively random lines, and without the prefetch
// each one stalls on its own miss (measured 2.5× slower on a 4-vCPU VM).
constexpr std::size_t kScatterAhead = 16;

// One scatter pass over a thread's block [r.begin, r.end) behind its
// prefixed cursors.  The first pass reads the identity permutation without
// materializing it; the last pass writes only the order (its keys are never
// read again).
template <bool kFirst, bool kLast>
void rank_scatter(IndexRange r, int shift, const std::uint64_t* ksrc,
                  std::uint64_t* kdst, const std::uint32_t* isrc,
                  std::uint32_t* idst, std::uint32_t* cursor) {
  for (std::size_t i = r.begin; i < r.end; ++i) {
    const std::size_t ahead = std::min(i + kScatterAhead, r.end - 1);
    const std::uint32_t next = cursor[(ksrc[ahead] >> shift) & kRankDigitMask];
    if constexpr (!kLast) __builtin_prefetch(kdst + next, 1);
    __builtin_prefetch(idst + next, 1);
    const std::uint64_t k = ksrc[i];
    const std::uint32_t pos = cursor[(k >> shift) & kRankDigitMask]++;
    if constexpr (!kLast) kdst[pos] = k;
    idst[pos] = kFirst ? static_cast<std::uint32_t>(i) : isrc[i];
  }
}

// Shared rank-order engine: the public overloads differ only in where
// weight i comes from (EdgeList AoS gather vs the compressed graph's flat
// weight array).
template <class WeightAt>
std::vector<std::uint32_t> rank_order_impl(ThreadTeam& team, std::size_t m,
                                           WeightAt w_at) {
  std::vector<std::uint32_t> order(m);
  if (m < kRankSeqCutoff) {
    std::vector<std::uint64_t> keys(m);
    for (std::size_t i = 0; i < m; ++i) {
      keys[i] = monotone_weight_bits(w_at(i));
      order[i] = static_cast<std::uint32_t>(i);
    }
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      return keys[a] != keys[b] ? keys[a] < keys[b] : a < b;
    });
    return order;
  }

  auto keys = std::make_unique_for_overwrite<std::uint64_t[]>(m);
  auto keys_aux = std::make_unique_for_overwrite<std::uint64_t[]>(m);
  auto idx_aux = std::make_unique_for_overwrite<std::uint32_t[]>(m);
  const auto P = static_cast<std::size_t>(team.size());
  std::vector<std::uint32_t> counts(P * kRankSlabStride);
  std::vector<Padded<std::uint64_t>> or_part(P), and_part(P);

  team.run([&](TeamCtx& ctx) {
    const auto t = static_cast<std::size_t>(ctx.tid());
    const IndexRange r = block_range(m, ctx.tid(), ctx.nthreads());
    std::uint64_t acc_or = 0;
    std::uint64_t acc_and = ~std::uint64_t{0};
    for (std::size_t i = r.begin; i < r.end; ++i) {
      const std::uint64_t k = monotone_weight_bits(w_at(i));
      keys[i] = k;
      acc_or |= k;
      acc_and &= k;
    }
    or_part[t].value = acc_or;
    and_part[t].value = acc_and;
    ctx.barrier();
    // A bit that differs between any two keys is set in OR but not in AND;
    // a digit with no such bit is the same in every key, and a stable pass
    // over it would be the identity.  Every thread reduces the p partials
    // itself, so all of them plan the same passes.
    acc_or = 0;
    acc_and = ~std::uint64_t{0};
    for (std::size_t t2 = 0; t2 < P; ++t2) {
      acc_or |= or_part[t2].value;
      acc_and &= and_part[t2].value;
    }
    const std::uint64_t varying = acc_or ^ acc_and;
    int shifts[(64 + kRankDigitBits - 1) / kRankDigitBits];
    int passes = 0;
    for (int shift = 0; shift < 64; shift += kRankDigitBits) {
      if (((varying >> shift) & kRankDigitMask) != 0) shifts[passes++] = shift;
    }
    if (passes == 0) {  // every key equal: input order is rank order
      for (std::size_t i = r.begin; i < r.end; ++i) {
        order[i] = static_cast<std::uint32_t>(i);
      }
      return;
    }

    std::uint64_t* ksrc = keys.get();
    std::uint64_t* kdst = keys_aux.get();
    const std::uint32_t* isrc = nullptr;
    std::uint32_t* cursor = counts.data() + t * kRankSlabStride;
    for (int j = 0; j < passes; ++j) {
      const int shift = shifts[j];
      // Ping-pong the order between idx_aux and `order`, phased so that
      // the last pass lands in `order`.
      std::uint32_t* idst =
          (passes - 1 - j) % 2 == 0 ? order.data() : idx_aux.get();
      std::fill(cursor, cursor + kRankBuckets, 0u);
      for (std::size_t i = r.begin; i < r.end; ++i) {
        ++cursor[(ksrc[i] >> shift) & kRankDigitMask];
      }
      ctx.barrier();
      // (bucket, thread)-major exclusive scan on tid 0: 8 Ki·p additions,
      // dwarfed by the m-element scatter it steers.  Each thread scatters
      // its contiguous block in order behind it, so the pass is stable.
      if (ctx.tid() == 0) {
        std::uint32_t sum = 0;
        for (std::size_t b = 0; b < kRankBuckets; ++b) {
          for (std::size_t t2 = 0; t2 < P; ++t2) {
            std::uint32_t& c = counts[t2 * kRankSlabStride + b];
            const std::uint32_t here = c;
            c = sum;
            sum += here;
          }
        }
      }
      ctx.barrier();
      const bool first = j == 0;
      const bool last = j == passes - 1;
      if (first && last) {
        rank_scatter<true, true>(r, shift, ksrc, kdst, isrc, idst, cursor);
      } else if (first) {
        rank_scatter<true, false>(r, shift, ksrc, kdst, isrc, idst, cursor);
      } else if (last) {
        rank_scatter<false, true>(r, shift, ksrc, kdst, isrc, idst, cursor);
      } else {
        rank_scatter<false, false>(r, shift, ksrc, kdst, isrc, idst, cursor);
      }
      ctx.barrier();
      std::swap(ksrc, kdst);
      isrc = idst;
    }
  });
  return order;
}

// inverse[perm[i]] = i over i ∈ r: a scatter to random slots, prefetched
// like the sort's.
void invert_range(std::span<const std::uint32_t> perm, IndexRange r,
                  std::uint32_t* inverse) {
  for (std::size_t i = r.begin; i < r.end; ++i) {
    __builtin_prefetch(inverse + perm[std::min(i + kScatterAhead, r.end - 1)], 1);
    inverse[perm[i]] = static_cast<std::uint32_t>(i);
  }
}

std::vector<std::uint32_t> invert_order(ThreadTeam& team,
                                        const std::vector<std::uint32_t>& order) {
  const std::size_t m = order.size();
  std::vector<std::uint32_t> rank(m);
  if (m < kRankSeqCutoff) {
    invert_range(order, {0, m}, rank.data());
  } else {
    team.run([&](TeamCtx& ctx) {
      invert_range(order, block_range(m, ctx.tid(), ctx.nthreads()), rank.data());
    });
  }
  return rank;
}

// Uninitialized packed-key buffer in the shape bucket_scatter_in_region
// writes through: the scatter first-touches the keys, in parallel.
struct KeyBuffer {
  std::unique_ptr<std::uint64_t[]>& keys;
  void resize(std::size_t n) {
    keys = std::make_unique_for_overwrite<std::uint64_t[]>(n);
  }
  std::uint64_t& operator[](std::size_t i) const { return keys[i]; }
};

[[nodiscard]] std::uint64_t pack_ends(graph::VertexId u, graph::VertexId v) {
  return (std::uint64_t{u} << 32) | v;
}

// by_rank[k] = ends_of(rank_to_edge[k]): input edge e's endpoints as
// pack_ends(u, v), laid out in rank order so the scatter's two passes read
// them sequentially.
template <class EndsOf>
std::unique_ptr<std::uint64_t[]> gather_in_rank_order(
    ThreadTeam& team, std::span<const std::uint32_t> rank_to_edge,
    EndsOf ends_of) {
  const std::size_t m = rank_to_edge.size();
  auto by_rank = std::make_unique_for_overwrite<std::uint64_t[]>(m);
  team.run([&](TeamCtx& ctx) {
    const IndexRange r = block_range(m, ctx.tid(), ctx.nthreads());
    for (std::size_t k = r.begin; k < r.end; ++k) {
      by_rank[k] = ends_of(rank_to_edge[k]);
    }
  });
  return by_rank;
}

// The rank-order pack behind both storage formats.  Thread t's block of
// ranks is contiguous and the scatter keeps block order within a row, so
// row x lists x's arcs in ascending rank.
void pack_in_rank_order(ThreadTeam& team, graph::VertexId n, std::size_t m,
                        const std::uint64_t* by_rank,
                        std::vector<graph::EdgeId>& offsets,
                        std::unique_ptr<std::uint64_t[]>& keys) {
  KeyBuffer out{keys};
  BucketScatterScratch scratch;
  team.run([&](TeamCtx& ctx) {
    const IndexRange r = block_range(m, ctx.tid(), ctx.nthreads());
    bucket_scatter_in_region(ctx, n, [&](auto&& put) {
      for (std::size_t k = r.begin; k < r.end; ++k) {
        const std::uint64_t next =
            by_rank[std::min(k + kScatterAhead, r.end - 1)];
        put.prefetch(static_cast<graph::VertexId>(next >> 32));
        put.prefetch(static_cast<graph::VertexId>(next));
        const std::uint64_t uv = by_rank[k];
        const auto u = static_cast<graph::VertexId>(uv >> 32);
        const auto v = static_cast<graph::VertexId>(uv);
        const auto rk = static_cast<std::uint32_t>(k);
        put(u, pack_key(rk, v));
        put(v, pack_key(rk, u));
      }
    }, offsets, out, scratch);
  });
}

}  // namespace

std::vector<std::uint32_t> build_rank_order(ThreadTeam& team,
                                            const graph::EdgeList& g) {
  return rank_order_impl(team, g.edges.size(),
                         [&](std::size_t i) { return g.edges[i].w; });
}

std::vector<std::uint32_t> build_rank_order(
    ThreadTeam& team, std::span<const graph::Weight> weights) {
  return rank_order_impl(team, weights.size(),
                         [&](std::size_t i) { return weights[i]; });
}

std::vector<std::uint32_t> build_weight_ranks(ThreadTeam& team,
                                              const graph::EdgeList& g) {
  return invert_order(team, build_rank_order(team, g));
}

std::vector<std::uint32_t> build_weight_ranks(
    ThreadTeam& team, std::span<const graph::Weight> weights) {
  return invert_order(team, build_rank_order(team, weights));
}

void build_packed_arcs(ThreadTeam& team, const graph::EdgeList& g,
                       graph::VertexId n,
                       std::span<const std::uint32_t> rank_to_edge,
                       std::vector<graph::EdgeId>& offsets,
                       std::unique_ptr<std::uint64_t[]>& keys) {
  const auto by_rank =
      gather_in_rank_order(team, rank_to_edge, [&](std::uint32_t e) {
        return pack_ends(g.edges[e].u, g.edges[e].v);
      });
  pack_in_rank_order(team, n, rank_to_edge.size(), by_rank.get(), offsets,
                     keys);
}

void build_packed_arcs(const graph::EdgeList& g, graph::VertexId n,
                       std::span<const std::uint32_t> rank,
                       std::vector<graph::EdgeId>& offsets,
                       std::unique_ptr<std::uint64_t[]>& keys) {
  std::vector<std::uint32_t> rank_to_edge(rank.size());
  invert_range(rank, {0, rank.size()}, rank_to_edge.data());
  ThreadTeam team(1);
  build_packed_arcs(team, g, n, rank_to_edge, offsets, keys);
}

void build_packed_arcs(ThreadTeam& team, const graph::CompressedCsr& g,
                       std::span<const std::uint32_t> rank_to_edge,
                       std::vector<graph::EdgeId>& offsets,
                       std::unique_ptr<std::uint64_t[]>& keys) {
  using graph::VertexId;
  const VertexId n = g.num_vertices();
  // pack_ends(u, v) per implicit edge id, decoded row by row on the team,
  // then gathered into rank order and freed before the scatter allocates
  // the keys.
  std::unique_ptr<std::uint64_t[]> by_rank;
  {
    auto ends = std::make_unique_for_overwrite<std::uint64_t[]>(
        static_cast<std::size_t>(g.num_edges()));
    std::atomic<std::size_t> cursor{0};
    team.run([&](TeamCtx& ctx) {
      std::vector<VertexId> row;
      for_range_dynamic(ctx, cursor, n, 256, [&](std::size_t u) {
        const auto uu = static_cast<VertexId>(u);
        row.resize(g.out_degree(uu));
        g.decode_row(uu, row.data());
        std::uint64_t* out = ends.get() + g.edge_offset(uu);
        for (std::size_t k = 0; k < row.size(); ++k) {
          out[k] = pack_ends(uu, row[k]);
        }
      });
    });
    by_rank = gather_in_rank_order(team, rank_to_edge,
                                   [&](std::uint32_t e) { return ends[e]; });
  }
  pack_in_rank_order(team, n, rank_to_edge.size(), by_rank.get(), offsets,
                     keys);
}

}  // namespace smp::core
