#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "pprim/parallel_for.hpp"
#include "pprim/partition.hpp"
#include "pprim/prefix_sum.hpp"
#include "pprim/thread_team.hpp"

namespace smp {

/// Team-shared scratch for bucket_scatter_in_region (grow-only).  The count
/// matrix is left uninitialized on growth: the scatter's one parallel zero
/// pass is its first touch.
struct BucketScatterScratch {
  std::unique_ptr<std::uint64_t[]> counts;  // (num_keys × p) key-major histogram
  std::size_t counts_capacity = 0;
  ScanScratch<std::uint64_t> scan;

  void ensure_counts(std::size_t need) {
    if (need <= counts_capacity) return;
    counts = std::make_unique_for_overwrite<std::uint64_t[]>(need);
    counts_capacity = need;
  }
};

/// In-region histogram → key-major prefix → scatter: groups the items that
/// `emit` produces by key into `out`, a CSR whose row k is
/// out[key_offsets[k] .. key_offsets[k + 1]).  `emit(put)` walks the calling
/// thread's static block and calls put(key, item) for each item it produces
/// (a filter, a relabel or a 1:2 expansion all fit); it must make the same
/// calls on both of its passes.  put.prefetch(key) hints that the calling
/// thread will still put an item under `key` (it must): a no-op while
/// counting, a write prefetch of the key's next slot while scattering —
/// with random keys, issuing it a few items ahead hides most of each
/// scattered write's miss.  The exclusive scan of the (num_keys × p) counts
/// yields the row offsets and every thread's cursors at once, so each row
/// lists its items in block order — stable, like counting_sort_by_key.
/// `out` is a std::vector<T> or anything with resize(total) and operator[]
/// (find_min.cpp scatters into an uninitialized unique_ptr<T[]> this way).
/// tid 0 resizes `out`; when that leaves the elements uninitialized, the
/// scatter itself first-touches the new pages, in parallel.  All team
/// threads call it with identical arguments; the final barrier publishes
/// `out` and `key_offsets`.
template <class Out, class Emit>
void bucket_scatter_in_region(TeamCtx& ctx, std::size_t num_keys, Emit&& emit,
                              std::vector<std::uint64_t>& key_offsets,
                              Out& out, BucketScatterScratch& s) {
  using T = std::remove_cvref_t<decltype(out[0])>;
  const auto P = static_cast<std::size_t>(ctx.nthreads());
  const auto t = static_cast<std::size_t>(ctx.tid());
  const std::size_t num_counts = num_keys * P;
  if (t == 0) {
    s.ensure_counts(num_counts);
    key_offsets.resize(num_keys + 1);
    s.scan.ensure(ctx.nthreads());
  }
  ctx.barrier();
  std::uint64_t* const counts = s.counts.get();
  for_range(ctx, num_counts, [&](std::size_t i) { counts[i] = 0; });
  ctx.barrier();
  struct Count {
    std::uint64_t* counts;
    std::size_t P, t;
    void operator()(std::size_t key, const T&) const { ++counts[key * P + t]; }
    void prefetch(std::size_t) const {}
  };
  emit(Count{counts, P, t});
  ctx.barrier();
  const std::uint64_t total = prefix_sum_in_region(
      ctx, std::span<std::uint64_t>(counts, num_counts), s.scan);
  for_range(ctx, num_keys, [&](std::size_t k) { key_offsets[k] = counts[k * P]; });
  if (t == 0) {
    key_offsets[num_keys] = total;
    out.resize(total);
  }
  ctx.barrier();
  struct Scatter {
    Out& out;
    std::uint64_t* counts;
    std::size_t P, t;
    void operator()(std::size_t key, const T& item) const {
      out[counts[key * P + t]++] = item;
    }
    void prefetch(std::size_t key) const {
      __builtin_prefetch(&out[counts[key * P + t]], 1);
    }
  };
  emit(Scatter{out, counts, P, t});
  ctx.barrier();
}

/// Parallel counting sort by a small integer key: stable scatter of `items`
/// into `out` ordered by key(item) in [0, num_keys).
///
/// This is the workhorse behind parallel CSR construction: keys are vertex
/// ids, items are arcs.  Two passes: per-thread key histograms, a serial
/// scan over the (num_keys × p) count matrix in key-major order (so the
/// output is stable: key first, then thread/block order = input order), and
/// a scatter.
///
/// Also fills `key_offsets` (size num_keys + 1) with the start of each key's
/// run in `out` — exactly a CSR offsets array.
template <class T, class KeyFn>
void counting_sort_by_key(ThreadTeam& team, std::span<const T> items,
                          std::span<T> out, std::size_t num_keys, KeyFn&& key,
                          std::vector<std::uint64_t>& key_offsets) {
  const std::size_t n = items.size();
  const auto p = static_cast<std::size_t>(team.size());
  key_offsets.assign(num_keys + 1, 0);

  if (team.size() == 1 || n < 1u << 14) {
    for (std::size_t i = 0; i < n; ++i) ++key_offsets[key(items[i]) + 1];
    for (std::size_t k = 1; k <= num_keys; ++k) key_offsets[k] += key_offsets[k - 1];
    std::vector<std::uint64_t> cursor(key_offsets.begin(), key_offsets.end() - 1);
    for (std::size_t i = 0; i < n; ++i) out[cursor[key(items[i])]++] = items[i];
    return;
  }

  // counts[k * p + t]: occurrences of key k in thread t's block.
  std::vector<std::uint64_t> counts(num_keys * p, 0);
  team.run([&](TeamCtx& ctx) {
    const auto t = static_cast<std::size_t>(ctx.tid());
    const IndexRange r = block_range(n, ctx.tid(), ctx.nthreads());
    for (std::size_t i = r.begin; i < r.end; ++i) {
      ++counts[key(items[i]) * p + t];
    }
    ctx.barrier();
    if (ctx.tid() == 0) {
      std::uint64_t running = 0;
      for (std::size_t k = 0; k < num_keys; ++k) {
        key_offsets[k] = running;
        for (std::size_t t2 = 0; t2 < p; ++t2) {
          const std::uint64_t c = counts[k * p + t2];
          counts[k * p + t2] = running;
          running += c;
        }
      }
      key_offsets[num_keys] = running;
    }
    ctx.barrier();
    // Scatter: each thread uses its own cursors in counts[.. * p + t].
    for (std::size_t i = r.begin; i < r.end; ++i) {
      const std::size_t k = key(items[i]);
      out[counts[k * p + t]++] = items[i];
    }
  });
}

}  // namespace smp
