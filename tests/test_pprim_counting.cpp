// Parallel counting sort and parallel reduce.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "pprim/counting_sort.hpp"
#include "pprim/parallel_for.hpp"
#include "pprim/reduce.hpp"
#include "pprim/rng.hpp"
#include "pprim/thread_team.hpp"

namespace {

using namespace smp;

struct Item {
  std::uint32_t key;
  std::uint32_t payload;
  friend bool operator==(const Item&, const Item&) = default;
};

class CountingSortTest : public ::testing::TestWithParam<int> {};

TEST_P(CountingSortTest, StableAndCorrect) {
  ThreadTeam team(GetParam());
  for (const std::size_t n : {0u, 100u, (1u << 14) - 3, 100000u}) {
    const std::size_t num_keys = 97;
    Rng rng(n + 1);
    std::vector<Item> in(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      in[i] = {static_cast<std::uint32_t>(rng.next_below(num_keys)), i};
    }
    std::vector<Item> out(n);
    std::vector<std::uint64_t> offsets;
    counting_sort_by_key(team, std::span<const Item>(in), std::span<Item>(out),
                         num_keys, [](const Item& x) { return x.key; }, offsets);

    // Reference: stable_sort by key.
    std::vector<Item> expect = in;
    std::stable_sort(expect.begin(), expect.end(),
                     [](const Item& a, const Item& b) { return a.key < b.key; });
    ASSERT_EQ(out, expect) << "n=" << n << " p=" << GetParam();

    // Offsets form a valid CSR: out[offsets[k]..offsets[k+1]) all have key k.
    ASSERT_EQ(offsets.size(), num_keys + 1);
    EXPECT_EQ(offsets.front() , 0u);
    EXPECT_EQ(offsets.back(), n);
    for (std::size_t k = 0; k < num_keys; ++k) {
      ASSERT_LE(offsets[k], offsets[k + 1]);
      for (std::uint64_t i = offsets[k]; i < offsets[k + 1]; ++i) {
        ASSERT_EQ(out[i].key, k);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, CountingSortTest, ::testing::Values(1, 2, 4, 8));

TEST(CountingSort, SingleKeyDegenerate) {
  ThreadTeam team(4);
  std::vector<Item> in(50000);
  for (std::uint32_t i = 0; i < in.size(); ++i) in[i] = {0, i};
  std::vector<Item> out(in.size());
  std::vector<std::uint64_t> offsets;
  counting_sort_by_key(team, std::span<const Item>(in), std::span<Item>(out), 1,
                       [](const Item& x) { return x.key; }, offsets);
  EXPECT_EQ(out, in) << "stability preserves input order within one key";
  EXPECT_EQ(offsets, (std::vector<std::uint64_t>{0, in.size()}));
}

TEST_P(CountingSortTest, BucketScatterFiltersAndExpandsStably) {
  // emit drops every item whose payload is divisible by 3 and emits the rest
  // twice, under its own key and under the next one: the CSR must equal a
  // stable sort of that sequential output, rows in block (= input) order.
  ThreadTeam team(GetParam());
  BucketScatterScratch scratch;
  std::vector<std::uint64_t> offsets;
  std::vector<Item> out;
  for (const std::size_t n : {0u, 1u, 1000u, 100000u}) {
    const std::size_t num_keys = 61;
    Rng rng(n + 7);
    std::vector<Item> in(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      in[i] = {static_cast<std::uint32_t>(rng.next_below(num_keys - 1)), i};
    }
    team.run([&](TeamCtx& ctx) {
      bucket_scatter_in_region(ctx, num_keys, [&](auto&& put) {
        for_range(ctx, n, [&](std::size_t i) {
          if (in[i].payload % 3 == 0) return;
          put(in[i].key, in[i]);
          put(in[i].key + 1, Item{in[i].key + 1, in[i].payload});
        });
      }, offsets, out, scratch);
    });

    std::vector<Item> expect;
    for (const Item& x : in) {
      if (x.payload % 3 == 0) continue;
      expect.push_back(x);
      expect.push_back({x.key + 1, x.payload});
    }
    std::stable_sort(expect.begin(), expect.end(),
                     [](const Item& a, const Item& b) { return a.key < b.key; });
    ASSERT_EQ(out, expect) << "n=" << n << " p=" << GetParam();
    ASSERT_EQ(offsets.size(), num_keys + 1);
    EXPECT_EQ(offsets.back(), expect.size());
    for (std::size_t k = 0; k < num_keys; ++k) {
      for (std::uint64_t i = offsets[k]; i < offsets[k + 1]; ++i) {
        ASSERT_EQ(out[i].key, k) << "n=" << n << " p=" << GetParam();
      }
    }
  }
}

TEST_P(CountingSortTest, CsrBlockVisitsEveryItemOnceWithItsRow) {
  // Empty rows (leading, trailing, interior) and one row heavier than a
  // whole thread's block.
  const std::vector<std::uint64_t> offsets = {0, 0, 3, 3, 3, 5000, 5001, 5007, 5007};
  ThreadTeam team(GetParam());
  std::vector<std::uint32_t> row_of(offsets.back(), 0);
  std::vector<std::uint32_t> visits(offsets.back(), 0);
  team.run([&](TeamCtx& ctx) {
    for_csr_block(ctx, offsets, [&](std::size_t row, std::size_t i) {
      row_of[i] = static_cast<std::uint32_t>(row);
      ++visits[i];
    });
  });
  for (std::size_t row = 0; row + 1 < offsets.size(); ++row) {
    for (std::uint64_t i = offsets[row]; i < offsets[row + 1]; ++i) {
      ASSERT_EQ(visits[i], 1u) << "item " << i << " p=" << GetParam();
      ASSERT_EQ(row_of[i], row) << "item " << i << " p=" << GetParam();
    }
  }
}

TEST(ParallelReduce, SumAndMaxMatchSerial) {
  for (const int threads : {1, 3, 8}) {
    ThreadTeam team(threads);
    const std::size_t n = 100000;
    std::vector<std::uint64_t> data(n);
    Rng rng(5);
    for (auto& x : data) x = rng.next_below(1000000);

    const auto sum = parallel_sum<std::uint64_t>(team, n, [&](std::size_t i) {
      return data[i];
    });
    EXPECT_EQ(sum, std::accumulate(data.begin(), data.end(), std::uint64_t{0}));

    const auto mx = parallel_reduce<std::uint64_t>(
        team, n, 0, [&](std::size_t i) { return data[i]; },
        [](std::uint64_t a, std::uint64_t b) { return std::max(a, b); });
    EXPECT_EQ(mx, *std::max_element(data.begin(), data.end()));
  }
}

TEST(ParallelReduce, EmptyRangeGivesIdentity) {
  ThreadTeam team(4);
  EXPECT_EQ(parallel_sum<int>(team, 0, [](std::size_t) { return 1; }), 0);
}

}  // namespace
