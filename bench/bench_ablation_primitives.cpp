// Ablation: thread scaling of the pprim substrate itself — prefix sums,
// sample sort, random permutation, counting sort.  These bound
// what the algorithms built on top can achieve.
#include <cstdint>
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "pprim/counting_sort.hpp"
#include "pprim/permutation.hpp"
#include "pprim/prefix_sum.hpp"
#include "pprim/rng.hpp"
#include "pprim/sample_sort.hpp"
#include "pprim/thread_team.hpp"

using namespace smp;

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  const auto n = args.size(1u << 22, 1u << 25);

  std::vector<std::uint64_t> base(n);
  {
    Rng rng(args.seed);
    for (auto& x : base) x = rng.next();
  }

  std::printf("primitive scaling, n = %zu\n", n);
  std::printf("%-18s", "p");
  for (int p = 1; p <= args.max_threads; p *= 2) std::printf(" %11d", p);
  std::printf("\n");

  const auto row = [&](const char* name, auto&& fn) {
    std::printf("%-18s", name);
    for (int p = 1; p <= args.max_threads; p *= 2) {
      ThreadTeam team(p);
      const double s = bench::time_best_of(args.reps, [&] { fn(team); });
      std::printf(" %10.3fs", s);
    }
    std::printf("\n");
  };

  row("prefix-sum", [&](ThreadTeam& team) {
    auto data = base;
    (void)exclusive_scan(team, std::span<std::uint64_t>(data));
  });
  row("sample-sort", [&](ThreadTeam& team) {
    auto data = base;
    sample_sort(team, data, std::less<>{});
  });
  row("counting-sort", [&](ThreadTeam& team) {
    std::vector<std::uint64_t> out(base.size());
    std::vector<std::uint64_t> offsets;
    counting_sort_by_key(team, std::span<const std::uint64_t>(base),
                         std::span<std::uint64_t>(out), 1 << 16,
                         [](std::uint64_t x) { return x >> 48; }, offsets);
  });
  row("random-perm", [&](ThreadTeam& team) {
    (void)random_permutation(team, static_cast<std::uint32_t>(n / 8), args.seed);
  });
  return 0;
}
