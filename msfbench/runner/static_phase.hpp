#pragma once
// Static phase: times the four solves of one graph (champion and MST-BC at
// p threads, Kruskal and Prim at p = 1) and checks every forest against a
// sequential Kruskal reference.

#include <cstdint>
#include <string>
#include <vector>

#include "core/msf.hpp"
#include "graph/edge_list.hpp"
#include "graph/types.hpp"
#include "trace.hpp"
#include "util.hpp"

namespace msfbench {

/// Operations attempted and failed by a phase; a failed correctness check
/// fails the operation it checked.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few mismatch descriptions

  void fail(std::string why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }
};

/// The reference forest: sequential Kruskal, ids ascending.
struct Reference {
  std::vector<smp::graph::EdgeId> ids;
  smp::graph::Weight weight = 0;  ///< summed over `ids` in ascending order
  std::size_t trees = 0;
};

[[nodiscard]] Reference reference_forest(const smp::graph::EdgeList& g);

struct StaticOptions {
  int threads = 1;        ///< p for champion and MST-BC
  bool traced = false;    ///< --trace 1: step times, spans and probes
  bool corrupt_forest = false;  ///< test hook: the gate must trip
};

/// The step times and phase counters of one instrumented solve.
struct Instrumented {
  smp::core::StepTimes steps;
  smp::core::PhaseStats phases;
};

/// The four solves timed in one or more windows: the runner opens one
/// before and one after the serve phase, so the reps sample the host over
/// the whole run rather than one stretch of it.
class StaticPhase {
 public:
  /// Runs the untimed warm-up round, then resets the peak-RSS mark.
  StaticPhase(const smp::graph::EdgeList& g, const Reference& ref,
              const StaticOptions& opts, Tracer& tracer, Tally& tally);

  /// Timed rounds until `seconds` have passed (at least three rounds).
  void run_window(double seconds);

  /// End-to-end values go to `values` under their metric names, and when
  /// traced the per-layer ones too, after the per-layer probes run; rep
  /// times, sample counts and the speedup go to `detail`.
  void finish(JsonObject& values, JsonObject& detail);

  static constexpr std::size_t kNumSolves = 4;

 private:
  const smp::graph::EdgeList& g_;
  const Reference& ref_;
  StaticOptions opts_;
  Tracer& tracer_;
  Tally& tally_;
  int repeat_[kNumSolves] = {};
  int round_ = 0;
  double window_s_ = 0;
  bool rss_reset_ = false;
  std::vector<double> times_[kNumSolves];
  std::vector<double> plain_champion_, traced_champion_;
  std::vector<Instrumented> insts_[kNumSolves];
};

}  // namespace msfbench
