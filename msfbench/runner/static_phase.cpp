#include "static_phase.hpp"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>

#include "core/find_min.hpp"
#include "core/msf.hpp"
#include "pprim/machine.hpp"
#include "pprim/parallel_for.hpp"
#include "pprim/thread_team.hpp"

namespace msfbench {

using smp::core::Algorithm;
using smp::core::MsfOptions;
using smp::core::PhaseStats;
using smp::core::StepTimes;
using smp::graph::EdgeId;
using smp::graph::EdgeList;
using smp::graph::MsfResult;

namespace {

smp::graph::Weight canonical_weight(const EdgeList& g,
                                    const std::vector<EdgeId>& sorted_ids) {
  smp::graph::Weight w = 0;
  for (const EdgeId id : sorted_ids) w += g.edges[id].w;
  return w;
}

/// The correctness gate for one solve: the same edge ids as the reference,
/// every reported forest edge bit-identical to its input edge, the same tree
/// count, and a total weight that matches the reference sum (solvers add
/// weights in different orders, so the sum may differ in the last bits).
std::string check_forest(const EdgeList& g, const Reference& ref,
                         const MsfResult& r) {
  if (r.edge_ids.size() != ref.ids.size() || r.edges.size() != r.edge_ids.size()) {
    return "forest has " + std::to_string(r.edge_ids.size()) +
           " edges, reference " + std::to_string(ref.ids.size());
  }
  for (std::size_t i = 0; i < r.edges.size(); ++i) {
    const auto& in = g.edges[r.edge_ids[i]];
    const auto& out = r.edges[i];
    const bool same_ends = (in.u == out.u && in.v == out.v) ||
                           (in.u == out.v && in.v == out.u);
    if (!same_ends || std::bit_cast<std::uint64_t>(in.w) !=
                          std::bit_cast<std::uint64_t>(out.w)) {
      return "forest edge " + std::to_string(r.edge_ids[i]) +
             " differs from the input edge";
    }
  }
  std::vector<EdgeId> ids = r.edge_ids;
  std::sort(ids.begin(), ids.end());
  if (ids != ref.ids) return "forest edge ids differ from Kruskal's";
  if (r.num_trees != ref.trees) return "tree count differs from Kruskal's";
  if (std::abs(r.total_weight - ref.weight) >
      1e-12 * std::max(1.0, std::abs(ref.weight))) {
    return "total weight differs from Kruskal's";
  }
  return {};
}

struct Solve {
  const char* metric;  // span / per-layer name
  Algorithm alg;
  bool parallel;       // p threads (else 1)
};

constexpr Solve kSolves[] = {
    {"core.champion", Algorithm::kChampion, true},
    {"core.mst_bc", Algorithm::kMstBC, true},
    {"seq.kruskal", Algorithm::kSeqKruskal, false},
    {"seq.prim", Algorithm::kSeqPrim, false},
};
constexpr std::size_t kNumSolves = StaticPhase::kNumSolves;
static_assert(std::size(kSolves) == kNumSolves);

/// The reported time of a solve: the lower decile of its reps.  Another
/// tenant's load on the shared host only ever adds time, and it comes in
/// stretches that slow every rep inside them (a p-thread solve waits for
/// its slowest CPU at each barrier); the fastest tenth of a window's reps
/// is what the program does when the host lets it, and moves with the
/// program, not with how much of the window was contended.
double rep_time(const std::vector<double>& reps) { return quantile(reps, 0.1); }

double run_one(const EdgeList& g, const Reference& ref, const Solve& s,
               int threads, bool instrument, bool corrupt, Tracer& tracer,
               Instrumented* inst, Tally& tally) {
  MsfOptions opts;
  opts.algorithm = s.alg;
  opts.threads = s.parallel ? threads : 1;
  if (instrument) {
    opts.step_times = &inst->steps;
    opts.phase_stats = &inst->phases;
  }
  Tracer::Scope span(tracer, s.metric);
  const auto t0 = Clock::now();
  MsfResult r = smp::core::minimum_spanning_forest(g, opts);
  const double secs = seconds_since(t0);
  if (instrument) {
    span.set_args(JsonObject()
                      .add("threads", opts.threads)
                      .add("find_min_s", inst->steps.find_min)
                      .add("connect_s", inst->steps.connect)
                      .add("compact_s", inst->steps.compact)
                      .add("other_s", inst->steps.other)
                      .add("iterations", inst->phases.iterations)
                      .str());
  }
  ++tally.attempted;
  if (corrupt && !r.edge_ids.empty()) r.edge_ids.front() ^= 1;
  if (const std::string why = check_forest(g, ref, r); !why.empty()) {
    tally.fail(std::string(s.metric) + ": " + why);
  }
  return secs;
}

/// Sustainable memory bandwidth: a parallel copy between two arrays of
/// four times the last-level cache MachineProfile reports, capped at
/// 512 MiB each so the probe stays small on hosts that report a huge
/// shared LLC (both sizes go to `detail`); median of five passes.  Bytes
/// are computed (read + write), not counted by hardware.
void stream_probe(int threads, Tracer& tracer, JsonObject& values,
                  JsonObject& detail) {
  const smp::MachineProfile& mp = smp::machine_profile();
  std::size_t llc = mp.l3_bytes != 0 ? mp.l3_bytes : mp.l2_bytes;
  if (llc == 0) llc = std::size_t{32} << 20;
  const std::size_t n = std::clamp<std::size_t>(4 * llc, std::size_t{64} << 20,
                                                std::size_t{512} << 20) /
                        sizeof(double);
  std::vector<double> a(n, 1.0), b(n, 0.0);
  smp::ThreadTeam team(threads);
  std::vector<double> gbs;
  for (int rep = 0; rep < 5; ++rep) {
    Tracer::Scope span(tracer, "pprim.stream_copy");
    const auto t0 = Clock::now();
    smp::parallel_for(team, n, [&](std::size_t i) { b[i] = a[i] + 1.0; });
    gbs.push_back(2.0 * static_cast<double>(n * sizeof(double)) /
                  seconds_since(t0) / 1e9);
  }
  if (b[n / 2] != 2.0) throw std::runtime_error("stream probe miscomputed");
  values.add("pprim.stream_gbs", median(gbs));
  detail.add("stream_array_mb", static_cast<double>(n * sizeof(double)) / 1048576.0)
      .add("llc_mb", static_cast<double>(llc) / 1048576.0);
}

/// Setup stages the champion folds into StepTimes::other, timed one call at
/// a time through their public entry points.  Returns the summed medians:
/// the part of StepTimes::other these three stages explain.
double setup_probes(const EdgeList& g, int threads, Tracer& tracer,
                    JsonObject& values) {
  smp::ThreadTeam team(threads);
  MsfOptions opts;
  opts.threads = threads;
  std::vector<double> validate_s, rank_s, pack_s;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = Clock::now();
    {
      Tracer::Scope span(tracer, "core.validate_request");
      smp::core::validate_request(g, opts);
    }
    validate_s.push_back(seconds_since(t0));
    t0 = Clock::now();
    std::vector<std::uint32_t> rank;
    {
      Tracer::Scope span(tracer, "core.build_weight_ranks");
      rank = smp::core::build_weight_ranks(team, g);
    }
    rank_s.push_back(seconds_since(t0));
    std::vector<EdgeId> offsets;
    std::unique_ptr<std::uint64_t[]> keys;
    t0 = Clock::now();
    {
      Tracer::Scope span(tracer, "core.build_packed_arcs");
      smp::core::build_packed_arcs(g, g.num_vertices, rank, offsets, keys);
    }
    pack_s.push_back(seconds_since(t0));
  }
  const double m = static_cast<double>(g.num_edges());
  const double n = static_cast<double>(g.num_vertices);
  // Computed bytes of the pack step: read each edge and its rank, write two
  // packed keys per edge and the n + 1 offsets.
  const double pack_bytes =
      m * (sizeof(smp::graph::WEdge) + sizeof(std::uint32_t)) +
      2 * m * sizeof(std::uint64_t) + (n + 1) * sizeof(EdgeId);
  values.add("core.validate_s", median(validate_s))
      .add("core.rank_s", median(rank_s))
      .add("core.pack_s", median(pack_s))
      .add("core.pack_gbs", pack_bytes / median(pack_s) / 1e9);
  return median(validate_s) + median(rank_s) + median(pack_s);
}

}  // namespace

Reference reference_forest(const EdgeList& g) {
  MsfOptions opts;
  opts.algorithm = Algorithm::kSeqKruskal;
  MsfResult r = smp::core::minimum_spanning_forest(g, opts);
  Reference ref;
  ref.ids = std::move(r.edge_ids);
  std::sort(ref.ids.begin(), ref.ids.end());
  ref.weight = canonical_weight(g, ref.ids);
  ref.trees = r.num_trees;
  return ref;
}

StaticPhase::StaticPhase(const EdgeList& g, const Reference& ref,
                         const StaticOptions& opts, Tracer& tracer, Tally& tally)
    : g_(g), ref_(ref), opts_(opts), tracer_(tracer), tally_(tally) {
  const int root = tracer_.begin("static.warm_up");
  // Warm-up round: page in the graph and the allocator, spawn-path caches.
  // Its times set how often each solve repeats per round: the slowest runs
  // once, every other about half the slowest's time, so the fast ones are
  // not measured from a handful of reps and the slowest, which has the
  // fewest, gets the largest share of the window.
  double warm[kNumSolves];
  for (std::size_t k = 0; k < kNumSolves; ++k) {
    Instrumented inst;
    warm[k] = run_one(g_, ref_, kSolves[k], opts_.threads, false, false, tracer_,
                      &inst, tally_);
  }
  tracer_.end(root);
  const double slowest = *std::max_element(std::begin(warm), std::end(warm));
  for (std::size_t k = 0; k < kNumSolves; ++k) {
    repeat_[k] = std::clamp(static_cast<int>(std::lround(slowest / warm[k] / 2)), 1, 8);
  }
  rss_reset_ = reset_peak_rss(getpid());
}

void StaticPhase::run_window(double seconds) {
  const int root = tracer_.begin("static.window");
  // Timed rounds while the next one, if as long as the last, still ends
  // inside the window (at least three), so a run lasts about --seconds
  // however long a round is.  In a traced run odd rounds pass the
  // StepTimes/PhaseStats out-params and record spans, even rounds run
  // exactly like an untraced run; the difference between the two is the
  // tracing overhead.
  const auto w0 = Clock::now();
  double last_round = 0;
  for (int r = 0; r < 3 || seconds_since(w0) + last_round <= seconds;
       ++r, ++round_) {
    const auto r0 = Clock::now();
    const bool instrument = opts_.traced && round_ % 2 == 1;
    for (std::size_t k = 0; k < kNumSolves; ++k) {
      for (int rep = 0; rep < repeat_[k]; ++rep) {
        Instrumented inst;
        const bool corrupt = opts_.corrupt_forest && round_ == 0 && k == 0;
        const double secs = run_one(g_, ref_, kSolves[k], opts_.threads,
                                    instrument, corrupt, tracer_, &inst, tally_);
        if (opts_.traced && k == 0) {
          (instrument ? traced_champion_ : plain_champion_).push_back(secs);
        }
        times_[k].push_back(secs);
        if (instrument) insts_[k].push_back(inst);
      }
    }
    last_round = seconds_since(r0);
  }
  window_s_ += seconds_since(w0);
  tracer_.end(root);
}

void StaticPhase::finish(JsonObject& values, JsonObject& detail) {
  const auto& times = times_;
  const double peak = peak_rss_mb(getpid());
  const double solve = rep_time(times[0]);
  const double seq_best = std::min(rep_time(times[2]), rep_time(times[3]));
  values.add("solve_s", solve)
      .add("mst_bc_s", rep_time(times[1]))
      .add("seq_best_s", seq_best)
      .add("core.peak_rss_mb", peak)
      .add("seq.kruskal_s", rep_time(times[2]))
      .add("seq.prim_s", rep_time(times[3]));
  for (std::size_t k = 0; k < kNumSolves; ++k) {
    std::string list = "[";
    for (const double t : times[k]) {
      list += (list.size() > 1 ? ", " : "") + std::to_string(t);
    }
    detail.raw(std::string(kSolves[k].metric) + "_rep_s", list + "]");
  }
  detail.add("static_rounds", static_cast<std::uint64_t>(round_))
      .add("static_window_s", window_s_)
      .add("static_estimator", "lower decile of reps")
      .add("speedup_vs_seq", seq_best / solve)
      .add("static_peak_rss_reset", rss_reset_);
  if (!opts_.traced) return;

  // Per-layer numbers from the instrumented rounds.
  const auto med = [](const std::vector<Instrumented>& v, auto field) {
    std::vector<double> xs;
    for (const Instrumented& i : v) xs.push_back(static_cast<double>(field(i)));
    return median(xs);
  };
  const auto& ch = insts_[0];
  const auto& bc = insts_[1];
  const double other = med(ch, [](auto& i) { return i.steps.other; });
  values.add("core.find_min_s", med(ch, [](auto& i) { return i.steps.find_min; }))
      .add("core.connect_s", med(ch, [](auto& i) { return i.steps.connect; }))
      .add("core.compact_s", med(ch, [](auto& i) { return i.steps.compact; }))
      .add("core.other_s", other)
      .add("core.pruned_arcs", med(ch, [](auto& i) { return i.steps.pruned_arcs; }))
      .add("core.iterations", med(ch, [](auto& i) { return i.phases.iterations; }))
      .add("core.mst_bc.find_min_s", med(bc, [](auto& i) { return i.steps.find_min; }))
      .add("core.mst_bc.compact_s", med(bc, [](auto& i) { return i.steps.compact; }))
      .add("core.mst_bc.other_s", med(bc, [](auto& i) { return i.steps.other; }))
      .add("core.mst_bc.rounds", med(bc, [](auto& i) { return i.phases.iterations; }))
      .add("trace.solve_overhead_pct",
           100.0 * (median(traced_champion_) / median(plain_champion_) - 1.0));

  // Champion at p = 1 against p = threads: below 1 means more threads ran
  // slower.
  std::vector<double> p1;
  for (int rep = 0; rep < 3; ++rep) {
    Instrumented inst;
    const Solve one{"core.champion_p1", Algorithm::kChampion, false};
    p1.push_back(run_one(g_, ref_, one, 1, false, false, tracer_, &inst, tally_));
  }
  values.add("core.scaling_p1_over_p", rep_time(p1) / solve);

  const double attributed = setup_probes(g_, opts_.threads, tracer_, values);
  values.add("core.unattributed_s", other - attributed);
  stream_probe(opts_.threads, tracer_, values, detail);
}

}  // namespace msfbench
